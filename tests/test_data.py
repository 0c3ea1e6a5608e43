import numpy as np
import pytest

from desclite import data, numerics
from desclite.data import (
    DescriptorSet,
    PatchDataset,
    extract_descriptors,
    generate_synthetic,
    load_descriptors,
    load_patches,
    save_descriptors,
    save_patches,
    sift_like_descriptor,
    split_dataset,
)
from desclite.errors import ConfigError, FormatError, ShapeError
from desclite.numerics import pairwise_distance_matrix

from helpers import record_worker_parts


def _reference_cell_grid():
    center = (32 - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    weight = np.exp(-(((xx - center) ** 2 + (yy - center) ** 2) / (2.0 * 16.0 ** 2)))
    cell_w = 32 / 4
    bx = (xx + 0.5) / cell_w - 0.5
    by = (yy + 0.5) / cell_w - 0.5
    x0 = np.floor(bx).astype(np.int64)
    y0 = np.floor(by).astype(np.int64)
    return weight, x0, bx - x0, y0, by - y0


_GAUSS_WEIGHT, _CELL_FLOOR_X, _CELL_FRAC_X, _CELL_FLOOR_Y, _CELL_FRAC_Y = _reference_cell_grid()


def _reference_sift_like_descriptor(patch) -> np.ndarray:
    """The per-patch loop the batched descriptor replaced, kept as its oracle."""
    img = np.asarray(patch, dtype=np.float64)
    if img.shape != (32, 32):
        raise ShapeError(f"patch must be 32x32, got {img.shape}")
    gy, gx = np.gradient(img)
    mag = np.hypot(gx, gy) * _GAUSS_WEIGHT
    ori_bin = (np.arctan2(gy, gx) / (2.0 * np.pi / 8)) % 8

    hist = np.zeros((4, 4, 8))
    x0 = _CELL_FLOOR_X
    y0 = _CELL_FLOOR_Y
    fx = _CELL_FRAC_X
    fy = _CELL_FRAC_Y
    o0 = np.floor(ori_bin).astype(np.int64)
    fo = ori_bin - o0
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        yc = y0 + dy
        ok_y = (yc >= 0) & (yc < 4)
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            xc = x0 + dx
            ok = ok_y & (xc >= 0) & (xc < 4)
            w_spatial = mag * wy * wx
            for do, wo in ((0, 1.0 - fo), (1, fo)):
                oc = (o0 + do) % 8
                np.add.at(hist, (yc[ok], xc[ok], oc[ok]), (w_spatial * wo)[ok])

    vec = hist.ravel()
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        return np.zeros(4 * 4 * 8)
    vec = vec / norm
    np.minimum(vec, 0.2, out=vec)
    return vec / np.linalg.norm(vec)


# Per-tier jitter of the per-patch generator the chunked one replaced.
_REFERENCE_JITTER = {
    0: dict(rot=10.0, scale=0.10, shear=0.06, trans=2.0, bright=10.0, contrast=0.10, noise=4.0),
    1: dict(rot=25.0, scale=0.22, shear=0.14, trans=4.5, bright=22.0, contrast=0.22, noise=10.0),
    2: dict(rot=45.0, scale=0.38, shear=0.25, trans=7.0, bright=40.0, contrast=0.35, noise=18.0),
}

_REFERENCE_GRID_X, _REFERENCE_GRID_Y = np.meshgrid(
    np.arange(32) - (32 - 1) / 2.0, np.arange(32) - (32 - 1) / 2.0, indexing="xy")


def _reference_texture_params(rng):
    comps = []
    for _ in range(3):
        comps.append((
            rng.uniform(-8.0, 8.0),
            rng.uniform(-8.0, 8.0),
            rng.uniform(0.0, np.pi),
            rng.uniform(6.0, 12.0),
            rng.uniform(2.5, 5.0),
            rng.uniform(0.2, 0.5),
            rng.uniform(0.0, 2.0 * np.pi),
            rng.uniform(0.5, 1.0) * (1.0 if rng.random() < 0.5 else -1.0),
        ))
    return comps


def _reference_render(comps, affine, trans, bright, contrast, noise_sigma, rng):
    xs = affine[0, 0] * _REFERENCE_GRID_X + affine[0, 1] * _REFERENCE_GRID_Y + trans[0]
    ys = affine[1, 0] * _REFERENCE_GRID_X + affine[1, 1] * _REFERENCE_GRID_Y + trans[1]
    val = np.zeros_like(xs)
    for cx, cy, angle, sig_l, sig_s, freq, phase, amp in comps:
        dx = xs - cx
        dy = ys - cy
        ca, sa = np.cos(angle), np.sin(angle)
        u = ca * dx + sa * dy
        w = -sa * dx + ca * dy
        env = np.exp(-0.5 * ((u / sig_l) ** 2 + (w / sig_s) ** 2))
        val += amp * env * np.cos(freq * w + phase)
    img = (128.0 + 110.0 * val) * (1.0 + contrast) + bright
    if noise_sigma > 0.0:
        img = img + rng.normal(0.0, noise_sigma, img.shape)
    return np.clip(img, 0.0, 255.0).astype(np.uint8)


def _reference_generate_synthetic(classes, patches_per_class,
                                  noise_tiers=("easy", "hard", "tough"), seed=0):
    """The per-patch generator the chunked one replaced, kept as its oracle."""
    tier_codes = [("easy", "hard", "tough").index(t) for t in noise_tiers]
    n = classes * patches_per_class
    patches = np.empty((n, 32, 32), dtype=np.uint8)
    labels = np.repeat(np.arange(classes, dtype=np.int64), patches_per_class)
    seq = np.tile(np.arange(patches_per_class, dtype=np.int64), classes)
    tiers = np.zeros(n, dtype=np.uint8)
    row = 0
    for ci in range(classes):
        comps = _reference_texture_params(np.random.default_rng((seed, ci)))
        for j in range(patches_per_class):
            prng = np.random.default_rng((seed, ci, j))
            if j == 0:
                code = 0
                patches[row] = _reference_render(comps, np.eye(2), np.zeros(2), 0.0, 0.0,
                                                 0.0, prng)
            else:
                code = tier_codes[(j - 1) % len(tier_codes)]
                jit = _REFERENCE_JITTER[code]
                theta = np.deg2rad(prng.uniform(-jit["rot"], jit["rot"]))
                sx = 1.0 + prng.uniform(-jit["scale"], jit["scale"])
                sy = 1.0 + prng.uniform(-jit["scale"], jit["scale"])
                shear = prng.uniform(-jit["shear"], jit["shear"])
                rot = np.array([[np.cos(theta), -np.sin(theta)],
                                [np.sin(theta), np.cos(theta)]])
                affine = rot @ np.array([[sx, shear * sx], [0.0, sy]])
                trans = prng.uniform(-jit["trans"], jit["trans"], size=2)
                patches[row] = _reference_render(
                    comps, affine, trans,
                    bright=prng.uniform(-jit["bright"], jit["bright"]),
                    contrast=prng.uniform(-jit["contrast"], jit["contrast"]),
                    noise_sigma=jit["noise"], rng=prng,
                )
            tiers[row] = code
            row += 1
    return PatchDataset(patches=patches, labels=labels, sequence_ids=seq, tiers=tiers)


def _patch_set(patches):
    n = len(patches)
    return PatchDataset(patches, np.arange(n), np.zeros(n, int), np.zeros(n, int))


def _assert_matches_reference(patches):
    got = extract_descriptors(_patch_set(patches)).descriptors
    want = np.array([_reference_sift_like_descriptor(p) for p in patches]).reshape(-1, 128)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.fixture(params=[1, 2], ids=["one_worker", "two_workers"])
def handed(request, monkeypatch):
    """numerics.WORKERS at 1 and at 2; the (lo, hi) of every part then
    handed to the worker thread."""
    return record_worker_parts(monkeypatch, request.param)


def _assert_one_part_on_a_chunk_boundary(handed, n, chunk):
    """With two workers, exactly one part went to the worker thread: the
    rows from a chunk boundary inside the set to its end. With one, none."""
    if numerics.WORKERS < 2:
        assert handed == []
        return
    [(lo, hi)] = handed
    assert 0 < lo < n and lo % chunk == 0 and hi == n


def random_set(rng, n=10, dim=128, n_labels=5):
    return DescriptorSet(
        descriptors=rng.standard_normal((n, dim)),
        labels=rng.integers(0, n_labels, n),
        sequence_ids=rng.integers(0, 3, n),
    )


class TestSiftLikeDescriptor:
    def test_constant_patch_is_zero(self):
        patch = np.full((32, 32), 117, dtype=np.uint8)
        assert np.array_equal(sift_like_descriptor(patch), np.zeros(128))

    def test_dim_and_norm_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            patch = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
            d = sift_like_descriptor(patch)
            assert d.shape == (128,)
            norm = np.linalg.norm(d)
            assert norm == 0.0 or abs(norm - 1.0) <= 1e-6
            assert np.all(d >= 0.0) and np.all(d <= 1.0)

    def test_wrong_patch_size(self):
        with pytest.raises(ShapeError):
            sift_like_descriptor(np.zeros((31, 32)))

    def test_rotation_is_cell_and_bin_permutation(self):
        # rot90 CCW moves cell (r, c) to (c, 3-r) and shifts orientation by
        # -90 deg, i.e. two bins; compare against that analytic permutation.
        rng = np.random.default_rng(3)
        patch = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        base = sift_like_descriptor(patch).reshape(4, 4, 8)
        rotated = sift_like_descriptor(np.rot90(patch)).reshape(4, 4, 8)
        expected = np.empty_like(rotated)
        for r in range(4):
            for c in range(4):
                for o in range(8):
                    expected[r, c, o] = base[c, 3 - r, (o + 2) % 8]
        cos = (rotated.ravel() @ expected.ravel()) / (
            np.linalg.norm(rotated) * np.linalg.norm(expected)
        )
        assert cos > 0.9


@pytest.mark.usefixtures("handed")
class TestMatchesPerPatchLoop:
    """`extract_descriptors` is bit for bit the per-patch reference loop, at
    one worker and at two."""

    @pytest.mark.parametrize("seed", [0, 11])
    def test_generated_patches_of_every_tier(self, seed, handed):
        ds = generate_synthetic(40, 7, seed=seed)
        assert set(ds.tiers.tolist()) == {0, 1, 2}
        handed.clear()
        _assert_matches_reference(ds.patches)
        _assert_one_part_on_a_chunk_boundary(handed, 280, data.DESCRIBE_CHUNK)

    def test_random_patches_not_a_multiple_of_the_chunk(self, handed):
        rng = np.random.default_rng(5)
        assert 777 % data.DESCRIBE_CHUNK
        _assert_matches_reference(rng.integers(0, 256, (777, 32, 32), dtype=np.uint8))
        _assert_one_part_on_a_chunk_boundary(handed, 777, data.DESCRIBE_CHUNK)

    def test_edge_cases(self):
        constant = np.full((32, 32), 117, dtype=np.uint8)
        corner = np.zeros((32, 32), dtype=np.uint8)
        corner[0, 0] = 255
        ramp = np.tile(np.arange(0, 256, 8, dtype=np.uint8), (32, 1))
        patches = np.stack([constant, corner, ramp])
        _assert_matches_reference(patches)
        assert not extract_descriptors(_patch_set(patches)).descriptors[0].any()

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_patch(self, n, handed):
        rng = np.random.default_rng(n)
        _assert_matches_reference(rng.integers(0, 256, (n, 32, 32), dtype=np.uint8))
        assert handed == []  # below the split rule

    def test_tiny_chunk(self, monkeypatch, handed):
        monkeypatch.setattr(data, "DESCRIBE_CHUNK", 3)
        ds = generate_synthetic(4, 5, seed=3)  # 20 patches: a last chunk of 2
        _assert_matches_reference(ds.patches)
        _assert_one_part_on_a_chunk_boundary(handed, 20, 3)

    def test_angles_at_the_bin_wrap(self):
        # Float patches whose middle row has gx != 0 over gy = -0.0 (arctan2
        # gives -pi or -0.0), gy = +0.0 (+pi or +0.0) and gy = -1e-300 (a
        # negative angle so small that adding 8 bins rounds to 8.0).
        ramp = np.linspace(-50.0, 50.0, 32)
        patches = []
        for above, below in ((0.0, -0.0), (-0.0, 0.0), (0.0, -2e-300)):
            for sign in (1.0, -1.0):
                patch = np.zeros((32, 32))
                patch[10], patch[11], patch[12] = above, sign * ramp, below
                patches.append(patch)
        angles = []
        for patch in patches:
            gy, gx = np.gradient(patch)
            angles.append(np.arctan2(gy, gx)[11, 1:-1])
        angles = np.concatenate(angles)
        assert np.any(angles == -np.pi) and np.any(angles == np.pi)
        assert np.any((angles == 0.0) & np.signbit(angles))
        tiny = (angles < 0) & (angles / (np.pi / 4) + 8.0 == 8.0)
        assert np.any(tiny)
        for patch in patches:
            assert np.array_equal(sift_like_descriptor(patch),
                                  _reference_sift_like_descriptor(patch))

    def test_single_patch_entry_point_on_a_strided_view(self):
        rng = np.random.default_rng(9)
        patch = np.rot90(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        assert not patch.flags.c_contiguous
        assert np.array_equal(sift_like_descriptor(patch),
                              _reference_sift_like_descriptor(patch))


def _assert_same_dataset(got, want):
    for name in ("patches", "labels", "sequence_ids", "tiers"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


@pytest.mark.usefixtures("handed")
class TestMatchesPerPatchGenerator:
    """`generate_synthetic` is byte for byte the per-patch reference loop, at
    one worker and at two."""

    @pytest.mark.parametrize("classes,per_class,tiers", [
        (500, 6, ("easy", "hard", "tough")),
        (40, 7, ("tough", "easy")),
    ])
    def test_patches_labels_and_tiers(self, classes, per_class, tiers, handed):
        _assert_same_dataset(generate_synthetic(classes, per_class, tiers, seed=4),
                             _reference_generate_synthetic(classes, per_class, tiers, seed=4))
        _assert_one_part_on_a_chunk_boundary(handed, classes * per_class, data.RENDER_CHUNK)

    def test_a_set_below_the_split_rule(self, handed):
        _assert_same_dataset(generate_synthetic(2, 2, ("hard",), seed=4),
                             _reference_generate_synthetic(2, 2, ("hard",), seed=4))
        assert handed == []

    @pytest.mark.parametrize("chunk", [1, 7])  # 165 patches: 7 leaves a last chunk of 4
    def test_partial_last_chunk(self, monkeypatch, chunk, handed):
        monkeypatch.setattr(data, "RENDER_CHUNK", chunk)
        _assert_same_dataset(generate_synthetic(33, 5, seed=8),
                             _reference_generate_synthetic(33, 5, seed=8))
        _assert_one_part_on_a_chunk_boundary(handed, 165, chunk)


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(3, 2, seed=7)
        b = generate_synthetic(3, 2, seed=7)
        assert np.array_equal(a.patches, b.patches)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.sequence_ids, b.sequence_ids)
        assert np.array_equal(a.tiers, b.tiers)

    def test_seed_changes_data(self):
        a = generate_synthetic(3, 2, seed=7)
        b = generate_synthetic(3, 2, seed=8)
        assert not np.array_equal(a.patches, b.patches)

    def test_label_histogram(self):
        ds = generate_synthetic(5, 4, seed=1)
        values, counts = np.unique(ds.labels, return_counts=True)
        assert np.array_equal(values, np.arange(5))
        assert np.array_equal(counts, np.full(5, 4))

    def test_intra_class_tighter_than_inter_on_easy(self):
        ds = generate_synthetic(40, 3, noise_tiers=("easy",), seed=2)
        descs = extract_descriptors(ds)
        d = pairwise_distance_matrix(descs.descriptors, descs.descriptors)
        same = descs.labels[:, None] == descs.labels[None, :]
        np.fill_diagonal(same, False)
        inter = ~(descs.labels[:, None] == descs.labels[None, :])
        assert d[same].mean() < d[inter].mean()

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            generate_synthetic(1, 4, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(3, 1, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(3, 3, noise_tiers=("bogus",), seed=0)


class TestDescriptorFiles:
    def test_round_trip_f64_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        dset = random_set(rng)
        path = str(tmp_path / "x.ddr")
        save_descriptors(dset, path, precision=8)
        back = load_descriptors(path)
        assert np.array_equal(back.descriptors, dset.descriptors)
        assert np.array_equal(back.labels, dset.labels)
        assert np.array_equal(back.sequence_ids, dset.sequence_ids)
        assert back.dim == dset.dim
        assert back.tiers is None

    def test_round_trip_f32_stored_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        dset = random_set(rng, n=6, dim=16)
        path = str(tmp_path / "x.ddr")
        save_descriptors(dset, path, precision=4)
        once = load_descriptors(path)
        assert np.array_equal(once.descriptors,
                              dset.descriptors.astype(np.float32).astype(np.float64))
        save_descriptors(once, str(tmp_path / "y.ddr"), precision=4)
        assert (tmp_path / "x.ddr").read_bytes() == (tmp_path / "y.ddr").read_bytes()

    def test_tier_trailer_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        dset = random_set(rng, n=7, dim=8)
        dset.tiers = rng.integers(0, 3, 7).astype(np.uint8)
        path = str(tmp_path / "t.ddr")
        save_descriptors(dset, path)
        back = load_descriptors(path)
        assert np.array_equal(back.tiers, dset.tiers)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ddr"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_descriptors(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ddr"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_descriptors(str(path))

    def test_truncated_payload_reports_offset(self, tmp_path):
        rng = np.random.default_rng(3)
        dset = random_set(rng, n=5, dim=4)
        path = tmp_path / "t.ddr"
        save_descriptors(dset, str(path), precision=8)
        raw = path.read_bytes()
        header = 4 + 4 + 4 + 1
        truncated = raw[:header + 4 * 4 * 8]  # four of five rows
        path.write_bytes(truncated)
        with pytest.raises(FormatError, match="offset"):
            load_descriptors(str(path))

    def test_bad_precision_flag(self, tmp_path):
        path = tmp_path / "p.ddr"
        path.write_bytes(b"DDR1" + b"\x01\0\0\0" + b"\x01\0\0\0" + b"\x05")
        with pytest.raises(FormatError, match="precision"):
            load_descriptors(str(path))

    def test_normalized_flag_detected_on_load(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 8))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        dset = DescriptorSet(x, np.arange(5), np.zeros(5, dtype=int))
        path = str(tmp_path / "n.ddr")
        save_descriptors(dset, path)
        assert load_descriptors(path).normalized

    def test_a_tier_code_out_of_range_is_a_format_error(self, tmp_path):
        path = tmp_path / "t.ddr"
        save_descriptors(extract_descriptors(generate_synthetic(3, 2, seed=5)), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1] + bytes([7]))  # the last row's tier code
        with pytest.raises(FormatError) as exc:
            load_descriptors(str(path))
        assert str(exc.value) == f"{path}: tier code 7 out of range"

    def test_described_set_keeps_flag_and_bits_through_a_file(self, tmp_path):
        described = extract_descriptors(generate_synthetic(5, 4, seed=6))
        assert described.normalized
        path = str(tmp_path / "d.ddr")
        save_descriptors(described, path)
        back = load_descriptors(path)
        assert back.normalized
        assert np.array_equal(back.descriptors, described.descriptors)
        assert np.array_equal(back.tiers, described.tiers)


class TestPatchFiles:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(3, 2, seed=5)
        path = str(tmp_path / "p.dpt")
        save_patches(ds, path)
        back = load_patches(path)
        assert np.array_equal(back.patches, ds.patches)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.sequence_ids, ds.sequence_ids)
        assert np.array_equal(back.tiers, ds.tiers)

    def test_truncated(self, tmp_path):
        ds = generate_synthetic(3, 2, seed=5)
        path = tmp_path / "p.dpt"
        save_patches(ds, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError):
            load_patches(str(path))

    def test_a_tier_code_out_of_range_is_a_format_error(self, tmp_path):
        path = tmp_path / "p.dpt"
        save_patches(generate_synthetic(3, 2, seed=5), str(path))
        path.write_bytes(path.read_bytes()[:-1] + bytes([9]))  # the last patch's tier code
        with pytest.raises(FormatError) as exc:
            load_patches(str(path))
        assert str(exc.value) == f"{path}: tier code 9 out of range"


class TestSplitDataset:
    def test_all_train(self):
        rng = np.random.default_rng(0)
        dset = random_set(rng, n=12, dim=4, n_labels=4)
        train, val, test = split_dataset(dset, (1.0, 0.0, 0.0), seed=0)
        assert len(train) == len(dset)
        assert len(val) == 0 and len(test) == 0

    def test_no_label_spans_two_splits(self):
        rng = np.random.default_rng(1)
        dset = random_set(rng, n=60, dim=4, n_labels=10)
        parts = split_dataset(dset, (0.5, 0.3, 0.2), seed=3)
        seen = [set(p.labels.tolist()) for p in parts]
        assert not (seen[0] & seen[1])
        assert not (seen[0] & seen[2])
        assert not (seen[1] & seen[2])

    def test_80_10_10_class_counts(self):
        labels = np.repeat(np.arange(100), 2)
        dset = DescriptorSet(
            descriptors=np.random.default_rng(0).standard_normal((200, 4)),
            labels=labels,
            sequence_ids=np.tile([0, 1], 100),
        )
        parts = split_dataset(dset, (0.8, 0.1, 0.1), seed=1)
        counts = [len(np.unique(p.labels)) for p in parts]
        assert counts == [80, 10, 10]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        dset = random_set(rng, n=40, dim=4, n_labels=8)
        a = split_dataset(dset, (0.5, 0.25, 0.25), seed=9)
        b = split_dataset(dset, (0.5, 0.25, 0.25), seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.descriptors, pb.descriptors)

    def test_bad_fractions(self):
        rng = np.random.default_rng(3)
        dset = random_set(rng)
        with pytest.raises(ConfigError):
            split_dataset(dset, (0.5, 0.2, 0.2), seed=0)

    def test_empty_positive_split_rejected(self):
        dset = DescriptorSet(
            descriptors=np.zeros((4, 3)),
            labels=[0, 0, 1, 1],
            sequence_ids=[0, 1, 0, 1],
        )
        with pytest.raises(ConfigError):
            split_dataset(dset, (0.999, 0.0005, 0.0005), seed=0)


class TestValidation:
    def test_normalized_flag_is_checked(self):
        with pytest.raises(ConfigError):
            DescriptorSet(
                descriptors=np.full((2, 3), 2.0),
                labels=[0, 1],
                sequence_ids=[0, 0],
                normalized=True,
            )

    def test_normalized_flag_rejects_a_nan_row(self):
        x = np.eye(4)
        x[2] = np.nan
        with pytest.raises(ConfigError):
            DescriptorSet(descriptors=x, labels=[0, 1, 2, 3], sequence_ids=[0, 0, 0, 0],
                          normalized=True)

    def test_patch_dataset_shape(self):
        with pytest.raises(ShapeError):
            PatchDataset(
                patches=np.zeros((2, 16, 16), np.uint8),
                labels=[0, 1],
                sequence_ids=[0, 0],
                tiers=[0, 0],
            )

    @pytest.mark.parametrize("code", [3, 255, 256, -1])
    def test_both_containers_refuse_a_tier_code_out_of_range(self, code):
        tiers = np.array([0, code])  # int64, so 256 would wrap to 0 as uint8
        with pytest.raises(ConfigError, match=f"tier code {code} out of range"):
            PatchDataset(np.zeros((2, 32, 32), np.uint8), [0, 1], [0, 0], tiers)
        with pytest.raises(ConfigError, match=f"tier code {code} out of range"):
            DescriptorSet(np.zeros((2, 4)), [0, 1], [0, 0], tiers=tiers[::-1])

"""Dataset containers, file formats, the built-in patch descriptor, and
synthetic patch generation.

File formats (all little-endian):
  DPT1 patch file:      magic "DPT1", u32 N, N*1024 bytes of 32x32 pixels,
                        N u32 labels, N u32 sequence ids, N u8 tier codes.
  DDR1 descriptor file: magic "DDR1", u32 N, u32 D, u8 precision (4 or 8
                        bytes/value), N*D floats row-major, N u32 labels,
                        N u32 sequence ids, then optionally N u8 tier codes.
The tier block in DDR1 is an optional trailer so descriptor files produced
elsewhere (without tier information) remain readable.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._binio import ByteReader, check_u32, read_file, u32_bytes, write_atomic
from .errors import ConfigError, FormatError, ShapeError

PATCH_SIZE = 32
DESCRIPTOR_DIM = 128

TIER_NAMES = ("easy", "hard", "tough")

# Per-tier jitter applied by the synthetic generator: rotation (deg),
# relative scale, shear, translation (px), brightness shift, relative
# contrast, additive pixel noise sigma.
_TIER_JITTER = {
    0: dict(rot=10.0, scale=0.10, shear=0.06, trans=2.0, bright=10.0, contrast=0.10, noise=4.0),
    1: dict(rot=25.0, scale=0.22, shear=0.14, trans=4.5, bright=22.0, contrast=0.22, noise=10.0),
    2: dict(rot=45.0, scale=0.38, shear=0.25, trans=7.0, bright=40.0, contrast=0.35, noise=18.0),
}


def tier_code(name: str) -> int:
    try:
        return TIER_NAMES.index(name)
    except ValueError:
        raise ConfigError(f"unknown noise tier {name!r}, expected one of {TIER_NAMES}") from None


def tier_name(code: int) -> str:
    if not 0 <= code < len(TIER_NAMES):
        raise ConfigError(f"tier code {code} out of range")
    return TIER_NAMES[code]


def _as_ids(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != (n,):
        raise ShapeError(f"{what} must have shape ({n},), got {arr.shape}")
    if arr.size and arr.min() < 0:
        raise ConfigError(f"{what} must be non-negative")
    return arr


@dataclass
class PatchDataset:
    """32x32 grayscale patches with per-patch class label, sequence id and tier."""

    patches: np.ndarray       # (N, 32, 32) uint8
    labels: np.ndarray        # (N,) int64, 3D-point identity
    sequence_ids: np.ndarray  # (N,) int64, source-sequence tag
    tiers: np.ndarray         # (N,) uint8, codes into TIER_NAMES

    def __post_init__(self):
        self.patches = np.asarray(self.patches, dtype=np.uint8)
        if self.patches.ndim != 3 or self.patches.shape[1:] != (PATCH_SIZE, PATCH_SIZE):
            raise ShapeError(
                f"patches must be (N, {PATCH_SIZE}, {PATCH_SIZE}), got {self.patches.shape}"
            )
        n = len(self.patches)
        self.labels = _as_ids(self.labels, n, "labels")
        self.sequence_ids = _as_ids(self.sequence_ids, n, "sequence_ids")
        self.tiers = np.asarray(self.tiers, dtype=np.uint8)
        if self.tiers.shape != (n,):
            raise ShapeError(f"tiers must have shape ({n},), got {self.tiers.shape}")
        if self.tiers.size and self.tiers.max() >= len(TIER_NAMES):
            raise ConfigError("tier codes must be 0, 1 or 2")

    def __len__(self) -> int:
        return len(self.patches)


def _unit_or_zero(norms: np.ndarray) -> bool:
    """Every norm is 1 or 0 within 1e-6; a NaN norm is neither."""
    return bool(np.all((np.abs(norms - 1.0) <= 1e-6) | (norms <= 1e-6)))


@dataclass
class DescriptorSet:
    """N x D float64 descriptors with per-row label and sequence id.

    `tiers` is optional; it is carried through projection and used by the
    evaluation tasks for the per-tier breakdown when available. When
    `normalized` is set, every row must have unit L2 norm (or be all-zero)
    within 1e-6.
    """

    descriptors: np.ndarray
    labels: np.ndarray
    sequence_ids: np.ndarray
    tiers: np.ndarray | None = None
    normalized: bool = False

    def __post_init__(self):
        self.descriptors = np.ascontiguousarray(self.descriptors, dtype=np.float64)
        if self.descriptors.ndim != 2:
            raise ShapeError(f"descriptors must be 2-D, got {self.descriptors.shape}")
        n = len(self.descriptors)
        self.labels = _as_ids(self.labels, n, "labels")
        self.sequence_ids = _as_ids(self.sequence_ids, n, "sequence_ids")
        if self.tiers is not None:
            self.tiers = np.asarray(self.tiers, dtype=np.uint8)
            if self.tiers.shape != (n,):
                raise ShapeError(f"tiers must have shape ({n},), got {self.tiers.shape}")
        if self.normalized and n:
            if not _unit_or_zero(np.linalg.norm(self.descriptors, axis=1)):
                raise ConfigError("normalized flag set but rows are not unit/zero norm")

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    def __len__(self) -> int:
        return len(self.descriptors)

    def take(self, index: np.ndarray) -> "DescriptorSet":
        """Row-subset view copied into a new set."""
        return DescriptorSet(
            descriptors=self.descriptors[index].copy(),
            labels=self.labels[index].copy(),
            sequence_ids=self.sequence_ids[index].copy(),
            tiers=None if self.tiers is None else self.tiers[index].copy(),
            normalized=self.normalized,
        )


# ---------------------------------------------------------------------------
# Patch file format (DPT1)
# ---------------------------------------------------------------------------

def save_patches(dataset: PatchDataset, path: str) -> None:
    n = len(dataset)
    check_u32(dataset.labels, "labels")
    check_u32(dataset.sequence_ids, "sequence_ids")
    parts = [
        b"DPT1",
        u32_bytes(n),
        dataset.patches.astype("<u1").tobytes(),
        dataset.labels.astype("<u4").tobytes(),
        dataset.sequence_ids.astype("<u4").tobytes(),
        dataset.tiers.astype("<u1").tobytes(),
    ]
    write_atomic(path, b"".join(parts))


def load_patches(path: str) -> PatchDataset:
    r = read_file(path)
    r.magic(b"DPT1")
    n = r.u32("patch count")
    pixels = r.array("<u1", n * PATCH_SIZE * PATCH_SIZE, "pixel payload")
    labels = r.array("<u4", n, "labels")
    seq = r.array("<u4", n, "sequence ids")
    tiers = r.array("<u1", n, "tier codes")
    r.expect_end()
    return PatchDataset(
        patches=pixels.reshape(n, PATCH_SIZE, PATCH_SIZE),
        labels=labels.astype(np.int64),
        sequence_ids=seq.astype(np.int64),
        tiers=tiers.copy(),
    )


# ---------------------------------------------------------------------------
# Descriptor file format (DDR1)
# ---------------------------------------------------------------------------

def save_descriptors(dset: DescriptorSet, path: str, precision: int = 8) -> None:
    """Write a DDR1 file; precision is bytes per value (4 or 8)."""
    if precision not in (4, 8):
        raise ConfigError(f"precision must be 4 or 8 bytes/value, got {precision}")
    check_u32(dset.labels, "labels")
    check_u32(dset.sequence_ids, "sequence_ids")
    dtype = "<f4" if precision == 4 else "<f8"
    parts = [
        b"DDR1",
        u32_bytes(len(dset)),
        u32_bytes(dset.dim),
        bytes([precision]),
        dset.descriptors.astype(dtype).tobytes(),
        dset.labels.astype("<u4").tobytes(),
        dset.sequence_ids.astype("<u4").tobytes(),
    ]
    if dset.tiers is not None:
        parts.append(dset.tiers.astype("<u1").tobytes())
    write_atomic(path, b"".join(parts))


def load_descriptors(path: str) -> DescriptorSet:
    """Read a DDR1 file; 32-bit payloads are widened to float64."""
    r = read_file(path)
    r.magic(b"DDR1")
    n = r.u32("descriptor count")
    d = r.u32("descriptor dim")
    precision = r.u8("precision flag")
    if precision not in (4, 8):
        raise FormatError(f"{path}: bad precision flag {precision} at byte offset 12")
    dtype = "<f4" if precision == 4 else "<f8"
    payload = r.array(dtype, n * d, "descriptor payload")
    labels = r.array("<u4", n, "labels")
    seq = r.array("<u4", n, "sequence ids")
    tiers = None
    if r.remaining() == n and n:
        tiers = r.array("<u1", n, "tier codes").copy()
    r.expect_end()
    desc = payload.astype(np.float64).reshape(n, d)
    norms = np.linalg.norm(desc, axis=1) if n else np.empty(0)
    normalized = bool(n) and _unit_or_zero(norms)
    return DescriptorSet(
        descriptors=desc,
        labels=labels.astype(np.int64),
        sequence_ids=seq.astype(np.int64),
        tiers=tiers,
        normalized=normalized,
    )


# ---------------------------------------------------------------------------
# Built-in SIFT-like descriptor
# ---------------------------------------------------------------------------

_GAUSS_SIGMA = 16.0
_CELLS = 4
_ORI_BINS = 8
_CLAMP = 0.2
# Each patch's histogram row holds its DESCRIPTOR_DIM bins, then _ORI_BINS
# spare bins that collect the votes of corners outside the 4x4 grid.
_ROW_BINS = DESCRIPTOR_DIM + _ORI_BINS

# Patches described per chunk. Each patch casts 8 x 1024 votes, a bin index
# and a float64 weight each: 32 MiB of vote buffers at 256 patches. 512 ran
# slower than 128 or 256, and one chunk for all patches would need the
# buffers for all of them (about 390 MB at 3,000 patches).
DESCRIBE_CHUNK = 256


def _cell_grid():
    """Gaussian weight and, for each of the 4 (dy, dx) spatial corners of a
    pixel, its histogram offset (the spare bins when the corner lies outside
    the grid) and its y and x weights."""
    center = (PATCH_SIZE - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(PATCH_SIZE), np.arange(PATCH_SIZE), indexing="ij")
    weight = np.exp(-(((xx - center) ** 2 + (yy - center) ** 2) / (2.0 * _GAUSS_SIGMA ** 2)))
    cell_w = PATCH_SIZE / _CELLS
    bx = (xx + 0.5) / cell_w - 0.5
    by = (yy + 0.5) / cell_w - 0.5
    x0 = np.floor(bx).astype(np.int64)
    y0 = np.floor(by).astype(np.int64)
    fx = bx - x0
    fy = by - y0
    offsets, wys, wxs = [], [], []
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        yc = y0 + dy
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            xc = x0 + dx
            ok = (yc >= 0) & (yc < _CELLS) & (xc >= 0) & (xc < _CELLS)
            offsets.append(np.where(ok, (yc * _CELLS + xc) * _ORI_BINS, DESCRIPTOR_DIM).ravel())
            wys.append(wy.ravel())
            wxs.append(wx.ravel())
    return weight.ravel(), np.array(offsets), np.array(wys), np.array(wxs)


_GAUSS_WEIGHT, _CORNER_OFFSET, _CORNER_WY, _CORNER_WX = _cell_grid()


def _row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row, bit for bit `np.linalg.norm(row)`: a stacked
    1 x D by D x 1 `matmul` takes the same BLAS dot product per row, where
    `np.linalg.norm(x, axis=1)` sums in another order."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]).ravel())


def _describe_chunk(patches: np.ndarray, bin_base: np.ndarray,
                    idx: np.ndarray, votes: np.ndarray) -> np.ndarray:
    """Descriptors of an (n, 32, 32) chunk. `bin_base[c, p]` is corner c's
    per-pixel bin offset into patch p's histogram row; `idx` and `votes` are
    (8, >= n, 1024) work buffers for the votes' bins and weights."""
    n = len(patches)
    img = np.asarray(patches, dtype=np.float64)
    gy, gx = np.gradient(img, axis=(1, 2))
    mag = np.hypot(gx, gy).reshape(n, -1) * _GAUSS_WEIGHT
    ori_bin = (np.arctan2(gy, gx).reshape(n, -1) / (2.0 * np.pi / _ORI_BINS)) % _ORI_BINS
    o0 = np.floor(ori_bin).astype(np.int64)
    fo = ori_bin - o0
    orientations = ((o0 % _ORI_BINS, 1.0 - fo), ((o0 + 1) % _ORI_BINS, fo))

    # Votes in (corner, do) x patch x pixel order: each bin then receives its
    # votes in the order of the per-patch loop's np.add.at calls, so the
    # sums, and the descriptors, are bit for bit those of that loop.
    idx = idx[:, :n]
    votes = votes[:, :n]
    g = 0
    for c in range(len(_CORNER_OFFSET)):
        w_spatial = mag * _CORNER_WY[c] * _CORNER_WX[c]
        for oc, wo in orientations:
            np.add(bin_base[c, :n], oc, out=idx[g])
            np.multiply(w_spatial, wo, out=votes[g])
            g += 1
    hist = np.bincount(idx.ravel(), votes.ravel(), minlength=n * _ROW_BINS)
    hist = hist.reshape(n, _ROW_BINS)[:, :DESCRIPTOR_DIM]

    out = np.zeros((n, DESCRIPTOR_DIM))
    norm = _row_norms(hist)
    keep = norm >= 1e-12
    vec = hist[keep] / norm[keep, None]
    np.minimum(vec, _CLAMP, out=vec)
    out[keep] = vec / _row_norms(vec)[:, None]
    return out


def _describe(patches: np.ndarray) -> np.ndarray:
    """Descriptors of an (N, 32, 32) stack, DESCRIBE_CHUNK patches at a time.
    Every chunk reuses one pair of vote buffers: fresh ones per chunk, whose
    pages are faulted in again each time, made 3,000 patches ≈20% slower."""
    n = len(patches)
    chunk = max(1, min(n, DESCRIBE_CHUNK))
    bin_base = (np.arange(chunk)[:, None] * _ROW_BINS)[None] + _CORNER_OFFSET[:, None, :]
    idx = np.empty((2 * len(_CORNER_OFFSET), chunk, PATCH_SIZE * PATCH_SIZE), dtype=np.intp)
    votes = np.empty(idx.shape)
    out = np.empty((n, DESCRIPTOR_DIM))
    for start in range(0, n, chunk):
        out[start:start + chunk] = _describe_chunk(
            patches[start:start + chunk], bin_base, idx, votes)
    return out


def sift_like_descriptor(patch) -> np.ndarray:
    """128-D gradient-orientation-histogram descriptor of one 32x32 patch.

    Finite-difference gradients are pooled into a 4x4 grid of spatial cells
    with 8 orientation bins each (trilinear voting), under a centered
    Gaussian weight (sigma 16). The result is L2-normalized, clamped at 0.2
    per entry and renormalized; a gradient-free patch yields the zero vector.
    This is the row `extract_descriptors` gives the patch.
    """
    img = np.asarray(patch, dtype=np.float64)
    if img.shape != (PATCH_SIZE, PATCH_SIZE):
        raise ShapeError(f"patch must be {PATCH_SIZE}x{PATCH_SIZE}, got {img.shape}")
    return _describe(img[None])[0]


def extract_descriptors(dataset: PatchDataset) -> DescriptorSet:
    """Run the built-in descriptor (see `sift_like_descriptor`) over every
    patch of a dataset; the set is marked normalized.

    Patches are described in chunks of DESCRIBE_CHUNK: per chunk, one
    gradient pass and one `np.bincount` over its 8 x 1024 votes per patch,
    so the cost is linear in N with no per-patch Python work: about 0.23 ms
    per patch (1,800 patches in 0.42 s with one BLAS thread on a 2-vCPU
    x86-64 VM, numpy 2.4), where the per-patch loop took 0.55. Every bin adds
    its votes in the order of the per-patch reference loop (eight `np.add.at`
    calls, `tests/test_data.py`) and row norms are the same BLAS dot
    products, so each row is bit for bit that loop's descriptor, whatever
    the chunk size.
    """
    return DescriptorSet(
        descriptors=_describe(dataset.patches),
        labels=dataset.labels.copy(),
        sequence_ids=dataset.sequence_ids.copy(),
        tiers=dataset.tiers.copy(),
        normalized=True,
    )


# ---------------------------------------------------------------------------
# Synthetic dataset generation
# ---------------------------------------------------------------------------

_N_TEXTURE_COMPONENTS = 3


def _texture_params(rng: np.random.Generator):
    """Random oriented blob/edge components defining one class texture."""
    comps = []
    for _ in range(_N_TEXTURE_COMPONENTS):
        comps.append((
            rng.uniform(-8.0, 8.0),            # center x
            rng.uniform(-8.0, 8.0),            # center y
            rng.uniform(0.0, np.pi),           # orientation
            rng.uniform(6.0, 12.0),            # sigma along the stroke
            rng.uniform(2.5, 5.0),             # sigma across the stroke
            rng.uniform(0.2, 0.5),             # carrier frequency (rad/px)
            rng.uniform(0.0, 2.0 * np.pi),     # carrier phase
            rng.uniform(0.5, 1.0) * (1.0 if rng.random() < 0.5 else -1.0),  # amplitude
        ))
    return comps


_GRID_X, _GRID_Y = np.meshgrid(
    np.arange(PATCH_SIZE) - (PATCH_SIZE - 1) / 2.0,
    np.arange(PATCH_SIZE) - (PATCH_SIZE - 1) / 2.0,
    indexing="xy",
)


def _render(comps, affine: np.ndarray, trans: np.ndarray,
            bright: float, contrast: float, noise_sigma: float,
            rng: np.random.Generator) -> np.ndarray:
    xs = affine[0, 0] * _GRID_X + affine[0, 1] * _GRID_Y + trans[0]
    ys = affine[1, 0] * _GRID_X + affine[1, 1] * _GRID_Y + trans[1]
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


def generate_synthetic(classes: int, patches_per_class: int,
                       noise_tiers=TIER_NAMES, seed: int = 0) -> PatchDataset:
    """Deterministic synthetic patch dataset.

    Each class is a random oriented-blob texture. Patch 0 of a class is the
    canonical (unjittered) view, tagged easy; patch j >= 1 cycles through
    `noise_tiers` and gets tier-scaled affine jitter, brightness/contrast
    shift and additive noise. Sequence id equals the patch index within the
    class, so sequence 0 forms the reference view for the matching task.
    """
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if patches_per_class < 2:
        raise ConfigError(f"need at least 2 patches per class, got {patches_per_class}")
    tier_codes = [tier_code(t) for t in noise_tiers]
    if not tier_codes:
        raise ConfigError("noise_tiers must not be empty")

    n = classes * patches_per_class
    patches = np.empty((n, PATCH_SIZE, PATCH_SIZE), dtype=np.uint8)
    labels = np.repeat(np.arange(classes, dtype=np.int64), patches_per_class)
    seq = np.tile(np.arange(patches_per_class, dtype=np.int64), classes)
    tiers = np.zeros(n, dtype=np.uint8)

    row = 0
    for ci in range(classes):
        comps = _texture_params(np.random.default_rng((seed, ci)))
        for j in range(patches_per_class):
            prng = np.random.default_rng((seed, ci, j))
            if j == 0:
                code = 0
                patches[row] = _render(comps, np.eye(2), np.zeros(2), 0.0, 0.0, 0.0, prng)
            else:
                code = tier_codes[(j - 1) % len(tier_codes)]
                jit = _TIER_JITTER[code]
                theta = np.deg2rad(prng.uniform(-jit["rot"], jit["rot"]))
                sx = 1.0 + prng.uniform(-jit["scale"], jit["scale"])
                sy = 1.0 + prng.uniform(-jit["scale"], jit["scale"])
                shear = prng.uniform(-jit["shear"], jit["shear"])
                rot = np.array([[np.cos(theta), -np.sin(theta)],
                                [np.sin(theta), np.cos(theta)]])
                affine = rot @ np.array([[sx, shear * sx], [0.0, sy]])
                trans = prng.uniform(-jit["trans"], jit["trans"], size=2)
                patches[row] = _render(
                    comps, affine, trans,
                    bright=prng.uniform(-jit["bright"], jit["bright"]),
                    contrast=prng.uniform(-jit["contrast"], jit["contrast"]),
                    noise_sigma=jit["noise"], rng=prng,
                )
            tiers[row] = code
            row += 1
    return PatchDataset(patches=patches, labels=labels, sequence_ids=seq, tiers=tiers)


# ---------------------------------------------------------------------------
# Class-disjoint splitting
# ---------------------------------------------------------------------------

def split_dataset(dset: DescriptorSet, fractions, seed: int = 0):
    """Split by class label so no identity spans two splits.

    `fractions` are per-split class fractions (train, validation, test) and
    must sum to 1 within 1e-9. Classes are allocated by largest remainder on
    a seeded shuffle; a split with positive fraction but zero classes is a
    config error.
    """
    fractions = [float(f) for f in fractions]
    if any(f < 0 for f in fractions):
        raise ConfigError(f"fractions must be non-negative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got sum {sum(fractions)!r}")

    classes = np.unique(dset.labels)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(classes))
    shuffled = classes[order]

    n = len(classes)
    counts = [int(np.floor(f * n)) for f in fractions]
    remainders = [f * n - c for f, c in zip(fractions, counts)]
    leftover = n - sum(counts)
    for idx in sorted(range(len(fractions)), key=lambda i: -remainders[i])[:leftover]:
        counts[idx] += 1
    for f, c in zip(fractions, counts):
        if f > 0 and c == 0:
            raise ConfigError(
                f"split with fraction {f} would receive no classes (total {n})"
            )

    splits = []
    start = 0
    for c in counts:
        chosen = set(shuffled[start:start + c].tolist())
        mask = np.isin(dset.labels, list(chosen)) if chosen else np.zeros(len(dset), bool)
        splits.append(dset.take(np.flatnonzero(mask)))
        start += c
    return tuple(splits)

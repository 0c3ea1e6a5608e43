"""Dataset containers, file formats, the built-in patch descriptor, and
synthetic patch generation.

File formats (all little-endian):
  DPT1 patch file:      magic "DPT1", u32 N, N*1024 bytes of 32x32 pixels,
                        N u32 labels, N u32 sequence ids, N u8 tier codes.
  DDR1 descriptor file: magic "DDR1", u32 N, u32 D, u8 precision (4 or 8
                        bytes/value), N*D floats row-major, N u32 labels,
                        N u32 sequence ids, then optionally N u8 tier codes.
The tier block in DDR1 is an optional trailer so descriptor files produced
elsewhere (without tier information) remain readable. A tier code indexes
TIER_NAMES; a file holding any other code is malformed (FormatError).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._binio import check_u32, read_file, u32_bytes, write_atomic
from .errors import ConfigError, FormatError, ShapeError
from .numerics import row_norms, split_rows

PATCH_SIZE = 32
DESCRIPTOR_DIM = 128

TIER_NAMES = ("easy", "hard", "tough")


def tier_code(name: str) -> int:
    try:
        return TIER_NAMES.index(name)
    except ValueError:
        raise ConfigError(f"unknown noise tier {name!r}, expected one of {TIER_NAMES}") from None


def _as_ids(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != (n,):
        raise ShapeError(f"{what} must have shape ({n},), got {arr.shape}")
    if arr.size and arr.min() < 0:
        raise ConfigError(f"{what} must be non-negative")
    return arr


def _as_tiers(values, n: int) -> np.ndarray:
    """`values` as (n,) uint8 tier codes, each an index into TIER_NAMES;
    checked before the cast, which would wrap 256 to 0."""
    tiers = np.asarray(values)
    if tiers.shape != (n,):
        raise ShapeError(f"tiers must have shape ({n},), got {tiers.shape}")
    bad = (tiers < 0) | (tiers >= len(TIER_NAMES))
    if bad.any():
        raise ConfigError(f"tier code {tiers[bad][0]} out of range")
    return tiers.astype(np.uint8, copy=False)


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
        self.tiers = _as_tiers(self.tiers, n)

    def __len__(self) -> int:
        return len(self.patches)


def _unit_or_zero(norms: np.ndarray) -> bool:
    """Every norm is 1 or 0 within 1e-6; a NaN norm is neither."""
    return bool(np.all((np.abs(norms - 1.0) <= 1e-6) | (norms <= 1e-6)))


@dataclass
class DescriptorSet:
    """N x D float64 descriptors with per-row label and sequence id.

    `tiers` is optional: codes into TIER_NAMES, as in PatchDataset. It is
    carried through projection and used by the evaluation tasks for the
    per-tier breakdown when available. When `normalized` is set, every row
    must have unit L2 norm (or be all-zero) within 1e-6.
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
            self.tiers = _as_tiers(self.tiers, n)
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


class LabelIndex:
    """Ascending `rows` grouped by label code, built once with a stable sort.

    `codes` holds each row's label code, such as the inverse of `np.unique`
    over the set's labels, and `n_codes` the number of codes. Label c's
    rows, ascending, are `rows[start[c]:start[c] + count[c]]`, and `slot[k]`
    is where the row at input position k landed in `rows`. `outside` lists
    the rows whose label is not c in cyclic label order: the rows of labels
    above c, then those of labels below it, so the p-th of them is one
    lookup.
    """

    def __init__(self, rows: np.ndarray, codes: np.ndarray, n_codes: int):
        order = np.argsort(codes, kind="stable")
        self.rows = rows[order]
        self.count = np.bincount(codes, minlength=n_codes)
        self.start = np.cumsum(self.count) - self.count
        self.slot = np.empty(len(rows), dtype=np.int64)
        self.slot[order] = np.arange(len(rows))

    def outside(self, code, p):
        """The p-th rows (0-based) whose label is not `code`, counting from
        the first row after label `code`'s and wrapping round to row 0: a
        bijection from 0..n_other - 1 onto those rows, so a uniform index is a
        uniform row."""
        return self.rows[(self.start[code] + self.count[code] + p) % len(self.rows)]


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
    try:
        return PatchDataset(
            patches=pixels.reshape(n, PATCH_SIZE, PATCH_SIZE),
            labels=labels.astype(np.int64),
            sequence_ids=seq.astype(np.int64),
            tiers=tiers.copy(),
        )
    except ConfigError as exc:  # a tier code outside TIER_NAMES
        raise FormatError(f"{path}: {exc}") from None


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
    try:
        return DescriptorSet(
            descriptors=desc,
            labels=labels.astype(np.int64),
            sequence_ids=seq.astype(np.int64),
            tiers=tiers,
            normalized=normalized,
        )
    except ConfigError as exc:  # a tier code outside TIER_NAMES
        raise FormatError(f"{path}: {exc}") from None


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
# and a float64 weight each: 128 KiB of vote buffers per patch, 2 MiB at 16
# patches. Each of `_describe`'s two parts has its own, so the two take the
# 4 MiB that one part took at 32. Describing 3,000 patches in two parts took
# 0.20-0.22 s at 8, 0.14-0.16 s at 16 or 32, 0.16-0.18 s at 64, 0.18-0.20 s
# at 128 and 0.21-0.22 s at 256; in one part, 0.24-0.27 s at 8 to 32 and
# 0.31-0.36 s at 64 to 256 (best and median of nine interleaved runs, one
# BLAS thread, 2-vCPU x86-64 VM with 2 MiB of L2 per core), with equal
# descriptors at every size. One chunk for all patches would need the
# buffers for all of them (about 390 MB at 3,000 patches).
DESCRIBE_CHUNK = 16

# Chunks each part must get before `extract_descriptors` or
# `generate_synthetic` splits its chunks over two threads
# (`numerics.split_rows`). A chunk takes 1-2 ms, several times what a
# hand-off to the worker thread costs (70-200 us, `nn.PAIR_MIN_MULTIPLY_ADDS`).
MIN_PART_CHUNKS = 1


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


def _gradient(img: np.ndarray, axis: int, out: np.ndarray) -> None:
    """`np.gradient(img, axis=axis)` of an (n, 32, 32) stack, written into the
    float64 `out` with its bits: unit-spacing central differences inside, and
    one-sided ones (divided by 1) at the two edges."""
    f, g = np.moveaxis(img, axis, 1), np.moveaxis(out, axis, 1)
    np.subtract(f[:, 2:], f[:, :-2], out=g[:, 1:-1], dtype=np.float64)
    g[:, 1:-1] /= 2.0
    np.subtract(f[:, 1], f[:, 0], out=g[:, 0], dtype=np.float64)
    np.subtract(f[:, -1], f[:, -2], out=g[:, -1], dtype=np.float64)


def _describe_buffers(rows: int):
    """Work buffers for chunks of up to `rows` patches: `bin_base[c, p]`,
    corner c's per-pixel bin offset into patch p's histogram row; the votes'
    bins and weights, (8, rows, 1024) each; and four float64 and two int64
    per-pixel arrays."""
    bin_base = (np.arange(rows)[:, None] * _ROW_BINS)[None] + _CORNER_OFFSET[:, None, :]
    idx = np.empty((2 * len(_CORNER_OFFSET), rows, PATCH_SIZE * PATCH_SIZE), dtype=np.intp)
    return (bin_base, idx, np.empty(idx.shape), np.empty((4, rows, PATCH_SIZE, PATCH_SIZE)),
            np.empty((2, rows, PATCH_SIZE * PATCH_SIZE), dtype=np.intp))


def _describe_chunk(patches: np.ndarray, bin_base: np.ndarray, idx: np.ndarray,
                    votes: np.ndarray, pixels: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Descriptors of an (n, 32, 32) chunk, with the work buffers of
    `_describe_buffers` for n or more rows. Every chunk-sized array is one of
    them, made on the calling thread: the worker thread's own arrays would
    stay resident in its malloc arena after the call, and raised paper-3k's
    peak RSS ≈0.9 MB more."""
    n = len(patches)
    gy, gx, ori_bin, rest = pixels[:, :n]
    o0, o1 = bins[:, :n]
    _gradient(patches, 1, gy)
    _gradient(patches, 2, gx)
    # The angle in bins lies in [-4, 4], where `% _ORI_BINS` is fmod (which
    # leaves it as is) plus 8 below 0: adding 8 below 0 gives the same bits
    # without the libm calls. o0 is then 0..8, so `& 7` wraps it.
    ori_bin = np.arctan2(gy, gx, out=ori_bin).reshape(n, -1)
    ori_bin /= 2.0 * np.pi / _ORI_BINS
    np.add(ori_bin, _ORI_BINS, out=ori_bin, where=ori_bin < 0)
    mag = np.hypot(gx, gy, out=gx).reshape(n, -1)
    mag *= _GAUSS_WEIGHT
    np.floor(ori_bin, out=o0, casting="unsafe")
    fo = np.subtract(ori_bin, o0, out=ori_bin)
    np.add(o0, 1, out=o1)
    o0 &= _ORI_BINS - 1
    o1 &= _ORI_BINS - 1
    orientations = ((o0, np.subtract(1.0, fo, out=rest.reshape(n, -1))), (o1, fo))
    w_spatial = gy.reshape(n, -1)  # gy is read no more; gx holds the magnitudes

    # Votes in (corner, do) x patch x pixel order: each bin then receives its
    # votes in the order of the per-patch loop's np.add.at calls, so the
    # sums, and the descriptors, are bit for bit those of that loop.
    idx = idx[:, :n]
    votes = votes[:, :n]
    g = 0
    for c in range(len(_CORNER_OFFSET)):
        np.multiply(mag, _CORNER_WY[c], out=w_spatial)
        w_spatial *= _CORNER_WX[c]
        for oc, wo in orientations:
            np.add(bin_base[c, :n], oc, out=idx[g])
            np.multiply(w_spatial, wo, out=votes[g])
            g += 1
    hist = np.bincount(idx.ravel(), votes.ravel(), minlength=n * _ROW_BINS)
    hist = hist.reshape(n, _ROW_BINS)[:, :DESCRIPTOR_DIM]

    out = np.zeros((n, DESCRIPTOR_DIM))
    norm = row_norms(hist)
    keep = norm >= 1e-12
    vec = hist[keep] / norm[keep, None]
    np.minimum(vec, _CLAMP, out=vec)
    out[keep] = vec / row_norms(vec)[:, None]
    return out


def _describe(patches: np.ndarray) -> np.ndarray:
    """Descriptors of an (N, 32, 32) stack, DESCRIBE_CHUNK patches at a time,
    in up to two parts (`numerics.split_rows`). Every chunk of a part reuses
    the part's work buffers: fresh ones per chunk, whose pages are faulted
    in again each time, made 3,000 patches ≈20% slower."""
    n = len(patches)
    chunk = DESCRIBE_CHUNK
    out = np.empty((n, DESCRIPTOR_DIM))

    def run(start, stop, bufs):
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            out[lo:hi] = _describe_chunk(patches[lo:hi], *bufs)

    split_rows(run, n, chunk, MIN_PART_CHUNKS, _describe_buffers)
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
    so the cost is linear in N with no per-patch Python work. With two CPUs
    and at least 2 * MIN_PART_CHUNKS chunks, the chunks go in two parts
    through `numerics.split_rows`: those before the chunk boundary nearest
    the middle on the calling thread, the rest on the worker thread, each
    part with its own work buffers. 3,000 patches take ≈0.16 s in two parts
    and ≈0.26 s in one, about 0.09 ms per patch (one BLAS thread on a 2-vCPU
    x86-64 VM, numpy 2.4), where the per-patch loop took 0.55 ms. Every
    bin adds its votes in the order of the per-patch reference loop (eight
    `np.add.at` calls, `tests/test_data.py`) and row norms are the same BLAS dot
    products, so each row is bit for bit that loop's descriptor, whatever
    the chunk size and in one part or two.
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

# The draws of one texture component, in order, as (low, high): centre x
# and y (px), orientation, sigma along and across the stroke, carrier
# frequency (rad/px) and phase, amplitude magnitude, and a sign draw that
# makes the amplitude positive below 0.5.
_COMPONENT_RANGES = np.array([
    (-8.0, 8.0), (-8.0, 8.0), (0.0, np.pi), (6.0, 12.0), (2.5, 5.0),
    (0.2, 0.5), (0.0, 2.0 * np.pi), (0.5, 1.0), (0.0, 1.0),
])
_TEXTURE_LOW, _TEXTURE_HIGH = np.tile(_COMPONENT_RANGES, (_N_TEXTURE_COMPONENTS, 1)).T

# Per-tier jitter of a non-canonical view: the bounds of its uniform draws,
# in draw order (rotation in degrees, x and y relative scale, shear, x and y
# translation in px, brightness shift, relative contrast), and the sigma of
# its additive pixel noise.
_TIER_JITTER = np.array([
    # rot  sx    sy    shear tx   ty   bright contrast
    [10.0, 0.10, 0.10, 0.06, 2.0, 2.0, 10.0, 0.10],
    [25.0, 0.22, 0.22, 0.14, 4.5, 4.5, 22.0, 0.22],
    [45.0, 0.38, 0.38, 0.25, 7.0, 7.0, 40.0, 0.35],
])
_TIER_NOISE = (4.0, 10.0, 18.0)

# Patches rendered per chunk, in seven (chunk, 1024) float64 work buffers
# and one of noise: 2 MiB at 32, in each of `generate_synthetic`'s two
# parts. The heap keeps these pages resident after a call, so the chunk
# bounds what a call leaves behind. 500 x 6 patches took 0.43-0.48 s in two
# parts at 8, 0.33-0.34 s at 16 and 0.26-0.28 s at 32 or 64 (best and median
# of seven interleaved runs, one BLAS thread, 2-vCPU x86-64 VM), most likely
# because the two parts pass the GIL to each other once per chunk (not
# profiled). Going from 16 to 32 took the benchmark's paper-3k `setup_s`
# from 0.81 to 0.68 s (medians of 10 pairs) and left its median peak RSS.
RENDER_CHUNK = 32

_GRID_X, _GRID_Y = (g.ravel() for g in np.meshgrid(
    np.arange(PATCH_SIZE) - (PATCH_SIZE - 1) / 2.0,
    np.arange(PATCH_SIZE) - (PATCH_SIZE - 1) / 2.0,
    indexing="xy",
))


def _class_components(classes: int, seed: int) -> np.ndarray:
    """(classes, components, 9) texture parameters: centre x, centre y, cos
    and sin of the orientation, the two sigmas, frequency, phase, signed
    amplitude."""
    draws = np.array([np.random.default_rng((seed, ci)).uniform(_TEXTURE_LOW, _TEXTURE_HIGH)
                      for ci in range(classes)]).reshape(classes, _N_TEXTURE_COMPONENTS, 9)
    cx, cy, angle, sig_l, sig_s, freq, phase, mag, sign = np.moveaxis(draws, 2, 0)
    return np.stack([cx, cy, np.cos(angle), np.sin(angle), sig_l, sig_s, freq, phase,
                     np.where(sign < 0.5, mag, -mag)], axis=2)


def _affines(jitter: np.ndarray, canonical: np.ndarray) -> np.ndarray:
    """(m, 2, 2) maps: rotation times scale-and-shear, in one stacked
    product (the 2 x 2 product's bits are those of a single `@`); the
    identity for canonical views."""
    theta = np.deg2rad(jitter[:, 0])
    cos, sin = np.cos(theta), np.sin(theta)
    sx, sy = 1.0 + jitter[:, 1], 1.0 + jitter[:, 2]
    rot = np.stack([cos, -sin, sin, cos], axis=1).reshape(-1, 2, 2)
    shape = np.stack([sx, jitter[:, 3] * sx, np.zeros_like(sx), sy], axis=1).reshape(-1, 2, 2)
    affine = rot @ shape
    affine[canonical] = np.eye(2)
    return affine


def _render_chunk(comps: np.ndarray, affine: np.ndarray, jitter: np.ndarray,
                  noise: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Pixels, clipped to [0, 255], of m patches as an (m, 1024) view of
    `work[0]`. Per patch: its (components, 9) texture, its 2 x 2 map, its
    eight jitter draws (shift, brightness and contrast are read) and its
    additive noise; `work` holds seven (>= m, 1024) buffers. Each element
    takes the per-patch formula's operations in its order: map the grid;
    per component, rotate into the stroke frame and add amplitude times
    Gaussian envelope times carrier cosine; then contrast, brightness and
    noise."""
    m = len(comps)
    val, xs, ys, dx, dy, u, w = work[:, :m]
    a00, a01, a10, a11 = affine.reshape(m, 4).T[:, :, None]
    shift_x, shift_y, bright, contrast = jitter[:, 4:8].T[:, :, None]
    np.multiply(a00, _GRID_X, out=xs)
    xs += np.multiply(a01, _GRID_Y, out=dx)
    xs += shift_x
    np.multiply(a10, _GRID_X, out=ys)
    ys += np.multiply(a11, _GRID_Y, out=dx)
    ys += shift_y
    val.fill(0.0)
    for cx, cy, ca, sa, sig_l, sig_s, freq, phase, amp in comps.transpose(1, 2, 0)[..., None]:
        np.subtract(xs, cx, out=dx)
        np.subtract(ys, cy, out=dy)
        np.multiply(ca, dx, out=u)
        u += np.multiply(sa, dy, out=w)
        np.multiply(-sa, dx, out=w)
        dy *= ca
        w += dy
        u /= sig_l
        u *= u
        np.divide(w, sig_s, out=dx)
        dx *= dx
        u += dx
        u *= -0.5
        np.exp(u, out=u)
        u *= amp
        w *= freq
        w += phase
        np.cos(w, out=w)
        u *= w
        val += u
    val *= 110.0
    val += 128.0
    val *= 1.0 + contrast
    val += bright
    val += noise
    return np.clip(val, 0.0, 255.0, out=val)


def generate_synthetic(classes: int, patches_per_class: int,
                       noise_tiers=TIER_NAMES, seed: int = 0) -> PatchDataset:
    """Deterministic synthetic patch dataset.

    Each class is a random oriented-blob texture. Patch 0 of a class is the
    canonical (unjittered) view, tagged easy; patch j >= 1 cycles through
    `noise_tiers` and gets tier-scaled affine jitter, brightness/contrast
    shift and additive noise. Sequence id equals the patch index within the
    class, so sequence 0 forms the reference view for the matching task.

    Draws. Class ci's texture is one `uniform(low, high)` call of 27 doubles
    on `default_rng((seed, ci))`, 9 per component: centre x, centre y,
    orientation, sigma along, sigma across, frequency, phase, amplitude
    magnitude, then a sign draw (positive below 0.5). Patch j >= 1 of class
    ci takes, on `default_rng((seed, ci, j))`, one `uniform(-hi, hi)` call
    of 8 doubles (rotation, x scale, y scale, shear, x shift, y shift,
    brightness, contrast; hi from its tier), then 1024 standard normals
    times its tier's noise sigma, the values `normal(0, sigma, 1024)`
    returns. Patch 0 draws nothing and builds no generator: identity map,
    no shift, no noise.

    Cost. Patches are rendered RENDER_CHUNK at a time in reused (chunk,
    1024) buffers, with no per-patch pixel work in Python and each pixel's
    arithmetic in a fixed order, so every patch's bytes are the same at any
    chunk size. The chunks go in one part or two as `extract_descriptors`'
    do, each part with its own buffers, and every patch draws from its own
    generator, so the bytes are also the same in one part or two. Per patch
    that leaves a generator and two draw calls (≈45 µs) and ≈60 numpy
    passes over its 1024 pixels: 500 x 6 take ≈0.41 s in one part, about
    0.14 ms per patch, and ≈0.34 s in two, with one BLAS thread on a 2-vCPU
    x86-64 VM (numpy 2.4). Half of the one-part time is the 9.2M carrier
    cosines: numpy's float64 `cos` takes ≈25 ns a value there, its `exp`
    ≈1.3. The two parts overlap only where numpy releases the GIL: making
    the 2,500 generators and their uniform draws holds it for ≈0.07 s.
    """
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if patches_per_class < 2:
        raise ConfigError(f"need at least 2 patches per class, got {patches_per_class}")
    tier_codes = np.array([tier_code(t) for t in noise_tiers], dtype=np.uint8)
    if not len(tier_codes):
        raise ConfigError("noise_tiers must not be empty")

    n = classes * patches_per_class
    pixels = PATCH_SIZE * PATCH_SIZE
    patches = np.empty((n, pixels), dtype=np.uint8)
    labels = np.repeat(np.arange(classes, dtype=np.int64), patches_per_class)
    seq = np.tile(np.arange(patches_per_class, dtype=np.int64), classes)
    tiers = np.where(seq == 0, 0, tier_codes[(seq - 1) % len(tier_codes)]).astype(np.uint8)
    comps = _class_components(classes, seed)

    chunk = RENDER_CHUNK

    def buffers(rows):
        return (np.empty((rows, _TIER_JITTER.shape[1])), np.empty((rows, pixels)),
                np.empty((7, rows, pixels)))

    def run(start, stop, bufs):
        jitter, noise, work = bufs
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            for r, row in enumerate(range(lo, hi)):
                ci, j = divmod(row, patches_per_class)
                if j == 0:
                    jitter[r] = 0.0
                    noise[r] = 0.0
                    continue
                prng = np.random.default_rng((seed, ci, j))
                bound = _TIER_JITTER[tiers[row]]
                jitter[r] = prng.uniform(-bound, bound)
                prng.standard_normal(out=noise[r])
                noise[r] *= _TIER_NOISE[tiers[row]]
            m = hi - lo
            affine = _affines(jitter[:m], seq[lo:hi] == 0)
            patches[lo:hi] = _render_chunk(comps[labels[lo:hi]], affine, jitter[:m],
                                           noise[:m], work)

    split_rows(run, n, chunk, MIN_PART_CHUNKS, buffers)
    return PatchDataset(patches=patches.reshape(n, PATCH_SIZE, PATCH_SIZE),
                        labels=labels, sequence_ids=seq, tiers=tiers)


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

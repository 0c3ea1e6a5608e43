"""PCA baseline: covariance eigendecomposition projection.

Model file format "DPC1" (little-endian): magic, u32 D, u32 d, D f64 mean,
then the D x d basis in column-major order as f64. `load_pca` refuses a
file whose d is not in [1, D], as `fit_pca` does, with a FormatError.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._binio import read_file, u32_bytes, write_atomic
from .data import DescriptorSet
from .errors import ConfigError, FormatError, ShapeError
from .numerics import l2_normalize_rows, sym_eigen


@dataclass
class PcaModel:
    mean: np.ndarray          # (D,)
    basis: np.ndarray         # (D, d), columns are principal directions
    input_dim: int
    output_dim: int
    eigenvalues: np.ndarray | None = None  # full spectrum from the fit, if known


def fit_pca(train: DescriptorSet, d: int) -> PcaModel:
    """Top-d principal directions of the sample covariance (divisor N-1),
    from its full eigendecomposition by LAPACK `eigh` (`numerics.sym_eigen`).

    Columns are ordered by descending eigenvalue, with the sign fixed so each
    column's largest-magnitude entry is positive. A covariance with fewer
    than d positive eigenvalues triggers a warning and the basis is padded
    with the remaining (zero-variance) eigenvectors.
    """
    x = train.descriptors
    n, dim = x.shape
    if n < 2:
        raise ConfigError(f"fit_pca needs at least 2 rows, got {n}")
    if not 1 <= d <= dim:
        raise ConfigError(f"target dim must be in [1, {dim}], got {d}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / (n - 1)
    eig = sym_eigen(cov)
    if np.sum(eig.eigenvalues > 0.0) < d:
        warnings.warn(
            f"covariance has fewer than {d} positive eigenvalues; "
            "basis padded with zero-variance directions",
            RuntimeWarning,
            stacklevel=2,
        )
    basis = eig.eigenvectors[:, :d].copy()
    for j in range(d):
        col = basis[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            basis[:, j] = -col
    return PcaModel(
        mean=mean,
        basis=basis,
        input_dim=dim,
        output_dim=d,
        eigenvalues=eig.eigenvalues.copy(),
    )


def pca_transform(model: PcaModel, dset: DescriptorSet) -> DescriptorSet:
    """Project rows onto the basis after centering, then always L2-normalize
    them (a zero row stays zero), as the MLP embeddings are. The result
    shares the source's label, sequence-id and tier arrays."""
    if dset.dim != model.input_dim:
        raise ShapeError(
            f"descriptor dim {dset.dim} does not match PCA input dim {model.input_dim}"
        )
    z, _, _ = l2_normalize_rows((dset.descriptors - model.mean) @ model.basis)
    return replace(dset, descriptors=z, normalized=True)


def save_pca(model: PcaModel, path: str) -> None:
    parts = [
        b"DPC1",
        u32_bytes(model.input_dim),
        u32_bytes(model.output_dim),
        model.mean.astype("<f8").tobytes(),
        np.asfortranarray(model.basis.astype("<f8")).tobytes(order="F"),
    ]
    write_atomic(path, b"".join(parts))


def load_pca(path: str) -> PcaModel:
    r = read_file(path)
    r.magic(b"DPC1")
    big_d = r.u32("input dim")
    small_d = r.u32("output dim")
    if not 1 <= small_d <= big_d:
        raise FormatError(f"{path}: output dim must be in [1, {big_d}], got {small_d}")
    mean = r.array("<f8", big_d, "mean").astype(np.float64)
    basis = r.array("<f8", big_d * small_d, "basis").astype(np.float64)
    r.expect_end()
    return PcaModel(
        mean=mean,
        basis=basis.reshape(small_d, big_d).T.copy(),
        input_dim=big_d,
        output_dim=small_d,
        eigenvalues=None,
    )

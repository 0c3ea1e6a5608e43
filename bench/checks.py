"""Correctness checks on every job's output.

Each check raises CheckError on the first violation; the pass runner counts
the job as failed and goes on.
"""
from __future__ import annotations

import numpy as np

NORM_TOL = 1e-6
ORTHONORMAL_TOL = 1e-8


class CheckError(Exception):
    """A job's output broke a property the benchmark relies on."""


def _finite(array, what: str) -> None:
    if not np.all(np.isfinite(array)):
        raise CheckError(f"{what} has non-finite values")


def unit_or_zero_rows(x: np.ndarray, what: str) -> None:
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero((np.abs(norms - 1.0) > NORM_TOL) & (norms > NORM_TOL))
    if len(bad):
        raise CheckError(f"{what}: row {bad[0]} has norm {norms[bad[0]]!r}, "
                         f"not 1 or 0 ({len(bad)} such rows)")


def descriptor_set(dset, rows: int, dim: int) -> None:
    if dset.descriptors.shape != (rows, dim):
        raise CheckError(f"descriptors have shape {dset.descriptors.shape}, "
                         f"expected {(rows, dim)}")
    _finite(dset.descriptors, "descriptors")
    unit_or_zero_rows(dset.descriptors, "descriptors")


def pca_model(model) -> None:
    _finite(model.mean, "PCA mean")
    _finite(model.basis, "PCA basis")
    gram = model.basis.T @ model.basis
    err = float(np.abs(gram - np.eye(model.output_dim)).max())
    if err > ORTHONORMAL_TOL:
        raise CheckError(f"PCA basis is not orthonormal: max |B^T B - I| = {err:.3g}")


def encoder(model) -> None:
    for key, param, _ in model.parameters():
        _finite(param, f"encoder parameter {key}")
    for i, layer in enumerate(model.layers):
        if layer.kind == "batchnorm":
            _finite(layer.running_mean, f"layer {i} running mean")
            _finite(layer.running_var, f"layer {i} running variance")


def same_rows(dset, source) -> None:
    """Row count, labels and sequence ids carried over from `source`."""
    if len(dset) != len(source):
        raise CheckError(f"{len(dset)} rows, expected {len(source)}")
    if not np.array_equal(dset.labels, source.labels):
        raise CheckError("labels differ from the source rows")
    if not np.array_equal(dset.sequence_ids, source.sequence_ids):
        raise CheckError("sequence ids differ from the source rows")


def reduced_set(reduced, source, dim: int) -> None:
    same_rows(reduced, source)
    if reduced.dim != dim:
        raise CheckError(f"reduced dim {reduced.dim}, expected {dim}")
    _finite(reduced.descriptors, "reduced descriptors")
    unit_or_zero_rows(reduced.descriptors, "reduced descriptors")


def report(rep) -> None:
    if rep.num_queries <= 0:
        raise CheckError(f"{rep.task}: num_queries = {rep.num_queries}")
    values = {"overall": rep.map_overall, **rep.map_by_tier}
    for key, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise CheckError(f"{rep.task}: mAP {key} = {value!r} outside [0, 1]")

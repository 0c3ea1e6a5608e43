"""Shared test utilities: finite-difference gradient oracles, and records
of the work handed to `numerics`' worker thread."""
import numpy as np

from desclite import numerics
from desclite.nn import backward, forward


def _record_handed(monkeypatch, workers, entry):
    """Set numerics.WORKERS to `workers` and return a list that collects
    `entry(part)` for every part then handed to the worker thread, leaving
    out those for which it is None."""
    monkeypatch.setattr(numerics, "WORKERS", workers)
    handed = []
    submit = numerics._worker.submit

    def recorded(part):
        kept = entry(part)
        if kept is not None:
            handed.append(kept)
        return submit(part)

    monkeypatch.setattr(numerics._worker, "submit", recorded)
    return handed


def record_worker_parts(monkeypatch, workers):
    """Set numerics.WORKERS to `workers` and return a list that collects the
    (lo, hi) of every part `split_rows` then hands the worker thread."""
    return _record_handed(monkeypatch, workers, lambda part: (
        None if part.func is np.dot else tuple(part.args[:2])))


def record_weight_products(monkeypatch, workers):
    """Set numerics.WORKERS to `workers` and return a list that collects the
    `grad_weight` array of every linear whose backward then hands its weight
    product to the worker thread."""
    return _record_handed(monkeypatch, workers, lambda part: (
        part.keywords["out"] if part.func is np.dot else None))


def finite_diff_matrix(fn, x, h=1e-5, indices=None):
    """Central-difference gradient of scalar fn(x) w.r.t. entries of x.

    indices: optional list of flat indices to probe (defaults to all).
    Returns a dict {flat_index: derivative}.
    """
    x = np.array(x, dtype=np.float64)
    flat = x.ravel()
    if indices is None:
        indices = range(flat.size)
    out = {}
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + h
        fp = fn(x)
        flat[idx] = orig - h
        fm = fn(x)
        flat[idx] = orig
        out[idx] = (fp - fm) / (2.0 * h)
    return out


def assert_grad_close(analytic_flat, fd: dict, rel_tol=1e-4, floor=1e-6):
    """Compare analytic gradient entries against finite differences."""
    for idx, fd_val in fd.items():
        an_val = analytic_flat[idx]
        denom = max(abs(fd_val), abs(an_val), floor)
        assert abs(an_val - fd_val) <= rel_tol * denom, (
            f"grad mismatch at flat index {idx}: analytic {an_val!r}, fd {fd_val!r}"
        )


def check_model_gradients(model, loss_fn, batch, h=1e-5, rel_tol=1e-4,
                          sample_per_tensor=None, rng=None):
    """FD-check d loss_fn(forward(model, batch)) / d(parameters).

    loss_fn maps the model output to a losses.LossValue whose grad is taken
    w.r.t. that output. With sample_per_tensor set, only a random subset of
    entries per parameter tensor is probed.
    """
    out = forward(model, batch)
    loss = loss_fn(out)
    backward(model, loss.grad)
    analytic = {key: grad.copy() for key, _, grad in model.parameters()}

    def loss_value():
        return loss_fn(forward(model, batch)).value

    for key, param, _ in model.parameters():
        flat = param.ravel()
        if sample_per_tensor is None or flat.size <= sample_per_tensor:
            indices = range(flat.size)
        else:
            indices = rng.choice(flat.size, size=sample_per_tensor, replace=False)
        fd = {}
        for idx in indices:
            orig = flat[idx]
            flat[idx] = orig + h
            fp = loss_value()
            flat[idx] = orig - h
            fm = loss_value()
            flat[idx] = orig
            fd[idx] = (fp - fm) / (2.0 * h)
        assert_grad_close(analytic[key].ravel(), fd, rel_tol=rel_tol)

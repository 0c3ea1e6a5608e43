"""Spans around calls into desclite's layers, recorded from the benchmark side.

Callers import the functions they use by name, so a call is traced by
rebinding that name in the calling module (for example `desclite.train.forward`
or `desclite.eval.pairwise_distance_matrix`) to a wrapper that opens a span.
The nn layer classes get their `forward`/`backward` methods wrapped the same
way. `Tracer.instrument()` restores every binding on exit, so untraced runs
call the original functions.

A span's self time is its duration minus the time covered by its direct
child spans. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict

TRAIN_RUNS = ("sv", "sv_dist", "us", "ss")
LOSSES = ("triplet_loss_hardest", "distance_loss", "reconstruction_loss",
          "softmax_cross_entropy")
# Layer kind and shape of every layer the workloads train: the (512, 512)
# encoder to 32 dims, the autoencoder's decoder, and the k=50 ss head.
LAYER_SHAPES = ("Linear_128x512", "Linear_512x512", "Linear_512x32", "Linear_32x512",
                "Linear_512x128", "Linear_32x50", "BatchNorm_512", "ReLU_512",
                "L2Normalize_32")


def _declare():
    """Per-layer metrics as (name, unit, better)."""
    out = [
        ("data.extract_descriptors.s", "s", "lower"),
        ("data.sift_like_descriptor.calls", "count", "lower"),
        ("data.generate_synthetic.s", "s", "lower"),
        ("data.save_descriptors.s", "s", "lower"),
        ("data.load_descriptors.s", "s", "lower"),
        ("data.descriptor_bytes", "bytes", "lower"),
        ("numerics.sym_eigen.s", "s", "lower"),
        ("numerics.pairwise_distance_matrix.s", "s", "lower"),
        ("numerics.pairwise_distance_matrix.calls", "count", "lower"),
        ("numerics.pairwise_distance_matrix.bytes", "bytes", "lower"),
        ("pca.fit_pca.s", "s", "lower"),
        ("pca.fit_pca.self_s", "s", "lower"),
        ("pca.pca_transform.s", "s", "lower"),
        ("nn.forward.s", "s", "lower"),
        ("nn.backward.s", "s", "lower"),
        ("nn.adam_step.s", "s", "lower"),
        ("nn.adam_step.calls", "count", "lower"),
        ("nn.project.s", "s", "lower"),
        ("nn.project.rows", "rows", "lower"),
    ]
    out += [(f"nn.{shape}.{way}.s", "s", "lower")
            for shape in LAYER_SHAPES for way in ("forward", "backward")]
    out += [(f"losses.{loss}.{stat}", unit, "lower")
            for loss in LOSSES for stat, unit in (("s", "s"), ("calls", "count"))]
    out += [
        ("cluster.kmeans_fit.s", "s", "lower"),
        ("cluster.kmeans_fit.calls", "count", "lower"),
        ("cluster.kmeans_fit.iterations", "count", "lower"),
    ]
    out += [(f"train.{run}.{stat}", "s", "lower")
            for run in TRAIN_RUNS for stat in ("s", "self_s")]
    out += [(f"eval.{task}.{stat}", "s", "lower")
            for task in ("verification", "matching", "retrieval")
            for stat in ("s", "self_s")]
    out += [
        ("eval.verification.drawn_frac", "ratio", "higher"),
        ("eval.matching.skipped_frac", "ratio", "lower"),
        ("eval.retrieval.skipped_frac", "ratio", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return out


PER_LAYER = _declare()


class Tracer:
    """In-memory spans with per-name totals, self times, calls and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []    # [name, start, end, parent span index or -1]
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._open = []    # [span index, seconds covered by child spans]

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        start = self.clock()
        self.spans.append([name, start, None, parent])
        frame = [index, 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            duration = end - start
            self.spans[index][2] = end
            self.seconds[name] += duration
            self.self_seconds[name] += duration - frame[1]
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += duration

    def wrap(self, fn, name, count=None):
        """Wrapper of `fn` that records a span; `name` is a string or a
        function of the call's positional arguments, and `count(counters,
        args, kwargs, result)` adds to the counters after the call."""
        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(args)):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in bindings():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_layer(self, overhead_frac: float) -> dict:
        """Every declared per-layer metric, 0 for layers never called."""
        values = dict(self.counters)
        for name, seconds in self.seconds.items():
            values[f"{name}.s"] = seconds
            values[f"{name}.self_s"] = self.self_seconds[name]
            values[f"{name}.calls"] = self.calls[name]
        drawn = values.get("eval.verification.drawn", 0.0)
        requested = values.get("eval.verification.requested", 0.0)
        values["eval.verification.drawn_frac"] = drawn / requested if requested else 0.0
        for task in ("matching", "retrieval"):
            skipped = values.get(f"eval.{task}.skipped", 0.0)
            scored = values.get(f"eval.{task}.scored", 0.0)
            values[f"eval.{task}.skipped_frac"] = (
                skipped / (skipped + scored) if skipped + scored else 0.0)
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit, _ in PER_LAYER}

    def undeclared(self) -> list:
        """Traced span names whose metrics are not declared (a new layer
        shape, for instance)."""
        declared = {name.rsplit(".", 1)[0] for name, _, _ in PER_LAYER}
        return sorted(n for n in self.seconds
                      if n not in declared and not n.startswith("job."))


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------

def _saved_bytes(counters, args, kwargs, result):
    counters["data.descriptor_bytes"] += os.path.getsize(args[1])


def _loaded_bytes(counters, args, kwargs, result):
    counters["data.descriptor_bytes"] += os.path.getsize(args[0])


def _matrix_bytes(counters, args, kwargs, result):
    counters["numerics.pairwise_distance_matrix.bytes"] += 8 * result.size  # computed


def _project_rows(counters, args, kwargs, result):
    counters["nn.project.rows"] += len(result)


def _kmeans_iterations(counters, args, kwargs, result):
    # Lloyd iterations of the restart kmeans_fit keeps.
    counters["cluster.kmeans_fit.iterations"] += result.iterations_run


def _verification_draws(counters, args, kwargs, result):
    dset = args[0]
    tiers = 1 if dset.tiers is None else len(set(dset.tiers.tolist()))
    counters["eval.verification.drawn"] += result.num_queries
    counters["eval.verification.requested"] += 2 * kwargs["pairs_per_tier"] * tiers


def _skips(task):
    def count(counters, args, kwargs, result):
        counters[f"eval.{task}.skipped"] += result.num_skipped
        counters[f"eval.{task}.scored"] += result.num_queries
    return count


def _train_run_name(args):
    cfg = args[1]
    return f"train.{cfg.scheme}{'_dist' if cfg.use_distance_loss else ''}"


def _layer_name(way):
    def name(args):
        layer, x = args[0], args[1]
        if layer.kind == "linear":
            shape = f"{layer.in_dim}x{layer.out_dim}"
        elif layer.kind == "batchnorm":
            shape = layer.width
        else:
            shape = x.shape[1]
        return f"nn.{type(layer).__name__}_{shape}.{way}"
    return name


def bindings():
    """(owner, attribute, span name, counter) for every traced call site."""
    mod = {m: importlib.import_module(f"desclite.{m}")
           for m in ("data", "eval", "losses", "nn", "pca", "train")}
    data, ev, losses, nn, pca, train = (mod[m] for m in
                                        ("data", "eval", "losses", "nn", "pca", "train"))
    out = [
        (data, "extract_descriptors", "data.extract_descriptors", None),
        (data, "sift_like_descriptor", "data.sift_like_descriptor", None),
        (data, "generate_synthetic", "data.generate_synthetic", None),
        (data, "save_descriptors", "data.save_descriptors", _saved_bytes),
        (data, "load_descriptors", "data.load_descriptors", _loaded_bytes),
        (pca, "sym_eigen", "numerics.sym_eigen", None),
        (ev, "pairwise_distance_matrix", "numerics.pairwise_distance_matrix", _matrix_bytes),
        (losses, "pairwise_distance_matrix", "numerics.pairwise_distance_matrix",
         _matrix_bytes),
        (pca, "fit_pca", "pca.fit_pca", None),
        (pca, "pca_transform", "pca.pca_transform", None),
        (train, "forward", "nn.forward", None),
        (train, "backward", "nn.backward", None),
        (train, "adam_step", "nn.adam_step", None),
        (train, "project", "nn.project", _project_rows),
        (train, "kmeans_fit", "cluster.kmeans_fit", _kmeans_iterations),
        (train, "train", _train_run_name, None),
        (ev, "eval_verification", "eval.verification", _verification_draws),
        (ev, "eval_matching", "eval.matching", _skips("matching")),
        (ev, "eval_retrieval", "eval.retrieval", _skips("retrieval")),
    ]
    out += [(losses, loss, f"losses.{loss}", None) for loss in LOSSES]
    out += [(cls, way, _layer_name(way), None)
            for cls in (nn.Linear, nn.ReLU, nn.BatchNorm, nn.L2Normalize)
            for way in ("forward", "backward")]
    return out

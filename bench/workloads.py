"""The benchmark's workloads: seeded inputs and the fixed job sequence.

Each workload is a closed loop: one caller runs the jobs in order, each job
starting after the previous one ends. A job is a call into the public
functions the CLI subcommands call (describe, fit-pca, train, reduce, eval),
followed by checks on its output. A job that raises or fails a check is
counted and the pass goes on, so one broken stage shows up as a failure share
and not as a crash. The reasons for each workload are in README.md.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks

# `desclite.train` is shadowed by the `train` function in the package
# namespace, so the modules are looked up by their full names. Calls go
# through the module attributes, which lets the tracer rebind them.
data = importlib.import_module("desclite.data")
ev = importlib.import_module("desclite.eval")
pca = importlib.import_module("desclite.pca")
train = importlib.import_module("desclite.train")

TASKS = ("verification", "matching", "retrieval")
TARGET_DIM = 32
HIDDEN = (512, 512)
PAIRS_PER_TIER = 1000
DISTRACTORS = 50
SPLIT = (0.7, 0.1, 0.2)
PCA_SET = f"pca-{TARGET_DIM}"
RAW_SET = "raw-128"

# Descriptor-level generator: per-dimension noise sigma per tier (easy,
# hard, tough) and the rank of the latent structure behind class centres.
TIER_NOISE = (0.05, 0.08, 0.12)
LATENT_DIM = 48


@dataclass(frozen=True)
class TrainRun:
    name: str
    config: dict  # TrainConfig fields besides target_dim, hidden_sizes and seed


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple
    eval_sets: tuple
    patches: tuple | None = None     # (classes, per class) through generate_synthetic
    train_part: tuple | None = None  # (classes, per class) from synthetic_descriptors
    test_part: tuple | None = None
    fit_pca: bool = True  # fit PCA-32 and reduce the test rows with it


WORKLOADS = {
    "paper-3k": Workload(
        name="paper-3k",
        runs=(
            TrainRun("sv", {"scheme": "sv", "epochs": 10, "batch_size": 256}),
            TrainRun("sv_dist", {"scheme": "sv", "epochs": 10, "batch_size": 256,
                                 "use_distance_loss": True}),
            TrainRun("us", {"scheme": "us", "epochs": 5}),
            TrainRun("ss", {"scheme": "ss", "epochs": 3, "k": 50}),
        ),
        eval_sets=(RAW_SET, PCA_SET, "sv", "sv_dist", "us", "ss"),
        patches=(500, 6),
    ),
    "eval-30k": Workload(
        name="eval-30k", runs=(TrainRun("sv", {"scheme": "sv", "epochs": 3}),),
        eval_sets=("sv",), train_part=(2000, 6), test_part=(5000, 6),
        # The Jacobi eigensolver behind fit_pca swings most with the host's
        # load; here it would be two thirds of fit_s and make fit_s too
        # noisy to gate. paper-3k measures it.
        fit_pca=False,
    ),
}

STAGES = ("describe_s", "fit_s", "reduce_s", "eval_s")
# An untraced job whose calls so far took less than SHORT_JOB_S in all is
# called again, up to MAX_CALLS times; its time is the median call. Jobs of a
# few milliseconds then get a steady time of their own.
SHORT_JOB_S = 0.1
MAX_CALLS = 9


@dataclass
class Inputs:
    """What set-up hands to the jobs: patches plus split rows, or ready
    descriptor sets."""

    patches: object = None
    train_rows: np.ndarray | None = None
    test_rows: np.ndarray | None = None
    train: object = None
    test: object = None


def sizes(wl: Workload) -> dict:
    out = {"jobs": len(job_sequence(wl))}
    for key in ("patches", "train_part", "test_part"):
        shape = getattr(wl, key)
        if shape is not None:
            out[key] = {"classes": shape[0], "per_class": shape[1],
                        "rows": shape[0] * shape[1]}
    return out


def synthetic_descriptors(classes: int, per_class: int, mix: np.ndarray,
                          rng: np.random.Generator, label_offset: int = 0):
    """Non-negative, unit-norm 128-D rows around per-class centres.

    Centres are |z @ mix| for Gaussian z, so the set has the low-rank
    structure PCA and the encoders can exploit. Row j of a class is its
    sequence j, as in `generate_synthetic`: row 0 is the noise-free
    reference view tagged easy, rows j >= 1 cycle through the tiers and get
    tier-scaled Gaussian noise before clipping at 0 and normalizing.
    """
    centres = np.abs(rng.standard_normal((classes, mix.shape[0])) @ mix)
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    seq = np.tile(np.arange(per_class, dtype=np.int64), classes)
    tiers = np.where(seq == 0, 0, (seq - 1) % 3).astype(np.uint8)
    sigma = np.where(seq == 0, 0.0, np.asarray(TIER_NOISE)[tiers])
    rows = np.repeat(centres, per_class, axis=0)
    rows += sigma[:, None] * rng.standard_normal(rows.shape)
    np.maximum(rows, 0.0, out=rows)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class) + label_offset
    return data.DescriptorSet(descriptors=rows, labels=labels, sequence_ids=seq,
                              tiers=tiers, normalized=True)


def setup(wl: Workload, seed: int) -> Inputs:
    """Generate a workload's inputs from the seed alone."""
    if wl.patches is not None:
        patches = data.generate_synthetic(*wl.patches, seed=seed)
        # Split row numbers with the program's own class-disjoint splitter.
        index = data.DescriptorSet(
            descriptors=np.arange(len(patches), dtype=np.float64)[:, None],
            labels=patches.labels, sequence_ids=patches.sequence_ids,
        )
        train_part, _, test_part = data.split_dataset(index, SPLIT, seed=seed)
        return Inputs(patches=patches,
                      train_rows=train_part.descriptors[:, 0].astype(np.int64),
                      test_rows=test_part.descriptors[:, 0].astype(np.int64))
    mix = np.random.default_rng((seed, 0)).standard_normal(
        (LATENT_DIM, data.DESCRIPTOR_DIM))
    train_set = synthetic_descriptors(*wl.train_part, mix, np.random.default_rng((seed, 1)))
    test_set = synthetic_descriptors(*wl.test_part, mix, np.random.default_rng((seed, 2)),
                                     label_offset=wl.train_part[0])
    return Inputs(train=train_set, test=test_set)


@dataclass
class Pass:
    """Outcome of one pass over a workload's jobs.

    `job_s` maps each job to the median duration of its calls, checks
    included, and `calls` to how many calls it made; `stage_s` maps each
    stage to {job: median seconds per call inside that stage's timed calls};
    `probe_s` holds the speed probes run during the pass (see speed.py).
    `attempted` counts calls.
    """

    job_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    probe_s: list = field(default_factory=list)
    stage_s: dict = field(default_factory=lambda: {stage: {} for stage in STAGES})
    total_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)  # (set name, task) -> EvalReport
    call_stage_s: dict = field(default_factory=dict)  # stage -> seconds, this call

    def timed(self, stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = self.call_stage_s
            spent[stage] = spent.get(stage, 0.0) + time.perf_counter() - start

    def maps(self) -> dict:
        """Every mAP of the pass, overall and per tier, by set and task."""
        return {f"{name}.{task}": {"overall": rep.map_overall, **rep.map_by_tier}
                for (name, task), rep in sorted(self.reports.items())}


@dataclass
class _State:
    inputs: Inputs
    seed: int
    workdir: str
    sets: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    loaded: dict = field(default_factory=dict)

    def path(self, set_name: str) -> str:
        return os.path.join(self.workdir, f"{set_name}.ddr")


def _describe(p: Pass, s: _State):
    patches = s.inputs.patches
    dset = p.timed("describe_s", data.extract_descriptors, patches)
    checks.descriptor_set(dset, len(patches), data.DESCRIPTOR_DIM)
    s.sets["train"] = dset.take(s.inputs.train_rows)
    s.sets["test"] = dset.take(s.inputs.test_rows)
    data.save_descriptors(s.sets["test"], s.path(RAW_SET))


def _fit_pca(p: Pass, s: _State):
    model = p.timed("fit_s", pca.fit_pca, s.sets["train"], TARGET_DIM)
    checks.pca_model(model)
    s.models[PCA_SET] = model


def _train(p: Pass, s: _State, run: TrainRun):
    cfg = train.TrainConfig(target_dim=TARGET_DIM, hidden_sizes=HIDDEN, seed=s.seed,
                            **run.config)
    encoder = p.timed("fit_s", train.train, s.sets["train"], cfg)
    checks.encoder(encoder)
    s.models[run.name] = encoder


def _reduce(p: Pass, s: _State, set_name: str):
    model = s.models[set_name]
    test = s.sets["test"]
    if set_name == PCA_SET:
        reduced = p.timed("reduce_s", pca.pca_transform, model, test)
    else:
        reduced = p.timed("reduce_s", train.reduce, model, test)
    p.timed("reduce_s", data.save_descriptors, reduced, s.path(set_name))
    checks.reduced_set(reduced, test, TARGET_DIM)


def _load(p: Pass, s: _State, set_name: str):
    dset = p.timed("eval_s", data.load_descriptors, s.path(set_name))
    checks.same_rows(dset, s.sets["test"])
    s.loaded[set_name] = dset


def _run_task(task: str, dset, seed: int):
    if task == "verification":
        return ev.eval_verification(dset, pairs_per_tier=PAIRS_PER_TIER, seed=seed)
    if task == "matching":
        return ev.eval_matching(dset, seed=seed)
    return ev.eval_retrieval(dset, distractors_per_query=DISTRACTORS, seed=seed)


def _evaluate(p: Pass, s: _State, set_name: str, task: str):
    report = p.timed("eval_s", _run_task, task, s.loaded[set_name], s.seed)
    checks.report(report)
    p.reports[(set_name, task)] = report


def job_sequence(wl: Workload) -> list:
    """The workload's jobs in order, as (name, function, extra arguments)."""
    jobs = [("describe", _describe, ())] if wl.patches is not None else []
    pca_sets = (PCA_SET,) if wl.fit_pca else ()
    if wl.fit_pca:
        jobs.append(("fit-pca", _fit_pca, ()))
    jobs += [(f"train.{run.name}", _train, (run,)) for run in wl.runs]
    jobs += [(f"reduce.{name}", _reduce, (name,))
             for name in pca_sets + tuple(run.name for run in wl.runs)]
    for name in wl.eval_sets:
        jobs.append((f"load.{name}", _load, (name,)))
        jobs += [(f"eval.{name}.{task}", _evaluate, (name, task)) for task in TASKS]
    return jobs


def run_pass(wl: Workload, inputs: Inputs, seed: int, workdir: str,
             tracer=None, probe=None) -> Pass:
    """Run every job of the workload in order; short jobs are called
    again (see SHORT_JOB_S) unless traced. With a tracer, each job is one
    root span named `job.<name>`. With a probe (see speed.py), the probe
    runs after every job, outside the timed intervals."""
    p = Pass()
    s = _State(inputs=inputs, seed=seed, workdir=workdir)
    if inputs.train is not None:
        s.sets["train"], s.sets["test"] = inputs.train, inputs.test
    for name, fn, extra in job_sequence(wl):
        times, stages = [], []
        while True:
            p.attempted += 1
            p.call_stage_s = {}
            scope = tracer.span(f"job.{name}") if tracer else contextlib.nullcontext()
            failed = False
            call_start = time.perf_counter()
            try:
                with scope:
                    fn(p, s, *extra)
            except Exception as exc:  # the pass must go on; the failure is counted
                p.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                traceback.print_exc()
                failed = True
            times.append(time.perf_counter() - call_start)
            stages.append(p.call_stage_s)
            if (failed or tracer or sum(times) >= SHORT_JOB_S
                    or len(times) == MAX_CALLS):
                break
        p.job_s[name] = statistics.median(times)
        p.calls[name] = len(times)
        for stage in set().union(*stages):
            p.stage_s[stage][name] = statistics.median(c.get(stage, 0.0) for c in stages)
        if probe:
            p.probe_s.append(probe())
    p.total_s = sum(p.job_s.values())
    return p

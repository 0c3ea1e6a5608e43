"""One benchmark run: set-up, timed passes, the optional traced pass, the
determinism check, the run record and the printed report."""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import speed
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 5
SETUP_PROBES = 5  # probes before the first set-up and after each
PROBES_PER_PASS = 32  # at least; each job is followed by an equal share
END_TO_END = (
    ("setup_s", "s"), ("total_s", "s"), ("fit_s", "s"), ("reduce_s", "s"),
    ("eval_s", "s"), ("peak_rss_mb", "MB"), ("jobs_ok_frac", "ratio"),
    ("map.verification", "mAP"), ("map.matching", "mAP"), ("map.retrieval", "mAP"),
)


def _warm_blas() -> None:
    a = np.random.default_rng(0).standard_normal((256, 256))
    for _ in range(4):
        a = a @ a.T / 256.0


def _timed_setups(wl, seed: int, probe):
    """Set the inputs up SETUP_REPS times between speed probes; returns the
    last inputs, every wall time and the speed factor before each set-up and
    after the last."""
    times, factors = [], [probe.factor_now(SETUP_PROBES)]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        _warm_blas()
        inputs = workloads.setup(wl, seed)
        times.append(time.perf_counter() - start)
        factors.append(probe.factor_now(SETUP_PROBES))
    return inputs, times, factors


def _timed_passes(wl, inputs, seed: int, seconds: float, workdir: str, probe) -> list:
    """Passes until the next one would end after `seconds`, at least one."""
    passes, walls = [], []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + statistics.median(walls)
                         <= seconds):
        pass_start = time.perf_counter()
        passes.append(workloads.run_pass(wl, inputs, seed, workdir, probe=probe))
        walls.append(time.perf_counter() - pass_start)
    return passes


def run(wl, seed: int, seconds: float, trace: bool, import_s: float) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tracer = traced = None
    try:
        probe = speed.Probe(reps=-(-PROBES_PER_PASS // len(workloads.job_sequence(wl))))
        inputs, setup_times, setup_factors = _timed_setups(wl, seed, probe)
        passes = _timed_passes(wl, inputs, seed, seconds, workdir, probe)
        if trace:
            tracer = tracing.Tracer()
            with tracer.instrument():
                inputs = workloads.setup(wl, seed)
                traced = workloads.run_pass(wl, inputs, seed, workdir, tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_passes = passes + ([traced] if traced else [])
    source = source_digest()
    problems = determinism_problems(wl.name, seed, source, all_passes)
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(len(p.failures) for p in all_passes)
    setup_s = import_s / setup_factors[0] + statistics.median(
        t / ((f0 + f1) / 2)
        for t, f0, f1 in zip(setup_times, setup_factors, setup_factors[1:]))
    e2e = end_to_end(passes, setup_s, peak_rss_mb)
    if trace:
        overhead = _normalized_total(traced) / statistics.median(
            map(_normalized_total, passes)) - 1.0
        metrics = tracer.per_layer(overhead)
        for name in tracer.undeclared():
            print(f"warning: traced span {name} has no declared per-layer metric",
                  file=sys.stderr)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    env = environment(wl, seed, source)
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "import_s": import_s, "setup_times_s": setup_times,
        "setup_factors": setup_factors, "probe_ref_s": speed.REF_S,
        "probe_samples_s": probe.samples,
        "passes": [_pass_record(p) for p in passes],
        "end_to_end": e2e, "determinism_problems": problems, "metrics": metrics,
    }
    if traced:
        record["traced_pass"] = _pass_record(traced)
        record["spans"] = tracer.spans
    runs_dir = os.path.join(OUT_DIR, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    _write_json(os.path.join(runs_dir, f"{wl.name}-seed{seed}-trace{int(trace)}.json"),
                record)

    print_report(wl, seed, env, setup_times, import_s, passes, e2e, problems, metrics)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def per_job_median(passes: list, per_pass: list) -> float:
    """Sum over jobs of each job's median speed-normalized time across passes.

    `per_pass[i]` maps jobs to wall seconds in pass i; they are divided by
    the speed factor of `passes[i]` (see speed.py).
    """
    factors = [speed.factor(p.probe_s) for p in passes]
    jobs = set().union(*per_pass)
    return sum(statistics.median(times[job] / f for times, f in zip(per_pass, factors)
                                 if job in times)
               for job in jobs)


def _normalized_total(p) -> float:
    return p.total_s / speed.factor(p.probe_s)


def end_to_end(passes: list, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics of the untraced passes, plus the paper-3k extras.
    `setup_s` comes speed-normalized already."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    out = {
        "setup_s": setup_s,
        "total_s": per_job_median(passes, [p.job_s for p in passes]),
        "peak_rss_mb": peak_rss_mb,
        "jobs_ok_frac": 1.0 - failed / attempted,
    }
    for stage in workloads.STAGES:
        out[stage] = per_job_median(passes, [p.stage_s[stage] for p in passes])
    reports = passes[0].reports
    for prefix, set_name in (("map", "sv"), ("pca_map", workloads.PCA_SET)):
        for task in workloads.TASKS:
            rep = reports.get((set_name, task))
            # A missing report is a failed job, which already makes the run incorrect.
            out[f"{prefix}.{task}"] = rep.map_overall if rep else 0.0
    return out


def _pass_record(p) -> dict:
    return {"total_s": p.total_s, "job_s": p.job_s, "calls": p.calls,
            "stage_s": p.stage_s,
            "speed_factor": speed.factor(p.probe_s),
            "attempted": p.attempted, "failures": p.failures, "maps": p.maps()}


def _write_json(path: str, obj) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for directory in (os.path.join(ROOT, "src", "desclite"), BENCH_DIR):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(directory, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def determinism_problems(workload: str, seed: int, source: str, passes: list) -> list:
    """mAPs must agree between the passes of this run and with any earlier
    run of the same workload, seed and sources."""
    maps = [p.maps() for p in passes]
    problems = [f"pass {i + 1} mAPs differ from pass 1"
                for i in range(1, len(maps)) if maps[i] != maps[0]]
    path = os.path.join(OUT_DIR, "maps", f"{workload}-seed{seed}-{source[:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            if json.load(fh) != maps[0]:
                problems.append(f"mAPs differ from an earlier run recorded in {path}")
    elif not problems and not any(p.failures for p in passes):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_json(path, maps[0])
    return problems


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(wl, seed: int, source: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    train = workloads.train
    epochs = {}
    for run in wl.runs:
        cfg = train.TrainConfig(target_dim=workloads.TARGET_DIM, **run.config).resolved()
        epochs[run.name] = {"scheme": cfg.scheme, "epochs": cfg.epochs,
                            "batch_size": cfg.batch_size,
                            "scheme_default": list(train._SCHEME_DEFAULTS[cfg.scheme])}
    return {
        "git_commit": _git_commit(), "source_sha256": source,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "seed": seed,
        "sizes": workloads.sizes(wl), "epochs": epochs,
    }


def print_report(wl, seed, env, setup_times, import_s, passes, e2e, problems, metrics):
    print(f"workload {wl.name}, seed {seed}")
    for key in ("git_commit", "source_sha256", "python", "numpy", "blas",
                "blas_threads", "nproc"):
        print(f"  {key}: {env[key]}")
    print(f"  sizes: {json.dumps(env['sizes'])}")
    for name, e in env["epochs"].items():
        print(f"  train {name}: epochs {e['epochs']}, batch {e['batch_size']} "
              f"(scheme default {e['scheme_default']})")
    print(f"set-up (wall): imports {import_s:.3f} s, "
          f"reps {' '.join(f'{t:.3f}' for t in setup_times)} s")
    for i, p in enumerate(passes, 1):
        stages = " ".join(f"{k} {sum(v.values()):.3f}" for k, v in p.stage_s.items() if v)
        print(f"pass {i} (wall): total_s {p.total_s:.3f} {stages}; "
              f"speed factor {speed.factor(p.probe_s):.3f}; "
              f"failed {len(p.failures)}/{p.attempted} calls")
        for failure in p.failures:
            print(f"  FAILED {failure}")
    print_quality(wl, passes[0])
    for problem in problems:
        print(f"DETERMINISM: {problem}")
    if wl.patches is not None:
        print(f"describe_s {e2e['describe_s']:.4f} s")
        for task in workloads.TASKS:
            print(f"pca_map.{task} {e2e[f'pca_map.{task}']:.4f} mAP")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def print_quality(wl, p) -> None:
    """mAP table of every evaluated set, then whether each learned set beats PCA."""
    tiers = ("easy", "hard", "tough")
    head = [t[:5] for t in workloads.TASKS] + [f"{t[0]}.{tier}" for t in workloads.TASKS
                                                for tier in tiers]
    print("quality (mAP):")
    print(f"  {'set':<8}" + "".join(f"{h:>9}" for h in head))
    for name in wl.eval_sets:
        reps = [p.reports.get((name, task)) for task in workloads.TASKS]
        cells = [r.map_overall if r else None for r in reps]
        cells += [r.map_by_tier.get(tier) if r else None for r in reps for tier in tiers]
        print(f"  {name:<8}" + "".join(f"{c:>9.4f}" if c is not None else f"{'-':>9}"
                                       for c in cells))
    if workloads.PCA_SET not in wl.eval_sets:
        return
    for name in (run.name for run in wl.runs):
        for task in workloads.TASKS:
            mine = p.reports.get((name, task))
            base = p.reports.get((workloads.PCA_SET, task))
            if mine is None or base is None:
                continue
            a, b = mine.map_overall, base.map_overall
            verdict = "beats" if a > b else "does not beat"
            print(f"{name} {verdict} {workloads.PCA_SET} on {task}: "
                  f"{a:.4f} vs {b:.4f} ({a - b:+.4f})")

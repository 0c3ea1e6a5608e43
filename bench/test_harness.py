"""Tests of the benchmark harness itself: span arithmetic, declared names,
output checks, binding restoration and one small pass."""
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from desclite.data import DescriptorSet  # noqa: E402
from desclite.errors import ConfigError  # noqa: E402
from desclite.eval import EvalReport  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


class TestSpans:
    def test_self_time_excludes_direct_children_only(self):
        ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 9.0, 10.0])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        with tracer.span("outer"):          # 0 .. 10
            with tracer.span("mid"):        # 1 .. 6
                with tracer.span("leaf"):   # 2 .. 4
                    pass
            with tracer.span("leaf"):       # 7 .. 9
                pass
        assert tracer.seconds == {"outer": 10.0, "mid": 5.0, "leaf": 4.0}
        assert tracer.self_seconds == {"outer": 3.0, "mid": 3.0, "leaf": 4.0}
        assert tracer.calls["leaf"] == 2
        parents = {i: span[3] for i, span in enumerate(tracer.spans)}
        assert parents == {0: -1, 1: 0, 2: 1, 3: 0}

    def test_span_closes_when_the_call_raises(self):
        tracer = tracing.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                raise ValueError("boom")
        assert tracer.calls["outer"] == 1 and tracer.spans[0][2] is not None


class TestDeclaredNames:
    def test_names_and_units_are_well_formed(self):
        bench = _benchmark_json()
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric

    def test_benchmark_json_matches_the_harness(self):
        bench = _benchmark_json()
        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
        assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
            list(measure.END_TO_END)
        assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
            tracing.PER_LAYER


def _unit_rows(n, dim, seed=0):
    x = np.abs(np.random.default_rng(seed).standard_normal((n, dim)))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestChecks:
    def test_reduced_set_rejects_a_non_unit_row(self):
        source = DescriptorSet(_unit_rows(4, 8), np.arange(4), np.zeros(4))
        rows = _unit_rows(4, 3)
        rows[3] = 0.0
        checks.reduced_set(DescriptorSet(rows, source.labels, source.sequence_ids),
                           source, 3)
        rows[2] *= 0.5
        with pytest.raises(checks.CheckError, match="norm"):
            checks.reduced_set(DescriptorSet(rows, source.labels, source.sequence_ids),
                               source, 3)

    def test_reduced_set_rejects_changed_labels(self):
        source = DescriptorSet(_unit_rows(4, 8), np.arange(4), np.zeros(4))
        reduced = DescriptorSet(_unit_rows(4, 3), np.arange(4)[::-1], np.zeros(4))
        with pytest.raises(checks.CheckError, match="labels"):
            checks.reduced_set(reduced, source, 3)

    @pytest.mark.parametrize("overall, tiers, queries", [
        (1.2, {}, 5), (0.5, {"easy": -0.1}, 5), (float("nan"), {}, 5), (0.5, {}, 0),
    ])
    def test_report_rejects_out_of_range_map(self, overall, tiers, queries):
        report = EvalReport(task="matching", map_overall=overall, map_by_tier=tiers,
                            num_queries=queries)
        with pytest.raises(checks.CheckError):
            checks.report(report)

    def test_report_accepts_the_range_ends(self):
        checks.report(EvalReport(task="retrieval", map_overall=1.0,
                                 map_by_tier={"easy": 0.0}, num_queries=1))


class TestBindings:
    def _current(self):
        return [(owner, attr, getattr(owner, attr))
                for owner, attr, _, _ in tracing.bindings()]

    def test_instrument_rebinds_then_restores(self):
        before = self._current()
        with pytest.raises(RuntimeError):
            with tracing.Tracer().instrument():
                for owner, attr, original in before:
                    assert getattr(owner, attr).__wrapped__ is original
                raise RuntimeError("leave the block early")
        for owner, attr, original in before:
            assert getattr(owner, attr) is original, (owner, attr)

    def test_traced_eval_records_children_and_counters(self):
        dset = workloads.synthetic_descriptors(
            20, 4, np.random.default_rng(0).standard_normal((8, 128)),
            np.random.default_rng(1))
        tracer = tracing.Tracer()
        with tracer.instrument():
            traced = workloads._run_task("matching", dset, 0)
        plain = workloads._run_task("matching", dset, 0)
        assert traced.map_overall == plain.map_overall
        assert tracer.calls["eval.matching"] == 1
        assert tracer.calls["numerics.pairwise_distance_matrix"] == 3
        assert tracer.counters["numerics.pairwise_distance_matrix.bytes"] == 3 * 8 * 20 * 20
        metrics = tracer.per_layer(0.0)
        assert metrics["eval.matching.self_s"]["value"] < metrics["eval.matching.s"]["value"]
        assert metrics["eval.matching.skipped_frac"]["value"] == 0.0


def test_failed_job_is_counted_and_the_pass_goes_on(tmp_path, monkeypatch):
    def refuse(dset, seed=0):
        raise ConfigError("sequences not index-aligned")

    monkeypatch.setattr(workloads.ev, "eval_matching", refuse)
    tiny = workloads.Workload(
        name="tiny", runs=(workloads.TrainRun("sv", {"scheme": "sv", "epochs": 1,
                                                     "batch_size": 16}),),
        eval_sets=("sv",), train_part=(40, 6), test_part=(30, 6))
    p = workloads.run_pass(tiny, workloads.setup(tiny, 3), 3, str(tmp_path))
    assert len(workloads.job_sequence(tiny)) == 8
    assert p.failures == ["eval.sv.matching: ConfigError: sequences not index-aligned"]
    assert p.calls["eval.sv.matching"] == 1  # a failed job is not called again
    assert p.attempted == sum(p.calls.values())
    assert set(p.reports) == {("sv", "verification"), ("sv", "retrieval")}
    assert set(p.stage_s["fit_s"]) == {"fit-pca", "train.sv"}
    assert p.stage_s["describe_s"] == {}
    assert set(p.job_s) == {name for name, _, _ in workloads.job_sequence(tiny)}


def test_determinism_check_flags_changed_maps(tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "OUT_DIR", str(tmp_path))

    def one_pass(value):
        p = workloads.Pass()
        p.reports[("sv", "matching")] = EvalReport(task="matching", map_overall=value,
                                                   num_queries=1)
        return p

    check = measure.determinism_problems
    assert check("w", 1, "src", [one_pass(0.5), one_pass(0.5)]) == []  # recorded
    assert check("w", 1, "src", [one_pass(0.5)]) == []                 # matches the record
    assert check("w", 1, "other-src", [one_pass(0.6)]) == []           # new sources
    assert check("w", 1, "src", [one_pass(0.5), one_pass(0.6)]) == \
        ["pass 2 mAPs differ from pass 1"]
    assert len(check("w", 1, "src", [one_pass(0.6)])) == 1


def test_probe_records_samples_and_times_are_divided_by_its_factor():
    probe = speed.Probe()
    assert probe.samples == []
    assert probe() > 0.0 and len(probe.samples) == 1
    assert speed.factor([speed.REF_S] * 2 + [3 * speed.REF_S]) == 1.0  # the median
    passes = []
    for job_s, factor in (({"a": 2.0, "b": 8.0}, 2.0), ({"a": 3.0, "b": 2.0}, 1.0),
                          ({"a": 8.0}, 4.0)):
        p = workloads.Pass()
        p.job_s = job_s
        p.attempted = len(job_s)
        p.probe_s = [speed.REF_S * factor] * 3 + [speed.REF_S * 9.0]
        passes.append(p)
    out = measure.end_to_end(passes, 0.5, 100.0)
    # each pass divided by its own factor, then per-job medians, summed
    assert out["total_s"] == 2.0 + 3.0
    assert out["setup_s"] == 0.5 and out["jobs_ok_frac"] == 1.0


def test_short_jobs_are_called_again_unless_traced(tmp_path, monkeypatch):
    calls = []

    def job(p, s):
        calls.append(1)
        p.timed("eval_s", lambda: None)

    monkeypatch.setattr(workloads, "job_sequence", lambda wl: [("noop", job, ())])
    tiny = workloads.Workload(name="tiny", runs=(), eval_sets=())
    p = workloads.run_pass(tiny, workloads.Inputs(), 0, str(tmp_path))
    assert p.calls == {"noop": workloads.MAX_CALLS} == {"noop": len(calls)}
    assert p.attempted == workloads.MAX_CALLS and not p.failures
    assert set(p.stage_s["eval_s"]) == {"noop"}
    calls.clear()
    traced = workloads.run_pass(tiny, workloads.Inputs(), 0, str(tmp_path),
                                tracer=tracing.Tracer())
    assert traced.calls == {"noop": 1} and len(calls) == 1

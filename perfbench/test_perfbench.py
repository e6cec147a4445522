"""Tests of the benchmark's own machinery: inputs, tracing, metric names."""

import json
import re
from pathlib import Path

import pytest

import tracing
from workloads import WORKLOADS, de_bruijn_cycle

import chaosgame
from chaosgame import harness

BENCHMARK = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCHMARK.json").read_text())

TINY = """\
[experiment]
schema_version = 1
name = tiny
seed = 0

[ifs]
preset = sierpinski

[driver]
kind = debruijn

[eps]
a = 1
r = 0.5
m_lo = 2
m_hi = 3

[run]
x0 = 0.25 0.5
resolution = 0.05
orbit_cap = 100000
dimension = true
"""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_configs(name):
    a, b = WORKLOADS[name](7), WORKLOADS[name](7)
    assert a.configs == b.configs and a.primers == b.primers
    assert WORKLOADS[name](8).configs != a.configs
    for text in a.configs + a.primers:
        harness.parse_config(text)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def test_de_bruijn_cycle_holds_every_word_once():
    k, n = 3, 4
    cyc = de_bruijn_cycle(k, n)
    words = {tuple((cyc + cyc[:n - 1])[i:i + n]) for i in range(len(cyc))}
    assert len(cyc) == k ** n and len(words) == k ** n


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent)


def test_self_time_subtracts_children():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    g = _span("g", 2.0, 3.0, a)
    b = _span("b", 5.0, 6.0, root)
    late = _span("late", 9.0, 12.0, root)   # clipped to the parent's end
    st = tracing.self_times([root, a, g, b, late])
    assert st[root] == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert st[a] == pytest.approx(2.0)
    assert st[g] == st[b] == pytest.approx(1.0)
    assert st[late] == pytest.approx(3.0)


def test_layer_metrics_on_synthetic_tree():
    exp = _span("harness.run_experiment", 0.0, 10.0)
    exp.attrs = {"bytes": 100}
    spans = [exp]
    for t, (n, steps, x0) in enumerate(((5, 8, (0.0,)), (20, 24, (0.0,)),
                                        (3, 8, (1.0,)))):
        rec = _span("metrics.recovery_time", t, t + 1.0, exp)
        rec.attrs = {"n": n, "x0": x0}
        seg = _span("drivers.segment", t, t + 0.5, rec)
        seg.attrs = {"symbols": steps}
        spans += [rec, seg]
    m = tracing.layer_metrics(spans)
    assert m["metrics.recovery_calls"] == 3
    assert m["metrics.steps_simulated"] == 40
    assert m["metrics.step_yield"] == pytest.approx(28 / 40)
    assert m["metrics.orbit_replay"] == pytest.approx(40 / (24 + 8))
    assert m["metrics.recovery_time_s"] == pytest.approx(1.5)
    assert m["harness.run_experiment_s"] == pytest.approx(7.0)
    assert m["harness.artifact_bytes"] == 100


def test_metric_names_are_well_formed():
    names = [m["name"] for part in ("end_to_end", "per_layer")
             for m in BENCHMARK[part]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    produced = set(tracing.layer_metrics([])) | {"trace.overhead_s",
                                                 "ifs.cache_mismatch"}
    assert produced == {m["name"] for m in BENCHMARK["per_layer"]}


def test_wrapper_returns_the_wrapped_result():
    sentinel = object()
    tracer = tracing.Tracer()
    traced = tracing.wrap(tracer, "x", lambda *a, **k: (sentinel, a, k))
    assert traced(1, key=2) == (sentinel, (1,), {"key": 2})
    assert traced(1)[0] is sentinel
    spans = tracer.drain()
    assert [s.name for s in spans] == ["x", "x"]
    assert all(s.end >= s.start and s.parent is None for s in spans)


def test_wrapper_records_span_when_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracing.wrap(tracer, "boom", boom)()
    [span] = tracer.drain()
    assert span.end >= span.start and span.attrs == {}


def test_patched_sites_keep_results_and_restore(tmp_path):
    sites = tracing.library_sites(chaosgame)
    originals = [getattr(owner, attr) for owner, attr, _, _ in sites]
    plain = harness.run_experiment(harness.parse_config(TINY), cache_dir=tmp_path)
    tracer = tracing.Tracer()
    with tracing.patched(tracer, sites):
        traced = harness.run_experiment(harness.parse_config(TINY),
                                        cache_dir=tmp_path)
    assert traced.artifacts == plain.artifacts
    assert [getattr(owner, attr) for owner, attr, _, _ in sites] == originals
    names = {s.name for s in tracer.drain()}
    assert {"harness.parse_config", "harness.run_experiment", "ifs.read_cloud",
            "metrics.recovery_time", "drivers.segment",
            "metrics.box_dimension"} <= names


def test_raising_experiment_fails_only_its_own_operations(monkeypatch):
    import run
    from types import SimpleNamespace

    class PassingChecker:
        def __init__(self, cg):
            pass

        def failures(self, report):
            return [False] * len(report.records)

    monkeypatch.setattr(run.checks, "RecordChecker", PassingChecker)
    workload = SimpleNamespace(per_record=False)
    ok = [SimpleNamespace(artifacts={"a.csv": f"{i}\n"}, records=[object()])
          for i in range(4)]
    first = run.Repetition(reports=[ok[0], None, ok[2], ok[3]], errors=1)
    second = run.Repetition(reports=list(ok))
    changed = SimpleNamespace(artifacts={"a.csv": "x\n"}, records=[object()])
    third = run.Repetition(reports=[ok[0], ok[1], changed, ok[3]])
    attempted, failed, digest = run.grade(None, workload, [None] * 4,
                                          [first, second, third], None)
    assert (attempted, failed) == (12, 2)
    assert digest == run.checks.digest(ok)

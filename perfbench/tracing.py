"""Span tracing from outside the library.

The traced run replaces public functions at the sites the library imports
them from with wrappers that record a span (name, start, end, parent) and a
few counts taken from the return value.  Each wrapper returns exactly what
the wrapped function returns.  Orbit stepping and the coverage query both
sit inside the recovery_time span; separating them needs tracing inside the
library.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; drain() hands them over and starts afresh."""

    def __init__(self):
        self._spans: list = []
        self._open: list = []

    def call(self, name, fn, args, kwargs, measure=None):
        span = Span(name, time.perf_counter(), float("nan"),
                    self._open[-1] if self._open else None)
        self._spans.append(span)
        self._open.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._open.pop()
            span.end = time.perf_counter()
        if measure is not None:
            span.attrs = measure(result)
        return result

    def drain(self) -> list:
        spans, self._spans = self._spans, []
        return spans


def wrap(tracer: Tracer, name: str, fn, measure=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, measure)
    return traced


def _artifact_bytes(report) -> dict:
    return {"bytes": sum(len(v.encode()) for v in report.artifacts.values())}


# (owner, attribute, span name, counts taken from the return value).  The
# harness names are the library's import sites of those functions.
SITES = (
    ("harness", "parse_config", "harness.parse_config", None),
    ("harness", "run_experiment", "harness.run_experiment", _artifact_bytes),
    ("harness", "build_cloud", "ifs.build_cloud", lambda c: {"points": c.size}),
    ("harness", "read_cloud", "ifs.read_cloud", None),
    ("harness", "write_cloud", "ifs.write_cloud", None),
    ("harness", "build_schedule", "construct.build_schedule",
     lambda s: {"blocks": len(s.entries)}),
    ("harness", "recovery_time", "metrics.recovery_time",
     lambda r: {"n": r.n, "x0": tuple(r.x0.tolist())}),
    ("harness", "covering_estimate", "metrics.covering_estimate", None),
    ("harness", "box_dimension", "metrics.box_dimension", None),
    ("construct", "build_sigma", "construct.build_sigma",
     lambda w: {"symbols": len(w)}),
    ("construct", "covering_estimate", "metrics.covering_estimate", None),
    ("DriverStream", "segment", "drivers.segment", lambda a: {"symbols": len(a)}),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SITES))


def library_sites(cg) -> list:
    """SITES with each owner resolved in the imported chaosgame package."""
    owners = {"harness": cg.harness, "construct": cg.construct,
              "DriverStream": cg.drivers.DriverStream}
    return [(owners[o], attr, name, measure) for o, attr, name, measure in SITES]


@contextmanager
def patched(tracer: Tracer, sites):
    """Install traced wrappers at every site; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, measure in sites:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(tracer, name, original, measure))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """Span -> its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s] = (s.end - s.start) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer self times (seconds) and counts over one list of spans."""
    out = {f"{name}_s": 0.0 for name in SPAN_NAMES}
    for s, t in self_times(spans).items():
        out[f"{s.name}_s"] += t

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    recoveries = [s for s in spans if s.name == "metrics.recovery_time"]
    steps = {r: 0 for r in recoveries}
    for s in spans:
        if s.name == "drivers.segment" and s.parent in steps:
            steps[s.parent] += s.attrs.get("symbols", 0)
    simulated = sum(steps.values())
    longest = defaultdict(int)   # (experiment span, x0) -> most steps
    for r, k in steps.items():
        key = (r.parent, r.attrs.get("x0"))
        longest[key] = max(longest[key], k)
    found = sum(r.attrs["n"] for r in recoveries if r.attrs.get("n") is not None)
    out.update({
        "ifs.cloud_points": total("ifs.build_cloud", "points"),
        "drivers.symbols": total("drivers.segment", "symbols"),
        "metrics.recovery_calls": len(recoveries),
        "metrics.steps_simulated": simulated,
        "metrics.step_yield": found / simulated if simulated else 0.0,
        "metrics.orbit_replay": (simulated / sum(longest.values())
                                 if simulated else 0.0),
        "metrics.covering_calls": calls("metrics.covering_estimate"),
        "construct.schedule_blocks": total("construct.build_schedule", "blocks"),
        "construct.sigma_symbols": total("construct.build_sigma", "symbols"),
        "harness.artifact_bytes": total("harness.run_experiment", "bytes"),
    })
    return out


def median_metrics(samples: list) -> dict:
    """Metric-wise median over a list of layer_metrics results."""
    return {k: statistics.median(m[k] for m in samples) for k in samples[0]}

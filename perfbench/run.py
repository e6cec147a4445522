"""chaosgame benchmark: one workload, closed loop, one caller, one thread.

    python3 perfbench/run.py --workload slow-cantor --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the library from its
src/ directory.  The workload seed generates the experiment configs; the
library only receives their text.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 the same
workload runs with traced wrappers at the library's import sites and the
line carries the per-layer metrics.  Every run checks its outputs (see
checks.py) and prints the sha256 of its artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 5
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import chaosgame from this checkout's src/ only."""
    if not (SRC / "chaosgame" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chaosgame sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chaosgame
    if Path(chaosgame.__file__).resolve().parent != SRC / "chaosgame":
        sys.exit(f"perfbench: imported chaosgame from {chaosgame.__file__}")
    return chaosgame


def set_up(cg, workload, cache_dir: Path) -> list:
    """Parse every config and, for a shared cache, build and write its clouds."""
    cfgs = [cg.harness.parse_config(text) for text in workload.configs]
    for text in workload.primers:
        cg.harness.run_experiment(cg.harness.parse_config(text), cache_dir=cache_dir)
    return cfgs


def probe(name: str, seed: int, cache_dir: str) -> None:
    """Set-up in a fresh process; prints 'ready' once the workload could run."""
    cg = import_library()
    set_up(cg, WORKLOADS[name](seed), Path(cache_dir))
    print("ready", flush=True)


def setup_seconds(name: str, seed: int, work: Path) -> list:
    """Time from starting a fresh interpreter until its set-up is done."""
    times = []
    for i in range(SETUP_PROBES):
        cache = work / f"probe-{i}"
        cache.mkdir()
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--probe", name,
                 "--seed", str(seed), "--cache", str(cache)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        shutil.rmtree(cache)
    return times


@dataclass(eq=False)
class Repetition:
    """One pass over the workload's configs: reports, latencies, failures."""

    reports: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    errors: int = 0
    wall: float = 0.0


def run_repetition(cg, workload, cache_dir: Path, out_dir: Path) -> Repetition:
    rep = Repetition()
    t_rep = time.perf_counter()
    for i, text in enumerate(workload.configs):
        t0 = time.perf_counter()
        try:
            cfg = cg.harness.parse_config(text)
            report = cg.harness.run_experiment(cfg, out_dir=out_dir / f"{i:03d}",
                                               cache_dir=cache_dir)
        except Exception:
            traceback.print_exc()
            rep.errors += 1
            report = None
        rep.latencies.append(time.perf_counter() - t0)
        rep.reports.append(report)
    rep.wall = time.perf_counter() - t_rep
    return rep


def expected_ops(workload, cfg) -> int:
    if not workload.per_record:
        return 1
    if cfg.driver_kind == "slow":
        return cfg.param("k_max") * len(cfg.x0)
    return len(cfg.eps_values()) * len(cfg.x0)


def grade(cg, workload, cfgs, reps, reference) -> tuple:
    """(attempted, failed, digest) over all repetitions.

    An experiment that raises or gives the wrong number of records fails
    its own operations.  Each experiment's first clean report gets every
    check; its later repetitions must give byte-identical artifacts and
    carry the same verdict, else all their operations fail.  The digest is
    that of the first repetition in which no experiment raised; on the
    default seed it must equal the recorded reference.
    """
    checker = checks.RecordChecker(cg)
    firsts = [None] * len(cfgs)     # (artifacts, failed ops) of the first clean report
    attempted = failed = 0
    for rep in reps:
        for i, (cfg, report) in enumerate(zip(cfgs, rep.reports)):
            ops = expected_ops(workload, cfg)
            attempted += ops
            if report is None or (workload.per_record and len(report.records) != ops):
                failed += ops
                continue
            if firsts[i] is None:
                bad = checker.failures(report)
                firsts[i] = (report.artifacts, sum(bad) if workload.per_record
                             else int(any(bad)))
            artifacts, n_bad = firsts[i]
            failed += n_bad if report.artifacts == artifacts else ops
    clean = [rep for rep in reps if not rep.errors]
    digest = checks.digest(clean[0].reports) if clean else None
    if reference is not None and digest is not None and digest != reference:
        failed = attempted
    return attempted, failed, digest


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def machine_info(cg) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "chaosgame": cg.__version__, "commit": commit, "src_lines": src_lines}


def measure(cg, workload, seconds, work: Path, traced: bool):
    """Closed loop: repetitions back to back while the next one, at the mean
    pace so far, still ends within `seconds`; always at least two, so a
    sweep gives 192 latencies and its p90 has more than ten beyond it.

    Traced runs alternate traced and untraced repetitions, starting traced,
    so the tracing overhead is measured within the run.
    """
    tracer = tracing.Tracer()
    sites = tracing.library_sites(cg)
    shared = work / "cache"
    shared.mkdir()
    with tracing.patched(tracer, sites if traced else []):
        cfgs = set_up(cg, workload, shared)
        setup_spans = tracer.drain()
    reps, traced_reps, layer = [], [], []
    start = time.perf_counter()
    while len(reps) < 2 or \
            (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds:
        tag = work / f"rep-{len(reps)}"
        cache = shared if workload.primers else tag / "cache"
        cache.mkdir(parents=True, exist_ok=True)
        on = traced and len(reps) % 2 == 0
        with tracing.patched(tracer, sites if on else []):
            rep = run_repetition(cg, workload, cache, tag / "out")
            spans = tracer.drain()
        if on:
            traced_reps.append(rep)
            layer.append(tracing.layer_metrics(setup_spans + spans))
        reps.append(rep)
        shutil.rmtree(tag)
    return cfgs, reps, traced_reps, layer


def cache_mismatch(cg, rep) -> int:
    """Experiments whose artifacts differ from a run without the cache."""
    return sum(1 for report in rep.reports
               if report is not None and not report.config.exact_attractor
               and cg.harness.run_experiment(report.config).artifacts
               != report.artifacts)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    p.add_argument("--cache", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe:
        probe(args.probe, args.seed, args.cache)
        return 0
    if args.workload is None:
        p.error("--workload is required")

    cg = import_library()
    workload = WORKLOADS[args.workload](args.seed)
    reference = None
    if args.seed == DEFAULT_SEED:
        ref = json.loads((HERE / "reference.json").read_text())
        reference = ref["sha256"][args.workload]

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = [] if args.trace else setup_seconds(args.workload, args.seed, work)
        cfgs, reps, traced_reps, layer = measure(cg, workload, args.seconds, work,
                                                 bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, digest = grade(cg, workload, cfgs, reps, reference)
        mismatch = cache_mismatch(cg, traced_reps[0]) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}")
    if reference is None:
        verdict = ""
    elif digest is None:
        verdict = "  (reference not compared: every repetition had a raising experiment)"
    else:
        verdict = f"  (reference {'matches' if digest == reference else 'DIFFERS'})"
    print(f"artifact sha256 {digest}{verdict}")
    print("info " + json.dumps(machine_info(cg), sort_keys=True))
    print("repetition wall_s " + " ".join(
        f"{r.wall:.3f}{'T' if r in traced_reps else ''}" for r in reps))
    if args.trace:
        untraced = [r.wall for r in reps if r not in traced_reps]
        values = tracing.median_metrics(layer)
        values["trace.overhead_s"] = (statistics.median(r.wall for r in traced_reps)
                                      - statistics.median(untraced))
        values["ifs.cache_mismatch"] = mismatch
    else:
        walls = [r.wall for r in reps]
        lat = [t for r in reps for t in r.latencies]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "exp_p50_ms": 1000 * statistics.median(lat),
            "exp_p90_ms": 1000 * percentile(lat, 90),
        }
        print(f"samples: wall_s {len(walls)}, setup_s {len(setups)}, "
              f"experiments {len(lat)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    print(f"failed_frac {failed / attempted:.6g}  ({failed} of {attempted} "
          f"{'records' if workload.per_record else 'experiments'})")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

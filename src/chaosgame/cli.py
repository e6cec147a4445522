"""Command-line interface.

Subcommands:
  cloud build | cloud info     attractor point clouds and their cache files
  driver emit | driver stats   symbol streams and word-coverage statistics
  recover                      one recovery-time measurement
  dim                          box-dimension estimate
  schedule                     slow-driver schedule table (optionally symbols)
  experiment run               full preset or config-file experiment

Exit codes: 0 success, 2 validation error, 3 cap exceeded,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import drivers as drv
from .construct import DEFAULT_STEP_CAP, RATE_KINDS, build_schedule, slow_driver
from .errors import (CapExceededError, ChaosGameError, InternalInvariantError,
                     ValidationError)
from .harness import (_COUNT, _FIELDS, _IFS_FACTORIES, _POSITIVE_INT, _UNIT, PRESETS,
                      _dimension_csv, _fmt, _numbers, _recovery_csv, _schedule_csv,
                      load_preset, parse_config, run_experiment, write_artifacts)
from .ifs import DEFAULT_POINT_BUDGET, _as_vector, build_cloud, read_cloud, write_cloud
from .metrics import DEFAULT_ORBIT_CAP, box_dimension, recovery_time

# The driver kinds the CLI can build: the literal one needs a word.
_CLI_DRIVERS = [kind for kind in drv.DRIVER_KINDS if kind != "literal"]


def _typed(reader, expected: str):
    """The argparse type of a flag read by a config reader (as in _FIELDS):
    a bad value exits 2 while the command line is parsed, naming the flag."""
    def read(raw: str):
        try:
            return reader(raw)
        except (ValueError, KeyError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}") from None
    return read


@contextmanager
def _files(what: str, path):
    """Turn an OSError at a file boundary into a ValidationError naming the
    flag or argument and its path."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"{what} {path}: {exc.strerror or exc}") from None


def _print_symbols(symbols, K: int) -> None:
    """Digits run together for K <= 9, comma separated above."""
    print(("" if K <= 9 else ",").join(str(int(s)) for s in symbols))


def _cmd_cloud(args) -> int:
    if args.cloud_cmd == "build":
        cloud = build_cloud(_IFS_FACTORIES[args.ifs](), args.resolution, args.cap)
        with _files("--out", args.out):
            write_cloud(args.out, cloud)
        print(f"wrote {cloud.size} points to {args.out} "
              f"(resolution {_fmt(cloud.resolution)}, depth {cloud.depth})")
        return 0
    with _files("cloud file", args.path):
        cloud = read_cloud(args.path)
    print(f"points: {cloud.size}")
    print(f"dim: {cloud.points.shape[1]}")
    print(f"resolution: {_fmt(cloud.resolution)}")
    print(f"depth: {cloud.depth}")
    print(f"diam bracket: [{_fmt(cloud.diam_lower)}, {_fmt(cloud.diam_upper)}]")
    depths = " ".join(str(m) for _, _, m, _ in sorted(cloud.words))
    print(f"cover radii: {len(cloud.cover_sizes)}")
    print(f"covering words: {len(cloud.words)}" + (f" (m = {depths})" if depths else ""))
    print(f"outside counts: {len(cloud.outside_sizes)}")
    return 0


def _cmd_driver(args) -> int:
    K = args.alphabet
    stream = drv.DRIVER_KINDS[args.driver](K, vars(args))
    if args.driver_cmd == "emit":
        _print_symbols(stream.segment(0, args.count), K)
        return 0
    print("m,n_i_m")
    for m in range(1, args.stats + 1):
        n = drv.word_coverage(stream, m, cap=args.cap)
        print(f"{m},{'exceeded' if n is None else n}")
    return 0


def _cmd_recover(args) -> int:
    ifs = _IFS_FACTORIES[args.ifs]()
    driver = drv.DRIVER_KINDS[args.driver](ifs.alphabet_size, vars(args))
    x0 = _as_vector(args.x0, ifs.dim, "--x0")
    cloud = build_cloud(ifs, args.resolution)
    record = recovery_time(ifs, driver, x0, args.eps, cloud, cap=args.cap)
    if record.n is None:
        raise CapExceededError(f"recovery did not complete within cap {args.cap}")
    sys.stdout.write(_recovery_csv([record]))
    return 0


def _cmd_dim(args) -> int:
    if args.m_lo > args.m_hi:
        raise ValidationError(f"--m-lo must be <= --m-hi, got {args.m_lo} > {args.m_hi}")
    cloud = build_cloud(_IFS_FACTORIES[args.ifs](), args.resolution)
    est = box_dimension(cloud, args.a, args.r, args.m_lo, args.m_hi)
    sys.stdout.write(_dimension_csv(est))
    print(f"# value {_fmt(est.value)}")
    return 0


def _cmd_schedule(args) -> int:
    key, rate = RATE_KINDS[args.psi]
    psi = rate(getattr(args, key))
    ifs = _IFS_FACTORIES[args.ifs]()
    cloud = build_cloud(ifs, args.resolution)
    schedule = build_schedule(ifs, cloud, psi, k_max=args.k_max, step_cap=args.step_cap)
    sys.stdout.write(_schedule_csv(schedule))
    if schedule.truncated:
        print("# truncated at the step cap", file=sys.stderr)
    if args.emit:
        _print_symbols(slow_driver(schedule).segment(0, args.emit), ifs.alphabet_size)
    return 0


def _cmd_experiment(args) -> int:
    if args.target in PRESETS:
        cfg = load_preset(args.target)
    else:
        path = Path(args.target)
        if not path.exists():
            raise ValidationError(
                f"{args.target!r} is neither a preset ({sorted(PRESETS)}) "
                "nor a config file"
            )
        with _files("config file", path):
            raw = path.read_bytes()
        try:
            cfg = parse_config(raw.decode())
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file {path}: not UTF-8 text ({exc})") from None
    if args.cap is not None:
        cfg = replace(cfg, orbit_cap=args.cap)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    with _files("--cache", args.cache):   # without out_dir it touches only the cache
        report = run_experiment(cfg, cache_dir=args.cache)
    if args.out:
        with _files("--out", args.out):
            write_artifacts(args.out, report.artifacts)
    sys.stdout.write(report.artifacts["summary.txt"])
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosgame",
        description="Deterministic chaos game: drivers, recovery times, "
                    "and rate diagnostics for contractive IFSs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def field(section: str, key: str):   # the flag mirroring [section] key
        return _typed(*_FIELDS[section][key][:2])

    p_cloud = sub.add_parser("cloud", help="attractor point clouds")
    cloud_sub = p_cloud.add_subparsers(dest="cloud_cmd", required=True)
    p_build = cloud_sub.add_parser("build")
    p_build.add_argument("--ifs", required=True, choices=list(_IFS_FACTORIES))
    p_build.add_argument("--resolution", type=field("run", "resolution"), required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--cap", type=field("run", "point_budget"),
                         default=DEFAULT_POINT_BUDGET, help="point budget")
    p_info = cloud_sub.add_parser("info")
    p_info.add_argument("path")

    p_driver = sub.add_parser("driver", help="symbol streams")
    driver_sub = p_driver.add_subparsers(dest="driver_cmd", required=True)
    for name in ("emit", "stats"):
        p = driver_sub.add_parser(name)
        p.add_argument("driver", choices=_CLI_DRIVERS)
        p.add_argument("--alphabet", type=int, default=2)
        p.add_argument("--z", type=field("driver", "z"), default=1.0)
        p.add_argument("--seed", type=field("experiment", "seed"), default=0)
        if name == "emit":
            p.add_argument("-n", "--count", type=_typed(*_COUNT), required=True)
        else:
            p.add_argument("--stats", type=_typed(*_POSITIVE_INT), required=True, metavar="M",
                           help="emit n_i(m) rows for m = 1..M")
            p.add_argument("--cap", type=_typed(*_COUNT),
                           default=drv.DEFAULT_COVERAGE_CAP)

    p_rec = sub.add_parser("recover", help="one recovery-time measurement")
    p_rec.add_argument("--ifs", required=True, choices=list(_IFS_FACTORIES))
    p_rec.add_argument("--driver", required=True, choices=_CLI_DRIVERS)
    p_rec.add_argument("--x0", type=_typed(_numbers, "finite numbers"), required=True,
                       help="coordinates, space separated")
    p_rec.add_argument("--eps", type=_typed(*_UNIT), required=True)
    p_rec.add_argument("--resolution", type=field("run", "resolution"), default=1e-6)
    p_rec.add_argument("--z", type=field("driver", "z"), default=1.0)
    p_rec.add_argument("--seed", type=field("experiment", "seed"), default=0)
    p_rec.add_argument("--cap", type=field("run", "orbit_cap"), default=DEFAULT_ORBIT_CAP)

    p_dim = sub.add_parser("dim", help="box-dimension estimate")
    p_dim.add_argument("--ifs", required=True, choices=list(_IFS_FACTORIES))
    p_dim.add_argument("--a", type=field("eps", "a"), default=1.0)
    p_dim.add_argument("--r", type=field("eps", "r"), required=True)
    p_dim.add_argument("--m-lo", type=field("eps", "m_lo"), required=True)
    p_dim.add_argument("--m-hi", type=field("eps", "m_hi"), required=True)
    p_dim.add_argument("--resolution", type=field("run", "resolution"), required=True)

    p_sch = sub.add_parser("schedule", help="slow-driver schedule table")
    p_sch.add_argument("--ifs", required=True, choices=list(_IFS_FACTORIES))
    p_sch.add_argument("--psi", choices=list(RATE_KINDS), default="power")
    p_sch.add_argument("--z", type=field("driver", "z"), default=1.0)
    p_sch.add_argument("--order", type=field("driver", "order"), default=2)
    p_sch.add_argument("--k-max", type=field("driver", "k_max"), default=3)
    p_sch.add_argument("--step-cap", type=field("driver", "step_cap"),
                       default=DEFAULT_STEP_CAP)
    p_sch.add_argument("--resolution", type=field("run", "resolution"), default=3e-7)
    p_sch.add_argument("--emit", type=_typed(*_COUNT), default=0, metavar="N",
                       help="also print the first N driver symbols")

    p_exp = sub.add_parser("experiment", help="full experiment runs")
    exp_sub = p_exp.add_subparsers(dest="experiment_cmd", required=True)
    p_run = exp_sub.add_parser("run")
    p_run.add_argument("target", help="preset name or config file path")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--cache", default=None)
    p_run.add_argument("--cap", type=field("run", "orbit_cap"), default=None,
                       help="override the orbit cap")
    p_run.add_argument("--seed", type=field("experiment", "seed"), default=None,
                       help="override the seed")
    return parser


_DISPATCH = {
    "cloud": _cmd_cloud,
    "driver": _cmd_driver,
    "recover": _cmd_recover,
    "dim": _cmd_dim,
    "schedule": _cmd_schedule,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:   # argparse's usage error (2) or --help (0)
        return exc.code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except ChaosGameError as exc:   # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

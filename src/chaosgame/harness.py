"""Experiment configuration, presets, orchestration, and CSV emission.

Config grammar (INI-style, plain-text key/value with sections):

    [experiment]
    schema_version = 1            # required, must be 1
    name = my-run                 # required
    seed = 0                      # optional, >= 0, used by the random driver

    [ifs]                         # either a named preset...
    preset = cantor               # cantor | segment | halving | sierpinski
                                  # ...or explicit affine maps:
    map1.matrix = 0.5 0 0 0.5     # row-major d*d floats
    map1.offset = 0 0             # d floats (fixes d)
    map2.matrix = ...

    [driver]
    kind = champernowne           # champernowne | debruijn | example4 |
                                  # random | literal | slow
    z = 1                         # example4 only
    symbols = 1 2 1 1             # literal only
    psi = power                   # slow only: power | iterexp
    order = 2                     # slow + iterexp only, >= 1
    k_max = 3                     # slow only, >= 1
    step_cap = 5000000            # slow only, >= 1

    [eps]                         # omitted for kind = slow (the schedule
    a = 1                         # supplies eps_k = 3*C_{m_k});
    r = 0.5                       # otherwise geometric a*r^m over m_lo..m_hi
    m_lo = 4                      # (every a*r^m must lie in (0, 1))
    m_hi = 10
    list = 0.125 0.0625           # ...or a decreasing list in (0, 1)

    [run]
    x0 = 0; 1; 5                  # start points: ';' between points,
                                  # spaces between coordinates
    resolution = 1e-06            # cloud target resolution (omit if exact)
    orbit_cap = 1000000           # optional, >= 0
    point_budget = 16777216       # optional, >= 1
    dimension = false             # optional; needs the geometric eps form
    exact_attractor = false       # optional; {x/2, const 1} system only

Unknown sections or keys are rejected by name; all violations are reported
at once.  emit_config produces the canonical form (maps expanded, floats at
17 significant digits); parse(emit(parse(text))) == parse(text).
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import drivers as drv
from .construct import (DEFAULT_STEP_CAP, RATE_KINDS, Schedule, build_schedule,
                        power_rate, slow_driver)
from .errors import ValidationError
from .ifs import (DEFAULT_POINT_BUDGET, AffineMap, AttractorCloud, IfsSystem,
                  build_cloud, cantor_ifs, halving_ifs, read_cloud, segment_ifs,
                  sierpinski_ifs, write_cloud)
from .metrics import (CoverEstimate, DimensionEstimate, RecoveryRecord,
                      box_dimension, covering_estimate, log_rate, rate_ratio,
                      recovery_time)

SCHEMA_VERSION = 1

_IFS_FACTORIES = {   # cached: each map keeps its plain-float form (on_floats)
    "cantor": functools.cache(cantor_ifs),
    "segment": functools.cache(segment_ifs),
    "halving": functools.cache(halving_ifs),
    "sierpinski": functools.cache(sierpinski_ifs),
}

_DRIVER_KEYS_BY_KIND = {   # the [driver] keys each kind takes besides kind
    **dict.fromkeys(drv.DRIVER_KINDS, ()),
    "example4": ("z",), "literal": ("symbols",),
    "slow": ("psi", "k_max", "step_cap", *(key for key, _ in RATE_KINDS.values())),
}
_GEOM = ("a", "r", "m_lo", "m_hi")   # the [eps] keys of the geometric form


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _text(value) -> str:
    """A config value or CSV x0 as text: bools as true/false, floats by _fmt,
    ints by str, sequences space-joined and a tuple of points '; '-joined."""
    if isinstance(value, (tuple, np.ndarray)):
        points = len(value) > 0 and isinstance(value[0], tuple)
        return ("; " if points else " ").join(map(_text, value))
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, canonical experiment description."""

    schema_version: int
    name: str
    seed: int
    ifs_maps: tuple          # per map: (flat row-major matrix tuple, offset tuple)
    driver_kind: str
    driver_params: tuple     # sorted (key, value) pairs
    x0: tuple                # tuple of coordinate tuples
    eps_schedule: tuple      # ("geom", a, r, m_lo, m_hi) | ("list", v1, ...) | ("schedule",)
    resolution: float | None
    orbit_cap: int
    point_budget: int
    dimension: bool
    exact_attractor: bool

    def build_ifs(self) -> IfsSystem:
        # Built once per set of maps; the repr tells -0.0 from 0.0, == does not.
        return _build_ifs(repr(self.ifs_maps), self.ifs_maps)

    def eps_values(self) -> tuple:
        if self.eps_schedule[0] == "geom":
            _, a, r, lo, hi = self.eps_schedule
            return tuple(a * r ** m for m in range(lo, hi + 1))
        if self.eps_schedule[0] == "list":
            return tuple(self.eps_schedule[1:])
        return ()   # supplied by the slow-driver schedule at run time

    def param(self, key, default=None):
        return dict(self.driver_params).get(key, default)


@functools.lru_cache(maxsize=256)
def _build_ifs(key: str, ifs_maps: tuple) -> IfsSystem:
    maps = []
    for idx, (flat, offset) in enumerate(ifs_maps, start=1):
        d = len(offset)
        try:
            maps.append(AffineMap.create(np.array(flat).reshape(d, d), list(offset)))
        except ValidationError as exc:
            raise ValidationError(f"[ifs] map{idx}: {exc}") from None
    return IfsSystem.create(maps)


def _numbers(raw: str) -> tuple:
    """Whitespace-separated finite numbers: the reader of every config float."""
    values = tuple(float(t) for t in raw.split())
    if not all(map(math.isfinite, values)):
        raise ValueError(raw)
    return values


def _number(raw: str) -> float:
    (value,) = _numbers(raw)
    return value


def _where(reader, holds):
    """reader, failing on values for which holds(value) is false."""
    def read(raw: str):
        value = reader(raw)
        if not holds(value):
            raise ValueError(raw)
        return value
    return read


_REQUIRED = object()
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_INT = (int, "an integer")
_COUNT = (_where(int, lambda v: v >= 0), "an integer >= 0")
_POSITIVE_INT = (_where(int, lambda v: v >= 1), "an integer >= 1")
_POSITIVE = (_where(_number, lambda v: v > 0), "a positive finite number")
_BOOL = (lambda raw: _BOOLS[raw.lower()], "true/false")

# section -> key -> (reader, expected, default).  A reader raises ValueError
# or KeyError on a bad value; the default _REQUIRED marks a key that must be
# given, and None one whose absence the checks after the table judge.
# [ifs] also takes map1.matrix, map1.offset, map2.matrix, ..., read with
# _numbers.
_FIELDS = {
    "experiment": {
        "schema_version": (_where(int, lambda v: v == SCHEMA_VERSION),
                           f"{SCHEMA_VERSION}", _REQUIRED),
        "name": (_where(str, bool), "a name", _REQUIRED),
        "seed": (*_COUNT, 0),
    },
    "ifs": {"preset": (_where(str, lambda v: v in _IFS_FACTORIES),
                       " | ".join(_IFS_FACTORIES), None)},
    "driver": {
        "kind": (str, "a driver kind", _REQUIRED),
        "z": (_number, "a finite number", None),
        "symbols": (lambda raw: tuple(int(t) for t in raw.split()), "integers", None),
        "psi": (_where(str, lambda v: v in RATE_KINDS), " | ".join(RATE_KINDS), None),
        "order": (*_POSITIVE_INT, None),
        "k_max": (*_POSITIVE_INT, 3),
        "step_cap": (*_POSITIVE_INT, DEFAULT_STEP_CAP),
    },
    "eps": {
        "a": (*_POSITIVE, None),
        "r": (_where(_number, lambda v: 0.0 < v < 1.0), "a finite number in (0, 1)",
              None),
        "m_lo": (*_INT, None),
        "m_hi": (*_INT, None),
        "list": (_where(_numbers, lambda vs: all(0.0 < v < 1.0 for v in vs) and
                        all(b < a for a, b in zip(vs, vs[1:]))),
                 "strictly decreasing numbers in (0, 1)", None),
    },
    "run": {
        "x0": (_where(lambda raw: tuple(p for p in map(_numbers, raw.split(";")) if p),
                      bool), "finite numbers, ';' between points", _REQUIRED),
        "resolution": (*_POSITIVE, None),
        "orbit_cap": (*_COUNT, 10 ** 6),
        "point_budget": (*_POSITIVE_INT, DEFAULT_POINT_BUDGET),
        "dimension": (*_BOOL, False),
        "exact_attractor": (*_BOOL, False),
    },
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate; raises ValidationError listing ALL problems."""
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config syntax error: {exc}") from exc

    errors: list = []

    def read(where, raw, reader, expected):
        try:
            return reader(raw)
        except (ValueError, KeyError):
            errors.append(f"{where}: expected {expected}, got {raw!r}")
            return None

    for section in cp.sections():
        if section not in _FIELDS:
            errors.append(f"unknown section [{section}]")
    given = {s: dict(cp.items(s)) if cp.has_section(s) else {} for s in _FIELDS}
    val: dict = {}
    for section, fields in _FIELDS.items():
        if not cp.has_section(section) and section != "eps":   # eps: by kind, below
            errors.append(f"missing required section [{section}]")
        if section != "ifs":     # map keys are judged below
            errors.extend(f"unknown key '{key}' in [{section}]"
                          for key in given[section] if key not in fields)
        for key, (reader, expected, default) in fields.items():
            if key in given[section]:
                val[key] = read(f"[{section}] {key}", given[section][key],
                                reader, expected)
            else:
                if default is _REQUIRED:
                    errors.append(f"missing required field [{section}] {key}")
                val[key] = None if default is _REQUIRED else default

    # [ifs]
    ifs_maps: list = []
    if cp.has_section("ifs"):
        keys = set(given["ifs"])
        preset = val["preset"]
        if "preset" in keys:
            extra = keys - {"preset"}
            if extra:
                errors.append(f"unknown key(s) {sorted(extra)} in [ifs] next to preset")
            for m in _IFS_FACTORIES[preset]().maps if preset else ():
                ifs_maps.append((tuple(m.matrix.ravel()), tuple(m.offset)))
        else:
            idx = 1
            while f"map{idx}.offset" in keys or f"map{idx}.matrix" in keys:
                mat, off = (read(f"[ifs] map{idx}.{part}",
                                 given["ifs"].get(f"map{idx}.{part}", ""),
                                 _numbers, "finite numbers")
                            for part in ("matrix", "offset"))
                if mat is not None and off is not None:
                    d = len(off)
                    if d == 0 or len(mat) != d * d:
                        errors.append(f"[ifs] map{idx}: matrix must have d*d entries "
                                      f"for a d-vector offset (got {len(mat)} and {d})")
                    else:
                        ifs_maps.append((mat, off))
                keys -= {f"map{idx}.matrix", f"map{idx}.offset"}
                idx += 1
            if keys:
                errors.append(f"unknown key(s) {sorted(keys)} in [ifs]")
            if not ifs_maps:
                errors.append("[ifs] needs a preset or map1.matrix/map1.offset")

    # [driver]
    kind = val["kind"]
    dparams: dict = {}
    if kind is not None and kind not in _DRIVER_KEYS_BY_KIND:
        errors.append(f"unknown driver kind {kind!r}; "
                      f"known: {list(_DRIVER_KEYS_BY_KIND)}")
    elif kind is not None:
        for key in given["driver"]:
            if key != "kind" and key not in _DRIVER_KEYS_BY_KIND[kind]:
                errors.append(f"key '{key}' in [driver] does not apply to kind {kind}")
        wanted = _DRIVER_KEYS_BY_KIND[kind]
        if kind == "slow":   # and the one key psi reads
            wanted = ("psi", "k_max", "step_cap", *RATE_KINDS.get(val["psi"], ())[:1])
        for key in wanted:
            if val[key] is None and key not in given["driver"]:
                errors.append(f"[driver] {kind} requires {key}")
            dparams[key] = val[key]

    # [eps]
    if kind == "slow":
        if cp.has_section("eps"):
            errors.append("[eps] must be omitted for the slow driver: the "
                          "schedule supplies eps_k = 3*C_{m_k}")
        eps_schedule: tuple = ("schedule",)
    elif not cp.has_section("eps"):
        errors.append("missing required section [eps]")
        eps_schedule = ("list",)
    elif "list" in given["eps"]:
        extra = set(given["eps"]) - {"list"}
        if extra:
            errors.append(f"[eps] list excludes other keys, found {sorted(extra)}")
        eps_schedule = ("list",) + (val["list"] or ())
    else:
        if not all(key in given["eps"] for key in _GEOM):
            errors.append("[eps] geometric form requires " + ", ".join(_GEOM))
        a, r, lo, hi = (val[key] for key in _GEOM)
        if lo is not None and hi is not None and lo > hi:
            errors.append("[eps] m_lo must be <= m_hi")
        elif None not in (a, r, lo, hi):
            try:   # eps = a*r^m falls as m rises
                inside = 0.0 < a * r ** hi and a * r ** lo < 1.0
            except OverflowError:
                inside = False
            if not inside:
                errors.append(f"[eps] m_lo = {lo}, m_hi = {hi}: a*r^m leaves (0, 1)")
        eps_schedule = ("geom", a, r, lo, hi)

    # [run]
    exact, resolution = val["exact_attractor"], val["resolution"]
    if "resolution" not in given["run"] and not exact:
        errors.append("missing required field [run] resolution "
                      "(or set exact_attractor = true)")
    if val["dimension"] and eps_schedule[0] != "geom":
        errors.append("[run] dimension = true requires the geometric [eps] form")

    cfg = ExperimentConfig(
        schema_version=SCHEMA_VERSION, name=val["name"] or "", seed=val["seed"],
        ifs_maps=tuple(ifs_maps), driver_kind=kind or "",
        driver_params=tuple(sorted(dparams.items())), x0=val["x0"] or (),
        eps_schedule=eps_schedule, resolution=resolution,
        orbit_cap=val["orbit_cap"], point_budget=val["point_budget"],
        dimension=val["dimension"], exact_attractor=exact,
    )

    if not errors:
        # Deep validation: the maps must form a contractive system and the
        # start points must match its dimension.
        try:
            ifs = cfg.build_ifs()
            if any(len(p) != ifs.dim for p in cfg.x0):
                errors.append(f"[run] x0 points must be {ifs.dim}-dimensional")
            if kind in ("example4",) and ifs.alphabet_size != 2:
                errors.append("[driver] example4 requires a 2-map system")
            if exact and not _is_halving(ifs):
                errors.append("[run] exact_attractor is only available for the "
                              "{x/2, const 1} system")
            if kind == "literal":
                K = ifs.alphabet_size
                if any(not 1 <= s <= K for s in dict(cfg.driver_params)["symbols"]):
                    errors.append(f"[driver] literal symbols must lie in 1..{K}")
        except ValidationError as exc:
            errors.append(str(exc))

    if errors:
        raise ValidationError("invalid config:\n  - " + "\n  - ".join(errors))
    return cfg


def _is_halving(ifs: IfsSystem) -> bool:
    if ifs.dim != 1 or ifs.alphabet_size != 2:
        return False
    a1, b1 = float(ifs.maps[0].matrix[0, 0]), float(ifs.maps[0].offset[0])
    a2, b2 = float(ifs.maps[1].matrix[0, 0]), float(ifs.maps[1].offset[0])
    return (abs(a1 - 0.5) < 1e-12 and abs(b1) < 1e-12
            and abs(a2) < 1e-12 and abs(b2 - 1.0) < 1e-12)


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text in _FIELDS order, maps expanded, driver keys sorted, by _text."""
    eps_form, *eps = cfg.eps_schedule
    sections = {
        "experiment": {key: getattr(cfg, key) for key in _FIELDS["experiment"]},
        "ifs": {f"map{i}.{part}": value for i, pair in enumerate(cfg.ifs_maps, start=1)
                for part, value in zip(("matrix", "offset"), pair)},
        "driver": {"kind": cfg.driver_kind, **dict(cfg.driver_params)},
        "eps": {"geom": dict(zip(_GEOM, eps)), "list": {"list": tuple(eps)}}.get(eps_form),
        "run": {key: getattr(cfg, key) for key in _FIELDS["run"]},
    }
    return "\n".join(f"[{section}]\n" + "".join(f"{key} = {_text(value)}\n"
                                                for key, value in body.items()
                                                if value is not None)
                     for section, body in sections.items() if body is not None)


@dataclass(frozen=True)
class RunReport:
    """All artifacts of one experiment run; artifacts are the output bytes."""

    config: ExperimentConfig
    records: tuple            # RecoveryRecord per (eps, x0)
    covers: tuple             # CoverEstimate per eps
    dimension: DimensionEstimate | None
    schedule: Schedule | None
    artifacts: dict           # filename -> text content (deterministic)


def _exact_attractor_cloud(min_eps: float) -> AttractorCloud:
    """Exact attractor of {x/2, const 1}: {0} union {2^-j}, truncated so the
    dropped tail lies within min_eps/4 of the retained point 0."""
    n_max = max(1, math.ceil(math.log2(4.0 / min_eps)))
    pts = [0.0] + [2.0 ** (-j) for j in range(n_max + 1)]
    return AttractorCloud.from_points(pts, resolution=0.0, depth=n_max, diam_upper=1.0)


def _cloud_cache_key(cfg: ExperimentConfig) -> str:
    payload = repr((cfg.ifs_maps, cfg.resolution, cfg.point_budget))
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _obtain_cloud(cfg: ExperimentConfig, ifs: IfsSystem, cache_dir) -> tuple:
    """(cloud, path of its cache file, or None when not cached).

    The cloud is the exact attractor, or a built cloud.  With a cache_dir a
    built cloud is read from cloud-<key>.ifsc there, its cover_sizes memo
    with it (read_cloud), or built and written there at once.
    """
    if cfg.exact_attractor:
        eps = cfg.eps_values()
        return _exact_attractor_cloud(min(eps) if eps else 1e-6), None
    if cache_dir is None:
        return build_cloud(ifs, cfg.resolution, cfg.point_budget), None
    path = Path(cache_dir) / f"cloud-{_cloud_cache_key(cfg)}.ifsc"
    if path.exists():
        return read_cloud(path), path
    cloud = build_cloud(ifs, cfg.resolution, cfg.point_budget)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_cloud(path, cloud)
    return cloud, path


def make_driver(cfg: ExperimentConfig, ifs: IfsSystem,
                schedule: Schedule | None = None):
    """Fresh driver stream for the configured kind."""
    if cfg.driver_kind == "slow":
        if schedule is None:
            raise ValidationError("slow driver needs a built schedule")
        return slow_driver(schedule)
    return drv.DRIVER_KINDS[cfg.driver_kind](
        ifs.alphabet_size, {"seed": cfg.seed, **dict(cfg.driver_params)})


def _csv(header: str, rows) -> str:
    return "".join(line + "\n" for line in (header, *rows))


def _recovery_csv(records) -> str:
    """recovery.csv, whose row the CLI's recover command prints too."""
    return _csv("driver,x0,eps,n,guard,log_rate", (
        f"{rec.driver},{_text(rec.x0)},{_fmt(rec.eps)},"
        f"{'exceeded' if rec.n is None else rec.n},{_fmt(rec.guard)},"
        f"{_fmt(log_rate(rec.n, rec.eps)) if rec.n else 'undefined'}" for rec in records))


def _dimension_csv(est: DimensionEstimate) -> str:
    """dimension.csv, which the CLI's dim command prints too."""
    return _csv("b_m,lower,upper,rate_lower,rate_upper", (
        f"{_fmt(s.eps)},{s.lower},{s.upper},{_fmt(rl)},{_fmt(ru)}"
        for s, rl, ru in zip(est.samples, est.rates_lower, est.rates_upper)))


def _schedule_csv(schedule: Schedule) -> str:
    """schedule.csv, which the CLI's schedule command prints too."""
    return _csv("k,m_k,p_k,N_hat_k,v_k", (
        f"{k},{e.m},{e.p},{e.N_hat},{e.v}"
        for k, e in enumerate(schedule.entries, start=1)))


def write_artifacts(out_dir, artifacts: dict) -> None:
    """Write each artifact to out_dir/<name>, creating out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, content in sorted(artifacts.items()):
        (out / fname).write_text(content)


def run_experiment(cfg: ExperimentConfig, out_dir=None, cache_dir=None) -> RunReport:
    """Execute all phases; deterministic artifacts, optional file emission.

    With a cache_dir the cloud comes from the cache (_obtain_cloud), and once
    the analysis is done its cache file is rewritten if this run walked a
    radius the file did not hold, build_schedule's included.
    """
    artifacts: dict = {}
    ifs = cfg.build_ifs()
    cloud, cache_path = _obtain_cloud(cfg, ifs, cache_dir)
    known = len(cloud.cover_sizes)

    schedule = None
    if cfg.driver_kind == "slow":
        key, rate = RATE_KINDS[cfg.param("psi")]
        schedule = build_schedule(ifs, cloud, rate(cfg.param(key)),
                                  k_max=cfg.param("k_max"),
                                  step_cap=cfg.param("step_cap"),
                                  budget=cfg.point_budget)
        eps_values = tuple(schedule.eps_of(k)
                           for k in range(1, len(schedule.entries) + 1))
    else:
        eps_values = cfg.eps_values()
    driver = make_driver(cfg, ifs, schedule)

    records = []
    for eps in eps_values:
        for point in cfg.x0:
            records.append(recovery_time(ifs, driver, np.array(point), eps,
                                         cloud, cap=cfg.orbit_cap))

    covers = tuple(covering_estimate(cloud, eps) for eps in eps_values)
    dimension = None
    if cfg.dimension:
        _, a, r, lo, hi = cfg.eps_schedule
        dimension = box_dimension(cloud, a, r, lo, hi)
    if cache_path is not None and len(cloud.cover_sizes) > known:
        write_cloud(cache_path, cloud)

    # ---- artifact emission (all deterministic text) ----
    artifacts["recovery.csv"] = _recovery_csv(records)
    artifacts["cover.csv"] = _csv("eps,lower,upper", (
        f"{_fmt(c.eps)},{c.lower},{c.upper}" for c in covers))
    if dimension is not None:
        artifacts["dimension.csv"] = _dimension_csv(dimension)
    if schedule is not None:
        artifacts["schedule.csv"] = _schedule_csv(schedule)
    psi = (schedule.psi if schedule is not None else
           power_rate(cfg.param("z")) if cfg.driver_kind == "example4" else None)
    if psi is not None:
        artifacts["ratio.csv"] = _csv("x0,eps,n,ratio", (
            f"{_text(rec.x0)},{_fmt(rec.eps)},{rec.n},"
            f"{_fmt(rate_ratio(rec.n, psi, rec.eps))}"
            for rec in records if rec.n is not None))

    # gnuplot-friendly twins: same rows, whitespace-separated, '#' headers.
    for name in list(artifacts):
        if name.endswith(".csv"):
            lines = artifacts[name].splitlines()
            body = "\n".join(line.replace(",", " ") for line in lines[1:])
            artifacts[name[:-4] + ".dat"] = "# " + lines[0].replace(",", " ") + \
                "\n" + body + ("\n" if body else "")

    summary = io.StringIO()
    summary.write(f"experiment: {cfg.name}\n")
    summary.write(f"cloud: {cloud.size} points, resolution {_fmt(cloud.resolution)}, "
                  f"depth {cloud.depth}\n")
    summary.write(f"diam bracket: [{_fmt(cloud.diam_lower)}, "
                  f"{_fmt(cloud.diam_upper)}]\n")
    summary.write(f"records: {len(records)}, capped: "
                  f"{sum(1 for r in records if r.n is None)}\n")
    if dimension is not None:
        summary.write(f"box dimension: {_fmt(dimension.value)} "
                      f"(bracket width {_fmt(dimension.bracket_width)})\n")
    if schedule is not None:
        summary.write(f"schedule: {len(schedule.entries)} blocks, "
                      f"truncated: {schedule.truncated}\n")
    summary.write("\n-- canonical config --\n")
    summary.write(emit_config(cfg))
    artifacts["summary.txt"] = summary.getvalue()

    if out_dir is not None:
        write_artifacts(out_dir, artifacts)

    return RunReport(config=cfg, records=tuple(records), covers=covers,
                     dimension=dimension, schedule=schedule,
                     artifacts=artifacts)


# ---------------------------------------------------------------------------
# Presets: each pins one headline measurement at desk scale.
# ---------------------------------------------------------------------------

PRESETS = {
    "cantor-champernowne": """\
[experiment]
schema_version = 1
name = cantor-champernowne
seed = 0

[ifs]
preset = cantor

[driver]
kind = champernowne

[eps]
a = 1
r = 0.33333333333333331
m_lo = 8
m_hi = 12

[run]
x0 = 0; 1; 5
resolution = 1.5e-06
orbit_cap = 2000000
""",
    "cantor-debruijn": """\
[experiment]
schema_version = 1
name = cantor-debruijn
seed = 0

[ifs]
preset = cantor

[driver]
kind = debruijn

[eps]
a = 1
r = 0.33333333333333331
m_lo = 8
m_hi = 12

[run]
x0 = 0; 1
resolution = 1.5e-06
orbit_cap = 200000
""",
    "sierpinski-debruijn": """\
[experiment]
schema_version = 1
name = sierpinski-debruijn
seed = 0

[ifs]
preset = sierpinski

[driver]
kind = debruijn

[eps]
a = 1
r = 0.5
m_lo = 5
m_hi = 9

[run]
x0 = 0 0; 1 0
resolution = 0.0005
orbit_cap = 200000
""",
    "example4-z1": """\
[experiment]
schema_version = 1
name = example4-z1
seed = 0

[ifs]
preset = halving

[driver]
kind = example4
z = 1

[eps]
list = 0.125 0.0625 0.03125 0.015625 0.0078125 0.00390625 0.001953125 0.0009765625 0.00048828125 0.000244140625

[run]
x0 = 1; 0
exact_attractor = true
orbit_cap = 200000
""",
    "example4-z05": """\
[experiment]
schema_version = 1
name = example4-z05
seed = 0

[ifs]
preset = halving

[driver]
kind = example4
z = 0.5

[eps]
list = 0.0009765625 0.00048828125 0.000244140625 0.0001220703125 6.103515625e-05 3.0517578125e-05 1.52587890625e-05

[run]
x0 = 1; 0
exact_attractor = true
orbit_cap = 200000
""",
    "slow-power-z1": """\
[experiment]
schema_version = 1
name = slow-power-z1
seed = 0

[ifs]
preset = cantor

[driver]
kind = slow
psi = power
z = 1
k_max = 3
step_cap = 5000000

[run]
x0 = 0; 0.5; 1
resolution = 3e-07
orbit_cap = 5000000
""",
    "segment-dimension": """\
[experiment]
schema_version = 1
name = segment-dimension
seed = 0

[ifs]
preset = segment

[driver]
kind = champernowne

[eps]
a = 1
r = 0.5
m_lo = 4
m_hi = 10

[run]
x0 = 0
resolution = 0.0001
orbit_cap = 100000
dimension = true
""",
}


def load_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return parse_config(PRESETS[name])

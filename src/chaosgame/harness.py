"""Experiment configuration, presets, orchestration, and CSV emission.

Config grammar (INI-style, plain-text key/value with sections):

    [experiment]
    schema_version = 1            # required, must be 1
    name = my-run                 # required
    seed = 0                      # optional, used by the random driver

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
    order = 2                     # slow + iterexp only
    k_max = 3                     # slow only
    step_cap = 5000000            # slow only

    [eps]                         # omitted for kind = slow (the schedule
    a = 1                         # supplies eps_k = 3*C_{m_k});
    r = 0.5                       # otherwise geometric a*r^m over m_lo..m_hi
    m_lo = 4
    m_hi = 10
    list = 0.125 0.0625           # ...or an explicit decreasing list

    [run]
    x0 = 0; 1; 5                  # start points: ';' between points,
                                  # spaces between coordinates
    resolution = 1e-06            # cloud target resolution (omit if exact)
    orbit_cap = 1000000           # optional
    point_budget = 16777216       # optional
    dimension = false             # optional; needs the geometric eps form
    exact_attractor = false       # optional; {x/2, const 1} system only

Unknown sections or keys are rejected by name; all violations are reported
at once.  emit_config produces the canonical form (maps expanded, floats at
17 significant digits); parse(emit(parse(text))) == parse(text).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import drivers as drv
from .construct import (RateFunction, Schedule, build_schedule, choose_base_map,
                        iterexp_rate, power_rate, slow_driver)
from .errors import ValidationError
from .ifs import (AffineMap, AttractorCloud, IfsSystem, build_cloud, cantor_ifs,
                  halving_ifs, read_cloud, segment_ifs, sierpinski_ifs,
                  write_cloud)
from .metrics import (CoverEstimate, DimensionEstimate, RecoveryRecord,
                      box_dimension, covering_estimate, log_rate, rate_ratio,
                      recovery_time)

SCHEMA_VERSION = 1

_IFS_FACTORIES = {
    "cantor": cantor_ifs,
    "segment": segment_ifs,
    "halving": halving_ifs,
    "sierpinski": sierpinski_ifs,
}

_DRIVER_KINDS = ("champernowne", "debruijn", "example4", "random", "literal", "slow")

_KNOWN_KEYS = {
    "experiment": {"schema_version", "name", "seed"},
    "ifs": None,    # validated specially (preset or mapN.*)
    "driver": {"kind", "z", "symbols", "psi", "order", "k_max", "step_cap"},
    "eps": {"a", "r", "m_lo", "m_hi", "list"},
    "run": {"x0", "resolution", "orbit_cap", "point_budget", "dimension",
            "exact_attractor"},
}

_DRIVER_KEYS_BY_KIND = {
    "champernowne": set(),
    "debruijn": set(),
    "example4": {"z"},
    "random": set(),
    "literal": {"symbols"},
    "slow": {"psi", "z", "order", "k_max", "step_cap"},
}


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


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
        maps = []
        for flat, offset in self.ifs_maps:
            d = len(offset)
            maps.append(AffineMap.create(np.array(flat).reshape(d, d), list(offset)))
        return IfsSystem.create(maps)

    def eps_values(self) -> tuple:
        if self.eps_schedule[0] == "geom":
            _, a, r, lo, hi = self.eps_schedule
            return tuple(a * r ** m for m in range(lo, hi + 1))
        if self.eps_schedule[0] == "list":
            return tuple(self.eps_schedule[1:])
        return ()   # supplied by the slow-driver schedule at run time

    def param(self, key, default=None):
        return dict(self.driver_params).get(key, default)


def _parse_floats(text: str, what: str, errors: list) -> tuple:
    try:
        return tuple(float(t) for t in text.split())
    except ValueError:
        errors.append(f"{what}: expected whitespace-separated numbers, got {text!r}")
        return ()


def _parse_float(raw: str, what: str, errors: list):
    """A finite float, or None after recording why not."""
    try:
        value = float(raw)
    except ValueError:
        errors.append(f"{what}: expected a number, got {raw!r}")
        return None
    if not math.isfinite(value):
        errors.append(f"{what}: expected a finite number, got {raw!r}")
        return None
    return value


def _parse_int(raw: str, what: str, errors: list, default=None):
    if raw is None:
        if default is not None:
            return default
        errors.append(f"missing required field {what}")
        return 0
    try:
        return int(raw)
    except ValueError:
        errors.append(f"{what}: expected an integer, got {raw!r}")
        return 0


def _parse_bool(raw: str, what: str, errors: list, default=False):
    if raw is None:
        return default
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    errors.append(f"{what}: expected true/false, got {raw!r}")
    return default


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate; raises ValidationError listing ALL problems."""
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config syntax error: {exc}") from exc

    errors: list = []
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")

    def get(section, key, default=None):
        return cp.get(section, key, fallback=default)

    for section, keys in _KNOWN_KEYS.items():
        if keys is None or not cp.has_section(section):
            continue
        for key in cp.options(section):
            if key not in keys:
                errors.append(f"unknown key '{key}' in [{section}]")

    # [experiment]
    if not cp.has_section("experiment"):
        errors.append("missing required section [experiment]")
    sv = _parse_int(get("experiment", "schema_version"),
                    "[experiment] schema_version", errors)
    if sv != SCHEMA_VERSION and not any("schema_version" in e for e in errors):
        errors.append(f"unsupported schema_version {sv}, expected {SCHEMA_VERSION}")
    name = get("experiment", "name")
    if not name:
        errors.append("missing required field [experiment] name")
        name = ""
    seed = _parse_int(get("experiment", "seed"), "[experiment] seed", errors, default=0)

    # [ifs]
    ifs_maps: list = []
    if not cp.has_section("ifs"):
        errors.append("missing required section [ifs]")
    else:
        keys = set(cp.options("ifs"))
        preset = get("ifs", "preset")
        if preset is not None:
            extra = keys - {"preset"}
            if extra:
                errors.append(f"unknown key(s) {sorted(extra)} in [ifs] next to preset")
            if preset not in _IFS_FACTORIES:
                errors.append(f"unknown ifs preset {preset!r}; "
                              f"known: {sorted(_IFS_FACTORIES)}")
            else:
                for m in _IFS_FACTORIES[preset]().maps:
                    ifs_maps.append((tuple(m.matrix.ravel()), tuple(m.offset)))
        else:
            idx = 1
            while f"map{idx}.offset" in keys or f"map{idx}.matrix" in keys:
                mat = _parse_floats(get("ifs", f"map{idx}.matrix", ""),
                                    f"[ifs] map{idx}.matrix", errors)
                off = _parse_floats(get("ifs", f"map{idx}.offset", ""),
                                    f"[ifs] map{idx}.offset", errors)
                d = len(off)
                if d == 0 or len(mat) != d * d:
                    errors.append(f"[ifs] map{idx}: matrix must have d*d entries "
                                  f"for a d-vector offset (got {len(mat)} and {d})")
                else:
                    ifs_maps.append((mat, off))
                keys.discard(f"map{idx}.matrix")
                keys.discard(f"map{idx}.offset")
                idx += 1
            if keys:
                errors.append(f"unknown key(s) {sorted(keys)} in [ifs]")
            if not ifs_maps:
                errors.append("[ifs] needs a preset or map1.matrix/map1.offset")

    # [driver]
    kind = get("driver", "kind")
    dparams: dict = {}
    if not cp.has_section("driver"):
        errors.append("missing required section [driver]")
    elif kind not in _DRIVER_KINDS:
        errors.append(f"unknown driver kind {kind!r}; known: {list(_DRIVER_KINDS)}")
    else:
        allowed = _DRIVER_KEYS_BY_KIND[kind]
        for key in cp.options("driver"):
            if key != "kind" and key not in allowed:
                errors.append(f"key '{key}' in [driver] does not apply to kind {kind}")
        if kind == "example4":
            raw = get("driver", "z")
            if raw is None:
                errors.append("[driver] example4 requires z")
            else:
                dparams["z"] = _parse_float(raw, "[driver] z", errors)
        if kind == "literal":
            raw = get("driver", "symbols")
            if raw is None:
                errors.append("[driver] literal requires symbols")
            else:
                try:
                    dparams["symbols"] = tuple(int(t) for t in raw.split())
                except ValueError:
                    errors.append(f"[driver] symbols: expected integers, got {raw!r}")
        if kind == "slow":
            psi = get("driver", "psi")
            if psi not in ("power", "iterexp"):
                errors.append("[driver] slow requires psi = power | iterexp")
            else:
                dparams["psi"] = psi
                if psi == "power":
                    raw = get("driver", "z")
                    if raw is None:
                        errors.append("[driver] slow psi=power requires z")
                    else:
                        dparams["z"] = _parse_float(raw, "[driver] z", errors)
                else:
                    dparams["order"] = _parse_int(get("driver", "order"),
                                                  "[driver] order", errors)
            dparams["k_max"] = _parse_int(get("driver", "k_max"),
                                          "[driver] k_max", errors, default=3)
            dparams["step_cap"] = _parse_int(get("driver", "step_cap"),
                                             "[driver] step_cap", errors,
                                             default=5 * 10 ** 6)

    # [eps]
    if kind == "slow":
        if cp.has_section("eps"):
            errors.append("[eps] must be omitted for the slow driver: the "
                          "schedule supplies eps_k = 3*C_{m_k}")
        eps_schedule: tuple = ("schedule",)
    elif not cp.has_section("eps"):
        errors.append("missing required section [eps]")
        eps_schedule = ("list",)
    elif get("eps", "list") is not None:
        extra = set(cp.options("eps")) - {"list"}
        if extra:
            errors.append(f"[eps] list excludes other keys, found {sorted(extra)}")
        values = _parse_floats(get("eps", "list"), "[eps] list", errors)
        if values and not all(b < a for a, b in zip(values, values[1:])):
            errors.append("[eps] list must be strictly decreasing")
        eps_schedule = ("list",) + values
    else:
        a_raw, r_raw = get("eps", "a"), get("eps", "r")
        lo = _parse_int(get("eps", "m_lo"), "[eps] m_lo", errors)
        hi = _parse_int(get("eps", "m_hi"), "[eps] m_hi", errors)
        if a_raw is None or r_raw is None:
            errors.append("[eps] geometric form requires a, r, m_lo, m_hi")
            eps_schedule = ("list",)
        else:
            a = _parse_float(a_raw, "[eps] a", errors)
            r = _parse_float(r_raw, "[eps] r", errors)
            if r is not None and not 0.0 < r < 1.0:
                errors.append("[eps] r must lie in (0, 1)")
            if a is not None and a <= 0:
                errors.append("[eps] a must be positive")
            if lo > hi:
                errors.append("[eps] m_lo must be <= m_hi")
            eps_schedule = ("geom", a, r, lo, hi)

    # [run]
    if not cp.has_section("run"):
        errors.append("missing required section [run]")
    x0_raw = get("run", "x0")
    x0: tuple = ()
    if x0_raw is None:
        errors.append("missing required field [run] x0")
    else:
        pts = []
        for part in x0_raw.split(";"):
            coords = _parse_floats(part, "[run] x0", errors)
            if coords:
                pts.append(coords)
        if not pts:
            errors.append("[run] x0 must list at least one start point")
        x0 = tuple(pts)
    exact = _parse_bool(get("run", "exact_attractor"),
                        "[run] exact_attractor", errors)
    res_raw = get("run", "resolution")
    resolution = None
    if res_raw is not None:
        try:
            resolution = float(res_raw)
            if resolution <= 0:
                errors.append("[run] resolution must be positive")
        except ValueError:
            errors.append(f"[run] resolution: expected a number, got {res_raw!r}")
    elif not exact:
        errors.append("missing required field [run] resolution "
                      "(or set exact_attractor = true)")
    orbit_cap = _parse_int(get("run", "orbit_cap"), "[run] orbit_cap", errors,
                           default=10 ** 6)
    point_budget = _parse_int(get("run", "point_budget"), "[run] point_budget",
                              errors, default=2 ** 24)
    dimension = _parse_bool(get("run", "dimension"), "[run] dimension", errors)
    if dimension and eps_schedule and eps_schedule[0] != "geom":
        errors.append("[run] dimension = true requires the geometric [eps] form")

    cfg = ExperimentConfig(
        schema_version=SCHEMA_VERSION, name=name, seed=seed,
        ifs_maps=tuple(ifs_maps), driver_kind=kind or "",
        driver_params=tuple(sorted(dparams.items())), x0=x0,
        eps_schedule=eps_schedule, resolution=resolution,
        orbit_cap=orbit_cap, point_budget=point_budget,
        dimension=dimension, exact_attractor=exact,
    )

    if not errors:
        # Deep validation: the maps must form a contractive system and the
        # start points must match its dimension.
        try:
            ifs = cfg.build_ifs()
            if any(len(p) != ifs.dim for p in cfg.x0):
                errors.append(f"[run] x0 points must be {ifs.dim}-dimensional")
            if not all(math.isfinite(c) for p in cfg.x0 for c in p):
                errors.append(f"[run] x0 coordinates must be finite, got {x0_raw!r}")
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
    """Canonical text form: fixed ordering, maps expanded, 17-digit floats."""
    out = io.StringIO()
    out.write("[experiment]\n")
    out.write(f"schema_version = {cfg.schema_version}\n")
    out.write(f"name = {cfg.name}\n")
    out.write(f"seed = {cfg.seed}\n\n")
    out.write("[ifs]\n")
    for i, (mat, off) in enumerate(cfg.ifs_maps, start=1):
        out.write(f"map{i}.matrix = " + " ".join(_fmt(v) for v in mat) + "\n")
        out.write(f"map{i}.offset = " + " ".join(_fmt(v) for v in off) + "\n")
    out.write("\n[driver]\n")
    out.write(f"kind = {cfg.driver_kind}\n")
    for key, value in cfg.driver_params:
        if key == "symbols":
            out.write("symbols = " + " ".join(str(s) for s in value) + "\n")
        elif isinstance(value, float):
            out.write(f"{key} = {_fmt(value)}\n")
        else:
            out.write(f"{key} = {value}\n")
    if cfg.eps_schedule[0] == "geom":
        _, a, r, lo, hi = cfg.eps_schedule
        out.write("\n[eps]\n")
        out.write(f"a = {_fmt(a)}\nr = {_fmt(r)}\nm_lo = {lo}\nm_hi = {hi}\n")
    elif cfg.eps_schedule[0] == "list":
        out.write("\n[eps]\n")
        out.write("list = " + " ".join(_fmt(v) for v in cfg.eps_schedule[1:]) + "\n")
    out.write("\n[run]\n")
    out.write("x0 = " + "; ".join(" ".join(_fmt(c) for c in p) for p in cfg.x0) + "\n")
    if cfg.resolution is not None:
        out.write(f"resolution = {_fmt(cfg.resolution)}\n")
    out.write(f"orbit_cap = {cfg.orbit_cap}\n")
    out.write(f"point_budget = {cfg.point_budget}\n")
    out.write(f"dimension = {'true' if cfg.dimension else 'false'}\n")
    out.write(f"exact_attractor = {'true' if cfg.exact_attractor else 'false'}\n")
    return out.getvalue()


@dataclass(frozen=True)
class RunReport:
    """All artifacts of one experiment run; artifacts are the output bytes."""

    config: ExperimentConfig
    records: tuple            # RecoveryRecord per (eps, x0)
    covers: tuple             # CoverEstimate per eps
    dimension: DimensionEstimate | None
    schedule: Schedule | None
    artifacts: dict           # filename -> text content (deterministic)
    timings: dict             # phase -> seconds (excluded from artifacts)


def _exact_attractor_cloud(min_eps: float) -> AttractorCloud:
    """Exact attractor of {x/2, const 1}: {0} union {2^-j}, truncated so the
    dropped tail lies within min_eps/4 of the retained point 0."""
    n_max = max(1, math.ceil(math.log2(4.0 / min_eps)))
    pts = [0.0] + [2.0 ** (-j) for j in range(n_max + 1)]
    return AttractorCloud.from_points(np.array(pts)[:, None], resolution=0.0,
                                      depth=n_max, diam_upper=1.0)


def _cloud_cache_key(cfg: ExperimentConfig) -> str:
    payload = repr((cfg.ifs_maps, cfg.resolution, cfg.point_budget))
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _obtain_cloud(cfg: ExperimentConfig, ifs: IfsSystem, cache_dir) -> AttractorCloud:
    if cfg.exact_attractor:
        eps = cfg.eps_values()
        return _exact_attractor_cloud(min(eps) if eps else 1e-6)
    if cache_dir is not None:
        path = Path(cache_dir) / f"cloud-{_cloud_cache_key(cfg)}.ifsc"
        if path.exists():
            return read_cloud(path)
        cloud = build_cloud(ifs, cfg.resolution, cfg.point_budget)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_cloud(path, cloud)
        return cloud
    return build_cloud(ifs, cfg.resolution, cfg.point_budget)


def make_driver(cfg: ExperimentConfig, ifs: IfsSystem,
                schedule: Schedule | None = None):
    """Fresh driver stream for the configured kind."""
    K = ifs.alphabet_size
    kind = cfg.driver_kind
    if kind == "champernowne":
        return drv.champernowne(K)
    if kind == "debruijn":
        return drv.infinite_de_bruijn(K)
    if kind == "example4":
        return drv.example4_driver(cfg.param("z"))
    if kind == "random":
        return drv.random_driver(K, cfg.seed)
    if kind == "literal":
        return drv.literal_driver(drv.Word(cfg.param("symbols"), K))
    if kind == "slow":
        if schedule is None:
            raise ValidationError("slow driver needs a built schedule")
        return slow_driver(schedule)
    raise ValidationError(f"unknown driver kind {kind!r}")


def _schedule_psi(cfg: ExperimentConfig) -> RateFunction:
    if cfg.param("psi") == "power":
        return power_rate(cfg.param("z"))
    return iterexp_rate(cfg.param("order"))


def _x0_field(point: np.ndarray) -> str:
    return " ".join(_fmt(c) for c in np.atleast_1d(point))


def run_experiment(cfg: ExperimentConfig, out_dir=None, cache_dir=None) -> RunReport:
    """Execute all phases; deterministic artifacts, optional file emission."""
    timings: dict = {}
    artifacts: dict = {}

    t0 = time.perf_counter()
    ifs = cfg.build_ifs()
    cloud = _obtain_cloud(cfg, ifs, cache_dir)
    timings["cloud"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    schedule = None
    if cfg.driver_kind == "slow":
        base = choose_base_map(ifs, cloud)
        schedule = build_schedule(ifs, cloud, _schedule_psi(cfg), base,
                                  k_max=cfg.param("k_max"),
                                  step_cap=cfg.param("step_cap"),
                                  budget=cfg.point_budget)
        eps_values = tuple(schedule.eps_of(k)
                           for k in range(1, len(schedule.entries) + 1))
    else:
        eps_values = cfg.eps_values()
    driver = make_driver(cfg, ifs, schedule)
    timings["driver"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    records = []
    for eps in eps_values:
        for point in cfg.x0:
            records.append(recovery_time(ifs, driver, np.array(point), eps,
                                         cloud, cap=cfg.orbit_cap))
    timings["recovery"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    covers = tuple(covering_estimate(cloud.points, eps) for eps in eps_values)
    dimension = None
    if cfg.dimension:
        _, a, r, lo, hi = cfg.eps_schedule
        dimension = box_dimension(cloud, a, r, lo, hi)
    timings["analysis"] = time.perf_counter() - t0

    # ---- artifact emission (all deterministic text) ----
    rec_rows = []
    for rec in records:
        n_field = "exceeded" if rec.n is None else str(rec.n)
        if rec.n is None or rec.n == 0:
            lr_field = "undefined"
        else:
            lr_field = _fmt(log_rate(rec.n, rec.eps))
        rec_rows.append(",".join([rec.driver, _x0_field(rec.x0), _fmt(rec.eps),
                                  n_field, _fmt(rec.guard), lr_field]))
    artifacts["recovery.csv"] = "driver,x0,eps,n,guard,log_rate\n" + \
        "".join(row + "\n" for row in rec_rows)

    artifacts["cover.csv"] = "eps,lower,upper\n" + "".join(
        f"{_fmt(c.eps)},{c.lower},{c.upper}\n" for c in covers)

    if dimension is not None:
        rows = []
        for est, rl, ru in zip(dimension.samples, dimension.rates_lower,
                               dimension.rates_upper):
            rows.append(f"{_fmt(est.eps)},{est.lower},{est.upper},"
                        f"{_fmt(rl)},{_fmt(ru)}")
        artifacts["dimension.csv"] = "b_m,lower,upper,rate_lower,rate_upper\n" + \
            "".join(row + "\n" for row in rows)

    if schedule is not None:
        rows = [f"{k},{e.m},{e.p},{e.N_hat},{e.v}"
                for k, e in enumerate(schedule.entries, start=1)]
        artifacts["schedule.csv"] = "k,m_k,p_k,N_hat_k,v_k\n" + \
            "".join(row + "\n" for row in rows)
        psi = schedule.psi
        ratio_rows = []
        for rec in records:
            if rec.n is not None:
                ratio_rows.append(f"{_x0_field(rec.x0)},{_fmt(rec.eps)},{rec.n},"
                                  f"{_fmt(rate_ratio(rec.n, psi, rec.eps))}")
        artifacts["ratio.csv"] = "x0,eps,n,ratio\n" + \
            "".join(row + "\n" for row in ratio_rows)
    elif cfg.driver_kind == "example4":
        psi = power_rate(cfg.param("z"))
        ratio_rows = []
        for rec in records:
            if rec.n is not None:
                ratio_rows.append(f"{_x0_field(rec.x0)},{_fmt(rec.eps)},{rec.n},"
                                  f"{_fmt(rate_ratio(rec.n, psi, rec.eps))}")
        artifacts["ratio.csv"] = "x0,eps,n,ratio\n" + \
            "".join(row + "\n" for row in ratio_rows)

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
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for fname, content in sorted(artifacts.items()):
            (out / fname).write_text(content)

    return RunReport(config=cfg, records=tuple(records), covers=covers,
                     dimension=dimension, schedule=schedule,
                     artifacts=artifacts, timings=timings)


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

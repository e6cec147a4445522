"""Explicit driver constructions: covering words and slow-driver schedules.

Two builders live here.  build_sigma produces a finite word sigma(d, m)
whose chaos-game orbit sweeps a d-cover of the attractor using depth-m
address points, covering the whole attractor at radius 3*C_m where
C_m = L^m * (diam A + 1).  build_schedule assembles the block schedule for
a driver whose recovery times track a prescribed rate function psi: long
runs of a single map pin the orbit at a fixed point (delaying recovery to
~psi(eps_k)), then a sigma word restores coverage.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .drivers import DriverStream, Run, champernowne
from .errors import CapExceededError, InternalInvariantError, ValidationError
from .ifs import AttractorCloud, IfsSystem, _hutchinson_points, fixed_point
from .metrics import _greedy_walk, _range_min, _settle, covering_estimate

DEFAULT_ADDRESS_BUDGET = 2 ** 24
_MIN_OUTSIDE = 8   # cloud points a base map must leave outside its delta-ball
_EXP_OVERFLOW = 700.0  # exp argument beyond which float64 overflows
# Each run rebuilds its covering words; equal ones share one read-only array.
_shared_word = functools.lru_cache(maxsize=8)(functools.partial(np.frombuffer, dtype=np.int64))


@dataclass(frozen=True)
class RateFunction:
    """A positive rate psi(eps) -> infinity as eps -> 0, in closed form.

    name is how drivers describe it, for example power(z=1); formula gives
    psi from 1/eps.  The builders:
      power_rate(z):      psi(eps) = (1/eps)^z, z > 0
      iterexp_rate(n):    psi(eps) = exp applied (n-1) times to 1/eps
      bounding_rate(...): K * alpha * (base_distance)^q * (1/eps)^q
      table_rate(pairs):  log-log interpolation through (eps, value) samples
    """

    name: str
    formula: Callable[[float], float]

    def __call__(self, eps: float) -> float:
        if eps <= 0:
            raise ValidationError("rate functions are defined for eps > 0")
        return self.formula(1.0 / eps)


def power_rate(z: float) -> RateFunction:
    if not 0 < z < math.inf:
        raise ValidationError(f"power rate needs a finite exponent z > 0, got {z}")
    z = float(z)
    return RateFunction(f"power(z={z:g})", lambda t: t ** z)


def iterexp_rate(n: int) -> RateFunction:
    if n < 1:
        raise ValidationError("iterated-exponential rate needs order n >= 1")
    n = int(n)

    def formula(x: float) -> float:
        for _ in range(n - 1):
            if x > _EXP_OVERFLOW:
                return math.inf
            x = math.exp(x)
        return x

    return RateFunction(f"iterexp(n={n})", formula)


def bounding_rate(K: int, alpha: int, base_distance: float, exponent: float) -> RateFunction:
    """The closed-form recovery upper-rate for disjunctive drivers:
    psi(eps) = K * alpha * base_distance^q * (1/eps)^q, where base_distance
    is diam A + d(x0, A) and q = ln K / ln(1/L)."""
    if K < 2 or alpha < 1 or base_distance <= 0 or exponent <= 0:
        raise ValidationError("bounding rate needs K >= 2, alpha >= 1 and positive "
                              "base distance and exponent")
    K, alpha, d, q = int(K), int(alpha), float(base_distance), float(exponent)
    name = f"bounding(K={K},alpha={alpha},base_distance={d:g},exponent={q:g})"
    return RateFunction(name, lambda t: K * alpha * d ** q * t ** q)


def table_rate(pairs) -> RateFunction:
    """Rate from (eps, value) samples, interpolated linearly in log-log space.

    Values must be positive and increase as eps decreases (divergence check).
    """
    pairs = sorted(((float(e), float(v)) for e, v in pairs), reverse=True)
    if len(pairs) < 2:
        raise ValidationError("table rate needs at least two samples")
    if any(e <= 0 or v <= 0 for e, v in pairs):
        raise ValidationError("table rate samples must be positive")
    values = [v for _, v in pairs]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValidationError("table rate must increase as eps decreases")
    xs = [math.log(1.0 / e) for e, _ in pairs]
    ys = [math.log(v) for v in values]
    return RateFunction(f"table({len(pairs)} samples)",
                        lambda t: math.exp(float(np.interp(math.log(t), xs, ys))))


# The slow driver's psi kinds -> constructor(params); params supply z or order.
RATE_KINDS = {"power": lambda p: power_rate(p["z"]),
              "iterexp": lambda p: iterexp_rate(p["order"])}


@dataclass(frozen=True)
class BaseMapChoice:
    """A map index whose fixed point leaves plenty of the attractor outside.

    outside_count >= _MIN_OUTSIDE cloud points lie outside
    B(x_star, delta), two of them nearly coincident — the finite stand-in
    for 'the attractor minus the ball is infinite'.
    """

    i_star: int
    x_star: np.ndarray
    delta: float
    outside_count: int


@dataclass(frozen=True)
class ScheduleEntry:
    m: int            # address depth of this block
    p: int            # leading repetitions of i_star
    sigma: np.ndarray  # covering word (read-only int64), length m * N_hat
    N_hat: int        # greedy cover size at radius C_m
    v: int            # cumulative symbols through this block


@dataclass(frozen=True)
class Schedule:
    """Block schedule for the slow driver: per k, (i_star)^p_k then sigma_k."""

    psi: RateFunction
    base: BaseMapChoice
    entries: tuple
    lip_max: float
    diam_upper: float
    alphabet_size: int
    truncated: bool

    def C_of(self, m: int) -> float:
        return self.lip_max ** m * (self.diam_upper + 1.0)

    def eps_of(self, k: int) -> float:
        """eps_k = 3 * C_{m_k} for the 1-based scheduled index k."""
        return 3.0 * self.C_of(self.entries[k - 1].m)


def choose_base_map(ifs: IfsSystem, cloud: AttractorCloud) -> BaseMapChoice:
    """First map whose fixed point excludes an accumulating chunk of the cloud.

    delta = diam_lower / 4.  A candidate is accepted when at least
    _MIN_OUTSIDE cloud points lie outside B(x_star, delta) and two
    of those points sit within twice the cloud resolution of each other
    (accumulation at the deepest refinement).
    """
    if cloud.size < 2 * _MIN_OUTSIDE:
        raise ValidationError("cloud too small to certify an infinite attractor")
    delta = cloud.diam_lower / 4.0
    for i, mp in enumerate(ifs.maps, start=1):
        x = fixed_point(mp)
        dists = np.linalg.norm(cloud.points - x, axis=1)
        outside = cloud.points[dists > delta]
        if outside.shape[0] < _MIN_OUTSIDE:
            continue
        pairs = cKDTree(outside).query_pairs(2.0 * cloud.resolution)
        if pairs:
            return BaseMapChoice(i_star=i, x_star=x, delta=delta,
                                 outside_count=int(outside.shape[0]))
    raise ValidationError(
        "attractor appears finite or concentrated at all fixed points"
    )


def build_sigma(ifs: IfsSystem, cloud: AttractorCloud, d: float, m: int,
                budget: int = DEFAULT_ADDRESS_BUDGET) -> np.ndarray:
    """Covering word: a greedy d-cover of the cloud by depth-m address points,
    serialized as the concatenation of the REVERSED address words.

    Reversal matters: the orbit applies symbols innermost-first, so the
    driver segment (a_m, ..., a_1) sends any start point into the cylinder
    addressed by (a_1, ..., a_m).  Running the result from any x0 with
    d(x0, A) <= 1 therefore visits each cover center to within
    L^m * (diam A + 1), covering the cloud at radius 3*C_m.

    Each cloud point's address point (its index in _hutchinson_points
    order) comes from _nearest_address.  metrics._greedy_walk, which
    covering_estimate shares, centres each target's d-ball there, holding p
    when abs(p - c) <= d in 1-d (as in recovery_time, cKDTree agrees while
    d**2 is a normal float, d above about 1.5e-154) and sum((p - c)**2) <=
    d**2 on cloud.grid in d dimensions.  A target's reversed word is its
    address index in base K, least significant digit first.
    """
    if d <= 0:
        raise ValidationError("cover radius d must be positive")
    if m < 1:
        raise ValidationError("address depth m must be >= 1")
    K = ifs.alphabet_size
    if K ** m > budget:
        raise CapExceededError(
            f"depth {m} needs {K ** m} address points, budget is {budget}"
        )
    addr = _hutchinson_points(ifs, m)
    chosen = _nearest_address(addr, cloud.points)
    try:
        targets = _greedy_walk(cloud.points, cloud.grid)(d, addr[chosen])
    except ValidationError:
        raise ValidationError(
            f"cover radius d={d:g} is too small for depth m={m}: the nearest "
            "address point cannot cover its own cylinder") from None
    digits = chosen[targets][:, None] // K ** np.arange(m) % K + 1
    return _shared_word(digits.astype(np.int64, copy=False).tobytes())


def _nearest_address(addr: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per point p, the lowest index among all addresses within (1 + 1e-12) of
    p's nearest distance: abs(p - a) in 1-d, by a searchsorted window over the
    distinct values; cKDTree's in d dims, by a k = 8 query (a ball query if all tie)."""
    if addr.shape[1] == 1:
        srt, first = np.unique(addr[:, 0], return_index=True)   # each value's lowest index
        p = pts[:, 0]
        j = np.searchsorted(srt, p)
        tol = np.minimum(np.abs(p - srt[np.maximum(j - 1, 0)]),
                         np.abs(srt[np.minimum(j, srt.size - 1)] - p)) * (1.0 + 1e-12)
        lo = _settle(srt, np.searchsorted(srt, p - tol, "left"), lambda a, q: p[q] - a > tol[q])
        hi = _settle(srt, np.searchsorted(srt, p + tol, "right"), lambda a, q: a - p[q] <= tol[q])
        return _range_min(first, lo, hi)
    tree, n = cKDTree(addr), addr.shape[0]
    dist, idx = tree.query(pts, k=range(1, min(8, n) + 1))
    tol = dist[:, 0] * (1.0 + 1e-12)
    chosen = np.where(dist <= tol[:, None], idx, n).min(axis=1)
    wide = np.flatnonzero(dist[:, -1] <= tol)
    chosen[wide] = [min(hits) for hits in tree.query_ball_point(pts[wide], tol[wide])]
    return chosen


def build_schedule(ifs: IfsSystem, cloud: AttractorCloud, psi: RateFunction,
                   base: BaseMapChoice, k_max: int,
                   step_cap: int = 5 * 10 ** 6,
                   budget: int = DEFAULT_ADDRESS_BUDGET) -> Schedule:
    """Block schedule (m_k, p_k, sigma_k) realizing recovery times ~ psi.

    Conditions enforced per block, with eps_k = 3*C_{m_k}:
      - C_{m_1} < delta/2 picks m_1;
      - p_k = ceil(psi(3*C_{m_k}));
      - m_{k+1} is the smallest value > m_k + k whose packing lower bounds
        satisfy  N(C_{m_{k+1}}) > v_k  and  N_delta(3*C_{m_{k+1}}) > v_k + m_1
        (packing is a certified lower bound on the covering number, so both
        strict inequalities are checked on the sound side; the cloud's
        counts go through its cover_sizes memo, so each radius is walked
        once, and the outside points are walked only at 2*(3*C_m));
      - construction stops at k_max entries or when the next block would
        push past step_cap, setting the truncated flag.

    Precondition (divergence): m * N(C_m) / psi(3*C_m) must trend to zero,
    otherwise the rate is unreachably slow for this system and a validation
    error is raised.
    """
    if k_max < 1:
        raise ValidationError("schedule needs k_max >= 1")
    empty = Schedule(psi=psi, base=base, entries=(), lip_max=ifs.lip_max,
                     diam_upper=cloud.diam_upper, alphabet_size=ifs.alphabet_size,
                     truncated=False)
    C_of = empty.C_of

    # Divergence trend test: sample the ratio m*N(C_m)/psi(3*C_m) while the
    # scale stays resolvable and demand an overall decrease.
    ratios = []
    m = 1
    while C_of(m) > 2.0 * cloud.resolution and len(ratios) < 24:
        denom = psi(3.0 * C_of(m))
        if math.isinf(denom):
            break
        num = m * covering_estimate(cloud, C_of(m)).upper
        ratios.append(num / denom)
        m += 1
    if len(ratios) >= 3 and ratios[-1] >= ratios[0]:
        raise ValidationError(
            "psi grows too slowly for this IFS: m*N(C_m)/psi(3*C_m) rose from "
            f"{ratios[0]:.6g} to {ratios[-1]:.6g} over m=1..{len(ratios)}"
        )

    m1 = 1
    while C_of(m1) >= base.delta / 2.0:
        m1 += 1
        if m1 > 512:
            raise InternalInvariantError("C_m failed to fall below delta/2")

    dists = np.linalg.norm(cloud.points - base.x_star, axis=1)
    outside_pts = cloud.points[dists > base.delta]
    if outside_pts.shape[0] == 0:
        raise ValidationError(f"no cloud point lies outside the base map's "
                              f"delta={base.delta:g} ball")
    outside = _greedy_walk(outside_pts)

    entries = []
    v = 0
    truncated = False
    m = m1
    for k in range(1, k_max + 1):
        if k > 1:
            m += k   # m_k + (k - 1) + 1, m_k the previous block's depth
            while True:
                if ifs.alphabet_size ** m > budget:
                    truncated = True
                    break
                ok_d = covering_estimate(cloud, C_of(m)).lower > v
                ok_c = len(outside(2.0 * (3.0 * C_of(m)))) > v + m1
                if ok_d and ok_c:
                    break
                m += 1
            if truncated:
                break
        p_val = psi(3.0 * C_of(m))
        if math.isinf(p_val) or p_val > step_cap:
            truncated = True
            break
        p = math.ceil(p_val)
        sigma = build_sigma(ifs, cloud, C_of(m), m, budget=budget)
        n_hat = len(sigma) // m
        block = p + m * n_hat
        if v + block > step_cap:
            truncated = True
            break
        v += block
        entries.append(ScheduleEntry(m=m, p=p, sigma=sigma, N_hat=n_hat, v=v))
    if not entries:
        raise CapExceededError("step cap too small for even one schedule block")
    return replace(empty, entries=tuple(entries), truncated=truncated)


def slow_driver(schedule: Schedule) -> DriverStream:
    """Infinite driver: per scheduled k, (i_star)^p_k then sigma_k; then the
    Champernowne stream, keeping the driver disjunctive beyond the blocks.

    Its description names the rate by schedule.psi.name, for example
    slow(blocks=3,i_star=1,psi=power(z=1),tail=champernowne,v_last=...).
    """
    if not schedule.entries:
        raise ValidationError("slow driver needs a schedule with >= 1 entry")
    K = schedule.alphabet_size
    i_star = schedule.base.i_star
    tail = champernowne(K)

    def gen():
        for e in schedule.entries:
            yield Run(i_star, e.p)
            yield e.sigma
        pos = 0
        while True:
            yield tail.segment(pos, pos + 4096)
            pos += 4096

    params = {"i_star": i_star, "blocks": len(schedule.entries),
              "psi": schedule.psi.name, "v_last": schedule.entries[-1].v,
              "tail": tail.kind}
    return DriverStream("slow", K, gen, params)

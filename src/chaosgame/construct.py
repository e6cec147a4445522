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
from dataclasses import dataclass

import numpy as np

from .drivers import DriverStream, Run, _champernowne_blocks
from .errors import CapExceededError, InternalInvariantError, ValidationError
from .ifs import (AttractorCloud, IfsSystem, _greedy_walk, _hutchinson_points, _kdtree,
                  _line_gap, fixed_point)
from .metrics import _range_min, _window, covering_estimate

DEFAULT_ADDRESS_BUDGET = 2 ** 24
DEFAULT_STEP_CAP = 5 * 10 ** 6   # most symbols the schedule's blocks may hold
_MIN_OUTSIDE = 8   # cloud points a base map must leave outside its delta-ball
_EXP_OVERFLOW = 700.0  # exp argument beyond which float64 overflows


@dataclass(frozen=True)
class RateFunction:
    """A positive rate psi(eps) -> infinity as eps -> 0, in closed form.

    name is how drivers describe it, for example power(z=1); formula gives
    psi from 1/eps.  The builders:
      power_rate(z):    psi(eps) = (1/eps)^z, z > 0
      iterexp_rate(n):  psi(eps) = exp applied (n-1) times to 1/eps
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


# The slow driver's psi kinds -> (the one [driver] key each reads, its builder).
RATE_KINDS = {"power": ("z", power_rate), "iterexp": ("order", iterexp_rate)}


@dataclass(frozen=True)
class BaseMapChoice:
    """A map index whose fixed point leaves plenty of the attractor outside.

    At least _MIN_OUTSIDE cloud points lie outside B(x_star, delta), two of
    them nearly coincident — the finite stand-in for 'the attractor minus
    the ball is infinite'.
    """

    i_star: int
    x_star: np.ndarray
    delta: float


@dataclass(frozen=True)
class ScheduleEntry:
    m: int            # address depth of this block
    p: int            # leading repetitions of i_star
    sigma: np.ndarray  # covering word (read-only int64), length m * N_hat
    N_hat: int        # greedy cover size at radius C_m
    v: int            # cumulative symbols through this block
    eps: float        # eps_k = 3 * C_{m_k}, the radius this block recovers at


@dataclass(frozen=True)
class Schedule:
    """Block schedule for the slow driver: per k, (i_star)^p_k then sigma_k."""

    psi: RateFunction
    base: BaseMapChoice
    entries: tuple
    alphabet_size: int
    truncated: bool


def _base_and_outside(ifs: IfsSystem, cloud: AttractorCloud) -> tuple:
    """(the base map, the cloud points outside its ball B(x_star, delta)): the
    first map whose fixed point x_star leaves at least _MIN_OUTSIDE cloud points
    outside the ball, delta = diam_lower / 4, two of them within twice the cloud
    resolution of each other (an accumulating chunk of the cloud; on the line,
    two adjacent ones, their gap squared as cKDTree squares it)."""
    if cloud.size < 2 * _MIN_OUTSIDE:
        raise ValidationError("cloud too small to certify an infinite attractor")
    delta = cloud.diam_lower / 4.0
    for i, mp in enumerate(ifs.maps, start=1):
        x = fixed_point(mp)
        dists = np.linalg.norm(cloud.points - x, axis=1)
        outside = cloud.points[dists > delta]
        if outside.shape[0] < _MIN_OUTSIDE:
            continue
        r, gap = 2.0 * cloud.resolution, np.diff(outside[:, 0])   # gap: on the line
        if ((gap * gap <= r * r).any() if outside.shape[1] == 1
                else _kdtree(outside).query_pairs(r)):
            return BaseMapChoice(i_star=i, x_star=x, delta=delta), outside
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
    order) comes from _nearest_address.  ifs._greedy_walk, which
    covering_estimate shares, centres each target's d-ball there, holding p
    when abs(p - c) <= d in 1-d (as in recovery_time, cKDTree agrees while
    d**2 is a normal float, d > ~1.5e-154) and sum((p - c)**2) <= d**2 on
    cloud.grid, built on first use, in d dimensions.  The targets' address
    indices go into the cloud's words memo under (ifs.fingerprint, K, m, d),
    so a cloud walks each word once (a cached cloud keeps them in its file);
    a target's reversed word is its index in base K (_word).
    """
    if not d > 0:
        raise ValidationError("cover radius d must be positive")
    if m < 1:
        raise ValidationError("address depth m must be >= 1")
    K = ifs.alphabet_size
    if K ** m > budget:
        raise CapExceededError(
            f"depth {m} needs {K ** m} address points, budget is {budget}"
        )
    key = (ifs.fingerprint, K, int(m), float(d))
    if (index := cloud.words.get(key)) is None:
        addr = _hutchinson_points(ifs, m)
        chosen = _nearest_address(addr, cloud.points)
        try:
            targets = _greedy_walk(cloud.points, cloud)(d, addr[chosen])
        except ValidationError:
            raise ValidationError(
                f"cover radius d={d:g} is too small for depth m={m}: the nearest "
                "address point cannot cover its own cylinder") from None
        index = cloud.words[key] = chosen[targets].astype(np.int64, copy=False)
        index.flags.writeable = False
    return _word(index.tobytes(), m, K)


@functools.lru_cache(maxsize=8)
def _word(index: bytes, m: int, K: int) -> np.ndarray:
    """The covering word of the int64 address indices index: each index's m
    base-K digits, least significant first, plus 1, as one read-only int64
    array, so equal words of two runs are one array."""
    digits = np.frombuffer(index, np.int64)[:, None] // K ** np.arange(m)
    np.remainder(digits, K, out=digits)
    digits += 1
    digits = digits.ravel()
    digits.flags.writeable = False
    return digits


def _nearest_address(addr: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per point p, the lowest index among all addresses within (1 + 1e-12) of
    p's nearest distance: abs(p - a) in 1-d, by a searchsorted window over the
    distinct values; cKDTree's in d dims, by a k = 8 query (a ball query if all tie)."""
    if addr.shape[1] == 1:
        srt, first = np.unique(addr[:, 0], return_index=True)   # each value's lowest index
        p = pts[:, 0]
        return _range_min(first, *_window(srt, p, _line_gap(srt, p) * (1.0 + 1e-12)))
    tree, n = _kdtree(addr), addr.shape[0]
    dist, idx = tree.query(pts, k=range(1, min(8, n) + 1))
    tol = dist[:, 0] * (1.0 + 1e-12)
    chosen = np.where(dist <= tol[:, None], idx, n).min(axis=1)
    wide = np.flatnonzero(dist[:, -1] <= tol)
    chosen[wide] = [min(hits) for hits in tree.query_ball_point(pts[wide], tol[wide])]
    return chosen


def build_schedule(ifs: IfsSystem, cloud: AttractorCloud, psi: RateFunction,
                   k_max: int, step_cap: int = DEFAULT_STEP_CAP,
                   budget: int = DEFAULT_ADDRESS_BUDGET) -> Schedule:
    """Block schedule (m_k, p_k, sigma_k) realizing recovery times ~ psi.

    The base map is _base_and_outside's, whose delta-ball leaves at least
    _MIN_OUTSIDE cloud points outside.  Conditions enforced per block, with
    eps_k = 3*C_{m_k}:
      - C_{m_1} < delta/2 picks m_1;
      - p_k = ceil(psi(3*C_{m_k}));
      - m_{k+1} is the smallest value > m_k + k whose packing lower bounds
        satisfy  N(C_{m_{k+1}}) > v_k  and  N_delta(3*C_{m_{k+1}}) > v_k + m_1
        (packing is a certified lower bound on the covering number, so both
        strict inequalities are checked on the sound side; the cloud's
        counts go through its cover_sizes memo and the outside points'
        through its outside_sizes memo, walked only at 2*(3*C_m), so a
        cloud walks each radius once);
      - construction stops at k_max entries or when the next block would
        push past step_cap, setting the truncated flag.

    Precondition (divergence): m * N(C_m) / psi(3*C_m) must trend to zero,
    otherwise the rate is unreachably slow for this system and a validation
    error is raised.
    """
    if k_max < 1:
        raise ValidationError("schedule needs k_max >= 1")
    base, outside_pts = _base_and_outside(ifs, cloud)

    def C_of(m):
        return ifs.lip_max ** m * (cloud.diam_upper + 1.0)

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

    outside = None

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
                r = 2.0 * (3.0 * C_of(m))
                if (key := (ifs.fingerprint, r)) not in cloud.outside_sizes:
                    outside = outside or _greedy_walk(outside_pts)
                    cloud.outside_sizes[key] = len(outside(r))
                ok_c = cloud.outside_sizes[key] > v + m1
                if ok_d and ok_c:
                    break
                m += 1
            if truncated:
                break
        eps = 3.0 * C_of(m)
        p_val = psi(eps)
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
        entries.append(ScheduleEntry(m=m, p=p, sigma=sigma, N_hat=n_hat, v=v, eps=eps))
    if not entries:
        raise CapExceededError("step cap too small for even one schedule block")
    return Schedule(psi=psi, base=base, entries=tuple(entries),
                    alphabet_size=ifs.alphabet_size, truncated=truncated)


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

    def gen():
        for e in schedule.entries:
            yield Run(i_star, e.p)
            yield e.sigma
        yield from _champernowne_blocks(K)

    params = {"i_star": i_star, "blocks": len(schedule.entries),
              "psi": schedule.psi.name, "v_last": schedule.entries[-1].v,
              "tail": "champernowne"}
    return DriverStream("slow", K, gen, params)

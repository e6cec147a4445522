"""Recovery-time measurement, covering estimates, box dimension, rate diagnostics.

The central quantity is the recovery time: the least n such that the first
n+1 orbit points of the chaos game cover the attractor by closed eps-balls.
All measurements run against a finite AttractorCloud; because the cloud is a
subset of the attractor with certified resolution delta, covering the cloud
at radius eps certifies covering the attractor at radius eps + delta.  Every
record carries the guard (the cloud resolution) so both sides of that bracket
are recoverable.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import CapExceededError, ValidationError
from .ifs import AttractorCloud, IfsSystem, _as_vector, _line_walk, _point_set, run_orbit

DEFAULT_ORBIT_CAP = 10 ** 7
_FIRST_CHUNK = 128
_CHUNK = 8192


@dataclass(frozen=True)
class CoverEstimate:
    """Two-sided bracket on the covering number N(eps) of the sampled set."""

    eps: float
    lower: int   # size of a maximal 2*eps-separated subset (packing bound)
    upper: int   # size of a greedy ball cover with point centers


@dataclass(frozen=True)
class RecoveryRecord:
    """One recovery-time measurement of an orbit against a cloud.

    n is None when the orbit cap (or a finite driver) was exhausted before
    the cloud was covered.  guard is the cloud resolution: coverage of the
    full attractor is certified at radius eps + guard.
    """

    eps: float
    n: int | None
    x0: np.ndarray
    driver: str
    guard: float
    cap: int

    @property
    def exceeded(self) -> bool:
        return self.n is None


@dataclass(frozen=True)
class DimensionEstimate:
    """Lower box dimension estimate from a geometric radius schedule."""

    value: float                  # min over the window of ln(upper)/ln(1/b_m)
    schedule: tuple               # (a, r, (m_lo, m_hi))
    samples: tuple                # CoverEstimate per kept radius b_m
    rates_lower: tuple            # ln(lower)/ln(1/b_m) per kept radius
    rates_upper: tuple            # ln(upper)/ln(1/b_m) per kept radius

    @property
    def bracket_width(self) -> float:
        return self.value - min(self.rates_lower)


def recovery_time(ifs: IfsSystem, driver, x0, eps: float,
                  cloud: AttractorCloud, cap: int = DEFAULT_ORBIT_CAP) -> RecoveryRecord:
    """Least n with every cloud point within eps of some orbit point x_0..x_n.

    The orbit is generated in chunks read with driver.segment.  Chunks grow
    from _FIRST_CHUNK to _CHUNK symbols, so a small n steps few points.
    Each chunk is checked against the still-uncovered cloud points, and the
    returned n is the exact deterministic minimum.  The orbit is stepped in
    plain floats with AffineMap's arithmetic (on_floats), one symbol at a
    time; once f(x) == x the rest of the run of equal symbols repeats x, so
    it is skipped: it adds no point, and a chunk that adds none is not checked.
    A repeated point covers nothing that its first copy, earlier in the
    orbit, did not, so no first hit, and not n, can fall on it.  The test is
    float equality, under which +0 and -0 are equal: a repeat can differ
    from x only in the sign of a zero coordinate, so every distance is
    unchanged.  Each point keeps its orbit index, and a first hit is read
    back through those indices.

    In 1-d an orbit point y covers a cloud point p when abs(y - p) <= eps in
    floating point.  A cKDTree ball query applies the same test as long as
    eps**2 is a normal float (eps above about 1.5e-154); below that it
    compares rounded subnormal squares.  A chunk's orbit points are stably
    sorted; each uncovered cloud point's window of orbit points within eps
    comes from searchsorted with its edges settled by the exact test, and a
    range minimum (sparse table) over the sorted order gives the first orbit
    point in the window.

    In d dimensions y covers p when sum((y - p)**2) <= eps**2 in floating
    point, the test cKDTree applies; as in 1-d, when eps**2 is subnormal it
    compares rounded subnormal squares.  The pairs within eps between a
    kd-tree over the cloud points and a kd-tree over the chunk's orbit
    points are found in one query; pairs whose cloud point is already
    covered are dropped, and each newly hit cloud point keeps its first
    orbit point.  The cloud's tree is first its own (cloud.grid); once a
    quarter of its points are left uncovered, it is rebuilt over just those.
    """
    if not eps > cloud.resolution:
        raise ValidationError(f"eps={eps:g} must exceed the cloud resolution "
                              f"{cloud.resolution:g} for coverage to be certifiable")
    if cap < 0:
        raise ValidationError("orbit cap must be >= 0")
    x0 = _as_vector(x0, ifs.dim, "x0")
    if ifs.dim == 1:
        x, cover = float(x0[0]), _LineCover(cloud.points[:, 0], eps)
    else:
        x, cover = tuple(x0.tolist()), _PairCover(cloud, eps)
    step = _stepper(ifs)

    def record(n):
        return RecoveryRecord(eps=float(eps), n=n, x0=x0, driver=driver.describe(),
                              guard=cloud.resolution, cap=cap)

    pos = 0          # index of the orbit point currently stored in x
    size = _FIRST_CHUNK
    n = cover(np.array([x]), np.array([0]))
    while n is None:
        if pos >= cap:
            return record(None)
        stop = min(pos + size, cap)
        size = min(2 * size, _CHUNK)
        try:
            symbols = driver.segment(pos, stop)
        except CapExceededError:
            # Finite driver ran out before covering the cloud.
            symbols = driver.segment(pos, driver.buffered)
            if len(symbols) == 0:
                return record(None)
            stop = pos + len(symbols)
        points, at, x = step(x, symbols)
        if len(points):
            n = cover(points, pos + 1 + at)
        pos = stop
    return record(int(n))


def _stepper(ifs: IfsSystem):
    """step(x, symbols) -> (points, at, x): the orbit from x (a float in 1-d,
    a tuple of floats in d dimensions) one symbol at a time, and the offsets
    in symbols of the steps that gave the points.  Once f(x) == x the rest
    of the run repeats x and is skipped, run ends found then, once a chunk."""
    maps, K = [None, *(m.on_floats for m in ifs.maps)], len(ifs.maps)

    def step(x, symbols: np.ndarray):
        if symbols.min() < 1 or symbols.max() > K:
            raise ValidationError(f"invalid symbol in driver chunk, alphabet is 1..{K}")
        syms, n = memoryview(symbols), len(symbols)
        out: list = []
        kept, ends, i = np.ones(n, dtype=bool), None, 0
        while i < n:
            y = maps[syms[i]](x)
            if y == x:
                if ends is None:
                    ends = [*(np.flatnonzero(np.diff(symbols)) + 1).tolist(), n]
                end = ends[bisect.bisect_right(ends, i)]
                kept[i:end] = False
                i = end
                continue
            x = y
            out.append(x)
            i += 1
        return np.array(out), np.flatnonzero(kept), x

    return step


class _LineCover:
    """Coverage of a 1-d cloud, chunk by chunk, without per-hit lists.

    Calling it with a chunk of orbit points ys and their ascending orbit
    indices at marks the cloud points they cover, and returns the least n
    at which every cloud point is covered, or None.
    """

    def __init__(self, values: np.ndarray, eps: float):
        self.eps = eps
        self.uncovered = np.sort(values)

    def __call__(self, ys: np.ndarray, at: np.ndarray):
        eps, p = self.eps, self.uncovered
        order = np.argsort(ys, kind="stable")
        srt = ys[order]
        # Only cloud points within eps of the chunk's range can be hit.
        lowest, highest = srt[0], srt[-1]
        a = _settle(p, np.searchsorted(p, [lowest - eps], "left"),
                    lambda v, q: lowest - v > eps)[0]
        b = _settle(p, np.searchsorted(p, [highest + eps], "right"),
                    lambda v, q: v - highest <= eps)[0]
        near = p[a:b]
        lo = _settle(srt, np.searchsorted(srt, near - eps, "left"),
                     lambda y, q: y - near[q] < -eps)
        hi = _settle(srt, np.searchsorted(srt, near + eps, "right"),
                     lambda y, q: y - near[q] <= eps)
        hit = lo < hi
        if hit.all() and near.size == p.size:
            return int(at[_range_min(order, lo, hi).max()])
        self.uncovered = np.concatenate([p[:a], near[~hit], p[b:]])
        return None


def _settle(srt: np.ndarray, guess: np.ndarray, below) -> np.ndarray:
    """Per query q, the least j such that below(srt[j], q) is false.

    below(., q) must hold on a prefix of the ascending array srt.  Each
    guess moves one block of equal values at a time, never past the answer.
    """
    g = guess
    q = np.arange(g.size)
    while q.size:
        gq = g[q]
        back = gq > 0
        back[back] = ~below(srt[gq[back] - 1], q[back])
        fwd = ~back & (gq < srt.size)
        fwd[fwd] = below(srt[gq[fwd]], q[fwd])
        g[q[back]] = np.searchsorted(srt, srt[gq[back] - 1], "left")
        g[q[fwd]] = np.searchsorted(srt, srt[gq[fwd]], "right")
        q = q[back | fwd]
    return g


def _range_min(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(values[lo:hi]) per window (every lo < hi), from a sparse table
    whose row j holds the minima of the windows of length 2**j."""
    k = np.frexp(hi - lo)[1] - 1          # floor(log2(hi - lo))
    table = np.zeros((int(k.max()) + 1, values.size), dtype=values.dtype)
    table[0] = values
    for j in range(1, table.shape[0]):
        half = 1 << (j - 1)
        table[j, :-half] = np.minimum(table[j - 1, :-half], table[j - 1, half:])
    return np.minimum(table[k, lo], table[k, hi - (1 << k)])


class _PairCover:
    """Coverage of a d-dim cloud from the pairs within eps between a kd-tree
    over the cloud points and a kd-tree over each chunk of orbit points.

    The first tree is the cloud's own (cloud.grid).  Once the uncovered
    points fall to a quarter of the tree's points, the tree is rebuilt over
    just those, their coordinates copied bit for bit; each pair is still
    tested on its two points alone, so every uncovered point keeps the same
    pairs and the same first hit.  Called like _LineCover, it returns the
    least n at which every cloud point is covered, or None.
    """

    def __init__(self, cloud: AttractorCloud, eps: float):
        self.eps = eps
        self.grid = cloud.grid
        self.uncovered = np.ones(cloud.size, dtype=bool)   # per point of grid
        self.left = cloud.size

    def __call__(self, ys: np.ndarray, at: np.ndarray):
        # Small leaves keep the chunk's bounding boxes tight, so the
        # dual-tree query prunes more: on the 177k-point Sierpinski cloud
        # it ran about 1.5x faster than with the default leaf size of 16.
        pairs = self.grid.sparse_distance_matrix(cKDTree(ys, leafsize=2), self.eps,
                                                 output_type="ndarray")
        fresh = self.uncovered[pairs["i"]]
        first = np.full(self.uncovered.size, len(ys), dtype=np.intp)
        np.minimum.at(first, pairs["i"][fresh], pairs["j"][fresh])
        hit = first < len(ys)
        count = int(np.count_nonzero(hit))
        if count == self.left:
            return int(at[first[hit].max()])
        self.uncovered[hit] = False
        self.left -= count
        if 4 * self.left <= self.uncovered.size:
            self._shrink()
        return None

    def _shrink(self):
        """Rebuild the tree over the uncovered points alone."""
        self.grid = cKDTree(self.grid.data[self.uncovered])
        self.uncovered = np.ones(self.left, dtype=bool)


def coverage_holds(ifs: IfsSystem, driver, x0, eps: float,
                   cloud: AttractorCloud, n: int) -> bool:
    """From-scratch check that orbit points x_0..x_n cover the cloud at eps.

    A cloud point p is covered when its nearest orbit point y has
    sum((y - p)**2) <= eps**2, the test recovery_time applies.  (Comparing
    the rounded distance with eps instead can disagree with it, in d > 1,
    when the distance is within an ulp of eps.)
    """
    orbit = run_orbit(ifs, driver, x0, n)
    nearest = cKDTree(orbit.points).query(cloud.points)[1]
    gap = cloud.points - orbit.points[nearest]
    return bool(((gap * gap).sum(axis=1) <= eps * eps).all())


def covering_estimate(points, eps: float) -> CoverEstimate:
    """Deterministic two-sided bracket on the covering number of a point set.

    upper: greedy — repeatedly center a closed eps-ball at the first (in
    canonical order) uncovered point.  lower: greedy maximal 2*eps-separated
    subset; no eps-ball can contain two such points, so the true covering
    number is at least its size.  points is an (n, d) array, a flat list
    (n points on the line) or an AttractorCloud, whose kd-tree (cloud.grid)
    is reused and whose cover_sizes memo holds each radius's count, so on a
    cloud a radius is walked once: lower(eps) of an r = 1/2 ladder is
    upper(2*eps).  With a cache directory the memo is kept in the cloud's
    cache file (read_cloud, and run_experiment's rewrite through
    write_cloud), so a radius walked in one run is not walked in the next.  Both counts come from _greedy_walk,
    shared with build_sigma: a ball at c holds p when abs(p - c) <= r in
    1-d, and sum((p - c)**2) <= r**2, cKDTree's test, in d dimensions.  As
    in recovery_time, cKDTree applies the 1-d test too while r**2 is a
    normal float (r > ~1.5e-154).
    """
    memo, grid = {}, None
    if isinstance(points, AttractorCloud):
        points, grid, memo = points.points, points.grid, points.cover_sizes
    pts = _point_set(points)
    if pts.shape[0] == 0:
        raise ValidationError("covering estimate needs a nonempty point set")
    if not 0 < eps < math.inf:
        raise ValidationError(f"covering radius must be positive and finite, got {eps}")
    walk = None
    for r in (2.0 * eps, eps):
        if r not in memo:
            walk = walk or _greedy_walk(pts, grid)
            memo[r] = len(walk(r))
    return CoverEstimate(eps=float(eps), lower=memo[2.0 * eps], upper=memo[eps])


def _greedy_walk(pts: np.ndarray, grid: cKDTree | None = None):
    """walk(r, centres=None) -> the targets of the greedy r-cover of pts in
    order: each is the first uncovered point, its ball is centred at
    centres[target] (default: the target), and one outside its own ball
    raises ValidationError.  On ascending 1-d input the covered points form
    a prefix, so the next target is the first p with p - c > r: bisection
    settled by the exact test.  Other input ball-queries grid (built over
    pts when None) and skips covered runs in numpy slices."""
    if pts.shape[1] == 1 and (pts[1:, 0] >= pts[:-1, 0]).all():
        return functools.partial(_line_walk, pts[:, 0].tolist())
    return functools.partial(_tree_walk, cKDTree(pts) if grid is None else grid, pts)


def _tree_walk(tree: cKDTree, pts: np.ndarray, r: float, centres=None) -> list:
    centres = pts if centres is None else centres
    targets, i, covered = [], 0, np.zeros(pts.shape[0], dtype=bool)
    while i < covered.size:
        covered[tree.query_ball_point(centres[i], r, return_sorted=False)] = True
        if not covered[i]:
            raise ValidationError(f"point {i} lies outside its own r={r:g} ball")
        targets.append(i)
        width = 64
        while i < covered.size and covered[i]:
            window = covered[i:i + width]
            k = int(window.argmin())
            i += window.size if window[k] else k
            width *= 2
    return targets


def box_dimension(cloud: AttractorCloud, a: float, r: float,
                  m_lo: int, m_hi: int) -> DimensionEstimate:
    """Lower box dimension proxy over the radius schedule b_m = a * r^m.

    Radii at or below twice the cloud resolution (where the cloud stops
    resembling the attractor; b_m only falls, so the walk over m stops at
    the first) and radii >= 1 (degenerate log scale) are dropped; the
    estimate is the minimum of the upper-rate curve, a finite stand-in for
    the liminf.
    """
    if not 0.0 < r < 1.0:
        raise ValidationError("schedule ratio r must lie in (0, 1)")
    if not 0 < a < math.inf or m_lo > m_hi:
        raise ValidationError(f"schedule needs a finite a > 0 and m_lo <= m_hi, "
                              f"got a={a}, m_lo={m_lo}, m_hi={m_hi}")
    samples, rl, ru = [], [], []
    for m in range(m_lo, m_hi + 1):
        b = a * r ** m
        if b <= 2.0 * cloud.resolution:
            break
        if b >= 1.0:
            continue
        est = covering_estimate(cloud, b)
        denom = math.log(1.0 / b)
        samples.append(est)
        rl.append(math.log(est.lower) / denom)
        ru.append(math.log(est.upper) / denom)
    if not samples:
        raise ValidationError(
            "no usable radii: the schedule fell below twice the cloud resolution"
        )
    value = min(ru)
    return DimensionEstimate(value=value, schedule=(a, r, (m_lo, m_hi)),
                             samples=tuple(samples), rates_lower=tuple(rl),
                             rates_upper=tuple(ru))


def log_rate(n: int, eps: float) -> float | None:
    """ln(n)/ln(1/eps); None (undefined) for n = 0 to keep limsup stats clean."""
    if not 0.0 < eps < 1.0:
        raise ValidationError("log rate needs 0 < eps < 1")
    if n < 0:
        raise ValidationError("recovery time must be >= 0")
    if n == 0:
        return None
    return math.log(n) / math.log(1.0 / eps)


def rate_ratio(n: int, psi, eps: float) -> float:
    """n / psi(eps): how far a recovery time sits from the target rate."""
    value = float(psi(eps))
    if math.isinf(value) or math.isnan(value):
        raise CapExceededError(
            f"rate function evaluation saturated (overflow) at eps={eps:g}")
    if value <= 0.0:
        raise ValidationError("rate function must be positive at eps")
    return n / value


def key_inequality_check(record: RecoveryRecord, cover: CoverEstimate) -> bool:
    """Check n + 1 >= N(eps) via the packing lower bound (sound side)."""
    if record.eps != cover.eps:
        raise ValidationError("record and cover estimate must share the same eps")
    if record.n is None:
        raise ValidationError("cannot check the key inequality on a capped record")
    return record.n + 1 >= cover.lower

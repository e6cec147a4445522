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
import math
from dataclasses import dataclass

import numpy as np

from .drivers import Run
from .errors import CapExceededError, ValidationError
from .ifs import (AttractorCloud, IfsSystem, _as_vector, _greedy_walk, _kdtree, _point_set,
                  _row_sums, run_orbit)

DEFAULT_ORBIT_CAP = 10 ** 7
_FIRST_CHUNK = 128
_CHUNK = 8192
_LAST_INDEX = 2 ** 63 - 1   # the last orbit index an int64 holds
_LANES = 256        # lanes a long chunk is cut into
_WARM = 64         # symbols stepped before each lane to guess its start
_LANE_MIN = 4096   # the shortest chunk stepped in lanes
_PASSES = 2        # lane re-runs before the rest is stepped one by one
_PAIRS = 2 ** 16   # pairs a d-dim coverage query aims to return at most


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


@dataclass(frozen=True)
class DimensionEstimate:
    """Lower box dimension estimate from a geometric radius schedule."""

    value: float                  # min over the window of ln(upper)/ln(1/b_m)
    samples: tuple                # CoverEstimate per kept radius b_m
    rates_lower: tuple            # ln(lower)/ln(1/b_m) per kept radius
    rates_upper: tuple            # ln(upper)/ln(1/b_m) per kept radius

    @property
    def bracket_width(self) -> float:
        return self.value - min(self.rates_lower)


def recovery_time(ifs: IfsSystem, driver, x0, eps: float,
                  cloud: AttractorCloud, cap: int = DEFAULT_ORBIT_CAP) -> RecoveryRecord:
    """Least n with every cloud point within eps of some orbit point x_0..x_n.

    The orbit is generated from driver.pieces.  Array pieces are gathered
    into chunks read with driver.segment, which grow from _FIRST_CHUNK to
    _CHUNK symbols, so a small n steps few points.  A Run is stepped with
    its map until f(x) == x and the rest of it is skipped whole, so a block
    of 10**12 equal symbols costs no more than its first steps; a Run that
    never reaches such a point is stepped in full.  Each stepped part is
    checked against the still-uncovered cloud points, and the returned n is
    the exact deterministic minimum.  An orbit index past 2**63 - 1 raises
    CapExceededError.

    The orbit is stepped in plain floats with AffineMap's arithmetic
    (on_floats).  Inside an array a step with f(x) == x adds no point and x
    keeps its bits: a repeated point covers nothing that its first copy,
    earlier in the orbit, did not, so no first hit, and not n, can fall on
    it.  The test is float equality, under which +0 and -0 are equal: a
    repeat can differ from x only in the sign of a zero coordinate, so every
    distance is unchanged.  Each point keeps its orbit index, and a first
    hit is read back through those indices.  A long chunk is stepped in
    lanes (see _stepper): numpy steps every lane
    at once with elementwise ufuncs only, and each lane's guessed start is
    checked bit for bit, so the points are the same as one at a time.

    In 1-d an orbit point y covers a cloud point p when abs(y - p) <= eps in
    floating point.  A cKDTree ball query applies the same test as long as
    eps**2 is a normal float (eps above about 1.5e-154); below that it
    compares rounded subnormal squares.  A chunk's orbit points are sorted
    once, and an uncovered cloud point is marked covered when either
    of its sorted neighbours is within eps: y - p rounds monotonically in y,
    so no farther orbit point can be.  Only the chunk that covers every
    remaining point looks for first hits: each cloud point's window of
    orbit points within eps comes from searchsorted with its edges settled
    by the exact test, and a range minimum (sparse table) over the sorted
    order gives the first orbit point in the window.

    In d dimensions y covers p when sum((y - p)**2) <= eps**2 in floating
    point, the test cKDTree applies; as in 1-d, when eps**2 is subnormal it
    compares rounded subnormal squares.  The pairs within eps between a
    kd-tree over the cloud points and a kd-tree over the chunk's orbit
    points are found piece by piece (see _PairCover), and pairs whose cloud
    point is already covered are dropped.  The fresh pairs mark their cloud
    points covered; on the piece that covers every remaining point, each
    keeps its first orbit point.  The tree is first cloud.grid, built on
    first use; once a quarter of its points are left uncovered, it is
    rebuilt over just those.
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
    pos = 0          # symbols [0, pos) are stepped; x is the orbit point they end at
    stop = 0         # array symbols [pos, stop) are walked but not yet stepped
    size = _FIRST_CHUNK

    def advance(symbols, count):
        """Step count symbols (an array, or a Run) from pos; n or None."""
        nonlocal x, pos, size
        if pos + count > _LAST_INDEX:
            raise CapExceededError(f"orbit index {pos + count} is past 2**63 - 1")
        points, at, x = step(x, symbols)
        first, pos, size = pos + 1, pos + count, min(2 * size, _CHUNK)
        return len(points), cover(points, first + at) if len(points) else None

    n = cover(np.array([x]), np.array([0]))
    walk = driver.pieces(0, cap)
    while n is None:
        try:
            start, piece = next(walk)
        except (StopIteration, CapExceededError):   # the cap, or a finite driver's end
            piece = None
        run = isinstance(piece, Run)
        if piece is not None and not run:
            stop = start + piece.size
        # Gathered arrays: a chunk once size symbols wait, the rest before a Run
        # or at the end.
        while n is None and pos < stop and (stop - pos >= size or piece is None or run):
            count = min(size, stop - pos)
            _, n = advance(driver.segment(pos, pos + count), count)
        if piece is None:
            break
        if run:
            end = start + piece.count
            while n is None and pos < end:
                count = min(size, end - pos)
                kept, n = advance(Run(piece.symbol, count), count)
                if kept < count:        # f(x) == x: the rest of the Run repeats x
                    pos = end
            stop = pos
    return RecoveryRecord(eps=float(eps), n=None if n is None else int(n), x0=x0,
                          driver=driver.describe(), guard=cloud.resolution)


def _stepper(ifs: IfsSystem):
    """step(x, symbols) -> (points, at, x): the orbit from x (a float in 1-d,
    a tuple of floats in d dimensions) and the offsets in symbols of the
    steps that gave the points.  symbols is an int array, or a Run, which is
    stepped until f(x) == x and no further.  Inside an array a step with
    f(x) == x gives no point and x keeps its bits.

    An array of at least _LANE_MIN symbols is cut into _LANES lanes.  Each
    lane's start is guessed by stepping the _WARM symbols before it from x:
    contractions driven by the same symbols forget their start (Diaconis &
    Freedman, SIAM Review 41, 1999).  All lanes then step together, and each guess is checked bit for
    bit against the previous lane's end; a lane that fails is stepped again
    from that end, at most _PASSES times, and the rest of the chunk is
    stepped one symbol at a time.  The lanes form each coordinate with
    _row_sums on per-lane coefficient columns, elementwise ufuncs only (no
    BLAS, no fused multiply-add), so every value has the bits on_floats
    gives it.
    """
    maps, K, d = [None, *(m.on_floats for m in ifs.maps)], len(ifs.maps), ifs.dim
    # Per row i, (m_i0, m_i1, ...) and o_i by symbol; symbol 0 is the
    # identity, which holds x, so it pads lanes without changing a bit.
    mats = np.array([np.eye(d), *(m.matrix for m in ifs.maps)])
    offsets = np.array([np.zeros(d), *(m.offset for m in ifs.maps)])
    table = [(list(mats[:, i].T), offsets[:, i]) for i in range(d)]

    def lanes(S, start):
        """Step lane b from start[:, b] on the symbols S[:, b]: the states
        (len(S) + 1, d, lanes) and which steps held x, (len(S), lanes)."""
        # Per row i, per step t: ((m_i0, m_i1, ...), o_i) as columns over lanes.
        cols = [list(zip(zip(*(c[S] for c in row)), o[S])) for row, o in table]
        states = np.empty((len(S) + 1, *start.shape))
        held = np.empty(S.shape, dtype=bool)
        states[0], x = start, list(start)
        for t, rows in enumerate(zip(*cols)):
            y, same = _row_sums(rows, x), held[t]
            np.equal(y[0], x[0], out=same)
            for a, b in zip(y[1:], x[1:]):
                same &= a == b
            for a, b in zip(y, x):
                np.copyto(a, b, where=same)       # y == x holds x, bits and all
            states[t + 1], x = y, y
        return states, held

    def in_lanes(x, symbols):
        """(states, kept, count, x): the state after each of the first count
        symbols, stepped in lanes, which of them are points, and the last."""
        n, B, W = len(symbols), _LANES, _WARM
        L = -(-n // B)
        padded = np.zeros(W + B * L, dtype=np.int64)
        padded[W:W + n] = symbols
        S = np.concatenate([padded[np.arange(W)[:, None] + L * np.arange(B)],
                            padded[W:].reshape(B, L).T])
        states, held = lanes(S, np.repeat(np.array(x, ndmin=1)[:, None], B, axis=1))
        states, held = states[W:], held[W:]      # lane b starts at states[0, :, b]
        bits = states.view(np.int64)
        ok = np.ones(B, dtype=bool)
        for rerun in range(_PASSES + 1):
            ok[1:] = (bits[0, :, 1:] == bits[-1, :, :-1]).all(axis=0)
            bad = np.flatnonzero(~ok)
            if bad.size == 0 or rerun == _PASSES:
                break
            states[:, :, bad], held[:, bad] = lanes(S[W:, bad], states[-1][:, bad - 1])
        done = B if bad.size == 0 else int(bad[0])
        after = states[1:, :, :done].transpose(2, 0, 1).reshape(done * L, d)[:n]
        return after, ~held[:, :done].T.ravel()[:n], min(n, done * L), states[-1][:, done - 1]

    def step(x, symbols):
        if isinstance(symbols, Run):
            if not 1 <= symbols.symbol <= K:
                raise ValidationError(f"invalid symbol in driver run, alphabet is 1..{K}")
            f, out = maps[symbols.symbol], []
            for _ in range(symbols.count):
                y = f(x)
                if y == x:
                    break
                x = y
                out.append(y)
            return np.array(out), np.arange(len(out)), x
        if symbols.min() < 1 or symbols.max() > K:
            raise ValidationError(f"invalid symbol in driver chunk, alphabet is 1..{K}")
        n, done, points, ats = len(symbols), 0, [], []
        if n >= _LANE_MIN:
            states, kept, done, end = in_lanes(x, symbols)
            x = float(end[0]) if d == 1 else tuple(end.tolist())
            points.append(states[kept, 0] if d == 1 else states[kept])
            ats.append(np.flatnonzero(kept))
        out, held = [], []
        for i, s in enumerate(memoryview(symbols)[done:], done):
            y = maps[s](x)
            if y == x:
                held.append(i)
            else:
                x = y
                out.append(y)
        at = np.arange(done, n)
        if held:
            at = np.delete(at, np.array(held) - done)
        if not points:
            return np.array(out), at, x
        points.append(np.array(out).reshape(-1, d) if d > 1 else np.array(out))
        return np.concatenate(points), np.concatenate([*ats, at]), x

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
        srt = np.sort(ys)
        # Only cloud points within eps of the chunk's range can be hit: from
        # the first near its lowest point to the last near its highest, by
        # bisection on _window's exact tests, which hold on a prefix of p.
        lo, hi = float(srt[0]), float(srt[-1])
        a = bisect.bisect_left(p, True, key=lambda y: not y - lo < -eps)
        b = bisect.bisect_left(p, True, key=lambda y: not y - hi <= eps)
        near = p[a:b]
        # The orbit points on either side of a cloud point are the nearest
        # in floating point too: y - p rounds monotonically in y.
        j = np.searchsorted(srt, near)
        hit = ((np.abs(srt[np.minimum(j, srt.size - 1)] - near) <= eps)
               | (np.abs(srt[np.maximum(j - 1, 0)] - near) <= eps))
        if hit.all() and near.size == p.size:
            lo, hi = _window(srt, near, eps)
            return int(at[_range_min(np.argsort(ys, kind="stable"), lo, hi).max()])
        self.uncovered = np.concatenate([p[:a], near[~hit], p[b:]])
        return None


def _window(srt: np.ndarray, centres: np.ndarray, r) -> tuple:
    """(lo, hi) per centre c: srt[lo:hi] are the values y of the ascending
    array srt with abs(y - c) <= r in floating point (r a float or one per
    centre), found by searchsorted and settled by that exact test."""
    r = np.full(centres.shape, r)
    lo = _settle(srt, np.searchsorted(srt, centres - r, "left"),
                 lambda y, q: y - centres[q] < -r[q])
    hi = _settle(srt, np.searchsorted(srt, centres + r, "right"),
                 lambda y, q: y - centres[q] <= r[q])
    return lo, hi


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

    The first tree is cloud.grid, built on first use.  Once the uncovered
    points fall to a quarter of the tree's points, the tree is rebuilt over
    just those, their coordinates copied bit for bit; each pair is still
    tested on its two points alone, so every uncovered point keeps the same
    pairs and the same first hit.  Called like _LineCover, it returns the
    least n at which every cloud point is covered, or None.

    A chunk whose pairs, at the last query's rate per orbit point and tree
    point, would pass _PAIRS is queried in pieces, in orbit order, that are
    each expected to stay under it; the budget sizes every query, the one
    that gives n included.  A pair of a point already covered marks
    nothing.  The piece that covers every remaining point gives n, the
    last of their first hits in it: each point an earlier piece covered was
    hit earlier.  (On ladder-sierpinski's 177k-point cloud, two records at
    once on 2 cores, the pieces took the peak RSS from about 101 MB to
    94 MB at an unchanged wall time; pieces of 2**15 pairs were about 25%
    slower.)
    """

    def __init__(self, cloud: AttractorCloud, eps: float):
        self.eps = eps
        self.grid = cloud.grid
        self.uncovered = np.ones(cloud.size, dtype=bool)   # per point of grid
        self.left = cloud.size
        self.rate = 0.0   # the last query's pairs per orbit point per tree point

    def __call__(self, ys: np.ndarray, at: np.ndarray):
        pieces = min(len(ys), 1 + int(self.rate * len(ys) * self.grid.n) // _PAIRS)
        for part, ats in zip(np.array_split(ys, pieces), np.array_split(at, pieces)):
            pairs = self._pairs(part)
            self.rate = len(pairs) / (len(part) * self.grid.n)
            hit = np.zeros(self.uncovered.size, dtype=bool)
            hit[pairs["i"]] = True
            hit &= self.uncovered
            count = int(np.count_nonzero(hit))
            if count == self.left:
                first = np.full(self.uncovered.size, len(part), dtype=np.intp)
                np.minimum.at(first, pairs["i"], pairs["j"])
                return int(ats[first[hit].max()])
            self.uncovered[hit] = False
            self.left -= count
            if 4 * self.left <= self.uncovered.size:
                self._shrink()
        return None

    def _pairs(self, ys: np.ndarray) -> np.ndarray:
        """The pairs (i in the tree, j in ys) within eps."""
        # Small leaves keep the chunk's bounding boxes tight, so the
        # dual-tree query prunes more: on the 177k-point Sierpinski cloud
        # it ran about 1.5x faster than with the default leaf size of 16.
        return self.grid.sparse_distance_matrix(_kdtree(ys, leafsize=2), self.eps,
                                                output_type="ndarray")

    def _shrink(self):
        """Rebuild the tree over the uncovered points alone."""
        self.grid = _kdtree(self.grid.data[self.uncovered])
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
    nearest = _kdtree(orbit).query(cloud.points)[1]
    gap = cloud.points - orbit[nearest]
    return bool(((gap * gap).sum(axis=1) <= eps * eps).all())


def covering_estimate(points, eps: float) -> CoverEstimate:
    """Deterministic two-sided bracket on the covering number of a point set.

    upper: greedy — repeatedly center a closed eps-ball at the first (in
    canonical order) uncovered point.  lower: greedy maximal 2*eps-separated
    subset; no eps-ball can contain two such points, so the true covering
    number is at least its size.  points is an (n, d) array, a flat list
    (n points on the line) or an AttractorCloud, whose kd-tree (cloud.grid,
    built on first use, never on the line) is reused and whose cover_sizes
    memo holds each radius's count, so on a cloud a radius is walked once:
    lower(eps) of an r = 1/2 ladder is upper(2*eps).  With a cache directory
    the memo is kept in the cloud's cache file (read_cloud, and the rewrite
    in run_experiment), so a radius walked in one run is not walked in the next.
    Both counts come from ifs._greedy_walk, shared with build_sigma and
    cloud thinning: a ball at c holds p when abs(p - c) <= r in 1-d, and
    sum((p - c)**2) <= r**2, cKDTree's test, in d dimensions.  As in
    recovery_time, cKDTree applies the 1-d test too while r**2 is a normal
    float (r > ~1.5e-154).
    """
    memo, cloud = {}, None
    if isinstance(points, AttractorCloud):
        cloud, points, memo = points, points.points, points.cover_sizes
    pts = _point_set(points)
    if pts.shape[0] == 0:
        raise ValidationError("covering estimate needs a nonempty point set")
    if not 0 < eps < math.inf:
        raise ValidationError(f"covering radius must be positive and finite, got {eps}")
    walk = None
    for r in (2.0 * eps, eps):
        if r not in memo:
            walk = walk or _greedy_walk(pts, cloud)
            memo[r] = len(walk(r))
    return CoverEstimate(eps=float(eps), lower=memo[2.0 * eps], upper=memo[eps])


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
    samples, rl, ru, large = [], [], [], False
    for m in range(m_lo, m_hi + 1):
        b = a * r ** m
        if b <= 2.0 * cloud.resolution:
            break
        if b >= 1.0:
            large = True
            continue
        est = covering_estimate(cloud, b)
        denom = math.log(1.0 / b)
        samples.append(est)
        rl.append(math.log(est.lower) / denom)
        ru.append(math.log(est.upper) / denom)
    if not samples:
        why = ["the radii were >= 1"] if large else []
        if b <= 2.0 * cloud.resolution:
            why.append("the schedule fell below twice the cloud resolution")
        raise ValidationError("no usable radii: " + ", then ".join(why))
    value = min(ru)
    return DimensionEstimate(value=value, samples=tuple(samples),
                             rates_lower=tuple(rl), rates_upper=tuple(ru))


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

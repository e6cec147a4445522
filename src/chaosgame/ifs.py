"""Affine iterated function systems, orbits, and attractor point clouds.

Everything here lives in R^d with affine Banach contractions.  The
attractor is approximated by a finite "cloud" of points that all lie on
the attractor exactly (each one is a finite composition of the maps
applied to a fixed point of the first map), together with a certified
resolution: every attractor point is within `resolution` of some cloud
point.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ValidationError

_MAGIC = b"IFSC"
_FORMAT_VERSION = 3
# version, dim, count, resolution, depth, then the entries of each memo table:
# cover radii, outside counts, covering words
_HEADER = struct.Struct("<IIQdIQQQ")
_SIZES = np.dtype([("radius", "<f8"), ("size", "<u8")])
_OUTSIDE = np.dtype([("ifs", "V32"), ("radius", "<f8"), ("size", "<u8")])
_WORDS = np.dtype([("ifs", "V32"), ("K", "<u8"), ("m", "<u8"), ("d", "<f8"), ("length", "<u8")])

DEFAULT_POINT_BUDGET = 2 ** 24


def _as_vector(x, dim, what="point"):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (dim,):
        raise ValidationError(f"{what}: expected a {dim}-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{what}: coordinates must be finite, got {v.tolist()}")
    return v


def _point_set(points) -> np.ndarray:
    """points as an (n, d) float array; shape (n,) is n points on the line."""
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"a point set must be an array of numbers: {exc}") from None
    if pts.ndim not in (1, 2):
        raise ValidationError(f"a point set has shape (n,) or (n, d), got {pts.shape}")
    return pts if pts.ndim == 2 else pts[:, None]


def _row_sums(rows, x) -> list:
    """Row i of an affine map, ((m_i0*x_0 + m_i1*x_1) + ...) + o_i, for
    each (row, o_i) in rows; x's items are floats or numpy arrays."""
    out = []
    for row, o in rows:
        acc = row[0] * x[0]
        for c, v in zip(row[1:], x[1:]):
            acc = acc + c * v
        out.append(acc + o)
    return out


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix x + offset with a certified Lipschitz upper bound.

    Coordinate i of the image is ((m_i0*x_0 + m_i1*x_1) + ...) + o_i in
    float64, left to right, each product and sum rounded on its own: no
    fused multiply-add and no BLAS.  A point's image has the same bits alone,
    in a batch (__call__) or in plain floats (on_floats), on any machine.
    """

    matrix: np.ndarray
    offset: np.ndarray
    lip: float

    @classmethod
    def create(cls, matrix, offset) -> "AffineMap":
        try:
            matrix = np.atleast_2d(np.array(matrix, dtype=float))
            offset = np.atleast_1d(np.array(offset, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"map coefficients must be numbers: {exc}") from None
        if offset.ndim != 1 or offset.size < 1 or matrix.shape != (offset.size,) * 2:
            raise ValidationError("matrix must be d x d and offset a d-vector, d >= 1")
        for name, coeffs in (("matrix", matrix), ("offset", offset)):
            if not np.isfinite(coeffs).all():
                raise ValidationError(
                    f"{name} coefficients must be finite, got {coeffs.ravel().tolist()}")
        # Operator 2-norm (largest singular value) is an exact Lipschitz
        # constant for an affine map; bump it by 1e-12 relative so it is a
        # certified upper bound under floating point.
        lip = _operator_norm(matrix) * (1.0 + 1e-12)
        if not lip < 1.0:
            raise ValidationError(
                f"not a contraction: Lipschitz constant {lip:.6g} >= 1"
            )
        matrix.flags.writeable = offset.flags.writeable = False   # shared, never mutated
        return cls(matrix=matrix, offset=offset, lip=lip)

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def __call__(self, x):
        """Apply to a single d-vector or to an (n, d) batch."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValidationError(f"a {self.dim}-dim map cannot apply to shape {x.shape}")
        return np.array(_row_sums(self._rows, x.T)).T

    @functools.cached_property
    def _rows(self) -> tuple:
        return tuple(zip(self.matrix.tolist(), self.offset.tolist()))

    @functools.cached_property
    def on_floats(self):
        """The map in plain Python floats: a float to a float in 1-d (a
        single a*x + b), a tuple of floats to a tuple in d dimensions."""
        rows = self._rows
        if self.dim == 1:
            (((a,), b),) = rows
            return lambda x: a * x + b
        if self.dim == 2:               # _row_sums unrolled, same bits
            (((a, b), o), ((c, d), p)) = rows
            return lambda x: (a * x[0] + b * x[1] + o, c * x[0] + d * x[1] + p)
        return lambda x: tuple(_row_sums(rows, x))


def _operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value; for d <= 2 in plain floats, the same bits on any
    machine: sqrt((T + sqrt(D)) / 2) in 2-d, T the sum of the squared entries,
    D = T**2 - 4 det**2 as a product of sums of squares (no cancellation)."""
    if matrix.shape == (1, 1):
        return abs(float(matrix[0, 0]))
    if matrix.shape == (2, 2):
        (a, b), (c, d) = matrix.tolist()
        disc = ((a - d) * (a - d) + (b + c) * (b + c)) * ((a + d) * (a + d) + (b - c) * (b - c))
        return math.sqrt((a * a + b * b + c * c + d * d + math.sqrt(disc)) / 2.0)
    return float(np.linalg.norm(matrix, 2))


def scalar_map(a: float, b: float) -> AffineMap:
    """1-d convenience: x -> a*x + b."""
    return AffineMap.create([[a]], [b])


@dataclass(frozen=True)
class IfsSystem:
    """An ordered list of affine contractions; symbols are 1-based."""

    maps: tuple
    dim: int
    lip_max: float

    @classmethod
    def create(cls, maps) -> "IfsSystem":
        maps = tuple(maps)
        if len(maps) < 1:
            raise ValidationError("an IFS needs at least one map")
        dim = maps[0].dim
        if any(m.dim != dim for m in maps):
            raise ValidationError("all maps must share the same dimension")
        return cls(maps=maps, dim=dim, lip_max=max(m.lip for m in maps))

    @property
    def alphabet_size(self) -> int:
        return len(self.maps)

    @functools.cached_property
    def fingerprint(self) -> bytes:
        """sha256 of the dimension, K and every map's matrix and offset
        bytes in map order: what a cloud's memo tables key this system by."""
        digest = hashlib.sha256(struct.pack("<QQ", self.dim, len(self.maps)))
        for m in self.maps:
            digest.update(np.ascontiguousarray(m.matrix, "<f8").tobytes())
            digest.update(np.ascontiguousarray(m.offset, "<f8").tobytes())
        return digest.digest()

    def map_for(self, symbol: int) -> AffineMap:
        if not 1 <= symbol <= len(self.maps):
            raise ValidationError(f"invalid symbol {symbol}, alphabet is 1..{len(self.maps)}")
        return self.maps[symbol - 1]


# Canonical systems used throughout tests and presets.

def cantor_ifs() -> IfsSystem:
    """{x/3, x/3 + 2/3}: middle-thirds Cantor set on [0, 1]."""
    return IfsSystem.create([scalar_map(1 / 3, 0.0), scalar_map(1 / 3, 2 / 3)])


def segment_ifs() -> IfsSystem:
    """{x/2, x/2 + 1/2}: attractor is the unit interval."""
    return IfsSystem.create([scalar_map(0.5, 0.0), scalar_map(0.5, 0.5)])


def halving_ifs() -> IfsSystem:
    """{x/2, constant 1}: attractor {0} union {2^-n}."""
    return IfsSystem.create([scalar_map(0.5, 0.0), scalar_map(0.0, 1.0)])


def sierpinski_ifs() -> IfsSystem:
    """Three planar similitudes with ratio 1/2 (Sierpinski triangle)."""
    h = np.sqrt(3.0) / 2.0
    half = 0.5 * np.eye(2)
    return IfsSystem.create([
        AffineMap.create(half, [0.0, 0.0]),
        AffineMap.create(half, [0.5, 0.0]),
        AffineMap.create(half, [0.25, 0.5 * h]),
    ])


def fixed_point(m: AffineMap) -> np.ndarray:
    """Unique fixed point of a contraction: AffineMap.create certifies
    ||M||_2 < 1, so I - M is nonsingular.  (I - M) x = offset is solved by
    Gauss-Jordan elimination with partial pivoting in plain floats, not
    LAPACK, so x has the same bits on every machine."""
    a = [[float(i == j) - c for j, c in enumerate(row)] + [o]
         for i, (row, o) in enumerate(m._rows)]
    for k in range(m.dim):
        p = max(range(k, m.dim), key=lambda i: abs(a[i][k]))
        a[k], a[p] = a[p], a[k]
        for i in (i for i in range(m.dim) if i != k):
            f = a[i][k] / a[k][k]
            a[i] = [u - f * v for u, v in zip(a[i], a[k])]
    x = np.array([row[-1] / row[k] for k, row in enumerate(a)])
    resid = np.linalg.norm(m(x) - x)
    if resid > 1e-10 * (1.0 + np.linalg.norm(x)):
        raise ValidationError(f"fixed point residual too large: {resid:.3g}")
    return x


def run_orbit(ifs: IfsSystem, driver, x0, n: int) -> np.ndarray:
    """Run the deterministic chaos game for n steps on the driver's first
    n symbols: the (n+1, d) orbit x_0..x_n, x_k = f_{s_k}(x_{k-1})."""
    if n < 0:
        raise ValidationError("orbit length must be >= 0")
    x0 = _as_vector(x0, ifs.dim, "x0")
    pts = np.empty((n + 1, ifs.dim))
    pts[0] = x = x0
    for k, s in enumerate(driver.segment(0, n).tolist(), start=1):
        x = ifs.map_for(s)(x)
        pts[k] = x
    return pts


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Indices of the convex hull's vertices, among which every diameter
    has both ends.  Qhull rejects flat input, which is replaced by its
    coordinates in an orthonormal basis of a lower-dimensional affine span."""
    if points.shape[1] == 1:
        return np.array([points.argmin(), points.argmax()])
    from scipy.spatial import ConvexHull, QhullError
    # Into [-1, 1] by a power of two, which is exact: Qhull fails on huge or
    # tiny coordinates.
    points = np.ldexp(points, -math.frexp(np.abs(points).max())[1])
    try:
        return ConvexHull(points).vertices
    except QhullError:
        centred = points - points.mean(axis=0)
        _, s, vt = np.linalg.svd(centred, full_matrices=False)
        rank = min(points.shape[1] - 1, max(1, int((s > s[0] * 1e-12).sum())))
        return _hull_vertices(centred @ vt[:rank].T)


def _diameter(points: np.ndarray) -> float:
    """Max pairwise distance, over the hull's vertices once there are many."""
    if points.shape[1] == 1:
        return float(points.max() - points.min())
    candidates = points
    if points.shape[0] > 64:
        candidates = points[_hull_vertices(points)]
    diff = candidates[:, None, :] - candidates[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def _lexsort_points(points: np.ndarray) -> np.ndarray:
    """points with their rows in lexicographic order, by a stable sort; rows
    already in order (as in every cache file) come back as they are, found
    by one pass over adjacent rows, since a stable sort of them is the
    identity, ties through -0.0 == 0.0 included."""
    a, b = points[:-1], points[1:]
    ordered = a[:, -1] <= b[:, -1]
    for c in range(points.shape[1] - 2, -1, -1):
        ordered = (a[:, c] < b[:, c]) | ((a[:, c] == b[:, c]) & ordered)
    if ordered.all():
        return points
    return points[np.lexsort(points.T[::-1])]


def _line_walk(values: list, r: float, centres=None) -> list:
    """The greedy r-cover of ascending values; see _greedy_walk."""
    own = centres is None
    centres = values if own else centres[:, 0].tolist()
    targets, i, n = [], 0, len(values)
    while i < n:
        c = centres[i]
        targets.append(i)
        j = bisect.bisect_right(values, c + r, i + 1)
        while j < n and values[j] - c <= r:
            j += 1
        while values[j - 1] - c > r and j > i + 1:   # j > i + 1 only for a stray
            j -= 1
        i = j
    if not own and any(abs(values[t] - centres[t]) > r for t in targets):
        raise ValidationError(f"a target lies outside its own r={r:g} ball")
    return targets


def _kdtree(points, **kw):
    """cKDTree(points, **kw) with sliding-midpoint splits, imported on first
    use: scipy loads once a tree is needed.  Every query here tests each
    point or pair on its own coordinates, so the tree's shape changes no
    result; on self-similar clouds sliding-midpoint trees are quicker to
    build and to query than median-split ones."""
    from scipy.spatial import cKDTree
    return cKDTree(points, balanced_tree=False, **kw)


def _greedy_walk(pts: np.ndarray, cloud: AttractorCloud | None = None):
    """walk(r, centres=None) -> the targets of the greedy r-cover of pts in
    order: each is the first uncovered point, its ball is centred at
    centres[target] (default: the target), and one outside its own ball
    raises ValidationError.  On ascending 1-d input the covered points form
    a prefix, so the next target is the first p with p - c > r: bisection
    settled by the exact test.  Other input ball-queries a kd-tree (the
    cloud's, if pts are its points) and skips covered runs in numpy slices."""
    if pts.shape[1] == 1 and (pts[1:, 0] >= pts[:-1, 0]).all():
        return functools.partial(_line_walk, pts[:, 0].tolist())
    return functools.partial(_tree_walk, _kdtree(pts) if cloud is None else cloud.grid, pts)


def _tree_walk(tree, pts: np.ndarray, r: float, centres=None) -> list:
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


def _line_gap(srt: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per value of q, abs(y - q) for the nearer y of its two neighbours in
    the nonempty ascending array srt: the distance to srt's nearest value,
    in floating point too, as y - q rounds monotonically in y."""
    j = np.searchsorted(srt, q)
    return np.minimum(np.abs(srt[np.maximum(j - 1, 0)] - q),
                      np.abs(srt[np.minimum(j, srt.size - 1)] - q))


def _dedupe(points: np.ndarray, threshold: float) -> tuple:
    """(kept, moved): the lexicographically-first point of every cluster of
    radius threshold, and the largest distance from a dropped point to the
    kept ones; points must be lexsorted (_lexsort_points).  A point is dropped
    iff a kept earlier one is within the threshold, so the kept points are
    the greedy threshold-cover's targets (_greedy_walk), walked over just the
    points with a neighbour that close: adjacent on the line, in a pair
    query in d dimensions.  moved is the tree's sqrt(gap * gap), by bisection
    on the line: abs(gap) is not 0.0 where the square underflows (1e-212)."""
    if points.shape[0] >= 2:
        # Exact duplicates first (cheap, and maps with collapsing branches
        # can produce huge numbers of them): sorted, they are adjacent rows,
        # and the first of each run is kept.
        points = points[np.r_[True, (points[1:] != points[:-1]).any(axis=1)]]
    if threshold <= 0 or points.shape[0] < 2:
        return points, 0.0
    drop = np.zeros(points.shape[0], dtype=bool)   # first: has a neighbour that close
    if points.shape[1] == 1:
        close = np.diff(points[:, 0]) <= threshold
        drop[:-1] |= close
        drop[1:] |= close
    else:
        drop[_kdtree(points).query_pairs(threshold, output_type="ndarray")] = True
    near = np.flatnonzero(drop)
    if near.size == 0:
        return points, 0.0
    drop[near[_greedy_walk(points[near])(threshold)]] = False
    kept = points[~drop]
    if points.shape[1] == 1:
        gap = _line_gap(kept[:, 0], points[drop, 0])
        return kept, float(np.sqrt((gap * gap).max()))
    return kept, float(_kdtree(kept).query(points[drop])[0].max())


@dataclass(frozen=True)
class AttractorCloud:
    """Finite subset of the attractor with a certified covering radius."""

    points: np.ndarray      # (n, d), sorted lexicographically
    resolution: float       # every attractor point is within this of the cloud
    depth: int
    diam_lower: float       # max pairwise distance over cloud points
    diam_upper: float       # certified upper bound on diam A
    # Memo tables, which a cached cloud keeps in its cache file (write_cloud,
    # read_cloud); an IFS is keyed by its fingerprint.
    # radius r -> size of the greedy r-cover of points (covering_estimate)
    cover_sizes: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    # (IFS, K, m, d) -> the address indices of build_sigma's covering word
    words: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (IFS, r) -> size of the greedy r-cover of the points outside the base
    # map's ball (build_schedule)
    outside_sizes: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    @classmethod
    def from_points(cls, points, resolution: float, depth: int = 0,
                    diam_upper: float | None = None) -> "AttractorCloud":
        points = _lexsort_points(np.array(_point_set(points)))   # the cloud's own copy
        if points.shape[0] == 0:
            raise ValidationError("a cloud needs at least one point")
        diam_lower = _diameter(points)
        if diam_upper is None:
            diam_upper = diam_lower + 2.0 * resolution
        return cls(points=points, resolution=float(resolution), depth=depth,
                   diam_lower=diam_lower, diam_upper=float(diam_upper))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def memo_entries(self) -> int:
        """Entries in the memo tables, which only ever grow."""
        return len(self.cover_sizes) + len(self.words) + len(self.outside_sizes)

    @functools.cached_property
    def grid(self):                     # kd-tree over points, built on first use
        return _kdtree(self.points)


def _hutchinson_points(ifs: IfsSystem, depth: int, pts=None) -> np.ndarray:
    """All K^depth compositions f_{w_1} o ... o f_{w_depth} applied to pts,
    by default the fixed point of the first map, whose outputs all lie on
    the attractor; each level applies every map to every point, map by map."""
    pts = fixed_point(ifs.maps[0])[None, :] if pts is None else pts
    for _ in range(depth):
        pts = np.concatenate([m(pts) for m in ifs.maps], axis=0)
    return pts


def _certified_cloud(ifs: IfsSystem, pts: np.ndarray, depth: int,
                     target: float = math.inf) -> AttractorCloud | None:
    """Cloud of the depth-m composition points pts, or None while 2 L^m >= 1
    or the certified resolution misses the target.

    The certificate: every point of A is within L^m * diam A of some
    depth-m composition point, and diam A <= diam_lower / (1 - 2 L^m)
    once 2 L^m < 1 (each attractor point is within L^m diam A of the
    cloud, so the cloud's spread can undershoot by at most twice that).
    Thinning (_dedupe) then moves each composition point by at most the
    distance it reports, which the resolution takes on.
    """
    shrink = ifs.lip_max ** depth
    if 2.0 * shrink >= 1.0:
        return None
    diam_lower = _diameter(pts)
    diam_upper = diam_lower / (1.0 - 2.0 * shrink)
    resolution = shrink * diam_upper
    if resolution > target and diam_upper != 0.0:
        return None
    pts, moved = _dedupe(_lexsort_points(pts), resolution / 4.0)
    resolution += moved
    if resolution > target and diam_upper != 0.0:
        return None
    return AttractorCloud(points=pts, resolution=resolution, depth=depth,
                          diam_lower=diam_lower, diam_upper=diam_upper)


def build_cloud(ifs: IfsSystem, target_resolution: float,
                point_budget: int = DEFAULT_POINT_BUDGET) -> AttractorCloud:
    """Smallest-depth cloud whose certified resolution meets the target."""
    if not 0.0 < target_resolution < math.inf:
        raise ValidationError(
            f"target resolution must be positive and finite, got {target_resolution!r}")
    depth = 0
    pts = _hutchinson_points(ifs, 0)
    while True:
        depth += 1
        if (need := ifs.alphabet_size ** depth) > point_budget:
            raise CapExceededError(f"resolution infeasible: depth {depth} needs {need} points, "
                                   f"budget is {point_budget}")
        pts = _hutchinson_points(ifs, 1, pts)
        cloud = _certified_cloud(ifs, pts, depth, target_resolution)
        if cloud is not None:
            return cloud


def directed_hausdorff(set_a, set_b) -> float:
    """sup over a in A of dist(a, B)."""
    a, b = _point_set(set_a), _point_set(set_b)
    if min(a.size, b.size) == 0 or a.shape[1] != b.shape[1]:
        raise ValidationError("Hausdorff distance needs nonempty sets of one dimension, "
                              f"got shapes {a.shape} and {b.shape}")
    return float(_kdtree(b).query(a)[0].max())


def write_cloud(path, cloud: AttractorCloud) -> None:
    """Binary cache of a cloud and its memo tables, little-endian: IFSC
    magic; version, dim, count, resolution, depth and the number of entries
    of each table; the count x dim point coordinates (<f8); one (radius <f8,
    size <u8) pair per cloud.cover_sizes entry; one (IFS fingerprint,
    radius <f8, size <u8) per outside_sizes entry; one (IFS fingerprint,
    K <u8, m <u8, d <f8, length <u8) head per words entry, then every
    word's address indices (<i8) in the order of the heads; and the sha256
    of every byte before it.  Each table is in ascending key order, so
    floats round-trip exactly.

    Identical clouds serialize byte-identically.  The bytes go to a
    temporary file in path's directory, named by process and thread, which
    then replaces path: an interrupted write leaves no short file at path,
    and of two writers at once, in one process or two, the last to rename
    wins, leaving its whole file.  A change that changes what a table holds
    for its key must change _FORMAT_VERSION: to the greedy walks, the
    address rule (construct._nearest_address), the base-map rule
    (construct._base_and_outside) or its _MIN_OUTSIDE.
    """
    pts = np.ascontiguousarray(cloud.points, dtype="<f8")
    sizes = np.array(sorted(cloud.cover_sizes.items()), dtype=_SIZES)
    outside = np.array([(*key, n) for key, n in sorted(cloud.outside_sizes.items())],
                       dtype=_OUTSIDE)
    keys = sorted(cloud.words)
    heads = np.array([(*key, cloud.words[key].size) for key in keys], dtype=_WORDS)
    index = np.concatenate([np.empty(0, "<i8"), *(cloud.words[key] for key in keys)])
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in (_MAGIC + _HEADER.pack(_FORMAT_VERSION, pts.shape[1],
                                                pts.shape[0], cloud.resolution,
                                                cloud.depth, sizes.size,
                                                outside.size, heads.size),
                          pts.tobytes(), sizes.tobytes(), outside.tobytes(),
                          heads.tobytes(), index.astype("<i8", copy=False).tobytes()):
                fh.write(chunk)
                digest.update(chunk)
            fh.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_cloud(path) -> AttractorCloud:
    """Inverse of write_cloud, memo tables included.  A malformed, truncated
    or altered file, one of another version or with bytes after its
    checksum raises ValidationError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValidationError(f"{path}: bad cloud cache magic {raw[:4]!r}")
    at = 4 + _HEADER.size
    header = raw[4:at]
    if len(header) != _HEADER.size:
        raise ValidationError(
            f"{path}: truncated cloud cache header ({len(header)} of "
            f"{_HEADER.size} bytes)")
    version, dim, count, resolution, depth, radii, outs, words = _HEADER.unpack(header)
    if version != _FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported cloud cache version {version}")
    if dim < 1 or count < 1:
        raise ValidationError(f"{path}: cloud cache holds {count} points "
                              f"of dimension {dim}")

    def take(dtype, n):                 # the next n items, if the file holds them
        nonlocal at
        end = at + np.dtype(dtype).itemsize * n
        if end + 32 > len(raw):
            raise ValidationError(f"{path}: truncated cloud cache payload "
                                  f"({len(raw) - 4 - _HEADER.size} of at least "
                                  f"{end + 32 - 4 - _HEADER.size} bytes)")
        part, at = np.frombuffer(raw, dtype, n, at), end
        return part

    data = take("<f8", count * dim).reshape(count, dim)
    sizes, outside, heads = take(_SIZES, radii), take(_OUTSIDE, outs), take(_WORDS, words)
    index = take("<i8", sum(heads["length"].tolist()))
    if len(raw) - 32 > at:
        raise ValidationError(
            f"{path}: {len(raw) - 32 - at} trailing bytes after the cloud cache payload")
    if hashlib.sha256(memoryview(raw)[:-32]).digest() != raw[-32:]:
        raise ValidationError(f"{path}: cloud cache checksum mismatch")
    if not (resolution >= 0.0 and np.isfinite(resolution) and np.isfinite(data).all()):
        raise ValidationError(f"{path}: cloud cache holds non-finite or negative values")
    sizes, outside, heads = sizes.tolist(), outside.tolist(), heads.tolist()
    index = index.astype(np.int64)     # a copy: the words keep no view of raw
    index.flags.writeable = False
    words = np.split(index, np.cumsum([n for *_, n in heads])[:-1])

    def check(table, what, fine):
        """One rule for every memo table: each row is (*key, count), the keys
        ascend, so each is there once, 1 <= count <= the points, and
        fine(i, *row) holds for row i."""
        last = ()
        for i, row in enumerate(table):
            if not (row[:-1] > last and 1 <= row[-1] <= count and fine(i, *row)):
                raise ValidationError(f"{path}: bad {what.format(*row)}")
            last = row[:-1]

    check(sizes, "cover size in cloud cache: radius {0!r}, count {1}", lambda i, r, n: r > 0.0)
    check(outside, "outside count in cloud cache: radius {1!r}, count {2}",
          lambda i, fp, r, n: r > 0.0)
    check(heads, "covering word in cloud cache: K {1}, m {2}, d {3!r}, {4} indices",
          lambda i, fp, K, m, d, n: (K >= 1 and m >= 1 and d > 0.0 and words[i].min() >= 0
                                     and int(words[i].max()) < K ** min(m, 64)))
    with np.errstate(over="ignore"):   # an overflowing diameter is rejected below
        cloud = AttractorCloud.from_points(data, resolution=resolution, depth=depth)
    if not np.isfinite(cloud.diam_upper):
        raise ValidationError(f"{path}: cloud cache diameter is not finite")
    cloud.cover_sizes.update(sizes)
    cloud.outside_sizes.update(((fp, r), n) for fp, r, n in outside)
    cloud.words.update((head[:-1], word) for head, word in zip(heads, words))
    return cloud

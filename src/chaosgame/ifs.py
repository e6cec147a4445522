"""Affine iterated function systems, orbits, and attractor point clouds.

Everything here lives in R^d with affine Banach contractions.  The
attractor is approximated by a finite "cloud" of points that all lie on
the attractor exactly (each one is a finite composition of the maps
applied to a fixed point of the first map), together with a certified
resolution: every attractor point is within `resolution` of some cloud
point.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import CapExceededError, ValidationError

_MAGIC = b"IFSC"
_FORMAT_VERSION = 2
_HEADER = struct.Struct("<IIQdIQ")  # version, dim, count, resolution, depth, radii
_SIZES = np.dtype([("radius", "<f8"), ("size", "<u8")])

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
        acc = -0.0                      # -0.0 + y == y bit for bit
        for c, v in zip(row, x):
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
        # constant for an affine map; bump it by one ulp so it is a
        # certified upper bound under floating point.
        lip = float(np.linalg.norm(matrix, 2)) * (1.0 + 1e-12)
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


@dataclass(frozen=True)
class Orbit:
    """Chaos-game orbit: points[k] = f_{driver_prefix[k-1]}(points[k-1])."""

    start: np.ndarray
    points: np.ndarray          # (n+1, d)
    driver_prefix: np.ndarray   # (n,) the driver's first n symbols

    def __len__(self):
        return self.points.shape[0]


def run_orbit(ifs: IfsSystem, driver, x0, n: int) -> Orbit:
    """Run the deterministic chaos game for n steps on the driver's first
    n symbols."""
    if n < 0:
        raise ValidationError("orbit length must be >= 0")
    x0 = _as_vector(x0, ifs.dim, "x0")
    symbols = np.asarray(driver.segment(0, n), dtype=np.int64)
    pts = np.empty((n + 1, ifs.dim))
    pts[0] = x0
    x = x0
    for k, s in enumerate(symbols, start=1):
        x = ifs.map_for(int(s))(x)
        pts[k] = x
    return Orbit(start=x0, points=pts, driver_prefix=symbols)


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Indices of the convex hull's vertices, among which every diameter
    has both ends.  Qhull rejects flat input, which is replaced by its
    coordinates in an orthonormal basis of a lower-dimensional affine span."""
    if points.shape[1] == 1:
        return np.array([points.argmin(), points.argmax()])
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
    order = np.lexsort(points.T[::-1])
    return points[order]


def _dedupe(points: np.ndarray, threshold: float) -> tuple:
    """(kept, moved): the lexicographically-first point of every cluster of
    radius threshold, and the largest distance from a dropped point to the
    kept ones; points must be lexsorted (_lexsort_points)."""
    if points.shape[0] >= 2:
        # Exact duplicates first (cheap, and maps with collapsing branches
        # can produce huge numbers of them): sorted, they are adjacent rows,
        # and the first of each run is kept.
        points = points[np.r_[True, (points[1:] != points[:-1]).any(axis=1)]]
    if threshold <= 0 or points.shape[0] < 2:
        return points, 0.0
    tree = cKDTree(points)
    pairs = tree.query_pairs(threshold, output_type="ndarray")
    drop = np.zeros(points.shape[0], dtype=bool)
    if pairs.size:
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        # Greedy in canonical order: a point is dropped iff a kept earlier
        # point sits within the threshold.
        order = np.argsort(lo, kind="stable")
        for a, b in zip(lo[order], hi[order]):
            if not drop[a]:
                drop[b] = True
    kept = points[~drop]
    if not drop.any():
        return kept, 0.0
    return kept, float(cKDTree(kept).query(points[drop])[0].max())


@dataclass(frozen=True)
class AttractorCloud:
    """Finite subset of the attractor with a certified covering radius."""

    points: np.ndarray      # (n, d), sorted lexicographically
    resolution: float       # every attractor point is within this of the cloud
    depth: int
    diam_lower: float       # max pairwise distance over cloud points
    diam_upper: float       # certified upper bound on diam A
    grid: cKDTree = field(repr=False, compare=False)
    # radius r -> size of the greedy r-cover of points (covering_estimate);
    # a cached cloud keeps it in its cache file (write_cloud, read_cloud)
    cover_sizes: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @classmethod
    def from_points(cls, points, resolution: float, depth: int = 0,
                    diam_upper: float | None = None) -> "AttractorCloud":
        points = _lexsort_points(_point_set(points))
        if points.shape[0] == 0:
            raise ValidationError("a cloud needs at least one point")
        diam_lower = _diameter(points)
        if diam_upper is None:
            diam_upper = diam_lower + 2.0 * resolution
        return cls(points=points, resolution=float(resolution), depth=depth,
                   diam_lower=diam_lower, diam_upper=float(diam_upper),
                   grid=cKDTree(points))

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _hutchinson_points(ifs: IfsSystem, depth: int, pts=None) -> np.ndarray:
    """All K^depth compositions f_{w_1} o ... o f_{w_depth} applied to pts,
    by default the fixed point of the first map, whose outputs all lie on
    the attractor; each level applies every map to every point, map by map."""
    pts = fixed_point(ifs.maps[0])[None, :] if pts is None else pts
    for _ in range(depth):
        pts = np.concatenate([m(pts) for m in ifs.maps], axis=0)
    return pts


def _check_budget(ifs: IfsSystem, depth: int, point_budget: int) -> None:
    K = ifs.alphabet_size
    if K ** depth > point_budget:
        raise CapExceededError(f"resolution infeasible: depth {depth} needs "
                               f"{K ** depth} points, budget is {point_budget}")


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
                          diam_lower=diam_lower, diam_upper=diam_upper,
                          grid=cKDTree(pts))


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
        _check_budget(ifs, depth, point_budget)
        pts = _hutchinson_points(ifs, 1, pts)
        cloud = _certified_cloud(ifs, pts, depth, target_resolution)
        if cloud is not None:
            return cloud


def cloud_at_depth(ifs: IfsSystem, depth: int) -> AttractorCloud:
    """Cloud from all depth-m compositions, with the same certificate."""
    _check_budget(ifs, depth, DEFAULT_POINT_BUDGET)
    cloud = _certified_cloud(ifs, _hutchinson_points(ifs, depth), depth)
    if cloud is None:
        raise ValidationError(f"depth {depth} too shallow to certify a diameter bound")
    return cloud


def hausdorff_distance(set_a, set_b) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    return max(directed_hausdorff(set_a, set_b), directed_hausdorff(set_b, set_a))


def directed_hausdorff(set_a, set_b) -> float:
    """sup over a in A of dist(a, B)."""
    a, b = _point_set(set_a), _point_set(set_b)
    if min(a.size, b.size) == 0 or a.shape[1] != b.shape[1]:
        raise ValidationError("Hausdorff distance needs nonempty sets of one dimension, "
                              f"got shapes {a.shape} and {b.shape}")
    return float(cKDTree(b).query(a)[0].max())


def write_cloud(path, cloud: AttractorCloud) -> None:
    """Binary cache of a cloud and its greedy-cover sizes, little-endian:
    IFSC magic; version, dim, count, resolution, depth and the number of
    radii; the count x dim point coordinates (<f8); one (radius <f8,
    size <u8) pair per cloud.cover_sizes entry, ascending, so radii
    round-trip exactly; and the sha256 of every byte before it.

    Identical clouds serialize byte-identically.  The bytes go to a
    temporary file in path's directory, which then replaces path: an
    interrupted write leaves no short file at path, and of two writers at
    once the last to rename wins, leaving its whole file.  A change to the
    greedy walk that changes its counts must change _FORMAT_VERSION.
    """
    pts = np.ascontiguousarray(cloud.points, dtype="<f8")
    sizes = np.array(sorted(cloud.cover_sizes.items()), dtype=_SIZES)
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in (_MAGIC + _HEADER.pack(_FORMAT_VERSION, pts.shape[1],
                                                pts.shape[0], cloud.resolution,
                                                cloud.depth, sizes.size),
                          pts.tobytes(), sizes.tobytes()):
                fh.write(chunk)
                digest.update(chunk)
            fh.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_cloud(path) -> AttractorCloud:
    """Inverse of write_cloud, cover_sizes included.  A malformed, truncated
    or altered file, one of another version or with bytes after its
    checksum raises ValidationError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValidationError(f"{path}: bad cloud cache magic {raw[:4]!r}")
    start = 4 + _HEADER.size
    header = raw[4:start]
    if len(header) != _HEADER.size:
        raise ValidationError(
            f"{path}: truncated cloud cache header ({len(header)} of "
            f"{_HEADER.size} bytes)")
    version, dim, count, resolution, depth, radii = _HEADER.unpack(header)
    if version != _FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported cloud cache version {version}")
    if dim < 1 or count < 1:
        raise ValidationError(f"{path}: cloud cache holds {count} points "
                              f"of dimension {dim}")
    size, left = count * dim * 8 + radii * _SIZES.itemsize + 32, len(raw) - start
    if left < size:
        raise ValidationError(
            f"{path}: truncated cloud cache payload ({left} of {size} bytes)")
    if left > size:
        raise ValidationError(
            f"{path}: {left - size} trailing bytes after the cloud cache payload")
    if hashlib.sha256(memoryview(raw)[:-32]).digest() != raw[-32:]:
        raise ValidationError(f"{path}: cloud cache checksum mismatch")
    data = np.frombuffer(raw, "<f8", count * dim, start).reshape(count, dim)
    sizes = np.frombuffer(raw, _SIZES, radii, start + data.nbytes).tolist()
    if not (resolution >= 0.0 and np.isfinite(resolution) and np.isfinite(data).all()):
        raise ValidationError(f"{path}: cloud cache holds non-finite or negative values")
    last = 0.0
    for r, n in sizes:                  # radii > 0, ascending, each once
        if not (r > last and 1 <= n <= count):
            raise ValidationError(f"{path}: bad cover size in cloud cache: "
                                  f"radius {r!r}, count {n}")
        last = r
    with np.errstate(over="ignore"):   # an overflowing diameter is rejected below
        cloud = AttractorCloud.from_points(data.copy(), resolution=resolution, depth=depth)
    if not np.isfinite(cloud.diam_upper):
        raise ValidationError(f"{path}: cloud cache diameter is not finite")
    cloud.cover_sizes.update(sizes)
    return cloud

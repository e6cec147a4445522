"""Affine iterated function systems, orbits, and attractor point clouds.

Everything here lives in R^d with affine Banach contractions.  The
attractor is approximated by a finite "cloud" of points that all lie on
the attractor exactly (each one is a finite composition of the maps
applied to a fixed point of the first map), together with a certified
resolution: every attractor point is within `resolution` of some cloud
point.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import CapExceededError, ValidationError

_MAGIC = b"IFSC"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIQdI")   # version, dim, count, resolution, depth

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
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2):
        raise ValidationError(f"a point set has shape (n,) or (n, d), got {pts.shape}")
    return pts if pts.ndim == 2 else pts[:, None]


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset with a certified Lipschitz upper bound."""

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
        if x.ndim == 1:
            return self.matrix @ x + self.offset
        return x @ self.matrix.T + self.offset


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
    ||M||_2 < 1, so I - M is nonsingular."""
    x = np.linalg.solve(np.eye(m.dim) - m.matrix, m.offset)
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


def _diameter(points: np.ndarray) -> float:
    """Max pairwise distance; exact via convex hull where possible."""
    if points.shape[0] == 1:
        return 0.0
    if points.shape[1] == 1:
        return float(points.max() - points.min())
    candidates = points
    if points.shape[0] > 64:
        try:
            from scipy.spatial import ConvexHull

            candidates = points[ConvexHull(points).vertices]
        except Exception:
            # Degenerate (e.g. collinear) input: keep coordinate extremes.
            idx = np.unique(np.concatenate([points.argmin(axis=0), points.argmax(axis=0)]))
            candidates = points[idx]
    diff = candidates[:, None, :] - candidates[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def _lexsort_points(points: np.ndarray) -> np.ndarray:
    order = np.lexsort(points.T[::-1])
    return points[order]


def _dedupe(points: np.ndarray, threshold: float) -> np.ndarray:
    """Keep the lexicographically-first point of every cluster of radius threshold."""
    if points.shape[0] >= 2:
        # Exact duplicates first (cheap, and maps with collapsing branches
        # can produce huge numbers of them); np.unique keeps the sort order.
        points = np.unique(points, axis=0)
    if threshold <= 0 or points.shape[0] < 2:
        return points
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
    return points[~drop]


@dataclass(frozen=True)
class AttractorCloud:
    """Finite subset of the attractor with a certified covering radius."""

    points: np.ndarray      # (n, d), sorted lexicographically
    resolution: float       # every attractor point is within this of the cloud
    depth: int
    diam_lower: float       # max pairwise distance over cloud points
    diam_upper: float       # certified upper bound on diam A
    grid: cKDTree = field(repr=False, compare=False)

    @classmethod
    def from_points(cls, points, resolution: float, depth: int = 0,
                    diam_upper: float | None = None) -> "AttractorCloud":
        points = _lexsort_points(_point_set(points))
        diam_lower = _diameter(points)
        if diam_upper is None:
            diam_upper = diam_lower + 2.0 * resolution
        return cls(points=points, resolution=float(resolution), depth=depth,
                   diam_lower=diam_lower, diam_upper=float(diam_upper),
                   grid=cKDTree(points))

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _hutchinson_points(ifs: IfsSystem, depth: int) -> np.ndarray:
    """All K^depth compositions f_{w_1} o ... o f_{w_depth} applied to the
    fixed point of the first map; every output lies on the attractor."""
    pts = fixed_point(ifs.maps[0])[None, :]
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
    """
    shrink = ifs.lip_max ** depth
    if 2.0 * shrink >= 1.0:
        return None
    diam_lower = _diameter(pts)
    diam_upper = diam_lower / (1.0 - 2.0 * shrink)
    resolution = shrink * diam_upper
    if resolution > target and diam_upper != 0.0:
        return None
    pts = _dedupe(_lexsort_points(pts), resolution / 4.0)
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
        pts = np.concatenate([m(pts) for m in ifs.maps], axis=0)
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
    """Binary cache: IFSC magic, version, dim, count, resolution, depth, floats.

    Little-endian throughout; identical clouds serialize byte-identically.
    """
    pts = np.ascontiguousarray(cloud.points, dtype="<f8")
    header = _MAGIC + _HEADER.pack(_FORMAT_VERSION, pts.shape[1], pts.shape[0],
                                   cloud.resolution, cloud.depth)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pts.tobytes(order="C"))


def read_cloud(path) -> AttractorCloud:
    """Inverse of write_cloud; a malformed or truncated file raises
    ValidationError naming the file."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValidationError(f"{path}: bad cloud cache magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValidationError(
                f"{path}: truncated cloud cache header ({len(header)} of "
                f"{_HEADER.size} bytes)")
        version, dim, count, resolution, depth = _HEADER.unpack(header)
        if version != _FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported cloud cache version {version}")
        if dim < 1 or count < 1:
            raise ValidationError(f"{path}: cloud cache holds {count} points "
                                  f"of dimension {dim}")
        size = count * dim * 8
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise ValidationError(
                f"{path}: truncated cloud cache payload ({left} of {size} bytes)")
        data = np.frombuffer(fh.read(size), dtype="<f8").reshape(count, dim)
    if not (resolution >= 0.0 and np.isfinite(resolution) and np.isfinite(data).all()):
        raise ValidationError(f"{path}: cloud cache holds non-finite or negative values")
    with np.errstate(over="ignore"):   # an overflowing diameter is rejected below
        cloud = AttractorCloud.from_points(data.copy(), resolution=resolution, depth=depth)
    if not np.isfinite(cloud.diam_upper):
        raise ValidationError(f"{path}: cloud cache diameter is not finite")
    return cloud

"""Affine maps, orbits, attractor clouds, Hausdorff distance, cloud cache."""

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import chaosgame as cg
from chaosgame.errors import CapExceededError, ValidationError


def _row_sum(row, o, x):
    """((row[0]*x[0] + row[1]*x[1]) + ...) + o, one rounding per operation."""
    acc = row[0] * x[0]
    for c, v in zip(row[1:], x[1:]):
        acc = acc + c * v
    return acc + o


def _random_planar_maps(count):
    """(matrix, offset) pairs with entries in [-0.45, 0.45] and offsets in
    [-1, 1], about a fifth of them zeros of either sign."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(count):
        matrix, offset = rng.uniform(-0.45, 0.45, size=(2, 2)), rng.uniform(-1, 1, size=2)
        for coeffs in (matrix.ravel(), offset):
            zero = rng.random(coeffs.size) < 0.2
            coeffs[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
        out.append((matrix.tolist(), offset.tolist()))
    return out


class TestAffineMap:
    def test_contraction_required(self):
        with pytest.raises(ValidationError, match="not a contraction"):
            cg.scalar_map(1.0, 0.0)
        with pytest.raises(ValidationError, match="not a contraction"):
            cg.AffineMap.create([[0.9, 0.5], [0.0, 0.9]], [0.0, 0.0])

    @pytest.mark.parametrize("a,b,bad", [(0.5, float("nan"), "offset"),
                                         (0.5, float("inf"), "offset"),
                                         (float("nan"), 0.0, "matrix"),
                                         (-float("inf"), 0.0, "matrix")])
    def test_coefficients_must_be_finite(self, a, b, bad):
        with pytest.raises(ValidationError, match=f"{bad} coefficients must be finite"):
            cg.scalar_map(a, b)

    def test_lip_is_certified_upper_bound(self):
        rng = np.random.default_rng(7)
        m = cg.AffineMap.create([[0.3, 0.2], [-0.1, 0.4]], [1.0, -1.0])
        for _ in range(1000):
            x, y = rng.uniform(-2, 2, size=(2, 2))
            lhs = np.linalg.norm(m(x) - m(y))
            assert lhs <= m.lip * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_batch_matches_single(self):
        m = cg.AffineMap.create([[0.3, 0.2], [-0.1, 0.4]], [1.0, -1.0])
        pts = np.random.default_rng(0).uniform(-1, 1, size=(5, 2))
        batch = m(pts)
        for row, p in zip(batch, pts):
            assert np.allclose(row, m(p))

    @pytest.mark.parametrize("matrix,offset", [
        ([[0.01, 0.41], [-0.32, 0.4]], [-0.4, -0.2]),
        ([[0.3, 0.2, -0.1], [-0.1, 0.4, 0.25], [0.2, 0.0, -0.3]], [1.0, -0.5, 0.0]),
        ([[1 / 3]], [2 / 3]),
        *_random_planar_maps(40),
    ], ids=["2-d", "3-d", "1-d", *(f"random-2-d-{i}" for i in range(40))])
    def test_batch_single_and_floats_are_bit_identical(self, matrix, offset):
        # One arithmetic, so a point's image does not depend on how it is
        # mapped (on_floats unrolls the planar case); zeros of both signs
        # included.
        m = cg.AffineMap.create(matrix, offset)
        pts = np.random.default_rng(3).uniform(-2, 2, size=(200, m.dim))
        pts[:6] = [[0.0] * m.dim, [-0.0] * m.dim, [1.0] * m.dim, [-1.0] * m.dim,
                   [(0.0, -0.0)[i % 2] for i in range(m.dim)],
                   [(-0.0, 0.0)[i % 2] for i in range(m.dim)]]
        batch = m(pts)
        single = np.array([m(p) for p in pts])
        floats = np.array([m.on_floats(p[0] if m.dim == 1 else tuple(p))
                           for p in pts.tolist()]).reshape(batch.shape)
        assert batch.tobytes() == single.tobytes() == floats.tobytes()
        rows = [_row_sum(row, o, p) for p in pts.tolist()
                for row, o in zip(matrix, offset)]
        assert batch.ravel().tobytes() == np.array(rows).tobytes()

    def test_wrong_dimension_rejected(self):
        m = cg.AffineMap.create([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0])
        with pytest.raises(ValidationError, match="cannot apply"):
            m(np.zeros((3, 3)))

    @given(a=st.floats(-0.99, 0.99), b=st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_fixed_point_property(self, a, b):
        m = cg.scalar_map(a, b)
        x = cg.fixed_point(m)
        assert abs(m(x)[0] - x[0]) <= 1e-10 * (1 + abs(x[0]))


# A rotated planar system: LAPACK's solve for the first map's fixed point
# and BLAS's matrix products for its cloud and orbit both round differently
# under OpenBLAS's default x86 kernel and under its Nehalem kernel.
_ROTATED_RUN = """
import hashlib
import chaosgame as cg
rot = [[0.4, 0.3], [-0.3, 0.4]]
ifs = cg.IfsSystem.create([cg.AffineMap.create([[0.01, 0.41], [-0.32, 0.4]], [-0.4, -0.2]),
                           cg.AffineMap.create(rot, [1.0, 0.0]),
                           cg.AffineMap.create(rot, [0.3, 0.7])])
cloud = cg.build_cloud(ifs, 0.05)
orbit = cg.run_orbit(ifs, cg.random_driver(3, 1), [0.1, 0.2], 2000)
rec = cg.recovery_time(ifs, cg.random_driver(3, 1), [0.1, 0.2], 0.1, cloud)
print(hashlib.sha256(cloud.points.tobytes()).hexdigest(),
      hashlib.sha256(orbit.points.tobytes()).hexdigest(), rec.n)
"""


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason="numpy is not built on OpenBLAS")
def test_same_bits_under_another_blas_kernel():
    src = str(Path(cg.__file__).resolve().parents[1])

    def run(**env):
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env = {**base, "PYTHONPATH": src, **env}
        done = subprocess.run([sys.executable, "-c", _ROTATED_RUN], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return done.stdout.split()

    default = run()
    assert run(OPENBLAS_CORETYPE="Nehalem") == default
    assert default[2] != "None"


class TestFixedPoint:
    def test_halving_map(self):
        assert cg.fixed_point(cg.scalar_map(0.5, 0.0))[0] == 0.0

    def test_cantor_right_map(self):
        assert cg.fixed_point(cg.scalar_map(1 / 3, 2 / 3))[0] == pytest.approx(1.0)

    def test_constant_map(self):
        assert cg.fixed_point(cg.scalar_map(0.0, 1.0))[0] == 1.0


class TestOrbit:
    def test_cantor_two_steps(self, cantor):
        orbit = cg.run_orbit(cantor, cg.literal_driver(cg.Word((2, 1), 2)), [0.0], 2)
        assert np.allclose(orbit.points.ravel(), [0.0, 2 / 3, 2 / 9])

    def test_halving_three_ones(self, halving):
        orbit = cg.run_orbit(halving, cg.literal_driver(cg.Word((1, 1, 1), 2)),
                             [1.0], 3)
        assert np.allclose(orbit.points.ravel(), [1.0, 0.5, 0.25, 0.125])

    def test_matches_scalar_recomputation(self, cantor):
        driver = cg.champernowne(2)
        orbit = cg.run_orbit(cantor, cg.champernowne(2), [0.0], 10)
        x = 0.0
        for k, s in enumerate(driver.segment(0, 10), start=1):
            x = x * (1 / 3) if s == 1 else x * (1 / 3) + 2 / 3
            assert orbit.points[k, 0] == pytest.approx(x, rel=1e-15, abs=1e-15)
        assert len(orbit) == 11
        assert len(orbit.driver_prefix) == 10

    def test_determinism(self, cantor):
        a = cg.run_orbit(cantor, cg.champernowne(2), [0.3], 200)
        b = cg.run_orbit(cantor, cg.champernowne(2), [0.3], 200)
        assert (a.points == b.points).all()

    def test_invalid_symbol(self, cantor):
        bad = cg.DriverStream("bad", 2, lambda: iter([3]))
        with pytest.raises(ValidationError, match="invalid symbol"):
            cg.run_orbit(cantor, bad, [0.0], 1)

    def test_pull_in_bound(self, cantor, cantor_cloud_coarse):
        # d(x_k, A) <= L^k * d(x0, A), checked against the cloud with slack.
        cloud = cantor_cloud_coarse
        orbit = cg.run_orbit(cantor, cg.champernowne(2), [5.0], 30)
        d0 = 4.0  # d(5, A) = 4
        for k, p in enumerate(orbit.points):
            dist = cloud.grid.query(p)[0]
            assert dist <= cantor.lip_max ** k * d0 + cloud.resolution


class TestCloud:
    def test_depth_one_and_two_points(self, cantor):
        c1 = cg.cloud_at_depth(cantor, 3)
        assert {round(v, 12) for v in c1.points.ravel()} >= {0.0, round(2 / 9, 12),
                                                             round(2 / 3, 12),
                                                             round(8 / 9, 12)}

    def test_halving_cloud_is_dyadic(self, halving):
        cloud = cg.cloud_at_depth(halving, 6)
        expected = sorted([0.0] + [2.0 ** -j for j in range(6)])
        assert np.allclose(sorted(cloud.points.ravel()), expected)

    def test_diam_bracket(self, cantor_cloud):
        assert cantor_cloud.diam_lower <= 1.0 <= cantor_cloud.diam_upper
        assert cantor_cloud.diam_upper <= cantor_cloud.diam_lower + \
            2 * cantor_cloud.resolution + 1e-12

    def test_cloud_within_resolution_of_attractor(self, cantor):
        # Refinement soundness: a depth m+1 cloud stays within the certified
        # resolution of the depth m cloud.
        for m in (4, 6):
            coarse = cg.cloud_at_depth(cantor, m)
            fine = cg.cloud_at_depth(cantor, m + 1)
            d = cg.directed_hausdorff(fine.points, coarse.points)
            assert d <= coarse.resolution * (1 + 1e-12)

    def test_diam_monotone_in_depth(self, cantor):
        diams = [cg.cloud_at_depth(cantor, m).diam_lower for m in range(2, 7)]
        assert all(b >= a for a, b in zip(diams, diams[1:]))

    def test_points_sorted_and_deduped(self, cantor_cloud):
        pts = cantor_cloud.points
        assert (np.diff(pts[:, 0]) > 0).all()

    def test_budget_error(self, cantor):
        with pytest.raises(CapExceededError, match="resolution infeasible"):
            cg.build_cloud(cantor, 1e-12, point_budget=1000)

    def test_resolution_positive_required(self, cantor):
        with pytest.raises(ValidationError):
            cg.build_cloud(cantor, 0.0)


class TestHausdorff:
    def test_singletons(self):
        assert cg.hausdorff_distance([[0.0]], [[1.0]]) == 1.0

    def test_asymmetric_sets(self):
        assert cg.hausdorff_distance([[0.0], [1.0]], [[0.0]]) == 1.0

    def test_midpoint(self):
        assert cg.hausdorff_distance([[0.0], [0.5], [1.0]], [[0.0], [1.0]]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cg.hausdorff_distance(np.empty((0, 1)), [[0.0]])

    def test_flat_lists_are_points_on_the_line(self):
        # A flat list used to become one n-dimensional point, and scipy's
        # ValueError on the mismatched dimensions escaped.
        assert cg.hausdorff_distance([0, 1], [0]) == 1.0
        assert cg.directed_hausdorff([0, 0.5, 1], [0, 1]) == 0.5
        assert cg.directed_hausdorff([0, 1], [[0.0], [1.0]]) == 0.0

    @pytest.mark.parametrize("a,b", [([[0.0, 0.0]], [0.0]), (np.zeros((1, 1, 1)), [0.0]),
                                     (0.0, [0.0])],
                             ids=["dimensions-differ", "rank-3", "rank-0"])
    def test_bad_point_sets_rejected(self, a, b):
        with pytest.raises(ValidationError):
            cg.directed_hausdorff(a, b)
        with pytest.raises(ValidationError):
            cg.hausdorff_distance(b, a)

    def test_ragged_rejected(self):
        # numpy's "inhomogeneous shape" ValueError used to escape.
        with pytest.raises(ValidationError, match="array of numbers"):
            cg.hausdorff_distance([[0], [0, 1]], [0])


class TestFromPoints:
    def test_flat_list_is_points_on_the_line(self):
        cloud = cg.AttractorCloud.from_points([1.0, 0.0, 0.5], resolution=0.0)
        assert cloud.points.tolist() == [[0.0], [0.5], [1.0]]
        assert cloud.diam_lower == 1.0

    def test_rank_3_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            cg.AttractorCloud.from_points(np.zeros((2, 1, 1)), resolution=0.0)

    def test_empty_rejected(self):
        # The diameter used to fail with numpy's "zero-size array" ValueError.
        with pytest.raises(ValidationError, match="at least one point"):
            cg.AttractorCloud.from_points([], 0.0)


_SIGNED_ROWS = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 5e-324]), min_size=d, max_size=d),
    min_size=1, max_size=60))


@given(rows=_SIGNED_ROWS)
@settings(max_examples=300, deadline=None)
def test_dedupe_drops_the_exact_duplicates_np_unique_drops(rows):
    # _dedupe compares adjacent rows of the lexsorted points in place of
    # np.unique(axis=0): the same rows, and of rows equal up to the sign of
    # a zero the first in sorted order (np.unique's choice among them
    # depends on its unstable sort).
    from chaosgame.ifs import _dedupe, _lexsort_points

    pts = _lexsort_points(np.array(rows))
    kept = []
    for row in pts.tolist():
        if not kept or row != kept[-1]:    # == treats -0.0 and 0.0 as equal
            kept.append(row)
    out, moved = _dedupe(pts, 0.0)
    assert moved == 0.0
    assert out.tobytes() == np.array(kept).tobytes()
    assert np.array_equal(out, np.unique(pts, axis=0))


_RADII = (st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
          | st.sampled_from([5e-324, 2.0 ** -1070, 1.7976931348623157e308, math.inf]))
_SIZES_CLOUD = cg.cloud_at_depth(cg.cantor_ifs(), 6)


@given(sizes=st.dictionaries(_RADII, st.integers(1, _SIZES_CLOUD.size), max_size=30))
@settings(max_examples=200, deadline=None)
def test_cover_sidecar_round_trips_radii_exactly(sizes):
    # The greedy-cover sizes are stored in the cloud cache file itself.
    cloud = dataclasses.replace(_SIZES_CLOUD)     # a fresh, empty memo
    cloud.cover_sizes.update(sizes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ifsc"
        cg.write_cloud(path, cloud)
        loaded = cg.read_cloud(path)
        assert os.listdir(tmp) == ["c.ifsc"]
    assert loaded.cover_sizes == sizes
    assert sorted(map(float.hex, loaded.cover_sizes)) == sorted(map(float.hex, sizes))
    assert loaded.points.tobytes() == cloud.points.tobytes()


def _brute_diameter(points):
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


@given(dim=st.integers(2, 3), rank=st.integers(0, 2), data=st.data())
@settings(max_examples=50, deadline=None)
def test_flat_cloud_diameter_is_exact(dim, rank, data):
    # Qhull rejects collinear and coplanar input; the fallback used to keep
    # the coordinate extremes alone and under-report the diameter.  Integer
    # points on an integer line or plane are exactly flat, so the diameter
    # over all pairs is the exact answer.
    rank = min(rank, dim - 1)
    ints = st.integers(-20, 20)
    base = np.array(data.draw(st.lists(ints, min_size=dim, max_size=dim)), float)
    dirs = np.array(data.draw(st.lists(st.lists(ints, min_size=dim, max_size=dim),
                                       min_size=rank, max_size=rank)), float)
    # Steps within a disc, so the diameter's ends are rarely coordinate extremes.
    step = st.lists(ints, min_size=rank, max_size=rank).filter(
        lambda v: sum(c * c for c in v) <= 400)
    steps = data.draw(st.lists(step, min_size=65, max_size=120))
    points = base + np.array(steps, float).reshape(len(steps), rank) @ dirs.reshape(rank, dim)
    cloud = cg.AttractorCloud.from_points(points, resolution=0.0)
    assert cloud.diam_lower == _brute_diameter(points)


def _overlapping_systems():
    """Random 1-d and 2-d systems of 2-3 maps, in half of them two maps with
    near-equal offsets, whose clouds _dedupe thins."""
    offset = st.floats(-1.0, 1.0)

    @st.composite
    def system(draw):
        dim = draw(st.integers(1, 2))
        maps = []
        for _ in range(draw(st.integers(2, 3))):
            r = draw(st.floats(0.2, 0.6 if dim == 1 else 0.5))
            turn = draw(st.floats(0.0, 2 * math.pi))
            matrix = [[r]] if dim == 1 else r * np.array(
                [[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
            maps.append((matrix, [draw(offset) for _ in range(dim)]))
        if draw(st.booleans()):
            nudge = draw(st.floats(-1e-3, 1e-3))
            maps[1] = (maps[1][0], [o + nudge for o in maps[0][1]])
        return maps
    return system()


_THINNED = [([[a]], [b]) for a, b in zip((0.35808583, 0.57402448, 0.59157422),
                                         (0.27178271, 0.71164456, 0.87203577))]


@given(maps=_overlapping_systems(), target=st.floats(0.02, 0.05))
@example(maps=_THINNED, target=0.0245)
@example(maps=_THINNED, target=0.016)
@settings(max_examples=15, deadline=None)
def test_thinned_cloud_keeps_its_certificate(maps, target):
    # Points of A from deeper compositions lie within cloud.resolution of the
    # cloud.  _dedupe moves the depth-m points it drops; the resolution used
    # to leave that distance out, and in the first example depth-13 points
    # lay 1.034 x resolution from the cloud.  In the second, the distance
    # takes the depth-9 cloud past the target, so the cloud is built at
    # depth 10.
    from chaosgame.ifs import _hutchinson_points

    ifs = cg.IfsSystem.create(cg.AffineMap.create(m, o) for m, o in maps)
    try:
        cloud = cg.build_cloud(ifs, target, point_budget=2 ** 15)
    except CapExceededError:
        reject()
    deepest = int(math.log(2 ** 21 / ifs.dim) / math.log(ifs.alphabet_size))
    deep = _hutchinson_points(ifs, min(cloud.depth + 4, deepest))
    assert cloud.grid.query(deep)[0].max() <= cloud.resolution * (1 + 1e-12)
    assert cloud.resolution <= target


class TestCloudCache:
    def test_round_trip(self, tmp_path, cantor):
        cloud = cg.build_cloud(cantor, 1e-3)
        path = tmp_path / "c.ifsc"
        cg.write_cloud(path, cloud)
        loaded = cg.read_cloud(path)
        assert (loaded.points == cloud.points).all()
        assert loaded.resolution == cloud.resolution
        assert loaded.depth == cloud.depth

    def test_byte_identical(self, tmp_path, cantor):
        a, b = tmp_path / "a.ifsc", tmp_path / "b.ifsc"
        cg.write_cloud(a, cg.build_cloud(cantor, 1e-3))
        cg.write_cloud(b, cg.build_cloud(cantor, 1e-3))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()[:4] == b"IFSC"

    @staticmethod
    def _with_sizes(path, sizes) -> Path:
        """path's cloud cache file with its cover sizes replaced by the
        (radius, count) pairs sizes, in their order, and a fresh sha256."""
        raw = bytearray(path.read_bytes()[:-32])
        del raw[40 + cg.read_cloud(path).points.nbytes:]
        raw[32:40] = len(sizes).to_bytes(8, "little")
        raw += np.array(sizes, dtype=[("r", "<f8"), ("n", "<u8")]).tobytes()
        path.write_bytes(bytes(raw) + hashlib.sha256(raw).digest())
        return path

    @pytest.mark.parametrize("sizes,bad", [
        ([(0.0, 1)], "radius 0.0, count 1"), ([(-0.5, 1)], "radius -0.5"),
        ([(math.nan, 1)], "radius nan"), ([(0.5, 1), (0.5, 1)], "radius 0.5"),
        ([(0.5, 2), (0.25, 4)], "radius 0.25"), ([(0.5, 0)], "radius 0.5, count 0"),
        ([(0.5, 65)], "radius 0.5, count 65")],
        ids=["zero", "negative", "nan", "repeated", "descending", "count-0", "count-65"])
    def test_bad_cover_sizes_rejected(self, tmp_path, sizes, bad):
        path = tmp_path / "c.ifsc"
        cg.write_cloud(path, cg.cloud_at_depth(cg.cantor_ifs(), 6))   # 64 points
        assert cg.read_cloud(self._with_sizes(path, [(0.5, 2), (math.inf, 1)])
                             ).cover_sizes == {0.5: 2, math.inf: 1}
        self._with_sizes(path, sizes)
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: bad cover size in cloud cache: {bad}")):
            cg.read_cloud(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ifsc"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValidationError, match="magic"):
            cg.read_cloud(path)

    @pytest.mark.parametrize("coords", [[[-1e308], [1e308]],
                                        [[0.0, 0.0], [1e200, -1e200]]],
                                       ids=["1d", "2d"])
    def test_overflowing_diameter_rejected(self, tmp_path, coords):
        # Finite coordinates whose diameter overflows to inf used to load, with
        # an overflow RuntimeWarning from the diameter computation.
        cloud = cg.AttractorCloud.from_points(np.zeros((2, len(coords[0]))), 0.0)
        path = tmp_path / "huge.ifsc"
        cg.write_cloud(path, dataclasses.replace(cloud, points=np.array(coords)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(f"{path}: cloud cache diameter is not finite")):
                cg.read_cloud(path)

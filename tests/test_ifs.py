"""Affine maps, orbits, attractor clouds, Hausdorff distance, cloud cache."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaosgame as cg
from chaosgame.errors import CapExceededError, ValidationError


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

    @given(a=st.floats(-0.99, 0.99), b=st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_fixed_point_property(self, a, b):
        m = cg.scalar_map(a, b)
        x = cg.fixed_point(m)
        assert abs(m(x)[0] - x[0]) <= 1e-10 * (1 + abs(x[0]))


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


class TestFromPoints:
    def test_flat_list_is_points_on_the_line(self):
        cloud = cg.AttractorCloud.from_points([1.0, 0.0, 0.5], resolution=0.0)
        assert cloud.points.tolist() == [[0.0], [0.5], [1.0]]
        assert cloud.diam_lower == 1.0

    def test_rank_3_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            cg.AttractorCloud.from_points(np.zeros((2, 1, 1)), resolution=0.0)


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

"""Recovery times, covering estimates, box dimension, rate diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import chaosgame as cg
from chaosgame import metrics
from chaosgame.errors import CapExceededError, ValidationError


class TestRecoveryTime:
    def test_single_map_is_zero(self):
        ifs = cg.IfsSystem.create([cg.scalar_map(0.5, 0.0)])
        cloud = cg.AttractorCloud.from_points([[0.0]], resolution=0.0)
        ones = cg.DriverStream("ones", 1, lambda: iter(lambda: 1, 0))
        rec = cg.recovery_time(ifs, ones, [0.0], 0.1, cloud)
        assert rec.n == 0

    def test_example4_oracles(self, halving, exact_halving_cloud):
        driver = cg.example4_driver(1.0)
        r1 = cg.recovery_time(halving, driver, [1.0], 2.0 ** -3,
                              exact_halving_cloud)
        r0 = cg.recovery_time(halving, driver, [0.0], 2.0 ** -3,
                              exact_halving_cloud)
        assert r1.n == 26   # floor(3*2^3) + 3 - 1
        assert r0.n == 9    # block max(3-1, 2*k0) = 2: floor(2*2^2) + 3 - 2
        assert r1.guard == 0.0

    def test_minimality_certificate(self, cantor, cantor_cloud_coarse):
        # re-simulating from scratch confirms coverage at n and refutes at n-1
        eps = 1 / 27
        rec = cg.recovery_time(cantor, cg.champernowne(2), [0.0], eps,
                               cantor_cloud_coarse)
        assert rec.n is not None and rec.n > 0
        assert cg.coverage_holds(cantor, cg.champernowne(2), [0.0], eps,
                                 cantor_cloud_coarse, rec.n)
        assert not cg.coverage_holds(cantor, cg.champernowne(2), [0.0], eps,
                                     cantor_cloud_coarse, rec.n - 1)

    def test_cap_exceeded_reported(self, cantor, cantor_cloud_coarse):
        ones = cg.DriverStream("ones", 2, lambda: iter(lambda: 1, 0))
        rec = cg.recovery_time(cantor, ones, [0.0], 0.01,
                               cantor_cloud_coarse, cap=500)
        assert rec.n is None
        assert rec.exceeded

    def test_uncertifiable_eps_rejected(self, cantor, cantor_cloud_coarse):
        with pytest.raises(ValidationError, match="resolution"):
            cg.recovery_time(cantor, cg.champernowne(2), [0.0],
                             cantor_cloud_coarse.resolution / 2,
                             cantor_cloud_coarse)

    def test_does_not_consume_driver(self, cantor, cantor_cloud_coarse):
        d = cg.champernowne(2)
        cg.recovery_time(cantor, d, [0.0], 0.1, cantor_cloud_coarse)
        assert list(d.segment(0, 2)) == [1, 2]


class TestCoveringEstimate:
    def test_bracket_orders(self, cantor_cloud_coarse):
        for eps in (0.5, 1 / 6, 0.01):
            est = cg.covering_estimate(cantor_cloud_coarse.points, eps)
            assert 1 <= est.lower <= est.upper

    def test_cantor_half(self, cantor_cloud_coarse):
        # The true N(1/2) is 1; the point-centered greedy upper is 2 because
        # centers are restricted to cloud points (see the ledger on the
        # unconstrained-center variant).
        est = cg.covering_estimate(cantor_cloud_coarse.points, 0.5)
        assert est.lower == 1
        assert est.upper <= 2

    def test_cantor_sixth_lower(self, cantor_cloud_coarse):
        # One interval of length 1/3 cannot contain both 0 and 1, so the
        # packing bound certifies N(1/6) >= 2.
        est = cg.covering_estimate(cantor_cloud_coarse.points, 1 / 6)
        assert est.lower == 2

    def test_upper_monotone_in_eps(self, cantor_cloud_coarse):
        eps = [0.4, 0.2, 0.1, 0.05, 0.02]
        uppers = [cg.covering_estimate(cantor_cloud_coarse.points, e).upper
                  for e in eps]
        assert all(b >= a for a, b in zip(uppers, uppers[1:]))

    def test_deterministic(self, cantor_cloud):
        a = cg.covering_estimate(cantor_cloud.points, 0.01)
        b = cg.covering_estimate(cantor_cloud.points, 0.01)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValidationError):
            cg.covering_estimate(np.empty((0, 1)), 0.1)
        with pytest.raises(ValidationError):
            cg.covering_estimate([[0.0]], 0.0)

    def test_flat_list_is_points_on_the_line(self):
        # A flat list used to be read as one 3-dimensional point (1, 1).
        est = cg.covering_estimate([0, 0.5, 1], 0.3)
        assert (est.lower, est.upper) == (2, 3)
        assert est == cg.covering_estimate([[0.0], [0.5], [1.0]], 0.3)

    def test_rank_3_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            cg.covering_estimate(np.zeros((2, 1, 1)), 0.1)


class TestBoxDimension:
    def test_single_point_is_zero(self):
        cloud = cg.AttractorCloud.from_points([[0.0]], resolution=0.0)
        assert cg.box_dimension(cloud, 0.5, 0.5, 1, 3).value == 0.0

    def test_segment(self):
        cloud = cg.build_cloud(cg.segment_ifs(), 1e-4)
        est = cg.box_dimension(cloud, 1.0, 0.5, 4, 10)
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_cantor(self, cantor_cloud):
        est = cg.box_dimension(cantor_cloud, 1.0, 1 / 3, 4, 10)
        assert est.value == pytest.approx(math.log(2) / math.log(3), abs=0.05)

    def test_window_filter_error(self, cantor_cloud_coarse):
        with pytest.raises(ValidationError, match="usable radii"):
            cg.box_dimension(cantor_cloud_coarse, 1e-7, 0.5, 1, 3)

    def test_r_range(self, cantor_cloud_coarse):
        with pytest.raises(ValidationError):
            cg.box_dimension(cantor_cloud_coarse, 1.0, 1.5, 1, 3)


class TestLogRates:
    def test_log_rate_examples(self):
        assert cg.log_rate(8, 0.5) == pytest.approx(3.0)
        assert cg.log_rate(1, 0.7) == 0.0
        assert cg.log_rate(0, 0.5) is None

    def test_iterated_log_rate(self):
        assert cg.iterated_log_rate(1619, math.exp(-1), 2) == \
            pytest.approx(2.0, abs=0.01)
        assert cg.iterated_log_rate(2, 0.5, 3) == float("-inf")
        n, eps = 1000, 0.1
        assert cg.iterated_log_rate(n, eps, 1) == pytest.approx(
            cg.log_rate(n, eps))

    def test_rate_ratio(self):
        psi = cg.power_rate(1.0)
        n = math.ceil(psi(1e-3))
        assert 1.0 <= cg.rate_ratio(n, psi, 1e-3) <= 1.001
        assert cg.rate_ratio(50, cg.power_rate(2.0), 0.1) == pytest.approx(0.5)

    def test_rate_ratio_iterexp_identity(self):
        psi = cg.iterexp_rate(2)
        eps = 1.0 / math.log(10 ** 6)
        assert cg.rate_ratio(10 ** 6, psi, eps) == pytest.approx(1.0, rel=1e-9)

    def test_rate_ratio_saturation(self):
        with pytest.raises(CapExceededError, match="saturated"):
            cg.rate_ratio(10, cg.iterexp_rate(3), 1e-3)


class TestKeyInequality:
    def test_trivial_true(self):
        rec = cg.RecoveryRecord(eps=0.1, n=0, x0=np.array([0.0]), driver="d",
                                guard=0.0, cap=10)
        cover = cg.CoverEstimate(eps=0.1, lower=1, upper=1)
        assert cg.key_inequality_check(rec, cover)

    def test_synthetic_violation_detected(self):
        rec = cg.RecoveryRecord(eps=0.1, n=0, x0=np.array([0.0]), driver="d",
                                guard=0.0, cap=10)
        cover = cg.CoverEstimate(eps=0.1, lower=2, upper=3)
        assert not cg.key_inequality_check(rec, cover)

    def test_eps_must_match(self):
        rec = cg.RecoveryRecord(eps=0.1, n=5, x0=np.array([0.0]), driver="d",
                                guard=0.0, cap=10)
        cover = cg.CoverEstimate(eps=0.2, lower=1, upper=1)
        with pytest.raises(ValidationError):
            cg.key_inequality_check(rec, cover)

    def test_cantor_champernowne_sweep(self, cantor, cantor_cloud):
        eps = 3.0 ** -6
        cover = cg.covering_estimate(cantor_cloud.points, eps)
        for x0 in (0.0, 0.25, 0.5, 1.0, 2.0):
            rec = cg.recovery_time(cantor, cg.champernowne(2), [x0], eps,
                                   cantor_cloud)
            assert cg.key_inequality_check(rec, cover)


# Scalar contractions with exact and drawn coefficients; a = 0 and b = 0
# give maps whose runs reach their fixed point bit for bit (a = 0 at once,
# b = 0 by underflow to 0 after several hundred steps).
_COEFF_A = st.sampled_from([0.5, 1 / 3, -0.5, 0.0, 0.25]) | st.floats(-0.9, 0.9)
_COEFF_B = st.sampled_from([0.0, 1.0, 2 / 3, -0.25]) | st.floats(-1.0, 1.0)


@st.composite
def _line_recovery_case(draw):
    K = draw(st.integers(1, 3))
    ifs = cg.IfsSystem.create([cg.scalar_map(draw(_COEFF_A), draw(_COEFF_B))
                               for _ in range(K)])
    # A cloud of attractor points: an orbit from the first map's fixed point.
    start = cg.fixed_point(ifs.maps[0])
    pts = cg.run_orbit(ifs, cg.random_driver(K, draw(st.integers(0, 99))),
                       start, draw(st.integers(0, 60))).points
    cloud = cg.AttractorCloud.from_points(pts, resolution=0.0)
    if draw(st.booleans()):
        runs = draw(st.lists(st.tuples(st.integers(1, K),
                                       st.sampled_from([1, 2, 3, 70, 1200])),
                             min_size=1, max_size=12))
        word = tuple(s for sym, length in runs for s in [sym] * length)
        make = lambda: cg.literal_driver(cg.Word(word, K))   # noqa: E731
    else:
        seed = draw(st.integers(0, 10 ** 6))
        make = lambda: cg.random_driver(K, seed)   # noqa: E731
    x0 = draw(st.sampled_from([0.0, 1.0]) | st.floats(-3.0, 3.0))
    return ifs, make, [x0], cloud


def _check_minimal(ifs, make, x0, cloud, eps, cap=3000):
    """recovery_time's n against from-scratch orbits and a cKDTree
    (coverage_holds), which do not go through the engine: coverage holds
    at n and fails at n - 1."""
    rec = cg.recovery_time(ifs, make(), x0, eps, cloud, cap=cap)
    if rec.n is None:
        try:
            assert not cg.coverage_holds(ifs, make(), x0, eps, cloud, cap)
        except CapExceededError:     # a finite word ran out first
            pass
        return None
    assert cg.coverage_holds(ifs, make(), x0, eps, cloud, rec.n)
    if rec.n > 0:
        assert not cg.coverage_holds(ifs, make(), x0, eps, cloud, rec.n - 1)
    return rec.n


class TestLineRecoveryEngine:
    """The 1-d engine against from-scratch orbits and a cKDTree
    (coverage_holds), which do not go through the engine."""

    @given(case=_line_recovery_case(), eps=st.floats(1e-9, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_minimal_at_drawn_eps(self, case, eps):
        _check_minimal(*case, eps)

    @given(case=_line_recovery_case(), pick=st.integers(0, 10 ** 6),
           length=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_minimal_at_exact_distance(self, case, pick, length):
        # eps equal to the distance from a cloud point to its nearest orbit
        # point puts that cloud point exactly on the ball's boundary.  The
        # tree squares distances, so below 1e-150 (squares near the
        # subnormal range) its distances are rounded and it is no oracle.
        ifs, make, x0, cloud = case
        try:
            orbit = cg.run_orbit(ifs, make(), x0, length).points
        except CapExceededError:
            return
        dist = cKDTree(orbit).query(cloud.points)[0]
        eps = float(dist[pick % dist.size])
        if eps > 1e-150:
            _check_minimal(ifs, make, x0, cloud, eps)

    def test_fixed_point_run_is_filled(self, cantor, cantor_cloud_coarse):
        # Each run of 5000 first Cantor maps pins the orbit at 0 bit for bit
        # after about 680 steps.  At eps = 0.05 only the periodic tail after
        # the second run completes the cover, more than 10,000 steps in.
        word = (1,) * 5000 + (2,) * 3 + (1,) * 5000 + (2, 1, 2, 2) * 200
        make = lambda: cg.literal_driver(cg.Word(word, 2))   # noqa: E731
        n = _check_minimal(cantor, make, [0.9], cantor_cloud_coarse, 0.05, cap=20000)
        assert n is not None and n > 10000

    def test_oracles_do_not_use_the_engine(self, monkeypatch, cantor,
                                           cantor_cloud_coarse):
        def unavailable(*args, **kwargs):
            raise AssertionError("oracle routed through the recovery engine")

        for name in ("_line_stepper", "_map_stepper", "_LineCover", "_PairCover"):
            monkeypatch.setattr(metrics, name, unavailable)
        orbit = cg.run_orbit(cantor, cg.champernowne(2), [0.0], 3)
        assert np.allclose(orbit.points.ravel(), [0.0, 0.0, 2 / 3, 2 / 9])
        assert cg.coverage_holds(cantor, cg.champernowne(2), [0.0], 0.5,
                                 cantor_cloud_coarse, 2)


# Planar contractions: diagonal entries within 0.5 and off-diagonal ones
# within 0.45 keep the operator norm below the Frobenius norm, at most
# 0.96; the off-diagonal entries are never zero, so each map mixes the
# coordinates.
_DIAGONAL = st.sampled_from([0.0, 0.5, -0.25]) | st.floats(-0.5, 0.5)
_OFF_DIAGONAL = (st.sampled_from([0.25, -0.125]) | st.floats(0.01, 0.45)
                 | st.floats(-0.45, -0.01))
_OFFSET = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-1.0, 1.0)
# Runs around the edges of the growing chunks (orbit points 1..128,
# 129..384, 385..896, ...), so first hits land on either side of them.
_RUN = st.sampled_from([1, 2, 3, 127, 128, 129, 255, 256, 257, 511, 512, 700])


@st.composite
def _plane_recovery_case(draw):
    K = draw(st.integers(1, 3))
    ifs = cg.IfsSystem.create([
        cg.AffineMap.create([[draw(_DIAGONAL), draw(_OFF_DIAGONAL)],
                             [draw(_OFF_DIAGONAL), draw(_DIAGONAL)]],
                            [draw(_OFFSET), draw(_OFFSET)])
        for _ in range(K)])
    start = cg.fixed_point(ifs.maps[0])
    pts = cg.run_orbit(ifs, cg.random_driver(K, draw(st.integers(0, 99))),
                       start, draw(st.integers(0, 40))).points
    cloud = cg.AttractorCloud.from_points(pts, resolution=0.0)
    if draw(st.booleans()):
        runs = draw(st.lists(st.tuples(st.integers(1, K), _RUN),
                             min_size=1, max_size=10))
        word = tuple(s for sym, length in runs for s in [sym] * length)
        make = lambda: cg.literal_driver(cg.Word(word, K))   # noqa: E731
    else:
        seed = draw(st.integers(0, 10 ** 6))
        make = lambda: cg.random_driver(K, seed)   # noqa: E731
    x0 = draw(st.sampled_from([(0.0, 0.0), (1.0, -1.0)])
              | st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    return ifs, make, list(x0), cloud


class TestPlaneRecoveryEngine:
    """The d-dim engine (pairs from the cloud's kd-tree) against
    from-scratch orbits and coverage_holds."""

    @given(case=_plane_recovery_case(), eps=st.floats(1e-6, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_minimal_at_drawn_eps(self, case, eps):
        _check_minimal(*case, eps)

    @given(case=_plane_recovery_case(), pick=st.integers(0, 10 ** 6),
           length=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_minimal_at_exact_distance(self, case, pick, length):
        # eps equal to the distance from a cloud point to its nearest orbit
        # point; eps**2 rounds to either side of that pair's squared
        # distance, so both sides of the ball's boundary are exercised.
        ifs, make, x0, cloud = case
        try:
            orbit = cg.run_orbit(ifs, make(), x0, length).points
        except CapExceededError:
            return
        dist = cKDTree(orbit).query(cloud.points)[0]
        eps = float(dist[pick % dist.size])
        if eps > 1e-150:
            _check_minimal(ifs, make, x0, cloud, eps)

    @pytest.mark.parametrize("last", [127, 128, 129, 384, 385, 896, 897])
    def test_last_hit_at_chunk_edges(self, last):
        # A run of the first map pulls the orbit to its fixed point 0; the
        # one second-map step at orbit point `last` is the first to reach
        # f2(0) = (1, 0), the cloud's other point.
        rot = [[0.5, 0.25], [-0.25, 0.5]]
        ifs = cg.IfsSystem.create([cg.AffineMap.create(rot, [0.0, 0.0]),
                                   cg.AffineMap.create(rot, [1.0, 0.0])])
        cloud = cg.AttractorCloud.from_points([[0.0, 0.0], [1.0, 0.0]],
                                              resolution=0.0)
        word = (1,) * (last - 1) + (2,) + (1,) * 10
        make = lambda: cg.literal_driver(cg.Word(word, 2))   # noqa: E731
        assert _check_minimal(ifs, make, [0.1, 0.1], cloud, 0.01) == last


def _tree_greedy(points, r):
    """Reference: greedy ball cover over cKDTree ball queries, in index order."""
    tree = cKDTree(points)
    covered = np.zeros(points.shape[0], dtype=bool)
    count = 0
    for i in range(points.shape[0]):
        if not covered[i]:
            covered[tree.query_ball_point(points[i], r)] = True
            count += 1
    return count


class TestLineCoveringJump:
    @given(eps=st.sampled_from([0.1, 1 / 3, 2.0 ** -7, 0.3]) | st.floats(1e-6, 1.0),
           steps=st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=80),
           jitter=st.lists(st.floats(0.0, 1.0), max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_matches_tree_greedy(self, eps, steps, jitter):
        # Points at multiples of eps: duplicates (step 0) and gaps of
        # exactly eps and 2*eps as floating point computes them.
        grid = np.cumsum(steps) * eps
        values = np.sort(np.concatenate([grid, np.asarray(jitter, dtype=float)]))
        pts = values[:, None]
        est = cg.covering_estimate(pts, eps)
        assert est.upper == _tree_greedy(pts, eps)
        assert est.lower == _tree_greedy(pts, 2.0 * eps)

    def test_unsorted_input_uses_the_tree(self):
        pts = np.array([[0.5], [0.0], [1.0], [0.55]])
        est = cg.covering_estimate(pts, 0.3)
        assert (est.lower, est.upper) == (_tree_greedy(pts, 0.6),
                                           _tree_greedy(pts, 0.3))


class TestPlaneCovering:
    @given(pts=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1),
                                  st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0, 1)),
                        min_size=1, max_size=300),
           eps=st.sampled_from([0.25, 0.125, 0.5]) | st.floats(0.01, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_matches_tree_greedy(self, pts, eps):
        # Runs of covered points longer and shorter than the 64-point first
        # window of the skip, duplicates, and distances of exactly eps.
        pts = np.array(pts)
        est = cg.covering_estimate(pts, eps)
        assert est.upper == _tree_greedy(pts, eps)
        assert est.lower == _tree_greedy(pts, 2.0 * eps)

    def test_cloud_reuses_its_tree(self, monkeypatch):
        cloud = cg.cloud_at_depth(cg.sierpinski_ifs(), 7)
        expected = [cg.covering_estimate(cloud.points, 2.0 ** -k) for k in (2, 5, 8)]

        def no_new_tree(*args, **kwargs):
            raise AssertionError("covering_estimate built a kd-tree")

        monkeypatch.setattr(metrics, "cKDTree", no_new_tree)
        assert [cg.covering_estimate(cloud, 2.0 ** -k) for k in (2, 5, 8)] == expected

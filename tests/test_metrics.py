"""Recovery times, covering estimates, box dimension, rate diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import chaosgame as cg
from chaosgame import metrics
from chaosgame.errors import CapExceededError, ValidationError
from helpers import cloud_at_depth


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

    def test_uncertifiable_eps_rejected(self, cantor, cantor_cloud_coarse):
        with pytest.raises(ValidationError, match="resolution"):
            cg.recovery_time(cantor, cg.champernowne(2), [0.0],
                             cantor_cloud_coarse.resolution / 2,
                             cantor_cloud_coarse)

    @pytest.mark.parametrize("item", [cg.Run(3, 5), (1, 3)], ids=["run", "array"])
    def test_invalid_symbol(self, cantor, cantor_cloud_coarse, item):
        bad = cg.DriverStream("bad", 2, lambda: iter([item]))
        with pytest.raises(ValidationError, match="invalid symbol"):
            cg.recovery_time(cantor, bad, [0.0], 0.01, cantor_cloud_coarse)

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

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_radius_not_finite(self, eps):
        # covering_estimate(pts, nan) used to return (1, 1).
        with pytest.raises(ValidationError, match="finite"):
            cg.covering_estimate([[0.0], [1.0]], eps)

    def test_flat_list_is_points_on_the_line(self):
        # A flat list used to be read as one 3-dimensional point (1, 1).
        est = cg.covering_estimate([0, 0.5, 1], 0.3)
        assert (est.lower, est.upper) == (2, 3)
        assert est == cg.covering_estimate([[0.0], [0.5], [1.0]], 0.3)

    def test_rank_3_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            cg.covering_estimate(np.zeros((2, 1, 1)), 0.1)

    def test_ragged_rejected(self):
        # numpy's "inhomogeneous shape" ValueError used to escape.
        with pytest.raises(ValidationError, match="array of numbers"):
            cg.covering_estimate([[0], [0, 1]], 0.1)


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

    def test_stops_at_the_resolution(self, cantor_cloud_coarse):
        # b_m = 0.5**14 is the first at or below 2 * resolution (1.02e-4);
        # m_hi = 100,000 used to walk every m up to it.
        powers = []

        class Ratio(float):
            def __pow__(self, m):
                powers.append(m)
                return float(self) ** m

        est = cg.box_dimension(cantor_cloud_coarse, 1.0, Ratio(0.5), 1, 10 ** 5)
        assert powers == list(range(1, 15))
        short = cg.box_dimension(cantor_cloud_coarse, 1.0, 0.5, 1, 13)
        assert (est.value, est.samples) == (short.value, short.samples)


class TestLogRates:
    def test_log_rate_examples(self):
        assert cg.log_rate(8, 0.5) == pytest.approx(3.0)
        assert cg.log_rate(1, 0.7) == 0.0
        assert cg.log_rate(0, 0.5) is None

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
                                guard=0.0)
        cover = cg.CoverEstimate(eps=0.1, lower=1, upper=1)
        assert cg.key_inequality_check(rec, cover)

    def test_synthetic_violation_detected(self):
        rec = cg.RecoveryRecord(eps=0.1, n=0, x0=np.array([0.0]), driver="d",
                                guard=0.0)
        cover = cg.CoverEstimate(eps=0.1, lower=2, upper=3)
        assert not cg.key_inequality_check(rec, cover)

    def test_eps_must_match(self):
        rec = cg.RecoveryRecord(eps=0.1, n=5, x0=np.array([0.0]), driver="d",
                                guard=0.0)
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
                       start, draw(st.integers(0, 60)))
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
           length=st.integers(0, 400) | st.integers(2049, 10000))
    @settings(max_examples=60, deadline=None)
    def test_minimal_at_exact_distance(self, case, pick, length):
        # eps equal to the distance from a cloud point to its nearest orbit
        # point puts that cloud point exactly on the ball's boundary.  The
        # tree squares distances, so below 1e-150 (squares near the
        # subnormal range) its distances are rounded and it is no oracle.
        # Orbits past 3,968 points reach the first chunk stepped in lanes.
        ifs, make, x0, cloud = case
        try:
            orbit = cg.run_orbit(ifs, make(), x0, length)
        except CapExceededError:
            return
        dist = cKDTree(orbit).query(cloud.points)[0]
        eps = float(dist[pick % dist.size])
        if eps > 1e-150:
            _check_minimal(ifs, make, x0, cloud, eps, cap=max(3000, length + 2000))

    def test_fixed_point_run_is_filled(self, cantor, cantor_cloud_coarse):
        # Each run of 5000 first Cantor maps pins the orbit at 0 bit for bit
        # after about 680 steps; the rest of the run is still stepped, and
        # each of its steps holds x and gives no point.  At
        # eps = 0.05 only the periodic tail after the second run completes
        # the cover, more than 10,000 steps in.
        word = (1,) * 5000 + (2,) * 3 + (1,) * 5000 + (2, 1, 2, 2) * 200
        make = lambda: cg.literal_driver(cg.Word(word, 2))   # noqa: E731
        n = _check_minimal(cantor, make, [0.9], cantor_cloud_coarse, 0.05, cap=20000)
        assert n is not None and n > 10000

    @pytest.mark.parametrize("lo,c_lo,hi,c_hi", [(0.5, 0.25, 0.75, 1.0),
                                                 (0.31, 0.08, 0.35, 0.58)],
                             ids=["dyadic", "rounded"])
    def test_chunk_edges_exactly_eps_from_equal_cloud_values(self, lo, c_lo, hi, c_hi):
        # The chunk's lowest point lies exactly eps above two equal cloud
        # values and its highest exactly eps below two more (y - c rounds to
        # -eps and to eps): those four are covered, and the nearest values
        # beyond them only by the next chunk.  Checked against abs(p - y) <= eps
        # on every pair.
        eps = lo - c_lo
        assert c_lo - lo == -eps and c_hi - hi == eps
        beyond = [c_lo, c_hi]
        for i, (y, way) in enumerate([(lo, -np.inf), (hi, np.inf)]):
            while abs(beyond[i] - y) <= eps:
                beyond[i] = float(np.nextafter(beyond[i], way))
        values = np.array([beyond[0], c_lo, c_lo, (lo + hi) / 2, c_hi, c_hi, beyond[1]])
        cover = metrics._LineCover(values, eps)
        ys = np.array([hi, lo])
        assert cover(ys, np.array([3, 4])) is None
        assert cover.uncovered.tolist() == [
            p for p in values.tolist() if not any(abs(p - y) <= eps for y in ys)] == beyond
        assert cover(np.array(beyond), np.array([7, 8])) == 8

    def test_oracles_do_not_use_the_engine(self, monkeypatch, cantor,
                                           cantor_cloud_coarse):
        def unavailable(*args, **kwargs):
            raise AssertionError("oracle routed through the recovery engine")

        # The lanes are closures of _stepper; it has no other helper.
        for name in ("_stepper", "_LineCover", "_PairCover"):
            monkeypatch.setattr(metrics, name, unavailable)
        orbit = cg.run_orbit(cantor, cg.champernowne(2), [0.0], 3)
        assert np.allclose(orbit.ravel(), [0.0, 0.0, 2 / 3, 2 / 9])
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
                       start, draw(st.integers(0, 40)))
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
            orbit = cg.run_orbit(ifs, make(), x0, length)
        except CapExceededError:
            return
        dist = cKDTree(orbit).query(cloud.points)[0]
        eps = float(dist[pick % dist.size])
        if eps > 1e-150:
            _check_minimal(ifs, make, x0, cloud, eps)

    @pytest.mark.parametrize("budget", [1, 2 ** 10])
    def test_queries_in_pieces_keep_n(self, monkeypatch, budget):
        # A small _PAIRS cuts chunks into pieces, down to one orbit point
        # each.
        ifs = cg.sierpinski_ifs()
        cloud = cg.build_cloud(ifs, 0.01)
        cases = [(x0, eps) for x0 in ([0.0, 0.0], [0.3, 0.6]) for eps in (0.2, 0.05, 0.02)]
        queries, pairs = [], metrics._PairCover._pairs
        monkeypatch.setattr(metrics._PairCover, "_pairs",
                            lambda self, ys: queries.append(len(ys)) or pairs(self, ys))
        whole = [_check_minimal(ifs, lambda: cg.infinite_de_bruijn(3), x0, cloud, eps)
                 for x0, eps in cases]
        unsplit = len(queries)
        queries.clear()
        monkeypatch.setattr(metrics, "_PAIRS", budget)
        assert [cg.recovery_time(ifs, cg.infinite_de_bruijn(3), x0, eps, cloud).n
                for x0, eps in cases] == whole
        assert len(queries) > unsplit

    @pytest.mark.parametrize("eps, n", [(0.5, 3), (0.25, 9)])
    def test_pieces_query_each_orbit_point_once(self, monkeypatch, eps, n):
        # At coarse eps the chunk that completes the cover is cut into
        # pieces; the pieces query the chunk's orbit points in orbit order,
        # each once, and the piece that covers the last points gives n.
        ifs = cg.sierpinski_ifs()
        cloud = cg.build_cloud(ifs, 0.01)
        assert cloud.size == 2187
        chunks, queried = [], []
        call, pairs = metrics._PairCover.__call__, metrics._PairCover._pairs
        monkeypatch.setattr(metrics._PairCover, "__call__",
                            lambda self, ys, at: chunks.append(ys) or call(self, ys, at))
        monkeypatch.setattr(metrics._PairCover, "_pairs",
                            lambda self, ys: queried.append(ys) or pairs(self, ys))
        x0 = [0.3, 0.2]
        assert _check_minimal(ifs, lambda: cg.infinite_de_bruijn(3), x0, cloud, eps) == n
        orbit, seen = np.concatenate(chunks), np.concatenate(queried)
        assert len(queried[-1]) < len(chunks[-1])    # the last chunk came in pieces
        assert np.array_equal(seen, orbit[:len(seen)])

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

    def test_fixed_point_run_is_filled(self):
        # The first map's orbit from (0.9, -0.7) reaches its fixed point
        # (2, 0) bit for bit after 63 steps; the rest of each run of 5000
        # first maps is still stepped, and each of its steps holds x and gives
        # no point.  At eps = 0.1 only the Champernowne tail after the
        # second run completes the cover, more than 10,000 steps in.
        rot = [[0.5, 0.25], [-0.25, 0.5]]
        ifs = cg.IfsSystem.create([cg.AffineMap.create(rot, [1.0, 0.5]),
                                   cg.AffineMap.create(rot, [0.0, 0.0])])
        x, f = (0.9, -0.7), ifs.maps[0].on_floats
        for _ in range(100):
            x = f(x)
        assert f(x) == x == (2.0, 0.0)
        tail = tuple(cg.champernowne(2).segment(0, 4000).tolist())
        word = (1,) * 5000 + (2,) * 3 + (1,) * 5000 + tail
        make = lambda: cg.literal_driver(cg.Word(word, 2))   # noqa: E731
        cloud = cg.build_cloud(ifs, 0.05)
        n = _check_minimal(ifs, make, [0.9, -0.7], cloud, 0.1, cap=20000)
        assert n is not None and n > 10000


def _two_point_case(dim):
    """A system whose first map pins the orbit at 0 bit for bit (by
    underflow, after about 700 steps in 1-d and 1,300 in 2-d) and whose
    second map sends 0 to the cloud's other point exactly."""
    if dim == 1:
        return (cg.cantor_ifs(), [0.1],
                cg.AttractorCloud.from_points([[0.0], [2 / 3]], resolution=0.0))
    rot = [[0.5, 0.25], [-0.25, 0.5]]
    ifs = cg.IfsSystem.create([cg.AffineMap.create(rot, [0.0, 0.0]),
                               cg.AffineMap.create(rot, [1.0, 0.0])])
    return (ifs, [0.1, 0.1],
            cg.AttractorCloud.from_points([[0.0, 0.0], [1.0, 0.0]], resolution=0.0))


def _literal(word, K=2):
    return lambda: cg.literal_driver(cg.Word(tuple(word), K))


@pytest.mark.parametrize("dim", [1, 2])
class TestSkippedRuns:
    """Runs held at a fixed point are skipped; the engine still gives the
    oracle's n.  Chunks cover orbit points 1..128, 129..384, ..., 3969..8064,
    8065..16256, 16257..24448, and so on in steps of 8,192."""

    @pytest.mark.parametrize("last", [8064, 8065, 16256, 16257, 24448, 24449, 30000])
    def test_last_hit_after_long_run(self, dim, last):
        # Only the second map's step at orbit point `last` reaches the
        # cloud's other point; the run before it is longer than a chunk and
        # ends on or next to a chunk edge.
        ifs, x0, cloud = _two_point_case(dim)
        word = (1,) * (last - 1) + (2,) + (1,) * 9000 + (2,)
        assert _check_minimal(ifs, _literal(word), x0, cloud, 0.01, cap=50000) == last

    @pytest.mark.parametrize("cap", [3000, 8064, 8065, 16256, 19999])
    def test_cap_inside_skipped_run(self, dim, cap):
        ifs, x0, cloud = _two_point_case(dim)
        make = _literal((1,) * 19999 + (2,))
        rec = cg.recovery_time(ifs, make(), x0, 0.01, cloud, cap=cap)
        assert rec.n is None
        assert _check_minimal(ifs, make, x0, cloud, 0.01, cap=cap) is None
        assert cg.recovery_time(ifs, make(), x0, 0.01, cloud, cap=20000).n == 20000

    @pytest.mark.parametrize("length", [8064, 8065, 20000])
    def test_finite_driver_ends_inside_run(self, dim, length):
        ifs, x0, cloud = _two_point_case(dim)
        make = _literal((2,) + (1,) * length)
        rec = cg.recovery_time(ifs, make(), x0, 0.01, cloud, cap=10 ** 6)
        assert rec.n is None
        assert _check_minimal(ifs, make, x0, cloud, 0.01, cap=10 ** 6) is None

    def test_held_chunks_make_no_cover_call(self, dim, monkeypatch):
        # 100,000 symbols make 18 chunks; every chunk after the orbit
        # reaches 0 and before the last one adds no point.
        calls = []
        for name in ("_LineCover", "_PairCover"):
            class Counting(getattr(metrics, name)):
                def __call__(self, ys, at):
                    calls.append(len(ys))
                    return super().__call__(ys, at)
            monkeypatch.setattr(metrics, name, Counting)
        ifs, x0, cloud = _two_point_case(dim)
        word = (1,) * 99999 + (2,)
        assert cg.recovery_time(ifs, _literal(word)(), x0, 0.01, cloud).n == 100000
        assert len(calls) <= 8 and calls[-1] == 1


def test_two_cycle_run_is_stepped_in_full():
    # x -> a x + b reaches a float 2-cycle (p, q one ulp apart) and never
    # f(x) == x, so a run of it is stepped to its end.
    ifs = cg.IfsSystem.create([cg.scalar_map(-0.7427631926750511, -0.10101787042252375),
                               cg.scalar_map(0.5, 0.5)])
    f = ifs.maps[0].on_floats
    p = 0.9
    for _ in range(2000):
        p = f(p)
    q = f(p)
    assert p != q and f(q) == p
    points, at, x = metrics._stepper(ifs)(0.9, np.ones(20001, dtype=np.int64))
    assert len(points) == 20001 and np.array_equal(at, np.arange(20001))
    assert x == q
    # eps below the gap between p and q: the cloud needs both, then the
    # second map's image of them.
    cloud = cg.AttractorCloud.from_points([[p], [q], [0.5 * p + 0.5]], resolution=0.0)
    word = (1,) * 20000 + (2,) + (1,) * 3
    n = _check_minimal(ifs, _literal(word), [0.9], cloud, abs(p - q) / 4, cap=30000)
    assert n == 20001


_TWO_CYCLE = cg.scalar_map(-0.7427631926750511, -0.10101787042252375)


def _stream(items, K):
    """A driver that yields items (Runs and symbol tuples) and then ends."""
    return lambda: cg.DriverStream("pieces", K, lambda: iter(items))


def test_two_cycle_run_piece_is_stepped_in_full():
    # The same 2-cycle as above, read as a Run: no point repeats x, so all
    # 20,000 symbols are stepped.
    ifs = cg.IfsSystem.create([_TWO_CYCLE, cg.scalar_map(0.5, 0.5)])
    f = ifs.maps[0].on_floats
    p = 0.9
    for _ in range(2000):
        p = f(p)
    q = f(p)
    cloud = cg.AttractorCloud.from_points([[p], [q], [0.5 * p + 0.5]], resolution=0.0)
    make = _stream([cg.Run(1, 20000), (2,), cg.Run(1, 3)], 2)
    assert _check_minimal(ifs, make, [0.9], cloud, abs(p - q) / 4, cap=30000) == 20001


# Piece lengths on and next to the edges of the growing chunks, and past
# the shortest chunk stepped in lanes.
_PIECE = st.sampled_from([1, 2, 3, 127, 128, 129, 255, 256, 257, 383, 384, 385, 4096, 5000])


@st.composite
def _pieces_case(draw):
    """A 1-d or 2-d recovery case whose driver mixes Runs and arrays; in 1-d
    the first map is sometimes the one whose Runs end in a 2-cycle."""
    if draw(st.booleans()):
        ifs, _, x0, cloud = draw(_line_recovery_case())
        if draw(st.booleans()):
            ifs = cg.IfsSystem.create([_TWO_CYCLE, *ifs.maps[1:]])
    else:
        ifs, _, x0, cloud = draw(_plane_recovery_case())
    K = len(ifs.maps)
    run = st.builds(cg.Run, st.integers(1, K), _PIECE)
    array = st.builds(lambda seed, n: tuple(np.random.default_rng(seed).integers(1, K + 1, n)
                                            .tolist()), st.integers(0, 99), _PIECE)
    items = draw(st.lists(run | array, min_size=1, max_size=6))
    length = sum(item.count if isinstance(item, cg.Run) else len(item) for item in items)
    return ifs, _stream(items, K), x0, cloud, length


@given(case=_pieces_case(), prefix=st.integers(100, 10000), pick=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_runs_and_arrays_minimal(case, prefix, pick):
    # eps is the distance from one cloud point to its nearest point of an
    # orbit prefix, which puts that cloud point on the ball's boundary, or
    # just above the largest such distance, so the prefix covers the cloud
    # and n falls anywhere in the stream.
    ifs, make, x0, cloud, length = case
    orbit = cg.run_orbit(ifs, make(), x0, min(prefix, length))
    dist = cKDTree(orbit).query(cloud.points)[0]
    eps = float(dist[pick % dist.size] if pick % 2 else dist.max() * (1 + 1e-12))
    if eps > 1e-150:
        _check_minimal(ifs, make, x0, cloud, eps, cap=30000)


class TestHugeRuns:
    """A Run held at its fixed point is skipped whole, however long."""

    def test_orbit_index_past_int64(self):
        # The Run pins the orbit at 0 and is skipped whole; the array after
        # it starts at orbit index 2**63 + 1, which an int64 cannot hold, so
        # without the check pos + 1 + at raises OverflowError.
        ifs, x0, cloud = _two_point_case(1)
        make = _stream([cg.Run(1, 2 ** 63), (2, 1)], 2)
        with pytest.raises(CapExceededError, match="past 2\\*\\*63 - 1"):
            cg.recovery_time(ifs, make(), x0, 0.01, cloud, cap=2 ** 65)
        with pytest.raises(CapExceededError):
            cg.recovery_time(ifs, make(), x0, 0.01, cloud, cap=2 ** 63 + 1)
        rec = cg.recovery_time(ifs, make(), x0, 0.01, cloud, cap=2 ** 63)
        assert rec.n is None

    def test_deep_slow_block(self, cantor, monkeypatch):
        # Block 2 of this schedule holds the first map for p_2 =
        # 953,199,585,950 symbols, and the orbit sits at 0 after a few
        # hundred of them; stepping the block symbol by symbol would take
        # months.  Only the arrays and the steps of each Run up to its
        # fixed point are stepped.
        stepped, stepper = [], metrics._stepper

        def counting(ifs):
            step = stepper(ifs)

            def counted(x, symbols):
                points, at, x = step(x, symbols)
                run = isinstance(symbols, cg.Run)
                stepped.append(min(len(points) + 1, symbols.count) if run else len(symbols))
                return points, at, x
            return counted

        monkeypatch.setattr(metrics, "_stepper", counting)
        cloud = cg.build_cloud(cantor, 1e-7)
        schedule = cg.build_schedule(cantor, cloud, cg.power_rate(3), k_max=2,
                                     step_cap=10 ** 30)
        (e1, e2), driver = schedule.entries, cg.slow_driver(schedule)
        assert e2.p == 953_199_585_950
        rec = cg.recovery_time(cantor, driver, [1.5], e2.eps, cloud, cap=e2.v)
        assert e1.v + e2.p <= rec.n <= e2.v
        words = e2.v - e1.p - e2.p       # the array symbols up to block 2's end
        assert sum(stepped) <= words + 2 * 2000


def _run_by_run_stepper(ifs):
    """Oracle for metrics._stepper: the chunk cut into runs of equal symbols
    up front, each run stepped until it ends or f(x) == x."""
    maps = [m.on_floats for m in ifs.maps]

    def step(x, symbols):
        bounds = [0, *(np.flatnonzero(np.diff(symbols)) + 1).tolist(), len(symbols)]
        out, kept = [], np.ones(len(symbols), dtype=bool)
        for lo, hi in zip(bounds, bounds[1:]):
            f = maps[int(symbols[lo]) - 1]
            for i in range(lo, hi):
                y = f(x)
                if y == x:
                    kept[i:hi] = False
                    break
                x = y
                out.append(x)
        return np.array(out), np.flatnonzero(kept), x

    return step


_STEP_COEF = st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-0.6, 0.6)
_STEP_OFFSET = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-1.0, 1.0)


@st.composite
def _step_case(draw):
    """A 1-d or 2-d system whose first map is constant, so each run of it
    past its first symbol is a fixed-point run, a start point that is often
    a map's fixed point, and a chunk of runs ending anywhere."""
    dim = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(2, 3))
    maps = [cg.AffineMap.create(np.zeros((dim, dim)), [draw(_STEP_OFFSET) for _ in range(dim)])]
    for _ in range(K - 1):
        a, b = draw(_STEP_COEF), draw(_STEP_COEF)
        matrix = [[a]] if dim == 1 else [[a, -b], [b, a]]
        maps.append(cg.AffineMap.create(matrix, [draw(_STEP_OFFSET) for _ in range(dim)]))
    ifs = cg.IfsSystem.create(maps)
    start = draw(st.sampled_from([*(cg.fixed_point(m).tolist() for m in maps),
                                  [draw(_STEP_OFFSET) for _ in range(dim)]]))
    x = start[0] if dim == 1 else tuple(start)
    runs = draw(st.lists(st.tuples(st.integers(1, K),
                                   st.sampled_from([1, 2, 3, 64]) | st.integers(1, 300)),
                         min_size=1, max_size=25))
    symbols = np.concatenate([np.full(n, s, dtype=np.int64) for s, n in runs])
    return ifs, x, symbols


@given(case=_step_case(), cut=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_stepper_matches_run_by_run_oracle(case, cut):
    # The chunk is also stepped in two parts, x carried across, so that
    # fixed-point runs fall inside a chunk and at its end.
    ifs, x0, symbols = case
    step, oracle = metrics._stepper(ifs), _run_by_run_stepper(ifs)
    split = int(cut * len(symbols))
    for parts in ([symbols], [symbols[:split], symbols[split:]]):
        x, y = x0, x0
        for part in parts:
            if len(part) == 0:
                continue
            (got, at, x), (want, at_want, y) = step(x, part), oracle(y, part)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert np.array_equal(at, at_want)
            assert repr(x) == repr(y)


_LANE_COEF = st.sampled_from([1 / 3, 0.5, -0.5, 0.0]) | st.floats(-0.6, 0.6)
_LANE_OFFSET = st.sampled_from([0.0, 2 / 3, -0.5]) | st.floats(-1.0, 1.0)


@st.composite
def _lane_case(draw):
    """A 1-d or 2-d system and a chunk long enough, and changing symbol
    often enough, to be stepped in lanes: maps with zero offsets (x/3 among
    them), maps equal to the first, long runs, and starts at a fixed point."""
    dim = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(2, 3))
    maps = []
    for _ in range(K):
        if maps and draw(st.booleans()):
            maps.append(maps[0])
            continue
        a, b = draw(_LANE_COEF), draw(_LANE_COEF)
        matrix = [[a]] if dim == 1 else [[a, -b], [b, a]]
        offset = ([draw(st.sampled_from([0.0, -0.0]))] * dim if draw(st.booleans())
                  else [draw(_LANE_OFFSET) for _ in range(dim)])
        maps.append(cg.AffineMap.create(matrix, offset))
    ifs = cg.IfsSystem.create(maps)
    start = draw(st.sampled_from([*(cg.fixed_point(m).tolist() for m in maps),
                                  [draw(_LANE_OFFSET) for _ in range(dim)]]))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    symbols = rng.integers(1, K + 1, draw(st.integers(metrics._LANE_MIN, 12000)))
    for _ in range(draw(st.integers(0, 3))):      # long runs
        at, length = draw(st.integers(0, len(symbols))), draw(st.integers(64, 600))
        symbols[at:at + length] = draw(st.integers(1, K))
    return ifs, start[0] if dim == 1 else tuple(start), symbols


@given(case=_lane_case(), cut=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_lanes_match_run_by_run_oracle(case, cut):
    ifs, x0, symbols = case
    assert len(symbols) >= metrics._LANE_MIN
    step, oracle = metrics._stepper(ifs), _run_by_run_stepper(ifs)
    split = max(metrics._LANE_MIN, int(cut * len(symbols)))
    for parts in ([symbols], [symbols[:split], symbols[split:]]):
        x, y = x0, x0
        for part in parts:
            if len(part) == 0:
                continue
            (got, at, x), (want, at_want, y) = step(x, part), oracle(y, part)
            assert got.tobytes() == want.tobytes() and len(got) == len(want)
            assert np.array_equal(at, at_want)
            assert repr(x) == repr(y)


@pytest.mark.parametrize("dim", [1, 2])
def test_lanes_that_never_coalesce_fall_back(dim, monkeypatch):
    # With zero offsets the maps only scale x, so a lane started from a
    # guess keeps its relative error until the orbit underflows: each pass
    # confirms one more lane, and after the last the chunk is finished one
    # symbol at a time.
    if dim == 1:
        ifs, x0 = cg.IfsSystem.create([cg.scalar_map(1 / 3, 0.0), cg.scalar_map(0.5, 0.0)]), 1.0
    else:
        ifs = cg.IfsSystem.create([cg.AffineMap.create([[0.5, 0.25], [-0.25, 0.5]], [0.0, 0.0]),
                                   cg.AffineMap.create([[0.3, -0.1], [0.1, 0.3]], [0.0, 0.0])])
        x0 = (1.0, 0.5)
    lanes, row_sums = [], metrics._row_sums

    def counted(rows, x):
        lanes.append(len(x[0]))
        return row_sums(rows, x)

    monkeypatch.setattr(metrics, "_row_sums", counted)
    symbols = np.random.default_rng(5).integers(1, 3, 8192)
    got, at, x = metrics._stepper(ifs)(x0, symbols)
    want, at_want, y = _run_by_run_stepper(ifs)(x0, symbols)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(at, at_want) and repr(x) == repr(y)
    reruns = [n for n in lanes if n < metrics._LANES]
    assert reruns and max(reruns) > 1      # every failed lane was run again


@pytest.mark.parametrize("dim", [1, 2])
def test_lanes_keep_the_bits_of_a_held_zero(dim):
    # With the offset -0.0 and a negative coefficient a map sends 0.0 to
    # -0.0, which equals it, so the step holds x and 0.0 keeps its sign:
    # the orbit from 0.0 adds no point and ends at 0.0, not -0.0.
    if dim == 1:
        maps, x0 = [cg.scalar_map(-0.5, -0.0), cg.scalar_map(1 / 3, -0.0)], 0.0
    else:
        maps = [cg.AffineMap.create([[-0.5, 0.25], [0.25, -0.5]], [-0.0, -0.0]),
                cg.AffineMap.create([[1 / 3, 0.0], [0.0, -1 / 3]], [-0.0, -0.0])]
        x0 = (0.0, 0.0)
    ifs = cg.IfsSystem.create(maps)
    symbols = np.random.default_rng(7).integers(1, 3, 8192)
    got, at, x = metrics._stepper(ifs)(x0, symbols)
    want, at_want, y = _run_by_run_stepper(ifs)(x0, symbols)
    assert len(got) == len(at) == len(want) == len(at_want) == 0
    assert repr(x) == repr(y) == repr(x0)


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
        # The cloud builds its tree once, on first use, and covering_estimate
        # on the cloud builds no other.
        cloud = cloud_at_depth(cg.sierpinski_ifs(), 7)
        expected = [cg.covering_estimate(cloud.points, 2.0 ** -k) for k in (2, 5, 8)]
        builds, kdtree = [], cg.ifs._kdtree

        def counted(points, **kw):
            builds.append(len(points))
            return kdtree(points, **kw)

        monkeypatch.setattr(cg.ifs, "_kdtree", counted)
        assert [cg.covering_estimate(cloud, 2.0 ** -k) for k in (2, 5, 8)] == expected
        assert builds == [cloud.size]
        assert cg.covering_estimate(cloud, 2.0 ** -3).upper >= 1
        assert builds == [cloud.size]

    def test_replaced_points_get_their_own_tree(self):
        # dataclasses.replace used to copy the old cloud's tree, whose ball
        # queries then indexed the new points out of bounds (IndexError).
        cloud = cg.build_cloud(cg.sierpinski_ifs(), 0.05)
        assert cloud.grid.n == cloud.size
        part = dataclasses.replace(cloud, points=cloud.points[100:150])
        est = cg.covering_estimate(part, 0.01)
        assert (est.lower, est.upper) == (50, 50)
        assert np.array_equal(part.grid.data, part.points)


def _walk_radii(monkeypatch):
    """Record (size of the walked set, r) for every greedy walk centred on
    its own targets; build_sigma's walks, centred elsewhere, are left out."""
    radii = []
    line, tree = cg.ifs._line_walk, cg.ifs._tree_walk

    def line_walk(values, r, centres=None):
        if centres is None:
            radii.append((len(values), r))
        return line(values, r, centres)

    def tree_walk(grid, pts, r, centres=None):
        if centres is None:
            radii.append((len(pts), r))
        return tree(grid, pts, r, centres)

    monkeypatch.setattr(cg.ifs, "_line_walk", line_walk)
    monkeypatch.setattr(cg.ifs, "_tree_walk", tree_walk)
    return radii


_LADDER = [2.0 ** -k for k in range(1, 8)]
_ARBITRARY = [0.3, 0.07, 1 / 3, 0.011, 0.15, 0.035]


class TestCoverMemo:
    """An AttractorCloud walks each radius once (cloud.cover_sizes)."""

    @pytest.mark.parametrize("system,depth", [(cg.cantor_ifs, 8), (cg.sierpinski_ifs, 6)],
                             ids=["1-d", "2-d"])
    @pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
    @pytest.mark.parametrize("eps_list", [_LADDER, _ARBITRARY], ids=["ladder", "arbitrary"])
    def test_cloud_matches_plain_points(self, system, depth, order, eps_list):
        cloud = cloud_at_depth(system(), depth)
        eps_list = {"ascending": sorted(eps_list),
                    "descending": sorted(eps_list, reverse=True),
                    "repeated": eps_list + eps_list[::-1] + eps_list}[order]
        for eps in eps_list:
            assert (cg.covering_estimate(cloud, eps)
                    == cg.covering_estimate(cloud.points, eps))

    @pytest.mark.parametrize("system,depth", [(cg.cantor_ifs, 8), (cg.sierpinski_ifs, 6)],
                             ids=["1-d", "2-d"])
    def test_each_radius_walked_once(self, monkeypatch, system, depth):
        cloud = cloud_at_depth(system(), depth)
        radii = _walk_radii(monkeypatch)
        for eps in _LADDER:
            cg.covering_estimate(cloud, eps)
        assert len(radii) == 8         # radii 2**0 .. 2**-7, not 14 walks
        for eps in _ARBITRARY + _LADDER[::-1]:
            cg.covering_estimate(cloud, eps)
        walked = [r for _, r in radii]
        assert sorted(walked) == sorted({r for e in _LADDER + _ARBITRARY
                                         for r in (e, 2.0 * e)})

    def test_box_dimension_after_the_ladder_walks_nothing(self, monkeypatch):
        cloud = cloud_at_depth(cg.sierpinski_ifs(), 8)
        covers = [cg.covering_estimate(cloud, 2.0 ** -k) for k in range(2, 7)]
        radii = _walk_radii(monkeypatch)
        est = cg.box_dimension(cloud, 1.0, 0.5, 2, 6)
        assert radii == []
        assert list(est.samples) == covers

    def test_build_schedule_walks_each_cloud_radius_once(self, monkeypatch, cantor):
        cloud = cg.build_cloud(cantor, 3e-7)     # the slow-cantor cloud
        radii = _walk_radii(monkeypatch)
        schedule = cg.build_schedule(cantor, cloud, cg.power_rate(1.0),
                                     k_max=3, step_cap=5 * 10 ** 6)
        on_cloud = [r for size, r in radii if size == cloud.size]
        assert len(schedule.entries) == 3 and on_cloud
        assert len(on_cloud) == len(set(on_cloud))

    def test_plain_points_are_not_memoized(self, monkeypatch):
        pts = cloud_at_depth(cg.cantor_ifs(), 6).points
        radii = _walk_radii(monkeypatch)
        cg.covering_estimate(pts, 0.1)
        cg.covering_estimate(pts, 0.1)
        assert [r for _, r in radii] == [0.2, 0.1, 0.2, 0.1]


class _CountingPairCover(metrics._PairCover):
    shrinks = 0

    def _shrink(self):
        type(self).shrinks += 1
        super()._shrink()


def test_pair_cover_rebuilds_over_uncovered_points(monkeypatch):
    # At eps = 0.0125 the 2,187-point cloud falls to a quarter uncovered and
    # then to a sixteenth, so the tree is rebuilt twice; n is still the
    # exact minimum.
    monkeypatch.setattr(metrics, "_PairCover", _CountingPairCover)
    ifs = cg.sierpinski_ifs()
    cloud = cloud_at_depth(ifs, 7)
    assert cloud.size == 2187
    _CountingPairCover.shrinks = 0
    n = _check_minimal(ifs, lambda: cg.infinite_de_bruijn(3), [0.1, 0.1], cloud,
                       0.0125)
    assert n is not None and _CountingPairCover.shrinks >= 2

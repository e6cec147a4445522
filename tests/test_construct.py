"""Rate functions, base-map choice, covering words, slow-driver schedules."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import chaosgame as cg
from chaosgame.errors import CapExceededError, ValidationError
from helpers import cloud_at_depth


class TestRateFunction:
    def test_power(self):
        psi = cg.power_rate(2.0)
        assert psi(0.1) == pytest.approx(100.0)
        with pytest.raises(ValidationError):
            cg.power_rate(0.0)

    def test_iterexp(self):
        assert cg.iterexp_rate(1)(0.25) == pytest.approx(4.0)   # exp^0 = id
        assert cg.iterexp_rate(2)(0.5) == pytest.approx(math.exp(2.0))
        assert cg.iterexp_rate(3)(0.9) == pytest.approx(math.exp(math.exp(1 / 0.9)))
        assert math.isinf(cg.iterexp_rate(2)(1e-4))   # saturates, flagged by callers

    def test_bounding_self_check(self):
        # For a point on the attractor (base_distance = diam A = 1) the
        # bounding rate evaluated at c_{m-1} = L^{m-1} * diam A returns
        # K^m * alpha(K) exactly (with exponent q = ln K / ln(1/L)).
        K, L, alpha = 2, 1 / 3, 2
        q = math.log(K) / math.log(1 / L)
        psi = cg.bounding_rate(K, alpha, 1.0, q)
        for m in (3, 5, 8):
            eps = L ** (m - 1)
            assert psi(eps) == pytest.approx(K ** m * alpha, rel=1e-9)

    def test_table_interpolation_and_divergence_check(self):
        psi = cg.table_rate([(0.1, 10.0), (0.01, 100.0)])
        assert psi(0.1) == pytest.approx(10.0)
        assert psi(0.01) == pytest.approx(100.0)
        assert psi(0.031622776601683794) == pytest.approx(31.62, rel=1e-2)
        with pytest.raises(ValidationError, match="increase"):
            cg.table_rate([(0.1, 10.0), (0.01, 5.0)])

    def test_names_pinned(self):
        # The slow driver's description, and so every recovery.csv row it
        # drives, embeds these names.
        assert cg.power_rate(1).name == "power(z=1)"
        assert cg.iterexp_rate(2).name == "iterexp(n=2)"
        assert cg.bounding_rate(2, 2, 1.5, 0.63).name == \
            "bounding(K=2,alpha=2,base_distance=1.5,exponent=0.63)"
        assert cg.table_rate([(0.1, 10.0), (0.01, 100.0)]).name == "table(2 samples)"


class TestChooseBaseMap:
    def test_cantor_first_map(self, cantor, cantor_cloud_coarse):
        base = cg.choose_base_map(cantor, cantor_cloud_coarse)
        assert base.i_star == 1
        assert base.x_star[0] == 0.0
        assert base.delta == pytest.approx(cantor_cloud_coarse.diam_lower / 4)
        assert base.outside_count >= 8

    def test_halving_rejects_isolated_fixed_point(self, halving):
        # i=1 has fixed point 0: outside B(0, delta) lie only finitely many
        # isolated points, so it is rejected; i=2 (x*=1) is accepted because
        # the cloud accumulates at 0, far from 1.
        cloud = cg.build_cloud(halving, 1e-5)
        base = cg.choose_base_map(halving, cloud)
        assert base.i_star == 2
        assert base.x_star[0] == 1.0

    def test_singleton_attractor_rejected(self):
        ifs = cg.IfsSystem.create([cg.scalar_map(0.5, 0), cg.scalar_map(1 / 3, 0)])
        cloud = cg.build_cloud(ifs, 1e-6)
        if cloud.size < 16:
            with pytest.raises(ValidationError):
                cg.choose_base_map(ifs, cloud)
        else:
            with pytest.raises(ValidationError, match="finite or concentrated"):
                cg.choose_base_map(ifs, cloud)


class TestBuildSigma:
    def test_single_ball_cover(self, cantor, cantor_cloud_coarse):
        w = cg.build_sigma(cantor, cantor_cloud_coarse,
                           cantor_cloud_coarse.diam_upper + 1.0, 3)
        assert len(w) == 3

    def test_length_is_multiple_of_m(self, cantor, cantor_cloud_coarse):
        L = cantor.lip_max
        for m in (2, 3, 4):
            d = L ** m * (cantor_cloud_coarse.diam_upper + 1.0)
            w = cg.build_sigma(cantor, cantor_cloud_coarse, d, m)
            assert len(w) % m == 0

    def test_coverage_property(self, cantor, cantor_cloud_coarse):
        # Orbit of sigma_m from any x0 with d(x0, A) <= 1 covers the cloud
        # at radius 3*C_m + resolution, for m in the tested range.
        cloud = cantor_cloud_coarse
        L = cantor.lip_max
        rng = np.random.default_rng(42)
        for m in range(2, 9):
            d = L ** m * (cloud.diam_upper + 1.0)
            sigma = cg.build_sigma(cantor, cloud, d, m)
            for _ in range(10):
                x0 = rng.uniform(-1.0, 2.0)   # within distance 1 of A = [0,1] part
                word = cg.Word(tuple(sigma.tolist()), 2)
                orbit = cg.run_orbit(cantor, cg.literal_driver(word), [x0], len(sigma))
                worst = cKDTree(orbit.points).query(cloud.points)[0].max()
                assert worst <= 3 * d + cloud.resolution

    def test_budget(self, cantor, cantor_cloud_coarse):
        with pytest.raises(CapExceededError):
            cg.build_sigma(cantor, cantor_cloud_coarse, 0.01, 10, budget=100)

    def test_radius_too_small_line(self, cantor, cantor_cloud_coarse):
        # Depth 1 has address points 0 and 2/3; the first cloud point past
        # the ball at 0 is 1/27 away from it, and d is far smaller.
        with pytest.raises(ValidationError,
                           match="cover radius d=0.001 is too small for depth m=1"):
            cg.build_sigma(cantor, cantor_cloud_coarse, 0.001, 1)
        with pytest.raises(ValidationError, match="too small"):
            _sigma_oracle(cantor, cantor_cloud_coarse, 0.001, 1)

    def test_radius_too_small_plane(self):
        ifs = cg.sierpinski_ifs()
        cloud = cloud_at_depth(ifs, 5)
        with pytest.raises(ValidationError,
                           match="cover radius d=0.01 is too small for depth m=2"):
            cg.build_sigma(ifs, cloud, 0.01, 2)
        with pytest.raises(ValidationError, match="too small"):
            _sigma_oracle(ifs, cloud, 0.01, 2)

    def test_slow_preset_sigma_pinned(self):
        # sha256 of the slow-power-z1 preset's sigma words, one byte per
        # symbol, block after block, recorded from the per-centre loop that
        # _sigma_oracle keeps.
        cfg = cg.load_preset("slow-power-z1")
        ifs = cfg.build_ifs()
        cloud = cg.build_cloud(ifs, cfg.resolution, cfg.point_budget)
        schedule = cg.build_schedule(
            ifs, cloud, cg.power_rate(cfg.param("z")), cg.choose_base_map(ifs, cloud),
            k_max=cfg.param("k_max"), step_cap=cfg.param("step_cap"),
            budget=cfg.point_budget)
        words = [e.sigma for e in schedule.entries]
        assert [len(w) for w in words] == [24, 2048, 245760]
        digest = hashlib.sha256(b"".join(w.astype(np.uint8).tobytes()
                                         for w in words)).hexdigest()
        assert digest == "4543cd9c3a48e27ad833e649843d6ea115dea33081ac4dcf1666e5bf2749ca65"


def _sigma_oracle(ifs, cloud, d, m, budget=2 ** 24):
    """Reference covering word: the greedy loop with one nearest-address
    search and one cloud ball query per centre, words from itertools.product.

    A cloud point's address is the lowest index among all addresses within
    (1 + 1e-12) of its nearest distance: abs(p - a) in 1-d, cKDTree's
    distance in d dimensions, each over every address."""
    K = ifs.alphabet_size
    if K ** m > budget:
        raise CapExceededError("address budget")
    pts = cg.fixed_point(ifs.maps[0])[None, :]
    for _ in range(m):
        pts = np.concatenate([mp(pts) for mp in ifs.maps], axis=0)
    words = list(itertools.product(range(1, K + 1), repeat=m))
    addr_tree = cKDTree(pts)
    covered = np.zeros(cloud.size, dtype=bool)
    cursor = 0
    symbols = []
    while True:
        while cursor < cloud.size and covered[cursor]:
            cursor += 1
        if cursor == cloud.size:
            break
        p = cloud.points[cursor]
        if ifs.dim == 1:
            dist = np.abs(pts[:, 0] - p[0])
            best = int(np.flatnonzero(dist <= dist.min() * (1.0 + 1e-12))[0])
        else:
            dist, idx = addr_tree.query(p, k=len(words))
            dist, idx = np.atleast_1d(dist), np.atleast_1d(idx)
            best = int(idx[dist <= dist[0] * (1.0 + 1e-12)].min())
        hits = cloud.grid.query_ball_point(pts[best], d)
        if cursor not in hits:
            raise ValidationError("cover radius is too small")
        covered[hits] = True
        symbols.extend(reversed(words[best]))
    return symbols


# Coefficients from small sets make exact ties: coinciding address points
# (constant maps, a = 0), cloud points halfway between two address points
# (dyadic maps) and duplicate cloud points.
_COEF = st.sampled_from([0.0, 0.5, -0.5, 1 / 3, 0.25]) | st.floats(-0.6, 0.6)
_OFFSET = st.sampled_from([0.0, 0.5, 1.0, 2 / 3, -1.0]) | st.floats(-2.0, 2.0)


@st.composite
def _sigma_case(draw):
    dim = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(2, 3))
    maps = []
    for _ in range(K):
        if dim == 1:
            maps.append(cg.scalar_map(draw(_COEF), draw(_OFFSET)))
        else:
            a, b = draw(_COEF), draw(_COEF) / 2
            maps.append(cg.AffineMap.create([[a, -b], [b, a]],
                                            [draw(_OFFSET), draw(_OFFSET)]))
    ifs = cg.IfsSystem.create(maps)
    depth = draw(st.integers(2, 6 if K == 2 else 4))
    pts = cg.ifs._hutchinson_points(ifs, depth)
    if draw(st.booleans()):
        pts = np.unique(pts, axis=0)
    repeat = draw(st.lists(st.integers(0, pts.shape[0] - 1), max_size=5))
    cloud = cg.AttractorCloud.from_points(np.concatenate([pts, pts[repeat]]),
                                          resolution=0.0)
    m = draw(st.integers(1, 5 if K == 2 else 3))
    scale = max(ifs.lip_max, 0.05) ** m * (cloud.diam_lower + 1.0)
    d = draw(st.sampled_from([1.0, 0.5, 0.25, 2.0]) | st.floats(0.05, 3.0)) * scale
    return ifs, cloud, d, m


class TestBuildSigmaOracle:
    @given(case=_sigma_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_centre_loop(self, case):
        ifs, cloud, d, m = case
        try:
            expected = _sigma_oracle(ifs, cloud, d, m)
        except ValidationError:
            with pytest.raises(ValidationError, match="is too small for depth"):
                cg.build_sigma(ifs, cloud, d, m)
            return
        assert cg.build_sigma(ifs, cloud, d, m).tolist() == expected

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("m", [4, 5])
    @pytest.mark.parametrize("d", [0.75, 1.2])
    def test_more_than_eight_tied_addresses(self, dim, m, d):
        # Two constant maps: the 2**(m-1) addresses whose outer map is the
        # first sit at its point, the others at the second map's, and a
        # cloud point halfway between is as near to all 2**m of them.  It
        # takes the lowest index among every tied address, an all-ones
        # word, which a k = 8 query need not return.
        ifs = cg.IfsSystem.create([cg.AffineMap.create(np.zeros((dim, dim)), [0.0] * dim),
                                   cg.AffineMap.create(np.zeros((dim, dim)),
                                                       [1.0] + [0.0] * (dim - 1))])
        points = [[0.5], [1.0]] if dim == 1 else [[0.5, 0.0], [0.5, 0.5], [1.0, 0.0]]
        cloud = cg.AttractorCloud.from_points(points, resolution=0.0)
        sigma = cg.build_sigma(ifs, cloud, d, m)
        assert sigma.tolist() == _sigma_oracle(ifs, cloud, d, m)
        assert sigma[:m].tolist() == [1] * m      # the first centre, halfway

    @pytest.mark.parametrize("depth,m", [(7, 2), (7, 5), (9, 3), (9, 8)])
    def test_sierpinski_clouds(self, depth, m):
        ifs = cg.sierpinski_ifs()
        cloud = cloud_at_depth(ifs, depth)
        d = ifs.lip_max ** m * (cloud.diam_upper + 1.0)
        assert cg.build_sigma(ifs, cloud, d, m).tolist() == _sigma_oracle(ifs, cloud, d, m)


@pytest.fixture(scope="module")
def schedule(cantor, cantor_cloud_fine):
    base = cg.choose_base_map(cantor, cantor_cloud_fine)
    return cg.build_schedule(cantor, cantor_cloud_fine, cg.power_rate(1.0),
                             base, k_max=3, step_cap=5 * 10 ** 6)


class TestBuildSchedule:
    def test_p_matches_psi_exactly(self, schedule):
        for k, e in enumerate(schedule.entries, start=1):
            assert e.p == math.ceil(schedule.psi(schedule.eps_of(k)))

    def test_claim_inequality(self, schedule):
        # |p_k - psi(3*C_{m_k})| <= 1
        for k, e in enumerate(schedule.entries, start=1):
            assert abs(e.p - schedule.psi(schedule.eps_of(k))) <= 1.0

    def test_claim_limit_proxy_strictly_decreasing(self, schedule):
        values = [(e.m + 1) * e.N_hat / e.p for e in schedule.entries]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gap_condition(self, schedule):
        ms = [e.m for e in schedule.entries]
        for k, (a, b) in enumerate(zip(ms, ms[1:]), start=1):
            assert b > a + k
        assert ms[1] > ms[0] + 1

    def test_block_lengths_and_cumsum(self, schedule):
        v = 0
        for e in schedule.entries:
            assert len(e.sigma) == e.m * e.N_hat
            v += e.p + e.m * e.N_hat
            assert e.v == v

    def test_equal_words_are_one_array(self, cantor, cantor_cloud_fine):
        # Every run rebuilds its schedule; a report that keeps one must not
        # keep another copy of each word.
        base = cg.choose_base_map(cantor, cantor_cloud_fine)
        first, again = (cg.build_schedule(cantor, cantor_cloud_fine, cg.power_rate(1.0),
                                          base, k_max=3) for _ in range(2))
        assert len(first.entries) == 3
        for a, b in zip(first.entries, again.entries, strict=True):
            assert a.sigma is b.sigma
            assert a.sigma.dtype == np.int64 and not a.sigma.flags.writeable

    def test_first_scale_below_half_delta(self, schedule):
        assert schedule.C_of(schedule.entries[0].m) < schedule.base.delta / 2

    def test_too_slow_rate_rejected(self, cantor, cantor_cloud_fine):
        # psi(eps) = ln(1/eps): the ratio m*N(C_m)/psi(3*C_m) rises, so the
        # divergence precondition fails.
        L = cantor.lip_max
        samples = [(3 * L ** m * 2.0, math.log(1 / (3 * L ** m * 2.0)))
                   for m in range(2, 17)]
        psi = cg.table_rate(samples)
        base = cg.choose_base_map(cantor, cantor_cloud_fine)
        with pytest.raises(ValidationError, match="too slowly"):
            cg.build_schedule(cantor, cantor_cloud_fine, psi, base, k_max=2)

    def test_truncation_flag(self, cantor, cantor_cloud_fine):
        base = cg.choose_base_map(cantor, cantor_cloud_fine)
        sch = cg.build_schedule(cantor, cantor_cloud_fine, cg.power_rate(1.0),
                                base, k_max=5, step_cap=10 ** 4)
        assert sch.truncated
        assert len(sch.entries) >= 1

    def test_base_ball_holding_the_whole_cloud_rejected(self, cantor,
                                                        cantor_cloud_coarse):
        # With no cloud point outside B(x_star, delta) the outside cover is
        # empty, so no depth could ever pass the m-search.
        base = dataclasses.replace(cg.choose_base_map(cantor, cantor_cloud_coarse),
                                   delta=2.0)
        with pytest.raises(ValidationError, match="outside the base map's delta=2 ball"):
            cg.build_schedule(cantor, cantor_cloud_coarse, cg.power_rate(1.0), base,
                              k_max=1)


class TestSlowDriver:
    def test_block_structure(self, schedule):
        d = cg.slow_driver(schedule)
        e1 = schedule.entries[0]
        prefix = list(d.segment(0, e1.v))
        assert all(s == schedule.base.i_star for s in prefix[:e1.p])
        assert prefix[e1.v - 1] == e1.sigma[-1]
        assert prefix[e1.p:e1.v] == e1.sigma.tolist()

    def test_tail_is_champernowne(self, schedule):
        d = cg.slow_driver(schedule)
        v_last = schedule.entries[-1].v
        tail = list(d.segment(v_last, v_last + 10))
        assert tail == [1, 2, 1, 1, 1, 2, 2, 1, 2, 2]

    def test_cumulative_block_lengths(self, schedule):
        d = cg.slow_driver(schedule)
        pos = 0
        for e in schedule.entries[:2]:
            block = list(d.segment(pos, e.v))
            assert len(block) == e.p + e.m * e.N_hat
            pos = e.v

"""Symbol drivers: Champernowne, de Bruijn, block drivers, word coverage."""

import functools
import hashlib
import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaosgame as cg
from chaosgame.drivers import DRIVER_KINDS, _extend
from chaosgame.errors import CapExceededError, ValidationError


def infer_order(word):
    """Order m with len == K^m + m - 1, validated exhaustively."""
    K, m = word.alphabet_size, 1
    while K ** m + m - 1 < len(word):
        m += 1
    assert K ** m + m - 1 == len(word) and cg.is_de_bruijn(word, m)
    return m


def extend_de_bruijn(word):
    """Extend a de Bruijn word of order m to order m + alpha(K), K its
    alphabet size, keeping the input as a prefix."""
    K = word.alphabet_size
    return _extend(word.symbols, K, infer_order(word) + cg.alpha(K))


class TestWord:
    def test_symbol_range_enforced(self):
        with pytest.raises(ValidationError):
            cg.Word((1, 3), 2)
        with pytest.raises(ValidationError):
            cg.Word((0,), 2)


class TestChampernowne:
    def test_first_symbols_k2(self):
        assert list(cg.champernowne(2).segment(0, 10)) == [1, 2, 1, 1, 1, 2, 2, 1, 2, 2]

    def test_first_symbols_k3(self):
        assert list(cg.champernowne(3).segment(0, 3)) == [1, 2, 3]

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValidationError):
            cg.champernowne(1)

    def test_n_i_examples(self):
        assert cg.word_coverage(cg.champernowne(2), 1) == 2
        assert cg.word_coverage(cg.champernowne(2), 2) == 7

    @pytest.mark.parametrize("K,m_max", [(2, 10), (3, 6)])
    def test_coverage_bound_exact(self, K, m_max):
        driver = cg.champernowne(K)
        for m in range(1, m_max + 1):
            n_i = cg.word_coverage(driver, m)
            bound = cg.champernowne_coverage_bound(K, m)
            assert n_i <= bound
            assert bound == (K - K ** (m + 1) * (m + 1) + m * K ** (m + 2)) \
                // (K - 1) ** 2


class TestDeBruijn:
    @pytest.mark.parametrize("K,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (2, 8), (3, 5)])
    def test_length_and_exact_occurrence(self, K, m):
        w = cg.de_bruijn_word(K, m)
        assert len(w) == K ** m + m - 1
        assert cg.is_de_bruijn(w, m)
        # exhaustive factor scan: each m-word exactly once
        seen = {}
        for i in range(len(w) - m + 1):
            fac = w.symbols[i:i + m]
            seen[fac] = seen.get(fac, 0) + 1
        assert len(seen) == K ** m
        assert set(seen.values()) == {1}

    def test_budget(self):
        with pytest.raises(CapExceededError):
            cg.de_bruijn_word(2, 25)

    def test_coverage_is_optimal(self):
        # word_coverage at m equals K^m + m - 1, and no driver does better.
        for K, m in [(2, 4), (3, 3)]:
            w = cg.de_bruijn_word(K, m)
            assert cg.word_coverage(cg.literal_driver(w), m, cap=len(w)) == K ** m + m - 1

    @pytest.mark.parametrize("make", [
        lambda: cg.champernowne(2),
        lambda: cg.infinite_de_bruijn(2),
        lambda: cg.random_driver(2, 11),
    ])
    def test_no_driver_beats_the_floor(self, make):
        for m in (2, 3, 4):
            n_i = cg.word_coverage(make(), m, cap=10 ** 5)
            assert n_i >= 2 ** m + m - 1

    def test_extension_preserves_prefix(self):
        w2 = cg.de_bruijn_word(2, 2)
        w4 = extend_de_bruijn(w2)
        assert len(w4) == 2 ** 4 + 4 - 1
        assert w4.symbols[:len(w2)] == w2.symbols
        assert cg.is_de_bruijn(w4, 4)

        w1 = cg.de_bruijn_word(3, 1)
        w2b = extend_de_bruijn(w1)
        assert len(w2b) == 3 ** 2 + 2 - 1
        assert w2b.symbols[:len(w1)] == w1.symbols
        assert cg.is_de_bruijn(w2b, 2)

    def test_alpha(self):
        assert cg.alpha(2) == 2
        assert cg.alpha(3) == 1
        assert cg.alpha(7) == 1


class TestInfiniteDeBruijn:
    def test_k3_realized_orders(self):
        d = cg.infinite_de_bruijn(3)
        for m in (1, 2, 3):
            n = 3 ** m + m - 1
            w = cg.Word(tuple(int(s) for s in d.segment(0, n)), 3)
            assert cg.is_de_bruijn(w, m)

    def test_k2_even_orders(self):
        d = cg.infinite_de_bruijn(2)
        for m in (2, 4, 6):
            n = 2 ** m + m - 1
            w = cg.Word(tuple(int(s) for s in d.segment(0, n)), 2)
            assert cg.is_de_bruijn(w, m)

    def test_prefix_stability(self):
        d = cg.infinite_de_bruijn(2)
        early = list(d.segment(0, 19))
        d.segment(0, 2 ** 8 + 8 - 1)   # force later extension orders
        assert list(d.segment(0, 19)) == early

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_prefix_is_the_public_extension_chain(self, K):
        # The stream extends its words at its own order; extending each word
        # to the next order from its length alone must give the same words,
        # through every order whose word fits in 2**16 symbols.
        d, w = cg.infinite_de_bruijn(K), cg.de_bruijn_word(K, 2 if K == 2 else 1)
        while True:
            assert np.array_equal(d.segment(0, len(w)), w.symbols)
            m = infer_order(w) + cg.alpha(K)
            if K ** m + m - 1 > 2 ** 16:
                break
            w = extend_de_bruijn(w)

    def test_k2_odd_order_bound(self):
        # n_i(3) <= 2^4 + 3 (the prefix realizing order 4 covers order 3)
        assert cg.word_coverage(cg.infinite_de_bruijn(2), 3) <= 2 ** 4 + 3


class TestExample4:
    def test_k0_values(self):
        assert cg.example4_k0(1.0) == 1
        assert cg.example4_k0(0.5) == 5

    def test_block_positions_z1(self):
        d = cg.example4_driver(1.0)
        prefix = list(d.segment(0, 30))
        ones = {n for n in range(1, 31) if prefix[n - 1] == 1}
        assert ones == {8, 9, 24, 25, 26}

    def test_block_structure_z1(self):
        # position n carries 1 iff it falls inside the k-block for some k >= 2
        d = cg.example4_driver(1.0)
        prefix = list(d.segment(0, 3000))
        expected = set()
        for k in range(2, 10):
            start = cg.example4_block_start(k, 1.0)
            expected.update(range(start, start + k))
        ones = {n for n in range(1, 3001) if prefix[n - 1] == 1}
        assert ones == {n for n in expected if n <= 3000}

    def test_blocks_disjoint(self):
        for z in (1.0, 0.5):
            k0 = cg.example4_k0(z)
            for k in range(2 * k0, 2 * k0 + 30):
                end = cg.example4_block_start(k, z) + k
                assert end <= cg.example4_block_start(k + 1, z)

    def test_block_start_is_the_exact_floor(self):
        # floor(k 2^{kz}) in integers: a floor of the float k * 2.0**(k*z)
        # was one too high at z = 0.5 from k = 91 on.  z = 0.25 at odd k
        # goes through the decimal path.
        for k in range(1, 131):
            assert cg.example4_block_start(k, 1.0) == k << k
            assert cg.example4_block_start(k, 0.5) == math.isqrt(k * k << k)
            assert cg.example4_block_start(k, 0.25) == math.isqrt(math.isqrt(k ** 4 << k))
        assert cg.example4_block_start(91, 0.5) == 4527997673436291

    def test_z_positive_required(self):
        with pytest.raises(ValidationError):
            cg.example4_driver(0.0)

    @pytest.mark.parametrize("z", [0.03, 0.1, 0.3, 0.5, 1.0, 2.0])
    def test_k0_matches_window_search(self, z):
        # The least k whose next 64 terms all hold, found the direct way.
        bar = 1.0 / (2.0 ** z - 1.0)
        conditions = (lambda j: j < 2.0 ** (j * z),
                      lambda j: (j + 1) * 2.0 ** (j * z) > bar)
        k0 = max(next(k for k in itertools.count(1)
                      if all(holds(j) for j in range(k, k + 64)))
                 for holds in conditions)
        assert cg.example4_k0(z) == k0


class TestRandomDriver:
    def test_determinism(self):
        a = list(cg.random_driver(2, 42).segment(0, 500))
        b = list(cg.random_driver(2, 42).segment(0, 500))
        assert a == b

    def test_k1_constant(self):
        assert set(cg.random_driver(1, 0).segment(0, 50)) == {1}

    def test_frequency(self):
        symbols = cg.random_driver(2, 123).segment(0, 10 ** 6)
        freq = float(np.mean(symbols == 1))
        assert abs(freq - 0.5) < 0.01


class TestDriverStream:
    def test_literal_exhaustion(self):
        d = cg.literal_driver(cg.Word((1, 2, 1), 2))
        assert list(d.segment(0, 3)) == [1, 2, 1]
        with pytest.raises(CapExceededError, match="exhausted"):
            d.segment(3, 4)

    def test_segment_bounds_checked(self):
        d = cg.champernowne(2)
        for start, stop in [(-1, 2), (0, -5), (3, 2)]:
            with pytest.raises(ValidationError, match="invalid driver segment"):
                d.segment(start, stop)

    def test_segment_does_not_consume(self):
        d = cg.champernowne(2)
        seg = list(d.segment(2, 5))
        assert seg == [1, 1, 1]
        assert list(d.segment(0, 3)) == [1, 2, 1]

    def test_two_readers_at_once(self):
        # Each next waits for the other reader to come in too, or for 0.2 s:
        # two readers are inside _fill at once, and a stream that let both
        # run the generator would fail with "generator already executing".
        def stream():
            barrier = threading.Barrier(2)

            def gen():
                for k in itertools.count():
                    try:
                        barrier.wait(timeout=0.2)
                    except threading.BrokenBarrierError:
                        pass
                    yield np.full(1 + k % 5, 1 + k % 2)
            return cg.DriverStream("waiting", 2, gen)

        n = 3000
        alone = stream().segment(0, n)
        shared, out, errors = stream(), {}, []

        def read(how):
            try:
                if how == "segment":
                    out[how] = shared.segment(0, n)
                else:
                    out[how] = np.concatenate([
                        np.full(p.count, p.symbol) if isinstance(p, cg.Run) else p
                        for _, p in shared.pieces(0, n)])
            except Exception as exc:   # re-raised on the test's thread
                errors.append(exc)

        readers = [threading.Thread(target=read, args=(how,))
                   for how in ("segment", "pieces")]
        for t in readers:
            t.start()
        for t in readers:
            t.join()
        if errors:
            raise errors[0]
        assert np.array_equal(out["segment"], alone)
        assert np.array_equal(out["pieces"], alone)


class TestWordCoverage:
    def test_monotone_in_m(self):
        for make in (lambda: cg.champernowne(2), lambda: cg.infinite_de_bruijn(3),
                     lambda: cg.random_driver(2, 5)):
            values = [cg.word_coverage(make(), m, cap=10 ** 5)
                      for m in range(1, 6)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cap(self):
        # the all-ones driver never sees the word (2,), so the cap is hit
        ones = cg.DriverStream("ones", 2, lambda: iter(lambda: 1, 0))
        assert cg.word_coverage(ones, 1, cap=100) is None

    def test_literal_driver_read_to_its_end(self):
        # A literal driver that holds every m-word gives n; the first read
        # of 8,192 symbols used to raise for any shorter word.  One that
        # ends first still raises.
        w = cg.de_bruijn_word(2, 4)
        assert cg.word_coverage(cg.literal_driver(w), 4) == 19
        with pytest.raises(CapExceededError, match="exhausted"):
            cg.word_coverage(cg.literal_driver(w), 5)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_symbol_scan(self, data):
        # Runs shorter and longer than m, arrays between them, and a cap
        # anywhere in the stream, inside a run included.
        K = data.draw(st.integers(2, 3))
        run = st.builds(cg.Run, st.integers(1, K), st.integers(1, 12))
        array = st.lists(st.integers(1, K), min_size=1, max_size=10).map(np.array)
        pieces = data.draw(st.lists(run | array, min_size=1, max_size=20))
        m = data.draw(st.integers(1, 4))
        total = sum(p.count if isinstance(p, cg.Run) else p.size for p in pieces)
        cap = data.draw(st.integers(0, total))

        def make():
            return cg.DriverStream("mixed", K, lambda: iter(pieces))
        assert cg.word_coverage(make(), m, cap) == _scan_coverage(make(), m, cap)

    @given(m=st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_champernowne_bound_property(self, m):
        n_i = cg.word_coverage(cg.champernowne(2), m)
        assert n_i <= cg.champernowne_coverage_bound(2, m)


def _scan_coverage(driver, m: int, cap: int):
    """The reference word_coverage: a per-symbol scan over segment."""
    seen, window = set(), ()
    for n, s in enumerate(driver.segment(0, cap).tolist(), start=1):
        window = (window + (s,))[-m:]
        if len(window) == m:
            seen.add(window)
            if len(seen) == driver.alphabet_size ** m:
                return n
    return None


def _slow_schedule():
    cantor = cg.cantor_ifs()
    cloud = cg.build_cloud(cantor, 1e-5)
    return cg.build_schedule(cantor, cloud, cg.power_rate(1.0), k_max=2, step_cap=100000)


def _slow_driver():
    return cg.slow_driver(_slow_schedule())   # 3171 scheduled symbols, then the tail


# Each hash is hashlib.sha256 over the first n symbols written one byte per
# symbol, np.asarray(driver.segment(0, n), dtype=np.uint8).tobytes(), as
# produced by the drivers that generated one Python int per symbol and
# buffered them in a list.  The array-producing drivers must match them.
PREFIX_SHA256 = [
    ("champernowne K=2", lambda: cg.champernowne(2), 2 ** 20,
     "6a28a1208a6d9629e13950e8dbbe6565a77d9907e7ed702ef0821a116a3e80ad"),
    ("champernowne K=3", lambda: cg.champernowne(3), 2 ** 20,
     "fcef2a2ba775504b79e56df7b9ad1bfa5d2f6da2a7ec3a629e6c9877083264f2"),
    ("debruijn K=2", lambda: cg.infinite_de_bruijn(2), 2 ** 20,
     "696fbba24f18a2a6160901b81d46d8a040141960ba33bec211cb7996b3ffe2cc"),
    ("debruijn K=3", lambda: cg.infinite_de_bruijn(3), 2 ** 20,
     "3503e43d832865ab80938f3f314ee8955ff24d13366abbe17de8e251c1bd2af2"),
    # K = 4 and 5 to the end of their order-9 and order-8 words, so every
    # extension below those orders is pinned symbol by symbol.
    ("debruijn K=4", lambda: cg.infinite_de_bruijn(4), 4 ** 9,
     "07dacc1fdf49dfca32105e36829d81c2778a3fd4abb4d3a9d106a2c612988670"),
    ("debruijn K=5", lambda: cg.infinite_de_bruijn(5), 5 ** 8,
     "28161f2262a256cee43dbedef523f1b5dce74fb203eb426c605583d7198c6811"),
    ("example4 z=1", lambda: cg.example4_driver(1.0), 2 ** 20,
     "2c74738242f9c0d4bf5b708557e956fa711d54510952dd9589927a5e1a98f964"),
    ("example4 z=0.5", lambda: cg.example4_driver(0.5), 2 ** 20,
     "92dce1b0f7409782c1f64dc1881f4c09cb43a1b982b81881951353792c591d5f"),
    ("random K=2 seed=7", lambda: cg.random_driver(2, 7), 2 ** 20,
     "8a282012a2d48e0f7eaa77818dbf1dec0312a8aa628c50d0681ee9587100677b"),
    ("random K=3 seed=11", lambda: cg.random_driver(3, 11), 2 ** 20,
     "a6cdc15e9a87bb396048f675ebd35099cecc9a469c8d992b387ad77a7d8cb398"),
    ("literal de Bruijn word K=2 m=12",
     lambda: cg.literal_driver(cg.de_bruijn_word(2, 12)), 2 ** 12 + 11,
     "5332aebdc2e37c895632a7a6af1c307abc02b287e7911a88e32aa4b1d61b0c1a"),
    ("slow cantor power z=1 k_max=2", _slow_driver, 2 ** 20,
     "9645cdcee0f32660677d162d8839036d146e1abaf097d9edc71fb99d7a755e70"),
]


@pytest.mark.parametrize("make,n,expected",
                         [case[1:] for case in PREFIX_SHA256],
                         ids=[case[0] for case in PREFIX_SHA256])
def test_prefix_unchanged(make, n, expected):
    symbols = make().segment(0, n)
    assert symbols.dtype == np.int64 and symbols.shape == (n,)
    assert hashlib.sha256(symbols.astype(np.uint8).tobytes()).hexdigest() == expected


def test_segments_agree_with_prefix():
    # Chunked reads in any order see the same buffered symbols.
    d = cg.champernowne(3)
    whole = cg.champernowne(3).segment(0, 200000)
    for start, stop in [(150000, 200000), (0, 7), (7, 150000), (3, 3)]:
        assert np.array_equal(d.segment(start, stop), whole[start:stop])


def _written_out(driver, n):
    """The first n symbols of a driver not yet read, from its generator's
    items with each Run written out in full."""
    parts, total = [], 0
    while total < n:
        item = next(driver._gen)
        if isinstance(item, cg.Run):
            part = np.full(min(item.count, n - total), item.symbol, dtype=np.int64)
        else:
            part = np.atleast_1d(np.asarray(item, dtype=np.int64))
        parts.append(part)
        total += part.size
    return np.concatenate(parts)[:n]


_WORD = (1,) * 9000 + (2, 1) * 50 + (2,) * 20000 + (1,) * 3
# name -> (driver factory, symbols to compare)
_STREAMS = {f"{kind} K={K}": (functools.partial(make, K, params),
                              len(_WORD) if kind == "literal" else 60000)
            for kind, make in DRIVER_KINDS.items()
            for K, params in [(2, {"z": 1.0, "seed": 3, "symbols": _WORD}),
                              (3, {"z": 0.5, "seed": 4, "symbols": _WORD})]}
_STREAMS["slow cantor"] = (_slow_driver, 60000)


class TestRunStorage:
    @pytest.mark.parametrize("make,n", list(_STREAMS.values()), ids=list(_STREAMS))
    def test_random_windows_match_the_generator(self, make, n):
        whole = _written_out(make(), n)
        d = make()
        rng = np.random.default_rng(0)
        for _ in range(40):
            start, stop = sorted(rng.integers(0, n + 1, size=2).tolist())
            assert np.array_equal(d.segment(start, stop), whole[start:stop])
        assert np.array_equal(d.segment(0, n), whole)

    def test_long_run_stored_in_o1(self):
        d = cg.DriverStream("runs", 2, lambda: iter([
            cg.Run(1, 10 ** 9), cg.Run(2, 0), (2, 2, 1), cg.Run(2, 3), np.array([1, 2])]))
        seg = d.segment(10 ** 9 - 5, 10 ** 9 + 5)
        assert seg.tolist() == [1] * 5 + [2, 2, 1, 2, 2]
        assert d._ends[-1] == 10 ** 9 + 3 + 3
        # The empty run is dropped; the 10^9 symbols are one stored Run.
        assert d._pieces[0] == cg.Run(1, 10 ** 9) and d._pieces[2] == cg.Run(2, 3)
        assert d._pieces[1].tolist() == [2, 2, 1] and len(d._pieces) == 3
        assert d.segment(0, 4).tolist() == [1, 1, 1, 1]
        assert d.segment(10 ** 9 + 5, 10 ** 9 + 8).tolist() == [2, 1, 2]

    def test_slow_driver_stores_its_runs_as_runs(self):
        schedule = _slow_schedule()
        d = cg.slow_driver(schedule)
        d.segment(0, schedule.entries[-1].v + 1)
        i_star = schedule.base.i_star
        assert [p for p in d._pieces if isinstance(p, cg.Run)] == \
            [cg.Run(i_star, e.p) for e in schedule.entries]
        # The sigma words, kept as the schedule's own arrays, and the tail's
        # first Champernowne block, its K words of length 1; the runs add
        # nothing.
        arrays = [p for p in d._pieces if not isinstance(p, cg.Run)]
        assert len(arrays) == len(schedule.entries) + 1
        assert all(p is e.sigma for p, e in zip(arrays, schedule.entries))
        assert sum(p.size for p in arrays) == \
            sum(len(e.sigma) for e in schedule.entries) + schedule.alphabet_size

    def test_example4_stores_only_runs(self):
        d = cg.example4_driver(1.0)
        d.segment(0, 10 ** 6)
        assert all(isinstance(p, cg.Run) for p in d._pieces)
        assert len(d._pieces) < 40

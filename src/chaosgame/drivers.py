"""Symbol drivers for the deterministic chaos game.

A driver is an infinite sequence over the alphabet {1..K}.  Concrete
families: the Champernowne concatenation of all finite words, infinite
de Bruijn sequences built by extending noncyclic de Bruijn words, the
two-map block driver with prescribed recovery exponents, and a seeded
random baseline.

A driver is read by position: segment(start, stop) gives the symbols at
0-based positions start..stop-1, and the symbol at position k drives orbit
step k + 1.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, InternalInvariantError, ValidationError

DEFAULT_WORD_BUDGET = 2 ** 24
DEFAULT_COVERAGE_CAP = 10 ** 9
_BLOCK = 1 << 16   # most symbols the Champernowne generator yields at once
_K0_WINDOW = 64    # terms example4_k0 checks past each candidate k
_K0_LIMIT = 1 << 16   # largest k_0 example4_k0 searches for


@dataclass(frozen=True)
class Word:
    """A finite word over {1..K}."""

    symbols: tuple
    alphabet_size: int

    def __post_init__(self):
        if self.symbols and not (1 <= min(self.symbols)
                                 <= max(self.symbols) <= self.alphabet_size):
            raise ValidationError("word symbol out of alphabet range")

    def __len__(self):
        return len(self.symbols)


class Run(NamedTuple):
    """count copies of symbol, which DriverStream stores in O(1)."""

    symbol: int
    count: int


class DriverStream:
    """An infinite symbol sequence, read by position with segment.

    The generator yields symbol sequences (int arrays or tuples; single
    ints are accepted too) and Runs.  Each item is kept as one piece: a Run
    as its symbol and count, whatever its length; a read-only int64 array
    as it is; anything else as a copy, so every read of a position gives the
    same symbol.  segment is the only reader: it builds just the window.
    """

    def __init__(self, kind: str, alphabet_size: int, generator_factory, params=None):
        self.kind = kind
        self.alphabet_size = alphabet_size
        self.params = dict(params or {})
        self._gen = generator_factory()
        self._pieces: list = []   # int64 arrays and Runs, in stream order
        self._ends: list = []     # the position just past each piece
        self._len = 0

    def _fill(self, n: int) -> None:
        while self._len < n:
            try:
                item = next(self._gen)
            except StopIteration:
                raise CapExceededError(
                    f"driver '{self.kind}' is exhausted after {self._len} symbols"
                ) from None
            if isinstance(item, Run):
                size = item.count
            else:
                shared = isinstance(item, np.ndarray) and not item.flags.writeable
                item = np.array(item, dtype=np.int64, ndmin=1, copy=None if shared else True)
                size = item.size
            if size > 0:
                self._len += size
                self._pieces.append(item)
                self._ends.append(self._len)

    @property
    def buffered(self) -> int:
        """Number of symbols produced so far (grows monotonically)."""
        return self._len

    def segment(self, start: int, stop: int) -> np.ndarray:
        """Symbols at 0-based positions [start, stop), as a new int64 array."""
        check_segment(start, stop)
        self._fill(stop)
        out = np.empty(stop - start, dtype=np.int64)
        i = bisect.bisect_right(self._ends, start)
        pos = start
        while pos < stop:
            piece, end = self._pieces[i], self._ends[i]
            upto = min(end, stop)
            if isinstance(piece, Run):
                out[pos - start:upto - start] = piece.symbol
            else:
                first = end - piece.size
                out[pos - start:upto - start] = piece[pos - first:upto - first]
            pos = upto
            i += 1
        return out

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.kind}({inner})"
        return self.kind


def check_segment(start: int, stop: int) -> None:
    if start < 0 or stop < start:
        raise ValidationError(
            f"invalid driver segment [{start}, {stop}): need 0 <= start <= stop")


def _champernowne_blocks(K: int):
    """All words of length 1, then length 2, ..., each length lexicographic:
    the length-m block spells the base-K digits of 0..K^m-1, plus one."""
    for m in itertools.count(1):
        weights = K ** np.arange(m - 1, -1, -1, dtype=np.int64)
        words = K ** m
        per = max(1, _BLOCK // m)
        for lo in range(0, words, per):
            codes = np.arange(lo, min(lo + per, words), dtype=np.int64)
            yield (codes[:, None] // weights % K + 1).ravel()


def literal_driver(word: Word) -> DriverStream:
    """Finite driver; reading past the end raises CapExceededError."""
    def gen():
        yield word.symbols

    return DriverStream("literal", word.alphabet_size, gen, {"length": len(word)})


def champernowne(K: int) -> DriverStream:
    """All words of length 1, then length 2, ... each block lexicographic."""
    if K < 2:
        raise ValidationError("Champernowne driver needs alphabet size >= 2")

    return DriverStream("champernowne", K, lambda: _champernowne_blocks(K), {"K": K})


def _euler_circuit_symbols(K: int, m: int) -> list:
    """Edge symbols of an Eulerian circuit of the order-(m-1) de Bruijn graph,
    starting at the all-ones node, edges taken in increasing symbol order."""
    V = K ** (m - 1)
    ptr = [0] * V
    stack = [0]
    sym_stack = [0]            # parallel: symbol that led to stack[i]
    path_syms = []
    while stack:
        v = stack[-1]
        if ptr[v] < K:
            s = ptr[v]
            ptr[v] += 1
            stack.append((v * K + s) % V)
            sym_stack.append(s + 1)
        else:
            stack.pop()
            path_syms.append(sym_stack.pop())
    path_syms.reverse()
    return path_syms[1:]  # drop the sentinel for the start node


def de_bruijn_word(K: int, m: int, budget: int = DEFAULT_WORD_BUDGET) -> Word:
    """Noncyclic de Bruijn word of order m: length K^m + m - 1, every
    m-word occurs exactly once as a factor.  Hierholzer on the
    order-(m-1) de Bruijn graph, linearized from the all-ones node."""
    if K < 2 or m < 1:
        raise ValidationError("de Bruijn word needs K >= 2 and m >= 1")
    if K ** m > budget:
        raise CapExceededError(f"de Bruijn order {m} over alphabet {K} exceeds budget")
    edge_syms = _euler_circuit_symbols(K, m)
    symbols = (1,) * (m - 1) + tuple(edge_syms)
    if len(symbols) != K ** m + m - 1:
        raise InternalInvariantError("Eulerian circuit has wrong length")
    return Word(symbols=symbols, alphabet_size=K)


def is_de_bruijn(word: Word, m: int) -> bool:
    """Exhaustive check: every m-word occurs exactly once as a factor."""
    K = word.alphabet_size
    if len(word) != K ** m + m - 1:
        return False
    digits = np.asarray(word.symbols, dtype=np.int64) - 1
    codes = np.zeros(K ** m, dtype=np.int64)   # one code per length-m factor
    for j in range(m):
        codes = codes * K + digits[j:j + K ** m]
    return bool((np.bincount(codes, minlength=K ** m) == 1).all())


def infer_order(word: Word) -> int:
    """Order m with len == K^m + m - 1, validated exhaustively."""
    K = word.alphabet_size
    m = 1
    while K ** m + m - 1 < len(word):
        m += 1
    if K ** m + m - 1 != len(word) or not is_de_bruijn(word, m):
        raise ValidationError("input is not a noncyclic de Bruijn word")
    return m


def alpha(K: int) -> int:
    """de Bruijn extension step: 1 for K >= 3, 2 for K = 2."""
    if K < 2:
        raise ValidationError("alphabet size must be >= 2")
    return 1 if K >= 3 else 2


def _complete_trail(K, V, used, end, start, pref):
    """Eulerian trail end -> start on the leftover de Bruijn multigraph.

    Greedy walk plus cycle splicing along the completion tail only, so
    the forced prefix is never disturbed.  `pref` rotates the symbol
    preference to escape the rare splice dead end.  Returns the symbol
    list or None.
    """
    order = [(pref + s) % K for s in range(K)]

    def walk(v):
        syms = []
        while True:
            base = v * K
            for s in order:
                if not used[base + s]:
                    break
            else:
                return syms, v
            used[base + s] = 1
            syms.append(s + 1)
            v = (base + s) % V

    tail, stuck = walk(end)
    if stuck != start:
        return None
    # One forward pass: a node before a splice never regains an unused edge.
    remaining = used.count(0)
    node = end
    for i in itertools.count():
        if not remaining:
            return tail
        if 0 in used[node * K:node * K + K]:
            cyc, back = walk(node)
            if back != node:
                return None
            tail[i:i] = cyc
            remaining -= len(cyc)
        if i == len(tail):
            return None
        node = (node * K + (tail[i] - 1)) % V


def extend_de_bruijn(word: Word, K: int) -> Word:
    """Extend a de Bruijn word of order m to one of order m + alpha(K),
    keeping the input as a prefix.

    The input spells a trail of forced edges in the order-(M-1) de Bruijn
    graph for M = m + alpha(K); the remainder is an Eulerian trail of the
    leftover multigraph, found by a greedy walk plus cycle splicing.
    """
    if word.alphabet_size != K:
        raise ValidationError("alphabet mismatch")
    m = infer_order(word)
    M = m + alpha(K)
    if K ** M > DEFAULT_WORD_BUDGET:
        raise CapExceededError(f"extension to order {M} exceeds budget")
    V = K ** (M - 1)
    start = 0
    for s in word.symbols[:M - 1]:
        start = start * K + (s - 1)
    # Remove the forced edges spelled by the input.
    used = [0] * (V * K)
    node = start
    for s in word.symbols[M - 1:]:
        e = node * K + (s - 1)
        if used[e]:
            raise InternalInvariantError("forced edge repeated; input not de Bruijn")
        used[e] = 1
        node = (node * K + (s - 1)) % V
    end = node

    tails = (_complete_trail(K, V, list(used), end, start, pref) for pref in range(K))
    tail = next((t for t in tails if t is not None), [])   # none: the check below fails
    out = Word(symbols=word.symbols + tuple(tail), alphabet_size=K)
    if len(out) != K ** M + M - 1 or not is_de_bruijn(out, M):
        raise InternalInvariantError("extension not found")
    return out


def infinite_de_bruijn(K: int) -> DriverStream:
    """Inductive limit of extending de Bruijn words.

    Realized orders: 1, 2, 3, ... for K >= 3; 2, 4, 6, ... for K = 2.
    Once an extension would exceed DEFAULT_WORD_BUDGET words the stream
    continues with the Champernowne concatenation so it stays infinite.
    """
    if K < 2:
        raise ValidationError("alphabet size must be >= 2")

    def gen():
        w = de_bruijn_word(K, 1 if K >= 3 else 2)
        yield w.symbols
        while True:
            order = infer_order(w) + alpha(K)
            if K ** order > DEFAULT_WORD_BUDGET:
                break
            w2 = extend_de_bruijn(w, K)
            yield w2.symbols[len(w):]
            w = w2
        # Disjunctive tail beyond the realized orders.
        yield from _champernowne_blocks(K)

    return DriverStream("de_bruijn_infinite", K, gen, {"K": K})


def example4_k0(z: float) -> int:
    """Smallest admissible k_0 = max(k_1, k_2) for the block driver.

    k_i is the least k whose window [k, k + _K0_WINDOW) satisfies condition
    i; 2^{kz}/k is eventually increasing, so a clean window certifies the
    tail (adequate for z >= 0.1).  A search that passes _K0_LIMIT raises
    CapExceededError.
    """
    if not 0 < z < math.inf:
        raise ValidationError(f"block driver exponent z must be positive and finite, "
                              f"got {z}")
    gap = 2.0 ** z - 1.0          # 0 when z is below about 1e-16
    bar = 1.0 / gap if gap > 0 else math.inf

    def grow(j):   # 2^{jz}, capped at 2^1023 (both conditions hold there) to stay finite
        return 2.0 ** min(j * z, 1023.0)

    conditions = (lambda j: j < grow(j), lambda j: (j + 1) * grow(j) > bar)
    return max(_first_window(holds, z) for holds in conditions)   # k_1, then k_2


def _first_window(holds, z: float) -> int:
    """Least k >= 1 with holds(j) for every j in [k, k + _K0_WINDOW)."""
    k = 1
    for j in range(1, _K0_LIMIT + _K0_WINDOW):
        if not holds(j):
            k = j + 1
        elif j - k + 1 == _K0_WINDOW:
            return k
    raise CapExceededError(f"the block driver has no k_0 below {_K0_LIMIT} at z={z:g}")


def example4_block_start(k: int, z: float) -> int:
    return int(np.floor(k * 2.0 ** (k * z)))


def example4_driver(z: float) -> DriverStream:
    """Two-symbol driver: runs of k ones starting at floor(k 2^{kz}) for
    each k >= 2 k_0, symbol 2 everywhere else.

    The first block is k = 2 k_0.  On the halving system at eps = 2^-k the
    recovery from x0 = 1 ends in block j = max(k, 2 k_0) at
    floor(j 2^{jz}) + k - 1, and from x0 = 0 in block j = max(k-1, 2 k_0)
    at floor(j 2^{jz}) + k - 2.
    """
    k0 = example4_k0(z)

    def gen():
        k = 2 * k0
        start = example4_block_start(k, z)
        n = 1   # position of the next symbol
        while True:
            yield Run(2, start - n)
            yield Run(1, k)
            n = start + k
            k += 1
            nxt = example4_block_start(k, z)
            if nxt <= start + k - 1:
                raise InternalInvariantError("block overlap in block driver")
            start = nxt

    return DriverStream("example4", 2, gen, {"z": z, "k0": k0})


def random_driver(K: int, seed: int) -> DriverStream:
    """IID uniform symbols from a seeded PCG64 generator."""
    if K < 1:
        raise ValidationError("alphabet size must be >= 1")
    if seed < 0:
        raise ValidationError(f"random driver seed must be >= 0, got {seed}")

    def gen():
        rng = np.random.default_rng(seed)
        while True:
            yield rng.integers(1, K + 1, size=4096)

    return DriverStream("random", K, gen, {"K": K, "seed": seed})


# kind -> constructor(K, params); params supply z (example4), seed (random)
# or symbols (literal).
DRIVER_KINDS = {
    "champernowne": lambda K, p: champernowne(K),
    "debruijn": lambda K, p: infinite_de_bruijn(K),
    "example4": lambda K, p: example4_driver(p["z"]),
    "random": lambda K, p: random_driver(K, p["seed"]),
    "literal": lambda K, p: literal_driver(Word(p["symbols"], K)),
}


@dataclass(frozen=True)
class CoverageStat:
    """First prefix length containing every word of length m, if under cap."""

    m: int
    n_of_m: int | None
    cap: int

    @property
    def exceeded(self) -> bool:
        return self.n_of_m is None


def word_coverage(driver: DriverStream, m: int,
                  cap: int = DEFAULT_COVERAGE_CAP) -> CoverageStat:
    """Sliding-window scan for the least n whose prefix contains all K^m words."""
    if m < 1:
        raise ValidationError("word length must be >= 1")
    K = driver.alphabet_size
    total = K ** m
    if total > DEFAULT_WORD_BUDGET:
        raise CapExceededError(f"K^m = {total} exceeds the tracking budget")
    seen = bytearray(total)
    found = code = pos = 0
    while pos < cap:
        for s in driver.segment(pos, min(pos + 8192, cap)).tolist():
            pos += 1
            code = (code * K + (s - 1)) % total
            if pos >= m and not seen[code]:
                seen[code] = 1
                found += 1
                if found == total:
                    return CoverageStat(m=m, n_of_m=pos, cap=cap)
    return CoverageStat(m=m, n_of_m=None, cap=cap)


def champernowne_coverage_bound(K: int, m: int) -> int:
    """Closed-form upper bound sum_{j<=m} j K^j = (K - K^{m+1}(m+1) + m K^{m+2}) / (K-1)^2."""
    num = K - K ** (m + 1) * (m + 1) + m * K ** (m + 2)
    den = (K - 1) ** 2
    if num % den:
        raise InternalInvariantError("coverage bound is not integral")
    return num // den

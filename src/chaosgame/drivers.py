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

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InternalInvariantError, ValidationError

DEFAULT_WORD_BUDGET = 2 ** 24
DEFAULT_COVERAGE_CAP = 10 ** 9
_BLOCK = 1 << 16   # most symbols a driver generator yields at once
_K0_WINDOW = 64    # terms example4_k0 checks past each candidate k


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

    def __getitem__(self, i):
        return self.symbols[i]


class DriverStream:
    """An infinite symbol sequence, read by position with segment.

    The generator yields int arrays of symbols (single ints are accepted
    too).  Already-produced symbols are buffered in a growable int64 array,
    so every read of a position gives the same symbol.
    """

    def __init__(self, kind: str, alphabet_size: int, generator_factory, params=None):
        self.kind = kind
        self.alphabet_size = alphabet_size
        self.params = dict(params or {})
        self._gen = generator_factory()
        self._buf = np.empty(0, dtype=np.int64)
        self._len = 0

    def _fill(self, n: int) -> None:
        while self._len < n:
            try:
                item = next(self._gen)
            except StopIteration:
                raise CapExceededError(
                    f"driver '{self.kind}' is exhausted after {self._len} symbols"
                ) from None
            block = np.atleast_1d(np.asarray(item, dtype=np.int64))
            end = self._len + block.size
            if end > self._buf.size:
                grown = np.empty(max(end, 2 * self._buf.size), dtype=np.int64)
                grown[:self._len] = self._buf[:self._len]
                self._buf = grown
            self._buf[self._len:end] = block
            self._len = end

    @property
    def buffered(self) -> int:
        """Number of symbols produced so far (grows monotonically)."""
        return self._len

    def segment(self, start: int, stop: int) -> np.ndarray:
        """Symbols at 0-based positions [start, stop)."""
        check_segment(start, stop)
        self._fill(stop)
        return self._buf[start:stop].copy()

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.kind}({inner})"
        return self.kind


def check_segment(start: int, stop: int) -> None:
    if start < 0 or stop < start:
        raise ValidationError(
            f"invalid driver segment [{start}, {stop}): need 0 <= start <= stop")


def _pieces(symbols):
    """Yield a finite symbol sequence as int64 arrays of at most _BLOCK symbols."""
    arr = np.asarray(symbols, dtype=np.int64)
    for i in range(0, arr.size, _BLOCK):
        yield arr[i:i + _BLOCK]


def _run(symbol: int, count: int):
    """Yield `count` copies of one symbol as arrays of at most _BLOCK symbols."""
    while count > 0:
        size = min(count, _BLOCK)
        yield np.full(size, symbol, dtype=np.int64)
        count -= size


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
        yield from _pieces(word.symbols)

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
    remaining = used.count(0)
    while remaining > 0:
        node = end
        spliced = False
        for i in range(len(tail) + 1):
            if 0 in used[node * K:node * K + K]:
                cyc, back = walk(node)
                if back != node or not cyc:
                    return None
                tail[i:i] = cyc
                remaining -= len(cyc)
                spliced = True
                break
            if i < len(tail):
                node = (node * K + (tail[i] - 1)) % V
        if not spliced:
            return None
    return tail


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
    mod_node = V

    def node_of(symbols):
        code = 0
        for s in symbols:
            code = code * K + (s - 1)
        return code

    start = node_of(word.symbols[:M - 1])
    # Remove the forced edges spelled by the input.
    used = [0] * (V * K)
    node = start
    for s in word.symbols[M - 1:]:
        e = node * K + (s - 1)
        if used[e]:
            raise InternalInvariantError("forced edge repeated; input not de Bruijn")
        used[e] = 1
        node = (node * K + (s - 1)) % mod_node
    end = node

    tail = None
    for pref in range(K):
        tail = _complete_trail(K, V, list(used), end, start, pref)
        if tail is not None:
            break
    if tail is None:
        raise InternalInvariantError("extension not found")
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
        yield from _pieces(w.symbols)
        while True:
            order = infer_order(w) + alpha(K)
            if K ** order > DEFAULT_WORD_BUDGET:
                break
            w2 = extend_de_bruijn(w, K)
            yield from _pieces(w2.symbols[len(w):])
            w = w2
        # Disjunctive tail beyond the realized orders.
        yield from _champernowne_blocks(K)

    return DriverStream("de_bruijn_infinite", K, gen, {"K": K})


def example4_k0(z: float) -> int:
    """Smallest admissible k_0 = max(k_1, k_2) for the block driver.

    Checks each condition on [k, k + _K0_WINDOW); 2^{kz}/k is eventually
    increasing, so a clean window certifies the tail (adequate for
    z >= 0.1).
    """
    if z <= 0:
        raise ValidationError("block driver exponent must be positive")
    def holds_k1(k):
        return all(j < 2.0 ** (j * z) for j in range(k, k + _K0_WINDOW))

    def holds_k2(k):
        bar = 1.0 / (2.0 ** z - 1.0)
        return all((j + 1) * 2.0 ** (j * z) > bar for j in range(k, k + _K0_WINDOW))

    k1 = next(k for k in itertools.count(1) if holds_k1(k))
    k2 = next(k for k in itertools.count(1) if holds_k2(k))
    return max(k1, k2)


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
            yield from _run(2, start - n)
            yield from _run(1, k)
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
    found = 0
    code = 0
    chunk = 8192
    pos = 0
    while pos < cap:
        take = min(chunk, cap - pos)
        for s in driver.segment(pos, pos + take).tolist():
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

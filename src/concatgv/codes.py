"""Code objects: binary inner codes, outer codes over GF(2^k0), concatenation.

Conventions fixed here and used everywhere else:

* Generator matrices are message-on-left: a message is a row vector and the
  codeword is ``m @ G``, so a k-dimensional length-n code has a k x n
  generator.
* The derived multiset Omega of a concatenated code lists, in column order,
  the columns of the inner generator read as GF(2^k0) elements through the
  self-dual basis.  (In the transposed n0 x k0 view of the inner generator
  these are its rows.)  Omega keeps duplicates and order: the bias statistic
  sums over it with multiplicity.
* Concatenated codeword bits are packed alpha-major: bit alpha * n0 + beta is
  bit beta of the inner encoding of outer symbol alpha.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .field import FieldCtx
from .linalg import BitMatrix, FieldMatrix, nullspace_basis, rank
from .rng import SplitMix64


@dataclass(frozen=True)
class BinaryCode:
    """A binary linear [n0, k0] code given by a full-rank k0 x n0 generator."""

    gen: BitMatrix

    def __post_init__(self):
        if rank(self.gen) != self.gen.nrows:
            raise ValueError("generator matrix is not full rank")

    @property
    def n0(self) -> int:
        return self.gen.cols

    @property
    def k0(self) -> int:
        return self.gen.nrows

    def encode(self, msg_bits: int) -> int:
        """Codeword of a k0-bit message (XOR of the selected generator rows)."""
        return self.gen.combine(msg_bits)

    def dual(self) -> BinaryCode:
        """The dual code, read off the generator's cached echelon form."""
        return BinaryCode(nullspace_basis(self.gen))


@dataclass(frozen=True)
class OuterCode:
    """A linear [n, k] code over GF(2^k0), full-rank k x n generator."""

    gen: FieldMatrix

    def __post_init__(self):
        if rank(self.gen) != self.gen.nrows:
            raise ValueError("generator matrix is not full rank")

    @property
    def ctx(self) -> FieldCtx:
        return self.gen.ctx

    @property
    def n(self) -> int:
        return self.gen.cols

    @property
    def k(self) -> int:
        return self.gen.nrows

    def encode(self, msg: Sequence[int]) -> Tuple[int, ...]:
        """Codeword of a length-k message over the field."""
        if len(msg) != self.k:
            raise ValueError(f"message length {len(msg)} != k={self.k}")
        out = [0] * self.n
        for mi, row in zip(msg, self.gen.rows):
            out = [o ^ p for o, p in zip(out, self.ctx.scale(mi, row))]
        return tuple(out)


@dataclass(frozen=True)
class ConcatCode:
    """outer . inner: outer over GF(2^k0) whose symbols are inner-encoded."""

    outer: OuterCode
    inner: BinaryCode

    def __post_init__(self):
        if self.inner.k0 != self.outer.ctx.k0:
            raise ValueError(
                f"alphabet mismatch: inner k0={self.inner.k0}, "
                f"outer field degree={self.outer.ctx.k0}"
            )

    @property
    def ctx(self) -> FieldCtx:
        return self.outer.ctx

    @property
    def N(self) -> int:
        return self.outer.n * self.inner.n0

    @property
    def K(self) -> int:
        return self.outer.k * self.inner.k0

    @property
    def rate(self) -> float:
        return self.K / self.N

    @functools.cached_property
    def omega(self) -> Tuple[int, ...]:
        """The derived multiset: inner generator columns as field elements."""
        ctx = self.ctx
        return tuple(
            ctx.from_coords(self.inner.gen.column(beta))
            for beta in range(self.inner.n0)
        )

    def encode(self, msg: Sequence[int]) -> int:
        """Concatenated codeword of a message in GF(2^k0)^k, as an N-bit int."""
        ctx = self.ctx
        n0 = self.inner.n0
        word = 0
        for alpha, sym in enumerate(self.outer.encode(msg)):
            if sym:
                word |= self.inner.encode(ctx.coords(sym)) << (alpha * n0)
        return word

    @functools.cached_property
    def gen(self) -> BitMatrix:
        """The K x N binary generator; the concatenation is GF(2)-linear, so its
        rows span the code.  Row i * k0 + j is the codeword of nu_j in outer
        position i: outer generator row i scaled by nu_j (one log lookup for
        nu_j), each symbol inner-encoded.  The products take at most q - 1
        distinct nonzero values, so each is encoded once, on first use, and
        looked up after that."""
        ctx, n0 = self.ctx, self.inner.n0
        coords, encode = ctx.coords, self.inner.encode
        inner_word = {0: 0}
        words = []
        for row in self.outer.gen.rows:
            for nu in ctx.basis:
                word = 0
                for a, sym in enumerate(ctx.scale(nu, row)):
                    cw = inner_word.get(sym)
                    if cw is None:
                        cw = inner_word[sym] = encode(coords(sym))
                    word |= cw << (a * n0)
                words.append(word)
        return BitMatrix(words, self.N)

    def _pair_masks(self, columns: Iterable[Sequence[int]]) -> Counter:
        """The (alpha, b) pairs, alpha an outer coordinate and b an Omega
        entry, as XOR masks on a vector that holds symbol i in bits
        [i*k0, (i+1)*k0): pair (alpha, b) adds b * columns[alpha][i] to
        symbol i.  Omega may repeat entries or contain 0, so each mask maps to
        its multiplicity, in order of first pair (alpha-major)."""
        entries = Counter(self.omega)
        words = self.ctx.packed_products(columns, list(entries))
        masks: Dict[int, int] = {}
        get = masks.get
        for mask, mult in zip(words, itertools.cycle(entries.values())):
            masks[mask] = get(mask, 0) + mult
        return Counter(masks)

    @functools.cached_property
    def g_masks(self) -> Counter:
        """The pair masks on the packed vector g, which holds coordinate alpha
        in bits [alpha*k0, (alpha+1)*k0): those of the n x n identity, so
        pair (alpha, b) puts b at alpha.  Both mask counters are cached on the
        code and shared by its callers, which only read them."""
        n = self.outer.n
        return self._pair_masks([[int(i == alpha) for i in range(n)] for alpha in range(n)])

    @functools.cached_property
    def syndrome_masks(self) -> Counter:
        """The pair masks on the outer syndrome gen @ g, which holds row i in
        bits [i*k0, (i+1)*k0): those of the outer generator's columns, so
        pair (alpha, b) adds b * gen[i][alpha] to row i."""
        return self._pair_masks(zip(*self.outer.gen.rows))


def bias(cc: ConcatCode, msg: Sequence[int]) -> int:
    """The bias X_m: (#zeros - #ones) of the concatenated codeword.

    Evaluated from its defining double sum over outer coordinates and Omega,
    using Tr(symbol * b) as the GF(2) inner product; the encoding path is not
    involved, which lets tests cross-check this against the weight identity
    weight = (N - X_m) / 2.
    """
    ctx = cc.ctx
    omega = cc.omega
    n0 = cc.inner.n0
    x = 0
    for sym in cc.outer.encode(msg):
        ones = 0
        for b in omega:
            ones += ctx.trace(ctx.mul(sym, b))
        x += n0 - 2 * ones
    return x


@dataclass(frozen=True)
class WeightDistribution:
    """delta[j] = number of messages whose codeword has Hamming weight j,
    j = 0..length.  The zero message is one of the delta[0]."""

    delta: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.delta) - 1

    @property
    def total(self) -> int:
        return sum(self.delta)

    def nonzero_messages(self) -> Iterable[Tuple[int, int]]:
        """(weight, count) over the nonzero messages, zero counts skipped."""
        for j, count in enumerate(self.delta):
            if j == 0:
                count -= 1
            if count:
                yield j, count

    @property
    def min_weight(self) -> int:
        """Minimum weight of a nonzero message's codeword (length + 1 if none)."""
        return next((j for j, _ in self.nonzero_messages()), self.length + 1)

    @property
    def max_bias(self) -> int:
        """max |length - 2 weight| over the nonzero messages, read off the
        lowest and highest of their weights."""
        lo = self.min_weight
        if lo > self.length:
            raise ValueError("no nonzero message")
        hi = next((j for j in range(self.length, lo, -1) if self.delta[j]), lo)
        return max(self.length - 2 * lo, 2 * hi - self.length)

    def moment(self, r: int) -> Fraction:
        """Mean of (length - 2 weight)^r over the nonzero messages.  Exact."""
        if r < 0:
            raise ValueError("r must be nonnegative")
        total = sum(count * (self.length - 2 * j) ** r for j, count in self.nonzero_messages())
        return Fraction(total, self.total - 1)


def _binary_gen(code: BinaryCode | ConcatCode) -> BitMatrix:
    if not isinstance(getattr(code, "gen", None), BitMatrix):
        raise TypeError(f"unsupported code type {type(code).__name__}")
    return code.gen


# The first BLOCK_BITS basis words are expanded into all their 2^BLOCK_BITS
# sums at once (about 0.5 MB per 64-bit limb); the remaining words shift
# that block, one Gray-code step at a time, so memory stays bounded.
BLOCK_BITS = 16


def _span_weight_counts(words: Sequence[int], length: int) -> List[int]:
    """Weight counts of all 2^len(words) XOR combinations of words."""
    limbs = -(-length // 64)
    packed = b"".join(w.to_bytes(8 * limbs, "little") for w in words)
    basis = np.frombuffer(packed, dtype="<u8").reshape(len(words), limbs)
    low, high = basis[:BLOCK_BITS], basis[BLOCK_BITS:]
    block = np.empty((1 << len(low), limbs), dtype=np.uint64)
    block[0] = 0
    for i, b in enumerate(low):  # rows [2^i, 2^(i+1)) are rows [0, 2^i) plus b
        np.bitwise_xor(block[: 1 << i], b, out=block[1 << i : 2 << i])
    counts = np.zeros(length + 1, dtype=np.int64)
    shift = np.zeros(limbs, dtype=np.uint64)
    for t in range(1 << len(high)):
        if t:
            shift ^= high[(t & -t).bit_length() - 1]
        weights = np.bitwise_count(block ^ shift if t else block)
        weights = weights[:, 0] if limbs == 1 else weights.sum(axis=1, dtype=np.intp)
        counts += np.bincount(weights, minlength=length + 1)
    return counts.tolist()


def weight_distribution(
    code: BinaryCode | ConcatCode, budget: int = 1 << 24
) -> WeightDistribution:
    """Exact weight enumerator by enumerating every message's codeword."""
    gen = _binary_gen(code)
    size = 1 << gen.nrows
    if size > budget:
        raise ValueError(f"code size {size} exceeds budget {budget}")
    return WeightDistribution(tuple(_span_weight_counts(gen.rows, gen.cols)))


def min_distance(
    code: BinaryCode | ConcatCode,
    mode: str = "exact",
    budget: int = 1 << 24,
    seed: int = 0,
) -> Tuple[int, bool]:
    """Minimum nonzero codeword weight.

    exact: read off the weight distribution (requires code size <= budget);
    returns (distance, True).  montecarlo: minimum over `budget` random
    nonzero codewords, an upper bound on the distance; returns (value, False).
    """
    if mode == "exact":
        return weight_distribution(code, budget).min_weight, True
    gen = _binary_gen(code)
    if mode == "montecarlo":
        if budget < 1:
            raise ValueError(f"Monte Carlo distance needs at least one draw, got budget {budget}")
        rng = SplitMix64(seed)
        dim = gen.nrows
        best = gen.cols + 1
        if dim == 0:  # no nonzero codeword to draw; the exact-mode convention
            return best, False
        for _ in range(budget):
            m = 0
            while m == 0:
                m = rng.bits(dim)
            best = min(best, gen.combine(m).bit_count())
        return best, False
    raise ValueError(f"unknown mode {mode!r}")


def codeword_table(gen: FieldMatrix) -> np.ndarray:
    """All q^k codewords that the k x n field matrix `gen` generates, as the
    columns of an (n, q^k) array.

    The array is coordinate-major: row a holds coordinate a of every
    codeword, contiguously, and ``.T`` is the row-per-codeword view.  Column
    i is the codeword of the message whose digit j is (i // q^j) % q, so
    column 0 is the zero codeword and digit 0 varies fastest.  The scalar
    multiples of all generator rows, a (k, n, q) array, come from one
    ``mul_array`` call; the codewords are then XOR sums, one broadcast per
    row.  The dtype is the smallest unsigned type that holds q - 1.
    """
    ctx, n = gen.ctx, gen.cols
    rows = np.array(gen.rows, dtype=np.intp).reshape(-1, n, 1)
    multiples = ctx.mul_array(rows, np.arange(ctx.q))  # [i, a, v] = v * gen[i, a]
    table = np.zeros((n, 1), dtype=multiples.dtype)
    for row in multiples:
        table = (row[:, :, None] ^ table[:, None, :]).reshape(n, -1)
    return table

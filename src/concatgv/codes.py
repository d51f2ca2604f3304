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
* A value derived from a code (``span``, ``omega``, the mask counters) is a
  ``functools.cached_property``, kept on the code for callers that only read it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .field import FieldCtx
from .linalg import BitMatrix, FieldMatrix, _gf2_rref, rank


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

    @functools.cached_property
    def span(self) -> np.ndarray:
        """All 2^k0 codewords as a (limbs, 2^k0) array, column m the codeword of
        message m (the fold of :func:`_symbol_tables`): one array that every
        caller shares and none writes.  A concatenated code's tables are
        gathered from it."""
        return _fold(_symbol_tables(self))

    @functools.cached_property
    def span_weights(self) -> WeightDistribution:
        """The weight distribution of :attr:`span`: the soft enumerator's W_in
        and the niceness check read this one count."""
        return WeightDistribution(tuple(np.bincount(_weights(self.span), minlength=self.n0 + 1).tolist()))


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
        """The derived multiset: inner generator columns as field elements.
        Column beta has coordinates bit i = bit beta of row i, so it is the XOR
        of nu_i over the rows i with bit beta set: one pass over the set bits."""
        omega = [0] * self.inner.n0
        for row, nu in zip(self.inner.gen.rows, self.ctx.basis):
            while row:
                low = row & -row
                omega[low.bit_length() - 1] ^= nu
                row ^= low
        return tuple(omega)

    def encode(self, msg: Sequence[int]) -> int:
        """Concatenated codeword of a message in GF(2^k0)^k, as an N-bit int."""
        return self.inner_encode(self.outer.encode(msg))

    def inner_encode(self, symbols: Sequence[int]) -> int:
        """The N-bit word of an outer word: symbol alpha inner-encoded at bit alpha * n0."""
        ctx, n0 = self.ctx, self.inner.n0
        word = 0
        for alpha, sym in enumerate(symbols):
            if sym:
                word |= self.inner.encode(ctx.coords(sym)) << (alpha * n0)
        return word

    @functools.cached_property
    def g_masks(self) -> Counter:
        """The (alpha, b) pairs, alpha an outer coordinate and b an Omega
        entry, as XOR masks on the packed vector g, which holds coordinate
        alpha in bits [alpha*k0, (alpha+1)*k0): pair (alpha, b) puts b at
        alpha.  Omega may repeat entries or contain 0, so each mask maps to
        its multiplicity, in order of first pair (alpha-major)."""
        k0 = self.ctx.k0
        return Counter(b << alpha * k0 for alpha in range(self.outer.n) for b in self.omega)

    @functools.cached_property
    def syndrome_masks(self) -> Counter:
        """The pair masks on the outer syndrome gen @ g, which holds row i in
        bits [i*k0, (i+1)*k0): pair (alpha, b) adds b * gen[i][alpha] to row
        i.  Pairs may share a mask, which then holds their total multiplicity,
        in order of first pair as in :attr:`g_masks`; each distinct Omega
        entry is multiplied once per column."""
        entries = Counter(self.omega)
        words = self.ctx.packed_products(zip(*self.outer.gen.rows), list(entries))
        masks: Dict[int, int] = {}
        get = masks.get
        for mask, mult in zip(words, itertools.cycle(entries.values())):
            masks[mask] = get(mask, 0) + mult
        return Counter(masks)


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
        delta = self.delta
        lo = int(delta[0] == 1)  # weight 0 only when a nonzero message has it
        while lo < len(delta) and not delta[lo]:
            lo += 1
        return lo

    @property
    def max_bias(self) -> int:
        """max |length - 2 weight| over the nonzero messages, read off the
        lowest and highest of their weights."""
        lo, hi = self.min_weight, self.length
        if lo > hi:
            raise ValueError("no nonzero message")
        while hi > lo and not self.delta[hi]:
            hi -= 1
        return max(self.length - 2 * lo, 2 * hi - self.length)

    def moment(self, r: int) -> Fraction:
        """Mean of (length - 2 weight)^r over the nonzero messages.  Exact."""
        if r < 0:
            raise ValueError("r must be nonnegative")
        messages = self.total - 1
        if messages < 1:
            raise ValueError("no nonzero message")
        total = sum(count * (self.length - 2 * j) ** r for j, count in self.nonzero_messages())
        return Fraction(total, messages)


def binary_shape(code: BinaryCode | ConcatCode) -> Tuple[int, int]:
    """(K, N): the message bits and the codeword length of a binary or concatenated
    code.  Any other code raises a TypeError that names its type, before any work."""
    if isinstance(code, ConcatCode):
        return code.K, code.N
    if isinstance(code, BinaryCode):
        return code.k0, code.n0
    raise TypeError(f"unsupported code type {type(code).__name__}")


# Temporaries hold about 2^BLOCK_BITS entries (0.5 MB per limb), bounding memory: the weight
# count's low block and the XORs that meet it, a chunk of outer rows, a held pass, draws.
BLOCK_BITS = 16


def _subset_sums(rows: Sequence[int], limbs: int) -> np.ndarray:
    """Every subset XOR of rows as a (limbs, 2^len(rows)) array; column bit i selects row i."""
    sums = [0]
    for row in rows:
        sums += [s ^ row for s in sums]
    return _pack(sums, limbs)


def _pack(words: Sequence[int], limbs: int) -> np.ndarray:
    """Ints below 2^(64 limbs) as the columns of a (limbs, len(words)) uint64 array."""
    packed = b"".join([w.to_bytes(8 * limbs, "little") for w in words])
    return np.frombuffer(packed, dtype="<u8").reshape(len(words), limbs).T


def _symbol_tables(code: BinaryCode | ConcatCode) -> List[np.ndarray]:
    """The span as limb-major (limbs, size) tables whose XORs, one entry per table, are
    the codewords.  Table t reads the next log2(size) message bits, so column m of
    ``_fold(tables)`` is the codeword of message m: binary rows give the subset sums of 4
    rows at a time (bit i selects row i), and outer row i gives, in column x, the encoding
    of from_coords(x) * (row i) (bit i * k0 + j selects nu_j in outer row i), gathered at
    exp[log g + log_coords[x]] from the inner code's kept span.  Weights ignore bit
    positions: a limb packs 64 // n0 inner words, or a word takes ceil(n0 / 64) limbs, and
    zero columns pad n.  Outer rows are gathered one, or as many as fit 2^BLOCK_BITS words."""
    if not isinstance(code, ConcatCode):
        rows, limbs = code.gen.rows, max(1, -(-code.gen.cols // 64))
        return [_subset_sums(rows[i : i + 4], limbs) for i in range(0, len(rows) or 1, 4)]
    n0, (_, log, exp_coords, log_coords) = code.inner.n0, code.ctx.arrays
    by_log = code.inner.span[:, exp_coords]
    per = max(1, 64 // n0)
    gen = np.array([row + (0,) * (-len(row) % per) for row in code.outer.gen.rows], dtype=np.intp)
    place = np.left_shift(1, np.arange(0, per * n0, n0, dtype=np.uint64))  # disjoint: sum is OR
    step = max(1, (1 << BLOCK_BITS) * per // (len(by_log) * gen.shape[1] * len(log)))  # rows
    tables = []
    for i in range(0, len(gen), step):
        symbols = by_log.take(log[gen[i : i + step]][:, :, None] + log_coords, axis=1)  # [limb, i, a, x]
        tables.extend(place @ symbols.transpose(1, 2, 0, 3).reshape(symbols.shape[1], -1, per, len(log)))
    return tables


def _fold(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Every XOR taking one entry per (words, size) table, as (words, entries), table 0 fastest."""
    block = tables[0] if len(tables) else np.zeros((tables.shape[1], 1), dtype=tables.dtype)
    for table in tables[1:]:
        block = (table[:, :, None] ^ block[:, None]).reshape(len(block), -1)
    return block


def _span_weight_counts(tables: Sequence[np.ndarray], length: int) -> List[int]:
    """Weight counts of the span of a nonempty list of tables: one fold when it fits a
    2^BLOCK_BITS block, else by meeting in the middle, a low block of the first tables
    (not the last) against the XORs of the rest."""
    low, size = 1, tables[0].shape[1]
    while low < len(tables) and size * tables[low].shape[1] <= 1 << BLOCK_BITS:
        low, size = low + 1, size * tables[low].shape[1]
    if low == len(tables):
        return np.bincount(_weights(_fold(tables)), minlength=length + 1).tolist()
    block, high = _fold(tables[:low]), _fold(tables[low:])
    step = max(1, (1 << BLOCK_BITS) // block.shape[1])
    counts = np.zeros(length + 1, dtype=np.int64)
    for start in range(0, high.shape[1], step):
        counts += np.bincount(_weights(_fold([block, high[:, start : start + step]])), minlength=length + 1)
    return counts.tolist()


def _weights(words: np.ndarray) -> np.ndarray:
    """The weight of each column of a (limbs, size) array."""
    weights = np.bitwise_count(words)
    return weights[0] if len(weights) == 1 else weights.sum(axis=0, dtype=np.intp)


def weight_distribution(
    code: BinaryCode | ConcatCode, budget: int = 1 << 24
) -> WeightDistribution:
    """Exact weight enumerator: every codeword is formed and popcounted, once the budget holds."""
    dim, length = binary_shape(code)
    if 1 << dim > budget:
        raise ValueError(f"code size {1 << dim} exceeds budget {budget}")
    return WeightDistribution(tuple(_span_weight_counts(_symbol_tables(code), length)))


def min_distance(code: BinaryCode | ConcatCode, budget: int = 1 << 24) -> Tuple[int, int, int, object]:
    """(lower, upper, words, witness): lower <= d <= upper for the least nonzero weight d,
    `words` codewords formed (at most budget), `code.encode(witness)` of weight upper.  When
    2^K <= budget the weight distribution gives d.  Else Brouwer-Zimmermann: pass w on a
    greedy information set I_j (one rref, the columns earlier sets hold, g_j of I_j's, masked
    high) forms the XORs of w rows of its systematic generator; after passes 1..w_j on each
    I_j no codeword left weighs below sum_j max(0, w_j + 1 - g_j), none once a w_j = K.  Each
    pass that fits the budget goes to the prefix of sets that reaches the least weight seen
    in the fewest words (2^K - 1 at most).  No word formed: upper = N + 1, witness None.
    In colex order the w-subsets with top elements T (least t, w - h of them) are the first
    comb(t, h) words of pass h, XORed with T's rows: a set holds its pass at level
    min(w, held), held the last level up to which passes fit 2^BLOCK_BITS words."""
    dim, length = binary_shape(code)
    if 1 << dim <= budget:
        d = weight_distribution(code, budget).min_weight
        return d, d, 1 << dim, None
    if isinstance(code, BinaryCode):
        rows = code.gen.rows
    else:  # message bit i * k0 + j selects basis element j in outer position i, as in _symbol_tables
        k, ctx = code.outer.k, code.ctx
        rows = [code.inner_encode(ctx.scale(nu, row)) for row in code.outer.gen.rows for nu in ctx.basis]
    forms = list(_systematic_forms(rows, length))
    gaps, levels, upper, witness, words = [g for *_, g in forms], [0] * len(forms), length + 1, None, 0
    held = next(v for v in range(dim + 1) if v == dim or math.comb(dim, v + 1) > 1 << BLOCK_BITS)
    kept = [np.zeros((gen.shape[0], 1), dtype=gen.dtype) for gen, *_ in forms]  # pass 0: the empty XOR

    def cost(s: int) -> int:  # words for the first s sets to bring the bound to upper, or one to level K
        top, rest = max(levels[:s]), sum(max(0, w + 1 - g) for w, g in zip(levels[s:], gaps[s:]))
        while top < dim and rest + sum(max(0, max(top, w) + 1 - g) for w, g in zip(levels, gaps[:s])) < upper:
            top += 1
        return sum(math.comb(dim, v) for w in levels[:s] for v in range(w + 1, top + 1))

    while (lower := sum(max(0, w + 1 - g) for w, g in zip(levels, gaps))) < upper and max(levels, default=dim) < dim:
        s = min(range(1, len(forms) + 1), key=cost)
        gen, messages, _ = forms[j := levels.index(min(levels[:s]))]
        w, total = levels[j] + 1, math.comb(dim, levels[j] + 1)
        if words + total > budget:
            break
        levels[j], words, h, blocks = w, words + total, min(w - 1, held), []
        for top in itertools.combinations(range(h, dim), w - h):  # top elements; the rest, pass h's first words
            block = kept[j][:, : math.comb(top[0], h)] ^ np.bitwise_xor.reduce(gen[:, top], axis=1, keepdims=True)
            if (weights := _weights(block))[best := int(weights.argmin())] < upper:
                upper, witness = int(weights[best]), np.bitwise_xor.reduce(messages[list(_colex(best, h, dim) + top)])
            blocks += [block] if w <= held else []
        if w <= held:  # one top element each, in increasing order: pass w in colex order
            kept[j] = np.concatenate(blocks, axis=1)
    else:
        lower = upper
    if witness is not None and isinstance(code, ConcatCode):  # message bits back to outer symbols
        witness = tuple(ctx.from_coords(witness >> (i * ctx.k0) & (ctx.q - 1)) for i in range(k))
    return lower, upper, words, witness


def _colex(rank: int, h: int, dim: int) -> Tuple[int, ...]:
    """The h-subset of range(dim) of colex rank `rank`, ascending: from the largest element
    down, c_i is the largest c with comb(c, i) <= the rank left."""
    subset = ()
    for i in range(h, 0, -1):
        dim = next(c for c in range(dim - 1, -1, -1) if math.comb(c, i) <= rank)
        rank, subset = rank - math.comb(dim, i), (dim, *subset)
    return subset


def _systematic_forms(rows: Sequence[int], length: int) -> Iterator[Tuple[np.ndarray, np.ndarray, int]]:
    """Greedy information sets while one holds unused columns, as (generator, messages, g):
    the generator systematic on the set, packed (limbs, K), column i the codeword of message
    bits messages[i], and g of its columns held by an earlier set.  _gf2_rref pivots on the
    lowest set bit, so a row keeps the columns of the mask `unused` at their own bits, used
    column c goes to N + c and message bit m to 2N + m; its codeword is (x | x >> N) & full."""
    dim, full, unused = len(rows), (1 << length) - 1, (1 << length) - 1
    while unused:
        reduced, pivots = _gf2_rref([r & unused | (r & ~unused) << length | 1 << 2 * length + m for m, r in enumerate(rows)])
        if not (fresh := sum(1 << p for p in pivots if p < length)):
            return
        low = _pack([(x | x >> length) & full for x in reduced], max(1, -(-length // 64)))
        yield low, np.array([x >> 2 * length for x in reduced], dtype=object), dim - fresh.bit_count()
        unused &= ~fresh


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
    rows = np.array(gen.rows, dtype=np.intp).reshape(-1, gen.cols, 1)
    return _fold(gen.ctx.mul_array(rows, np.arange(gen.ctx.q)))  # [i, a, v] = v * gen[i, a]

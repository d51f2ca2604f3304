"""Dense linear algebra over GF(2) (bit-packed rows) and over GF(2^k0).

GF(2) matrices store each row as one int, bit j = column j.  Field matrices
store rows as lists of element values plus the owning :class:`FieldCtx`.
Matrices are immutable after construction; every operation here is pure.
Each matrix reduces itself to row echelon form once, on first use
(``m.rref``); its rank and right kernel are read off that one result, so a
sampled generator that was ranked on acceptance is not reduced again by the
code built from it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import List, Sequence

from .field import FieldCtx
from .rng import SplitMix64


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2); row i is the int rows[i], bit j = col j."""

    rows: tuple
    cols: int

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("cols must be nonnegative")
        rows = tuple(map(operator.index, self.rows))
        if rows and (min(rows) < 0 or max(rows) >> self.cols):
            raise ValueError("row has bits set beyond cols")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def rref(self) -> tuple:
        """(reduced nonzero rows, pivot columns), computed once."""
        return _gf2_rref(self.rows)

    def combine(self, bits: int) -> int:
        """XOR of the rows whose index is a set bit of bits (a generator's codeword)."""
        out, rows = 0, self.rows
        while bits:
            low = bits & -bits
            out ^= rows[low.bit_length() - 1]
            bits ^= low
        return out

    def column(self, j: int) -> int:
        """Column j packed as an int, bit i = entry of row i."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out


@dataclass(frozen=True)
class FieldMatrix:
    """A rows x cols matrix over ctx, rows stored as tuples of element values."""

    rows: tuple
    cols: int
    ctx: FieldCtx

    def __post_init__(self):
        q = self.ctx.q
        rows = tuple(tuple(map(int, r)) for r in self.rows)
        for r in rows:
            if len(r) != self.cols:
                raise ValueError("row length does not match cols")
            if r and (min(r) < 0 or max(r) >= q):
                raise ValueError("entry out of field range")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def rref(self) -> tuple:
        """(reduced nonzero rows, pivot columns), computed once."""
        return _field_rref(self)


def _gf2_rref(rows: Sequence[int]):
    """RREF over GF(2); returns (reduced nonzero rows, pivot column indices).

    A row's pivot is its lowest set bit.  Each row is reduced by the kept rows
    until it is 0 or has a pivot no kept row has, and is then kept; the kept
    rows are back-substituted from the highest pivot down.
    """
    by_pivot = {}
    for r in rows:
        while r:
            low = r & -r
            if low not in by_pivot:
                by_pivot[low] = r
                break
            r ^= by_pivot[low]
    lows = sorted(by_pivot)
    reduced: List[int] = []
    for low in reversed(lows):
        r = by_pivot[low]
        for b in reduced:
            if r & b & -b:
                r ^= b
        reduced.append(r)
    return tuple(reversed(reduced)), tuple(low.bit_length() - 1 for low in lows)


def _field_rref(m: FieldMatrix):
    """RREF over the field; returns (reduced nonzero rows, pivot column indices).
    Row operations add logs: li = q - 1 - log(pivot) is the log of 1 / pivot."""
    exp, log, order = m.ctx._exp, m.ctx._log, m.ctx.q - 1
    mat = list(m.rows)
    pivots: List[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        li = order - log[mat[r][c]]
        mat[r] = pivot = [exp[li + log[v]] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                lf = log[mat[i][c]]
                mat[i] = [a ^ exp[lf + log[b]] for a, b in zip(mat[i], pivot)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def rank(m: BitMatrix | FieldMatrix) -> int:
    """Rank over the matrix's field."""
    return len(m.rref[0])


def nullspace_basis(m: BitMatrix | FieldMatrix):
    """Basis of the right kernel {x : m @ x^T = 0}, as a matrix of basis *rows*.

    One row per free column of m.rref (kernel dim = cols - rank); a trivial
    kernel yields a 0-row matrix.
    """
    rref, pivots = m.rref
    free = sorted(set(range(m.cols)) - set(pivots))
    if isinstance(m, BitMatrix):
        basis = []
        for f in free:
            v = 1 << f
            for row, p in zip(rref, pivots):
                if (row >> f) & 1:
                    v |= 1 << p
            basis.append(v)
        return BitMatrix(tuple(basis), m.cols)
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for row, p in zip(rref, pivots):
            v[p] = row[f]  # -row[f], but char 2
        basis.append(tuple(v))
    return FieldMatrix(tuple(basis), m.cols, m.ctx)


def _sample_full_rank(n: int, k: int, seed: int, draw):
    """The samplers' rejection loop: draw(rng) from one SplitMix64(seed)
    stream until the k x n matrix it returns has rank k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    while True:
        m = draw(rng)
        if rank(m) == k:
            return m


def sample_binary_code(n: int, k: int, seed: int) -> BitMatrix:
    """Uniform k-dimensional subspace of GF(2)^n, as a full-rank k x n generator.

    Draws a uniform k x n matrix and redraws until it has rank k; conditioning
    a uniform matrix on full rank makes its row space uniform over subspaces.
    """
    def draw(rng: SplitMix64) -> BitMatrix:
        return BitMatrix(tuple(rng.bits(n) for _ in range(k)), n)

    return _sample_full_rank(n, k, seed, draw)


def sample_field_code(ctx: FieldCtx, n: int, k: int, seed: int) -> FieldMatrix:
    """Uniform k-dimensional subspace of ctx^n, as a full-rank k x n generator.

    Each draw takes k * n stream outputs, row by row, and keeps the low k0 bits
    of each: q is a power of two, so that is ``randrange(q)``, which never rejects."""
    def draw(rng: SplitMix64) -> FieldMatrix:
        return FieldMatrix((rng.words(k * n) & (ctx.q - 1)).reshape(k, n).tolist(), n, ctx)

    return _sample_full_rank(n, k, seed, draw)

"""Dense linear algebra over GF(2) (bit-packed rows) and over GF(2^k0).

GF(2) matrices store each row as one int, bit j = column j.  Field matrices
store rows as lists of element values plus the owning :class:`FieldCtx`.
Matrices are immutable after construction; every operation here is pure.
Each matrix eliminates once, on first use, and keeps its row echelon form
(``m.echelon``: the forward phase's kept rows and their pivots); its rank is
the number of kept rows.  Its reduced row echelon form (``m.rref``) is that
kept form back-substituted, also on first use and kept, and its right kernel
is read off the RREF; both are ``functools.cached_property``.  So a sampled
generator ranked on acceptance is not reduced again by the code built from
it, and a rank check never pays for the back-substitution.
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
    def echelon(self) -> tuple:
        """(kept rows, their pivot bits) of the forward elimination (see
        :func:`_gf2_echelon`)."""
        return _gf2_echelon(self.rows)

    @functools.cached_property
    def rref(self) -> tuple:
        """(reduced nonzero rows, pivot columns): the echelon form back-substituted."""
        return _gf2_back_substitute(*self.echelon)

    def combine(self, bits: int) -> int:
        """XOR of the rows whose index is a set bit of bits (a generator's codeword)."""
        out, rows = 0, self.rows
        while bits:
            low = bits & -bits
            out ^= rows[low.bit_length() - 1]
            bits ^= low
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
    def echelon(self) -> tuple:
        """(row echelon rows, pivot columns) of the forward elimination."""
        return _field_echelon(self)

    @functools.cached_property
    def rref(self) -> tuple:
        """(reduced nonzero rows, pivot columns): the echelon form back-substituted."""
        return _field_back_substitute(self.ctx, *self.echelon)


def _gf2_echelon(rows: Sequence[int]):
    """Forward elimination over GF(2): (kept rows, their pivots), in the order
    kept, a pivot being a row's lowest set bit (as an int, 1 << column).  Each
    row is reduced by the kept rows until it is 0 or has a pivot no kept row
    has, and is then kept; sorted by pivot, the kept rows are in row echelon
    form."""
    by_pivot = {}
    for r in rows:
        while r:
            low = r & -r
            if low not in by_pivot:
                by_pivot[low] = r
                break
            r ^= by_pivot[low]
    return tuple(by_pivot.values()), tuple(by_pivot)


def _gf2_back_substitute(rows: Sequence[int], lows: Sequence[int]):
    """The RREF of kept rows: (reduced rows, pivot column indices) in pivot
    order.  The rows are taken from the highest pivot down, and each clears
    its bits at the pivots of the rows taken before it, already reduced."""
    by_pivot = dict(zip(lows, rows))
    lows = sorted(by_pivot)
    reduced: List[int] = []
    for low in reversed(lows):
        r = by_pivot[low]
        for b in reduced:
            if r & b & -b:
                r ^= b
        reduced.append(r)
    return tuple(reversed(reduced)), tuple(low.bit_length() - 1 for low in lows)


def _gf2_rref(rows: Sequence[int]):
    """RREF over GF(2); returns (reduced nonzero rows, pivot column indices)."""
    return _gf2_back_substitute(*_gf2_echelon(rows))


def _field_echelon(m: FieldMatrix):
    """Forward elimination over the field: (row echelon rows, pivot column
    indices).  Each pivot, the first nonzero entry of its column at or below
    the current row, clears the rows below it and is not scaled; a row
    operation adds logs, (log a - log pivot) mod (q - 1) being the log of
    a / pivot."""
    exp, log, order = m.ctx._exp, m.ctx._log, m.ctx.q - 1
    mat = list(m.rows)
    pivots: List[int] = []
    r = 0
    for c in range(m.cols):
        for p in range(r, len(mat)):
            if mat[p][c]:
                break
        else:
            continue
        pivot, mat[p] = mat[p], mat[r]
        lp = log[pivot[c]]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            if row[c]:
                lf = (log[row[c]] - lp) % order
                mat[i] = tuple([a ^ exp[lf + log[b]] for a, b in zip(row, pivot)])
        mat[r] = pivot
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(mat[:r]), tuple(pivots)


def _field_back_substitute(ctx: FieldCtx, rows: Sequence[Sequence[int]], pivots: Sequence[int]):
    """The RREF of echelon rows over ctx.  The rows are taken from the highest
    pivot down; each is scaled to a unit pivot (q - 1 - log pivot is the log of
    its inverse) and clears its entries at the pivots of the rows taken before
    it, already reduced."""
    exp, log, order = ctx._exp, ctx._log, ctx.q - 1
    reduced: List[tuple] = []
    for row, c in zip(reversed(rows), reversed(pivots)):
        li = order - log[row[c]]
        row = [exp[li + log[v]] for v in row]
        for b, p in zip(reduced, reversed(pivots)):
            if row[p]:
                lf = log[row[p]]
                row = [a ^ exp[lf + log[v]] for a, v in zip(row, b)]
        reduced.append(tuple(row))
    return tuple(reversed(reduced)), tuple(pivots)


def rank(m: BitMatrix | FieldMatrix) -> int:
    """Rank over the matrix's field: the rows of its kept echelon form."""
    return len(m.echelon[0])


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

"""Dense linear algebra over GF(2) (bit-packed rows) and over GF(2^k0).

GF(2) matrices store each row as one int, bit j = column j.  Field matrices
store rows as lists of element values plus the owning :class:`FieldCtx`.
Matrices are immutable after construction; every operation here is pure.
"""

from __future__ import annotations

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
        mask = (1 << self.cols) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row has bits set beyond cols")
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

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
        norm = []
        for r in self.rows:
            r = tuple(int(v) for v in r)
            if len(r) != self.cols:
                raise ValueError("row length does not match cols")
            if any(not 0 <= v < q for v in r):
                raise ValueError("entry out of field range")
            norm.append(r)
        object.__setattr__(self, "rows", tuple(norm))

    @property
    def nrows(self) -> int:
        return len(self.rows)


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) via elimination on int-packed rows."""
    pivots: List[int] = []
    for r in rows:
        r = int(r)
        while r:
            hit = False
            for p in pivots:
                if p.bit_length() == r.bit_length():
                    r ^= p
                    hit = True
                    break
            if not hit:
                break
        if r:
            pivots.append(r)
    return len(pivots)


def _gf2_rref(rows: Sequence[int], cols: int):
    """RREF over GF(2); returns (reduced nonzero rows, pivot column indices)."""
    mat = [int(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        bit = 1 << c
        pivot_row = next((i for i in range(r, len(mat)) if mat[i] & bit), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        for i in range(len(mat)):
            if i != r and (mat[i] & bit):
                mat[i] ^= mat[r]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _field_rref(m: FieldMatrix):
    """RREF over the field; returns (reduced nonzero rows, pivot column indices)."""
    ctx = m.ctx
    mat = [list(r) for r in m.rows]
    pivots: List[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ctx.inv(mat[r][c])
        mat[r] = [ctx.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a ^ ctx.mul(f, b) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(m: BitMatrix | FieldMatrix) -> int:
    """Rank over the matrix's field."""
    if isinstance(m, BitMatrix):
        return gf2_rank(m.rows)
    return len(_field_rref(m)[0])


def nullspace_basis(m: BitMatrix | FieldMatrix, side: str = "right"):
    """Basis of the requested kernel, returned as a matrix of basis *rows*.

    right: all x with m @ x^T = 0 (kernel dim = cols - rank).
    left:  all y with y @ m = 0   (kernel dim = rows - rank).
    A trivial kernel yields a 0-row matrix.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if side == "left":
        return nullspace_basis(_transpose(m), "right")
    if isinstance(m, BitMatrix):
        rref, pivots = _gf2_rref(m.rows, m.cols)
        pivot_set = set(pivots)
        free = [c for c in range(m.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = 1 << f
            for row, p in zip(rref, pivots):
                if (row >> f) & 1:
                    v |= 1 << p
            basis.append(v)
        return BitMatrix(tuple(basis), m.cols)
    ctx = m.ctx
    rref, pivots = _field_rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for row, p in zip(rref, pivots):
            v[p] = row[f]  # -row[f], but char 2
        basis.append(tuple(v))
    return FieldMatrix(tuple(basis), m.cols, ctx)


def _transpose(m: BitMatrix | FieldMatrix):
    if isinstance(m, BitMatrix):
        return BitMatrix(tuple(m.column(j) for j in range(m.cols)), m.nrows)
    cols = [tuple(r[j] for r in m.rows) for j in range(m.cols)]
    return FieldMatrix(tuple(cols), m.nrows, m.ctx)


def sample_binary_code(n: int, k: int, seed: int) -> BitMatrix:
    """Uniform k-dimensional subspace of GF(2)^n, as a full-rank k x n generator.

    Draws a uniform k x n matrix and redraws until it has rank k; conditioning
    a uniform matrix on full rank makes its row space uniform over subspaces.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    while True:
        rows = tuple(rng.bits(n) for _ in range(k))
        if gf2_rank(rows) == k:
            return BitMatrix(rows, n)


def sample_field_code(ctx: FieldCtx, n: int, k: int, seed: int) -> FieldMatrix:
    """Uniform k-dimensional subspace of ctx^n, as a full-rank k x n generator."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    while True:
        rows = tuple(tuple(rng.randrange(ctx.q) for _ in range(n)) for _ in range(k))
        m = FieldMatrix(rows, n, ctx)
        if rank(m) == k:
            return m


"""Binary extension fields GF(2^k0) with a trace-orthonormal (self-dual) basis.

Field elements are plain ints: the bits of the value are the coefficients of
the polynomial representation (bit i = coefficient of x^i).  Addition is XOR;
multiplication is carry-less multiplication reduced modulo a fixed irreducible
polynomial, by default the smallest one of degree k0, found by search.  That
definition is evaluated only while a :class:`FieldCtx` is built: it generates
the powers of the smallest primitive element into log/antilog tables, and
every multiply and inverse afterwards is a table lookup.  Each
:class:`FieldCtx` also carries a basis nu_1..nu_k0 that is *self-dual* for the
trace form, i.e. Tr(nu_i * nu_j) = 1 iff i == j.  Writing elements in that
basis makes the trace form the plain GF(2) dot product:

    Tr(a * b) == parity(coords(a) & coords(b))

which is the identification this whole package relies on when it moves
between GF(2^k0) symbols and k0-bit vectors.  The coordinate tables are read
off the basis: the element with coordinates x is the XOR of the nu_(i+1) over
the set bits i of x.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, List, Sequence

import numpy as np

MAX_DEGREE = 16


def _poly_rem(f: int, d: int) -> int:
    """Remainder of polynomial f modulo nonzero polynomial d, over GF(2)."""
    dd = d.bit_length() - 1
    while f and f.bit_length() - 1 >= dd:
        f ^= d << (f.bit_length() - 1 - dd)
    return f


def _clmul(a: int, b: int, modulus: int) -> int:
    """Carry-less multiply of a and b reduced mod modulus, by shift and add.
    The definition of the field product; only the table build runs it."""
    r = 0
    top = 1 << (modulus.bit_length() - 1)
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


def is_irreducible(poly: int) -> bool:
    """Irreducibility over GF(2) by trial division up to half the degree."""
    deg = poly.bit_length() - 1
    if deg <= 0:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if _poly_rem(poly, d) == 0:
            return False
    return True


@functools.cache
def smallest_irreducible(k0: int) -> int:
    """The lexicographically smallest irreducible polynomial of degree k0 (a
    bitmask with bit k0 set): the default modulus, so every run and every
    machine builds the same field."""
    return next(p for p in range(1 << k0, 2 << k0) if is_irreducible(p))


class FieldCtx:
    """A concrete GF(2^k0): modulus, trace, and a verified self-dual basis.

    Immutable after construction; all operations are pure, so a context can
    be shared freely across threads.
    """

    def __init__(self, k0: int, modulus: int | None = None) -> None:
        if not 1 <= k0 <= MAX_DEGREE:
            raise ValueError(f"extension degree k0={k0} out of range [1, {MAX_DEGREE}]")
        if modulus is None:
            modulus = smallest_irreducible(k0)
        if modulus.bit_length() - 1 != k0:
            raise ValueError(f"modulus {modulus:#x} does not have degree {k0}")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.k0 = k0
        self.q = 1 << k0
        self.modulus = modulus
        self._build_tables()
        self._verify_tables()
        # Trace is GF(2)-linear, so Tr(x) = parity(x & mask) where bit j of
        # mask is Tr(x^j).  This is the precomputed trace table, stored as a
        # k0-bit linear functional instead of 2^k0 individual bits.
        self._trace_mask = 0
        for j in range(k0):
            if self._trace_by_definition(1 << j):
                self._trace_mask |= 1 << j
        self.basis = self._build_self_dual_basis()
        self._verify_basis()
        # The element with coordinates x is the XOR of nu_(i+1) over the set
        # bits i of x, so each entry is an earlier one plus one basis vector.
        self._element_table: List[int] = [0] * self.q
        self._coords_table: List[int] = [0] * self.q
        for x in range(1, self.q):
            lsb = x & -x
            self._element_table[x] = (
                self._element_table[x ^ lsb] ^ self.basis[lsb.bit_length() - 1]
            )
            self._coords_table[self._element_table[x]] = x

    # -- arithmetic ---------------------------------------------------------

    def _build_tables(self) -> None:
        """Log/antilog tables from the powers of the smallest primitive element.

        ``_exp[i]`` is g^i, stored for i < 2(q-1) so that the sum of two logs
        indexes it without a modulo; ``_log`` inverts it on the nonzero
        elements.  Zero's log is 2(q-1), past which ``_exp`` holds 2(q-1) + 1
        zeros, so ``_exp[_log[a] + _log[b]]`` is a * b for every pair, zeros
        included.  A candidate g whose powers return to 1 before q-1 steps is
        not primitive and is skipped.
        """
        order = self.q - 1
        for g in range(1, self.q):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = _clmul(x, g, self.modulus)
            if len(powers) == order:
                break
        self._exp: List[int] = powers + powers + [0] * (2 * order + 1)
        self._log: List[int] = [2 * order] * self.q
        for i, x in enumerate(powers):
            self._log[x] = i

    def _verify_tables(self) -> None:
        if set(self._exp[: self.q - 1]) != set(range(1, self.q)):
            raise AssertionError("antilog table does not cover the nonzero elements")

    def mul(self, a: int, b: int) -> int:
        """Field product of two elements, by adding their logs."""
        return self._exp[self._log[a] + self._log[b]]

    def scale(self, c: int, vec: Sequence[int]) -> List[int]:
        """[c * v for v in vec], with one log lookup for c."""
        exp, log, lc = self._exp, self._log, self._log[c]
        return [exp[lc + log[v]] for v in vec]

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise field product of two broadcastable integer arrays,
        gathered from numpy copies of the tables that are made on first use.
        The product's dtype is the smallest unsigned type that holds q - 1.
        The log copy is int32: a sum of two logs is at most 4(q - 1) < 2^31,
        and the summed index array takes half the memory of an intp one."""
        tables = self.__dict__.get("_np_tables")
        if tables is None:
            exp = np.array(self._exp, dtype=np.min_scalar_type(self.q - 1))
            tables = self._np_tables = (exp, np.array(self._log, dtype=np.int32))
        exp, log = tables
        return exp[log[a] + log[b]]

    def packed_products(
        self, columns: Iterable[Sequence[int]], elements: Sequence[int]
    ) -> List[int]:
        """For each column c, then each element b: the products b * c[i] as
        one word, entry i in bits [i*k0, (i+1)*k0).  Each element and each
        column entry is logged once, so every product is one antilog lookup."""
        exp, log, k0 = self._exp, self._log, self.k0
        element_logs = [log[b] for b in elements]
        words = []
        for column in columns:
            column_logs = [(log[g], i * k0) for i, g in enumerate(column)]
            for lb in element_logs:
                word = 0
                for lg, s in column_logs:
                    word |= exp[lg + lb] << s
                words.append(word)
        return words

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[self.q - 1 - self._log[a]]

    # -- trace and identification -------------------------------------------

    def _trace_by_definition(self, x: int) -> int:
        """Tr(x) = x + x^2 + ... + x^(2^(k0-1)), evaluated literally."""
        acc = 0
        t = x
        for _ in range(self.k0):
            acc ^= t
            t = self.mul(t, t)
        if acc not in (0, 1):  # the defining sum always lands in GF(2)
            raise AssertionError(f"trace of {x:#x} escaped the prime field: {acc:#x}")
        return acc

    def trace(self, x: int) -> int:
        """Tr(x) in {0, 1}."""
        return (x & self._trace_mask).bit_count() & 1

    def coords(self, x: int) -> int:
        """Coordinates of x in the self-dual basis, packed LSB-first.

        Bit i of the result is the coefficient of nu_(i+1).  Because the basis
        is self-dual, bit i equals Tr(x * nu_(i+1)).
        """
        if not 0 <= x < self.q:
            raise ValueError(f"element {x} out of range for GF(2^{self.k0})")
        return self._coords_table[x]

    def from_coords(self, bits: int) -> int:
        """Inverse of :meth:`coords`: rebuild the element from basis coordinates."""
        if not 0 <= bits < self.q:
            raise ValueError(f"coordinate vector {bits} is not {self.k0} bits")
        return self._element_table[bits]

    # -- self-dual basis construction ----------------------------------------

    def _b(self, x: int, y: int) -> int:
        """The trace bilinear form B(x, y) = Tr(x * y)."""
        return self.trace(self.mul(x, y))

    def _build_self_dual_basis(self) -> List[int]:
        """Orthonormalize the trace form, starting from the polynomial basis.

        Gram-Schmidt over GF(2): repeatedly pick a vector v with B(v, v) = 1
        (equivalently Tr(v) = 1, since B(v, v) = Tr(v^2) = Tr(v)), then
        project it out of the rest.  When the remaining space is alternating
        (every B(v, v) = 0) it splits off a hyperbolic pair (u, w); together
        with the previously chosen e, the triple {e+u, e+w, e+u+w} is
        orthonormal and spans the same space, which un-sticks the recursion.
        The trace form is non-alternating on the full field (Tr is onto), so
        the very first step always finds a diagonal vector.  Both projections
        keep the remaining vectors linearly independent, so they never need
        re-reducing; ``_verify_basis`` checks the result.
        """
        remaining = [1 << j for j in range(self.k0)]
        chosen: List[int] = []
        while remaining:
            pivot = next((v for v in remaining if self._b(v, v) == 1), None)
            if pivot is not None:
                remaining.remove(pivot)
                remaining = [w ^ (pivot if self._b(w, pivot) else 0) for w in remaining]
                chosen.append(pivot)
                continue
            # Alternating complement: the first hyperbolic pair, in list order.
            pair = next((p for p in itertools.combinations(remaining, 2) if self._b(*p)), None)
            if pair is None or not chosen:
                raise AssertionError("trace form degenerated; modulus not irreducible?")
            u, w = pair
            remaining = [v for v in remaining if v not in (u, w)]
            remaining = [
                v ^ (u if self._b(v, w) else 0) ^ (w if self._b(v, u) else 0)
                for v in remaining
            ]
            e = chosen.pop()
            chosen.extend([e ^ u, e ^ w, e ^ u ^ w])
        return chosen

    def _verify_basis(self) -> None:
        k0 = self.k0
        if len(self.basis) != k0:
            raise AssertionError("self-dual basis has wrong size")
        for i in range(k0):
            for j in range(k0):
                want = 1 if i == j else 0
                if self._b(self.basis[i], self.basis[j]) != want:
                    raise AssertionError("constructed basis is not self-dual")

    # -- misc -----------------------------------------------------------------

    def descriptor(self) -> dict:
        """Serializable field descriptor embedded in code files and reports."""
        return {
            "k0": self.k0,
            "modulus": f"{self.modulus:#x}",
            "basis": [f"{nu:#x}" for nu in self.basis],
        }

    def __repr__(self) -> str:
        return f"FieldCtx(k0={self.k0}, modulus={self.modulus:#x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and other.k0 == self.k0
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.k0, self.modulus))


@functools.cache
def make_field(k0: int, modulus: int | None = None) -> FieldCtx:
    """GF(2^k0) modulo ``modulus`` (default: ``smallest_irreducible(k0)``),
    with a verified self-dual basis.

    Built once per (k0, modulus) and shared: a FieldCtx is immutable and its
    operations are pure.  Naming the default modulus returns the default
    field's object.  An invalid degree or modulus raises on every call.
    """
    if modulus is not None and 1 <= k0 <= MAX_DEGREE and modulus == smallest_irreducible(k0):
        return make_field(k0)
    return FieldCtx(k0, modulus)

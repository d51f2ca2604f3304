import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from concatgv import linalg
from concatgv.codes import BinaryCode, OuterCode
from concatgv.field import make_field
from concatgv.linalg import (
    BitMatrix,
    FieldMatrix,
    nullspace_basis,
    rank,
    sample_binary_code,
    sample_field_code,
)
from concatgv.rng import SplitMix64, derive_seed

from oracles import column, field_rref_by_scale, gf2_rref_by_columns, sample_field_code_by_randrange


def test_rank_examples():
    ident = BitMatrix((1, 2, 4, 8), 4)
    assert rank(ident) == 4
    assert rank(BitMatrix((0, 0), 3)) == 0
    assert rank(BitMatrix((0b101, 0b101), 3)) == 1
    ctx = make_field(2)
    assert rank(FieldMatrix(((1, 0), (0, 1)), 2, ctx)) == 2
    # (2, 3) = 2 * (1, 2) over F4, so these rows are dependent
    assert rank(FieldMatrix(((1, 2), (2, 3)), 2, ctx)) == 1
    assert rank(FieldMatrix(((1, 2), (0, 1)), 2, ctx)) == 2


def test_gf2_rref_matches_column_by_column_elimination():
    rng = SplitMix64(17)
    for _ in range(3000):
        n, k = rng.randrange(13), rng.randrange(9)
        rows = [rng.bits(n) for _ in range(k)]
        if k > 1 and rng.randrange(3) == 0:  # force a dependent row
            rows.append(rows[0] ^ rows[-1])
        assert BitMatrix(tuple(rows), n).rref == gf2_rref_by_columns(rows, n)


@pytest.mark.parametrize("k0", range(1, 9))
def test_field_rref_matches_elimination_by_scale(k0):
    ctx = make_field(k0)
    rng = SplitMix64(derive_seed(23, k0))
    seen = set()
    for _ in range(400):
        n, k = rng.randrange(8), 1 + rng.randrange(7)
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
        kind = rng.randrange(4)
        if kind == 1 and k > 1:  # a combination of two rows
            a, b = 1 + rng.randrange(ctx.q - 1), rng.randrange(ctx.q)
            rows.append([ctx.mul(a, x) ^ ctx.mul(b, y) for x, y in zip(rows[0], rows[-1])])
            seen.add("combination")
        elif kind == 2 and n:
            zero = rng.randrange(n)
            for row in rows:
                row[zero] = 0
            seen.add("zero column")
        elif kind == 3:
            rows.append(list(rows[rng.randrange(k)]))
            seen.add("repeated row")
        m = FieldMatrix(rows, n, ctx)
        rref = m.rref
        assert rref == field_rref_by_scale(m)
        seen.add("k > n" if m.nrows > n else "k <= n")
        seen.add("full rank" if len(rref[0]) == m.nrows else "rank deficient")
    assert len(seen) == 7


def test_combine_xors_the_rows_of_the_set_bits():
    rng = SplitMix64(5)
    for _ in range(500):
        k, n = rng.randrange(10), 1 + rng.randrange(40)
        gen = BitMatrix(tuple(rng.bits(n) for _ in range(k)), n)
        bits = rng.bits(k)
        want = 0
        for i in range(k):
            if (bits >> i) & 1:
                want ^= gen.rows[i]
        assert gen.combine(bits) == want


def test_bitmatrix_validates_stray_bits():
    with pytest.raises(ValueError, match="row has bits set beyond cols"):
        BitMatrix((0b100,), 2)


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        ((0b01, -1), 2, "row has bits set beyond cols"),
        ((), -1, "cols must be nonnegative"),
    ],
)
def test_bitmatrix_rejects(rows, cols, message):
    with pytest.raises(ValueError, match=message):
        BitMatrix(rows, cols)


@pytest.mark.parametrize(
    "rows, message",
    [
        (((1, 2, 3), (0, -1, 2)), "entry out of field range"),
        (((1, 2, 3), (0, 4, 2)), "entry out of field range"),
        (((1, 2, 3), (0, 1)), "row length does not match cols"),
        (((1, 2, 3), (0, 1, 2, 3)), "row length does not match cols"),
    ],
)
def test_fieldmatrix_rejects(rows, message):
    with pytest.raises(ValueError, match=message):
        FieldMatrix(rows, 3, make_field(2))


@pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (0, 0), (2, -1)])
@pytest.mark.parametrize(
    "sample",
    [
        lambda n, k: sample_binary_code(n, k, 1),
        lambda n, k: sample_field_code(make_field(2), n, k, 1),
    ],
)
def test_samplers_reject_k_outside_one_to_n(sample, n, k):
    with pytest.raises(ValueError, match=f"need 1 <= k <= n, got k={k}, n={n}"):
        sample(n, k)


def test_matrices_store_plain_int_rows():
    bits = BitMatrix([np.uint64(5), True], 3)
    assert bits.rows == (5, 1) and all(type(r) is int for r in bits.rows)
    field = FieldMatrix([np.array([1, 2, 3], dtype=np.uint8)], 3, make_field(2))
    assert field.rows == ((1, 2, 3),) and all(type(v) is int for v in field.rows[0])


def test_nullspace_identity_trivial():
    ident = BitMatrix((1, 2, 4), 3)
    ker = nullspace_basis(ident)
    assert ker.nrows == 0
    ctx = make_field(2)
    full = FieldMatrix(((1, 0), (0, 1)), 2, ctx)
    assert nullspace_basis(full).nrows == 0


def test_nullspace_repetition_dual_is_even_weight():
    n = 6
    rep = BitMatrix(((1 << n) - 1,), n)
    dual = nullspace_basis(rep)
    assert dual.nrows == n - 1
    assert rank(dual) == n - 1
    # every vector in the span has even weight; check the whole span
    span = {0}
    for b in dual.rows:
        span |= {v ^ b for v in span}
    assert len(span) == 1 << (n - 1)
    assert all(v.bit_count() % 2 == 0 for v in span)


def test_nullspace_field_membership():
    ctx = make_field(2)
    g = sample_field_code(ctx, 4, 2, seed=3)
    dual = nullspace_basis(g)
    assert dual.nrows == 2
    for row in dual.rows:
        for grow in g.rows:
            acc = 0
            for a, b in zip(grow, row):
                acc ^= ctx.mul(a, b)
            assert acc == 0


def test_left_nullspace():
    # the left kernel {y : y @ m = 0} is the right kernel of m's transpose
    m = BitMatrix((0b11, 0b11, 0b01), 2)
    left = nullspace_basis(BitMatrix(tuple(column(m, j) for j in range(m.cols)), m.nrows))
    assert left.nrows == 1
    y = left.rows[0]
    # y @ m = 0: xor of selected rows is zero
    acc = 0
    for i in range(m.nrows):
        if (y >> i) & 1:
            acc ^= m.rows[i]
    assert acc == 0


def test_double_dual_spans_original():
    rng = SplitMix64(99)
    for n in (4, 6, 9, 12):
        for _ in range(10):
            k = 1 + rng.randrange(n)
            g = sample_binary_code(n, k, rng.u64())
            dd = nullspace_basis(nullspace_basis(g))
            assert rank(dd) == k
            stacked = BitMatrix(g.rows + dd.rows, n)
            assert rank(stacked) == k


def test_sample_code_rank_and_determinism():
    a = sample_binary_code(10, 4, seed=7)
    b = sample_binary_code(10, 4, seed=7)
    assert a == b
    assert rank(a) == 4
    ctx = make_field(3)
    fa = sample_field_code(ctx, 5, 2, seed=8)
    fb = sample_field_code(ctx, 5, 2, seed=8)
    assert fa == fb and rank(fa) == 2


# (k0, n, k): the ensemble and certify shapes, a square GF(2) draw that is
# rejected about 71% of the time, and the widest symbols
@pytest.mark.parametrize("k0, n, k", [(4, 6, 3), (4, 4, 2), (1, 3, 3), (2, 4, 2), (3, 1, 1), (16, 3, 2)])
def test_field_sampler_takes_the_randrange_stream(k0, n, k):
    ctx = make_field(k0)
    redrawn = 0
    for seed in range(200):
        want, draws = sample_field_code_by_randrange(ctx, n, k, derive_seed(k0, seed))
        assert sample_field_code(ctx, n, k, derive_seed(k0, seed)) == want
        redrawn += draws > 1
    if k0 == 1:  # rank rejections, and the draws after them, are exercised
        assert redrawn > 100


def test_unique_subspace_n1_k1():
    for s in range(20):
        assert sample_binary_code(1, 1, s).rows == (1,)


def test_subspace_uniformity_n2_k1():
    # Oracle: the three 1-dimensional subspaces of F2^2 are spanned by 01, 10, 11.
    counts = {1: 0, 2: 0, 3: 0}
    trials = 30_000
    for s in range(trials):
        counts[sample_binary_code(2, 1, s).rows[0]] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    for v in counts.values():
        assert abs(v / trials - 1 / 3) <= 3 * sigma


def test_negative_correlation_of_membership():
    # Pr[x and y in C] <= Pr[x in C] Pr[y in C] + 3 sigma over sampled codes.
    n, k = 8, 3
    x, y = 0b10110101, 0b01011100
    trials = 100_000
    both = only_x = only_y = 0
    for t in range(trials):
        g = sample_binary_code(n, k, derive_seed(4242, t))
        in_x = rank(BitMatrix(g.rows + (x,), n)) == k
        in_y = rank(BitMatrix(g.rows + (y,), n)) == k
        both += in_x and in_y
        only_x += in_x
        only_y += in_y
    p_both = both / trials
    p_x = only_x / trials
    p_y = only_y / trials
    sigma = math.sqrt(p_both * (1 - p_both) / trials) if p_both else 1 / trials
    assert p_both <= p_x * p_y + 3 * sigma


def test_column_and_product():
    m = BitMatrix((0b011, 0b110), 3)
    assert [column(m, j) for j in range(3)] == [0b01, 0b11, 0b10]
    # M @ 011 is the XOR of columns 0 and 1: row0 hits {0,1} (even), row1 {1} (odd)
    assert column(m, 0) ^ column(m, 1) == 0b10


def counting(monkeypatch, name):
    """Replace linalg.<name> by a wrapper that counts its calls."""
    calls = []
    fn = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda *a: calls.append(1) or fn(*a))
    return calls


def test_rref_is_computed_once_and_immutable(monkeypatch):
    # one forward elimination per matrix, kept; the RREF back-substitutes it once
    phases = {name: counting(monkeypatch, name) for name in
              ("_gf2_echelon", "_gf2_back_substitute", "_field_echelon", "_field_back_substitute")}
    ctx = make_field(2)
    for m in (BitMatrix((0b110, 0b011), 3), FieldMatrix(((1, 2, 3), (2, 3, 1)), 3, ctx)):
        assert m.echelon is m.echelon
        assert isinstance(m.rref, tuple) and m.rref is m.rref
        rows, pivots = m.rref
        assert isinstance(rows, tuple) and isinstance(pivots, tuple)
        assert rank(m) == len(rows) and nullspace_basis(m).nrows == m.cols - rank(m)
    assert {name: len(calls) for name, calls in phases.items()} == dict.fromkeys(phases, 1)
    assert isinstance(FieldMatrix(((1, 2, 3),), 3, ctx).rref[0][0], tuple)


def test_outer_code_and_its_kernel_take_one_field_elimination(monkeypatch):
    # the sampled generator's, which OuterCode and the kernel basis both read
    calls = counting(monkeypatch, "_field_echelon")
    ctx = make_field(4)
    kernel = nullspace_basis(OuterCode(sample_field_code(ctx, 6, 3, 5)).gen)
    assert len(calls) == 1
    assert (kernel.cols, kernel.nrows) == (6, 3)


def test_one_gf2_elimination_per_inner_draw(monkeypatch):
    # rank calls made by the sampler are its draws; BinaryCode adds none, and
    # neither back-substitutes
    draws = counting(monkeypatch, "rank")
    calls = counting(monkeypatch, "_gf2_echelon")
    monkeypatch.setattr(linalg, "_gf2_back_substitute", None)
    for seed in range(40):
        BinaryCode(sample_binary_code(4, 3, seed))
        assert len(calls) == len(draws)
    assert len(draws) > 40  # some were rejected: a random 3 x 4 binary matrix has rank < 3 w.p. 0.38


def matrices(k0: int):
    """Hypothesis strategy: field matrices over GF(2^k0) with zero, repeated and
    dependent rows, more rows than columns, and 0 columns."""
    ctx = make_field(k0)
    element = st.integers(0, ctx.q - 1)

    @st.composite
    def matrix(draw):
        cols = draw(st.integers(0, 7))
        rows = draw(st.lists(st.lists(element, min_size=cols, max_size=cols), max_size=9))
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["zero", "repeat", "combine"]))
            if kind == "zero" or not rows:
                rows.append([0] * cols)
            elif kind == "repeat":
                rows.append(list(draw(st.sampled_from(rows))))
            else:
                a, b = draw(element), draw(element)
                x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
                rows.append([ctx.mul(a, u) ^ ctx.mul(b, v) for u, v in zip(x, y)])
            rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop())
        return FieldMatrix(rows, cols, ctx)

    return matrix()


@pytest.mark.parametrize("k0", [1, 2, 4, 8])
@given(data=st.data())
def test_echelon_rank_and_rref_match_the_oracles(k0, data):
    m = data.draw(matrices(k0))
    want = field_rref_by_scale(m)
    assert rank(m) == len(want[0]) and m.rref == want
    if k0 == 1:  # the same rows over GF(2), bit j = column j
        bits = BitMatrix(tuple(sum(v << j for j, v in enumerate(row)) for row in m.rows), m.cols)
        want = gf2_rref_by_columns(bits.rows, m.cols)
        assert rank(bits) == len(want[0]) and bits.rref == want
        assert linalg._gf2_rref(bits.rows) == want

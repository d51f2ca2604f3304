import numpy as np
import pytest
from hypothesis import given, strategies as st

from concatgv.codes import (
    BinaryCode,
    ConcatCode,
    OuterCode,
    WeightDistribution,
    bias,
    codeword_table,
    min_distance,
    weight_distribution,
)
from concatgv.field import FieldCtx, make_field
from concatgv.linalg import BitMatrix, FieldMatrix, sample_binary_code, sample_field_code
from concatgv.rng import SplitMix64, derive_seed

from oracles import all_messages

F2 = make_field(1)
F4 = make_field(2)


def tiny_concat(seed: int, k0=2, n0=3, n=2, k=1) -> ConcatCode:
    ctx = make_field(k0)
    inner = BinaryCode(sample_binary_code(n0, k0, derive_seed(seed, 0)))
    outer = OuterCode(sample_field_code(ctx, n, k, derive_seed(seed, 1)))
    return ConcatCode(outer, inner)


def test_full_rank_enforced():
    with pytest.raises(ValueError):
        BinaryCode(BitMatrix((0b11, 0b11), 2))
    with pytest.raises(ValueError):
        OuterCode(FieldMatrix(((1, 2), (2, 3)), 2, F4))


def test_alphabet_mismatch_rejected():
    inner = BinaryCode(BitMatrix((0b111,), 3))  # k0 = 1
    outer = OuterCode(FieldMatrix(((1, 1),), 2, F4))  # field degree 2
    with pytest.raises(ValueError):
        ConcatCode(outer, inner)


def test_encode_zero_is_zero():
    cc = tiny_concat(5)
    assert cc.encode((0,) * cc.outer.k) == 0


def test_identity_inner_reproduces_identification():
    inner_id = BinaryCode(BitMatrix((1, 2), 2))
    outer = OuterCode(sample_field_code(F4, 3, 2, seed=9))
    cc = ConcatCode(outer, inner_id)
    for m in all_messages(outer):
        cw = cc.encode(m)
        expect = 0
        for a, sym in enumerate(outer.encode(m)):
            expect |= F4.coords(sym) << (2 * a)
        assert cw == expect


def test_rate_is_product_of_rates():
    cc = tiny_concat(1)
    assert cc.rate == pytest.approx((cc.outer.k / cc.outer.n) * (cc.inner.k0 / cc.inner.n0))


def test_omega_is_generator_columns_in_order():
    inner = BinaryCode(BitMatrix((0b101, 0b011), 3))
    outer = OuterCode(FieldMatrix(((1,),), 1, F4))
    cc = ConcatCode(outer, inner)
    cols = [inner.gen.column(b) for b in range(3)]
    assert cc.omega == tuple(F4.from_coords(c) for c in cols)
    assert len(cc.omega) == inner.n0  # duplicates kept


def test_omega_is_computed_once():
    cc = tiny_concat(4, k0=3, n0=5)
    assert cc.omega is cc.omega
    assert cc.omega == tuple(cc.ctx.from_coords(cc.inner.gen.column(b)) for b in range(5))


def sparse_outer(ctx, n: int, k: int, seed: int) -> OuterCode:
    """A full-rank k x n generator with about half its entries zero."""
    rng = SplitMix64(seed)
    while True:
        rows = [[rng.randrange(ctx.q) if rng.bits(1) else 0 for _ in range(n)] for _ in range(k)]
        try:
            return OuterCode(FieldMatrix(rows, n, ctx))
        except ValueError:
            continue


def inner_with_zero_and_repeated_column(k0: int, seed: int) -> BinaryCode:
    """A [k0 + 2, k0] code: a random [k0, k0] generator, then a zero column and
    a copy of column 0, so that Omega holds 0 and a repeated element."""
    rows = sample_binary_code(k0, k0, seed).rows
    return BinaryCode(BitMatrix(tuple(r | (r & 1) << (k0 + 1) for r in rows), k0 + 2))


@pytest.mark.parametrize("k0", [*range(1, 9), 12])
def test_message_basis_words_are_codewords_of_single_bit_messages(k0):
    ctx = make_field(k0)
    shapes = [(2, 1)] if k0 > 8 else [(n, k) for n in range(1, 4) for k in range(1, n + 1)]
    inners = [BinaryCode(sample_binary_code(n0, k0, derive_seed(n0, k0))) for n0 in (k0, k0 + 2)]
    inners.append(inner_with_zero_and_repeated_column(k0, derive_seed(3, k0)))
    omega = ConcatCode(OuterCode(FieldMatrix(((1,),), 1, ctx)), inners[-1]).omega
    assert omega[k0] == 0 and omega[k0 + 1] == omega[0]
    zeros_seen = 0
    for inner in inners:
        for n, k in shapes:
            for outer in (
                OuterCode(sample_field_code(ctx, n, k, derive_seed(10 * n + k, k0))),
                sparse_outer(ctx, n, k, derive_seed(10 * n + k, 100 + k0)),
            ):
                zeros_seen += sum(row.count(0) for row in outer.gen.rows)
                cc = ConcatCode(outer, inner)
                want = [
                    cc.encode(tuple(ctx.from_coords(1 << j) if t == i else 0 for t in range(k)))
                    for i in range(k)
                    for j in range(k0)
                ]
                assert cc.gen.rows == tuple(want) and cc.gen.cols == cc.N
    assert zeros_seen > 0


# (k0, n0, n, k): the ensemble shape, q - 1 < K * n, and K * n < q - 1.
@pytest.mark.parametrize("k0, n0, n, k", [(4, 8, 6, 3), (2, 4, 4, 2), (12, 14, 2, 1)])
def test_generator_encodes_each_distinct_symbol_once(k0, n0, n, k, monkeypatch):
    ctx = make_field(k0)
    inner = BinaryCode(sample_binary_code(n0, k0, derive_seed(k0, 0)))
    outer = OuterCode(sample_field_code(ctx, n, k, derive_seed(k0, 1)))
    symbols = {ctx.mul(nu, g) for row in outer.gen.rows for nu in ctx.basis for g in row} - {0}
    calls = {"mul": [], "encode": []}
    for cls, name in ((FieldCtx, "mul"), (BinaryCode, "encode")):
        fn = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, fn=fn, log=calls[name]: log.append(a) or fn(*a))
    cc = ConcatCode(outer, inner)
    cc.gen
    assert calls["mul"] == []
    assert len(calls["encode"]) == len(symbols) <= min(ctx.q - 1, cc.K * n)


def test_bias_of_zero_message_is_N():
    cc = tiny_concat(2)
    assert bias(cc, (0,) * cc.outer.k) == cc.N


def test_bias_weight_identity_exhaustive():
    # cross-check of the two formulas on a tiny instance, all messages
    for seed in range(5):
        cc = tiny_concat(seed, k0=2, n0=2, n=2, k=1)
        for m in all_messages(cc.outer):
            x = bias(cc, m)
            w = cc.encode(m).bit_count()
            assert (cc.N - x) % 2 == 0
            assert w == (cc.N - x) // 2


@given(st.integers(min_value=0, max_value=10_000))
def test_bias_parity(seed):
    cc = tiny_concat(seed % 7)
    rng = SplitMix64(seed)
    m = tuple(rng.randrange(cc.ctx.q) for _ in range(cc.outer.k))
    assert (cc.N - bias(cc, m)) % 2 == 0


def test_encode_linearity_random_pairs():
    cc = tiny_concat(3, k0=2, n0=4, n=3, k=2)
    rng = SplitMix64(777)
    q = cc.ctx.q
    for _ in range(1000):
        m1 = tuple(rng.randrange(q) for _ in range(cc.outer.k))
        m2 = tuple(rng.randrange(q) for _ in range(cc.outer.k))
        m3 = tuple(a ^ b for a, b in zip(m1, m2))
        assert cc.encode(m3) == cc.encode(m1) ^ cc.encode(m2)


def gray_weight_counts(words, length):
    """Reference enumerator: walk all 2^len(words) messages in Gray-code order,
    one XOR and one popcount per message."""
    counts = [0] * (length + 1)
    cw = 0
    counts[0] = 1
    for t in range(1, 1 << len(words)):
        cw ^= words[(t & -t).bit_length() - 1]
        counts[cw.bit_count()] += 1
    return tuple(counts)


# (n, k): one, two and three 64-bit limbs, the 64-bit edge, and k > 16, where
# the enumerator shifts its block by the higher basis words.
@pytest.mark.parametrize(
    "n, k", [(40, 10), (64, 12), (65, 9), (128, 11), (150, 8), (192, 10), (30, 17), (70, 18)]
)
def test_weight_distribution_matches_gray_code_reference(n, k):
    for seed in range(3):
        code = BinaryCode(sample_binary_code(n, k, derive_seed(1000 * n + k, seed)))
        wd = weight_distribution(code)
        delta = gray_weight_counts(list(code.gen.rows), n)
        assert wd.delta == delta
        assert (wd.min_weight, wd.max_bias) == scanned_min_weight_and_max_bias(delta)


def scanned_min_weight_and_max_bias(delta):
    """Minimum weight and max |length - 2 weight| by a scan of every weight of
    a nonzero message."""
    length = len(delta) - 1
    weights = [j for j, count in enumerate(delta) if count - (j == 0)]
    return min(weights), max(abs(length - 2 * j) for j in weights)


def test_max_bias_from_the_top_weight():
    # The doubled [7, 3] simplex code (every nonzero weight 8) plus a column
    # read by message bit 0: weights 8 and 9, both above N/2 = 7.5, so the
    # largest |N - 2 weight| is at the highest weight.
    simplex = [sum(((c >> i) & 1) << j for j, c in enumerate(range(1, 8))) for i in range(3)]
    rows = tuple(r | r << 7 | (i == 0) << 14 for i, r in enumerate(simplex))
    wd = weight_distribution(BinaryCode(BitMatrix(rows, 15)))
    assert wd.delta == gray_weight_counts(rows, 15)
    assert [j for j, c in enumerate(wd.delta) if c][1:] == [8, 9]
    assert (wd.min_weight, wd.max_bias) == (8, 3) == scanned_min_weight_and_max_bias(wd.delta)
    # a nonzero message of weight 0 (delta[0] = 2) is the lowest weight
    two_zeros = WeightDistribution((2, 0, 1, 1))
    assert (two_zeros.min_weight, two_zeros.max_bias) == (0, 3)


def test_weight_distribution_of_concat_matches_gray_code_reference():
    cc = tiny_concat(4, k0=4, n0=20, n=4, k=2)  # N = 80: two limbs
    wd = weight_distribution(cc)
    assert wd.delta == gray_weight_counts(cc.gen.rows, cc.N)
    assert min_distance(cc) == (wd.min_weight, True)


def test_weight_distribution_dimension_zero():
    zero = BinaryCode(BitMatrix((), 5))
    assert weight_distribution(zero).delta == (1, 0, 0, 0, 0, 0)
    assert min_distance(zero) == (6, True)
    with pytest.raises(ValueError, match="no nonzero message"):
        weight_distribution(zero).max_bias


def test_weight_distribution_repetition():
    n = 5
    rep = BinaryCode(BitMatrix(((1 << n) - 1,), n))
    wd = weight_distribution(rep)
    assert wd.delta == (1, 0, 0, 0, 0, 1)


def test_weight_distribution_full_space_binomial():
    import math

    n = 6
    full = BinaryCode(BitMatrix(tuple(1 << i for i in range(n)), n))
    wd = weight_distribution(full)
    assert wd.delta == tuple(math.comb(n, j) for j in range(n + 1))
    assert wd.total == 1 << n


def test_weight_distribution_counts_and_budget():
    cc = tiny_concat(11)
    wd = weight_distribution(cc)
    assert wd.total == cc.ctx.q**cc.outer.k
    assert wd.delta[0] == 1
    with pytest.raises(ValueError):
        weight_distribution(cc, budget=1)


def test_min_distance_repetition():
    n = 7
    rep = BinaryCode(BitMatrix(((1 << n) - 1,), n))
    assert min_distance(rep) == (n, True)


def test_concat_distance_at_least_product():
    for seed in range(8):
        cc = tiny_concat(seed, k0=2, n0=4, n=3, k=2)
        d, exact = min_distance(cc)
        assert exact
        d_in, _ = min_distance(cc.inner)
        d_out = min(sum(map(bool, cc.outer.encode(m))) for m in all_messages(cc.outer) if any(m))
        assert d >= d_in * d_out


def test_montecarlo_upper_bounds_exact():
    cc = tiny_concat(21, k0=2, n0=4, n=3, k=2)
    d_exact, _ = min_distance(cc, "exact")
    d_mc, is_exact = min_distance(cc, "montecarlo", budget=500, seed=5)
    assert not is_exact
    assert d_mc >= d_exact


def test_montecarlo_on_dimension_zero_returns_without_drawing():
    zero = BinaryCode(BitMatrix((), 5))
    assert min_distance(zero, "montecarlo", budget=10) == (6, False)


@pytest.mark.parametrize("budget", [0, -3])
def test_montecarlo_refuses_zero_draws(budget):
    cc = tiny_concat(21, k0=2, n0=4, n=3, k=2)
    with pytest.raises(ValueError, match="at least one draw"):
        min_distance(cc, "montecarlo", budget=budget, seed=5)


@pytest.mark.parametrize("call", [
    lambda code: weight_distribution(code),
    lambda code: min_distance(code, "exact"),
    lambda code: min_distance(code, "montecarlo", budget=10),
])
def test_enumerators_refuse_a_code_without_a_binary_generator(call):
    outer = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    with pytest.raises(TypeError, match="OuterCode"):
        call(outer)


def test_outer_code_rejects_vectors_of_the_wrong_length():
    rep = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    with pytest.raises(ValueError, match="message length 2 != k=1"):
        rep.encode((1, 1))
    with pytest.raises(ValueError, match="vector length 3 != n=2"):
        rep.dual_membership((0, 0, 0))


def test_moment_rejects_a_negative_order():
    with pytest.raises(ValueError, match="r must be nonnegative"):
        weight_distribution(tiny_concat(5)).moment(-1)


def test_min_distance_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        min_distance(tiny_concat(5), "fast")


def test_dual_membership_examples():
    full = OuterCode(FieldMatrix(((1, 0), (0, 1)), 2, F4))
    assert full.dual_membership((0, 0))
    assert not full.dual_membership((1, 0))
    rep = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    # oracle: g1 + g2 = 0 in characteristic 2 iff g1 == g2
    for a in range(4):
        assert rep.dual_membership((a, a))
        for b in range(4):
            if b != a:
                assert not rep.dual_membership((a, b))


def test_all_messages_order_and_count():
    outer = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    msgs = list(all_messages(outer))
    assert msgs[0] == (0,)
    assert len(msgs) == 4 and len(set(msgs)) == 4


@pytest.mark.parametrize("k0", [1, 2, 3, 4])
def test_codeword_table_matches_encode_in_message_order(k0):
    ctx = make_field(k0)
    for n in range(1, 5):
        for k in range(1, n + 1):
            outer = OuterCode(sample_field_code(ctx, n, k, derive_seed(10 * n + k, k0)))
            table = codeword_table(outer)
            assert table.shape == (ctx.q**k, n) and table.dtype == np.uint8
            assert [tuple(row) for row in table.tolist()] == [outer.encode(m) for m in all_messages(outer)]


def test_codeword_table_dtype_holds_every_symbol():
    ctx = make_field(9)  # q - 1 = 511 needs 16 bits
    outer = OuterCode(sample_field_code(ctx, 2, 1, 5))
    table = codeword_table(outer)
    assert table.dtype == np.uint16
    assert [tuple(row) for row in table.tolist()] == [outer.encode(m) for m in all_messages(outer)]

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from concatgv import codes
from concatgv.codes import (
    BLOCK_BITS,
    BinaryCode,
    ConcatCode,
    OuterCode,
    WeightDistribution,
    bias,
    codeword_table,
    min_distance,
    weight_distribution,
    _fold,
    _symbol_tables,
)
from concatgv.field import make_field
from concatgv.linalg import BitMatrix, FieldMatrix, sample_binary_code, sample_field_code
from concatgv.rng import SplitMix64, derive_seed
from concatgv.sweep import SweepConfig

from oracles import (
    all_messages,
    brouwer_zimmermann_pass,
    columns,
    concat_generator,
    dual_membership,
    gray_block_weight_counts,
    omega_by_columns,
    symbol_tables_single_gather,
    systematic_forms_by_relabeling,
    trial_code,
)
from test_golden import CONFIGS as GOLDEN_CONFIGS

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
    cols = [0b11, 0b10, 0b01]  # column b holds bit b of each row, row i at bit i
    assert cc.omega == tuple(F4.from_coords(c) for c in cols)
    assert len(cc.omega) == inner.n0  # duplicates kept


def test_omega_is_computed_once():
    cc = tiny_concat(4, k0=3, n0=5)
    assert cc.omega is cc.omega
    assert cc.omega == omega_by_columns(cc)


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


def assert_tables_index_messages(code, generator):
    """Column m of the folded symbol tables has the weight of message m's codeword."""
    weights = np.bitwise_count(_fold(_symbol_tables(code))).sum(axis=0)
    messages = range(1 << generator.nrows)
    assert weights.tolist() == [generator.combine(m).bit_count() for m in messages]


@pytest.mark.parametrize("k0", [*range(1, 9), 12])
def test_message_basis_words_are_codewords_of_single_bit_messages(k0):
    # The tables read message bits in order: bit i * k0 + j selects nu_j in
    # outer row i, bit i selects row i of a binary code, for every message of
    # K <= 12 bits.  Binary codes include n0 > 64 and k0 not a multiple of 4.
    ctx = make_field(k0)
    shapes = [(n, k) for n in range(1, 4) for k in range(1, n + 1) if k * k0 <= 12]
    inners = [BinaryCode(sample_binary_code(n0, k0, derive_seed(n0, k0))) for n0 in (k0, k0 + 2)]
    inners.append(inner_with_zero_and_repeated_column(k0, derive_seed(3, k0)))
    omega = ConcatCode(OuterCode(FieldMatrix(((1,),), 1, ctx)), inners[-1]).omega
    assert omega[k0] == 0 and omega[k0 + 1] == omega[0]
    long_binary = BinaryCode(sample_binary_code(64 + 2 * k0 + 1, k0, derive_seed(7, k0)))
    for binary in (*inners, long_binary):
        assert_tables_index_messages(binary, binary.gen)
    zeros_seen = 0
    for inner in inners:
        for n, k in shapes:
            for outer in (
                OuterCode(sample_field_code(ctx, n, k, derive_seed(10 * n + k, k0))),
                sparse_outer(ctx, n, k, derive_seed(10 * n + k, 100 + k0)),
            ):
                zeros_seen += sum(row.count(0) for row in outer.gen.rows)
                cc = ConcatCode(outer, inner)
                assert_tables_index_messages(cc, concat_generator(cc))
    assert zeros_seen > 0


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
        # the count kept on the code: the same weights
        assert code.span_weights == wd


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


@given(counts=st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_min_weight_and_max_bias_match_the_scan(counts):
    # any counts, the zero message among delta[0]: a lone weight, gaps, none at all
    wd = WeightDistribution((1 + counts[0], *counts[1:]))
    if wd.total > 1:
        assert (wd.min_weight, wd.max_bias) == scanned_min_weight_and_max_bias(wd.delta)
    else:
        assert wd.min_weight == wd.length + 1
        with pytest.raises(ValueError, match="no nonzero message"):
            wd.max_bias


def test_weight_distribution_of_concat_matches_gray_code_reference():
    cc = tiny_concat(4, k0=4, n0=20, n=4, k=2)  # N = 80: two limbs
    wd = weight_distribution(cc)
    assert wd.delta == gray_weight_counts(concat_generator(cc).rows, cc.N)
    assert min_distance(cc) == (wd.min_weight, wd.min_weight, 1 << cc.K, None)


# (k0, n0, n, k).  N in {63, 64, 65, 80, 128}; n0 in {3, 33, 64, 65, 70}, so
# one limb holds several inner words, one, or a word spans two limbs; n is
# not always a multiple of the words per limb floor(64 / n0); K > 16 takes
# the chunked path, and at k0 = 6 each chunk holds several high entries; at
# k0 = 16 the inner span is the fold of four inner tables.
@pytest.mark.parametrize(
    "k0, n0, n, k",
    [
        (3, 3, 21, 2), (1, 3, 21, 12), (8, 64, 1, 1), (4, 8, 8, 3), (3, 13, 5, 3),
        (8, 65, 1, 1), (4, 20, 4, 2), (4, 16, 8, 2), (2, 32, 4, 2), (3, 33, 3, 2),
        (4, 70, 3, 2), (12, 14, 2, 1), (2, 5, 13, 9), (4, 8, 6, 5), (1, 3, 20, 17),
        (6, 9, 7, 3), (16, 18, 1, 1),
    ],
)
def test_concat_weight_distribution_matches_the_generator_enumerations(k0, n0, n, k):
    ctx = make_field(k0)
    inner = BinaryCode(sample_binary_code(n0, k0, derive_seed(n0, k0)))
    for outer in (
        OuterCode(sample_field_code(ctx, n, k, derive_seed(n, k))),
        sparse_outer(ctx, n, k, derive_seed(k, n)),
    ):
        cc = ConcatCode(outer, inner)
        wd = weight_distribution(cc)
        rows = concat_generator(cc).rows
        assert wd.delta == gray_weight_counts(rows, cc.N)
        assert list(wd.delta) == gray_block_weight_counts(rows, cc.N)


@pytest.mark.parametrize("k0", [1, 2, 3, 4, 8, 12])
def test_concat_weight_distribution_with_zero_and_repeated_omega_entries(k0):
    ctx = make_field(k0)
    inner = inner_with_zero_and_repeated_column(k0, derive_seed(5, k0))
    for n, k in [(3, 1)] if k0 > 4 else [(3, 1), (4, 2), (7, 3)]:
        cc = ConcatCode(OuterCode(sample_field_code(ctx, n, k, derive_seed(n, k0))), inner)
        assert weight_distribution(cc).delta == gray_weight_counts(concat_generator(cc).rows, cc.N)


@pytest.mark.parametrize("k0, n0, n, k", [(8, 10, 3, 2), (12, 14, 2, 1), (16, 18, 2, 1)])
def test_subset_sums_only_ever_get_four_rows(monkeypatch, k0, n0, n, k):
    # a concatenated code's inner span is the fold of the inner code's own
    # tables, so no subset-sum call sees the whole k0-row inner generator
    sizes = []
    subset_sums = codes._subset_sums
    monkeypatch.setattr(
        codes, "_subset_sums", lambda rows, limbs: sizes.append(len(rows)) or subset_sums(rows, limbs)
    )
    weight_distribution(tiny_concat(23, k0=k0, n0=n0, n=n, k=k))
    min_distance(tiny_concat(24, k0=k0, n0=n0, n=8, k=4), budget=100)
    assert sizes and max(sizes) <= 4


@pytest.mark.parametrize("k0, n0, n, k", [(4, 8, 6, 3), (12, 14, 40, 4), (16, 18, 8, 4), (3, 40, 7, 3)])
def test_symbol_tables_gathered_in_chunks_match_one_gather(k0, n0, n, k):
    # tables of more than 2^BLOCK_BITS words in all are gathered a chunk of
    # outer rows at a time; the bytes are those of one gather over every row
    ctx = make_field(k0)
    cc = ConcatCode(OuterCode(sample_field_code(ctx, n, k, 3)), BinaryCode(sample_binary_code(n0, k0, 4)))
    tables, oracle = _symbol_tables(cc), symbol_tables_single_gather(cc)
    words = sum(t.size for t in tables)
    assert (words > 1 << BLOCK_BITS) == (k0 >= 12)  # so the k0 >= 12 shapes take several chunks
    assert len(tables) == len(oracle) == k
    for table, want in zip(tables, oracle):
        assert table.dtype == want.dtype and table.shape == want.shape
        assert table.tobytes() == want.tobytes()


def test_weight_distribution_dimension_zero():
    zero = BinaryCode(BitMatrix((), 5))
    assert weight_distribution(zero).delta == (1, 0, 0, 0, 0, 0)
    assert min_distance(zero) == (6, 6, 1, None)
    with pytest.raises(ValueError, match="no nonzero message"):
        weight_distribution(zero).max_bias
    with pytest.raises(ValueError, match="no nonzero message"):
        weight_distribution(zero).moment(2)
    assert weight_distribution(BinaryCode(BitMatrix((), 0))).delta == (1,)


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
    assert min_distance(rep) == (n, n, 2, None)


def test_concat_distance_at_least_product():
    for seed in range(8):
        cc = tiny_concat(seed, k0=2, n0=4, n=3, k=2)
        lower, d, _, _ = min_distance(cc)
        assert lower == d
        d_in = min_distance(cc.inner)[1]
        d_out = min(sum(map(bool, cc.outer.encode(m))) for m in all_messages(cc.outer) if any(m))
        assert d >= d_in * d_out


def counted_min_distance(code, budget):
    """min_distance, and how many codewords it popcounted (columns through codes._weights).
    Past the enumeration no call holds more than 2^BLOCK_BITS of them: a held pass or one
    prefix XOR of it."""
    formed = []
    with pytest.MonkeyPatch.context() as mp:
        weights = codes._weights
        mp.setattr(codes, "_weights", lambda words: formed.append(words.shape[1]) or weights(words))
        result = min_distance(code, budget)
    assert 1 << codes.binary_shape(code)[0] <= budget or max(formed, default=0) <= 1 << codes.BLOCK_BITS
    return result, sum(formed)


def witness_weight(code, witness) -> int:
    """The weight of a witness message's codeword: by the bias double sum for a
    concatenated code (it shares no code with encode or the tables), by the
    generator for a binary one."""
    if isinstance(code, ConcatCode):
        return (code.N - bias(code, witness)) // 2
    return code.gen.combine(witness).bit_count()


def check_interval(code, budget):
    """The checks every min_distance call must pass: lower <= d <= upper, the words
    formed are counted and within budget, and the witness has weight upper."""
    (lower, upper, words, witness), formed = counted_min_distance(code, budget)
    dim, length = codes.binary_shape(code)
    d = weight_distribution(code).min_weight
    assert lower <= d <= upper and formed == words <= budget
    if 1 << dim <= budget:
        assert (lower, upper, words, witness) == (d, d, 1 << dim, None)
    elif witness is None:
        assert words == 0 and upper == length + 1
    else:
        assert witness_weight(code, witness) == upper
    return lower, upper, words


@st.composite
def codes_under_test(draw, lengths=st.sampled_from([1, 2, 5, 9, 17, 30, 64, 65, 70]), max_dim=14):
    """Binary and concatenated codes with K <= max_dim: binary lengths N drawn from
    `lengths` (by default not multiples of 64, and 64, 65), N < 2K, K = 1, inner codes
    with a zero and a repeated column, and inner codes of distance 1 (the [k0, k0] full
    space)."""
    seed = draw(st.integers(0, 1 << 20))
    if draw(st.booleans()):
        n = draw(lengths)
        return BinaryCode(sample_binary_code(n, draw(st.integers(1, min(n, max_dim))), seed))
    k0 = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "zero-and-repeated", "full-space"]))
    if kind == "zero-and-repeated":
        inner = inner_with_zero_and_repeated_column(k0, seed)
    else:
        n0 = k0 if kind == "full-space" else draw(st.integers(k0, k0 + 6))
        inner = BinaryCode(sample_binary_code(n0, k0, seed))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, max_dim // k0)))
    return ConcatCode(OuterCode(sample_field_code(make_field(k0), n, k, seed + 1)), inner)


@pytest.mark.parametrize("k0", [1, 2, 3, 4, 8, 16])
def test_omega_matches_the_column_reading(k0):
    # random inner codes, n0 up to 70 (two-word rows), and one with a zero and a repeated column
    ctx = make_field(k0)
    for seed in range(12):
        n0 = k0 + seed * 5 % (71 - k0)
        inner = inner_with_zero_and_repeated_column(k0, seed) if seed == 0 else BinaryCode(sample_binary_code(n0, k0, seed))
        cc = ConcatCode(OuterCode(sample_field_code(ctx, 2, 1, seed)), inner)
        assert cc.omega == omega_by_columns(cc)
        assert all(type(b) is int for b in cc.omega)


@given(code=codes_under_test(max_dim=20))
def test_min_distance_reduces_the_unit_message_encodes(code):
    # Brouwer-Zimmermann's K rows: row i * k0 + j is nu_j times outer row i, inner-encoded,
    # which is the encoding of the unit message holding nu_j at outer position i
    seen, forms = [], codes._systematic_forms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_systematic_forms", lambda rows, length: seen.append(list(rows)) or forms(rows, length))
        min_distance(code, 1)
    gen = concat_generator(code) if isinstance(code, ConcatCode) else code.gen
    assert seen == [list(gen.rows)]


@pytest.mark.parametrize("dim", range(1, 15))
def test_subsets_follow_itertools_combinations(dim):
    # colex rank r unranks to the r-th w-subset in colex order: by largest element, then
    # next largest, and so on
    for w in range(dim + 1):
        colex = sorted(itertools.combinations(range(dim), w), key=lambda s: s[::-1])
        assert [codes._colex(r, w, dim) for r in range(math.comb(dim, w))] == colex


@given(code=codes_under_test(), bits=st.integers(1, 3), cut=st.integers(0, 1 << 14))
def test_brouwer_zimmermann_passes_form_each_subset_once(code, bits, cut):
    # with 2^bits words held, passes past the held level run over their top elements;
    # on the first information set alone, passes 1, 2, ... form each w-subset XOR of its
    # rows once, and over all sets the interval is the one of the default BLOCK_BITS
    dim, _ = codes.binary_shape(code)
    budgets = [(1 << dim) - 1, ((1 << dim) - 1) * cut >> 14]
    want = [min_distance(code, budget)[:3] for budget in budgets]
    first, formed, forms, weights = [], [], codes._systematic_forms, codes._weights

    def first_form(rows, length):
        first.extend(itertools.islice(forms(rows, length), 1))
        return first

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "BLOCK_BITS", bits)
        for budget, interval in zip(budgets, want):
            (lower, upper, words, witness), _ = counted_min_distance(code, budget)
            assert (lower, upper, words) == interval
            assert witness is None or witness_weight(code, witness) == upper
        mp.setattr(codes, "_systematic_forms", first_form)
        mp.setattr(codes, "_weights", lambda words: formed.append(words) or weights(words))
        min_distance(code, budgets[0])
    words, w = columns(np.concatenate(formed, axis=1)) if formed else [], 0
    while words:
        w, size = w + 1, math.comb(dim, w + 1)
        assert sorted(words[:size]) == sorted(brouwer_zimmermann_pass(first[0][0], w))
        words = words[size:]


@given(code=codes_under_test(st.one_of(st.sampled_from([64, 65, 128]), st.integers(1, 130)), max_dim=40))
def test_systematic_forms_match_the_relabeling(code):
    # the mask layout pivots as the relabeled rows do: the same sets in the same order,
    # with the same message bits, column weights and g; unpermuted, each generator
    # column is the codeword of its message bits
    gen = concat_generator(code) if isinstance(code, ConcatCode) else code.gen
    forms = list(codes._systematic_forms(gen.rows, gen.cols))
    reference = list(systematic_forms_by_relabeling(gen.rows, gen.cols))
    assert len(forms) == len(reference)
    for (low, messages, g), (low_ref, messages_ref, g_ref) in zip(forms, reference):
        assert np.bitwise_count(low).sum(axis=0).tolist() == np.bitwise_count(low_ref).sum(axis=0).tolist()
        assert messages.tolist() == messages_ref.tolist() and g == g_ref
        assert columns(low) == [gen.combine(m) for m in messages]


@given(code=codes_under_test(), cut=st.integers(0, 1 << 14))
def test_brouwer_zimmermann_matches_the_enumeration(code, cut):
    # one short of the enumeration's 2^K words, Brouwer-Zimmermann closes the interval;
    # under any smaller budget its interval holds the distance
    dim, _ = codes.binary_shape(code)
    lower, upper, _ = check_interval(code, (1 << dim) - 1)
    assert lower == upper == weight_distribution(code).min_weight
    check_interval(code, ((1 << dim) - 1) * cut >> 14)


GOLDEN_SHAPES = sorted({(c["k0"], c["n0"], c["n"], c["k"], c["trials"]) for c in GOLDEN_CONFIGS.values()})


@pytest.mark.parametrize("k0, n0, n, k, trials", [s for s in GOLDEN_SHAPES if s[0] * s[3] <= 20])
def test_brouwer_zimmermann_matches_the_enumeration_on_the_golden_shapes(k0, n0, n, k, trials):
    for seed in (20260810, 1):
        cfg = SweepConfig(k0=k0, n0=n0, n=n, k=k, trials=trials, master_seed=seed, equal_rate=False)
        for trial in range(trials):
            cc, _ = trial_code(cfg, trial)
            lower, upper, _ = check_interval(cc, (1 << cc.K) - 1)
            assert lower == upper


def test_brouwer_zimmermann_holds_its_passes_under_the_block_rule():
    # K = 40, N = 160: each set holds pass 3 (9880 words; pass 4 has 91390 > 2^BLOCK_BITS)
    # and runs passes 4 and 5 over their top elements; pass 5 alone is 658008 words of 3
    # limbs, 15.8 MB
    cfg = SweepConfig(k0=4, n0=8, n=20, k=10, trials=2, master_seed=20260810, equal_rate=False)
    cc, _ = trial_code(cfg, 1)
    tracemalloc.start()
    try:
        assert min_distance(cc, 1 << 22)[:3] == (18, 26, 2280294)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# K = 1 and 2, K not a multiple of 8, K > 64 (a message spans two words), n0 > 64
# (two-limb rows), and dimension 0.
DISTANCE_CODES = {
    "binary-K1": lambda: BinaryCode(sample_binary_code(5, 1, 11)),
    "binary-K2": lambda: BinaryCode(sample_binary_code(6, 2, 12)),
    "concat-K2": lambda: tiny_concat(13, k0=1, n0=3, n=3, k=2),
    "concat-K12": lambda: tiny_concat(14, k0=4, n0=8, n=6, k=3),
    "binary-K13": lambda: BinaryCode(sample_binary_code(30, 13, 15)),
    "binary-K70": lambda: BinaryCode(sample_binary_code(80, 70, 16)),
    "concat-K68": lambda: tiny_concat(17, k0=4, n0=8, n=20, k=17),
    "concat-n0-70": lambda: tiny_concat(18, k0=3, n0=70, n=3, k=2),
    "binary-K0": lambda: BinaryCode(BitMatrix((), 5)),
}


@pytest.mark.parametrize("name", ["binary-K1", "binary-K13", "concat-K12", "concat-K68"])
def test_a_budget_below_the_first_pass_forms_no_word(name):
    # the first pass forms the K rows of one systematic generator; a budget one short of
    # it forms nothing, and the interval runs from the count of full-rank sets to N + 1
    code = DISTANCE_CODES[name]()
    dim, length = codes.binary_shape(code)
    (lower, upper, words, witness), formed = counted_min_distance(code, dim - 1)
    assert (upper, words, witness, formed) == (length + 1, 0, None, 0) and 1 <= lower <= length
    (lower, upper, words, witness), formed = counted_min_distance(code, dim)
    assert words == formed == dim and upper <= length and witness is not None


BLOCK = 1 << BLOCK_BITS


@pytest.mark.parametrize(
    "name, budget",
    [(name, budget) for name in DISTANCE_CODES for budget in (1, 63, 64, 65)]
    + [(name, budget) for name in ("binary-K2", "binary-K13", "concat-K68") for budget in (BLOCK - 1, BLOCK + 1)],
)
def test_min_distance_holds_its_budget_and_witness(name, budget):
    # past the enumeration (K up to 70): the interval holds the distance and is nested
    # in the interval of one word less, no call forms more words than its budget, and
    # the witness weighs upper
    code = DISTANCE_CODES[name]()
    dim, length = codes.binary_shape(code)
    (lower, upper, words, witness), formed = counted_min_distance(code, budget)
    less = min_distance(code, budget - 1)[:2]
    assert formed == words <= budget and less[0] <= lower <= upper <= less[1]
    if dim <= 20:
        assert lower <= weight_distribution(code).min_weight <= upper
    if witness is not None:
        assert witness_weight(code, witness) == upper
    else:
        assert upper == length + 1 or 1 << dim <= budget
    if dim == 0:
        assert (lower, upper) == (length + 1, length + 1)


@pytest.mark.parametrize("call", [
    lambda code: weight_distribution(code),
    lambda code: min_distance(code),
    lambda code: min_distance(code, budget=1),
])
def test_enumerators_refuse_a_code_without_a_binary_generator(call):
    outer = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    with pytest.raises(TypeError, match="OuterCode"):
        call(outer)


def test_outer_code_rejects_vectors_of_the_wrong_length():
    rep = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    with pytest.raises(ValueError, match="message length 2 != k=1"):
        rep.encode((1, 1))


def test_moment_rejects_a_negative_order():
    with pytest.raises(ValueError, match="r must be nonnegative"):
        weight_distribution(tiny_concat(5)).moment(-1)


def test_dual_membership_examples():
    # the membership oracle that the Monte Carlo soft condition is checked against
    full = OuterCode(FieldMatrix(((1, 0), (0, 1)), 2, F4))
    assert dual_membership(full, (0, 0))
    assert not dual_membership(full, (1, 0))
    rep = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    # g1 + g2 = 0 in characteristic 2 iff g1 == g2
    for a in range(4):
        assert dual_membership(rep, (a, a))
        for b in range(4):
            if b != a:
                assert not dual_membership(rep, (a, b))
    with pytest.raises(ValueError):
        dual_membership(rep, (0, 0, 0))


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
            table = codeword_table(outer.gen)
            assert table.shape == (n, ctx.q**k) and table.dtype == np.uint8
            assert table.flags.c_contiguous  # coordinate-major
            assert [tuple(word) for word in table.T.tolist()] == [outer.encode(m) for m in all_messages(outer)]


def test_codeword_table_dtype_holds_every_symbol():
    ctx = make_field(9)  # q - 1 = 511 needs 16 bits
    outer = OuterCode(sample_field_code(ctx, 2, 1, 5))
    table = codeword_table(outer.gen)
    assert table.dtype == np.uint16
    assert [tuple(word) for word in table.T.tolist()] == [outer.encode(m) for m in all_messages(outer)]

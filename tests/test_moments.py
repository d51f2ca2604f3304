import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from concatgv import codes, moments
from concatgv.certify import check_nice
from concatgv.codes import BinaryCode, ConcatCode, OuterCode, bias, weight_distribution
from concatgv.field import make_field
from concatgv.linalg import BitMatrix, FieldMatrix, sample_binary_code, sample_field_code
from concatgv.moments import (
    bad_bound,
    count_W,
    moment_dual,
    poisson_product_check,
    w_count_bound,
)
from concatgv.rng import derive_seed

from oracles import (
    all_messages,
    g_masks_by_identity_columns,
    g_of_tuple,
    poisson_mixture_sparse,
    syndrome_masks_by_pairs,
    walk_work_full,
    walk_work_loop,
    zero_folds_walk,
)

F2 = make_field(1)
F4 = make_field(2)


def tuple_counts(cc: ConcatCode, r: int):
    """Reference: (#tuples with g in the outer dual, #tuples with g = 0) over ([n] x Omega)^r.

    Odometer over all (n * n0)^r tuples; each step XORs the per-pair deltas of
    the digits it changes into the packed g and its outer syndrome.
    """
    ctx, k0 = cc.ctx, cc.ctx.k0
    g_delta, syn_delta = [], []
    for alpha in range(cc.outer.n):
        for b in cc.omega:
            g_delta.append(b << (alpha * k0))
            syn_delta.append(
                sum(ctx.mul(row[alpha], b) << (i * k0) for i, row in enumerate(cc.outer.gen.rows))
            )
    m = len(g_delta)
    digits = [0] * r
    g = syn = 0
    if r & 1:  # the r starting digits each contribute delta[0]; pairs cancel
        g ^= g_delta[0]
        syn ^= syn_delta[0]
    n_dual = n_zero = 0
    for _ in range(m**r):
        if syn == 0:
            n_dual += 1
            if g == 0:
                n_zero += 1
        i = 0
        while i < r:
            d = digits[i]
            g ^= g_delta[d]
            syn ^= syn_delta[d]
            if d + 1 == m:
                digits[i] = 0
                g ^= g_delta[0]
                syn ^= syn_delta[0]
                i += 1
            else:
                digits[i] = d + 1
                g ^= g_delta[d + 1]
                syn ^= syn_delta[d + 1]
                break
    return n_dual, n_zero


def zero_omega_instance() -> ConcatCode:
    # a zero inner-generator column puts 0 into omega
    inner = BinaryCode(BitMatrix((0b001, 0b100), 3))
    outer = OuterCode(FieldMatrix(((1, 2),), 2, F4))
    return ConcatCode(outer, inner)


def repeated_omega_instance() -> ConcatCode:
    # columns 0, 1 and columns 2, 3 of the inner generator are equal
    inner = BinaryCode(BitMatrix((0b0011, 0b1100), 4))
    outer = OuterCode(FieldMatrix(((1, 3), (0, 1)), 2, F4))
    return ConcatCode(outer, inner)


def acceptance_instance() -> ConcatCode:
    # k0 = 4, n0 = 8, n = 6, k = 3: 48 pairs on 2^12 syndrome states
    ctx = make_field(4)
    return ConcatCode(OuterCode(sample_field_code(ctx, 6, 3, 2)), BinaryCode(sample_binary_code(8, 4, 1)))


def one_bit_instance() -> ConcatCode:
    inner = BinaryCode(BitMatrix((1,), 1))
    outer = OuterCode(FieldMatrix(((1,),), 1, F2))
    return ConcatCode(outer, inner)


def grid_instances(codes_per_cell=5, master=123):
    cell = 0
    for q, n, n0 in itertools.product((2, 4), (1, 2, 3), (2, 3)):
        k0 = q.bit_length() - 1
        if k0 > n0:
            continue
        ctx = make_field(k0)
        for trial in range(codes_per_cell):
            gi = sample_binary_code(n0, k0, derive_seed(master, cell * 100 + 2 * trial))
            go = sample_field_code(ctx, n, 1, derive_seed(master, cell * 100 + 2 * trial + 1))
            yield ConcatCode(OuterCode(go), BinaryCode(gi))
        cell += 1


def test_g_of_tuple_examples():
    cc = next(grid_instances(1))
    n = cc.outer.n
    assert g_of_tuple(cc, []) == (0,) * n
    # a repeated pair self-cancels in characteristic 2
    assert g_of_tuple(cc, [(0, 1), (0, 1)]) == (0,) * n
    g = g_of_tuple(cc, [(0, 1)])
    assert g[0] == cc.omega[1] and all(v == 0 for v in g[1:])
    with pytest.raises(IndexError):
        g_of_tuple(cc, [(n, 0)])
    with pytest.raises(IndexError):
        g_of_tuple(cc, [(0, cc.inner.n0)])


def test_moment_r0_is_one():
    cc = one_bit_instance()
    assert weight_distribution(cc).moment(0) == Fraction(1)
    assert moment_dual(cc, 0) == Fraction(1)


def test_one_bit_instance_moments():
    # Hand enumeration: the single nonzero message has X = -1.
    cc = one_bit_instance()
    assert bias(cc, (1,)) == -1
    for r in range(7):
        assert weight_distribution(cc).moment(r) == Fraction((-1) ** r)
        assert moment_dual(cc, r) == Fraction((-1) ** r)


def test_even_moments_nonnegative():
    for cc in grid_instances(2):
        for r in (2, 4):
            assert weight_distribution(cc).moment(r) >= 0


def test_moment_identity_on_grid():
    for cc in grid_instances(5):
        for r in (1, 2, 3):
            assert weight_distribution(cc).moment(r) == moment_dual(cc, r)


def test_walk_counts_match_odometer_reference():
    instances = [*grid_instances(3), zero_omega_instance(), repeated_omega_instance()]
    assert 0 in instances[-2].omega
    assert len(set(instances[-1].omega)) < len(instances[-1].omega)
    for cc in instances:
        qk = cc.ctx.q**cc.outer.k
        m = cc.outer.n * cc.inner.n0
        for r in range(5):
            n_dual, n_zero = tuple_counts(cc, r)
            assert moment_dual(cc, r) == Fraction(qk * n_dual - m**r, qk - 1)
            assert count_W(cc, r).count == n_zero


def test_walk_reaches_r8_beyond_tuple_enumeration():
    # 48^8 tuples is far over the default budget; the walk visits <= 2^12 states per step
    cc = acceptance_instance()
    assert (cc.outer.n * cc.inner.n0) ** 8 > 1 << 27
    assert weight_distribution(cc).moment(8) == moment_dual(cc, 8)
    rep = bad_bound(cc, 8, 1.0)
    assert Fraction(rep.bad_count) <= rep.b_r


def test_walk_work_bound():
    # the half walk admits every call the (r-1)-step walk admitted and, for
    # m >= 2, every call the m^r tuple count admitted
    for m in (1, 2, 3, 9, 48):
        for bits in (0, 1, 4, 12):
            for r in range(13):
                work = moments.walk_work(m, bits, r)
                assert work <= walk_work_full(m, bits, r)
                assert m < 2 or work <= m**r
    # b - 1 = 3 steps over 48, 48^2 and 2^12 states, then 2^12 product terms
    assert moments.walk_work(48, 12, 8) == (48 + 48**2 + 4096) * 48 + 4096
    for m, bits in ((1, 3), (2, 0), (5, 7), (48, 12)):
        for r in range(12):
            a, b = r // 2, r - r // 2
            steps = sum(min(2**bits, m**t) * m for t in range(1, b))
            assert moments.walk_work(m, bits, r) == steps + min(2**bits, m**a)
    # saturates after one step, so a huge r costs no big powers
    assert moments.walk_work(16, 4, 10**9) == (10**9 // 2 - 1) * 16 * 16 + 16
    # one pair never fills the table: closed form, not a loop of r / 2 steps
    assert moments.walk_work(1, 3, 10**9) == 10**9 // 2


def test_walk_work_closed_form_matches_the_loop_oracle():
    for m in range(12):
        for bits in range(14):
            for r in [*range(40), 10**6, 10**9 + 1]:
                assert moments.walk_work(m, bits, r) == walk_work_loop(m, bits, r), (m, bits, r)
    for m, bits in ((16, 4), (48, 12), (64, 16), (80, 20)):
        for r in range(30):
            assert moments.walk_work(m, bits, r) == walk_work_loop(m, bits, r), (m, bits, r)


def test_half_walk_matches_the_full_walk_oracle():
    instances = [*grid_instances(3), zero_omega_instance(), repeated_omega_instance()]
    for cc in instances:
        syn_bits, g_bits = cc.outer.k * cc.ctx.k0, cc.outer.n * cc.ctx.k0
        for r in range(13):
            for masks, bits in ((cc.syndrome_masks, syn_bits), (cc.g_masks, g_bits)):
                assert moments.zero_folds(masks, bits, r, 1 << 40) == zero_folds_walk(masks, r)


def test_cached_masks_match_the_per_pair_construction():
    instances = [*grid_instances(3), zero_omega_instance(), repeated_omega_instance(),
                 acceptance_instance(), one_bit_instance()]
    for cc in instances:
        assert cc.syndrome_masks == syndrome_masks_by_pairs(cc)
        assert cc.g_masks == g_masks_by_identity_columns(cc)
        assert cc.syndrome_masks is cc.syndrome_masks  # built once per code


def test_dense_step_is_taken_once_states_fill_and_agrees_with_the_sparse_step(monkeypatch):
    cc = acceptance_instance()
    masks, bits = cc.syndrome_masks, cc.outer.k * cc.ctx.k0
    calls = []

    def spy(dist, masks):
        calls.append(len(dist))
        return dense_step(dist, masks)

    dense_step = moments._dense_step
    monkeypatch.setattr(moments, "_dense_step", spy)
    wd = weight_distribution(cc)
    for r in (6, 7, 8):
        calls.clear()
        assert moments.zero_folds(masks, bits, r, 1 << 27) == zero_folds_walk(masks, r)
        assert moment_dual(cc, r) == wd.moment(r)
        assert calls and set(calls) == {1 << bits}
    # one step from the 2-tuple counts, in both forms
    pairs = moments._walk_step(masks, masks)
    table = np.zeros(1 << bits, dtype=np.int64)
    table[list(pairs)] = list(pairs.values())
    sparse = moments._walk_step(pairs, masks)
    assert dense_step(table, masks).tolist() == [sparse.get(x, 0) for x in range(1 << bits)]


def test_small_tables_stay_sparse(monkeypatch):
    # the benchmark's moments shape: 16 syndrome states, too few to pay for a gather
    monkeypatch.setattr(moments, "_dense_step", forbidden)
    ctx = make_field(2)
    cc = ConcatCode(OuterCode(sample_field_code(ctx, 4, 2, 3)), BinaryCode(sample_binary_code(4, 2, 4)))
    for r in (2, 4, 6):
        assert moment_dual(cc, r) == weight_distribution(cc).moment(r)


def test_moment_budgets():
    cc = one_bit_instance()
    with pytest.raises(ValueError):
        weight_distribution(cc, budget=1).moment(1)
    with pytest.raises(ValueError):
        moment_dual(cc, 6, budget=0)


def forbidden(*args, **kwargs):
    raise AssertionError("called an enumerator this computation must not use")


def test_budgets_fail_before_enumerating(monkeypatch):
    monkeypatch.setattr(codes, "_symbol_tables", forbidden)
    monkeypatch.setattr(codes, "_span_weight_counts", forbidden)
    cc = next(grid_instances(1, master=9))
    small = cc.ctx.q**cc.outer.k - 1
    with pytest.raises(ValueError):
        codes.weight_distribution(cc, small)
    with pytest.raises(ValueError):
        codes.weight_distribution(cc, small).moment(2)
    with pytest.raises(ValueError):
        bad_bound(cc, 2, 1.0, small)


def test_walk_budget_fails_before_walking(monkeypatch):
    monkeypatch.setattr(moments, "_walk_step", forbidden)
    monkeypatch.setattr(moments, "_dense_step", forbidden)
    cc = next(grid_instances(1, master=9))
    m = cc.outer.n * cc.inner.n0
    syn_bits = cc.outer.k * cc.ctx.k0
    g_bits = cc.outer.n * cc.ctx.k0
    with pytest.raises(ValueError, match="walk work"):
        moment_dual(cc, 4, moments.walk_work(m, syn_bits, 4) - 1)
    with pytest.raises(ValueError, match="walk work"):
        count_W(cc, 4, moments.walk_work(m, g_bits, 4) - 1)
    with pytest.raises(ValueError, match="walk work"):
        bad_bound(cc, 4, 1.0, moments.walk_work(m, syn_bits, 4) - 1)


def test_direct_and_dual_sides_stay_independent(monkeypatch):
    # direct enumerates messages only, dual enumerates tuples only, so their
    # equality is a cross-check of two computations, not one.
    cc = next(grid_instances(1, master=9))
    qk = cc.ctx.q**cc.outer.k
    for r in (2, 3):
        by_bias = Fraction(sum(bias(cc, m) ** r for m in all_messages(cc.outer) if any(m)), qk - 1)
        with monkeypatch.context() as mp:
            mp.setattr(moments, "zero_folds", forbidden)
            mp.setattr(moments, "_walk_step", forbidden)
            mp.setattr(moments, "_dense_step", forbidden)
            direct = weight_distribution(cc).moment(r)
        with monkeypatch.context() as mp:
            mp.setattr(moments, "weight_distribution", forbidden)
            mp.setattr(codes, "_symbol_tables", forbidden)
            mp.setattr(codes, "_span_weight_counts", forbidden)
            dual = moment_dual(cc, r)
        assert direct == dual == by_bias


def test_bad_bound_rejects_odd_r():
    cc = one_bit_instance()
    with pytest.raises(ValueError):
        bad_bound(cc, 3, 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_bad_bound_rejects_nonpositive_c(c, monkeypatch):
    # refused before any moment or weight enumeration starts
    def forbidden(*a, **kw):
        raise AssertionError("work started")

    monkeypatch.setattr(moments, "moment_dual", forbidden)
    monkeypatch.setattr(moments, "weight_distribution", forbidden)
    with pytest.raises(ValueError, match="c must be positive"):
        bad_bound(one_bit_instance(), 2, c)


def test_bad_bound_large_c_no_bad_messages():
    for cc in grid_instances(2):
        rep = bad_bound(cc, 2, c=10.0 / (cc.inner.k0 / cc.inner.n0))
        # threshold > N, but |X_m| <= N always
        assert rep.threshold > cc.N
        assert rep.bad_count == 0


def test_bad_bound_scaling_in_c():
    cc = next(grid_instances(1, master=17))
    for r in (2, 4):
        r1 = bad_bound(cc, r, 1.0)
        r2 = bad_bound(cc, r, 2.0)
        assert r2.b_r * 2**r == r1.b_r


def test_bad_count_at_most_b_r_on_grid():
    for cc in grid_instances(3):
        for r in (2, 4):
            for c in (1.0, 4.0):
                rep = bad_bound(cc, r, c)
                assert Fraction(rep.bad_count) <= rep.b_r


def test_bad_count_from_bias_definition():
    # cross-check bad_count against a direct scan using bias()
    cc = next(grid_instances(1, master=23))
    rep = bad_bound(cc, 2, 1.0)
    manual = sum(
        1
        for m in all_messages(cc.outer)
        if any(m) and abs(bias(cc, m)) >= rep.threshold
    )
    assert rep.bad_count == manual


def test_count_w_empty_tuple():
    cc = one_bit_instance()
    rep = count_W(cc, 0)
    assert rep.count == 1
    assert rep.bound >= 1


def test_count_w_r1_zero_when_rows_nonzero():
    # single pair folds to e_alpha * omega_beta, zero only if a generator column is zero
    for cc in grid_instances(3, master=29):
        if all(b != 0 for b in cc.omega):
            assert count_W(cc, 1).count == 0


def test_count_w_equals_zero_fold_count():
    for cc in grid_instances(2, master=31):
        for r in (1, 2, 3):
            rep = count_W(cc, r)
            brute = 0
            m = cc.outer.n * cc.inner.n0
            pairs = [(a, b) for a in range(cc.outer.n) for b in range(cc.inner.n0)]
            for combo in itertools.product(pairs, repeat=r):
                if all(v == 0 for v in g_of_tuple(cc, combo)):
                    brute += 1
            assert rep.count == brute


def test_count_w_bound_when_nice():
    checked = 0
    for cc in grid_instances(5, master=37):
        n0, k0 = cc.inner.n0, cc.inner.k0
        tau = 1 / math.sqrt(n0)
        if not 0 < tau < k0 / n0:
            continue
        if not check_nice(cc.inner, tau).ok:
            continue
        for r in (1, 2, 3):
            rep = count_W(cc, r)
            assert rep.nice is True
            assert rep.count <= rep.bound
            checked += 1
    assert checked > 0


def test_count_w_invariant_under_omega_permutation():
    gi = sample_binary_code(3, 2, 77)
    perm = [2, 0, 1]
    rows_p = tuple(
        sum(((row >> j) & 1) << i for i, j in enumerate(perm)) for row in gi.rows
    )
    go = sample_field_code(F4, 2, 1, 78)
    c1 = ConcatCode(OuterCode(go), BinaryCode(gi))
    c2 = ConcatCode(OuterCode(go), BinaryCode(BitMatrix(rows_p, 3)))
    for r in (1, 2, 3):
        assert count_W(c1, r).count == count_W(c2, r).count
        assert bad_bound(c1, 2, 1.0).b_r == bad_bound(c2, 2, 1.0).b_r
        assert bad_bound(c1, 2, 1.0).bad_count == bad_bound(c2, 2, 1.0).bad_count


def test_w_count_bound_r0():
    assert w_count_bound(6, 3, 2 / 3, 0) == 2.0 ** (12 / math.sqrt(3) + math.log2(6))


def test_poisson_product_lambda_zero():
    cc = next(grid_instances(1, master=41))
    assert poisson_product_check(cc, 0.0) == 0.0


def test_poisson_product_single_bernoulli():
    # n = 1, omega = {1} over F2: both sides are Bernoulli((1 - e^(-2 lam)) / 2)
    cc = one_bit_instance()
    lam = 0.37
    gap = poisson_product_check(cc, lam)
    assert gap <= 1e-12
    # closed form for the one-coordinate marginal
    from concatgv.certify import d_pmf

    p = (1 - math.exp(-2 * lam)) / 2
    pm = d_pmf(F2, cc.omega, p)
    assert pm[1] == pytest.approx(p, abs=1e-15)


def test_poisson_product_acceptance_instances():
    cc_a = ConcatCode(
        OuterCode(sample_field_code(F4, 2, 1, 11)),
        BinaryCode(sample_binary_code(3, 2, 12)),
    )
    assert poisson_product_check(cc_a, 0.2) <= 1e-9
    cc_b = ConcatCode(
        OuterCode(sample_field_code(F4, 1, 1, 13)),
        BinaryCode(sample_binary_code(4, 2, 14)),
    )
    assert poisson_product_check(cc_b, 0.5) <= 1e-9


def test_zero_omega_entry_is_consistent_everywhere():
    # a zero inner-generator column puts 0 into omega; every path must agree
    cc = zero_omega_instance()
    assert 0 in cc.omega
    for m in all_messages(cc.outer):
        assert cc.encode(m).bit_count() == (cc.N - bias(cc, m)) // 2
    for r in (1, 2, 3, 4):
        assert weight_distribution(cc).moment(r) == moment_dual(cc, r)
    # each coordinate paired once with the zero entry folds to 0
    assert count_W(cc, 1).count == cc.outer.n
    assert poisson_product_check(cc, 0.3) <= 1e-9


def test_poisson_mixture_matches_explicit_tuple_oracle(monkeypatch):
    # oracle: mixture over r of the exhaustive uniform-tuple law of the fold,
    # truncated where the Poisson tail drops below tail_eps; the check under
    # test truncates there too, since the oracle's 4^r tuples rule out 1e-12
    tail_eps = 1e-9
    monkeypatch.setattr(moments, "TAIL_EPS", tail_eps)
    inner = BinaryCode(sample_binary_code(2, 1, 3))
    outer = OuterCode(sample_field_code(F2, 2, 1, 4))
    cc = ConcatCode(outer, inner)
    lam = 0.15
    n, k0 = cc.outer.n, cc.ctx.k0
    m = n * cc.inner.n0
    states = cc.ctx.q**n
    pairs = [(a, b) for a in range(n) for b in range(cc.inner.n0)]

    mean = lam * m
    mix = [0.0] * states
    pois = math.exp(-mean)
    covered = pois
    mix[0] += pois  # r = 0: empty tuple folds to zero
    r = 0
    while 1.0 - covered > tail_eps:
        r += 1
        pois *= mean / r
        covered += pois
        for combo in itertools.product(pairs, repeat=r):
            g = g_of_tuple(cc, combo)
            packed = sum(v << (a * k0) for a, v in enumerate(g))
            mix[packed] += pois / m**r

    from concatgv.certify import d_pmf

    p = (1 - math.exp(-2 * lam)) / 2
    coord = d_pmf(cc.ctx, cc.omega, p).probs
    oracle_gap = 0.0
    for packed in range(states):
        prod = 1.0
        for a in range(n):
            prod *= coord[(packed >> (a * k0)) & (cc.ctx.q - 1)]
        oracle_gap = max(oracle_gap, abs(mix[packed] - prod))
    assert oracle_gap <= tail_eps + 1e-12

    ours = poisson_product_check(cc, lam)
    assert abs(ours - oracle_gap) <= 1e-12


@pytest.mark.parametrize("lam", [0.05, 0.3, 1.0])
def test_dense_poisson_mixture_matches_the_sparse_oracle(lam):
    for cc in [*grid_instances(3), zero_omega_instance(), repeated_omega_instance()]:
        dense = moments._poisson_mixture(cc, lam)
        sparse = poisson_mixture_sparse(cc, lam, moments.TAIL_EPS)
        assert np.max(np.abs(dense - sparse)) <= 1e-15


@pytest.mark.parametrize("count", [count_W, moment_dual])
def test_zero_folds_rejects_a_negative_length(count):
    # both pass r straight to zero_folds, which refuses it before any walk
    with pytest.raises(ValueError, match="r must be nonnegative"):
        count(one_bit_instance(), -1)


def test_poisson_rejects_a_negative_lambda():
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        poisson_product_check(one_bit_instance(), -0.1)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_poisson_rejects_a_nan_or_infinite_lambda(lam, monkeypatch):
    # refused by name before any walk or pmf; NaN used to reach d_pmf as p=nan
    monkeypatch.setattr(moments, "_walk_step", forbidden)
    monkeypatch.setattr(moments, "_dense_step", forbidden)
    monkeypatch.setattr(moments, "d_pmf", forbidden)
    with pytest.raises(ValueError, match=f"lambda must be nonnegative and finite, got {lam}"):
        poisson_product_check(one_bit_instance(), lam)


def test_poisson_rejects_underflowing_weight():
    # exp(-800) is 0.0 in floats, so the Poisson tail would never be covered
    cc = one_bit_instance()
    with pytest.raises(ValueError, match="underflow"):
        poisson_product_check(cc, 800.0)
    assert poisson_product_check(cc, 2.0) <= 1e-9


def test_poisson_budget():
    ctx = make_field(8)
    inner = BinaryCode(sample_binary_code(10, 8, 5))
    outer = OuterCode(sample_field_code(ctx, 3, 1, 6))
    with pytest.raises(ValueError):
        poisson_product_check(ConcatCode(outer, inner), 0.1)  # 256^3 > 2^20


def test_cached_masks_keep_the_pair_order():
    # the Poissonization walk adds float weights in mask order
    for cc in [*grid_instances(2), zero_omega_instance(), repeated_omega_instance()]:
        assert list(cc.g_masks.items()) == list(g_masks_by_identity_columns(cc).items())
        assert list(cc.syndrome_masks.items()) == list(syndrome_masks_by_pairs(cc).items())

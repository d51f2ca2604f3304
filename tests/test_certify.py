import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

from concatgv import certify
from concatgv.certify import (
    C_TILDE_DEFAULT,
    EntropyReport,
    Pmf,
    bernoulli_p,
    check_nice,
    d_pmf,
    entropy_hypothesis,
    sample_pmf_many,
    smooth_min_entropy,
    soft_condition,
    soft_enumerator,
    wilson_interval,
)
from concatgv.codes import BLOCK_BITS, BinaryCode, ConcatCode, OuterCode, codeword_table, weight_distribution
from concatgv.field import FieldCtx, make_field
from concatgv.linalg import BitMatrix, FieldMatrix, nullspace_basis, sample_binary_code, sample_field_code
from concatgv.rng import SplitMix64, derive_seed

from oracles import (
    all_messages,
    bisect_min_entropy,
    check_nice_by_dual,
    d_pmf_loop,
    d_pmf_oracle,
    dual_code,
    dual_membership,
    empirical_dist,
    inversion_draws,
    sequential_sum,
    soft_fraction_oracle,
)

F4 = make_field(2)
F8 = make_field(3)
F16 = make_field(4)


# -- niceness ----------------------------------------------------------------


def test_full_space_always_nice():
    full = BinaryCode(BitMatrix((1, 2), 2))
    for tau in (0.1, 0.5, 0.9):
        rep = check_nice(full, tau)
        assert rep.ok and rep.worst_ratio == 0.0


def test_repetition_code_fails_niceness():
    rep_code = BinaryCode(BitMatrix((0b11,), 2))
    rep = check_nice(rep_code, 0.25)
    assert not rep.ok
    count, bound = rep.per_weight[1]  # weight 2
    assert count == 1
    assert bound == pytest.approx(2 ** (-2 * 0.25), abs=1e-12)


def test_check_nice_tau_range_and_budget():
    inner = BinaryCode(BitMatrix((0b11,), 2))
    with pytest.raises(ValueError):
        check_nice(inner, 0.5)  # tau must be < eps
    with pytest.raises(ValueError):
        check_nice(inner, -0.1)
    big = BinaryCode(sample_binary_code(24, 4, 1))
    with pytest.raises(ValueError):
        check_nice(big, 0.1, budget=8)


def test_full_length_inner_code_has_trivial_dual():
    # k0 == n0: the dual is {0}, so every weight class of it is empty
    full = BinaryCode(BitMatrix((0b001, 0b010, 0b100), 3))
    rep = check_nice(full, 0.5)
    assert rep.ok and [c for c, _ in rep.per_weight] == [0, 0, 0]


def test_check_nice_counts_match_weight_distribution():
    inner = BinaryCode(sample_binary_code(10, 4, 33))
    rep = check_nice(inner, 0.2)
    wd = weight_distribution(dual_code(inner))
    assert tuple(c for c, _ in rep.per_weight) == wd.delta[1:]


def _nice_cases():
    """(inner, tau) pairs: every (n0, k0) with n0 <= 12 on three seeds, and
    generators with a zero column and repeated columns."""
    for n0 in range(1, 13):
        for k0 in range(1, n0 + 1):
            for seed in range(3):
                yield BinaryCode(sample_binary_code(n0, k0, seed)), k0 / n0 / 2
    for n0, k0, seed in ((6, 2, 0), (9, 3, 1), (12, 4, 2), (12, 5, 3)):
        for attempt in itertools.count(seed * 100):
            rows = tuple(sample_binary_code(n0, k0, attempt).rows)
            # column 0 zero, column 2 a copy of column 1, column 4 one of column 3
            rows = tuple((r & ~0b10101) | (r >> 1 & 1) << 2 | (r >> 3 & 1) << 4 for r in rows)
            try:
                inner = BinaryCode(BitMatrix(rows, n0))
            except ValueError:  # the edit lost rank; try the next draw
                continue
            yield inner, 0.125
            break


def test_check_nice_by_macwilliams_matches_dual_enumeration():
    for inner, tau in _nice_cases():
        rep, ref = check_nice(inner, tau), check_nice_by_dual(inner, tau)
        assert rep == ref, (inner.gen, tau)
        assert [type(c) for c, _ in rep.per_weight] == [int] * inner.n0
        assert [b.hex() for _, b in rep.per_weight] == [b.hex() for _, b in ref.per_weight]
        assert rep.worst_ratio.hex() == ref.worst_ratio.hex()


def test_check_nice_by_macwilliams_on_a_large_dual():
    inner = BinaryCode(sample_binary_code(24, 4, 1))  # a 2^20-word dual
    for tau in (0.05, 0.1, 1 / 6 - 1e-9):
        assert check_nice(inner, tau) == check_nice_by_dual(inner, tau)


def test_check_nice_checks_the_inner_budget_before_any_work(monkeypatch):
    # the budget bounds the 2^k0 inner words the check reads, not the dual
    high_rate = BinaryCode(sample_binary_code(24, 22, 5))  # 2^22 words, a 4-word dual

    def forbidden(*args):
        raise AssertionError("enumerated over budget")

    from concatgv import codes

    with monkeypatch.context() as mp:
        mp.setattr(codes, "_symbol_tables", forbidden)
        mp.setattr(certify, "_krawtchouk", forbidden)
        with pytest.raises(ValueError) as err:
            check_nice(high_rate, 0.5, budget=8)
    assert str(err.value) == f"code size {1 << 22} exceeds budget 8"
    assert "_span" not in vars(high_rate)
    # a [24, 4] code reads 16 words: admitted at 16, below its 2^20-word dual
    low_rate = BinaryCode(sample_binary_code(24, 4, 1))
    with pytest.raises(ValueError, match="code size 16 exceeds budget 15"):
        check_nice(low_rate, 0.1, budget=15)
    assert check_nice(low_rate, 0.1, budget=16) == check_nice_by_dual(low_rate, 0.1)


def test_check_nice_monotone_in_tau():
    for seed in range(10):
        inner = BinaryCode(sample_binary_code(12, 6, seed))
        r1 = check_nice(inner, 0.15)
        r2 = check_nice(inner, 0.3)
        assert r2.worst_ratio <= r1.worst_ratio
        if r1.ok:
            assert r2.ok


# -- the distribution D --------------------------------------------------------


def test_d_pmf_single_element():
    pm = d_pmf(F4, [2], 0.3)
    assert pm[2] == pytest.approx(0.3, abs=1e-15)
    assert pm[0] == pytest.approx(0.7, abs=1e-15)
    assert pm[1] == pm[3] == 0.0


def test_d_pmf_repeated_element():
    pm = d_pmf(F4, [2, 2], 0.3)
    pb = 2 * 0.3 * 0.7
    assert pm[2] == pytest.approx(pb, abs=1e-15)
    assert pm[0] == pytest.approx(1 - pb, abs=1e-15)


def test_bernoulli_p_formula_value():
    # direct evaluation of (1 - e^(-2 c~ eps^2)) / 2 at c~ = 4 ln 2, eps = 0.1
    p = bernoulli_p(4 * math.log(2), 0.1)
    assert p == pytest.approx((1 - math.exp(-8 * math.log(2) * 0.01)) / 2, abs=1e-15)
    assert p == pytest.approx(0.0269712, abs=1e-7)


@pytest.mark.parametrize("c_tilde", [-1.0, -1e-300, math.inf, math.nan])
def test_bernoulli_p_refuses_a_negative_or_non_finite_c_tilde(c_tilde):
    with pytest.raises(ValueError, match="c_tilde must be nonnegative and finite"):
        bernoulli_p(c_tilde, 0.5)
    assert bernoulli_p(0.0, 0.5) == 0.0


@pytest.mark.parametrize(
    "probs, message",
    [
        ((0.5, 0.5), "pmf needs 4 entries, got 2"),
        ((0.5, 0.5, 0.25, -0.25), "pmf entries must be nonnegative"),
        ((0.25, 0.25, 0.25, 0.2), "pmf sums to 0.95, not 1"),
    ],
)
def test_pmf_rejects(probs, message):
    with pytest.raises(ValueError, match=message):
        Pmf(F4, probs)


def test_d_pmf_validates():
    with pytest.raises(ValueError):
        d_pmf(F4, [], 0.1)
    with pytest.raises(ValueError):
        d_pmf(F4, [1], 0.7)


def test_d_pmf_sums_to_one_and_permutation_invariant():
    rng = SplitMix64(5150)
    for _ in range(100):
        size = 1 + rng.randrange(6)
        omega = [rng.randrange(8) for _ in range(size)]
        p = rng.uniform() / 2
        pm = d_pmf(F8, omega, p)
        assert abs(sum(pm.probs) - 1.0) <= 1e-12
        perm = sorted(omega, key=lambda b: (b * 2654435761) % 97)
        pm2 = d_pmf(F8, perm, p)
        assert max(abs(a - b) for a, b in zip(pm.probs, pm2.probs)) <= 1e-12


def test_d_pmf_matches_subset_enumeration_oracle():
    # exact for p with a short binary expansion, where d_pmf's float products
    # and sums over at most 16 coins round nothing; within rounding otherwise
    rng = SplitMix64(4096)
    for ctx in (F4, F8, F16):
        for _ in range(12):
            size = 1 + rng.randrange(12)
            omega = [rng.randrange(ctx.q) for _ in range(size)]
            short = (0.25, 0.375, 0.5)
            for p in short + (rng.uniform() / 2,):
                pm = d_pmf(ctx, omega, p)
                oracle = d_pmf_oracle(ctx.q, omega, p)
                assert sum(oracle.values()) == 1
                if p in short:
                    assert all(Fraction(pm[v]) == oracle[v] for v in range(ctx.q))
                else:
                    assert max(abs(pm[v] - float(oracle[v])) for v in range(ctx.q)) < 1e-14
    # omega with n0 = 16 entries, the largest inner length
    omega = [1, 2, 4, 8] * 4
    oracle = d_pmf_oracle(16, omega, 0.125)
    assert all(Fraction(d_pmf(F16, omega, 0.125)[v]) == oracle[v] for v in range(16))


@pytest.mark.parametrize("k0", range(1, 11))
def test_d_pmf_matches_the_per_element_loop_bit_for_bit(k0):
    # one array step per Omega entry adds the same two products as the loop,
    # in one order or the other; repr also compares the signs of zeros
    ctx = make_field(k0)
    rng = SplitMix64(derive_seed(777, k0))
    n0 = k0 + 2
    for _ in range(6):
        omega = [rng.randrange(ctx.q) for _ in range(n0)]
        omega[rng.randrange(n0)] = 0
        omega[rng.randrange(n0)] = omega[0]
        for p in (0.0, 0.5, bernoulli_p(C_TILDE_DEFAULT, k0 / n0), 0.1, 1 / 3, 1e-300,
                  rng.uniform() / 2):
            got = d_pmf(ctx, omega, p).probs
            want = d_pmf_loop(ctx, omega, p)
            assert got == want
            assert list(map(repr, got)) == list(map(repr, want))


# -- soft condition ------------------------------------------------------------


def naive_soft_oracle(outer: OuterCode, pmf: Pmf) -> float:
    """Full-space enumeration of Pr[x in dual \\ {0}]."""
    total = 0.0
    for x in itertools.product(range(outer.ctx.q), repeat=outer.n):
        if any(x) and dual_membership(outer, x):
            term = 1.0
            for sym in x:
                term *= pmf[sym]
            total += term
    return total


def test_soft_condition_full_space():
    full = OuterCode(FieldMatrix(((1, 0), (0, 1)), 2, F4))
    pm = d_pmf(F4, [2, 3], 0.2)
    rep = soft_condition(full, pm, "exact")
    assert rep.prob == 0.0 and rep.delta == -1.0 and rep.is_exact


def test_soft_condition_repetition_closed_form():
    rep_outer = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    pm = d_pmf(F4, [2, 3, 1], 0.2)
    rep = soft_condition(rep_outer, pm, "exact")
    assert rep.prob == pytest.approx(sum(pm[a] ** 2 for a in range(1, 4)), abs=1e-15)


def test_soft_condition_exact_matches_naive_oracle():
    for n in (2, 3):
        for seed in range(6):
            k = 1 + (seed % n)
            outer = OuterCode(sample_field_code(F4, n, k, derive_seed(31, seed)))
            pm = d_pmf(F4, [2, 3, 1, 1], 0.1 + 0.05 * seed)
            rep = soft_condition(outer, pm, "exact")
            assert rep.prob == pytest.approx(naive_soft_oracle(outer, pm), abs=1e-12)


def test_soft_condition_montecarlo_ci_covers():
    outer = OuterCode(sample_field_code(F4, 3, 1, 99))
    pm = d_pmf(F4, [2, 3, 1], 0.25)
    exact = soft_condition(outer, pm, "exact").prob
    covered = 0
    reps = 40
    for i in range(reps):
        mc = soft_condition(outer, pm, "montecarlo", budget=2000, seed=derive_seed(123, i))
        assert not mc.is_exact
        if mc.ci_low <= exact <= mc.ci_high:
            covered += 1
    assert covered >= 0.9 * reps


def test_montecarlo_hits_are_the_oracle_membership_count():
    # A hit is a nonzero draw in the dual; the schoolbook membership oracle
    # counts them over the same inverse-CDF draws, one vector at a time.
    rng = SplitMix64(606)
    budget = 200
    hits_seen = zero_draws = full_rank = 0
    for seed, outer in enumerate(small_outer_codes(256)):
        ctx, n = outer.ctx, outer.n
        omega = [1 + rng.randrange(ctx.q - 1) if ctx.q > 2 else 1 for _ in range(3)]
        for pm in (d_pmf(ctx, omega, 0.2), pmf_with_zeros(ctx)):
            samples = inversion_draws(pm.probs, seed, budget * n)
            draws = [samples[t * n : (t + 1) * n] for t in range(budget)]
            hits = sum(any(x) and dual_membership(outer, x) for x in draws)
            rep = soft_condition(outer, pm, "montecarlo", budget=budget, seed=seed)
            assert (rep.prob, rep.draws, rep.is_exact) == (hits / budget, budget, False)
            hits_seen += hits
            zero_draws += sum(not any(x) for x in draws)
        full_rank += outer.k == n
    assert hits_seen > 0 and zero_draws > 0 and full_rank > 0
    # every draw the zero vector: in the dual, but never a hit
    outer = OuterCode(sample_field_code(F4, 3, 1, 5))
    point = Pmf(F4, (1.0, 0.0, 0.0, 0.0))
    assert soft_condition(outer, point, "montecarlo", budget=50).prob == 0.0
    with pytest.raises(ValueError, match="needs at least one draw, got budget 0"):
        soft_condition(outer, point, "montecarlo", budget=0)


def test_zero_dimensional_outer_code():
    # no nonzero codeword, so an empty entropy table; the dual is the whole space
    outer = OuterCode(FieldMatrix((), 3, F4))
    rep = entropy_hypothesis(outer, 1.0, 1.0)
    assert (rep.n_checked, rep.min_entropy, rep.ok) == (0, math.inf, True)
    pm = d_pmf(F4, [1, 2], 0.2)
    assert soft_condition(outer, pm, "exact").prob == soft_loop_reference(outer, pm)
    draws = inversion_draws(pm.probs, 0, 300)
    hits = sum(any(draws[t : t + 3]) for t in range(0, 300, 3))
    assert soft_condition(outer, pm, "montecarlo", budget=100).prob == hits / 100


def test_wilson_interval_sane():
    phat, lo, hi = wilson_interval(0, 100)
    assert phat == 0.0 and lo == 0.0 and 0 < hi < 0.05
    phat, lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError, match="trials must be positive"):
        wilson_interval(0, 0)


def test_soft_condition_field_mismatch():
    outer = OuterCode(sample_field_code(F4, 2, 1, 3))
    pm = d_pmf(F8, [1], 0.1)
    with pytest.raises(ValueError):
        soft_condition(outer, pm, "exact")


def test_soft_condition_rejects_an_unknown_mode():
    outer = OuterCode(sample_field_code(F4, 2, 1, 3))
    with pytest.raises(ValueError, match="unknown mode 'exhaustive'"):
        soft_condition(outer, d_pmf(F4, [1], 0.1), "exhaustive")


def soft_loop_reference(outer: OuterCode, pmf: Pmf) -> float:
    """The per-codeword exact sum: encode each nonzero dual message in
    odometer order, multiply its coordinates' probabilities left to right,
    and add the terms one at a time."""
    dual_gen = nullspace_basis(outer.gen)
    if dual_gen.nrows == 0:
        return 0.0
    dual = OuterCode(dual_gen)
    prob = 0.0
    for msg in all_messages(dual):
        if not any(msg):
            continue
        term = 1.0
        for sym in dual.encode(msg):
            term *= pmf[sym]
            if term == 0.0:
                break
        prob += term
    return prob


def pmf_with_zeros(ctx) -> Pmf:
    """Unequal weights, with every third symbol (from 1) at probability 0."""
    raw = [0.0 if v % 3 == 1 else v + 1.0 for v in range(ctx.q)]
    return Pmf(ctx, tuple(x / sum(raw) for x in raw))


def small_outer_codes(max_words: int):
    """Sampled outer codes over GF(2^k0), k0 <= 4, 1 <= k <= n <= 4, two seeds
    each, with at most max_words codewords."""
    for k0 in (1, 2, 3, 4):
        ctx = make_field(k0)
        for n in range(1, 5):
            for k in range(1, n + 1):
                if ctx.q**k > max_words:
                    continue
                for seed in range(2):
                    yield OuterCode(sample_field_code(ctx, n, k, derive_seed(100 * k0 + 10 * n + k, seed)))


def test_exact_soft_condition_is_bit_identical_to_codeword_loop():
    rng = SplitMix64(404)
    checked = no_dual = 0
    for outer in small_outer_codes(1 << 16):
        ctx = outer.ctx
        if ctx.q ** (outer.n - outer.k) > 4096:
            continue
        omega = [1 + rng.randrange(ctx.q - 1) if ctx.q > 2 else 1 for _ in range(3)]
        for pm in (d_pmf(ctx, omega, 0.05 + 0.4 * rng.uniform()), pmf_with_zeros(ctx)):
            rep = soft_condition(outer, pm, "exact")
            prob = soft_loop_reference(outer, pm)
            assert rep.prob == prob
            assert rep.delta == prob * ctx.q**outer.k - 1.0
            checked += 1
        no_dual += outer.k == outer.n
    assert checked > 100 and no_dual > 0


# (k0, n, k): the sweep benchmark's certify, lowrate and moments outer shapes,
# larger duals up to 16^4 words, and an empty dual (k = n).
@pytest.mark.parametrize("k0, n, k", [(4, 4, 2), (3, 6, 2), (2, 4, 2), (4, 6, 2), (3, 7, 3), (3, 3, 3)])
def test_exact_soft_prob_is_the_left_to_right_sum_over_the_dual_table(k0, n, k):
    ctx = make_field(k0)
    rng = SplitMix64(derive_seed(k0, 100 * n + k))
    for seed in range(3):
        outer = OuterCode(sample_field_code(ctx, n, k, derive_seed(rng.bits(32), seed)))
        omega = [1 + rng.randrange(ctx.q - 1) for _ in range(2 * k0)]
        pm = d_pmf(ctx, omega, bernoulli_p(C_TILDE_DEFAULT, k / n))
        terms = [math.prod(pm[sym] for sym in word) for word in codeword_table(nullspace_basis(outer.gen)).T[1:].tolist()]
        assert soft_condition(outer, pm, "exact").prob == sequential_sum(terms)


# -- exact soft condition from the weight enumerator ----------------------------


def every_outer_code(ctx, n: int):
    """Every k-dimensional subspace of GF(q)^n, 1 <= k <= n, once, by its
    reduced row echelon generator: each choice of pivot columns, then each
    value of the entries right of a row's pivot outside the pivot columns."""
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
            for values in itertools.product(range(ctx.q), repeat=len(free)):
                rows = [[int(c == p) for c in range(n)] for p in pivots]
                for (i, c), v in zip(free, values):
                    rows[i][c] = v
                yield OuterCode(FieldMatrix(rows, n, ctx))


# Inner [n0, 2] generators: Omega of two, three (one of them 0) and four
# entries (one repeated)
INNER_F4 = [((0b01, 0b10), 2), ((0b011, 0b110), 3), ((0b001, 0b010), 3), ((0b1011, 0b1101), 4)]


def test_soft_enumerator_equals_the_full_space_fraction_oracle():
    outers = [outer for n in (1, 2, 3) for outer in every_outer_code(F4, n)]
    assert len(outers) == 1 + (5 + 1) + (21 + 21 + 1)  # Gaussian binomials over GF(4)
    inners = [BinaryCode(BitMatrix(rows, n0)) for rows, n0 in INNER_F4]
    omegas = [ConcatCode(outers[0], inner).omega for inner in inners]
    assert 0 in omegas[2] and len(set(omegas[3])) < len(omegas[3])
    for outer in outers:
        for inner in inners:
            cc = ConcatCode(outer, inner)
            for p in (0.0, 0.5, bernoulli_p(C_TILDE_DEFAULT, 0.5), 0.1, 1 / 3):
                got = soft_enumerator(cc, p)
                prob, delta = soft_fraction_oracle(cc, p)
                assert Fraction(got.prob_num, got.den) == prob
                assert Fraction(got.delta_num, got.den) == delta
                assert (got.prob, got.delta) == (float(prob), float(delta))


@pytest.mark.parametrize("k0, n0, n, k", [(2, 2, 3, 1), (2, 4, 4, 2), (3, 9, 6, 2), (4, 8, 4, 2), (3, 6, 3, 3)])
def test_soft_enumerator_at_p_zero_and_one_half(k0, n0, n, k):
    # p = 0: D is the point mass at 0, which every dual word but 0 misses, so
    # delta = q^k * 0 - 1; p = 1/2: D is uniform, so prob = (q^(n-k) - 1) / q^n
    ctx = make_field(k0)
    for seed in range(3):
        inner = BinaryCode(sample_binary_code(n0, k0, derive_seed(k0 * n0, seed)))
        cc = ConcatCode(OuterCode(sample_field_code(ctx, n, k, derive_seed(n * k, seed))), inner)
        zero, half = soft_enumerator(cc, 0.0), soft_enumerator(cc, 0.5)
        assert (zero.prob_num, zero.delta_num) == (0, -zero.den)
        assert Fraction(half.delta_num, half.den) == -Fraction(ctx.q**k, ctx.q**n)
        assert Fraction(half.prob_num, half.den) == Fraction(ctx.q ** (n - k) - 1, ctx.q**n)


def test_soft_enumerator_refuses_a_foreign_weight_distribution_or_p():
    inner = BinaryCode(sample_binary_code(8, 4, 3))
    cc = ConcatCode(OuterCode(sample_field_code(F16, 4, 2, 3)), inner)
    with pytest.raises(ValueError, match=r"weight distribution has length 8, the code has length N=32"):
        soft_enumerator(cc, 0.25, weight_distribution(inner))
    for p in (-0.125, 0.75, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"outside \[0, 1/2\]"):
            soft_enumerator(cc, p)


# -- empirical distribution and smoothed min-entropy ---------------------------


def test_empirical_dist_examples():
    pm = empirical_dist(F4, (3, 3, 3))
    assert pm[3] == 1.0
    pm = empirical_dist(F4, (0, 1, 2, 3))
    assert all(p == 0.25 for p in pm.probs)
    pm = empirical_dist(F4, (0, 0, 1, 2))
    assert pm[0] == 0.5 and pm[1] == 0.25 and pm[2] == 0.25 and pm[3] == 0.0
    with pytest.raises(ValueError, match="empty codeword"):
        empirical_dist(F4, [])


def lp_min_entropy_oracle(probs, eta: float) -> float:
    """Minimize the cap t over distributions within TV distance eta (LP)."""
    q = len(probs)
    n_vars = 2 * q + 1  # Q_0..Q_{q-1}, u_0..u_{q-1}, t
    c = np.zeros(n_vars)
    c[-1] = 1.0
    a_ub, b_ub = [], []
    for s in range(q):  # Q_s <= t
        row = np.zeros(n_vars)
        row[s] = 1.0
        row[-1] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    for s in range(q):  # P_s - Q_s <= u_s
        row = np.zeros(n_vars)
        row[s] = -1.0
        row[q + s] = -1.0
        a_ub.append(row)
        b_ub.append(-probs[s])
    row = np.zeros(n_vars)  # sum u <= eta
    row[q : 2 * q] = 1.0
    a_ub.append(row)
    b_ub.append(eta)
    a_eq = np.zeros((1, n_vars))
    a_eq[0, :q] = 1.0
    res = optimize.linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * (2 * q) + [(0, 1)],
        method="highs",
    )
    assert res.success
    return -math.log2(res.x[-1])


def test_smooth_min_entropy_examples():
    point = Pmf(F4, (1.0, 0.0, 0.0, 0.0))
    assert smooth_min_entropy(point, 0.0) == 0.0
    uniform = Pmf(F4, (0.25,) * 4)
    for eta in (0.0, 0.1, 0.9):
        assert smooth_min_entropy(uniform, eta) == 2.0
    assert smooth_min_entropy(point, 0.5) == 1.0


def test_smooth_min_entropy_is_exact_at_a_dyadic_cap():
    # profile (3, 1) at eta = 1/2: trimming 3/4 to the cap 1/4 costs exactly
    # 1/2, so the cap is 1/4 and the entropy 2 bits, which the bisection
    # misses by one ulp
    pm = Pmf(F16, (0.75, 0.25) + (0.0,) * 14)
    p1, p2, eta = Fraction(3, 4), Fraction(1, 4), Fraction(1, 2)
    cap = (p1 - eta) / 1  # j = 1
    assert cap == Fraction(1, 4) and cap >= p2 and cap > Fraction(1, 16)
    assert smooth_min_entropy(pm, 0.5) == 2.0 == -math.log2(cap)
    assert bisect_min_entropy(pm, 0.5) == pytest.approx(2.0, abs=1e-14)


def random_pmfs(ctx, rng, count):
    """Empirical pmfs of random words of length 1..24, and normalized random
    weights on a random support."""
    for _ in range(count):
        word = [rng.randrange(ctx.q) for _ in range(1 + rng.randrange(24))]
        yield empirical_dist(ctx, word)
        support = 1 + rng.randrange(ctx.q)
        raw = [rng.uniform() for _ in range(support)] + [0.0] * (ctx.q - support)
        yield Pmf(ctx, tuple(x / sum(raw) for x in raw))


def test_smooth_min_entropy_matches_bisection_oracle():
    rng = SplitMix64(2718)
    checked = 0
    for ctx in (F4, F8, F16):
        for pm in random_pmfs(ctx, rng, 200):
            for eta in (0.0, 0.05, 0.25, 0.5, 0.75, 0.99):
                for halved_tv in (True, False):
                    ours = smooth_min_entropy(pm, eta, halved_tv)
                    assert abs(ours - bisect_min_entropy(pm, eta, halved_tv)) <= 1e-14
                    checked += 1
    assert checked == 3 * 400 * 12


def test_smooth_min_entropy_eta_range():
    point = Pmf(F4, (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        smooth_min_entropy(point, 1.0)
    with pytest.raises(ValueError):
        smooth_min_entropy(point, -0.1)


def test_smooth_min_entropy_matches_lp_oracle():
    rng = SplitMix64(88)
    for _ in range(150):
        raw = [rng.uniform() for _ in range(8)]
        # random support size <= 8
        support = 1 + rng.randrange(8)
        raw = raw[:support] + [0.0] * (8 - support)
        total = sum(raw)
        probs = tuple(x / total for x in raw)
        pm = Pmf(F8, probs)
        for eta in (0.0, 0.1, 0.3):
            ours = smooth_min_entropy(pm, eta)
            oracle = lp_min_entropy_oracle(probs, eta)
            assert ours == pytest.approx(oracle, abs=1e-6)


def test_smooth_min_entropy_nondecreasing_in_eta():
    rng = SplitMix64(12)
    for _ in range(50):
        raw = [rng.uniform() + 1e-9 for _ in range(8)]
        total = sum(raw)
        pm = Pmf(F8, tuple(x / total for x in raw))
        values = [smooth_min_entropy(pm, eta) for eta in (0.0, 0.05, 0.2, 0.5, 0.8)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_smooth_min_entropy_unhalved_convention():
    pm = Pmf(F4, (1.0, 0.0, 0.0, 0.0))
    halved = smooth_min_entropy(pm, 0.5, halved_tv=True)
    unhalved = smooth_min_entropy(pm, 0.5, halved_tv=False)
    # unhalved budget is half as much smoothing
    assert unhalved == pytest.approx(smooth_min_entropy(pm, 0.25), abs=1e-12)
    assert unhalved < halved


# -- entropy hypothesis --------------------------------------------------------


def test_entropy_hypothesis_constant_codeword_fails():
    rep_outer = OuterCode(FieldMatrix(((1, 1),), 2, F4))  # codewords (a, a)
    rep = entropy_hypothesis(rep_outer, cgamma=1.0, ceta=0.5)
    # eta = 0.25 < 1 - 1/q, so the smoothed point mass stays far below log2 q
    assert not rep.ok
    assert rep.min_entropy == pytest.approx(-math.log2(0.75), abs=1e-9)


@pytest.mark.parametrize("cgamma", [math.nan, math.inf, -math.inf])
def test_entropy_hypothesis_refuses_a_non_finite_cgamma(cgamma):
    # a NaN threshold would fail every codeword without an error
    outer = OuterCode(FieldMatrix(((1, 1),), 2, F4))
    with pytest.raises(ValueError, match="cgamma must be finite"):
        entropy_hypothesis(outer, cgamma=cgamma, ceta=0.5)


def test_entropy_hypothesis_permutation_codewords_pass():
    perm_outer = OuterCode(FieldMatrix(((0, 1, 2, 3),), 4, F4))
    rep = entropy_hypothesis(perm_outer, cgamma=1.0, ceta=1.0, n0=8)
    assert rep.ok
    assert rep.min_entropy == pytest.approx(2.0, abs=1e-12)
    assert rep.threshold == pytest.approx((1 - 0.25) * 2, abs=1e-12)
    assert rep.n_checked == 3
    assert rep.n0_ratio == pytest.approx(8 * 0.25**2 / math.log2(4), abs=1e-12)


def test_entropy_hypothesis_min_is_min_of_per_codeword():
    outer = OuterCode(sample_field_code(F4, 4, 2, 55))
    rep = entropy_hypothesis(outer, cgamma=1.0, ceta=0.4)
    values = []
    for m in all_messages(outer):
        if any(m):
            pm = empirical_dist(F4, outer.encode(m))
            values.append(smooth_min_entropy(pm, 0.4 * outer.k / outer.n))
    assert rep.min_entropy == min(values)


def entropy_loop_reference(outer, cgamma, ceta, n0, halved_tv) -> EntropyReport:
    """The per-codeword entropy check: one smoothed min-entropy per nonzero
    codeword, in odometer order."""
    eps = outer.k / outer.n
    eta = ceta * eps
    min_entropy = math.inf
    n_checked = 0
    for msg in all_messages(outer):
        if any(msg):
            pm = empirical_dist(outer.ctx, outer.encode(msg))
            min_entropy = min(min_entropy, smooth_min_entropy(pm, eta, halved_tv))
            n_checked += 1
    threshold = (1.0 - cgamma * eps) * math.log2(outer.ctx.q)
    ratio = n0 * eps * eps / math.log2(1.0 / eps) if 0 < eps < 1 else None
    return EntropyReport(eta, threshold, min_entropy, min_entropy >= threshold, n_checked, ratio)


def count_multisets(outer) -> int:
    """Distinct sorted multisets of nonzero symbol counts over the nonzero
    codewords."""
    multisets = set()
    for msg in all_messages(outer):
        if any(msg):
            word = outer.encode(msg)
            counts = [word.count(v) for v in range(outer.ctx.q)]
            multisets.add(tuple(sorted(c for c in counts if c)))
    return len(multisets)


def edge_outer_codes():
    """Outer codes of length 1 and 2, of lengths 63..66 around the 64-bit
    word that holds a boundary code's n - 1 bits, and of length 70 (two
    words).  From n = 3 on, the first code of each length is binary with
    codewords of weight 1, 2 and 3: their boundary codes differ only in the
    top bits n - 2, n - 3 and n - 4, so a code cut short of them would put
    the three in one group."""
    f2 = make_field(1)
    yield OuterCode(FieldMatrix(((1,),), 1, f2))
    yield OuterCode(FieldMatrix(((1, 0), (0, 1)), 2, f2))
    for n in (1, 2, 63, 64, 65, 66, 70):
        if n >= 3:
            yield OuterCode(FieldMatrix(((1,) + (0,) * (n - 1), (0, 1, 1) + (0,) * (n - 3)), n, f2))
        for k in range(1, min(n, 2) + 1):
            yield OuterCode(sample_field_code(F4, n, k, derive_seed(n, k)))


def clear_entropy_memos():
    certify._count_multiset.cache_clear()
    certify._multiset_entropy.cache_clear()


def test_entropy_hypothesis_is_bit_identical_to_codeword_loop(monkeypatch):
    calls = 0
    real = certify._water_level_entropy

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, "_water_level_entropy", counted)
    fewer = 0
    for outer in itertools.chain(small_outer_codes(256), edge_outer_codes()):
        for ceta in (0.0, 0.5, 0.9):
            for halved_tv in (True, False):
                clear_entropy_memos()
                calls = 0
                rep = entropy_hypothesis(outer, 1.0, ceta, n0=8, halved_tv=halved_tv)
                assert calls == count_multisets(outer)
                fewer += calls < rep.n_checked
                assert rep == entropy_loop_reference(outer, 1.0, ceta, 8, halved_tv)
                calls = 0
                assert entropy_hypothesis(outer, 1.0, ceta, n0=8, halved_tv=halved_tv) == rep
                assert calls == 0
    assert fewer > 0
    tops = [outer for outer in edge_outer_codes() if outer.ctx.q == 2 and outer.n >= 3]
    assert [outer.n for outer in tops] == [63, 64, 65, 66, 70]
    assert all(count_multisets(outer) == 3 for outer in tops)


def test_one_count_multiset_gets_a_value_per_field_eta_and_convention():
    # counts (1, 7): probabilities 7/8 and 1/8.  Each step changes one part
    # of the memo key, and with it the value; the floor log2(q) shows the field.
    clear_entropy_memos()
    steps = [(F4, 0.75, True, 2.0), (F8, 0.75, True, 3.0),
             (F8, 0.25, True, -math.log2(5 / 8)), (F8, 0.25, False, 2 - math.log2(3))]
    word = (1,) + (2,) * 7
    for ctx, eta, halved_tv, value in steps:
        assert certify._multiset_entropy((1, 7), ctx, eta, halved_tv) == pytest.approx(value, abs=1e-15)
        assert certify._multiset_entropy((1, 7), ctx, eta, halved_tv) == smooth_min_entropy(
            empirical_dist(ctx, word), eta, halved_tv
        )
    assert certify._multiset_entropy.cache_info().misses == len(steps)


@pytest.mark.parametrize("k0", [2, 4, 8, 16])
def test_multiset_entropy_matches_the_full_pmf_bit_for_bit(k0):
    # the memo reads the nonzero counts alone; smooth_min_entropy reads all q entries
    ctx, rng = make_field(k0), SplitMix64(k0)
    clear_entropy_memos()
    for n in (1, 2, 3, 7, 16, 33):
        cuts = sorted({1 + rng.randrange(n - 1) for _ in range(min(n - 1, 5))})
        counts = tuple(sorted(b - a for a, b in zip([0, *cuts], [*cuts, n])))
        if len(counts) > ctx.q:
            continue
        pmf = empirical_dist(ctx, [s for s, c in enumerate(counts) for _ in range(c)])
        for eta in (0.0, 0.1, 1 / 3, 0.5, 0.9):
            for halved_tv in (True, False):
                full = smooth_min_entropy(pmf, eta, halved_tv)
                assert repr(certify._multiset_entropy(counts, ctx, eta, halved_tv)) == repr(full)


def test_sorting_network_sorts_every_zero_one_column():
    # 0-1 principle: a comparator network that sorts every 0/1 input sorts
    # every input.  Column c holds the bits of c, so all 2^n inputs go
    # through the network in one pass.
    for n in range(1, 17):
        columns = (np.arange(1 << n) >> np.arange(n)[:, None] & 1).astype(np.uint8)
        runs = np.array(certify._sort_columns(columns))
        assert (runs[1:] >= runs[:-1]).all()
        assert (runs.sum(axis=0) == columns.sum(axis=0)).all()
    rng = np.random.default_rng(70)
    for n in range(1, 71):
        columns = rng.integers(0, 16, size=(n, 200), dtype=np.uint8)
        assert (np.array(certify._sort_columns(columns)) == np.sort(columns, axis=0)).all()


def test_table_budgets_fail_before_any_multiply(monkeypatch):
    outer = OuterCode(sample_field_code(F8, 4, 2, 7))
    cc = ConcatCode(outer, BinaryCode(sample_binary_code(6, 3, 7)))
    pm = d_pmf(F8, [1, 2, 4], 0.2)

    def forbidden(*args, **kwargs):
        raise AssertionError("field arithmetic before the budget check")

    for name in ("mul", "scale", "mul_array"):
        monkeypatch.setattr(FieldCtx, name, forbidden)
    # a data descriptor, so a field whose tables are already kept raises too
    monkeypatch.setattr(FieldCtx, "arrays", property(forbidden))
    with pytest.raises(ValueError, match="dual size 64 exceeds budget 63"):
        soft_condition(outer, pm, "exact", budget=63)
    with pytest.raises(ValueError, match="code size 64 exceeds budget 63"):
        soft_enumerator(cc, 0.2, budget=63)
    with pytest.raises(AssertionError, match="field arithmetic"):
        soft_enumerator(cc, 0.2, budget=64)
    with pytest.raises(ValueError, match="codeword count 64 exceeds budget 63"):
        entropy_hypothesis(outer, 1.0, 1.0, budget=63)
    with pytest.raises(ValueError, match="smoothing level"):
        entropy_hypothesis(outer, 1.0, 2.0)
    # within budget, both checks reach the field's arithmetic
    with pytest.raises(AssertionError, match="field arithmetic"):
        soft_condition(outer, pm, "exact", budget=64)
    with pytest.raises(AssertionError, match="field arithmetic"):
        entropy_hypothesis(outer, 1.0, 1.0, budget=64)


def test_sample_pmf_many_deterministic():
    pm = d_pmf(F4, [2, 3], 0.2)
    a = sample_pmf_many(pm, 5, 100)
    b = sample_pmf_many(pm, 5, 100)
    assert a.tolist() == b.tolist()


def pmfs_with_zeros(ctx, count, seed):
    """Random pmfs over ctx in which each entry is zero with probability 1/2
    (at least one entry nonzero), so runs of zeros lead, sit inside and trail."""
    rng = SplitMix64(seed)
    for _ in range(count):
        weights = [rng.randrange(100) if rng.bits(1) else 0 for _ in range(ctx.q)]
        if not any(weights):
            weights[rng.randrange(ctx.q)] = 1
        total = sum(weights)
        yield Pmf(ctx, tuple(w / total for w in weights))


def test_sample_pmf_many_matches_linear_scan_inversion():
    trailing = 0
    for i, pm in enumerate(pmfs_with_zeros(F8, 300, 17)):
        trailing += pm.probs[-1] == 0
        assert sample_pmf_many(pm, i, 200).tolist() == inversion_draws(pm.probs, i, 200)
    assert trailing > 100


@pytest.mark.parametrize(
    "probs",
    [
        (0, 0.5, 0, 0.25, 0.125, 0.125, 0, 0),
        (0.75, 0, 0, 0, 0, 0, 0, 0.25),
        (0, 0, 0, 1.0, 0, 0, 0, 0),
        (0.5, 0.5, 0, 0, 0, 0, 0, 0),
    ],
)
def test_sample_pmf_many_never_draws_a_zero_probability_symbol(probs):
    # dyadic probabilities add exactly, so the CDF is flat across every zero
    pm = Pmf(F8, probs)
    draws = sample_pmf_many(pm, 3, 4000).tolist()
    assert draws == inversion_draws(probs, 3, 4000)
    assert set(draws) == {s for s, p in enumerate(probs) if p}


def test_sample_pmf_many_draws_the_first_index_past_u(monkeypatch):
    # a u on a CDF step goes to the next symbol with mass, past the flat zeros
    us = [0.0, 0.5, 0.75, 0.875, 1 - 2**-53]
    monkeypatch.setattr(certify, "SplitMix64", lambda seed: SimpleNamespace(uniforms=lambda count: np.array(us)))
    pm = Pmf(F8, (0, 0.5, 0, 0.25, 0.125, 0.125, 0, 0))
    assert sample_pmf_many(pm, 0, len(us)).tolist() == [1, 3, 4, 5, 5]


def test_sample_pmf_many_never_draws_a_trailing_zero_past_a_rounded_cdf(monkeypatch):
    # these partial sums end just below 1, so a u above them used to fall
    # through to the last, zero-probability, symbol
    probs = tuple(w / 292 for w in (93, 4, 68, 29, 98, 0, 0, 0))
    u = 0.9999999999999999
    assert sum(probs) < 1.0 and u >= sum(probs)
    monkeypatch.setattr(certify, "SplitMix64", lambda seed: SimpleNamespace(uniforms=lambda count: np.full(count, u)))
    assert sample_pmf_many(Pmf(F8, probs), 0, 3).tolist() == [4, 4, 4]


def test_sample_pmf_many_matches_the_oracle_across_blocks():
    pm = next(pmfs_with_zeros(F8, 1, 23))
    count = 2 * (1 << BLOCK_BITS) + 3
    draws = sample_pmf_many(pm, 8, count)
    assert draws.dtype == np.uint8 and len(draws) == count
    assert draws.tolist() == inversion_draws(pm.probs, 8, count)

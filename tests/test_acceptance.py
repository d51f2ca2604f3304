"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything is seeded; two runs produce identical outcomes.
"""

import itertools
import math
from fractions import Fraction

import pytest

from concatgv.bounds import gv_rate, h2, h2_inv, zyablov_rate
from concatgv.certify import (
    Pmf,
    check_nice,
    d_pmf,
    smooth_min_entropy,
    soft_condition,
    soft_enumerator,
)
from concatgv.codes import (
    BinaryCode,
    ConcatCode,
    OuterCode,
    bias,
    weight_distribution,
)
from concatgv.field import make_field
from concatgv.linalg import sample_binary_code, sample_field_code
from concatgv.moments import bad_bound, count_W, moment_dual, poisson_product_check
from concatgv.rng import SplitMix64, derive_seed
from concatgv.sweep import SweepConfig, config_from_dict, emit_csv, emit_json, run_sweep

from oracles import all_messages, trial_code
from test_certify import lp_min_entropy_oracle, naive_soft_oracle
from test_golden import CONFIGS as GOLDEN_CONFIGS

MASTER_SEED = 20260810

# Pre-registered by an oracle run of the criterion-10 configuration
# (master_seed=20260810, eps=0.5, n0=8, k0=4, n=6, k=3, trials=200) with
# distances computed by direct weight enumeration: the observed 10th
# percentile of relative distance.
THETA = Fraction(5, 48)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def grid_instances():
    """q in {2,4}, n in {1,2,3}, n0 in {2,3}, k=1, five sampled codes per cell."""
    cell = 0
    for q, n, n0 in itertools.product((2, 4), (1, 2, 3), (2, 3)):
        k0 = q.bit_length() - 1
        ctx = make_field(k0)
        for trial in range(5):
            seed = derive_seed(MASTER_SEED, cell * 1000 + trial)
            inner = BinaryCode(sample_binary_code(n0, k0, derive_seed(seed, 0)))
            outer = OuterCode(sample_field_code(ctx, n, 1, derive_seed(seed, 1)))
            yield ConcatCode(outer, inner)
        cell += 1


def test_c01_field_identities():
    failures = 0
    pairs = 0
    for k0 in range(1, 7):
        f = make_field(k0)
        for a in range(f.q):
            ca = f.coords(a)
            for b in range(f.q):
                pairs += 1
                if f.trace(f.mul(a, b)) != (ca & f.coords(b)).bit_count() & 1:
                    failures += 1
    for k0 in range(7, 11):
        f = make_field(k0)
        rng = SplitMix64(derive_seed(MASTER_SEED, k0))
        for _ in range(100_000):
            a = rng.randrange(f.q)
            b = rng.randrange(f.q)
            pairs += 1
            if f.trace(f.mul(a, b)) != (f.coords(a) & f.coords(b)).bit_count() & 1:
                failures += 1
    report(
        "criterion 1: trace form = identified dot product",
        failures == 0,
        f"{pairs} pairs, {failures} failures",
    )


def test_c02_moment_identity_grid():
    checked = 0
    bad = 0
    for cc in grid_instances():
        for r in (1, 2, 3, 6, 8):
            checked += 1
            if weight_distribution(cc).moment(r) != moment_dual(cc, r):
                bad += 1
    report(
        "criterion 2: moment identity, exact rational equality",
        bad == 0,
        f"{checked} (instance, r) pairs",
    )


def test_c03_bias_weight_relation():
    checked = 0
    bad = 0
    for cc in grid_instances():
        if cc.ctx.q**cc.outer.k > 4096:
            continue
        for m in all_messages(cc.outer):
            x = bias(cc, m)
            w = cc.encode(m).bit_count()
            checked += 1
            if (cc.N - x) % 2 != 0 or w != (cc.N - x) // 2:
                bad += 1
    report(
        "criterion 3: weight = (N - X_m)/2 exactly",
        bad == 0,
        f"{checked} messages",
    )


def test_c04_bad_message_bound():
    checked = 0
    bad = 0
    for cc in grid_instances():
        for r in (2, 4, 6, 8):
            for c in (1.0, 4.0):
                rep = bad_bound(cc, r, c)
                checked += 1
                if Fraction(rep.bad_count) > rep.b_r:
                    bad += 1
    report(
        "criterion 4: bad_count <= B_r (exact comparison)",
        bad == 0,
        f"{checked} (instance, r, c) triples",
    )


def test_c05_w_count_vs_bound():
    checked = 0
    bad = 0
    for cc in grid_instances():
        n0, k0 = cc.inner.n0, cc.inner.k0
        tau = 1 / math.sqrt(n0)
        if not 0 < tau < k0 / n0:
            continue  # niceness undefined at this tau; bound not asserted
        if not check_nice(cc.inner, tau).ok:
            continue
        for r in (1, 2, 3):
            rep = count_W(cc, r)
            checked += 1
            if rep.count > rep.bound:
                bad += 1
    report(
        "criterion 5: |W| <= counting bound on nice instances",
        bad == 0 and checked > 0,
        f"{checked} (instance, r) pairs",
    )


def test_c06_poissonization():
    f4 = make_field(2)
    cc_a = ConcatCode(
        OuterCode(sample_field_code(f4, 2, 1, derive_seed(MASTER_SEED, 61))),
        BinaryCode(sample_binary_code(3, 2, derive_seed(MASTER_SEED, 62))),
    )
    gap_a = poisson_product_check(cc_a, 0.2)
    cc_b = ConcatCode(
        OuterCode(sample_field_code(f4, 1, 1, derive_seed(MASTER_SEED, 63))),
        BinaryCode(sample_binary_code(4, 2, derive_seed(MASTER_SEED, 64))),
    )
    gap_b = poisson_product_check(cc_b, 0.5)
    report(
        "criterion 6: Poissonization product law, gap <= 1e-9",
        gap_a <= 1e-9 and gap_b <= 1e-9,
        f"gaps {gap_a:.2e}, {gap_b:.2e}",
    )


def test_c07_niceness_frequency():
    n0, k0, tau, samples = 32, 16, 0.25, 500
    nice = 0
    for i in range(samples):
        inner = BinaryCode(sample_binary_code(n0, k0, derive_seed(MASTER_SEED, 70_000 + i)))
        if check_nice(inner, tau).ok:
            nice += 1
    frac = nice / samples
    p_bound = 1 - n0 * 2 ** (-tau * n0)  # Markov + union bound over weights = 0.875
    sigma = math.sqrt(p_bound * (1 - p_bound) / samples)
    threshold = p_bound - 3 * sigma
    report(
        "criterion 7: tau-nice fraction >= 1 - n0 2^(-tau n0) - 3 sigma",
        frac >= threshold,
        f"fraction {frac:.4f} vs threshold {threshold:.4f}",
    )


def test_c08_smoothed_min_entropy_vs_lp():
    f8 = make_field(3)
    rng = SplitMix64(derive_seed(MASTER_SEED, 80))
    worst = 0.0
    for _ in range(1000):
        support = 1 + rng.randrange(8)
        raw = [rng.uniform() + 1e-12 for _ in range(support)] + [0.0] * (8 - support)
        total = sum(raw)
        probs = tuple(x / total for x in raw)
        pm = Pmf(f8, probs)
        for eta in (0.0, 0.1, 0.3):
            ours = smooth_min_entropy(pm, eta)
            oracle = lp_min_entropy_oracle(probs, eta)
            worst = max(worst, abs(ours - oracle))
    report(
        "criterion 8: water-filling = LP oracle within 1e-6",
        worst <= 1e-6,
        f"worst gap {worst:.2e} over 1000 distributions x 3 etas",
    )


def test_c09_soft_condition():
    f4 = make_field(2)
    # exactness against the naive full-space oracle
    worst = 0.0
    idx = 0
    for n in (2, 3):
        for _ in range(10):
            k = 1 + (idx % n)
            outer = OuterCode(sample_field_code(f4, n, k, derive_seed(MASTER_SEED, 90_000 + idx)))
            for j in range(5):
                rng = SplitMix64(derive_seed(MASTER_SEED, 91_000 + 5 * idx + j))
                omega = [rng.randrange(4) for _ in range(1 + rng.randrange(5))]
                p = rng.uniform() / 2
                pm = d_pmf(f4, omega, p)
                got = soft_condition(outer, pm, "exact").prob
                worst = max(worst, abs(got - naive_soft_oracle(outer, pm)))
            idx += 1
    exact_ok = worst <= 1e-12

    # Monte Carlo confidence interval coverage
    outer = OuterCode(sample_field_code(f4, 3, 1, derive_seed(MASTER_SEED, 92_000)))
    pm = d_pmf(f4, [2, 3, 1], 0.25)
    exact = soft_condition(outer, pm, "exact").prob
    covered = 0
    for i in range(100):
        mc = soft_condition(outer, pm, "montecarlo", budget=2000,
                            seed=derive_seed(MASTER_SEED, 93_000 + i))
        if mc.ci_low <= exact <= mc.ci_high:
            covered += 1
    report(
        "criterion 9: soft condition exactness + MC coverage",
        exact_ok and covered >= 93,
        f"worst oracle gap {worst:.2e}, CI coverage {covered}/100",
    )


def test_c09b_float_dual_within_its_stated_bound():
    """The float dual sum against the exact soft condition, within a bound.

    soft_condition's exact mode at pmf = d_pmf(ctx, Omega, p) rounds in three
    places.  Take u = 2^-53 and gamma_m = m u / (1 - m u).  Every quantity is
    nonnegative until the last step, so each exact term collects rounding
    factors (1 + d_i), |d_i| <= u, and a product of m of them is 1 + theta
    with |theta| <= gamma_m (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemma 3.1).

    1. d_pmf takes one step per nonzero Omega entry, at most n0 steps.  A step
       rounds 1 - p, the product with it or with p, and at most one sum into
       each entry: 3 factors.  So D~(v) = D(v) (1 + theta), |theta| <=
       gamma_(3 n0), where D is the exact law at the float p.
    2. A dual word's term multiplies n of those values left to right from
       1.0: n - 1 roundings, on top of the 3 n0 n factors from step 1.
    3. The T = q^(n-k) slots (slot 0 holds 0.0) are added one at a time, left
       to right, so a term passes through at most T - 1 roundings.

    So prob~ = prob (1 + theta) with |theta| <= gamma_m, m = 3 n0 n + n + T.
    delta~ = fl(prob~ q^k - 1): the power-of-two scale is exact and the
    subtraction rounds once, so

        |delta~ - delta| <= (1 + u) gamma_m q^k prob + u |delta|.

    Both bounds are checked in Fractions against soft_enumerator on every
    golden sweep trial with run_soft, and on trials 0 and 1 of the budget edge
    (k0=4, n0=8, n=10, k=5, seed 20260810), whose T = 2^20 is the largest sum
    the default budget allows.
    """
    u = Fraction(1, 1 << 53)
    configs = [
        config_from_dict({**GOLDEN_CONFIGS[name], "master_seed": seed})
        for name in ("certify", "lowrate", "toggles")
        for seed in (MASTER_SEED, 1)
    ] + [SweepConfig(k0=4, n0=8, n=10, k=5, trials=2, master_seed=MASTER_SEED)]
    worst = 0.0
    checked = 0
    for cfg in configs:
        q = 1 << cfg.k0
        T = q ** (cfg.n - cfg.k)
        m = 3 * cfg.n0 * cfg.n + cfg.n + T
        gamma = m * u / (1 - m * u)
        for trial in range(cfg.trials):
            cc, p = trial_code(cfg, trial)
            dual = soft_condition(cc.outer, d_pmf(cc.ctx, cc.omega, p), "exact", budget=T)
            exact = soft_enumerator(cc, p)
            prob, delta = Fraction(exact.prob_num, exact.den), Fraction(exact.delta_num, exact.den)
            prob_bound = gamma * prob
            delta_bound = (1 + u) * gamma * q**cfg.k * prob + u * abs(delta)
            worst = max(
                worst,
                float(abs(Fraction(dual.prob) - prob) / prob_bound),
                float(abs(Fraction(dual.delta) - delta) / delta_bound),
            )
            checked += 1
    report(
        "criterion 9b: float dual soft sum within gamma_m of the exact enumerator",
        worst <= 1 and checked == 10,
        f"{checked} trials, largest error / bound {worst:.2e}",
    )


@pytest.fixture(scope="module")
def acceptance_sweep():
    cfg = SweepConfig(k0=4, n0=8, n=6, k=3, trials=200, master_seed=MASTER_SEED)
    rows, agg = run_sweep(cfg)
    return cfg, rows, agg


def test_c10_ensemble_gv_trend(acceptance_sweep):
    _, rows, agg = acceptance_sweep
    median = agg["median_rel_distance"]
    rates_exact = all(Fraction(r.rate) == Fraction(1, 4) for r in rows)
    all_exact = all(r.distance_exact for r in rows)
    report(
        "criterion 10: ensemble median distance >= pre-registered theta",
        Fraction(median) >= THETA and rates_exact and all_exact,
        f"median {median:.4f} vs theta {float(THETA):.4f}, 200 exact trials, rate 0.25",
    )


def test_c11_bound_curves():
    worst_x = max(
        abs(h2_inv(h2(0.5 * i / 10_000)) - 0.5 * i / 10_000) for i in range(10_000)
    )
    worst_y = max(abs(h2(h2_inv(i / 10_000)) - i / 10_000) for i in range(10_001))
    roundtrip_ok = worst_x <= 1e-10 and worst_y <= 1e-10

    zy_below = all(
        zyablov_rate(0.5 * i / 1000) <= gv_rate(0.5 * i / 1000) + 1e-12
        for i in range(1000)
    )
    cubic_ok = all(
        0.1 <= zyablov_rate((1 - eps) / 2) / eps**3 <= 10
        for eps in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    )
    report(
        "criterion 11: entropy round-trip, Zyablov <= GV, cubic order",
        roundtrip_ok and zy_below and cubic_ok,
        f"roundtrip {max(worst_x, worst_y):.2e}",
    )


def test_c12_determinism(acceptance_sweep):
    cfg, rows, agg = acceptance_sweep
    rows2, agg2 = run_sweep(cfg)
    same_csv = emit_csv(rows, cfg) == emit_csv(rows2, cfg)
    same_json = emit_json(rows, agg, cfg) == emit_json(rows2, agg2, cfg)
    report(
        "criterion 12: byte-identical CSV/JSON across reruns",
        same_csv and same_json,
        f"csv {len(emit_csv(rows, cfg))} bytes",
    )

import json
import math
import sys
from fractions import Fraction

import pytest

from concatgv.codes import BinaryCode, ConcatCode, OuterCode, weight_distribution
from concatgv.field import make_field
from concatgv.linalg import sample_binary_code, sample_field_code
from concatgv.rng import derive_seed
from concatgv.sweep import (
    Budgets,
    Constants,
    SweepConfig,
    Toggles,
    config_from_dict,
    emit_csv,
    emit_json,
    reemit_json,
    run_sweep,
    run_trial,
)

SMALL = SweepConfig(k0=2, n0=4, n=4, k=2, trials=6, master_seed=99)


def test_zero_trials_vacuous():
    cfg = SweepConfig(k0=2, n0=4, n=4, k=2, trials=0, master_seed=1)
    rows, agg = run_sweep(cfg)
    assert rows == []
    assert agg["vacuous"] is True and agg["trials"] == 0
    csv_text = emit_csv(rows, cfg)
    assert len(csv_text.splitlines()) == 2  # comment + header only


def test_rate_column_exact():
    rows, _ = run_sweep(SMALL)
    for r in rows:
        assert Fraction(r.rate) == Fraction(SMALL.k * SMALL.k0, SMALL.n * SMALL.n0)


def test_distance_matches_weight_distribution_recomputation():
    rows, _ = run_sweep(SMALL)
    ctx = make_field(SMALL.k0)
    for row in rows:
        inner = BinaryCode(sample_binary_code(SMALL.n0, SMALL.k0, row.seed_inner))
        outer = OuterCode(sample_field_code(ctx, SMALL.n, SMALL.k, row.seed_outer))
        cc = ConcatCode(outer, inner)
        wd = weight_distribution(cc)
        d = next(j for j in range(1, cc.N + 1) if wd.delta[j])
        assert row.distance == d and row.distance_exact
        # x_max from the same enumerator
        support = [j for j, c in enumerate(wd.delta) if c and j > 0]
        assert row.x_max == max(cc.N - 2 * support[0], 2 * support[-1] - cc.N)


def test_determinism_byte_identical():
    rows1, agg1 = run_sweep(SMALL)
    rows2, agg2 = run_sweep(SMALL)
    assert emit_csv(rows1, SMALL) == emit_csv(rows2, SMALL)
    assert emit_json(rows1, agg1, SMALL) == emit_json(rows2, agg2, SMALL)


def test_json_roundtrip_byte_identical():
    rows, agg = run_sweep(SMALL)
    text = emit_json(rows, agg, SMALL)
    assert reemit_json(json.loads(text)) == text


def test_csv_schema_and_column_count():
    from concatgv.sweep import CSV_COLUMNS

    rows, _ = run_sweep(SMALL)
    lines = emit_csv(rows, SMALL).splitlines()
    assert lines[0].startswith("# concatgv-sweep-v1 config_hash=")
    assert lines[1] == ",".join(CSV_COLUMNS)
    for ln in lines[2:]:
        assert len(ln.split(",")) == len(CSV_COLUMNS)


def test_wall_time_not_serialized():
    rows, agg = run_sweep(SMALL)
    assert all(r.wall_time_s >= 0 for r in rows)
    assert "wall_time" not in emit_csv(rows, SMALL)
    assert "wall_time" not in emit_json(rows, agg, SMALL)


def test_unknown_config_keys_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1,
                          "master_seed": 0, "trails": 5})
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1,
                          "master_seed": 0, "budgets": {"distnace": 10}})


def test_config_validation_before_trials():
    cfg = SweepConfig(k0=2, n0=4, n=5, k=2, trials=1, master_seed=0)
    with pytest.raises(ValueError, match="equal_rate"):
        cfg.validate()
    ok = SweepConfig(k0=2, n0=4, n=5, k=2, trials=1, master_seed=0, equal_rate=False)
    ok.validate()
    bad_tau = SweepConfig(
        k0=2, n0=4, n=4, k=2, trials=1, master_seed=0,
        constants=Constants(tau=0.9), toggles=Toggles(run_nice=True),
    )
    with pytest.raises(ValueError, match="tau"):
        bad_tau.validate()
    # a shape no sampler can draw, a negative trial count, budgets out of range
    base = dict(k0=2, n0=4, n=4, k=2, trials=1, master_seed=0)
    for change, message in [
        (dict(k0=0), "need 1 <= k0 <= n0"),
        (dict(n=2, k=3, equal_rate=False), "need 1 <= k <= n"),
        (dict(trials=-1), "trials must be nonnegative"),
        # 2^(n0 - k0) = 4 dual words of the inner code: a niceness budget of 3 is refused
        (dict(budgets=Budgets(niceness=3), toggles=Toggles(run_nice=True)),
         "niceness check over budget"),
        (dict(budgets=Budgets(mc_draws=0)), "budget mc_draws must be positive"),
        (dict(budgets=Budgets(soft=-1)), "budget soft must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{**base, **change}).validate()
    # gv_check needs a positive, finite c: refused before any trial runs
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="GV constant"):
            SweepConfig(k0=2, n0=4, n=4, k=2, trials=1, master_seed=0,
                        constants=Constants(c=c)).validate()
    # q^k = 16 codewords: an entropy budget of 8 is refused, 16 runs the check
    entropy_on = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0,
                  "toggles": {"run_entropy": True}}
    with pytest.raises(ValueError, match="entropy check over budget"):
        config_from_dict({**entropy_on, "budgets": {"entropy": 8}})
    rows, _ = run_sweep(config_from_dict({**entropy_on, "budgets": {"entropy": 16}}))
    assert rows[0].entropy_min is not None


def test_tau_compared_exactly_with_the_inner_rate():
    def validate(k0, n0, tau):
        SweepConfig(k0=k0, n0=n0, n=n0, k=k0, trials=1, master_seed=0,
                    constants=Constants(tau=tau), toggles=Toggles(run_nice=True)).validate()

    with pytest.raises(ValueError, match="tau"):
        validate(2, 4, 0.5)  # tau = k0/n0 exactly
    validate(2, 4, math.nextafter(0.5, 0))
    validate(1, 3, 1 / 3)  # the float 1/3 lies just below 1/3
    with pytest.raises(ValueError, match="tau"):
        validate(1, 3, math.nextafter(1 / 3, 1))
    for tau in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            validate(2, 4, tau)


def test_field_degree_above_the_largest_refused_at_load():
    cfg = {"k0": 40, "n0": 80, "n": 4, "k": 2, "trials": 0, "master_seed": 0}
    for trials in (0, 1):
        with pytest.raises(ValueError, match="k0=40 above the largest field degree 16"):
            config_from_dict({**cfg, "trials": trials})
    # the largest degree itself is a valid config
    config_from_dict({**cfg, "k0": 16, "n0": 32})


def test_moment_config_rejected_before_trials():
    base = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0}
    with pytest.raises(ValueError, match="r_list"):
        config_from_dict({**base, "toggles": {"run_moments": True, "r_list": [-1]}})
    with pytest.raises(ValueError, match="moment check"):
        config_from_dict({**base, "toggles": {"run_moments": True, "r_list": [10**9]}})
    # q^k = 16 messages fit; the r = 4 walk over 16 pairs on 4 syndrome bits does not
    with pytest.raises(ValueError, match="moment check"):
        config_from_dict({**base, "budgets": {"moments": 100},
                          "toggles": {"run_moments": True, "r_list": [2, 4]}})
    with pytest.raises(ValueError, match="moment check"):
        config_from_dict({**base, "budgets": {"moments": 15},
                          "toggles": {"run_moments": True, "r_list": [0]}})
    # the r = 2 walk needs 16 + 16 updates: admitted, and the trial then runs within budget
    tight = config_from_dict({**base, "budgets": {"moments": 32},
                              "toggles": {"run_moments": True, "r_list": [2]}})
    rows, _ = run_sweep(tight)
    assert rows[0].moments_equal is True


def test_entropy_smoothing_level_rejected_before_trials():
    # eta = c_eta * k / n must lie in [0, 1) whenever the entropy check runs
    with pytest.raises(ValueError, match="smoothing level"):
        config_from_dict({"k0": 2, "n0": 2, "n": 3, "k": 3, "trials": 1, "master_seed": 0,
                          "toggles": {"run_entropy": True}})
    base = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0}
    with pytest.raises(ValueError, match="smoothing level"):
        config_from_dict({**base, "constants": {"c_eta": 2.5}, "toggles": {"run_entropy": True}})
    with pytest.raises(ValueError, match="smoothing level"):
        config_from_dict({**base, "constants": {"c_eta": -0.5}, "toggles": {"run_entropy": True}})
    # the same constants are fine while the entropy check is off
    config_from_dict({**base, "constants": {"c_eta": 2.5}})
    # eta = 0.95 is admitted, and the trial then runs the check
    rows, _ = run_sweep(config_from_dict({**base, "constants": {"c_eta": 1.9},
                                          "toggles": {"run_entropy": True}}))
    assert rows[0].entropy_min is not None


def test_constant_too_large_for_a_float_rejected_before_trials():
    base = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0,
            "toggles": {"run_soft": True}}
    with pytest.raises(ValueError, match="c_tilde.*finite number"):
        config_from_dict({**base, "constants": {"c_tilde": 10**400}})
    # an int as large as a float can hold is still a number
    cfg = config_from_dict({**base, "constants": {"c_tilde": int(sys.float_info.max)}})
    assert run_sweep(cfg)[0][0].soft_prob is not None


def test_config_from_dict_roundtrip():
    cfg = config_from_dict(SMALL.to_dict())
    assert cfg == SMALL


def test_certificates_toggle_on():
    cfg = SweepConfig(
        k0=2, n0=4, n=4, k=2, trials=3, master_seed=7,
        constants=Constants(tau=0.25),
        toggles=Toggles(run_nice=True, run_soft=True, run_entropy=True,
                        run_moments=True, r_list=(1, 2)),
    )
    rows, agg = run_sweep(cfg)
    for r in rows:
        assert r.nice_ok is not None
        assert r.soft_prob is not None and r.soft_exact is True
        assert r.entropy_ok is not None
        assert r.moments_equal is True
    assert agg["frac_nice"] is not None


@pytest.mark.parametrize("distance_budget", [1 << 20, 8])
def test_one_weight_distribution_per_trial(distance_budget, monkeypatch):
    # The distance, x_max and every direct moment read one enumeration;
    # in Monte Carlo distance mode the moments build it themselves, once.
    import concatgv.codes as codes

    calls = []
    span = codes._span_weight_counts

    def counted(*args):
        calls.append(args)
        return span(*args)

    monkeypatch.setattr(codes, "_span_weight_counts", counted)
    cfg = SweepConfig(
        k0=2, n0=4, n=4, k=2, trials=1, master_seed=5,
        budgets=Budgets(distance=distance_budget),
        toggles=Toggles(run_moments=True, r_list=(1, 2, 4)),
    )
    row = run_trial(cfg, 0)
    assert row.moments_equal is True and row.distance_exact == (distance_budget > 16)
    assert len(calls) == 1


def test_montecarlo_distance_mode_flagged():
    cfg = SweepConfig(
        k0=2, n0=4, n=12, k=6, trials=2, master_seed=3,
        budgets=Budgets(distance=1 << 10, mc_draws=200),
    )
    rows, _ = run_sweep(cfg)  # q^k = 4^6 = 4096 > 1024 forces MC
    for r in rows:
        assert not r.distance_exact
        assert r.x_max is None


def test_trial_seeds_derived_from_master():
    row = run_trial(SMALL, 4)
    t = derive_seed(SMALL.master_seed, 4)
    assert row.seed_inner == derive_seed(t, 0)
    assert row.seed_outer == derive_seed(t, 1)


def test_aggregate_fold():
    rows, agg = run_sweep(SMALL)
    assert agg["min_rel_distance"] == min(r.rel_distance for r in rows)
    assert agg["frac_gv_ok"] == sum(r.gv_ok for r in rows) / len(rows)


def test_emitted_eps_equals_both_rates_under_equal_rate():
    _, agg = run_sweep(SMALL)
    assert SMALL.equal_rate
    assert agg["eps"] == SMALL.k / SMALL.n == SMALL.k0 / SMALL.n0


@pytest.mark.parametrize("all_on", [False, True])
def test_eliminations_per_trial(all_on, monkeypatch):
    # Each sampler draw is reduced once, and the codes built from the accepted
    # draws reuse that echelon form; only the niceness and soft checks reduce
    # a further matrix each, the dual generator they build.
    from concatgv import linalg

    counts = {}
    for name in ("rank", "_gf2_rref", "_field_rref"):
        fn = getattr(linalg, name)
        counts[name] = calls = []
        monkeypatch.setattr(linalg, name, lambda *a, fn=fn, calls=calls: calls.append(a) or fn(*a))
    toggles = Toggles(run_nice=True, run_soft=True, run_entropy=True, run_moments=True) if all_on else Toggles()
    cfg = SweepConfig(k0=2, n0=4, n=4, k=2, trials=8, master_seed=7, toggles=toggles)
    run_sweep(cfg)
    draws = [m for (m,) in counts["rank"]]
    binary = sum(isinstance(m, linalg.BitMatrix) for m in draws)
    assert len(counts["_gf2_rref"]) == binary + all_on * cfg.trials
    assert len(counts["_field_rref"]) == len(draws) - binary + all_on * cfg.trials
    assert len(draws) >= 2 * cfg.trials

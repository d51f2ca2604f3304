import dataclasses
import enum
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import concatgv
from concatgv.certify import check_nice
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
from oracles import reemit_json_stdlib
from test_golden import CONFIGS as GOLDEN_CONFIGS

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


# Strings that json escapes: quotes, backslashes, control and non-ASCII
# characters, and one outside the BMP, which becomes a surrogate pair.
ESCAPED = st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "\u2028", "\U0001f600", "日本"])
TEXT = st.one_of(st.text(max_size=6), ESCAPED)
INTS = st.one_of(st.integers(), st.integers(-(2**200), 2**200), st.sampled_from([2**64, -(2**64) - 1]))
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
KEYS = st.one_of(TEXT, INTS, FLOATS, st.booleans(), st.none())
UNSERIALIZABLE = st.sampled_from([{1, 2}, b"x", Fraction(1, 3)])


def documents(leaves, keys=KEYS):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=40,
    )


def nested(depth):
    """Empty dicts and lists, a tuple, escaped keys and non-str keys at every
    depth down to `depth`."""
    if depth == 0:
        return [1.5, -0.0, "é", 2**70]
    inner = nested(depth - 1)
    return {"": {}, "é\n": [], 1: (), 2.5: inner, True: [inner, [], {}, ()], None: (None, math.nan)}


class Text(str):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Real(float):
    pass


# subclasses of the JSON scalar types, which json renders as their bases
ESCAPED = Text('tab\t "quote" \\ \x00 é \udbff')
REALS = [Real(math.nan), Real(math.inf), Real(-math.inf), Real(-0.0)]


def rendering(render, doc):
    """The text render gives doc, or the type and message of what it raised."""
    try:
        return render(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(documents(SCALARS))
@example(nested(5))
@example([[], {}, (), [[]], {"a": {}}, ([], {})])
@example({"x": -0.0, "y": math.nan, "z": -math.inf, "w": math.inf, "big": -(2**100)})
@example({False: 0, None: 1, 2**65: 2, -0.0: 3, math.inf: 4, "\x00": "\udbff"})
@example("top-level string")
@example([ESCAPED, Level.HIGH, *REALS])
@example({"flat": {"s": ESCAPED, "e": Level.LOW, "f": REALS[3]},
          "mixed": [REALS, [Level.HIGH, {}], ESCAPED]})
@example({ESCAPED: REALS[0], Level.HIGH: [ESCAPED], **{r: Level.LOW for r in REALS}})
def test_reemit_json_is_the_stdlib_rendering(doc):
    assert reemit_json(doc) == reemit_json_stdlib(doc)


@settings(max_examples=400)
@given(documents(st.one_of(SCALARS, UNSERIALIZABLE), st.one_of(KEYS, st.just((1,)), st.just(b"k"))))
@example({1, 2})
@example({"flat": {"a": 1, "b": {3}}})
@example([1, 2.5, b"bytes"])
@example({"deep": [{"x": [Fraction(1, 2)]}]})
@example({"a": 1, (2,): 3})
@example({"a": [1], Fraction(1, 2): 3})
def test_reemit_json_raises_where_the_stdlib_does(doc):
    assert rendering(reemit_json, doc) == rendering(reemit_json_stdlib, doc)


def test_reemit_json_without_the_c_encoder(monkeypatch):
    # without json's C accelerator the flat containers take json's own
    # fallback, and the text stays the same
    rows, agg = run_sweep(SMALL)
    docs = [json.loads(emit_json(rows, agg, SMALL)), nested(4)]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    for doc in docs:
        assert reemit_json(doc) == reemit_json_stdlib(doc)


def test_reemit_json_refuses_a_circular_document():
    doc = {"rows": [1, 2]}
    doc["rows"].append(doc)
    for render in (reemit_json, reemit_json_stdlib):
        with pytest.raises(ValueError, match="Circular reference detected"):
            render(doc)


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="json has no C encoder here")
def test_reports_never_reach_the_pure_python_encoder(monkeypatch):
    # json.dumps(indent=...) renders through json.encoder._make_iterencode, the
    # pure-Python generator encoder; every report must avoid it
    rep = check_nice(BinaryCode(sample_binary_code(6, 2, 5)), 0.2, 4096)
    report = {"inner": "inner.code", "budget": 4096, **dataclasses.asdict(rep)}  # as nice-check emits it
    assert isinstance(report["per_weight"], tuple)
    expected = reemit_json_stdlib(report)

    def forbidden(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was reached")

    monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({"a": [1]}, indent=2)  # the patch is seen
    assert reemit_json(report) == expected
    for doc in GOLDEN_CONFIGS.values():
        cfg = config_from_dict({**doc, "master_seed": 1})
        rows, agg = run_sweep(cfg)
        assert emit_json(rows, agg, cfg).startswith("{\n")


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
    with pytest.raises(ValueError, match="equal_rate"):
        SweepConfig(k0=2, n0=4, n=5, k=2, trials=1, master_seed=0)
    SweepConfig(k0=2, n0=4, n=5, k=2, trials=1, master_seed=0, equal_rate=False)
    with pytest.raises(ValueError, match="tau"):
        SweepConfig(
            k0=2, n0=4, n=4, k=2, trials=1, master_seed=0,
            constants=Constants(tau=0.9), toggles=Toggles(run_nice=True),
        )
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
            SweepConfig(**{**base, **change})
    # gv_check needs a positive, finite c: refused before any trial runs
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="GV constant"):
            SweepConfig(k0=2, n0=4, n=4, k=2, trials=1, master_seed=0,
                        constants=Constants(c=c))
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
                    constants=Constants(tau=tau), toggles=Toggles(run_nice=True))

    with pytest.raises(ValueError, match="tau"):
        validate(2, 4, 0.5)  # tau = k0/n0 exactly
    validate(2, 4, math.nextafter(0.5, 0))
    validate(1, 3, 1 / 3)  # the float 1/3 lies just below 1/3
    with pytest.raises(ValueError, match="tau"):
        validate(1, 3, math.nextafter(1 / 3, 1))
    for tau in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            validate(2, 4, tau)


@pytest.mark.parametrize("k0, n0", [(1, 3), (2, 6), (2, 3), (3, 7), (2, 4), (1, 1)])
def test_every_tau_that_validation_accepts_runs_the_sweep(k0, n0):
    # validate and check_nice decide 0 < tau < k0/n0 by one exact rule, so a
    # tau at or next to the float k0/n0 is either refused at load or checked
    # in every trial
    rate = k0 / n0
    for tau in (math.nextafter(rate, 0), rate, math.nextafter(rate, math.inf)):
        doc = {"k0": k0, "n0": n0, "n": n0, "k": k0, "trials": 2, "master_seed": 0,
               "constants": {"tau": tau}, "toggles": {"run_nice": True}}
        if Fraction(tau) < Fraction(k0, n0):
            rows, _ = run_sweep(config_from_dict(doc))
            assert [row.nice_ok is not None for row in rows] == [True, True]
        else:
            with pytest.raises(ValueError, match="tau"):
                config_from_dict(doc)


def test_an_all_toggles_trial_does_not_import_numpy_ma():
    # numpy.ma costs about 10 ms and 1 MB to import; np.unique imports it on
    # its first call.  Run in a fresh interpreter, where numpy alone has not.
    script = """if True:
        import sys
        import numpy
        if "numpy.ma" in sys.modules:
            sys.exit("numpy.ma loaded by import numpy")
        from concatgv.sweep import config_from_dict, run_sweep
        toggles = dict.fromkeys(["run_nice", "run_soft", "run_entropy", "run_moments"], True)
        run_sweep(config_from_dict({"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1,
                                    "master_seed": 0, "toggles": toggles}))
        print("numpy.ma" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(concatgv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    if proc.stderr.strip() == "numpy.ma loaded by import numpy":
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    # q^k = 16 messages fit; the r = 4 count over 16 pairs on 4 syndrome bits,
    # one step of 16 * 16 updates and 16 product terms, does not
    with pytest.raises(ValueError, match="moment check"):
        config_from_dict({**base, "budgets": {"moments": 271},
                          "toggles": {"run_moments": True, "r_list": [2, 4]}})
    config_from_dict({**base, "budgets": {"moments": 272},
                      "toggles": {"run_moments": True, "r_list": [2, 4]}})
    with pytest.raises(ValueError, match="moment check"):
        config_from_dict({**base, "budgets": {"moments": 15},
                          "toggles": {"run_moments": True, "r_list": [0]}})
    # the r = 2 count takes no step, only 16 product terms: admitted at the
    # 16 messages' budget, and the trial then runs within it
    tight = config_from_dict({**base, "budgets": {"moments": 16},
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


BASE = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0}


def _refusal(name, doc, message):
    return pytest.param(doc, message, id=name)


@pytest.mark.parametrize(
    "doc, message",
    [
        # an integer: a bool, a float or a numeric string is not one
        _refusal("k0-bool", {**BASE, "k0": True}, "config key 'k0' must be an integer, got True"),
        _refusal("k0-float", {**BASE, "k0": 1.5}, "config key 'k0' must be an integer, got 1.5"),
        _refusal("trials-str", {**BASE, "trials": "4"},
                 "config key 'trials' must be an integer, got '4'"),
        _refusal("budgets.soft-float", {**BASE, "budgets": {"soft": 1.0}},
                 "budgets key 'soft' must be an integer, got 1.0"),
        # a boolean: 1 is not one
        _refusal("equal_rate-int", {**BASE, "equal_rate": 1},
                 "config key 'equal_rate' must be a boolean, got 1"),
        _refusal("toggles.run_soft-int", {**BASE, "toggles": {"run_soft": 1}},
                 "toggles key 'run_soft' must be a boolean, got 1"),
        # a finite number: NaN, a string, an int past the float range
        _refusal("constants.c-nan", {**BASE, "constants": {"c": math.nan}},
                 "constants key 'c' must be a finite number, got nan"),
        _refusal("constants.c-str", {**BASE, "constants": {"c": "x"}},
                 "constants key 'c' must be a finite number, got 'x'"),
        _refusal("constants.tau-huge", {**BASE, "constants": {"tau": 10**400}},
                 f"constants key 'tau' must be a finite number, got {10**400!r}"),
        # a list of integers
        _refusal("r_list-float", {**BASE, "toggles": {"r_list": [1.5]}},
                 "toggles key 'r_list' must be a list of integers, got [1.5]"),
        _refusal("r_list-str", {**BASE, "toggles": {"r_list": "2"}},
                 "toggles key 'r_list' must be a list of integers, got '2'"),
        _refusal("r_list-bool", {**BASE, "toggles": {"r_list": [True]}},
                 "toggles key 'r_list' must be a list of integers, got [True]"),
        # a JSON object, for a section and for the whole config
        _refusal("budgets-list", {**BASE, "budgets": [1]}, "budgets must be a JSON object, got [1]"),
        _refusal("config-list", [BASE], f"config must be a JSON object, got {[BASE]!r}"),
    ],
)
def test_config_field_of_the_wrong_type_refused_with_its_message(doc, message):
    with pytest.raises(ValueError) as exc:
        config_from_dict(doc)
    assert str(exc.value) == message


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
    # draws reuse that echelon form; only the niceness check reduces a further
    # matrix, the inner dual's generator.  The soft check reads the outer
    # generator's kernel off its echelon form.
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
    assert len(counts["_field_rref"]) == len(draws) - binary
    assert len(draws) >= 2 * cfg.trials

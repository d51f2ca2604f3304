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
from concatgv.bounds import gv_check
from concatgv.certify import check_nice
from concatgv.codes import BinaryCode, ConcatCode, OuterCode, min_distance, weight_distribution
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
from oracles import reemit_json_stdlib, soft_closed_form, trial_code
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
    """Documents within reemit_json's contract: any key in a dict of exact
    scalars, str keys in a dict of anything."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(TEXT, inner, max_size=4),
            st.dictionaries(keys, SCALARS, max_size=4),
        ),
        max_leaves=40,
    )


def nested(depth):
    """Empty dicts and lists, a tuple, escaped keys and a flat dict with
    non-str keys at every depth down to `depth`."""
    if depth == 0:
        return [1.5, -0.0, "é", 2**70]
    inner = nested(depth - 1)
    return {"": {}, "é\n": [], "1": (), "2.5": inner, "true": [inner, [], {}, ()], "null": (None, math.nan),
            "flat": {7: "é", 2.5: None, True: -0.0, None: 2**70}}


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
SUBCLASSES = st.sampled_from([ESCAPED, Level.LOW, Level.HIGH, *REALS])


def rendering(render, doc):
    """The text render gives doc, or the type and message of what it raised."""
    try:
        return render(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(documents(st.one_of(SCALARS, SUBCLASSES)))
@example(nested(5))
@example([[], {}, (), [[]], {"a": {}}, ([], {})])
@example({"x": -0.0, "y": math.nan, "z": -math.inf, "w": math.inf, "big": -(2**100)})
@example({False: 0, None: 1, 2**65: 2, -0.0: 3, math.inf: 4, "\x00": "\udbff"})
@example("top-level string")
@example([ESCAPED, Level.HIGH, *REALS])
@example({"flat": {"s": ESCAPED, "e": Level.LOW, "f": REALS[3]},
          "mixed": [REALS, [Level.HIGH, {}], ESCAPED]})
@example({ESCAPED: REALS[0], "high": [ESCAPED], "low": Level.LOW})
@example({ESCAPED: 0, Level.HIGH: 1.5, **{r: "r" for r in REALS}})
def test_reemit_json_is_the_stdlib_rendering(doc):
    assert reemit_json(doc) == reemit_json_stdlib(doc)


@settings(max_examples=400)
@given(documents(st.one_of(SCALARS, SUBCLASSES, UNSERIALIZABLE), st.one_of(KEYS, st.just((1,)), st.just(b"k"))))
@example({1, 2})
@example({"flat": {"a": 1, "b": {3}}})
@example([1, 2.5, b"bytes"])
@example({"deep": [{"x": [Fraction(1, 2)]}]})
@example({"a": 1, (2,): 3})
@example({"a": [Level.LOW, b"x"]})
def test_reemit_json_raises_where_the_stdlib_does(doc):
    assert rendering(reemit_json, doc) == rendering(reemit_json_stdlib, doc)


def test_reemit_json_without_the_c_encoder(monkeypatch):
    # without json's C accelerator the flat containers and every other value
    # take json's own fallback, and the text, or the error, stays the same
    rows, agg = run_sweep(SMALL)
    docs = [json.loads(emit_json(rows, agg, SMALL)), nested(4), [ESCAPED, Level.HIGH, *REALS, {}],
            {"flat": [1, Fraction(1, 3)]}, {"deep": [{"x": b"x"}]}, {2: 1, (3,): 2}]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    for doc in docs:
        assert rendering(reemit_json, doc) == rendering(reemit_json_stdlib, doc)


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
        # 2^k0 = 4 inner words: a niceness budget of 3 is refused
        (dict(budgets=Budgets(niceness=3), toggles=Toggles(run_nice=True)),
         "niceness check over budget"),
        (dict(budgets=Budgets(mc_draws=0)), "budget mc_draws must be positive"),
        (dict(budgets=Budgets(soft=-1)), "budget soft must be positive"),
        # K = 4 message bits: Brouwer-Zimmermann's first pass does not fit a distance budget of 3
        (dict(budgets=Budgets(distance=3)), "budgets.distance = 3 is below K = k[*]k0 = 4"),
    ]:
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{**base, **change})
    # gv_check needs a positive, finite c: refused before any trial runs, a
    # NaN or infinite c by the type check as the section is built
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="GV constant"):
            SweepConfig(k0=2, n0=4, n=4, k=2, trials=1, master_seed=0,
                        constants=Constants(c=c))
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="constants key 'c' must be a finite number"):
            SweepConfig(k0=2, n0=4, n=4, k=2, trials=1, master_seed=0,
                        constants=Constants(c=c))
    # q^k = 16 codewords: an entropy budget of 8 is refused, 16 runs the check
    entropy_on = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0,
                  "toggles": {"run_entropy": True}}
    with pytest.raises(ValueError, match="entropy check over budget"):
        config_from_dict({**entropy_on, "budgets": {"entropy": 8}})
    rows, _ = run_sweep(config_from_dict({**entropy_on, "budgets": {"entropy": 16}}))
    assert rows[0].entropy_min is not None


@pytest.mark.parametrize("name", ["c_tilde", "c_gamma", "c_eta", "tau"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_constants_refused_by_name_whatever_the_toggles(name, value):
    # the Python API refuses what JSON configs and the CLI refuse, with the
    # same message, by the type check that runs as the section is built
    message = f"constants key {name!r} must be a finite number, got {value!r}"
    with pytest.raises(ValueError) as err:
        Constants(**{name: value})
    assert str(err.value) == message
    all_on = dict.fromkeys(["run_nice", "run_soft", "run_entropy", "run_moments"], True)
    for toggles in ({}, all_on):
        with pytest.raises(ValueError) as err:
            config_from_dict({"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0,
                              "constants": {name: value}, "toggles": toggles})
        assert str(err.value) == message


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


FIELD_TYPE_REFUSALS = [
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
]


@pytest.mark.parametrize(
    "doc, message",
    [
        *FIELD_TYPE_REFUSALS,
        # a JSON object, for a section and for the whole config
        _refusal("budgets-list", {**BASE, "budgets": [1]}, "budgets must be a JSON object, got [1]"),
        _refusal("config-list", [BASE], f"config must be a JSON object, got {[BASE]!r}"),
    ],
)
def test_config_field_of_the_wrong_type_refused_with_its_message(doc, message):
    with pytest.raises(ValueError) as exc:
        config_from_dict(doc)
    assert str(exc.value) == message


SECTIONS = {"budgets": Budgets, "constants": Constants, "toggles": Toggles}


@pytest.mark.parametrize("doc, message", FIELD_TYPE_REFUSALS)
def test_config_field_of_the_wrong_type_refused_through_the_python_api(doc, message):
    # the dataclasses run the one type check: the JSON path's message, word for word
    with pytest.raises(ValueError) as exc:
        sections = {part: cls(**doc[part]) for part, cls in SECTIONS.items() if part in doc}
        SweepConfig(**{**doc, **sections})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Toggles(run_nice="no"), "toggles key 'run_nice' must be a boolean, got 'no'"),
        (lambda: Budgets(distance=2.5), "budgets key 'distance' must be an integer, got 2.5"),
        (lambda: SweepConfig(**{**BASE, "trials": True}), "config key 'trials' must be an integer, got True"),
        (lambda: SweepConfig(**{**BASE, "master_seed": "7"}),
         "config key 'master_seed' must be an integer, got '7'"),
        (lambda: Constants(tau="0.25"), "constants key 'tau' must be a finite number, got '0.25'"),
        (lambda: SweepConfig(**BASE, budgets={"distance": 5}),
         "config key 'budgets' must be a Budgets, got {'distance': 5}"),
        (lambda: SweepConfig(**BASE, toggles=Constants()),
         f"config key 'toggles' must be a Toggles, got {Constants()!r}"),
    ],
)
def test_mistyped_python_config_refused_with_a_value_error(build, message):
    # none of these reaches a TypeError or AttributeError, nor a trial
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_python_api_holds_r_list_as_a_tuple():
    toggles = Toggles(run_moments=True, r_list=[2, 4])
    assert toggles.r_list == (2, 4) and toggles == Toggles(run_moments=True, r_list=(2, 4))
    cfg = SweepConfig(**BASE, toggles=toggles)
    assert cfg == config_from_dict({**BASE, "toggles": {"run_moments": True, "r_list": [2, 4]}})


def test_niceness_budget_bounds_the_inner_words():
    # eps = 1/8 with a 2^21-word inner dual: 2^3 inner words fit the default budget
    doc = {"k0": 3, "n0": 24, "n": 24, "k": 3, "trials": 3, "master_seed": 0,
           "constants": {"tau": 0.05}, "toggles": {"run_nice": True}}
    rows, agg = run_sweep(config_from_dict(doc))
    assert all(row.nice_ok is not None for row in rows) and agg["frac_nice"] is not None
    # a [5, 4] inner code has a 2-word dual and 16 words: a budget of 8 is refused
    with pytest.raises(ValueError, match="niceness check over budget"):
        config_from_dict({"k0": 4, "n0": 5, "n": 5, "k": 4, "trials": 1, "master_seed": 0,
                          "constants": {"tau": 0.5}, "budgets": {"niceness": 8},
                          "toggles": {"run_nice": True}})


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
    # The distance, x_max and every direct moment read one enumeration; past
    # the distance budget the moments' enumeration gives the distance too.
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
    assert row.moments_equal is True and row.distance_exact and row.x_max is not None
    assert len(calls) == 1


@pytest.mark.parametrize("distance_budget", [1 << 20, 8])
@pytest.mark.parametrize("k0, n0, n, k", [(2, 4, 4, 2), (5, 10, 4, 2)])
def test_one_inner_enumeration_per_trial(k0, n0, n, k, distance_budget, monkeypatch):
    # The concatenated code's tables, the soft enumerator's W_in and the
    # niceness check all read the inner span that one subset-sum table per 4
    # inner rows builds; the niceness check enumerates no dual.
    import concatgv.codes as codes

    sizes = []
    subset_sums = codes._subset_sums
    monkeypatch.setattr(
        codes, "_subset_sums", lambda rows, limbs: sizes.append(len(rows)) or subset_sums(rows, limbs)
    )
    cfg = SweepConfig(
        k0=k0, n0=n0, n=n, k=k, trials=3, master_seed=11,
        budgets=Budgets(distance=distance_budget),
        toggles=Toggles(run_nice=True, run_soft=True, run_entropy=True, run_moments=True),
    )
    rows, _ = run_sweep(cfg)
    assert all(r.nice_ok is not None and r.soft_prob is not None for r in rows)
    assert all(r.distance_exact and r.x_max is not None for r in rows)  # the moments' enumeration
    assert len(sizes) == cfg.trials * -(-k0 // 4) and sum(sizes) == cfg.trials * k0


ALL_ON = {"run_nice": True, "run_soft": True, "run_entropy": True, "run_moments": True, "r_list": [2]}
# eps = 1/8: the dual holds 4^14 words, past budgets.soft, and the code 4^2 messages
EPS_1_8 = {"k0": 2, "n0": 16, "n": 16, "k": 2, "trials": 5, "constants": {"tau": 0.05}, "toggles": ALL_ON}


def test_soft_delta_past_the_soft_budget_is_exact_and_its_sign_shows():
    # the Monte Carlo fallback's 4000 draws read delta = -0.048 here
    cfg = config_from_dict({**EPS_1_8, "master_seed": 20260810})
    row = run_trial(cfg, 0)
    cc, p = trial_code(cfg, 0)
    _, delta = soft_closed_form(cc, p, weight_distribution(cc).delta)
    assert row.soft_exact is True and row.soft_delta == float(delta) > 0


def test_exact_distance_rows_report_the_correctly_rounded_soft_values():
    sweeps = [GOLDEN_CONFIGS[name] for name in ("certify", "lowrate", "toggles")] + [
        EPS_1_8,
        {**EPS_1_8, "n0": 12, "n": 12, "trials": 2},  # eps = 1/6: 4^10 dual words, at budgets.soft
    ]
    checked = 0
    for doc in sweeps:
        for seed in (20260810, 1):
            cfg = config_from_dict({**doc, "master_seed": seed})
            for row in run_sweep(cfg)[0]:
                assert row.distance_exact
                cc, p = trial_code(cfg, row.trial)
                prob, delta = soft_closed_form(cc, p, weight_distribution(cc).delta)
                assert (row.soft_prob, row.soft_delta, row.soft_exact) == (float(prob), float(delta), True)
                checked += 1
    assert checked == 2 * (1 + 1 + 2 + 5 + 2)


# k0=2, n=4, k=2: 4^2 messages and 4^2 dual words
@pytest.mark.parametrize(
    "budgets, calls, exact",
    [
        ({}, ["soft_enumerator"], True),
        ({"distance": 8}, ["d_pmf", "soft_condition"], True),
        ({"distance": 8, "soft": 8}, ["d_pmf", "soft_condition"], False),
    ],
)
def test_soft_path_follows_the_distance_then_the_soft_budget(budgets, calls, exact, monkeypatch):
    from concatgv import sweep

    seen = []
    for name in ("soft_enumerator", "soft_condition", "d_pmf"):
        fn = getattr(sweep, name)
        monkeypatch.setattr(sweep, name, lambda *a, fn=fn, name=name: seen.append(name) or fn(*a))
    cfg = SweepConfig(
        k0=2, n0=4, n=4, k=2, trials=1, master_seed=5,
        budgets=Budgets(**budgets), toggles=Toggles(run_soft=True),
    )
    row = run_trial(cfg, 0)
    assert seen == calls and row.soft_exact is exact
    lower, upper, _, _ = min_distance(trial_code(cfg, 0)[0], cfg.budgets.distance)
    assert (row.distance, row.distance_exact) == (upper, lower == upper)


def test_distance_past_the_budget_is_exact_when_its_interval_closes():
    # q^k = 4^6 = 4096 > 1024 words: Brouwer-Zimmermann's interval, closed or not
    cfg = SweepConfig(k0=2, n0=4, n=12, k=6, trials=4, master_seed=3, budgets=Budgets(distance=1 << 10))
    for r in run_sweep(cfg)[0]:
        cc, _ = trial_code(cfg, r.trial)
        lower, upper, words, _ = min_distance(cc, 1 << 10)
        assert (r.distance, r.distance_exact, r.x_max) == (upper, lower == upper, None)
        assert lower <= weight_distribution(cc).min_weight <= upper and words <= 1 << 10


def test_distance_past_the_budget_is_the_exact_distance():
    # 4^12 messages at (4, 8, 12, 6): 4000 random codewords read 24, 29, 25, 24, 22
    cfg = SweepConfig(k0=4, n0=8, n=12, k=6, trials=5, master_seed=20260810)
    rows, _ = run_sweep(cfg)
    assert [(r.distance, r.distance_exact) for r in rows] == [(13, True), (17, True), (13, True), (15, True), (13, True)]


def test_distance_past_the_budget_brackets_the_exact_distance(monkeypatch):
    # (4, 8, 16, 8), 4^8 messages: the exact distances 17, 22, 21, 18, 18 (random
    # codewords read 34, 38, 39, 34, 38) lie in the intervals within 2^20 words
    from concatgv import sweep

    seen = []
    monkeypatch.setattr(sweep, "min_distance", lambda *a: seen.append(min_distance(*a)) or seen[-1])
    rows, _ = run_sweep(SweepConfig(k0=4, n0=8, n=16, k=8, trials=5, master_seed=20260810))
    for row, exact, (lower, upper, words, _) in zip(rows, [17, 22, 21, 18, 18], seen, strict=True):
        assert lower <= exact <= upper == row.distance and row.distance_exact is (lower == upper)
        assert words <= 1 << 20


def test_moments_past_the_distance_budget_give_the_exact_distance():
    # with run_moments on, the sweep enumerates every codeword whatever the distance
    # budget; the distance, x_max and the soft check read that enumeration
    cfg = SweepConfig(
        k0=4, n0=8, n=6, k=3, trials=3, master_seed=20260810,
        budgets=Budgets(distance=1000), toggles=Toggles(run_moments=True, run_soft=True),
    )
    rows, _ = run_sweep(cfg)
    for row in rows:
        wd = weight_distribution(trial_code(cfg, row.trial)[0])
        assert (row.distance, row.distance_exact, row.x_max, row.soft_exact) == (wd.min_weight, True, wd.max_bias, True)
    assert [row.distance for row in rows] == [8, 13, 5]


def test_trial_seeds_derived_from_master():
    row = run_trial(SMALL, 4)
    t = derive_seed(SMALL.master_seed, 4)
    assert row.seed_inner == derive_seed(t, 0)
    assert row.seed_outer == derive_seed(t, 1)


def test_aggregate_fold():
    rows, agg = run_sweep(SMALL)
    assert agg["min_rel_distance"] == min(r.rel_distance for r in rows)
    assert agg["frac_gv_ok"] == sum(r.gv_ok for r in rows) / len(rows)


def test_gv_ok_reads_the_config_rate_as_one_fraction():
    # eps = k/n, exact, made once per config and kept out of its fields (so out of its hash)
    cfg = dataclasses.replace(SMALL, constants=Constants(c=0.5))
    rows, _ = run_sweep(cfg)
    assert cfg.epsilon == Fraction(1, 2) and cfg.epsilon is cfg.epsilon
    assert "epsilon" not in cfg.to_dict()
    assert [r.gv_ok for r in rows] == [gv_check(16, 4, r.distance, Fraction(2, 4), 0.5) for r in rows]
    assert len({r.gv_ok for r in rows}) == 2


def test_emitted_eps_equals_both_rates_under_equal_rate():
    _, agg = run_sweep(SMALL)
    assert SMALL.equal_rate
    assert agg["eps"] == SMALL.k / SMALL.n == SMALL.k0 / SMALL.n0


def counting(monkeypatch, module, names):
    """Wrap each module.<name> to record its calls' arguments; name -> list of them."""
    counts = {}
    for name in names:
        fn = getattr(module, name)
        counts[name] = calls = []
        monkeypatch.setattr(module, name, lambda *a, fn=fn, calls=calls: calls.append(a) or fn(*a))
    return counts


@pytest.mark.parametrize("all_on", [False, True])
def test_eliminations_per_trial(all_on, monkeypatch):
    # Each sampler draw takes one forward elimination, and the codes built
    # from the accepted draws reuse that kept echelon form; the niceness check
    # reduces no further matrix (it reads the inner code's weights, not its
    # dual), and the soft check reads the weight distribution.
    from concatgv import linalg

    counts = counting(monkeypatch, linalg, ("rank", "_gf2_echelon", "_field_echelon"))
    toggles = Toggles(run_nice=True, run_soft=True, run_entropy=True, run_moments=True) if all_on else Toggles()
    cfg = SweepConfig(k0=2, n0=4, n=4, k=2, trials=8, master_seed=7, toggles=toggles)
    run_sweep(cfg)
    draws = [m for (m,) in counts["rank"]]
    binary = sum(isinstance(m, linalg.BitMatrix) for m in draws)
    assert len(counts["_gf2_echelon"]) == binary
    assert len(counts["_field_echelon"]) == len(draws) - binary
    assert len(draws) >= 2 * cfg.trials


@pytest.mark.parametrize("shape", [(2, 4, 4, 2), (3, 9, 6, 2), (4, 8, 4, 2)])
def test_no_back_substitution_within_the_distance_budget(shape, monkeypatch):
    # The samplers' rank checks and the code constructors read only the kept
    # echelon form, and with every toggle on nothing else asks for an RREF.
    from concatgv import linalg

    def refuse(*args):
        raise AssertionError("back-substitution on the sweep path")

    monkeypatch.setattr(linalg, "_gf2_back_substitute", refuse)
    monkeypatch.setattr(linalg, "_field_back_substitute", refuse)
    k0, n0, n, k = shape
    rows, _ = run_sweep(SweepConfig(k0=k0, n0=n0, n=n, k=k, trials=4, master_seed=7, toggles=Toggles(**ALL_ON)))
    assert all(r.distance_exact and r.soft_exact for r in rows)


def test_back_substitution_past_the_distance_budget(monkeypatch):
    # Past budgets.distance the exact soft check reads the outer generator's
    # kernel off its RREF: one field back-substitution per trial.  The GF(2)
    # ones are Brouwer-Zimmermann's, one per information set it reduces.
    from concatgv import codes, linalg

    counts = counting(monkeypatch, linalg, ("_gf2_back_substitute", "_field_back_substitute"))
    counts.update(counting(monkeypatch, codes, ("_gf2_rref",)))
    cfg = SweepConfig(
        k0=2, n0=4, n=8, k=4, trials=5, master_seed=7,
        budgets=Budgets(distance=100), toggles=Toggles(run_soft=True),
    )
    rows, _ = run_sweep(cfg)
    assert all(r.soft_exact and r.x_max is None for r in rows)
    assert len(counts["_field_back_substitute"]) == cfg.trials
    assert len(counts["_gf2_back_substitute"]) == len(counts["_gf2_rref"]) >= cfg.trials

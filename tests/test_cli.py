import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import concatgv
from concatgv import cli, sweep
from concatgv.cli import main
from concatgv.codes import BinaryCode, ConcatCode, OuterCode, min_distance
from concatgv.field import make_field
from concatgv.fileio import dumps_code, load_binary_code, load_outer_code, parse_code
from concatgv.linalg import BitMatrix, FieldMatrix, sample_binary_code, sample_field_code
from concatgv.sweep import config_from_dict, reemit_json
from oracles import reemit_json_stdlib


# The CLI subprocesses import the same concatgv as this test process.
SRC = str(Path(concatgv.__file__).resolve().parent.parent)


def python_path() -> str:
    return os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "concatgv.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": python_path(), "PYTHONWARNINGS": "error"},
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed: {proc.stderr}")
    return proc


# -- code files ---------------------------------------------------------------


def test_code_file_roundtrip_binary(tmp_path):
    code = BinaryCode(sample_binary_code(8, 3, 4))
    path = tmp_path / "c.code"
    path.write_text(dumps_code(code))
    text = path.read_text()
    assert text.splitlines()[0] == "CODE v1 field=0x2/1 n=8 k=3"
    assert load_binary_code(path) == code


def test_code_file_roundtrip_outer(tmp_path):
    ctx = make_field(3)
    code = OuterCode(sample_field_code(ctx, 5, 2, 9))
    path = tmp_path / "o.code"
    path.write_text(dumps_code(code))
    text = path.read_text()
    assert text.splitlines()[0] == "CODE v1 field=0xb/3 n=5 k=2"
    assert load_outer_code(path) == code


def test_code_file_bad_header():
    for blank in ("", "\n  \n"):
        with pytest.raises(ValueError, match="empty code file"):
            parse_code(blank)
    with pytest.raises(ValueError):
        parse_code("NOT A CODE\n1\n")
    with pytest.raises(ValueError):
        parse_code("CODE v1 field=0x7/2 n=2 k=2\n5\n")  # row count mismatch


# Headers outside 1 <= k <= n, the shapes the samplers draw.
WRONG_SHAPES = [
    "CODE v1 field=0x7/2 n=0 k=0\n",
    "CODE v1 field=0x2/1 n=0 k=0\n",
    "CODE v1 field=0x7/2 n=3 k=0\n",
    "CODE v1 field=0x2/1 n=3 k=0\n",
    "CODE v1 field=0x7/2 n=2 k=3\n1\n2\n3\n",
    "CODE v1 field=0x2/1 n=1 k=2\n1\n1\n",
]


@pytest.mark.parametrize("text", WRONG_SHAPES)
def test_code_files_of_the_wrong_shape_are_refused(text, tmp_path, capsys):
    with pytest.raises(ValueError, match="needs 1 <= k <= n"):
        parse_code(text)
    bad = str(tmp_path / "bad.code")
    Path(bad).write_text(text)
    if "field=0x2/1" in text:  # a binary file, read as an inner code
        outer = str(tmp_path / "outer.code")
        Path(outer).write_text(dumps_code(OuterCode(sample_field_code(make_field(2), 3, 1, 2))))
        pair = ["--outer", outer, "--inner", bad]
        alone = [["distance", "--code", bad], ["nice-check", "--inner", bad, "--tau", "0.2"]]
    else:  # a field file, read as an outer code
        inner = str(tmp_path / "inner.code")
        Path(inner).write_text(dumps_code(BinaryCode(sample_binary_code(4, 2, 1))))
        pair = ["--outer", bad, "--inner", inner]
        alone = [["entropy-check", "--outer", bad, "--c-gamma", "1", "--c-eta", "0.5"]]
    paired = [[cmd, *pair] for cmd in ("concat", "distance", "soft-check", "moment-check")]
    for argv in paired + alone:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "1 <= k <= n" in captured.err, argv
        assert captured.out == ""


def test_dumps_code_refuses_what_it_could_not_load():
    for code in (
        BinaryCode(BitMatrix((), 3)),
        BinaryCode(BitMatrix((), 0)),
        OuterCode(FieldMatrix((), 2, make_field(2))),
    ):
        with pytest.raises(ValueError, match="needs 1 <= k <= n"):
            dumps_code(code)
    with pytest.raises(TypeError, match="cannot serialize BitMatrix"):
        dumps_code(BitMatrix((1,), 1))


def test_load_binary_rejects_field_files(tmp_path):
    ctx = make_field(2)
    path = tmp_path / "o.code"
    path.write_text(dumps_code(OuterCode(sample_field_code(ctx, 3, 1, 2))))
    with pytest.raises(ValueError):
        load_binary_code(path)


def test_code_file_nonstandard_modulus(tmp_path):
    from concatgv.field import FieldCtx

    ctx = FieldCtx(3, 0xD)  # x^3 + x^2 + 1, the other degree-3 irreducible
    code = OuterCode(FieldMatrix(((1, 5, 3),), 3, ctx))
    path = tmp_path / "alt.code"
    path.write_text(dumps_code(code))
    assert "field=0xd/3" in path.read_text()
    loaded = load_outer_code(path)
    assert loaded == code
    assert loaded.ctx.modulus == 0xD


def test_parse_code_shares_one_field_per_header():
    text = "CODE v1 field=0x1002b/16 n=2 k=1\n10001\n"
    assert parse_code(text)[0] is parse_code(text)[0] is make_field(16)
    alt = "CODE v1 field=0xd/3 n=3 k=1\nb1\n"
    ctx = parse_code(alt)[0]
    assert ctx is parse_code(alt)[0] and ctx.modulus == 0xD and ctx != make_field(3)


@pytest.mark.parametrize(
    "text",
    [
        "CODE v1 field=0x13/4 n=2 k=1\nfff\n",  # bit 8 of an 8-bit row
        "CODE v1 field=0x13/4 n=2 k=1\n-1\n",
        "CODE v1 field=0x2/1 n=3 k=1\n8\n",  # bit 3 of a 3-bit row
        "CODE v1 field=0x2/1 n=3 k=1\n-5\n",
    ],
)
def test_parse_code_rejects_rows_that_do_not_fit(text, tmp_path, capsys):
    row = text.splitlines()[1]
    with pytest.raises(ValueError, match=repr(row)):
        parse_code(text)
    path = tmp_path / "bad.code"
    path.write_text(text)
    if "/4 " in text:
        load = load_outer_code
        argv = ["entropy-check", "--outer", str(path), "--c-gamma", "1", "--c-eta", "0.5"]
    else:
        load = load_binary_code
        argv = ["distance", "--code", str(path)]
    with pytest.raises(ValueError, match=repr(row)):
        load(path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


# -- CLI ----------------------------------------------------------------------


def test_cli_field():
    proc = run_cli("field", "--k0", "2")
    doc = json.loads(proc.stdout)
    assert doc["field"] == {"k0": 2, "modulus": "0x7", "basis": ["0x2", "0x3"]}


def test_cli_sample_and_concat(tmp_path):
    inner = tmp_path / "inner.code"
    outer = tmp_path / "outer.code"
    run_cli("sample-code", "--n", "6", "--k", "3", "--seed", "5", "--out", str(inner))
    run_cli("sample-code", "--n", "4", "--k", "2", "--k0", "3", "--seed", "6", "--out", str(outer))
    proc = run_cli("concat", "--outer", str(outer), "--inner", str(inner))
    doc = json.loads(proc.stdout)
    assert doc["N"] == 24 and doc["K"] == 6
    assert len(doc["omega"]) == 6
    assert doc["rate"] == pytest.approx(0.25)


def test_cli_sample_deterministic(tmp_path):
    a = run_cli("sample-code", "--n", "6", "--k", "2", "--seed", "11").stdout
    b = run_cli("sample-code", "--n", "6", "--k", "2", "--seed", "11").stdout
    assert a == b


def test_cli_distance_and_checks(tmp_path):
    inner = tmp_path / "inner.code"
    outer = tmp_path / "outer.code"
    run_cli("sample-code", "--n", "6", "--k", "2", "--seed", "5", "--out", str(inner))
    run_cli("sample-code", "--n", "4", "--k", "2", "--k0", "2", "--seed", "6", "--out", str(outer))

    doc = json.loads(run_cli("distance", "--outer", str(outer), "--inner", str(inner)).stdout)
    assert doc["is_exact"] and doc["lower"] == doc["distance"] >= 1 and doc["words"] == 16

    doc = json.loads(run_cli("nice-check", "--inner", str(inner), "--tau", "0.2").stdout)
    assert "ok" in doc and len(doc["per_weight"]) == 6

    doc = json.loads(
        run_cli("soft-check", "--outer", str(outer), "--inner", str(inner)).stdout
    )
    assert doc["is_exact"] and "delta" in doc and doc["p"] > 0

    doc = json.loads(
        run_cli("entropy-check", "--outer", str(outer), "--c-gamma", "1.0",
                "--c-eta", "1.0", "--n0", "6").stdout
    )
    assert "min_entropy" in doc and "threshold" in doc

    doc = json.loads(
        run_cli("moment-check", "--outer", str(outer), "--inner", str(inner),
                "--r", "1,2").stdout
    )
    assert [rec["r"] for rec in doc["records"]] == [1, 2]
    assert all(rec["equal"] for rec in doc["records"])


def test_cli_distance_needs_code_args():
    proc = run_cli("distance", check=False)
    assert proc.returncode == 2


def test_cli_error_reporting(tmp_path):
    proc = run_cli("nice-check", "--inner", str(tmp_path / "nope.code"),
                   "--tau", "0.2", check=False)
    assert proc.returncode != 0


def test_cli_nice_check_refuses_over_budget_before_any_work(tmp_path, monkeypatch, capsys):
    # --budget bounds the 2^k0 inner words that nice-check reads: a [24, 22]
    # code, whose dual holds 4 words, exits 1 at --budget 8 before enumerating
    inner = tmp_path / "inner.code"
    inner.write_text(dumps_code(BinaryCode(sample_binary_code(24, 22, 5))))

    def forbidden(*args):
        raise AssertionError("enumerated over budget")

    from concatgv import codes

    monkeypatch.setattr(codes, "_symbol_tables", forbidden)
    assert main(["nice-check", "--inner", str(inner), "--tau", "0.5", "--budget", "8"]) == 1
    assert capsys.readouterr().err == f"error: code size {1 << 22} exceeds budget 8\n"


def test_cli_gv_compare(tmp_path):
    run_cli("gv-compare", "--grid", "50", "--out", str(tmp_path))
    gv = (tmp_path / "gv_curve.dat").read_text().splitlines()
    zy = (tmp_path / "zyablov_curve.dat").read_text().splitlines()
    assert gv[0].startswith("# concatgv-curve-v1") and zy[0].startswith("# concatgv-curve-v1")
    assert len(gv) == 51 and len(zy) == 51
    for line in gv[1:] + zy[1:]:
        d, r = map(float, line.split())
        assert 0 <= d < 0.5 and 0 <= r <= 1


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_cli_gv_compare_refuses_an_empty_grid(grid, tmp_path, capsys):
    out = tmp_path / "curves"
    assert main(["gv-compare", "--grid", grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --grid must be at least 1, got {grid}\n"
    assert not out.exists()


def test_cli_sweep_and_gv_points(tmp_path):
    cfg = {
        "k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 3, "master_seed": 12,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "rows.csv"
    run_cli("sweep", "--config", str(cfg_path), "--format", "csv", "--out", str(out_csv))
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2 + 3

    run_cli("gv-compare", "--grid", "10", "--points", str(out_csv), "--out", str(tmp_path))
    pts = (tmp_path / "measured_points.dat").read_text().splitlines()
    assert len(pts) == 4  # header + 3 trials
    for line in pts[1:]:
        d, r = map(float, line.split())
        assert 0 <= d <= 1 and r == 0.25


def test_cli_gv_points_found_by_header_name(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("# concatgv-sweep-v1\nrel_distance,trial,rate\n0.125,0,0.25\n0.1875,1,0.25\n")
    run_cli("gv-compare", "--grid", "2", "--points", str(rows), "--out", str(tmp_path))
    pts = (tmp_path / "measured_points.dat").read_text().splitlines()
    assert pts[1:] == ["0.125 0.25", "0.1875 0.25"]


def test_cli_gv_points_without_columns_fails(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("trial,rate\n0,0.25\n")
    out = tmp_path / "curves"
    proc = run_cli("gv-compare", "--grid", "2", "--points", str(rows), "--out", str(out), check=False)
    assert proc.returncode == 1
    assert "rel_distance" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("row, bad", [
    ("0.125,0,inf", "rate 'inf'"), ("nan,0,0.25", "rel_distance 'nan'"),
    ("0.125,0", "rate None"), (",0,0.25", "rel_distance ''"), ("x,0,0.25", "rel_distance 'x'"),
])
def test_cli_gv_points_with_a_bad_row_write_nothing(row, bad, tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text(f"rel_distance,trial,rate\n0.1875,1,0.25\n{row}\n")
    out = tmp_path / "curves"
    out.mkdir()
    assert main(["gv-compare", "--grid", "2", "--points", str(rows), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {rows}: data row 2: {bad} is not a finite number\n"
    assert list(out.iterdir()) == []


def test_cli_sweep_unknown_key_fails(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k0": 2, "n0": 4, "n": 4, "k": 2,
                                    "trials": 1, "master_seed": 0, "oops": 1}))
    proc = run_cli("sweep", "--config", str(cfg_path), check=False)
    assert proc.returncode == 1
    assert "unknown config key" in proc.stderr


@pytest.mark.parametrize(
    "patch",
    [
        {"toggles": {"r_list": 2}},
        {"k0": "2"},
        {"budgets": []},
        {"trials": 1.5},
        {"master_seed": True},
        {"constants": {"c": "1"}},
        {"toggles": {"run_nice": "no"}},
        {"equal_rate": 1},
        {"constants": {"tau": True}},
        {"constants": {"c": float("inf")}},
        {"constants": {"c": float("nan")}},
        {"constants": {"c_gamma": float("nan")}, "toggles": {"run_entropy": True}},
        {"constants": {"c_tilde": -1.0}, "toggles": {"run_soft": True}},
        {"toggles": {"run_moments": True, "r_list": []}},
        None,  # a top-level [1]
        {"constants": {"c_tilde": 10**400}, "toggles": {"run_soft": True}},
        {"k0": 40, "n0": 80, "n": 4, "k": 2, "trials": 0},
    ],
)
def test_cli_sweep_malformed_config_fails(patch, tmp_path, capsys):
    base = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([1] if patch is None else {**base, **patch}))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    key = "config" if patch is None else next(iter(patch))
    assert key in err


def _no_trial(*args):
    raise AssertionError("a trial started")


@pytest.mark.parametrize("key", ["k0", "n0", "n", "k", "trials", "master_seed"])
def test_cli_sweep_config_missing_a_key_fails(key, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweep, "run_trial", _no_trial)
    cfg = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0}
    del cfg[key]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: missing config key(s) in config: [{key!r}]\n"


def test_cli_sweep_refuses_a_distance_budget_below_one_pass(tmp_path, capsys, monkeypatch):
    # K = k*k0 = 4 message bits: 2^4 words are past a budget of 3, and
    # Brouwer-Zimmermann's first pass forms 4 of them, so no word would be formed
    cfg = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 2, "master_seed": 1, "budgets": {"distance": 3}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "run_trial", _no_trial)
        assert main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: budgets.distance = 3 is below K = k*k0 = 4")
    # with run_moments on the trial enumerates under budgets.moments; at K one pass fits
    for change in ({"toggles": {"run_moments": True}}, {"budgets": {"distance": 4}}):
        cfg_path.write_text(json.dumps({**cfg, **change}))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert all(row["distance"] <= 16 for row in rows)


def test_cli_sweep_config_takes_an_int_for_a_float_field(tmp_path, capsys):
    cfg = {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "master_seed": 0, "constants": {"c": 2}}
    assert config_from_dict(cfg).constants.c == 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["constants"]["c"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy-check", "--outer", "o", "--c-gamma", "nan", "--c-eta", "1"],
        ["entropy-check", "--outer", "o", "--c-gamma", "1", "--c-eta=-inf"],
        ["soft-check", "--outer", "o", "--inner", "i", "--c-tilde", "inf"],
        ["nice-check", "--inner", "i", "--tau", "nan"],
    ],
)
def test_cli_refuses_a_non_finite_constant(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "is not a finite number" in capsys.readouterr().err


def distance_codes(tmp_path):
    """An inner [6, 2] and an outer [4, 2] code over GF(4) in files: K = 2 * 2 = 4 message
    bits and N = 4 * 6 = 24."""
    outer, inner = tmp_path / "outer.code", tmp_path / "inner.code"
    inner.write_text(dumps_code(BinaryCode(sample_binary_code(6, 2, 5))))
    outer.write_text(dumps_code(OuterCode(sample_field_code(make_field(2), 4, 2, 6))))
    return outer, inner


@pytest.mark.parametrize("budget", [4, 15, 16])
def test_cli_distance_reports_the_interval_of_its_budget(budget, tmp_path, capsys):
    # below 2^K words, Brouwer-Zimmermann; from K words on, its first pass fits
    outer, inner = distance_codes(tmp_path)
    argv = ["distance", "--outer", str(outer), "--inner", str(inner), "--budget", str(budget)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    lower, upper, words, _ = min_distance(ConcatCode(load_outer_code(outer), load_binary_code(inner)), budget)
    assert (doc["lower"], doc["distance"], doc["words"], doc["is_exact"]) == (lower, upper, words, lower == upper)
    assert doc["budget"] == budget and doc["rel_distance"] == upper / 24 and "seed" not in doc


def test_cli_distance_refuses_a_budget_below_one_pass(tmp_path, capsys):
    # 2^K words are past a budget below K, and Brouwer-Zimmermann's first pass forms K
    # of them: no word would be formed and the report would read N + 1 (for the inner
    # code alone, K = 2)
    outer, inner = distance_codes(tmp_path)
    for argv, dim in [(["--outer", str(outer), "--inner", str(inner)], 4), (["--code", str(inner)], 2)]:
        for budget in (dim - 1, 0):
            assert main(["distance", *argv, "--budget", str(budget)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: --budget {budget} is below K = {dim}")


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cli_montecarlo_soft_check_names_the_budget(budget, tmp_path, capsys):
    outer, inner = tmp_path / "outer.code", tmp_path / "inner.code"
    inner.write_text(dumps_code(BinaryCode(sample_binary_code(8, 4, 5))))
    outer.write_text(dumps_code(OuterCode(sample_field_code(make_field(4), 6, 3, 6))))
    argv = ["soft-check", "--outer", str(outer), "--inner", str(inner),
            "--mode", "montecarlo", "--budget", budget]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: Monte Carlo soft condition needs at least one draw, got budget {budget}\n"
    )
    assert captured.out == ""


def test_cli_soft_check_names_a_negative_c_tilde(tmp_path, capsys):
    outer, inner = tmp_path / "outer.code", tmp_path / "inner.code"
    inner.write_text(dumps_code(BinaryCode(sample_binary_code(8, 4, 5))))
    outer.write_text(dumps_code(OuterCode(sample_field_code(make_field(4), 6, 3, 6))))
    argv = ["soft-check", "--outer", str(outer), "--inner", str(inner), "--c-tilde", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: c_tilde must be nonnegative and finite, got -1.0\n"
    assert captured.out == ""


def test_cli_outdir_env(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "concatgv.cli", "sample-code", "--n", "4", "--k", "2",
         "--seed", "3", "--out", "env.code"],
        capture_output=True, text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": python_path(),
            "PYTHONWARNINGS": "error",
            "CONCATGV_OUTDIR": str(tmp_path),
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "env.code").exists()


def test_main_callable_directly(tmp_path, capsys):
    assert main(["field", "--k0", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["field"]["k0"] == 1


# -- pinned reports -----------------------------------------------------------

# sha256 of stdout, with the temporary directory replaced by "<tmp>".  Every
# report field, its order and its float rendering are pinned.
CLI_GOLDEN = {
    "field": (["field", "--k0", "3"],
              "dbdcd6ee9a877d0e93a4ed18570c97e2e29a49ea1876a1e7cfa9ee2f76bb6079"),
    "sample-binary": (["sample-code", "--n", "8", "--k", "3", "--seed", "11"],
                      "61520e95c4da27227fd6597ca64e38c623e5fedd303058c0a17bd7cc519c6943"),
    "sample-outer": (["sample-code", "--n", "5", "--k", "2", "--k0", "3", "--seed", "12"],
                     "23f088eb93dd014f5eb1b549bea6078644365a1df32ef835100f1c882576623e"),
    "concat": (["concat", "OUTER", "INNER"],
               "5771f3e8770cdb330e41939b49e76e162d83783c380dce165be6b42c3a04126a"),
    # the distance reports (re-pinned with Brouwer-Zimmermann): budget, lower,
    # distance, rel_distance, is_exact and words; no mode or seed
    "distance-exact": (["distance", "OUTER", "INNER"],
                       "4819483a01b4bc58dcd066df1b4e23481a53001eb061f106eceb50dcdb1abe9b"),
    "distance-interval": (["distance", "OUTER", "INNER", "--budget", "5"],
                          "c7ed0b1e1aa52476b6f98e4e436c346953402cad8e4cfcc84801d2df366e3f0a"),
    "distance-code": (["distance", "--code", "<tmp>/inner.code"],
                      "36115c94d1cbcb0b8a32d8f77c336a9314a2ecb39231a4503a0bc3962cfb2700"),
    "nice-check": (["nice-check", "--inner", "<tmp>/inner.code", "--tau", "0.2", "--budget", "4096"],
                   "04b73cdf1d31a0f2bf5e0f40c72627ff163a93cf4fd4f61d62dc2c35e47fb371"),
    "soft-check-exact": (["soft-check", "OUTER", "INNER"],
                         "b78ee6f762aa30fc7a7dc5aca04aeb6aaa415abfb1290ac0192a8ec301152db6"),
    "soft-check-montecarlo": (["soft-check", "OUTER", "INNER", "--mode", "montecarlo",
                               "--budget", "300", "--seed", "9"],
                              "62b1afbfcffb1acbfbb5f50eca2faea639a533b18c44313c1aeaa6d2b929b42c"),
    "entropy-check-halved": (["entropy-check", "--outer", "<tmp>/outer.code", "--c-gamma", "1.0",
                              "--c-eta", "1.0", "--n0", "6", "--budget", "4096"],
                             "32b2a8b3352a1b32979558cd7a71b1212feab5f7e5b7c7e037bc3b4d0a8ebd4d"),
    "entropy-check-unhalved": (["entropy-check", "--outer", "<tmp>/outer.code", "--c-gamma", "0.5",
                                "--c-eta", "0.5", "--tv-convention", "unhalved"],
                               "f576168b8c35204018e53abbd079d778e41e83de0dbf2a20b33c71fc5e2f8881"),
    "moment-check": (["moment-check", "OUTER", "INNER", "--r", "1,2,4", "--budget", "100000"],
                     "4a66f0884e161e6af1dafc8c2b2a14d8a846c912476cc709f140a5137da8b591"),
}


def golden_argv(name: str, tmp: str) -> list:
    """The argv of CLI_GOLDEN[name], with its code files written to tmp."""
    assert main(["sample-code", "--n", "6", "--k", "2", "--seed", "5",
                 "--out", f"{tmp}/inner.code"]) == 0
    assert main(["sample-code", "--n", "4", "--k", "2", "--k0", "2", "--seed", "6",
                 "--out", f"{tmp}/outer.code"]) == 0
    pair = {"OUTER": ["--outer", "<tmp>/outer.code"], "INNER": ["--inner", "<tmp>/inner.code"]}
    return [a.replace("<tmp>", tmp) for x in CLI_GOLDEN[name][0] for a in pair.get(x, [x])]


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_report_is_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CONCATGV_OUTDIR", raising=False)
    tmp = str(tmp_path)
    argv = golden_argv(name, tmp)
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out.replace(tmp, "<tmp>")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == CLI_GOLDEN[name][1]


def test_cli_report_documents_are_the_stdlib_rendering(tmp_path, monkeypatch):
    # every JSON report's live document, tuples and all, is within the
    # renderer's contract: its text is json.dumps's
    monkeypatch.delenv("CONCATGV_OUTDIR", raising=False)
    seen = []

    def checked(doc):
        text = reemit_json(doc)
        assert text == reemit_json_stdlib(doc)
        seen.append(doc)
        return text

    monkeypatch.setattr(cli, "reemit_json", checked)
    names = [name for name, (argv, _) in CLI_GOLDEN.items() if argv[0] != "sample-code"]
    for name in names:
        assert main(golden_argv(name, str(tmp_path))) == 0
    assert len(seen) == len(names) == 11
    assert any(isinstance(value, tuple) for doc in seen for value in doc.values())


# Every (subcommand, flag) pair whose flag the subcommand does not read.
UNREAD_FLAGS = [
    (["field", "--k0", "2"], ("--seed", "--budget", "--format")),
    (["sample-code", "--n", "4", "--k", "2"], ("--budget", "--format")),
    (["concat", "--outer", "o", "--inner", "i"], ("--seed", "--budget", "--format")),
    (["distance", "--code", "c"], ("--seed", "--format")),
    (["nice-check", "--inner", "i", "--tau", "0.2"], ("--seed", "--format")),
    (["soft-check", "--outer", "o", "--inner", "i"], ("--format",)),
    (["entropy-check", "--outer", "o", "--c-gamma", "1", "--c-eta", "1"], ("--seed", "--format")),
    (["moment-check", "--outer", "o", "--inner", "i"], ("--seed", "--format")),
    (["gv-compare"], ("--seed", "--budget", "--format")),
    (["sweep", "--config", "c"], ("--seed", "--budget")),
]


@pytest.mark.parametrize(
    "argv", [base + [flag, "csv" if flag == "--format" else "5"]
             for base, flags in UNREAD_FLAGS for flag in flags],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_cli_refuses_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

import json
import os
import subprocess
import sys

import pytest

from concatgv.cli import main
from concatgv.codes import BinaryCode, OuterCode
from concatgv.field import make_field
from concatgv.fileio import load_binary_code, load_outer_code, parse_code, save_code
from concatgv.linalg import sample_binary_code, sample_field_code


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "concatgv.cli", *argv],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed: {proc.stderr}")
    return proc


# -- code files ---------------------------------------------------------------


def test_code_file_roundtrip_binary(tmp_path):
    code = BinaryCode(sample_binary_code(8, 3, 4))
    path = tmp_path / "c.code"
    save_code(path, code)
    text = path.read_text()
    assert text.splitlines()[0] == "CODE v1 field=0x2/1 n=8 k=3"
    assert load_binary_code(path) == code


def test_code_file_roundtrip_outer(tmp_path):
    ctx = make_field(3)
    code = OuterCode(sample_field_code(ctx, 5, 2, 9))
    path = tmp_path / "o.code"
    save_code(path, code)
    text = path.read_text()
    assert text.splitlines()[0] == "CODE v1 field=0xb/3 n=5 k=2"
    assert load_outer_code(path) == code


def test_code_file_bad_header():
    with pytest.raises(ValueError):
        parse_code("NOT A CODE\n1\n")
    with pytest.raises(ValueError):
        parse_code("CODE v1 field=0x7/2 n=2 k=2\n5\n")  # row count mismatch


def test_load_binary_rejects_field_files(tmp_path):
    ctx = make_field(2)
    path = tmp_path / "o.code"
    save_code(path, OuterCode(sample_field_code(ctx, 3, 1, 2)))
    with pytest.raises(ValueError):
        load_binary_code(path)


def test_code_file_nonstandard_modulus(tmp_path):
    from concatgv.field import FieldCtx
    from concatgv.linalg import FieldMatrix

    ctx = FieldCtx(3, 0xD)  # x^3 + x^2 + 1, the other degree-3 irreducible
    code = OuterCode(FieldMatrix(((1, 5, 3),), 3, ctx))
    path = tmp_path / "alt.code"
    save_code(path, code)
    assert "field=0xd/3" in path.read_text()
    loaded = load_outer_code(path)
    assert loaded == code
    assert loaded.ctx.modulus == 0xD


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
    assert doc["is_exact"] and doc["mode"] == "exact"
    assert doc["distance"] >= 1

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


def test_cli_gv_compare(tmp_path):
    run_cli("gv-compare", "--grid", "50", "--out", str(tmp_path))
    gv = (tmp_path / "gv_curve.dat").read_text().splitlines()
    zy = (tmp_path / "zyablov_curve.dat").read_text().splitlines()
    assert gv[0].startswith("# concatgv-curve-v1") and zy[0].startswith("# concatgv-curve-v1")
    assert len(gv) == 51 and len(zy) == 51
    for line in gv[1:] + zy[1:]:
        d, r = map(float, line.split())
        assert 0 <= d < 0.5 and 0 <= r <= 1


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
    proc = run_cli("gv-compare", "--grid", "2", "--points", str(rows), "--out", str(tmp_path), check=False)
    assert proc.returncode == 1
    assert "rel_distance" in proc.stderr


def test_cli_sweep_unknown_key_fails(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k0": 2, "n0": 4, "n": 4, "k": 2,
                                    "trials": 1, "master_seed": 0, "oops": 1}))
    proc = run_cli("sweep", "--config", str(cfg_path), check=False)
    assert proc.returncode == 1
    assert "unknown config key" in proc.stderr


def test_cli_outdir_env(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "concatgv.cli", "sample-code", "--n", "4", "--k", "2",
         "--seed", "3", "--out", "env.code"],
        capture_output=True, text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.environ.get("PYTHONPATH", ""),
            "CONCATGV_OUTDIR": str(tmp_path),
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "env.code").exists()


def test_main_callable_directly(tmp_path, capsys):
    assert main(["field", "--k0", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["field"]["k0"] == 1

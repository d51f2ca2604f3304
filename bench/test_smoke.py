"""Smoke test of the sweep benchmark: one sweep of each declared workload,
with no timing assertions.  It keeps the harness in step with the program and with
BENCHMARK.json.

    python -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = sorted(bench.WORKLOADS)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_declaration():
    assert {w["name"] for w in DECLARED["workloads"]} == set(bench.WORKLOADS)
    assert set(bench.PREDICTED_DOMINANT) == set(bench.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run(workload, monkeypatch):
    monkeypatch.setattr(bench, "COLD_STARTS", 1)
    out = io.StringIO()
    result = bench.run(workload, bench.DEFAULT_SEED, 0, False, out=out)
    assert result["correct"], out.getvalue()
    assert (result["attempted"], result["failed"]) == (bench.WORKLOADS[workload]["trials"], 0)
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_predicts_dominant_layer(workload):
    out = io.StringIO()
    result = bench.run(workload, bench.DEFAULT_SEED, 0, True, out=out)
    assert result["correct"], out.getvalue()
    assert units(result) == declared("per_layer")
    assert f"predicted {bench.PREDICTED_DOMINANT[workload]}: match" in out.getvalue()
    unattributed = result["metrics"]["trace.unattributed_frac"]["value"]
    assert 0 <= unattributed < 0.2


def test_check_rows_flags_a_wrong_reference_row():
    program = bench.load_program()
    cfg_dict = bench.workload_config("ensemble", bench.DEFAULT_SEED)
    cfg = program.sweep.config_from_dict(cfg_dict)
    rows, _ = program.sweep.run_sweep(cfg)
    reference = bench.reference_rows("ensemble", cfg_dict)
    assert sorted(reference)[:2] == [0, 1]
    assert bench.check_rows(program, cfg, rows, reference, 2)[0] == set()
    reference[1] = dict(reference[1], distance=reference[1]["distance"] + 1)
    assert bench.check_rows(program, cfg, rows, reference, 0)[0] == {1}
    wrong = dataclasses.replace(rows[0], x_max=rows[0].x_max + 2)
    assert bench.check_rows(program, cfg, [wrong], {}, 1)[0] == {0}


def test_float_columns_compare_within_tolerance():
    assert bench._matches("soft_delta", 1e-3 + 1e-14, 1e-3)
    assert not bench._matches("soft_delta", 2e-3, 1e-3)
    assert bench._matches("entropy_min", 3.0 * (1 + 1e-12), 3.0)
    assert not bench._matches("distance", 3.0, 3)


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ensemble", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensemble", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

#!/usr/bin/env python3
"""Sweep benchmark for concatgv.

    python3 bench/run.py --workload ensemble --seed 20260810 --seconds 25 --trace 0

Each run is one single-process, single-threaded closed loop over one
workload: it times the calls that ``concatgv sweep`` makes
(``config_from_dict`` -> ``run_sweep`` -> ``emit_csv`` + ``emit_json``), one
sweep at a time, until ``--seconds`` have passed.  ``--seed`` is the sweep's
master seed.  Every sweep's rows are checked (see ``check_rows``); a trial
that raised or failed a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced sweeps and reports the per-layer
metrics of the traced ones (see ``tracing.py``); the spans of the first
traced sweep and a per-layer summary go to ``.bench_out/`` in the checkout.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

DEFAULT_SEED = 20260810
COLD_STARTS = 15
ORACLE_TRIALS = 16  # rows per run that get the independent numpy distance check
FLOAT_RTOL = 1e-9
TOLERANT_COLUMNS = ("soft_prob", "soft_delta", "entropy_min")

ALL_ON = {"run_nice": True, "run_soft": True, "run_entropy": True, "run_moments": True}

# Sweep configs without master_seed.  Why each one, and which layer it loads,
# is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "ensemble": {"k0": 4, "n0": 8, "n": 6, "k": 3, "trials": 5},
    "certify": {"k0": 4, "n0": 8, "n": 4, "k": 2, "trials": 1, "toggles": {**ALL_ON, "r_list": [2]}},
    "lowrate": {"k0": 3, "n0": 9, "n": 6, "k": 2, "trials": 1, "toggles": {**ALL_ON, "r_list": [2]}},
    "moments": {"k0": 2, "n0": 4, "n": 4, "k": 2, "trials": 1, "toggles": {"run_moments": True, "r_list": [2, 4]}},
}

# The layer group with the most self time in a traced run at the commit that
# introduced this benchmark.  An optimisation of that layer may move it.
PREDICTED_DOMINANT = {
    "ensemble": "codes",
    "certify": "certify.entropy",
    "lowrate": "certify.soft",
    "moments": "moments.dual",
}

COLD_START = """\
import json, sys
import concatgv.cli
from concatgv.field import make_field
from concatgv.sweep import config_from_dict
make_field(config_from_dict(json.loads(sys.argv[1])).k0)
print("ready", flush=True)
"""


def load_program() -> types.SimpleNamespace:
    """Import concatgv from this checkout's src/, and nowhere else."""
    if not (SRC / "concatgv" / "__init__.py").is_file():
        raise SystemExit(f"bench: no concatgv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import concatgv
    from concatgv import certify, codes, field, linalg, sweep

    if Path(concatgv.__file__).resolve().parent != SRC / "concatgv":
        raise SystemExit(f"bench: imported concatgv from {concatgv.__file__}, not {SRC}")
    return types.SimpleNamespace(certify=certify, codes=codes, field=field, linalg=linalg, sweep=sweep)


def workload_config(name: str, seed: int) -> dict:
    cfg = json.loads(json.dumps(WORKLOADS[name]))
    cfg["master_seed"] = seed
    return cfg


# -- machine and version block ------------------------------------------------


def machine_block() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            if res.returncode == 0:
                commit = res.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "concatgv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "processes": "benchmark process plus its cold-start children, one at a time",
    }


# -- correctness ---------------------------------------------------------------


def row_dict(program, row) -> dict:
    return {col: getattr(row, col) for col in program.sweep.CSV_COLUMNS}


def reference_rows(name: str, cfg: dict) -> dict:
    """Committed rows by trial index, when they apply to this config and seed."""
    path = BENCH / "reference" / f"{name}.json"
    if not path.is_file():
        return {}
    ref = json.loads(path.read_text(encoding="ascii"))
    return {r["trial"]: r for r in ref["rows"]} if ref["config"] == cfg else {}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def _matches(col: str, got, want) -> bool:
    if col not in TOLERANT_COLUMNS or got is None or want is None:
        return got == want and type(got) is type(want)
    if col == "soft_delta":  # delta = prob * q^k - 1 cancels; compare prob * q^k
        return _close(1.0 + got, 1.0 + want)
    return _close(got, want)


def oracle_distance(program, cfg, row):
    """(distance, x_max) of the trial's concatenated code, by a numpy
    enumeration of every codeword.  The codewords are built here from the
    sampled generator matrices, the field modulus and the self-dual basis,
    with field arithmetic of this function's own: nothing of codes.py's
    encoders or scans, or of FieldCtx's multiply and coordinate tables, is
    used."""
    import numpy as np

    p = program
    ctx = p.field.make_field(cfg.k0)
    inner = p.linalg.sample_binary_code(cfg.n0, cfg.k0, row.seed_inner).rows
    outer = p.linalg.sample_field_code(ctx, cfg.n, cfg.k, row.seed_outer).rows
    k0, modulus, n0 = ctx.k0, ctx.modulus, cfg.n0

    def mul(a, b):
        prod = 0
        for i in range(k0):
            if (b >> i) & 1:
                prod ^= a << i
        for d in range(2 * k0 - 2, k0 - 1, -1):
            if (prod >> d) & 1:
                prod ^= modulus << (d - k0)
        return prod

    def trace(x):
        acc, t = 0, x
        for _ in range(k0):
            acc, t = acc ^ t, mul(t, t)
        return acc

    def inner_word(sym):  # coordinate i of sym is Tr(sym * nu_i)
        word = 0
        for i, nu in enumerate(ctx.basis):
            if trace(mul(sym, nu)):
                word ^= inner[i]
        return word

    # The GF(2)-span of {x^j * g : g an outer generator row, j < k0} is the
    # outer code, so these K words span the concatenated code.
    basis = [
        sum(inner_word(mul(1 << j, g)) << (a * n0) for a, g in enumerate(g_row))
        for g_row in outer
        for j in range(k0)
    ]
    length = cfg.n * n0
    limbs = (length + 63) // 64
    basis = np.array([[(w >> (64 * j)) & ((1 << 64) - 1) for j in range(limbs)] for w in basis], dtype=np.uint64)
    words = np.zeros((1, limbs), dtype=np.uint64)
    for b in basis:
        words = np.concatenate([words, words ^ b])
    weights = np.bitwise_count(words).sum(axis=1, dtype=np.int64)[1:]
    lo, hi = int(weights.min()), int(weights.max())
    return lo, max(length - 2 * lo, 2 * hi - length)


def check_rows(program, cfg, rows, reference: dict, oracle_left: int):
    """Trial indices whose row fails a check, and the checks' messages.

    - rows with a committed reference row: int and bool columns equal,
      soft_prob / soft_delta / entropy_min within FLOAT_RTOL relative;
    - on any seed: distance_exact and soft_exact wherever the config's
      budgets imply exact mode, moments_equal True when moments run, and
      for the first ``oracle_left`` exact rows an independent distance check.
    """
    q = 1 << cfg.k0
    exact = q**cfg.k <= cfg.budgets.distance
    soft_exact = q ** (cfg.n - cfg.k) <= cfg.budgets.soft
    bad, notes = set(), []
    for row in rows:
        got = row_dict(program, row)
        why = []
        want = reference.get(row.trial)
        if want is not None:
            why += [f"{c}={got[c]!r} != reference {want[c]!r}" for c in got if not _matches(c, got[c], want[c])]
        if row.distance_exact is not exact:
            why.append(f"distance_exact={row.distance_exact}, config implies {exact}")
        if cfg.toggles.run_moments and row.moments_equal is not True:
            why.append(f"moments_equal={row.moments_equal}")
        if cfg.toggles.run_soft and row.soft_exact is not soft_exact:
            why.append(f"soft_exact={row.soft_exact}, config implies {soft_exact}")
        if exact and oracle_left > 0:
            oracle_left -= 1
            d, x_max = oracle_distance(program, cfg, row)
            if (row.distance, row.x_max) != (d, x_max):
                why.append(f"(distance, x_max)=({row.distance}, {row.x_max}), oracle ({d}, {x_max})")
        if why:
            bad.add(row.trial)
            notes.append(f"trial {row.trial}: " + "; ".join(why))
    return bad, notes


# -- timing --------------------------------------------------------------------


def cold_start_s(cfg: dict) -> float:
    """Fresh interpreter to ready: import concatgv.cli, parse the config,
    make_field(k0)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", COLD_START, json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line != "ready\n":
            raise RuntimeError(f"cold start failed with exit code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def describe(name: str, values, unit: str, scale: float = 1.0) -> str:
    """Minimum, median, and the highest percentile with at least ten samples
    beyond it."""
    vals = [v * scale for v in values]
    text = f"{name:<14} min {min(vals):.6g}  median {statistics.median(vals):.6g} {unit}"
    tail = next((p for p in (99.9, 99, 95, 90, 75) if len(vals) * (1 - p / 100) >= 10), None)
    if tail is not None:
        text += f"  p{tail:g} {percentile(vals, tail):.6g} {unit}"
    return text + f"  (n={len(vals)})"


class Run:
    """One closed-loop run: sweeps until the deadline, checking each."""

    def __init__(self, program, name: str, cfg_dict: dict) -> None:
        self.p = program
        self.name = name
        self.cfg_dict = cfg_dict
        self.cfg = program.sweep.config_from_dict(cfg_dict)
        self.reference = reference_rows(name, cfg_dict)
        self.attempted = 0
        self.failed = 0
        self.first = None  # (rows, emitted text) of the first sweep that ran
        self.notes: list[str] = []

    def sweep_once(self, fns):
        config_from_dict, run_sweep, emit_csv, emit_json = fns
        t0 = time.perf_counter()
        cfg = config_from_dict(self.cfg_dict)
        rows, agg = run_sweep(cfg)
        text = emit_csv(rows, cfg) + emit_json(rows, agg, cfg)
        return time.perf_counter() - t0, rows, text

    def timed(self, fns, tracer: tracing.Tracer | None = None):
        """Run, time and check one sweep; (seconds, rows), or None if it raised.
        With a tracer, the sweep runs traced and the check runs untraced."""
        self.attempted += self.cfg.trials
        try:
            if tracer is None:
                elapsed, rows, text = self.sweep_once(fns)
            else:
                with tracer.installed(self.p):
                    traced = tuple(tracer.wrap(f"sweep.{f.__name__}", f) for f in fns)
                    elapsed, rows, text = tracer.wrap("bench.sweep", self.sweep_once)(traced)
        except Exception:
            self.failed += self.cfg.trials
            self.notes.append(traceback.format_exc())
            return None
        if self.first is None:
            self.first = (rows, text)
            bad, notes = check_rows(self.p, self.cfg, rows, self.reference, ORACLE_TRIALS)
        elif text == self.first[1]:
            bad, notes = set(), []
        else:
            want = {r.trial: row_dict(self.p, r) for r in self.first[0]}
            bad = {r.trial for r in rows if row_dict(self.p, r) != want.get(r.trial)}
            bad |= set(want) - {r.trial for r in rows}
            notes = [f"sweep output differs from the first sweep in trials {sorted(bad) or 'none'}"]
        self.failed += len(bad)
        self.notes += notes
        return elapsed, rows

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_plain(run: Run, seconds: float):
    """End-to-end metrics, tracing off."""
    sw = run.p.sweep
    fns = (sw.config_from_dict, sw.run_sweep, sw.emit_csv, sw.emit_json)
    setups = [cold_start_s(run.cfg_dict) for _ in range(COLD_STARTS)]
    sweeps, trials = [], []
    fastest = {}  # trial index -> its fastest wall time over the run's sweeps
    deadline = time.perf_counter() + seconds
    while True:
        res = run.timed(fns)
        if res is not None:
            sweeps.append(res[0])
            for r in res[1]:
                trials.append(r.wall_time_s)
                fastest[r.trial] = min(r.wall_time_s, fastest.get(r.trial, math.inf))
        if time.perf_counter() >= deadline:
            break
    if not sweeps or not trials:
        raise SystemExit("bench: no sweep completed\n" + "".join(run.notes[-1:]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    lines = [
        describe("sweep_s", sweeps, "s"),
        describe("trial_ms", trials, "ms", 1e3),
        describe("setup_s", setups, "s"),
        f"{'peak_rss_mb':<14} {rss_mb:.6g} MB",
    ]
    metrics = {
        "sweep_s_min": {"value": min(sweeps), "unit": "s"},
        "trial_ms_fastest_mean": {"value": 1e3 * statistics.fmean(fastest.values()), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return metrics, lines


UNITS = {"_ms": "ms", "_calls": "count", "_ratio": "ratio", "_frac": "ratio"}


def _unit(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    if metric.split(".")[-1].startswith("ns_per"):
        return "ns"
    if metric.split(".")[-1].startswith("us_per"):
        return "us"
    return "count"


def run_traced(run: Run, seconds: float, seed: int, machine: dict):
    """Per-layer metrics from traced sweeps, alternated with untraced ones
    so that trace.overhead_frac compares sweeps taken under the same load."""
    sw = run.p.sweep
    plain = (sw.config_from_dict, sw.run_sweep, sw.emit_csv, sw.emit_json)
    tracer = tracing.Tracer()
    untraced, per_sweep, first_spans = [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        res = run.timed(plain)
        if res is not None:
            untraced.append(res[0])
        res = run.timed(plain, tracer)
        spans, counts = tracer.take()
        if res is not None:
            per_sweep.append((spans, counts))
            first_spans = first_spans or spans
        if time.perf_counter() >= deadline:
            break
    if not per_sweep or not untraced:
        raise SystemExit("bench: no traced sweep completed\n" + "".join(run.notes[-1:]))
    layer = [tracing.sweep_metrics(s, c) for s, c in per_sweep]
    med = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
    med.pop("trace.wall_s")
    med["trace.overhead_frac"] = min(m["trace.wall_s"] for m in layer) / min(untraced) - 1.0
    shares = tracing.group_self_s([s for spans, _ in per_sweep for s in spans])
    total = sum(shares.values())
    dom = next(iter(shares), "none")
    predicted = PREDICTED_DOMINANT[run.name]
    lines = [
        f"traced sweeps {len(per_sweep)}, untraced {len(untraced)}",
        "self time by layer: " + ", ".join(f"{g} {v / total:.1%}" for g, v in shares.items()),
        f"dominant layer {dom}, predicted {predicted}: {'match' if dom == predicted else 'MISMATCH'}",
    ] + [f"{k:<36} {v:.6g}" for k, v in med.items()]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{run.name}-{seed}.jsonl"
    with open(path, "w", encoding="ascii") as fh:
        summary = {"workload": run.name, "seed": seed, "traced_sweeps": len(per_sweep),
                   "dominant": dom, "predicted": predicted, "self_s_by_layer": shares,
                   "metrics": med, "machine": machine}
        fh.write(json.dumps(summary) + "\n")
        for span in first_spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    lines.append(f"spans of the first traced sweep: {path.relative_to(ROOT)}")
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in med.items()}
    return metrics, lines


def run(name: str, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """One benchmark run; prints a report to ``out`` and returns the result."""
    program = load_program()
    bench_run = Run(program, name, workload_config(name, seed))
    machine = machine_block()
    print("# machine " + json.dumps(machine), file=out)
    print(f"# workload {name} seed {seed} config {json.dumps(bench_run.cfg_dict)}", file=out)
    if trace:
        metrics, lines = run_traced(bench_run, seconds, seed, machine)
    else:
        metrics, lines = run_plain(bench_run, seconds)
    for line in lines:
        print(line, file=out)
    result = bench_run.result(metrics)
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} trials)", file=out)
    for note in bench_run.notes[:20]:
        print("check: " + note.rstrip(), file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sweep master seed")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: field, sample-code, concat, distance, nice-check, soft-check,
entropy-check, moment-check, gv-compare, sweep.  Each subcommand takes only
the flags it reads: every one takes --out (a file, or for gv-compare a
directory; default stdout), --seed goes to sample-code, distance and
soft-check, --budget to distance and the four checks, and --format to sweep.
Reports echo seeds and budgets so runs can be reproduced from their outputs.
If the environment variable CONCATGV_OUTDIR is set, relative --out paths are
resolved inside it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .bounds import gv_rate, zyablov_rate
from .certify import (
    C_TILDE_DEFAULT,
    bernoulli_p,
    check_nice,
    d_pmf,
    entropy_hypothesis,
    soft_condition,
)
from .codes import BinaryCode, ConcatCode, OuterCode, min_distance, weight_distribution
from .field import make_field
from .fileio import dumps_code, load_binary_code, load_outer_code
from .linalg import sample_binary_code, sample_field_code
from .moments import moment_dual
from .sweep import config_from_dict, emit_csv, emit_json, reemit_json, run_sweep


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    outdir = os.environ.get("CONCATGV_OUTDIR")
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    return p


def _write(args, text: str) -> None:
    """The one report writer: stdout, or the --out file as ASCII, line ends untranslated."""
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="ascii", newline="")


def _emit(args, doc: dict) -> None:
    _write(args, reemit_json(doc))


def _load_concat(args) -> ConcatCode:
    return ConcatCode(load_outer_code(args.outer), load_binary_code(args.inner))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def cmd_field(args) -> int:
    ctx = make_field(args.k0)
    _emit(args, {"field": ctx.descriptor()})
    return 0


def cmd_sample_code(args) -> int:
    if args.k0 is not None:
        ctx = make_field(args.k0)
        code = OuterCode(sample_field_code(ctx, args.n, args.k, args.seed))
    else:
        code = BinaryCode(sample_binary_code(args.n, args.k, args.seed))
    _write(args, dumps_code(code))
    return 0


def cmd_concat(args) -> int:
    cc = _load_concat(args)
    _emit(
        args,
        {
            "field": cc.ctx.descriptor(),
            "outer": {"n": cc.outer.n, "k": cc.outer.k},
            "inner": {"n0": cc.inner.n0, "k0": cc.inner.k0},
            "N": cc.N,
            "K": cc.K,
            "rate": cc.rate,
            "omega": [f"{b:#x}" for b in cc.omega],
        },
    )
    return 0


def cmd_distance(args) -> int:
    if args.code:
        code = load_binary_code(args.code)
        desc = {"code": args.code}
    else:
        code = _load_concat(args)
        desc = {"outer": args.outer, "inner": args.inner}
    mode = args.mode
    if mode == "auto":
        mode = "exact" if 1 << code.gen.nrows <= args.budget else "montecarlo"
    d, is_exact = min_distance(code, mode, args.budget, args.seed)
    _emit(
        args,
        {
            **desc,
            "mode": mode,
            "seed": args.seed,
            "budget": args.budget,
            "distance": d,
            "rel_distance": d / code.gen.cols,
            "is_exact": is_exact,
        },
    )
    return 0


def cmd_nice_check(args) -> int:
    inner = load_binary_code(args.inner)
    rep = check_nice(inner, args.tau, args.budget)
    _emit(args, {"inner": args.inner, "budget": args.budget, **dataclasses.asdict(rep)})
    return 0


def cmd_soft_check(args) -> int:
    cc = _load_concat(args)
    eps = cc.inner.k0 / cc.inner.n0
    p = bernoulli_p(args.c_tilde, eps)
    pmf = d_pmf(cc.ctx, cc.omega, p)
    rep = soft_condition(cc.outer, pmf, args.mode, args.budget, args.seed)
    _emit(
        args,
        {
            "outer": args.outer,
            "inner": args.inner,
            "p": p,
            "c_tilde": args.c_tilde,
            "eps": eps,
            "mode": args.mode,
            "seed": args.seed,
            "budget": args.budget,
            **dataclasses.asdict(rep),
        },
    )
    return 0


def cmd_entropy_check(args) -> int:
    outer = load_outer_code(args.outer)
    rep = entropy_hypothesis(
        outer,
        args.c_gamma,
        args.c_eta,
        args.budget,
        n0=args.n0,
        halved_tv=(args.tv_convention == "halved"),
    )
    _emit(
        args,
        {
            "outer": args.outer,
            "c_gamma": args.c_gamma,
            "c_eta": args.c_eta,
            "tv_convention": args.tv_convention,
            "budget": args.budget,
            **dataclasses.asdict(rep),
        },
    )
    return 0


def cmd_moment_check(args) -> int:
    cc = _load_concat(args)
    wd = weight_distribution(cc, args.budget)  # one enumeration serves every r
    records = []
    for r in args.r:
        direct = wd.moment(r)
        dual = moment_dual(cc, r, args.budget)
        records.append(
            {
                "instance": {
                    "outer": args.outer,
                    "inner": args.inner,
                    "n": cc.outer.n,
                    "k": cc.outer.k,
                    "n0": cc.inner.n0,
                    "k0": cc.inner.k0,
                },
                "r": r,
                "direct": str(direct),
                "dual": str(dual),
                "equal": direct == dual,
            }
        )
    _emit(args, {"budget": args.budget, "records": records})
    return 0


def cmd_gv_compare(args) -> int:
    grid = args.grid
    if grid < 1:
        raise ValueError(f"--grid must be at least 1, got {grid}")
    outdir = _resolve_out(args.out) or Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    gv_lines = ["# concatgv-curve-v1 gv"]
    zy_lines = ["# concatgv-curve-v1 zyablov"]
    for i in range(grid):
        d = 0.5 * i / grid
        gv_lines.append(f"{d!r} {gv_rate(d)!r}")
        zy_lines.append(f"{d!r} {zyablov_rate(d)!r}")
    (outdir / "gv_curve.dat").write_text("\n".join(gv_lines) + "\n", encoding="ascii")
    (outdir / "zyablov_curve.dat").write_text("\n".join(zy_lines) + "\n", encoding="ascii")
    if args.points:
        lines = Path(args.points).read_text(encoding="ascii").splitlines()
        rows = csv.DictReader(ln for ln in lines if ln.strip() and not ln.startswith("#"))
        if not {"rel_distance", "rate"} <= set(rows.fieldnames or ()):
            raise ValueError(f"{args.points}: no rel_distance and rate columns in the header")
        measured = ["# concatgv-curve-v1 measured"]
        measured += [f"{row['rel_distance']} {row['rate']}" for row in rows]
        (outdir / "measured_points.dat").write_text(
            "\n".join(measured) + "\n", encoding="ascii"
        )
    return 0


def cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="ascii") as fh:
        data = json.load(fh)
    cfg = config_from_dict(data)
    rows, agg = run_sweep(cfg)
    _write(args, emit_csv(rows, cfg) if args.format == "csv" else emit_json(rows, agg, cfg))
    total = sum(r.wall_time_s for r in rows)
    print(
        f"sweep: {len(rows)} trials, total {total:.2f}s, "
        f"median rel distance {agg['median_rel_distance']}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concatgv",
        description="Concatenated binary linear codes: construction, certification, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "seed": dict(type=int, default=0, help="PRNG seed (64-bit)"),
        "budget": dict(type=int, default=1 << 20, help="enumeration budget"),
    }

    def add(name, fn, help, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--out", type=str, default=None,
                       help="output file (default stdout); for gv-compare a directory (default .)")
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        return p

    p = add("field", cmd_field, "print a field descriptor")
    p.add_argument("--k0", type=int, required=True)

    p = add("sample-code", cmd_sample_code, "sample a uniform random linear code", "seed")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--k0", type=int, default=None, help="field degree for outer codes; omit for binary")

    p = add("concat", cmd_concat, "describe a concatenated code")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)

    p = add("distance", cmd_distance, "minimum distance of a code", "seed", "budget")
    p.add_argument("--code", default=None, help="binary code file")
    p.add_argument("--outer", default=None)
    p.add_argument("--inner", default=None)
    p.add_argument("--mode", choices=("exact", "montecarlo", "auto"), default="auto")

    p = add("nice-check", cmd_nice_check, "tau-niceness of an inner code", "budget")
    p.add_argument("--inner", required=True)
    p.add_argument("--tau", type=_finite_float, required=True)

    p = add("soft-check", cmd_soft_check, "soft-decoding condition on an outer code", "seed", "budget")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--c-tilde", type=_finite_float, default=C_TILDE_DEFAULT)
    p.add_argument("--mode", choices=("exact", "montecarlo"), default="exact")

    p = add("entropy-check", cmd_entropy_check, "smooth min-entropy condition", "budget")
    p.add_argument("--outer", required=True)
    p.add_argument("--c-gamma", type=_finite_float, required=True)
    p.add_argument("--c-eta", type=_finite_float, required=True)
    p.add_argument("--n0", type=int, default=None, help="inner length for the n0 diagnostic")
    p.add_argument("--tv-convention", choices=("halved", "unhalved"), default="halved")

    p = add("moment-check", cmd_moment_check, "verify the moment identity (--budget: walk work)", "budget")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--r", type=lambda s: [int(x) for x in s.split(",")], default=[1, 2, 3])

    p = add("gv-compare", cmd_gv_compare, "emit (delta, R) curve data files")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--points", default=None, help="sweep CSV to extract measured points from")

    p = add("sweep", cmd_sweep, "run a seeded parameter sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "distance" and not args.code and not (args.outer and args.inner):
        print("distance: need --code or both --outer and --inner", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment runner: seeded ensemble sweeps with CSV/JSON reporting.

Determinism contract: (config, master_seed) fully determines every output
byte.  Per-trial seeds are derived as hash(master_seed, trial_index), so
trials are independent and may run in any order; rows are always reported in
trial order and the aggregate is a deterministic fold.  Wall-clock time is
kept on the in-memory rows for interactive use but never serialized, since
the emitted files must be byte-identical across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Tuple

from .bounds import gv_check
from .certify import (
    bernoulli_p,
    C_DEFAULT,
    C_TILDE_DEFAULT,
    check_nice,
    d_pmf,
    entropy_hypothesis,
    soft_condition,
    tau_in_range,
)
from .codes import BinaryCode, ConcatCode, OuterCode, min_distance, weight_distribution
from .field import MAX_DEGREE, make_field
from .linalg import sample_binary_code, sample_field_code
from .moments import moment_dual, walk_work
from .rng import derive_seed

SCHEMA = "concatgv-sweep-v1"

EXACT_DISTANCE_LIMIT = 1 << 20  # exact when q^k <= this, else Monte Carlo
EXACT_NICENESS_LIMIT = 1 << 20  # niceness runs only when 2^(n0-k0) <= this


@dataclass(frozen=True)
class Budgets:
    distance: int = EXACT_DISTANCE_LIMIT
    niceness: int = EXACT_NICENESS_LIMIT
    soft: int = 1 << 20
    entropy: int = 1 << 20
    moments: int = 1 << 27
    mc_draws: int = 4000


@dataclass(frozen=True)
class Constants:
    c: float = C_DEFAULT
    c_tilde: float = C_TILDE_DEFAULT
    c_gamma: float = 1.0
    c_eta: float = 1.0
    tau: float = 0.25


@dataclass(frozen=True)
class Toggles:
    run_nice: bool = False
    run_soft: bool = False
    run_entropy: bool = False
    run_moments: bool = False
    r_list: Tuple[int, ...] = (2,)


@dataclass(frozen=True)
class SweepConfig:
    k0: int
    n0: int
    n: int
    k: int
    trials: int
    master_seed: int
    budgets: Budgets = dc_field(default_factory=Budgets)
    constants: Constants = dc_field(default_factory=Constants)
    toggles: Toggles = dc_field(default_factory=Toggles)
    equal_rate: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.k0 <= self.n0:
            raise ValueError(f"need 1 <= k0 <= n0, got k0={self.k0}, n0={self.n0}")
        if self.k0 > MAX_DEGREE:
            raise ValueError(f"k0={self.k0} above the largest field degree {MAX_DEGREE}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.equal_rate and self.k0 * self.n != self.k * self.n0:
            raise ValueError(
                f"equal_rate requires k0/n0 == k/n, got {self.k0}/{self.n0} != {self.k}/{self.n}"
            )
        if self.toggles.run_nice:
            if not tau_in_range(self.constants.tau, self.k0, self.n0):
                raise ValueError(f"tau={self.constants.tau} outside (0, {self.k0 / self.n0})")
            if (1 << (self.n0 - self.k0)) > self.budgets.niceness:
                raise ValueError("niceness check over budget for this config")
        if not 0 < self.constants.c < math.inf:
            raise ValueError(f"GV constant c must be positive and finite, got {self.constants.c}")
        if self.toggles.run_soft and self.constants.c_tilde < 0:
            raise ValueError(f"constants.c_tilde must be nonnegative, got {self.constants.c_tilde}")
        if self.toggles.run_entropy:
            eta = self.constants.c_eta * (self.k / self.n)  # as entropy_hypothesis computes it
            if not 0 <= eta < 1:
                raise ValueError(f"smoothing level c_eta*k/n = {eta} outside [0, 1)")
            if (1 << self.k0) ** self.k > self.budgets.entropy:
                raise ValueError("entropy check over budget for this config")
        if any(r < 0 for r in self.toggles.r_list):
            raise ValueError(f"r_list entries must be nonnegative, got {list(self.toggles.r_list)}")
        if self.toggles.run_moments:
            if not self.toggles.r_list:
                raise ValueError("toggles.r_list is empty, so run_moments would check nothing")
            walks = [walk_work(self.n * self.n0, self.k * self.k0, r) for r in self.toggles.r_list]
            if max([(1 << self.k0) ** self.k, *walks]) > self.budgets.moments:
                raise ValueError("moment check over budget for this config")
        for f in dc_fields(Budgets):
            if getattr(self.budgets, f.name) <= 0:
                raise ValueError(f"budget {f.name} must be positive")

    def to_dict(self) -> dict:
        # Shallow copies in field order; dataclasses.asdict deep-copies and costs
        # several times more.  Fields, not vars(), so the cached digest stays out.
        doc = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        for part in ("budgets", "constants", "toggles"):
            doc[part] = dict(vars(doc[part]))
        doc["toggles"]["r_list"] = list(self.toggles.r_list)
        return doc

    @cached_property
    def digest(self) -> str:
        """The config_hash of the emitted files: sha256 of the canonical JSON, 16 hex digits."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v) -> bool:
    """A finite float, or an int that converts to one without overflow."""
    if _is_int(v):
        try:
            float(v)
        except OverflowError:
            return False
        return True
    return isinstance(v, float) and math.isfinite(v)


# Declared field type -> (check on the JSON value, what the error asks for).
# Values are kept as given, so an int constant hashes as before; a list of
# ints becomes the tuple the dataclass holds.  json reads NaN and Infinity, so
# a float must be finite, and an int must fit in a float, as the trial uses it.
_FIELD_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_finite_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "Tuple[int, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
        "a list of integers",
    ),
}


def _from_dict(cls, data, where: str) -> dict:
    """data as a dict of cls's fields: it must be an object with known keys,
    and every scalar or tuple field must hold a value of its declared type."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    types = {f.name: f.type for f in dc_fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    out = dict(data)
    for key, value in data.items():
        if types[key] in _FIELD_CHECKS:
            check, what = _FIELD_CHECKS[types[key]]
            if not check(value):
                raise ValueError(f"{where} key {key!r} must be {what}, got {value!r}")
            if isinstance(value, list):
                out[key] = tuple(value)
    return out


def config_from_dict(data: dict) -> SweepConfig:
    """Build a SweepConfig from a parsed JSON document; unknown keys are errors."""
    top = _from_dict(SweepConfig, data, "config")
    for part, cls in (("budgets", Budgets), ("constants", Constants), ("toggles", Toggles)):
        if part in top:
            top[part] = cls(**_from_dict(cls, top[part], part))
    return SweepConfig(**top)


@dataclass(frozen=True)
class SweepRow:
    trial: int
    seed_inner: int
    seed_outer: int
    rate: float
    distance: int
    rel_distance: float
    distance_exact: bool
    x_max: Optional[int]
    nice_ok: Optional[bool]
    soft_prob: Optional[float]
    soft_delta: Optional[float]
    soft_exact: Optional[bool]
    entropy_ok: Optional[bool]
    entropy_min: Optional[float]
    moments_equal: Optional[bool]
    gv_ok: bool
    wall_time_s: float  # in-memory only; never serialized


CSV_COLUMNS = [f.name for f in dc_fields(SweepRow) if f.name != "wall_time_s"]


def run_trial(config: SweepConfig, trial: int) -> SweepRow:
    t0 = time.perf_counter()
    ctx = make_field(config.k0)
    trial_seed = derive_seed(config.master_seed, trial)
    seed_inner = derive_seed(trial_seed, 0)
    seed_outer = derive_seed(trial_seed, 1)
    inner = BinaryCode(sample_binary_code(config.n0, config.k0, seed_inner))
    outer = OuterCode(sample_field_code(ctx, config.n, config.k, seed_outer))
    cc = ConcatCode(outer, inner)
    q = ctx.q

    exact = q**config.k <= config.budgets.distance
    wd = None
    if exact:
        wd = weight_distribution(cc, config.budgets.distance)
        d, x_max = wd.min_weight, wd.max_bias
    else:
        d, _ = min_distance(cc, "montecarlo", config.budgets.mc_draws, derive_seed(trial_seed, 2))
        x_max = None

    nice_ok = None
    if config.toggles.run_nice:
        nice_ok = check_nice(inner, config.constants.tau, config.budgets.niceness).ok

    soft_prob = soft_delta = None
    soft_exact = None
    if config.toggles.run_soft:
        p = bernoulli_p(config.constants.c_tilde, config.k0 / config.n0)
        pmf = d_pmf(ctx, cc.omega, p)
        mode = "exact" if q ** (config.n - config.k) <= config.budgets.soft else "montecarlo"
        rep = soft_condition(
            outer, pmf, mode,
            config.budgets.soft if mode == "exact" else config.budgets.mc_draws,
            derive_seed(trial_seed, 3),
        )
        soft_prob, soft_delta, soft_exact = rep.prob, rep.delta, rep.is_exact

    entropy_ok = None
    entropy_min = None
    if config.toggles.run_entropy:
        rep = entropy_hypothesis(
            outer, config.constants.c_gamma, config.constants.c_eta, config.budgets.entropy
        )
        entropy_ok, entropy_min = rep.ok, rep.min_entropy

    moments_equal = None
    if config.toggles.run_moments:
        if wd is None:
            wd = weight_distribution(cc, config.budgets.moments)
        moments_equal = all(
            wd.moment(r) == moment_dual(cc, r, config.budgets.moments)
            for r in config.toggles.r_list
        )

    return SweepRow(
        trial=trial,
        seed_inner=seed_inner,
        seed_outer=seed_outer,
        rate=cc.rate,
        distance=d,
        rel_distance=d / cc.N,
        distance_exact=exact,
        x_max=x_max,
        nice_ok=nice_ok,
        soft_prob=soft_prob,
        soft_delta=soft_delta,
        soft_exact=soft_exact,
        entropy_ok=entropy_ok,
        entropy_min=entropy_min,
        moments_equal=moments_equal,
        gv_ok=gv_check(cc.N, cc.K, d, Fraction(config.k, config.n), config.constants.c),
        wall_time_s=time.perf_counter() - t0,
    )


def run_sweep(config: SweepConfig) -> Tuple[List[SweepRow], dict]:
    """All trials in index order, plus the aggregate summary."""
    rows = [run_trial(config, t) for t in range(config.trials)]
    return rows, aggregate(rows, config)


def aggregate(rows: List[SweepRow], config: SweepConfig) -> dict:
    # under the equal-rate convention eps = k/n = k0/n0; k/n otherwise
    agg = {
        "eps": config.k / config.n,
        "trials": len(rows),
        "vacuous": not rows,
        "min_rel_distance": None,
        "median_rel_distance": None,
        "frac_gv_ok": None,
        "frac_nice": None,
    }
    if not rows:
        return agg
    dists = [r.rel_distance for r in rows]
    nices = [r.nice_ok for r in rows if r.nice_ok is not None]
    agg.update(
        min_rel_distance=min(dists),
        median_rel_distance=statistics.median(dists),
        frac_gv_ok=sum(r.gv_ok for r in rows) / len(rows),
        frac_nice=(sum(nices) / len(nices)) if nices else None,
    )
    return agg


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def emit_csv(rows: List[SweepRow], config: SweepConfig) -> str:
    lines = [f"# {SCHEMA} config_hash={config.digest} master_seed={config.master_seed}"]
    lines.append(",".join(CSV_COLUMNS))
    for r in rows:
        lines.append(",".join(_cell(getattr(r, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_json(rows: List[SweepRow], agg: dict, config: SweepConfig) -> str:
    doc = {
        "schema": SCHEMA,
        "config_hash": config.digest,
        "master_seed": config.master_seed,
        "config": config.to_dict(),
        "rows": [{col: getattr(r, col) for col in CSV_COLUMNS} for r in rows],
        "aggregate": agg,
    }
    return reemit_json(doc)


def reemit_json(doc: dict) -> str:
    """Canonical JSON rendering; parse -> reemit is byte-identical."""
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"

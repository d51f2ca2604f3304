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
from dataclasses import dataclass, fields as dc_fields
from functools import cache, cached_property
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
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


@dataclass(frozen=True)
class Budgets:
    distance: int = 1 << 20  # exact when q^k <= this, else Monte Carlo
    niceness: int = 1 << 20  # niceness runs only when 2^(n0-k0) <= this
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
    # frozen, so one default instance serves every config
    budgets: Budgets = Budgets()
    constants: Constants = Constants()
    toggles: Toggles = Toggles()
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
        for name in _SCHEMA[Budgets]:
            if getattr(self.budgets, name) <= 0:
                raise ValueError(f"budget {name} must be positive")

    def to_dict(self) -> dict:
        # Shallow copies in field order; dataclasses.asdict deep-copies and costs
        # several times more.  Fields, not vars(), so the cached digest stays out.
        doc = {name: getattr(self, name) for name in _SCHEMA[SweepConfig]}
        for part in ("budgets", "constants", "toggles"):
            doc[part] = dict(vars(doc[part]))
        doc["toggles"]["r_list"] = list(self.toggles.r_list)
        return doc

    @cached_property
    def digest(self) -> str:
        """The config_hash of the emitted files: sha256 of the canonical JSON, 16 hex digits."""
        canon = _CANONICAL.encode(self.to_dict())
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

# Each config dataclass's fields in order, read once: name -> (check, what)
# for a field of a checked type, None for a section.
_SCHEMA = {
    cls: {f.name: _FIELD_CHECKS.get(f.type) for f in dc_fields(cls)}
    for cls in (SweepConfig, Budgets, Constants, Toggles)
}

# The config_hash's canonical form: sorted keys, no whitespace.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _from_dict(cls, data, where: str) -> dict:
    """data as a dict of cls's fields: it must be an object with known keys,
    and every scalar or tuple field must hold a value of its declared type."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    fields = _SCHEMA[cls]
    unknown = data.keys() - fields.keys()
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    out = dict(data)
    for key, value in data.items():
        rule = fields[key]
        if rule is not None:
            check, what = rule
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
_columns_of = attrgetter(*CSV_COLUMNS)


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
        lines.append(",".join(map(_cell, _columns_of(r))))
    return "\n".join(lines) + "\n"


def emit_json(rows: List[SweepRow], agg: dict, config: SweepConfig) -> str:
    """The sweep's JSON report, rendered by reemit_json: byte-identical to
    json.dumps(doc, indent=2, ensure_ascii=True) + "\n"."""
    doc = {
        "schema": SCHEMA,
        "config_hash": config.digest,
        "master_seed": config.master_seed,
        "config": config.to_dict(),
        "rows": [dict(zip(CSV_COLUMNS, _columns_of(r))) for r in rows],
        "aggregate": agg,
    }
    return reemit_json(doc)


def reemit_json(doc) -> str:
    """Canonical JSON rendering; parse -> reemit is byte-identical.

    The text is exactly json.dumps(doc, indent=2, ensure_ascii=True) + "\n",
    which tests/oracles.reemit_json_stdlib keeps as the reference, and it
    raises where that does.  json renders an indented document with its
    pure-Python encoder; here each flat container (one whose values are all
    scalars: a sweep row, a config section, the aggregate) is one call of
    json's C encoder, with the item separator of its depth, and Python walks
    only the levels that hold containers.
    """
    return _render(doc, 0, set()) + "\n"


def _floatstr(v: float) -> str:
    if v != v:
        return "NaN"
    if v in (math.inf, -math.inf):
        return "Infinity" if v > 0 else "-Infinity"
    return float.__repr__(v)


# JSON scalar type -> its text, as json writes it
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _floatstr,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
_SCALAR_TYPES = frozenset(_SCALARS)


@cache
def _level(depth: int):
    """For a container at this depth: its item separator, the breaks before
    its first item and before its closing bracket, and the encoder of a
    flat container there."""
    first = "\n" + "  " * (depth + 1)
    sep = "," + first
    flat = json.JSONEncoder(check_circular=False, separators=(sep, ": "))
    return sep, first, "\n" + "  " * depth, flat


def _render(o, depth: int, markers: set) -> str:
    """o rendered as json.dumps(indent=2) renders it at this depth."""
    render = _SCALARS.get(type(o))
    if render is not None:
        return render(o)
    is_dict = isinstance(o, dict)
    if not (is_dict or isinstance(o, (list, tuple))):
        return _scalar_subclass(o)
    brackets = "{}" if is_dict else "[]"
    if not o:
        return brackets
    sep, first, last, flat = _level(depth)
    if _SCALAR_TYPES.issuperset(map(type, o.values() if is_dict else o)):
        text = flat.encode(o)
        return text[0] + first + text[1:-1] + last + text[-1]
    if id(o) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(o))
    if is_dict:
        items = [_key(k) + ": " + _render(v, depth + 1, markers) for k, v in o.items()]
    else:
        items = [_render(v, depth + 1, markers) for v in o]
    markers.remove(id(o))
    return brackets[0] + first + sep.join(items) + last + brackets[1]


def _scalar_subclass(v) -> str:
    # a subclass of a JSON scalar type renders as its base; anything else is refused
    for base in (str, int, float):
        if isinstance(v, base):
            return _SCALARS[base](v)
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    # json writes a scalar key as the string of its scalar text
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _render(k, 0, None) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")

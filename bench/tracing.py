"""Outside-in span tracer for concatgv sweeps.

Spans are recorded around the calls that ``concatgv.sweep`` makes into the
other concatgv modules.  The wrapped calls are discovered at run time: every
function or class bound in the ``concatgv.sweep`` namespace whose
``__module__`` is another concatgv module gets a span, so a call that a later
refactor adds to the sweep is traced without editing this file.
``sweep.run_trial`` is wrapped too, to tag every span with its trial index.
``FieldCtx.mul``, the rank functions of ``linalg`` and
``certify.smooth_min_entropy`` are wrapped as counters only.  A counter whose
target no longer exists reads 0.

``Tracer.installed()`` patches the program and restores it on exit, so
untraced sweeps in the same process run the program's own functions.  Spans
stay in memory until the caller takes them with ``Tracer.take()``.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

# Spans whose group is not simply their module.  The dominant-layer check
# and the per-layer metrics use these names.
GROUPS = {
    "certify.entropy_hypothesis": "certify.entropy",
    "certify.soft_condition": "certify.soft",
    "certify.check_nice": "certify.nice",
    "moments.moment_dual": "moments.dual",
    "moments.moment_direct": "moments.direct",
}

# Spans whose own time is not attributed to any layer.
CONTAINERS = ("bench.sweep", "sweep.run_sweep", "sweep.run_trial")

SAMPLERS = ("linalg.sample_binary_code", "linalg.sample_field_code")


def group(name: str) -> str:
    return GROUPS.get(name, name.split(".")[0])


def _dim(code) -> int:
    """Binary dimension of a BinaryCode or ConcatCode."""
    return code.K if hasattr(code, "K") else code.k0


def _enumerated(b, result) -> int:
    if b["mode"] != "exact":
        return b["budget"]
    if b["msg_range"] is not None:
        return b["msg_range"][1] - b["msg_range"][0]
    return 1 << _dim(b["code"])


def _soft_terms(b, result) -> int:
    if not result.is_exact:
        return result.draws
    outer = b["outer"]
    return outer.ctx.q ** (outer.n - outer.k) - 1  # nonzero dual codewords


# Work done by one call, counted from its arguments and result: messages
# enumerated, codewords checked, dual terms summed, tuples visited.
WORK: Dict[str, Callable] = {
    "codes.min_distance": _enumerated,
    "codes.weight_distribution": lambda b, res: res.total,
    "certify.entropy_hypothesis": lambda b, res: res.n_checked,
    "certify.soft_condition": _soft_terms,
    "moments.moment_dual": lambda b, res: (b["cc"].outer.n * b["cc"].inner.n0) ** b["r"],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    trial: Optional[int]
    work: int = 0
    exact: Optional[bool] = None  # soft_condition only: result.is_exact
    child_s: float = 0.0  # time covered by direct children

    @property
    def dur_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur_s - self.child_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trial": self.trial,
            "work": self.work,
            "self_s": self.self_s,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._trial: Optional[int] = None

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            if name == "sweep.run_trial":
                self._trial = args[1] if len(args) > 1 else kwargs["trial"]
            span = Span(name, 0.0, 0.0, parent, self._trial)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.dur_s
                if name == "sweep.run_trial":
                    self._trial = None
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work(bound.arguments, result)
                if name == "certify.soft_condition":
                    span.exact = result.is_exact
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key: str, fn, by_span: bool = False):
        counts, spans, stack = self.counts, self.spans, self._stack

        if by_span:
            def counted(*args, **kwargs):
                where = spans[stack[-1]].name if stack else "-"
                counts[f"{key}@{where}"] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def take(self):
        """(spans, counts) recorded since the last take, and reset both."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, program):
        """Patch the modules in ``program`` (a namespace holding sweep,
        field, linalg and certify) for the duration of the block."""
        sweep = program.sweep
        patches = []
        for attr, obj in list(vars(sweep).items()):
            module = getattr(obj, "__module__", None) or ""
            if (
                (inspect.isfunction(obj) or inspect.isclass(obj))
                and module.startswith("concatgv.")
                and module != sweep.__name__
            ):
                patches.append((sweep, attr, self.wrap(f"{module.split('.')[-1]}.{attr}", obj)))
        patches.append((sweep, "run_trial", self.wrap("sweep.run_trial", sweep.run_trial)))
        counters = [
            (getattr(program.field, "FieldCtx", None), "mul", "field.mul", False),
            (program.linalg, "rank", "linalg.rank", True),
            (program.linalg, "gf2_rank", "linalg.rank", True),
            (program.certify, "smooth_min_entropy", "certify.smooth_min_entropy", False),
        ]
        for owner, attr, key, by_span in counters:
            if owner is not None and hasattr(owner, attr):
                patches.append((owner, attr, self._counter(key, getattr(owner, attr), by_span)))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)


# -- per-layer metrics ------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sweep_metrics(spans: List[Span], counts: Counter) -> dict:
    """Per-layer metrics of one traced sweep (one ``bench.sweep`` root)."""
    dur: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    for s in spans:
        dur[s.name] += s.dur_s
        own[s.name] += s.self_s
        calls[s.name] += 1
        work[s.name] += s.work

    def ms(*names):
        return 1e3 * sum(dur[n] for n in names)

    enumerate_ms = ms("codes.min_distance", "codes.weight_distribution")
    messages = work["codes.min_distance"] + work["codes.weight_distribution"]
    entropy_ms = ms("certify.entropy_hypothesis")
    soft_ms = ms("certify.soft_condition")
    soft_spans = [s for s in spans if s.name == "certify.soft_condition"]
    dual_ms = ms("moments.moment_dual")
    draws = sum(counts[f"linalg.rank@{n}"] for n in SAMPLERS)
    wall = dur["bench.sweep"]
    return {
        "field.make_field_ms": _ratio(ms("field.make_field"), calls["field.make_field"]),
        "field.mul_calls": counts["field.mul"],
        "linalg.sample_ms": ms(*SAMPLERS),
        "linalg.sample_accept_ratio": _ratio(sum(calls[n] for n in SAMPLERS), draws),
        "codes.enumerate_ms": enumerate_ms,
        "codes.messages": messages,
        "codes.ns_per_message": _ratio(enumerate_ms * 1e6, messages),
        "codes.construct_ms": ms("codes.BinaryCode", "codes.OuterCode", "codes.ConcatCode"),
        "certify.entropy_ms": entropy_ms,
        "certify.entropy_codewords": work["certify.entropy_hypothesis"],
        "certify.smooth_min_entropy_calls": counts["certify.smooth_min_entropy"],
        "certify.us_per_codeword": _ratio(entropy_ms * 1e3, work["certify.entropy_hypothesis"]),
        "certify.soft_ms": soft_ms,
        "certify.soft_terms": work["certify.soft_condition"],
        "certify.ns_per_soft_term": _ratio(soft_ms * 1e6, work["certify.soft_condition"]),
        "certify.soft_exact_frac": _ratio(sum(bool(s.exact) for s in soft_spans), len(soft_spans)),
        "certify.nice_ms": ms("certify.check_nice"),
        "moments.dual_ms": dual_ms,
        "moments.direct_ms": ms("moments.moment_direct"),
        "moments.tuples": work["moments.moment_dual"],
        "moments.ns_per_tuple": _ratio(dual_ms * 1e6, work["moments.moment_dual"]),
        "sweep.trial_self_ms": 1e3 * own["sweep.run_trial"],
        "sweep.emit_ms": ms("sweep.emit_csv", "sweep.emit_json"),
        "sweep.config_ms": ms("sweep.config_from_dict"),
        "trace.unattributed_frac": _ratio(sum(own[n] for n in CONTAINERS), wall),
        "trace.wall_s": wall,
    }


def group_self_s(spans: List[Span]) -> Dict[str, float]:
    """Self time per layer group, containers excluded, largest first."""
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name not in CONTAINERS:
            out[group(s.name)] += s.self_s
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))

"""Exact moment identities, bad-message bounds, W-counts, and Poissonization.

The central identity equates two very different computations of the r-th
moment of the bias over random nonzero messages:

  direct: enumerate all q^k messages and average X_m^r;
  dual:   count the ordered r-tuples of (coordinate, omega-entry) pairs whose
          folded vector g lies in the outer dual.

Both sides are exact rationals (fractions.Fraction) and must agree exactly;
floats appear only in reports.  Each pair XORs one mask into g (packed in
n * k0 bits) or into its outer syndrome (k * k0 bits); the code builds both
mask sets once (``ConcatCode.g_masks``, ``ConcatCode.syndrome_masks``).  A
mask is its own XOR inverse, so an r-tuple folds to 0 iff its first r // 2
masks and its last r - r // 2 fold to the same state: the count meets in the
middle, walking only ceil(r/2) - 1 steps of a state -> count map from the
masks, in work bounded by ``walk_work`` rather than the m^r tuples
(m = n * n0).  The map is a sparse dict until the live states fill enough of
the table, then an int64 array stepped by one gather per mask.  The
Poissonization check takes that dense step on a float table over all of
GF(q)^n.  A Walsh-Hadamard shortcut would turn the dual side into MacWilliams
over the messages, so the identity would check nothing; none is used.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

import numpy as np

from .certify import bernoulli_p, check_nice, d_pmf, tau_in_range
from .codes import ConcatCode, weight_distribution

# poisson_product_check stops adding Poisson terms once the mass left is below this.
TAIL_EPS = 1e-12


# The walk switches from a sparse dict to an int64 count array over all
# 2^bits states once the dense step is the cheaper one.  On a 2-CPU Xeon
# (Python 3.11, numpy 2.4) one sparse update cost as much as 16-40 dense
# entries, and each mask's gather a fixed 1-1.5 us, about 512 entries; so the
# dense step is taken once the live states times DENSE_ENTRIES_PER_UPDATE
# reach 2^bits + DENSE_CALL_ENTRIES, and on at most DENSE_MAX_STATES states
# (8 MB per array, the Poissonization check's tabulation cap).
DENSE_ENTRIES_PER_UPDATE = 16
DENSE_CALL_ENTRIES = 512
DENSE_MAX_STATES = 1 << 20


def walk_work(m: int, bits: int, r: int) -> int:
    """Bound on the work of ``zero_folds`` for m pairs on 2^bits states.

    The count meets in the middle, a = r // 2 and b = r - a: from the masks,
    b - 1 walk steps reach the b-tuple counts, and step t (t = 1..b-1) leaves
    at most min(2^bits, m^t) states, each moved by m masks; the final product
    reads at most min(2^bits, m^a) states.  In closed form: from t = bits + 1
    on, m^t >= 2^bits when m >= 2 and m^t = m when m < 2, so every later step
    costs what step bits + 1 does.  This is at most the (r-1)-step walk's
    bound, and for m >= 2 at most m^r.  A dense step visits all 2^bits states
    per distinct mask, but is taken only where it is measured to be faster
    than the sparse step it replaces.
    """
    if r == 0:
        return 1
    a, b = r // 2, r - r // 2
    cap, last = 1 << bits, min(b - 1, bits + 1)
    steps = sum(min(cap, m**t) for t in range(1, last + 1)) + (b - 1 - last) * min(cap, m**last)
    return steps * m + min(cap, m ** min(a, bits + 1))


def _walk_step(dist: Dict[int, int], masks: Counter) -> Dict[int, int]:
    """One walk step: every state moves by every mask, weighted by its multiplicity."""
    out: Dict[int, int] = {}
    get = out.get
    moves = list(masks.items())
    for state, w in dist.items():
        for mask, mult in moves:
            t = state ^ mask
            out[t] = get(t, 0) + w * mult
    return out


def _dense_step(dist: np.ndarray, masks: Counter) -> np.ndarray:
    """``_walk_step`` on an int or float array over all states: one gather per mask."""
    index = np.arange(len(dist))
    out = np.zeros_like(dist)
    for mask, mult in masks.items():
        moved = dist[index ^ mask]
        if mult != 1:
            moved *= mult
        out += moved
    return out


def _pair_sum(low: Dict[int, int] | np.ndarray, high: Dict[int, int] | np.ndarray) -> int:
    """sum over states x of low[x] * high[x], in Python ints.  The walk
    densifies at the top of a step, whose input becomes low and output high,
    so the two are both dicts or both arrays."""
    if isinstance(high, np.ndarray):
        return sum(map(operator.mul, low.tolist(), high.tolist()))
    get = high.get
    return sum(w * get(x, 0) for x, w in low.items())


def zero_folds(masks: Counter, bits: int, r: int, budget: int) -> int:
    """Exact number of r-tuples of masks (with multiplicity) whose XOR is 0.

    Each mask is its own XOR inverse, so a tuple folds to 0 iff its first
    a = r // 2 masks fold to the same state as its last b = r - a; the count
    is sum_x N_a(x) N_b(x), where N_t(x) counts the t-tuples folding to x.
    N_0 is {0: 1} and N_1 the masks themselves, so only b - 1 steps are
    walked.  Counts stay in a sparse dict of Python ints until the live
    states fill enough of a table of at most DENSE_MAX_STATES entries; from
    there the walk steps an int64 array, which holds every count as long as
    m^b < 2^63.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    m = sum(masks.values())
    work = walk_work(m, bits, r)
    if work > budget:
        raise ValueError(f"walk work {work} exceeds budget {budget}")
    if r == 0:
        return 1
    a, b = r // 2, r - r // 2
    cap = 1 << bits
    # every count of the walk fits an int64 table of at most DENSE_MAX_STATES
    dense_ok = cap <= DENSE_MAX_STATES and b < 63 and m**b < 1 << 63
    low: Dict[int, int] | np.ndarray = {0: 1}
    high: Dict[int, int] | np.ndarray = masks
    for _ in range(b - 1):
        if (
            dense_ok
            and isinstance(high, dict)
            and len(high) * DENSE_ENTRIES_PER_UPDATE >= cap + DENSE_CALL_ENTRIES
        ):
            table = np.zeros(cap, dtype=np.int64)
            table[list(high)] = list(high.values())
            high = table
        step = _dense_step if isinstance(high, np.ndarray) else _walk_step
        low, high = high, step(high, masks)
    return _pair_sum(high if a == b else low, high)


def moment_dual(cc: ConcatCode, r: int, budget: int = 1 << 27) -> Fraction:
    """E over nonzero messages of X_m^r, through the dual-side tuple sum.  Exact.

    Must equal the direct side, ``weight_distribution(cc).moment(r)``, on
    every instance, as rationals; the test suite enforces that equality
    across a whole grid of instances.
    """
    qk = cc.ctx.q**cc.outer.k
    m = cc.outer.n * cc.inner.n0
    n_dual = zero_folds(cc.syndrome_masks, cc.outer.k * cc.ctx.k0, r, budget)
    return Fraction(qk * n_dual - m**r, qk - 1)


@dataclass(frozen=True)
class BadBoundReport:
    r: int
    c: float
    threshold: Fraction  # c * eps * N with eps = k0/n0
    b_r: Fraction
    bad_count: int


def bad_bound(
    cc: ConcatCode, r: int, c: float, budget: int = 1 << 27
) -> BadBoundReport:
    """The bad-message budget B_r and the exact count of bad messages.

    A nonzero message is bad when |X_m| >= c * eps * N (eps = k0/n0, the rate
    tied to Omega).  B_r = q^k * moment_dual / threshold^r is Markov's bound on
    the r-th moment, an exact rational; bad_count <= B_r for every even r.
    """
    if r < 0 or r % 2 != 0:
        raise ValueError(f"r must be a nonnegative even integer, got {r}")
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    qk = cc.ctx.q**cc.outer.k
    if qk > budget:
        raise ValueError(f"message count {qk} exceeds budget {budget}")
    eps = Fraction(cc.inner.k0, cc.inner.n0)
    threshold = Fraction(c) * eps * cc.N
    b_r = qk * moment_dual(cc, r, budget) / threshold**r
    wd = weight_distribution(cc, budget)
    bad = sum(count for w, count in wd.nonzero_messages() if abs(cc.N - 2 * w) >= threshold)
    return BadBoundReport(r, c, threshold, b_r, bad)


@dataclass(frozen=True)
class WCountReport:
    r: int
    count: int
    bound: float
    tau: float
    nice: bool | None  # None when tau = 1/sqrt(n0) >= eps, so niceness is undefined


def w_count_bound(N: int, n0: int, eps: float, r: int) -> float:
    """The counting bound (8N)^r (r/N)^(r/2) 2^(2N/sqrt(n0) + log2 N) max(1, re/(eps^2 N))^(r/2)."""
    core = (8.0 * N) ** r * (r / N) ** (r / 2)
    ratio_pow = max(1.0, r * math.e / (eps * eps * N)) ** (r / 2)
    return core * 2.0 ** (2.0 * N / math.sqrt(n0) + math.log2(N)) * ratio_pow


def count_W(cc: ConcatCode, r: int, budget: int = 1 << 27) -> WCountReport:
    """Exact count of tuples whose parity matrix kills the inner generator.

    Those are exactly the tuples folding to g = 0.  The bound is asserted by
    callers only when the inner code passes the tau = 1/sqrt(n0) niceness
    check; when that tau is not below the inner rate the check is undefined
    at this instance size and ``nice`` is None.
    """
    n_zero = zero_folds(cc.g_masks, cc.outer.n * cc.ctx.k0, r, budget)
    n0 = cc.inner.n0
    eps = cc.inner.k0 / n0
    tau = 1.0 / math.sqrt(n0)
    nice: bool | None = None
    if tau_in_range(tau, cc.inner.k0, n0):
        nice = check_nice(cc.inner, tau).ok
    bound = w_count_bound(cc.N, n0, eps, r)
    return WCountReport(r, n_zero, bound, tau, nice)


def _poisson_mixture(cc: ConcatCode, lam: float) -> np.ndarray:
    """Side (a) of ``poisson_product_check``, the Poissonized tuple law of g as
    a table over GF(q)^n: draw r ~ Poisson(lam * N) (truncated once the
    remaining tail mass is below TAIL_EPS), then a uniform length-r tuple, and
    fold it to g.  Each r adds the r-step dense walk on all q^n states (at
    most DENSE_MAX_STATES) with weight 1/m per pair."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")
    states = cc.ctx.q**cc.outer.n
    if states > DENSE_MAX_STATES:  # 2^20
        raise ValueError(f"state space {states} exceeds tabulation budget 2^20")
    m = cc.outer.n * cc.inner.n0
    mean = lam * m
    pois = math.exp(-mean)
    if pois == 0.0:
        raise ValueError(f"Poisson weight exp(-lam * m) underflows to 0 at lam * m = {mean}")
    walk = np.zeros(states)
    walk[0] = 1.0
    mix = pois * walk
    covered = pois
    r = 0
    while 1.0 - covered > TAIL_EPS:
        walk = _dense_step(walk, cc.g_masks) / m
        r += 1
        pois *= mean / r
        covered += pois
        mix += pois * walk
    return mix


def poisson_product_check(cc: ConcatCode, lam: float) -> float:
    """Max pointwise gap between the Poissonized tuple law of g and the product law.

    Side (a) is ``_poisson_mixture``.  Side (b): the product over coordinates
    of the sparse combination pmf with p = (1 - e^(-2 lam)) / 2.  The gap is
    bounded by the truncated tail plus rounding.
    """
    mix = _poisson_mixture(cc, lam)
    pm = d_pmf(cc.ctx, cc.omega, bernoulli_p(lam, 1.0))  # p = (1 - e^(-2 lam)) / 2
    coord = np.asarray(pm.probs)
    prod = np.ones(1)
    for _ in range(cc.outer.n):
        prod = np.kron(prod, coord)  # same pmf per coordinate, digit order moot
    return float(np.max(np.abs(mix - prod)))

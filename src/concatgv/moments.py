"""Exact moment identities, bad-message bounds, W-counts, and Poissonization.

The central identity equates two very different computations of the r-th
moment of the bias over random nonzero messages:

  direct: enumerate all q^k messages and average X_m^r;
  dual:   count the ordered r-tuples of (coordinate, omega-entry) pairs whose
          folded vector g lies in the outer dual.

Both sides are exact rationals (fractions.Fraction) and must agree exactly;
floats appear only in reports.  Each pair XORs one mask into g (packed in
n * k0 bits) or into its outer syndrome (k * k0 bits), so an r-step walk on a
sparse state -> count dict counts the m^r tuples (m = n * n0) per endpoint in
work bounded by ``walk_work``.  The Poissonization check runs the same walk
with float weights.  A Walsh-Hadamard shortcut would turn the dual side into
MacWilliams over the messages, so the identity would check nothing; none is used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict

import numpy as np

from .certify import bernoulli_p, check_nice, d_pmf, tau_in_range
from .codes import ConcatCode, weight_distribution

# poisson_product_check stops adding Poisson terms once the mass left is below this.
TAIL_EPS = 1e-12


def _g_masks(cc: ConcatCode) -> Counter:
    """XOR masks of the (alpha, beta) pairs on the packed g, which holds
    coordinate alpha in bits [alpha*k0, (alpha+1)*k0).  Omega may repeat
    entries or contain 0, so each mask maps to its multiplicity."""
    k0 = cc.ctx.k0
    return Counter(b << (alpha * k0) for alpha in range(cc.outer.n) for b in cc.omega)


def _syndrome_masks(cc: ConcatCode) -> Counter:
    """The same pairs' masks on the outer syndrome gen @ g, row i packed in
    bits [i*k0, (i+1)*k0): pair (alpha, b) adds b * gen[i][alpha] to row i."""
    ctx = cc.ctx
    gen = cc.outer.gen.rows
    return Counter(
        sum(ctx.mul(row[alpha], b) << (i * ctx.k0) for i, row in enumerate(gen))
        for alpha in range(cc.outer.n)
        for b in cc.omega
    )


def walk_work(m: int, bits: int, r: int) -> int:
    """Bound on the state-mask updates of ``zero_folds`` for m pairs on 2^bits states.

    Step t (t = 0..r-2) leaves at most min(2^bits, m^t) states, each moved by
    m masks; the final read looks up m masks.  For m >= 2 this is <= m^r.
    """
    if r == 0:
        return 1
    cap = 1 << bits
    work, states, steps = m, 1, r - 1
    while steps and states < cap:  # r comes from configs: never build m^t for large t
        work += states * m
        states *= m
        steps -= 1
    return work + steps * cap * m


def _walk_step(dist: Dict[int, Any], masks: Counter, scale: Any = 1) -> Dict[int, Any]:
    """One walk step: every state moves by every mask, weighted by multiplicity * scale."""
    out: Dict[int, Any] = {}
    get = out.get
    moves = [(mask, mult * scale) for mask, mult in masks.items()]
    for state, w in dist.items():
        for mask, mw in moves:
            t = state ^ mask
            out[t] = get(t, 0) + w * mw
    return out


def zero_folds(masks: Counter, bits: int, r: int, budget: int) -> int:
    """Exact number of r-tuples of masks (with multiplicity) whose XOR is 0.

    After r - 1 steps from 0, the last mask closes a tuple iff it equals the state.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    work = walk_work(sum(masks.values()), bits, r)
    if work > budget:
        raise ValueError(f"walk work {work} exceeds budget {budget}")
    if r == 0:
        return 1
    dist: Dict[int, int] = {0: 1}
    for _ in range(r - 1):
        dist = _walk_step(dist, masks)
    return sum(mult * dist.get(mask, 0) for mask, mult in masks.items())


def moment_dual(cc: ConcatCode, r: int, budget: int = 1 << 27) -> Fraction:
    """E over nonzero messages of X_m^r, through the dual-side tuple sum.  Exact.

    Must equal the direct side, ``weight_distribution(cc).moment(r)``, on
    every instance, as rationals; the test suite enforces that equality
    across a whole grid of instances.
    """
    qk = cc.ctx.q**cc.outer.k
    m = cc.outer.n * cc.inner.n0
    n_dual = zero_folds(_syndrome_masks(cc), cc.outer.k * cc.ctx.k0, r, budget)
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
    if r == 0:
        ratio_pow = 1.0
        core = 1.0
    else:
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
    n_zero = zero_folds(_g_masks(cc), cc.outer.n * cc.ctx.k0, r, budget)
    n0 = cc.inner.n0
    eps = cc.inner.k0 / n0
    tau = 1.0 / math.sqrt(n0)
    nice: bool | None = None
    if tau_in_range(tau, cc.inner.k0, n0):
        nice = check_nice(cc.inner, tau).ok
    bound = w_count_bound(cc.N, n0, eps, r)
    return WCountReport(r, n_zero, bound, tau, nice)


def poisson_product_check(cc: ConcatCode, lam: float) -> float:
    """Max pointwise gap between the Poissonized tuple law of g and the product law.

    Side (a): draw r ~ Poisson(lam * N) (truncated once the remaining tail
    mass is below TAIL_EPS), then a uniform length-r tuple, and fold it to
    g; the law is computed exactly by the r-step walk on GF(q)^n with weight
    1/m per pair.  Side (b): the product over coordinates of the sparse
    combination pmf with p = (1 - e^(-2 lam)) / 2.  The gap is bounded by the
    truncated tail plus rounding.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    ctx = cc.ctx
    n = cc.outer.n
    states = ctx.q**n
    if states > 1 << 20:
        raise ValueError(f"state space {states} exceeds tabulation budget 2^20")
    m = n * cc.inner.n0
    mean = lam * m
    pois = math.exp(-mean)
    if pois == 0.0:
        raise ValueError(f"Poisson weight exp(-lam * m) underflows to 0 at lam * m = {mean}")
    g_masks = _g_masks(cc)

    # Side (a): mixture over r of the r-step walk.
    walk: Dict[int, float] = {0: 1.0}
    mix = np.zeros(states)
    mix[0] = pois
    covered = pois
    r = 0
    while 1.0 - covered > TAIL_EPS:
        walk = _walk_step(walk, g_masks, 1.0 / m)
        r += 1
        pois *= mean / r
        covered += pois
        for state, w in walk.items():
            mix[state] += pois * w

    # Side (b): product of per-coordinate pmfs.
    pm = d_pmf(ctx, cc.omega, bernoulli_p(lam, 1.0))  # p = (1 - e^(-2 lam)) / 2
    coord = np.asarray(pm.probs)
    prod = np.ones(1)
    for _ in range(n):
        prod = np.kron(prod, coord)  # same pmf per coordinate, digit order moot

    return float(np.max(np.abs(mix - prod)))

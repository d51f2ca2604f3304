"""Exact moment identities, bad-message bounds, W-counts, and Poissonization.

The central identity equates two very different computations of the r-th
moment of the bias over random nonzero messages:

  direct: enumerate all q^k messages and average X_m^r;
  dual:   enumerate all (n * n0)^r ordered tuples of (coordinate, omega-entry)
          pairs and count how many land their folded vector g in the outer
          dual.

Both sides are exact rationals (fractions.Fraction) and must agree exactly;
floats appear only in reports.  Tuple enumeration runs an odometer over r
digits in base n * n0 with incremental updates, so each step costs O(1): the
folded vector g and its outer syndrome are packed into single ints and
updated by XOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .certify import check_nice, d_pmf
from .codes import ConcatCode, weight_distribution


def g_of_tuple(cc: ConcatCode, pairs: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """Fold a tuple of (coordinate, omega-index) pairs into a vector over GF(q).

    Coordinate alpha of the result is the field sum of the omega entries
    listed at alpha; empty coordinates are zero.
    """
    n = cc.outer.n
    omega = cc.omega
    g = [0] * n
    for alpha, beta in pairs:
        if not 0 <= alpha < n:
            raise IndexError(f"coordinate {alpha} out of range [0, {n})")
        if not 0 <= beta < len(omega):
            raise IndexError(f"omega index {beta} out of range [0, {len(omega)})")
        g[alpha] ^= omega[beta]
    return tuple(g)


def _pair_deltas(cc: ConcatCode) -> Tuple[List[int], List[int]]:
    """Per-(alpha, beta) XOR deltas for the packed folded vector and its syndrome.

    g packs coordinate alpha into bits [alpha*k0, (alpha+1)*k0); the syndrome
    gen @ g packs row i of the outer generator product the same way.  Both are
    GF(2)-linear in the tuple, so one XOR per odometer step updates them.
    """
    ctx = cc.ctx
    k0 = ctx.k0
    n = cc.outer.n
    omega = cc.omega
    gen = cc.outer.gen.rows
    g_delta = []
    syn_delta = []
    for alpha in range(n):
        for b in omega:
            g_delta.append(b << (alpha * k0))
            syn = 0
            for i, row in enumerate(gen):
                syn |= ctx.mul(row[alpha], b) << (i * k0)
            syn_delta.append(syn)
    return g_delta, syn_delta


def tuple_counts(cc: ConcatCode, r: int, budget: int = 1 << 27) -> Tuple[int, int]:
    """(#tuples with g in the outer dual, #tuples with g = 0) over ([n] x Omega)^r.

    Odometer over r digits in base m = n * n0; each step XORs the deltas of
    the digits it changes into the packed g and syndrome.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    m = cc.outer.n * cc.inner.n0
    if m**r > budget:
        raise ValueError(f"tuple count {m}^{r} exceeds budget {budget}")
    g_delta, syn_delta = _pair_deltas(cc)
    digits = [0] * r
    g = syn = 0
    if r & 1:  # the r starting digits each contribute delta[0]; pairs cancel
        g ^= g_delta[0]
        syn ^= syn_delta[0]
    n_dual = 0
    n_zero = 0
    for _ in range(m**r):
        if syn == 0:
            n_dual += 1
            if g == 0:
                n_zero += 1
        i = 0
        while i < r:
            d = digits[i]
            g ^= g_delta[d]
            syn ^= syn_delta[d]
            if d + 1 == m:
                digits[i] = 0
                g ^= g_delta[0]
                syn ^= syn_delta[0]
                i += 1
            else:
                digits[i] = d + 1
                g ^= g_delta[d + 1]
                syn ^= syn_delta[d + 1]
                break
    return n_dual, n_zero


def moment_direct(cc: ConcatCode, r: int, budget: int = 1 << 24) -> Fraction:
    """E over nonzero messages of X_m^r, by message enumeration.  Exact."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    qk = cc.ctx.q**cc.outer.k
    if qk > budget:
        raise ValueError(f"message count {qk} exceeds budget {budget}")
    wd = weight_distribution(cc, budget)
    total = sum(count * (cc.N - 2 * w) ** r for w, count in wd.nonzero_messages())
    return Fraction(total, qk - 1)


def moment_dual(cc: ConcatCode, r: int, budget: int = 1 << 27) -> Fraction:
    """The same moment through the dual-side tuple sum.  Exact.

    Must equal ``moment_direct`` on every instance, as rationals; the test
    suite enforces that equality across a whole grid of instances.
    """
    qk = cc.ctx.q**cc.outer.k
    m = cc.outer.n * cc.inner.n0
    n_dual, _ = tuple_counts(cc, r, budget)
    return Fraction(qk * n_dual - m**r, qk - 1)


@dataclass(frozen=True)
class BadBoundReport:
    r: int
    c: float
    threshold: Fraction  # c * eps * N with eps = k0/n0
    b_r: Fraction
    bad_count: int

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "c": self.c,
            "threshold": float(self.threshold),
            "b_r": float(self.b_r),
            "bad_count": self.bad_count,
        }


def bad_bound(
    cc: ConcatCode, r: int, c: float, budget: int = 1 << 27
) -> BadBoundReport:
    """The bad-message budget B_r and the exact count of bad messages.

    A nonzero message is bad when |X_m| >= c * eps * N (eps = k0/n0, the rate
    tied to Omega).  B_r is computed as an exact rational; bad_count <= B_r
    holds for every even r.
    """
    if r < 0 or r % 2 != 0:
        raise ValueError(f"r must be a nonnegative even integer, got {r}")
    qk = cc.ctx.q**cc.outer.k
    if qk > budget:
        raise ValueError(f"message count {qk} exceeds budget {budget}")
    m = cc.outer.n * cc.inner.n0
    eps = Fraction(cc.inner.k0, cc.inner.n0)
    threshold = Fraction(c) * eps * cc.N
    n_dual, _ = tuple_counts(cc, r, budget)
    b_r = (
        Fraction(qk, qk - 1)
        * Fraction(qk * n_dual - m**r)
        / (threshold**r)
    )
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

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "count": self.count,
            "bound": self.bound,
            "tau": self.tau,
            "nice": self.nice,
        }


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
    if r < 0:
        raise ValueError("r must be nonnegative")
    _, n_zero = tuple_counts(cc, r, budget)
    n0 = cc.inner.n0
    eps = cc.inner.k0 / n0
    tau = 1.0 / math.sqrt(n0)
    nice: bool | None = None
    if 0 < tau < eps:
        nice = check_nice(cc.inner, tau).ok
    bound = w_count_bound(cc.N, n0, eps, r)
    return WCountReport(r, n_zero, bound, tau, nice)


def poisson_product_check(
    cc: ConcatCode, lam: float, tail_eps: float = 1e-12
) -> float:
    """Max pointwise gap between the Poissonized tuple law of g and the product law.

    Side (a): draw r ~ Poisson(lam * N) (truncated once the remaining tail
    mass is below tail_eps), then a uniform length-r tuple, and fold it to
    g; the law is computed exactly by dynamic programming (r-step random walk
    on GF(q)^n).  Side (b): the product over coordinates of the sparse
    combination pmf with p = (1 - e^(-2 lam)) / 2.  The gap is bounded by the
    truncated tail plus rounding.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not 0 < tail_eps < 1:
        raise ValueError("tail_eps must be in (0, 1)")
    ctx = cc.ctx
    k0 = ctx.k0
    n = cc.outer.n
    states = ctx.q**n
    if states > 1 << 20:
        raise ValueError(f"state space {states} exceeds tabulation budget 2^20")
    omega = cc.omega
    masks = [b << (alpha * k0) for alpha in range(n) for b in omega]
    m = len(masks)

    # Side (a): mixture over r of the r-step walk.
    idx = np.arange(states)
    walk = np.zeros(states)
    walk[0] = 1.0
    mix = np.zeros(states)
    mean = lam * m
    pois = math.exp(-mean)
    covered = pois
    mix += pois * walk
    r = 0
    while 1.0 - covered > tail_eps:
        step = np.zeros(states)
        for mask in masks:
            step += walk[idx ^ mask]
        walk = step / m
        r += 1
        pois *= mean / r
        covered += pois
        mix += pois * walk

    # Side (b): product of per-coordinate pmfs.
    p = (1.0 - math.exp(-2.0 * lam)) / 2.0
    pm = d_pmf(ctx, omega, p)
    coord = np.asarray(pm.probs)
    prod = np.ones(1)
    for _ in range(n):
        prod = np.kron(prod, coord)  # same pmf per coordinate, digit order moot

    return float(np.max(np.abs(mix - prod)))

"""Certifiers for the three sufficient conditions.

* tau-niceness of the inner code: every weight class of the inner dual holds
  at most binom(n0, i) * 2^(-n0 (eps - tau)) codewords, eps = k0/n0.
* soft-decoding condition on the outer code: the probability that an i.i.d.
  product of the sparse-combination distribution lands in the nonzero dual,
  compared against 1/q^k.
* smooth min-entropy of outer codewords' empirical symbol distributions.

C_TILDE_DEFAULT = 4 ln 2 and C_DEFAULT = 128 sqrt(e) are the documented
defaults for the free constants; they come from worst-case analysis slack,
not tuning, so sweeps should treat them as knobs.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .codes import BinaryCode, OuterCode, codeword_table, weight_distribution
from .field import FieldCtx
from .rng import SplitMix64

C_TILDE_DEFAULT = 4 * math.log(2)
C_DEFAULT = 128 * math.sqrt(math.e)


# ---------------------------------------------------------------------------
# Probability mass functions over the field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pmf:
    """A pmf over GF(2^k0), indexed by field element value."""

    ctx: FieldCtx
    probs: Tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != self.ctx.q:
            raise ValueError(f"pmf needs {self.ctx.q} entries, got {len(self.probs)}")
        if any(p < 0 for p in self.probs):
            raise ValueError("pmf entries must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {sum(self.probs)!r}, not 1")
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))

    def __getitem__(self, element: int) -> float:
        return self.probs[element]


def d_pmf(ctx: FieldCtx, omega: Sequence[int], p: float) -> Pmf:
    """Exact law of sum(zeta_b * b for b in omega), zeta_b i.i.d. Bernoulli(p).

    Sequential convolution over omega; field addition is XOR of values.
    Accumulation order is fixed (omega order) so results are bit-stable.
    """
    if not 0 <= p <= 0.5:
        raise ValueError(f"p={p} outside [0, 1/2]")
    if not omega:
        raise ValueError("omega must be nonempty")
    probs = [0.0] * ctx.q
    probs[0] = 1.0
    for b in omega:
        if b == 0:
            continue  # zeta * 0 never moves mass
        new = [0.0] * ctx.q
        for v, pv in enumerate(probs):
            if pv:
                new[v] += (1 - p) * pv
                new[v ^ b] += p * pv
        probs = new
    return Pmf(ctx, tuple(probs))


def bernoulli_p(c_tilde: float, eps: float) -> float:
    """The Bernoulli parameter (1 - e^(-2 c~ eps^2)) / 2 of the distribution D."""
    return (1.0 - math.exp(-2.0 * c_tilde * eps * eps)) / 2.0


def sample_pmf_many(pmf: Pmf, seed: int, count: int) -> List[int]:
    """Draws from an arbitrary pmf by CDF inversion (used by Monte Carlo modes):
    each draw is the first index whose cumulative probability exceeds u.  The
    CDF is 1 from the last nonzero entry on, so no u reaches a trailing zero."""
    cdf = list(itertools.accumulate(pmf.probs))
    last = max(i for i, p in enumerate(pmf.probs) if p)
    cdf[last:] = [1.0] * (len(cdf) - last)
    rng = SplitMix64(seed)
    return [bisect.bisect_right(cdf, rng.uniform()) for _ in range(count)]


# ---------------------------------------------------------------------------
# tau-niceness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NicenessReport:
    tau: float
    ok: bool
    per_weight: Tuple[Tuple[int, float], ...]  # (count, bound) for i = 1..n0
    worst_ratio: float


def check_nice(inner: BinaryCode, tau: float, budget: int = 1 << 20) -> NicenessReport:
    """Exact tau-niceness check of the inner code by enumerating its dual."""
    n0, k0 = inner.n0, inner.k0
    eps = k0 / n0
    if not 0 < tau < eps:
        raise ValueError(f"tau={tau} outside (0, eps={eps})")
    counts = weight_distribution(inner.dual(), budget).delta
    scale = 2.0 ** (-n0 * (eps - tau))
    per_weight = []
    worst = 0.0
    ok = True
    for i in range(1, n0 + 1):
        bound = math.comb(n0, i) * scale
        count = counts[i]
        per_weight.append((count, bound))
        if count > bound:
            ok = False
        if bound > 0:
            worst = max(worst, count / bound)
    return NicenessReport(tau, ok, tuple(per_weight), worst)


# ---------------------------------------------------------------------------
# Soft-decoding condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoftReport:
    prob: float
    delta: float
    is_exact: bool
    ci_low: float | None = None
    ci_high: float | None = None
    draws: int | None = None


def soft_condition(
    outer: OuterCode,
    pmf: Pmf,
    mode: str = "exact",
    budget: int = 1 << 20,
    seed: int = 0,
) -> SoftReport:
    """Pr[x ~ pmf^n lands in the nonzero dual], and delta = prob * q^k - 1.

    exact: sums prod(pmf[g_alpha]) over all q^(n-k) - 1 nonzero dual
    codewords, read off the dual's codeword table.  Each product is taken
    left to right over the coordinates and the terms are added one at a time
    in table order, so the float result does not depend on numpy's summation
    order.  The budget is checked on q^(n-k) before the dual is built.
    montecarlo: draws `budget` vectors x ~ pmf^n, tests dual membership, and
    returns a Wilson 95% confidence interval flagged is_exact=False.
    """
    if pmf.ctx != outer.ctx:
        raise ValueError("pmf field does not match outer code field")
    q = outer.ctx.q
    qk = q**outer.k
    if mode == "exact":
        size = q ** (outer.n - outer.k)
        if size > budget:
            raise ValueError(f"dual size {size} exceeds budget {budget}")
        words = codeword_table(outer.dual())[1:]  # skip the zero codeword
        probs = np.array(pmf.probs)
        terms = np.ones(len(words))
        for a in range(outer.n):
            terms *= probs[words[:, a]]
        # accumulate adds one term at a time, left to right; np.sum's pairwise
        # order rounds differently.  The leading 0.0 keeps an empty dual at 0.
        prob = float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])
        return SoftReport(prob, prob * qk - 1.0, True)
    if mode == "montecarlo":
        n = outer.n
        samples = sample_pmf_many(pmf, seed, budget * n)
        hits = 0
        for t in range(budget):
            x = samples[t * n : (t + 1) * n]
            if any(x) and outer.dual_membership(x):
                hits += 1
        phat, lo, hi = wilson_interval(hits, budget)
        return SoftReport(phat, phat * qk - 1.0, False, lo, hi, budget)
    raise ValueError(f"unknown mode {mode!r}")


def wilson_interval(hits: int, trials: int):
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    phat = hits / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return phat, lo, hi


# ---------------------------------------------------------------------------
# Smoothed min-entropy
# ---------------------------------------------------------------------------


def empirical_dist(ctx: FieldCtx, codeword: Sequence[int]) -> Pmf:
    """Empirical symbol distribution of a word over the field."""
    n = len(codeword)
    if n == 0:
        raise ValueError("empty codeword")
    counts = [0] * ctx.q
    for sym in codeword:
        counts[sym] += 1
    return Pmf(ctx, tuple(c / n for c in counts))


def smooth_min_entropy(pmf: Pmf, eta: float, halved_tv: bool = True) -> float:
    """Best min-entropy within total-variation distance eta, in bits.

    Water-filling: the optimal smoothed distribution caps every probability at
    a level t and refills the trimmed mass below the cap, which costs TV
    distance sum(max(P - t, 0)) under the halved convention
    Delta_TV = 1/2 sum|P - Q|.  With the unhalved convention the same move
    costs twice as much, so the budget is eta / 2.  The cap is the smallest
    t >= 1/q whose cost is within the budget, and the entropy is -log2(t).

    Closed form: with the nonzero probabilities sorted p_1 >= p_2 >= ...,
    the cost on [p_(j+1), p_j] is S_j - j t with S_j = p_1 + ... + p_j, so
    t = (S_j - budget) / j at the first j with t >= p_(j+1) (p_(m+1) = 0).
    Every float is a dyadic rational, so the probabilities and the budget are
    scaled to integers over one power of two: j and the 1/q floor are chosen
    by integer compares, and t is rounded once, as a quotient of integers.
    The result depends only on the multiset of probabilities.
    """
    if not 0 <= eta < 1:
        raise ValueError(f"eta={eta} outside [0, 1)")
    budget = eta if halved_tv else eta / 2.0
    q = pmf.ctx.q
    ratios = [p.as_integer_ratio() for p in sorted(pmf.probs, reverse=True) if p]
    b_num, b_den = budget.as_integer_ratio()
    scale = max(b_den, *(den for _, den in ratios))  # all powers of two
    probs = [num * (scale // den) for num, den in ratios]
    cost = b_num * (scale // b_den)
    head = 0
    for j, (p, below) in enumerate(zip(probs, probs[1:] + [0]), 1):
        head += p
        if head - cost >= j * below:
            break
    num, den = head - cost, j * scale
    if q * num <= den:  # the cap 1/q is within the budget
        return math.log2(q)
    return max(0.0, -math.log2(num / den))


@dataclass(frozen=True)
class EntropyReport:
    eta: float
    threshold: float
    min_entropy: float
    ok: bool
    n_checked: int
    n0_ratio: float | None = None  # n0 * eps^2 / log2(1/eps), reported not asserted


def entropy_hypothesis(
    outer: OuterCode,
    cgamma: float,
    ceta: float,
    budget: int = 1 << 20,
    n0: int | None = None,
    halved_tv: bool = True,
) -> EntropyReport:
    """Check every nonzero codeword's smoothed min-entropy against the
    threshold (1 - cgamma * eps) * log2(q), with smoothing level ceta * eps
    and eps the outer rate.

    The smoothed min-entropy of a codeword is a function of its empirical
    distribution's probability multiset, that is of the sorted multiset of
    its symbol counts (see :func:`smooth_min_entropy`).  The codeword table's
    rows are grouped by count profile: the run boundaries of the sorted row,
    packed into uint64 words and grouped by one stable lexsort.  Each profile
    maps to its sorted count multiset, and each multiset is evaluated once,
    on one codeword that has it.  n_checked still counts every nonzero
    codeword.
    """
    ctx = outer.ctx
    q = ctx.q
    if q**outer.k > budget:
        raise ValueError(f"codeword count {q**outer.k} exceeds budget {budget}")
    eps = outer.k / outer.n
    eta = ceta * eps
    if not 0 <= eta < 1:
        raise ValueError(f"smoothing level ceta*eps = {eta} outside [0, 1)")
    threshold = (1.0 - cgamma * eps) * math.log2(q)
    words = codeword_table(outer)[1:]
    # The run boundaries of a sorted codeword fix its run lengths, which are
    # its nonzero symbol counts in increasing symbol value.  The n - 1
    # boundary bits are packed into as many uint64 words as they need.
    runs = np.sort(words, axis=1)
    bits = np.packbits(runs[:, 1:] != runs[:, :-1], axis=1)
    keys = np.zeros((len(words), bits.shape[1] // 8 + 1), np.uint64)
    keys.view(np.uint8)[:, : bits.shape[1]] = bits
    order = np.lexsort(keys.T)
    ordered = keys[order]
    starts = np.ones(len(order), bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    multisets = {}
    for i in order[starts].tolist():
        word = words[i].tolist()
        multisets.setdefault(tuple(sorted(map(word.count, set(word)))), word)
    min_entropy = min(
        (smooth_min_entropy(empirical_dist(ctx, word), eta, halved_tv) for word in multisets.values()),
        default=math.inf,
    )
    n_checked = len(words)
    ratio = None
    if n0 is not None and 0 < eps < 1:
        ratio = n0 * eps * eps / math.log2(1.0 / eps)
    return EntropyReport(eta, threshold, min_entropy, min_entropy >= threshold, n_checked, ratio)

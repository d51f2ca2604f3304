"""Certifiers for the three sufficient conditions.

* tau-niceness of the inner code: every weight class of the inner dual holds
  at most binom(n0, i) * 2^(-n0 (eps - tau)) codewords, eps = k0/n0.  The
  dual's weight counts come by the MacWilliams identity from the inner code's
  weight distribution (BinaryCode.span_weights, which the soft enumerator
  reads too); no dual is built.
* soft-decoding condition on the outer code: the probability that an i.i.d.
  product of the sparse-combination distribution lands in the nonzero dual,
  compared against 1/q^k.  soft_enumerator gives it exactly, from the weight
  enumerators of the concatenated and inner codes; soft_condition sums the
  dual in floats or samples it.
* smooth min-entropy of outer codewords' empirical symbol distributions.

C_TILDE_DEFAULT = 4 ln 2 and C_DEFAULT = 128 sqrt(e) are the documented
defaults for the free constants; they come from worst-case analysis slack,
not tuning, so sweeps should treat them as knobs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .codes import BLOCK_BITS, BinaryCode, ConcatCode, OuterCode, WeightDistribution, codeword_table, weight_distribution
from .field import FieldCtx
from .linalg import nullspace_basis
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

    Sequential convolution over omega, one array step per nonzero entry b:
    P(v) <- (1 - p) P(v) + p P(v ^ b), two products added once (bit-stable).
    """
    if not 0 <= p <= 0.5:
        raise ValueError(f"p={p} outside [0, 1/2]")
    if not omega:
        raise ValueError("omega must be nonempty")
    probs, elements = np.zeros(ctx.q), np.arange(ctx.q)
    probs[0] = 1.0
    for b in omega:
        if b:  # zeta * 0 never moves mass
            probs = (1 - p) * probs + p * probs[elements ^ b]
    return Pmf(ctx, tuple(probs.tolist()))


def bernoulli_p(c_tilde: float, eps: float) -> float:
    """The Bernoulli parameter (1 - e^(-2 c~ eps^2)) / 2 of the distribution D."""
    if not 0 <= c_tilde < math.inf:
        raise ValueError(f"c_tilde must be nonnegative and finite, got {c_tilde}")
    return (1.0 - math.exp(-2.0 * c_tilde * eps * eps)) / 2.0


def sample_pmf_many(pmf: Pmf, seed: int, count: int) -> np.ndarray:
    """Draws from an arbitrary pmf by CDF inversion (used by Monte Carlo modes):
    draw i is the first index whose cumulative probability exceeds the i-th
    ``uniform()`` of SplitMix64(seed).  The CDF is 1 from the last nonzero
    entry on, so no u reaches a trailing zero.  The draws come as an array of
    the smallest unsigned type that holds q - 1, filled 2^BLOCK_BITS at a time."""
    cdf = np.add.accumulate(pmf.probs)  # left to right, one term at a time
    cdf[np.flatnonzero(pmf.probs)[-1] :] = 1.0
    rng = SplitMix64(seed)
    out = np.empty(count, dtype=np.min_scalar_type(pmf.ctx.q - 1))
    for start in range(0, count, 1 << BLOCK_BITS):
        block = out[start : start + (1 << BLOCK_BITS)]
        block[:] = np.searchsorted(cdf, rng.uniforms(len(block)), side="right")
    return out


# ---------------------------------------------------------------------------
# tau-niceness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NicenessReport:
    tau: float
    ok: bool
    per_weight: Tuple[Tuple[int, float], ...]  # (count, bound) for i = 1..n0
    worst_ratio: float


def tau_in_range(tau: float, k0: int, n0: int) -> bool:
    """0 < tau < k0/n0, decided exactly on tau's integer ratio: a float tau
    that rounds to k0/n0 lies on the side its exact value does."""
    if not 0 < tau < math.inf:
        return False
    num, den = tau.as_integer_ratio()
    return num * n0 < k0 * den


@functools.lru_cache(maxsize=1 << 6)
def _krawtchouk(n: int) -> Tuple[int, ...]:
    """Row j of the Krawtchouk matrix, the values K_i(j; n) for i = 0..n, packed
    into one integer sum_i K_i(j; n) 2^((n + 1) i).  The values come from the
    three-term recurrence (i + 1) K_(i+1) = (n - 2j) K_i - (n - i + 1) K_(i-1),
    K_0 = 1, in integers (each division is exact)."""
    rows = []
    for j in range(n + 1):
        row = [1, n - 2 * j]
        for i in range(1, n):
            row.append(((n - 2 * j) * row[i] - (n - i + 1) * row[i - 1]) // (i + 1))
        rows.append(sum(value << (n + 1) * i for i, value in enumerate(row[: n + 1])))
    return tuple(rows)


@functools.lru_cache(maxsize=1 << 10)
def _nice_bounds(n0: int, k0: int, tau: float) -> Tuple[float, ...]:
    """binom(n0, i) * 2^(-n0 (eps - tau)) for i = 1..n0, eps = k0/n0."""
    scale = 2.0 ** (-n0 * (k0 / n0 - tau))
    return tuple(math.comb(n0, i) * scale for i in range(1, n0 + 1))


def check_nice(inner: BinaryCode, tau: float, budget: int = 1 << 20) -> NicenessReport:
    """Exact tau-niceness check of the inner code.

    The dual's weight counts come from the inner code's own, in exact integers,
    by the MacWilliams identity (MacWilliams-Sloane ch. 5):
    B_i = 2^(-k0) sum_j A_j K_i(j; n0), A = ``inner.span_weights``, so no
    dual is built.  The work is the 2^k0 inner codewords, which a concatenated
    code built on ``inner`` has already enumerated; the budget bounds them and
    is checked before any work.
    """
    n0, k0 = inner.n0, inner.k0
    if not tau_in_range(tau, k0, n0):
        raise ValueError(f"tau={tau} outside (0, eps={k0 / n0})")
    if 1 << k0 > budget:
        raise ValueError(f"code size {1 << k0} exceeds budget {budget}")
    # sum_j A_j K_i(j; n0) = 2^k0 B_i lies in [0, 2^n0], so one sum of the packed
    # rows (whose digits are signed) has 2^k0 B_i as its (n0 + 1)-bit digit i.
    packed = sum(map(operator.mul, inner.span_weights.delta, _krawtchouk(n0)))
    width, low = n0 + 1, (1 << k0) - 1
    digits = [(packed >> width * i) & ((1 << width) - 1) for i in range(1, n0 + 1)]
    if packed & low or any(digit & low for digit in digits):
        raise AssertionError("MacWilliams transform left a remainder")
    per_weight = tuple(zip([digit >> k0 for digit in digits], _nice_bounds(n0, k0, tau)))
    ok = all(count <= bound for count, bound in per_weight)
    worst = max((count / bound for count, bound in per_weight if bound > 0), default=0.0)
    return NicenessReport(tau, ok, per_weight, worst)


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
    codewords, read off the codeword table of the generator's kernel basis
    one coordinate (one contiguous row of the table) at a time.  Each product
    is taken left to right over the coordinates and the terms are added one
    at a time in table order, so the float result does not depend on numpy's
    summation order.  The budget is checked on q^(n-k) before the table is built.
    montecarlo: draws `budget` (at least one) vectors x ~ pmf^n and counts the
    nonzero ones with zero syndrome x @ gen^T, one generator row at a time
    over all draws; returns a Wilson 95% confidence interval flagged
    is_exact=False.
    """
    if pmf.ctx != outer.ctx:
        raise ValueError("pmf field does not match outer code field")
    q = outer.ctx.q
    qk = q**outer.k
    if mode == "exact":
        size = q ** (outer.n - outer.k)
        if size > budget:
            raise ValueError(f"dual size {size} exceeds budget {budget}")
        probs = np.array(pmf.probs)
        terms, factor = np.ones(size), np.empty(size)
        for coordinate in codeword_table(nullspace_basis(outer.gen)):
            terms *= probs.take(coordinate, out=factor, mode="clip")  # symbols < q: no clipping
        # Slot 0, the zero codeword's, becomes the leading 0.0 that keeps an
        # empty dual at 0.  accumulate adds one term at a time, left to right;
        # np.sum's pairwise order rounds differently.
        terms[0] = 0.0
        prob = float(np.add.accumulate(terms, out=terms)[-1])
        return SoftReport(prob, prob * qk - 1.0, True)
    if mode == "montecarlo":
        if budget < 1:
            raise ValueError(f"Monte Carlo soft condition needs at least one draw, got budget {budget}")
        n = outer.n
        draws = sample_pmf_many(pmf, seed, budget * n).reshape(budget, n)
        hit = draws.any(axis=1)
        for row in np.array(outer.gen.rows, dtype=np.intp).reshape(-1, n):  # one syndrome symbol per row
            hit &= np.bitwise_xor.reduce(outer.ctx.mul_array(row, draws), axis=1) == 0
        hits = int(np.count_nonzero(hit))
        phat, lo, hi = wilson_interval(hits, budget)
        return SoftReport(phat, phat * qk - 1.0, False, lo, hi, budget)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ExactSoft:
    """The soft condition in exact arithmetic: prob = prob_num / den and
    delta = delta_num / den, with den a power of two."""

    prob_num: int
    delta_num: int
    den: int

    @property
    def prob(self) -> float:
        return self.prob_num / self.den  # int / int true division rounds once, correctly

    @property
    def delta(self) -> float:
        return self.delta_num / self.den


def _enumerator_at(counts: Sequence[int], a: int, e: int) -> int:
    """sum_j counts[j] * a^j * 2^(e (L - j)), L = len(counts) - 1: the weight
    enumerator at theta = a / 2^e, times 2^(e L), by Horner's rule in integers."""
    total = 0
    for i, count in enumerate(reversed(counts)):  # count = counts[L - i]
        total = total * a + (count << e * i)
    return total


def soft_enumerator(
    cc: ConcatCode,
    p: float,
    wd: WeightDistribution | None = None,
    budget: int = 1 << 20,
) -> ExactSoft:
    """The soft condition of cc's outer code at the law D of cc's Omega, exactly.

    D's character at a is theta^w(a), theta = 1 - 2p and w(a) the weight of
    a's inner codeword, so Poisson summation over the outer dual
    (MacWilliams-Sloane ch. 5) gives

        delta = W_cc(theta) - 1 - q^k (W_in(theta) / q)^n,

    W_cc the enumerator of all q^k concatenated codewords (wd, or
    weight_distribution(cc, budget), which checks the budget on q^k first)
    and W_in that of the 2^k0 inner codewords (``cc.inner.span_weights``,
    the count of the span cc's tables were built from).  The float p is a dyadic
    rational, theta = a / 2^e exactly, so both enumerators are integers over
    powers of two and prob and delta are integers over 2^(e N + k0 n).
    """
    p = float(p)
    if not 0 <= p <= 0.5:
        raise ValueError(f"p={p} outside [0, 1/2]")
    if wd is None:
        wd = weight_distribution(cc, budget)
    elif wd.length != cc.N:
        raise ValueError(f"weight distribution has length {wd.length}, the code has length N={cc.N}")
    num, den = p.as_integer_ratio()
    a, e = den - 2 * num, den.bit_length() - 1  # theta = a / 2^e
    w_cc = _enumerator_at(wd.delta, a, e)  # W_cc(theta) * 2^(e N)
    w_in = _enumerator_at(cc.inner.span_weights.delta, a, e)  # W_in(theta) * 2^(e n0)
    k0, n, k = cc.ctx.k0, cc.outer.n, cc.outer.k
    # prob = W_cc(theta) / q^k - (W_in(theta) / q)^n, over 2^(e N + k0 n)
    prob_num = (w_cc << k0 * (n - k)) - w_in**n
    scale = 1 << e * cc.N + k0 * n
    return ExactSoft(prob_num, (prob_num << k0 * k) - scale, scale)


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
    return _water_level_entropy(pmf.probs, pmf.ctx.q, eta, halved_tv)


def _water_level_entropy(masses: Sequence[float], q: int, eta: float, halved_tv: bool) -> float:
    """:func:`smooth_min_entropy` of a law over q elements whose probabilities,
    in any order, are `masses` and zeros: only the nonzero ones are read."""
    if not 0 <= eta < 1:
        raise ValueError(f"eta={eta} outside [0, 1)")
    budget = eta if halved_tv else eta / 2.0
    ratios = [p.as_integer_ratio() for p in sorted([p for p in masses if p], reverse=True)]
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


@functools.cache
def _merge_exchange(n: int) -> Tuple[Tuple[int, int], ...]:
    """Batcher's merge-exchange sorting network on n wires (Knuth, TAOCP
    5.2.2, Algorithm M), as its comparators (i, j), i < j, in order."""
    pairs = []
    t = (n - 1).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


def _sort_columns(columns: np.ndarray) -> List[np.ndarray]:
    """Sort every column of an (n, M) array through the merge-exchange
    network, one np.minimum and one np.maximum over whole rows per
    comparator.  Returns the n rows of the sorted columns."""
    rows = list(columns.copy())
    spare = np.empty_like(rows[0])
    for i, j in _merge_exchange(len(rows)):
        low, high = rows[i], rows[j]
        np.minimum(low, high, out=spare)
        np.maximum(low, high, out=high)
        rows[i], spare = spare, low
    return rows


def _boundary_codes(runs: List[np.ndarray]) -> List[int]:
    """The distinct run-boundary codes of sorted columns, given as rows: bit j
    of a column's code is set when its entries j and j + 1 differ.  The
    n - 1 bits are packed into one unsigned integer per column, of the
    smallest dtype that holds them, or into 64-bit words past 64 bits.  The
    codes are sorted (a stable sort of one word, np.lexsort of several), and
    a code is kept where it differs from its predecessor; np.unique would
    give the same set but imports numpy.ma on its first call."""
    width, count = len(runs) - 1, len(runs[0])
    differ = np.empty(count, bool)
    words = []
    for low in range(0, max(width, 1), 64):
        high = min(low + 64, width)
        word = np.zeros(count, np.min_scalar_type((1 << (high - low)) - 1))
        for j in reversed(range(low, high)):  # bit j of the code is bit j - low here
            word <<= 1
            word |= np.not_equal(runs[j + 1], runs[j], out=differ)
        words.append(word)
    first = np.zeros(count, bool)  # the first column of each run of equal codes
    first[:1] = True
    if len(words) == 1:
        code = np.sort(words[0], kind="stable")
        np.not_equal(code[1:], code[:-1], out=first[1:])
        return code[first].tolist()
    order = np.lexsort(words)
    words = [word[order] for word in words]
    for word in words:
        first[1:] |= word[1:] != word[:-1]
    keys = zip(*(word[first].tolist() for word in words))
    return [sum(word << (64 * i) for i, word in enumerate(key)) for key in keys]


@functools.lru_cache(maxsize=1 << 16)
def _count_multiset(code: int, n: int) -> Tuple[int, ...]:
    """The sorted run lengths of a sorted length-n word with boundary code
    `code`, which are its nonzero symbol counts."""
    cuts = [j + 1 for j in range(n - 1) if code >> j & 1]
    return tuple(sorted(b - a for a, b in zip([0] + cuts, cuts + [n])))


@functools.lru_cache(maxsize=1 << 16)
def _multiset_entropy(counts: Tuple[int, ...], ctx: FieldCtx, eta: float, halved_tv: bool) -> float:
    """The smoothed min-entropy of any word over ctx whose nonzero symbol
    counts are `counts`: that of its empirical distribution, read from the
    nonzero probabilities alone, with no q-entry pmf built."""
    n = sum(counts)
    return _water_level_entropy([c / n for c in counts], ctx.q, eta, halved_tv)


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
    its symbol counts (see :func:`smooth_min_entropy`).  One pass over the
    codeword table, one coordinate row at a time, finds those multisets:

    1. a Batcher merge-exchange sorting network sorts every codeword (every
       column) at once, one np.minimum/np.maximum pair over whole rows per
       comparator;
    2. the run boundaries of each sorted codeword are packed into one integer
       code, and a sort and one adjacent-compare pass find the distinct codes;
    3. each code maps to its sorted count multiset, and each multiset to its
       smoothed min-entropy, through two bounded memos shared by all calls,
       so a multiset seen in an earlier call is not evaluated again.

    n_checked still counts every nonzero codeword.
    """
    ctx = outer.ctx
    q = ctx.q
    if q**outer.k > budget:
        raise ValueError(f"codeword count {q**outer.k} exceeds budget {budget}")
    if not -math.inf < cgamma < math.inf:
        raise ValueError(f"cgamma must be finite, got {cgamma}")
    eps = outer.k / outer.n
    eta = ceta * eps
    if not 0 <= eta < 1:
        raise ValueError(f"smoothing level ceta*eps = {eta} outside [0, 1)")
    threshold = (1.0 - cgamma * eps) * math.log2(q)
    columns = codeword_table(outer.gen)[:, 1:]
    multisets = {_count_multiset(code, outer.n) for code in _boundary_codes(_sort_columns(columns))}
    min_entropy = min(
        (_multiset_entropy(counts, ctx, eta, halved_tv) for counts in multisets), default=math.inf
    )
    n_checked = columns.shape[1]
    ratio = None
    if n0 is not None and 0 < eps < 1:
        ratio = n0 * eps * eps / math.log2(1.0 / eps)
    return EntropyReport(eta, threshold, min_entropy, min_entropy >= threshold, n_checked, ratio)

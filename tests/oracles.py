"""Reference enumerations that the tests check the package's fast paths against."""

import json
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from concatgv.bounds import h2
from concatgv.certify import Pmf
from concatgv.codes import ConcatCode, OuterCode
from concatgv.rng import SplitMix64


def all_messages(outer: OuterCode) -> Iterable[Tuple[int, ...]]:
    """All q^k messages of the outer code, zero first, in odometer order
    (digit 0 varies fastest): the column order of ``codes.codeword_table``."""
    q = outer.ctx.q
    k = outer.k
    msg = [0] * k
    yield tuple(msg)
    for _ in range(q**k - 1):
        i = 0
        while msg[i] == q - 1:
            msg[i] = 0
            i += 1
        msg[i] += 1
        yield tuple(msg)


def empirical_dist(ctx, codeword: Sequence[int]) -> Pmf:
    """Empirical symbol distribution of a word over the field."""
    n = len(codeword)
    if n == 0:
        raise ValueError("empty codeword")
    counts = [0] * ctx.q
    for sym in codeword:
        counts[sym] += 1
    return Pmf(ctx, tuple(c / n for c in counts))


def bisect_min_entropy(pmf: Pmf, eta: float, halved_tv: bool = True) -> float:
    """The smoothed min-entropy by a 100-step bisection on the water level:
    the smallest cap t >= 1/q whose cost sum(max(P - t, 0)) is within the
    budget (eta, or eta / 2 under the unhalved TV convention)."""
    budget = eta if halved_tv else eta / 2.0
    q = pmf.ctx.q
    probs = pmf.probs

    def excess(t: float) -> float:
        return sum(p - t for p in probs if p > t)

    lo = 1.0 / q
    hi = max(probs)
    if hi <= lo or excess(lo) <= budget:
        return math.log2(q)
    for _ in range(100):
        mid = (lo + hi) / 2
        if excess(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return max(0.0, -math.log2(hi))


def d_pmf_oracle(q: int, omega: Sequence[int], p: float) -> Dict[int, Fraction]:
    """The law of sum(zeta_b * b for b in omega), zeta_b i.i.d. Bernoulli(p),
    in Fractions: every one of the 2^|omega| coin patterns, weighted
    p^w (1 - p)^(|omega| - w), adds its XOR of the chosen entries."""
    p = Fraction(p)
    size = len(omega)
    weights = [p**w * (1 - p) ** (size - w) for w in range(size + 1)]
    law = {v: Fraction(0) for v in range(q)}
    for mask in range(1 << size):
        acc = 0
        for i, b in enumerate(omega):
            if (mask >> i) & 1:
                acc ^= b
        law[acc] += weights[mask.bit_count()]
    return law


def clmul_mod(a: int, b: int, modulus: int, k0: int) -> int:
    """Schoolbook product in GF(2)[x]/(modulus), modulus of degree k0: XOR the
    partial products a * x^i over the set bits i of b, then clear the degrees
    2k0-2 down to k0 with shifted copies of the modulus."""
    prod = 0
    for i in range(k0):
        if (b >> i) & 1:
            prod ^= a << i
    for d in range(2 * k0 - 2, k0 - 1, -1):
        if (prod >> d) & 1:
            prod ^= modulus << (d - k0)
    return prod


def coords_table_by_trace(ctx) -> List[int]:
    """coords(x) for every element x, through the trace: bit i of coords(x)
    is Tr(x * nu_(i+1)), which the self-dual basis makes the coefficient of
    nu_(i+1).  The map is GF(2)-linear, so it is read off the k0 single-bit
    elements and filled in by one lowest-set-bit recurrence."""
    bit_coords = []
    for j in range(ctx.k0):
        bits = 0
        for i, nu in enumerate(ctx.basis):
            if ctx.trace(ctx.mul(1 << j, nu)):
                bits |= 1 << i
        bit_coords.append(bits)
    table = [0] * ctx.q
    for x in range(1, ctx.q):
        lsb = x & -x
        table[x] = table[x ^ lsb] ^ bit_coords[lsb.bit_length() - 1]
    return table


def dual_membership(outer: OuterCode, x: Sequence[int]) -> bool:
    """True iff x is orthogonal to every generator row of outer (x is in the
    dual code): one schoolbook syndrome symbol per row."""
    ctx = outer.ctx
    for row in outer.gen.rows:
        s = 0
        for g, c in zip(row, x, strict=True):
            s ^= clmul_mod(g, c, ctx.modulus, ctx.k0)
        if s:
            return False
    return True


def gf2_rref_by_columns(rows: Sequence[int], cols: int):
    """Textbook Gauss-Jordan over GF(2), one column at a time from column 0:
    (reduced nonzero rows, pivot columns), as tuples."""
    mat = list(rows)
    pivots = []
    r = 0
    for c in range(cols):
        bit = 1 << c
        pivot_row = next((i for i in range(r, len(mat)) if mat[i] & bit), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        for i in range(len(mat)):
            if i != r and (mat[i] & bit):
                mat[i] ^= mat[r]
        pivots.append(c)
        r += 1
    return tuple(mat[:r]), tuple(pivots)


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


def g_masks_by_pairs(cc: ConcatCode) -> Counter:
    """One g mask per (coordinate alpha, Omega entry b) pair, in pair order:
    b in bits [alpha*k0, (alpha+1)*k0)."""
    k0 = cc.ctx.k0
    return Counter(b << (alpha * k0) for alpha in range(cc.outer.n) for b in cc.omega)


def syndrome_masks_by_pairs(cc: ConcatCode) -> Counter:
    """One syndrome mask per (alpha, b) pair: row i of the outer generator
    adds ``ctx.mul(gen[i][alpha], b)`` in bits [i*k0, (i+1)*k0)."""
    ctx = cc.ctx
    return Counter(
        sum(ctx.mul(row[alpha], b) << (i * ctx.k0) for i, row in enumerate(cc.outer.gen.rows))
        for alpha in range(cc.outer.n)
        for b in cc.omega
    )


def zero_folds_walk(masks: Counter, r: int) -> int:
    """Number of r-tuples of masks (with multiplicity) whose XOR is 0: r - 1
    sparse steps from {0: 1}, each moving every state by every mask, after
    which the last mask closes a tuple iff it equals the state."""
    if r == 0:
        return 1
    dist = {0: 1}
    for _ in range(r - 1):
        out: Dict[int, int] = {}
        for state, w in dist.items():
            for mask, mult in masks.items():
                out[state ^ mask] = out.get(state ^ mask, 0) + w * mult
        dist = out
    return sum(mult * dist.get(mask, 0) for mask, mult in masks.items())


def walk_work_full(m: int, bits: int, r: int) -> int:
    """The work bound of ``zero_folds_walk`` for m pairs on 2^bits states:
    step t (t = 0..r-2) leaves at most min(2^bits, m^t) states, each moved
    by m masks, and the final read looks up m masks."""
    if r == 0:
        return 1
    return sum(min(1 << bits, m**t) * m for t in range(r - 1)) + m


def walk_work_loop(m: int, bits: int, r: int) -> int:
    """``moments.walk_work`` step by step: a = r // 2, b = r - a, and step t
    (t = 1..b-1) leaves min(2^bits, m^t) states, each moved by m masks; the
    final product reads min(2^bits, m^a) states.  The loop stops once the
    table is full, and every later step then sees all 2^bits states."""
    if r == 0:
        return 1
    a, b = r // 2, r - r // 2
    if m < 2:  # min(2^bits, m^t) is m for every t >= 1
        return (b - 1) * m * m + (m if a else 1)
    cap = 1 << bits
    steps, states, half, t = 0, 1, 1, 0  # states = min(cap, m^t), half = min(cap, m^a)
    while t < b and states < cap:  # m >= 2 fills the table within bits + 1 steps
        t += 1
        states = states * m if states * m < cap else cap
        if t < b:
            steps += states
        if t == a:
            half = states
    steps += max(0, b - 1 - t) * cap
    if a > t:
        half = cap
    return steps * m + half


def poisson_mixture_sparse(cc: ConcatCode, lam: float, tail_eps: float) -> np.ndarray:
    """The Poissonized tuple law of g by a sparse float walk: a dict of the
    states the r-step walk reaches, each pair weighted 1/m, poured into a
    table over GF(q)^n one state at a time, for r up to where the Poisson
    tail mass drops below tail_eps."""
    m = cc.outer.n * cc.inner.n0
    mean = lam * m
    pois = math.exp(-mean)
    moves = [(mask, mult * (1.0 / m)) for mask, mult in cc.g_masks.items()]
    walk = {0: 1.0}
    mix = np.zeros(cc.ctx.q**cc.outer.n)
    mix[0] = pois
    covered, r = pois, 0
    while 1.0 - covered > tail_eps:
        out: Dict[int, float] = {}
        for state, w in walk.items():
            for mask, mw in moves:
                out[state ^ mask] = out.get(state ^ mask, 0.0) + w * mw
        walk = out
        r += 1
        pois *= mean / r
        covered += pois
        for state, w in walk.items():
            mix[state] += pois * w
    return mix


def inversion_draws(probs: Sequence[float], seed: int, count: int) -> List[int]:
    """CDF inversion by linear scan: for each u of SplitMix64(seed), the first
    i whose left-to-right partial sum of probs exceeds u, the partial sums
    from the last nonzero probability on read as 1."""
    rng = SplitMix64(seed)
    last = max(i for i, p in enumerate(probs) if p)
    out = []
    for _ in range(count):
        u = rng.uniform()
        acc = 0.0
        for i, p in enumerate(probs):
            acc = 1.0 if i >= last else acc + p
            if acc > u:
                break
        out.append(i)
    return out


def sequential_sum(terms: Iterable[float]) -> float:
    """The terms added one at a time, left to right, starting from 0.0."""
    total = 0.0
    for term in terms:
        total += term
    return total


def gv_check_fraction(N: int, K: int, d: int, epsilon, c) -> bool:
    """The GV target rate >= eps^2 and distance >= 1/2 - c*eps for an [N, K, d]
    code, in Fraction arithmetic on the exact values of epsilon and c."""
    eps, c = Fraction(epsilon), Fraction(c)
    return Fraction(K, N) >= eps * eps and Fraction(d, N) >= Fraction(1, 2) - c * eps


def zyablov_rate_grid(delta: float) -> float:
    """max over d0 in (delta, 1/2] of (1 - h2(d0)) * (1 - delta/d0), by a
    10^4-point grid, then 200 golden-ratio steps between the grid neighbours
    of its best point; the better of that and the grid maximum."""
    if delta == 0.0:
        return 1.0
    d0 = np.linspace(delta, 0.5, 10_001)[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -d0 * np.log2(d0) - (1 - d0) * np.log2(1 - d0)
    vals = (1.0 - ent) * (1.0 - delta / d0)
    i = int(np.argmax(vals))

    def f(x: float) -> float:
        return (1.0 - h2(x)) * (1.0 - delta / x)

    lo = float(d0[max(0, i - 1)])
    hi = float(d0[min(len(d0) - 1, i + 1)])
    for _ in range(200):
        m1 = lo + (hi - lo) * 0.381966011250105
        m2 = hi - (hi - lo) * 0.381966011250105
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return max(f((lo + hi) / 2), float(vals[i]))


def bits_by_chunks(rng: SplitMix64, nbits: int) -> int:
    """``rng.bits(nbits)`` taken chunk by chunk: each step takes as many bits
    as it can from the buffered word, low bits first, and a new ``u64()`` is
    drawn only when the buffer is empty.  It keeps its buffer in ``rng``'s
    own slots, so a generator driven by this function and ``u64`` alone
    gives the chunk loop's stream."""
    out = 0
    got = 0
    while got < nbits:
        if rng._bitcount == 0:
            rng._bitbuf = rng.u64()
            rng._bitcount = 64
        take = min(rng._bitcount, nbits - got)
        out |= (rng._bitbuf & ((1 << take) - 1)) << got
        rng._bitbuf >>= take
        rng._bitcount -= take
        got += take
    return out


def reemit_json_stdlib(doc) -> str:
    """The sweep's JSON rendering as the standard library spells it; with an
    indent, json runs its pure-Python encoder."""
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"

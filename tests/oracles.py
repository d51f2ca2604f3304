"""Reference enumerations that the tests check the package's fast paths against."""

import functools
import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from concatgv.bounds import h2
from concatgv.certify import NicenessReport, Pmf, bernoulli_p, tau_in_range
from concatgv.codes import BinaryCode, ConcatCode, OuterCode, _pack, weight_distribution
from concatgv.field import make_field
from concatgv.linalg import BitMatrix, FieldMatrix, _gf2_rref, nullspace_basis, rank, sample_binary_code, sample_field_code
from concatgv.rng import SplitMix64, derive_seed


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


def d_pmf_loop(ctx, omega: Sequence[int], p: float) -> Tuple[float, ...]:
    """The law of sum(zeta_b * b for b in omega) by a float convolution one
    field element at a time: for each nonzero b, every v of nonzero mass adds
    (1 - p) P(v) to v and p P(v) to v ^ b, in value order."""
    probs = [0.0] * ctx.q
    probs[0] = 1.0
    for b in omega:
        if b == 0:
            continue
        new = [0.0] * ctx.q
        for v, pv in enumerate(probs):
            if pv:
                new[v] += (1 - p) * pv
                new[v ^ b] += p * pv
        probs = new
    return tuple(probs)


def soft_fraction_oracle(cc: ConcatCode, p: float) -> Tuple[Fraction, Fraction]:
    """(prob, delta) of the soft condition on cc's outer code in Fractions, at
    the float p: every nonzero x in GF(q)^n that ``dual_membership`` puts in
    the outer dual adds prod D(x_alpha), D the law of cc's Omega from
    ``d_pmf_oracle``; delta = prob * q^k - 1."""
    outer, q = cc.outer, cc.ctx.q
    law = d_pmf_oracle(q, cc.omega, p)
    prob = Fraction(0)
    for x in itertools.product(range(q), repeat=outer.n):
        if any(x) and dual_membership(outer, x):
            prob += math.prod((law[sym] for sym in x), start=Fraction(1))
    return prob, prob * q**outer.k - 1


def soft_closed_form(cc: ConcatCode, p: float, counts: Sequence[int]) -> Tuple[Fraction, Fraction]:
    """(prob, delta) in Fractions from the weight enumerators at theta = 1 - 2p:
    prob = W_cc(theta) / q^k - (W_in(theta) / q)^n, W_cc from the concatenated
    code's weight counts and W_in from the inner encodings of all q messages."""
    q, n, k = cc.ctx.q, cc.outer.n, cc.outer.k
    theta = 1 - 2 * Fraction(p)
    w_cc = sum(count * theta**j for j, count in enumerate(counts))
    w_in = sum(theta ** cc.inner.encode(m).bit_count() for m in range(q))
    prob = w_cc / q**k - (w_in / q) ** n
    return prob, prob * q**k - 1


def trial_code(config, trial: int) -> Tuple[ConcatCode, float]:
    """A sweep trial's concatenated code, drawn from its derived seeds as the
    sweep draws it, and the Bernoulli parameter of its soft check."""
    trial_seed = derive_seed(config.master_seed, trial)
    inner = BinaryCode(sample_binary_code(config.n0, config.k0, derive_seed(trial_seed, 0)))
    ctx = make_field(config.k0)
    outer = OuterCode(sample_field_code(ctx, config.n, config.k, derive_seed(trial_seed, 1)))
    return ConcatCode(outer, inner), bernoulli_p(config.constants.c_tilde, config.k0 / config.n0)


def sample_field_code_by_randrange(ctx, n: int, k: int, seed: int) -> Tuple[FieldMatrix, int]:
    """The field sampler's rejection loop with one ``randrange(q)`` per symbol,
    row by row, from one SplitMix64(seed) stream: the first full-rank k x n
    draw, and the number of draws it took."""
    rng = SplitMix64(seed)
    draws = 0
    while True:
        draws += 1
        m = FieldMatrix(tuple(tuple(rng.randrange(ctx.q) for _ in range(n)) for _ in range(k)), n, ctx)
        if rank(m) == k:
            return m, draws


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


def field_rref_by_scale(m):
    """Gauss-Jordan over the field, one row operation per ``ctx.scale`` call:
    (reduced nonzero rows, pivot columns), as tuples.  Pivots are searched
    from the current row down, and elimination stops once every row has a
    pivot."""
    ctx = m.ctx
    mat = list(m.rows)
    pivots: List[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat[r] = ctx.scale(ctx.inv(mat[r][c]), mat[r])
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], ctx.scale(mat[i][c], mat[r]))]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def gray_block_weight_counts(words: Sequence[int], length: int, block_bits: int = 16) -> List[int]:
    """Weight counts of all 2^len(words) XOR combinations of words: the
    first block_bits words expanded into all their sums by doubling, then
    that block shifted by the other words, one Gray-code step at a time."""
    limbs = -(-length // 64)
    packed = b"".join(w.to_bytes(8 * limbs, "little") for w in words)
    basis = np.frombuffer(packed, dtype="<u8").reshape(len(words), limbs)
    low, high = basis[:block_bits], basis[block_bits:]
    block = np.empty((1 << len(low), limbs), dtype=np.uint64)
    block[0] = 0
    for i, b in enumerate(low):  # rows [2^i, 2^(i+1)) are rows [0, 2^i) plus b
        np.bitwise_xor(block[: 1 << i], b, out=block[1 << i : 2 << i])
    counts = np.zeros(length + 1, dtype=np.int64)
    shift = np.zeros(limbs, dtype=np.uint64)
    for t in range(1 << len(high)):
        if t:
            shift ^= high[(t & -t).bit_length() - 1]
        weights = np.bitwise_count(block ^ shift if t else block)
        weights = weights[:, 0] if limbs == 1 else weights.sum(axis=1, dtype=np.intp)
        counts += np.bincount(weights, minlength=length + 1)
    return counts.tolist()


def concat_generator(cc: ConcatCode) -> BitMatrix:
    """The K x N binary generator of a concatenated code from its definitional
    encoder: row i * k0 + j is ``cc.encode`` of the unit message that holds
    nu_j in outer position i and zero elsewhere."""
    ctx, k = cc.ctx, cc.outer.k
    rows = [
        cc.encode(tuple(ctx.from_coords(1 << j) if t == i else 0 for t in range(k)))
        for i in range(k)
        for j in range(ctx.k0)
    ]
    return BitMatrix(tuple(rows), cc.N)


def column(m: BitMatrix, j: int) -> int:
    """Column j of a GF(2) matrix packed as an int, bit i = entry of row i."""
    out = 0
    for i, r in enumerate(m.rows):
        out |= ((r >> j) & 1) << i
    return out


def omega_by_columns(cc: ConcatCode) -> Tuple[int, ...]:
    """``ConcatCode.omega`` by its definition: each inner generator column, packed
    by :func:`column`, read as field coordinates by ``from_coords``."""
    ctx = cc.ctx
    return tuple(ctx.from_coords(column(cc.inner.gen, beta)) for beta in range(cc.inner.n0))


def systematic_forms_by_relabeling(rows: Sequence[int], length: int) -> Iterator[Tuple[np.ndarray, np.ndarray, int]]:
    """``codes._systematic_forms`` by relabeling every bit of every row: the unused
    columns first, in order, then the used ones and the message bits, so that
    ``_gf2_rref``'s lowest-bit pivots land on the unused columns.  Its generator
    columns are the codewords with their bits permuted (their weights are kept)."""
    dim, unused, rows = len(rows), list(range(length)), [r | 1 << length + m for m, r in enumerate(rows)]
    while unused:
        order = unused + sorted(set(range(length + dim)).difference(unused))
        reduced, pivots = _gf2_rref([sum((r >> c & 1) << i for i, c in enumerate(order)) for r in rows])
        if not (fresh := {p for p in pivots if p < len(unused)}):
            return
        low = _pack([r & ((1 << length) - 1) for r in reduced], max(1, -(-length // 64)))
        yield low, np.array([r >> length for r in reduced], dtype=object), dim - len(fresh)
        unused = [c for i, c in enumerate(unused) if i not in fresh]


def columns(packed: np.ndarray) -> List[int]:
    """The columns of a (limbs, size) uint64 array as ints, limb 0 the lowest bits."""
    return [sum(int(limb) << 64 * i for i, limb in enumerate(column)) for column in packed.T]


def brouwer_zimmermann_pass(gen: np.ndarray, w: int) -> List[int]:
    """Pass w of Brouwer-Zimmermann on one information set: the XOR of every w-subset of the
    columns of its packed (limbs, K) systematic generator, in itertools.combinations order."""
    rows = columns(gen)
    return [functools.reduce(operator.xor, [rows[i] for i in s]) for s in itertools.combinations(range(len(rows)), w)]


def symbol_tables_single_gather(cc: ConcatCode) -> List[np.ndarray]:
    """A concatenated code's symbol tables from one gather over every outer row
    at once: the (limbs, k, n, q) array that the chunked build bounds."""
    n0, (_, log, exp_coords, log_coords) = cc.inner.n0, cc.ctx.arrays
    by_log = cc.inner.span[:, exp_coords]
    per = max(1, 64 // n0)
    gen = np.array([row + (0,) * (-len(row) % per) for row in cc.outer.gen.rows], dtype=np.intp)
    symbols = by_log.take(log[gen][:, :, None] + log_coords, axis=1)  # [limb, i, a, x]
    place = np.left_shift(1, np.arange(0, per * n0, n0, dtype=np.uint64))
    return list(place @ symbols.transpose(1, 2, 0, 3).reshape(len(gen), -1, per, len(log)))


def dual_code(code: BinaryCode) -> BinaryCode:
    """The dual code, generated by a basis of the generator's right kernel."""
    return BinaryCode(nullspace_basis(code.gen))


def check_nice_by_dual(inner: BinaryCode, tau: float, budget: int = 1 << 20) -> NicenessReport:
    """tau-niceness by enumerating the dual code: its weight classes are counted
    codeword by codeword and compared, one at a time, with their bounds."""
    n0, k0 = inner.n0, inner.k0
    eps = k0 / n0
    if not tau_in_range(tau, k0, n0):
        raise ValueError(f"tau={tau} outside (0, eps={eps})")
    counts = weight_distribution(dual_code(inner), budget).delta
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


def g_masks_by_identity_columns(cc: ConcatCode) -> Counter:
    """The g masks as the pair masks of the n x n identity's columns: each
    column times each distinct Omega entry by ``packed_products``, the masks
    merged with their multiplicities in order of first pair."""
    n, entries = cc.outer.n, Counter(cc.omega)
    columns = [[int(i == alpha) for i in range(n)] for alpha in range(n)]
    masks: Dict[int, int] = {}
    for mask, mult in zip(cc.ctx.packed_products(columns, list(entries)), itertools.cycle(entries.values())):
        masks[mask] = masks.get(mask, 0) + mult
    return Counter(masks)


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

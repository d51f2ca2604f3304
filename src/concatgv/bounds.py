"""Scalar rate/distance bound curves: binary entropy, GV targets, Zyablov.

Logs are base 2 and entropies are in bits throughout.
"""

from __future__ import annotations

import math


def h2(x: float) -> float:
    """Binary entropy in bits; 0 at both endpoints by continuity."""
    if not 0 <= x <= 1:
        raise ValueError(f"h2 domain is [0, 1], got {x}")
    if x == 0 or x == 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def h2_inv(y: float) -> float:
    """The unique x in [0, 1/2] with h2(x) = y, by bisection to 1e-12."""
    if not 0 <= y <= 1:
        raise ValueError(f"h2_inv domain is [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if h2(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def gv_check(N: int, K: int, d: int, epsilon, c) -> bool:
    """The operational low-rate GV target for an [N, K, d] binary code:
    rate K/N >= eps^2 and relative distance d/N >= 1/2 - c*eps.

    epsilon and c may be ints, floats or Fractions.  Each is read as the exact
    ratio it holds (as_integer_ratio), and both bounds are decided by integer
    cross-multiplication, so the verdict is exact for every input type.

    Whenever eps >= 1/(2c) the distance bound 1/2 - c*eps is <= 0, so a code
    that meets the rate bound passes even at d = 0.  At the sweep default
    c = C_DEFAULT (about 211) that covers every equal-rate shape with n <= 422:
    there the verdict says nothing about distance.  A test pins this, so a
    change of the default constant is a visible decision.
    """
    if N < 1 or not 0 <= K <= N:
        raise ValueError(f"rate {K}/{N} outside [0, 1]")
    if not 0 <= d <= N:
        raise ValueError(f"relative distance {d}/{N} outside [0, 1]")
    if not (0 < epsilon < math.inf and 0 < c < math.inf):
        raise ValueError("epsilon and c must be positive and finite")
    e_n, e_d = epsilon.as_integer_ratio()
    c_n, c_d = c.as_integer_ratio()
    rate_ok = K * e_d * e_d >= e_n * e_n * N
    return rate_ok and 2 * d * e_d * c_d >= N * (e_d * c_d - 2 * c_n * e_n)


def gv_rate(delta: float) -> float:
    """The GV existence rate 1 - h2(delta) for delta in [0, 1/2)."""
    if not 0 <= delta < 0.5:
        raise ValueError(f"delta {delta} outside [0, 1/2)")
    return 1.0 - h2(delta)


def zyablov_rate(delta: float) -> float:
    """The concatenation trade-off R(delta) = max over d0 in (delta, 1/2] of
    (1 - h2(d0)) * (1 - delta/d0), by golden-section search on (delta, 1/2].

    The objective is 0 at both ends and unimodal between them; 60 steps
    shrink the bracket below 1e-12, where the flat top of the objective
    leaves an error below its own rounding (about 1e-16 absolute).
    """
    if not 0 <= delta < 0.5:
        raise ValueError(f"delta {delta} outside [0, 1/2)")
    if delta == 0.0:
        return 1.0

    def f(x: float) -> float:
        return (1.0 - h2(x)) * (1.0 - delta / x)

    lo, hi = delta, 0.5
    for _ in range(60):
        m1 = lo + (hi - lo) * 0.381966011250105  # (3 - sqrt(5)) / 2
        m2 = hi - (hi - lo) * 0.381966011250105
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return f((lo + hi) / 2)

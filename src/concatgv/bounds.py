"""Scalar rate/distance bound curves: binary entropy, GV targets, Zyablov.

Logs are base 2 and entropies are in bits throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


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


def gv_check(rate: float, rel_distance: float, epsilon: float, c: float) -> bool:
    """The operational low-rate GV target: rate >= eps^2 and distance >= 1/2 - c*eps.

    The comparison runs in the arithmetic of the inputs.  Only Fraction
    inputs (rate, rel_distance, epsilon and c) give an exact verdict; with
    floats a point that sits on a bound, such as rate k0*k/(n0*n) = eps^2,
    can fall on either side of it by one rounding.
    """
    if not 0 <= rate <= 1:
        raise ValueError(f"rate {rate} outside [0, 1]")
    if not 0 <= rel_distance <= 1:
        raise ValueError(f"relative distance {rel_distance} outside [0, 1]")
    if epsilon <= 0 or c <= 0:
        raise ValueError("epsilon and c must be positive")
    return rate >= epsilon**2 and rel_distance >= Fraction(1, 2) - c * epsilon


def gv_rate(delta: float) -> float:
    """The GV existence rate 1 - h2(delta) for delta in [0, 1/2)."""
    if not 0 <= delta < 0.5:
        raise ValueError(f"delta {delta} outside [0, 1/2)")
    return 1.0 - h2(delta)


def zyablov_rate(delta: float) -> float:
    """The concatenation trade-off R(delta) = max over d0 in (delta, 1/2] of
    (1 - h2(d0)) * (1 - delta/d0), by grid search plus local refinement."""
    if not 0 <= delta < 0.5:
        raise ValueError(f"delta {delta} outside [0, 1/2)")
    if delta == 0.0:
        return 1.0

    d0 = np.linspace(delta, 0.5, 10_001)[1:]  # a 10^4-point grid
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -d0 * np.log2(d0) - (1 - d0) * np.log2(1 - d0)
    vals = (1.0 - ent) * (1.0 - delta / d0)
    i = int(np.argmax(vals))

    def f(x: float) -> float:
        return (1.0 - h2(x)) * (1.0 - delta / x)

    lo = float(d0[max(0, i - 1)])
    hi = float(d0[min(len(d0) - 1, i + 1)])
    for _ in range(200):  # golden-section refinement around the grid optimum
        m1 = lo + (hi - lo) * 0.381966011250105
        m2 = hi - (hi - lo) * 0.381966011250105
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    best = max(f((lo + hi) / 2), float(vals[i]))
    return best

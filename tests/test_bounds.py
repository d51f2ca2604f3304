import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from concatgv.bounds import (
    gv_check,
    gv_rate,
    h2,
    h2_inv,
    zyablov_rate,
)
from concatgv.certify import C_DEFAULT
from concatgv.sweep import Constants
from oracles import gv_check_fraction, zyablov_rate_grid


def test_h2_endpoints_and_half():
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.5) == 1.0


def test_h2_known_value():
    # direct evaluation, cross-checked by the bisection inverse
    v = h2(0.11)
    assert v == pytest.approx(0.4999160, abs=1e-6)
    assert h2_inv(v) == pytest.approx(0.11, abs=1e-10)


def test_h2_domain():
    with pytest.raises(ValueError):
        h2(-0.01)
    with pytest.raises(ValueError):
        h2(1.01)
    with pytest.raises(ValueError):
        h2_inv(1.5)


def test_h2_inv_endpoints():
    assert h2_inv(1.0) == 0.5
    assert h2_inv(0.0) == 0.0


def test_h2_strictly_increasing_on_half_interval():
    xs = [0.5 * i / 200 for i in range(201)]
    vals = [h2(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_roundtrips_on_grids():
    worst_x = max(
        abs(h2_inv(h2(0.5 * i / 10_000)) - 0.5 * i / 10_000) for i in range(10_000)
    )
    worst_y = max(abs(h2(h2_inv(i / 10_000)) - i / 10_000) for i in range(10_001))
    assert worst_x < 1e-10
    assert worst_y < 1e-10


@given(st.floats(min_value=0.001, max_value=0.25))
def test_h2_inv_quadratic_band(x):
    # h2_inv(1 - x^2) <= 1/2 - (sqrt(ln 2)/2) x
    assert h2_inv(1 - x * x) <= 0.5 - math.sqrt(math.log(2)) / 2 * x + 1e-12


def test_gv_taylor_coefficient():
    for eps in (0.005, 0.01, 0.03, 0.05):
        v = 1 - h2(0.5 - eps)
        coeff = eps * eps * 2 / math.log(2)
        assert 0.9 * coeff <= v <= 1.1 * coeff


def test_gv_check_examples():
    eps = 0.25  # a float that is exactly 1/4: N = 16, K = 1 sits on rate eps^2
    for c in (0.5, 1.0, 4.0):
        assert gv_check(16, 1, 8, eps, c)
    assert not gv_check(16, 1, 0, eps, 1.0)  # distance 1/2 - 2 eps, below 1/2 - eps
    # a float is read as the exact value it holds: 0.1 is a little above 1/10,
    # so rate 1/100 is just below its square, and Fraction(1, 10) passes
    assert not gv_check(100, 1, 50, 0.1, 1.0)
    assert gv_check(100, 1, 50, Fraction(1, 10), 1.0)


def test_gv_check_exact_on_both_bounds():
    # Every equal-rate shape k0/n0 = k/n puts its rate K/N exactly on eps^2:
    # a code on both bounds passes, and one message bit fewer (K - 1) or one
    # less distance (d - 1) fails.  Off the distance edge, the smallest
    # integer distance above it passes and the next one down fails.
    for n0 in range(2, 20):
        for k0 in range(1, n0):
            for n in range(k0, 40):
                eps = Fraction(k0, n0)
                if (eps * n).denominator != 1:
                    continue
                N, K = n0 * n, k0 * int(eps * n)
                for c in (1, Fraction(1, 3)):
                    edge = N * (Fraction(1, 2) - c * eps)
                    if edge < 0:
                        continue
                    d = math.ceil(edge)
                    assert gv_check(N, K, d, eps, c)
                    assert not gv_check(N, K - 1, d, eps, c)
                    if d > 0:
                        assert not gv_check(N, K, d - 1, eps, c)
    assert gv_check(100, 1, 40, Fraction(1, 10), 1)


def test_gv_check_monotone_in_c():
    eps = Fraction(1, 10)
    verdicts = [gv_check(100, 1, 42, eps, c) for c in (0.1, 0.5, 1.0, 2.0)]
    assert verdicts == [False, False, True, True]


def test_rate_distance_point_validation():
    with pytest.raises(ValueError, match="rate 3/2 outside"):
        gv_check(2, 3, 1, 0.1, 1.0)
    with pytest.raises(ValueError, match="relative distance -1/2 outside"):
        gv_check(2, 1, -1, 0.1, 1.0)
    with pytest.raises(ValueError, match="relative distance 3/2 outside"):
        gv_check(2, 1, 3, 0.1, 1.0)
    with pytest.raises(ValueError, match="rate 0/0 outside"):
        gv_check(0, 0, 0, 0.1, 1.0)
    for eps, c in ((0, 1.0), (0.1, 0.0), (-0.1, 1.0), (0.1, -1), (math.nan, 1.0),
                   (0.1, math.nan), (math.inf, 1.0), (0.1, math.inf)):
        with pytest.raises(ValueError, match="epsilon and c must be positive"):
            gv_check(16, 1, 8, eps, c)


def test_gv_check_matches_fraction_oracle():
    # every [N, K, d] with N <= 14, against the same target in Fractions
    epsilons = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 422),
                Fraction(1, 423), 0.1, 0.25, 1 / 3, 1 / (2 * C_DEFAULT), 1]
    for c in (1, 0.75, 1 / 3, C_DEFAULT):
        for eps in epsilons:
            for N in range(1, 15):
                for K in range(N + 1):
                    for d in range(N + 1):
                        assert gv_check(N, K, d, eps, c) == gv_check_fraction(N, K, d, eps, c)


def test_gv_check_vacuous_at_default_c():
    # At the sweep's default c, the distance bound 1/2 - c*eps is <= 0 for
    # every eps >= 1/(2c), about 1/422: an equal-rate code passes with d = 0.
    c = Constants().c
    assert c == C_DEFAULT and 422 < 2 * c < 423
    for n0 in range(2, 17):
        for k0 in range(1, n0 + 1):
            eps = Fraction(k0, n0)
            assert gv_check(n0 * n0, k0 * k0, 0, eps, c)  # n = n0, k = k0
    assert gv_check(422 * 422, 1, 0, Fraction(1, 422), c)
    assert not gv_check(423 * 423, 1, 0, Fraction(1, 423), c)


def test_zyablov_endpoints():
    assert zyablov_rate(0.0) == 1.0
    assert zyablov_rate(0.4999) < 1e-5


def test_zyablov_cubic_order():
    for eps in (0.05, 0.1, 0.2, 0.3):
        ratio = zyablov_rate((1 - eps) / 2) / eps**3
        assert 0.1 <= ratio <= 10


def test_zyablov_matches_grid_oracle():
    for i in range(1000):
        d = 0.5 * i / 1000
        assert abs(zyablov_rate(d) - zyablov_rate_grid(d)) <= 1e-15


def test_zyablov_below_gv_on_grid():
    for i in range(1, 1000):
        d = 0.5 * i / 1000
        assert zyablov_rate(d) <= gv_rate(d) + 1e-12

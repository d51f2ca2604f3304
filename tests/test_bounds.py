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
    eps = 0.1
    for c in (0.5, 1.0, 4.0):
        assert gv_check(eps**2, 0.5, eps, c)
    assert not gv_check(eps**2, 0.5 - 2 * 1.0 * eps, eps, 1.0)


def test_gv_check_exact_on_both_bounds():
    # Every equal-rate shape k0/n0 = k/n puts its rate exactly on eps^2; with
    # Fraction inputs a point on both bounds passes and one just below fails.
    tiny = Fraction(1, 10**30)
    for n0 in range(2, 20):
        for k0 in range(1, n0):
            for n in range(k0, 40):
                eps = Fraction(k0, n0)
                if (eps * n).denominator != 1:
                    continue
                for c in (Fraction(1), Fraction(1, 3)):
                    edge = Fraction(1, 2) - c * eps
                    if edge < 0:
                        continue
                    assert gv_check(eps * eps, edge, eps, c)
                    assert not gv_check(eps * eps - tiny, edge, eps, c)
                    if edge > 0:
                        assert not gv_check(eps * eps, edge - tiny, eps, c)
    assert gv_check(Fraction(1, 100), Fraction(2, 5), Fraction(1, 10), 1)


def test_gv_check_monotone_in_c():
    eps = 0.1
    verdicts = [gv_check(eps**2, 0.42, eps, c) for c in (0.1, 0.5, 1.0, 2.0)]
    assert verdicts == sorted(verdicts)  # False before True


def test_rate_distance_point_validation():
    with pytest.raises(ValueError, match="rate 1.5 outside"):
        gv_check(1.5, 0.5, 0.1, 1.0)
    with pytest.raises(ValueError, match="relative distance -0.1 outside"):
        gv_check(0.5, -0.1, 0.1, 1.0)


def test_zyablov_endpoints():
    assert zyablov_rate(0.0) == 1.0
    assert zyablov_rate(0.4999) < 1e-5


def test_zyablov_cubic_order():
    for eps in (0.05, 0.1, 0.2, 0.3):
        ratio = zyablov_rate((1 - eps) / 2) / eps**3
        assert 0.1 <= ratio <= 10


def test_zyablov_below_gv_on_grid():
    for i in range(1, 1000):
        d = 0.5 * i / 1000
        assert zyablov_rate(d) <= gv_rate(d) + 1e-12

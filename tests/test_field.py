import numpy as np
import pytest
from hypothesis import given, strategies as st

from concatgv.field import FieldCtx, is_irreducible, make_field
from concatgv.rng import SplitMix64

from oracles import clmul_mod, coords_table_by_trace

# The lexicographically smallest irreducible polynomial per degree (a bitmask
# with bit k0 set): the default moduli, pinned so that no run or machine
# builds a different field.
SMALLEST_IRREDUCIBLE = {
    1: 0x2,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
}


def poly_divides(d: int, f: int) -> bool:
    dd = d.bit_length() - 1
    while f and f.bit_length() - 1 >= dd:
        f ^= d << (f.bit_length() - 1 - dd)
    return f == 0


def brute_force_irreducible(poly: int) -> bool:
    deg = poly.bit_length() - 1
    if deg == 1:
        return True
    return not any(
        poly_divides(d, poly) for d in range(2, 1 << (deg // 2 + 1))
    )


def test_modulus_table_is_smallest_irreducible():
    assert sorted(SMALLEST_IRREDUCIBLE) == list(range(1, 17))
    for k0, expected in SMALLEST_IRREDUCIBLE.items():
        smallest = next(
            c for c in range(1 << k0, 1 << (k0 + 1)) if brute_force_irreducible(c)
        )
        assert make_field(k0).modulus == expected == smallest
        assert is_irreducible(expected)


def test_make_field_degree_bounds():
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(17)
    # a degree out of range is refused by the field, not by the default lookup
    with pytest.raises(ValueError, match="out of range"):
        make_field(0, 0x2)
    with pytest.raises(ValueError, match="out of range"):
        make_field(17, 0x20009)


def test_make_field_is_built_once_per_degree():
    assert make_field(4) is make_field(4)
    assert make_field(3) is not make_field(4)
    # naming the default modulus gives the default field's object
    assert make_field(4, 0x13) is make_field(4) is not make_field(4, 0x19)
    for _ in range(2):  # a refused degree is refused again, not cached
        with pytest.raises(ValueError):
            make_field(0)
        with pytest.raises(ValueError):
            make_field(17)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldCtx(2, 0b101)  # x^2 + 1 = (x+1)^2


def test_modulus_of_the_wrong_degree_rejected():
    with pytest.raises(ValueError, match="modulus 0x13 does not have degree 3"):
        FieldCtx(3, 0x13)  # x^4 + x + 1 is irreducible, but of degree 4
    assert not is_irreducible(1) and not is_irreducible(0)


def test_f2_is_trivial():
    f = make_field(1)
    assert f.basis == [1]
    assert f.trace(0) == 0 and f.trace(1) == 1  # trace is the identity on F2
    assert f.mul(1, 1) == 1


def test_f4_self_dual_basis_from_exhaustive_search():
    f = make_field(2)
    # Oracle: every ordered basis of F4 satisfying the Gram condition.
    valid = []
    for a in range(1, 4):
        for b in range(1, 4):
            if b == a:
                continue
            if (
                f.trace(f.mul(a, a)) == 1
                and f.trace(f.mul(a, b)) == 0
                and f.trace(f.mul(b, b)) == 1
            ):
                valid.append([a, b])
    assert valid == [[2, 3], [3, 2]]  # {w, w^2} in either order
    assert f.basis in valid


def test_f4_trace_values():
    f = make_field(2)
    w = 2  # the polynomial x
    assert f.trace(0) == 0
    # direct evaluation: Tr(w) = w + w^2
    assert w ^ f.mul(w, w) == 1
    assert f.trace(w) == 1


@pytest.mark.parametrize("k0", range(1, 9))
def test_gram_matrix_is_identity(k0):
    f = make_field(k0)
    basis = f.basis
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert f.trace(f.mul(a, b)) == (1 if i == j else 0)


@pytest.mark.parametrize("k0", range(1, 7))
def test_identification_roundtrip_exhaustive(k0):
    f = make_field(k0)
    for x in range(f.q):
        assert f.from_coords(f.coords(x)) == x
    assert f.coords(0) == 0


def test_f4_identify_omega():
    f = make_field(2)
    # omega = 2 has coordinates (1, 0) in basis {omega, omega^2}
    assert f.coords(2) == 0b01
    assert [(f.coords(2) >> i) & 1 for i in range(f.k0)] == [1, 0]


def test_identify_range_errors():
    f = make_field(2)
    with pytest.raises(ValueError):
        f.coords(4)
    with pytest.raises(ValueError):
        f.from_coords(4)


@pytest.mark.parametrize("k0", range(1, 7))
def test_trace_form_equals_dot_product_exhaustive(k0):
    f = make_field(k0)
    for a in range(f.q):
        ca = f.coords(a)
        for b in range(f.q):
            assert f.trace(f.mul(a, b)) == (ca & f.coords(b)).bit_count() & 1


@pytest.mark.parametrize("k0", [2, 3, 5, 8, 12, 16])
def test_field_axioms_random_triples(k0):
    f = make_field(k0)
    rng = SplitMix64(k0 * 1009)
    for _ in range(10_000):
        a = rng.randrange(f.q)
        b = rng.randrange(f.q)
        c = rng.randrange(f.q)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    # inverses
    for _ in range(200):
        a = 1 + rng.randrange(f.q - 1)
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("k0", range(1, 7))
def test_frobenius_invariance_exhaustive(k0):
    f = make_field(k0)
    for x in range(f.q):
        assert f.trace(f.mul(x, x)) == f.trace(x)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_trace_is_linear(k0, data):
    f = make_field(k0)
    a = data.draw(st.integers(min_value=0, max_value=f.q - 1))
    b = data.draw(st.integers(min_value=0, max_value=f.q - 1))
    assert f.trace(a ^ b) == f.trace(a) ^ f.trace(b)


def test_descriptor_roundtrip():
    f = make_field(3)
    d = f.descriptor()
    g = FieldCtx(d["k0"], int(d["modulus"], 16))
    assert g == f and [int(x, 16) for x in d["basis"]] == f.basis


def test_every_irreducible_modulus_up_to_degree_8():
    # construction verifies the Gram identity, so completing is the assertion;
    # this sweeps through moduli whose orthogonalization needs the hyperbolic
    # fix-up step as well
    built = 0
    for k0 in range(2, 9):
        for cand in range(1 << k0, 1 << (k0 + 1)):
            if brute_force_irreducible(cand):
                ctx = FieldCtx(k0, cand)
                assert len(ctx.basis) == k0
                # the antilog table lists the powers of one generator, each
                # nonzero element exactly once
                g = ctx._exp[1]
                powers = ctx._exp[: ctx.q - 1]
                assert sorted(powers) == list(range(1, ctx.q))
                assert all(
                    clmul_mod(x, g, cand, k0) == y for x, y in zip(powers, ctx._exp[1:])
                )
                built += 1
    assert built == 69


def test_coordinate_tables_match_the_trace_construction():
    # every default field, then every irreducible modulus of degree <= 8
    fields = [make_field(k0) for k0 in range(1, 17)]
    fields += [
        FieldCtx(k0, cand)
        for k0 in range(2, 9)
        for cand in range(1 << k0, 1 << (k0 + 1))
        if brute_force_irreducible(cand)
    ]
    for ctx in fields:
        want = coords_table_by_trace(ctx)
        assert [ctx.coords(x) for x in range(ctx.q)] == want
        inverse = [0] * ctx.q
        for x, c in enumerate(want):
            inverse[c] = x
        assert [ctx.from_coords(c) for c in range(ctx.q)] == inverse
    assert len(fields) == 16 + 69


@pytest.mark.parametrize("k0", range(1, 9))
def test_arithmetic_matches_schoolbook_exhaustive(k0):
    # mul, scale, mul_array and packed_products on every pair, zeros included
    f = make_field(k0)
    every = range(f.q)
    want = [[clmul_mod(a, b, f.modulus, k0) for b in every] for a in every]
    assert [[f.mul(a, b) for b in every] for a in every] == want
    assert [f.scale(a, every) for a in every] == want
    products = f.mul_array(np.arange(f.q)[:, None], np.arange(f.q))
    assert products.dtype == np.min_scalar_type(f.q - 1) and products.tolist() == want
    # packed_products runs column-major, then by element; entry i is in bits [i*k0, (i+1)*k0)
    assert f.packed_products([[a] for a in every], every) == [p for row in want for p in row]
    columns = list(zip(every, reversed(every)))
    packed = [want[a][b] | want[c][b] << k0 for a, c in columns for b in every]
    assert f.packed_products(iter(columns), every) == packed
    for a in range(1, f.q):
        assert clmul_mod(a, f.inv(a), f.modulus, k0) == 1


@pytest.mark.parametrize("k0", range(9, 17))
def test_arithmetic_matches_schoolbook_random(k0):
    f = make_field(k0)
    rng = SplitMix64(k0 * 7919)
    for _ in range(10_000):
        a = rng.randrange(f.q)
        b = rng.randrange(f.q)
        assert f.mul(a, b) == clmul_mod(a, b, f.modulus, k0)
        if a:
            assert clmul_mod(a, f.inv(a), f.modulus, k0) == 1


def test_inverse_of_zero_raises():
    f = make_field(4)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)

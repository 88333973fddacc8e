import pytest
from hypothesis import given, strategies as st

from minseq.domains import IntegerRing, PrimeField, parse_domain
from minseq.errors import (
    MinseqError,
    NotDivisible,
    NotInvertible,
    SpecMismatch,
    ZeroPolynomial,
)
from minseq.poly import NEG_INF, Poly, poly_gcd, poly_monicize

F7 = PrimeField(7)
Z = IntegerRing()


def P7(*coeffs):
    return Poly(F7, list(coeffs))


def test_trailing_zeros_stripped():
    f = P7(1, 2, 0, 0)
    assert f.coeffs == [1, 2]
    assert f.degree == 1
    assert Poly(F7, [0, 0, 0]).is_zero


def test_zero_polynomial_edges():
    z = Poly.zero(F7)
    assert z.degree == NEG_INF
    assert z.is_zero
    with pytest.raises(ZeroPolynomial):
        z.lc
    assert z + z == z
    assert z * P7(1, 1) == z
    assert str(z) == "0"


def test_constructors():
    assert Poly.one(F7) == P7(1)
    assert Poly.x(F7) == P7(0, 1)
    assert Poly.monomial(F7, 1, 3) == P7(0, 0, 0, 1)
    assert Poly.monomial(F7, 4, 2) == P7(0, 0, 4)
    assert Poly.parse(F7, ["3", "-1", "2"]) == P7(3, 6, 2)


def test_coeff_out_of_range_is_zero():
    f = P7(1, 2, 3)
    assert f.coeff(5) == 0
    assert f.coeff(-1) == 0
    assert f.coeff(2) == 3


def test_mixed_domain_rejected():
    with pytest.raises(SpecMismatch):
        P7(1) + Poly(PrimeField(5), [1])


def test_mul_known_product():
    # (x + 3)(x + 5) = x^2 + x + 1 mod 7
    assert P7(3, 1) * P7(5, 1) == P7(1, 1, 1)


def test_scale_and_shift():
    f = P7(1, 2, 3)
    assert f.scale(2) == P7(2, 4, 6)
    assert f.scale(0).is_zero
    assert f.shift(2) == P7(0, 0, 1, 2, 3)
    assert f.shift(0) == f
    with pytest.raises(MinseqError):
        f.shift(-1)


def test_eval_horner():
    f = P7(1, 0, 1)  # x^2 + 1
    assert f(0) == 1
    assert f(3) == 3
    assert f(5) == 5


def test_divmod_over_field():
    f = P7(2, 0, 0, 1)  # x^3 + 2
    g = P7(1, 1)  # x + 1
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_divmod_over_int_unit_lc():
    f = Poly(Z, [1, -3, 0, 2])
    g = Poly(Z, [-1, 1])
    q, r = divmod(f, g)
    assert q * g + r == f
    with pytest.raises((NotInvertible, NotDivisible)):
        divmod(f, Poly(Z, [1, 2]))


def test_division_by_zero():
    with pytest.raises(ZeroPolynomial):
        divmod(P7(1, 1), Poly.zero(F7))


def test_monicize():
    f = P7(2, 4, 3)
    m = poly_monicize(f)
    assert m.lc == 1
    assert m == f.scale(F7.inv(3))
    with pytest.raises(ZeroPolynomial):
        poly_monicize(Poly.zero(F7))
    with pytest.raises(NotInvertible):
        poly_monicize(Poly(Z, [1, 2]))


def test_gcd():
    f = P7(3, 1) * P7(5, 1)
    g = P7(3, 1) * P7(2, 1)
    assert poly_gcd(f, g) == P7(3, 1)
    assert poly_gcd(f, Poly.zero(F7)) == poly_monicize(f)
    assert poly_gcd(Poly.zero(F7), Poly.zero(F7)).is_zero
    with pytest.raises(NotDivisible):
        poly_gcd(Poly(Z, [2]), Poly(Z, [4]))


def test_direct_operators():
    f, g = P7(1, 1), P7(2, 0, 1)
    assert f + g == P7(3, 1, 1)
    assert f - g == P7(6, 1, 6)
    assert f * g == P7(2, 2, 1, 1)
    assert f.scale(3) == P7(3, 3)
    assert f.shift(2) == P7(0, 0, 1, 1)
    assert -f == P7(6, 6)


def test_str_forms():
    assert str(P7(1, 0, 3)) == "3*x^2 + 1"
    assert str(P7(0, 1)) == "x"
    assert str(Poly(Z, [-1, 1])) == "x + -1"


coeffs7 = st.lists(st.integers(0, 6), min_size=0, max_size=8)


@given(coeffs7, coeffs7, coeffs7)
def test_ring_identities(a, b, c):
    f, g, h = Poly(F7, a), Poly(F7, b), Poly(F7, c)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f + (-f) == Poly.zero(F7)
    assert (f * g) * h == f * (g * h)


@given(coeffs7, coeffs7)
def test_divmod_property(a, b):
    f, g = Poly(F7, a), Poly(F7, b)
    if g.is_zero:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@given(coeffs7, coeffs7)
def test_degree_of_product(a, b):
    f, g = Poly(F7, a), Poly(F7, b)
    if f.is_zero or g.is_zero:
        assert (f * g).is_zero
    else:
        assert (f * g).degree == f.degree + g.degree


scalars7 = st.none() | st.integers(0, 6)


@given(coeffs7, coeffs7, scalars7, scalars7, st.integers(0, 4), st.integers(0, 4))
def test_sub_scaled_is_the_composed_update(a, b, x, y, i, j):
    f, g = Poly(F7, a), Poly(F7, b)
    lhs = f if x is None else f.scale(x)
    rhs = g if y is None else g.scale(y)
    assert f.sub_scaled(x, i, g, y, j) == lhs.shift(i) + -rhs.shift(j)

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from minseq.domains import (
    BinaryExtField,
    GF2,
    IntegerRing,
    PrimeField,
    RationalField,
    _is_prime,
    _is_strong_lucas_prp,
    parse_domain,
    require_field,
    require_finite_field,
)
from minseq.errors import (
    MinseqError,
    NotAField,
    NotAFiniteField,
    NotDivisible,
    NotInvertible,
)

GF16 = BinaryExtField(4, 0x13)  # x^4 + x + 1


def test_parse_domain_specs():
    assert parse_domain("gf2").name == "gf2"
    assert parse_domain("gfp:7").name == "gfp:7"
    assert parse_domain("gf2m:4:0x13").name == "gf2m:4:0x13"
    assert parse_domain("int").name == "int"
    assert parse_domain("rat").name == "rat"
    for bad in ("gf9", "gfp:8", "gfp:", "gf2m:4", "", "gf2m:4:0x15"):
        with pytest.raises(MinseqError):
            parse_domain(bad)


def test_gf2_basics():
    d = GF2()
    assert d.add(1, 1) == 0
    assert d.mul(1, 1) == 1
    assert d.inv(1) == 1
    with pytest.raises(NotInvertible):
        d.inv(0)
    assert d.parse("1") == 1 and d.parse("0") == 0
    with pytest.raises(MinseqError):
        d.parse("2")
    assert sorted(d.elements()) == [0, 1]
    assert d.size == 2


@given(st.integers(0, 1), st.integers(0, 1))
def test_gf2_agrees_with_gfp2(a, b):
    d, ref = GF2(), PrimeField(2)
    assert isinstance(d, PrimeField) and d.name == "gf2" and d != ref
    for op in ("add", "sub", "mul"):
        got = getattr(d, op)(a, b)
        assert got == getattr(ref, op)(a, b) and type(got) is int
    assert d.neg(a) == ref.neg(a)
    assert d.is_unit(a) == ref.is_unit(a)
    if a:
        assert d.inv(a) == ref.inv(a) == 1
    else:
        for dom in (d, ref):
            with pytest.raises(NotInvertible):
                dom.inv(a)
    assert d.size == ref.size == 2
    assert list(d.elements()) == list(ref.elements()) == [0, 1]


PY_OPS = (("add", operator.add), ("sub", operator.sub), ("mul", operator.mul))


@given(st.integers(), st.integers())
def test_int_arithmetic_is_pythons(a, b):
    d = IntegerRing()
    for name, op in PY_OPS:
        got = getattr(d, name)(a, b)
        assert got == op(a, b) and type(got) is int
    assert d.neg(a) == -a and type(d.neg(a)) is int


@given(st.fractions(), st.fractions())
def test_rat_arithmetic_is_pythons_and_stays_fraction(a, b):
    d = RationalField()
    for name, op in PY_OPS:
        got = getattr(d, name)(a, b)
        assert got == op(a, b) and type(got) is Fraction
    assert d.neg(a) == -a and type(d.neg(a)) is Fraction


@given(st.integers(0, 255), st.integers(0, 255))
def test_gf2m_add_and_sub_are_xor(a, b):
    d = parse_domain("gf2m:8:0x11B")
    assert d.add(a, b) == d.sub(a, b) == a ^ b
    assert d.neg(a) == a


def test_prime_field_rejects_composites():
    for p in (1, 4, 9, 15, 561, 341):  # includes Fermat/Carmichael pretenders
        with pytest.raises(MinseqError):
            PrimeField(p)
    for p in (2, 3, 7, 97, 65537):
        PrimeField(p)


# psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the bases
# 2..37; psi_13 = 3317044064679887385961981, one to every base 2..41, which
# only the strong Lucas test rejects.
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499)


def test_is_prime_rejects_strong_pseudoprimes():
    assert PSI12 == 399165290221 * 798330580441
    for n in (PSI12, PSI13, (2**61 - 1) * (2**89 - 1)):
        assert not _is_prime(n)
        with pytest.raises(MinseqError):
            PrimeField(n)
    for n in (2**61 - 1, 2**89 - 1, 2**127 - 1, 2**521 - 1):
        assert _is_prime(n)
    assert PrimeField(2**127 - 1).inv(3) * 3 % (2**127 - 1) == 1


def test_strong_lucas_test_on_its_pseudoprimes():
    # the Lucas half alone is fooled by these (and Miller-Rabin is not)
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert _is_strong_lucas_prp(n) and not _is_prime(n)
    for n in (PSI12, PSI13, 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73):
        assert not _is_strong_lucas_prp(n)
    assert not _is_strong_lucas_prp(1000003**2)
    for n in (43, 1000003, 2**89 - 1, 2**127 - 1):
        assert _is_strong_lucas_prp(n)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for n in range(3000):
        assert _is_prime(n) == sympy.isprime(n), n
    for lo, hi in ((2, 2**64), (PSI13, 2**160)):
        for _ in range(400):
            n = rng.randrange(lo, hi) | 1
            assert _is_prime(n) == sympy.isprime(n), n
    for _ in range(40):
        p = sympy.randprime(PSI13, 2**200)
        q = sympy.randprime(2**20, 2**80)
        assert _is_prime(p) and not _is_prime(p * q)


def test_prime_field_inverse():
    d = PrimeField(97)
    for a in range(1, 97):
        assert d.mul(a, d.inv(a)) == 1
    with pytest.raises(NotInvertible):
        d.inv(0)
    assert d.parse("-3") == 94
    assert d.parse("100") == 3


def test_gf16_is_generated_by_x():
    # 0x13 = x^4 + x + 1 is primitive, so powers of x cycle through all units
    seen = set()
    a = GF16.one
    for _ in range(15):
        a = GF16.mul(a, 0x2)
        seen.add(a)
    assert len(seen) == 15


def test_gf16_known_power_table():
    # alpha = x; spot-check the classic log table for x^4 + x + 1
    expected = {
        1: 0x2, 2: 0x4, 3: 0x8, 4: 0x3, 5: 0x6, 6: 0xC, 7: 0xB,
        8: 0x5, 9: 0xA, 10: 0x7, 11: 0xE, 12: 0xF, 13: 0xD, 14: 0x9,
    }
    for e, v in expected.items():
        assert GF16.gen_pow(e) == v, e
    assert GF16.gen_pow(15) == 0x1


def test_gf2m_rejects_reducible_modulus():
    with pytest.raises(MinseqError):
        BinaryExtField(4, 0x15)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(MinseqError):
        BinaryExtField(3, 0x13)  # degree does not match m
    with pytest.raises(MinseqError):
        BinaryExtField(2, 0x6)  # x^2 + x is divisible by x


def test_gf2m_nonprimitive_irreducible_still_works():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5;
    # the generator search must find some other primitive element
    d = BinaryExtField(4, 0x1F)
    assert d.size == 16
    for a in range(1, 16):
        assert d.mul(a, d.inv(a)) == 1


def test_gf2m_degree_bounds():
    with pytest.raises(MinseqError):
        BinaryExtField(0, 0x1)
    with pytest.raises(MinseqError):
        BinaryExtField(17, 0x3)


def test_gf16_parse_format_roundtrip():
    for a in range(16):
        assert GF16.parse(GF16.format(a)) == a
    assert GF16.format(0xA) == "0xA"
    assert GF16.parse("c") == 12  # bare literals are hex too
    with pytest.raises(MinseqError):
        GF16.parse("0x10")


def test_integer_ring_units_and_division():
    d = IntegerRing()
    assert d.is_unit(1) and d.is_unit(-1) and not d.is_unit(2)
    assert d.exact_div(6, -3) == -2
    with pytest.raises(NotDivisible):
        d.exact_div(7, 2)
    with pytest.raises(NotInvertible):
        d.inv(2)
    with pytest.raises(NotAField):
        require_field(d)
    with pytest.raises(NotAFiniteField):
        require_finite_field(d)


def test_rational_field_literals():
    d = RationalField()
    a = d.parse("3/4")
    b = d.parse("-1/2")
    assert d.add(a, b) == d.parse("1/4")
    assert d.format(d.inv(a)) == "4/3"
    with pytest.raises(MinseqError):
        d.parse("1/0")


def test_prime_field_direct_ops():
    d = PrimeField(7)
    assert d.add(3, 5) == 1
    assert d.sub(3, 5) == 5
    assert d.mul(3, 5) == 1
    assert d.neg(3) == 4
    assert d.is_unit(3) and d.inv(3) == 5
    assert not d.is_unit(0)
    assert d.exact_div(6, 2) == 3


def test_domain_equality_is_by_name():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(5)
    assert BinaryExtField(4, 0x13) == BinaryExtField(4, 0x13)
    assert BinaryExtField(4, 0x13) != BinaryExtField(4, 0x19)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_gfp7_field_axioms(a, b, c):
    d = PrimeField(7)
    assert d.add(a, b) == d.add(b, a)
    assert d.mul(a, b) == d.mul(b, a)
    assert d.mul(a, d.add(b, c)) == d.add(d.mul(a, b), d.mul(a, c))
    assert d.add(a, d.neg(a)) == 0
    if a != 0:
        assert d.mul(a, d.inv(a)) == 1


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_gf16_field_axioms(a, b, c):
    d = GF16
    assert d.add(a, b) == d.add(b, a)
    assert d.mul(a, b) == d.mul(b, a)
    assert d.mul(a, d.add(b, c)) == d.add(d.mul(a, b), d.mul(a, c))
    assert d.mul(a, d.mul(b, c)) == d.mul(d.mul(a, b), c)
    if a != 0:
        assert d.mul(a, d.inv(a)) == 1

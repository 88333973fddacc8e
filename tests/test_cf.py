import random
from fractions import Fraction

import pytest

from minseq.cf import (
    RationalFn,
    cf_expand_prefix,
    cf_expand_rational,
    lc_from_cf,
    minimal_poly_of_lrs,
    pq_for_n,
)
from minseq.domains import BinaryExtField, GF2, IntegerRing, PrimeField, parse_domain
from minseq.errors import (
    InsufficientTerms,
    MinseqError,
    OutOfRange,
    PositiveValuation,
    ZeroPolynomial,
)
from minseq.genfn import Seq
from minseq.poly import Poly, poly_gcd, poly_monicize
from minseq.solver import lc_profile

GF16 = BinaryExtField(4, 0x13)
F2 = GF2()
F3 = PrimeField(3)
g = GF16.gen_pow


def test_rational_fn_reduces_and_rejects_zero_den():
    f = RationalFn(Poly(F3, [0, 2]), Poly(F3, [0, 0, 1]))  # 2x / x^2
    assert f.num == Poly(F3, [2]) and f.den == Poly(F3, [0, 1])
    with pytest.raises(ZeroPolynomial):
        RationalFn(Poly(F3, [1]), Poly.zero(F3))
    with pytest.raises(MinseqError):
        RationalFn(Poly(IntegerRing(), [1]), Poly(IntegerRing(), [0, 1]))


def test_rational_fn_prefix_series():
    # x * 1/(x - 2) over GF(5) expands to the geometric series 1, 2, 4, 3, ...
    S = RationalFn(Poly(PrimeField(5), [1]), Poly(PrimeField(5), [-2, 1]))
    assert S.prefix(6).terms == [1, 2, 4, 3, 1, 2]
    with pytest.raises(PositiveValuation):
        RationalFn(Poly(F3, [0, 1]), Poly(F3, [1, 1])).prefix(3)


def _prefix_term_by_term(S, n):
    """Reference series division: multiply the remainder by x, read one term."""
    dom = S.dom
    inv_lc = dom.inv(S.den.coeffs[-1])
    rem = list(S.num.coeffs) + [dom.zero] * (S.den.degree - len(S.num.coeffs))
    terms = []
    for _ in range(n):
        rem.insert(0, dom.zero)
        t = dom.mul(rem.pop(), inv_lc)
        if t != dom.zero:
            for j, c in enumerate(S.den.coeffs[:-1]):
                rem[j] = dom.sub(rem[j], dom.mul(t, c))
        terms.append(t)
    return terms


@pytest.mark.parametrize("spec", ["gf2", "gfp:3", "gf2m:4:0x13", "rat"])
def test_rational_fn_prefix_matches_term_by_term_division(spec):
    dom = parse_domain(spec)
    rng = random.Random(spec)
    if dom.is_finite:
        els = list(dom.elements())
        elem = lambda: rng.choice(els)  # noqa: E731
    else:
        elem = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))  # noqa: E731

    def poly(degree):
        top = dom.zero
        while top == dom.zero:
            top = elem()
        return Poly(dom, [elem() for _ in range(degree)] + [top])

    seen = {"s_0 = 0": 0, "zero numerator": 0, "n = 0": 0}
    for _ in range(400):
        den = poly(rng.randint(1, 6))
        nd = rng.randint(-1, den.degree - 1)
        S = RationalFn(poly(nd) if nd >= 0 else Poly.zero(dom), den)
        n = rng.randint(0, 24)
        want = _prefix_term_by_term(S, n)
        assert S.prefix(n).terms == want
        seen["s_0 = 0"] += bool(want) and want[0] == dom.zero
        seen["zero numerator"] += S.num.is_zero
        seen["n = 0"] += n == 0
    assert min(seen.values()) > 0, seen


def test_worked_gf16_expansion():
    # den = x^3 + a^6 x^2 + a^3 x + a^13, num = a^5 x^2 + a^2 x + a^10
    num = Poly(GF16, [g(10), g(2), g(5)])
    den = Poly(GF16, [g(13), g(3), g(6), g(0)])
    exp = cf_expand_rational(RationalFn(num, den))
    assert exp.mode == "rational"
    assert exp.terminated and not exp.precision_exhausted
    a1 = Poly(GF16, [g(14), g(10)])
    a2 = Poly(GF16, [g(5), g(14)])
    a3 = Poly(GF16, [g(5), g(1)])
    assert exp.quotients == [a1, a2, a3]
    assert exp.partition == [1, 3, 5]
    # last convergent, up to the unit factor a^10
    q1 = Poly(GF16, [0x5, 0xD, 0x2, 0x7])
    q2 = Poly(GF16, [0x6, 0xF, 0x1])
    last = exp.convergents[-1]
    assert last.f1 == q1 and last.f2 == q2
    assert poly_monicize(q1) == poly_monicize(den)


def test_worked_gf16_pq_for_n():
    num = Poly(GF16, [g(10), g(2), g(5)])
    den = Poly(GF16, [g(13), g(3), g(6), g(0)])
    exp = cf_expand_rational(RationalFn(num, den))
    i, q, q_prev = pq_for_n(exp, 4)
    assert i == 2
    assert q.f1 == Poly(GF16, [0x2, 0xC, 0xA])  # a^9 x^2 + a^6 x + a
    assert q_prev.f1 == exp.convergents[1].f1
    # profile from the partition: 1, 1, 2, 2, 3, 3, then stable
    got = [lc_from_cf(exp, n) for n in range(1, 7)]
    assert got == [1, 1, 2, 2, 3, 3]
    # and it agrees with the solver on the expanded prefix
    s = RationalFn(num, den).prefix(6)
    assert got == lc_profile(s)


def test_geometric_rational_terminates_in_one_quotient():
    dom = PrimeField(7)
    s0, r = 3, 5
    S = RationalFn(Poly(dom, [s0]), Poly(dom, [dom.neg(r), 1]))
    exp = cf_expand_rational(S)
    assert len(exp.quotients) == 1
    assert exp.quotients[0] == Poly(dom, [dom.mul(dom.neg(r), dom.inv(s0)), dom.inv(s0)])
    assert exp.partition == [1]
    assert exp.terminated


def test_zero_numerator():
    S = RationalFn(Poly.zero(F3), Poly(F3, [1, 1]))
    exp = cf_expand_rational(S)
    assert exp.terminated
    assert exp.quotients == [] and exp.partition == []
    # any prefix of the zero series is solved by the constant convergent
    i, q, q_prev = pq_for_n(exp, 1)
    assert i == 0
    assert q.f1 == Poly.one(F3) and q.f2.is_zero
    assert q_prev.f1.is_zero and q_prev.f2 == Poly.one(F3)
    assert lc_from_cf(exp, 100) == 0


def test_rational_identities_random():
    rng = random.Random(3)
    dom = F3
    for _ in range(60):
        num = Poly(dom, [rng.randrange(3) for _ in range(rng.randrange(0, 5))])
        den = Poly(dom, [rng.randrange(3) for _ in range(rng.randrange(1, 6))] + [1])
        if num.degree >= den.degree:
            continue
        S = RationalFn(num, den)
        exp = cf_expand_rational(S)
        assert exp.terminated
        convs = exp.convergents
        # determinant alternates sign, all quotients have degree >= 1,
        # degrees accumulate, and the last convergent reconstructs S
        prev = None
        for i, q in enumerate(convs):
            if i == 0:
                continue
            det = q.f1 * convs[i - 1].f2 - q.f2 * convs[i - 1].f1
            assert det == Poly(dom, [dom.one if i % 2 == 0 else dom.neg(dom.one)])
            assert poly_gcd(q.f1, q.f2).degree <= 0
            if prev is not None:
                assert q.f1.degree > prev.f1.degree
            prev = q
        for a in exp.quotients:
            assert a.degree >= 1
        last = convs[-1]
        assert S.num * last.f1 == S.den * last.f2
        assert last.f1.degree == sum(a.degree for a in exp.quotients)


def test_prefix_mode_worked_example():
    s = Seq(GF16, [g(5), g(9), g(4), 0, 0, g(2)])
    exp = cf_expand_prefix(s)
    assert exp.mode == "prefix"
    assert exp.quotients == []
    assert not exp.terminated and exp.precision_exhausted
    assert exp.partition == [1, 3, 5]
    assert exp.prefix_len == 6
    assert [c.f1 for c in exp.convergents] == [
        Poly(GF16, [1]),
        Poly(GF16, [g(4), 1]),
        Poly(GF16, [0xB, 0xF, 0x1]),
        Poly(GF16, [0xD, 0x8, 0xC, 0x1]),
    ]
    assert [lc_from_cf(exp, n) for n in range(1, 7)] == [1, 1, 2, 2, 3, 3]


def test_prefix_mode_agrees_with_solver_profile():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 15)
        terms = [rng.randrange(3) for _ in range(n)]
        s = Seq(F3, terms)
        exp = cf_expand_prefix(s)
        prof = lc_profile(s)
        assert [lc_from_cf(exp, i) for i in range(1, n + 1)] == prof
        with pytest.raises(OutOfRange):
            lc_from_cf(exp, n + 1)
        with pytest.raises(OutOfRange):
            lc_from_cf(exp, 0)


def test_prefix_convergents_annihilate_their_cells():
    from minseq.genfn import is_annihilator

    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(2, 14)
        terms = [rng.randrange(2) for _ in range(n)]
        s = Seq(F2, terms)
        exp = cf_expand_prefix(s)
        prof = lc_profile(s)
        for i, conv in enumerate(exp.convergents):
            # convergent i is the minimal solution for every n in cell i
            start = 1 if i == 0 else exp.partition[i - 1]
            end = (exp.partition[i] - 1) if i < len(exp.partition) else exp.prefix_len
            for m in range(start, end + 1):
                assert is_annihilator(conv.f1, s.prefix(m))
                assert conv.f1.degree == prof[m - 1]


def test_trivial_prefix_keeps_constant_convergent():
    exp = cf_expand_prefix(Seq(F2, [0, 0, 0]))
    assert exp.partition == []
    assert [c.f1 for c in exp.convergents] == [Poly(F2, [1])]
    assert lc_from_cf(exp, 3) == 0
    with pytest.raises(OutOfRange):
        pq_for_n(exp, 4)  # beyond the observed prefix


def test_pq_for_n_range_checks():
    num = Poly(F3, [1])
    den = Poly(F3, [0, 2, 1])  # x^2 + 2x
    exp = cf_expand_rational(RationalFn(num, den))
    with pytest.raises(OutOfRange):
        pq_for_n(exp, 0)
    # x/(x^2+2x) starts with a zero term, so n=1 is still the trivial cell
    assert pq_for_n(exp, 1)[1].f1.degree == 0
    assert pq_for_n(exp, 2)[1].f1.degree == 2
    s = Seq(F3, [1, 2, 1, 0])
    pexp = cf_expand_prefix(s)
    with pytest.raises(OutOfRange):
        pq_for_n(pexp, 5)


def test_minimal_poly_of_lrs():
    dom = PrimeField(7)
    fib = [1, 1, 2, 3, 5, 1, 6, 0]
    mu = minimal_poly_of_lrs(Seq(dom, fib))
    assert mu.f1 == Poly(dom, [6, 6, 1])  # x^2 + 6x + 6, monic
    with pytest.raises(InsufficientTerms) as exc:
        minimal_poly_of_lrs(Seq(dom, [1, 1, 2]))
    assert exc.value.lc == 2
    with pytest.raises(MinseqError):
        minimal_poly_of_lrs(Seq(IntegerRing(), [1, 2]))


def test_fibonacci_rational_roundtrip():
    # reconstruct the generating function of Fibonacci mod 7 and re-expand
    dom = PrimeField(7)
    fib = [1, 1, 2, 3, 5, 1, 6, 0]
    exp = cf_expand_prefix(Seq(dom, fib))
    mu = exp.convergents[-1]
    S = RationalFn(mu.f2, mu.f1)
    assert S.prefix(8).terms == fib

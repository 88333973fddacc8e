import pytest
from hypothesis import given, settings, strategies as st

from minseq.domains import GF2, IntegerRing, PrimeField, parse_domain
from minseq.errors import MinseqError, NotAnnihilator
from minseq.genfn import (
    Seq,
    SolutionPair,
    bracket_numerator,
    conv_coeff,
    discrepancy,
    dot,
    is_annihilator,
    make_solution,
)
from minseq.poly import Poly

Z = IntegerRing()
F2 = GF2()


def test_seq_indexing_convention():
    # terms are s_0, s_-1, ..., s_{1-n}; term(i) looks up s_i
    s = Seq(Z, [10, 20, 30])
    assert s.term(0) == 10
    assert s.term(-1) == 20
    assert s.term(-2) == 30
    assert s.term(1) == 0  # outside the window reads as zero
    assert s.term(-3) == 0
    assert len(s) == 3


def test_seq_parse_prefix_extend():
    s = Seq.parse(Z, ["1", "-2", "3"])
    assert s.terms == [1, -2, 3]
    assert s.prefix(2).terms == [1, -2]
    assert s.extend(7).terms == [1, -2, 3, 7]
    assert not s.is_trivial
    assert Seq(Z, [0, 0]).is_trivial


def test_conv_coeff_is_a_convolution():
    # f = 1 + 2x, s_0 = 3, s_-1 = 5: (f*s)_0 = f_0 s_0 + f_1 s_-1 = 13
    s = Seq(Z, [3, 5])
    f = Poly(Z, [1, 2])
    assert conv_coeff(f, s, 0) == 13
    assert conv_coeff(f, s, 1) == 2 * 3  # f_1 s_0
    assert conv_coeff(f, s, -1) == 1 * 5  # f_0 s_-1


KERNEL_DOMAINS = [
    parse_domain(spec) for spec in ("gf2", "gfp:7", "gf2m:4:0x13", "int", "rat")
]


def _elements(dom):
    if dom.is_finite:
        return st.sampled_from(list(dom.elements()))
    if dom.name == "int":
        return st.integers(-9, 9)
    return st.fractions(-9, 9, max_denominator=5)


def conv_by_definition(f, s, i):
    """sum of f_j * s_{-m} over every pair with j - m = i."""
    dom = f.dom
    acc = dom.zero
    for j, fj in enumerate(f.coeffs):
        for m, sm in enumerate(s.terms):
            if j - m == i:
                acc = dom.add(acc, dom.mul(fj, sm))
    return acc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_conv_coeff_matches_the_double_loop(data):
    dom = data.draw(st.sampled_from(KERNEL_DOMAINS), label="dom")
    f = Poly(dom, data.draw(st.lists(_elements(dom), max_size=6), label="f"))
    s = Seq(dom, data.draw(st.lists(_elements(dom), max_size=8), label="s"))
    n = len(s)
    i = data.draw(st.integers(-n - 3, len(f.coeffs) + 3), label="i")
    assert conv_coeff(f, s, i) == conv_by_definition(f, s, i)
    want = conv_by_definition(f, s, len(f.coeffs) - n)
    assert discrepancy(f, s) == want


@pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=lambda d: d.name)
def test_conv_coeff_edge_cases(dom):
    one, zero = dom.one, dom.zero
    s = Seq(dom, [one, one, one])
    f = Poly(dom, [one, one])
    assert conv_coeff(f, s, 1) == one  # i > 0 reads only f_1 s_0
    assert conv_coeff(f, s, 2) == zero  # past the top of f
    assert conv_coeff(f, s, -2) == one  # f_0 s_-2 alone
    assert conv_coeff(f, s, -3) == zero  # i <= -n reads nothing
    assert conv_coeff(f, Seq(dom, []), 0) == zero
    assert conv_coeff(Poly.zero(dom), s, 0) == zero
    assert discrepancy(Poly.zero(dom), s) == zero
    assert discrepancy(f, Seq(dom, [])) == zero
    assert dot(dom, [], []) == zero


def test_annihilator_window():
    # x - 2 annihilates s_0=1, s_-1=2, s_-2=4: each term doubles the one
    # above it, so s_i = 2 s_{i-1} holds on the whole window
    s = Seq(Z, [1, 2, 4])
    f = Poly(Z, [-2, 1])
    assert is_annihilator(f, s)
    assert not is_annihilator(f, Seq(Z, [1, 2, 3]))


def test_vacuous_annihilation_for_high_degree():
    s = Seq(Z, [1, 2, 3])
    f = Poly(Z, [9, 9, 9, 1])  # degree 3 = n: the check window is empty
    assert is_annihilator(f, s)
    assert is_annihilator(Poly.zero(Z), s)  # zero divides everything here


def test_annihilator_domain_mismatch():
    with pytest.raises(MinseqError):
        is_annihilator(Poly(Z, [1]), Seq(PrimeField(5), [1]))


def test_bracket_numerator_example():
    # s = (2, 1) over the integers, f1 = 2x - 1: the bracket gives f2 = 4
    s = Seq(Z, [2, 1])
    f1 = Poly(Z, [-1, 2])
    assert is_annihilator(f1, s)
    assert bracket_numerator(f1, s) == Poly(Z, [4])


def test_make_solution():
    s = Seq(Z, [2, 1])
    f1 = Poly(Z, [-1, 2])
    f = make_solution(f1, s)
    assert f == SolutionPair(f1, Poly(Z, [4]))
    with pytest.raises(NotAnnihilator):
        make_solution(Poly(Z, [1, 1]), s)


def test_bracket_numerator_degree_bound():
    s = Seq(F2, [0, 1, 1, 0, 0, 1, 0, 1])
    f1 = Poly(F2, [0, 1, 1, 0, 1])  # x^4 + x^2 + x
    f2 = bracket_numerator(f1, s)
    assert f2 == Poly(F2, [1, 1, 1])
    assert f2.degree < f1.degree


def test_discrepancy_matches_next_convolution_coefficient():
    # discrepancy of g1 against t = s extended by one term is the first
    # convolution coefficient the annihilation window would gain
    dom = PrimeField(7)
    s = Seq(dom, [1, 1, 2, 3])
    g1 = Poly(dom, [6, 6, 1])  # x^2 - x - 1 annihilates the Fibonacci prefix
    assert is_annihilator(g1, s)
    t = s.extend(5)
    assert discrepancy(g1, t) == conv_coeff(g1, t, g1.degree - (len(t) - 1))
    assert discrepancy(g1, t) == 0  # 5 continues the recurrence
    assert discrepancy(g1, s.extend(4)) != 0


def test_trivial_sequence_annihilated_by_constants():
    s = Seq(Z, [0, 0, 0])
    assert is_annihilator(Poly(Z, [5]), s)
    assert not is_annihilator(Poly(Z, [5]), Seq(Z, [0, 1, 0]))

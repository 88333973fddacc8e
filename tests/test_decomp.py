import random
from itertools import product

import pytest

from minseq.decomp import (
    count_solutions,
    decompose,
    enumerate_solutions,
    gcd_checks,
    is_annihilator_by_criterion,
    minimal_system_of,
    pairing,
)
from minseq.domains import GF2, IntegerRing, PrimeField
from minseq.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    MinseqError,
    NotAFiniteField,
    NotAnnihilator,
    TrivialSequence,
)
from minseq.genfn import Seq, SolutionPair, bracket_numerator, is_annihilator, make_solution
from minseq.poly import Poly, poly_gcd
from minseq.solver import minimal_solution, solver_init, solver_step

F2 = GF2()
F3 = PrimeField(3)
F5 = PrimeField(5)
Z = IntegerRing()

TABLE_SEQ = Seq(F2, [0, 1, 1, 0, 0, 1, 0, 1])


def test_pairing_of_solver_pair_is_nabla():
    # over the integers on terms a, b, c
    a, b, c = 2, 3, 7
    st = solver_init(Z)
    for t in (a, b, c):
        st = solver_step(st, t)
    assert pairing(st.mu, st.muP) == Poly(Z, [st.nabla])
    assert st.nabla == a * a * (a * c - b * b)


def test_pairing_is_antisymmetric_and_bilinear():
    f = SolutionPair(Poly(Z, [1, 2]), Poly(Z, [3]))
    g = SolutionPair(Poly(Z, [0, 1, 1]), Poly(Z, [1, 1]))
    assert pairing(f, g) == -pairing(g, f)
    fg = SolutionPair(f.f1 + g.f1, f.f2 + g.f2)
    h = SolutionPair(Poly(Z, [5, 1]), Poly(Z, [2]))
    assert pairing(fg, h) == pairing(f, h) + pairing(g, h)


def test_minimal_system_essential():
    sysm = minimal_system_of(TABLE_SEQ)
    assert sysm.mode == "Essential"
    assert sysm.lam.f1 == Poly(F2, [0, 1, 1, 0, 1])
    assert sysm.lamP.f1 == Poly(F2, [1, 1, 1, 1])
    assert sysm.n_prime == 6
    assert sysm.nabla == 1
    assert pairing(sysm.lam, sysm.lamP) == Poly(F2, [1])


def test_minimal_system_pseudo_geometric():
    dom = F5
    s = Seq(dom, [3, 1, 2, 4, 3])  # 3 * 2^j mod 5
    sysm = minimal_system_of(s)
    assert sysm.mode == "PseudoGeometric"
    assert sysm.n_prime == 0
    assert sysm.lam.f1.degree == 1
    assert sysm.lamP == SolutionPair(Poly(dom, [1]), Poly.zero(dom))
    assert sysm.lam.f2 == Poly(dom, [sysm.nabla])


def test_minimal_system_trivial_raises():
    with pytest.raises(TrivialSequence):
        minimal_system_of(Seq(F2, [0, 0, 0, 0]))


def test_minimal_system_trivial_prefix_jump():
    s = Seq(F5, [0, 0, 2])
    sysm = minimal_system_of(s)
    assert sysm.mode == "Essential"
    assert sysm.n_prime == 2
    assert sysm.lam.f1 == Poly(F5, [0, 0, 0, 1])
    assert sysm.lamP == SolutionPair(Poly(F5, [1]), Poly.zero(F5))


def test_decompose_known_solution():
    sysm = minimal_system_of(TABLE_SEQ)
    f1 = Poly(F2, [1, 1, 0, 0, 0, 1])  # x^5 + x + 1
    f = make_solution(f1, TABLE_SEQ)
    dec = decompose(f, TABLE_SEQ, sysm)
    n, d, lc = 8, 5, 4
    assert dec.mP.degree == d - lc
    assert dec.m.degree <= d + lc - n - 1
    nabla = Poly(F2, [sysm.nabla])
    assert nabla * f.f1 == dec.mP * sysm.lam.f1 - dec.m * sysm.lamP.f1
    assert nabla * f.f2 == dec.mP * sysm.lam.f2 - dec.m * sysm.lamP.f2
    # the coordinates are exactly the pairings
    assert dec.m == pairing(f, sysm.lam)
    assert dec.mP == pairing(f, sysm.lamP)


def test_decompose_rejects_non_solutions():
    sysm = minimal_system_of(TABLE_SEQ)
    bad1 = SolutionPair(Poly(F2, [1, 1]), Poly.zero(F2))  # not an annihilator
    with pytest.raises(NotAnnihilator):
        decompose(bad1, TABLE_SEQ, sysm)
    mu = minimal_solution(TABLE_SEQ).mu
    bad2 = SolutionPair(mu.f1, mu.f2 + Poly(F2, [1]))  # wrong numerator
    with pytest.raises(NotAnnihilator):
        decompose(bad2, TABLE_SEQ, sysm)
    with pytest.raises(NotAnnihilator):
        decompose(SolutionPair(Poly.zero(F2), Poly.zero(F2)), TABLE_SEQ, sysm)


def test_decompose_above_n_skips_numerator_identity():
    sysm = minimal_system_of(TABLE_SEQ)
    f1 = Poly(F2, [0] * 9 + [1])  # x^9, annihilates vacuously
    f = make_solution(f1, TABLE_SEQ)
    dec = decompose(f, TABLE_SEQ, sysm)
    assert dec.mP.degree == 9 - 4


def test_criterion_equals_membership_exhaustively():
    # every f1 of degree <= n over GF(2), on a sequence of each class shape
    for terms in ([0, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 1]):
        s = Seq(F2, terms)
        try:
            sysm = minimal_system_of(s)
        except TrivialSequence:
            continue
        n = len(s)
        for d in range(n + 1):
            for low in product((0, 1), repeat=d):
                f1 = Poly(F2, list(low) + [1])
                assert is_annihilator_by_criterion(f1, s, sysm) == is_annihilator(
                    f1, s
                ), (terms, f1)


def test_criterion_needs_both_bounds():
    # x + 1 on s = (1, 0): the coordinate degrees pass the first test but
    # not the second, and indeed x + 1 does not annihilate the sequence
    s = Seq(F2, [1, 0])
    sysm = minimal_system_of(s)
    f1 = Poly(F2, [1, 1])
    mP = pairing(SolutionPair(f1, bracket_numerator(f1, s)), sysm.lam)
    assert not is_annihilator(f1, s)
    assert not is_annihilator_by_criterion(f1, s, sysm)


def test_enumerate_unique_minimal_solution():
    sols = enumerate_solutions(TABLE_SEQ, 4)
    assert sols == [
        SolutionPair(Poly(F2, [0, 1, 1, 0, 1]), Poly(F2, [1, 1, 1]))
    ]


def test_enumerate_degree_five():
    sols = enumerate_solutions(TABLE_SEQ, 5)
    assert len(sols) == 4
    f1s = {str(f.f1) for f in sols}
    assert "x^5 + x + 1" in f1s
    assert "x^5 + x^4 + x^2 + 1" in f1s
    for f in sols:
        assert is_annihilator(f.f1, TABLE_SEQ)
        assert f.f2 == bracket_numerator(f.f1, TABLE_SEQ)
        assert f.f1.degree == 5


def test_enumerate_budget_is_the_closed_form_count(monkeypatch):
    s = Seq(PrimeField(7), [1, 2, 3])
    n_sols = count_solutions(s, 3)
    monkeypatch.setenv("MINSEQ_ORACLE_BUDGET", str(n_sols))
    assert len(enumerate_solutions(s, 3)) == n_sols
    monkeypatch.setenv("MINSEQ_ORACLE_BUDGET", str(n_sols - 1))
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(s, 3)
    # 5.2e33 solutions: refused from the count, before any is built
    monkeypatch.delenv("MINSEQ_ORACLE_BUDGET")
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(Seq(PrimeField(65521), [1, 2, 3, 4, 5, 6]), 6)


def test_enumerate_policy_edges():
    assert enumerate_solutions(TABLE_SEQ, 3) == []
    assert count_solutions(TABLE_SEQ, 3) == 0
    with pytest.raises(DegreeOutOfRange):
        enumerate_solutions(TABLE_SEQ, 9)
    with pytest.raises(DegreeOutOfRange):
        enumerate_solutions(TABLE_SEQ, -1)
    with pytest.raises(DegreeOutOfRange):
        count_solutions(TABLE_SEQ, 9)
    with pytest.raises(NotAFiniteField):
        enumerate_solutions(Seq(Z, [1, 2]), 1)


def test_counts_match_enumeration():
    expected = {4: 1, 5: 4, 6: 16, 7: 64, 8: 256}
    for d, c in expected.items():
        assert count_solutions(TABLE_SEQ, d) == c
        assert len(enumerate_solutions(TABLE_SEQ, d)) == c


def test_counts_match_enumeration_random_gf3():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randrange(1, 6)
        s = Seq(F3, [rng.randrange(3) for _ in range(n)])
        for d in range(n + 1):
            sols = enumerate_solutions(s, d)
            assert len(sols) == count_solutions(s, d)
            assert len({(str(f.f1), str(f.f2)) for f in sols}) == len(sols)
            for f in sols:
                assert f.f1.degree == d
                assert is_annihilator(f.f1, s)
                assert f.f2 == bracket_numerator(f.f1, s)


def test_enumerate_roundtrips_through_decompose():
    sysm = minimal_system_of(TABLE_SEQ)
    cap = 5 - 4 - 1  # d - lc - e for d = 5
    for f in enumerate_solutions(TABLE_SEQ, 6):
        dec = decompose(f, TABLE_SEQ, sysm)
        rebuilt = SolutionPair(
            dec.mP * sysm.lam.f1 - dec.m * sysm.lamP.f1,
            dec.mP * sysm.lam.f2 - dec.m * sysm.lamP.f2,
        )
        # nabla = 1 here, so the rebuild is exact
        assert rebuilt == f


def test_enumerate_trivial_sequence():
    s = Seq(F2, [0, 0, 0])
    assert [f.f1 for f in enumerate_solutions(s, 0)] == [Poly(F2, [1])]
    assert count_solutions(s, 0) == 1
    assert count_solutions(s, 2) == 4


def test_gcd_checks_inconclusive_above_bound():
    # f1 = x^3 on 1, 2, 4 over GF(5): coprime coordinates but the degree
    # is past n - lc, so no minimality conclusion is available
    s = Seq(F5, [1, 2, 4])
    f1 = Poly(F5, [0, 0, 0, 1])
    f = make_solution(f1, s)
    rep = gcd_checks(f, s, minimal_system_of(s))
    assert rep["gcds_equal"]
    assert rep["gcd_f1_f2"] == Poly(F5, [1])
    assert not rep["low_degree"]
    assert rep["minimal_confirmed"] is None
    # f2 = x^2 + 2x + 4 is irreducible over GF(5), hence the trivial gcd
    assert f.f2 == Poly(F5, [4, 2, 1])


def test_gcd_checks_confirms_minimality():
    f = minimal_solution(TABLE_SEQ).mu
    rep = gcd_checks(f, TABLE_SEQ, minimal_system_of(TABLE_SEQ))
    assert rep["low_degree"]
    assert rep["m_is_zero"]
    assert rep["nabla_f_is_mp_lambda"]
    assert rep["gcds_equal"]
    assert rep["minimal_confirmed"] is True


def test_gcd_checks_matches_direct_gcd():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randrange(2, 7)
        s = Seq(F3, [rng.randrange(3) for _ in range(n)])
        try:
            sysm = minimal_system_of(s)
        except TrivialSequence:
            continue
        lc = sysm.lam.f1.degree
        for d in range(lc, n + 1):
            for f in enumerate_solutions(s, d)[:6]:
                rep = gcd_checks(f, s, sysm)
                assert rep["gcd_f1_f2"] == poly_gcd(f.f1, f.f2)
                assert rep["gcds_equal"]

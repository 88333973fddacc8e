import pytest

from minseq.domains import GF2, IntegerRing, PrimeField
from minseq.errors import BudgetExceeded, DegreeOutOfRange, NotAFiniteField
from minseq.genfn import Seq, is_annihilator
from minseq.oracle import brute_annihilators, brute_lc, brute_lc_at
from minseq.poly import Poly

F2 = GF2()
F3 = PrimeField(3)

TABLE_SEQ = Seq(F2, [0, 1, 1, 0, 0, 1, 0, 1])


def test_unique_degree_four_annihilator():
    rep = brute_lc(TABLE_SEQ)
    assert rep.lc == 4
    assert rep.witnesses == [Poly(F2, [0, 1, 1, 0, 1])]
    assert rep.per_degree_counts == {
        0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 4, 6: 16, 7: 64, 8: 256,
    }


def test_every_witness_annihilates():
    s = Seq(F3, [1, 0, 2, 2, 1])
    for d in range(len(s) + 1):
        for w in brute_annihilators(s, d):
            assert w.degree == d
            assert w.lc != 0
            assert is_annihilator(w, s)


def test_trivial_sequence():
    rep = brute_lc(Seq(F2, [0, 0, 0]))
    assert rep.lc == 0
    assert rep.witnesses == [Poly(F2, [1])]


def test_zero_prefix_then_nonzero():
    rep = brute_lc(Seq(F2, [0, 0, 0, 0, 1]))
    assert rep.lc == 5  # jump straight to n


def test_geometric_has_lc_one():
    assert brute_lc(Seq(F3, [1, 2, 1, 2, 1])).lc == 1


def test_lc_at_zero_of_impulse():
    assert brute_lc_at(Seq(F2, [1, 0, 0, 0]), 0) == 4
    assert brute_lc_at(Seq(F2, [1, 0, 0, 0]), 1) == 1


def test_gf2_path_matches_generic_path():
    # same answers whether convolutions run as popcounts or in the domain
    from minseq.oracle import _annihilates

    import itertools

    s = Seq(F2, [1, 1, 0, 1, 0, 0])
    n = len(s)
    for d in range(n + 1):
        fast = {tuple(w.coeffs) for w in brute_annihilators(s, d)}
        slow = set()
        for low in itertools.product((0, 1), repeat=d):
            coeffs = low + (1,)
            if _annihilates(F2, coeffs, s.terms, d, n):
                slow.add(coeffs)
        assert fast == slow, d


def test_budget_guard(monkeypatch):
    s = Seq(F3, [1, 2, 0])
    monkeypatch.setenv("MINSEQ_ORACLE_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        brute_annihilators(s, 2)  # 3^3 = 27 > 10
    assert len(brute_annihilators(s, 1)) >= 0  # 3^2 = 9 <= 10
    monkeypatch.setenv("MINSEQ_ORACLE_BUDGET", "1000000")
    brute_annihilators(s, 2)


@pytest.mark.parametrize("dom", [F2, F3], ids=lambda d: d.name)
def test_degree_outside_0_to_n_is_out_of_range(dom):
    s = Seq(dom, [1, 0, 1])
    for d in (-3, -1, 4, 3_000_000):
        with pytest.raises(DegreeOutOfRange):
            brute_annihilators(s, d)


def test_budget_guard_stops_before_the_full_power():
    # q^(d+1) here has about 5,700 digits, past the int-to-str limit
    q = 2**61 - 1
    s = Seq(PrimeField(q), range(1, 301))
    with pytest.raises(BudgetExceeded, match=rf"= {q}\^300 exceeds budget"):
        brute_annihilators(s, 299)


def test_requires_finite_field():
    with pytest.raises(NotAFiniteField):
        brute_lc(Seq(IntegerRing(), [1, 2]))

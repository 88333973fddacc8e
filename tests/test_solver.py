import importlib
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minseq.domains import (
    BinaryExtField,
    GF2,
    IntegerRing,
    PrimeField,
    RationalField,
    parse_domain,
)
from minseq.errors import MinseqError
from minseq.genfn import Seq, bracket_numerator, discrepancy, is_annihilator
from minseq.poly import Poly
from minseq.solver import (
    ESSENTIAL,
    PSEUDO_GEOMETRIC,
    TRIVIAL,
    classify,
    classify_profile,
    lc_profile,
    minimal_solution,
    solver_init,
    solver_states,
    solver_step,
)

F2 = GF2()
Z = IntegerRing()
GF16 = BinaryExtField(4, 0x13)


def run_trace(dom, terms, **kw):
    st_ = solver_init(dom, **kw)
    states = []
    for t in terms:
        st_ = solver_step(st_, t)
        states.append(st_)
    return states


def test_default_init_state():
    st_ = solver_init(F2)
    assert st_.mu1 == Poly(F2, [1])
    assert st_.mu2.is_zero
    assert st_.mup1.is_zero
    assert st_.mup2 == Poly(F2, [1])  # -1 over GF(2)
    assert st_.deltaP == 1
    assert st_.e == 1
    assert st_.nabla == 1
    assert st_.k == 0
    assert st_.profile == ()
    assert st_.mul_count == 0


def test_worked_binary_trace_step_by_step():
    """The eight-step GF(2) run on 0,1,1,0,0,1,0,1, checked row by row."""
    terms = [0, 1, 1, 0, 0, 1, 0, 1]
    # (delta, pre-step e, post mu1, post mu2, post mup1, post mup2)
    expected = [
        (0, 1, [1], [], [], [1]),
        (1, 2, [0, 0, 1], [1], [1], []),
        (1, -1, [0, 1, 1], [1], [1], []),
        (1, 0, [1, 1, 1], [1], [1], []),
        (1, 1, [1, 1, 1, 1], [0, 1], [1, 1, 1], [1]),
        (0, 0, [1, 1, 1, 1], [0, 1], [1, 1, 1], [1]),
        (1, 1, [1, 0, 0, 1, 1], [1, 0, 1], [1, 1, 1, 1], [0, 1]),
        (1, 0, [0, 1, 1, 0, 1], [1, 1, 1], [1, 1, 1, 1], [0, 1]),
    ]
    st_ = solver_init(F2)
    for t, row in zip(terms, expected):
        pre_e = st_.e
        st_ = solver_step(st_, t)
        delta, e, mu1, mu2, mup1, mup2 = row
        assert st_.last_delta == delta
        assert pre_e == e
        assert st_.mu1 == Poly(F2, mu1)
        assert st_.mu2 == Poly(F2, mu2)
        assert st_.mup1 == Poly(F2, mup1)
        assert st_.mup2 == Poly(F2, mup2)
    assert st_.profile == (0, 2, 2, 2, 3, 3, 4, 4)
    assert st_.e == 1
    assert st_.nabla == 1
    assert sum(st_.profile) == 20


def test_generic_quadratic_trace_over_int():
    # terms a, b, c with a != 0: after two steps mu = (a x - b, a^2)
    a, b, c = 3, 5, 11
    s1, s2, s3 = run_trace(Z, [a, b, c])
    # step 1 jumps to degree 1: mu = (x, a) against mu' = (1, 0)
    assert s1.mu1 == Poly(Z, [0, 1])
    assert s1.mu2 == Poly(Z, [a])
    assert s1.mup1 == Poly(Z, [1])
    assert s1.mup2.is_zero
    assert s1.deltaP == a
    assert s1.nabla == a
    # step 2 is an in-place update: mu = (a x - b, a^2)
    assert s2.mu1 == Poly(Z, [-b, a])
    assert s2.mu2 == Poly(Z, [a * a])
    assert s2.nabla == a * a
    assert s2.e == 1
    assert s2.deltaP == a
    # step 3 jumps again on delta = ac - b^2
    delta3 = a * c - b * b
    assert s3.last_delta == delta3
    assert s3.mu1 == Poly(Z, [-(a * c - b * b), -a * b, a * a])
    assert s3.mu2 == Poly(Z, [0, a ** 3])
    assert s3.nabla == a * a * delta3


def test_golden_ratio_sequence():
    (st_,) = [run_trace(Z, [1, 1, 2])[-1]]
    assert st_.mu1 == Poly(Z, [-1, -1, 1])  # x^2 - x - 1
    assert st_.profile == (1, 1, 2)


def test_massey_init_first_jump():
    # 0, 0, a with the classical start gives mu1 = x^3 - a, not x^3 alone
    sts = run_trace(Z, [0, 0, 5], massey=True)
    assert sts[-1].mu1 == Poly(Z, [-5, 0, 0, 1])
    assert sts[-1].mu2.is_zero


def test_default_init_trivial_prefix():
    # 0, 0, a with the default start: mu = (x^3, s_{-2}), mu' = (1, 0)
    sts = run_trace(Z, [0, 0, 5])
    assert sts[-1].mu1 == Poly(Z, [0, 0, 0, 1])
    assert sts[-1].mu2 == Poly(Z, [5])
    assert sts[-1].mup1 == Poly(Z, [1])
    assert sts[-1].nabla == 5
    assert sts[-1].profile == (0, 0, 3)


def test_steps_are_pure():
    st0 = solver_init(F2)
    st1 = solver_step(st0, 1)
    st1b = solver_step(st0, 1)  # the old state is reusable
    assert st0.k == 0 and st0.mu1 == Poly(F2, [1])
    assert st1.mu1 == st1b.mu1 and st1.seq.terms == st1b.seq.terms
    st2 = solver_step(st1, 0)
    assert st1.k == 1 and st2.k == 2


def test_retained_state_keeps_its_own_history():
    terms = [0, 1, 1, 0, 0, 1, 0, 1]
    sts = run_trace(F2, terms)
    mid = sts[3]  # retained while the run goes on to k = 8
    assert mid.k == 4
    assert mid.seq == Seq(F2, terms[:4])
    assert mid.profile == (0, 2, 2, 2)
    assert sts[-1].profile == (0, 2, 2, 2, 3, 3, 4, 4)
    for k, st_ in enumerate(sts, 1):
        assert st_.k == k and st_.seq.terms == terms[:k]
        assert st_.profile == sts[-1].profile[:k]


def test_stepping_a_retained_state_twice_branches():
    base = run_trace(F2, [1, 0, 1])[-1]
    left = solver_step(base, 1)
    right = solver_step(base, 0)
    left2 = solver_step(left, 1)
    right2 = solver_step(right, 1)
    assert base.seq.terms == [1, 0, 1] and base.k == 3
    assert left2.seq.terms == [1, 0, 1, 1, 1]
    assert right2.seq.terms == [1, 0, 1, 0, 1]
    assert left.seq.terms == [1, 0, 1, 1]
    assert right.seq.terms == [1, 0, 1, 0]
    for st_ in (left2, right2):
        again = minimal_solution(st_.seq)
        assert st_.mu1 == again.mu1 and st_.mu2 == again.mu2
        assert st_.profile == again.profile
    assert left2.profile != right2.profile


def test_a_solve_constructs_o1_seq_objects(monkeypatch):
    calls = [0]
    init = Seq.__init__

    def counting_init(self, dom, terms):
        calls[0] += 1
        init(self, dom, terms)

    monkeypatch.setattr(Seq, "__init__", counting_init)
    s = Seq(F2, ([0, 0, 1, 0, 1, 1, 1] * 715)[:5000])  # x^3 + x + 1 m-sequence
    calls[0] = 0
    st_ = minimal_solution(s, with_numerator=False)
    assert st_.k == 5000 and st_.lc == 3
    assert calls[0] <= 2


def _fields(st_):
    """Every field a state reports, polynomials as coefficient lists."""
    polys = [None if p is None else p.coeffs
             for p in (st_.mu1, st_.mu2, st_.mup1, st_.mup2)]
    return (polys, st_.deltaP, st_.e, st_.nabla, st_.profile, st_.mul_count,
            st_.last_delta, st_.k, st_.seq.terms, st_.lc)


@pytest.mark.parametrize("dom", [F2, PrimeField(7)], ids=["gf2", "gfp:7"])
def test_solver_states_is_the_step_loop(dom):
    """The fresh state, then field for field the states of the step loop."""
    rng = random.Random(31)
    els = list(dom.elements())
    for normalized, massey, with_numerator in product((False, True), repeat=3):
        kw = dict(normalized=normalized, massey=massey,
                  with_numerator=with_numerator)
        fresh = [_fields(solver_init(dom, **kw))]
        assert [_fields(s) for s in solver_states(Seq(dom, []), **kw)] == fresh
        for n, zeros in ((1, 0.0), (9, 0.5), (40, 0.0), (40, 0.9)):
            terms = [0 if rng.random() < zeros else rng.choice(els)
                     for _ in range(n)]
            got = [_fields(s) for s in solver_states(Seq(dom, terms), **kw)]
            assert got == fresh + [_fields(s) for s in run_trace(dom, terms, **kw)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60),
    st.integers(0, 59),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([GF2(), parse_domain("gf2")]),
)
def test_packed_gf2_matches_the_list_path(
    terms, fork, normalized, massey, with_numerator, dom
):
    # gfp:2 runs the coefficient-list path on the same 0/1 terms
    kw = dict(normalized=normalized, massey=massey,
              with_numerator=with_numerator)
    runs = [[solver_init(d, **kw)] for d in (dom, PrimeField(2))]
    for t in terms:
        for run in runs:
            run.append(solver_step(run[-1], t))
        assert _fields(runs[0][-1]) == _fields(runs[1][-1])
    final = _fields(runs[0][-1])
    # a retained state stepped again with the other term branches off
    k = fork % len(terms)
    flip = [1 - terms[k]] + terms[k + 1:]
    branches = [run[k] for run in runs]
    for t in flip:
        branches = [solver_step(b, t) for b in branches]
        assert _fields(branches[0]) == _fields(branches[1])
    assert branches[0].seq.terms == terms[:k] + flip
    for run in runs:
        assert _fields(run[-1]) == final
        assert _fields(solver_step(run[k], terms[k])) == _fields(run[k + 1])


@pytest.mark.parametrize(
    "dom", [GF2(), parse_domain("gf2")], ids=["GF2()", "parse_domain"]
)
def test_gf2_runs_call_no_list_kernel(monkeypatch, dom):
    def refuse(*args):
        raise AssertionError("a GF(2) run reached a coefficient-list kernel")

    monkeypatch.setattr("minseq.solver.dot", refuse)
    monkeypatch.setattr(Poly, "sub_scaled", refuse)
    rng = random.Random(19)
    s = Seq(dom, [rng.randrange(2) for _ in range(2000)])
    for normalized in (False, True):
        st_ = minimal_solution(s, normalized=normalized)
        assert st_.k == 2000 and st_.lc == st_.profile[-1] > 900


@pytest.fixture
def referee(monkeypatch):
    """perfbench's referee: Berlekamp-Massey sharing no code with minseq."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench")
    )
    return importlib.import_module("referee")


def _lfsr_terms(rng, stages, n):
    taps = [rng.randrange(2) for _ in range(stages - 1)] + [1]
    out = [rng.randrange(2) for _ in range(stages)]
    while len(out) < n:
        out.append(sum(c & u for c, u in zip(taps, out[-stages:])) & 1)
    return out


def test_long_gf2_runs_pass_the_referee(referee):
    rng = random.Random(29)
    cases = [
        ([rng.randrange(2) for _ in range(2000)], (False, True)),
        (_lfsr_terms(rng, 64, 5000), (False,)),
    ]
    for terms, modes in cases:
        s = Seq(F2, terms)
        for normalized in modes:
            st_ = minimal_solution(s, normalized=normalized)
            out = {"profile": st_.profile, "nabla": st_.nabla}
            for name in ("mu1", "mu2", "mup1", "mup2"):
                out[name] = getattr(st_, name).coeffs
            assert referee.check_solution("gf2", terms, out) == []
        assert referee.check_profile("gf2", terms, lc_profile(s)) == []
    assert st_.lc <= 64


def _massey_lc(c, terms, p):
    """Least L >= deg C for which C(x) generates terms: Massey's LC."""
    d = len(c) - 1
    for L in range(d, len(terms) + 1):
        if all(
            sum(c[i] * terms[n - i] for i in range(d + 1)) % p == 0
            for n in range(L, len(terms))
        ):
            return L


@pytest.mark.parametrize("spec,p", [("gf2", 2), ("gfp:7", 7)])
def test_lc_and_mu1_match_sympy_lfsr_synthesis(spec, p):
    crypto = pytest.importorskip("sympy.crypto.crypto")
    from sympy import Poly as SymPoly, symbols
    from sympy.polys.domains import FF

    x = symbols("x")
    dom = parse_domain(spec)
    rng = random.Random(31)
    for n in (1, 2, 5, 9, 16, 23, 32, 40):
        terms = [rng.randrange(p) for _ in range(n)]
        terms[rng.randrange(n)] = 1  # sympy needs a nonzero term
        C = crypto.lfsr_connection_polynomial([FF(p)(t) for t in terms])
        c = [int(v) % p
             for v in reversed(SymPoly(C, x, modulus=p).all_coeffs())]
        lc = _massey_lc(c, terms, p)
        # monic mu1 is x^(LC - deg C) times the reciprocal of C (C(0) = 1)
        assert c[0] == 1
        expected = [0] * (lc + 1 - len(c)) + c[::-1]
        for massey in (False, True):
            st_ = minimal_solution(Seq(dom, terms), massey=massey)
            assert st_.lc == lc, (terms, massey)
            mu1 = st_.mu1.coeffs
            if massey or n >= 2 * lc:  # otherwise mu1 need not be unique
                inv = pow(mu1[-1], p - 2, p)
                assert [v * inv % p for v in mu1] == expected, (terms, massey)


def test_normalized_matches_plain_over_gf2():
    rng = random.Random(7)
    for _ in range(50):
        terms = [rng.randrange(2) for _ in range(rng.randrange(1, 16))]
        a = minimal_solution(Seq(F2, terms))
        b = minimal_solution(Seq(F2, terms), normalized=True)
        assert a.mu1 == b.mu1 and a.mu2 == b.mu2
        assert a.profile == b.profile


@pytest.mark.parametrize(
    "dom", [F2, PrimeField(7), GF16, RationalField()], ids=lambda d: d.name
)
def test_normalized_nabla_is_the_determinant(dom):
    rng = random.Random(17)

    def draw():
        if dom.is_finite:
            return rng.choice(list(dom.elements()))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    for _ in range(40):
        terms = [draw() for _ in range(rng.randrange(1, 14))]
        for st_ in run_trace(dom, terms, normalized=True):
            det = st_.mu2 * st_.mup1 - st_.mu1 * st_.mup2
            assert det == Poly(dom, [st_.nabla]), (terms, st_.k)


def test_normalized_requires_field():
    with pytest.raises(MinseqError):
        solver_init(Z, normalized=True)


def test_normalized_worked_example_over_gf16():
    g = GF16.gen_pow
    terms = [g(5), g(9), g(4), 0, 0, g(2)]
    expected_delta = [g(5), g(9), g(11), g(2), g(11), g(0)]
    expected_pre_e = [1, 0, 1, 0, 1, 0]
    st_ = solver_init(GF16, normalized=True)
    for t, d, e in zip(terms, expected_delta, expected_pre_e):
        assert st_.e == e
        st_ = solver_step(st_, t)
        assert st_.last_delta == d
    assert st_.mu1 == Poly(GF16, [0xD, 0x8, 0xC, 0x1])
    assert st_.mu2 == Poly(GF16, [0x7, 0x4, 0x6])
    assert st_.profile == (1, 1, 2, 2, 3, 3)


def test_with_numerator_flag_off():
    st_ = solver_init(F2, with_numerator=False)
    for t in [0, 1, 1, 0, 0, 1, 0, 1]:
        st_ = solver_step(st_, t)
    assert st_.mu2 is None and st_.mup2 is None
    assert st_.mu1 == Poly(F2, [0, 1, 1, 0, 1])
    full = minimal_solution(Seq(F2, [0, 1, 1, 0, 0, 1, 0, 1]))
    assert st_.mul_count < full.mul_count


def test_lc_profile_and_empty_sequence():
    assert lc_profile(Seq(F2, [])) == []
    assert lc_profile(Seq(F2, [0, 1, 1, 0, 0, 1, 0, 1])) == [0, 2, 2, 2, 3, 3, 4, 4]
    with pytest.raises(MinseqError):
        minimal_solution(Seq(F2, []))


def test_classification():
    assert classify(Seq(F2, [0, 0, 0])).tag == TRIVIAL
    assert classify(Seq(Z, [1, 2, 4, 8])).tag == PSEUDO_GEOMETRIC
    got = classify(Seq(F2, [0, 1, 1, 0, 0, 1, 0, 1]))
    assert got.tag == ESSENTIAL
    assert got.n_prime == 6
    assert classify_profile(()).tag == TRIVIAL
    assert classify_profile((0, 0, 3)).n_prime == 2
    assert classify_profile((1, 1)).tag == PSEUDO_GEOMETRIC
    assert classify_profile((1, 1)).n_prime is None


def test_pseudo_geometric_dynamics():
    # after the step-1 jump and a possible step-2 in-place update, a
    # pseudo-geometric run never sees another nonzero discrepancy
    dom = PrimeField(11)
    terms = [3]
    r = 7
    for _ in range(9):
        terms.append(dom.mul(terms[-1], r))
    states = run_trace(dom, terms)
    for st_ in states[2:]:
        assert st_.last_delta == 0
    assert states[-1].mup1 == Poly(dom, [1])
    assert states[-1].mup2.is_zero
    assert states[-1].mu2 == Poly(dom, [states[-1].nabla])


DOMAINS = [
    GF2(),
    PrimeField(3),
    BinaryExtField(4, 0x13),
    IntegerRing(),
    RationalField(),
]


def random_elem(rng, dom):
    if dom.is_finite:
        els = list(dom.elements())
        return els[rng.randrange(len(els))]
    if dom.name == "int":
        return rng.randrange(-5, 6)
    from fractions import Fraction

    return Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.name)
def test_invariants_random_runs(dom):
    rng = random.Random(hash(dom.name) & 0xFFFF)
    for _ in range(40):
        n = rng.randrange(1, 14)
        terms = [random_elem(rng, dom) for _ in range(n)]
        st_ = solver_init(dom)
        prev_lc = 0
        for t in terms:
            st_ = solver_step(st_, t)
            det = st_.mu2 * st_.mup1 - st_.mu1 * st_.mup2
            assert det == Poly(dom, [st_.nabla])
            assert st_.e == st_.k + 1 - 2 * st_.lc
            if st_.last_delta != dom.zero:
                assert st_.lc == max(prev_lc, st_.k - prev_lc)
            else:
                assert st_.lc == prev_lc
            prev_lc = st_.lc
        assert is_annihilator(st_.mu1, st_.seq)
        assert bracket_numerator(st_.mu1, st_.seq) == st_.mu2
        assert sum(st_.profile) == st_.lc * (n + 1 - st_.lc)
        assert 4 * sum(st_.profile) <= (n + 1) ** 2


@pytest.mark.parametrize(
    "dom,nmax", [(GF2(), 8), (PrimeField(3), 6), (GF16, 3)], ids=lambda v: str(v)
)
def test_minimality_against_exhaustion(dom, nmax):
    # the solver's lc must equal the least degree with a nonzero annihilator
    from minseq.oracle import brute_lc

    rng = random.Random(5)
    els = list(dom.elements())
    for _ in range(20):
        n = rng.randrange(1, nmax + 1)
        terms = [els[rng.randrange(len(els))] for _ in range(n)]
        s = Seq(dom, terms)
        assert minimal_solution(s).lc == brute_lc(s).lc


def test_mul_count_bounds():
    from conftest import forced_int_terms

    rng = random.Random(11)
    for n in (10, 25, 60):
        terms = forced_int_terms(rng, n)
        full = minimal_solution(Seq(Z, terms))
        lean = minimal_solution(Seq(Z, terms), with_numerator=False)
        assert lean.mul_count <= 3 * n * n / 4 + 8 * n
        assert full.mul_count <= 5 * n * n / 4 + 8 * n


def test_mul_count_bounds_normalized():
    rng = random.Random(13)
    dom = PrimeField(101)
    for n in (10, 25, 60):
        terms = [rng.randrange(101) for _ in range(n)]
        s = Seq(dom, terms)
        full = minimal_solution(s, normalized=True)
        lean = minimal_solution(s, normalized=True, with_numerator=False)
        assert lean.mul_count <= 2 * n * n / 4 + 8 * n
        assert full.mul_count <= 3 * n * n / 4 + 8 * n


@given(st.lists(st.integers(0, 2), min_size=1, max_size=18))
def test_profile_is_monotone_and_jumps_symmetric(terms):
    dom = PrimeField(3)
    prof = lc_profile(Seq(dom, terms))
    prev = 0
    for k, lc in enumerate(prof, start=1):
        assert lc >= prev
        if lc != prev:
            assert lc == k - prev  # jump lands symmetrically
        prev = lc


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=16))
def test_mu_is_annihilator_gf2(terms):
    s = Seq(F2, terms)
    st_ = minimal_solution(s)
    assert is_annihilator(st_.mu1, s)
    assert st_.mu1.degree == st_.lc

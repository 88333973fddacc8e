"""Pairing, minimal systems, and the structure of the full solution set.

The pairing <f, g> = f2*g1 - f1*g2 turns a minimal system (lambda, n',
lambda', <,>, nabla) into coordinates: every solution f decomposes as
nabla*f = m'*lambda - m*lambda' with m = <f, lambda>, m' = <f, lambda'>,
and membership in Ann(s)^x reads off the degrees of (m, m') alone. Over a
finite field the same coordinates enumerate and count all solutions of a
given denominator degree.

Pseudo-geometric sequences use lambda' = (1, 0); essential ones take both
pairs straight from the solver. Trivial sequences have no minimal system
(every scalar annihilates), but enumeration and counting still work for
them because they only need the solver state.
"""

from itertools import product
from typing import NamedTuple

from .domains import require_field, require_finite_field
from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    InvariantViolation,
    NotAnnihilator,
    TrivialSequence,
    ZeroPolynomial,
)
from .genfn import SolutionPair, bracket_numerator, is_annihilator
from .oracle import _budget
from .poly import Poly, poly_gcd
from .solver import (
    ESSENTIAL,
    PSEUDO_GEOMETRIC,
    TRIVIAL,
    classify_profile,
    minimal_solution,
)


class MinimalSystem(NamedTuple):
    lam: SolutionPair
    n_prime: int
    lamP: SolutionPair
    nabla: object
    mode: str


class Decomposition(NamedTuple):
    m: Poly
    mP: Poly


def pairing(f, g):
    return f.f2 * g.f1 - f.f1 * g.f2


def minimal_system_of(s):
    """Minimal system from one solver run; TrivialSequence if all terms 0."""
    st = minimal_solution(s)
    cls = classify_profile(st.profile)
    if cls.tag == TRIVIAL:
        raise TrivialSequence("trivial sequences have no minimal system")
    dom = s.dom
    if cls.tag == PSEUDO_GEOMETRIC:
        lamP = SolutionPair(Poly.one(dom), Poly.zero(dom))
        sys_ = MinimalSystem(st.mu, 0, lamP, st.nabla, PSEUDO_GEOMETRIC)
        if st.mu.f1.degree != 1 or st.mu.f2 != Poly(dom, [st.nabla]):
            raise InvariantViolation("pseudo-geometric system malformed")
    else:
        sys_ = MinimalSystem(st.mu, cls.n_prime, st.muP, st.nabla, ESSENTIAL)
        lc_n = st.lc
        lc_np = sys_.lamP.f1.degree
        if lc_n + lc_np != cls.n_prime + 1:
            raise InvariantViolation(
                f"LC(n) + LC(n') = {lc_n}+{lc_np} != n'+1 = {cls.n_prime + 1}"
            )
    check = pairing(sys_.lam, sys_.lamP)
    if check != Poly(dom, [st.nabla]):
        raise InvariantViolation("<lambda, lambda'> != nabla")
    return sys_


def decompose(f, s, sys):
    """Coordinates (m, m') of a solution; verifies the reconstruction."""
    f1, f2 = f
    if f1.is_zero or not is_annihilator(f1, s):
        raise NotAnnihilator(f"{f1} is not a nonzero annihilator")
    if f2 != bracket_numerator(f1, s):
        raise NotAnnihilator(f"{f2} is not the numerator of {f1}")
    m = pairing(f, sys.lam)
    mP = pairing(f, sys.lamP)
    dom = s.dom
    nabla = Poly(dom, [sys.nabla])
    if nabla * f1 != mP * sys.lam.f1 - m * sys.lamP.f1:
        raise InvariantViolation("nabla*f1 != m'*lambda1 - m*lambda'1")
    n = len(s)
    lc = sys.lam.f1.degree
    d = f1.degree
    if mP.degree != d - lc or m.degree > d + lc - n - 1:
        raise InvariantViolation(
            f"degree bounds violated: |m'| = {mP.degree}, |m| = {m.degree}"
        )
    if d <= n and nabla * f2 != mP * sys.lam.f2 - m * sys.lamP.f2:
        raise InvariantViolation("nabla*f2 != m'*lambda2 - m*lambda'2")
    return Decomposition(m, mP)


def is_annihilator_by_criterion(f1, s, sys):
    """Membership via the degrees of (m, m'); no convolution test."""
    if f1.is_zero:
        raise ZeroPolynomial("criterion needs a nonzero polynomial")
    f = SolutionPair(f1, bracket_numerator(f1, s))
    m = pairing(f, sys.lam)
    mP = pairing(f, sys.lamP)
    lc = sys.lam.f1.degree
    d = f1.degree
    n = len(s)
    return mP.degree == d - lc and m.degree <= d + lc - n - 1


def _exact_degree(dom, d):
    """All polynomials of degree exactly d (leading coefficient nonzero)."""
    elems = tuple(dom.elements())
    nonzero = tuple(e for e in elems if e != dom.zero)
    for low in product(elems, repeat=d):
        for top in nonzero:
            yield Poly(dom, list(low) + [top])


def _degree_at_most(dom, d):
    """All polynomials of degree <= d, the zero polynomial included."""
    elems = tuple(dom.elements())
    for coeffs in product(elems, repeat=d + 1):
        yield Poly(dom, list(coeffs))


def _solution_count(q, d, st):
    """(q - 1) q^(d - LC) choices of phi' times q^(cap + 1) of phi."""
    lc = st.lc
    if d < lc:
        return 0
    cap = d - lc - st.e
    return (q - 1) * q ** (d - lc) * (q ** (cap + 1) if cap >= 0 else 1)


def enumerate_solutions(s, d):
    """Every solution with |f1| = d, from the (phi, phi') coordinates.

    Each entry is ((phi'*mu - phi*mu')/nabla) so that re-decomposing
    recovers (phi, phi') on the nose; uniqueness rules out duplicates.
    BudgetExceeded when their count passes MINSEQ_ORACLE_BUDGET.
    """
    dom = s.dom
    require_finite_field(dom)
    n = len(s)
    if not 0 <= d <= n:
        raise DegreeOutOfRange(f"degree {d} not in 0..{n}")
    st = minimal_solution(s)
    budget = _budget()
    if _solution_count(dom.size, d, st) > budget:
        raise BudgetExceeded(
            f"the degree-{d} solutions over {dom.name} exceed budget {budget}"
        )
    lc = st.lc
    if d < lc:
        return []
    cap = d - lc - st.e
    inv_nabla = dom.inv(st.nabla)
    phis = [Poly.zero(dom)]
    if cap >= 0:
        phis = list(_degree_at_most(dom, cap))
    out = []
    for phiP in _exact_degree(dom, d - lc):
        a1 = phiP * st.mu1
        a2 = phiP * st.mu2
        for phi in phis:
            f1 = (a1 - phi * st.mup1).scale(inv_nabla)
            f2 = (a2 - phi * st.mup2).scale(inv_nabla)
            out.append(SolutionPair(f1, f2))
    return out


def count_solutions(s, d):
    """|{solutions with |f1| = d}| in closed form."""
    dom = s.dom
    require_finite_field(dom)
    n = len(s)
    if not 0 <= d <= n:
        raise DegreeOutOfRange(f"degree {d} not in 0..{n}")
    return _solution_count(dom.size, d, minimal_solution(s, with_numerator=False))


def gcd_checks(f, s, sys):
    """gcd(f1, f2) versus gcd(m, m'), plus the low-degree structure.

    For solutions with |f1| <= n - LC the coordinates collapse: m = 0,
    nabla*f = m'*lambda, and gcd(f1, f2) = 1 certifies minimality.
    """
    require_field(s.dom)
    f1, f2 = f
    dec = decompose(f, s, sys)
    g_f = poly_gcd(f1, f2)
    g_m = poly_gcd(dec.m, dec.mP)
    n = len(s)
    lc = sys.lam.f1.degree
    report = {
        "gcd_f1_f2": g_f,
        "gcd_m_mp": g_m,
        "gcds_equal": g_f == g_m,
        "low_degree": f1.degree <= n - lc,
        "m_is_zero": None,
        "nabla_f_is_mp_lambda": None,
        "minimal_confirmed": None,
    }
    if report["low_degree"]:
        dom = s.dom
        nabla = Poly(dom, [sys.nabla])
        report["m_is_zero"] = dec.m.is_zero
        report["nabla_f_is_mp_lambda"] = (
            nabla * f1 == dec.mP * sys.lam.f1
            and nabla * f2 == dec.mP * sys.lam.f2
        )
        if g_f.degree == 0:
            if f1.degree != lc:
                raise InvariantViolation(
                    "coprime low-degree solution is not minimal"
                )
            report["minimal_confirmed"] = True
        else:
            report["minimal_confirmed"] = False
    return report

"""Minimal annihilators constrained to not vanish at a chosen point.

If mu1(a) != 0 the solver output already answers the question. Otherwise
the minimum degree rises to LC + M with M = max{e_s, 0}, and
xi = x^M * mu - mu' attains it (xi1(a) = -mu'1(a), nonzero because the
nabla identity forbids mu1 and mu'1 vanishing together). An alternative
route extends the sequence by one term chosen to force a nonzero
discrepancy and takes one more solver step; over an integral domain such a
term always exists, since the discrepancy is affine in the new term with
unit-free nonzero slope lc(mu1).
"""

from typing import NamedTuple

from .decomp import _degree_at_most, _exact_degree
from .domains import require_finite_field
from .errors import InvariantViolation, MinseqError, MuDoesNotVanish
from .genfn import SolutionPair
from .poly import Poly
from .solver import minimal_solution, solver_step


class NonVanishResult(NamedTuple):
    xi: SolutionPair
    lc_at: int
    M: int
    used_extension: bool


def nonvanishing_solution(s, a):
    """A solution of minimum degree among those with f1(a) != 0."""
    dom = s.dom
    st = minimal_solution(s)
    M = max(st.e, 0)
    if st.mu1(a) != dom.zero:
        return NonVanishResult(st.mu, st.lc, M, False)
    if st.mup1(a) == dom.zero or st.mu2(a) == dom.zero:
        raise InvariantViolation(
            "mu'1 and mu2 must not vanish where mu1 does"
        )
    xi1 = st.mu1.shift(M) - st.mup1
    xi2 = st.mu2.shift(M) - st.mup2
    if xi1(a) == dom.zero:
        raise InvariantViolation("xi1 vanishes at the forbidden point")
    return NonVanishResult(SolutionPair(xi1, xi2), st.lc + M, M, True)


def lc_at(s, a):
    """min{|f1| : f1 annihilates s, f1(a) != 0}."""
    return nonvanishing_solution(s, a).lc_at


def min_set_at(s, a):
    """All minimal non-vanishing annihilators, as phi'*mu1 - phi*mu'1.

    Only defined (and only interesting) when mu1 itself vanishes at a;
    phi' runs over degree exactly M, phi over degree <= M - e_s with
    phi(a) != 0.
    """
    dom = s.dom
    require_finite_field(dom)
    st = minimal_solution(s)
    if st.mu1(a) != dom.zero:
        raise MuDoesNotVanish(
            f"mu1 does not vanish at {dom.format(a)}; Min(s)^(a) is just "
            "the minimal solutions"
        )
    M = max(st.e, 0)
    cap = M - st.e  # = max(-e_s, 0)
    out = []
    for phiP in _exact_degree(dom, M):
        base = phiP * st.mu1
        for phi in _degree_at_most(dom, cap):
            if phi(a) == dom.zero:
                continue
            out.append(base - phi * st.mup1)
    return out


def nonvanishing_by_extension(s, a):
    """One forced solver step instead of the x^M*mu - mu' formula.

    Needs e_s >= 1 and mu1(a) = 0. Any extension term with a nonzero
    discrepancy jumps the degree to LC + e_s and lands on a polynomial
    not vanishing at a.
    """
    dom = s.dom
    st = minimal_solution(s)
    if st.e < 1:
        raise MinseqError(f"extension route needs e_s >= 1, got {st.e}")
    if st.mu1(a) != dom.zero:
        raise MuDoesNotVanish(
            f"mu1 does not vanish at {dom.format(a)}"
        )
    nxt = solver_step(st, dom.zero)
    if nxt.last_delta == dom.zero:
        nxt = solver_step(st, dom.one)
    nu1 = nxt.mu1
    if nu1.degree != st.lc + st.e or nu1(a) == dom.zero:
        raise InvariantViolation("extension step did not produce Min(s)^(a)")
    return nu1

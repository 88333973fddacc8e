"""Streaming construction of minimal solutions.

The state carries a minimal solution mu = (mu1, mu2) for the terms consumed
so far, the auxiliary pair muP from just before the last degree jump, the
last nonzero discrepancy deltaP, the branch counter e = k + 1 - 2*|mu1|, and
the nonzero scalar nabla with mu2*muP1 - mu1*muP2 = nabla (the massey start
has determinant 0, and nabla then only multiplies up the update factors).

A run keeps its history once: one append-only list of the terms consumed
and one of the LC after each step. Every state of the run holds k and
references to both lists and reads only below k, so seq and profile are
views, not copies. Steps are pure: solver_step returns a fresh state and
never changes what its input reports, so partial states can be retained
(the continued-fraction prefix mode does exactly that). Stepping a retained
state again branches: the new state copies the history below k once and
appends to that copy.

mul_count tallies domain multiplications the way the cost bounds are stated:
one per coefficient slot touched by a scalar product (zero slots included,
i.e. dense), one per division, nothing for additions. Discrepancies cost
|mu1| + 1 each; an update costs the coefficient length of every polynomial
actually rescaled, which is where the normalised variant saves a factor.
"""

from typing import NamedTuple, Optional

from .domains import require_field
from .errors import InvariantViolation, MinseqError
from .genfn import Seq, SolutionPair, dot
from .poly import Poly

TRIVIAL = "Trivial"
PSEUDO_GEOMETRIC = "PseudoGeometric"
ESSENTIAL = "Essential"


class SeqClass(NamedTuple):
    tag: str
    n_prime: Optional[int]


class SolverState:
    __slots__ = (
        "dom",
        "k",
        "_terms",
        "_lcs",
        "mu1",
        "mu2",
        "mup1",
        "mup2",
        "deltaP",
        "e",
        "nabla",
        "mul_count",
        "normalized",
        "with_numerator",
        "last_delta",
    )

    @property
    def seq(self):
        """The k terms consumed, read from the run's history."""
        return Seq(self.dom, self._terms[:self.k])

    @property
    def profile(self):
        """LC after each of the k steps, read from the run's history."""
        return tuple(self._lcs[:self.k])

    @property
    def lc(self):
        return len(self.mu1.coeffs) - 1

    @property
    def mu(self):
        return SolutionPair(self.mu1, self.mu2)

    @property
    def muP(self):
        return SolutionPair(self.mup1, self.mup2)

    def _copy(self):
        new = SolverState.__new__(SolverState)
        for name in SolverState.__slots__:
            setattr(new, name, getattr(self, name))
        return new

    def __repr__(self):
        return (
            f"SolverState(k={self.k}, mu1={self.mu1}, mu2={self.mu2}, "
            f"e={self.e}, nabla={self.dom.format(self.nabla)})"
        )


def solver_init(dom, normalized=False, with_numerator=True, massey=False):
    """Fresh state: mu = (1, 0), muP = (0, -1), deltaP = 1, e = 1, nabla = 1.

    massey=True switches the auxiliary pair to (1, 0); the first nonzero
    discrepancy then produces mu1 = x^n - s_v instead of (x^n, s_v).
    """
    if normalized:
        require_field(dom)
    st = SolverState.__new__(SolverState)
    st.dom = dom
    st.k = 0
    st._terms = []
    st._lcs = []
    st.mu1 = Poly.one(dom)
    st.mu2 = Poly.zero(dom) if with_numerator else None
    if massey:
        st.mup1 = Poly.one(dom)
        st.mup2 = Poly.zero(dom) if with_numerator else None
    else:
        st.mup1 = Poly.zero(dom)
        st.mup2 = (
            Poly(dom, [dom.neg(dom.one)]) if with_numerator else None
        )
    st.deltaP = dom.one
    st.e = 1
    st.nabla = dom.one
    st.mul_count = 0
    st.normalized = normalized
    st.with_numerator = with_numerator
    st.last_delta = None
    return st


def _update_muls(a, f, g):
    """Products in a*x^i*f - b*x^j*g: the length of each rescaled factor."""
    return len(g.coeffs) + (0 if a is None else len(f.coeffs))


def solver_step(state, next_term):
    """Consume one term and return the new state.

    On a nonzero discrepancy delta both columns take the one update
    mu <- a*x^max(e,0)*mu - b*x^max(-e,0)*muP, with (a, b) = (deltaP, delta)
    division free or (1, delta/deltaP) normalized. e <= 0 keeps the degree;
    e >= 1 jumps, and the old mu becomes muP. The counter e increments
    unconditionally at the end, including on zero discrepancies.
    """
    dom = state.dom
    k = state.k
    terms, lcs = state._terms, state._lcs
    if len(terms) != k:  # a retained state: branch off its own history
        terms, lcs = terms[:k], lcs[:k]
    terms.append(next_term)
    new = state._copy()
    new.k = k + 1
    new._terms, new._lcs = terms, lcs
    mu1 = state.mu1
    # the coefficient of x^(|mu1| - k) in mu1 * genfn of the k + 1 terms
    delta = dot(dom, mu1.coeffs, terms[k + 1 - len(mu1.coeffs):])
    new.last_delta = delta
    muls = len(mu1.coeffs)  # |mu1| + 1 products for the discrepancy

    if delta != dom.zero:
        e = state.e
        if state.normalized:
            a, b = None, dom.mul(delta, dom.inv(state.deltaP))
            muls += 1  # one division
        else:
            a, b = state.deltaP, delta
        i, j = max(e, 0), max(-e, 0)
        new.mu1 = mu1.sub_scaled(a, i, state.mup1, b, j)
        muls += _update_muls(a, mu1, state.mup1)
        if state.with_numerator:
            new.mu2 = state.mu2.sub_scaled(a, i, state.mup2, b, j)
            muls += _update_muls(a, state.mu2, state.mup2)
        # the determinant picks up b at a jump (mu moves into mu') and a
        # otherwise (mu' stays put)
        factor = a
        if e >= 1:
            new.mup1, new.mup2 = mu1, state.mu2
            new.deltaP = delta
            new.e = -e
            factor = b
        if factor is not None:
            new.nabla = dom.mul(factor, state.nabla)
        muls += 1

    new.e += 1
    lc = new.mu1.degree
    lcs.append(lc)
    new.mul_count = state.mul_count + muls
    if new.e != new.k + 1 - 2 * lc:
        raise InvariantViolation(
            f"e = {new.e} but k + 1 - 2|mu1| = {new.k + 1 - 2 * lc}"
        )
    return new


def minimal_solution(s, normalized=False, with_numerator=True, massey=False):
    """Fold solver_step over the whole sequence (see solver_init for flags)."""
    if len(s) < 1:
        raise MinseqError("need at least one term")
    st = solver_init(s.dom, normalized=normalized,
                     with_numerator=with_numerator, massey=massey)
    for t in s.terms:
        st = solver_step(st, t)
    return st


def lc_profile(s):
    """LC(s_0...s_{1-k}) for k = 1..n."""
    if len(s) == 0:
        return []
    st = minimal_solution(s, with_numerator=False)
    return list(st.profile)


def classify_profile(profile):
    """Trivial / pseudo-geometric / essential from an LC profile."""
    n = len(profile)
    if n == 0 or profile[-1] == 0:
        return SeqClass(TRIVIAL, None)
    if all(v == 1 for v in profile):
        return SeqClass(PSEUDO_GEOMETRIC, None)
    lc_n = profile[-1]
    n_prime = max(j for j in range(1, n) if profile[j - 1] < lc_n)
    return SeqClass(ESSENTIAL, n_prime)


def classify(s):
    return classify_profile(lc_profile(s))

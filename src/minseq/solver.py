"""Streaming construction of minimal solutions.

The state carries a minimal solution mu = (mu1, mu2) for the terms consumed
so far, the auxiliary pair muP from just before the last degree jump, the
last nonzero discrepancy deltaP, the branch counter e = k + 1 - 2*|mu1|, and
the nonzero scalar nabla with mu2*muP1 - mu1*muP2 = nabla (the massey start
has determinant 0, and nabla then only multiplies up the update factors).

A run is solver_states(s): the fresh state, then one state per term.
minimal_solution keeps the last one; the continued-fraction prefix mode and
the CLI's verify read the stream pair by pair. A run keeps its history once:
one append-only list of the terms consumed and one of the LC after each
step. Every state of the run holds k and references to both lists and reads
only below k, so seq and profile are views, not copies. Steps are pure:
solver_step returns a fresh state and never changes what its input reports,
so partial states can be retained (each pair of the stream is two). Stepping
a retained state again branches: the new state copies the history below k
once and appends to that copy.

Over GF(2) (any GF2 instance, chosen in solver_init) a state packs the
terms consumed and each of mu1, mu2, mup1 and mup2 into one int, bit i
holding s_{-i} or the coefficient of x^i: the discrepancy is the parity of
mu1 AND the term window, the update is (mu << i) ^ (mu' << j), and a
retained state branches for free. The public mu1..mup2 build a Poly when
read; lc and the profile come from bit lengths. Every other domain keeps
Poly coefficient lists, the reference path (Poly.sub_scaled, genfn.dot).

mul_count tallies domain multiplications the way the cost bounds are stated:
one per coefficient slot touched by a scalar product (zero slots included,
i.e. dense), one per division, nothing for additions. Discrepancies cost
|mu1| + 1 each; an update costs the coefficient length of every polynomial
actually rescaled, which is where the normalised variant saves a factor.
The packed GF(2) path counts the same dense slots, from bit lengths.
"""

from collections import deque
from itertools import accumulate
from typing import NamedTuple, Optional

from .domains import GF2, require_field
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
        "_packed",
        "_terms",
        "_lcs",
        "_mu1",
        "_mu2",
        "_mup1",
        "_mup2",
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
        if self._packed:
            return Seq(self.dom, _bits(self._terms, self.k))
        return Seq(self.dom, self._terms[:self.k])

    @property
    def profile(self):
        """LC after each of the k steps, read from the run's history."""
        return tuple(self._lcs[:self.k])

    def _poly(self, p):
        """A stored polynomial as a Poly (unpacked here over GF(2))."""
        if self._packed and p is not None:
            return Poly(self.dom, _bits(p))
        return p

    mu1 = property(lambda self: self._poly(self._mu1))
    mu2 = property(lambda self: self._poly(self._mu2))
    mup1 = property(lambda self: self._poly(self._mup1))
    mup2 = property(lambda self: self._poly(self._mup2))

    @property
    def lc(self):
        return _length(self._packed, self._mu1) - 1

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
    packed = isinstance(dom, GF2)
    one, zero, minus_one = (1, 0, 1) if packed else (
        Poly.one(dom), Poly.zero(dom), Poly(dom, [dom.neg(dom.one)]))
    st = SolverState.__new__(SolverState)
    st.dom = dom
    st.k = 0
    st._packed = packed
    st._terms = 0 if packed else []
    st._lcs = []
    st._mu1 = one
    st._mu2 = zero if with_numerator else None
    st._mup1 = one if massey else zero
    st._mup2 = (zero if massey else minus_one) if with_numerator else None
    st.deltaP = dom.one
    st.e = 1
    st.nabla = dom.one
    st.mul_count = 0
    st.normalized = normalized
    st.with_numerator = with_numerator
    st.last_delta = None
    return st


_TO_BIT = bytes.maketrans(b"01", b"\0\1")


def _bits(mask, n=0):
    """The bits of mask, lowest first, padded with zeros to length n."""
    bits = list(bin(mask)[:1:-1].encode().translate(_TO_BIT)) if mask else []
    bits += [0] * (n - len(bits))
    return bits


def _length(packed, p):
    """Coefficient slots of a stored polynomial: |p| + 1, 0 for zero."""
    return p.bit_length() if packed else len(p.coeffs)


def _update(packed, a, i, f, b, j, g):
    """a*x^i*f - b*x^j*g; packed (GF(2), a and b 1 or None), an XOR."""
    if packed:
        return (f << i) ^ (g << j)
    return f.sub_scaled(a, i, g, b, j)


def _update_muls(packed, a, f, g):
    """Products in a*x^i*f - b*x^j*g: the length of each rescaled factor."""
    return _length(packed, g) + (0 if a is None else _length(packed, f))


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
    packed = state._packed
    lcs = state._lcs
    mu1 = state._mu1
    if packed:
        terms = state._terms | (next_term << k)
        n1 = mu1.bit_length()
        # the parity of mu1 AND the window of the last |mu1| + 1 terms
        delta = ((terms >> (k + 1 - n1)) & mu1).bit_count() & 1
    else:
        terms = state._terms
        if len(terms) != k:  # a retained state: branch off its own history
            terms, lcs = terms[:k], lcs[:k]
        terms.append(next_term)
        n1 = len(mu1.coeffs)
        # the coefficient of x^(|mu1| - k) in mu1 * genfn of the k + 1 terms
        delta = dot(dom, mu1.coeffs, terms[k + 1 - n1:])
    if len(lcs) != k:  # a retained packed state: branch off its profile
        lcs = lcs[:k]
    new = state._copy()
    new.k = k + 1
    new._terms, new._lcs = terms, lcs
    new.last_delta = delta
    muls = n1  # |mu1| + 1 products for the discrepancy

    if delta != dom.zero:
        e = state.e
        if state.normalized:
            a, b = None, dom.mul(delta, dom.inv(state.deltaP))
            muls += 1  # one division
        else:
            a, b = state.deltaP, delta
        i, j = max(e, 0), max(-e, 0)
        new._mu1 = _update(packed, a, i, mu1, b, j, state._mup1)
        muls += _update_muls(packed, a, mu1, state._mup1)
        if state.with_numerator:
            new._mu2 = _update(packed, a, i, state._mu2, b, j, state._mup2)
            muls += _update_muls(packed, a, state._mu2, state._mup2)
        # the determinant picks up b at a jump (mu moves into mu') and a
        # otherwise (mu' stays put)
        factor = a
        if e >= 1:
            new._mup1, new._mup2 = mu1, state._mu2
            new.deltaP = delta
            new.e = -e
            factor = b
        if factor is not None:
            new.nabla = dom.mul(factor, state.nabla)
        muls += 1

    new.e += 1
    lc = _length(packed, new._mu1) - 1
    lcs.append(lc)
    new.mul_count = state.mul_count + muls
    if new.e != new.k + 1 - 2 * lc:
        raise InvariantViolation(
            f"e = {new.e} but k + 1 - 2|mu1| = {new.k + 1 - 2 * lc}"
        )
    return new


def solver_states(s, normalized=False, with_numerator=True, massey=False):
    """The fresh state, then one state per term of s (see solver_init)."""
    return accumulate(s.terms, solver_step, initial=solver_init(
        s.dom, normalized=normalized, with_numerator=with_numerator,
        massey=massey))


def minimal_solution(s, normalized=False, with_numerator=True, massey=False):
    """The last state of solver_states (see solver_init for flags)."""
    if len(s) < 1:
        raise MinseqError("need at least one term")
    states = solver_states(s, normalized=normalized,
                           with_numerator=with_numerator, massey=massey)
    return deque(states, maxlen=1)[0]


def lc_profile(s):
    """LC(s_0...s_{1-k}) for k = 1..n."""
    st = deque(solver_states(s, with_numerator=False), maxlen=1)[0]
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

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

solver_init picks the run's kernel by domain, and solver_step has no
branch on the domain: _GF2Bits packs GF(2) into ints, _PrimeInts keeps
GF(p) as int lists mod p, _IntContent keeps Z as a content times a
primitive int list, _RatScaled keeps Q as integer numerators over a
denominator, and _Coeffs keeps Polys for any other domain (the reference
path). The three integer-list kernels share one combination, _combine,
and differ only in how they reduce it. The public mu1..mup2 and seq build
Polys and terms when read; lc and the profile come from lengths, and
deltaP, nabla and last_delta are domain elements.

mul_count tallies domain multiplications the way the cost bounds are stated:
one per coefficient slot touched by a scalar product (zero slots included,
i.e. dense), one per division, nothing for additions. Discrepancies cost
|mu1| + 1 each; an update costs the coefficient length of every polynomial
actually rescaled, which is where the normalised variant saves a factor.
Every kernel counts the same dense slots, from its lengths.
"""

from collections import deque
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul, sub
from typing import NamedTuple, Optional

from .domains import GF2, IntegerRing, PrimeField, RationalField, require_field
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
        "_kernel",
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
        return Seq(self.dom, self._kernel.terms(self._terms, self.k))

    @property
    def profile(self):
        """LC after each of the k steps, read from the run's history."""
        return tuple(self._lcs[:self.k])

    def _poly(self, p):
        """A stored polynomial as a Poly, built here by the run's kernel."""
        return None if p is None else self._kernel.poly(self.dom, p)

    mu1 = property(lambda self: self._poly(self._mu1))
    mu2 = property(lambda self: self._poly(self._mu2))
    mup1 = property(lambda self: self._poly(self._mup1))
    mup2 = property(lambda self: self._poly(self._mup2))

    @property
    def lc(self):
        return self._kernel.length(self._mu1) - 1

    @property
    def mu(self):
        return SolutionPair(self.mu1, self.mu2)

    @property
    def muP(self):
        return SolutionPair(self.mup1, self.mup2)

    def _copy(self):
        new = SolverState.__new__(SolverState)
        # spelled out: a getattr/setattr loop over __slots__ took half the
        # time of a GF(2) step
        new.dom, new.k, new._kernel = self.dom, self.k, self._kernel
        new._terms, new._lcs = self._terms, self._lcs
        new._mu1, new._mu2 = self._mu1, self._mu2
        new._mup1, new._mup2 = self._mup1, self._mup2
        new.deltaP, new.e, new.nabla = self.deltaP, self.e, self.nabla
        new.mul_count, new.last_delta = self.mul_count, self.last_delta
        new.normalized = self.normalized
        new.with_numerator = self.with_numerator
        return new

    def __repr__(self):
        return (
            f"SolverState(k={self.k}, mu1={self.mu1}, mu2={self.mu2}, "
            f"e={self.e}, nabla={self.dom.format(self.nabla)})"
        )


# A kernel is how a run stores its terms and polynomials. push appends the
# next term after the k consumed (branching off a shared history) and
# returns the new store, the discrepancy of mu1 and |mu1| + 1; update is
# a*x^i*f - b*x^j*g; length is |p| + 1 (0 for zero); poly and terms build
# the public Poly and term list when read.

class _Coeffs:
    """Poly coefficient lists: the reference path, for any domain."""

    def start(self, dom):
        return [], Poly.one(dom), Poly.zero(dom), Poly(dom, [dom.neg(dom.one)])

    def push(self, dom, terms, k, t, mu1):
        if len(terms) != k:  # a retained state: branch off its own history
            terms = terms[:k]
        terms.append(t)
        n1 = self.length(mu1)
        # the coefficient of x^(|mu1| - k) in mu1 * genfn of the k + 1 terms
        return terms, self.dot(dom, mu1, terms[k + 1 - n1:]), n1

    def dot(self, dom, p, window):
        return dot(dom, p.coeffs, window)

    def update(self, dom, a, i, f, b, j, g):
        return f.sub_scaled(a, i, g, b, j)

    def length(self, p):
        return len(p.coeffs)

    def poly(self, dom, p):
        return p

    def terms(self, store, k):
        return store[:k]


def _combine(cf, i, f, cg, j, g, p=0):
    """cf*x^i*f - cg*x^j*g on int lists, high zeros stripped, mod p if p."""
    F = [0] * i + (f if cf is None else [cf * c for c in f])
    G = [0] * j + [cg * c for c in g]
    out = list(map(sub, F, G))
    n = len(out)
    out += F[n:] if len(F) > n else [-c for c in G[n:]]
    if p:
        out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return out


class _PrimeInts(_Coeffs):
    """GF(p) (gfp:2 included, GF2 not): polynomials as int lists mod p."""

    def start(self, dom):
        return [], [1], [], [dom.p - 1]

    def dot(self, dom, p, window):
        return sum(map(mul, p, window)) % dom.p

    def update(self, dom, a, i, f, b, j, g):
        return _combine(a, i, f, b, j, g, dom.p)

    def length(self, p):
        return len(p)

    def poly(self, dom, p):
        return Poly(dom, p)


class _IntContent(_Coeffs):
    """Z: a positive content times a primitive int list, (c, []) for zero.
    Nearly all of the swell is the content (Brown's primitive PRS)."""

    def start(self, dom):
        return [], (1, [1]), (1, []), (1, [-1])

    def dot(self, dom, p, window):
        return p[0] * sum(map(mul, p[1], window))  # content * primitive

    def update(self, dom, a, i, f, b, j, g):
        # h = gcd(a*cf, b*cg) comes out before the products on small ints
        (cf, pf), (cg, pg) = f, g
        alpha, beta = a * cf, b * cg
        h = gcd(alpha, beta)
        out = _combine(alpha // h, i, pf, beta // h, j, pg)
        d = gcd(*out) or 1  # gcd() of no entries is 0
        return h * d, [c // d for c in out]

    def length(self, p):
        return len(p[1])

    def poly(self, dom, p):
        return Poly(dom, [p[0] * v for v in p[1]])


_TO_BIT = bytes.maketrans(b"01", b"\0\1")


def _bits(mask, n=0):
    """The bits of mask, lowest first, padded with zeros to length n."""
    bits = list(bin(mask)[:1:-1].encode().translate(_TO_BIT)) if mask else []
    bits += [0] * (n - len(bits))
    return bits


class _GF2Bits:
    """GF(2): terms and polynomials packed into ints, bit i for s_{-i} or x^i."""

    def start(self, dom):
        return 0, 1, 0, 1

    def push(self, dom, store, k, t, mu1):
        terms = store | (t << k)
        n1 = mu1.bit_length()
        # the parity of mu1 AND the window of the last |mu1| + 1 terms
        return terms, ((terms >> (k + 1 - n1)) & mu1).bit_count() & 1, n1

    def update(self, dom, a, i, f, b, j, g):
        return (f << i) ^ (g << j)  # a and b are 1 or None

    def length(self, p):
        return p.bit_length()

    def poly(self, dom, p):
        return Poly(dom, _bits(p))

    def terms(self, store, k):
        return _bits(store, k)


class _RatScaled:
    """Q: integer numerators over one shared denominator.

    A polynomial is (den, numerators) in lowest terms, (1, []) for zero;
    the terms are (T, numerators) with T the lcm of their denominators.
    """

    def start(self, dom):
        return (1, []), (1, [1]), (1, []), (1, [-1])

    def push(self, dom, store, k, t, mu1):
        T, nums = store
        if len(nums) != k:  # a retained state: branch off its own history
            nums = nums[:k]
            store = T, nums
        q = t.denominator
        if T % q:  # a new list: retained states still read the old one
            m = q // gcd(T, q)
            T *= m
            nums = [u * m for u in nums]
            store = T, nums
        nums.append(t.numerator * (T // q))
        den, coeffs = mu1
        n1 = len(coeffs)
        acc = sum(map(mul, coeffs, nums[k + 1 - n1:]))
        return store, Fraction(acc, den * T), n1

    def update(self, dom, a, i, f, b, j, g):
        """With a = pa/qa, b = pb/qb and L = lcm(df, dg): the numerators
        pa*qb*(L/df)*x^i*nf - pb*qa*(L/dg)*x^j*ng over qa*qb*L, reduced.
        """
        (df, nf), (dg, ng) = f, g
        pa, qa = (1, 1) if a is None else (a.numerator, a.denominator)
        h = gcd(df, dg)
        cf = pa * b.denominator * (dg // h)
        cg = b.numerator * qa * (df // h)
        den = qa * b.denominator * df * (dg // h)
        # a common factor of the scales comes out before the products:
        # leaving it to the content gcd below makes a normalized n = 300
        # solve 2.5 times slower
        h = gcd(cf, cg, den)
        if h != 1:
            cf, cg, den = cf // h, cg // h, den // h
        out = _combine(cf, i, nf, cg, j, ng)
        d = gcd(den, *out)  # math.gcd stops early at 1
        if d == 1:
            return den, out
        return den // d, [c // d for c in out]

    def length(self, p):
        return len(p[1])

    def poly(self, dom, p):
        den, nums = p
        return Poly(dom, [Fraction(c, den) for c in nums])

    def terms(self, store, k):
        T, nums = store
        return [Fraction(u, T) for u in nums[:k]]


_COEFFS, _GF2_BITS, _PRIME_INTS = _Coeffs(), _GF2Bits(), _PrimeInts()
_INT_CONTENT, _RAT_SCALED = _IntContent(), _RatScaled()


def solver_init(dom, normalized=False, with_numerator=True, massey=False):
    """Fresh state: mu = (1, 0), muP = (0, -1), deltaP = 1, e = 1, nabla = 1.

    massey=True switches the auxiliary pair to (1, 0); the first nonzero
    discrepancy then produces mu1 = x^n - s_v instead of (x^n, s_v).
    """
    if normalized:
        require_field(dom)
    kernel = (_GF2_BITS if isinstance(dom, GF2) else  # GF2 is a PrimeField
              _PRIME_INTS if isinstance(dom, PrimeField) else
              _INT_CONTENT if isinstance(dom, IntegerRing) else
              _RAT_SCALED if isinstance(dom, RationalField) else _COEFFS)
    terms, one, zero, minus_one = kernel.start(dom)
    st = SolverState.__new__(SolverState)
    st.dom = dom
    st.k = 0
    st._kernel = kernel
    st._terms = terms
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


def _update_muls(kernel, a, f, g):
    """Products in a*x^i*f - b*x^j*g: the length of each rescaled factor."""
    return kernel.length(g) + (0 if a is None else kernel.length(f))


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
    kernel = state._kernel
    mu1 = state._mu1
    terms, delta, n1 = kernel.push(dom, state._terms, k, next_term, mu1)
    lcs = state._lcs
    if len(lcs) != k:  # a retained state: branch off its profile
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
        new._mu1 = kernel.update(dom, a, i, mu1, b, j, state._mup1)
        muls += _update_muls(kernel, a, mu1, state._mup1)
        if state.with_numerator:
            new._mu2 = kernel.update(dom, a, i, state._mu2, b, j, state._mup2)
            muls += _update_muls(kernel, a, state._mu2, state._mup2)
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
    lc = kernel.length(new._mu1) - 1
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

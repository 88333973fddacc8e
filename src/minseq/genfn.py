"""Finite sequences, their generating functions, and solution pairs.

A sequence s of length n is s_0, s_{-1}, ..., s_{1-n}; ``terms[j]`` holds
s_{-j}. Its generating function is the Laurent polynomial
sum_{i=1-n}^{0} s_i x^i, and a polynomial f annihilates s when the
convolution (f * genfn)_i vanishes for every i with deg f + 1 - n <= i <= 0
(vacuously true once deg f >= n).

A solution pair (f1, f2) couples a nonzero annihilator f1 with the
positive-power part of f1 * genfn, shifted down one: x * f2 = [f1 * genfn].
"""

from typing import NamedTuple

from .errors import MinseqError, NotAnnihilator
from .poly import Poly


class Seq:
    __slots__ = ("dom", "terms")

    def __init__(self, dom, terms):
        self.dom = dom
        self.terms = list(terms)

    @classmethod
    def parse(cls, dom, tokens):
        return cls(dom, [dom.parse(t) for t in tokens])

    def __len__(self):
        return len(self.terms)

    def term(self, i):
        """s_i, reading 0 outside the stored range (i must be <= 0 to hit)."""
        j = -i
        if 0 <= j < len(self.terms):
            return self.terms[j]
        return self.dom.zero

    def prefix(self, n):
        """The first n terms s_0 ... s_{1-n}."""
        if not 0 <= n <= len(self.terms):
            raise MinseqError(f"prefix length {n} out of range")
        return Seq(self.dom, self.terms[:n])

    def extend(self, t):
        return Seq(self.dom, self.terms + [t])

    @property
    def is_trivial(self):
        zero = self.dom.zero
        return all(t == zero for t in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Seq)
            and self.dom == other.dom
            and self.terms == other.terms
        )

    def __repr__(self):
        shown = ", ".join(self.dom.format(t) for t in self.terms)
        return f"Seq({self.dom.name}, [{shown}])"


class SolutionPair(NamedTuple):
    f1: Poly
    f2: Poly


def dot(dom, coeffs, terms):
    """sum c*u over zip(coeffs, terms): the convolution kernel.

    Every convolution coefficient goes through here, except the solver's
    discrepancy over GF(2), which is a parity of packed bits (see solver).
    """
    add, mul, zero = dom.add, dom.mul, dom.zero
    acc = zero
    for c, u in zip(coeffs, terms):
        if c != zero and u != zero:
            acc = add(acc, mul(c, u))
    return acc


def conv_coeff(f, s, i):
    """Coefficient of x^i in f * genfn(s): sum_j f_j s_{i-j}."""
    lo = max(i, 0)
    return dot(f.dom, f.coeffs[lo:], s.terms[lo - i:len(f.coeffs) - i])


def is_annihilator(f, s):
    """True when f kills s (the zero polynomial does, trivially)."""
    if f.dom != s.dom:
        raise MinseqError(
            f"domain mismatch: {f.dom.name} vs {s.dom.name}"
        )
    if f.is_zero:
        return True
    zero = f.dom.zero
    d = f.degree
    n = len(s)
    for i in range(d + 1 - n, 1):
        if conv_coeff(f, s, i) != zero:
            return False
    return True


def bracket_numerator(f1, s):
    """f2 with x * f2 = [f1 * genfn(s)] (the positive-power part)."""
    if f1.is_zero:
        return Poly.zero(f1.dom)
    d = f1.degree
    return Poly(f1.dom, [conv_coeff(f1, s, i) for i in range(1, d + 1)])


def make_solution(f1, s):
    """Validate f1 in Ann(s)^x and pair it with its numerator."""
    if f1.is_zero or not is_annihilator(f1, s):
        raise NotAnnihilator(f"{f1} does not annihilate the sequence")
    return SolutionPair(f1, bracket_numerator(f1, s))


def discrepancy(g1, t):
    """(g1 * genfn(t))_{deg g1 - (len(t) - 1)}: the next-term obstruction.

    t is the sequence extended through the term being consumed, so for a
    candidate annihilator of the first n terms this is the first convolution
    coefficient not already forced to zero (zero for the zero polynomial).
    """
    return conv_coeff(g1, t, len(g1.coeffs) - len(t))

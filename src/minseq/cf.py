"""Continued-fraction expansion of generating functions over a field.

Two input modes produce the same CFExpansion shape:

* rational mode gets the generating function as x*num/den and runs the
  extended Euclidean algorithm on (den, num), which is exact and
  always terminates;
* prefix mode gets finitely many sequence terms and replays the streaming
  normalised solver, closing a partition cell (and emitting the monic
  convergent that is exact for it) at every linear-complexity jump. Partial
  quotients are not recoverable from monic snapshots, so prefix expansions
  carry an empty quotient list and precision_exhausted = True.

Partition boundaries are n_i = |q1^(i-1)| + |q1^(i)|; q^(i) is minimal for
the length-n prefix exactly when n lies in [n_i, n_{i+1}).
"""

from bisect import bisect_right
from itertools import pairwise
from typing import NamedTuple, Optional

from .domains import Domain, require_field
from .errors import (
    InsufficientTerms,
    InvariantViolation,
    MinseqError,
    OutOfRange,
    PositiveValuation,
    ZeroPolynomial,
)
from .genfn import Seq, SolutionPair
from .poly import Poly, poly_gcd
from .solver import minimal_solution, solver_states


class RationalFn:
    """num/den over a field, stored reduced; the series is x*num/den."""

    __slots__ = ("dom", "num", "den")

    def __init__(self, num, den):
        if den.is_zero:
            raise ZeroPolynomial("zero denominator")
        require_field(den.dom)
        g = poly_gcd(num, den)
        if not g.is_zero and g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        self.dom = den.dom
        self.num = num
        self.den = den

    def prefix(self, n):
        """The first n series terms of x*num/den (s_0 first)."""
        if not self.num.is_zero and self.num.degree >= self.den.degree:
            raise PositiveValuation(
                "numerator degree must be below denominator degree"
            )
        # the quotient of x^n*num by den is s_{1-n} ... s_0, high zeros trimmed
        q = divmod(self.num.shift(n), self.den)[0].coeffs
        return Seq(self.dom, [self.dom.zero] * (n - len(q)) + q[::-1])

    def __repr__(self):
        return f"RationalFn(({self.num}) / ({self.den}))"


class CFExpansion(NamedTuple):
    dom: Domain
    mode: str
    quotients: list
    convergents: list
    partition: list
    terminated: bool
    precision_exhausted: bool
    prefix_len: Optional[int] = None


def cf_expand_rational(S, max_i=64):
    """Extended Euclid on (den, num); emits quotients a_i and convergents."""
    dom = S.dom
    require_field(dom)
    if max_i < 1:
        raise MinseqError(f"max_i must be >= 1, got {max_i}")
    if not S.num.is_zero and S.num.degree >= S.den.degree:
        raise PositiveValuation(
            "series has positive valuation: numerator degree "
            f"{S.num.degree} >= denominator degree {S.den.degree}"
        )
    one, zero = Poly.one(dom), Poly.zero(dom)
    convergents = [SolutionPair(one, zero)]
    quotients = []
    partition = []
    q1_pp, q2_pp = zero, one  # q^(-1)
    q1_p, q2_p = one, zero  # q^(0)
    r_prev, r_cur = S.den, S.num
    for _ in range(max_i):
        if r_cur.is_zero:
            break
        a, r_next = divmod(r_prev, r_cur)
        if a.is_zero or a.degree < 1:
            raise InvariantViolation(f"partial quotient {a} has degree < 1")
        q1 = a * q1_p + q1_pp
        q2 = a * q2_p + q2_pp
        quotients.append(a)
        partition.append(q1_p.degree + q1.degree)
        convergents.append(SolutionPair(q1, q2))
        q1_pp, q2_pp, q1_p, q2_p = q1_p, q2_p, q1, q2
        r_prev, r_cur = r_cur, r_next
    return CFExpansion(
        dom,
        "rational",
        quotients,
        convergents,
        partition,
        terminated=r_cur.is_zero,
        precision_exhausted=False,
    )


def cf_expand_prefix(s):
    """Expansion of the partition cells visible in a finite prefix.

    Convergents are monic (solver-normalised); the one for the still-open
    last cell is minimal for every covered n but may differ from the true
    q^(i) once more terms arrive.
    """
    dom = s.dom
    convergents = [SolutionPair(Poly.one(dom), Poly.zero(dom))]
    partition = []
    for prev, nxt in pairwise(solver_states(s, normalized=True)):
        if nxt.lc > prev.lc:
            if partition:
                convergents.append(prev.mu)
            partition.append(nxt.k)
    if partition:
        convergents.append(nxt.mu)
    return CFExpansion(
        dom,
        "prefix",
        [],
        convergents,
        partition,
        terminated=False,
        precision_exhausted=True,
        prefix_len=len(s),
    )


def pq_for_n(exp, n):
    """The cell index i with n in [n_i, n_{i+1}), plus q^(i) and q^(i-1)."""
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    i = bisect_right(exp.partition, n)
    if i == len(exp.partition):
        # n lies in the last known cell; make sure the cell really covers it
        if exp.mode == "prefix":
            if n > exp.prefix_len:
                raise OutOfRange(
                    f"prefix has {exp.prefix_len} terms, cannot answer n={n}"
                )
        elif not exp.terminated:
            last = exp.convergents[-1].f1.degree
            if n > 2 * last:
                raise OutOfRange(
                    f"expansion truncated; n={n} exceeds certified range "
                    f"{2 * last}"
                )
    q = exp.convergents[i]
    if i >= 1:
        q_prev = exp.convergents[i - 1]
    else:
        q_prev = SolutionPair(Poly.zero(exp.dom), Poly.one(exp.dom))
    return i, q, q_prev


def lc_from_cf(exp, n):
    """LC of the length-n prefix, read off the partition."""
    _, q, _ = pq_for_n(exp, n)
    return q.f1.degree


def minimal_poly_of_lrs(s):
    """Monic minimal solution of a linear recurring sequence, certified.

    Needs n >= 2*LC so the minimal solution is unique up to scalars;
    otherwise InsufficientTerms reports the LC that was found.
    """
    require_field(s.dom)
    st = minimal_solution(s, normalized=True)
    lc = st.lc
    if len(s) < 2 * lc:
        raise InsufficientTerms(
            f"need at least {2 * lc} terms to certify LC {lc}, "
            f"got {len(s)}",
            lc,
        )
    return st.mu

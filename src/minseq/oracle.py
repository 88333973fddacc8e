"""Exhaustive brute force straight from the annihilator definition.

Deliberately independent of the solver and decomposition code: candidates
are enumerated coefficient vector by coefficient vector and tested with the
bare convolution sums, so this module can referee the others. GF(2) gets a
bitmask fast path (a polynomial is an int, one convolution coefficient is
one popcount parity), which is still the same definition.

Degrees run over 0..n (DegreeOutOfRange otherwise), and enumeration size
is capped: q^(d+1) must stay within MINSEQ_ORACLE_BUDGET (default 10^7) or
BudgetExceeded is raised. The same budget bounds decomp.enumerate_solutions.
"""

import os
from itertools import product
from typing import NamedTuple

from .domains import GF2, require_finite_field
from .errors import BudgetExceeded, DegreeOutOfRange, InvariantViolation, MinseqError
from .poly import Poly

DEFAULT_BUDGET = 10_000_000


class OracleReport(NamedTuple):
    lc: int
    witnesses: list
    per_degree_counts: dict


def _budget():
    raw = os.environ.get("MINSEQ_ORACLE_BUDGET", DEFAULT_BUDGET)
    try:
        return int(raw)
    except ValueError:
        raise MinseqError(
            f"MINSEQ_ORACLE_BUDGET must be an integer, got {raw!r}"
        ) from None


def _check_budget(q, d):
    """BudgetExceeded once a partial power of q^(d+1) passes the cap."""
    cap = _budget()
    size = 1
    for _ in range(d + 1):
        size *= q
        if size > cap:
            raise BudgetExceeded(
                f"enumeration size q^(d+1) = {q}^{d + 1} exceeds budget {cap}"
            )


def _gf2_annihilates(mask, smask, d, n):
    for k in range(n - d):
        if ((mask & (smask >> k)).bit_count()) & 1:
            return False
    return True


def _annihilates(dom, coeffs, terms, d, n):
    zero = dom.zero
    for i in range(d + 1 - n, 1):
        acc = zero
        for j, c in enumerate(coeffs):
            if c == zero:
                continue
            k = j - i
            if 0 <= k < n:
                acc = dom.add(acc, dom.mul(c, terms[k]))
        if acc != zero:
            return False
    return True


def brute_annihilators(s, d):
    """Every nonzero annihilator of degree exactly d, by full enumeration."""
    dom = s.dom
    require_finite_field(dom)
    n = len(s)
    if not 0 <= d <= n:
        raise DegreeOutOfRange(f"degree {d} not in 0..{n}")
    _check_budget(dom.size, d)
    out = []
    if isinstance(dom, GF2):
        smask = 0
        for j, t in enumerate(s.terms):
            if t:
                smask |= 1 << j
        for low in range(1 << d):
            mask = low | (1 << d)
            if _gf2_annihilates(mask, smask, d, n):
                out.append(Poly(dom, [(mask >> j) & 1 for j in range(d + 1)]))
        return out
    elems = tuple(dom.elements())
    nonzero = tuple(e for e in elems if e != dom.zero)
    for low in product(elems, repeat=d):
        for top in nonzero:
            coeffs = low + (top,)
            if _annihilates(dom, coeffs, s.terms, d, n):
                out.append(Poly(dom, list(coeffs)))
    return out


def brute_lc(s):
    """Exhaustive linear complexity with witnesses and per-degree counts."""
    n = len(s)
    counts = {}
    lc = None
    witnesses = []
    for d in range(n + 1):
        anns = brute_annihilators(s, d)
        counts[d] = len(anns)
        if lc is None and anns:
            lc = d
            witnesses = anns
    if lc is None:
        # unreachable: degree-n candidates annihilate vacuously
        raise InvariantViolation("no annihilator of degree <= n found")
    return OracleReport(lc, witnesses, counts)


def brute_lc_at(s, a):
    """Exhaustive minimum degree over annihilators with f1(a) != 0."""
    dom = s.dom
    n = len(s)
    for d in range(n + 1):
        for f in brute_annihilators(s, d):
            if f(a) != dom.zero:
                return d
    raise InvariantViolation("no non-vanishing annihilator of degree <= n")

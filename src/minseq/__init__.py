"""Minimal solutions of finite sequences over exact commutative domains.

The solver tracks a pair of candidate solutions for the shortest linear
recurrence of a sequence, one new term at a time, over any integral domain
with exact arithmetic (GF(2), prime fields, binary extension fields, the
integers, the rationals). On top of it sit continued fraction expansions of
Laurent series, a complete description of the solution set of every degree,
annihilators that avoid a prescribed root, and brute-force oracles for
cross-checking on small inputs.
"""

__version__ = "0.1.0"

from .cf import (
    CFExpansion,
    RationalFn,
    cf_expand_prefix,
    cf_expand_rational,
    lc_from_cf,
    minimal_poly_of_lrs,
    pq_for_n,
)
from .decomp import (
    Decomposition,
    MinimalSystem,
    count_solutions,
    decompose,
    enumerate_solutions,
    gcd_checks,
    is_annihilator_by_criterion,
    minimal_system_of,
    pairing,
)
from .domains import (
    BinaryExtField,
    Domain,
    GF2,
    IntegerRing,
    PrimeField,
    RationalField,
    parse_domain,
)
from .errors import InvariantViolation, MinseqError
from .genfn import (
    Seq,
    SolutionPair,
    bracket_numerator,
    conv_coeff,
    discrepancy,
    is_annihilator,
    make_solution,
)
from .nonvanish import (
    NonVanishResult,
    lc_at,
    min_set_at,
    nonvanishing_by_extension,
    nonvanishing_solution,
)
from .oracle import OracleReport, brute_annihilators, brute_lc, brute_lc_at
from .poly import Poly, poly_gcd, poly_monicize
from .solver import (
    SeqClass,
    SolverState,
    classify,
    classify_profile,
    lc_profile,
    minimal_solution,
    solver_init,
    solver_states,
    solver_step,
)

__all__ = [
    "BinaryExtField",
    "CFExpansion",
    "Decomposition",
    "Domain",
    "GF2",
    "IntegerRing",
    "InvariantViolation",
    "MinimalSystem",
    "MinseqError",
    "NonVanishResult",
    "OracleReport",
    "Poly",
    "PrimeField",
    "RationalField",
    "Seq",
    "SeqClass",
    "SolutionPair",
    "SolverState",
    "bracket_numerator",
    "brute_annihilators",
    "brute_lc",
    "brute_lc_at",
    "cf_expand_prefix",
    "cf_expand_rational",
    "classify",
    "classify_profile",
    "conv_coeff",
    "count_solutions",
    "decompose",
    "discrepancy",
    "enumerate_solutions",
    "gcd_checks",
    "is_annihilator",
    "is_annihilator_by_criterion",
    "lc_at",
    "lc_from_cf",
    "lc_profile",
    "make_solution",
    "min_set_at",
    "minimal_poly_of_lrs",
    "minimal_solution",
    "minimal_system_of",
    "nonvanishing_by_extension",
    "nonvanishing_solution",
    "pairing",
    "parse_domain",
    "pq_for_n",
    "poly_gcd",
    "poly_monicize",
    "solver_init",
    "solver_states",
    "solver_step",
]

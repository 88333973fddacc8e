"""JSON command-line front end.

Every subcommand prints one JSON object on stdout. Polynomials are coefficient
lists in ascending degree order; elements are plain ints except over binary
extension fields (hex strings like "0x6") and the rationals ("p/q" strings).
Exit codes: 0 ok, 2 bad input or a MinseqError, 3 a violated invariant.
"""

import argparse
import json
import re
import sys
from itertools import pairwise

from .cf import RationalFn, cf_expand_prefix, cf_expand_rational, lc_from_cf
from .decomp import count_solutions, decompose, enumerate_solutions, minimal_system_of, pairing
from .domains import BinaryExtField, parse_domain
from .errors import InvariantViolation, MinseqError
from .genfn import Seq, SolutionPair, bracket_numerator
from .nonvanish import nonvanishing_solution
from .oracle import brute_annihilators, brute_lc, brute_lc_at
from .poly import Poly
from .solver import classify_profile, minimal_solution, solver_states


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minseq",
        description="minimal solutions of finite sequences over exact domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_field=True):
        if need_field:
            p.add_argument("--field", required=True,
                           help="gf2 | gfp:<p> | gf2m:<m>:<hex modulus> | int | rat")
        p.add_argument("--terms", help="sequence terms s0 s-1 ... as one quoted string")
        p.add_argument("--file", help="file containing whitespace-separated terms")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON and add readable polynomial strings")
        return p

    p = add_common(sub.add_parser("solve", help="run the solver and report the final state"))
    p.add_argument("--massey", action="store_true", help="classical initialisation")
    p.add_argument("--normalized", action="store_true", help="monic updates (fields only)")
    p.add_argument("--no-numerator", dest="with_numerator", action="store_false",
                   help="skip the numerator column")

    add_common(sub.add_parser("profile", help="linear complexity profile and class"))

    p = add_common(sub.add_parser("cf", help="continued fraction expansion"))
    p.add_argument("--num", help="numerator coefficients of a rational function")
    p.add_argument("--den", help="denominator coefficients of a rational function")
    p.add_argument("--max-i", type=int, default=64, help="quotient cap in rational mode")

    p = add_common(sub.add_parser("decompose", help="coordinates of a solution in the minimal system"))
    p.add_argument("--f1", required=True, help="annihilator coefficients, ascending")

    p = add_common(sub.add_parser("count", help="number of solutions of one degree"))
    p.add_argument("--degree", type=int, required=True)

    p = add_common(sub.add_parser("enumerate", help="all solutions of one degree"))
    p.add_argument("--degree", type=int, required=True)

    p = add_common(sub.add_parser("nonvanish", help="annihilator not vanishing at a point"))
    p.add_argument("--at", required=True, help="evaluation point")

    add_common(sub.add_parser("verify", help="replay the run and check every invariant"))

    p = add_common(sub.add_parser("oracle", help="brute-force ground truth (small inputs)"))
    p.add_argument("which", choices=["profile", "count", "nonvanish"])
    p.add_argument("--degree", type=int, help="degree for 'count'")
    p.add_argument("--at", help="evaluation point for 'nonvanish'")

    return parser


def elem_out(dom, a):
    """A hex string over GF(2^m), else the element (run prints Q's p/q)."""
    return dom.format(a) if isinstance(dom, BinaryExtField) else a


def poly_out(dom, p):
    if p is None:
        return None
    return [elem_out(dom, c) for c in p.coeffs]


def pair_out(dom, f):
    return {"f1": poly_out(dom, f.f1), "f2": poly_out(dom, f.f2)}


def load_seq(args, dom):
    if (args.terms is None) == (args.file is None):
        raise MinseqError("provide exactly one of --terms or --file")
    if args.terms is not None:
        tokens = args.terms.split()
    else:
        try:
            with open(args.file) as fh:
                tokens = fh.read().split()
        except UnicodeDecodeError as ex:
            raise MinseqError(f"{args.file} is not UTF-8 text: {ex}") from None
    return Seq.parse(dom, tokens)


def cmd_solve(args, dom):
    s = load_seq(args, dom)
    st = minimal_solution(s, normalized=args.normalized,
                          with_numerator=args.with_numerator, massey=args.massey)
    cls = classify_profile(st.profile)
    out = {
        "n": st.k,
        "lc": st.lc,
        "e": st.e,
        "nabla": elem_out(dom, st.nabla),
        "mu1": poly_out(dom, st.mu1),
        "mu2": poly_out(dom, st.mu2),
        "mup1": poly_out(dom, st.mup1),
        "mup2": poly_out(dom, st.mup2),
        "profile": list(st.profile),
        "mul_count": st.mul_count,
        "class": cls.tag,
        "n_prime": cls.n_prime,
    }
    if args.pretty:
        out["pretty"] = dict(mu1=st.mu1, mu2=st.mu2, mup1=st.mup1, mup2=st.mup2)
    return out


def cmd_profile(args, dom):
    s = load_seq(args, dom)
    st = minimal_solution(s, with_numerator=False)
    cls = classify_profile(st.profile)
    return {
        "n": st.k,
        "profile": list(st.profile),
        "lc": st.lc,
        "class": cls.tag,
        "n_prime": cls.n_prime,
    }


def cmd_cf(args, dom):
    rational = args.num is not None or args.den is not None
    if rational:
        if args.num is None or args.den is None:
            raise MinseqError("rational mode needs both --num and --den")
        if args.terms is not None or args.file is not None:
            raise MinseqError("give either --num/--den or a term sequence, not both")
        S = RationalFn(Poly.parse(dom, args.num.split()),
                       Poly.parse(dom, args.den.split()))
        exp = cf_expand_rational(S, max_i=args.max_i)
    else:
        s = load_seq(args, dom)
        exp = cf_expand_prefix(s)
    if exp.mode == "prefix":
        limit = exp.prefix_len
    elif exp.terminated:
        limit = exp.partition[-1] + 1 if exp.partition else 1
    else:
        limit = 2 * exp.convergents[-1].f1.degree
    lc_table = [lc_from_cf(exp, n) for n in range(1, limit + 1)]
    return {
        "mode": exp.mode,
        "quotients": [poly_out(dom, a) for a in exp.quotients],
        "convergents": [pair_out(dom, q) for q in exp.convergents],
        "partition": list(exp.partition),
        "terminated": exp.terminated,
        "precision_exhausted": exp.precision_exhausted,
        "lc_table": lc_table,
    }


def cmd_decompose(args, dom):
    s = load_seq(args, dom)
    f1 = Poly.parse(dom, args.f1.split())
    f = SolutionPair(f1, bracket_numerator(f1, s))
    # decompose() raises unless the reconstruction and the degree bounds hold
    dec = decompose(f, s, minimal_system_of(s))
    out = {
        "m": poly_out(dom, dec.m),
        "mp": poly_out(dom, dec.mP),
        "reconstruction_ok": True,
        "bounds_ok": True,
    }
    if args.pretty:
        out["pretty"] = dict(m=dec.m, mp=dec.mP)
    return out


def cmd_count(args, dom):
    s = load_seq(args, dom)
    return {"n": len(s), "degree": args.degree, "count": count_solutions(s, args.degree)}


def cmd_enumerate(args, dom):
    s = load_seq(args, dom)
    sols = enumerate_solutions(s, args.degree)
    return {
        "n": len(s),
        "degree": args.degree,
        "count": len(sols),
        "solutions": [pair_out(dom, f) for f in sols],
    }


def cmd_nonvanish(args, dom):
    s = load_seq(args, dom)
    a = dom.parse(args.at)
    res = nonvanishing_solution(s, a)
    out = {
        "xi1": poly_out(dom, res.xi.f1),
        "xi2": poly_out(dom, res.xi.f2),
        "lc_at": res.lc_at,
        "M": res.M,
        "used_extension": res.used_extension,
    }
    if args.pretty:
        out["pretty"] = dict(xi1=res.xi.f1, xi2=res.xi.f2)
    return out


def cmd_verify(args, dom):
    s = load_seq(args, dom)
    # the solver itself raises InvariantViolation when e != k + 1 - 2*LC
    checks = ["determinant_identity", "numerator_identity", "jump_rule",
              "step_counter", "profile_mass"]
    failed = set()
    exp = None
    if dom.is_field and len(s):
        checks.append("cf_agreement")
        exp = cf_expand_prefix(s)
        # consecutive convergents pair to a nonzero constant
        if any(pairing(b, a).degree != 0 for a, b in pairwise(exp.convergents)):
            failed.add("cf_agreement")
    for prev, st in pairwise(solver_states(s)):
        k, lc = st.k, st.lc
        if pairing(st.mu, st.muP) != Poly(dom, [st.nabla]):
            failed.add("determinant_identity")
        if st.mu2 != bracket_numerator(st.mu1, st.seq):
            failed.add("numerator_identity")
        jumped = st.last_delta != dom.zero
        if lc != (max(prev.lc, k - prev.lc) if jumped else prev.lc):
            failed.add("jump_rule")
        sigma = sum(st.profile)
        if sigma != lc * (k + 1 - lc) or 4 * sigma > (k + 1) ** 2:
            failed.add("profile_mass")
        if exp is not None and lc_from_cf(exp, k) != lc:
            failed.add("cf_agreement")
    if failed:
        raise InvariantViolation(f"verify failed: {', '.join(sorted(failed))}")
    return {"ok": True, "checks": dict.fromkeys(checks, True)}


def cmd_oracle(args, dom):
    s = load_seq(args, dom)
    if args.which == "profile":
        rep = brute_lc(s)
        return {
            "n": len(s),
            "lc": rep.lc,
            "witnesses": [poly_out(dom, w) for w in rep.witnesses],
            "per_degree_counts": {str(d): c for d, c in sorted(rep.per_degree_counts.items())},
        }
    if args.which == "count":
        if args.degree is None:
            raise MinseqError("oracle count needs --degree")
        return {
            "n": len(s),
            "degree": args.degree,
            "count": len(brute_annihilators(s, args.degree)),
        }
    if args.at is None:
        raise MinseqError("oracle nonvanish needs --at")
    a = dom.parse(args.at)
    return {"n": len(s), "at": elem_out(dom, a), "lc_at": brute_lc_at(s, a)}


COMMANDS = {
    "solve": cmd_solve,
    "profile": cmd_profile,
    "cf": cmd_cf,
    "decompose": cmd_decompose,
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "nonvanish": cmd_nonvanish,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


# a negative literal that argparse's own negative-number check misses
_NEGATIVE_LITERAL = re.compile(r"-[0-9.]")


def _attach_negative_values(argv):
    """--opt -1/2 as --opt=-1/2: argparse reads a lone -1/2 as an option."""
    out = []
    for i, tok in enumerate(argv):
        if tok == "--":
            return out + list(argv[i:])
        prev = out[-1] if out else ""
        if (_NEGATIVE_LITERAL.match(tok) and prev.startswith("--")
                and "=" not in prev):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        dom = parse_domain(args.field)
        out = COMMANDS[args.command](args, dom)
    except InvariantViolation as ex:
        print(f"invariant violation: {ex}", file=sys.stderr)
        return 3
    except MinseqError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    # Python 3.10.7+ refuses str(int) past 4,300 digits. The limit is lifted
    # for the output alone: an over-long input literal still exits 2.
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:  # Fractions, and the Polys under --pretty, print as their str()
        print(json.dumps(out, indent=2 if args.pretty else None, default=str))
    finally:
        set_limit(limit)
    return 0


def main():
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

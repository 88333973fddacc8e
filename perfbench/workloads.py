"""The three workloads: inputs, one round of operations, and output checks.

A workload is a fixed list of operations built from the seed; a run repeats
that list (a round) until --seconds of rounds have passed, so every run
attempts whole rounds and the share of failed operations is the same in
every run. Library operations are calls into minseq's public functions;
CLI operations are one minseq process each, started only after the
previous one has exited (one closed-loop client, never two children).
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import referee

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

GF2M8 = "gf2m:8:0x11B"
GF2M16 = "gf2m:16:0x1002B"
GFP16 = "gfp:65521"
GFP61 = "gfp:2305843009213693951"

# Sizes of the measured runs, and the toy sizes the self-tests use. A solve
# over int or rat costs anywhere from a third to three times the median,
# depending on the terms; exact-swell's 128 small rat solves put the median
# operation (op_p50_ms) in a group that is large and tight enough for the
# median not to depend on the seed, and its 64 int solves do the same for
# the largest coefficient.
FULL = {
    "gf2-stream": {"rand_n": 2000, "rand_solve": 2, "rand_profile": 2,
                   "lfsr_n": 20000, "lfsr_L": 64, "lfsr_solve": 1, "lfsr_profile": 1},
    "exact-swell": {"int_n": 24, "int_count": 64, "rat_n": 20, "rat_count": 128,
                    "ratnorm_n": 300, "ratnorm_count": 2},
    "cli-mixed": {"n": 300, "verify_n": 120, "verify_int_n": 100, "decomp_L": 80,
                  "nonvanish_L": 100, "enum_n": 160, "enum_L": 50},
}
TOY = {
    "gf2-stream": {"rand_n": 60, "rand_solve": 2, "rand_profile": 2,
                   "lfsr_n": 300, "lfsr_L": 8, "lfsr_solve": 1, "lfsr_profile": 1},
    "exact-swell": {"int_n": 10, "int_count": 3, "rat_n": 8, "rat_count": 2,
                    "ratnorm_n": 20, "ratnorm_count": 1},
    "cli-mixed": {"n": 30, "verify_n": 12, "verify_int_n": 12, "decomp_L": 6,
                  "nonvanish_L": 6, "enum_n": 16, "enum_L": 5},
}


class Op:
    """One operation of a round.

    kind names what is called; spec and values are the field and the terms
    (referee encoding); run() performs the call and returns its raw result,
    failed(result) says whether the operation failed, check(result) lists
    faults in the output of an operation that did not fail.
    """

    def __init__(self, kind, spec, values, run, check, failed=lambda r: False,
                 bits=lambda r: 0, nterms=None):
        self.kind, self.spec, self.values = kind, spec, values
        self.run, self.check, self.failed, self.bits = run, check, failed, bits
        self.nterms = len(values) if nterms is None else nterms
        self.ctx = f"{spec}/{self.nterms}"
        self.pair = None  # (other op, argument) for a check that spans two requests


def _rng(seed, part):
    return random.Random(seed * 1000 + part)


def _literals(spec, values):
    if spec.startswith("gf2m"):
        return [f"{v:x}" for v in values]
    return [str(v) for v in values]


# -- library workloads ---------------------------------------------------------

def _state_out(st):
    return {"profile": list(st.profile), "mu1": list(st.mu1.coeffs),
            "mu2": list(st.mu2.coeffs), "mup1": list(st.mup1.coeffs),
            "mup2": list(st.mup2.coeffs), "nabla": st.nabla}


def _solution_bits(out):
    return referee.coeff_bits(c for k in ("mu1", "mu2", "mup1", "mup2") for c in out[k])


def _fractions(values):
    return [Fraction(v) for v in values]


def library_inputs(name, seed, sizes):
    """(kind, spec, values) for every operation of one round."""
    specs = []
    if name == "gf2-stream":
        rng = _rng(seed, 1)
        for kind in ["solve"] * sizes["rand_solve"] + ["profile"] * sizes["rand_profile"]:
            specs.append((kind, "gf2", inputs.gf2_random(rng, sizes["rand_n"])))
        for kind in ["solve"] * sizes["lfsr_solve"] + ["profile"] * sizes["lfsr_profile"]:
            specs.append((kind, "gf2", inputs.gf2_lfsr(rng, sizes["lfsr_n"], sizes["lfsr_L"])))
    elif name == "exact-swell":
        rng = _rng(seed, 2)
        specs += [("solve", "int", inputs.small_ints(rng, sizes["int_n"]))
                  for _ in range(sizes["int_count"])]
        specs += [("solve", "rat", _fractions(inputs.small_ints(rng, sizes["rat_n"])))
                  for _ in range(sizes["rat_count"])]
        specs += [("solve-normalized", "rat", _fractions(inputs.small_ints(rng, sizes["ratnorm_n"])))
                  for _ in range(sizes["ratnorm_count"])]
    else:
        raise ValueError(name)
    return specs


def library_ops(specs, seed):
    """Import minseq, build domains and parse inputs: the timed set-up."""
    texts = [(kind, spec, values, _literals(spec, values)) for kind, spec, values in specs]
    import minseq
    # minimal_solution_normalized is slated to become a flag of minimal_solution.
    normalized = getattr(minseq, "minimal_solution_normalized", None) or (
        lambda s: minseq.minimal_solution(s, normalized=True))
    calls = {"solve": minseq.minimal_solution, "profile": minseq.lc_profile,
             "solve-normalized": normalized}
    domains = {spec: minseq.parse_domain(spec) for spec in sorted({s for _, s, _ in specs})}
    ops = []
    point = _rng(seed, 9).getrandbits(64) | 1
    for kind, spec, values, text in texts:
        seq = minseq.Seq.parse(domains[spec], text)
        fn = calls[kind]
        if kind == "profile":
            ops.append(Op(kind, spec, values, lambda fn=fn, seq=seq: fn(seq),
                          lambda r, spec=spec, v=values: referee.check_profile(spec, v, r)))
        else:
            ops.append(Op(kind, spec, values, lambda fn=fn, seq=seq: _state_out(fn(seq)),
                          lambda r, spec=spec, v=values, kind=kind: _check_library_solution(
                              spec, v, r, point, kind),
                          bits=_solution_bits))
    return ops


def _check_library_solution(spec, values, out, point, kind):
    normalized = kind == "solve-normalized"
    faults = referee.check_solution(spec, values, out, None if spec == "gf2" else point,
                                    nabla_is_det=not normalized)
    if normalized and out["mu1"][-1] != 1:
        faults.append("normalized mu1 is not monic")
    return faults


# -- CLI workload ---------------------------------------------------------------

BOOT = "import sys; from minseq.cli import main; sys.exit(main())"


class Cli:
    """Starts minseq processes from a checkout's src/, one at a time."""

    def __init__(self, src, tracer=None):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.tracer = tracer
        self.start_ms = []
        self.count = 0

    def __call__(self, argv, ctx="-"):
        if self.tracer is None:
            cmd = [sys.executable, "-c", BOOT, *argv]
            env = self.env
        else:
            self.count += 1
            trace_file = OUT / f"child-{os.getpid()}-{self.count}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *argv]
            env = dict(self.env, PERFBENCH_CTX=ctx)
        spawned = time.time()
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=150)
        if self.tracer is not None:
            try:
                dumped = json.loads(trace_file.read_text())
                trace_file.unlink()
            except FileNotFoundError:
                dumped = None
            if dumped is not None:
                self.start_ms.append((dumped["imported"] - spawned) * 1000.0)
                self.tracer.merge(dumped)
        return proc


def _decode(spec, x):
    if spec.startswith("gf2m"):
        return int(x, 16)
    if spec == "rat":
        return Fraction(x)
    return x


def _poly(spec, coeffs):
    return [_decode(spec, c) for c in coeffs or []]


def _json(proc):
    return json.loads(proc.stdout)


def _cli_check(spec, values, check):
    """Wrap a check on the decoded JSON record of a successful request."""
    def run_check(proc):
        try:
            rec = _json(proc)
        except ValueError:
            return ["stdout is not one JSON object"]
        return check(spec, values, rec)
    return run_check


def _check_cli_solve(spec, values, rec, point, normalized):
    out = {k: _poly(spec, rec[k]) for k in ("mu1", "mu2", "mup1", "mup2")}
    out["profile"] = rec["profile"]
    out["nabla"] = _decode(spec, rec["nabla"])
    faults = referee.check_solution(spec, values, out, point, nabla_is_det=not normalized)
    if rec["lc"] != len(out["mu1"]) - 1:
        faults.append("lc is not deg mu1")
    return faults


def _check_cf(spec, values, rec):
    F = referee.field_for(spec)
    profile = referee.bm_profile(F, values)
    faults = []
    if rec["lc_table"] != profile:
        faults.append("cf lc_table differs from Berlekamp-Massey")
    if rec["partition"] != referee.jump_positions(profile):
        faults.append("cf partition differs from the jump positions")
    return faults


def _check_nonvanish(spec, values, rec, at):
    F = referee.field_for(spec)
    xi1 = referee.strip(F, _poly(spec, rec["xi1"]))
    lc = referee.bm_profile(F, values)[-1]
    faults = []
    if not referee.annihilates(F, xi1, values):
        faults.append("xi1 does not annihilate")
    if referee.poly_eval(F, xi1, at) == F.zero:
        faults.append("xi1 vanishes at the point")
    if rec["lc_at"] < lc or rec["lc_at"] != len(xi1) - 1:
        faults.append("lc_at is below LC or is not deg xi1")
    return faults


def _check_enumerate(spec, values, rec, degree):
    F = referee.field_for(spec)
    sols = rec["solutions"]
    faults = []
    if rec["count"] != len(sols):
        faults.append("enumerate count is not the number of solutions listed")
    seen = set()
    for pair in sols:
        f1 = referee.strip(F, _poly(spec, pair["f1"]))
        if len(f1) - 1 != degree or not referee.annihilates(F, f1, values):
            faults.append("an enumerated f1 does not annihilate at the degree asked")
            break
        if referee.strip(F, _poly(spec, pair["f2"])) != referee.numerator(F, f1, values):
            faults.append("an enumerated f2 is not the numerator of its f1")
            break
        seen.add(tuple(f1))
    if not faults and len(seen) != len(sols):
        faults.append("enumerated solutions repeat")
    return faults


def _check_verify(spec, values, rec):
    return [] if rec.get("ok") is True else ["verify did not report ok"]


def _malformed_failed(proc):
    """The documented contract: exit 2, nothing on stdout, no traceback."""
    return not (proc.returncode == 2 and not proc.stdout and b"Traceback" not in proc.stderr)


def _cli_bits(spec, keys):
    def bits(proc):
        if not keys:
            return 0
        rec = _json(proc)
        polys = []
        for k in keys:
            v = rec[k]
            if k in ("convergents", "solutions"):
                polys += [p["f1"] for p in v] + [p["f2"] for p in v]
            else:
                polys.append(v)
        return referee.coeff_bits(_decode(spec, c) for p in polys for c in p or [])
    return bits


def _exit_nonzero(proc):
    return proc.returncode != 0


def cli_ops(seed, sizes, cli):
    """The cli-mixed request list; pairs of requests carry a cross-check."""
    rng = _rng(seed, 3)
    n = sizes["n"]
    F16, F61, G8, G16 = (referee.field_for(s) for s in (GFP16, GFP61, GF2M8, GF2M16))
    point = rng.getrandbits(64) | 1
    ops = []

    def request(kind, spec, values, extra, check, bits_keys=()):
        argv = [kind.split("-")[0], "--field", spec, *extra,
                "--terms", " ".join(_literals(spec, values))]
        op = Op(kind, spec, values, None, _cli_check(spec, values, check),
                failed=_exit_nonzero, bits=_cli_bits(spec, bits_keys))
        op.run = lambda: cli(argv, op.ctx)
        ops.append(op)
        return op

    def solve_check(pt=None, normalized=False):
        def check(spec, values, rec):
            faults = _check_cli_solve(spec, values, rec, pt, normalized)
            if normalized and rec["mu1"][-1] != 1:
                faults.append("normalized mu1 is not monic")
            return faults
        return check

    solve_keys = ("mu1", "mu2", "mup1", "mup2")
    request("solve", GFP16, inputs.field_random(rng, F16, n), [], solve_check(), solve_keys)
    request("solve-normalized", GFP61, inputs.field_random(rng, F61, n), ["--normalized"],
            solve_check(normalized=True), solve_keys)
    request("profile", GF2M16, inputs.field_random(rng, G16, n), [],
            lambda s, v, r: referee.check_profile(s, v, r["profile"]))
    request("cf", GF2M8, inputs.field_random(rng, G8, n), [], _check_cf, ("convergents",))

    at = rng.randrange(1, F16.p)
    v, _ = inputs.field_lrs(rng, F16, n, [F16.sub(0, at), 1], sizes["nonvanish_L"])
    request("nonvanish", GFP16, v, ["--at", str(at)],
            lambda s, vv, r: _check_nonvanish(s, vv, r, at), ("xi1", "xi2"))

    # decompose f1 = h * f over the minimal system of the same input, which
    # the plain solve request just before it reports.
    v, f = inputs.field_lrs(rng, F61, n, [1], sizes["decomp_L"])
    f1 = referee.poly_mul(F61, [rng.randrange(F61.p) for _ in range(3)] + [1], f)
    solved = request("solve", GFP61, v, [], solve_check(), solve_keys)
    request("decompose", GFP61, v, ["--f1", " ".join(map(str, f1))],
            lambda s, vv, r: [], ("m", "mp")).pair = (solved, f1)

    # count and enumerate at the linear complexity: n >= 2 LC keeps the
    # solution set at q - 1 pairs whatever the seed.
    v, _ = inputs.field_lrs(rng, G8, sizes["enum_n"], [1], sizes["enum_L"])
    degree = referee.bm_profile(G8, v)[-1]
    listed = request("enumerate", GF2M8, v, ["--degree", str(degree)],
                     lambda s, vv, r: _check_enumerate(s, vv, r, degree), ("solutions",))
    request("count", GF2M8, v, ["--degree", str(degree)], lambda s, vv, r: []).pair = (listed, None)

    request("verify", GFP16, inputs.field_random(rng, F16, sizes["verify_n"]), [], _check_verify)
    request("verify", "int", inputs.unit_discrepancy_ints(rng, sizes["verify_int_n"]), [],
            _check_verify)
    request("solve", "int", inputs.unit_discrepancy_ints(rng, n), [], solve_check(point),
            solve_keys)

    # Malformed literals, and a --file that is not UTF-8: the CLI promises
    # exit 2 without a traceback. These inputs do not depend on the seed.
    OUT.mkdir(exist_ok=True)
    bad_file = OUT / "not-utf8-terms.txt"
    bad_file.write_bytes(b"1 2 \xff\xfe 3\n")
    for kind, spec, source in (("solve", GFP16, ["--terms", "1 x 3"]),
                               ("profile", "int", ["--terms", "1 2.5 3"]),
                               ("cf", GF2M8, ["--terms", "1 g 3"]),
                               ("solve", GFP16, ["--file", str(bad_file)])):
        argv = [kind, "--field", spec, *source]
        ops.append(Op(kind + "-malformed", spec, [], lambda argv=argv: cli(argv),
                      lambda p: [], failed=_malformed_failed, nterms=3))
    return ops


def cross_checks(ops, outputs):
    """Checks that tie two requests of one round together."""
    faults = []
    by_id = {id(op): out for op, out in zip(ops, outputs)}
    for op, out in zip(ops, outputs):
        pair = op.pair
        if pair is None or op.failed(out):
            continue
        other, arg = pair
        other_out = by_id[id(other)]
        if other.failed(other_out):
            faults.append(f"{other.kind} failed, so {op.kind} cannot be checked")
        elif op.kind == "decompose":
            faults += _check_decompose(op.spec, _json(out), _json(other_out), arg, op.values)
        elif op.kind == "count":
            if _json(out)["count"] != len(_json(other_out)["solutions"]):
                faults.append("count differs from the number of enumerated solutions")
    return faults


def _check_decompose(spec, rec, solved, f1, values):
    F = referee.field_for(spec)
    nabla = _decode(spec, solved["nabla"])
    lam1 = _poly(spec, solved["mu1"])
    profile = referee.bm_profile(F, values)
    pseudo_geometric = all(lc == 1 for lc in profile)
    lamp1 = [F.one] if pseudo_geometric else _poly(spec, solved["mup1"])
    m, mp = _poly(spec, rec["m"]), _poly(spec, rec["mp"])
    lhs = referee.poly_mul(F, [nabla], f1)
    rhs = referee.poly_sub(F, referee.poly_mul(F, mp, lam1), referee.poly_mul(F, m, lamp1))
    faults = [] if lhs == rhs else ["nabla*f1 != m'*lambda1 - m*lambda'1"]
    if rec.get("reconstruction_ok") is not True or rec.get("bounds_ok") is not True:
        faults.append("decompose reports a failed reconstruction")
    return faults


def setup_request(cli):
    """The trivial request whose wall time is cli-mixed's set-up time."""
    return Op("profile", GFP16, [1, 2, 3], lambda: cli(["profile", "--field", GFP16,
                                                        "--terms", "1 2 3"]),
              _cli_check(GFP16, [1, 2, 3],
                         lambda s, v, r: referee.check_profile(s, v, r["profile"])),
              failed=lambda p: p.returncode != 0)

"""Golden CLI corpus: stdout bytes and exit codes replayed through cli.run.

cli_golden.json holds one record per argv in CASES, recorded before the
solver's update branches and the CLI's own solve loop were folded into
minimal_solution. Replaying it pins the CLI output byte for byte; the only
departures from the recording are the ones listed in DIFFERENCES, each with
its reason. Re-record with ``PYTHONPATH=src python tests/test_cli_golden.py``
only when an output change is intended, and then drop the DIFFERENCES it
absorbs.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from minseq.cli import run
from minseq.domains import parse_domain
from minseq.poly import Poly

GOLDEN = Path(__file__).with_name("cli_golden.json")

TABLE = "0 1 1 0 0 1 0 1"
FIB7 = "1 1 2 3 5 1 6 0"
POW3 = "1 3 2 6 4 5 0 1"
GF16 = "gf2m:4:0x13"
GF256 = "gf2m:8:0x11B"
# seeded random inputs
P65521 = "50507 22901 41200 27300 30532 8138 47534 48726 9107 49991"
GF16_TERMS = "0x6 0xA 0x3 0x0 0x0 0x4"
G256 = "0xA7 0xC7 0xA9 0xB0 0x66 0xA6 0xDA 0xD4 0xA2 0x6D"
RAT8 = "1/1 0/2 -2/4 0/2 -2/3 2/2 -1/4 4/3"

# (field, terms) pairs every field-agnostic command runs on
INPUTS = [
    ("gf2", TABLE),
    ("gf2", "1 0 1 0 1 1 0 1 1 1 0 1 1 0 0 1 0 0 1 0"),
    ("gfp:7", FIB7),
    ("gfp:7", POW3),
    ("gfp:65521", P65521),
    (GF16, GF16_TERMS),
    (GF256, G256),
    ("int", "3 1 4 1 5 9 2 6"),
    ("int", "0 0 5"),
    ("int", "1 -2 -2 -5 -2 -5 -1 3 0 4"),
    ("rat", "1/2 1/4 1/8"),
    ("rat", RAT8),
]
FIELD_INPUTS = [(f, t) for f, t in INPUTS if f != "int"]

SOLVE_FLAGS = [
    [],
    ["--pretty"],
    ["--massey"],
    ["--no-numerator"],
    ["--normalized"],
    ["--normalized", "--massey"],
    ["--normalized", "--no-numerator", "--pretty"],
]


def _cases():
    out = []
    for field, terms in INPUTS:
        for flags in SOLVE_FLAGS:
            out.append(["solve", "--field", field, "--terms", terms, *flags])
        out.append(["profile", "--field", field, "--terms", terms])
        out.append(["verify", "--field", field, "--terms", terms])
        out.append(["nonvanish", "--field", field, "--terms", terms, "--at", "1"])
    for field, terms in FIELD_INPUTS:
        out.append(["cf", "--field", field, "--terms", terms])
        out.append(["nonvanish", "--field", field, "--terms", terms, "--at", "0", "--pretty"])
    out += [
        ["solve", "--field", "gf2", "--terms", ""],
        ["profile", "--field", "gf2", "--terms", ""],
        ["cf", "--field", "gfp:5", "--num", "1", "--den", "-2 1"],
        ["cf", "--field", "rat", "--num", "1", "--den", "1 -1 -1", "--max-i", "3"],
        ["cf", "--field", GF16, "--num", "0x3 0x1", "--den", "0x1 0x0 0x7 0x2"],
        ["cf", "--field", "gfp:7", "--num", "1", "--den", "1 1", "--terms", "1"],
        ["cf", "--field", "int", "--terms", "1 2 3"],
        ["decompose", "--field", "gf2", "--terms", TABLE, "--f1", "1 1 0 0 0 1"],
        ["decompose", "--field", "gf2", "--terms", TABLE, "--f1", "1 1 0 0 0 1", "--pretty"],
        ["decompose", "--field", "gfp:7", "--terms", FIB7, "--f1", "6 5 0 1"],
        ["decompose", "--field", "int", "--terms", "0 0 5", "--f1", "0 0 0 1"],
        ["decompose", "--field", "rat", "--terms", "1/2 1/4 1/8", "--f1", "-1/2 1"],
        ["decompose", "--field", "gf2", "--terms", TABLE, "--f1", "1 1"],
        ["count", "--field", "gf2", "--terms", TABLE, "--degree", "5"],
        ["count", "--field", "gfp:3", "--terms", "1 2 0 1", "--degree", "3"],
        ["count", "--field", GF16, "--terms", "0x6 0xA 0x3", "--degree", "2"],
        ["count", "--field", "gf2", "--terms", "0 1", "--degree", "9"],
        ["enumerate", "--field", "gf2", "--terms", TABLE, "--degree", "4"],
        ["enumerate", "--field", "gfp:3", "--terms", "1 2 0 1", "--degree", "3"],
        ["enumerate", "--field", "int", "--terms", "1", "--degree", "1"],
        ["oracle", "profile", "--field", "gfp:3", "--terms", "1 2 0 1"],
        ["oracle", "profile", "--field", "gf2", "--terms", TABLE],
        ["oracle", "count", "--field", "gf2", "--terms", TABLE, "--degree", "6"],
        ["oracle", "count", "--field", "gf2", "--terms", TABLE],
        ["oracle", "nonvanish", "--field", "gf2", "--terms", TABLE, "--at", "0"],
        ["oracle", "nonvanish", "--field", GF16, "--terms", "0x6 0xA 0x3", "--at", "0x2"],
        ["oracle", "nonvanish", "--field", "gf2", "--terms", TABLE],
        ["oracle", "profile", "--field", "int", "--terms", "1 2"],
        ["solve", "--field", "nope", "--terms", "0"],
        ["solve", "--field", "gf2"],
        ["solve", "--field", "gf2", "--terms", "2 0"],
        ["nope"],
    ]
    return out


CASES = _cases()

# Departures from the recording. Each maps a case (its argv joined by
# spaces) to the record the current code must print instead.
NABLA_REASON = (
    "normalized nabla: the determinant mu2*mup1 - mu1*mup2 is multiplied by "
    "the jump factor delta/deltaP only; the recorded value multiplied it by "
    "deltaP at every nonzero discrepancy"
)
EMPTY_REASON = (
    "solve on no terms goes through minimal_solution, which rejects it "
    "like profile does"
)
NABLA_FIX = {
    " ".join(["solve", "--field", field, "--terms", terms, *flags]): nabla
    for field, terms, nabla, flag_sets in [
        ("gfp:7", POW3, 6, SOLVE_FLAGS[4:]),
        ("gfp:65521", P65521, 42031, SOLVE_FLAGS[4:]),
        (GF16, GF16_TERMS, "0xE", SOLVE_FLAGS[4:]),
        (GF256, G256, "0x2B", SOLVE_FLAGS[4:]),
        ("rat", RAT8, "685/396", SOLVE_FLAGS[4:]),
        # with --massey this one keeps its recorded value
        ("rat", "1/2 1/4 1/8", "1/2", [SOLVE_FLAGS[4], SOLVE_FLAGS[6]]),
    ]
    for flags in flag_sets
}
DIFFERENCES = {
    **{key: (NABLA_REASON, {"nabla": v}) for key, v in NABLA_FIX.items()},
    "solve --field gf2 --terms ": (EMPTY_REASON, {"code": 2, "stdout": ""}),
}


def replay(argv):
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, buf.getvalue()


def record():
    """Rewrite cli_golden.json from the current code."""
    recs = []
    for argv in CASES:
        code, out = replay(argv)
        recs.append({"argv": argv, "code": code, "stdout": out})
    GOLDEN.write_text(json.dumps(recs, indent=1) + "\n")


def expected(rec):
    """The recorded (code, stdout) with its listed difference applied."""
    change = DIFFERENCES.get(" ".join(rec["argv"]))
    if change is None:
        return rec["code"], rec["stdout"]
    _, new = change
    if "code" in new:
        return new["code"], new["stdout"]
    pretty = "--pretty" in rec["argv"]
    out = json.loads(rec["stdout"])
    out.update(new)
    return rec["code"], json.dumps(out, indent=2 if pretty else None) + "\n"


def test_corpus_covers_cases():
    recs = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in recs] == CASES
    assert set(DIFFERENCES) <= {" ".join(a) for a in CASES}


def test_golden_corpus_replays():
    recs = json.loads(GOLDEN.read_text())
    mismatched = []
    for rec in recs:
        if replay(rec["argv"]) != expected(rec):
            mismatched.append(" ".join(rec["argv"]))
    assert not mismatched, mismatched


def test_listed_differences_are_real():
    """Every listed difference departs from the recording; none is stale."""
    for rec in json.loads(GOLDEN.read_text()):
        key = " ".join(rec["argv"])
        if key in DIFFERENCES:
            assert expected(rec) != (rec["code"], rec["stdout"]), key


def test_replayed_nabla_is_the_determinant():
    """mu2*mup1 - mu1*mup2 == nabla on every solve with a numerator column."""
    checked = 0
    for argv in CASES:
        if argv[0] != "solve" or "--no-numerator" in argv or "--massey" in argv:
            continue
        code, out = replay(argv)
        if code:
            continue
        rec = json.loads(out)
        dom = parse_domain(argv[argv.index("--field") + 1])
        mu1, mu2, mup1, mup2 = (Poly.parse(dom, map(str, rec[k]))
                                for k in ("mu1", "mu2", "mup1", "mup2"))
        assert mu2 * mup1 - mu1 * mup2 == Poly.parse(dom, [str(rec["nabla"])]), argv
        checked += 1
    assert checked == 33  # 12 inputs x (plain, --pretty, --normalized) - 3 int


if __name__ == "__main__":
    record()

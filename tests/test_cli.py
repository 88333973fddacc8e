import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from minseq.cli import build_parser, main, run
from minseq.domains import parse_domain
from minseq.poly import Poly

TABLE = "0 1 1 0 0 1 0 1"


def run_json(argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    assert code == 0, buf.getvalue()
    return json.loads(buf.getvalue())


def code_of(argv):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run(argv)


def test_solve_record():
    out = run_json(["solve", "--field", "gf2", "--terms", TABLE])
    assert out == {
        "n": 8,
        "lc": 4,
        "e": 1,
        "nabla": 1,
        "mu1": [0, 1, 1, 0, 1],
        "mu2": [1, 1, 1],
        "mup1": [1, 1, 1, 1],
        "mup2": [0, 1],
        "profile": [0, 2, 2, 2, 3, 3, 4, 4],
        "mul_count": out["mul_count"],
        "class": "Essential",
        "n_prime": 6,
    }
    assert out["mul_count"] > 0


def test_solve_no_numerator_and_massey():
    out = run_json(["solve", "--field", "gf2", "--terms", TABLE, "--no-numerator"])
    assert out["mu2"] is None and out["mup2"] is None
    assert out["mu1"] == [0, 1, 1, 0, 1]
    massey = run_json(["solve", "--field", "int", "--terms", "0 0 5", "--massey"])
    assert massey["mu1"] == [-5, 0, 0, 1]


def test_profile_record():
    out = run_json(["profile", "--field", "gfp:7", "--terms", "1 1 2 3 5 1 6 0"])
    assert out["profile"] == [1, 1, 2, 2, 2, 2, 2, 2]
    assert out["lc"] == 2
    assert out["class"] == "Essential"
    assert out["n_prime"] == 2
    out = run_json(["profile", "--field", "gfp:7", "--terms", "1 3 2 6 4 5"])
    assert out["class"] == "PseudoGeometric"  # powers of 3 mod 7
    assert out["n_prime"] is None


def test_nonvanish_record():
    out = run_json(["nonvanish", "--field", "gf2", "--terms", TABLE, "--at", "0"])
    assert out == {
        "xi1": [1, 1, 0, 0, 0, 1],
        "xi2": [0, 0, 1, 1],
        "lc_at": 5,
        "M": 1,
        "used_extension": True,
    }


def test_decompose_record():
    out = run_json(
        ["decompose", "--field", "gf2", "--terms", TABLE, "--f1", "1 1 0 0 0 1"]
    )
    assert out["reconstruction_ok"] and out["bounds_ok"]
    assert len(out["mp"]) - 1 == 1  # degree d - lc = 1


def test_count_and_enumerate():
    out = run_json(["count", "--field", "gf2", "--terms", TABLE, "--degree", "5"])
    assert out["count"] == 4
    out = run_json(["enumerate", "--field", "gf2", "--terms", TABLE, "--degree", "4"])
    assert out["solutions"] == [{"f1": [0, 1, 1, 0, 1], "f2": [1, 1, 1]}]


def test_gf2m_hex_roundtrip():
    out = run_json(
        ["solve", "--field", "gf2m:4:0x13", "--normalized",
         "--terms", "0x6 0xA 0x3 0x0 0x0 0x4"]
    )
    assert out["mu1"] == ["0xD", "0x8", "0xC", "0x1"]
    assert out["mu2"] == ["0x7", "0x4", "0x6"]
    assert out["nabla"] == "0xE"
    dom = parse_domain("gf2m:4:0x13")
    mu1, mu2, mup1, mup2 = (
        Poly.parse(dom, out[k]) for k in ("mu1", "mu2", "mup1", "mup2")
    )
    assert mu2 * mup1 - mu1 * mup2 == Poly.parse(dom, [out["nabla"]])


def test_normalized_nabla_is_the_determinant():
    out = run_json(["solve", "--normalized", "--field", "gfp:7",
                    "--terms", "1 3 2 6 4 5 0 1"])
    assert out["nabla"] == 6


def test_rational_field_literals():
    out = run_json(["solve", "--field", "rat", "--terms", "1/2 1/4 1/8"])
    assert out["class"] == "PseudoGeometric"
    assert out["lc"] == 1


def test_cf_rational_and_prefix():
    out = run_json(
        ["cf", "--field", "gfp:5", "--num", "1", "--den", "-2 1"]
    )
    assert out["mode"] == "rational"
    assert out["terminated"] is True
    assert out["quotients"] == [[3, 1]]
    assert out["partition"] == [1]
    assert out["lc_table"] == [1, 1]
    out = run_json(["cf", "--field", "gfp:7", "--terms", "1 1 2 3 5 1 6 0"])
    assert out["mode"] == "prefix"
    assert out["precision_exhausted"] is True
    assert out["lc_table"] == [1, 1, 2, 2, 2, 2, 2, 2]
    assert out["convergents"][-1]["f1"] == [6, 6, 1]


def test_verify_record():
    out = run_json(["verify", "--field", "gf2", "--terms", TABLE])
    assert out["ok"] is True
    assert all(out["checks"].values())
    out = run_json(["verify", "--field", "int", "--terms", "3 5 11 2"])
    assert out["ok"] is True


@pytest.mark.parametrize("terms", ["", "   "])
@pytest.mark.parametrize("field", ["gf2", "gfp:7", "int", "rat"])
def test_verify_empty_input(field, terms):
    """No terms, no steps: the five checks hold and cf_agreement is absent."""
    out = run_json(["verify", "--field", field, "--terms", terms])
    assert out == {"ok": True, "checks": dict.fromkeys(
        ["determinant_identity", "numerator_identity", "jump_rule",
         "step_counter", "profile_mass"], True)}


@pytest.mark.parametrize("field", ["gf2", "gfp:7", "int"])
def test_corrupted_step_makes_verify_exit_3(monkeypatch, capsys, field):
    """An LC off by one breaks e = k + 1 - 2*LC, which the solver enforces."""
    import minseq.solver as solver

    length = solver._length
    monkeypatch.setattr(solver, "_length", lambda packed, p: length(packed, p) + 1)
    assert run(["verify", "--field", field, "--terms", "1 0 1 1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: e = ") and "k + 1 - 2|mu1|" in err


def test_oracle_subcommands():
    out = run_json(["oracle", "profile", "--field", "gf2", "--terms", TABLE])
    assert out["lc"] == 4
    assert out["witnesses"] == [[0, 1, 1, 0, 1]]
    assert out["per_degree_counts"]["5"] == 4
    out = run_json(["oracle", "count", "--field", "gf2", "--terms", TABLE,
                    "--degree", "6"])
    assert out["count"] == 16
    out = run_json(["oracle", "nonvanish", "--field", "gf2", "--terms", TABLE,
                    "--at", "0"])
    assert out["lc_at"] == 5


def test_file_input(tmp_path):
    p = tmp_path / "terms.txt"
    p.write_text(TABLE.replace(" ", "\n"))
    out = run_json(["solve", "--field", "gf2", "--file", str(p)])
    assert out["lc"] == 4


def test_pretty_output():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["solve", "--field", "gf2", "--terms", TABLE, "--pretty"])
    assert code == 0
    text = buf.getvalue()
    assert "\n  " in text  # indented
    out = json.loads(text)
    assert out["pretty"]["mu1"] == "x^4 + x^2 + x"
    assert out["mu1"] == [0, 1, 1, 0, 1]  # lists survive prettying


def test_exit_codes():
    assert code_of(["solve", "--field", "gf2", "--terms", "0 1"]) == 0
    assert code_of(["solve", "--field", "nope", "--terms", "0"]) == 2
    assert code_of(["solve", "--field", "gf2"]) == 2  # no terms source
    assert code_of(["solve", "--field", "gf2", "--terms", "2 0"]) == 2
    assert code_of(["count", "--field", "gf2", "--terms", "0 1", "--degree", "9"]) == 2
    assert code_of(["enumerate", "--field", "int", "--terms", "1", "--degree", "1"]) == 2
    assert code_of(["nope"]) == 2
    assert code_of(["cf", "--field", "gfp:5", "--num", "0 1", "--den", "1 1"]) == 2
    assert code_of(["solve", "--field", "gf2", "--file", "/no/such/file"]) == 2


@pytest.mark.parametrize("modulus", [
    "318665857834031151167461",  # 399165290221 * 798330580441
    "3317044064679887385961981",  # strong pseudoprime to the bases 2..41
])
def test_composite_gfp_modulus_exits_2(modulus):
    assert code_of(["solve", "--field", f"gfp:{modulus}", "--terms", "1 2 3"]) == 2


def test_large_prime_gfp_moduli_accepted():
    for p in (2**89 - 1, 2**127 - 1):
        out = run_json(["solve", "--field", f"gfp:{p}", "--terms", "1 2 3"])
        assert out["lc"] >= 1


def test_empty_solve_exits_2():
    assert code_of(["solve", "--field", "gf2", "--terms", ""]) == 2
    assert code_of(["profile", "--field", "gf2", "--terms", ""]) == 2


@pytest.mark.parametrize("field, terms", [
    ("gfp:7", "1 x"),
    ("int", "2.5"),
    ("gf2", "z"),
    ("gf2m:4:0x13", "g"),
    ("gf2m:4:0x13", "0x"),
    ("rat", "1/0"),
])
def test_malformed_literals_exit_2(field, terms):
    assert code_of(["solve", "--field", field, "--terms", terms]) == 2
    assert code_of(["nonvanish", "--field", field, "--terms", "1",
                    "--at", terms.split()[-1]]) == 2


def test_malformed_oracle_budget_exits_2(monkeypatch):
    monkeypatch.setenv("MINSEQ_ORACLE_BUDGET", "abc")
    assert code_of(["oracle", "profile", "--field", "gf2", "--terms", "0 1"]) == 2


def test_non_utf8_file_exits_2(tmp_path):
    p = tmp_path / "terms.txt"
    p.write_bytes(b"0 1 \xff\xfe 1")
    assert code_of(["solve", "--field", "gf2", "--file", str(p)]) == 2


FUZZ_FIELDS = ["gf2", "gfp:7", "gfp:65521", "gf2m:4:0x13", "gf2m:8:0x11B", "int", "rat"]
FUZZ_LITERALS = st.sampled_from(
    ["0", "1", "2", "-3", "10", "0x1", "0xA", "ff", "1/2", "-2/3"]
) | st.text(alphabet="0123456789abfgxz./-+_ ", max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    cmd=st.sampled_from(["solve", "profile", "cf", "cf-rational", "nonvanish", "verify"]),
    field=st.sampled_from(FUZZ_FIELDS),
    tokens=st.lists(FUZZ_LITERALS, max_size=8),
    at=FUZZ_LITERALS,
    flags=st.lists(st.sampled_from(["--massey", "--normalized", "--no-numerator", "--pretty"]),
                   unique=True),
)
def test_fuzzed_argv_exits_0_or_2(cmd, field, tokens, at, flags):
    """Any mix of valid and malformed literals is an answer or exit 2."""
    argv = [cmd.split("-")[0], "--field", field]
    if cmd == "cf-rational":
        half = len(tokens) // 2
        argv += ["--num", " ".join(tokens[:half]), "--den", " ".join(tokens[half:])]
    else:
        argv += ["--terms", " ".join(tokens)]
    if cmd == "nonvanish":
        argv += ["--at", at]
    if cmd == "solve":
        argv += flags
    assert code_of(argv) in (0, 2), argv


def test_invariant_violation_exit_code(monkeypatch):
    import io
    from contextlib import redirect_stderr

    import minseq.cli as cli
    from minseq.errors import InvariantViolation

    def boom(cfg, dom):
        raise InvariantViolation("synthetic")

    monkeypatch.setitem(cli.COMMANDS, "verify", boom)
    with redirect_stderr(io.StringIO()):
        assert run(["verify", "--field", "gf2", "--terms", "0"]) == 3


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "minseq.cli", "solve", "--field", "gf2",
         "--terms", TABLE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lc"] == 4

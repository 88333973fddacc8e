"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py

The referee on a worked example, every output check against a corrupted
output, each workload end to end at toy size, and the runner's refusal to
run without minseq sources.
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import referee  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

README_TERMS = [0, 1, 1, 0, 0, 1, 0, 1]
README_PROFILE = [0, 2, 2, 2, 3, 3, 4, 4]


def test_referee_reproduces_the_readme_example():
    assert referee.bm_profile_gf2(referee.to_mask(README_TERMS), 8) == README_PROFILE
    assert referee.bm_profile(referee.PrimeField(2), README_TERMS) == README_PROFILE
    # mu1 = x^4 + x^2 + x, mu2 = x^2 + x + 1, mup1 = x^3 + x^2 + x + 1, mup2 = x
    out = {"profile": README_PROFILE, "mu1": [0, 1, 1, 0, 1], "mu2": [1, 1, 1],
           "mup1": [1, 1, 1, 1], "mup2": [0, 1], "nabla": 1}
    assert referee.check_solution("gf2", README_TERMS, out) == []
    assert referee.check_solution("gfp:2", README_TERMS, out) == []


def test_referee_fields_agree_with_each_other():
    rng = random.Random(5)
    F = referee.BinaryExtField(8, 0x11B)
    for a in range(1, 256):
        assert F.mul(a, F.inv(a)) == 1
    # an integer sequence and the same terms over Q have one profile
    t = inputs.unit_discrepancy_ints(rng, 40)
    Q = referee.Rationals()
    assert referee.bm_profile(Q, t) == referee.bm_profile(Q, [Fraction(v) for v in t])
    # the LRS generator really produces sequences its polynomial annihilates
    G = referee.PrimeField(65521)
    v, f = inputs.field_lrs(rng, G, 60, [G.sub(0, 7), 1], 20)
    assert referee.annihilates(G, f, v) and referee.poly_eval(G, f, 7) == 0


def _library_outputs(name, seed=3):
    ops = workloads.library_ops(workloads.library_inputs(name, seed, workloads.TOY[name]), seed)
    return ops, [op.run() for op in ops]


@pytest.mark.parametrize("name", ["gf2-stream", "exact-swell"])
def test_library_checks_reject_corrupted_outputs(name):
    ops, outs = _library_outputs(name)
    for op, out in zip(ops, outs):
        assert op.check(out) == [], (op.kind, op.ctx)
        if op.kind == "profile":
            bad = list(out)
            bad[len(bad) // 2] += 1
            assert op.check(bad)
            continue
        bad = copy.deepcopy(out)
        bad["mu1"][0] = 1 - bad["mu1"][0] if op.spec == "gf2" else bad["mu1"][0] + 1
        assert op.check(bad), ("flipped mu1", op.kind, op.ctx)
        bad = copy.deepcopy(out)
        bad["profile"][-1] += 1
        assert op.check(bad), ("wrong profile", op.kind, op.ctx)
        bad = copy.deepcopy(out)
        bad["mu2"].append(1)
        assert op.check(bad), ("wrong numerator", op.kind, op.ctx)


def test_determinant_check_rejects_a_wrong_nabla():
    ops, outs = _library_outputs("exact-swell")
    op, out = next((o, r) for o, r in zip(ops, outs) if o.kind == "solve" and o.spec == "int")
    out = dict(out, nabla=out["nabla"] * 2)
    assert "determinant identity fails" in op.check(out)


def _proc(stdout=b"", returncode=0, stderr=b""):
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


def _edit(proc, fn):
    rec = json.loads(proc.stdout)
    fn(rec)
    return _proc(json.dumps(rec).encode())


def _bump(x):
    if isinstance(x, str):
        return f"0x{int(x, 16) ^ 1:X}"
    return x + 1


@pytest.fixture(scope="module")
def cli_round():
    cli = workloads.Cli(run.SRC)
    ops = workloads.cli_ops(4, workloads.TOY["cli-mixed"], cli)
    return ops, [op.run() for op in ops]


def test_cli_round_passes_its_checks(cli_round):
    ops, outs = cli_round
    for op, out in zip(ops, outs):
        if op.kind.endswith("-malformed"):
            continue
        assert not op.failed(out), (op.kind, out.stderr)
        assert op.check(out) == [], (op.kind, op.ctx)
    assert workloads.cross_checks(ops, outs) == []


def _flip_first(key):
    def edit(rec):
        rec[key][0] = _bump(rec[key][0])
    return edit


CORRUPTIONS = {
    "solve": [_flip_first("mu1"), lambda r: r["profile"].__setitem__(-1, r["profile"][-1] + 1)],
    "solve-normalized": [_flip_first("mu1"), _flip_first("mu2")],
    "profile": [lambda r: r["profile"].__setitem__(2, r["profile"][2] + 1)],
    "cf": [lambda r: r["lc_table"].__setitem__(3, r["lc_table"][3] + 1),
           lambda r: r["partition"].append(r["partition"][-1] + 1)],
    "nonvanish": [_flip_first("xi1"), lambda r: r.__setitem__("lc_at", r["lc_at"] - 1)],
    "enumerate": [lambda r: _flip_first("f1")(r["solutions"][0]),
                  lambda r: r["solutions"].append(r["solutions"][0]),
                  lambda r: r["solutions"].pop()],
    "verify": [lambda r: r.__setitem__("ok", False)],
}


def test_cli_checks_reject_corrupted_outputs(cli_round):
    ops, outs = cli_round
    seen = set()
    for i, (op, out) in enumerate(zip(ops, outs)):
        for edit in CORRUPTIONS.get(op.kind, []):
            bad = _edit(out, edit)
            assert op.check(bad) or workloads.cross_checks(
                ops, outs[:i] + [bad] + outs[i + 1:]), (op.kind, op.ctx)
            seen.add(op.kind)
    assert seen == set(CORRUPTIONS)


@pytest.mark.parametrize("kind,edit", [("decompose", lambda r: r["m"].append(1)),
                                       ("decompose", _flip_first("mp")),
                                       ("count", lambda r: r.__setitem__("count", r["count"] + 1))])
def test_cross_checks_reject_corrupted_outputs(cli_round, kind, edit):
    ops, outs = cli_round
    i = next(i for i, op in enumerate(ops) if op.kind == kind)
    bad = outs[:i] + [_edit(outs[i], edit)] + outs[i + 1:]
    assert workloads.cross_checks(ops, bad)


def test_malformed_request_contract(cli_round):
    ops, outs = cli_round
    malformed = [op for op in ops if op.kind.endswith("-malformed")]
    assert len(malformed) == 4
    op = malformed[0]
    assert op.failed(_proc(returncode=1, stderr=b"Traceback (most recent call last):\n"))
    assert op.failed(_proc(b"{}", returncode=2))
    assert op.failed(_proc(returncode=2, stderr=b"Traceback (most recent call last):\n"))
    assert not op.failed(_proc(returncode=2, stderr=b"error: bad literal 'x'\n"))


@pytest.mark.parametrize("name", ["gf2-stream", "exact-swell", "cli-mixed"])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_end_to_end_at_toy_size(name, trace):
    result = run.run(name, 7, 0.01, trace, workloads.TOY[name])
    assert result["correct"]
    ops_per_round = {"cli-mixed": 16}.get(name)
    if ops_per_round:
        assert result["attempted"] % ops_per_round == 0
        assert result["failed"] * ops_per_round == 4 * result["attempted"]
    else:
        assert result["failed"] == 0
    want = run_metric_names(trace)
    assert set(result["metrics"]) == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def run_metric_names(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def test_runner_refuses_to_run_without_minseq(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gf2-stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == b""

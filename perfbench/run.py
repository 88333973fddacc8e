"""minseq benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a minseq checkout; minseq is imported from src/.
Prints diagnostics on stderr and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Result and
trace files go to perfbench/out/. See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, the script's first line

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("gf2-stream", "exact-swell", "cli-mixed")


def _cpu():
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def measure(ops, seconds, toggle=None):
    """Whole rounds of ops until `seconds` of round time have passed.

    Each round records every operation's wall time, CPU time (waited-for
    children included) and failure. With toggle (the traced run) rounds
    alternate traced, untraced, ... starting traced, so the first round,
    whose outputs the referee checks, is a traced one. Later rounds must
    reproduce the first round's outputs.
    """
    rounds, first, faults = [], None, []
    elapsed = 0.0
    while True:
        traced = toggle is not None and len(rounds) % 2 == 0
        if toggle is not None:
            toggle(traced)
        outs, walls, cpus, failed = [], [], [], []
        w0 = time.perf_counter()
        for op in ops:
            c, t = _cpu(), time.perf_counter()
            try:
                out = op.run()
                bad = op.failed(out)
            except Exception as ex:  # a failed operation, counted and reported
                out, bad = ex, True
            walls.append(time.perf_counter() - t)
            cpus.append(_cpu() - c)
            failed.append(bool(bad))
            outs.append((bad, out))
        wall = time.perf_counter() - w0
        if toggle is not None:
            toggle(False)
        rounds.append({"wall": wall, "walls": walls, "cpus": cpus, "failed": failed,
                       "traced": traced})
        if first is None:
            first = outs
        elif not all(_same(a, b) for a, b in zip(first, outs)):
            faults.append(f"round {len(rounds)} did not reproduce the first round's outputs")
        elapsed += wall
        if elapsed >= seconds and (toggle is None or len(rounds) >= 2):
            return rounds, first, faults


def per_op_best(rounds, key):
    """Each operation's best (lowest) figure over the run's rounds.

    On a shared machine, load from elsewhere only ever slows an operation,
    in bursts that can cover several rounds; the best round is the one it
    disturbed least.
    """
    return [min(col) for col in zip(*(r[key] for r in rounds))]


def _same(a, b):
    (bad_a, out_a), (bad_b, out_b) = a, b
    if bad_a or bad_b:
        return bad_a == bad_b
    if hasattr(out_a, "returncode"):
        return (out_a.returncode, out_a.stdout) == (out_b.returncode, out_b.stdout)
    return out_a == out_b


def check_outputs(workloads, ops, first):
    faults = []
    for op, (bad, out) in zip(ops, first):
        if bad:
            if not op.kind.endswith("-malformed"):
                print(f"perfbench: {op.kind} {op.ctx} failed: {_describe(out)}", file=sys.stderr)
            continue
        faults += [f"{op.kind} {op.ctx}: {f}" for f in op.check(out)]
    faults += workloads.cross_checks(ops, [out for _, out in first])
    return faults


def _describe(out):
    if hasattr(out, "returncode"):
        return f"exit {out.returncode}: {out.stderr.decode(errors='replace').strip()[-300:]}"
    return repr(out)


def end_to_end(ops, rounds, first, setup_s, peak_kb):
    walls, cpus = per_op_best(rounds, "walls"), per_op_best(rounds, "cpus")
    latency = [float("inf") if bad else w for w, (bad, _) in zip(walls, first)]
    bits = max((op.bits(out) for op, (bad, out) in zip(ops, first) if not bad), default=0)
    return {
        "setup_s": (setup_s, "s"),
        "terms_per_s": (sum(op.nterms for op in ops) / sum(walls), "terms/s"),
        "op_p50_ms": (statistics.median(latency) * 1000.0, "ms"),
        "cpu_s": (sum(cpus), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "max_coeff_bits": (bits, "bits"),
    }


def per_layer(tracer, ops, rounds, first, cli_start_ms, is_cli):
    traced = sum(per_op_best([r for r in rounds if r["traced"]], "walls"))
    plain = sum(per_op_best([r for r in rounds if not r["traced"]], "walls"))
    R = sum(r["traced"] for r in rounds)
    tot, cnt = tracer.totals(), tracer.count_totals()

    def span(layer, i):
        return tot.get(layer, [0, 0.0, 0.0])[i]

    out_bits = max((op.bits(out) for op, (bad, out) in zip(ops, first) if not bad), default=0)
    mul_count = cnt.get("solver.mul_count", 0)
    build = span("domains.parse_domain", 1) / (R if is_cli else 1)
    return {
        "domains.table_build_ms": (build * 1000.0, "ms"),
        "domains.ns_per_mul": (span("solver.step", 1) / mul_count * 1e9 if mul_count else 0.0, "ns"),
        "poly.update_calls": (span("poly.update", 0) // R, "count"),
        "poly.update_s": (span("poly.update", 2) / R, "s"),
        "poly.mul_calls": (span("poly.mul", 0) // R, "count"),
        "poly.mul_s": (span("poly.mul", 2) / R, "s"),
        "genfn.discrepancy_s": (span("genfn.discrepancy", 2) / R, "s"),
        "genfn.extend_s": (span("genfn.extend", 2) / R, "s"),
        "genfn.bracket_numerator_s": (span("genfn.bracket_numerator", 2) / R, "s"),
        "solver.steps": (span("solver.step", 0) // R, "count"),
        "solver.jumps": (cnt.get("solver.jumps", 0) // R, "count"),
        "solver.step_self_s": (span("solver.step", 2) / R, "s"),
        "solver.mul_count": (mul_count // R, "count"),
        "solver.max_coeff_bits": (max(cnt.get("solver.max_coeff_bits", 0), out_bits), "bits"),
        "cf.expand_prefix_s": (span("cf.expand_prefix", 1) / R, "s"),
        "decomp.decompose_s": (span("decomp.decompose", 1) / R, "s"),
        "decomp.count_s": (span("decomp.count", 1) / R, "s"),
        "decomp.enumerate_s": (span("decomp.enumerate", 1) / R, "s"),
        "nonvanish.solution_s": (span("nonvanish.solution", 1) / R, "s"),
        "cli.start_ms": (statistics.median(cli_start_ms) if cli_start_ms else 0.0, "ms"),
        "cli.load_seq_s": (span("cli.load_seq", 1) / R, "s"),
        "cli.json_s": (span("cli.json", 1) / R, "s"),
        "cli.verify_self_s": (span("cli.cmd_verify", 2) / R, "s"),
        "trace.overhead_pct": ((traced / plain - 1) * 100.0, "%"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run(workload, seed, seconds, trace, sizes=None):
    """One run; returns the result object, or None when minseq is missing."""
    if not (SRC / "minseq" / "__init__.py").is_file():
        print(f"perfbench: no minseq package under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    sizes = sizes or workloads.FULL[workload]
    tracer = Tracer() if trace else None
    is_cli = workload == "cli-mixed"
    cli_start_ms = []
    if is_cli:
        cli = workloads.Cli(SRC)
        ops = workloads.cli_ops(seed, sizes, cli)
        probe = workloads.setup_request(cli)
        t = time.perf_counter()
        proc = probe.run()
        setup_s = time.perf_counter() - t
        setup_faults = [f"set-up request: {f}" for f in
                        (["failed"] if probe.failed(proc) else probe.check(proc))]

        def toggle(on):
            cli.tracer = tracer if on else None
    else:
        if tracer is not None:
            import minseq  # noqa: F401  (so the wrappers can be installed)
            tracer.install()
        t = time.perf_counter()
        specs = workloads.library_inputs(workload, seed, sizes)
        generated = time.perf_counter() - t
        ops = workloads.library_ops(specs, seed)
        setup_s = time.perf_counter() - T0 - generated
        setup_faults = []
        if tracer is not None:
            tracer.uninstall()

        def toggle(on):
            if on:
                tracer.install()
            else:
                tracer.uninstall()

    rounds, first, faults = measure(ops, seconds, toggle if trace else None)
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    if is_cli and tracer is not None:
        cli_start_ms = cli.start_ms
    faults += setup_faults + check_outputs(workloads, ops, first)
    if trace:
        metrics = per_layer(tracer, ops, rounds, first, cli_start_ms, is_cli)
        steps, terms = metrics["solver.steps"][0], sum(op.nterms for op in ops)
        if not is_cli and steps != terms:
            faults.append(f"solver.steps per round is {steps}, the inputs hold {terms} terms")
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
            {"rounds": rounds, "rows": tracer.rows()}, indent=1, default=str) + "\n")
    else:
        metrics = end_to_end(ops, rounds, first, setup_s, peak_kb)
    for f in faults:
        print(f"perfbench: FAULT {f}", file=sys.stderr)
    return {
        "correct": not faults,
        "attempted": len(ops) * len(rounds),
        "failed": sum(sum(r["failed"]) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for pbcnf: seeded workloads timed end to end and layer by layer.

    python3 perfbench/run.py --workload pedigree-gte --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every metric, every workload
    python3 perfbench/run.py --self-check                  # tiny sizes, injected faults
    python3 perfbench/run.py --record                      # rewrite expected.json

Run from the root of a checkout; pbcnf is imported from its `src/`.  One
process runs one workload: a single caller runs the jobs in sequence and
repeats the whole set (a pass) until `--seconds` have gone by.  A timing is
the sum over operations of each operation's median over the passes.
`pass_ref` divides each pass's times by a fixed pure-Python reference loop
timed just before and after that pass (see README.md for why).  With `--trace 1`, passes alternate between untraced and
traced; the per-layer numbers come from the traced ones and the end-to-end
numbers from the untraced ones.  The last line of standard output is one JSON
object holding the metrics that BENCHMARK.json names for the mode.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
REF_SAMPLES_PER_PASS = 3
MIN_PASSES = 3  # untraced; and as many traced ones when tracing

# name -> (unit, what it is); printed for every workload, "n/a" where the
# workload does not exercise it
END_TO_END = {
    "setup_s": ("s", "import pbcnf, generate inputs, render OPB; median of set-ups in fresh processes"),
    "pass_ref": ("ref", "pass time in units of the reference loop timed just before and after each pass"),
    "pass_s": ("s", "one pass over all jobs: the sum of the journeys below"),
    "encode_s": ("s", "OPB text -> DIMACS text, summed over jobs"),
    "solve_s": ("s", "OPB text -> checked verdict, summed over jobs"),
    "cnf_solve_s": ("s", "DIMACS text -> checked verdict, summed over jobs"),
    "verify_s": ("s", "oracle_check sweep plus gac_check sweep"),
    "check_ms.p50": ("ms", "latency of one oracle_check"),
    "check_ms.p90": ("ms", "latency of one oracle_check"),
    "cnf_vars": ("count", "variables of the generated CNFs, summed over jobs"),
    "cnf_clauses": ("count", "clauses of the generated CNFs, summed over jobs"),
    "cnf_mb": ("MB", "DIMACS text of the generated CNFs, summed over jobs"),
    "peak_rss_mb": ("MB", "ru_maxrss of this process"),
    "fail_rate": ("ratio", "failed operations / attempted operations"),
    "ref_ms": ("ms", "reference_loop, a fixed pure-Python yardstick; median over the run"),
}
PER_LAYER = {
    "opb.parse_ms": ("ms", "parse_opb"),
    "opb.terms": ("count", "terms parsed"),
    "normalize.ms": ("ms", "normalize, probed on every compile's constraints"),
    "normalize.pieces": ("count", "normalized pieces handed to an encoder"),
    "normalize.forced_units": ("count", "literals forced by normalization"),
    "gte.tree_ms": ("ms", "build_tree, probed on every gte-family piece"),
    "gte.root_sums": ("count", "distinct clamped sums at tree roots"),
    "gte.sum_vars": ("count", "sum variables over internal tree nodes"),
    "gte.clamped_share": ("ratio", "combination clauses whose sum clamps to k+1"),
    "pipeline.compile_ms": ("ms", "compile_instance / compile_constraints, all encoders"),
    "pipeline.compile_ms.gte": ("ms", "compile with gte"),
    "pipeline.compile_ms.swc": ("ms", "compile with swc"),
    "pipeline.compile_ms.adder": ("ms", "compile with adder"),
    "pipeline.compile_ms.auto": ("ms", "compile with auto"),
    "pipeline.emit_ms": ("ms", "gte-family compile minus normalize and build_tree probes"),
    "cnf.binary_share": ("ratio", "clauses of two literals, of all clauses"),
    "cnf.ternary_share": ("ratio", "clauses of three literals, of all clauses"),
    "cnf.long_share": ("ratio", "clauses of four or more literals, of all clauses"),
    "dimacs.write_ms": ("ms", "dimacs_str"),
    "dimacs.write_mb_per_s": ("MB/s", "DIMACS text written per second of dimacs_str"),
    "dimacs.parse_ms": ("ms", "parse_dimacs"),
    "engine.load_ms": ("ms", "Solver(formula)"),
    "engine.search_ms": ("ms", "Solver.solve, with or without assumptions"),
    "engine.conflicts": ("count", "learned clauses added by Solver.solve"),
    "engine.us_per_conflict": ("us", "Solver.solve time per learned clause"),
    "engine.learned_lits_mean": ("count", "literals per learned clause"),
    "engine.assume_calls": ("count", "Solver.solve calls with assumptions"),
    "engine.assume_us_mean": ("us", "per Solver.solve call with assumptions"),
    "engine.propagate_calls": ("count", "Solver.assume_propagate calls"),
    "engine.propagate_us_mean": ("us", "per Solver.assume_propagate call"),
    "verify.oracle_ms": ("ms", "oracle_check self time"),
    "verify.gac_ms": ("ms", "gac_check self time"),
    "verify.checks": ("count", "oracle_check and gac_check calls"),
    "bench.gen_ms": ("ms", "pbcnf's input generators during set-up; median of set-ups"),
    "trace.overhead_pct": ("%", "traced against untraced pass time, both in yardstick units"),
}


def _import_pbcnf() -> None:
    """Put the checkout's `src/` first on the path; refuse to run without it,
    so that no installed copy of pbcnf is measured by mistake."""
    if not (SRC / "pbcnf" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pbcnf'} not found; run from the root of a pbcnf checkout")
    sys.path.insert(0, str(SRC))
    import pbcnf

    if Path(pbcnf.__file__).resolve().parent != SRC / "pbcnf":
        sys.exit(f"error: imported pbcnf from {pbcnf.__file__}, not from {SRC}")


def _commit() -> str:
    """The checkout's commit, read from .git without running git; "none"
    when the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


# -- set-up ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """Body of a set-up sample, run in a fresh process: everything from the
    first import of pbcnf to rendered OPB text."""
    t0 = time.perf_counter()
    _import_pbcnf()
    import workloads

    inputs = workloads.make_inputs(workload, seed, tiny)
    print(json.dumps({"setup_s": time.perf_counter() - t0, "gen_s": inputs.gen_s}))


def measure_setup(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Median set-up seconds and median generator seconds over SETUP_SAMPLES
    fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up sample failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return median(s["setup_s"] for s in samples), median(s["gen_s"] for s in samples)


# -- one workload ------------------------------------------------------------------


def layer_metrics(tracer, res, workloads) -> dict[str, float | None]:
    """Per-layer numbers of one traced pass; None where the layer was not used."""
    st = tracer.self_times()
    pr = workloads.probe(tracer)
    by_enc: dict[str, float] = {}
    for key, constraints, encoding, seconds, formula in tracer.compiles:
        by_enc[encoding] = by_enc.get(encoding, 0.0) + seconds
    clauses = pr["unit"] + pr["binary"] + pr["ternary"] + pr["long"]
    learned = sum(n for _, n, _ in tracer.solves)
    learned_lits = sum(k for _, _, k in tracer.solves)
    search_s = st.get("engine.search", 0.0) + st.get("engine.assume", 0.0)
    assume_n = tracer.count("engine.assume")
    prop_n = tracer.count("engine.propagate")
    write_s = st.get("dimacs.write", 0.0)
    checks = tracer.count("verify.oracle_check") + tracer.count("verify.gac_check")

    def ms(name):
        return st[name] * 1e3 if name in st else None

    def ratio(num, den):
        return num / den if den else None

    out = {
        "opb.parse_ms": ms("opb.parse"),
        "opb.terms": res.opb_terms if "opb.parse" in st else None,
        "normalize.ms": pr["norm_s"] * 1e3,
        "normalize.pieces": pr["pieces"],
        "normalize.forced_units": pr["forced"],
        "gte.tree_ms": pr["tree_s"] * 1e3 if pr["combos"] else None,
        "gte.root_sums": pr["root_sums"] if pr["combos"] else None,
        "gte.sum_vars": pr["sum_vars"] if pr["combos"] else None,
        "gte.clamped_share": ratio(pr["clamped"], pr["combos"]),
        "pipeline.compile_ms": sum(by_enc.values()) * 1e3,
        "pipeline.emit_ms": pr["emit_s"] * 1e3 if pr["combos"] else None,
        "cnf.binary_share": ratio(pr["binary"], clauses),
        "cnf.ternary_share": ratio(pr["ternary"], clauses),
        "cnf.long_share": ratio(pr["long"], clauses),
        "dimacs.write_ms": ms("dimacs.write"),
        "dimacs.write_mb_per_s": ratio(res.dimacs_bytes / 1e6, write_s),
        "dimacs.parse_ms": ms("dimacs.parse"),
        "engine.load_ms": ms("engine.load"),
        "engine.search_ms": search_s * 1e3,
        "engine.conflicts": learned,
        "engine.us_per_conflict": ratio(search_s * 1e6, learned),
        "engine.learned_lits_mean": ratio(learned_lits, learned),
        "engine.assume_calls": assume_n if assume_n else None,
        "engine.assume_us_mean": ratio(st.get("engine.assume", 0.0) * 1e6, assume_n),
        "engine.propagate_calls": prop_n if prop_n else None,
        "engine.propagate_us_mean": ratio(st.get("engine.propagate", 0.0) * 1e6, prop_n),
        "verify.oracle_ms": ms("verify.oracle_check"),
        "verify.gac_ms": ms("verify.gac_check"),
        "verify.checks": checks if checks else None,
    }
    for enc in ("gte", "swc", "adder", "auto"):
        out[f"pipeline.compile_ms.{enc}"] = by_enc[enc] * 1e3 if enc in by_enc else None
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, faults=frozenset()) -> dict:
    """Run one workload, print its report and result line, return the result."""
    setup_s, gen_s = measure_setup(workload, seed, tiny)
    _import_pbcnf()
    import tracing
    import workloads

    inputs = workloads.make_inputs(workload, seed, tiny)
    expected = json.loads((HERE / "expected.json").read_text())["tiny" if tiny else "full"]
    runner = workloads.Runner(inputs, expected.get(workload, {}), faults)

    untraced, traced, layers, tracers, check_ms = [], [], [], [], []
    untraced_at, traced_at = [], []  # index of each pass of the kind among all passes
    ref = []  # yardstick samples taken before pass i, and after the last one
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        ref.append(time_reference())
        started = time.perf_counter()
        if trace and n % 2 == 1:
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                res = runner.run_pass(tracer)
            layers.append(layer_metrics(tracer, res, workloads))
            traced.append(res)
            traced_at.append(n)
            tracers.append((n, tracer))
        else:
            res = runner.run_pass()
            untraced.append(res)
            untraced_at.append(n)
            check_ms.extend(runner.check_ms)
        runner.check_ms.clear()
        n += 1
        enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        now = time.perf_counter()
        if enough and now + (now - started) / 2 >= deadline:  # end as near the deadline as passes allow
            break

    ref.append(time_reference())
    # each pass against the yardstick samples that bracket it
    around = [median(ref[i] + ref[i + 1]) for i in range(n)]
    e2e = end_to_end(untraced, [around[i] for i in untraced_at], check_ms, runner, setup_s)
    e2e["ref_ms"] = median(t for samples in ref for t in samples) * 1e3
    per_layer = None
    if trace:
        per_layer = {k: _median_or_none([layer[k] for layer in layers]) for k in layers[0]}
        per_layer["bench.gen_ms"] = gen_s * 1e3
        traced_ref = op_medians(traced, scale=[around[i] for i in traced_at])
        per_layer["trace.overhead_pct"] = (traced_ref / e2e["pass_ref"] - 1.0) * 100.0
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(OUT / f"spans-{workload}-seed{seed}.tsv", tracers)

    sizes = " ".join(f"{k}={v}" for k, v in inputs.sizes.items())
    print(f"# pbcnf benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"commit={_commit()} base inputs: {sizes}; relabeling seed {seed}")
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"operations attempted {runner.attempted}, failed {runner.failed}")
    _print_metrics(workload, END_TO_END, e2e, notes={
        "setup_s": f"median of {SETUP_SAMPLES} set-ups",
        "pass_s": f"{len(untraced)} passes",
        "ref_ms": f"{sum(map(len, ref))} samples",
        "check_ms.p50": f"{len(check_ms)} samples",
        "check_ms.p90": f"{len(check_ms)} samples",
        "fail_rate": f"{runner.failed} of {runner.attempted} operations",
    })
    if per_layer is not None:
        _print_metrics(workload, PER_LAYER, per_layer, notes={
            "trace.overhead_pct": f"{len(traced)} traced, {len(untraced)} untraced passes",
        })
    for err in runner.errors:
        print(f"FAILED {workload}: {err}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer if trace else e2e
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return result


def op_medians(passes, journeys=None, scale=None) -> float | None:
    """Each operation's median time over the passes, summed over the
    operations of the given journeys (all when None).  With `scale`, each
    pass's times are first divided by that pass's entry."""
    scale = scale or [1.0] * len(passes)
    keys = {k for r in passes for k in r.seconds if journeys is None or k[0] in journeys}
    if not keys:
        return None
    return sum(median(r.seconds[k] / f for r, f in zip(passes, scale) if k in r.seconds) for k in keys)


def reference_loop() -> int:
    """Fixed pure-Python work that does not touch pbcnf: the yardstick that
    `pass_ref` divides by.  Like pbcnf's encoders, loader and DIMACS writer,
    it allocates many short integer lists, files them into watch lists and
    renders them as text.  A yardstick this size tracked the machine's slow
    phases on the pedigree work about twice as well as a small
    cache-resident loop."""
    clauses = [[2 * i + 2, (3 * i) ^ 5, i & 4095] for i in range(60000)]
    watches: list[list[int]] = [[] for _ in range(4096)]
    for idx, cl in enumerate(clauses):
        watches[cl[2]].append(idx)
    text = "".join(" ".join(str(l) for l in cl) + " 0\n" for cl in clauses)
    return len(text) + sum(len(w) for w in watches)


def time_reference() -> list[float]:
    samples = []
    for _ in range(REF_SAMPLES_PER_PASS):
        gc.collect()
        t0 = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end(untraced, untraced_ref, check_ms, runner, setup_s) -> dict[str, float | None]:
    encode, cnf_solve = op_medians(untraced, {"encode"}), op_medians(untraced, {"cnf_solve"})
    solve = op_medians(untraced, {"solve"})
    if solve is None and cnf_solve is not None:
        solve = op_medians(untraced, {"encode", "cnf_solve"})  # OPB -> verdict through DIMACS
    cnf_vars, cnf_clauses, cnf_bytes = runner.cnf or (0, 0, 0)
    pass_s = op_medians(untraced)
    return {
        "setup_s": setup_s,
        "pass_ref": op_medians(untraced, scale=untraced_ref),
        "pass_s": pass_s,
        "encode_s": encode,
        "solve_s": solve,
        "cnf_solve_s": cnf_solve,
        "verify_s": op_medians(untraced, {"verify"}),
        "check_ms.p50": _percentile(check_ms, 0.5),
        "check_ms.p90": _percentile(check_ms, 0.9),
        "cnf_vars": cnf_vars,
        "cnf_clauses": cnf_clauses,
        "cnf_mb": cnf_bytes / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_rate": runner.failed / runner.attempted if runner.attempted else None,
    }


def _percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    if not values:
        return None
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _median_or_none(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    if all(isinstance(v, int) for v in vals):
        return median_low(vals)  # counts repeat exactly; keep them whole
    return median(vals)


def _print_metrics(workload, table, values, notes) -> None:
    for name, (unit, what) in table.items():
        v = values.get(name)
        shown = "n/a" if v is None else (f"{v}" if isinstance(v, int) else f"{v:.6g}")
        note = "not on this workload's path" if v is None else notes.get(name, what)
        print(f"{workload:<13} {name:<26} {shown:>12} {unit:<6} {note}")


# -- whole suite, self-check, record ------------------------------------------------


def self_check() -> int:
    """Every workload at tiny size, traced and untraced, must pass its checks
    and print every metric name; each injected fault must raise fail_rate."""
    from workloads import WORKLOADS

    problems = []

    def quiet(*args, **kw):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = run_workload(*args, **kw)
        return result, out.getvalue()

    for w in WORKLOADS:
        for trace in (False, True):
            result, text = quiet(w, 5, 0.0, trace, tiny=True)
            names = list(END_TO_END) + (list(PER_LAYER) if trace else [])
            missing = [n for n in names if f" {n} " not in text]
            if missing:
                problems.append(f"{w} trace={int(trace)}: not printed: {missing}")
            if not result["correct"]:
                problems.append(f"{w} trace={int(trace)}: {result['failed']} operations failed")
    for fault in ("model", "verdict", "hash"):
        result, _ = quiet("pedigree-gte", 5, 0.0, False, tiny=True, faults={fault})
        if result["failed"] == 0:
            problems.append(f"injected fault {fault!r} left fail_rate at 0")
        else:
            print(f"fault {fault}: {result['failed']} of {result['attempted']} operations failed, as it should")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--record", action="store_true")
    p.add_argument("--tiny", action="store_true", help="self-check sizes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.tiny)
        return 0
    _import_pbcnf()
    from workloads import WORKLOADS

    if args.self_check:
        return self_check()
    if args.record:
        from record import record

        return record(HERE / "expected.json")
    if args.workload == "all":  # each workload in its own process, one after another
        status = 0
        for w in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=ROOT).returncode)
        return status
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Recording of the answers the benchmark checks against (expected.json).

For every base instance of the instance workloads, at full and at self-check
size: the verdict, and the sha256 of the DIMACS text of each explicit encoder
the workload runs.  Hashes are taken on the base labels (relabeling seed 0);
runs with other seeds map their formulas back to base labels before comparing.

A SAT verdict is recorded only with a model that satisfies the original
constraints.  An UNSAT verdict is recorded only when gte, swc and adder all
report UNSAT.  Searches here run without a conflict cap.
"""

from __future__ import annotations

import json

from pbcnf import SAT, UNSAT, Solver, compile_instance, dimacs_str, parse_opb

from workloads import EXPLICIT, SPECS, make_inputs, model_problem, sha256


def _verdict(job, encoders) -> str:
    inst = parse_opb(job.opb)
    unsat = []
    for enc in encoders + tuple(e for e in EXPLICIT if e not in encoders):
        result = Solver(compile_instance(inst, enc).formula).solve()
        if result.status == SAT:
            problem = model_problem(job.instance, result.model)
            if problem or unsat:
                raise RuntimeError(f"{job.label}/{enc}: {problem or f'SAT, but UNSAT with {unsat}'}")
            return SAT
        unsat.append(enc)
    if not set(EXPLICIT) <= set(unsat):
        raise RuntimeError(f"{job.label}: UNSAT only with {unsat}")
    return UNSAT


def record(path) -> int:
    out = {}
    for scale in ("full", "tiny"):
        out[scale] = {}
        for name, spec in SPECS.items():
            if "verify" in spec.journeys:
                continue  # oracle_check and gac_check judge themselves
            inputs = make_inputs(name, 0, tiny=scale == "tiny")
            jobs = {}
            for job in inputs.jobs:
                if job.label in jobs:
                    continue
                inst = parse_opb(job.opb)
                jobs[job.label] = {
                    "verdict": _verdict(job, spec.encoders),
                    "sha256": {
                        enc: sha256(dimacs_str(compile_instance(inst, enc).formula))
                        for enc in spec.encoders if enc in EXPLICIT
                    },
                }
                print(f"{scale} {name} {job.label}: {jobs[job.label]['verdict']}", flush=True)
            out[scale][name] = jobs
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0

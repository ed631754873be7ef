"""Command-line front end.

Subcommands: encode, solve, verify, gac-check, stats, gen-bench.
`--encoding auto` (the default) is the generalized totalizer for every
constraint.
Exit codes: 0 success; 10 satisfiable; 20 unsatisfiable; 1 usage error;
2 I/O or parse error, or an external solver that cannot be run or answers
in an unrecognized form; 3 verification failure.  Set PBCNF_SOLVER to hand
solving to an external binary (a command line split with shell-style quoting,
invoked with a DIMACS path appended; must print SAT/UNSAT and a model line of
signed integers).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench
from .core import to_signed
from .dimacs import dimacs_str
from .engine import SAT, TIMEOUT, UNSAT, Solver, solve_external
from .opb import OpbError, parse_opb, write_opb
from .pipeline import ENCODING_NAMES, compile_instance, is_cardinality
from .verify import gac_check, oracle_check, random_normalized_constraint
from .rng import SplitMix64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3
EXIT_SAT = 10
EXIT_UNSAT = 20

SOLVER_ENV = "PBCNF_SOLVER"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.message = message


def _read_instance(path: str):
    try:
        if path == "-":
            return parse_opb(sys.stdin.read())
        with open(path, "rb") as f:
            return parse_opb(f)
    except OSError as e:
        raise _IoFailure(f"cannot read {path}: {e.strerror or e}") from e
    except OpbError as e:
        raise _IoFailure(f"{path}: {e}") from e


class _IoFailure(Exception):
    pass


def _encoders_arg(text: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    for name in names:
        if name not in ENCODING_NAMES:
            raise SystemExit2(f"unknown encoder {name!r}; choose from {', '.join(ENCODING_NAMES)}")
    if not names:
        raise SystemExit2("no encoders given")
    return names


def _at_least(lo: int):
    """argparse type for an integer of at least `lo`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, not {value}")
        return value

    return parse


def _cmd_encode(args) -> int:
    instance = _read_instance(args.input)
    compiled = compile_instance(instance, args.encoding)
    text = dimacs_str(compiled.formula)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w") as f:
                f.write(text)
        except OSError as e:
            raise _IoFailure(f"cannot write {args.output}: {e.strerror or e}") from e
    print(
        f"aux_vars={compiled.aux_vars} aux_clauses={compiled.aux_clauses} "
        f"encode_ms={compiled.encode_time * 1000.0:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = _read_instance(args.input)
    compiled = compile_instance(instance, args.encoding)
    external = os.environ.get(SOLVER_ENV)
    if external:
        try:
            result = solve_external(compiled.formula, external, timeout=args.time_limit)
        except OSError as e:
            raise _IoFailure(f"cannot run {SOLVER_ENV} command {external!r}: {e.strerror or e}") from e
        except (RuntimeError, ValueError) as e:
            raise _IoFailure(f"{SOLVER_ENV} command {external!r}: {e}") from e
    else:
        result = Solver(compiled.formula).solve(max_conflicts=args.max_conflicts)
    if result.status == SAT:
        print(SAT)
        model = (result.model or [])[: instance.declared_vars]
        print(" ".join(str(n) for n in model))
        return EXIT_SAT
    if result.status == UNSAT:
        print(UNSAT)
        return EXIT_UNSAT
    print(TIMEOUT)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rng = SplitMix64(args.seed)
    failures = 0
    for enc in args.encoders:
        ok = 0
        checked = 0
        for _ in range(args.trials):
            c = random_normalized_constraint(rng, args.max_n, args.max_weight, args.max_bound)
            if enc == "totalizer" and not is_cardinality(c):
                continue
            checked += 1
            outcome = oracle_check(c, enc)
            if outcome:
                ok += 1
            else:
                failures += 1
                print(
                    f"FAIL {enc}: {outcome.constraint} under {outcome.assignment}: "
                    f"constraint={outcome.constraint_holds} cnf={outcome.cnf_satisfiable}"
                )
        print(f"encoder {enc}: {ok}/{checked} equisatisfiable")
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_gac_check(args) -> int:
    rng = SplitMix64(args.seed)
    failures = 0
    for enc in args.encoders:
        bad = 0
        total = 0
        for _ in range(args.constraints):
            c = random_normalized_constraint(rng, args.max_n, args.max_weight, args.max_bound)
            if enc == "totalizer" and not is_cardinality(c):
                continue
            for report in gac_check(c, enc, trials=args.samples, seed=args.seed):
                total += 1
                if not report.passed:
                    bad += 1
                    if bad <= 5:
                        missing = sorted(to_signed(l) for l in report.missing)
                        print(
                            f"FAIL {enc}: {report.constraint} partial="
                            f"{[to_signed(l) for l in report.partial]} not propagated: {missing}"
                        )
        print(f"encoder {enc}: {total - bad}/{total} partial assignments fully propagated")
        failures += bad
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_stats(args) -> int:
    jobs: list[tuple[str, object]] = []
    for path in args.inputs:
        stem = os.path.splitext(os.path.basename(path))[0]
        jobs.append((stem, _read_instance(path)))
    if args.generate:
        rng = SplitMix64(args.seed)
        for i in range(args.count):
            spec = _make_spec(args.generate, args, rng.randint(0, 2**32))
            jobs.append((f"{args.generate}-{i}", bench.gen_bench(spec)))
    if not jobs:
        raise SystemExit2("no instances: pass OPB files or --generate")
    rows = []
    for label, instance in jobs:
        rows.extend(bench.stats_compare(instance, args.encoders, label, args.max_conflicts))
    sys.stdout.write(bench.stats_csv(rows))
    return EXIT_OK


def _make_spec(family: str, args, seed: int) -> bench.BenchSpec:
    if family == "pedigreelike":
        return bench.pedigreelike(n=args.n, max_weight=args.max_weight, k=args.k, seed=seed)
    return bench.pb12like(
        constraints=args.constraints, n=args.n, max_weight=args.max_weight,
        distinct_weights=args.distinct_weights, seed=seed,
    )


def _cmd_gen_bench(args) -> int:
    spec = _make_spec(args.family, args, args.seed)
    instance = bench.gen_bench(spec)
    notes = [
        f"family= {spec.family} seed= {spec.seed} prng= splitmix64",
        f"n= {spec.n} constraints= {spec.constraints} max_weight= {spec.max_weight}",
    ]
    sys.stdout.write(write_opb(instance, comments=notes))
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="pbcnf", description="pseudo-Boolean to CNF compiler and verifier")
    sub = p.add_subparsers(dest="command", required=True)

    def add_encoding(sp):
        sp.add_argument("--encoding", choices=ENCODING_NAMES, default="auto")

    sp = sub.add_parser("encode", help="compile an OPB file to DIMACS CNF")
    sp.add_argument("input")
    sp.add_argument("output", nargs="?", default="-")
    add_encoding(sp)
    sp.set_defaults(func=_cmd_encode)

    sp = sub.add_parser("solve", help="compile and decide an OPB instance")
    sp.add_argument("input")
    add_encoding(sp)
    sp.add_argument("--max-conflicts", type=_at_least(0), default=None)
    sp.add_argument("--time-limit", type=float, default=None, help="external solver only")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", help="equisatisfiability spot checks on random constraints")
    sp.add_argument("--encoders", type=_encoders_arg, default=["gte", "swc", "adder"])
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--max-n", type=_at_least(1), default=8)
    sp.add_argument("--max-weight", type=_at_least(1), default=10)
    sp.add_argument("--max-bound", type=int, default=30)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("gac-check", help="propagation-completeness checks")
    sp.add_argument("--encoders", type=_encoders_arg, default=["gte", "swc"])
    sp.add_argument("--constraints", type=int, default=20)
    sp.add_argument("--samples", type=int, default=100, help="partial assignments per constraint")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--max-n", type=_at_least(1), default=6)
    sp.add_argument("--max-weight", type=_at_least(1), default=8)
    sp.add_argument("--max-bound", type=int, default=20)
    sp.set_defaults(func=_cmd_gac_check)

    sp = sub.add_parser("stats", help="per-encoder size and solve statistics as CSV")
    sp.add_argument("inputs", nargs="*", help="OPB files")
    sp.add_argument("--encoders", type=_encoders_arg, default=["gte", "swc", "adder"])
    sp.add_argument("--generate", choices=bench.FAMILIES, default=None)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--n", type=_at_least(1), default=24)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--constraints", type=int, default=6)
    sp.add_argument("--max-weight", type=_at_least(1), default=12)
    sp.add_argument("--distinct-weights", type=int, default=6)
    sp.add_argument("--max-conflicts", type=_at_least(0), default=None)
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("gen-bench", help="emit a seeded benchmark instance as OPB")
    sp.add_argument("--family", choices=bench.FAMILIES, required=True)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--n", type=_at_least(1), default=50)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--constraints", type=int, default=10)
    sp.add_argument("--max-weight", type=_at_least(1), default=456)
    sp.add_argument("--distinct-weights", type=int, default=7)
    sp.set_defaults(func=_cmd_gen_bench)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit2 as e:
        print(f"error: {e.message}", file=sys.stderr)
        return EXIT_USAGE
    except _IoFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def console() -> None:
    raise SystemExit(main())

"""Command-line front end.

Subcommands: encode, solve, verify, gac-check, stats, gen-bench.
`--encoding auto` (the default) is the generalized totalizer pruned as
gte.py describes; `--encoding gte` is the paper's encoding, and
`--encoding totalizer` is a second name for it.
`solve` and `stats` check every SAT model against the input's constraints
before printing anything about it.
Exit codes: 0 success; 10 satisfiable; 20 unsatisfiable; 1 usage error;
2 I/O or parse error, an external solver that cannot be run or answers
in an unrecognized form, or a reader that closes stdout early;
3 verification failure, or a SAT model that breaks one of the input's
constraints; 4 out of memory (an input that needs more than the process
may allocate).  Set PBCNF_SOLVER to hand solving to an external binary (a
command line split with shell-style quoting, invoked with a DIMACS path
appended) that prints SAT or UNSAT and the model's signed literals, or
the SAT competition's `s` line and `v` model lines.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import bench
from .core import to_signed
from .dimacs import write_dimacs
from .engine import SAT, TIMEOUT, UNSAT, Solver, solve_external
from .opb import OpbError, PbInstance, parse_opb, write_opb
from .pipeline import ENCODING_NAMES, compile_instance
from .verify import ORACLE_MAX_VARS, first_violated, gac_check, oracle_check, random_normalized_constraint
from .rng import SplitMix64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3
EXIT_MEMORY = 4
EXIT_SAT = 10
EXIT_UNSAT = 20

SOLVER_ENV = "PBCNF_SOLVER"


class _Failure(Exception):
    """Ends a command: `main` prints `error: <message>` and returns `code`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Failure(EXIT_USAGE, message)


def _read_instance(path: str):
    try:
        if path == "-":
            return parse_opb(sys.stdin.buffer)  # bytes, decoded as a file's are
        with open(path, "rb") as f:
            return parse_opb(f)
    except OSError as e:
        raise _Failure(EXIT_IO, f"cannot read {path}: {e.strerror or e}") from e
    except OpbError as e:
        raise _Failure(EXIT_IO, f"{path}: {e}") from e


def _encoders_arg(text: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    for name in names:
        if name not in ENCODING_NAMES:
            raise _Failure(EXIT_USAGE, f"unknown encoder {name!r}; choose from {', '.join(ENCODING_NAMES)}")
    if not names:
        raise _Failure(EXIT_USAGE, "no encoders given")
    return names


def _at_least(lo: int, at_most: int | None = None):
    """argparse type for an integer of at least `lo` (and at most `at_most`)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, not {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, not {value}")
        return value

    return parse


# SplitMix64 keeps only the low 64 bits of a seed: two seeds it cannot tell
# apart would write the same instance under different `seed=` comments
_seed = _at_least(0, at_most=2**64 - 1)

MAX_TIME_LIMIT = 1_000_000  # seconds; far larger waits overflow subprocess's poll


def _seconds(text: str) -> float:
    """argparse type for a number of seconds above 0, at most MAX_TIME_LIMIT."""
    try:
        if 0 < float(text) <= MAX_TIME_LIMIT:  # nan fails every comparison
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a number of seconds above 0 and at most {MAX_TIME_LIMIT}, not {text}"
    )


def _compile(args):
    instance = _read_instance(args.input)
    return instance, compile_instance(instance, args.encoding)


def _cmd_encode(args) -> int:
    _, compiled = _compile(args)
    if args.output == "-":
        write_dimacs(compiled.formula, sys.stdout)
    else:
        try:
            with open(args.output, "w") as f:
                write_dimacs(compiled.formula, f)
        except OSError as e:
            raise _Failure(EXIT_IO, f"cannot write {args.output}: {e.strerror or e}") from e
    print(
        f"aux_vars={compiled.aux_vars} aux_clauses={compiled.aux_clauses} "
        f"encode_ms={compiled.encode_time * 1000.0:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance, compiled = _compile(args)
    external = os.environ.get(SOLVER_ENV)
    if external:
        try:
            result = solve_external(compiled.formula, external, timeout=args.time_limit)
        except OSError as e:
            raise _Failure(EXIT_IO, f"cannot run {SOLVER_ENV} command {external!r}: {e.strerror or e}") from e
        except (RuntimeError, ValueError) as e:
            raise _Failure(EXIT_IO, f"{SOLVER_ENV} command {external!r}: {e}") from e
    else:
        result = Solver(compiled.formula).solve(max_conflicts=args.max_conflicts)
    if result.status == SAT:
        model = (result.model or [])[: instance.declared_vars]
        bad = first_violated(instance.constraints, model)
        if bad is not None:
            raise _Failure(EXIT_VERIFY, f"the model violates constraint {bad} ({instance.constraints[bad - 1]})")
        print(SAT)
        print(" ".join(str(n) for n in model))
        return EXIT_SAT
    if result.status == UNSAT:
        print(UNSAT)
        return EXIT_UNSAT
    print(TIMEOUT)
    return EXIT_OK


def _sweep(args, count: int, check):
    """Per encoder of `args.encoders`, in order: the encoder and what
    `check(constraint, encoder)` returns on each of the next `count`
    constraints of one seeded stream."""
    rng = SplitMix64(args.seed)
    for enc in args.encoders:
        yield enc, [
            check(random_normalized_constraint(rng, args.max_n, args.max_weight, args.max_bound), enc)
            for _ in range(count)
        ]


def _cmd_verify(args) -> int:
    failures = 0
    for enc, outcomes in _sweep(args, args.trials, oracle_check):
        bad = [o for o in outcomes if not o]
        for o in bad:
            print(f"FAIL {enc}: {o.constraint} under {o.assignment}: "
                  f"constraint={o.constraint_holds} cnf={o.cnf_satisfiable}")
        print(f"encoder {enc}: {len(outcomes) - len(bad)}/{len(outcomes)} equisatisfiable")
        failures += len(bad)
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_gac_check(args) -> int:
    failures = 0
    check = partial(gac_check, trials=args.samples, seed=args.seed)
    for enc, runs in _sweep(args, args.constraints, check):
        cases = [r for run in runs for r in run]
        bad = [r for r in cases if not r.passed]
        for r in bad[:5]:
            why = "propagation conflict" if r.conflicted else f"not propagated: {sorted(map(to_signed, r.missing))}"
            print(f"FAIL {enc}: {r.constraint} partial={[to_signed(l) for l in r.partial]} {why}")
        print(f"encoder {enc}: {len(cases) - len(bad)}/{len(cases)} partial assignments fully propagated")
        failures += len(bad)
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_stats(args) -> int:
    jobs: list[tuple[str, object]] = []
    for path in args.inputs:
        stem = os.path.splitext(os.path.basename(path))[0]
        jobs.append((stem, _read_instance(path)))
    if args.generate:
        rng = SplitMix64(args.seed)
        for i in range(args.count):
            _, instance = _generate(args.generate, args, rng.randint(0, 2**32))
            jobs.append((f"{args.generate}-{i}", instance))
    if not jobs:
        raise _Failure(EXIT_USAGE, "no instances: pass OPB files or --generate")
    rows = []
    for label, instance in jobs:
        try:
            rows.extend(bench.stats_compare(instance, args.encoders, label, args.max_conflicts))
        except RuntimeError as e:  # a SAT model that breaks a constraint
            raise _Failure(EXIT_VERIFY, str(e)) from e
    sys.stdout.write(bench.stats_csv(rows))
    return EXIT_OK


def _generate(family: str, args, seed: int) -> tuple[bench.BenchSpec, PbInstance]:
    """The family's spec from the arguments, and the instance it generates."""
    if family == "pedigreelike":
        spec = bench.pedigreelike(n=args.n, max_weight=args.max_weight, k=args.k, seed=seed)
    else:
        spec = bench.pb12like(
            constraints=args.constraints, n=args.n, max_weight=args.max_weight,
            distinct_weights=args.distinct_weights, seed=seed,
        )
    try:
        return spec, bench.gen_bench(spec)
    except ValueError as e:  # a pedigreelike max_weight below 2
        raise _Failure(EXIT_USAGE, str(e)) from e


def _cmd_gen_bench(args) -> int:
    spec, instance = _generate(args.family, args, args.seed)
    notes = [
        f"family= {spec.family} seed= {spec.seed} prng= splitmix64",
        f"n= {spec.n} constraints= {spec.constraints} max_weight= {spec.max_weight}"
        f" distinct_weights= {spec.distinct_weights} k= {spec.k}",
    ]
    sys.stdout.write(write_opb(instance, comments=notes))
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="pbcnf", description="pseudo-Boolean to CNF compiler and verifier")
    sub = p.add_subparsers(dest="command", required=True)

    def add_encoding(sp):
        sp.add_argument("--encoding", choices=ENCODING_NAMES, default="auto")

    def add_generator(sp, n, constraints, max_weight, distinct_weights):
        sp.add_argument("--seed", type=_seed, default=1)
        sp.add_argument("--n", type=_at_least(1), default=n)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--constraints", type=_at_least(1), default=constraints)
        sp.add_argument("--max-weight", type=_at_least(1), default=max_weight)
        sp.add_argument("--distinct-weights", type=_at_least(2), default=distinct_weights)

    sp = sub.add_parser("encode", help="compile an OPB file to DIMACS CNF")
    sp.add_argument("input")
    sp.add_argument("output", nargs="?", default="-")
    add_encoding(sp)
    sp.set_defaults(func=_cmd_encode)

    sp = sub.add_parser("solve", help="compile and decide an OPB instance")
    sp.add_argument("input")
    add_encoding(sp)
    sp.add_argument("--max-conflicts", type=_at_least(0), default=None)
    sp.add_argument("--time-limit", type=_seconds, default=None, help="external solver only")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", help="equisatisfiability spot checks on random constraints")
    sp.add_argument("--encoders", type=_encoders_arg, default=["gte", "swc", "adder"])
    sp.add_argument("--trials", type=_at_least(1), default=100)
    sp.add_argument("--seed", type=_seed, default=1)
    sp.add_argument(
        "--max-n", type=_at_least(1, at_most=ORACLE_MAX_VARS), default=8,
        help=f"variables per constraint, at most {ORACLE_MAX_VARS}: all 2^n assignments are enumerated",
    )
    sp.add_argument("--max-weight", type=_at_least(1), default=10)
    sp.add_argument("--max-bound", type=int, default=30)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("gac-check", help="propagation-completeness checks")
    sp.add_argument("--encoders", type=_encoders_arg, default=["gte", "swc"])
    sp.add_argument("--constraints", type=_at_least(1), default=20)
    sp.add_argument("--samples", type=_at_least(1), default=100, help="partial assignments per constraint")
    sp.add_argument("--seed", type=_seed, default=1)
    sp.add_argument("--max-n", type=_at_least(1), default=6)
    sp.add_argument("--max-weight", type=_at_least(1), default=8)
    sp.add_argument("--max-bound", type=int, default=20)
    sp.set_defaults(func=_cmd_gac_check)

    sp = sub.add_parser("stats", help="per-encoder size and solve statistics as CSV")
    sp.add_argument("inputs", nargs="*", help="OPB files")
    sp.add_argument("--encoders", type=_encoders_arg, default=["gte", "swc", "adder"])
    sp.add_argument("--generate", choices=bench.FAMILIES, default=None)
    sp.add_argument("--count", type=_at_least(1), default=1)
    add_generator(sp, n=24, constraints=6, max_weight=12, distinct_weights=6)
    sp.add_argument("--max-conflicts", type=_at_least(0), default=None)
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("gen-bench", help="emit a seeded benchmark instance as OPB")
    sp.add_argument("--family", choices=bench.FAMILIES, required=True)
    add_generator(sp, n=50, constraints=10, max_weight=456, distinct_weights=7)
    sp.set_defaults(func=_cmd_gen_bench)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Failure as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except MemoryError:
        print("error: out of memory: the input needs more than this process may allocate", file=sys.stderr)
        return EXIT_MEMORY


def console() -> None:
    import warnings

    # `warning: ...` lines, like `error: ...`; callers of `main` keep Python's format
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit does not fail once more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before all output was written", file=sys.stderr)
        code = EXIT_IO
    raise SystemExit(code)

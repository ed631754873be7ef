"""Workloads of the pbcnf benchmark: seeded inputs, timed journeys and the
answer checks.

Each workload starts from fixed base inputs, the instances named in
README.md.  The run's seed picks a random relabeling of their variables (see
`Relabel`).  A relabeling keeps satisfiability and the shape of every
encoding, so the verdicts and DIMACS hashes recorded in expected.json hold
for every seed, while the program sees new OPB and DIMACS text.  Seed 0 is
the identity: the base instances exactly as named.

Fresh random instances were tried instead: CDCL search cost on pb12like
instances is heavy-tailed (one of the ten criterion-8 instances needs 14 k
conflicts where most need under 200), so a run's total swung by a factor of
two from seed to seed and no bound could hold it.
"""

from __future__ import annotations

import gc
import hashlib
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from pbcnf import (
    SAT,
    TIMEOUT,
    UNSAT,
    CnfFormula,
    OutcomeKind,
    PBConstraint,
    SplitMix64,
    Solver,
    Term,
    build_tree,
    compile_constraints,
    compile_instance,
    dimacs_str,
    gac_check,
    gen_bench,
    normalize,
    oracle_check,
    parse_dimacs,
    parse_opb,
    pb12like,
    pedigreelike,
    random_normalized_constraint,
    write_opb,
)
from pbcnf.opb import PbInstance

EXPLICIT = ("gte", "swc", "adder")
GTE_FAMILY = ("gte", "totalizer", "auto")  # encoders whose pieces are build_tree trees


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.  `tiny` sizes serve the self-check."""

    encoders: tuple[str, ...]
    journeys: tuple[str, ...]
    full: dict
    tiny: dict
    max_conflicts: int | None = None
    keep_order: bool = False  # relabel keeping variable order and polarity (see Relabel)


SPECS = {
    # The paper's headline case: one long constraint with weights 1 and 456,
    # bound at half the weighted sum.  Tree build, emission, DIMACS writing
    # and solver loading carry the time; search finds a model without a
    # conflict.
    "pedigree-gte": Spec(
        ("gte",), ("encode", "solve"),
        full=dict(n=70, seeds=(1, 2, 3)),
        tiny=dict(n=12, seeds=(3,)),
    ),
    # The ten pb12like instances of acceptance criterion 8, every explicit
    # encoder, solved.  Search carries most of the time in two regimes:
    # cheap conflicts on the adder, expensive ones over the SWC's thousands
    # of variables.  The conflict cap keeps the two jobs that need over a
    # thousand conflicts (adder on seed 101: 14 k; SWC on seed 100) from
    # swamping the other 28; a capped job ends undecided (TIMEOUT).
    "pb12-search": Spec(
        EXPLICIT, ("solve",),
        full=dict(constraints=6, n=24, seeds=tuple(range(100, 110))),
        tiny=dict(constraints=3, n=8, seeds=(100, 101)),
        max_conflicts=300,
        keep_order=True,
    ),
    # What `pbcnf verify` and `pbcnf gac-check` do: thousands of tiny
    # assumption solves and propagations on solvers loaded per check.
    "verify-sweep": Spec(
        EXPLICIT, ("verify",),
        full=dict(oracle_constraints=60, oracle_max_n=8, gac_constraints=20, gac_max_n=6, gac_samples=100),
        tiny=dict(oracle_constraints=4, oracle_max_n=4, gac_constraints=2, gac_max_n=3, gac_samples=10),
    ),
    # One file of many short constraints in all three relations: OPB
    # parsing, normalization, per-constraint pipeline overhead, `auto` and
    # DIMACS reading carry weight here and nowhere else.
    "opb-many": Spec(
        ("auto",), ("encode", "cnf_solve"),
        full=dict(constraints=600, n=12, seeds=(1,)),
        tiny=dict(constraints=30, n=8, seeds=(1,)),
    ),
}
WORKLOADS = tuple(SPECS)
GAC_ENCODERS = ("gte", "swc")
VERIFY_SEED = 1  # the CLI's default seed: draws both sweeps' constraints and gac_check's samples


class Relabel:
    """A seeded renaming of the input variables 1..num_vars into a universe
    of `universe` variables; literals of higher (auxiliary) variables keep
    their numbers.

    The full relabeling permutes the variables and flips each one's polarity.
    The order-keeping one declares twice the variables and places the inputs
    at seeded, increasing indices; the rest stay unused.  CDCL branching here
    breaks activity ties by lowest index and tries the negative phase first,
    so a full relabeling sends the search down another path (on pb12-search,
    conflicts swung by 20 % between seeds), while keeping the order and
    polarity leaves every decision that matters, and so every conflict, as
    it was.  With no rng the renaming is the identity, unused variables last.
    """

    def __init__(self, num_vars: int, rng: SplitMix64 | None, keep_order: bool = False):
        self.num_vars = num_vars
        self.universe = 2 * num_vars if keep_order else num_vars
        self.to_new = list(range(num_vars + 1))
        self.flip = bytearray(num_vars + 1)
        self.identity = rng is None
        if rng is not None and keep_order:
            self.to_new[1:] = sorted(rng.sample(1, self.universe, num_vars))
        elif rng is not None:
            for i in range(num_vars, 1, -1):
                j = rng.randint(1, i)
                self.to_new[i], self.to_new[j] = self.to_new[j], self.to_new[i]
            for v in range(1, num_vars + 1):
                self.flip[v] = rng.chance(1, 2)
        self.to_old = [0] * (self.universe + 1)
        for v in range(1, num_vars + 1):
            self.to_old[self.to_new[v]] = v

    def constraint(self, c: PBConstraint) -> PBConstraint:
        new, flip = self.to_new, self.flip
        return PBConstraint(
            tuple(Term(w, 2 * new[l >> 1] + ((l & 1) ^ flip[l >> 1])) for w, l in c.terms),
            c.relation,
            c.bound,
        )

    def base_formula(self, f: CnfFormula) -> CnfFormula:
        """The formula with input literals mapped back to base labels."""
        n, old, flip = self.universe, self.to_old, self.flip

        def back(l: int) -> int:
            u = l >> 1
            if u > n:
                return l
            v = old[u]
            return 2 * v + ((l & 1) ^ flip[v])

        return CnfFormula(f.num_vars, [[back(l) for l in cl] for cl in f.clauses])


@dataclass
class Job:
    label: str  # base input, the key into expected.json
    instance: PbInstance | None = None  # relabeled originals that models are checked against
    opb: str = ""  # the OPB text the program reads
    relabel: Relabel | None = None
    constraint: PBConstraint | None = None  # verify-sweep
    checks: tuple[tuple[str, str], ...] = ()  # verify-sweep: ("oracle" | "gac", encoder)


@dataclass
class Inputs:
    spec: Spec
    sizes: dict
    jobs: list[Job]
    gen_s: float  # seconds spent in pbcnf's generators


def make_inputs(workload: str, seed: int, tiny: bool = False) -> Inputs:
    """Generate the base inputs, relabel them with `seed` and render OPB."""
    spec = SPECS[workload]
    sizes = spec.tiny if tiny else spec.full
    rng = SplitMix64(seed) if seed else None
    t0 = perf_counter()
    if workload == "verify-sweep":
        # the sweeps of `pbcnf verify` and `pbcnf gac-check`, with the CLI's default constraint sizes
        oracle_rng, gac_rng = SplitMix64(VERIFY_SEED), SplitMix64(VERIFY_SEED)
        base = [
            (f"oracle{i}", random_normalized_constraint(oracle_rng, sizes["oracle_max_n"], 10, 30),
             tuple(("oracle", enc) for enc in spec.encoders))
            for i in range(sizes["oracle_constraints"])
        ] + [
            (f"gac{i}", random_normalized_constraint(gac_rng, sizes["gac_max_n"], 8, 20),
             tuple(("gac", enc) for enc in GAC_ENCODERS))
            for i in range(sizes["gac_constraints"])
        ]
        gen_s = perf_counter() - t0
        jobs = [Job(label, constraint=_shuffle(c, rng), checks=checks) for label, c, checks in base]
        return Inputs(spec, sizes, jobs, gen_s)
    if workload == "pedigree-gte":
        base = [
            (f"pedigree-n{sizes['n']}-s{s}", gen_bench(pedigreelike(n=sizes["n"], seed=s)))
            for s in sizes["seeds"]
        ]
    else:
        c, n = sizes["constraints"], sizes["n"]
        base = [
            (f"pb12-c{c}-n{n}-s{s}", gen_bench(pb12like(constraints=c, n=n, seed=s)))
            for s in sizes["seeds"]
        ]
    gen_s = perf_counter() - t0
    jobs = []
    for label, inst in base:
        relabel = Relabel(inst.declared_vars, rng, spec.keep_order)
        relabeled = PbInstance(relabel.universe, [relabel.constraint(c) for c in inst.constraints])
        jobs.append(Job(label, relabeled, write_opb(relabeled), relabel))
    return Inputs(spec, sizes, jobs, gen_s)


def _shuffle(c: PBConstraint, rng: SplitMix64 | None) -> PBConstraint:
    """The constraint with its variables permuted among themselves and each
    polarity flipped at random.  The largest variable stays, and with it the
    size of the CNF that oracle_check builds."""
    if rng is None:
        return c
    old = sorted(c.variables())
    new = old[:]
    for i in range(len(new) - 1, 0, -1):
        j = rng.randint(0, i)
        new[i], new[j] = new[j], new[i]
    to = dict(zip(old, new))
    flip = {v: rng.chance(1, 2) for v in old}
    return PBConstraint(
        tuple(Term(w, 2 * to[l >> 1] + ((l & 1) ^ flip[l >> 1])) for w, l in c.terms), c.relation, c.bound
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_problem(instance: PbInstance, model: list[int]) -> str | None:
    """Check a SAT model against the original constraints, before any
    normalization."""
    assignment = {abs(x): x > 0 for x in model}
    for i, c in enumerate(instance.constraints):
        if not c.holds(assignment):
            return f"model breaks original constraint {i}: {c}"
    return None


class Direct:
    """Stands in for a Tracer in untraced passes: calls straight through."""

    job = ""

    @staticmethod
    def call(name, fn, *args, tag=""):
        return fn(*args)

    @staticmethod
    def compile(name, fn, constraints, *args, encoding):
        return fn(*args)


DIRECT = Direct()


@dataclass
class PassResult:
    seconds: dict[tuple[str, str], float] = field(default_factory=dict)  # (journey, operation) -> seconds
    dimacs_bytes: int = 0
    opb_terms: int = 0


class Runner:
    """Runs passes over a workload's jobs and checks every answer.

    `expected` maps job labels to their recorded verdict and DIMACS hashes.
    `faults` names answer corruptions for the self-check: "model" breaks
    each SAT model before it is checked, "verdict" flips each recorded
    verdict, "hash" changes each recorded hash.
    """

    def __init__(self, inputs: Inputs, expected: dict, faults=frozenset()):
        self.inputs = inputs
        self.spec = inputs.spec
        self.expected = expected
        self.faults = faults
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: dict[tuple[str, str], str] = {}
        self.check_ms: list[float] = []
        self.cnf = None  # (vars, clauses, bytes), summed over jobs, from the first pass

    # -- bookkeeping ----------------------------------------------------------

    def _fail(self, what: str, problem: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(f"{what}: {problem}")

    def _attempt(self, what: str, fn, *args):
        """Run one operation; an exception counts it failed.  Returns the
        operation's result, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self._fail(what, traceback.format_exc(limit=4).strip().splitlines()[-1])
            return None

    def _record(self, label: str) -> dict:
        try:
            return self.expected[label]
        except KeyError:
            raise KeyError(f"no recorded answer for {label}; rerun with --record") from None

    def _check(self, what: str, problem: str | None) -> None:
        if problem:
            self._fail(what, problem)

    def _verdict_problem(self, job: Job, result) -> str | None:
        want = self._record(job.label)["verdict"]
        if "verdict" in self.faults:
            want = UNSAT if want == SAT else SAT
        if result.status == TIMEOUT:
            if self.spec.max_conflicts is None:
                return "TIMEOUT without a conflict cap"
            return None  # undecided within the cap; nothing to compare
        if result.status != want:
            return f"verdict {result.status}, recorded {want}"
        if result.status == SAT:
            model = result.model
            if "model" in self.faults:
                model = _corrupt(job.instance, model)
            return model_problem(job.instance, model)
        return None

    def _cnf_problem(self, job: Job, enc: str, compiled, text: str, first: bool) -> str | None:
        """Counts the CNF in the first pass.  For explicit encoders, later
        passes must repeat the first pass's DIMACS bytes, and the first
        pass's output, mapped back to base labels, must match the record."""
        if first:
            f = compiled.formula
            self._count_cnf(f.num_vars, len(f.clauses), len(text))
        if enc not in EXPLICIT:
            return None
        digest = sha256(text)
        key = (job.label, enc)
        if key in self.hashes:
            return None if self.hashes[key] == digest else "DIMACS output changed between passes"
        self.hashes[key] = digest
        if not job.relabel.identity:
            digest = sha256(dimacs_str(job.relabel.base_formula(compiled.formula)))
        want = self._record(job.label)["sha256"][enc]
        if "hash" in self.faults:
            want = want[::-1]
        if digest != want:
            return f"DIMACS sha256 {digest[:12]}.., recorded {want[:12]}.."
        return None

    # -- journeys -----------------------------------------------------------------

    def _encode(self, job: Job, enc: str, t, res: PassResult):
        """OPB text -> DIMACS text: what `pbcnf encode` does."""
        t0 = perf_counter()
        inst = t.call("opb.parse", parse_opb, job.opb)
        compiled = t.compile("pipeline.compile", compile_instance, inst.constraints, inst, enc, encoding=enc)
        text = t.call("dimacs.write", dimacs_str, compiled.formula)
        res.seconds["encode", f"{job.label}/{enc}"] = perf_counter() - t0
        res.dimacs_bytes += len(text)
        res.opb_terms += sum(len(c.terms) for c in inst.constraints)
        return compiled, text

    def _solve(self, job: Job, enc: str, t, res: PassResult):
        """OPB text -> verdict: what `pbcnf solve` does."""
        t0 = perf_counter()
        inst = t.call("opb.parse", parse_opb, job.opb)
        compiled = t.compile("pipeline.compile", compile_instance, inst.constraints, inst, enc, encoding=enc)
        result = Solver(compiled.formula).solve(max_conflicts=self.spec.max_conflicts)
        res.seconds["solve", f"{job.label}/{enc}"] = perf_counter() - t0
        res.opb_terms += sum(len(c.terms) for c in inst.constraints)
        return compiled, result

    def _cnf_solve(self, what: str, text: str, t, res: PassResult):
        """DIMACS text -> verdict, standing in for an external solver."""
        t0 = perf_counter()
        formula = t.call("dimacs.parse", parse_dimacs, text)
        result = Solver(formula).solve(max_conflicts=self.spec.max_conflicts)
        res.seconds["cnf_solve", what] = perf_counter() - t0
        return formula, result

    def _instance_job(self, job: Job, enc: str, t, res: PassResult, first: bool) -> None:
        what = f"{job.label}/{enc}"
        journeys = self.spec.journeys
        encoded = None
        if "encode" in journeys:
            encoded = self._attempt(f"{what} encode", self._encode, job, enc, t, res)
            if encoded is not None:
                self._check(f"{what} encode", self._cnf_problem(job, enc, *encoded, first))
        if "solve" in journeys:
            gc.collect()
            solved = self._attempt(f"{what} solve", self._solve, job, enc, t, res)
            if solved is not None:
                compiled, result = solved
                problem = self._verdict_problem(job, result)
                if not problem and encoded is None and first:
                    problem = self._cnf_problem(job, enc, compiled, dimacs_str(compiled.formula), first)
                self._check(f"{what} solve", problem)
        if "cnf_solve" in journeys and encoded is not None:
            compiled, text = encoded
            gc.collect()
            got = self._attempt(f"{what} cnf_solve", self._cnf_solve, what, text, t, res)
            if got is not None:
                formula, result = got
                f = compiled.formula
                if formula.num_vars != f.num_vars or formula.clauses != f.clauses:
                    problem = "parse_dimacs(dimacs_str(f)) differs from f"
                else:
                    problem = self._verdict_problem(job, result)
                self._check(f"{what} cnf_solve", problem)

    def _verify_job(self, job: Job, t, res: PassResult, first: bool) -> None:
        c = job.constraint
        for kind, enc in job.checks:
            what = f"{job.label}/{enc} {kind}"
            gc.collect()
            if kind == "oracle":
                if first:
                    f = compile_constraints([c], max(c.variables()), enc).formula
                    self._count_cnf(f.num_vars, len(f.clauses), len(dimacs_str(f)))
                t0 = perf_counter()
                outcome = self._attempt(what, t.call, "verify.oracle_check", oracle_check, c, enc)
                seconds = perf_counter() - t0
                self.check_ms.append(seconds * 1e3)
                if outcome is not None and not outcome:
                    self._fail(what, f"not equisatisfiable under {outcome.assignment}")
            else:
                trials = self.inputs.sizes["gac_samples"]
                t0 = perf_counter()
                reports = self._attempt(what, t.call, "verify.gac_check", gac_check, c, enc, trials, VERIFY_SEED)
                seconds = perf_counter() - t0
                if reports is not None and not all(r.passed for r in reports):
                    bad = sum(not r.passed for r in reports)
                    self._fail(what, f"{bad} of {len(reports)} partial assignments not propagated")
            res.seconds["verify", what] = seconds

    def _count_cnf(self, num_vars: int, clauses: int, size: int) -> None:
        v, c, b = self.cnf or (0, 0, 0)
        self.cnf = (v + num_vars, c + clauses, b + size)

    def run_pass(self, tracer=None) -> PassResult:
        """One pass over every job.  Returns the seconds of each operation,
        timed around the calls into pbcnf only; checks and `gc.collect()`
        between jobs fall outside the timed regions."""
        t = tracer or DIRECT
        first = self.cnf is None
        total = PassResult()
        for job in self.inputs.jobs:
            t.job = job.label
            if job.constraint is not None:
                self._verify_job(job, t, total, first)
                continue
            for enc in self.spec.encoders:
                gc.collect()
                self._instance_job(job, enc, t, total, first)
        return total


def _corrupt(instance: PbInstance, model: list[int]) -> list[int]:
    """A model with every literal of the first constraint made true, which
    breaks it whenever the constraint is a <= bound below its full sum."""
    broken = {abs(x): x > 0 for x in model}
    for w, l in instance.constraints[0].terms:
        broken[l >> 1] = not (l & 1)
    return [v if val else -v for v, val in sorted(broken.items())]


# -- probes and per-layer counts for the traced run -------------------------------


def tree_stats(tree) -> tuple[int, int, int, int]:
    """(root sums, sum variables, combination clauses, combinations clamped
    to bound+1) of a build_tree result, whether or not it is emitted."""
    cap = tree.bound + 1
    sum_vars = combos = clamped = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        a, b = node.children
        sum_vars += len(node.sums)
        combos += len(a.sums) * len(b.sums)
        bs = b.sums
        j = len(bs)
        for x in a.sums:  # ascending x: the clamping threshold on y only falls
            while j > 0 and x + bs[j - 1] >= cap:
                j -= 1
            clamped += len(bs) - j
        stack.extend(node.children)
    return len(tree.root.sums), sum_vars, combos, clamped


def probe(tracer) -> dict[str, float]:
    """Time `normalize` and `build_tree` on the inputs of every compile in the
    traced pass, as separate calls, and derive the compile self time.  Also
    count what each compile produced."""
    cache: dict = {}
    acc = dict(norm_s=0.0, tree_s=0.0, emit_s=0.0, pieces=0, forced=0, root_sums=0,
               sum_vars=0, combos=0, clamped=0, unit=0, binary=0, ternary=0, long=0)
    for key, constraints, encoding, seconds, formula in tracer.compiles:
        if key not in cache:
            cache[key] = _probe_one(tracer, key, constraints, encoding, formula)
        one = cache[key]
        for k, v in one.items():
            acc[k] += v
        if encoding in GTE_FAMILY:
            acc["emit_s"] += seconds - one["norm_s"] - one["tree_s"]
    return acc


def _probe_one(tracer, key, constraints, encoding: str, formula) -> dict:
    tracer.job = key[0]
    out = dict(norm_s=0.0, tree_s=0.0, pieces=0, forced=0, root_sums=0, sum_vars=0,
               combos=0, clamped=0, unit=0, binary=0, ternary=0, long=0)
    for c in constraints:
        t0 = perf_counter()
        outcome = tracer.call("normalize", normalize, c)
        out["norm_s"] += perf_counter() - t0
        for piece in outcome.flatten():
            out["forced"] += len(piece.forced_units)
            if piece.kind is not OutcomeKind.NORMALIZED:
                continue
            out["pieces"] += 1
            if encoding in GTE_FAMILY:
                t0 = perf_counter()
                tree = tracer.call("gte.build_tree", build_tree, piece.constraint)
                out["tree_s"] += perf_counter() - t0
                r, s, cmb, clp = tree_stats(tree)
                out["root_sums"] += r
                out["sum_vars"] += s
                out["combos"] += cmb
                out["clamped"] += clp
    for cl in formula.clauses:
        n = len(cl)
        if n <= 1:
            out["unit"] += 1
        elif n == 2:
            out["binary"] += 1
        elif n == 3:
            out["ternary"] += 1
        else:
            out["long"] += 1
    return out

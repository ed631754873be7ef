"""Independent checking machinery for the encoders.

Every check here deliberately avoids the code paths it validates:
`oracle_check` decides constraint satisfaction by integer arithmetic and the
residual CNF by search; `eq4_count` enumerates subsets directly instead of
pairwise merging; `gac_check` computes the semantically required literals
from the weights alone and compares against what unit propagation derives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import LE, PBConstraint, Term, lit, negate
from .engine import SAT, Solver
from .pipeline import compile_constraints
from .rng import SplitMix64


@dataclass
class OracleOutcome:
    equisatisfiable: bool
    encoding: str
    constraint: PBConstraint
    # populated on failure
    assignment: dict[int, bool] | None = None
    constraint_holds: bool | None = None
    cnf_satisfiable: bool | None = None

    def __bool__(self) -> bool:
        return self.equisatisfiable


ORACLE_MAX_VARS = 16  # oracle_check enumerates all 2^n assignments


def oracle_check(c: PBConstraint, encoding: str) -> OracleOutcome:
    """Brute-force equisatisfiability: for every full assignment of the
    constraint's variables, the compiled CNF must be satisfiable exactly when
    the assignment satisfies the constraint."""
    variables = c.variables()
    if len(variables) > ORACLE_MAX_VARS:
        raise ValueError(f"{len(variables)} variables is too many to enumerate")
    num_inputs = max(variables, default=0)
    compiled = compile_constraints([c], num_inputs, encoding)
    return oracle_check_formula(c, compiled.formula, encoding)


def oracle_check_formula(c: PBConstraint, formula, encoding: str = "?") -> OracleOutcome:
    """The enumeration core of `oracle_check`, usable on a hand-modified CNF.
    The assumptions go most significant bit first, so consecutive assignments
    share the solver's assumption levels above the highest bit that changed."""
    variables = c.variables()
    solver = Solver(formula)
    for bits in range(1 << len(variables)):
        assignment = {v: bool((bits >> i) & 1) for i, v in enumerate(variables)}
        assumptions = [lit(v, not assignment[v]) for v in reversed(variables)]
        expected = c.holds(assignment)
        got = solver.solve(assumptions).status == SAT
        if expected != got:
            return OracleOutcome(False, encoding, c, assignment, expected, got)
    return OracleOutcome(True, encoding, c)


@dataclass
class GacReport:
    constraint: PBConstraint
    encoding: str
    partial: tuple[int, ...]  # asserted input literals
    required: frozenset[int]  # literals a propagation-complete encoding must derive
    conflicted: bool = False
    missing: frozenset[int] = frozenset()

    @property
    def passed(self) -> bool:
        return not self.conflicted and not self.missing


def gac_check(c: PBConstraint, encoding: str, trials: int = 200, seed: int = 1) -> list[GacReport]:
    """Check propagation completeness on consistent partial assignments.

    For each sampled partial assignment sigma (exhaustive when 3^n <= 4096)
    with weighted true-sum <= bound, every unassigned literal whose weight no
    longer fits must be propagated to false by unit propagation alone.
    """
    if not c.is_normalized():
        raise ValueError("gac_check expects a normalized constraint")
    terms = c.terms
    n = len(terms)
    k = c.bound
    num_inputs = max(c.variables(), default=0)
    compiled = compile_constraints([c], num_inputs, encoding)
    solver = Solver(compiled.formula)
    reports: list[GacReport] = []

    def run_case(digits) -> GacReport | None:
        true_sum = 0
        partial: list[int] = []
        open_terms: list[Term] = []
        for d, (w, l) in zip(digits, terms):
            if d == 0:
                open_terms.append(Term(w, l))
            elif d == 1:
                partial.append(negate(l))
            else:
                partial.append(l)
                true_sum += w
        if true_sum > k:
            return None  # inconsistent sample
        required = frozenset(negate(l) for w, l in open_terms if w + true_sum > k)
        confl, _ = solver.assume_propagate(partial)
        if confl is not None:
            return GacReport(c, encoding, tuple(partial), required, conflicted=True)
        missing = frozenset(l for l in required if solver.value(l) != 1)
        return GacReport(c, encoding, tuple(partial), required, missing=missing)

    if 3**n <= 4096:
        # every {unset, false, true}^n vector, first term fastest
        for digits in product(range(3), repeat=n):
            report = run_case(digits[::-1])
            if report is not None:
                reports.append(report)
    else:
        rng = SplitMix64(seed)
        produced = 0
        while produced < trials:
            report = run_case([rng.randint(0, 2) for _ in range(n)])
            if report is not None:
                reports.append(report)
                produced += 1
    return reports


def eq4_count(weights, k: int) -> int:
    """Number of distinct non-empty-subset sums clamped at k+1, by direct
    enumeration of all subsets (the counting rule the tree encoder must match).
    """
    ws = list(weights)
    n = len(ws)
    if n > 20:
        raise ValueError("subset enumeration capped at 20 weights")
    cap = k + 1
    sums = [0] * (1 << n)
    distinct = set()
    for mask in range(1, 1 << n):
        low = mask & -mask
        s = sums[mask ^ low] + ws[low.bit_length() - 1]
        sums[mask] = s
        distinct.add(s if s < cap else cap)
    return len(distinct)


def random_normalized_constraint(
    rng: SplitMix64,
    max_n: int = 8,
    max_weight: int = 10,
    max_bound: int = 30,
    cardinality_chance: tuple[int, int] = (1, 10),
) -> PBConstraint:
    """Seeded normalized constraint: distinct variables, random polarities,
    weights within bounds, and a bound that keeps every weight encodable."""
    n = rng.randint(1, max_n)
    if rng.chance(*cardinality_chance):
        weights = [1] * n
    else:
        weights = [rng.randint(1, max_weight) for _ in range(n)]
    total = sum(weights)
    lo = max(weights)
    hi = min(max_bound, total + rng.randint(0, 2))  # occasionally vacuous on purpose
    k = rng.randint(lo, hi) if lo <= hi else lo
    variables = rng.sample(1, max(n, max_n), n)
    terms = tuple(
        Term(w, lit(v, negative=rng.chance(1, 4))) for w, v in zip(weights, variables)
    )
    return PBConstraint(terms, LE, k)


def random_constraint(rng: SplitMix64) -> PBConstraint:
    """Unrestricted constraint for normalizer torture: any relation, negative
    and zero weights, repeated variables.  1 to 6 terms over x1..x6, weights
    in -10..10, bound in -20..20."""
    n = rng.randint(1, 6)
    terms = []
    for _ in range(n):
        w = rng.randint(-10, 10)
        v = rng.randint(1, 6)
        terms.append(Term(w, lit(v, negative=rng.chance(1, 2))))
    relation = rng.choice(("<=", ">=", "="))
    return PBConstraint(tuple(terms), relation, rng.randint(-20, 20))

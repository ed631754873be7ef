"""Independent checking machinery for the encoders.

Every check here deliberately avoids the code paths it validates:
`oracle_check` decides constraint satisfaction by integer arithmetic and the
residual CNF by search; `first_violated` checks a solver's model against the
original constraints the same way; `gac_check` computes the semantically
required literals from the weights alone and compares against what unit
propagation derives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import LE, PBConstraint, Term, lit
from .engine import SAT, TRUE, Solver
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


def first_violated(constraints, model) -> int | None:
    """1-based index of the first constraint that `model` (signed DIMACS
    literals) breaks, by integer arithmetic; None when every one holds."""
    assignment = {abs(n): n > 0 for n in model}
    for i, c in enumerate(constraints, 1):
        if not c.holds(assignment):
            return i
    return None


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

    For each partial assignment sigma with weighted true-sum <= bound, every
    unassigned literal whose weight no longer fits must be propagated to false
    by unit propagation alone.  All of them are checked, first term fastest,
    when 3^n <= 4096; otherwise `trials` of them are drawn at random.  Each is
    asserted last term first, so that consecutive cases share the solver's
    levels of the later terms they agree on."""
    if not c.is_normalized():
        raise ValueError("gac_check expects a normalized constraint")
    terms = c.terms
    n = len(terms)
    k = c.bound
    num_inputs = max(c.variables(), default=0)
    compiled = compile_constraints([c], num_inputs, encoding)
    solver = Solver(compiled.formula)
    if 3**n <= 4096:
        # every {unset, false, true}^n vector, first term fastest
        cases = (digits[::-1] for digits in product(range(3), repeat=n))
    else:
        cases = _drawn_cases(SplitMix64(seed), [w for w, _ in terms], k, trials)
    reports: list[GacReport] = []
    for digits in cases:
        true_sum = sum(w for d, (w, _) in zip(digits, terms) if d == 2)
        if true_sum > k:
            continue  # inconsistent partial assignment
        partial = tuple(l if d == 2 else l ^ 1 for d, (_, l) in zip(digits, terms) if d)
        required = frozenset(l ^ 1 for d, (w, l) in zip(digits, terms) if d == 0 and w + true_sum > k)
        conflicted = solver.assume_propagate(partial[::-1]) is not None
        missing = frozenset() if conflicted else frozenset(l for l in required if solver.val[l] != TRUE)
        reports.append(GacReport(c, encoding, partial, required, conflicted, missing))
    return reports


def _drawn_cases(rng: SplitMix64, weights: list[int], k: int, trials: int):
    """`trials` seeded {unset, false, true} vectors, one draw per weight; a true
    digit whose weight no longer fits is made unset, so each is consistent."""
    for _ in range(trials):
        digits, room = [], k
        for w in weights:
            d = rng.randint(0, 2)
            if d == 2 and w > room:
                d = 0
            room -= w if d == 2 else 0
            digits.append(d)
        yield digits


def random_normalized_constraint(
    rng: SplitMix64,
    max_n: int = 8,
    max_weight: int = 10,
    max_bound: int = 30,
) -> PBConstraint:
    """Seeded normalized constraint: distinct variables, random polarities,
    weights within bounds (all 1 one time in ten), and a bound that keeps
    every weight encodable."""
    n = rng.randint(1, max_n)
    if rng.chance(1, 10):
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

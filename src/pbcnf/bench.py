"""Seeded benchmark generation and cross-encoder statistics.

Two instance families, shaped after published averages for the benchmark
suites they imitate:

* ``pb12like`` -- many mid-size constraints (tens of literals, single-digit
  distinct weight counts, max weights around a dozen, mixed relations, an
  occasional pure cardinality constraint) over a shared variable pool.
* ``pedigreelike`` -- one huge constraint with exactly two distinct weights,
  one small and one large, and a bound on the scale of the weighted sum.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields

from .core import LE, GE, EQ, PBConstraint, Term, lit
from .engine import SAT, Solver
from .opb import PbInstance
from .pipeline import compile_instance
from .rng import SplitMix64
from .verify import first_violated

FAMILIES = ("pb12like", "pedigreelike")


@dataclass(frozen=True)
class BenchSpec:
    family: str
    n: int  # pedigreelike: literals in the constraint; pb12like: mean constraint length
    constraints: int = 1
    distinct_weights: int = 2
    max_weight: int = 456
    k: int | None = None  # pedigreelike only; default half the weighted sum
    seed: int = 1


def pedigreelike(n: int = 50, max_weight: int = 456, k: int | None = None, seed: int = 1) -> BenchSpec:
    """Weights 1 and `max_weight`, so `gen_bench` refuses a `max_weight` below 2."""
    return BenchSpec("pedigreelike", n=n, constraints=1, distinct_weights=2,
                     max_weight=max_weight, k=k, seed=seed)


def pb12like(constraints: int = 10, n: int = 32, max_weight: int = 13,
             distinct_weights: int = 7, seed: int = 1) -> BenchSpec:
    return BenchSpec("pb12like", n=n, constraints=constraints,
                     distinct_weights=distinct_weights, max_weight=max_weight, seed=seed)


def gen_bench(spec: BenchSpec) -> PbInstance:
    if spec.family == "pedigreelike":
        return _gen_pedigree(spec)
    if spec.family == "pb12like":
        return _gen_pb12(spec)
    raise ValueError(f"unknown family {spec.family!r}; expected one of {FAMILIES}")


def _gen_pedigree(spec: BenchSpec) -> PbInstance:
    if spec.max_weight < 2:
        raise ValueError(f"pedigreelike needs a max_weight of at least 2, not {spec.max_weight}")
    rng = SplitMix64(spec.seed)
    terms = tuple(
        Term(spec.max_weight if rng.chance(1, 2) else 1, lit(v, negative=rng.chance(1, 4)))
        for v in range(1, spec.n + 1)
    )
    k = spec.k if spec.k is not None else sum(w for w, _ in terms) // 2
    return PbInstance(spec.n, [PBConstraint(terms, LE, k)])


def _gen_pb12(spec: BenchSpec) -> PbInstance:
    rng = SplitMix64(spec.seed)
    universe = max(4, spec.n * 2)
    constraints = []
    for _ in range(spec.constraints):
        m = rng.randint(max(2, spec.n // 2), max(3, (spec.n * 3) // 2))
        m = min(m, universe)
        variables = rng.sample(1, universe, m)
        if rng.chance(1, 4):  # pure cardinality
            weights = [1] * m
        else:
            d = rng.randint(2, max(2, min(spec.distinct_weights, spec.max_weight)))
            values = rng.sample(1, spec.max_weight, min(d, spec.max_weight))
            weights = [rng.choice(values) for _ in range(m)]
        total = sum(weights)
        roll = rng.randint(1, 10)
        relation = LE if roll <= 6 else (GE if roll <= 9 else EQ)
        k = rng.randint(max(1, total // 10), max(2, (total * 2) // 5))
        terms = tuple(
            Term(w, lit(v, negative=rng.chance(1, 4))) for w, v in zip(weights, variables)
        )
        constraints.append(PBConstraint(terms, relation, k))
    return PbInstance(universe, constraints)


@dataclass
class StatRow:
    instance: str
    encoder: str
    aux_vars: int = 0
    aux_clauses: int = 0
    encode_ms: float = 0.0
    solve_ms: float = 0.0
    result: str = ""


CSV_HEADER = ",".join(f.name for f in fields(StatRow))


def stats_compare(
    instance: PbInstance,
    encoders,
    label: str = "instance",
    max_conflicts: int | None = None,
) -> list[StatRow]:
    """One row per encoder: the instance encoded and solved with the embedded
    engine; an unknown encoder name raises ValueError, and a SAT model that
    breaks one of the instance's constraints raises RuntimeError."""
    rows = []
    for enc in encoders:
        row = StatRow(instance=label, encoder=enc)
        compiled = compile_instance(instance, enc)
        row.aux_vars = compiled.aux_vars
        row.aux_clauses = compiled.aux_clauses
        row.encode_ms = round(compiled.encode_time * 1000.0, 3)
        t0 = time.perf_counter()
        res = Solver(compiled.formula).solve(max_conflicts=max_conflicts)
        row.solve_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        row.result = res.status
        bad = first_violated(instance.constraints, res.model) if res.status == SAT else None
        if bad is not None:
            raise RuntimeError(
                f"{label} under {enc}: the model violates constraint {bad} "
                f"({instance.constraints[bad - 1]})"
            )
        rows.append(row)
    return rows


def stats_csv(rows) -> str:
    """The rows under `CSV_HEADER`, one line each; a field holding a comma, a
    quote or a line break is quoted."""
    import csv
    import io

    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    csv.writer(out, lineterminator="\n").writerows(map(astuple, rows))
    return out.getvalue()

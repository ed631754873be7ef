"""Full compilation pipeline: normalize each constraint, dispatch to the
requested encoder, and collect the clauses plus per-run statistics."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .baselines import encode_adder, encode_swc, encode_totalizer
from .core import CnfFormula, PBConstraint, VarPool, gc_paused, negate
from .gte import encode_gte
from .normalize import OutcomeKind, normalize

ENCODERS = {
    "gte": encode_gte,
    "swc": encode_swc,
    "adder": encode_adder,
    "totalizer": encode_totalizer,
}
ENCODING_NAMES = (*ENCODERS, "auto")  # auto: the generalized totalizer for every constraint


def is_cardinality(c: PBConstraint) -> bool:
    return all(w == 1 for w, _ in c.terms)


@dataclass
class CompiledInstance:
    formula: CnfFormula
    input_vars: int
    forced_units: int = 0
    aux_vars: int = 0
    aux_clauses: int = 0
    encode_time: float = 0.0


def compile_constraint(c: PBConstraint, encoding: str, pool: VarPool, out: CnfFormula) -> int:
    """Normalize one constraint (splitting equalities) and encode every
    residual piece into `out`.  Forced units become unit clauses; a trivially
    false piece becomes the empty clause.  Returns how many of those two
    kinds of clause it wrote."""
    if encoding not in ENCODING_NAMES:
        raise ValueError(f"unknown encoding {encoding!r}")
    enc = ENCODERS["gte" if encoding == "auto" else encoding]
    forced = 0
    for piece in normalize(c).flatten():
        for l in piece.forced_units:
            out.add_clause([negate(l)])
        forced += len(piece.forced_units)
        if piece.kind is OutcomeKind.TRIVIALLY_FALSE:
            out.add_clause([])
            forced += 1
        elif piece.kind is OutcomeKind.NORMALIZED:
            enc(piece.constraint, pool, out)
    return forced


def compile_constraints(
    constraints: list[PBConstraint], num_input_vars: int, encoding: str
) -> CompiledInstance:
    """Encode every constraint into one formula.

    Input variables are 1..`num_input_vars`; auxiliary variables are numbered
    from `num_input_vars + 1` on, so every variable the constraints mention
    must lie in 1..`num_input_vars`.  A larger one would alias an auxiliary
    variable and silently change the meaning of the CNF (and x0 has no DIMACS
    name), so either raises ValueError instead.
    """
    for c in constraints:
        for _, l in c.terms:
            if not 1 <= l >> 1 <= num_input_vars:
                raise ValueError(
                    f"constraint {c} uses x{l >> 1}, outside 1..num_input_vars={num_input_vars}"
                )
    out = CnfFormula(num_vars=num_input_vars)
    pool = VarPool(num_input_vars + 1)
    compiled = CompiledInstance(formula=out, input_vars=num_input_vars)
    t0 = time.perf_counter()
    with gc_paused():
        for c in constraints:
            compiled.forced_units += compile_constraint(c, encoding, pool, out)
    compiled.aux_vars = pool.next_free - 1 - num_input_vars
    compiled.aux_clauses = len(out.clauses)
    compiled.encode_time = time.perf_counter() - t0
    return compiled


def compile_instance(instance, encoding: str) -> CompiledInstance:
    """Compile a parsed OPB instance; see `compile_constraints`."""
    return compile_constraints(instance.constraints, instance.declared_vars, encoding)

"""Full compilation pipeline: normalize each constraint, dispatch to the
requested encoder, and collect the clauses plus per-run statistics."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .baselines import encode_adder, encode_swc
from .core import CnfFormula, PBConstraint
from .gte import encode_auto, encode_gte, encode_totalizer
from .normalize import OutcomeKind, normalize

ENCODERS = {
    "gte": encode_gte,
    "swc": encode_swc,
    "adder": encode_adder,
    "totalizer": encode_totalizer,
    "auto": encode_auto,
}
ENCODING_NAMES = tuple(ENCODERS)


@dataclass
class CompiledInstance:
    formula: CnfFormula
    input_vars: int
    forced_units: int = 0
    encode_time: float = 0.0

    @property
    def aux_vars(self) -> int:
        return self.formula.num_vars - self.input_vars

    @property
    def aux_clauses(self) -> int:  # one pass over the formula per read
        return self.formula.num_clauses


def compile_constraints(
    constraints: list[PBConstraint], num_input_vars: int, encoding: str
) -> CompiledInstance:
    """Encode every constraint into one formula.

    Each constraint is normalized, an equality into two pieces.  A piece's
    forced units become unit clauses (counted in `forced_units`, as is the
    empty clause a trivially false piece becomes), and a normalized piece
    goes to the encoder.  An unknown `encoding` raises ValueError first,
    even with no constraints.

    Input variables are 1..`num_input_vars`; the formula numbers auxiliary
    variables from `num_input_vars + 1` on, so every variable the
    constraints mention must lie in 1..`num_input_vars`.  A larger one would
    alias an auxiliary variable and silently change the meaning of the CNF
    (and x0 has no DIMACS name), so either raises ValueError instead.
    """
    if encoding not in ENCODERS:
        raise ValueError(f"unknown encoding {encoding!r}")
    enc = ENCODERS[encoding]
    for c in constraints:
        for _, l in c.terms:
            if not 1 <= l >> 1 <= num_input_vars:
                raise ValueError(
                    f"constraint {c} uses x{l >> 1}, outside 1..num_input_vars={num_input_vars}"
                )
    out = CnfFormula(num_vars=num_input_vars)
    compiled = CompiledInstance(formula=out, input_vars=num_input_vars)
    t0 = time.perf_counter()
    for c in constraints:
        for piece in normalize(c).flatten():
            for l in piece.forced_units:
                out.add_clause([l ^ 1])
            compiled.forced_units += len(piece.forced_units)
            if piece.kind is OutcomeKind.TRIVIALLY_FALSE:
                out.add_clause([])
                compiled.forced_units += 1
            elif piece.kind is OutcomeKind.NORMALIZED:
                enc(piece.constraint, out)
    compiled.encode_time = time.perf_counter() - t0
    return compiled


def compile_instance(instance, encoding: str) -> CompiledInstance:
    """Compile a parsed OPB instance; see `compile_constraints`."""
    return compile_constraints(instance.constraints, instance.declared_vars, encoding)

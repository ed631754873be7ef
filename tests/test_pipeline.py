import itertools

import pytest

from pbcnf import (
    EQ,
    GE,
    LE,
    SAT,
    UNSAT,
    PbInstance,
    PBConstraint,
    compile_constraints,
    compile_instance,
    lit,
    solve,
)
from pbcnf.pipeline import ENCODERS, ENCODING_NAMES, is_cardinality


def test_encoder_registry():
    assert set(ENCODERS) == {"gte", "swc", "adder", "totalizer"}
    assert ENCODING_NAMES == ("gte", "swc", "adder", "totalizer", "auto")


def test_select_encoding():
    card = PBConstraint.from_signed([(1, 1), (1, 2)], LE, 1)
    weighted = PBConstraint.from_signed([(2, 1), (1, 2)], LE, 2)
    assert is_cardinality(card) and not is_cardinality(weighted)


def test_unknown_encoding_rejected():
    c = PBConstraint.from_signed([(1, 1)], LE, 0)
    with pytest.raises(ValueError, match="unknown encoding"):
        compile_constraints([c], 1, "nosuch")


def test_input_variable_outside_num_input_vars_rejected():
    # x5 with num_input_vars=4 would be handed out again as the first aux
    # variable, silently changing what the CNF means
    c = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 5)], LE, 5)
    with pytest.raises(ValueError, match="x5"):
        compile_constraints([c], 4, "gte")
    assert compile_constraints([c], 5, "gte").aux_vars == 9
    # literal code 1 is ~x0, which DIMACS would write as a clause terminator
    zero = PBConstraint(((1, 1), (1, 4), (1, 6)), LE, 1)
    with pytest.raises(ValueError, match="x0"):
        compile_constraints([zero], 3, "gte")


def test_forced_units_become_unit_clauses():
    # weight 9 exceeds the bound: x1 can never be on
    c = PBConstraint.from_signed([(9, 1), (2, 2), (2, 3)], LE, 3)
    compiled = compile_constraints([c], 3, "gte")
    assert [lit(1, negative=True)] in compiled.formula.clauses
    assert compiled.forced_units == 1
    assert solve(compiled.formula, assumptions=[lit(1)]).status == UNSAT


def test_trivially_false_becomes_empty_clause():
    c = PBConstraint.from_signed([(1, 1)], LE, -2)
    compiled = compile_constraints([c], 1, "gte")
    assert [] in compiled.formula.clauses
    assert compiled.forced_units == 1
    assert solve(compiled.formula).status == UNSAT


def test_trivially_true_emits_nothing():
    c = PBConstraint.from_signed([(1, 1), (1, 2)], LE, 5)
    compiled = compile_constraints([c], 2, "gte")
    assert compiled.formula.num_clauses == 0
    assert compiled.aux_vars == 0


def test_ge_and_eq_compile_correctly():
    # together these force x1=1, x2=0 under every encoding
    ge = PBConstraint.from_signed([(1, 1), (1, 2)], GE, 1)
    eq = PBConstraint.from_signed([(2, 1), (1, 2)], EQ, 2)
    for encoding in ("gte", "swc", "adder", "auto"):
        compiled = compile_constraints([ge, eq], 2, encoding)
        models = []
        for bits in itertools.product((False, True), repeat=2):
            a = dict(zip((1, 2), bits))
            assumptions = [lit(v, negative=not val) for v, val in a.items()]
            if solve(compiled.formula, assumptions=assumptions).status == SAT:
                models.append(bits)
        assert models == [(True, False)], encoding


def test_multiple_constraints_share_the_pool():
    c1 = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3)], LE, 4)
    c2 = PBConstraint.from_signed([(1, 2), (1, 3), (1, 4)], LE, 2)
    compiled = compile_constraints([c1, c2], 4, "gte")
    seen = set()
    for cl in compiled.formula.clauses:
        seen.update(l >> 1 for l in cl)
    assert max(seen) == 4 + compiled.aux_vars  # aux numbering is contiguous


def test_compile_instance_uses_declared_universe():
    inst = PbInstance(6, [PBConstraint.from_signed([(1, 1), (1, 2)], LE, 1)])
    compiled = compile_instance(inst, "totalizer")
    assert compiled.input_vars == 6
    assert compiled.formula.num_vars >= 6
    # auxiliaries start after the declared universe even if unused vars exist
    aux = sorted(
        {l >> 1 for cl in compiled.formula.clauses for l in cl} - {1, 2}
    )
    assert aux and min(aux) == 7


def test_aggregate_counts_add_up():
    constraints = [
        PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4)], LE, 5),
        PBConstraint.from_signed([(1, 1), (1, 4)], GE, 1),
    ]
    compiled = compile_constraints(constraints, 4, "gte")
    assert compiled.aux_clauses == compiled.formula.num_clauses
    assert compiled.encode_time >= 0.0

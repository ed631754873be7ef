import pytest

from pbcnf import (
    EQ,
    GE,
    LE,
    SAT,
    UNSAT,
    CnfFormula,
    OutcomeKind,
    PbInstance,
    PBConstraint,
    SplitMix64,
    Term,
    compile_constraints,
    compile_instance,
    dimacs_str,
    encode_gte,
    encode_totalizer,
    gac_check,
    gen_bench,
    lit,
    normalize,
    oracle_check,
    oracle_check_formula,
    pedigreelike,
    solve,
)
from pbcnf.pipeline import ENCODERS, ENCODING_NAMES

from conftest import REFERENCE, assignments, by_weight


@pytest.mark.parametrize("encoding", ENCODING_NAMES)
@pytest.mark.parametrize("bound", [0, 3])
def test_every_encoder_emits_nothing_for_the_empty_constraint(encoding, bound):
    # only direct calls meet it: the pipeline strips empty constraints
    c = PBConstraint((), LE, bound)
    assert c.is_normalized()
    out = CnfFormula(num_vars=2)
    ENCODERS[encoding](c, out)
    assert (out.num_vars, out.clauses) == (2, [])


@pytest.mark.parametrize("encoding", ENCODING_NAMES)
def test_encoders_number_fresh_variables_above_the_inputs(encoding):
    # the formula is declared with no variables: the encoder must still keep
    # its own variables clear of the inputs x1..x4; under bound 2 auto needs
    # none, since every weight-3 input is forbidden outright
    bound = 5 if encoding == "auto" else 2
    c = PBConstraint.from_signed(zip((2, 3, 3, 3), (1, 2, 3, 4)), LE, bound)
    out = CnfFormula()
    drawn = []
    draw = out.fresh_lit

    def fresh_lit():
        drawn.append(draw() >> 1)
        return 2 * drawn[-1]

    out.fresh_lit = fresh_lit
    ENCODERS[encoding](c, out)
    assert drawn and min(drawn) > 4
    assert out.num_vars == max(l >> 1 for cl in out.clauses for l in cl)
    assert oracle_check_formula(c, out)


@pytest.mark.parametrize("encoding", ENCODING_NAMES)
def test_every_encoder_rejects_literal_codes_below_2(encoding):
    # code 1 would be written to DIMACS as `0`, which ends a clause early,
    # and a negative code as another variable's literal
    for code in (1, 0, -4):
        c = PBConstraint((Term(1, code), Term(1, 4), Term(1, 6)), LE, 1)
        out = CnfFormula(num_vars=2, clauses=[[2, 5]])
        with pytest.raises(ValueError, match="normalized"):
            ENCODERS[encoding](c, out)
        assert (out.num_vars, out.clauses) == (2, [[2, 5]])


def test_encoder_registry():
    assert set(ENCODERS) == {"gte", "swc", "adder", "totalizer", "auto"}
    assert ENCODING_NAMES == ("gte", "swc", "adder", "totalizer", "auto")


def test_select_encoding():
    # the totalizer is a second name for gte, on weighted constraints too
    assert encode_totalizer is encode_gte
    assert ENCODERS["totalizer"] is ENCODERS["gte"]
    weighted = PBConstraint.from_signed([(2, 1), (1, 2)], LE, 2)
    tot = compile_constraints([weighted], 2, "totalizer").formula
    gte = compile_constraints([weighted], 2, "gte").formula
    assert tot.clauses and dimacs_str(tot) == dimacs_str(gte)


def test_unknown_encoding_rejected():
    c = PBConstraint.from_signed([(1, 1)], LE, 0)
    with pytest.raises(ValueError, match="unknown encoding"):
        compile_constraints([c], 1, "nosuch")
    with pytest.raises(ValueError, match="unknown encoding"):
        compile_constraints([], 0, "nope")


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
        for a in assignments((1, 2)):
            assumptions = [lit(v, negative=not val) for v, val in a.items()]
            if solve(compiled.formula, assumptions=assumptions).status == SAT:
                models.append(tuple(a.values()))
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
        REFERENCE,
        PBConstraint.from_signed([(1, 1), (1, 4)], GE, 1),
    ]
    compiled = compile_constraints(constraints, 4, "gte")
    assert compiled.aux_clauses == compiled.formula.num_clauses
    assert compiled.encode_time >= 0.0


def test_sizes_follow_the_formula():
    # aux_vars and aux_clauses are read off the formula, so what a caller
    # adds after compiling counts too
    compiled = compile_constraints([REFERENCE], 4, "gte")
    assert (compiled.aux_vars, compiled.aux_clauses) == (9, 18)
    compiled.formula.add_clause([lit(1), lit(2)])
    assert (compiled.aux_vars, compiled.aux_clauses) == (9, 19)
    compiled.formula.fresh_lit()
    assert (compiled.aux_vars, compiled.aux_clauses) == (10, 19)


def test_auto_is_gte_over_weight_sorted_terms():
    # pedigreelike is one <= constraint over weights 1 and 456, so sorting
    # its input terms sorts the normalized piece's leaves too; auto then
    # keeps only the sums that can still reach bound+1
    inst = gen_bench(pedigreelike(n=200, seed=3))
    auto = compile_instance(inst, "auto")
    assert (auto.aux_vars, auto.aux_clauses) == (1_677, 21_510)
    presorted = PbInstance(inst.declared_vars, [by_weight(c) for c in inst.constraints])
    assert dimacs_str(auto.formula) == dimacs_str(compile_instance(presorted, "auto").formula)
    full = compile_instance(presorted, "gte")
    assert (full.aux_vars, full.aux_clauses) == (7_619, 79_302)


def test_auto_beats_input_order_gte_on_pedigree():
    inst = gen_bench(pedigreelike(n=70, seed=1))
    assert compile_instance(inst, "auto").aux_clauses < compile_instance(inst, "gte").aux_clauses


def test_auto_on_unit_weights_is_no_larger_than_the_totalizer():
    # unit weights stay unit through normalization (>= flips literals, = splits);
    # auto drops the totalizer's sums that cannot reach bound+1
    rng = SplitMix64(31)
    constraints = []
    for _ in range(40):
        vs = [v for v in range(1, 13) if rng.chance(1, 2)] or [7]
        vs.sort(key=lambda v: rng.randint(0, 99))  # not in literal order
        terms = [(1, -v if rng.chance(1, 3) else v) for v in vs]
        relation = (LE, GE, EQ)[rng.randint(0, 2)]
        constraints.append(PBConstraint.from_signed(terms, relation, rng.randint(0, len(vs))))
    auto = compile_constraints(constraints, 12, "auto")
    tot = compile_constraints(constraints, 12, "totalizer")
    assert 0 < auto.aux_clauses < tot.aux_clauses
    assert auto.aux_vars < tot.aux_vars
    smaller = 0
    for c in constraints:
        one = compile_constraints([c], 12, "auto")
        ref = compile_constraints([c], 12, "totalizer")
        assert one.aux_vars <= ref.aux_vars and one.aux_clauses <= ref.aux_clauses, c
        smaller += one.aux_clauses < ref.aux_clauses
        assert oracle_check(c, "auto"), c
        for piece in normalize(c).flatten():
            if piece.kind is OutcomeKind.NORMALIZED:
                assert all(r.passed for r in gac_check(piece.constraint, "auto", trials=60, seed=31)), c
    assert smaller >= 20

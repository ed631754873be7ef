import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbcnf import (
    EQ,
    GE,
    LE,
    OpbError,
    PbInstance,
    PBConstraint,
    Term,
    lit,
    parse_opb,
    write_opb,
)


def test_parse_basic():
    text = "* #variable= 4 #constraint= 1\n+2 x1 +3 x2 +3 x3 +3 x4 <= 5 ;\n"
    inst = parse_opb(text)
    assert inst.declared_vars == 4
    assert len(inst.constraints) == 1
    c = inst.constraints[0]
    assert c.relation == LE
    assert c.bound == 5
    assert c.terms == (Term(2, lit(1)), Term(3, lit(2)), Term(3, lit(3)), Term(3, lit(4)))


def test_parse_accepts_all_relations_and_signs():
    inst = parse_opb("-1 x1 +2 x2 >= -3 ;\n1 x1 = 0 ;\n+1 x3 <= 1 ;\n")
    assert [c.relation for c in inst.constraints] == [GE, EQ, LE]
    assert inst.constraints[0].terms[0] == Term(-1, lit(1))
    assert inst.constraints[0].bound == -3
    assert inst.declared_vars == 3


def test_parse_terminator_spacing():
    # "5;" and "5 ;" are both fine
    a = parse_opb("+1 x1 <= 5;\n")
    b = parse_opb("+1 x1 <= 5 ;\n")
    assert a.constraints == b.constraints


def test_parse_sources():
    text = "+1 x1 <= 1 ;\n"
    for source in (text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
        assert parse_opb(source).constraints


def test_parse_comments_and_blank_lines():
    inst = parse_opb("\n* a comment\n\n+1 x1 <= 1 ;\n* trailing comment\n")
    assert len(inst.constraints) == 1


def test_header_only_counts_when_first():
    inst = parse_opb("+1 x1 <= 1 ;\n* #variable= 9 #constraint= 9\n")
    assert inst.declared_vars == 1


def test_objective_rejected_with_clear_message():
    with pytest.raises(OpbError, match="decision problems only"):
        parse_opb("min: +1 x1 +2 x2 ;\n+1 x1 <= 1 ;\n")
    with pytest.raises(OpbError, match="decision problems only"):
        parse_opb("max: +1 x1 ;\n")


def test_product_terms_rejected():
    with pytest.raises(OpbError, match="products are not supported"):
        parse_opb("+1 x1 x2 <= 1 ;\n")


def test_zero_variable_index_rejected():
    with pytest.raises(OpbError, match=">= 1"):
        parse_opb("+1 x0 <= 1 ;\n")


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("+1 x1 <= ;\n", "bound"),
        ("+1 x1 <= 1\n", "';'"),
        ("<= 1 ;\n", "no terms"),
        ("+1 <= 1 ;\n", "variable after coefficient"),
        ("+1 x1 ++2 x2 <= 2 ;\n", "coefficient"),
        ("+1 x1 <= 1 ; junk\n", "after ';'"),
        ("y1 +1 <= 1 ;\n", "coefficient"),
        ("+1 x1\n", "relation"),
        ("min: ;\n", "objective"),
    ],
)
def test_parse_errors_carry_position(bad, fragment):
    with pytest.raises(OpbError) as exc:
        parse_opb(bad)
    assert exc.value.line >= 1
    assert exc.value.column >= 1
    if fragment:
        assert fragment in str(exc.value)


def test_undeclared_variables_extend_with_warning():
    with pytest.warns(UserWarning, match="beyond the declared"):
        inst = parse_opb("* #variable= 2 #constraint= 1\n+1 x5 <= 1 ;\n")
    assert inst.declared_vars == 5


def test_no_warning_when_within_declaration():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = parse_opb("* #variable= 9 #constraint= 1\n+1 x5 <= 1 ;\n")
    assert inst.declared_vars == 9


def test_write_folds_negated_literals():
    c = PBConstraint.from_signed([(2, 1), (3, -2)], LE, 5)
    text = write_opb(PbInstance(declared_vars=2, constraints=[c]))
    assert "+2 x1 -3 x2 <= 2 ;" in text
    assert text.startswith("* #variable= 2 #constraint= 1\n")


def test_write_parse_roundtrip_preserves_semantics():
    import itertools

    c = PBConstraint.from_signed([(2, 1), (3, -2), (1, 3)], LE, 4)
    inst = PbInstance(declared_vars=3, constraints=[c])
    back = parse_opb(write_opb(inst)).constraints[0]
    for bits in itertools.product((False, True), repeat=3):
        a = dict(zip((1, 2, 3), bits))
        assert c.holds(a) == back.holds(a), a


def test_write_rejects_constraint_without_terms():
    # OPB has no form for an empty left-hand side: parse_opb rejects " <= 0 ;"
    inst = PbInstance(declared_vars=1, constraints=[PBConstraint((), LE, 0)])
    with pytest.raises(ValueError, match="0 <= 0"):
        write_opb(inst)


def test_write_includes_comments():
    text = write_opb(PbInstance(declared_vars=1), comments=["hello", "world"])
    assert "* hello\n* world\n" in text


# fuzzing: the parser must be total — either a PbInstance or an OpbError,
# never any other exception

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60
)
opb_ish = st.text(
    alphabet=st.sampled_from(list("x0123456789+-<>=; *\n")), max_size=80
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(printable, opb_ish))
def test_parser_is_total(text):
    try:
        inst = parse_opb(text)
    except OpbError:
        return
    assert isinstance(inst, PbInstance)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-9, max_value=9).filter(lambda w: w != 0),
            st.integers(min_value=1, max_value=6).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([LE, GE, EQ]),
    st.integers(min_value=-30, max_value=30),
)
def test_roundtrip_random_constraints(pairs, relation, bound):
    c = PBConstraint.from_signed(pairs, relation, bound)
    n = max(c.variables())
    back = parse_opb(write_opb(PbInstance(n, [c]))).constraints[0]
    import itertools

    variables = sorted(c.variables())
    for bits in itertools.product((False, True), repeat=len(variables)):
        a = dict(zip(variables, bits))
        assert c.holds(a) == back.holds(a)

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbcnf import (
    EQ,
    GE,
    LE,
    CnfFormula,
    PBConstraint,
    Term,
    from_signed,
    is_negative,
    lit,
    lit_str,
    lit_var,
    negate,
    to_signed,
)


def test_literal_codes():
    assert lit(1) == 2
    assert lit(1, negative=True) == 3
    assert lit(7) == 14
    assert lit_var(14) == 7
    assert lit_var(15) == 7
    assert not is_negative(lit(3))
    assert is_negative(negate(lit(3)))
    with pytest.raises(ValueError):
        lit(0)


def test_negate_is_involution():
    for v in range(1, 50):
        for neg in (False, True):
            l = lit(v, neg)
            assert negate(negate(l)) == l
            assert negate(l) != l


@given(st.integers(min_value=1, max_value=10**6), st.booleans())
def test_signed_roundtrip(v, neg):
    l = lit(v, neg)
    assert from_signed(to_signed(l)) == l
    s = -v if neg else v
    assert to_signed(from_signed(s)) == s


def test_from_signed_rejects_zero():
    with pytest.raises(ValueError):
        from_signed(0)


def test_lit_str():
    assert lit_str(lit(4)) == "x4"
    assert lit_str(lit(4, negative=True)) == "~x4"


def test_fresh_lit_numbers_above_num_vars():
    out = CnfFormula(num_vars=4)
    assert [out.fresh_lit() for _ in range(3)] == [lit(5), lit(6), lit(7)]
    assert out.num_vars == 7
    assert out.clauses == []


def test_constraint_from_signed():
    c = PBConstraint.from_signed([(2, 1), (3, -2)], LE, 5)
    assert c.terms == (Term(2, lit(1)), Term(3, lit(2, negative=True)))
    assert c.relation == LE
    assert c.bound == 5
    assert set(c.variables()) == {1, 2}


def test_variables_in_first_seen_order():
    c = PBConstraint.from_signed([(1, 3), (1, -1), (1, 3)], LE, 2)
    assert c.variables() == (3, 1)


def test_weighted_sum_and_holds():
    c = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4)], LE, 5)
    assert c.weighted_sum({1: True, 2: True, 3: False, 4: False}) == 5
    assert c.holds({1: True, 2: True, 3: False, 4: False})
    assert not c.holds({1: False, 2: True, 3: True, 4: False})
    # negated literal counts when its variable is false
    d = PBConstraint.from_signed([(4, -1)], GE, 4)
    assert d.holds({1: False})
    assert not d.holds({1: True})


def test_weighted_sum_unassigned_counts_false():
    c = PBConstraint.from_signed([(2, 1), (3, 2), (5, -3)], LE, 5)
    assert c.weighted_sum({1: True}) == 2 + 5  # x2 unset -> false, so ~x3 unset -> true
    assert c.weighted_sum({}) == 5


def test_relation_validation():
    with pytest.raises(ValueError):
        PBConstraint((Term(1, lit(1)),), "<", 1)
    for rel in (LE, GE, EQ):
        PBConstraint((Term(1, lit(1)),), rel, 1)


def test_is_normalized():
    good = PBConstraint.from_signed([(2, 1), (3, -2)], LE, 5)
    assert good.is_normalized()
    assert not PBConstraint.from_signed([(2, 1)], GE, 1).is_normalized()
    assert not PBConstraint.from_signed([(2, 1)], EQ, 1).is_normalized()
    assert not PBConstraint.from_signed([(7, 1)], LE, 5).is_normalized()  # w > k+1
    assert not PBConstraint.from_signed([(0, 1), (1, 2)], LE, 5).is_normalized()
    assert not PBConstraint.from_signed([(1, 1), (1, 1)], LE, 5).is_normalized()
    assert not PBConstraint.from_signed([(1, 1), (1, -1)], LE, 5).is_normalized()
    assert not PBConstraint.from_signed([(1, 1)], LE, -1).is_normalized()
    # literal codes below 2, the code of x1: 1, 0 and a negative code
    for code in (1, 0, -4):
        assert not PBConstraint((Term(1, code), Term(1, 4), Term(1, 6)), LE, 1).is_normalized()


def test_constraint_str():
    c = PBConstraint.from_signed([(2, 1), (3, -2)], LE, 5)
    assert str(c) == "2 x1 + 3 ~x2 <= 5"
    assert str(PBConstraint((), LE, 0)) == "0 <= 0"


def test_formula_add_clause_extends_vars():
    f = CnfFormula(num_vars=2)
    f.add_clause([lit(1), lit(2, negative=True)])
    assert f.num_vars == 2
    f.add_clause([lit(5, negative=True)])
    assert f.num_vars == 5
    assert f.num_clauses == 2
    assert not f.has_empty_clause()
    f.add_clause([])
    assert f.has_empty_clause()

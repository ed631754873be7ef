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
    lit,
    negate,
    to_signed,
)
from pbcnf.core import Clauses


def test_literal_codes():
    assert lit(1) == 2
    assert lit(1, negative=True) == 3
    assert lit(7) == 14
    assert negate(lit(7)) == lit(7, negative=True) == 15
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


def test_lit_str():
    assert str(PBConstraint((Term(1, lit(4)),), GE, 1)) == "1 x4 >= 1"
    assert str(PBConstraint((Term(1, lit(4, negative=True)),), GE, 1)) == "1 ~x4 >= 1"


def test_formula_add_clause_extends_vars():
    f = CnfFormula(num_vars=2)
    f.add_clause([lit(1), lit(2, negative=True)])
    assert f.num_vars == 2
    f.add_clause([lit(5, negative=True)])
    assert f.num_vars == 5
    assert f.num_clauses == 2
    assert [] not in f.clauses
    f.add_clause([])
    assert [] in f.clauses


def test_formula_refuses_literal_codes_below_2():
    # in the flat store code 0 would end the clause early; 1 and negative
    # codes name no literal
    for clause in ([0, 4], [1, 4], [-3, 4]):
        with pytest.raises(ValueError, match="below 2"):
            CnfFormula(3, [[2], clause])
        f = CnfFormula(3)
        with pytest.raises(ValueError, match="below 2"):
            f.add_clause(clause)
        assert f.lits == [] and f.num_vars == 3


def test_formula_keeps_clauses_in_one_flat_list():
    f = CnfFormula(3, [[2, 5], [], [7]])
    f.add_clause(iter([4, 6, 3]))
    assert f.lits == [2, 5, 0, 0, 7, 0, 4, 6, 3, 0]
    assert f.num_clauses == len(f.clauses) == 4
    assert f.clauses == [[2, 5], [], [7], [4, 6, 3]]
    assert f.clauses != [[2, 5], [], [7]]
    assert list(f.clauses) == [[2, 5], [], [7], [4, 6, 3]]
    with pytest.raises(AttributeError):
        f.clauses = []


def test_clause_view_indexes_and_slices_like_a_list():
    f = CnfFormula(4, [[2, 5], [], [7], [4, 6, 3], [9]])
    want = list(f.clauses)
    n = len(want)
    for i in range(-n, n):
        assert f.clauses[i] == want[i]
    for i in (n, n + 3, -n - 1, -n - 4):
        with pytest.raises(IndexError):
            f.clauses[i]
    v = f.clauses
    for sl in (slice(None), slice(1, 4), slice(-2, None), slice(None, None, -2), slice(-n - 5, n + 5, 3), slice(3, 1)):
        assert v[sl] == want[sl]
    assert CnfFormula().clauses[:] == []
    with pytest.raises(IndexError):
        CnfFormula().clauses[0]
    # a new view on each access, so an edit by hand between reads shows
    f.lits += [8, 0]
    assert f.clauses[-1] == [8] and len(f.clauses) == n + 1


def test_clause_views_compare_the_flat_lists(monkeypatch):
    f = CnfFormula(3, [[2, 5], [7]])
    g = CnfFormula(3, [[2, 5], [7]])
    h = CnfFormula(3, [[2, 5, 7]])

    def no_lists(self):
        raise AssertionError("a clause list was built")

    monkeypatch.setattr(Clauses, "__iter__", no_lists)
    assert f.clauses == g.clauses
    assert not f.clauses != g.clauses
    assert f.clauses != h.clauses

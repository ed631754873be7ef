"""Sequential weight counter, adder network, and totalizer tests.

The adder's propagation gap is pinned as a fixture here: on x1+x2+x3+x4 <= 2
with x1 and x2 asserted, unit propagation over the adder encoding derives
neither ~x3 nor ~x4, while the totalizer-family encodings derive both.
"""

import itertools
from types import SimpleNamespace

import pytest

from pbcnf import (
    LE,
    SAT,
    CnfFormula,
    PBConstraint,
    dimacs_str,
    encode_adder,
    encode_gte,
    encode_swc,
    encode_totalizer,
    Solver,
    lit,
    solve,
)

CARD4_LE2 = PBConstraint.from_signed([(1, 1), (1, 2), (1, 3), (1, 4)], LE, 2)


def encode(encoder, c):
    """Encode into a fresh formula; the counts come from `out`."""
    inputs = max(c.variables(), default=0)
    out = CnfFormula(num_vars=inputs)
    encoder(c, out)
    stats = SimpleNamespace(aux_vars=out.num_vars - inputs, aux_clauses=len(out.clauses))
    return SimpleNamespace(formula=out, stats=stats)


def assert_equisatisfiable(encoder, c):
    res = encode(encoder, c)
    variables = sorted(c.variables())
    for bits in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        assumptions = [lit(v, negative=not val) for v, val in assignment.items()]
        r = solve(res.formula, assumptions=assumptions)
        assert (r.status == SAT) == c.holds(assignment), (c, assignment)


# --- sequential weight counter ---


def test_swc_aux_grid_is_exactly_n_times_k():
    cases = [
        ([(2, 1), (3, 2), (3, 3), (3, 4)], 5),
        ([(1, 1), (2, 2)], 3),
        ([(4, 1), (4, 2), (4, 3)], 7),
    ]
    for pairs, k in cases:
        c = PBConstraint.from_signed(pairs, LE, k)
        res = encode(encode_swc, c)
        assert res.stats.aux_vars == len(pairs) * k


def test_swc_semantics():
    for pairs, k in [
        ([(2, 1), (3, 2), (3, 3), (3, 4)], 5),
        ([(3, 1), (2, -2), (1, 3)], 4),
        ([(1, 1), (1, -2), (1, 3), (1, 4), (1, 5)], 2),
    ]:
        assert_equisatisfiable(encode_swc, PBConstraint.from_signed(pairs, LE, k))


def test_swc_zero_bound_forces_everything_off():
    c = PBConstraint.from_signed([(1, 1), (1, -2)], LE, 0)
    assert c.is_normalized()
    res = encode(encode_swc, c)
    assert res.stats.aux_vars == 0
    assert res.formula.clauses == [[lit(1, negative=True)], [lit(2)]]


def test_swc_propagates_residual_bound():
    # 2 x1 + 3 x2 + 3 x3 + 3 x4 <= 5: once x2 is true, neither x3 nor x4 fits
    res = encode(encode_swc, PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4)], LE, 5))
    s = Solver(res.formula)
    assert s.assume_propagate([lit(2)]) is None
    assert {lit(3, negative=True), lit(4, negative=True)} <= set(s.trail)


def test_swc_rejects_non_normalized():
    with pytest.raises(ValueError):
        encode(encode_swc, PBConstraint.from_signed([(2, 1)], ">=", 1))


# --- adder network ---


def test_adder_semantics():
    for pairs, k in [
        ([(1, 1), (1, 2), (1, 3)], 2),
        ([(2, 1), (3, 2), (3, 3), (3, 4)], 5),
        ([(5, 1), (3, -2), (2, 3), (6, 4)], 9),
        ([(1, 1), (2, 2), (4, 3), (8, 4)], 10),
    ]:
        assert_equisatisfiable(encode_adder, PBConstraint.from_signed(pairs, LE, k))


def test_adder_single_oversized_term_becomes_unit():
    # 4 x1 <= 3: the only sum bit sits where the bound has a 0 and no higher
    # 1-bit can rescue it, so the comparator is a single unit clause
    c = PBConstraint.from_signed([(4, 1)], LE, 3)
    res = encode(encode_adder, c)
    assert res.stats.aux_vars == 0
    assert res.formula.clauses == [[lit(1, negative=True)]]


def test_adder_comparator_escape_on_constant_zero_bit():
    # 1 x1 + 2 x2 <= 4: bound bit 2 is 1 but no sum bit exists there, so sums
    # can never reach past it and no comparator clause is needed at all
    c = PBConstraint.from_signed([(1, 1), (2, 2)], LE, 4)
    res = encode(encode_adder, c)
    assert res.formula.num_clauses == 0


def test_adder_counts_small_card():
    # one full adder + two half adders + one two-literal comparator clause
    # + one unit comparator clause
    res = encode(encode_adder, CARD4_LE2)
    assert res.stats.aux_vars == 6
    assert res.stats.aux_clauses == 14 + 7 + 7 + 2


def test_adder_is_not_arc_consistent_fixture():
    res = encode(encode_adder, CARD4_LE2)
    s = Solver(res.formula)
    assert s.assume_propagate([lit(1), lit(2)]) is None
    # the bound is saturated, yet neither remaining input is falsified
    assert not {lit(3, negative=True), lit(4, negative=True)} & set(s.trail)

    # the same partial assignment on the generalized totalizer derives both
    s = Solver(encode(encode_gte, CARD4_LE2).formula)
    s.assume_propagate([lit(1), lit(2)])
    assert {lit(3, negative=True), lit(4, negative=True)} <= set(s.trail)


def test_adder_size_ignores_weight_magnitude_mostly():
    # doubling every weight and the bound shifts bit positions but cannot
    # change the bucket population pattern: aux count stays identical
    base = [(3, 1), (5, 2), (6, 3), (7, 4), (9, 5), (11, 6)]
    c1 = PBConstraint.from_signed(base, LE, 20)
    c2 = PBConstraint.from_signed([(w * 2, v) for w, v in base], LE, 40)
    r1 = encode(encode_adder, c1)
    r2 = encode(encode_adder, c2)
    assert r1.stats.aux_vars == r2.stats.aux_vars


def test_adder_rejects_non_normalized():
    with pytest.raises(ValueError):
        encode(encode_adder, PBConstraint.from_signed([(2, 1)], LE, -1))


# --- totalizer ---


def test_totalizer_matches_gte_on_weighted_constraints():
    c = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4)], LE, 5)
    a = encode(encode_totalizer, c)
    assert a.formula.clauses
    assert dimacs_str(a.formula) == dimacs_str(encode(encode_gte, c).formula)


def test_totalizer_matches_gte_on_cardinality():
    for n, k in [(3, 1), (4, 2), (5, 3), (6, 2)]:
        c = PBConstraint.from_signed([(1, v) for v in range(1, n + 1)], LE, k)
        a = encode(encode_totalizer, c)
        b = encode(encode_gte, c)
        assert a.formula.clauses == b.formula.clauses
        assert dimacs_str(a.formula) == dimacs_str(b.formula)


def test_totalizer_semantics():
    assert_equisatisfiable(encode_totalizer, CARD4_LE2)

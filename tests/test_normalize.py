"""Normal-form rewriting tests.

Every constraint handed to an encoder must come out of `normalize` as a
<=-inequality over distinct literals with positive weights no larger than
bound+1, or as one of the degenerate outcomes.  The brute-force property
test at the bottom is the authority: the rewrite must preserve the set of
satisfying assignments exactly.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from pbcnf import (
    EQ,
    GE,
    LE,
    OutcomeKind,
    PBConstraint,
    lit,
    normalize,
)

from conftest import assignments


def norm(pairs, relation, bound):
    return normalize(PBConstraint.from_signed(pairs, relation, bound))


def test_already_normal():
    out = norm([(2, 1), (3, 2)], LE, 4)
    assert out.kind is OutcomeKind.NORMALIZED
    assert out.constraint.is_normalized()
    assert out.forced_units == ()


def test_ge_flips_to_le_over_negations():
    # 2 x1 + 3 x2 >= 4  ->  2 ~x1 + 3 ~x2 <= 1
    out = norm([(2, 1), (3, 2)], GE, 4)
    assert out.kind is OutcomeKind.UNITS_ONLY or out.kind is OutcomeKind.NORMALIZED
    # w=2 and w=3 both exceed bound+1=2 after flipping, so both literals
    # are forced: x1 and x2 must be true
    assert set(out.forced_units) == {lit(1, negative=True), lit(2, negative=True)}


def test_negative_weight_moves_to_negation():
    # -3 x1 <= -1  becomes  3 ~x1 <= 2  -> ~x1 forced off, i.e. x1 forced on
    out = norm([(-3, 1)], LE, -1)
    assert out.kind is OutcomeKind.UNITS_ONLY
    assert out.forced_units == (lit(1, negative=True),)


def test_zero_weights_dropped():
    out = norm([(0, 1), (2, 2)], LE, 3)
    assert out.kind is OutcomeKind.TRIVIALLY_TRUE


def test_duplicate_merge():
    out = norm([(1, 1), (2, 1), (1, 2)], LE, 3)
    assert out.kind is OutcomeKind.NORMALIZED
    weights = {t.lit: t.weight for t in out.constraint.terms}
    assert weights == {lit(1): 3, lit(2): 1}


def test_opposite_polarities_cancel():
    # 2 x1 + 3 ~x1 <= 4: min(2,3)=2 of weight is unconditional
    # -> 1 ~x1 <= 2, vacuous
    out = norm([(2, 1), (3, -1)], LE, 4)
    assert out.kind is OutcomeKind.TRIVIALLY_TRUE

    out = norm([(2, 1), (3, -1)], LE, 2)
    assert out.kind is OutcomeKind.UNITS_ONLY
    assert out.forced_units == (lit(1, negative=True),)


def test_negative_bound_is_false():
    out = norm([(1, 1)], LE, -1)
    assert out.kind is OutcomeKind.TRIVIALLY_FALSE


def test_vacuous_is_true():
    out = norm([(1, 1), (2, 2)], LE, 3)
    assert out.kind is OutcomeKind.TRIVIALLY_TRUE
    assert norm([], LE, 0).kind is OutcomeKind.TRIVIALLY_TRUE


def test_oversized_weights_become_units():
    out = norm([(5, 1), (2, 2), (2, 3)], LE, 3)
    assert out.kind is OutcomeKind.NORMALIZED
    assert out.forced_units == (lit(1),)
    assert set(out.constraint.variables()) == {2, 3}
    assert out.constraint.bound == 3


def test_all_weights_oversized():
    out = norm([(5, 1), (7, 2)], LE, 3)
    assert out.kind is OutcomeKind.UNITS_ONLY
    assert set(out.forced_units) == {lit(1), lit(2)}


def test_equality_splits():
    out = norm([(2, 1), (3, 2)], EQ, 3)
    assert out.kind is OutcomeKind.EQUALITY_SPLIT
    assert len(out.parts) == 2
    kinds = {p.kind for p in out.parts}
    assert OutcomeKind.TRIVIALLY_FALSE not in kinds
    flat = out.flatten()
    assert all(p.kind is not OutcomeKind.EQUALITY_SPLIT for p in flat)


def _models(c: PBConstraint, variables):
    return {tuple(a.values()) for a in assignments(variables) if c.holds(a)}


def _outcome_models(out, variables):
    """Satisfying assignments of a NormalizationOutcome, by enumeration."""
    sat = set()
    for a in assignments(variables):
        ok = True
        for part in out.flatten():
            if part.kind is OutcomeKind.TRIVIALLY_FALSE:
                ok = False
            for u in part.forced_units:
                # forced unit u means literal u must be false
                if a[u >> 1] != bool(u & 1):
                    ok = False
            if part.constraint is not None and not part.constraint.holds(a):
                ok = False
            if not ok:
                break
        if ok:
            sat.add(tuple(a.values()))
    return sat


coef = st.integers(min_value=-6, max_value=6)
signed_var = st.integers(min_value=1, max_value=4).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(coef, signed_var), min_size=0, max_size=5),
    st.sampled_from([LE, GE, EQ]),
    st.integers(min_value=-15, max_value=15),
)
def test_normalize_preserves_models(pairs, relation, bound):
    c = PBConstraint.from_signed(pairs, relation, bound)
    variables = sorted(c.variables()) or [1]
    out = normalize(c)
    assert _models(c, variables) == _outcome_models(out, variables)
    for part in out.flatten():
        if part.constraint is not None:
            assert part.constraint.is_normalized()


def test_normalize_idempotent():
    c = PBConstraint.from_signed([(2, 1), (-3, -2), (4, 3)], LE, 4)
    out = normalize(c)
    assert out.kind is OutcomeKind.NORMALIZED
    again = normalize(out.constraint)
    assert again.kind is OutcomeKind.NORMALIZED
    assert again.constraint == out.constraint
    assert again.forced_units == ()


def test_normalize_scales_linearly():
    # not a benchmark, just a guard against accidental quadratic rewrites
    def once(n):
        pairs = [(((i * 7) % 9) - 4, i + 1) for i in range(n)]
        c = PBConstraint.from_signed(pairs, GE, n // 3)
        t0 = time.perf_counter()
        for _ in range(20):
            normalize(c)
        return time.perf_counter() - t0

    small, big = once(200), once(2000)
    assert big < small * 40  # 10x input, generous 4x slack over linear

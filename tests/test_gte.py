"""Generalized totalizer encoder tests.

The worked four-term example 2 x1 + 3 x2 + 3 x3 + 3 x4 <= 5 is pinned down to
the byte level: its tree has left child A over (2,3), right child B over (3,3),
and the expected sum sets, variable numbering, clause list and the final unit
clause are all frozen here.  Subset-sum sets are cross-checked against a
direct enumeration oracle.
"""

import itertools
from types import SimpleNamespace

from pbcnf import (
    LE,
    SAT,
    UNSAT,
    CnfFormula,
    PBConstraint,
    VarPool,
    build_tree,
    dimacs_str,
    encode_gte,
    lit,
    merge_sums,
    node_sums,
    solve,
)

REFERENCE = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4)], LE, 5)

REFERENCE_DIMACS = (
    "p cnf 13 18\n"
    "-1 -2 7 0\n"
    "-1 5 0\n"
    "-2 6 0\n"
    "-3 -4 9 0\n"
    "-3 8 0\n"
    "-4 8 0\n"
    "-5 -8 12 0\n"
    "-5 -9 13 0\n"
    "-6 -8 13 0\n"
    "-6 -9 13 0\n"
    "-7 -8 13 0\n"
    "-7 -9 13 0\n"
    "-5 10 0\n"
    "-6 11 0\n"
    "-7 12 0\n"
    "-8 11 0\n"
    "-9 13 0\n"
    "-13 0\n"
)


def subset_sums_oracle(weights, k):
    """Distinct non-empty-subset sums clamped at k+1, by direct enumeration."""
    seen = set()
    for r in range(1, len(weights) + 1):
        for combo in itertools.combinations(range(len(weights)), r):
            seen.add(min(sum(weights[i] for i in combo), k + 1))
    return sorted(seen)


def encode(c):
    """Encode into a fresh formula; the counts come from the pool and `out`."""
    inputs = max(c.variables(), default=0)
    pool = VarPool(next_free=inputs + 1)
    out = CnfFormula(num_vars=inputs)
    encode_gte(c, pool, out)
    stats = SimpleNamespace(aux_vars=pool.next_free - 1 - inputs, aux_clauses=len(out.clauses))
    return SimpleNamespace(formula=out, stats=stats)


def test_reference_tree_sums():
    tree = build_tree(REFERENCE)
    a, b = tree.root.children
    assert a.children[0].weight == 2 and a.children[1].weight == 3
    assert sorted(a.sums) == [2, 3, 5]
    assert sorted(b.sums) == [3, 6]
    assert sorted(tree.root.sums) == [2, 3, 5, 6]
    assert tree.root.node_sum == 11


def test_reference_encoding_counts_and_root_unit():
    res = encode(REFERENCE)
    assert res.stats.aux_vars == 9
    assert res.stats.aux_clauses == 18
    # the last clause forbids the root's bound+1 variable
    assert res.formula.clauses[-1] == [lit(13, negative=True)]


def test_reference_encoding_exact_bytes():
    res = encode(REFERENCE)
    assert dimacs_str(res.formula) == REFERENCE_DIMACS


def test_reference_combination_clause_present():
    # reaching 3 in both subtrees overflows the bound: 3+3 clamps to 6
    res = encode(REFERENCE)
    codes = [lit(6, negative=True), lit(8, negative=True), lit(13)]
    assert codes in res.formula.clauses


def test_encoding_is_deterministic():
    assert dimacs_str(encode(REFERENCE).formula) == dimacs_str(encode(REFERENCE).formula)


def test_node_sums_examples():
    assert node_sums([2, 3, 3, 3], 5) == [2, 3, 5, 6]
    # 20 = 5+5+5+5 would need four fives; only three exist
    assert node_sums([5, 5, 5, 7], 30) == [5, 7, 10, 12, 15, 17, 22]
    assert node_sums([], 10) == []
    assert node_sums([4], 10) == [4]
    assert node_sums([4], 2) == [3]  # clamped at k+1


def test_node_sums_matches_enumeration_oracle():
    cases = [
        ([2, 3, 3, 3], 5),
        ([5, 5, 5, 7], 30),
        ([1, 2, 4, 8, 16], 100),
        ([1, 2, 4, 8, 16], 10),
        ([7, 7, 7, 7, 7, 7], 20),
        ([3, 1, 4, 1, 5, 9, 2, 6], 17),
        ([456, 1, 456, 1, 456, 1], 700),
    ]
    for weights, k in cases:
        assert node_sums(weights, k) == subset_sums_oracle(weights, k), (weights, k)


def test_unit_weights_collapse_to_counts():
    for n in range(1, 9):
        for k in range(n):
            assert node_sums([1] * n, k) == list(range(1, min(n, k + 1) + 1))


def test_merge_sums_clamps():
    assert merge_sums([2, 3, 5], [3, 6], 6) == [2, 3, 5, 6]
    assert merge_sums([1], [1], 10) == [1, 2]
    # inputs arrive pre-clamped (leaves clamp at build time); only the
    # pairwise sums need clamping here
    assert merge_sums([3], [3], 3) == [3]


def test_sums_sorted_and_capped():
    c = PBConstraint.from_signed([(3, 1), (1, 2), (4, 3), (1, 4), (5, 5)], LE, 9)
    tree = build_tree(c)

    def walk(node):
        assert node.sums == sorted(set(node.sums))
        assert all(1 <= s <= c.bound + 1 for s in node.sums)
        if node.children:
            walk(node.children[0])
            walk(node.children[1])

    walk(tree.root)


def test_split_point_puts_extra_leaf_left():
    c = PBConstraint.from_signed([(1, 1), (1, 2), (2, 3)], LE, 2)
    tree = build_tree(c)
    left, right = tree.root.children
    assert not left.is_leaf and left.children[0].lit == lit(1)
    assert right.is_leaf and right.lit == lit(3)


def test_vacuous_constraint_emits_nothing():
    c = PBConstraint.from_signed([(1, 1), (2, 2)], LE, 3)
    assert c.is_normalized()
    res = encode(c)
    assert res.stats.aux_vars == 0
    assert res.stats.aux_clauses == 0
    assert res.formula.num_clauses == 0


def test_rejects_non_normalized():
    import pytest

    with pytest.raises(ValueError):
        encode(PBConstraint.from_signed([(2, 1), (3, 2)], ">=", 4))
    with pytest.raises(ValueError):
        encode(PBConstraint.from_signed([(9, 1), (3, 2)], LE, 4))


def test_only_forward_direction_constrained():
    # aux variables may be true even when their sum is not reached; the
    # encoding must stay satisfiable if one is forced on under an otherwise
    # all-false input assignment
    res = encode(REFERENCE)
    inputs_false = [lit(v, negative=True) for v in (1, 2, 3, 4)]
    r = solve(res.formula, assumptions=inputs_false + [lit(10)])
    assert r.status == SAT
    # ...but the bound+1 root variable is forced off outright
    r = solve(res.formula, assumptions=[lit(13)])
    assert r.status == UNSAT


def test_semantics_on_all_full_assignments():
    res = encode(REFERENCE)
    for bits in itertools.product((False, True), repeat=4):
        assignment = dict(zip((1, 2, 3, 4), bits))
        assumptions = [lit(v, negative=not val) for v, val in assignment.items()]
        r = solve(res.formula, assumptions=assumptions)
        assert (r.status == SAT) == REFERENCE.holds(assignment), assignment

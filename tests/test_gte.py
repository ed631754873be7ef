"""Generalized totalizer encoder tests.

The worked four-term example 2 x1 + 3 x2 + 3 x3 + 3 x4 <= 5 is pinned down to
the byte level: its tree has left child A over (2,3), right child B over (3,3),
and the expected sum sets, variable numbering, clause list and the final unit
clause are all frozen here.  Subset-sum sets are cross-checked against a
direct enumeration oracle.
"""

import hashlib
import itertools
from types import SimpleNamespace

from pbcnf import (
    LE,
    SAT,
    UNSAT,
    CnfFormula,
    PBConstraint,
    Solver,
    SplitMix64,
    Term,
    build_tree,
    dimacs_str,
    encode_auto,
    encode_gte,
    lit,
    random_normalized_constraint,
    solve,
)
from pbcnf import gte
from pbcnf.gte import merge_sums

from conftest import by_weight, node_sums

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


def encode(c, encoder=encode_gte):
    """Encode into a fresh formula; the counts come from `out`."""
    inputs = max(c.variables(), default=0)
    out = CnfFormula(num_vars=inputs)
    encoder(c, out)
    stats = SimpleNamespace(aux_vars=out.num_vars - inputs, aux_clauses=len(out.clauses))
    return SimpleNamespace(formula=out, stats=stats)


def test_reference_tree_sums():
    tree = build_tree(REFERENCE)
    a, b = tree.root.children
    assert a.children[0].var_of == {2: lit(1)} and a.children[1].var_of == {3: lit(2)}
    assert sorted(a.sums) == [2, 3, 5]
    assert sorted(b.sums) == [3, 6]
    assert sorted(tree.root.sums) == [2, 3, 5, 6]


def test_reference_encoding_counts_and_root_unit():
    res = encode(REFERENCE)
    assert res.stats.aux_vars == 9
    assert res.stats.aux_clauses == 18
    # the last clause forbids the root's bound+1 variable
    assert list(res.formula.clauses)[-1] == [lit(13, negative=True)]


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


def test_build_tree_on_the_empty_constraint_agrees_with_node_sums():
    tree = build_tree(PBConstraint((), LE, 3))
    assert tree.root.sums == node_sums([], 3) == []
    assert tree.root.is_leaf
    assert tree.bound == 3


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
    assert not left.is_leaf and left.children[0].var_of == {1: lit(1)}
    assert right.is_leaf and right.var_of == {2: lit(3)}


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


# --- auto: weight-sorted leaves, only the sums that can reach bound+1 ---


def floor_sum_count(weights, k, floor, top=None):
    """Sum over the internal nodes of the tree `build_tree` makes over
    `weights` of |{s in sums : floor <= s < top}| (top defaults to k+2, so
    bound+1 counts), with each node's sums found by subset enumeration and
    each child's floor its parent's less the sibling's largest sum (never
    below 0)."""
    if len(weights) < 2:
        return 0
    top = k + 2 if top is None else top
    mid = (len(weights) + 1) // 2
    left, right = weights[:mid], weights[mid:]
    span = lambda ws: min(sum(ws), k + 1)
    return (
        sum(1 for s in subset_sums_oracle(weights, k) if floor <= s < top)
        + floor_sum_count(left, k, max(0, floor - span(right)), top)
        + floor_sum_count(right, k, max(0, floor - span(left)), top)
    )


def auto_var_count(weights, k):
    """The variables `auto` gives a constraint, by subset enumeration over
    its sorted weights.  The root and bound+1 get none.  An internal child
    of the root gets one per nonempty overflow class: its sums below k+1
    grouped by how many of its sibling's sums below k+1 they reach k+1
    with, that number nonzero.  Deeper internal nodes get one per sum in
    [floor, k+1)."""
    weights = sorted(weights)
    if len(weights) < 2:
        return 0
    below = lambda ws: [s for s in subset_sums_oracle(ws, k) if s <= k]
    span = lambda ws: min(sum(ws), k + 1)
    mid = (len(weights) + 1) // 2
    halves = weights[:mid], weights[mid:]
    count = 0
    for own, other in (halves, halves[::-1]):
        if len(own) < 2:
            continue
        count += len({sum(x + y > k for y in below(other)) for x in below(own)} - {0})
        floor = k + 1 - span(other)
        half = (len(own) + 1) // 2
        for part, rest in ((own[:half], own[half:]), (own[half:], own[:half])):
            count += floor_sum_count(part, k, max(0, floor - span(rest)), k + 1)
    return count


def auto_cases():
    """Seeded normalized constraints, with the edge cases named: single
    terms, weights of exactly bound+1, vacuous constraints and unit weights."""
    cases = [
        PBConstraint.from_signed([(4, 1)], LE, 3),  # one term of weight k+1
        PBConstraint.from_signed([(2, -1)], LE, 3),  # one term, vacuous
        PBConstraint.from_signed([(1, 1), (2, 2)], LE, 3),  # vacuous
        PBConstraint.from_signed([(4, 1), (1, 2), (4, 3), (2, 4)], LE, 3),
        PBConstraint.from_signed([(1, v) for v in range(1, 8)], LE, 3),
        REFERENCE,
    ]
    rng = SplitMix64(77)
    for _ in range(60):
        cases.append(random_normalized_constraint(rng, max_n=8, max_weight=12, max_bound=30))
    for _ in range(10):  # unit weights, on top of the generator's one in ten
        n = rng.randint(1, 8)
        terms = tuple(Term(1, lit(v, negative=rng.chance(1, 4))) for v in rng.sample(1, 8, n))
        cases.append(PBConstraint(terms, LE, rng.randint(1, n + 2)))
    for _ in range(20):  # many weights of exactly k+1
        k = rng.randint(0, 6)
        weights = [k + 1 if rng.chance(1, 3) else rng.randint(1, k + 1) for _ in range(rng.randint(1, 6))]
        cases.append(PBConstraint(tuple(Term(w, lit(v)) for v, w in enumerate(weights, 1)), LE, k))
    return cases


def encode_auto_tree(c, monkeypatch):
    """`encode(c, encode_auto)` and the root of the tree encode_auto built."""
    built = []
    tree = gte._tree

    def spy(*args):
        built.append(tree(*args))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(gte, "_tree", spy)
        res = encode(c, encode_auto)
    (root,) = built
    return root, res


def internal_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if node.children:
            yield node
            stack.extend(node.children)


def held(root):
    """How many sums the internal nodes of a tree hold."""
    return sum(len(node.sums) for node in internal_nodes(root))


def test_auto_counts_only_sums_at_or_above_the_floor(monkeypatch):
    weighted = vacuous = 0
    for c in auto_cases():
        weights = [w for w, _ in c.terms]
        root, res = encode_auto_tree(c, monkeypatch)
        auto = res.stats.aux_vars
        full = encode(c).stats.aux_vars
        assert held(build_tree(c).root) == floor_sum_count(weights, c.bound, 0), c
        if sum(weights) <= c.bound:
            vacuous += 1
            assert auto == full == held(root) == 0, c
            continue
        assert auto == auto_var_count(weights, c.bound), c
        assert full == floor_sum_count(weights, c.bound, 0), c
        # auto's tree holds every sum it gives a variable, never bound+1
        assert all(set(n.var_of) <= set(n.sums) - {c.bound + 1} for n in internal_nodes(root)), c
        weighted += auto < encode(by_weight(c)).stats.aux_vars
    assert vacuous >= 3 and weighted >= 30


def wide_row(n):
    """n weights from 1..10^6 by SplitMix64 seed 5, bound half their sum."""
    rng = SplitMix64(5)
    weights = [rng.randint(1, 10**6) for _ in range(n)]
    return PBConstraint(tuple(Term(w, lit(v)) for v, w in enumerate(weights, 1)), LE, sum(weights) // 2)


def test_auto_writes_no_subsumed_clause():
    # clauses are at most ternary, so a clause is subsumed exactly when it
    # repeats another or one of its proper subsets is a clause too
    for c in auto_cases() + [wide_row(20)]:
        clauses = [frozenset(cl) for cl in encode(c, encode_auto).formula.clauses]
        seen = set(clauses)
        assert len(seen) == len(clauses) and max(map(len, seen), default=0) <= 3, c
        subsets = (frozenset(s) for cl in seen for r in range(1, len(cl)) for s in itertools.combinations(cl, r))
        assert seen.isdisjoint(subsets), c


def test_auto_exact_bytes():
    # auto's DIMACS on the seeded cases and the 20-term wide row, one digest
    # over the texts in order; `gte`'s bytes are pinned by the reference loops
    h = hashlib.sha256()
    for c in auto_cases() + [wide_row(20)]:
        h.update(dimacs_str(encode(c, encode_auto).formula).encode())
    assert h.hexdigest() == "2f33c184aeb4e2f1714b04d408ee03e3ed4804662409e358015d331ea343045d"


def test_auto_propagates_like_unpruned_sorted_gte():
    # for every partial input assignment, unit propagation on auto's CNF
    # derives the same input literals as the full encoding over the same
    # sorted leaves, and runs into a conflict exactly when it does
    rng = SplitMix64(78)
    tried = conflicts = derived = 0
    for c in auto_cases():
        variables = c.variables()
        pruned = Solver(encode(c, encode_auto).formula)
        full = Solver(encode(by_weight(c)).formula)
        n = len(variables)
        if 3**n <= 729:
            samples = itertools.product((0, 1, 2), repeat=n)
        else:
            samples = ([rng.randint(0, 2) for _ in range(n)] for _ in range(500))
        for digits in samples:
            partial = [lit(v, negative=d == 1) for v, d in zip(variables, digits) if d]
            seen = []
            for solver in (pruned, full):
                confl = solver.assume_propagate(partial)
                inputs = {l for l in solver.trail if l >> 1 in variables}
                seen.append((confl is not None, inputs if confl is None else None))
            assert seen[0] == seen[1], (c, partial)
            tried += 1
            conflicts += seen[0][0]
            derived += not seen[0][0] and len(seen[0][1]) > len(partial)
    assert tried >= 15_000 and conflicts >= 4_000 and derived >= 3_000


def test_auto_on_a_wide_weight_row(monkeypatch):
    # 20 weights from 1..10^6, bound half their sum: few sums of the full
    # tree can still reach bound+1
    c = wide_row(20)
    formed = []
    merge = gte.merge_sums

    def counted(*args):
        sums = merge(*args)
        formed.append(len(sums))
        return sums

    monkeypatch.setattr(gte, "merge_sums", counted)
    root, res = encode_auto_tree(c, monkeypatch)
    assert (res.formula.num_vars, res.formula.num_clauses) == (812, 49_605)
    assert held(root) == 1_817
    # the merges form no sum below a node's floor: only the sums held
    assert sum(formed) == 1_817
    assert held(build_tree(by_weight(c)).root) == 444_737

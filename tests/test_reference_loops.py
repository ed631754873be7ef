"""Differential tests: the table- and comprehension-based hot paths against
the plain per-literal loops they replaced.

The reference functions below are the straightforward versions of
`merge_sums`, the GTE clause emission, `dimacs_str` and the `Solver` clause
loader.  The fast versions must give exactly the same sums, clauses (order
and literal order included), variable counts, DIMACS bytes, watch lists and
root units.
"""

from __future__ import annotations

from heapq import heappush

import pytest

from pbcnf import (
    CnfFormula,
    Solver,
    SplitMix64,
    VarPool,
    build_tree,
    compile_constraints,
    dimacs_str,
    encode_gte,
    merge_sums,
    negate,
    random_normalized_constraint,
    to_signed,
)

# --- reference implementations ------------------------------------------


def ref_merge_sums(a, b, cap):
    out = set(a)
    out.update(b)
    for x in a:
        for y in b:
            out.add(min(x + y, cap))
    return sorted(out)


def ref_add_clause(out, lits):
    cl = list(lits)
    for l in cl:
        if l >> 1 > out.num_vars:
            out.num_vars = l >> 1
    out.clauses.append(cl)


def ref_emit(node, cap, pool, out):
    if node.is_leaf:
        return
    left, right = node.children
    ref_emit(left, cap, pool, out)
    ref_emit(right, cap, pool, out)
    for s in node.sums:
        node.var_of[s] = pool.fresh_lit()
    for w1 in left.sums:
        q = left.var_of[w1]
        for w2 in right.sums:
            ref_add_clause(out, [negate(q), negate(right.var_of[w2]), node.var_of[min(w1 + w2, cap)]])
    for child in (left, right):
        for s in child.sums:
            ref_add_clause(out, [negate(child.var_of[s]), node.var_of[s]])


def ref_encode_gte(c, pool, out):
    tree = build_tree(c)
    if tree.root.node_sum > c.bound:
        cap = c.bound + 1
        ref_emit(tree.root, cap, pool, out)
        ref_add_clause(out, [negate(tree.root.var_of[cap])])
    if pool.next_free - 1 > out.num_vars:
        out.num_vars = pool.next_free - 1


def ref_dimacs_str(formula):
    out = [f"p cnf {formula.num_vars} {len(formula.clauses)}\n"]
    for cl in formula.clauses:
        if cl:
            out.append(" ".join(str(to_signed(l)) for l in cl) + " 0\n")
        else:
            out.append("0\n")
    return "".join(out)


def ref_load(formula):
    """The loader's per-literal dedupe loop, applied to every clause."""
    nv = formula.num_vars
    for cl in formula.clauses:
        for l in cl:
            if l >> 1 > nv:
                nv = l >> 1
    clauses, root_units, root_conflict = [], [], None
    watches = [[] for _ in range(2 * nv + 2)]
    for idx, cl in enumerate(formula.clauses):
        lits = []
        skip = False
        for l in cl:
            if l ^ 1 in lits:
                skip = True
                break
            if l not in lits:
                lits.append(l)
        if skip:
            clauses.append(None)
            continue
        clauses.append(lits)
        if len(lits) >= 2:
            watches[lits[0]].append(idx)
            watches[lits[1]].append(idx)
        elif len(lits) == 1:
            root_units.append((lits[0], idx))
        else:
            root_conflict = idx
    prio = []
    for v in range(1, nv + 1):
        heappush(prio, (0.0, v))
    return nv, clauses, watches, root_units, root_conflict, prio


def assert_same_load(formula):
    s = Solver(formula)
    nv, clauses, watches, root_units, root_conflict, prio = ref_load(formula)
    assert s.nvars == nv
    assert s.clauses == clauses
    assert s.watches == watches
    assert s._root_units == root_units
    assert s.root_conflict == root_conflict
    assert s.prio == prio
    assert s.num_original == len(formula.clauses)
    # the solver works on copies: the formula's clauses stay untouched
    assert all(a is not b for a, b in zip(s.clauses, formula.clauses))


def random_constraints(seed, count=120):
    rng = SplitMix64(seed)
    return [random_normalized_constraint(rng, 12, 20, 45) for _ in range(count)]


def clamp_kinds(c):
    """Which internal nodes of c's tree have pairs that clamp to bound+1."""
    cap = c.bound + 1
    kinds = set()
    stack = [build_tree(c).root]
    while stack:
        node = stack.pop()
        if node.children:
            left, right = node.children
            kinds.add(left.sums[-1] + right.sums[-1] >= cap)
            stack.extend(node.children)
    return kinds


# --- tree sums and emission ----------------------------------------------


def test_merge_sums_matches_reference_on_random_lists():
    rng = SplitMix64(11)
    for _ in range(400):
        cap = rng.randint(1, 40)
        a = sorted({rng.randint(1, cap) for _ in range(rng.randint(0, 8))})
        b = sorted({rng.randint(1, cap) for _ in range(rng.randint(0, 8))})
        assert merge_sums(a, b, cap) == ref_merge_sums(a, b, cap), (a, b, cap)
        assert merge_sums(b, a, cap) == ref_merge_sums(b, a, cap), (b, a, cap)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gte_emission_matches_reference(seed):
    kinds = set()
    for c in random_constraints(seed):
        kinds |= clamp_kinds(c)
        top = max(c.variables())
        # a pool starting at 1 overlaps the inputs, so there only the clauses
        # bring the input variables into num_vars
        for num_vars, start in ((0, top + 1), (top, top + 1), (0, 1)):
            got, want = CnfFormula(num_vars=num_vars), CnfFormula(num_vars=num_vars)
            got_pool, want_pool = VarPool(start), VarPool(start)
            encode_gte(c, got_pool, got)
            ref_encode_gte(c, want_pool, want)
            assert got.clauses == want.clauses, str(c)
            assert got.num_vars == want.num_vars, str(c)
            assert got_pool.next_free == want_pool.next_free
    assert kinds == {True, False}, "sample must hold nodes that clamp and nodes that do not"


def test_gte_emission_appends_like_reference():
    # several constraints into one formula, as compile_constraints does
    constraints = random_constraints(4, count=30)
    start = max(max(c.variables()) for c in constraints) + 1
    got, want = CnfFormula(), CnfFormula()
    got_pool, want_pool = VarPool(start), VarPool(start)
    for c in constraints:
        encode_gte(c, got_pool, got)
        ref_encode_gte(c, want_pool, want)
    assert got.clauses == want.clauses
    assert got.num_vars == want.num_vars


# --- DIMACS writer and solver loader ---------------------------------------


def hand_built():
    """Formulas with every clause shape the writer and the loader meet."""
    return [
        CnfFormula(),
        CnfFormula(num_vars=3),
        CnfFormula(num_vars=2, clauses=[[]]),
        CnfFormula(num_vars=3, clauses=[[2], [4, 7], [], [6, 3, 4]]),
        # repeated literals in binary, ternary and long clauses
        CnfFormula(
            num_vars=3, clauses=[[2, 2], [2, 2, 4], [2, 4, 2], [2, 4, 4], [4, 4, 4], [6, 2, 6, 4], [3, 3]]
        ),
        # tautologies
        CnfFormula(
            num_vars=3, clauses=[[2, 3], [3, 2, 4], [2, 4, 3], [2, 4, 5], [6, 2, 4, 7], [5, 4, 2]]
        ),
        # literals above num_vars, in every clause length
        CnfFormula(num_vars=2, clauses=[[9], [2, 11], [4, 12, 14], [15, 2, 4, 16], [20, 21]]),
        CnfFormula(num_vars=0, clauses=[[40, 41], [43]]),
        # long clauses and units mixed with the fast-path lengths
        CnfFormula(num_vars=6, clauses=[[2, 4, 6, 8, 10, 12], [3], [5, 7], [9, 11, 13], [2]]),
    ]


def compiled_formulas():
    out = []
    for enc in ("gte", "swc", "adder", "auto"):
        for c in random_constraints(5, count=12):
            out.append(compile_constraints([c], max(c.variables()), enc).formula)
    return out


def test_dimacs_str_matches_reference():
    for f in hand_built() + compiled_formulas():
        assert dimacs_str(f) == ref_dimacs_str(f), f


def test_solver_load_matches_reference():
    for f in hand_built() + compiled_formulas():
        assert_same_load(f)

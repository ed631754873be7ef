"""Shared helpers for the test suite, and the oracles that only tests read."""

from __future__ import annotations

from pbcnf import LE, CnfFormula, PBConstraint, Term, build_tree, lit


def formula(num_vars, signed_clauses):
    f = CnfFormula(num_vars=num_vars)
    for cl in signed_clauses:
        f.add_clause([lit(abs(n), negative=n < 0) for n in cl])
    return f


def by_weight(c):
    return PBConstraint(tuple(sorted(c.terms, key=lambda t: t.weight)), c.relation, c.bound)


def node_sums(weights, k):
    """Sorted distinct non-empty-subset sums of a weight multiset, clamped at
    k+1: the root sums of the tree `build_tree` builds over them."""
    c = PBConstraint(tuple(Term(w, lit(v)) for v, w in enumerate(weights, 1)), LE, k)
    return build_tree(c).root.sums


def eq4_count(weights, k: int) -> int:
    """Number of distinct non-empty-subset sums clamped at k+1, by direct
    enumeration of all subsets (the counting rule the tree encoder must match).
    """
    ws = list(weights)
    n = len(ws)
    if n > 20:
        raise ValueError("subset enumeration capped at 20 weights")
    cap = k + 1
    sums = [0] * (1 << n)
    distinct = set()
    for mask in range(1, 1 << n):
        low = mask & -mask
        s = sums[mask ^ low] + ws[low.bit_length() - 1]
        sums[mask] = s
        distinct.add(s if s < cap else cap)
    return len(distinct)


def random_constraint(rng) -> PBConstraint:
    """Unrestricted constraint for normalizer torture: any relation, negative
    and zero weights, repeated variables.  1 to 6 terms over x1..x6, weights
    in -10..10, bound in -20..20."""
    n = rng.randint(1, 6)
    terms = []
    for _ in range(n):
        w = rng.randint(-10, 10)
        v = rng.randint(1, 6)
        terms.append(Term(w, lit(v, negative=rng.chance(1, 2))))
    relation = rng.choice(("<=", ">=", "="))
    return PBConstraint(tuple(terms), relation, rng.randint(-20, 20))

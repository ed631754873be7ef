"""Tree encoder for weighted less-or-equal constraints (generalized totalizer).

A balanced binary tree is built over the weighted input literals.  Each node
carries the set of distinct weighted sums its subtree can reach, clamped at
bound+1 (every overflowing sum collapses onto the single value bound+1, which
is all the constraint needs to distinguish).  One auxiliary variable per
reachable sum per internal node; leaves reuse the input literals directly.

Per internal node P with children Q, R the emitted clauses are
  (~q_w1 | ~r_w2 | p_w3)   with w3 = min(w1+w2, bound+1)   -- combination
  (~s_w  | p_w)            for every sum var s_w of Q or R -- boundary
and a single unit clause forbids the root's bound+1 variable.  Only the
"sum reached implies node variable true" direction is constrained; the
converse is intentionally left open.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .core import CnfFormula, PBConstraint, VarPool, negate


@dataclass
class GteNode:
    sums: list[int]
    var_of: dict[int, int] = field(default_factory=dict)
    node_sum: int = 0  # unclamped maximum the subtree can reach
    children: tuple["GteNode", "GteNode"] | None = None
    lit: int | None = None  # leaves only
    weight: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass
class GteTree:
    root: GteNode
    bound: int


def merge_sums(a: list[int], b: list[int], cap: int) -> list[int]:
    """Distinct clamped sums reachable from two children: each side alone plus
    every pairwise combination, all clamped at cap."""
    out = set(a)
    out.update(b)
    top = max(b, default=None)
    for x in a:
        lim = cap - x
        out.update([x + y for y in b if y < lim])
        if top is not None and top >= lim:
            out.add(cap)
    return sorted(out)


def node_sums(weights: list[int], k: int) -> list[int]:
    """Sorted distinct non-empty-subset sums of a weight multiset, clamped at
    k+1: the root sums of the tree `build_tree` would build over them."""
    if not weights:
        return []
    cap = k + 1
    leaves = [GteNode(sums=[min(w, cap)], node_sum=w, weight=w) for w in weights]
    return _build(leaves, cap, 0, len(leaves)).sums


def build_tree(c: PBConstraint) -> GteTree:
    """Balanced tree over the constraint's terms in input order; spans split at
    ceil(len/2)."""
    if not c.terms:
        raise ValueError("cannot build a tree over an empty constraint")
    cap = c.bound + 1
    leaves = [
        GteNode(sums=[min(w, cap)], var_of={min(w, cap): l}, node_sum=w, lit=l, weight=w)
        for w, l in c.terms
    ]

    return GteTree(root=_build(leaves, cap, 0, len(leaves)), bound=c.bound)


def _build(leaves: list[GteNode], cap: int, lo: int, hi: int) -> GteNode:
    # a module-level function: a recursive closure would be a reference cycle
    # that keeps the leaves alive until the cyclic collector runs
    if hi - lo == 1:
        return leaves[lo]
    mid = lo + (hi - lo + 1) // 2
    left = _build(leaves, cap, lo, mid)
    right = _build(leaves, cap, mid, hi)
    return GteNode(
        sums=merge_sums(left.sums, right.sums, cap),
        node_sum=left.node_sum + right.node_sum,
        children=(left, right),
    )


def _emit(node: GteNode, cap: int, pool: VarPool, clauses: list[list[int]]) -> None:
    """Post-order: allocate this node's sum variables, then emit combination
    clauses before boundary clauses, sums ascending.  Clauses go straight onto
    `clauses`; the caller accounts for their variables in `num_vars`."""
    if node.is_leaf:
        return
    left, right = node.children
    _emit(left, cap, pool, clauses)
    _emit(right, cap, pool, clauses)
    var_of = node.var_of
    for s in node.sums:
        var_of[s] = pool.fresh_lit()
    over = var_of.get(cap)
    rsums = right.sums
    rneg = [right.var_of[w2] ^ 1 for w2 in rsums]
    for w1 in left.sums:
        nq = left.var_of[w1] ^ 1
        # sums are sorted, so every pair from `split` on clamps to cap
        split = bisect_left(rsums, cap - w1)
        clauses.extend([[nq, nr, var_of[w1 + w2]] for w2, nr in zip(rsums[:split], rneg)])
        clauses.extend([[nq, nr, over] for nr in rneg[split:]])
    for child in (left, right):
        clauses.extend([[child.var_of[s] ^ 1, var_of[s]] for s in child.sums])


def encode_gte(c: PBConstraint, pool: VarPool, out: CnfFormula) -> None:
    """Encode a normalized constraint into `out`, drawing fresh variables from
    `pool`.  A constraint whose full sum cannot exceed the bound emits nothing.
    """
    if not c.is_normalized():
        raise ValueError(f"encode_gte requires a normalized constraint, got {c}")
    tree = build_tree(c)
    if tree.root.node_sum > c.bound:
        cap = c.bound + 1
        _emit(tree.root, cap, pool, out.clauses)
        # every input literal lands in a boundary clause (or the root unit)
        out.num_vars = max(out.num_vars, max(l for _, l in c.terms) >> 1)
        out.add_clause([negate(tree.root.var_of[cap])])
    if pool.next_free - 1 > out.num_vars:
        out.num_vars = pool.next_free - 1

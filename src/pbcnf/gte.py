"""Tree encoder for weighted less-or-equal constraints (generalized totalizer).

A balanced binary tree is built over the weighted input literals.  Each node
carries the set of distinct weighted sums its subtree can reach, clamped at
bound+1 (every overflowing sum collapses onto the single value bound+1, which
is all the constraint needs to distinguish).  One auxiliary variable per
reachable sum per internal node, drawn from the output formula with
`fresh_lit`; leaves reuse the input literals directly.

Per internal node P with children Q, R the emitted clauses are
  (~q_w1 | ~r_w2 | p_w3)   with w3 = min(w1+w2, bound+1)   -- combination
  (~s_w  | p_w)            for every sum var s_w of Q or R -- boundary
and a single unit clause forbids the root's bound+1 variable.  Only the
"sum reached implies node variable true" direction is constrained; the
converse is intentionally left open.

`encode_gte` is the paper's encoding: input order, every reachable sum.
`encode_auto` sorts the leaves by weight (equal weights side by side reach
far fewer distinct sums; any leaf order is arc consistent) and gives each
node a floor: it defines only the sums at or above it.  The root's floor
is bound+1; a child's floor is its parent's less the sibling's largest sum,
and never below 0, since a smaller sum of the child cannot reach the
parent's floor even with everything on the other side.  A sum below its
node's floor occurs positively only in its own node's clauses and
negatively only in parent clauses whose head is itself below the parent's
floor, so dropping those sums is pure-literal elimination from the root
down.  The CNF stays equisatisfiable, and any model extends to the full
encoding by setting the dropped variables true.  Arc consistency holds
too: a propagation chain from the inputs up to the root's unit and back
down to an input only passes through sums that can reach bound+1 together
with sums already true, that is, sums at or above their floors, and every
clause among those is kept.  The root itself then keeps no variable:
resolving its clauses against its unit leaves (~q | ~r) for every pair of
child sums reaching bound+1 and (~c) for a child's own bound+1 variable,
which is unit resolution done at compile time and propagates the same.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

from .core import LE, CnfFormula, PBConstraint, reserve_inputs


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


def _emit(node: GteNode, cap: int, floor: int, out: CnfFormula) -> None:
    """Post-order: allocate this node's sum variables at or above `floor`,
    then emit combination clauses before boundary clauses, sums ascending.
    A child's floor is this floor less its sibling's largest sum: below
    that, no sum of the child can reach this floor."""
    if node.is_leaf:
        return
    left, right = node.children
    lfloor = max(0, floor - right.sums[-1])
    rfloor = max(0, floor - left.sums[-1])
    _emit(left, cap, lfloor, out)
    _emit(right, cap, rfloor, out)
    clauses = out.clauses
    lsums = left.sums[bisect_left(left.sums, lfloor):]
    rsums = right.sums[bisect_left(right.sums, rfloor):]
    rvar = right.var_of
    rneg = [rvar[w2] ^ 1 for w2 in rsums]
    lvar = left.var_of
    if floor == cap:
        # only `auto`'s root has this floor (a child's is always lower): its
        # one sum, bound+1, is forbidden, so instead of a variable and a
        # unit clause against it, every way of reaching it is forbidden
        for w1 in lsums:
            nq = lvar[w1] ^ 1
            clauses.extend([[nq, nr] for nr in rneg[bisect_left(rsums, cap - w1):]])
        clauses.extend([[child.var_of[cap] ^ 1] for child in (left, right) if child.sums[-1] == cap])
        return
    var_of = node.var_of
    sums = node.sums
    fresh_lit = out.fresh_lit
    for s in sums[bisect_left(sums, floor):]:
        var_of[s] = fresh_lit()
    over = var_of.get(cap)
    rpairs = list(zip(rsums, rneg))
    for w1 in lsums:
        nq = lvar[w1] ^ 1
        # sums are sorted: pairs before `lo` stay below the floor, pairs
        # from `split` on clamp to cap
        lo = bisect_left(rsums, floor - w1)
        split = bisect_left(rsums, cap - w1)
        clauses.extend([[nq, nr, var_of[w1 + w2]] for w2, nr in rpairs[lo:split]])
        clauses.extend([[nq, nr, over] for nr in rneg[split:]])
    for child in (left, right):
        cvar = child.var_of
        csums = child.sums
        clauses.extend([[cvar[s] ^ 1, var_of[s]] for s in csums[bisect_left(csums, floor):]])


def _encode(c: PBConstraint, out: CnfFormula, pruned: bool) -> None:
    root = build_tree(c).root
    if root.node_sum > c.bound:
        cap = c.bound + 1
        _emit(root, cap, cap if pruned else 0, out)
        if cap in root.var_of:  # all but a pruned internal root
            out.clauses.append([root.var_of[cap] ^ 1])


def encode_gte(c: PBConstraint, out: CnfFormula) -> None:
    """Encode a normalized constraint into `out`, numbering fresh variables
    above `out.num_vars` and c's own: the paper's encoding, over the terms
    in input order, with a variable for every reachable sum.  A constraint
    whose full sum cannot exceed the bound emits nothing.
    """
    reserve_inputs(c, out, "encode_gte")
    _encode(c, out, pruned=False)


def encode_auto(c: PBConstraint, out: CnfFormula) -> None:
    """Like `encode_gte`, over the terms stable-sorted by ascending weight,
    and with variables only for the sums that can still reach bound+1 (the
    root floor; see the module docstring)."""
    reserve_inputs(c, out, "encode_auto")
    terms = tuple(sorted(c.terms, key=itemgetter(0)))
    _encode(PBConstraint(terms, LE, c.bound), out, pruned=True)

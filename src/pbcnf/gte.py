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

`encode_gte` is the paper's encoding: input order, every reachable sum, the
full tree `build_tree` returns.  `encode_auto` sorts the leaves by weight
(equal weights side by side reach far fewer distinct sums; any leaf order is
arc consistent) and gives each node a floor, applied top down as the tree is
built: a node's merge forms only its sums at or above it.  The root's floor is
bound+1; a child's floor is its parent's less the sibling span's largest
sum, min(bound+1, span weight), and never below 0, since a smaller sum of
the child cannot reach the parent's floor even with everything on the other
side.  A sum below its node's floor occurs positively only in its own node's
clauses and negatively only in parent clauses whose head is itself below the
parent's floor, so dropping those sums is pure-literal elimination from the
root down.  The CNF stays equisatisfiable, and any model extends to the full
encoding by setting the dropped variables true.  Arc consistency holds too:
a propagation chain from the inputs up to the root's unit and back down to
an input only passes through sums that can reach bound+1 together with sums
already true, that is, sums at or above their floors, and every clause among
those is kept.  The root itself then keeps no variable: resolving its
clauses against its unit leaves (~q | ~r) for every pair of child sums
reaching bound+1 and (~c) for a child's own bound+1 variable, which is unit
resolution done at compile time and propagates the same.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from .core import CnfFormula, PBConstraint, reserve_inputs


@dataclass
class GteNode:
    sums: list[int]  # sorted; only those at or above `floor`
    var_of: dict[int, int] = field(default_factory=dict)
    children: tuple["GteNode", "GteNode"] | None = None
    floor: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass
class GteTree:
    root: GteNode
    bound: int


def merge_sums(a: list[int], b: list[int], cap: int, floor: int = 0) -> list[int]:
    """Distinct sums at or above `floor` reachable from two children's sorted
    sums: each side alone, each x + y with y in b's window [floor - x, cap - x)
    and, when a[-1] + b[-1] reaches it, cap, the clamp of every larger sum."""
    out = set(a[bisect_left(a, floor) :])
    out.update(b[bisect_left(b, floor) :])
    for x in a:
        out.update([x + y for y in b[bisect_left(b, floor - x) : bisect_left(b, cap - x)]])
    if a and b and a[-1] + b[-1] >= cap:
        out.add(cap)
    return sorted(out)


def node_sums(weights: list[int], k: int) -> list[int]:
    """Sorted distinct non-empty-subset sums of a weight multiset, clamped at
    k+1: the root sums of the tree `build_tree` would build over them."""
    return _tree([(w, 0) for w in weights], k + 1, 0).sums


def build_tree(c: PBConstraint) -> GteTree:
    """The full tree over the constraint's terms in input order; an empty
    constraint gives a root leaf with no sums."""
    return GteTree(root=_tree(c.terms, c.bound + 1, 0), bound=c.bound)


def _tree(terms, cap: int, floor: int) -> GteNode:
    """Balanced tree over (weight, literal) pairs in their order, spans split
    at ceil(len/2), with root floor `floor`; no pairs give a leaf with no sums."""
    if not terms:  # `_build` needs a span of at least one term
        return GteNode([])
    pre = list(accumulate([w for w, _ in terms], initial=0))
    return _build(terms, pre, cap, 0, len(terms), floor)


def _build(terms, pre: list[int], cap: int, lo: int, hi: int, floor: int) -> GteNode:
    """The subtree over terms[lo:hi]; its merge forms only its sums at or above
    `floor`.  A child's floor is this one less its sibling span's largest sum,
    found from the prefix sums `pre`.  A leaf keeps its one sum: under a root
    floor the root can reach, no floor exceeds its node's largest sum."""
    # a module-level function: a recursive closure would be a reference cycle
    # that keeps the leaves alive until the cyclic collector runs
    if hi - lo == 1:
        w, l = terms[lo]
        s = min(w, cap)
        return GteNode([s], {s: l}, floor=floor)
    mid = lo + (hi - lo + 1) // 2
    left = _build(terms, pre, cap, lo, mid, max(0, floor - min(pre[hi] - pre[mid], cap)))
    right = _build(terms, pre, cap, mid, hi, max(0, floor - min(pre[mid] - pre[lo], cap)))
    return GteNode(merge_sums(left.sums, right.sums, cap, floor), children=(left, right), floor=floor)


def _emit(node: GteNode, cap: int, out: CnfFormula) -> None:
    """Post-order: allocate one variable per sum this node holds, then emit
    combination clauses before boundary clauses, sums ascending.  A pair of
    child sums below this node's floor has no head and no clause.  Each run
    of clauses goes to `out.lits` as one block filled by slice assignment."""
    if node.is_leaf:
        return
    left, right = node.children
    _emit(left, cap, out)
    _emit(right, cap, out)
    lits = out.lits
    lsums, rsums = left.sums, right.sums
    rvar = right.var_of
    rneg = [rvar[w2] ^ 1 for w2 in rsums]
    lvar = left.var_of
    floor = node.floor
    if floor == cap:
        # only `auto`'s root has this floor (a child's is always lower): its
        # one sum, bound+1, is forbidden, so instead of a variable and a
        # unit clause against it, every way of reaching it is forbidden
        for w1 in lsums:
            tail = rneg[bisect_left(rsums, cap - w1) :]
            block = [lvar[w1] ^ 1, 0, 0] * len(tail)
            block[1::3] = tail
            lits += block
        for child in (left, right):
            if child.sums[-1] == cap:
                lits += (child.var_of[cap] ^ 1, 0)
        return
    var_of = node.var_of
    fresh_lit = out.fresh_lit
    for s in node.sums:
        var_of[s] = fresh_lit()
    over = var_of.get(cap)
    for w1 in lsums:
        nq = lvar[w1] ^ 1
        # sums are sorted: pairs before `lo` stay below the floor, pairs
        # from `split` on clamp to cap, so only the first split - lo heads
        # of the block differ from `over`
        lo = bisect_left(rsums, floor - w1)
        split = bisect_left(rsums, cap - w1)
        block = [nq, 0, over, 0] * (len(rsums) - lo)
        block[1::4] = rneg[lo:]
        block[2 : 4 * (split - lo) : 4] = map(var_of.__getitem__, map(w1.__add__, rsums[lo:split]))
        lits += block
    for child in (left, right):
        csums = child.sums[bisect_left(child.sums, floor) :]
        block = [0, 0, 0] * len(csums)
        block[0::3] = [child.var_of[s] ^ 1 for s in csums]
        block[1::3] = map(var_of.__getitem__, csums)
        lits += block


def _encode(terms, bound: int, floor: int, out: CnfFormula) -> None:
    cap = bound + 1
    root = _tree(terms, cap, floor)
    if root.sums[-1:] == [cap]:  # the full sum can exceed the bound (never with no terms)
        _emit(root, cap, out)
        if cap in root.var_of:  # all but auto's internal root
            out.lits += (root.var_of[cap] ^ 1, 0)


def encode_gte(c: PBConstraint, out: CnfFormula) -> None:
    """Encode a normalized constraint into `out`, numbering fresh variables
    above `out.num_vars` and c's own: the paper's encoding, over the terms
    in input order, with a variable for every reachable sum.  A constraint
    whose full sum cannot exceed the bound emits nothing.
    """
    reserve_inputs(c, out, "encode_gte")
    _encode(c.terms, c.bound, 0, out)


# the paper's GTE is the totalizer of Bailleux & Boufkhad generalized to weights
encode_totalizer = encode_gte


def encode_auto(c: PBConstraint, out: CnfFormula) -> None:
    """Like `encode_gte`, over the terms stable-sorted by ascending weight,
    and with variables only for the sums that can still reach bound+1 (the
    root floor; see the module docstring)."""
    reserve_inputs(c, out, "encode_auto")
    _encode(sorted(c.terms, key=itemgetter(0)), c.bound, c.bound + 1, out)

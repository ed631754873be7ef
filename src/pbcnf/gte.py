"""Tree encoder for weighted less-or-equal constraints (generalized totalizer).

A balanced binary tree is built over the weighted input literals.  Each node
carries the set of distinct weighted sums its subtree can reach, clamped at
bound+1 (every overflowing sum collapses onto the single value bound+1, which
is all the constraint needs to distinguish).  Leaves reuse the input literals
directly; an internal node gets one auxiliary variable, drawn from the output
formula with `fresh_lit`, per sum it keeps.

One post-order emitter, `_emit`, writes every internal node P with children
Q, R.  For each sum w1 of Q, over the sums w2 of R ascending, it writes
  (~q_w1 | ~r_w2 | p_w1+w2)   while w1+w2 <= bound   -- window
  (~q_w1 | ~r_w2 | p_bound+1) once w1+w2 > bound     -- clamped tail
(the tail is (~q_w1 | ~r_w2) where bound+1 keeps no variable), and then
  (~s_w | p_w)   for every sum var s_w of Q, then of R  -- boundary.
Only the "sum reached implies node variable true" direction is constrained;
the converse is intentionally left open.

`encode_gte` (the paper's encoding; `encode_totalizer` is a second name)
and `encode_auto` share that emission and differ in three ways:
- Leaf order: input order, or stable-sorted by ascending weight (equal
  weights side by side reach far fewer distinct sums; any leaf order is arc
  consistent).
- Root floor: 0, or bound+1.  A node's merge forms only its sums at or above
  its floor, set top down as the tree is built: a child's floor is its
  parent's less the sibling span's largest sum, min(bound+1, span weight),
  and never below 0, since a smaller sum of the child cannot reach the
  parent's floor even with everything on the other side.
- bound+1's variable: `gte` keeps one at every node that reaches it, and a
  unit clause forbids the root's; `auto` keeps none, so a clamped pair is
  the binary clause and the root has no variable at all.
On top of these, each child of `auto`'s root keeps one variable per overflow
class (rule 2 below) and writes no subsumed pair (rule 3).

Under floors, a sum below its node's floor occurs positively only in its own
node's clauses and negatively only in parent clauses whose head is itself
below the parent's floor, so dropping those sums is pure-literal elimination
from the root down.  The CNF stays equisatisfiable, and any model extends to
the full encoding by setting the dropped variables true.  Arc consistency
holds too: a propagation chain from the inputs up to the root's unit and back
down to an input only passes through sums that can reach bound+1 together
with sums already true, that is, sums at or above their floors, and every
clause among those is kept.  `auto`'s other rules each keep unit propagation
equal to that of the unpruned GTE over the same sorted leaves:
1. No bound+1 variable.  Propagation forces every such variable false, from
   the root's unit down the boundary clauses, so a pair of child sums
   reaching bound+1 becomes the binary clause (~q | ~r) at the node where it
   forms, and an input of weight bound+1 the unit clause (~x): the
   resolvents propagation would use.
2. The root tells a child's sums apart only by the thresholds bound+1-y, one
   per sum y of the sibling.  Sums x1 < x2 of a child with no sibling sum in
   [bound+1-x2, bound+1-x1) lie on the same side of every threshold: they
   form one overflow class and reach bound+1 with the same sibling sums.
   Each child of the root therefore keeps only the least sum of each class
   (the classes that reach bound+1 with no sibling sum keep none, being
   pure like the sums below a floor), and a pair formed there names the
   variable of the largest kept sum not above its sum.  For every threshold
   the root distinguishes, whether the child's sum is at least that
   threshold is still decided exactly by its kept sums.  So the root's
   binary clauses forbid the same pairs of sums, and a propagation passes
   the same clauses with a class in place of each of its sums.  Deeper
   nodes keep every sum at or above their floor.
3. At those two children a pair whose head is the head of one of its sums
   alone writes no clause: that sum's boundary clause subsumes it, and a
   subsumed clause propagates nothing its subsumer does not.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from .core import CnfFormula, PBConstraint, reserve_inputs


@dataclass
class GteNode:
    sums: list[int]  # sorted; only those at or above the node's floor
    var_of: dict[int, int] = field(default_factory=dict)
    children: tuple["GteNode", "GteNode"] | None = None

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
        return GteNode([s], {s: l})
    mid = lo + (hi - lo + 1) // 2
    left = _build(terms, pre, cap, lo, mid, max(0, floor - min(pre[hi] - pre[mid], cap)))
    right = _build(terms, pre, cap, mid, hi, max(0, floor - min(pre[mid] - pre[lo], cap)))
    return GteNode(merge_sums(left.sums, right.sums, cap, floor), children=(left, right))


def _var_sums(child: GteNode, cap: int, over: bool, lits: list[int]) -> list[int]:
    """The sums the child holds with a variable unless its parent is
    `auto`'s root: all of them if bound+1 keeps one (`over`), else those
    below cap.  Without `over` only a leaf can hold cap with a variable, its
    input literal, and a unit clause forbids it."""
    sums = child.sums
    if over or sums[-1] < cap:
        return sums
    if child.is_leaf:
        lits += (child.var_of[cap] ^ 1, 0)
    return sums[:-1]


def _class_firsts(sums: list[int], sibling: list[int], cap: int) -> list[int]:
    """The least sum of each overflow class of `sums`: those sharing the
    number of `sibling` sums they reach cap with, which is nonzero."""
    firsts, seen = [], 0
    n = len(sibling)
    for x in sums:
        reach = n - bisect_left(sibling, cap - x)
        if reach > seen:
            firsts.append(x)
            seen = reach
    return firsts


def _emit(node: GteNode, cap: int, out: CnfFormula, over: bool, kept: list[int] | None = None,
          classes: bool = False) -> None:
    """Post-order: give the node one variable per sum of `kept`, by default
    every sum it holds, cap only if `over`.  Any other sum it holds names the
    variable of the largest kept sum not above it, or none below them all.
    Per left sum, the pairs of child sums with a head below cap (the window)
    come before the pairs reaching cap (the clamped tail), which name cap's
    variable if `over` and write a binary clause otherwise; the boundary
    clauses of the kept child sums follow.  Each run of clauses goes to
    `out.lits` as one block filled by slice assignment.  With `classes`
    (`auto`'s root) each child keeps the least sum of each overflow class,
    and there a pair named as one of its sums alone writes nothing."""
    if node.is_leaf:
        return
    left, right = node.children
    lits = out.lits
    if classes:  # the children's kept sums are known before they emit
        lsums = _var_sums(left, cap, over, lits)
        rsums = _var_sums(right, cap, over, lits)
        lsums, rsums = _class_firsts(lsums, rsums, cap), _class_firsts(rsums, lsums, cap)
        _emit(left, cap, out, over, lsums)
        _emit(right, cap, out, over, rsums)
    else:
        _emit(left, cap, out, over)
        _emit(right, cap, out, over)
        lsums = _var_sums(left, cap, over, lits)
        rsums = _var_sums(right, cap, over, lits)
    var_of = node.var_of
    fresh_lit = out.fresh_lit
    narrowed = kept is not None
    if not narrowed:
        kept = node.sums if over else node.sums[: bisect_left(node.sums, cap)]
    for s in kept:
        var_of[s] = fresh_lit()
    head = var_of
    if narrowed:
        head, h = {}, None
        for s in node.sums[: bisect_left(node.sums, cap)]:
            h = var_of.get(s, h)
            if h is not None:
                head[s] = h
    floor = kept[0] if kept else cap
    tail = [0, 0, var_of.get(cap), 0] if over else [0, 0, 0]
    step = len(tail)
    lvar, rvar = left.var_of, right.var_of
    rneg = [rvar[w2] ^ 1 for w2 in rsums]
    n = len(rsums)
    for w1 in lsums:
        nq = lvar[w1] ^ 1
        # sums are sorted: pairs before `lo` have no head, pairs from
        # `split` on reach cap
        lo = bisect_left(rsums, floor - w1)
        split = bisect_left(rsums, cap - w1)
        if not narrowed:
            block = [nq, 0, 0, 0] * (split - lo)
            block[1::4] = rneg[lo:split]
            block[2::4] = map(head.__getitem__, map(w1.__add__, rsums[lo:split]))
            lits += block
        else:
            # a pair named as one of its sums alone is subsumed by the
            # boundary clause of that sum
            h1 = head.get(w1)
            for w2, nr in zip(rsums[lo:split], rneg[lo:split]):
                h = head[w1 + w2]
                if h != h1 and h != head.get(w2):
                    lits += (nq, nr, h, 0)
        if split < n:
            tail[0] = nq
            block = tail * (n - split)
            block[1::step] = rneg[split:]
            lits += block
    for child, csums in ((left, lsums), (right, rsums)):
        csums = csums[bisect_left(csums, floor) :]
        block = [0, 0, 0] * len(csums)
        block[0::3] = [child.var_of[s] ^ 1 for s in csums]
        block[1::3] = map(head.__getitem__, csums)
        lits += block


def encode_gte(c: PBConstraint, out: CnfFormula) -> None:
    """Encode a normalized constraint into `out`, numbering fresh variables
    above `out.num_vars` and c's own: the paper's encoding, over the terms
    in input order, with a variable for every reachable sum.  A constraint
    whose full sum cannot exceed the bound emits nothing.
    """
    reserve_inputs(c, out, "encode_gte")
    cap = c.bound + 1
    root = _tree(c.terms, cap, 0)
    if root.sums[-1:] == [cap]:  # the full sum can exceed the bound (never with no terms)
        _emit(root, cap, out, True)
        out.lits += (root.var_of[cap] ^ 1, 0)


# the paper's GTE is the totalizer of Bailleux & Boufkhad generalized to weights
encode_totalizer = encode_gte


def encode_auto(c: PBConstraint, out: CnfFormula) -> None:
    """Like `encode_gte`, over the terms stable-sorted by ascending weight,
    with variables only for the sums at or above their node's floor, none
    for bound+1 and one per overflow class at the root's children (see the
    module docstring)."""
    reserve_inputs(c, out, "encode_auto")
    cap = c.bound + 1
    root = _tree(sorted(c.terms, key=itemgetter(0)), cap, cap)
    if root.sums[-1:] == [cap]:
        _emit(root, cap, out, False, classes=True)
        if root.is_leaf:  # its one variable is its input literal
            out.lits += (root.var_of[cap] ^ 1, 0)

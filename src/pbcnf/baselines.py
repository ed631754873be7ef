"""Baseline encodings: sequential weight counter, adder network with a
comparator, and the plain totalizer (the unit-weight case of the generalized
one).
"""

from __future__ import annotations

import time
from collections import deque

from .core import CnfFormula, EncodingResult, EncodingStats, InapplicableEncoding, PBConstraint, VarPool, negate
from .gte import encode_gte


def _check(c: PBConstraint, name: str) -> None:
    if not c.is_normalized():
        raise ValueError(f"{name} requires a normalized constraint, got {c}")


def encode_swc(c: PBConstraint, pool: VarPool, out: CnfFormula) -> EncodingResult:
    """Sequential weight counter: s[i][j] means the first i literals weigh >= j.

    Always allocates the full n*k grid of counter variables (rows are not
    trimmed), so the auxiliary variable count is exactly n*k.
    """
    _check(c, "encode_swc")
    t0 = time.perf_counter()
    v0, c0 = pool.next_free, len(out.clauses)
    n, k = len(c.terms), c.bound

    if k == 0:
        # nothing may be true; only reachable by direct calls, the normalizer
        # strips such constraints into forced units
        for _, l in c.terms:
            out.add_clause([negate(l)])
    else:
        s = [[pool.fresh_lit() for _ in range(k)] for _ in range(n)]  # s[i-1][j-1]
        for i in range(n):
            w, l = c.terms[i]
            nl = negate(l)
            if i > 0:
                prev = s[i - 1]
                for j in range(k):
                    out.add_clause([negate(prev[j]), s[i][j]])
            for j in range(min(w, k)):
                out.add_clause([nl, s[i][j]])
            if i > 0:
                prev = s[i - 1]
                for j in range(1, k - w + 1):
                    out.add_clause([nl, negate(prev[j - 1]), s[i][j + w - 1]])
                if w <= k:
                    out.add_clause([nl, negate(prev[k - w])])
            if w > k:
                out.add_clause([nl])

    if pool.next_free - 1 > out.num_vars:
        out.num_vars = pool.next_free - 1
    stats = EncodingStats(pool.next_free - v0, len(out.clauses) - c0, time.perf_counter() - t0)
    return EncodingResult(out, {i: t.lit for i, t in enumerate(c.terms)}, stats)


def _xor3(a: int, b: int, cin: int, s: int, out: CnfFormula) -> None:
    # s <-> a xor b xor cin
    na, nb, nc, ns = negate(a), negate(b), negate(cin), negate(s)
    out.add_clause([na, nb, nc, s])
    out.add_clause([na, nb, cin, ns])
    out.add_clause([na, b, nc, ns])
    out.add_clause([na, b, cin, s])
    out.add_clause([a, nb, nc, ns])
    out.add_clause([a, nb, cin, s])
    out.add_clause([a, b, nc, s])
    out.add_clause([a, b, cin, ns])


def _full_adder(a: int, b: int, cin: int, s: int, cout: int, out: CnfFormula) -> None:
    _xor3(a, b, cin, s, out)
    # cout <-> at least two of a, b, cin
    na, nb, nc = negate(a), negate(b), negate(cin)
    out.add_clause([na, nb, cout])
    out.add_clause([na, nc, cout])
    out.add_clause([nb, nc, cout])
    out.add_clause([a, b, negate(cout)])
    out.add_clause([a, cin, negate(cout)])
    out.add_clause([b, cin, negate(cout)])


def _half_adder(a: int, b: int, s: int, cout: int, out: CnfFormula) -> None:
    # s <-> a xor b
    na, nb = negate(a), negate(b)
    out.add_clause([na, nb, negate(s)])
    out.add_clause([na, b, s])
    out.add_clause([a, nb, s])
    out.add_clause([a, b, negate(s)])
    # cout <-> a and b
    out.add_clause([na, nb, cout])
    out.add_clause([a, negate(cout)])
    out.add_clause([b, negate(cout)])


def encode_adder(c: PBConstraint, pool: VarPool, out: CnfFormula) -> EncodingResult:
    """Adder network: bucket literals by the set bits of their weights, reduce
    each bucket with full/half adders, then compare the binary sum against the
    bound with a lexicographic clause chain (no comparator variables)."""
    _check(c, "encode_adder")
    t0 = time.perf_counter()
    v0, c0 = pool.next_free, len(out.clauses)
    k = c.bound

    buckets: dict[int, deque[int]] = {}
    for w, l in c.terms:
        bit = 0
        while w:
            if w & 1:
                buckets.setdefault(bit, deque()).append(l)
            w >>= 1
            bit += 1

    sum_bits: dict[int, int] = {}
    bit = 0
    while buckets and bit <= max(buckets):
        q = buckets.get(bit, deque())
        while len(q) >= 3:
            a, b, cin = q.popleft(), q.popleft(), q.popleft()
            s, cout = pool.fresh_lit(), pool.fresh_lit()
            _full_adder(a, b, cin, s, cout, out)
            q.append(s)
            buckets.setdefault(bit + 1, deque()).append(cout)
        if len(q) == 2:
            a, b = q.popleft(), q.popleft()
            s, cout = pool.fresh_lit(), pool.fresh_lit()
            _half_adder(a, b, s, cout, out)
            q.append(s)
            buckets.setdefault(bit + 1, deque()).append(cout)
        if q:
            sum_bits[bit] = q[0]
        buckets.pop(bit, None)
        bit += 1

    # sum <= k, lexicographically: for every sum bit at a position where k has
    # a 0, either that bit is 0 or some higher position where k has a 1 reads 0
    top = max(sum_bits, default=-1)
    for i in sorted(sum_bits):
        if (k >> i) & 1:
            continue
        clause = [negate(sum_bits[i])]
        escaped = False
        for j in range(i + 1, max(top, k.bit_length()) + 1):
            if (k >> j) & 1:
                if j in sum_bits:
                    clause.append(negate(sum_bits[j]))
                else:
                    escaped = True  # that position is constant 0 < k's 1
                    break
        if not escaped:
            out.add_clause(clause)

    if pool.next_free - 1 > out.num_vars:
        out.num_vars = pool.next_free - 1
    stats = EncodingStats(pool.next_free - v0, len(out.clauses) - c0, time.perf_counter() - t0)
    return EncodingResult(out, {i: t.lit for i, t in enumerate(c.terms)}, stats)


def encode_totalizer(c: PBConstraint, pool: VarPool, out: CnfFormula) -> EncodingResult:
    """Cardinality-only entry point; clause-for-clause identical to the
    generalized encoder on unit weights."""
    if any(w != 1 for w, _ in c.terms):
        raise InapplicableEncoding("encode_totalizer requires unit weights; use encode_gte")
    return encode_gte(c, pool, out)

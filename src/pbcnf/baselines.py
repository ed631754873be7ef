"""Baseline encodings: sequential weight counter and adder network with a
comparator.  Like the generalized totalizer, each appends its clauses straight
to the formula and numbers its variables with `CnfFormula.fresh_lit`.
"""

from __future__ import annotations

from collections import deque

from .core import CnfFormula, PBConstraint, reserve_inputs


def encode_swc(c: PBConstraint, out: CnfFormula) -> None:
    """Sequential weight counter: s[i][j] means the first i literals weigh >= j.

    Always allocates the full n*k grid of counter variables (rows are not
    trimmed), so the auxiliary variable count is exactly n*k.
    """
    reserve_inputs(c, out, "encode_swc")
    k = c.bound
    lits = out.lits
    fresh_lit = out.fresh_lit
    s = [[fresh_lit() for _ in range(k)] for _ in c.terms]  # s[i-1][j-1]
    nprev = None  # negated previous row
    for (w, l), row in zip(c.terms, s):
        nl = l ^ 1
        if nprev is not None:
            block = [0, 0, 0] * k
            block[0::3] = nprev
            block[1::3] = row
            lits += block
        block = [nl, 0, 0] * min(w, k)
        block[1::3] = row[:w]
        lits += block
        if w > k:
            lits += (nl, 0)
        elif nprev is not None:
            block = [nl, 0, 0, 0] * (k - w)
            block[1::4] = nprev[: k - w]
            block[2::4] = row[w:]
            lits += block
            lits += (nl, nprev[k - w], 0)
        nprev = [r ^ 1 for r in row]


def _full_adder(a: int, b: int, cin: int, s: int, cout: int, lits: list[int]) -> None:
    na, nb, nc, ns, ncout = a ^ 1, b ^ 1, cin ^ 1, s ^ 1, cout ^ 1
    lits += (
        # s <-> a xor b xor cin
        na, nb, nc, s, 0, na, nb, cin, ns, 0, na, b, nc, ns, 0, na, b, cin, s, 0,
        a, nb, nc, ns, 0, a, nb, cin, s, 0, a, b, nc, s, 0, a, b, cin, ns, 0,
        # cout <-> at least two of a, b, cin
        na, nb, cout, 0, na, nc, cout, 0, nb, nc, cout, 0,
        a, b, ncout, 0, a, cin, ncout, 0, b, cin, ncout, 0,
    )


def _half_adder(a: int, b: int, s: int, cout: int, lits: list[int]) -> None:
    na, nb, ns, ncout = a ^ 1, b ^ 1, s ^ 1, cout ^ 1
    lits += (
        # s <-> a xor b
        na, nb, ns, 0, na, b, s, 0, a, nb, s, 0, a, b, ns, 0,
        # cout <-> a and b
        na, nb, cout, 0, a, ncout, 0, b, ncout, 0,
    )


def encode_adder(c: PBConstraint, out: CnfFormula) -> None:
    """Adder network: bucket literals by the set bits of their weights, reduce
    each bucket with full/half adders, then compare the binary sum against the
    bound with a lexicographic clause chain (no comparator variables)."""
    reserve_inputs(c, out, "encode_adder")
    k = c.bound
    lits = out.lits
    fresh_lit = out.fresh_lit

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
            s, cout = fresh_lit(), fresh_lit()
            _full_adder(a, b, cin, s, cout, lits)
            q.append(s)
            buckets.setdefault(bit + 1, deque()).append(cout)
        if len(q) == 2:
            a, b = q.popleft(), q.popleft()
            s, cout = fresh_lit(), fresh_lit()
            _half_adder(a, b, s, cout, lits)
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
        clause = [sum_bits[i] ^ 1]
        escaped = False
        for j in range(i + 1, max(top, k.bit_length()) + 1):
            if (k >> j) & 1:
                if j in sum_bits:
                    clause.append(sum_bits[j] ^ 1)
                else:
                    escaped = True  # that position is constant 0 < k's 1
                    break
        if not escaped:
            lits += clause
            lits.append(0)


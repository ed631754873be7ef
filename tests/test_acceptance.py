"""End-to-end acceptance checks.

Eight criteria, one test each, every test printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Each test
also asserts its own wall-clock budget.  Expected values come from
independent brute-force oracles computed before the implementation was
trusted, never from the encoders themselves:

1. the worked four-term example encodes to the exact frozen sum sets and
   root unit clause;
2. tree-root variable counts equal direct subset-sum enumeration on 500
   seeded weight multisets;
3. all encoders are equisatisfiable with 1,000 seeded constraints under a
   full 2^n assignment sweep;
4. unit propagation on the tree and counter encodings is complete on every
   consistent partial assignment of every small constraint, and the adder's
   known propagation gap is pinned;
5. on two-valued weight profiles the tree encoding is smaller than the
   counter everywhere, flat under bound growth, while the counter is
   exactly n*k;
6. all-distinct power-of-two weights blow the root up to 2^n - 1 sums, and
   bound clamping caps it at bound+1;
7. on unit weights the generalized totalizer emits the clauses of the plain
   Totalizer, written out in the test from its 2003 definition;
8. the full statistics pipeline completes on 20 generated instances with
   every encoder solving every instance.
"""

import itertools
import time

from pbcnf import (
    LE,
    CnfFormula,
    PBConstraint,
    Solver,
    SplitMix64,
    Term,
    build_tree,
    compile_constraints,
    encode_gte,
    gac_check,
    gen_bench,
    lit,
    oracle_check,
    pb12like,
    pedigreelike,
    random_normalized_constraint,
    stats_compare,
    stats_csv,
)

from conftest import CARD4_LE2, REFERENCE, eq4_count, node_sums


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_reference_encoding():
    t0 = time.perf_counter()
    tree = build_tree(REFERENCE)
    a, b = tree.root.children
    sums_ok = (
        sorted(a.sums) == [2, 3, 5]
        and sorted(b.sums) == [3, 6]
        and sorted(tree.root.sums) == [2, 3, 5, 6]
    )
    out = CnfFormula(num_vars=4)
    encode_gte(REFERENCE, out)
    unit_ok = list(out.clauses)[-1] == [lit(13, negative=True)]  # root's bound+1 var, off
    elapsed = time.perf_counter() - t0
    report(
        1,
        sums_ok and unit_ok and elapsed < 1.0,
        f"sum sets {sorted(a.sums)}/{sorted(b.sums)}/{sorted(tree.root.sums)}, "
        f"root unit {unit_ok} ({elapsed:.3f}s < 1s)",
    )


def test_criterion_2_root_counts_match_subset_enumeration():
    t0 = time.perf_counter()
    rng = SplitMix64(20260501)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        weights = [rng.randint(1, 50) for _ in range(n)]
        k = rng.randint(1, 200)
        if len(node_sums(weights, k)) != eq4_count(weights, k):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        mismatches == 0 and elapsed < 30.0,
        f"500 weight multisets, {mismatches} mismatches ({elapsed:.1f}s < 30s)",
    )


def test_criterion_3_equisatisfiability_sweep():
    t0 = time.perf_counter()
    rng = SplitMix64(31337)
    counterexamples = 0
    checked = 0
    for _ in range(1000):
        c = random_normalized_constraint(rng, max_n=8, max_weight=10, max_bound=30)
        for enc in ("gte", "swc", "adder", "auto"):
            checked += 1
            if not oracle_check(c, enc):
                counterexamples += 1
    elapsed = time.perf_counter() - t0
    report(
        3,
        counterexamples == 0 and elapsed < 300.0,
        f"1000 constraints / {checked} encoder runs, "
        f"{counterexamples} counterexamples ({elapsed:.1f}s < 300s)",
    )


def test_criterion_4_propagation_completeness_exhaustive():
    t0 = time.perf_counter()
    constraints = []
    for n in range(1, 6):
        for weights in itertools.combinations_with_replacement(range(1, 5), n):
            for k in range(0, 11):
                c = PBConstraint(
                    tuple(Term(w, lit(i + 1)) for i, w in enumerate(weights)), LE, k
                )
                # encoders treat literals opaquely, so positive polarity covers all
                if c.is_normalized() and sum(weights) > k:
                    constraints.append(c)
    results = {}
    for enc in ("gte", "swc"):
        cases = fails = 0
        for c in constraints:
            reports = gac_check(c, enc)
            cases += len(reports)
            fails += sum(1 for r in reports if not r.passed)
        results[enc] = (cases, fails)

    # the recorded adder gap: x1+x2+x3+x4 <= 2 with two inputs already true
    compiled = compile_constraints([CARD4_LE2], 4, "adder")
    s = Solver(compiled.formula)
    adder_gap = (
        s.assume_propagate([lit(1), lit(2)]) is None
        and lit(3, negative=True) not in s.trail
        and lit(4, negative=True) not in s.trail
        and bool(oracle_check(CARD4_LE2, "adder"))
    )
    elapsed = time.perf_counter() - t0
    ok = (
        len(constraints) == 814
        and all(f == 0 for _, f in results.values())
        and all(c == 94576 for c, _ in results.values())
        and adder_gap
        and elapsed < 120.0
    )
    report(
        4,
        ok,
        f"{len(constraints)} constraints x {results['gte'][0]} partials: "
        f"gte {results['gte'][1]} fails, swc {results['swc'][1]} fails; "
        f"adder gap fixture {'holds' if adder_gap else 'broken'} ({elapsed:.1f}s < 120s)",
    )


def test_criterion_5_size_ordering_two_valued_weights():
    t0 = time.perf_counter()

    def counts(encoding, terms, k):
        c = PBConstraint(terms, LE, k)
        compiled = compile_constraints([c], len(terms), encoding)
        return compiled.aux_vars

    ordering_ok = True
    details = []
    for n in (10, 20, 40):
        inst = gen_bench(pedigreelike(n=n, max_weight=456, seed=7))
        c = inst.constraints[0]
        k = c.bound
        gte_aux = compile_constraints([c], n, "gte").aux_vars
        swc_aux = compile_constraints([c], n, "swc").aux_vars
        details.append(f"n={n}: {gte_aux} vs {swc_aux}")
        if not (gte_aux < swc_aux and swc_aux == n * k):
            ordering_ok = False

    # growth in the bound alone: scale the large weight (and with it the
    # bound) by 10x twice; the counter grows linearly, the tree not at all
    flat = []
    linear = []
    n = 20
    for big in (70, 700, 7000):
        terms = tuple(
            Term(1 if i % 2 == 0 else big, lit(i + 1)) for i in range(n)
        )
        k = sum(w for w, _ in terms) // 2
        flat.append(counts("gte", terms, k))
        linear.append((counts("swc", terms, k), n * k))
    sublinear_ok = flat[0] == flat[1] == flat[2]
    swc_exact_ok = all(got == want for got, want in linear)
    elapsed = time.perf_counter() - t0
    report(
        5,
        ordering_ok and sublinear_ok and swc_exact_ok and elapsed < 60.0,
        f"{'; '.join(details)}; tree aux under 100x bound growth: {flat}; "
        f"counter exact n*k: {swc_exact_ok} ({elapsed:.1f}s < 60s)",
    )


def test_criterion_6_power_of_two_blowup_and_clamp():
    t0 = time.perf_counter()
    weights = [1 << i for i in range(12)]
    full = node_sums(weights, sum(weights))  # cap above every sum: no clamping
    clamped = node_sums(weights, 100)
    full_ok = len(full) == 2**12 - 1 and len(full) == eq4_count(weights, sum(weights))
    clamp_ok = len(clamped) <= 101 and max(clamped) == 101
    elapsed = time.perf_counter() - t0
    report(
        6,
        full_ok and clamp_ok and elapsed < 10.0,
        f"12 power-of-two weights: {len(full)} distinct sums unclamped, "
        f"{len(clamped)} with bound 100 ({elapsed:.1f}s < 10s)",
    )


def plain_totalizer(lits, k, out):
    """The Totalizer of Bailleux & Boufkhad (CP 2003) for "at most k of
    `lits`", counts clamped at k+1.  A node over m literals has outputs
    o_1..o_min(m, k+1), o_j standing for "at least j of them are true"; a
    leaf's one output is its literal.  The left child takes the first
    ceil(m/2) literals; children are numbered before their parent, a node's
    outputs in ascending order.  For a left count i and a right count j, not
    both 0, the node gets (~a_i | ~b_j | o_min(i+j, k+1)), without the side
    whose count is 0; the root gets (~o_k+1).  Nothing when m <= k."""
    cap = k + 1

    def node(span):
        if len(span) == 1:
            return span
        mid = (len(span) + 1) // 2
        a, b = node(span[:mid]), node(span[mid:])
        o = [out.fresh_lit() for _ in range(min(len(span), cap))]
        for i in range(len(a) + 1):
            for j in range(len(b) + 1):
                if i or j:
                    cl = ([a[i - 1] ^ 1] if i else []) + ([b[j - 1] ^ 1] if j else [])
                    out.add_clause(cl + [o[min(i + j, cap) - 1]])
        return o

    if len(lits) > k:
        out.add_clause([node(list(lits))[k] ^ 1])


def test_criterion_7_unit_weights_reduce_to_plain_totalizer():
    t0 = time.perf_counter()
    rng = SplitMix64(777)
    differing = 0
    for _ in range(100):
        n = rng.randint(1, 8)
        k = rng.randint(0, n)
        terms = tuple(
            Term(1, lit(v, negative=rng.chance(1, 4)))
            for v in rng.sample(1, 8, n)
        )
        c = PBConstraint(terms, LE, k)
        out_a, out_b = CnfFormula(8), CnfFormula(8)
        encode_gte(c, out_a)
        plain_totalizer([l for _, l in terms], k, out_b)
        if out_a.num_vars != out_b.num_vars or sorted(out_a.clauses) != sorted(out_b.clauses):
            differing += 1
    elapsed = time.perf_counter() - t0
    report(
        7,
        differing == 0 and elapsed < 10.0,
        f"100 cardinality constraints, {differing} clause-list differences "
        f"({elapsed:.1f}s < 10s)",
    )


def test_criterion_8_statistics_pipeline_smoke():
    t0 = time.perf_counter()
    encoders = ["gte", "swc", "adder", "auto"]
    rows = []
    for i in range(10):
        inst = gen_bench(pb12like(constraints=6, n=24, seed=100 + i))
        rows.extend(stats_compare(inst, encoders, label=f"pb12like-{i}"))
    for i in range(10):
        inst = gen_bench(pedigreelike(n=30, seed=200 + i))
        rows.extend(stats_compare(inst, encoders, label=f"pedigreelike-{i}"))
    csv = stats_csv(rows)
    lines = csv.strip().split("\n")
    decided = all(r.result in ("SAT", "UNSAT") for r in rows)
    under_budget = all(r.encode_ms + r.solve_ms < 60_000.0 for r in rows)
    shape_ok = (
        lines[0] == "instance,encoder,aux_vars,aux_clauses,encode_ms,solve_ms,result"
        and len(lines) == 1 + 20 * len(encoders)
    )
    elapsed = time.perf_counter() - t0
    report(
        8,
        decided and under_budget and shape_ok,
        f"20 instances x {len(encoders)} encoders, all decided, "
        f"max row {max(r.encode_ms + r.solve_ms for r in rows):.0f}ms < 60s "
        f"({elapsed:.1f}s)",
    )

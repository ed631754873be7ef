"""Verification-harness and instance-generator tests.

gac_check on x1+x2+x3+x4 <= 2 is frozen as the canonical propagation-gap
demonstration: 72 consistent partial assignments, of which the adder encoding
misses required literals on 12, while both totalizer-family encodings and the
counter pass all of them.
"""

import hashlib

import pytest

from pbcnf import (
    LE,
    BenchSpec,
    CnfFormula,
    PBConstraint,
    SplitMix64,
    Term,
    compile_constraints,
    gac_check,
    gen_bench,
    lit,
    oracle_check,
    oracle_check_formula,
    pb12like,
    pedigreelike,
    random_normalized_constraint,
    stats_compare,
    stats_csv,
)
from pbcnf.bench import CSV_HEADER

from conftest import CARD4_LE2, REFERENCE, AllTrueEngine, eq4_count, node_sums, random_constraint


# --- subset-sum counting ---


def test_eq4_count_examples():
    assert eq4_count([2, 3, 3, 3], 5) == 4  # {2, 3, 5, 6}
    assert eq4_count([5, 5, 5, 7], 30) == 7  # {5, 7, 10, 12, 15, 17, 22}
    assert eq4_count([1, 2, 4, 8], 100) == 15  # all sums 1..15 distinct
    assert eq4_count([1, 2, 4, 8], 5) == 6  # 1..5 plus the clamp value 6
    assert eq4_count([7], 3) == 1


def test_eq4_count_unit_weights():
    for n in range(1, 10):
        for k in range(12):
            assert eq4_count([1] * n, k) == min(n, k + 1)


def test_eq4_count_matches_tree_root():
    rng = SplitMix64(4242)
    for _ in range(100):
        n = rng.randint(1, 10)
        weights = [rng.randint(1, 30) for _ in range(n)]
        k = rng.randint(max(weights), 60)
        assert eq4_count(weights, k) == len(node_sums(weights, k)), (weights, k)


def test_eq4_count_caps_input_size():
    with pytest.raises(ValueError):
        eq4_count([1] * 21, 5)


# --- equisatisfiability oracle ---


def test_oracle_passes_on_reference():
    for enc in ("gte", "swc", "adder"):
        outcome = oracle_check(REFERENCE, enc)
        assert outcome, (enc, outcome.assignment)
    assert oracle_check(CARD4_LE2, "totalizer")


def test_oracle_catches_a_broken_encoding():
    compiled = compile_constraints([REFERENCE], 4, "gte")
    # delete the final unit clause that actually enforces the bound
    assert list(compiled.formula.clauses)[-1] == [lit(13, negative=True)]
    del compiled.formula.lits[-2:]
    outcome = oracle_check_formula(REFERENCE, compiled.formula, "gte")
    assert not outcome.equisatisfiable
    assert outcome.constraint_holds is False
    assert outcome.cnf_satisfiable is True
    assert not REFERENCE.holds(outcome.assignment)


@pytest.mark.parametrize(
    "drop, extra, first, holds",
    [
        (17, None, (0, 1, 1, 0), False),  # the unit clause that enforces the bound
        (3, None, (0, 0, 1, 1), False),
        (5, None, (0, 1, 0, 1), False),
        (16, None, (0, 0, 1, 1), False),
        (None, [-1, -2], (1, 1, 0, 0), True),
        (None, [-3], (0, 0, 1, 0), True),
        (None, [4], (0, 0, 0, 0), True),
    ],
)
def test_oracle_reports_the_first_counterexample(drop, extra, first, holds):
    # the first failing assignment in counting order (x1 the lowest bit),
    # whatever order the assumptions reach the solver in
    broken = compile_constraints([REFERENCE], 4, "gte").formula
    if drop is not None:
        broken = CnfFormula(broken.num_vars, [cl for i, cl in enumerate(broken.clauses) if i != drop])
    if extra is not None:
        broken.add_clause([lit(abs(n), negative=n < 0) for n in extra])
    outcome = oracle_check_formula(REFERENCE, broken, "gte")
    assert outcome.assignment == {v: bool(b) for v, b in zip((1, 2, 3, 4), first)}
    assert outcome.constraint_holds is holds
    assert outcome.cnf_satisfiable is not holds


def test_oracle_refuses_huge_constraints():
    big = PBConstraint.from_signed([(1, v) for v in range(1, 18)], LE, 5)
    with pytest.raises(ValueError):
        oracle_check(big, "gte")


# --- propagation completeness ---


def test_gac_reference_complete_for_counter_and_tree():
    for enc in ("gte", "swc"):
        reports = gac_check(REFERENCE, enc)
        assert reports
        assert all(r.passed for r in reports), enc


def test_gac_adder_gap_frozen():
    for enc, expected_fails in (("gte", 0), ("swc", 0), ("adder", 12)):
        reports = gac_check(CARD4_LE2, enc)
        assert len(reports) == 72  # consistent partials out of 3^4 = 81
        failing = [r for r in reports if not r.passed]
        assert len(failing) == expected_fails, enc

    # the canonical witness: both slots taken, yet the adder's unit
    # propagation leaves the two remaining inputs open
    reports = gac_check(CARD4_LE2, "adder")
    witness = [r for r in reports if set(r.partial) == {lit(1), lit(2)}]
    assert len(witness) == 1
    assert witness[0].missing == {lit(3, negative=True), lit(4, negative=True)}
    # equisatisfiability is untouched by the gap
    assert oracle_check(CARD4_LE2, "adder")


def test_gac_samples_when_space_is_large():
    c = PBConstraint.from_signed([(1, v) for v in range(1, 9)], LE, 3)
    reports = gac_check(c, "gte", trials=50, seed=3)
    assert len(reports) == 50
    assert all(r.passed for r in reports)


def test_gac_sampling_draws_only_consistent_partials():
    # 40 terms of weight 8 under bound 8: a uniform draw of 40 digits sets at
    # most one true with probability 42 * 2^39 / 3^40, under 2e-6, so every
    # draw must be made consistent
    c = PBConstraint(tuple(Term(8, lit(v)) for v in range(1, 41)), LE, 8)
    reports = gac_check(c, "gte", trials=5)
    assert len(reports) == 5
    assert all(r.passed for r in reports)
    assert any(r.required for r in reports)


def test_gac_is_deterministic():
    c = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4), (1, 5), (2, 6), (2, 7), (1, 8)], LE, 7)
    a = gac_check(c, "adder", trials=40, seed=9)
    b = gac_check(c, "adder", trials=40, seed=9)
    assert [(r.partial, r.missing, r.conflicted) for r in a] == [
        (r.partial, r.missing, r.conflicted) for r in b
    ]


def test_auto_sweep_is_sound_and_propagation_complete():
    # auto reorders each piece's leaves by weight and drops the sums that
    # cannot reach bound+1; neither may cost equisatisfiability or arc
    # consistency
    rng = SplitMix64(606)
    reordered = partials = 0
    for _ in range(40):
        c = random_normalized_constraint(rng, max_n=7, max_weight=9, max_bound=24)
        weights = [w for w, _ in c.terms]
        reordered += weights != sorted(weights)
        assert oracle_check(c, "auto"), c
        reports = gac_check(c, "auto", trials=60, seed=606)
        partials += len(reports)
        assert all(r.passed for r in reports), c
    for _ in range(40):
        c = random_constraint(rng)  # >=, = and negative weights too
        assert oracle_check(c, "auto"), c
    assert reordered >= 20 and partials >= 1000


def test_gac_reports_are_pinned():
    # one digest over every report, recorded before gac_check's case loop was
    # rewritten: the exhaustive branch (3^n <= 4096) and the sampled one both
    # run, and the last constraint has a weight of exactly bound+1
    rng = SplitMix64(30)
    cs = [
        random_normalized_constraint(rng, max_n=m, max_weight=12, max_bound=40)
        for m in (6, 12)
        for _ in range(8)
    ]
    cs.append(PBConstraint.from_signed([(3, 1), (6, -2), (2, 3), (1, 4)], LE, 5))
    assert {3 ** len(c.terms) <= 4096 for c in cs} == {True, False}
    h = hashlib.sha256()
    count = 0
    for c in cs:
        for enc in ("gte", "swc", "adder", "auto"):
            for r in gac_check(c, enc, trials=60, seed=30):
                count += 1
                key = (str(r.constraint), r.encoding, r.partial, sorted(r.required),
                       r.conflicted, sorted(r.missing))
                h.update(repr(key).encode())
    assert count == 3704
    assert h.hexdigest() == "3e0f10b5f1454f0aadbae578060ba1e7548178a25a543e1c4ad7d75d5d177ddb"


def test_gac_rejects_non_normalized():
    with pytest.raises(ValueError):
        gac_check(PBConstraint.from_signed([(1, 1)], ">=", 1), "gte")


# --- random constraint generators ---


def test_random_normalized_constraints_are_normalized():
    rng = SplitMix64(7)
    for _ in range(300):
        c = random_normalized_constraint(rng)
        assert c.is_normalized(), c
        assert len(set(c.variables())) == len(c.terms)


def test_random_generators_deterministic():
    a = [str(random_normalized_constraint(SplitMix64(5))) for _ in range(3)]
    b = [str(random_normalized_constraint(SplitMix64(5))) for _ in range(3)]
    assert a == b
    x = [str(random_constraint(SplitMix64(5))) for _ in range(3)]
    y = [str(random_constraint(SplitMix64(5))) for _ in range(3)]
    assert x == y


def test_random_constraint_covers_all_relations():
    rng = SplitMix64(11)
    seen = {random_constraint(rng).relation for _ in range(200)}
    assert seen == {"<=", ">=", "="}


# --- benchmark families ---


def test_gen_bench_deterministic():
    spec = pedigreelike(n=20, seed=3)
    assert gen_bench(spec).constraints == gen_bench(spec).constraints
    spec = pb12like(constraints=5, n=12, seed=3)
    assert gen_bench(spec).constraints == gen_bench(spec).constraints


def test_pedigreelike_profile():
    inst = gen_bench(pedigreelike(n=30, max_weight=456, seed=2))
    assert len(inst.constraints) == 1
    c = inst.constraints[0]
    assert len(c.terms) == 30
    weights = {w for w, _ in c.terms}
    assert weights == {1, 456}
    assert c.bound == sum(w for w, _ in c.terms) // 2
    assert c.relation == LE


def test_pedigreelike_explicit_bound():
    inst = gen_bench(pedigreelike(n=10, k=17, seed=2))
    assert inst.constraints[0].bound == 17


def test_pedigreelike_needs_two_weights():
    # the small weight is 1, so a max_weight of 1 would write weights of 2
    # under a header that says max_weight= 1, or one weight only; a spec
    # built by hand is refused too
    for max_weight in (1, 0, -3):
        want = f"^pedigreelike needs a max_weight of at least 2, not {max_weight}$"
        for spec in (pedigreelike(n=10, max_weight=max_weight), BenchSpec("pedigreelike", n=4, max_weight=max_weight)):
            with pytest.raises(ValueError, match=want):
                gen_bench(spec)
    c = gen_bench(pedigreelike(n=30, max_weight=2, seed=2)).constraints[0]
    assert {w for w, _ in c.terms} == {1, 2}


def test_pb12like_profile():
    inst = gen_bench(pb12like(constraints=8, n=16, max_weight=13, distinct_weights=7, seed=5))
    assert inst.declared_vars == 32
    assert len(inst.constraints) == 8
    for c in inst.constraints:
        assert 2 <= len(c.terms) <= 32
        assert all(1 <= w <= 13 for w, _ in c.terms)
        assert len(set(c.variables())) == len(c.terms)


def test_gen_bench_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        gen_bench(BenchSpec("nosuch", n=4))


# --- comparison table ---


def test_stats_compare_reference():
    from pbcnf import PbInstance

    inst = PbInstance(4, [REFERENCE])
    rows = stats_compare(inst, ["gte", "swc", "adder", "totalizer"], label="ref")
    by_enc = {r.encoder: r for r in rows}
    assert by_enc["gte"].aux_vars == 9
    assert by_enc["swc"].aux_vars == 20
    assert by_enc["gte"].result == "SAT"
    assert by_enc["swc"].result == "SAT"
    assert by_enc["adder"].result == "SAT"
    # the totalizer is gte by another name
    tot, gte = by_enc["totalizer"], by_enc["gte"]
    assert (tot.aux_vars, tot.aux_clauses, tot.result) == (gte.aux_vars, gte.aux_clauses, gte.result)
    assert all(r.instance == "ref" for r in rows)


def test_stats_compare_raises_on_an_unknown_encoder():
    from pbcnf import PbInstance

    with pytest.raises(ValueError):
        stats_compare(PbInstance(4, [REFERENCE]), ["nope"])


def test_stats_compare_checks_every_model(monkeypatch):
    # a solver whose model breaks the first constraint: every variable on
    # weighs 11 against the bound 5
    from pbcnf import PbInstance, bench

    monkeypatch.setattr(bench, "Solver", AllTrueEngine)
    with pytest.raises(RuntimeError) as e:
        stats_compare(PbInstance(4, [REFERENCE, CARD4_LE2]), ["swc", "gte"], label="ref")
    assert str(e.value) == (
        "ref under swc: the model violates constraint 1 (2 x1 + 3 x2 + 3 x3 + 3 x4 <= 5)"
    )


def test_stats_csv_shape():
    from pbcnf import PbInstance

    rows = stats_compare(PbInstance(4, [CARD4_LE2]), ["gte", "totalizer"], label="card")
    text = stats_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "instance,encoder,aux_vars,aux_clauses,encode_ms,solve_ms,result"
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("card,gte,")
    # unit weights: the two totalizer-family encoders agree exactly
    gte_row, tot_row = rows
    assert gte_row.aux_vars == tot_row.aux_vars
    assert gte_row.aux_clauses == tot_row.aux_clauses

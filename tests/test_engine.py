"""Embedded CDCL solver tests.

The differential harness at the bottom is the main safety net: several
hundred small random formulas are solved both by the engine and by brute
force, statuses must agree everywhere and returned models must actually
satisfy their formulas.
"""

import itertools
import os
import stat

import pytest

from pbcnf import (
    LE,
    SAT,
    TIMEOUT,
    UNSAT,
    CnfFormula,
    PBConstraint,
    Solver,
    SplitMix64,
    compile_constraints,
    encode_gte,
    lit,
    negate,
    propagate,
    random_normalized_constraint,
    solve,
    solve_external,
)
from pbcnf.engine import FALSE, TRUE, UNDEF

from conftest import formula

REFERENCE = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4)], LE, 5)


def encode_reference():
    out = CnfFormula(num_vars=4)
    encode_gte(REFERENCE, out)
    return out


def brute_force_status(f):
    for bits in itertools.product((False, True), repeat=f.num_vars):
        if all(any(bits[(l >> 1) - 1] != bool(l & 1) for l in cl) for cl in f.clauses):
            return SAT
    return UNSAT


def assert_conflict_report(s, confl, asserted=()):
    """A conflict report is [] or a clause of the solver's store, each of
    its literals FALSE under the solver's assignment or the negation of an
    asserted literal (the reason clause of a literal that level 0 made
    false holds that literal's negation)."""
    assert confl is not None
    if confl:
        assert sorted(confl) in [sorted(cl) for cl in s.clauses if cl is not None], confl
        assert all(s.val[l] == FALSE or l ^ 1 in asserted for l in confl), confl


def model_satisfies(f, model):
    assignment = {abs(n): n > 0 for n in model}
    return all(
        any(assignment[l >> 1] != bool(l & 1) for l in cl) for cl in f.clauses
    )


# --- unit propagation ---


def test_propagate_chains_root_units():
    f = formula(2, [[-1], [1, 2]])
    r = propagate(f)
    assert not r.is_conflict
    assert set(r.implied) == {lit(1, negative=True), lit(2)}


def test_propagate_with_assertions():
    f = formula(3, [[-1, 2], [-2, 3]])
    r = propagate(f, asserted=[lit(1)])
    assert set(r.implied) == {lit(2), lit(3)}


def test_propagate_reports_conflict():
    f = formula(2, [[-1, 2], [-1, -2]])
    r = propagate(f, asserted=[lit(1)])
    assert r.is_conflict
    assert sorted(r.conflict_clause) == sorted(f.clauses[1])


# a ternary clause, a unit, a tautology and a clause with a repeated literal,
# so that the clauses after them start at offsets other than their indices
INDEXED = [[2, 4, 6], [11], [8, 9], [3, 3, 7], [3, 6]]


def test_conflicts_are_reported_as_clause_literals():
    f = CnfFormula(num_vars=5, clauses=INDEXED)
    s = Solver(f)
    assert s.root_conflict is None
    # propagation: x1 makes [-x1, -x3] imply -x3, which empties [-x1, x3]
    confl, base = s.assume_propagate([lit(1)])
    assert (sorted(confl), base) == ([3, 6], 1)
    assert all(s.val[l] == FALSE for l in confl)
    s.retract()
    assert sorted(propagate(f, [lit(1)]).conflict_clause) == [3, 6]
    # an asserted literal that level 0 made false: x5 against the unit -x5
    # reports that unit, the reason clause of -x5
    assert s.assume_propagate([lit(5)]) == ([11], 1)
    s.retract()
    # two asserted literals that clash
    assert s.assume_propagate([lit(1), lit(1, negative=True)]) == ([], 1)
    s.retract()
    assert propagate(f, [lit(2), lit(2, negative=True)]).conflict_clause == []
    # an empty clause, wherever it stands
    g = CnfFormula(num_vars=5, clauses=INDEXED[:3] + [[]] + INDEXED[3:])
    assert Solver(g).root_conflict == []
    assert Solver(g).assume_propagate([lit(1)]) == ([], 0)
    assert propagate(g, [lit(1)]).conflict_clause == []
    # a unit that clashes at load: x5 after the unit -x5
    u = Solver(CnfFormula(num_vars=5, clauses=INDEXED + [[10]]))
    assert u.root_conflict == [10]
    assert u.val[10] == FALSE
    assert u.assume_propagate([lit(2)]) == ([10], len(u.trail))
    # the unit x1 empties [-x1, x3] while the formula loads
    h = CnfFormula(num_vars=5, clauses=INDEXED[:4] + [[2]] + INDEXED[4:])
    assert sorted(Solver(h).root_conflict) == [3, 6]
    assert sorted(propagate(h).conflict_clause) == [3, 6]
    # learned clauses report like the formula's: search learns the unit x1,
    # which implies x3 by [-x1, x3]
    s = Solver(formula(3, [[1, 2], [1, -2], [-1, 3]]))
    assert s.solve().status == SAT
    assert s.assume_propagate([lit(1, negative=True)]) == ([lit(1)], 2)
    s.retract()
    confl, base = s.assume_propagate([lit(3, negative=True)])
    assert (sorted(confl), base) == ([3, 6], 2)
    assert_conflict_report(s, confl, [lit(3, negative=True)])
    s.retract()
    # a root conflict that only search finds: it learns x1, then [-x1, -x2]
    # is false at level 0
    s = Solver(formula(3, [[1, 2], [1, -2], [-1, 2], [-1, -2]]))
    assert s.root_conflict is None
    assert s.solve().status == UNSAT
    assert sorted(s.root_conflict) == [3, 5]
    assert all(s.val[l] == FALSE for l in s.root_conflict)
    assert s.assume_propagate([lit(3)]) == (s.root_conflict, len(s.trail))


def test_solver_clauses_read_as_a_sequence():
    s = Solver(CnfFormula(num_vars=5, clauses=INDEXED + [[]]))
    want = [[2, 4, 6], [11], None, [3, 7], [3, 6], []]
    assert len(s.clauses) == 6
    assert s.clauses == want
    assert list(s.clauses) == want
    assert [s.clauses[i] for i in range(-6, 6)] == want + want
    assert s.clauses[1:4] == want[1:4]
    assert s.clauses[::-2] == want[::-2]
    assert s.clauses != want[:5]
    assert s.clauses != [[2, 4, 6], [11], None, [3, 7], [6, 3], []]
    with pytest.raises(IndexError):
        s.clauses[6]
    with pytest.raises(IndexError):
        s.clauses[-7]
    # learned clauses follow, with their literals in the engine's order
    s = Solver(formula(3, [[1, 2], [1, -2], [-1, 3]]))
    s.solve()
    assert len(s.clauses) == 4
    assert s.clauses[3:] == [[lit(1)]]


def test_solver_clause_slices_cross_into_learned_clauses():
    s = Solver(pigeonhole(3))
    assert s.solve().status == UNSAT
    n, k = len(s.clauses), s.num_original
    assert n >= k + 2
    one_by_one = [s.clauses[i] for i in range(n)]
    assert s.clauses[-2:] == one_by_one[-2:]
    assert s.clauses[::-1] == one_by_one[::-1]
    assert s.clauses[k - 2 : k + 2] == one_by_one[k - 2 : k + 2]
    assert s.clauses[-n - 5 : n + 5 : 3] == one_by_one[::3]
    assert list(s.clauses) == one_by_one
    assert s.clauses == one_by_one


def test_solver_loads_a_long_clause_in_linear_time():
    # long enough that deduplicating by a scan of the literals kept so far,
    # which is quadratic, would take many seconds
    long = [lit(v, negative=True) for v in range(1, 30_001)]
    s = Solver(CnfFormula(num_vars=30_000, clauses=[long + [long[7]] + long[:3]]))
    assert s.clauses[0] == long
    s = Solver(CnfFormula(num_vars=30_000, clauses=[long + [lit(30_000)]]))
    assert s.clauses[0] is None


def test_propagate_clashing_assertions():
    f = formula(1, [])
    r = propagate(f, asserted=[lit(1), lit(1, negative=True)])
    assert r.is_conflict
    assert r.conflict_clause == []


def test_propagate_on_reference_encoding_is_arc_consistent():
    f = encode_reference()
    # x2 true leaves only weight 2 of budget: both 3-weight terms must go off
    r = propagate(f, asserted=[lit(2)])
    assert not r.is_conflict
    implied = set(r.implied)
    assert lit(3, negative=True) in implied
    assert lit(4, negative=True) in implied
    # and overcommitting conflicts
    r = propagate(f, asserted=[lit(2), lit(3), lit(4)])
    assert r.is_conflict


def test_propagate_is_monotone():
    f = encode_reference()
    small = propagate(f, asserted=[lit(2)])
    big = propagate(f, asserted=[lit(2), lit(1)])
    assert not big.is_conflict
    assert set(small.implied) <= set(big.implied) | {lit(1)}


# --- solving ---


def test_solve_trivial():
    assert solve(CnfFormula()).status == SAT
    assert solve(formula(1, [[1], [-1]])).status == UNSAT
    f = formula(1, [])
    f.add_clause([])
    assert solve(f).status == UNSAT


def test_solve_returns_full_model():
    f = formula(3, [[1, 2], [-1, 3]])
    r = solve(f)
    assert r.status == SAT
    assert sorted(abs(n) for n in r.model) == [1, 2, 3]
    assert model_satisfies(f, r.model)


def test_solve_handles_tautologies_and_duplicates():
    f = formula(2, [[1, -1], [2, 2, -1], [2]])
    r = solve(f)
    assert r.status == SAT
    assert model_satisfies(f, r.model)


def test_solve_with_assumptions():
    f = encode_reference()
    r = solve(f, assumptions=[lit(1), lit(2)])  # 2 + 3 = 5, still fine
    assert r.status == SAT
    assignment = {abs(n): n > 0 for n in r.model}
    assert assignment[1] and assignment[2]
    assert solve(f, assumptions=[lit(2), lit(3)]).status == UNSAT  # 3 + 3 > 5
    # the same solver object is reusable after an assumption failure
    s = Solver(f)
    assert s.solve([lit(2), lit(3)]).status == UNSAT
    assert s.solve([lit(1), lit(2)]).status == SAT
    assert s.solve().status == SAT


def test_assumption_already_false_at_root():
    f = formula(2, [[-1], [1, 2]])
    assert solve(f, assumptions=[lit(1)]).status == UNSAT
    assert solve(f, assumptions=[lit(2)]).status == SAT


def test_assumption_out_of_range_rejected():
    with pytest.raises(ValueError):
        solve(formula(1, [[1]]), assumptions=[lit(7)])


@pytest.mark.parametrize("code", [0, 1, 2 * 2 + 2])
def test_assume_propagate_rejects_out_of_range_literal(code):
    f = formula(2, [[1, 2]])
    s = Solver(f)
    with pytest.raises(ValueError, match="outside"):
        s.assume_propagate([lit(1), code])
    assert s.trail == [] and s.decision_level == 0  # nothing was asserted
    with pytest.raises(ValueError, match="outside"):
        propagate(f, [code])
    with pytest.raises(ValueError, match="outside"):
        s.solve([code])


def pigeonhole(holes):
    pigeons = holes + 1
    var = lambda p, h: (p - 1) * holes + h
    f = CnfFormula(num_vars=pigeons * holes)
    for p in range(1, pigeons + 1):
        f.add_clause([lit(var(p, h)) for h in range(1, holes + 1)])
    for h in range(1, holes + 1):
        for p1 in range(1, pigeons + 1):
            for p2 in range(p1 + 1, pigeons + 1):
                f.add_clause([lit(var(p1, h), negative=True), lit(var(p2, h), negative=True)])
    return f


def test_pigeonhole_unsat():
    for holes in (2, 3, 4):
        assert solve(pigeonhole(holes)).status == UNSAT


def test_conflict_budget_gives_timeout():
    r = solve(pigeonhole(5), max_conflicts=1)
    assert r.status == TIMEOUT
    assert r.model is None


def test_negative_conflict_cap_rejected():
    s = Solver(pigeonhole(3))
    with pytest.raises(ValueError, match="max_conflicts"):
        s.solve(max_conflicts=-3)
    assert s.solve(max_conflicts=0).status == TIMEOUT
    assert s.solve().status == UNSAT


def test_solve_is_deterministic():
    f = pigeonhole(3)
    g = formula(4, [[1, 2, 3], [-1, -2], [-2, -3], [2, 4], [-4, 1]])
    assert solve(g).model == solve(g).model
    assert solve(f).status == solve(f).status


def test_assume_propagate_and_retract():
    s = Solver(encode_reference())
    conflict, base = s.assume_propagate([lit(2)])
    assert conflict is None
    derived = {s.trail[i] for i in range(base, len(s.trail))}
    assert lit(3, negative=True) in derived
    s.retract()
    assert s.decision_level == 0
    conflict, _ = s.assume_propagate([lit(2), lit(3), lit(4)])
    assert conflict is not None
    s.retract()


# --- differential harness ---


def random_formula(rng):
    n = rng.randint(2, 7)
    m = rng.randint(1, 22)
    f = CnfFormula(num_vars=n)
    for _ in range(m):
        width = rng.randint(1, 3)
        cl = [lit(rng.randint(1, n), negative=rng.chance(1, 2)) for _ in range(width)]
        f.add_clause(cl)
    return f


def test_differential_against_brute_force():
    rng = SplitMix64(20260818)
    disagreements = []
    for i in range(400):
        f = random_formula(rng)
        got = solve(f)
        want = brute_force_status(f)
        if got.status != want:
            disagreements.append((i, want, got.status))
        elif got.status == SAT and not model_satisfies(f, got.model):
            disagreements.append((i, "bad model", got.model))
    assert not disagreements


def test_differential_with_assumptions():
    rng = SplitMix64(99)
    for _ in range(150):
        f = random_formula(rng)
        n = f.num_vars
        assumed = [
            lit(v, negative=rng.chance(1, 2))
            for v in rng.sample(1, n, rng.randint(0, min(2, n)))
        ]
        got = solve(f, assumptions=assumed)
        g = CnfFormula(num_vars=n, clauses=[list(cl) for cl in f.clauses])
        for a in assumed:
            g.add_clause([a])
        assert got.status == brute_force_status(g)


def test_reused_solver_keeps_a_root_conflict():
    # every assignment of x1, x2 breaks a clause, but only search finds the
    # clash: it learns x1 and then conflicts at level 0
    f = formula(3, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
    s = Solver(f)
    assert s.solve().status == UNSAT
    assert s.solve().status == UNSAT
    assert s.solve([lit(3)]).status == UNSAT
    conflict, _ = s.assume_propagate([lit(3)])
    assert conflict is not None


def test_differential_reused_solver():
    # one solver answers several assumption sets in turn, as oracle_check
    # does; without unit clauses only search can find a formula unsatisfiable
    rng = SplitMix64(4711)
    for _ in range(150):
        f = random_formula(rng)
        f.clauses = [cl for cl in f.clauses if len(cl) > 1]
        n = f.num_vars
        s = Solver(f)
        for _ in range(4):
            assumed = [
                lit(v, negative=rng.chance(1, 2))
                for v in rng.sample(1, n, rng.randint(0, min(3, n)))
            ]
            got = s.solve(assumed)
            g = CnfFormula(num_vars=n, clauses=[list(cl) for cl in f.clauses])
            for a in assumed:
                g.add_clause([a])
            assert got.status == brute_force_status(g)
            if got.status == SAT:
                assert model_satisfies(g, got.model)


def kept_level_formulas(rng):
    """Random CNFs with units, duplicate literals and tautologies, then
    encoder output and pigeonhole formulas.  Half the random CNFs have no
    units, and a third of those hold all four clauses over two variables, so
    that only search finds them unsatisfiable."""
    for _ in range(80):
        n = rng.randint(2, 10)
        f = CnfFormula(num_vars=n)
        for _ in range(rng.randint(n, 5 * n)):
            width = rng.randint(1, 4)
            f.add_clause([lit(rng.randint(1, n), negative=rng.chance(1, 2)) for _ in range(width)])
        if rng.chance(1, 2):
            f.clauses = [cl for cl in f.clauses if len(set(cl)) > 1]
            if rng.chance(1, 3):  # every sign pattern over two variables
                u, v = rng.sample(1, n, 2)
                f.clauses += [[lit(u, a), lit(v, b)] for a in (False, True) for b in (False, True)]
        yield f
    for enc in ("gte", "swc", "adder", "auto"):
        for _ in range(8):
            c = random_normalized_constraint(rng, 6, 10, 30)
            yield compile_constraints([c], max(c.variables()), enc).formula
    for holes in (3, 4):  # search meets conflicts, with and without an answer
        f = pigeonhole(holes)
        yield f
        yield CnfFormula(num_vars=f.num_vars, clauses=f.clauses[1:])


def next_assumptions(rng, prev, n):
    """A new assumption list that shares a prefix with prev, reorders it,
    contradicts one of its literals, or starts afresh."""
    kind = rng.randint(0, 3)
    if kind == 0 and prev:  # shared prefix, fresh tail
        asn = prev[: rng.randint(1, len(prev))]
    elif kind == 1 and prev:  # same literals, another order
        asn = list(prev)
        for i in range(len(asn) - 1, 0, -1):
            j = rng.randint(0, i)
            asn[i], asn[j] = asn[j], asn[i]
        return asn
    elif kind == 2 and prev:  # one literal flipped, or its negation appended
        i = rng.randint(0, len(prev) - 1)
        if rng.chance(1, 2):
            return prev[:i] + [prev[i] ^ 1] + prev[i + 1 :]
        return prev + [prev[i] ^ 1]
    else:
        asn = []
    for _ in range(rng.randint(0, 3)):
        asn.append(lit(rng.randint(1, n), negative=rng.chance(1, 2)))
    return asn


def assert_propagation_fixpoint(s):
    """No clause is falsified or unit under the solver's trail."""
    for cl in s.clauses:
        if cl is None or any(s.val[l] == TRUE for l in cl):
            continue
        assert sum(s.val[l] == UNDEF for l in cl) >= 2, cl


def test_kept_assumption_levels_match_a_fresh_solver():
    # one solver answers a long sequence of calls whose assumptions share,
    # reorder and contradict the kept levels; every answer must be the one a
    # fresh solver gives, and the kept levels must be a propagation fixpoint
    rng = SplitMix64(90210)
    reused = root_unsat = timeouts = 0
    for f in kept_level_formulas(rng):
        n = f.num_vars
        s = Solver(f)
        # whether loading (which propagates the units) found no clash, so
        # that only search can find a root-level conflict
        by_search = s.root_conflict is None
        asn: list[int] = []
        for _ in range(20):
            step = rng.randint(0, 9)
            if step == 0:
                partial = [lit(rng.randint(1, n), negative=rng.chance(1, 2)) for _ in range(rng.randint(0, 3))]
                confl, _ = s.assume_propagate(partial)
                fresh = propagate(f, partial)
                if confl is not None:
                    assert_conflict_report(s, confl, partial)
                if fresh.is_conflict:
                    assert confl is not None
                elif confl is None:
                    assert set(fresh.implied) <= set(s.trail)
                if rng.chance(1, 2):  # otherwise the next solve pops the level
                    s.retract()
                continue
            if step == 1:
                asn = []
            else:
                asn = next_assumptions(rng, asn, n)
            shared = 0
            for kept, a in zip(s.assumed, asn):
                if kept != a:
                    break
                shared += 1
            reused += shared > 0
            want = Solver(f).solve(asn).status
            if step in (2, 3):
                got = s.solve(asn, max_conflicts=0)
                assert got.status in (TIMEOUT, want)
                timeouts += got.status == TIMEOUT
            else:
                got = s.solve(asn)
                assert got.status == want, (f, asn)
            if got.status == SAT:
                assert model_satisfies(f, got.model)
                assert set(asn) <= {lit(abs(v), negative=v < 0) for v in got.model}
            assert len(s.trail_lim) == len(s.assumed)
            if s.root_conflict is None:
                assert_propagation_fixpoint(s)
        root_unsat += by_search and s.root_conflict is not None
    assert reused >= 300
    assert root_unsat >= 10
    assert timeouts >= 4


# --- external solver hand-off ---


def make_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_external_solver_sat_with_padding(tmp_path):
    cmd = make_stub(tmp_path, "fake_sat.sh", 'echo SAT\necho "1 -2 0"\n')
    r = solve_external(formula(4, [[1, 2]]), cmd)
    assert r.status == SAT
    assert r.model == [1, -2, -3, -4]  # unmentioned variables default to false


def test_external_solver_unsat(tmp_path):
    cmd = make_stub(tmp_path, "fake_unsat.sh", "echo UNSAT\n")
    assert solve_external(formula(1, [[1]]), cmd).status == UNSAT


def test_external_solver_receives_dimacs(tmp_path):
    # the stub copies its input aside so we can check what was handed over
    copy = tmp_path / "seen.cnf"
    cmd = make_stub(tmp_path, "fake_tee.sh", f'cp "$1" {copy}\necho UNSAT\n')
    f = formula(2, [[1, -2]])
    solve_external(f, cmd)
    assert copy.read_text() == "p cnf 2 1\n1 -2 0\n"


def test_external_solver_timeout(tmp_path):
    cmd = make_stub(tmp_path, "fake_slow.sh", "sleep 5\necho UNSAT\n")
    assert solve_external(formula(1, [[1]]), cmd, timeout=0.2).status == TIMEOUT


def test_external_solver_garbage_raises(tmp_path):
    cmd = make_stub(tmp_path, "fake_bad.sh", "echo MAYBE\n")
    with pytest.raises(RuntimeError, match="unrecognized"):
        solve_external(formula(1, [[1]]), cmd)
    cmd = make_stub(tmp_path, "fake_mute.sh", "true\n")
    with pytest.raises(RuntimeError, match="no output"):
        solve_external(formula(1, [[1]]), cmd)
    cmd = make_stub(tmp_path, "fake_model.sh", "echo SAT\necho 'x1 0'\n")
    with pytest.raises(RuntimeError, match="unrecognized"):
        solve_external(formula(1, [[1]]), cmd)


def answer_stub(tmp_path, output):
    return make_stub(tmp_path, "answer.sh", f"cat <<'EOF'\n{output}EOF\n")


@pytest.mark.parametrize(
    "output,status,model",
    [
        ("c bare form with a comment\nSAT\n1 -2 0\n", SAT, [1, -2, -3, -4]),
        ("c kissat-style\ns SATISFIABLE\nv 1 -2\nv 3 0\n", SAT, [1, -2, 3, -4]),
        ("s SATISFIABLE\nv -4 2\n", SAT, [-1, 2, -3, -4]),
        ("s SATISFIABLE\n", SAT, [-1, -2, -3, -4]),
        ("c\ns UNSATISFIABLE\n", UNSAT, None),
        ("s UNKNOWN\n", TIMEOUT, None),
    ],
    ids=["bare-comment", "competition", "no-terminator", "no-model", "unsat", "unknown"],
)
def test_external_solver_reads_both_forms(tmp_path, output, status, model):
    r = solve_external(formula(4, [[1, 2]]), answer_stub(tmp_path, output))
    assert (r.status, r.model) == (status, model)


@pytest.mark.parametrize(
    "output,fragment",
    [
        ("SAT\n1 5 0\n", "x5, above"),
        ("s SATISFIABLE\nv 1 -5 0\n", "x5, above"),
        ("SAT\n1 0 2 0\n", "0 before its end"),
        ("s SATISFIABLE\nv 1 0\nv 2 0\n", "0 before its end"),
        ("SAT\n1 2 -2 0\n", "x2 twice"),
        ("s SATISFIABLE\nv 3\nv 3 0\n", "x3 twice"),
        ("s MAYBE\n", "unrecognized"),
        ("s SATISFIABLE\ns UNSATISFIABLE\n", "unrecognized"),
        ("s SATISFIABLE\n1 2 0\n", "unrecognized"),
        ("c only a comment\n", "no answer"),
    ],
    ids=["above", "above-v", "zero", "zero-v", "twice", "twice-v", "bad-status", "two-status", "stray", "comment-only"],
)
def test_external_solver_bad_answer_raises(tmp_path, output, fragment):
    cmd = answer_stub(tmp_path, output)
    with pytest.raises(RuntimeError, match=fragment):
        solve_external(formula(4, [[1, 2]]), cmd)


def test_luby_sequence_prefix():
    from pbcnf.engine import _luby

    assert [_luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

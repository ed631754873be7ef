"""Embedded CDCL solver tests.

The differential harness at the bottom is the main safety net: several
hundred small random formulas are solved both by the engine and by brute
force, statuses must agree everywhere and returned models must actually
satisfy their formulas.
"""

import itertools

import pytest

from pbcnf import (
    SAT,
    TIMEOUT,
    UNSAT,
    CnfFormula,
    Solver,
    SplitMix64,
    compile_constraints,
    lit,
    random_normalized_constraint,
    solve,
    solve_external,
)
from pbcnf.engine import FALSE, TRUE, UNDEF

from conftest import REFERENCE, assert_conflict_report, encode, formula, make_stub


def brute_force_status(f):
    for bits in itertools.product((False, True), repeat=f.num_vars):
        if all(any(bits[(l >> 1) - 1] != bool(l & 1) for l in cl) for cl in f.clauses):
            return SAT
    return UNSAT


def model_satisfies(f, model):
    assignment = {abs(n): n > 0 for n in model}
    return all(
        any(assignment[l >> 1] != bool(l & 1) for l in cl) for cl in f.clauses
    )


# --- unit propagation ---


def test_assume_propagate_chains_root_units():
    s = Solver(formula(2, [[-1], [1, 2]]))
    assert s.assume_propagate() is None
    assert set(s.trail) == {lit(1, negative=True), lit(2)}
    assert s.trail_lim == []  # both at level 0, and no literal opens no level


def test_assume_propagate_with_assertions():
    s = Solver(formula(3, [[-1, 2], [-2, 3]]))
    assert s.assume_propagate([lit(1)]) is None
    assert s.trail_lim == [0] and set(s.trail) == {lit(1), lit(2), lit(3)}


def test_assume_propagate_reports_conflict():
    f = formula(2, [[-1, 2], [-1, -2]])
    confl = Solver(f).assume_propagate([lit(1)])
    assert confl is not None
    assert sorted(confl) == sorted(list(f.clauses)[1])


# a ternary clause, a unit, a tautology and a clause with a repeated literal,
# so that the clauses after them start at offsets other than their indices
INDEXED = [[2, 4, 6], [11], [8, 9], [3, 3, 7], [3, 6]]


def test_conflicts_are_reported_as_clause_literals():
    f = CnfFormula(num_vars=5, clauses=INDEXED)
    s = Solver(f)
    assert s.root_conflict is None
    # propagation: x1 makes [-x1, -x3] imply -x3, which empties [-x1, x3]
    confl = s.assume_propagate([lit(1)])
    assert (sorted(confl), s.trail_lim) == ([3, 6], [1])
    assert all(s.val[l] == FALSE for l in confl)
    assert sorted(Solver(f).assume_propagate([lit(1)])) == [3, 6]
    # an asserted literal that level 0 made false: x5 against the unit -x5
    # reports that unit, the reason clause of -x5, and opens no level
    assert (s.assume_propagate([lit(5)]), s.trail_lim) == ([11], [])
    # two asserted literals that clash (x1 alone would propagate to a conflict
    # first); the first one's level stays
    assert (s.assume_propagate([lit(2), lit(2, negative=True)]), s.trail_lim) == ([], [1])
    assert Solver(f).assume_propagate([lit(2), lit(2, negative=True)]) == []
    # an empty clause, wherever it stands
    g = CnfFormula(num_vars=5, clauses=INDEXED[:3] + [[]] + INDEXED[3:])
    assert Solver(g).root_conflict == []
    t = Solver(g)
    assert (t.assume_propagate([lit(1)]), t.trail, t.trail_lim) == ([], [], [])
    # a unit that clashes at load: x5 after the unit -x5
    u = Solver(CnfFormula(num_vars=5, clauses=INDEXED + [[10]]))
    assert u.root_conflict == [10]
    assert u.val[10] == FALSE
    trail = list(u.trail)
    assert (u.assume_propagate([lit(2)]), u.trail, u.trail_lim) == ([10], trail, [])
    # the unit x1 empties [-x1, x3] while the formula loads
    h = CnfFormula(num_vars=5, clauses=INDEXED[:4] + [[2]] + INDEXED[4:])
    assert sorted(Solver(h).root_conflict) == [3, 6]
    assert sorted(Solver(h).assume_propagate()) == [3, 6]
    # learned clauses report like the formula's: search learns the unit x1,
    # which implies x3 by [-x1, x3]
    s = Solver(formula(3, [[1, 2], [1, -2], [-1, 3]]))
    assert s.solve().status == SAT
    assert (s.assume_propagate([lit(1, negative=True)]), s.trail_lim) == ([lit(1)], [])
    confl = s.assume_propagate([lit(3, negative=True)])
    assert (sorted(confl), s.trail_lim) == ([3, 6], [])
    assert_conflict_report(s, confl, [lit(3, negative=True)])
    # a root conflict that only search finds: it learns x1, then [-x1, -x2]
    # is false at level 0
    s = Solver(formula(3, [[1, 2], [1, -2], [-1, 2], [-1, -2]]))
    assert s.root_conflict is None
    assert s.solve().status == UNSAT
    assert sorted(s.root_conflict) == [3, 5]
    assert all(s.val[l] == FALSE for l in s.root_conflict)
    trail = list(s.trail)
    assert (s.assume_propagate([lit(3)]), s.trail, s.trail_lim) == (s.root_conflict, trail, [])


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
    n, k = len(s.clauses), len(pigeonhole(3).clauses)
    assert n >= k + 2
    one_by_one = [s.clauses[i] for i in range(n)]
    assert s.clauses[-2:] == one_by_one[-2:]
    assert s.clauses[::-1] == one_by_one[::-1]
    assert s.clauses[k - 2 : k + 2] == one_by_one[k - 2 : k + 2]
    assert s.clauses[-n - 5 : n + 5 : 3] == one_by_one[::3]
    assert list(s.clauses) == one_by_one
    assert s.clauses == one_by_one


def test_solver_clause_view_sees_clauses_learned_after_it_was_read():
    # the tracer's reads: the length before a solve, the new clauses after
    f = pigeonhole(4)
    s = Solver(f)
    v = s.clauses
    assert v[0] == [lit(1), lit(2), lit(3), lit(4)]
    n, mark = len(v), len(f.lits)  # no clause repeats a variable: lits as loaded
    for cap in (5, None):
        s.solve(max_conflicts=cap)
        assert len(v) == s.lits.count(0) > n
        learned, cl = [], []
        for l in s.lits[mark:]:
            if l:
                cl.append(l)
            else:
                learned.append(cl)
                cl = []
        assert v[n:] == learned
        n, mark = len(v), len(s.lits)
    assert v is s.clauses


def test_solver_loads_a_long_clause_in_linear_time():
    # long enough that deduplicating by a scan of the literals kept so far,
    # which is quadratic, would take many seconds
    long = [lit(v, negative=True) for v in range(1, 30_001)]
    s = Solver(CnfFormula(num_vars=30_000, clauses=[long + [long[7]] + long[:3]]))
    assert s.clauses[0] == long
    s = Solver(CnfFormula(num_vars=30_000, clauses=[long + [lit(30_000)]]))
    assert s.clauses[0] is None


# one clause of each kind the loader tells apart, after a first clause it
# shortens, so every later clause is moved down as it is stored
LOADED = [
    [1, 1, 2],  # a repeated literal: stored as [x1, x2]
    [3, -4],  # two literals
    [-1, 2, 5],  # three literals
    [1, -2, 3, 4],  # four literals over distinct variables: stored as read
    [2, 5, 2, 6, -3],  # a long clause with a repeated literal
    [4, -4, 1],  # a tautology: stored as the code 1
    [-6],  # a unit
    [],  # the empty clause
]


def test_solver_load_stores_and_watches_each_kind_of_clause():
    s = Solver(formula(6, LOADED))
    assert s.lits == [
        2, 4, 0,
        6, 9, 0,
        3, 4, 10, 0,
        2, 5, 6, 8, 0,
        4, 10, 12, 7, 0,
        1, 0,
        13, 0,
        0,
    ]  # fmt: skip
    watched = {2: [0, 10], 3: [6], 4: [0, 6, 15], 5: [10], 6: [3], 9: [3], 10: [15]}
    assert s.watches == [watched.get(l, []) for l in range(14)]
    # the empty clause is the root conflict, so the unit is not asserted
    assert (s.root_conflict, s.trail) == ([], [])


@pytest.mark.parametrize("bad", [[9, 2], [2, 9, -3], [2, -3, 4, -9]], ids=["binary", "ternary", "long"])
def test_solver_load_names_the_clause_of_an_out_of_range_code(bad):
    codes = [lit(abs(n), n < 0) for n in bad]
    for codes, message in (
        (codes, "names x9, above the formula's 6 variables"),
        ([1 if l >> 1 == 9 else l for l in codes], "holds literal code 1, below 2, the code of x1"),
    ):
        f = formula(6, LOADED)
        f.lits += codes + [0]
        with pytest.raises(ValueError, match=rf"^clause 8 {message}$"):
            Solver(f)


def test_assume_propagate_clashing_assertions():
    assert Solver(formula(1, [])).assume_propagate([lit(1), lit(1, negative=True)]) == []


def test_assume_propagate_on_reference_encoding_is_arc_consistent():
    s = Solver(encode(REFERENCE).formula)
    # x2 true leaves only weight 2 of budget: both 3-weight terms must go off
    assert s.assume_propagate([lit(2)]) is None
    assert {lit(3, negative=True), lit(4, negative=True)} <= set(s.trail)
    # and overcommitting conflicts
    assert s.assume_propagate([lit(2), lit(3), lit(4)]) is not None


def test_assume_propagate_is_monotone():
    s = Solver(encode(REFERENCE).formula)
    assert s.assume_propagate([lit(2)]) is None
    small = set(s.trail)
    assert s.assume_propagate([lit(2), lit(1)]) is None
    assert small < set(s.trail)


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
    f = encode(REFERENCE).formula
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
    assert s.trail == [] and len(s.trail_lim) == 0  # nothing was asserted
    with pytest.raises(ValueError, match="outside"):
        Solver(f).assume_propagate([code])
    with pytest.raises(ValueError, match="outside"):
        s.solve([code])


def test_bad_literal_message_names_the_first():
    s = Solver(formula(2, [[1, 2]]))
    for call in (s.solve, s.assume_propagate):
        with pytest.raises(ValueError, match=r"^literal 0 is outside"):
            call([lit(1), 0, 99])
        with pytest.raises(ValueError, match=r"^literal 99 is outside"):
            call([lit(1), 99, 0])


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
    s = Solver(encode(REFERENCE).formula)
    assert s.assume_propagate([lit(2)]) is None
    assert lit(3, negative=True) in s.trail[s.trail_lim[0] :]
    s.retract()
    assert len(s.trail_lim) == 0
    assert s.assume_propagate([lit(2), lit(3), lit(4)]) is not None
    s.retract()
    assert len(s.trail_lim) == 0


def test_assumed_at_each_exit():
    # x1 implies x2, so assuming x2 next opens an empty level; x3 rules out x4
    s = Solver(formula(5, [[-1, 2], [-3, -4]]))
    asn = [lit(1), lit(2), lit(3)]
    assert s.solve(asn).status == SAT
    assert s.assumed == asn and s.trail_lim[1] == s.trail_lim[2]
    asn = [lit(1), lit(3), lit(4)]
    assert s.solve(asn).status == UNSAT
    assert s.assumed == asn[:2] and len(s.trail_lim) == 2
    assert s.assume_propagate([lit(5)]) is None
    assert s.assumed == [lit(5)] and len(s.trail_lim) == 1
    assert s.solve(asn[:2]).status == SAT and s.assumed == asn[:2]
    s.retract()
    assert s.assumed == [] and s.trail_lim == []
    s = Solver(pigeonhole(4))
    assert s.solve([lit(1)], max_conflicts=0).status == TIMEOUT
    assert s.assumed == [] and s.trail_lim == []
    # search learns x1 under the assumption x3, then conflicts at level 0
    s = Solver(formula(3, [[1, 2], [1, -2], [-1, 2], [-1, -2]]))
    assert s.solve([lit(3)]).status == UNSAT and s.root_conflict is not None
    assert s.assumed == [] and s.trail_lim == []


def test_assume_propagate_keeps_a_shared_prefix():
    # x1 implies x2 and x3 implies x4; the second call repeats x1, x3
    s = Solver(formula(6, [[-1, 2], [-3, 4], [-5, 6]]))
    assert s.assume_propagate([lit(1), lit(3), lit(5)]) is None
    trail, lim = list(s.trail), list(s.trail_lim)
    opened = []
    s._open_level = lambda l: (opened.append(l), Solver._open_level(s, l))
    asserted = [lit(1), lit(3), lit(6, negative=True)]
    assert s.assume_propagate(asserted) is None
    assert opened == asserted[2:] and s.trail_lim[:2] == lim[:2]
    assert s.trail[: lim[2]] == trail[: lim[2]] and s.assumed == asserted
    assert lit(5, negative=True) in s.trail


def test_assume_propagate_drops_a_conflicting_level():
    # under x1, which implies x2, asserting x3 implies x4 and empties [-x2, -x3, -x4]
    s = Solver(formula(4, [[-1, 2], [-1, -3, 4], [-2, -3, -4]]))
    asserted = [lit(1), lit(3)]
    first = s.assume_propagate(asserted)
    assert sorted(first) == [5, 7, 9] and s.assumed == [lit(1)] and len(s.trail_lim) == 2
    assert s.assume_propagate(asserted) == first
    assert s.assumed == [lit(1)]


def test_assume_propagate_reports_a_literal_an_earlier_one_made_false():
    # x1 implies x2, so asserting -x2 after x1 reports x2's reason clause
    s = Solver(formula(3, [[-1, 2]]))
    asserted = [lit(1), lit(2, negative=True)]
    confl = s.assume_propagate(asserted)
    assert sorted(confl) == [3, 4] and s.level[2] == 1
    assert_conflict_report(s, confl, asserted)
    assert s.assumed == [lit(1)] and s.trail_lim == [0]


def test_solve_after_assume_propagate_answers_as_a_fresh_solver():
    rng = SplitMix64(35)
    conflicts = statuses = 0
    for _ in range(200):
        f = random_formula(rng)
        n = f.num_vars
        asn = [lit(v, negative=rng.chance(1, 2)) for v in rng.sample(1, n, rng.randint(2, n))]
        s = Solver(f)
        conflicts += s.assume_propagate(asn[:2]) is not None
        got, want = s.solve(asn), Solver(f).solve(asn)
        assert got.status == want.status, (f, asn)
        if got.status == SAT:
            assert model_satisfies(f, got.model)
            assert set(asn) <= {lit(abs(v), negative=v < 0) for v in got.model}
        statuses += got.status == SAT
    assert conflicts >= 20 and 20 <= statuses <= 180


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
    assert s.assume_propagate([lit(3)]) is not None


def test_differential_reused_solver():
    # one solver answers several assumption sets in turn, as oracle_check
    # does; without unit clauses only search can find a formula unsatisfiable
    rng = SplitMix64(4711)
    for _ in range(150):
        f = random_formula(rng)
        f = CnfFormula(f.num_vars, [cl for cl in f.clauses if len(cl) > 1])
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
            f = CnfFormula(n, [cl for cl in f.clauses if len(set(cl)) > 1])
            if rng.chance(1, 3):  # every sign pattern over two variables
                u, v = rng.sample(1, n, 2)
                for a in (False, True):
                    for b in (False, True):
                        f.add_clause([lit(u, a), lit(v, b)])
        yield f
    for enc in ("gte", "swc", "adder", "auto"):
        for _ in range(8):
            c = random_normalized_constraint(rng, 6, 10, 30)
            yield compile_constraints([c], max(c.variables()), enc).formula
    for holes in (3, 4):  # search meets conflicts, with and without an answer
        f = pigeonhole(holes)
        yield f
        yield CnfFormula(num_vars=f.num_vars, clauses=list(f.clauses)[1:])


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
                confl = s.assume_propagate(partial)
                if confl is not None:
                    assert_conflict_report(s, confl, partial)
                fresh = Solver(f)
                if fresh.assume_propagate(partial) is not None:
                    assert confl is not None
                elif confl is None:
                    assert set(fresh.trail) <= set(s.trail)
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


def test_external_solver_blank_command_raises():
    # shlex.split gives no words; the DIMACS file itself must not be run
    with pytest.raises(ValueError, match="no program to run"):
        solve_external(formula(1, [[1]]), "   ")


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

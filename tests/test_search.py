"""The engine's search, checked by what it derives: learned clauses RUP by the independent `conftest.Rup`,
answers checked, the watch, reason, heap and `assumed` invariants after every solve, the formula left
untouched, and two sha256 pins of the trajectory, recorded while a list-per-clause second engine reproduced
it step for step.  A change that alters the search re-records both, saying why."""

from hashlib import sha256

import pytest

from pbcnf import SAT, TIMEOUT, UNSAT, CnfFormula, Solver, SolveResult, SplitMix64, compile_constraints, gc_paused
from pbcnf import lit, negate, random_normalized_constraint
from pbcnf.engine import FALSE, TRUE, UNDEF

from conftest import Rup, assert_conflict_report, check_search, clause_index, pb12


def assert_heap_invariant(s):
    """At most one live `prio` entry per variable, keyed `heap_act[v]`; one keyed by its activity if unassigned."""
    entries = set(s.prio)
    for v in range(1, s.nvars + 1):
        if s.heap_act[v] != -1.0:
            assert (-s.heap_act[v], v) in entries, v
        if s.val[2 * v] == UNDEF:
            assert s.heap_act[v] == s.activity[v], v
            assert (-s.activity[v], v) in entries, v


def assert_invariants(s):
    """Each clause of two or more literals is on its first two literals' watch lists once each and on no
    other; each implied trail literal heads its reason clause, whose other literals are false; the heap;
    `assumed` names no more levels than the trail holds, and each `assumed[i]` is true at level i+1 or below."""
    lits, want, o = s.lits, [[] for _ in s.watches], 0
    while o < len(lits):
        z = lits.index(0, o)
        if z - o >= 2:
            want[lits[o]].append(o)
            want[lits[o + 1]].append(o)
        o = z + 1
    assert list(map(sorted, s.watches)) == want
    for l in s.trail:
        o = s.reason[l >> 1]
        if o >= 0:
            assert lits[o] == l and all(s.val[q] == FALSE for q in lits[o + 1 : lits.index(0, o)]), (l, o)
    assert_heap_invariant(s)
    assert len(s.assumed) <= len(s.trail_lim)
    for i, a in enumerate(s.assumed):
        assert s.val[a] == TRUE and s.level[a >> 1] <= i + 1, (i, a)


# criterion 8's 30 jobs; then rows started so close to the 1e100 ceiling
# that most searches rescale activities while variables are assigned
@pytest.mark.parametrize("jobs, var_inc, rescales, pin", [
    ([(seed, enc) for seed in range(100, 110) for enc in ("gte", "swc", "adder")], 1.0, 0,
     "236091b9a0241e565eb187e7f54e0e0c325bf29792b5c9143bb19c3110a895b6"),
    ([(100, "gte")] + [(seed, "adder") for seed in range(100, 110)], 1e98, 8,
     "66d144d23fe3ed5fc04327cbcce0509c99c221086428e3e08a77f8e0aea948ab"),
], ids=["criterion-8", "rescale"])
def test_searches_check_and_hold_their_pin(jobs, var_inc, rescales, pin):
    digest, verdicts, rescaled, moved = sha256(), {}, 0, 0
    for seed, enc in jobs:
        instance, f = pb12(seed, enc)
        snapshot = (f.num_vars, list(f.lits))
        s = Solver(f)
        s.var_inc = var_inc
        with gc_paused():  # lists by the thousand, and no cycle among them
            result = s.solve(max_conflicts=300)
            check_search(f, instance.constraints, s.clauses[len(f.clauses) :], result)
            assert_invariants(s)
        digest.update(repr((result.status, result.model, s.lits, s.watches, s.trail, s.trail_lim,
                            s.activity, s.var_inc, bytes(s.saved_phase))).encode())
        verdicts.setdefault(seed, set()).add(result.status)
        rescaled += s.var_inc < var_inc  # it only grows, but for a rescale
        # the solver keeps its own store: solving with assumptions and
        # assume_propagate with retract change no clause of the formula either,
        # though propagation moves the watched literals of the solver's copy
        assert (f.num_vars, f.lits) == snapshot
        asn = [lit(v, negative=v % 2 == 0) for v in range(1, 5)]
        s.solve(asn, max_conflicts=300)
        assert_invariants(s)
        assert (f.num_vars, f.lits) == snapshot
        s.assume_propagate(asn[::-1])
        s.retract()
        assert (f.num_vars, f.lits) == snapshot
        moved += s.lits[: len(f.lits)] != f.lits
    assert set().union(*verdicts.values()) == {SAT, UNSAT, TIMEOUT} and rescaled >= rescales
    assert not any({SAT, UNSAT} <= v for v in verdicts.values())  # the encoders agree
    assert digest.hexdigest() == pin
    assert moved > 2 * len(jobs) // 3


def test_the_checks_reject_a_wrong_derivation_or_answer():
    instance, f = pb12(100, "adder")
    s = Solver(f)
    result = s.solve(max_conflicts=300)
    assert result.status == SAT
    learned = s.clauses[len(f.clauses) :]
    k, cl = next((i, cl) for i, cl in enumerate(learned) if len(cl) >= 2)
    for bad in (cl[1:], [negate(cl[0])] + cl[1:]):  # its first literal dropped, then flipped
        with pytest.raises(AssertionError, match=f"clause {k} is not RUP"):
            check_search(f, instance.constraints, learned[:k] + [bad] + learned[k + 1 :], result)
    with pytest.raises(AssertionError, match="UNSAT, but"):
        check_search(f, instance.constraints, learned, SolveResult(UNSAT))
    # flip the variable of some clause's only true literal
    true = {lit(abs(n), negative=n < 0) for n in result.model}
    (only,) = next(hits for hits in (true.intersection(c or ()) for c in f.clauses) if len(hits) == 1)
    model = [-n if abs(n) == only >> 1 else n for n in result.model]
    with pytest.raises(AssertionError, match="the model breaks a clause"):
        check_search(f, instance.constraints, learned, SolveResult(SAT, model))


def test_conflict_after_a_moved_watch():
    # the first decision, not x1, scans x1's watches in clause order: the
    # first clause moves its watch to x3, the second implies not x5, the
    # third is then false, and the fourth must stay on the list
    x = [None] + [lit(v) for v in range(1, 7)]
    f = CnfFormula(num_vars=6, clauses=[[x[1], x[2], x[3]], [x[1], negate(x[5])], [x[1], x[5]], [x[1], x[6]]])
    s = Solver(f)
    assert s.solve(max_conflicts=0).status == TIMEOUT
    index = clause_index(s)
    assert [[index[o] for o in s.watches[l]] for l in (x[1], x[3])] == [[1, 2, 3], [0]]
    assert s.solve().status == SAT
    assert_invariants(s)


@pytest.mark.parametrize("encoding", ["gte", "swc", "adder"])
def test_assumption_sweeps(encoding):
    """A solver reused across calls, assumptions most significant bit first as in `oracle_check`, answers as
    one retracted before each call, which keeps no assumption levels; then propagations, each keeping the
    levels of the one before, checked by `Rup`."""
    rng = SplitMix64(23)
    for _ in range(12):
        c = random_normalized_constraint(rng, 8, 12, 40)
        variables = c.variables()
        f = compile_constraints([c], max(variables), encoding).formula
        n = len(f.clauses)
        got, want = Solver(f), Solver(f)
        calls = [[lit(v, negative=not (bits >> i) & 1) for i, v in enumerate(variables)][::-1]
                 for bits in range(1 << len(variables))]
        for asn in calls + [[]]:  # the last call assumes nothing
            want.retract()
            a, b = got.solve(asn), want.solve(asn)
            assert (a.status, a.model, got.activity, got.var_inc) == (b.status, b.model, want.activity, want.var_inc)
            assert [sorted(cl) for cl in got.clauses[n:]] == [sorted(cl) for cl in want.clauses[n:]]
            assert_invariants(got)
            assert_invariants(want)
        rup = Rup(f.clauses)
        rup.derive(got.clauses[n:])
        for _ in range(30):
            partial = [lit(v, negative=rng.chance(1, 2)) for v in variables if rng.chance(1, 2)]
            true = rup.propagate(partial)
            for s in (got, want):
                confl = s.assume_propagate(partial)
                assert (confl is None) == (true is not None)
                if confl is None:
                    assert set(s.trail) == true
                else:
                    assert_conflict_report(s, confl, partial)
                assert_invariants(s)

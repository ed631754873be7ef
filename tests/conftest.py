"""Shared helpers for the test suite, and the oracles that only tests read."""

from __future__ import annotations

import itertools
import stat
from collections import defaultdict
from types import SimpleNamespace

from pbcnf import LE, SAT, UNSAT, CnfFormula, PBConstraint, SolveResult, Term, build_tree, compile_instance
from pbcnf import encode_gte, gc_paused, gen_bench, lit, pb12like
from pbcnf.engine import FALSE
from pbcnf.verify import first_violated

# the paper's worked example, its OPB text and its gte encoding to the byte:
# the tree's left child covers (2, 3) and its right child (3, 3)
REFERENCE = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4)], LE, 5)
REFERENCE_OPB = "* #variable= 4 #constraint= 1\n+2 x1 +3 x2 +3 x3 +3 x4 <= 5 ;\n"
REFERENCE_DIMACS = (
    "p cnf 13 18\n"
    "-1 -2 7 0\n"
    "-1 5 0\n"
    "-2 6 0\n"
    "-3 -4 9 0\n"
    "-3 8 0\n"
    "-4 8 0\n"
    "-5 -8 12 0\n"
    "-5 -9 13 0\n"
    "-6 -8 13 0\n"
    "-6 -9 13 0\n"
    "-7 -8 13 0\n"
    "-7 -9 13 0\n"
    "-5 10 0\n"
    "-6 11 0\n"
    "-7 12 0\n"
    "-8 11 0\n"
    "-9 13 0\n"
    "-13 0\n"
)
# the cardinality constraint on which the adder's propagation gap shows
CARD4_LE2 = PBConstraint.from_signed([(1, 1), (1, 2), (1, 3), (1, 4)], LE, 2)


def encode(c, encoder=encode_gte):
    """Encode into a fresh formula; the counts come from `out`."""
    inputs = max(c.variables(), default=0)
    out = CnfFormula(num_vars=inputs)
    encoder(c, out)
    stats = SimpleNamespace(aux_vars=out.num_vars - inputs, aux_clauses=len(out.clauses))
    return SimpleNamespace(formula=out, stats=stats)


def assignments(variables):
    """Every full assignment of the variables, as {variable: bool}, all false first."""
    for bits in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, bits))


def make_stub(folder, name, body):
    """An executable shell script `folder/name` that runs body; its path."""
    path = folder / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class AllTrueEngine:
    """A stand-in for `Solver` that answers SAT with every variable true."""

    def __init__(self, formula):
        self.nvars = formula.num_vars

    def solve(self, max_conflicts=None):
        return SolveResult(SAT, list(range(1, self.nvars + 1)))


def formula(num_vars, signed_clauses):
    f = CnfFormula(num_vars=num_vars)
    for cl in signed_clauses:
        f.add_clause([lit(abs(n), negative=n < 0) for n in cl])
    return f


def assert_conflict_report(s, confl, asserted=()):
    """A conflict report of solver s is [] or a clause of its store, each of
    its literals FALSE under its assignment or the negation of an asserted
    literal (the reason clause of an asserted literal that is already false
    holds that literal's negation)."""
    assert confl is not None
    if confl:
        assert sorted(confl) in [sorted(cl) for cl in s.clauses if cl is not None], confl
        assert all(s.val[l] == FALSE or l ^ 1 in asserted for l in confl), confl


def by_weight(c):
    return PBConstraint(tuple(sorted(c.terms, key=lambda t: t.weight)), c.relation, c.bound)


def node_sums(weights, k):
    """Sorted distinct non-empty-subset sums of a weight multiset, clamped at
    k+1: the root sums of the tree `build_tree` builds over them."""
    c = PBConstraint(tuple(Term(w, lit(v)) for v, w in enumerate(weights, 1)), LE, k)
    return build_tree(c).root.sums


def eq4_count(weights, k: int) -> int:
    """Number of distinct non-empty-subset sums clamped at k+1, by direct
    enumeration of all subsets (the counting rule the tree encoder must match).
    """
    ws = list(weights)
    n = len(ws)
    if n > 20:
        raise ValueError("subset enumeration capped at 20 weights")
    cap = k + 1
    sums = [0] * (1 << n)
    distinct = set()
    for mask in range(1, 1 << n):
        low = mask & -mask
        s = sums[mask ^ low] + ws[low.bit_length() - 1]
        sums[mask] = s
        distinct.add(s if s < cap else cap)
    return len(distinct)


def random_constraint(rng) -> PBConstraint:
    """Unrestricted constraint for normalizer torture: any relation, negative
    and zero weights, repeated variables.  1 to 6 terms over x1..x6, weights
    in -10..10, bound in -20..20."""
    n = rng.randint(1, 6)
    terms = []
    for _ in range(n):
        w = rng.randint(-10, 10)
        v = rng.randint(1, 6)
        terms.append(Term(w, lit(v, negative=rng.chance(1, 2))))
    relation = rng.choice(("<=", ">=", "="))
    return PBConstraint(tuple(terms), relation, rng.randint(-20, 20))


class Rup:
    """Reverse unit propagation (RUP), the check behind DRAT-trim (Wetzler,
    Heule & Hunt, SAT 2014), by its own two-literal watching over one list
    per clause: it shares no code with the engine."""

    def __init__(self, clauses=()):
        self.units, self.watches = [], defaultdict(list)
        for cl in clauses:
            self.add(cl)

    def add(self, clause):
        if clause is None:
            return  # the solver's mark for a tautology, which never propagates
        cl = list(dict.fromkeys(clause))
        if len(cl) < 2:
            self.units.append(cl)  # [] is the empty clause
        else:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)

    def derive(self, clauses):
        """Require each clause to be RUP, its negation propagating to a conflict; then add it."""
        for i, cl in enumerate(clauses):
            assert self.propagate([l ^ 1 for l in cl]) is None, f"clause {i} is not RUP: {cl}"
            self.add(cl)

    def propagate(self, assumed=()):
        """Unit propagation from scratch: None on a conflict, else the set of true literals."""
        true = set()
        for cl in self.units + [[l] for l in assumed]:
            if not cl or cl[0] ^ 1 in true:
                return None
            true.add(cl[0])
        watches = self.watches
        queue = list(true)
        for p in queue:  # grows while it is walked
            f = p ^ 1
            ws = watches[f]
            kept = watches[f] = []
            for i, cl in enumerate(ws):
                first = cl[0]
                if first == f:
                    first = cl[0] = cl[1]
                    cl[1] = f
                if first in true:
                    kept.append(cl)
                    continue
                for t in range(2, len(cl)):
                    if cl[t] ^ 1 not in true:  # the new watch
                        cl[1], cl[t] = cl[t], f
                        watches[cl[1]].append(cl)
                        break
                else:  # unit or false
                    kept.append(cl)
                    if first ^ 1 in true:
                        kept += ws[i + 1 :]
                        return None
                    true.add(first)
                    queue.append(first)
        return true


def check_search(formula, constraints, learned, result):
    """Each learned clause is RUP with respect to the formula and the learned clauses before it, an
    UNSAT propagates to a conflict, and a SAT model satisfies every clause and every constraint."""
    with gc_paused():  # a list per clause, and no cycle for a collection to find
        rup = Rup(formula.clauses)
        rup.derive(learned)
    if result.status == UNSAT:
        assert rup.propagate() is None, "UNSAT, but unit propagation meets no conflict"
    elif result.status == SAT:
        true = {lit(abs(n), negative=n < 0) for n in result.model}
        assert all(cl is None or not true.isdisjoint(cl) for cl in formula.clauses), "the model breaks a clause"
        assert first_violated(constraints, result.model) is None


def pb12(seed, encoding):
    """pb12like(constraints=6, n=24) of the seed, and its formula; criterion 8 runs seeds 100..109."""
    instance = gen_bench(pb12like(constraints=6, n=24, seed=seed))
    return instance, compile_instance(instance, encoding).formula


def clause_index(s):
    """{store offset: clause index} for every clause in the solver's flat literal list."""
    index, o = {}, 0
    for i in range(len(s.clauses)):
        index[o] = i
        o = s.lits.index(0, o) + 1
    assert o == len(s.lits)
    return index

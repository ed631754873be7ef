"""Embedded SAT solver: CDCL with two-literal watching, first-UIP clause
learning, activity-driven branching (lowest variable index breaks ties and
rules until conflicts provide guidance), phase saving with false-first
defaults, and Luby restarts.  Fully deterministic: identical inputs yield
identical trails and models.

Assumptions are handled minisat-style: assumption i is the decision of level
i+1, so learned clauses stay valid across calls and a solver instance can be
reused for many assumption sets over the same formula.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import time
from dataclasses import dataclass
from heapq import heappop, heappush

TRUE, FALSE, UNDEF = 1, 0, 2

SAT = "SAT"
UNSAT = "UNSAT"
TIMEOUT = "TIMEOUT"


@dataclass
class PropagationResult:
    """Fixpoint of unit propagation: either the derived literals or the index
    of the clause that became empty (-1 when two asserted literals clash)."""

    implied: tuple[int, ...] = ()
    conflict_clause: int | None = None

    @property
    def is_conflict(self) -> bool:
        return self.conflict_clause is not None


@dataclass
class SolveResult:
    status: str
    model: list[int] | None = None  # signed literals for vars 1..num_vars


class Solver:
    def __init__(self, formula):
        nv = formula.max_var()
        self.nvars = nv
        self.val = bytearray([UNDEF]) * (2 * nv + 2)
        self.level = [0] * (nv + 1)
        self.reason = [-1] * (nv + 1)
        self.activity = [0.0] * (nv + 1)
        self.saved_phase = bytearray(nv + 1)  # 0 -> try the negative literal first
        self.seen = bytearray(nv + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.clauses: list[list[int] | None] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * nv + 2)]
        self.prio = [(0.0, v) for v in range(1, nv + 1)]  # (-activity, var) heap, lazy deletion
        self.num_original = len(formula.clauses)
        self.root_done = False
        self.root_conflict: int | None = None
        self._root_units: list[tuple[int, int]] = []

        clauses = self.clauses
        watches = self.watches
        for idx, cl in enumerate(formula.clauses):
            # fast path: two or three literals over distinct variables need no
            # dedupe (a ^ b > 1 exactly when a and b differ in variable)
            n = len(cl)
            if n == 2:
                a, b = cl
                if a ^ b > 1:
                    clauses.append([a, b])
                    watches[a].append(idx)
                    watches[b].append(idx)
                    continue
            elif n == 3:
                a, b, c = cl
                if a ^ b > 1 and a ^ c > 1 and b ^ c > 1:
                    clauses.append([a, b, c])
                    watches[a].append(idx)
                    watches[b].append(idx)
                    continue
            lits: list[int] = []
            skip = False
            for l in cl:
                if l ^ 1 in lits:
                    skip = True  # tautology, always satisfied
                    break
                if l not in lits:
                    lits.append(l)
            if skip:
                clauses.append(None)
                continue
            clauses.append(lits)
            if len(lits) >= 2:
                watches[lits[0]].append(idx)
                watches[lits[1]].append(idx)
            elif len(lits) == 1:
                self._root_units.append((lits[0], idx))
            else:
                self.root_conflict = idx

    # -- assignment bookkeeping ------------------------------------------

    def value(self, l: int) -> int:
        return self.val[l]

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def _assign(self, l: int, reason: int) -> None:
        v = l >> 1
        self.val[l] = TRUE
        self.val[l ^ 1] = FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(l)

    def _backtrack(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        lim = self.trail_lim[lvl]
        for l in reversed(self.trail[lim:]):
            v = l >> 1
            self.saved_phase[v] = 1 - (l & 1)
            self.val[l] = UNDEF
            self.val[l ^ 1] = UNDEF
            self.reason[v] = -1
            heappush(self.prio, (-self.activity[v], v))
        del self.trail[lim:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    def _init_root(self) -> bool:
        """Assert the formula's unit clauses and propagate once; False if the
        formula is unsatisfiable outright."""
        if self.root_done:
            return self.root_conflict is None
        self.root_done = True
        if self.root_conflict is not None:
            return False
        for l, idx in self._root_units:
            if self.val[l] == FALSE:
                self.root_conflict = idx
                return False
            if self.val[l] == UNDEF:
                self._assign(l, idx)
        confl = self._propagate()
        if confl is not None:
            self.root_conflict = confl
            return False
        return True

    # -- propagation ------------------------------------------------------

    def _propagate(self) -> int | None:
        val = self.val
        clauses = self.clauses
        watches = self.watches
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            falsified = p ^ 1
            ws = watches[falsified]
            i = j = 0
            n = len(ws)
            while i < n:
                ci = ws[i]
                i += 1
                cl = clauses[ci]
                if cl[0] == falsified:
                    cl[0] = cl[1]
                    cl[1] = falsified
                first = cl[0]
                if val[first] == TRUE:
                    ws[j] = ci
                    j += 1
                    continue
                moved = False
                for t in range(2, len(cl)):
                    if val[cl[t]] != FALSE:
                        cl[1] = cl[t]
                        cl[t] = falsified
                        watches[cl[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = ci
                j += 1
                if val[first] == FALSE:
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    self.qhead = len(self.trail)
                    return ci
                self._assign(first, ci)
            del ws[j:]
        return None

    # -- conflict analysis -------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            self.prio = [(-self.activity[v2], v2) for v2 in range(1, self.nvars + 1) if self.val[2 * v2] == UNDEF]
            self.prio.sort()

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First unique implication point; returns (learned clause, backjump level)."""
        seen = self.seen
        trail = self.trail
        cur_level = len(self.trail_lim)
        learned = [0]
        counter = 0
        idx = len(trail) - 1
        p = -1
        reason_cl = self.clauses[confl]
        while True:
            for q in reason_cl:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            v = p >> 1
            idx -= 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                learned[0] = p ^ 1
                break
            reason_cl = self.clauses[self.reason[v]]
        for q in learned[1:]:
            seen[q >> 1] = 0
        if len(learned) == 1:
            return learned, 0
        # second-highest level literal watches position 1
        max_i = max(range(1, len(learned)), key=lambda i: self.level[learned[i] >> 1])
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[learned[1] >> 1]

    def _add_learned(self, learned: list[int]) -> None:
        idx = len(self.clauses)
        self.clauses.append(learned)
        if len(learned) >= 2:
            self.watches[learned[0]].append(idx)
            self.watches[learned[1]].append(idx)
        self._assign(learned[0], idx)

    def _pick_branch(self) -> int | None:
        prio = self.prio
        val = self.val
        activity = self.activity
        while prio:
            negact, v = heappop(prio)
            if val[2 * v] == UNDEF and -negact == activity[v]:
                return v
        return None

    # -- search -------------------------------------------------------------

    def solve(self, assumptions=(), max_conflicts: int | None = None) -> SolveResult:
        if not self._init_root():
            return SolveResult(UNSAT)
        self._backtrack(0)
        asn = list(assumptions)
        for a in asn:
            if not (2 <= a <= 2 * self.nvars + 1):
                raise ValueError(f"assumption {a} is outside the formula's variables")
        conflicts = 0
        restart_idx = 0
        restart_budget = _luby(restart_idx) * 64
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                if len(self.trail_lim) == 0:
                    return SolveResult(UNSAT)
                conflicts += 1
                since_restart += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    self._backtrack(0)
                    return SolveResult(TIMEOUT)
                learned, bt = self._analyze(confl)
                self._backtrack(bt)
                self._add_learned(learned)
                self.var_inc *= 1.052
                continue
            if since_restart >= restart_budget:
                since_restart = 0
                restart_idx += 1
                restart_budget = _luby(restart_idx) * 64
                self._backtrack(0)
                continue
            lvl = len(self.trail_lim)
            if lvl < len(asn):
                a = asn[lvl]
                if self.val[a] == TRUE:
                    self.trail_lim.append(len(self.trail))  # keep level indexing aligned
                    continue
                if self.val[a] == FALSE:
                    self._backtrack(0)
                    return SolveResult(UNSAT)
                self.trail_lim.append(len(self.trail))
                self._assign(a, -1)
                continue
            v = self._pick_branch()
            if v is None:
                model = [v2 if self.val[2 * v2] == TRUE else -v2 for v2 in range(1, self.nvars + 1)]
                self._backtrack(0)
                return SolveResult(SAT, model)
            self.trail_lim.append(len(self.trail))
            self._assign(2 * v + (0 if self.saved_phase[v] else 1), -1)

    # -- propagation-only interface -----------------------------------------

    def assume_propagate(self, asserted=()) -> tuple[int | None, int]:
        """Push one level, assert the literals, propagate to fixpoint.

        Returns (conflict clause index or None, trail position before the new
        level).  Call `retract()` afterwards to pop the level.  A clash between
        asserted literals reports the reason clause of the opposing assignment,
        or -1 if it was itself asserted.
        """
        if not self._init_root():
            return (self.root_conflict, len(self.trail))
        self._backtrack(0)
        base = len(self.trail)
        self.trail_lim.append(base)
        for a in asserted:
            if self.val[a] == FALSE:
                r = self.reason[a >> 1]
                return (r if r >= 0 else -1, base)
            if self.val[a] == UNDEF:
                self._assign(a, -1)
        return (self._propagate(), base)

    def retract(self) -> None:
        self._backtrack(0)


def _luby(x: int) -> int:
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


def propagate(formula, asserted=()) -> PropagationResult:
    """Unit propagation to fixpoint over the formula's own unit clauses plus
    the asserted literals; implied excludes the asserted literals themselves."""
    s = Solver(formula)
    asserted = tuple(asserted)
    confl, _ = s.assume_propagate(asserted)
    given = set(asserted)
    implied = tuple(l for l in s.trail if l not in given)
    if confl is not None:
        return PropagationResult(implied, confl)
    return PropagationResult(implied)


def solve(formula, assumptions=(), max_conflicts: int | None = None) -> SolveResult:
    return Solver(formula).solve(assumptions, max_conflicts)


def solve_external(formula, command: str, timeout: float | None = None) -> SolveResult:
    """Run an external solver on the formula.  The command is split with
    shell-style quoting (`shlex.split`) and invoked with a DIMACS file path
    appended; its stdout must start with SAT or UNSAT, with a following line
    of signed integers for the model in the SAT case.  A solver that cannot be
    started raises OSError; a malformed command raises ValueError; output that
    is empty or not in that form raises RuntimeError."""
    import shlex

    from .dimacs import dimacs_str

    argv = shlex.split(command)
    path = None
    try:
        with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as f:
            path = f.name
            f.write(dimacs_str(formula))
        try:
            proc = subprocess.run(
                [*argv, path], capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return SolveResult(TIMEOUT)
        tokens = proc.stdout.split()
        if not tokens:
            raise RuntimeError(f"external solver produced no output (exit {proc.returncode})")
        if tokens[0] == UNSAT:
            return SolveResult(UNSAT)
        if tokens[0] == SAT:
            try:
                model = [int(t) for t in tokens[1:] if t != "0"]
            except ValueError:
                raise RuntimeError(f"unrecognized external solver model: {proc.stdout[:80]!r}") from None
            got = {abs(n) for n in model}
            model.extend(-v for v in range(1, formula.num_vars + 1) if v not in got)
            model.sort(key=abs)
            return SolveResult(SAT, model)
        raise RuntimeError(f"unrecognized external solver output: {proc.stdout[:80]!r}")
    finally:
        if path is not None:
            os.unlink(path)

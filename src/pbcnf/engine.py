"""Embedded SAT solver: CDCL with two-literal watching, first-UIP clause
learning, activity-driven branching (lowest variable index breaks ties and
rules until conflicts provide guidance), phase saving with false-first
defaults, and Luby restarts.  Fully deterministic: identical inputs yield
identical trails and models.

Assumptions are handled minisat-style: assumption i is the decision of level
i+1, so learned clauses stay valid across calls and a solver instance can be
reused for many assumption sets over the same formula.  `solve` may return
with the trail still holding assumption levels (`assumed` lists the
assumptions they hold), and the next call backtracks only to the longest
prefix of them that its own assumptions repeat.  This is sound because every
prefix of the trail that ends at a level boundary is a propagation fixpoint:
propagation finishes each level before the next decision, and a learned
clause asserts its literal at its backjump level, so under any shorter
prefix it is satisfied or has two unassigned literals.  The kept levels thus
hold exactly the literals that asserting those assumptions again would
derive.

Branching uses a lazy-deletion heap `prio` of (-activity, var) entries with
one live entry per variable: `heap_act[v]` is the key of v's live entry, or
-1.0 when it has none.  Every unassigned variable has a live entry keyed by
its current activity (activity only changes while a variable is assigned, or
in a rescale, which rebuilds the heap), so backtracking pushes only variables
whose activity moved and the first live, unassigned entry popped is the
highest-activity unassigned variable, ties going to the lowest index.  Once
the trail holds every variable, `solve` takes the model without draining the
heap.

Clauses live in one flat list `lits`, the arena of MiniSat (Een & Sorensson,
SAT 2003): each clause's literals followed by a 0, the formula's clauses in
order and then the learned ones.  Code 0 is never a literal, so it ends the
clause; a tautology is kept as the code 1, which is never a literal either,
and its 0.  Inside the engine a clause is named by its offset, the position
of its first literal: watch lists and `reason` hold offsets, and the watched
literals are the first two.  Wherever the API reports a conflict
(`root_conflict`, `assume_propagate`, `PropagationResult.conflict_clause`)
it gives the literals of the false clause in their current order, read off
`lits` at its offset, so a report costs the clause's length; `[]` stands for
an empty clause or for two asserted literals that clash.  A plain list,
not an `array('i')`, holds the literals: an array boxes a new int object on
every read, and propagation reads literals in its innermost loop, while the
list shares the formula's own int objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .core import gc_paused

TRUE, FALSE, UNDEF = 1, 0, 2

SAT = "SAT"
UNSAT = "UNSAT"
TIMEOUT = "TIMEOUT"


@dataclass
class PropagationResult:
    """Fixpoint of unit propagation: either the derived literals or the
    literals of a clause the assertions make false (`Solver.assume_propagate`)."""

    implied: tuple[int, ...] = ()
    conflict_clause: list[int] | None = None

    @property
    def is_conflict(self) -> bool:
        return self.conflict_clause is not None


@dataclass
class SolveResult:
    status: str
    model: list[int] | None = None  # signed literals for vars 1..num_vars


class Solver:
    def __init__(self, formula):
        """Load the formula's clauses, assert its unit clauses and propagate
        them once.  `root_conflict` is then `[]` for an empty clause, else the
        first unit that clashes, else the clause root propagation made false,
        else None until search finds one.  A clause naming a variable above
        `formula.num_vars`, or a literal code below 2, raises ValueError."""
        # one literal list and lists of offsets: nothing here can form a cycle
        with gc_paused():
            # per-variable arrays for variables 1..nvars
            nv = self.nvars = formula.num_vars
            self.val = bytearray([UNDEF]) * (2 * nv + 2)
            self.level = [0] * (nv + 1)
            self.reason = [-1] * (nv + 1)  # offset of the clause that implied v; -1 for a decision
            self.activity = [0.0] * (nv + 1)
            self.saved_phase = bytearray(nv + 1)  # 0 -> try the negative literal first
            self.seen = bytearray(nv + 1)
            self.watches: list[list[int]] = [[] for _ in range(2 * nv + 2)]
            # (-activity, var) heap, lazy deletion; sorted, so already a heap
            self.prio: list[tuple[float, int]] = [(0.0, v) for v in range(1, nv + 1)]
            self.heap_act = [0.0] * (nv + 1)  # key of v's live prio entry; -1.0 when none
            self.trail: list[int] = []
            self.trail_lim: list[int] = []
            self.assumed: list[int] = []  # the assumptions levels 1..len(assumed) hold
            self.qhead = 0
            self.var_inc = 1.0
            self.lits: list[int] = []  # every clause's literals, each followed by 0
            self.num_original = len(formula.clauses)
            self._learned: list[int] = []  # offsets of the learned clauses, in order
            self._starts: Sequence[int] | None = None  # offsets of the formula's clauses, built on first use
            self.root_conflict: list[int] | None = None
            units: list[tuple[int, int]] = []  # (literal, offset)

            lits = self.lits
            watches = self.watches
            top = 2 * nv + 1
            o = 0
            for idx, cl in enumerate(formula.clauses):
                # fast path: three or two literals over distinct variables in
                # 1..num_vars need no dedupe (a ^ b > 1 exactly when a and b
                # differ in variable)
                n = len(cl)
                if n == 3:
                    a, b, c = cl
                    if a ^ b > 1 and a ^ c > 1 and b ^ c > 1 and 1 < a <= top and 1 < b <= top and 1 < c <= top:
                        lits += cl
                        lits.append(0)
                        watches[a].append(o)
                        watches[b].append(o)
                        o += 4
                        continue
                elif n == 2:
                    a, b = cl
                    if a ^ b > 1 and 1 < a <= top and 1 < b <= top:
                        lits += cl
                        lits.append(0)
                        watches[a].append(o)
                        watches[b].append(o)
                        o += 3
                        continue
                if cl and max(cl) > top:
                    raise ValueError(
                        f"clause {idx} names x{max(cl) >> 1}, above the formula's {nv} variables"
                    )
                if cl and min(cl) < 2:
                    raise ValueError(f"clause {idx} holds literal code {min(cl)}, below 2, the code of x1")
                kept: list[int] = []
                seen: set[int] = set()
                for l in cl:
                    if l ^ 1 in seen:
                        lits += (1, 0)  # a tautology, always satisfied
                        o += 2
                        break
                    if l not in seen:
                        seen.add(l)
                        kept.append(l)
                else:
                    lits += kept
                    lits.append(0)
                    if len(kept) >= 2:
                        watches[kept[0]].append(o)
                        watches[kept[1]].append(o)
                    elif kept:
                        units.append((kept[0], o))
                    else:
                        self.root_conflict = []
                    o += len(kept) + 1
        if self.root_conflict is None:
            for l, o in units:
                if self.val[l] == FALSE:
                    self.root_conflict = [l]
                    break
                if self.val[l] == UNDEF:
                    self._assign(l, o)
            else:
                self.root_conflict = self._literals(self._propagate())

    # -- the clause store ---------------------------------------------------

    @property
    def clauses(self) -> ClauseView:
        """The clauses by index: the formula's, then the learned ones.  Only
        this view reads `num_original`, `_learned` and `_formula_starts`; it
        stays for the tests and the benchmark's tracer, whose reads
        (`len(s.clauses)`, then `s.clauses[before:]`) cost only the learned part."""
        return ClauseView(self)

    def _formula_starts(self) -> Sequence[int]:
        """The offset of each of the formula's clauses, listed on first use
        in an `array('q')`: 8 bytes a clause and no int object per entry."""
        if self._starts is None:
            from array import array  # loaded on first use, not when pbcnf is imported

            find = self.lits.index
            starts = array("q")
            o = 0
            for _ in range(self.num_original):
                starts.append(o)
                o = find(0, o) + 1
            self._starts = starts
        return self._starts

    def _literals(self, o: int | None) -> list[int] | None:
        """The literals of the clause at offset o; None stays None."""
        if o is None:
            return None
        return self.lits[o : self.lits.index(0, o)]

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
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        lim = trail_lim[lvl]
        trail = self.trail
        val = self.val
        saved_phase = self.saved_phase
        activity = self.activity
        heap_act = self.heap_act
        prio = self.prio
        # reason[v] keeps its stale value: it is read only for assigned variables
        for l in reversed(trail[lim:]):
            v = l >> 1
            saved_phase[v] = 1 - (l & 1)
            val[l] = UNDEF
            val[l ^ 1] = UNDEF
            act = activity[v]
            if heap_act[v] != act:
                heap_act[v] = act
                heappush(prio, (-act, v))
        del trail[lim:]
        del trail_lim[lvl:]
        self.qhead = lim

    # -- propagation ------------------------------------------------------

    def _propagate(self) -> int | None:
        """Propagate the trail from qhead; the offset of a falsified clause, or None."""
        val = self.val
        lits = self.lits
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            ws = watches[falsified]
            i = j = 0
            n = len(ws)
            while i < n:
                o = ws[i]
                i += 1
                first = lits[o]
                if first == falsified:
                    first = lits[o + 1]
                    lits[o] = first
                    lits[o + 1] = falsified
                if val[first] == TRUE:
                    ws[j] = o
                    j += 1
                    continue
                t = o + 2
                other = lits[t]
                while other:  # up to the clause's 0
                    if val[other] != FALSE:
                        lits[o + 1] = other
                        lits[t] = falsified
                        watches[other].append(o)
                        break
                    t += 1
                    other = lits[t]
                else:
                    ws[j] = o
                    j += 1
                    if val[first] == FALSE:
                        del ws[j:i]
                        self.qhead = len(trail)
                        return o
                    # the bookkeeping of _assign(first, o), inlined
                    val[first] = TRUE
                    val[first ^ 1] = FALSE
                    v = first >> 1
                    level[v] = lvl
                    reason[v] = o
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    # -- conflict analysis -------------------------------------------------

    def _bump(self, v: int) -> None:
        activity = self.activity
        activity[v] += self.var_inc
        if activity[v] > 1e100:
            val = self.val
            heap_act = self.heap_act
            prio = []
            for u in range(1, self.nvars + 1):
                act = activity[u] * 1e-100
                activity[u] = act
                if val[2 * u] == UNDEF:
                    heap_act[u] = act
                    prio.append((-act, u))
                else:
                    heap_act[u] = -1.0
            self.var_inc *= 1e-100
            prio.sort()
            self.prio = prio

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First unique implication point for the clause at offset confl;
        returns (learned clause, backjump level)."""
        lits = self.lits
        find = lits.index
        seen = self.seen
        trail = self.trail
        cur_level = len(self.trail_lim)
        learned = [0]
        counter = 0
        idx = len(trail) - 1
        p = -1
        reason_cl = lits[confl : find(0, confl)]
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
            o = self.reason[v]
            reason_cl = lits[o : find(0, o)]
        for q in learned[1:]:
            seen[q >> 1] = 0
        if len(learned) == 1:
            return learned, 0
        # second-highest level literal watches position 1
        max_i = max(range(1, len(learned)), key=lambda i: self.level[learned[i] >> 1])
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[learned[1] >> 1]

    def _add_learned(self, learned: list[int]) -> None:
        lits = self.lits
        o = len(lits)
        lits += learned
        lits.append(0)
        self._learned.append(o)
        if len(learned) >= 2:
            self.watches[learned[0]].append(o)
            self.watches[learned[1]].append(o)
        self._assign(learned[0], o)

    def _pick_branch(self) -> int:
        """The unassigned variable of highest activity; `solve` calls this
        only while one exists, so the heap holds its live entry."""
        prio = self.prio
        val = self.val
        heap_act = self.heap_act
        while True:
            negact, v = heappop(prio)
            if heap_act[v] == -negact:  # v's live entry; any other is stale
                heap_act[v] = -1.0
                if val[2 * v] == UNDEF:
                    return v

    def _check_literals(self, lits) -> None:
        top = 2 * self.nvars + 1
        for a in lits:
            if not (2 <= a <= top):
                raise ValueError(f"literal {a} is outside the formula's variables")

    # -- search -------------------------------------------------------------

    def solve(self, assumptions=(), max_conflicts: int | None = None) -> SolveResult:
        """Decide the formula under the assumptions; TIMEOUT once the search
        meets conflict max_conflicts+1.  An assumption outside the formula's
        variables or a negative max_conflicts raises ValueError.

        After SAT, and after UNSAT because an assumption is false, the trail
        keeps the levels of the assumptions before the failing one (all of
        them after SAT); the next call starts from the longest prefix of
        those levels that its own assumptions repeat."""
        if max_conflicts is not None and max_conflicts < 0:
            raise ValueError(f"max_conflicts must be at least 0, not {max_conflicts}")
        asn = list(assumptions)
        self._check_literals(asn)
        if self.root_conflict is not None:
            return SolveResult(UNSAT)
        keep = 0
        for kept, a in zip(self.assumed, asn):
            if kept != a:
                break
            keep += 1
        self._backtrack(keep)
        self.assumed = []
        conflicts = 0
        restart_idx = 0
        restart_budget = _luby(restart_idx) * 64
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                if len(self.trail_lim) == 0:
                    # the formula itself is unsatisfiable; remember it, since
                    # the clash sits behind qhead where no later call looks
                    self.root_conflict = self._literals(confl)
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
                    self.assumed = asn[:lvl]  # levels 1..lvl stay for the next call
                    return SolveResult(UNSAT)
                self.trail_lim.append(len(self.trail))
                self._assign(a, -1)
                continue
            if len(self.trail) == self.nvars:  # every variable assigned: a model
                val = self.val
                model = [v if val[2 * v] == TRUE else -v for v in range(1, self.nvars + 1)]
                self._backtrack(len(asn))
                self.assumed = asn
                return SolveResult(SAT, model)
            v = self._pick_branch()
            self.trail_lim.append(len(self.trail))
            self._assign(2 * v + (0 if self.saved_phase[v] else 1), -1)

    # -- propagation-only interface -----------------------------------------

    def assume_propagate(self, asserted=()) -> tuple[list[int] | None, int]:
        """Push one level, assert the literals, propagate to fixpoint.

        Returns (conflict, trail position before the new level); call
        `retract()` afterwards.  The conflict is None at a fixpoint, else a
        clause false once the assertions hold: `root_conflict` if set, the
        reason clause of an asserted literal's negation set at level 0, `[]`
        for two clashing assertions, else the clause propagation made false.
        A literal code outside 2..2*nvars+1 raises ValueError first.
        """
        asserted = tuple(asserted)
        self._check_literals(asserted)
        if self.root_conflict is not None:
            return (self.root_conflict, len(self.trail))
        self._backtrack(0)
        self.assumed = []
        base = len(self.trail)
        self.trail_lim.append(base)
        for a in asserted:
            if self.val[a] == FALSE:
                r = self.reason[a >> 1]
                return (self._literals(r) if r >= 0 else [], base)
            if self.val[a] == UNDEF:
                self._assign(a, -1)
        return (self._literals(self._propagate()), base)

    def retract(self) -> None:
        self._backtrack(0)
        self.assumed = []


class ClauseView:
    """`Solver.clauses` as a read-only sequence: clause i is a new list of
    its literals in their current order, or None for a tautology.  Only the
    clauses asked for are built (why it stays: see `Solver.clauses`)."""

    __slots__ = ("_solver",)

    def __init__(self, solver: Solver):
        self._solver = solver

    def __len__(self) -> int:
        return self._solver.num_original + len(self._solver._learned)

    def _at(self, i: int) -> list[int] | None:
        s = self._solver
        n = s.num_original
        o = s._learned[i - n] if i >= n else s._formula_starts()[i]
        return None if s.lits[o] == 1 else s._literals(o)

    def __getitem__(self, i):
        # a range resolves negative indices and slices, and raises
        # IndexError past either end, as a list does; iteration runs
        # through here too, up to that IndexError
        picked = range(len(self))[i]
        if isinstance(i, slice):
            return [self._at(j) for j in picked]
        return self._at(picked)

    def __eq__(self, other):
        if not isinstance(other, list):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


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
    return PropagationResult(implied, confl)


def solve(formula, assumptions=(), max_conflicts: int | None = None) -> SolveResult:
    return Solver(formula).solve(assumptions, max_conflicts)


_COMPETITION_STATUS = {"SATISFIABLE": SAT, "UNSATISFIABLE": UNSAT, "UNKNOWN": TIMEOUT}


def solve_external(formula, command: str, timeout: float | None = None) -> SolveResult:
    """Run an external solver on the formula.  The command is split with
    shell-style quoting (`shlex.split`) and invoked with a DIMACS file path
    appended.  Its stdout may take the bare `SAT`/`UNSAT` form or the SAT
    competition form (see `_read_answer`).  A solver that cannot be started
    raises OSError; a malformed command raises ValueError; output that is
    empty, in neither form, or whose model does not assign the formula's
    variables consistently raises RuntimeError."""
    import os
    import shlex
    import subprocess
    import tempfile

    from .dimacs import write_dimacs

    argv = shlex.split(command)
    path = None
    try:
        with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as f:
            path = f.name
            write_dimacs(formula, f)
        try:
            proc = subprocess.run(
                [*argv, path], capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return SolveResult(TIMEOUT)
        if not proc.stdout.split():
            raise RuntimeError(f"external solver produced no output (exit {proc.returncode})")
        return _read_answer(proc.stdout, formula.num_vars)
    finally:
        if path is not None:
            os.unlink(path)


def _read_answer(text: str, num_vars: int) -> SolveResult:
    """Read a SAT solver's answer in either of two forms, skipping `c`
    comment lines:
      - bare: `SAT` or `UNSAT` as the first word, the model's signed
        literals following;
      - SAT competition: one `s SATISFIABLE` / `s UNSATISFIABLE` /
        `s UNKNOWN` line (UNKNOWN reads as TIMEOUT) and `v ...` model lines.
    The model may end with one `0` and must name each variable of
    1..`num_vars` at most once; unnamed variables are false.  Anything else
    raises RuntimeError."""
    lines = [t for t in map(str.split, text.splitlines()) if t and t[0] != "c"]
    if not lines:
        raise RuntimeError("external solver output holds no answer")
    status = None
    if lines[0][0] == "s":  # SAT competition form
        words: list[str] = []
        for t in lines:
            if t[0] == "v":
                words += t[1:]
            elif t[0] == "s" and status is None and " ".join(t[1:]) in _COMPETITION_STATUS:
                status = _COMPETITION_STATUS[" ".join(t[1:])]
            else:
                raise RuntimeError(f"unrecognized external solver line: {' '.join(t)[:80]!r}")
    elif lines[0][0] in (SAT, UNSAT):
        status = lines[0][0]
        words = [w for t in lines for w in t][1:]
    else:
        raise RuntimeError(f"unrecognized external solver output: {text[:80]!r}")
    if status != SAT:
        return SolveResult(status)
    try:
        model = [int(w) for w in words]
    except ValueError:
        raise RuntimeError(f"unrecognized external solver model: {' '.join(words)[:80]!r}") from None
    if model and model[-1] == 0:
        model.pop()
    seen = set()
    for n in model:
        if n == 0:
            raise RuntimeError("external solver model has a 0 before its end")
        if abs(n) > num_vars:
            raise RuntimeError(f"external solver model names x{abs(n)}, above the formula's {num_vars} variables")
        if abs(n) in seen:
            raise RuntimeError(f"external solver model names x{abs(n)} twice")
        seen.add(abs(n))
    model.extend(-v for v in range(1, num_vars + 1) if v not in seen)
    model.sort(key=abs)
    return SolveResult(SAT, model)

"""Shared data model: literals, weighted terms, constraints, CNF formulas.

Literals are stored as dense integer codes: ``2*var`` for the positive literal
and ``2*var + 1`` for the negated one, so negation is a single XOR and arrays
can be indexed directly by literal.  Everything that leaves the library
(DIMACS files, models, diagnostics) uses the signed-integer convention
instead; ``to_signed``/``from_signed`` convert at the boundary.

A CNF formula holds its clauses in one flat list of codes, each clause
followed by 0, from the encoders through DIMACS text to the solver.
`Clauses` reads such a list clause by clause, for a formula and for the
solver's store alike.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

LE = "<="
GE = ">="
EQ = "="
RELATIONS = (LE, GE, EQ)


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector around a bulk build of objects that
    hold no reference cycles, such as the solver's per-variable lists, which
    collections set off by the build would only re-walk.  Only a collector
    this call disabled is re-enabled, so nesting and callers that disabled it
    themselves keep their state."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _to_text(source) -> str:
    """The text of a str, of UTF-8 bytes, or of what a file-like object reads."""
    if isinstance(source, bytes):
        return source.decode("utf-8", errors="replace")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data


def lit(var: int, negative: bool = False) -> int:
    """Literal code for a variable index (>= 1)."""
    if var < 1:
        raise ValueError(f"variable index must be >= 1, got {var}")
    return 2 * var + (1 if negative else 0)


def negate(l: int) -> int:
    return l ^ 1


def to_signed(l: int) -> int:
    return -(l >> 1) if l & 1 else l >> 1


def from_signed(n: int) -> int:
    if n == 0:
        raise ValueError("0 is not a literal")
    return 2 * n if n > 0 else -2 * n + 1


class Term(NamedTuple):
    weight: int
    lit: int


@dataclass(frozen=True)
class PBConstraint:
    """Linear pseudo-Boolean constraint: sum of weight*literal <relation> bound."""

    terms: tuple[Term, ...]
    relation: str = LE
    bound: int = 0

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "terms", tuple(Term(w, l) for w, l in self.terms))

    @staticmethod
    def from_signed(pairs: Iterable[tuple[int, int]], relation: str = LE, bound: int = 0) -> "PBConstraint":
        """Build from (weight, signed_literal) pairs, e.g. (3, -2) for 3*~x2."""
        return PBConstraint(tuple(Term(w, from_signed(s)) for w, s in pairs), relation, bound)

    def variables(self) -> tuple[int, ...]:
        seen: dict[int, None] = {}
        for _, l in self.terms:
            seen.setdefault(l >> 1)
        return tuple(seen)

    def weighted_sum(self, assignment: Mapping[int, bool]) -> int:
        """Weighted count of true literals; unassigned variables count as false."""
        total = 0
        for w, l in self.terms:
            if assignment.get(l >> 1, False) != bool(l & 1):
                total += w
        return total

    def holds(self, assignment: Mapping[int, bool]) -> bool:
        s = self.weighted_sum(assignment)
        if self.relation == LE:
            return s <= self.bound
        if self.relation == GE:
            return s >= self.bound
        return s == self.bound

    def is_normalized(self) -> bool:
        """Less-or-equal form, bound >= 0, weights in 1..bound+1, literal codes >= 2, distinct vars."""
        if self.relation != LE or self.bound < 0:
            return False
        seen = set()
        for w, l in self.terms:
            if w < 1 or w > self.bound + 1 or l < 2 or (l >> 1) in seen:
                return False
            seen.add(l >> 1)
        return True

    def __str__(self) -> str:
        lhs = " + ".join(f"{w} {'~' if l & 1 else ''}x{l >> 1}" for w, l in self.terms) or "0"
        return f"{lhs} {self.relation} {self.bound}"


@dataclass(init=False)
class CnfFormula:
    """Clauses over variables 1..num_vars in one flat list `lits`, each
    clause's literal codes followed by 0; encoders append whole blocks to it.
    A clause given as a list (to the constructor or `add_clause`) holding a
    code below 2 raises ValueError: code 0 would end it early.

    The formula numbers its own variables: `fresh_lit` hands out the next
    one above `num_vars`, so an encoder needs nothing besides the formula it
    appends to."""

    num_vars: int
    lits: list[int]

    def __init__(self, num_vars: int = 0, clauses: Iterable[Iterable[int]] = ()):
        self.num_vars, self.lits = 0, []
        for cl in clauses:
            self.add_clause(cl)
        self.num_vars = num_vars  # as declared, even below a clause's variables

    def fresh_lit(self) -> int:
        """Positive literal of a new variable, num_vars + 1."""
        self.num_vars += 1
        return 2 * self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        cl = list(lits)
        if cl:
            if min(cl) < 2:
                raise ValueError(f"clause holds literal code {min(cl)}, below 2, the code of x1")
            self.num_vars = max(self.num_vars, max(cl) >> 1)
        self.lits += cl
        self.lits.append(0)

    @property
    def clauses(self) -> Clauses:
        """A new view on each access, so it sees a hand edit of `lits`."""
        return Clauses(self.lits)

    @property
    def num_clauses(self) -> int:  # one pass over `lits` per call
        return self.lits.count(0)


class Clauses:
    """The clauses of a flat list `lits`, read-only and read like a list:
    each is a new list of its codes, or None when it starts with code 1, the
    solver's tautology mark.  Two views compare their `lits` and build no
    lists; a view and a list compare clause by clause.  Indexing lists the
    clause offsets, extending the listing from where it stopped, which holds
    while `lits` only grows by whole clauses (as the solver's store does);
    once it reaches the end, `len` reads it."""

    def __init__(self, lits: list[int]):
        self.lits = lits
        self._starts: list[int] = []  # offsets of the clauses listed so far
        self._end = 0  # where the listing stopped

    def __len__(self) -> int:
        return len(self._starts) if self._end == len(self.lits) else self.lits.count(0)

    def __iter__(self):
        lits, o = self.lits, 0
        while o < len(lits):
            z = lits.index(0, o)
            yield None if lits[o] == 1 else lits[o:z]
            o = z + 1

    def __getitem__(self, i):
        lits, starts, o = self.lits, self._starts, self._end
        while o < len(lits):
            starts.append(o)
            o = lits.index(0, o) + 1
        self._end = o
        # the offsets resolve negative indices and slices, and raise
        # IndexError, as a list of the clauses would
        picked = starts[i]
        return [self._at(o) for o in picked] if isinstance(i, slice) else self._at(picked)

    def _at(self, o: int) -> list[int] | None:
        lits = self.lits
        return None if lits[o] == 1 else lits[o : lits.index(0, o)]

    def __eq__(self, other):
        return self.lits == other.lits if isinstance(other, Clauses) else list(self) == other


def reserve_inputs(c: PBConstraint, out: CnfFormula, name: str) -> None:
    """What every encoder does first: raise ValueError unless `c` is
    normalized, then raise `out.num_vars` to c's highest variable, so that
    no fresh variable can alias an input."""
    if not c.is_normalized():
        raise ValueError(f"{name} requires a normalized constraint, got {c}")
    top = max((l for _, l in c.terms), default=0) >> 1
    if top > out.num_vars:
        out.num_vars = top

"""Shared data model: literals, weighted terms, constraints, CNF formulas.

Literals are stored as dense integer codes: ``2*var`` for the positive literal
and ``2*var + 1`` for the negated one, so negation is a single XOR and arrays
can be indexed directly by literal.  Everything that leaves the library
(DIMACS files, models, diagnostics) uses the signed-integer convention
instead; ``to_signed``/``from_signed`` convert at the boundary.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

LE = "<="
GE = ">="
EQ = "="
RELATIONS = (LE, GE, EQ)


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector around a bulk build of objects that
    hold no reference cycles, above all clause lists of ints, which reference
    counting frees on its own.  Collections set off by the build would
    otherwise re-walk every clause built so far.  Only a collector this call
    disabled is re-enabled, so nesting and callers that disabled it
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


def lit_var(l: int) -> int:
    return l >> 1


def is_negative(l: int) -> bool:
    return bool(l & 1)


def to_signed(l: int) -> int:
    return -(l >> 1) if l & 1 else l >> 1


def from_signed(n: int) -> int:
    if n == 0:
        raise ValueError("0 is not a literal")
    return 2 * n if n > 0 else -2 * n + 1


def lit_str(l: int) -> str:
    return f"~x{l >> 1}" if l & 1 else f"x{l >> 1}"


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
        lhs = " + ".join(f"{w} {lit_str(l)}" for w, l in self.terms) or "0"
        return f"{lhs} {self.relation} {self.bound}"


@dataclass
class CnfFormula:
    """Clause list over variables 1..num_vars; literals are integer codes.

    The formula numbers its own variables: `fresh_lit` hands out the next
    one above `num_vars`, so an encoder needs nothing besides the formula it
    appends to."""

    num_vars: int = 0
    clauses: list[list[int]] = field(default_factory=list)

    def fresh_lit(self) -> int:
        """Positive literal of a new variable, num_vars + 1."""
        self.num_vars += 1
        return 2 * self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        cl = list(lits)
        if cl:
            top = max(cl) >> 1
            if top > self.num_vars:
                self.num_vars = top
        self.clauses.append(cl)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def has_empty_clause(self) -> bool:
        return any(not cl for cl in self.clauses)


def reserve_inputs(c: PBConstraint, out: CnfFormula, name: str) -> None:
    """What every encoder does first: raise ValueError unless `c` is
    normalized, then raise `out.num_vars` to c's highest variable, so that
    no fresh variable can alias an input."""
    if not c.is_normalized():
        raise ValueError(f"{name} requires a normalized constraint, got {c}")
    top = max((l for _, l in c.terms), default=0) >> 1
    if top > out.num_vars:
        out.num_vars = top

"""Reader and writer for the OPB pseudo-Boolean constraint format.

The accepted grammar per constraint line is
    (<signed integer> x<digits>)+  (>=|<=|=)  <signed integer> ;
with `*` starting a comment line.  The optional header comment
    * #variable= N #constraint= M
declares the variable universe.  An objective line (`min: ... ;`) is parsed
for well-formedness but rejected: this toolkit handles decision problems only.
The parser is total: any input yields either an instance or an `OpbError`
carrying a line and column.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from .core import EQ, GE, LE, PBConstraint, Term, lit

_HEADER = re.compile(r"\*\s*#variable=\s*(\d+)\s+#constraint=\s*(\d+)")
_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[+-]?\d+\Z")
_VAR = re.compile(r"x(\d+)\Z")


class OpbError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass
class PbInstance:
    declared_vars: int
    constraints: list[PBConstraint] = field(default_factory=list)
    objective: list[Term] | None = None


def _to_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8", errors="replace")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data


def parse_opb(source) -> PbInstance:
    """Parse OPB text (str, bytes, or a file-like object) into a PbInstance."""
    text = _to_text(source)
    declared: int | None = None
    constraints: list[PBConstraint] = []
    max_var = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("*"):
            if declared is None and not constraints:
                m = _HEADER.match(stripped)
                if m:
                    declared = int(m.group(1))
            continue

        tokens = [(t.group(), t.start() + 1) for t in _TOKEN.finditer(raw)]
        is_objective = tokens[0][0] in ("min:", "max:")
        if is_objective:
            tokens = tokens[1:]
            if not tokens:
                raise OpbError(lineno, 1, "empty objective")

        terms: list[Term] = []
        relation: str | None = None
        bound: int | None = None
        done = False
        i = 0
        while i < len(tokens):
            tok, col = tokens[i]
            if done:
                raise OpbError(lineno, col, f"unexpected token {tok!r} after ';'")
            if tok == ";":
                if is_objective:
                    done = True
                    i += 1
                    continue
                raise OpbError(lineno, col, "';' before relation and bound")
            if relation is None and tok in (LE, GE, EQ) and not is_objective:
                if not terms:
                    raise OpbError(lineno, col, "relation with no terms before it")
                relation = tok
                i += 1
                continue
            if relation is not None:
                # bound, possibly with the terminator attached
                body = tok[:-1] if tok.endswith(";") else tok
                if not _INT.match(body):
                    raise OpbError(lineno, col, f"expected integer bound, got {tok!r}")
                bound = int(body)
                if tok.endswith(";"):
                    done = True
                    i += 1
                    continue
                i += 1
                if i < len(tokens) and tokens[i][0] == ";":
                    done = True
                    i += 1
                    continue
                where = tokens[i] if i < len(tokens) else (tok, col)
                raise OpbError(lineno, where[1], "expected ';' after bound")
            # expect a coefficient then a variable
            if not _INT.match(tok):
                if _VAR.match(tok):
                    raise OpbError(lineno, col, f"variable {tok!r} without a coefficient (products are not supported)")
                raise OpbError(lineno, col, f"expected integer coefficient, got {tok!r}")
            if i + 1 >= len(tokens):
                raise OpbError(lineno, col, "coefficient at end of line")
            vtok, vcol = tokens[i + 1]
            vm = _VAR.match(vtok)
            if not vm:
                raise OpbError(lineno, vcol, f"expected variable after coefficient, got {vtok!r}")
            idx = int(vm.group(1))
            if idx < 1:
                raise OpbError(lineno, vcol, "variable index must be >= 1")
            max_var = max(max_var, idx)
            terms.append(Term(int(tok), lit(idx)))
            i += 2

        if is_objective:
            if not done:
                raise OpbError(lineno, len(raw) + 1, "objective missing ';'")
            raise OpbError(lineno, 1, "objective found; this toolkit handles decision problems only")
        if relation is None:
            raise OpbError(lineno, len(raw) + 1, "constraint missing relation")
        if not done:
            raise OpbError(lineno, len(raw) + 1, "constraint missing ';'")
        constraints.append(PBConstraint(tuple(terms), relation, bound))

    if declared is None:
        declared = max_var
    elif max_var > declared:
        warnings.warn(
            f"instance uses x{max_var} beyond the declared {declared} variables; extending",
            stacklevel=2,
        )
        declared = max_var
    return PbInstance(declared_vars=declared, constraints=constraints)


def write_opb(instance: PbInstance, comments: list[str] | None = None) -> str:
    """Render an instance as OPB text.  Negated literals are folded into
    negative coefficients with the bound adjusted accordingly.  A constraint
    with no terms has no OPB form and raises ValueError."""
    lines = [f"* #variable= {instance.declared_vars} #constraint= {len(instance.constraints)}"]
    for note in comments or []:
        lines.append(f"* {note}")
    for c in instance.constraints:
        if not c.terms:
            raise ValueError(f"cannot write {c} as OPB: a constraint needs at least one term")
        parts = []
        bound = c.bound
        for w, l in c.terms:
            if l & 1:
                parts.append(f"{-w:+d} x{l >> 1}")
                bound -= w
            else:
                parts.append(f"{w:+d} x{l >> 1}")
        lines.append(f"{' '.join(parts)} {c.relation} {bound} ;")
    return "\n".join(lines) + "\n"

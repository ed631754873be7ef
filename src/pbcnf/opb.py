"""Reader and writer for the OPB pseudo-Boolean constraint format.

The accepted grammar per constraint line is
    (<signed integer> x<digits>)+  (>=|<=|=)  <signed integer> ;
with ASCII digits only and `*` starting a comment line.  The optional header
comment
    * #variable= N #constraint= M
declares the variable universe.  An objective line (`min: ... ;` or
`max: ... ;`) is rejected at its first token: this toolkit handles decision
problems only.
The parser is total: any input yields either an instance or an `OpbError`
carrying a line and column.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from .core import RELATIONS, PBConstraint, Term, _to_text, lit

_HEADER = re.compile(r"\*\s*#variable=\s*(\d+)\s+#constraint=\s*(\d+)", re.ASCII)
_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[+-]?\d+\Z", re.ASCII)
_VAR = re.compile(r"x(\d+)\Z", re.ASCII)


class OpbError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


def _int(text: str, line: int, column: int) -> int:
    """`int()` of a matched integer token; one past the interpreter's limit
    on digits is an OpbError at the token."""
    try:
        return int(text)
    except ValueError:
        raise OpbError(line, column, f"integer of {len(text)} characters is too long") from None


@dataclass
class PbInstance:
    declared_vars: int
    constraints: list[PBConstraint] = field(default_factory=list)


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
                m = _HEADER.match(raw, raw.find("*"))
                if m:
                    declared = _int(m.group(1), lineno, m.start(1) + 1)
            continue

        tokens = [(t.group(), t.start() + 1) for t in _TOKEN.finditer(raw)]
        if tokens[0][0] in ("min:", "max:"):
            raise OpbError(lineno, 1, "objective found; this toolkit handles decision problems only")

        # phase 1: coefficient/variable pairs up to the first relation
        terms: list[Term] = []
        i = 0
        while i < len(tokens) and tokens[i][0] not in RELATIONS:
            tok, col = tokens[i]
            if tok == ";":
                raise OpbError(lineno, col, "';' before relation and bound")
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
            idx = _int(vm.group(1), lineno, vcol)
            if idx < 1:
                raise OpbError(lineno, vcol, "variable index must be >= 1")
            max_var = max(max_var, idx)
            terms.append(Term(_int(tok, lineno, col), lit(idx)))
            i += 2
        if i == len(tokens):
            raise OpbError(lineno, len(raw) + 1, "constraint missing relation")
        relation, col = tokens[i]
        if not terms:
            raise OpbError(lineno, col, "relation with no terms before it")

        # phase 2: the bound, then ';' (attached or standing alone), then the end
        if i + 1 == len(tokens):
            raise OpbError(lineno, len(raw) + 1, "constraint missing ';'")
        tok, col = tokens[i + 1]
        body = tok[:-1] if tok.endswith(";") else tok
        if not _INT.match(body):
            raise OpbError(lineno, col, f"expected integer bound, got {tok!r}")
        rest = tokens[i + 2 :]
        if body == tok:
            if not rest or rest[0][0] != ";":
                raise OpbError(lineno, rest[0][1] if rest else col, "expected ';' after bound")
            rest = rest[1:]
        if rest:
            raise OpbError(lineno, rest[0][1], f"unexpected token {rest[0][0]!r} after ';'")
        constraints.append(PBConstraint(tuple(terms), relation, _int(body, lineno, col)))

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

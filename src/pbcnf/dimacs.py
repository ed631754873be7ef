"""DIMACS CNF writing and parsing.

Output is byte-deterministic: `p cnf V C` header, one clause per line,
signed literals separated by single spaces, `0` terminators, LF line endings.
"""

from __future__ import annotations

from .core import CnfFormula, from_signed, gc_paused, to_signed
from .opb import _to_text


class DimacsError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def dimacs_str(formula: CnfFormula) -> str:
    clauses = formula.clauses
    # one "signed-literal " string per literal code, covering literals above
    # num_vars too, so each clause is a join of table lookups
    text = [f"{to_signed(l)} " for l in range(2 * formula.max_var() + 2)].__getitem__
    body = "".join(["".join(map(text, cl)) + "0\n" for cl in clauses])
    return f"p cnf {formula.num_vars} {len(clauses)}\n" + body


def write_dimacs(formula: CnfFormula, sink) -> None:
    sink.write(dimacs_str(formula))


def parse_dimacs(source) -> CnfFormula:
    """Inverse of `write_dimacs`; also accepts `c` comment lines and clauses
    spanning multiple lines."""
    text = _to_text(source)
    with gc_paused():
        return _parse_text(text)


def _parse_text(text: str) -> CnfFormula:
    num_vars = num_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsError(lineno, "duplicate header")
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(lineno, f"malformed header {stripped!r}")
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(lineno, f"malformed header {stripped!r}") from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(lineno, "negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(lineno, "clause before header")
        for tok in stripped.split():
            try:
                n = int(tok)
            except ValueError:
                raise DimacsError(lineno, f"expected integer literal, got {tok!r}") from None
            if n == 0:
                clauses.append(current)
                current = []
            else:
                if abs(n) > num_vars:
                    raise DimacsError(lineno, f"literal {n} exceeds declared {num_vars} variables")
                current.append(from_signed(n))
    if current:
        raise DimacsError(lineno, "unterminated clause at end of input")
    if num_vars is None:
        raise DimacsError(1, "missing header")
    if num_clauses != len(clauses):
        raise DimacsError(lineno if text.strip() else 1, f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars=num_vars, clauses=clauses)

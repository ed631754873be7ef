"""DIMACS CNF writing and parsing.

Output is byte-deterministic: `p cnf V C` header, one clause per line,
signed literals separated by single spaces, `0` terminators, LF line endings.

The text is the formula's flat `lits` written out, so both directions work a
bounded block of it at a time and leave the per-literal work to builtins.
The writer maps each code of a fixed-size slice through one table of
"signed-literal " strings, with code 0 (never a literal) standing for the
"0\\n" terminator; it trusts codes below 2, but refuses a variable above
`num_vars` with ValueError, which `write_dimacs` raises after the blocks
before it are written.  The parser splits a block of the
body into tokens and maps them through one dict from canonical text (`7`,
`-7`, `0`) to code, keeping the terminators among the codes;
a block holding any other token (a comment, a second header, `+3`, `03`,
garbage, a literal out of range) is read line by line with `int()` and
every check instead, so errors and their line numbers stay the same.
"""

from __future__ import annotations

from .core import CnfFormula, _to_text, from_signed, to_signed

_WRITE_BLOCK = 1 << 14  # codes per written block
_READ_BLOCK = 1 << 16  # characters per parsed block, cut after a line feed


class DimacsError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _literal_texts(num_vars: int) -> list[str]:
    """"signed-literal " for every literal code of variables 1..num_vars;
    code 0, never a literal, ends a clause."""
    table = [f"{to_signed(l)} " for l in range(2 * num_vars + 2)]
    table[0] = "0\n"
    return table


def _blocks(formula: CnfFormula):
    """The DIMACS text of `formula`: the header, then one string per block
    of `_WRITE_BLOCK` codes."""
    lits, nv = formula.lits, formula.num_vars
    yield f"p cnf {nv} {lits.count(0)}\n"
    # the table covers no more variables than there are codes, so a huge
    # declared count costs nothing; a block naming a variable beyond the
    # table is checked against num_vars and formatted literal by literal
    text = _literal_texts(min(nv, len(lits))).__getitem__
    for i in range(0, len(lits), _WRITE_BLOCK):
        block = lits[i : i + _WRITE_BLOCK]
        try:
            chunk = "".join(map(text, block))
        except IndexError:
            top = max(block)
            if top > 2 * nv + 1:
                raise ValueError(f"a clause names x{top >> 1}, above the formula's {nv} variables") from None
            chunk = "".join(f"{to_signed(l)} " if l else "0\n" for l in block)
        yield chunk


def dimacs_str(formula: CnfFormula) -> str:
    return "".join(_blocks(formula))


def write_dimacs(formula: CnfFormula, sink) -> None:
    """Write the text of `dimacs_str` to `sink` a block at a time, so the
    whole text never exists at once."""
    for chunk in _blocks(formula):
        sink.write(chunk)


def _cut(text: str, pos: int) -> int:
    """End of the block starting at `pos`: just past the first line feed
    `_READ_BLOCK` characters on, or the end of the text.  Every block thus
    holds whole lines, so `splitlines` of a block splits as the text does."""
    end = text.find("\n", pos + _READ_BLOCK)
    return len(text) if end < 0 else end + 1


def _literal_codes(top: int) -> dict[str, int]:
    """Canonical text of every literal of variables 1..top, and of 0, to its
    code (0 for the clause terminator)."""
    codes = {"0": 0}
    codes.update(zip(map(str, range(1, top + 1)), range(2, 2 * top + 2, 2)))
    codes.update(zip(map(str, range(-1, -top - 1, -1)), range(3, 2 * top + 3, 2)))
    return codes


def _parse_header(text: str) -> tuple[int, int, int, int]:
    """Find the `p cnf V C` line.  Returns V, C, the header's line number and
    the offset where the body starts."""
    pos = lineno = 0
    while pos < len(text):
        for raw in text[pos : _cut(text, pos)].splitlines(keepends=True):
            lineno += 1
            pos += len(raw)
            stripped = raw.strip()
            if not stripped or stripped.startswith("c"):
                continue
            if not stripped.startswith("p"):
                raise DimacsError(lineno, "clause before header")
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(lineno, f"malformed header {stripped!r}")
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(lineno, f"malformed header {stripped!r}") from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(lineno, "negative counts in header")
            return num_vars, num_clauses, lineno, pos
    raise DimacsError(1, "missing header")


def _parse_lines(lines, lineno: int, num_vars: int, lits: list[int]) -> None:
    """Read body lines one token at a time, the first numbered `lineno + 1`,
    appending their codes to `lits`."""
    for lineno, raw in enumerate(lines, start=lineno + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            raise DimacsError(lineno, "duplicate header")
        for tok in stripped.split():
            try:
                n = int(tok)
            except ValueError:
                raise DimacsError(lineno, f"expected integer literal, got {tok!r}") from None
            if abs(n) > num_vars:
                raise DimacsError(lineno, f"literal {n} exceeds declared {num_vars} variables")
            lits.append(from_signed(n) if n else 0)


def parse_dimacs(source) -> CnfFormula:
    """Inverse of `write_dimacs`; also accepts `c` comment lines, clauses
    spanning multiple lines and any integer token `int()` reads (`+3`,
    `03`)."""
    text = _to_text(source)
    num_vars, num_clauses, lineno, pos = _parse_header(text)
    # the table stops at half the text's length, as many variables as the
    # text can name, so a huge declared count costs nothing; a literal
    # beyond the table still parses, through `_parse_lines`
    code_of = _literal_codes(min(num_vars, len(text) // 2)).__getitem__
    lits: list[int] = []
    counted = pos  # `lineno` lines end at offset `counted`
    while pos < len(text):
        end = _cut(text, pos)
        block = text[pos:end]
        n = len(lits)
        try:
            lits += map(code_of, block.split())
        except KeyError:
            # a token without a canonical in-range form: read the block with
            # every check, numbering its lines from where it starts
            del lits[n:]
            lineno += len(text[counted:pos].splitlines())
            lines = block.splitlines()
            _parse_lines(lines, lineno, num_vars, lits)
            lineno += len(lines)
            counted = end
        pos = end
    unterminated = lits[-1:] not in ([], [0])
    found = lits.count(0)
    if unterminated or num_clauses != found:
        lineno += len(text[counted:].splitlines())
        if unterminated:
            raise DimacsError(lineno, "unterminated clause at end of input")
        raise DimacsError(lineno, f"header declares {num_clauses} clauses, found {found}")
    formula = CnfFormula(num_vars)
    formula.lits = lits
    return formula

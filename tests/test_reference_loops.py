"""Differential tests: the table- and comprehension-based hot paths against
the plain per-literal loops they replaced.

The reference functions below are the straightforward versions of
`merge_sums`, the GTE clause emission, `dimacs_str`, the DIMACS parser, the
OPB reader, the staged normalizer, and a list-per-clause `Solver` (its
loader and its search loops).  The fast versions must give exactly the same
sums, clauses (order and literal order included), variable counts, DIMACS
bytes, parsed formulas and parse errors, normalization outcomes, watch lists
and root units (the engine's clause offsets mapped to clause indices), and
the same search: statuses, models, learned clauses and trails.  Across assumption sweeps, where the engine keeps
assumption levels between calls, the trail may differ and the learned clauses
are compared up to the order of their literals.  The OPB reader rejects an
objective line at its first token, and reports a `;` right after the relation
as a missing bound; those are the only errors it reports differently.
"""

from __future__ import annotations

import io
import warnings
from heapq import heappop, heappush

import pytest

from pbcnf import (
    EQ,
    GE,
    LE,
    SAT,
    TIMEOUT,
    UNSAT,
    CnfFormula,
    DimacsError,
    NormalizationOutcome,
    OpbError,
    OutcomeKind,
    PBConstraint,
    PbInstance,
    Solver,
    SolveResult,
    SplitMix64,
    Term,
    build_tree,
    compile_constraints,
    compile_instance,
    dimacs_str,
    encode_gte,
    from_signed,
    gen_bench,
    lit,
    merge_sums,
    negate,
    normalize,
    parse_dimacs,
    parse_opb,
    pb12like,
    pedigreelike,
    propagate,
    random_constraint,
    random_normalized_constraint,
    solve,
    to_signed,
    write_dimacs,
    write_opb,
)
from pbcnf import dimacs
from pbcnf.engine import FALSE, TRUE, UNDEF, _luby
from pbcnf.opb import _HEADER, _INT, _TOKEN, _VAR, _to_text

# --- reference implementations ------------------------------------------


def ref_merge_sums(a, b, cap):
    out = set(a)
    out.update(b)
    for x in a:
        for y in b:
            out.add(min(x + y, cap))
    return sorted(out)


def ref_emit(node, cap, out):
    if node.is_leaf:
        return
    left, right = node.children
    ref_emit(left, cap, out)
    ref_emit(right, cap, out)
    for s in node.sums:
        node.var_of[s] = out.fresh_lit()
    for w1 in left.sums:
        q = left.var_of[w1]
        for w2 in right.sums:
            out.clauses.append([negate(q), negate(right.var_of[w2]), node.var_of[min(w1 + w2, cap)]])
    for child in (left, right):
        for s in child.sums:
            out.clauses.append([negate(child.var_of[s]), node.var_of[s]])


def ref_encode_gte(c, out):
    for _, l in c.terms:
        out.num_vars = max(out.num_vars, l >> 1)
    tree = build_tree(c)
    if tree.root.sums[-1] == c.bound + 1:
        cap = c.bound + 1
        ref_emit(tree.root, cap, out)
        out.clauses.append([negate(tree.root.var_of[cap])])


def ref_dimacs_str(formula):
    out = [f"p cnf {formula.num_vars} {len(formula.clauses)}\n"]
    for cl in formula.clauses:
        if cl:
            out.append(" ".join(str(to_signed(l)) for l in cl) + " 0\n")
        else:
            out.append("0\n")
    return "".join(out)


def ref_parse_text(text):
    """The parser's per-line, per-token loop over the whole text."""
    num_vars = num_clauses = None
    clauses = []
    current = []
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


def ref_parse_opb(source) -> PbInstance:
    """The OPB reader's single token loop with its four state flags, which
    checked an objective line's syntax before rejecting it."""
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


def ref_normalize(c: PBConstraint) -> NormalizationOutcome:
    """The normalizer's three rewrite stages (a >= flip, a negative-weight
    flip and a merge of repeated variables), with each half of an equality
    normalized from scratch."""
    if c.relation == EQ:
        lower = ref_normalize(PBConstraint(c.terms, LE, c.bound))
        upper = ref_normalize(PBConstraint(c.terms, GE, c.bound))
        return NormalizationOutcome(OutcomeKind.EQUALITY_SPLIT, parts=(lower, upper))

    terms = list(c.terms)
    k = c.bound
    if c.relation == GE:
        # sum(w*l) >= k  <=>  sum(w*~l) <= sum(w) - k
        k = sum(w for w, _ in terms) - k
        terms = [Term(w, negate(l)) for w, l in terms]

    # negative weights flip the literal and relax the bound; zero weights drop
    positive: list[Term] = []
    for w, l in terms:
        if w < 0:
            k += -w
            positive.append(Term(-w, negate(l)))
        elif w > 0:
            positive.append(Term(w, l))

    # merge repeated variables, keeping first-occurrence order
    acc: dict[int, list[int]] = {}
    for w, l in positive:
        slot = acc.setdefault(l >> 1, [0, 0])
        slot[l & 1] += w
    merged: list[Term] = []
    for var, (on_pos, on_neg) in acc.items():
        if on_pos > on_neg:
            merged.append(Term(on_pos - on_neg, 2 * var))
            k -= on_neg
        elif on_neg > on_pos:
            merged.append(Term(on_neg - on_pos, 2 * var + 1))
            k -= on_pos
        else:
            k -= on_pos

    if k < 0:
        return NormalizationOutcome(OutcomeKind.TRIVIALLY_FALSE)
    if sum(w for w, _ in merged) <= k:
        return NormalizationOutcome(OutcomeKind.TRIVIALLY_TRUE)

    units = tuple(l for w, l in merged if w > k)
    kept = tuple(t for t in merged if t.weight <= k)
    if not kept or sum(w for w, _ in kept) <= k:
        # residual constraint is vacuous; only the forced units carry meaning
        return NormalizationOutcome(OutcomeKind.UNITS_ONLY, forced_units=units)
    return NormalizationOutcome(
        OutcomeKind.NORMALIZED, constraint=PBConstraint(kept, LE, k), forced_units=units
    )


def ref_load(formula):
    """The loader's per-literal dedupe loop, applied to every clause, then
    `ref_root`."""
    nv = formula.num_vars
    clauses, root_units, root_conflict = [], [], None
    watches = [[] for _ in range(2 * nv + 2)]
    for idx, cl in enumerate(formula.clauses):
        lits = []
        skip = False
        for l in cl:
            if l ^ 1 in lits:
                skip = True
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
            root_units.append((lits[0], idx))
        else:
            root_conflict = idx
    prio = []
    for v in range(1, nv + 1):
        heappush(prio, (0.0, v))
    trail, reasons, root_conflict = ref_root(nv, clauses, watches, root_units, root_conflict)
    return nv, clauses, watches, trail, reasons, root_conflict, prio


def ref_root(nv, clauses, watches, root_units, root_conflict):
    """Level 0 as loading leaves it: (trail, the index of each trail
    literal's reason clause, root conflict).  An empty clause wins outright;
    otherwise the units are asserted in clause order, the first clash wins,
    and the rest is propagated clause by clause with the watch moves of the
    engine."""
    if root_conflict is not None:
        return [], [], root_conflict
    val = [UNDEF] * (2 * nv + 2)
    trail, reasons = [], []

    def assign(l, idx):
        val[l], val[l ^ 1] = TRUE, FALSE
        trail.append(l)
        reasons.append(idx)

    for l, idx in root_units:
        if val[l] == FALSE:
            return trail, reasons, idx
        if val[l] == UNDEF:
            assign(l, idx)
    for p in trail:  # grows while it is walked
        falsified = p ^ 1
        pending = watches[falsified]
        watches[falsified] = []
        for pos, ci in enumerate(pending):
            cl = clauses[ci]
            if cl[0] == falsified:
                cl[0], cl[1] = cl[1], cl[0]
            free = [t for t in range(2, len(cl)) if val[cl[t]] != FALSE]
            if val[cl[0]] != TRUE and free:
                t = free[0]
                cl[1], cl[t] = cl[t], cl[1]
                watches[cl[1]].append(ci)
                continue
            watches[falsified].append(ci)
            if val[cl[0]] == FALSE:
                watches[falsified] += pending[pos + 1 :]
                return trail, reasons, ci
            if val[cl[0]] == UNDEF:
                assign(cl[0], ci)
    return trail, reasons, None


def clause_index(s):
    """{store offset: clause index} for every clause in the solver's flat
    literal list, read off the 0 that ends each clause."""
    index, o = {}, 0
    for i in range(len(s.clauses)):
        index[o] = i
        o = s.lits.index(0, o) + 1
    assert o == len(s.lits)
    return index


def assert_same_load(formula):
    s = Solver(formula)
    nv, clauses, watches, trail, reasons, root_conflict, prio = ref_load(formula)
    assert s.nvars == nv
    assert s.clauses == clauses
    index = clause_index(s)
    assert [[index[o] for o in ws] for ws in s.watches] == watches
    assert s.trail == trail
    assert [index[s.reason[l >> 1]] for l in s.trail] == reasons
    # the engine reports a conflict as the clause's literals
    assert s.root_conflict == (None if root_conflict is None else clauses[root_conflict])
    assert s.prio == prio
    assert s.num_original == len(formula.clauses)


def random_constraints(seed, count=120):
    rng = SplitMix64(seed)
    return [random_normalized_constraint(rng, 12, 20, 45) for _ in range(count)]


def clamp_kinds(c):
    """Which internal nodes of c's tree have pairs that clamp to bound+1."""
    cap = c.bound + 1
    kinds = set()
    stack = [build_tree(c).root]
    while stack:
        node = stack.pop()
        if node.children:
            left, right = node.children
            kinds.add(left.sums[-1] + right.sums[-1] >= cap)
            stack.extend(node.children)
    return kinds


# --- tree sums and emission ----------------------------------------------


def test_merge_sums_matches_reference_on_random_lists():
    rng = SplitMix64(11)
    for _ in range(400):
        cap = rng.randint(1, 40)
        a = sorted({rng.randint(1, cap) for _ in range(rng.randint(0, 8))})
        b = sorted({rng.randint(1, cap) for _ in range(rng.randint(0, 8))})
        assert merge_sums(a, b, cap) == ref_merge_sums(a, b, cap), (a, b, cap)
        assert merge_sums(b, a, cap) == ref_merge_sums(b, a, cap), (b, a, cap)
        f = rng.randint(0, cap)
        want = [s for s in ref_merge_sums(a, b, cap) if s >= f]
        assert merge_sums(a, b, cap, f) == want, (a, b, cap, f)
        assert merge_sums(b, a, cap, f) == want, (b, a, cap, f)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gte_emission_matches_reference(seed):
    kinds = set()
    for c in random_constraints(seed):
        kinds |= clamp_kinds(c)
        # declared with the inputs, or under-declared: fresh variables come
        # after the inputs either way
        for num_vars in (0, max(c.variables())):
            got, want = CnfFormula(num_vars=num_vars), CnfFormula(num_vars=num_vars)
            encode_gte(c, got)
            ref_encode_gte(c, want)
            assert got.clauses == want.clauses, str(c)
            assert got.num_vars == want.num_vars, str(c)
    assert kinds == {True, False}, "sample must hold nodes that clamp and nodes that do not"


def test_gte_emission_appends_like_reference():
    # several constraints into one formula, as compile_constraints does
    constraints = random_constraints(4, count=30)
    top = max(max(c.variables()) for c in constraints)
    got, want = CnfFormula(num_vars=top), CnfFormula(num_vars=top)
    for c in constraints:
        encode_gte(c, got)
        ref_encode_gte(c, want)
    assert got.clauses == want.clauses
    assert got.num_vars == want.num_vars


# --- DIMACS writer and solver loader ---------------------------------------


def hand_built():
    """Formulas with every clause shape the writer and the loader meet."""
    return [
        CnfFormula(),
        CnfFormula(num_vars=3),
        CnfFormula(num_vars=2, clauses=[[]]),
        CnfFormula(num_vars=3, clauses=[[2], [4, 7], [], [6, 3, 4]]),
        # repeated literals in binary, ternary and long clauses
        CnfFormula(
            num_vars=3, clauses=[[2, 2], [2, 2, 4], [2, 4, 2], [2, 4, 4], [4, 4, 4], [6, 2, 6, 4], [3, 3]]
        ),
        # tautologies
        CnfFormula(
            num_vars=3, clauses=[[2, 3], [3, 2, 4], [2, 4, 3], [2, 4, 5], [6, 2, 4, 7], [5, 4, 2]]
        ),
        # literals above num_vars, in every clause length: the writer takes
        # them, the solver rejects them
        CnfFormula(num_vars=2, clauses=[[9], [2, 11], [4, 12, 14], [15, 2, 4, 16], [20, 21]]),
        CnfFormula(num_vars=0, clauses=[[40, 41], [43]]),
        # long clauses and units mixed with the fast-path lengths
        CnfFormula(num_vars=6, clauses=[[2, 4, 6, 8, 10, 12], [3], [5, 7], [9, 11, 13], [2]]),
        # a unit whose propagation moves a watch, then ends in a conflict
        CnfFormula(num_vars=3, clauses=[[2], [3, 6, 4], [3, 7], [5, 3, 6]]),
    ]


def compiled_formulas():
    out = []
    for enc in ("gte", "swc", "adder", "auto"):
        for c in random_constraints(5, count=12):
            out.append(compile_constraints([c], max(c.variables()), enc).formula)
    return out


def test_dimacs_str_matches_reference():
    for f in hand_built() + compiled_formulas():
        assert dimacs_str(f) == ref_dimacs_str(f), f


@pytest.mark.parametrize("block", [1, 4096])
def test_write_dimacs_matches_dimacs_str(block, monkeypatch):
    # the writer streams blocks of `block` clauses; literals above num_vars
    # are written too
    monkeypatch.setattr(dimacs, "_WRITE_BLOCK", block)
    for f in hand_built() + compiled_formulas():
        sink = io.StringIO()
        write_dimacs(f, sink)
        assert sink.getvalue() == dimacs_str(f) == ref_dimacs_str(f), f


def test_dimacs_str_of_a_huge_declared_count():
    # the literal table is sized by the clauses, not by num_vars
    f = CnfFormula(num_vars=10**9, clauses=[[2, 2 * 10**9 + 1]])
    assert dimacs_str(f) == ref_dimacs_str(f) == "p cnf 1000000000 1\n1 -1000000000 0\n"


def parse_outcome(parse, text):
    """The parsed variable count and clauses, or the error's line and message."""
    try:
        f = parse(text)
    except DimacsError as e:
        return "error", e.line, e.message
    return f.num_vars, f.clauses


MALFORMED_DIMACS = [
    "",
    "\n  \n",
    "c only a comment\n",
    "1 0\np cnf 1 1\n",
    "p cnf 1\n",
    "p cnf x 1\n",
    "p cnf -1 0\n",
    "c head\n\np cnf 3 2\n1 -2 0\nc mid-body comment 4 0\n3 0\n",
    "p cnf 3 2\n1\n-2\n0 3\n0\n",  # clauses spanning lines
    "p cnf 3 2\r\n1 -2 0\r\n3 0\r\n",  # CRLF
    "p cnf 3 2\n\t1\t-2 0\t3\t0\t\n",  # tabs
    "p cnf 3 2\n+3 -2 0\n03 -03 0\n",  # integer tokens int() reads
    "p cnf 3 3\n0\n1 0 0\n",  # empty clauses
    "p cnf 3 2\n1 x 0\np cnf 3 2\n3 0\n",  # bad token, then a duplicate header
    "p cnf 3 2\n1 0\np cnf 3 2\n1 x 0\n",  # duplicate header, then a bad token
    "p cnf 3 1\n4 0\n",  # out of range
    "p cnf 3 1\n-4 0\n",
    "p cnf 3 2\n1 -2 0\n",  # too few clauses
    "p cnf 3 0\n1 0\n\n",  # too many
    "p cnf 3 1\n1 2\n",  # unterminated
    "p cnf 3 1\n1 2\nc trailing\n",
    "p cnf 3 1\n1 c 0\n",  # a c token mid-line is no comment
    "p cnf 3 1\n1 -0 0\n",  # -0 ends a clause
    "p cnf 3 1\n1\x0c2 0\x0b",  # line breaks other than LF
    "p cnf 3 1\n1\r2 0",
    "p cnf 1000000000 1\n999999999 -1000000000 0\n",  # beyond the token table
    "p cnf 2 1\n1 2 0 ",
]


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_parse_dimacs_matches_reference_on_malformed_input(block, monkeypatch):
    # with tiny blocks, every clause and comment crosses a block boundary
    monkeypatch.setattr(dimacs, "_READ_BLOCK", block)
    for text in MALFORMED_DIMACS:
        assert parse_outcome(parse_dimacs, text) == parse_outcome(ref_parse_text, text), repr(text)


def random_dimacs_text(rng):
    """Seeded DIMACS text: random whitespace and line splits, comment lines,
    non-canonical integer tokens and, now and then, one error."""
    num_vars = rng.randint(0, 9)
    clauses = [
        [rng.randint(1, num_vars) * (-1 if rng.chance(1, 2) else 1) for _ in range(rng.randint(0, 4) if num_vars else 0)]
        for _ in range(rng.randint(0, 8))
    ]
    tokens = []
    for cl in clauses:
        for n in cl:
            form = rng.randint(0, 9)
            tokens.append(f"+{n}" if form == 0 and n > 0 else f"{'-' if n < 0 else ''}0{abs(n)}" if form == 1 else str(n))
        tokens.append("-0" if rng.chance(1, 10) else "0")
    declared = len(clauses)
    fault = rng.randint(0, 9)
    if fault == 0 and tokens:
        tokens[rng.randint(0, len(tokens) - 1)] = ("x", "1.5", "c", "p", "--1")[rng.randint(0, 4)]
    elif fault == 1 and tokens:
        tokens[rng.randint(0, len(tokens) - 1)] = str(num_vars + 1)
    elif fault == 2:
        tokens.insert(rng.randint(0, len(tokens)), "\np cnf 1 1\n")
    elif fault == 3:
        declared += rng.randint(-1, 1) or 1
    elif fault == 4 and tokens:
        tokens.pop()
    seps = (" ", " ", " ", "  ", "\t", "\n", "\n", "\r\n", "\n\n", "\nc note 1 0\n", " \n c\n")
    parts = [("c made by a test\n" if rng.chance(1, 3) else "") + f"p cnf {num_vars} {declared}"]
    for tok in tokens:
        parts.append(seps[rng.randint(0, len(seps) - 1)])
        parts.append(tok)
    parts.append(("\n", "", "\n\n", "\nc end\n")[rng.randint(0, 3)])
    return "".join(parts)


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 16])
def test_parse_dimacs_matches_reference_on_random_text(block, monkeypatch):
    monkeypatch.setattr(dimacs, "_READ_BLOCK", block)
    rng = SplitMix64(821)
    errors = 0
    for _ in range(400):
        text = random_dimacs_text(rng)
        want = parse_outcome(ref_parse_text, text)
        assert parse_outcome(parse_dimacs, text) == want, repr(text)
        errors += want[0] == "error"
    assert 40 <= errors <= 360


def test_parse_dimacs_matches_reference_across_default_blocks():
    # a formula well beyond one default block, written canonically and with
    # its clauses run together and split across lines, so clauses cross
    # block boundaries; then one bad token near its end
    f = compile_instance(gen_bench(pedigreelike(n=50, seed=3)), "gte").formula
    text = dimacs_str(f)
    assert len(text) > 4 * dimacs._READ_BLOCK
    header, body = text.split("\n", 1)
    mixed = header + "\n" + body.replace(" 0\n", " 0 ").replace(" -", "\n-")
    for t in (text, mixed, mixed[:-40] + " 1.5 " + mixed[-40:]):
        want = parse_outcome(ref_parse_text, t)
        assert parse_outcome(parse_dimacs, t) == want
    assert parse_dimacs(text).clauses == f.clauses


def under_declared(f):
    return any(l >> 1 > f.num_vars for cl in f.clauses for l in cl)


def test_solver_load_matches_reference():
    for f in hand_built() + compiled_formulas():
        if not under_declared(f):
            assert_same_load(f)


def test_solver_rejects_literals_above_num_vars():
    formulas = [f for f in hand_built() if under_declared(f)]
    assert len(formulas) == 2
    for f in [CnfFormula(num_vars=2, clauses=[[9]]), *formulas]:
        for load in (Solver, solve, propagate):
            with pytest.raises(ValueError, match=r"clause \d+ names x\d+, above the formula's"):
                load(f)


def test_solver_rejects_literal_codes_below_2():
    # code 1 would be the negation of a variable 0, and 0 or a negative code
    # names no literal at all
    for clauses in ([[1, 4], [5, 3]], [[0, 4]], [[-2, 4]], [[1]]):
        with pytest.raises(ValueError, match=r"clause 0 holds literal code -?\d+, below 2"):
            Solver(CnfFormula(num_vars=2, clauses=clauses))


# --- CDCL search loops -------------------------------------------------------


class RefSolver:
    """A list-per-clause engine: `ref_load` gives each clause its own list,
    named by its index, and the search loops are the engine's as they were
    before the live-entry heap: `_backtrack` re-pushes every unassigned
    variable, `_propagate` calls `_assign`, and `solve` drains the heap before
    it reports a model."""

    def __init__(self, formula):
        nv, self.clauses, self.watches, trail, reasons, self.root_conflict, self.prio = ref_load(formula)
        self.nvars = nv
        self.num_original = len(formula.clauses)
        self.val = [UNDEF] * (2 * nv + 2)
        self.level = [0] * (nv + 1)
        self.reason = [-1] * (nv + 1)
        self.activity = [0.0] * (nv + 1)
        self.saved_phase = bytearray(nv + 1)
        self.seen = [0] * (nv + 1)
        self.var_inc = 1.0
        self.trail = []
        self.trail_lim = []
        for l, idx in zip(trail, reasons):
            self._assign(l, idx)
        self.qhead = len(self.trail)

    def _assign(self, l, reason):
        v = l >> 1
        self.val[l] = TRUE
        self.val[l ^ 1] = FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(l)

    def _backtrack(self, lvl):
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

    def _propagate(self):
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

    def _bump(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            self.prio = [(-self.activity[v2], v2) for v2 in range(1, self.nvars + 1) if self.val[2 * v2] == UNDEF]
            self.prio.sort()

    def _analyze(self, confl):
        learned = [0]
        counter = 0
        idx = len(self.trail) - 1
        p = -1
        reason_cl = self.clauses[confl]
        while True:
            for q in reason_cl:
                if q == p:
                    continue
                v = q >> 1
                if not self.seen[v] and self.level[v] > 0:
                    self.seen[v] = 1
                    self._bump(v)
                    if self.level[v] >= len(self.trail_lim):
                        counter += 1
                    else:
                        learned.append(q)
            while not self.seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            self.seen[p >> 1] = 0
            counter -= 1
            if counter == 0:
                learned[0] = p ^ 1
                break
            reason_cl = self.clauses[self.reason[p >> 1]]
        for q in learned[1:]:
            self.seen[q >> 1] = 0
        if len(learned) == 1:
            return learned, 0
        max_i = max(range(1, len(learned)), key=lambda i: self.level[learned[i] >> 1])
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[learned[1] >> 1]

    def _add_learned(self, learned):
        idx = len(self.clauses)
        self.clauses.append(learned)
        if len(learned) >= 2:
            self.watches[learned[0]].append(idx)
            self.watches[learned[1]].append(idx)
        self._assign(learned[0], idx)

    def _pick_branch(self):
        prio = self.prio
        val = self.val
        activity = self.activity
        while prio:
            negact, v = heappop(prio)
            if val[2 * v] == UNDEF and -negact == activity[v]:
                return v
        return None

    def solve(self, assumptions=(), max_conflicts=None):
        if self.root_conflict is not None:
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
                    self.trail_lim.append(len(self.trail))
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

    def assume_propagate(self, asserted=()):
        """As the engine's, with the conflict as the clause's literals."""
        if self.root_conflict is not None:
            return (self.clauses[self.root_conflict], len(self.trail))
        self._backtrack(0)
        base = len(self.trail)
        self.trail_lim.append(base)
        for a in asserted:
            if self.val[a] == FALSE:
                r = self.reason[a >> 1]
                return (self.clauses[r] if r >= 0 else [], base)
            if self.val[a] == UNDEF:
                self._assign(a, -1)
        confl = self._propagate()
        return (None if confl is None else self.clauses[confl], base)

    def retract(self):
        self._backtrack(0)


def assert_heap_invariant(s):
    """Each variable has at most one live `prio` entry, keyed `heap_act[v]`,
    and every unassigned variable has one keyed by its current activity."""
    entries = set(s.prio)
    for v in range(1, s.nvars + 1):
        if s.heap_act[v] != -1.0:
            assert (-s.heap_act[v], v) in entries, v
        if s.val[2 * v] == UNDEF:
            assert s.heap_act[v] == s.activity[v], v
            assert (-s.activity[v], v) in entries, v


def assert_same_state(got, want):
    assert got.clauses == want.clauses
    assert got.trail == want.trail
    assert got.trail_lim == want.trail_lim
    assert got.activity == want.activity
    assert got.var_inc == want.var_inc
    assert got.saved_phase == want.saved_phase
    assert_heap_invariant(got)


def assert_same_solve(got, want, assumptions=(), max_conflicts=None):
    a = got.solve(assumptions, max_conflicts)
    b = want.solve(assumptions, max_conflicts)
    assert (a.status, a.model) == (b.status, b.model)
    assert_same_state(got, want)
    return a.status


def pb12_formulas(jobs):
    """The criterion-8 pb12like instances, as (seed offset, encoder) jobs."""
    for i, enc in jobs:
        yield compile_instance(gen_bench(pb12like(constraints=6, n=24, seed=100 + i)), enc).formula


def test_search_matches_reference_on_pb12like():
    statuses = set()
    for f in pb12_formulas((i, enc) for i in range(10) for enc in ("gte", "swc", "adder")):
        got, want = Solver(f), RefSolver(f)
        statuses.add(assert_same_solve(got, want, max_conflicts=300))
    assert statuses == {SAT, UNSAT, TIMEOUT}


def test_search_matches_reference_after_rescale():
    # with activities this close to the 1e100 ceiling, most of these searches
    # rescale while variables are assigned
    rescaled = 0
    for f in pb12_formulas([(0, "gte")] + [(i, "adder") for i in range(10)]):
        got, want = Solver(f), RefSolver(f)
        got.var_inc = want.var_inc = 1e98
        assert_same_solve(got, want, max_conflicts=300)
        rescaled += got.var_inc < 1e90
    assert rescaled >= 8


def test_solver_leaves_the_formula_untouched():
    # the solver keeps its own store: loading, solving with and without
    # assumptions, and assume_propagate with retract change no clause
    formulas = [f for f in hand_built() if not under_declared(f)]
    formulas += pb12_formulas((i, enc) for i in range(10) for enc in ("gte", "swc", "adder"))
    for f in formulas:
        snapshot = (f.num_vars, [list(cl) for cl in f.clauses])
        s = Solver(f)
        assert (f.num_vars, f.clauses) == snapshot
        s.solve(max_conflicts=300)
        assert (f.num_vars, f.clauses) == snapshot
        asn = [lit(v, negative=v % 2 == 0) for v in range(1, min(f.num_vars, 4) + 1)]
        s.solve(asn, max_conflicts=300)
        assert (f.num_vars, f.clauses) == snapshot
        s.assume_propagate(asn[::-1])
        s.retract()
        assert (f.num_vars, f.clauses) == snapshot


def learned_clauses(s):
    return [sorted(cl) for cl in s.clauses[s.num_original:]]


def assert_same_answer(got, want, assumptions=()):
    """What reusing kept assumption levels may not change: status, model,
    activities and learned clauses up to the order of their literals (the
    trail and the saved phases of still-assigned variables may differ)."""
    a = got.solve(assumptions)
    b = want.solve(assumptions)
    assert (a.status, a.model) == (b.status, b.model)
    assert got.activity == want.activity
    assert got.var_inc == want.var_inc
    assert learned_clauses(got) == learned_clauses(want)
    assert_heap_invariant(got)


@pytest.mark.parametrize("encoding", ["gte", "swc", "adder"])
def test_assumption_sweeps_match_reference(encoding):
    """One solver reused across calls, as `oracle_check` and `gac_check` do,
    with the assumptions most significant bit first, as in `oracle_check`."""
    rng = SplitMix64(23)
    for _ in range(12):
        c = random_normalized_constraint(rng, 8, 12, 40)
        variables = c.variables()
        f = compile_constraints([c], max(variables), encoding).formula
        got, want = Solver(f), RefSolver(f)
        for bits in range(1 << len(variables)):
            asn = [lit(v, negative=not (bits >> i) & 1) for i, v in enumerate(variables)]
            assert_same_answer(got, want, asn[::-1])
        for _ in range(30):
            partial = [lit(v, negative=rng.chance(1, 2)) for v in variables if rng.chance(1, 2)]
            got_confl, _ = got.assume_propagate(partial)
            want_confl, _ = want.assume_propagate(partial)
            assert (got_confl is None) == (want_confl is None)
            if got_confl is None:
                assert set(got.trail) == set(want.trail)
            else:
                assert all(got.val[l] == FALSE for l in got_confl), got_confl
                assert sorted(got_confl) == sorted(want_confl)
            got.retract()
            want.retract()
            assert_heap_invariant(got)
        assert_same_answer(got, want)


# --- OPB reader --------------------------------------------------------------

OPB_TOKENS = (
    "+1", "-2", "3", "x1", "x0", "x10", "<=", ">=", "=", ";", "1;", "-4;",
    "junk", "++2", "x", "+1x1", "<=1", "min:", "max:",
)


def random_opb_line(rng):
    """Either random tokens, or a well-formed constraint with one token
    replaced, inserted or deleted (or none), joined by random blanks."""
    if rng.chance(1, 2):
        tokens = [rng.choice(OPB_TOKENS) for _ in range(rng.randint(1, 8))]
    else:
        tokens = []
        for _ in range(rng.randint(1, 3)):
            tokens += [rng.choice(("+1", "-2", "3")), rng.choice(("x1", "x2", "x10"))]
        tokens.append(rng.choice((LE, GE, EQ)))
        tokens += rng.choice(([rng.choice(("1", "-4")), ";"], [rng.choice(("1;", "-4;"))]))
        i = rng.randint(0, len(tokens) - 1)
        edit = rng.randint(0, 3)
        if edit == 1:
            tokens[i] = rng.choice(OPB_TOKENS)
        elif edit == 2:
            tokens.insert(i, rng.choice(OPB_TOKENS))
        elif edit == 3 and len(tokens) > 1:
            del tokens[i]
    gaps = [rng.choice((" ", "  ", "\t")) for _ in tokens]
    return rng.choice(("", " ")) + "".join(g + t for g, t in zip(gaps, tokens))[1:]


def opb_outcome(parse, text):
    """The declared count and constraints, or the error's line, column and
    message."""
    try:
        inst = parse(text)
    except OpbError as e:
        return (e.line, e.column, e.message)
    return (inst.declared_vars, inst.constraints)


def test_parse_opb_matches_reference_on_random_lines():
    rng = SplitMix64(41)
    objective = reworded = 0
    for _ in range(12000):
        line = random_opb_line(rng)
        text = rng.choice(("", "* c\n", "+1 x2 <= 1 ;\n")) + line + "\n"
        lineno = text.count("\n")
        got, want = opb_outcome(parse_opb, text), opb_outcome(ref_parse_opb, text)
        tokens = line.split()
        if tokens[0] in ("min:", "max:"):
            # both reject the line; the new reader without reading past the
            # first token
            assert len(want) == 3 and want[0] == lineno, text
            assert got == (lineno, 1, "objective found; this toolkit handles decision problems only")
            objective += 1
        elif got != want:
            # a ';' right after the relation is a missing bound
            line_no, column, message = want
            assert message == "';' before relation and bound", text
            assert got == (line_no, column, "expected integer bound, got ';'"), text
            at = next(i for i, t in enumerate(_TOKEN.finditer(line)) if t.start() + 1 == column)
            assert tokens[at] == ";" and tokens[at - 1] in (LE, GE, EQ), text
            reworded += 1
    assert objective > 0 and reworded > 0


def test_parse_opb_matches_reference_on_files():
    for spec in (pb12like(constraints=40, n=12, seed=1), pedigreelike(n=30, seed=3)):
        text = write_opb(gen_bench(spec))
        assert opb_outcome(parse_opb, text) == opb_outcome(ref_parse_opb, text)


# --- normalization -------------------------------------------------------


def test_normalize_matches_reference_on_random_constraints():
    rng = SplitMix64(11)
    for _ in range(300_000):
        c = random_constraint(rng)
        assert normalize(c) == ref_normalize(c), c


def test_normalize_matches_reference_on_repeated_variables():
    # up to 12 terms over x1..x5, so variables repeat in both polarities
    rng = SplitMix64(12)
    kinds = set()
    for _ in range(100_000):
        terms = [
            Term(rng.randint(-50, 50), lit(rng.randint(1, 5), negative=rng.chance(1, 2)))
            for _ in range(rng.randint(1, 12))
        ]
        c = PBConstraint(tuple(terms), rng.choice((LE, GE, EQ)), rng.randint(-200, 200))
        got = normalize(c)
        assert got == ref_normalize(c), c
        kinds.update(p.kind for p in got.flatten())
    assert kinds == set(OutcomeKind) - {OutcomeKind.EQUALITY_SPLIT}

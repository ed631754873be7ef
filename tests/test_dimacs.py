import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbcnf import CnfFormula, DimacsError, Solver, dimacs_str, lit, parse_dimacs, write_dimacs
from pbcnf.bench import gen_bench, pb12like, pedigreelike
from pbcnf.pipeline import compile_instance

from conftest import formula


def test_exact_output_format():
    f = formula(3, [[1, -2], [-3], [2, 3, 1]])
    assert dimacs_str(f) == "p cnf 3 3\n1 -2 0\n-3 0\n2 3 1 0\n"


def test_empty_formula_and_empty_clause():
    assert dimacs_str(CnfFormula()) == "p cnf 0 0\n"
    f = formula(1, [[1]])
    f.add_clause([])
    assert dimacs_str(f) == "p cnf 1 2\n1 0\n0\n"


@pytest.mark.parametrize(
    "num_vars, clauses, root_conflict",
    [
        (0, [], None),  # an empty formula
        (3, [], None),  # variables and no clauses
        (2, [[]], []),  # an empty clause
        (2, [[4]], None),  # a unit
        (2, [[2], [3]], [3]),  # two clashing units
        (3, [[2, 4, 2], [3]], None),  # a repeated literal
        (2, [[2, 2, 2], [3, 3], [4]], [3]),  # repeated literals that clash as units
        (3, [[3, 2], [3]], None),  # a tautology
    ],
)
def test_round_trip_and_load_of_edge_formulas(num_vars, clauses, root_conflict):
    f = CnfFormula(num_vars, clauses)
    g = parse_dimacs(dimacs_str(f))
    assert (g.num_vars, g.lits) == (f.num_vars, f.lits)
    assert Solver(g).root_conflict == root_conflict


def test_write_to_sink():
    buf = io.StringIO()
    write_dimacs(formula(2, [[1, 2]]), buf)
    assert buf.getvalue() == "p cnf 2 1\n1 2 0\n"


def test_parse_basic():
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n3 0\n")
    assert f.num_vars == 3
    assert f.clauses == [[lit(1), lit(2, negative=True)], [lit(3)]]


def test_parse_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\n1\n-2 0 3\n0\nc end\n"
    f = parse_dimacs(text)
    assert f.clauses == [[lit(1), lit(2, negative=True)], [lit(3)]]


def test_parse_sources():
    text = "p cnf 1 1\n1 0\n"
    for source in (text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
        assert parse_dimacs(source).num_clauses == 1


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("", "missing header"),
        ("1 0\n", "before header"),
        ("p cnf 1\n", "malformed header"),
        ("p dnf 1 1\n1 0\n", "malformed header"),
        ("p cnf -1 0\n", "negative"),
        ("p cnf 1 1\np cnf 1 1\n1 0\n", "duplicate header"),
        ("p cnf 1 1\n2 0\n", "exceeds declared"),
        ("p cnf 1 1\n1\n", "unterminated"),
        ("p cnf 1 1\nfrog 0\n", "expected integer"),
        ("p cnf 1 2\n1 0\n", "declares 2 clauses, found 1"),
        ("p cnf 1 0\n1 0\n", "declares 0 clauses, found 1"),
    ],
)
def test_parse_errors(bad, fragment):
    with pytest.raises(DimacsError, match=fragment):
        parse_dimacs(bad)


def test_roundtrip_identity():
    f = formula(5, [[1, -2, 3], [-4, 5], [2], [-1, -3, -5, 4]])
    g = parse_dimacs(dimacs_str(f))
    assert g.num_vars == f.num_vars
    assert g.clauses == f.clauses
    assert dimacs_str(g) == dimacs_str(f)


signed_lit = st.integers(min_value=1, max_value=9).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(signed_lit, max_size=6), max_size=10))
def test_roundtrip_random(clauses):
    f = formula(9, clauses)
    g = parse_dimacs(dimacs_str(f))
    assert g.clauses == f.clauses
    assert dimacs_str(g) == dimacs_str(f)


# sha256 of the DIMACS text, recorded from the original per-literal encoders
# and writer; a faster path must reproduce the bytes exactly
GOLDEN = [
    pytest.param(
        pedigreelike(n=30, seed=3), "gte",
        "1c9318f2dfef0988320aad8a5cc332415bc62f954092c21629876e674330042c", id="pedigree30-gte",
    ),
    pytest.param(
        pb12like(constraints=6, n=24, seed=100), "gte",
        "f0b92ccc01d31e1979dd102a52ec6ec04b91bb64682c01ae3605c3838669208c", id="pb12-gte",
    ),
    # auto is gte over each piece's terms stable-sorted by weight, keeping
    # only the sums that can reach bound+1, with no bound+1 variable and one
    # variable per overflow class at the root's children; these two digests
    # were recorded when those rules came in
    pytest.param(
        pb12like(constraints=6, n=24, seed=100), "auto",
        "643b4348dd271092fb80b6d62930e7d337a3cee7f967b02dda552ec043829881", id="pb12-auto",
    ),
    pytest.param(
        pedigreelike(n=70, seed=1), "auto",
        "04c51fe3f614f755c82056e344972fa6d8b78c3afbbdb908ec74d8a0f7bb4a6d", id="pedigree-auto",
    ),
    pytest.param(
        pb12like(constraints=6, n=24, seed=100), "swc",
        "e6cfbf4a05ed67f6bef242f3628edad802937930bb6060a87e22618e61bab5a3", id="pb12-swc",
    ),
    pytest.param(
        pb12like(constraints=6, n=24, seed=100), "adder",
        "4c8fbaa2ec650348a06500f1d7dade15f304bf9da683d3fe813d780614c2329e", id="pb12-adder",
    ),
]


@pytest.mark.parametrize("spec,encoding,digest", GOLDEN)
def test_golden_dimacs_hash(spec, encoding, digest):
    text = dimacs_str(compile_instance(gen_bench(spec), encoding).formula)
    assert hashlib.sha256(text.encode()).hexdigest() == digest

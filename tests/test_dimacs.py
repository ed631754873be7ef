import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbcnf import CnfFormula, DimacsError, dimacs_str, lit, parse_dimacs, write_dimacs
from pbcnf.bench import gen_bench, pb12like, pedigreelike
from pbcnf.pipeline import compile_instance


def formula(num_vars, signed_clauses):
    f = CnfFormula(num_vars=num_vars)
    for cl in signed_clauses:
        f.add_clause([lit(abs(n), negative=n < 0) for n in cl])
    return f


def test_exact_output_format():
    f = formula(3, [[1, -2], [-3], [2, 3, 1]])
    assert dimacs_str(f) == "p cnf 3 3\n1 -2 0\n-3 0\n2 3 1 0\n"


def test_empty_formula_and_empty_clause():
    assert dimacs_str(CnfFormula()) == "p cnf 0 0\n"
    f = formula(1, [[1]])
    f.add_clause([])
    assert dimacs_str(f) == "p cnf 1 2\n1 0\n0\n"


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
    # auto is gte for every constraint, the one cardinality piece included
    pytest.param(
        pb12like(constraints=6, n=24, seed=100), "auto",
        "f0b92ccc01d31e1979dd102a52ec6ec04b91bb64682c01ae3605c3838669208c", id="pb12-auto",
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

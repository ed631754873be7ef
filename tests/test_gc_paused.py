"""The solver loader pauses the cyclic garbage collector and gives back the
state it found, whether it returns or raises.  The CNF builders that append
to a flat literal list build no container per clause and need no pause."""

import contextlib
import gc

import pytest

from pbcnf import (
    LE,
    CnfFormula,
    DimacsError,
    PBConstraint,
    Solver,
    compile_constraints,
    compile_instance,
    dimacs_str,
    gc_paused,
    gen_bench,
    oracle_check,
    parse_dimacs,
    pb12like,
    pedigreelike,
)
from pbcnf import engine, pipeline

REFERENCE = PBConstraint.from_signed([(2, 1), (3, 2), (3, 3), (3, 4)], LE, 5)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def gc_state(request):
    """Run the test with the collector enabled, then disabled, and restore it."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was:
        gc.enable()
    else:
        gc.disable()


def failing_encoder(c, out):
    out.add_clause([2, 4])
    raise ValueError("encoder failed")


def compile_raising(monkeypatch):
    monkeypatch.setitem(pipeline.ENCODERS, "gte", failing_encoder)
    with pytest.raises(ValueError, match="encoder failed"):
        compile_constraints([REFERENCE], 4, "gte")


def test_gc_paused_disables_inside_and_restores(gc_state):
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner pause left the outer one alone
    assert gc.isenabled() == gc_state


def test_gc_paused_restores_on_exception(gc_state):
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("boom")
    assert gc.isenabled() == gc_state


def test_builders_restore_collector_state(gc_state):
    compiled = compile_constraints([REFERENCE], 4, "gte")
    assert gc.isenabled() == gc_state
    Solver(compiled.formula)
    assert gc.isenabled() == gc_state
    parse_dimacs(dimacs_str(compiled.formula))
    assert gc.isenabled() == gc_state


def test_builders_restore_collector_state_when_raising(gc_state, monkeypatch):
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    assert gc.isenabled() == gc_state
    compile_raising(monkeypatch)
    assert gc.isenabled() == gc_state


def test_nested_builders_in_oracle_check(gc_state):
    # oracle_check compiles and then loads a Solver (a pause)
    assert oracle_check(REFERENCE, "gte")
    assert gc.isenabled() == gc_state
    with gc_paused():
        assert oracle_check(REFERENCE, "swc")
        assert not gc.isenabled()
    assert gc.isenabled() == gc_state


def test_builders_leave_no_cycles(gc_state):
    # what the pause leaves uncollected must be freed by reference counting
    instance = gen_bench(pb12like(constraints=6, n=12, seed=1))
    gc.collect()
    gc.disable()
    for encoding in ("gte", "swc", "adder", "auto"):
        formula = compile_instance(instance, encoding).formula
        assert gc.collect() == 0, encoding
        Solver(formula)
        assert gc.collect() == 0, encoding
        parse_dimacs(dimacs_str(formula))
        assert gc.collect() == 0, encoding


def collections_during(build):
    """Generations of the automatic collections run while `build()` runs with
    the collector enabled."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        build()
    finally:
        gc.callbacks.remove(hook)
        if not was:
            gc.disable()
    return starts


def test_no_collection_while_loading_or_parsing(monkeypatch):
    instance = gen_bench(pedigreelike(n=30, seed=3))
    formula = compile_instance(instance, "gte").formula
    text = dimacs_str(formula)
    assert formula.num_clauses > 4000  # several times the young-generation threshold

    def compile_():
        compile_instance(instance, "gte")

    def load():
        Solver(formula)

    def parse():
        parse_dimacs(text)

    def load_vars():
        Solver(CnfFormula(num_vars=5000))

    # The compile and the parse append codes to one flat list and run with
    # the collector on, yet hardly set it off.
    assert len(collections_during(compile_)) <= 1
    assert len(collections_during(parse)) <= 1
    # Nothing is collected while the loader builds its per-variable lists.
    # Re-enabling leaves them all in the young generation, so the first
    # allocation after the pause (inside `gc_paused`'s own exit) runs one
    # collection over them.
    assert len(collections_during(load)) <= 1
    assert len(collections_during(load_vars)) <= 1
    # without the pause a load of many variables (a watch list and a heap
    # entry each) collects over and over; the load's clauses go into one
    # literal list, which needs no pause
    monkeypatch.setattr(engine, "gc_paused", contextlib.nullcontext)
    assert len(collections_during(load)) <= 1
    assert len(collections_during(load_vars)) >= 5

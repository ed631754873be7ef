"""Spans for the traced run.

A span is one public pbcnf call made during a traced pass: its name, a tag
(the encoder, where there is one), start, end, the index of the enclosing
span and the job id.  Spans stay in memory and are written out when the run
ends.  A layer's self time is the duration of its spans minus the time their
child spans cover.

The benchmark's own calls go through `Tracer.call`.  Calls that pbcnf makes
inside `oracle_check` and `gac_check` (compile, solver load, solve with
assumptions, propagation) are reached by wrapping those public functions for
the duration of a traced pass; `patched` restores them afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.job = ""
        # (key, constraints, encoding, seconds, formula) of every compile in
        # the pass, for the normalize / build_tree probes that follow it; the
        # formula is kept for the first compile of each key only
        self.compiles: list[tuple] = []
        self._compiled_keys: set = set()
        self.solves: list[tuple[bool, int, int]] = []  # (with assumptions, learned, learned literals)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, tag: str, start: float) -> float:
        end = perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, tag, start, end, parent, self.job)
        return end - start

    def call(self, name: str, fn, *args, tag: str = ""):
        idx = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, name, tag, start)

    def compile(self, name: str, fn, constraints, *args, encoding: str):
        """A traced compile call, remembered for the probes."""
        idx = self._open()
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            seconds = self._close(idx, name, encoding, start)
        key = (self.job, encoding)
        formula = None if key in self._compiled_keys else result.formula
        self._compiled_keys.add(key)
        self.compiles.append((key, constraints, encoding, seconds, formula))
        return result

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, tag, start, end, parent, job in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, tag, start, end, parent, job), child in zip(spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)


@contextmanager
def patched(tracer: Tracer):
    """Wrap the engine and the compile step that `verify` calls, so that
    the calls pbcnf makes internally get spans too."""
    from pbcnf import engine, verify

    Solver = engine.Solver
    orig_init = Solver.__init__
    orig_solve = Solver.solve
    orig_propagate = Solver.assume_propagate
    orig_compile = verify.compile_constraints

    def init(self, formula):
        tracer.call("engine.load", orig_init, self, formula)

    def solve(self, assumptions=(), max_conflicts=None):
        before = len(self.clauses)
        name = "engine.assume" if assumptions else "engine.search"
        result = tracer.call(name, orig_solve, self, assumptions, max_conflicts)
        learned = self.clauses[before:]
        tracer.solves.append((bool(assumptions), len(learned), sum(len(c) for c in learned)))
        return result

    def assume_propagate(self, asserted=()):
        return tracer.call("engine.propagate", orig_propagate, self, asserted)

    def compile_constraints(constraints, num_input_vars, encoding):
        return tracer.compile(
            "pipeline.compile", orig_compile, constraints, constraints, num_input_vars, encoding,
            encoding=encoding,
        )

    Solver.__init__ = init
    Solver.solve = solve
    Solver.assume_propagate = assume_propagate
    verify.compile_constraints = compile_constraints
    try:
        yield
    finally:
        Solver.__init__ = orig_init
        Solver.solve = orig_solve
        Solver.assume_propagate = orig_propagate
        verify.compile_constraints = orig_compile


def write_spans(path, passes: list[tuple[int, "Tracer"]]) -> None:
    """One tab-separated line per span: pass, index, name, tag, start, end,
    parent index, job.  Times are seconds from the first span of the pass."""
    with open(path, "w") as f:
        f.write("pass\tspan\tname\ttag\tstart_s\tend_s\tparent\tjob\n")
        for pass_no, tracer in passes:
            if not tracer.spans:
                continue
            t0 = min(s[2] for s in tracer.spans)
            for i, (name, tag, start, end, parent, job) in enumerate(tracer.spans):
                f.write(f"{pass_no}\t{i}\t{name}\t{tag}\t{start - t0:.6f}\t{end - t0:.6f}\t{parent}\t{job}\n")

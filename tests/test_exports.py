"""What `perfbench/` reads of pbcnf resolves, and pbcnf exports no name
that nothing besides its own module reads."""

import ast
import importlib
import re
from pathlib import Path

from pbcnf import LE, PBConstraint, build_tree, engine, verify

ROOT = Path(__file__).resolve().parents[1]
# result and exception types that callers receive or catch without naming
# them in code
RECEIVED = {
    "DimacsError", "OpbError", "SolveResult", "PropagationResult",
    "NormalizationOutcome", "OracleOutcome", "GacReport",
}


def test_bench_surface_resolves_and_every_export_has_a_reader():
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pbcnf":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
    # what perfbench/tracing.py wraps for a traced pass
    for owner, name in ((engine.Solver, "__init__"), (engine.Solver, "solve"),
                        (engine.Solver, "assume_propagate"), (verify, "compile_constraints")):
        assert callable(getattr(owner, name)), name
    tree = build_tree(PBConstraint.from_signed([(2, 1), (3, 2)], LE, 4))
    assert tree.bound == 4 and tree.root.sums == [2, 3, 5]
    assert all(child.is_leaf for child in tree.root.children)

    src = ROOT / "src" / "pbcnf"
    exported = {
        alias.asname or alias.name: node.module
        for node in ast.parse((src / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    texts = {p: p.read_text() for p in [*src.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]}
    unread = [
        name for name, module in exported.items()
        if name not in RECEIVED and not any(
            re.search(rf"\b{name}\b", text)
            for p, text in texts.items()
            if p not in (src / "__init__.py", src / f"{module}.py")
        )
    ]
    assert not unread

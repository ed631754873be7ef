"""What `perfbench/` reads of pbcnf resolves, pbcnf exports no name
that nothing besides its own module reads, and README lists exactly the
exported names."""

import ast
import importlib
import re
from pathlib import Path

from pbcnf import LE, PBConstraint, build_tree, engine, verify

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pbcnf"
# result and exception types that callers receive or catch without naming
# them in code
RECEIVED = {
    "DimacsError", "OpbError", "SolveResult",
    "NormalizationOutcome", "OracleOutcome", "GacReport",
}


def exports():
    """Each name `pbcnf/__init__.py` imports, mapped to the module it comes from."""
    return {
        alias.asname or alias.name: node.module
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
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

    exported = exports()
    texts = {p: p.read_text() for p in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]}
    unread = [
        name for name, module in exported.items()
        if name not in RECEIVED and not any(
            re.search(rf"\b{name}\b", text)
            for p, text in texts.items()
            if p not in (SRC / "__init__.py", SRC / f"{module}.py")
        )
    ]
    assert not unread


def test_readme_lists_exactly_the_exports():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("What `from pbcnf import ...` offers:", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed)), sorted(n for n in listed if listed.count(n) > 1)
    assert set(listed) == set(exports())

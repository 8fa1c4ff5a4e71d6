"""Every name a library, test or demo module imports is used in that module."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for sub in ("src/totalcolor", "tests", "demos") for path in (ROOT / sub).glob("*.py")
)

# no module in src/ calls add_edge any more, but the benchmark's tracer
# rebinds coloring.add_edge, so the name must stay importable from coloring
KEPT = {("coloring.py", "add_edge")}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(w, a)\n"
    assert unused_imports(source) == [(1, "os"), (3, "z")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(MODULES) > 25
    assert any(path.parent.name == "demos" for path in MODULES)
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
        if (path.name, name) not in KEPT
    ]
    assert found == []

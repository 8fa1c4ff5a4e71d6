"""AST checks over the library, test, bench and demo modules: every
imported name is used, every definition is named somewhere, only
graphs.py constructs a SimpleGraph, and only embedding.py writes into a
drawing.  An attribute that the benchmark's tracer rebinds counts as
named and as used."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for sub in ("src/totalcolor", "tests", "demos") for path in (ROOT / sub).glob("*.py")
)


def traced_attributes(source: str) -> set:
    """(owner, attribute) of every TRACE_TARGETS entry, read from the
    benchmark's source without importing it; the owner is the module or
    class expression the tracer rebinds the attribute on."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TRACE_TARGETS" for t in node.targets
        ):
            return {(ast.unparse(row.elts[0]), row.elts[1].value) for row in node.value.elts}
    return set()


TRACED = traced_attributes((ROOT / "bench/workloads.py").read_text())


def test_traced_attributes_are_found():
    source = (
        "X = [(a, 'no')]\nTRACE_TARGETS = [\n    (coloring, 'add_edge', 'graphs.edit', None),\n"
        "    (embedding.EmbeddedGraph, 'faces', 'embedding.faces', None),\n]\n"
    )
    assert traced_attributes(source) == {
        ("coloring", "add_edge"),
        ("embedding.EmbeddedGraph", "faces"),
    }
    # no module in src/ calls add_edge any more, but the tracer rebinds
    # coloring.add_edge, so coloring must keep importing it
    assert ("coloring", "add_edge") in TRACED


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
        if (path.stem, name) not in TRACED
    ]
    assert found == []


# functions, classes and methods that no library, bench or demo module
# names, each kept because the acceptance tests read it
READ_BY_ACCEPTANCE_TESTS = {
    "all_configs": "criteria 3 and 4 run every golden configuration",
    "semi_fans": "criterion 9 groups a sender's transfers into semi-fans",
    "SemiFan.average": "criterion 9 checks the 2/5 average per corner",
}
NAMING_DIRS = ("src/totalcolor", "bench", "demos")


def definitions(source: str) -> list:
    """(qualified name, name) of every function, class and method, nested
    ones included, dunders excluded; a nested definition is qualified by
    the ones around it, as in SemiFan.average."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                qualified = prefix + name
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((qualified, name))
                walk(child, qualified + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return out


def named(source: str) -> set:
    """Every name the source reads as a Name, an Attribute or an import alias."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def test_definitions_and_names_are_found():
    source = "class A:\n    def m(self):\n        def inner(): pass\n    def __len__(self): pass\ndef f(): A().m\n"
    assert definitions(source) == [("A", "A"), ("A.m", "m"), ("A.m.inner", "inner"), ("f", "f")]
    assert named(source) == {"A", "m"}
    assert named("import a.b as c\nfrom x import y\n") == {"c", "y"}


def test_every_definition_is_named_somewhere():
    used = {attr for _, attr in TRACED}
    for sub in NAMING_DIRS:
        for path in (ROOT / sub).glob("*.py"):
            used |= named(path.read_text())
    dead = [
        f"{path.name} {qualified}"
        for path in MODULES
        if path.parent.name == "totalcolor"
        for qualified, name in definitions(path.read_text())
        if name not in used and qualified not in READ_BY_ACCEPTANCE_TESTS
    ]
    assert dead == []
    # an allowlist entry that the library starts naming is no longer needed
    assert not {q.rsplit(".", 1)[-1] for q in READ_BY_ACCEPTANCE_TESTS} & used


def calls_to(source: str, name: str) -> list:
    """Line of every call to `name`, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_calls_are_found():
    source = "g = SimpleGraph({})\nh = graphs.SimpleGraph(adj)\nSimpleGraph\nf(SimpleGraph)\n"
    assert calls_to(source, "SimpleGraph") == [1, 2]


# traced attributes of library modules that no library, bench or demo
# module calls, each kept only because the benchmark's tracer binds it;
# ROADMAP item 5(c) deletes each once the benchmark stops tracing it
KEPT_BY_THE_TRACER = {
    ("coloring", "add_edge"): "coloring imports graphs.add_edge only for the tracer to bind",
    ("reduce", "find_reducible_edge"): "coloring._peel took over its P1 scan in solve_tcc",
    ("reduce", "find_p3_edge"): "coloring._peel took over its P3 scan in solve_tcc",
}


def test_only_the_tracer_keeps_these_attributes():
    library = {path.stem for path in (ROOT / "src/totalcolor").glob("*.py")}
    sources = [path.read_text() for sub in NAMING_DIRS for path in (ROOT / sub).glob("*.py")]
    uncalled = {
        (owner, attr)
        for owner, attr in TRACED
        if owner in library and not any(calls_to(source, attr) for source in sources)
    }
    assert uncalled == set(KEPT_BY_THE_TRACER)


def test_only_graphs_py_constructs_a_simple_graph():
    # SimpleGraph stores its dict as given, so its sorted rows hold only
    # while build_graph and the edits in graphs.py make every graph
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for sub in NAMING_DIRS
        for path in sorted((ROOT / sub).glob("*.py"))
        if path.name != "graphs.py"
        for line in calls_to(path.read_text(), "SimpleGraph")
    ]
    assert found == []
    assert calls_to((ROOT / "src/totalcolor/graphs.py").read_text(), "SimpleGraph")


DRAWING_FIELDS = {"segment_origin", "rotation", "twin", "owner", "vertex_kind"}
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear"}


def drawing_edits(source: str) -> list:
    """Line of every store, deletion or dict-mutating call into one of
    DRAWING_FIELDS, whole or by item, on any object."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            target = node
            while isinstance(target, ast.Subscript):
                target = target.value
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Attribute) and target.attr in DRAWING_FIELDS:
            out.append(node.lineno)
    return sorted(out)


def test_drawing_edits_are_found():
    source = (
        "e.segment_origin[k] = None\n"
        "e.rotation = {}\n"
        "del e.twin[d]\n"
        "e.owner.update(x)\n"
        "a.b, e.vertex_kind[v] = 1, 2\n"
        "x[e.owner[d]] = 1\n"
        "e.rotation.get(v)\n"
        "y = e.twin[d]\n"
    )
    assert drawing_edits(source) == [1, 2, 3, 4, 5]


def test_only_embedding_py_writes_into_a_drawing():
    # an EmbeddedGraph validates its fields once, in its constructor, and
    # caches what it derives from them, so nothing else may edit them
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for sub in NAMING_DIRS
        for path in sorted((ROOT / sub).glob("*.py"))
        if path.name != "embedding.py"
        for line in drawing_edits(path.read_text())
    ]
    assert found == []


# private names that one library module imports from another, keyed by
# (importer, source module, name), each with the reason it crosses over;
# the set may shrink but not grow
PRIVATE_IMPORTS = {
    ("discharge", "ruletable", "_class_matches"): "the rule table groups rules by receiver class",
    ("reduce", "coloring", "_is_proper"): "an extension check tests properness without a listing",
    ("reduce", "coloring", "_search"): "the extension harness enumerates colorings with it",
}


def private_imports(source: str) -> set:
    """(source module, name) of every `from .x import _y` in the source."""
    return {
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_private_imports_are_found():
    source = "from .a import _b, c\nfrom . import _d\nfrom x import _e\nfrom .f import g as _h\n"
    assert private_imports(source) == {("a", "_b"), (None, "_d")}


def test_library_modules_import_only_the_listed_private_names():
    found = {
        (path.stem, module, name)
        for path in (ROOT / "src/totalcolor").glob("*.py")
        for module, name in private_imports(path.read_text())
    }
    assert found == set(PRIVATE_IMPORTS)

"""Every function and method in polyred is reachable by name from a root.

A stand-in for a dead-code finder that needs nothing beyond `ast`.  The
roots are `cli.main`, the functions perfbench's tracer wraps by name
(read from the TARGETS list in perfbench/tracing.py, which is parsed,
not imported), and the code each module runs when it is imported: its
`__all__`, so `polyred.__all__` too, its class bodies, and the
decorators and default values of its functions.  A function is reached
when a reached body names it: as a variable, as an attribute
(`x.name`), or as a string that is exactly its name.  Importing a name
does not reach it.  Dunder methods run by syntax, so they are roots.

Names are matched across modules and classes, so the check
over-approximates what is live: it can miss dead code, but it never
flags live code.  A function that only the tests call belongs in tests/.

The same walk checks tests/oracles.py: every oracle is reached from the
names the test modules (tests/test_*.py) and the golden scripts
(tests/golden/make_*.py) read, so a slow route no test compares against
is deleted rather than kept.

A second check, also `ast` only, finds imports a module never reads, as
pyflakes' F401 would: a name counts as read when the module names it as
a variable, inside a string annotation, or in its `__all__`, and an
import marked `# noqa: F401` is exempt.
"""

import ast
import glob
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src", "polyred")
TRACING = os.path.join(HERE, os.pardir, "perfbench", "tracing.py")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(nodes) -> set:
    """Every name the nodes read: variables, attributes and identifier strings."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and n.value.isidentifier()):
                out.add(n.value)
    return out


def _import_time(node):
    """The nodes under `node` that run on import: everything outside
    function bodies, with each function's decorators and arguments."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            yield from child.decorator_list
            yield child.args
        elif isinstance(child, ast.ClassDef):
            yield from _import_time(child)
        elif not isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child


def _defs(node, prefix: str):
    """(qualified name, def node) for every function under node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        label = prefix
        if isinstance(child, (*_DEFS, ast.ClassDef)):
            label = f"{prefix}.{child.name}"
            if isinstance(child, _DEFS):
                yield label, child
        yield from _defs(child, label)


def unreachable(sources: dict, roots: set) -> list:
    """Qualified names of the functions in {module: source} that neither
    the roots nor any module's import-time code reach by name."""
    defs = []
    reached = set(roots)
    for module, source in sources.items():
        tree = ast.parse(source)
        defs.extend(_defs(tree, module))
        reached |= _names(_import_time(tree))
    by_name: dict = {}
    for _, node in defs:
        by_name.setdefault(node.name, []).append(node)
    reached |= {n for n in by_name if n.startswith("__") and n.endswith("__")}
    todo = list(reached)
    while todo:
        new = _names(by_name.get(todo.pop(), ())) - reached
        reached |= new
        todo.extend(new)
    return sorted(label for label, node in defs if node.name not in reached)


def tracer_targets(source: str) -> set:
    """The attribute names in the TARGETS list of perfbench/tracing.py."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
            return {entry.elts[2].value for entry in node.value.elts}
    raise AssertionError("tracing.py defines no TARGETS list")


def _annotations(node):
    """The annotation nodes directly on node."""
    if isinstance(node, ast.arg) or isinstance(node, ast.AnnAssign):
        yield node.annotation
    elif isinstance(node, _DEFS):
        yield node.returns


def unused_imports(source: str) -> list:
    """'name (line n)' for each name the module imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in _annotations(node):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names([ast.parse(ann.value, mode="eval")])
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                if alias.name != "*" and not any("# noqa: F401" in ln for ln in marked):
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _polyred_sources() -> dict:
    sources = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            sources["polyred" if stem == "__init__" else f"polyred.{stem}"] = fh.read()
    return sources


def test_checker_flags_an_unreached_function():
    sources = {
        "a": ("__all__ = ['f']\n\n"
              "def f():\n    return g() + C().m()\n\n"
              "def g():\n    return 1\n\n"
              "def h():\n    return 2\n\n"
              "def k():\n    return 3\n\n"
              "class C:\n"
              "    def __init__(self):\n        self.x = helper()\n\n"
              "    def m(self):\n        return 0\n\n"
              "    def unused(self):\n        return 0\n\n"
              "def helper():\n    return 4\n"),
        "b": "from a import h\nTABLE = {'k': None}\n",
    }
    assert unreachable(sources, set()) == ["a.C.unused", "a.h"]
    assert unreachable(sources, {"h", "unused"}) == []


def test_every_polyred_function_is_reachable():
    sources = _polyred_sources()
    with open(TRACING, encoding="utf-8") as fh:
        targets = tracer_targets(fh.read())
    assert {"resultant", "main", "substitute"} <= targets
    assert unreachable(sources, {"main"} | targets) == []


def test_every_oracle_is_used():
    callers = set()
    for pattern in ("test_*.py", os.path.join("golden", "make_*.py")):
        for path in glob.glob(os.path.join(HERE, pattern)):
            with open(path, encoding="utf-8") as fh:
                callers |= _names([ast.parse(fh.read())])
    with open(os.path.join(HERE, "oracles.py"), encoding="utf-8") as fh:
        oracles = {"oracles": fh.read()}
    assert unreachable(oracles, callers) == []


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import json  # noqa: F401\n"
              "from a import (b,\n"
              "               c)\n"
              "from d import e as f, g\n"
              "__all__ = ['g']\n\n"
              "def h(x: 'f') -> int:\n"
              "    return os.sep + c\n")
    assert unused_imports(source) == ["b (line 4)", "sys (line 2)"]


def test_no_polyred_module_has_an_unused_import():
    unused = {module: names for module, source in _polyred_sources().items()
              if (names := unused_imports(source))}
    assert unused == {}

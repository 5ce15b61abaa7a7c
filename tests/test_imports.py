"""Every name a polyred module imports is used in that module.

A stand-in for pyflakes' F401 check that needs nothing beyond `ast`.
A name counts as used when it is read anywhere in the module, named in
a string annotation, or listed in `__all__`.  An import line marked
`# noqa: F401` is exempt: `attrs.py` keeps `resultant` importable as
`polyred.attrs.resultant` for perfbench's tracer without calling it.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src", "polyred")


def unused_imports(source: str) -> list:
    """(line, name) for each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if ("# noqa: F401" in lines[node.lineno - 1]
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations ("Poly") and __all__ entries
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_an_unused_import():
    src = ("import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n"
           "__all__ = ['loads']\n\ndef f() -> 'os.PathLike':\n    return 1\n")
    assert unused_imports(src) == [(3, "dumps")]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_module_has_no_unused_import(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []

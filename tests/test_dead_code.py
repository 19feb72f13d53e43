"""Every function, method and class of the package is used somewhere.

A name defined in ``src/okubo`` that appears nowhere else in ``src``,
``tests`` or ``perfbench`` (as a name, an attribute, an import or a word in a
string other than a docstring) is code that nothing runs or checks.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "okubo"
SEARCHED = ("src", "tests", "perfbench")


def _docstrings(tree):
    """The ids of the docstring nodes of a module, its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _uses(tree):
    """Identifier uses in a syntax tree; definitions are not uses."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            yield from re.findall(r"[A-Za-z_]\w*", node.value)


def _definitions():
    """(name, file) for every function, method and class of the package,
    dunders excepted."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, path.name


def test_every_definition_is_used():
    uses = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            uses.update(_uses(ast.parse(path.read_text())))
    unused = sorted(f"{file}: {name}" for name, file in _definitions() if not uses[name])
    assert not unused, "defined but never used: " + ", ".join(unused)

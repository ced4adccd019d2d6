"""No dead code in the library: every function, class and method defined in
``src/lietrip`` is named somewhere outside its own definition.

A name counts when it appears as a variable, an attribute, an imported
name, or a string constant (whole, or as one part of a dotted string such
as ``"Matrix.matmul"``) in any Python file of ``src``, ``tests``, ``demos``
or ``perfbench``.  Dunder methods are called by Python itself and are
exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "perfbench")


def _mentions(node):
    """The names a node mentions, by the rules of the module docstring."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return (node.name,)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if all(part.isidentifier() for part in parts):
            return tuple(parts)
    return ()


def _references():
    """name -> list of (path, line) where it is mentioned."""
    refs = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                for name in _mentions(node):
                    refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _definitions():
    """(path, name, first line, last line) of every non-dunder function,
    class and method of the library."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted((ROOT / "src" / "lietrip").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, kinds) and not (node.name.startswith("__")
                                                and node.name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno


def test_every_library_definition_is_used():
    refs = _references()
    unused = sorted(
        f"{path.stem}.{name}" for path, name, first, last in _definitions()
        if not any(where != path or not first <= line <= last
                   for where, line in refs.get(name, ())))
    assert unused == []

"""No dead code in the library: every function, class and method defined in
``src/lietrip`` is named somewhere outside its own definition, and every
field of a ``Record`` class is read as an attribute somewhere.

A name counts when it appears as a variable, an attribute, an imported
name, or a string constant (whole, or as one part of a dotted string such
as ``"Matrix.matmul"``) in any Python file of ``src``, ``tests``, ``demos``
or ``perfbench``.  Dunder methods are called by Python itself and are
exempt.  A field counts only when some file of those directories reads
``x.field``; the generic ``getattr`` over ``_fields`` in the record tests
does not count.  A method that is not a property counts only when some file
calls it, ``x.name(...)``, or names it in a dotted string, ``"Class.name"``:
a mere attribute or variable of the same name, such as ``exc.value``, does
not.
"""

import ast
from pathlib import Path

import lietrip  # noqa: F401  (defines every Record class)
from lietrip.exactlin import Record

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


def _trees():
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references():
    """name -> list of (path, line) where it is mentioned."""
    refs = {}
    for path, tree in _trees():
        for node in ast.walk(tree):
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


def _record_fields():
    """(path, class, field) for every annotated field of a Record class."""
    for path in sorted((ROOT / "src" / "lietrip").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield path, node.name, item.target.id


def test_every_record_field_is_read():
    read = {node.attr for _, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = list(_record_fields())
    assert {cls for _, cls, _ in fields} == {cls.__name__ for cls in Record.__subclasses__()}
    unread = sorted(f"{path.stem}.{cls}.{name}" for path, cls, name in fields if name not in read)
    assert unread == []


def _methods():
    """(path, class, name, first line, last line) of every non-dunder method
    of a library class that is not a property."""
    for path in sorted((ROOT / "src" / "lietrip").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and not any(isinstance(d, ast.Name) and d.id == "property"
                                    for d in item.decorator_list)):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    yield path, node.name, item.name, first, item.end_lineno


def _method_uses():
    """name -> list of (path, line) where it is called as x.name(...) or
    named after a dot in a dotted string."""
    uses = {}
    for path, tree in _trees():
        for node in ast.walk(tree):
            names = ()
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names = (node.func.attr,)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if len(parts) > 1 and all(part.isidentifier() for part in parts):
                    names = parts[1:]
            for name in names:
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def test_every_library_method_is_called():
    uses = _method_uses()
    uncalled = sorted(
        f"{path.stem}.{cls}.{name}" for path, cls, name, first, last in _methods()
        if not any(where != path or not first <= line <= last
                   for where, line in uses.get(name, ())))
    assert uncalled == []

"""No dead code in the library: every function, class and method defined in
``src/lietrip`` is named by code that runs, outside its own definition, and
every field of a ``Record`` class is read as an attribute somewhere.

The code that runs is every Python file of ``src``, ``demos`` and
``perfbench``, and the python block that opens the Library section of
``README.md``, which ``test_the_readme_library_block_runs_as_written``
executes.  No other text of the README counts: not its prose, not its
backtick spans and not its other fenced blocks.  The tests do not count: a
definition that only a test calls is dead.  Neither do the strings of the
``_HOMES`` registry in ``src/lietrip/__init__.py``, which lists every
public name.

A name counts when it appears as a variable, an attribute, an imported
name, or a string constant (whole, or as one part of a dotted string such
as ``"Matrix.matmul"``).  An attribute ``x.name``, called or not, does not
count when its receiver ``x`` is a name that an ``import`` statement of the
same file binds to a module outside ``lietrip``, such as ``json.dumps`` or
perfbench's ``gen.sl2_double_swap``: it names the other module's
definition.  Dunder methods are called by Python itself and are exempt.  A
method that is not a property counts only when it is called,
``x.name(...)``, or named in a dotted string, ``"Class.name"``: a mere
attribute or variable of the same name, such as ``exc.value``, does not,
and neither does a call on a module outside ``lietrip``.  Calls on any
other receiver, a local variable such as a set's ``add`` among them, are
matched by the method's name alone, except for a classmethod: it counts
only when it is called or named through its class, ``Subspace.span(...)``
or ``"Subspace.span"``.  A property counts only when it is read as an
attribute that is not called, ``x.action``: neither a call of the same
name, such as ``d.values()``, nor a variable or a parameter of the same
name counts.  A field counts when code that runs or a test reads
``x.field``, unless ``x`` is a name that an ``import`` statement binds to a
module, ``lietrip`` included: ``lietrip.lts`` reads no field ``lts``.  The
generic ``getattr`` over ``_fields`` in the record tests does not count.
"""

import ast
import re
from pathlib import Path

# with the modules they import, these define every Record class
import lietrip.cohom  # noqa: F401
import lietrip.embed  # noqa: F401
import lietrip.lts  # noqa: F401
from lietrip.exactlin import Record

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "demos", "perfbench")
README = ROOT / "README.md"


def _modules(tree, outside=True):
    """The names that an import statement of tree binds to a module outside lietrip, or,
    with outside false, to any module."""
    return {alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if not outside or alias.name.partition(".")[0] != "lietrip"}


def _of_module(node, modules):
    """Whether node is an attribute x.name whose receiver x is one of modules."""
    return isinstance(node.value, ast.Name) and node.value.id in modules


def _mentions(node, modules):
    """The names a node mentions, by the rules of the module docstring, in a
    file whose imports bind the names in modules to modules outside lietrip."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return () if _of_module(node, modules) else (node.attr,)
    if isinstance(node, ast.alias):
        return (node.name,)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if all(part.isidentifier() for part in parts):
            return tuple(parts)
    return ()


def _registry(node):
    """Whether node is the assignment of the _HOMES registry in __init__.py."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "_HOMES" for t in node.targets)


def _library_block(text=None):
    """(source, line offset) of the python block that opens the Library section of the
    README, or of text: the one README block that runs."""
    text = README.read_text(encoding="utf-8") if text is None else text
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    return block.group(1), text.count("\n", 0, block.start(1))


def _readme_tree(text=None):
    """The README's library block, or text's, parsed, with the line numbers of the file."""
    source, offset = _library_block(text)
    return ast.increment_lineno(ast.parse(source), offset)


def _trees(tops=SEARCHED):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            tree.body = [node for node in tree.body if not _registry(node)]
            yield path, tree
    yield README, _readme_tree()


def _references():
    """name -> list of (path, line) where it is mentioned."""
    refs = {}
    for path, tree in _trees():
        modules = _modules(tree)
        for node in ast.walk(tree):
            for name in _mentions(node, modules):
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_the_readme_library_block_runs_as_written():
    """Each expression in the block has the value its comment states: 0, 0 and True."""
    source, _ = _library_block()
    lines, scope, stated = source.splitlines(), {}, []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
            continue
        comment = lines[node.end_lineno - 1].partition("#")[2]
        want = ast.literal_eval(re.match(r"\s*(\w+)", comment).group(1))
        got = eval(compile(ast.Expression(node.value), "README", "eval"), scope)
        assert type(got) is type(want) and got == want, (ast.unparse(node), got, want)
        stated.append(want)
    assert stated == [0, 0, True], stated


def test_only_the_library_block_of_the_readme_counts():
    text = ("# demo\n\n"
            "The prose names `in_prose(x).spanned`.\n\n"
            "```sh\n"
            "python -c 'in_sh_block()'\n"
            "```\n\n"
            "## Library\n\n"
            "```python\n"
            "from lietrip import in_library\n"
            "in_library(T).called()  # in_comment\n"
            "```\n")
    tree = _readme_tree(text)
    names = {name for node in ast.walk(tree) for name in _mentions(node, set())}
    assert names == {"in_library", "T", "called"}
    assert sorted(_method_mentions(tree)) == [("called", 13, None)]


def test_tests_and_the_registry_are_not_searched():
    searched = [path for path, _ in _trees()]
    assert searched and not any((ROOT / "tests") in path.parents for path in searched)
    init = ROOT / "src" / "lietrip" / "__init__.py"
    assert sum(map(_registry, ast.parse(init.read_text(encoding="utf-8")).body)) == 1
    assert not any(map(_registry, dict(_trees())[init].body))


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


def _field_reads(tree):
    """The names x.name that tree reads, but where x is a name an import statement binds to a module."""
    modules = _modules(tree, outside=False)
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and not _of_module(node, modules)}


def test_an_attribute_of_an_imported_module_is_not_a_field_read():
    tree = ast.parse("import lietrip.lts, json as j\n"
                     "from lietrip import embed\n"
                     "lietrip.lts.abl; j.span; embed.ste; x.lam; y.pair = 1\n")
    assert _field_reads(tree) == {"abl", "ste", "lam"}


def test_every_record_field_is_read():
    read = set().union(*(_field_reads(tree) for _, tree in _trees(SEARCHED + ("tests",))))
    fields = list(_record_fields())
    assert {cls for _, cls, _ in fields} == {cls.__name__ for cls in Record.__subclasses__()}
    unread = sorted(f"{path.stem}.{cls}.{name}" for path, cls, name in fields if name not in read)
    assert unread == []


def _methods(kind="method"):
    """(path, class, name, first line, last line) of every non-dunder method of a
    library class of the kind given: "property", "classmethod", or "method" for
    any other."""
    for path in sorted((ROOT / "src" / "lietrip").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                        item.name.startswith("__") and item.name.endswith("__")):
                    continue
                decorators = {d.id for d in item.decorator_list if isinstance(d, ast.Name)}
                found = next((k for k in ("property", "classmethod") if k in decorators), "method")
                if found == kind:
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    yield path, node.name, item.name, first, item.end_lineno


def _method_mentions(tree):
    """(name, line, receiver) for each x.name(...) call in a tree whose receiver x
    is not a name that an import statement binds to a module outside lietrip,
    receiver being x when it is a name and None otherwise, and for each part
    after the first of a dotted string, receiver being the part before it."""
    modules = _modules(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if not _of_module(node.func, modules):
                receiver = node.func.value.id if isinstance(node.func.value, ast.Name) else None
                yield node.func.attr, node.lineno, receiver
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and all(part.isidentifier() for part in parts):
                yield from ((part, node.lineno, before) for before, part in zip(parts, parts[1:]))


def test_calls_on_modules_outside_the_library_do_not_count():
    tree = ast.parse("import json\n"
                     "import perf.gen as gen, lietrip.cohom\n"
                     "from . import corpus\n"
                     "json.dumps(x); gen.zeros(2); lietrip.cohom.split(p); corpus.by_name(n)\n"
                     "seen.add(1); Matrix.identity(F, 2); f(x).transpose()\n"
                     "'Matrix.matmul'\n")
    assert sorted(_method_mentions(tree), key=lambda m: m[:2]) == [
        ("add", 5, "seen"), ("by_name", 4, "corpus"), ("identity", 5, "Matrix"),
        ("matmul", 6, "Matrix"), ("split", 4, None), ("transpose", 5, None)]


def test_attributes_of_modules_outside_the_library_do_not_count():
    tree = ast.parse("import gen, lietrip.corpus\n"
                     "from . import corpus\n"
                     "jobs = [gen.sl2_double_swap, corpus.heis, lietrip.corpus.abl, x.attr]\n")
    modules = _modules(tree)
    assert modules == {"gen"}
    assert sorted(name for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  for name in _mentions(node, modules)) == ["abl", "attr", "corpus", "heis"]


def _method_uses():
    """name -> list of (path, line, receiver) where a file mentions it as a method,
    by _method_mentions."""
    uses = {}
    for path, tree in _trees():
        for name, line, receiver in _method_mentions(tree):
            uses.setdefault(name, []).append((path, line, receiver))
    return uses


def test_every_library_method_is_called():
    uses = _method_uses()
    uncalled = sorted(
        f"{path.stem}.{cls}.{name}" for path, cls, name, first, last in _methods()
        if not any(where != path or not first <= line <= last
                   for where, line, _ in uses.get(name, ())))
    assert uncalled == []


def test_every_library_classmethod_is_called_through_its_class():
    uses = _method_uses()
    uncalled = sorted(
        f"{path.stem}.{cls}.{name}" for path, cls, name, first, last in _methods("classmethod")
        if not any(receiver == cls and (where != path or not first <= line <= last)
                   for where, line, receiver in uses.get(name, ())))
    assert uncalled == []


def _property_reads(tree):
    """(name, line) for each attribute x.name in a tree that is not the function
    of a call and whose receiver x is not a name that an import statement binds
    to a module outside lietrip."""
    modules = _modules(tree)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and id(node) not in called
                and not _of_module(node, modules)):
            yield node.attr, node.lineno


def test_a_call_is_not_a_property_read():
    tree = ast.parse("import json\n"
                     "x.action; f(y.dim); d.values(); m.entries[0]; json.decoder; values\n")
    assert sorted(_property_reads(tree)) == [("action", 2), ("dim", 2), ("entries", 2)]


def test_every_library_property_is_read_as_an_attribute():
    reads = {}
    for path, tree in _trees():
        for name, line in _property_reads(tree):
            reads.setdefault(name, []).append((path, line))
    unread = sorted(
        f"{path.stem}.{cls}.{name}" for path, cls, name, first, last in _methods("property")
        if not any(where != path or not first <= line <= last
                   for where, line in reads.get(name, ())))
    assert unread == []

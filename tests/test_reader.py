"""One reader for dense arrays: every library entry point that takes dense
input, and every payload load, reads it through ``exactlin._as_nonzeros``.

Only a list or a tuple is an array: a string, a dict or an int where an
array belongs is refused with a ValueError, never iterated.  A payload's
entries are read once, each distinct scalar string coerced once, and the
first fault in document order, a node that is not an array or a bad
scalar, is the one named.  A seeded fuzz of payload entries through the
command line ends every run in exit 0, 1 or 2 with at most one line on
stderr, and so does one of payload dims, of entries nested 10,000 levels
deep and of scalars of 5,000 digits: every input is validated, so exit 3,
a library fault, never follows.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from lietrip.cli import main
from lietrip.cohom import Cochain
from lietrip.corpus import ab2, abl, heis, odd2, sl2graded, sl2lts
from lietrip.exactlin import Field, Matrix, QQ, Subspace, nonzeros, solve
from lietrip.grlie import (
    GradedLieAlgebra, GradedModule, adjoint_module, graded_lie, identity_hom, trivial_module,
)
from lietrip.lts import LieTripleSystem, identity_lts_hom, lie_triple_system, lts_of_lie, triple_bracket
from lietrip.serialize import load, save
from test_cli import BAD_SCALARS, _refused, _scalar_payloads, _vector

# a string and a dict whose characters or keys would read as a vector of length 2, and an int
NOT_ARRAYS = ["12", {0: 1, 1: 1}, 5]
E = (1, 0)
ZERO2 = ((0, 0), (0, 0))


def _payload(bad):
    return {"format_version": 1, "kind": "graded_lie", "field": "Q",
            "dims": {"dim0": 0, "dim1": 2}, "entries": bad}


# (entry point, call placing bad where an array belongs): every dense entry point of the
# README's design note, at the top and, for a matrix or a tensor, one level down
ENTRY_POINTS = {
    "nonzeros": lambda bad: nonzeros(QQ, 2, bad),
    "Matrix": lambda bad: Matrix(QQ, 2, 2, bad),
    "Matrix(row)": lambda bad: Matrix(QQ, 2, 2, [E, bad]),
    "Matrix.make": lambda bad: Matrix.make(QQ, bad),
    "Matrix.make(cols)": lambda bad: Matrix.make(QQ, bad, cols=2),
    "Matrix.make(row)": lambda bad: Matrix.make(QQ, [bad, E]),
    "Matrix.from_cols": lambda bad: Matrix.from_cols(QQ, bad),
    "Matrix.from_cols(rows)": lambda bad: Matrix.from_cols(QQ, bad, rows=2),
    "Matrix.from_cols(column)": lambda bad: Matrix.from_cols(QQ, [bad, E]),
    "solve": lambda bad: solve(Matrix.identity(QQ, 2), bad),
    "Subspace.span": lambda bad: Subspace.span(QQ, 2, bad),
    "Subspace.span(vector)": lambda bad: Subspace.span(QQ, 2, [bad]),
    "triple_bracket": lambda bad: triple_bracket(abl(2), E, E, bad),
    "triple_bracket(x)": lambda bad: triple_bracket(abl(2), bad, E, E),
    "triple_bracket(y)": lambda bad: triple_bracket(abl(2), E, bad, E),
    "LieTripleSystem": lambda bad: LieTripleSystem(QQ, 2, bad),
    "LieTripleSystem(vector)": lambda bad: LieTripleSystem(QQ, 2, ((ZERO2, ZERO2), (ZERO2, ((0, 0), bad)))),
    "lie_triple_system": lambda bad: lie_triple_system(QQ, bad),
    "lie_triple_system(vector)": lambda bad: lie_triple_system(QQ, ((ZERO2, ZERO2), (ZERO2, ((0, 0), bad)))),
    "GradedLieAlgebra": lambda bad: GradedLieAlgebra(QQ, 0, 2, bad),
    "GradedLieAlgebra(vector)": lambda bad: GradedLieAlgebra(QQ, 0, 2, [[bad, bad], [bad, bad]]),
    "graded_lie": lambda bad: graded_lie(QQ, 0, 2, bad),
    "graded_lie(vector)": lambda bad: graded_lie(QQ, 0, 2, [[bad, bad], [bad, bad]]),
    "lts_of_lie": lambda bad: lts_of_lie(bad, QQ),
    "lts_of_lie(row)": lambda bad: lts_of_lie([bad, ZERO2], QQ),
    "GradedModule": lambda bad: GradedModule(ab2(), 2, 0, bad),
    "Cochain": lambda bad: Cochain(ab2(), trivial_module(ab2(), 2), 1, bad),
    "Cochain(value)": lambda bad: Cochain(ab2(), trivial_module(ab2(), 2), 1, [(0, 0), bad]),
    "load": lambda bad: load(_payload(bad)),
    "load(vector)": lambda bad: load(_payload([[bad, bad], [bad, bad]])),
}


@pytest.mark.parametrize("bad", NOT_ARRAYS, ids=["str", "dict", "int"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_string_a_dict_or_an_int_is_refused_where_an_array_belongs(name, bad):
    with pytest.raises(ValueError, match=rf"^expected an array, found {type(bad).__name__} "):
        ENTRY_POINTS[name](bad)


# ---------------------------------------------------------------------------
# one coercion per distinct scalar of a payload

F5 = Field(5)


def _kinds():
    """A payload of each kind, with repeated nonzero scalars."""
    H = heis()
    sigma = Cochain(H, trivial_module(H, 2), 2, ((0, 0), (0, 0), ("-1/2", "-1/2")))
    return {"lts": save(sl2lts()), "graded_lie": save(sl2graded(F5)),
            "lts_hom": save(identity_lts_hom(odd2())), "graded_hom": save(identity_hom(heis())),
            "module": save(adjoint_module(sl2graded())), "cochain": save(sigma)}


def _distinct_scalars(payload) -> list:
    """The distinct scalar strings other than "0" of the entries of payload and of each
    payload nested in it, each payload's once."""
    def leaves(node):
        if isinstance(node, list):
            for x in node:
                yield from leaves(x)
        else:
            yield node

    own = sorted({x for x in leaves(payload["entries"]) if x != "0"})
    return own + [x for key in ("source", "target", "algebra", "module") if key in payload
                  for x in _distinct_scalars(payload[key])]


@pytest.mark.parametrize("kind", sorted(_kinds()))
def test_each_distinct_scalar_of_a_payload_is_coerced_once(kind, monkeypatch):
    payload = _kinds()[kind]
    value = load(payload)
    calls, of = [], Field.of

    def spy(self, x):
        calls.append(x)
        return of(self, x)

    monkeypatch.setattr(Field, "of", spy)
    assert load(payload) == value
    expected = _distinct_scalars(payload)
    assert len(expected) > 1
    assert sorted(calls) == sorted(expected)


# ---------------------------------------------------------------------------
# the first fault in document order is named

@pytest.mark.parametrize("tag", sorted(BAD_SCALARS))
def test_a_non_array_is_named_before_a_later_bad_scalar(tag):
    for kind, payload, first, last in _scalar_payloads(Field.from_tag(tag)):
        bad = copy.deepcopy(payload)
        _vector(bad, last)[-1] = "1.5"
        _vector(bad, first[:-1])[first[-1]] = "12"
        assert (kind, _refused(bad)) == (kind, "expected an array, found str '12'")


@pytest.mark.parametrize("tag", sorted(BAD_SCALARS))
def test_a_bad_scalar_is_named_before_a_later_non_array(tag):
    for kind, payload, first, last in _scalar_payloads(Field.from_tag(tag)):
        bad = copy.deepcopy(payload)
        _vector(bad, first)[0] = "1.5"
        _vector(bad, last[:-1])[last[-1]] = {"a": 1}
        assert (kind, _refused(bad)) == (
            kind, "bad scalar '1.5': malformed scalar '1.5' (expected n or n/d)")


def test_a_missing_dims_key_is_named_before_a_bad_scalar():
    """The shape is read from dims before the entries, for every kind."""
    for kind, payload, first, _ in _scalar_payloads(QQ):
        bad = copy.deepcopy(payload)
        _vector(bad, first)[0] = "1.5"
        key = sorted(bad["dims"])[-1]
        del bad["dims"][key]
        assert (kind, _refused(bad)) == (kind, f"malformed {kind} payload: {key!r}")


# ---------------------------------------------------------------------------
# a seeded fuzz of payload entries through the command line

def _fuzz_inputs():
    """(payload, the command line that loads it, with {} for its file) of each kind."""
    H = heis()
    return [(save(odd2()), ["check-lts", "{}"]),
            (save(H), ["check-graded", "{}"]),
            (save(identity_lts_hom(odd2())), ["extend", "{}", "a_of(odd2)"]),
            (save(identity_hom(H)), ["split", "{}"]),
            (save(adjoint_module(H)), ["h2", "heis", "{}"]),
            (save(Cochain(H, trivial_module(H, 2), 2, ((0, 0), (0, 0), (1, 2)))), ["thm-a", "{}"])]


FUZZ_INPUTS = _fuzz_inputs()
WRONG_TYPES = st.one_of(
    st.text(max_size=3), st.integers(-3, 3), st.none(), st.booleans(), st.floats(allow_nan=False),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=2), st.just([]), st.just([[]]))


@st.composite
def _mutated(draw):
    """One payload of FUZZ_INPUTS with its entries mutated at a drawn node: a value of
    another type, an entry of BAD_SCALARS, or a row removed, added or made ragged."""
    payload, argv = draw(st.sampled_from(FUZZ_INPUTS))
    payload = copy.deepcopy(payload)
    parent, key = payload, "entries"
    while isinstance(parent[key], list) and parent[key] and draw(st.booleans()):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    node = parent[key]
    ops = ["type", "scalar"] + (["drop", "extra", "ragged"] if isinstance(node, list) and node else [])
    op = draw(st.sampled_from(ops))
    if op == "type":
        parent[key] = draw(WRONG_TYPES)
    elif op == "scalar":
        parent[key] = draw(st.sampled_from([bad for bad, _ in BAD_SCALARS[payload["field"]]]))
    elif op == "drop":
        del node[draw(st.integers(0, len(node) - 1))]
    elif op == "extra":
        node.append(copy.deepcopy(draw(st.sampled_from(node))))
    else:
        row = draw(st.sampled_from(node))
        if not isinstance(row, list):
            node.append("0")
        elif row and draw(st.booleans()):
            row.pop()
        else:
            row.append("0")
    return payload, argv


@seed(38)
@settings(max_examples=150, deadline=None)
@given(_mutated())
def test_mutated_entries_end_in_an_exit_code_and_one_line(case):
    payload, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if arg == "{}" else arg for arg in argv])
    assert code in (0, 1, 2), (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), lines
    assert code != 2 or lines and lines[0].startswith("error: "), lines


# stand-ins for what json.dumps cannot write: entries nested 10,000 levels deep (the encoder
# recurses) and 5,000-digit integers (over Python's int/str digit limit)
DEEP = "[" * 10_000 + "]" * 10_000
NESTED = ("source", "target", "algebra", "module")


@st.composite
def _reshaped(draw):
    """(the JSON text, argv) of one payload of FUZZ_INPUTS with its dims, or those of a
    payload nested in it, mutated (the dims or one of their keys missing, a key added, a value
    a bool, a float, a string, null, negative or disagreeing with the entries), or a node of
    its entries nested 10,000 levels deep, or a scalar of them 5,000 digits long, as a JSON
    integer or a string."""
    payload, argv = draw(st.sampled_from(FUZZ_INPUTS))
    payload = copy.deepcopy(payload)
    parts = [payload]
    for part in parts:
        parts += [part[key] for key in NESTED if key in part]
    part = draw(st.sampled_from(parts))
    family = draw(st.sampled_from(["dims", "deep", "digits"]))
    if family == "dims":
        dims = part["dims"]
        key = draw(st.sampled_from(sorted(dims)))
        op = draw(st.sampled_from(["no dims", "missing", "extra", "type", "negative", "disagree"]))
        if op == "no dims":
            del part["dims"]
        elif op == "missing":
            del dims[key]
        elif op == "extra":
            dims["extra"] = draw(st.integers(0, 2))
        elif op == "type":
            dims[key] = draw(st.sampled_from([True, False, 1.0, 2.5, "1", None]))
        elif op == "negative":
            dims[key] = -draw(st.integers(1, 3))
        else:
            dims[key] += draw(st.sampled_from([-1, 1, 2]))
        return json.dumps(payload), argv
    # a node of the entries for the deep family, a scalar for the digits family
    parent, key = part, "entries"
    while (isinstance(parent[key], list) and parent[key]
           and (family == "digits" or draw(st.booleans()))):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    if family == "deep":
        stand_in = DEEP
    else:
        number = draw(st.sampled_from(["", "-"])) + draw(st.sampled_from("123456789")) * 5000
        stand_in = number if draw(st.booleans()) else f'"{number}"'
    parent[key] = "@stand-in@"
    return json.dumps(payload).replace('"@stand-in@"', stand_in), argv


@seed(39)
@settings(max_examples=150, deadline=None)
@given(_reshaped())
def test_mutated_dims_depth_and_digits_end_in_an_exit_code_and_one_line(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if arg == "{}" else arg for arg in argv])
    assert code in (0, 1, 2), (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), lines

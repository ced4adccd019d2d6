"""JSON payloads for systems, algebras, homs, modules and cochains.

Scalars are serialized as exact strings ("p/q" over Q, plain residues over
F_p), tensors as dense nested arrays in the global even-first basis order,
formatted from the stored nonzeros.
Hom, module and cochain payloads embed their source/target objects inline
so a single file round-trips to a fully validated value:
load(save(x)) == x structurally.
"""

from __future__ import annotations

from typing import Optional

from .exactlin import Field, Matrix

FORMAT_VERSION = 1


class PayloadError(ValueError):
    pass


def fmt_matrix(m: Matrix) -> list:
    """The dense rows as nested lists of exact scalar strings, formatted from the stored nonzeros."""
    return fmt_terms(m.field, m.cols, m.terms, 1)


def fmt_terms(field: Field, n: int, tensor: tuple, depth: int) -> list:
    """A sparse tensor, depth >= 1 levels above its vectors of length n, as dense nested scalar strings."""
    if depth > 1:
        return [fmt_terms(field, n, t, depth - 1) for t in tensor]
    fmt, zeros, out = field.fmt, ["0"] * n, []
    for vec in tensor:
        out.append(v := zeros.copy())
        for j, x in vec:
            v[j] = fmt(x)
    return out


class _Scalars(dict):
    """The field's scalar of each str and int of one payload, each coerced once; "0" is the
    exact int 0, zero in every field.  A value that fails is not kept."""

    def __init__(self, field: Field):
        super().__init__({"0": 0})
        self.field = field

    def __missing__(self, x):
        self[x] = value = _scalar(self.field, x)
        return value


def _parse(memo: _Scalars, entries, depth: int) -> tuple:
    """Nested lists of scalars, depth levels deep, as nested tuples of the field's scalars."""
    if not isinstance(entries, (list, tuple)):
        raise PayloadError(f"expected an array, found {type(entries).__name__} {entries!r:.40}")
    if depth > 1:
        return tuple([_parse(memo, e, depth - 1) for e in entries])
    # no str equals an int; a bool or a float (True == 1.0 == 1), null, an array or an object is no key
    return tuple([memo[x] if type(x) is str or type(x) is int else _scalar(memo.field, x) for x in entries])


def _scalar(field: Field, x):
    try:
        return field.of(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise PayloadError(f"bad scalar {x!r}: {exc}") from None


def _matrix(field: Field, data: tuple, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix of rows of scalars _parse has read; the first row of another
    length is named before a wrong row count."""
    for row in data:
        if len(row) != cols:
            raise PayloadError(f"expected {cols} columns, found {len(row)}")
    if len(data) != rows:
        raise PayloadError(f"expected {rows} rows, found {len(data)}")
    return Matrix(field, rows, cols, data)


def _load_nested(payload: dict, key: str, cls: str, unchecked: bool):
    """The object embedded under key, which must load as the class named cls."""
    obj = load(payload[key], unchecked=unchecked)
    if type(obj).__name__ != cls:
        raise PayloadError(f"{key} must be a {cls}, found {type(obj).__name__}")
    return obj


def save(obj, name: Optional[str] = None) -> dict:
    """Serialize a supported value to a JSON-ready dict."""
    cls = type(obj).__name__  # by name, so that no module loads for a value of another
    if cls == "LieTripleSystem":
        kind, field, dims = "lts", obj.field, {"dim": obj.dim}
        body = {"entries": fmt_terms(field, obj.dim, obj.terms, 3)}
    elif cls == "GradedLieAlgebra":
        kind, field, dims = "graded_lie", obj.field, {"dim0": obj.dim0, "dim1": obj.dim1}
        body = {"entries": fmt_terms(field, obj.dim, obj.terms, 2)}
    elif cls in ("LtsHom", "GradedHom"):
        source, target, field = obj.source, obj.target, obj.matrix.field
        if cls == "LtsHom":
            kind, dims = "lts_hom", {"source_dim": source.dim, "target_dim": target.dim}
        else:
            kind, dims = "graded_hom", {"source_dim0": source.dim0, "source_dim1": source.dim1,
                                        "target_dim0": target.dim0, "target_dim1": target.dim1}
        body = {"entries": fmt_matrix(obj.matrix), "source": save(source), "target": save(target)}
    elif cls == "GradedModule":
        kind, field, dims = "module", obj.algebra.field, {"dim0": obj.dim0, "dim1": obj.dim1}
        # the columns of each action, transposed into its rows
        body = {"entries": [list(map(list, zip(*fmt_terms(field, obj.dim, a, 1)))) for a in obj.terms],
                "algebra": save(obj.algebra)}
    elif cls == "Cochain":
        kind, field, dims = "cochain", obj.algebra.field, {"degree": obj.degree}
        body = {"entries": fmt_terms(field, obj.module.dim, obj.terms, 1),
                "algebra": save(obj.algebra), "module": save(obj.module)}
    else:
        raise TypeError(f"cannot serialize {cls}")

    payload = {"format_version": FORMAT_VERSION, "kind": kind, "field": field.tag}
    if name is not None:
        payload["name"] = name
    payload["dims"] = dims
    payload.update(body)
    return payload


def load(payload: dict, *, unchecked: bool = False):
    """Rebuild a value from a payload; validates invariants unless unchecked."""
    if not isinstance(payload, dict):
        raise PayloadError("payload must be a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise PayloadError(f"unsupported format_version {payload.get('format_version')!r}")
    try:
        field = Field.from_tag(payload["field"])
        kind = payload["kind"]
        dims = payload["dims"]
        entries = payload["entries"]
    except KeyError as exc:
        raise PayloadError(f"missing key {exc.args[0]!r}") from None
    # shape is checked even when unchecked: no constructor may see a bad size
    if not isinstance(dims, dict):
        raise PayloadError("dims must be a JSON object")
    for key, value in dims.items():
        if type(value) is not int or value < 0:
            raise PayloadError(f"dims {key!r} must be a non-negative integer, found {value!r}")

    memo = _Scalars(field)
    try:
        if kind == "lts":
            from .lts import LieTripleSystem
            tensor = _parse(memo, entries, 4)
            if len(tensor) != dims["dim"]:
                raise PayloadError("tensor size disagrees with dim")
            return LieTripleSystem(field, dims["dim"], tensor, unchecked=unchecked)
        if kind == "graded_lie":
            from .grlie import GradedLieAlgebra
            tensor = _parse(memo, entries, 3)
            return GradedLieAlgebra(field, dims["dim0"], dims["dim1"], tensor, unchecked=unchecked)
        if kind == "lts_hom":
            from .lts import LtsHom
            source = _load_nested(payload, "source", "LieTripleSystem", unchecked)
            target = _load_nested(payload, "target", "LieTripleSystem", unchecked)
            matrix = _matrix(field, _parse(memo, entries, 2), dims["target_dim"], dims["source_dim"])
            return LtsHom(source, target, matrix, unchecked=unchecked)
        if kind == "graded_hom":
            from .grlie import GradedHom
            source = _load_nested(payload, "source", "GradedLieAlgebra", unchecked)
            target = _load_nested(payload, "target", "GradedLieAlgebra", unchecked)
            matrix = _matrix(field, _parse(memo, entries, 2), dims["target_dim0"] + dims["target_dim1"],
                             dims["source_dim0"] + dims["source_dim1"])
            return GradedHom(source, target, matrix, unchecked=unchecked)
        if kind == "module":
            from .grlie import GradedModule
            algebra = _load_nested(payload, "algebra", "GradedLieAlgebra", unchecked)
            m = dims["dim0"] + dims["dim1"]
            action = tuple(_matrix(field, a, m, m) for a in _parse(memo, entries, 3))
            return GradedModule(algebra, dims["dim0"], dims["dim1"], action, unchecked=unchecked)
        if kind == "cochain":
            from .cohom import Cochain
            algebra = _load_nested(payload, "algebra", "GradedLieAlgebra", unchecked)
            module = _load_nested(payload, "module", "GradedModule", unchecked)
            f = Cochain(algebra, module, dims["degree"], _parse(memo, entries, 2))
            if not unchecked and not f.is_graded():
                raise PayloadError("cochain is not graded")
            return f
    except PayloadError:
        raise
    except (KeyError, TypeError, IndexError) as exc:
        raise PayloadError(f"malformed {kind} payload: {exc}") from None
    raise PayloadError(f"unknown kind {kind!r}")

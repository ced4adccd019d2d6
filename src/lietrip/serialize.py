"""JSON payloads for systems, algebras, homs, modules and cochains.

Scalars are serialized as exact strings ("p/q" over Q, plain residues over
F_p), tensors as dense nested arrays in the global even-first basis order.
Hom, module and cochain payloads embed their source/target objects inline
so a single file round-trips to a fully validated value:
load(save(x)) == x structurally.
"""

from __future__ import annotations

from typing import Optional

from .cohom import Cochain
from .exactlin import Field, Matrix
from .grlie import GradedHom, GradedLieAlgebra, GradedModule
from .lts import LieTripleSystem, LtsHom

FORMAT_VERSION = 1


class PayloadError(ValueError):
    pass


def fmt_matrix(m: Matrix) -> list:
    """The entries as nested lists of exact scalar strings."""
    return [list(map(m.field.fmt, row)) for row in m.entries]


def _scalar(field: Field, x):
    try:
        return field.of(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise PayloadError(f"bad scalar {x!r}: {exc}") from None


def _parse_matrix(field: Field, entries, rows: Optional[int] = None, cols: Optional[int] = None) -> Matrix:
    m = Matrix.make(field, [[_scalar(field, x) for x in row] for row in entries], cols=cols)
    if rows is not None and m.rows != rows:
        raise PayloadError(f"expected {rows} rows, found {m.rows}")
    if cols is not None and m.cols != cols:
        raise PayloadError(f"expected {cols} columns, found {m.cols}")
    return m


def _load_nested(payload: dict, key: str, cls: type, unchecked: bool):
    """The object embedded under key, which must load as a cls."""
    obj = load(payload[key], unchecked=unchecked)
    if not isinstance(obj, cls):
        raise PayloadError(f"{key} must be a {cls.__name__}, found {type(obj).__name__}")
    return obj


def save(obj, name: Optional[str] = None) -> dict:
    """Serialize a supported value to a JSON-ready dict."""
    if isinstance(obj, LieTripleSystem):
        body = {
            "dims": {"dim": obj.dim},
            "entries": [[[list(map(obj.field.fmt, v)) for v in tij] for tij in ti]
                        for ti in obj.triple],
        }
        kind = "lts"
        field = obj.field
    elif isinstance(obj, GradedLieAlgebra):
        body = {
            "dims": {"dim0": obj.dim0, "dim1": obj.dim1},
            "entries": [[list(map(obj.field.fmt, v)) for v in row] for row in obj.bracket],
        }
        kind = "graded_lie"
        field = obj.field
    elif isinstance(obj, LtsHom):
        body = {
            "dims": {"source_dim": obj.source.dim, "target_dim": obj.target.dim},
            "entries": fmt_matrix(obj.matrix),
            "source": save(obj.source),
            "target": save(obj.target),
        }
        kind = "lts_hom"
        field = obj.matrix.field
    elif isinstance(obj, GradedHom):
        body = {
            "dims": {"source_dim0": obj.source.dim0, "source_dim1": obj.source.dim1,
                     "target_dim0": obj.target.dim0, "target_dim1": obj.target.dim1},
            "entries": fmt_matrix(obj.matrix),
            "source": save(obj.source),
            "target": save(obj.target),
        }
        kind = "graded_hom"
        field = obj.matrix.field
    elif isinstance(obj, GradedModule):
        body = {
            "dims": {"dim0": obj.dim0, "dim1": obj.dim1},
            "entries": [fmt_matrix(a) for a in obj.action],
            "algebra": save(obj.algebra),
        }
        kind = "module"
        field = obj.algebra.field
    elif isinstance(obj, Cochain):
        body = {
            "dims": {"degree": obj.degree},
            "entries": [list(map(obj.algebra.field.fmt, v)) for v in obj.values],
            "algebra": save(obj.algebra),
            "module": save(obj.module),
        }
        kind = "cochain"
        field = obj.algebra.field
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    payload = {"format_version": FORMAT_VERSION, "kind": kind, "field": field.tag}
    if name is not None:
        payload["name"] = name
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

    try:
        if kind == "lts":
            n = dims["dim"]
            tensor = tuple(
                tuple(tuple(tuple(_scalar(field, x) for x in v) for v in tij) for tij in ti)
                for ti in entries)
            if len(tensor) != n:
                raise PayloadError("tensor size disagrees with dim")
            return LieTripleSystem(field, n, tensor, unchecked=unchecked)
        if kind == "graded_lie":
            tensor = tuple(tuple(tuple(_scalar(field, x) for x in v) for v in row) for row in entries)
            return GradedLieAlgebra(field, dims["dim0"], dims["dim1"], tensor, unchecked=unchecked)
        if kind == "lts_hom":
            source = _load_nested(payload, "source", LieTripleSystem, unchecked)
            target = _load_nested(payload, "target", LieTripleSystem, unchecked)
            matrix = _parse_matrix(field, entries, rows=dims["target_dim"], cols=dims["source_dim"])
            return LtsHom(source, target, matrix, unchecked=unchecked)
        if kind == "graded_hom":
            source = _load_nested(payload, "source", GradedLieAlgebra, unchecked)
            target = _load_nested(payload, "target", GradedLieAlgebra, unchecked)
            matrix = _parse_matrix(field, entries,
                                   rows=dims["target_dim0"] + dims["target_dim1"],
                                   cols=dims["source_dim0"] + dims["source_dim1"])
            return GradedHom(source, target, matrix, unchecked=unchecked)
        if kind == "module":
            algebra = _load_nested(payload, "algebra", GradedLieAlgebra, unchecked)
            m = dims["dim0"] + dims["dim1"]
            action = tuple(_parse_matrix(field, a, rows=m, cols=m) for a in entries)
            return GradedModule(algebra, dims["dim0"], dims["dim1"], action, unchecked=unchecked)
        if kind == "cochain":
            algebra = _load_nested(payload, "algebra", GradedLieAlgebra, unchecked)
            module = _load_nested(payload, "module", GradedModule, unchecked)
            values = tuple(tuple(_scalar(field, x) for x in v) for v in entries)
            f = Cochain(algebra, module, dims["degree"], values)
            if not unchecked and not f.is_graded():
                raise PayloadError("cochain is not graded")
            return f
    except PayloadError:
        raise
    except (KeyError, TypeError, IndexError) as exc:
        raise PayloadError(f"malformed {kind} payload: {exc}") from None
    raise PayloadError(f"unknown kind {kind!r}")

"""JSON payloads for systems, algebras, homs, modules and cochains.

Scalars are serialized as exact strings ("p/q" over Q, plain residues over
F_p), tensors as dense nested arrays in the global even-first basis order,
formatted from the stored nonzeros, and read back in one walk by the
library's one reader, exactlin._as_nonzeros, each distinct scalar coerced
once by the payload's memo.
Hom, module and cochain payloads embed their source/target objects inline
so a single file round-trips to a fully validated value:
load(save(x)) == x structurally.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from .exactlin import Field, Matrix, Nonzeros, _as_nonzeros

FORMAT_VERSION = 1
# the longest string scalar load reads, and the most digits of an integer literal the CLI reads:
# a scalar takes time quadratic in its length to read, 0.06 s at this bound
MAX_SCALAR_CHARS = 100_000


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
    """The memo of one payload's scalars and the reader of its entries, exactlin's, with each
    distinct str and int coerced into the field once and kept; a value that fails is not kept."""

    def __init__(self, field: Field):
        self.field = field
        # only a str or an int is looked up: no str equals an int, but a bool or a float may (True == 1.0 == 1)
        self.of = lambda x: self[x] if type(x) is str or type(x) is int else self.__missing__(x)

    def __missing__(self, x):
        if type(x) is str and len(x) > MAX_SCALAR_CHARS:
            raise PayloadError(f"bad scalar: {len(x):,} characters, over the limit of {MAX_SCALAR_CHARS:,}")
        try:
            self[x] = value = self.field.of(x)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PayloadError(f"bad scalar {x!r}: {exc}") from None
        return value

    def read(self, entries, shape: tuple):
        """The Nonzeros of entries, a tensor of the shape; the raw entries on a misfit."""
        try:
            terms = _as_nonzeros(entries, shape, self.of)
        except ValueError as exc:  # a bad scalar, or a node that is not an array
            raise PayloadError(*exc.args) from None
        return entries if terms is None else terms


def _matrices(memo: _Scalars, entries, count: int, rows: int, cols: int) -> tuple:
    """The count rows x cols matrices of entries; on a misfit the first row of another length is
    named before a wrong row count, and a wrong count is left for the record to refuse."""
    terms = memo.read(entries, (count, rows, cols))
    if type(terms) is Nonzeros:
        return tuple(Matrix(memo.field, rows, cols, Nonzeros(a)) for a in terms)
    for matrix in terms:
        for row in matrix:
            if len(row) != cols:
                raise PayloadError(f"expected {cols} columns, found {len(row)}")
        if len(matrix) != rows:
            raise PayloadError(f"expected {rows} rows, found {len(matrix)}")
    return tuple(Matrix(memo.field, rows, cols, a) for a in terms)


def _load_nested(payload: dict, key: str, cls: str):
    """The object embedded under key, validated, which must load as the class named cls."""
    obj = load(payload[key])
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


def load(payload: dict, *, _trusted: bool = False):
    """Rebuild a value from a payload, validated.  The private _trusted, for check-lts and
    check-graded alone, skips the axiom check of a top-level lts or graded_lie payload."""
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
    # shape is checked even when trusted: no constructor may see a bad size
    if not isinstance(dims, dict):
        raise PayloadError("dims must be a JSON object")
    for key, value in dims.items():
        if type(value) is not int or value < 0:
            raise PayloadError(f"dims {key!r} must be a non-negative integer, found {value!r}")

    memo = _Scalars(field)
    try:
        # the entries are read before the record's module loads, so a bad scalar costs no import
        if kind == "lts":
            tensor = memo.read(entries, (dims["dim"],) * 4)
            if len(entries) != dims["dim"]:
                raise PayloadError("tensor size disagrees with dim")
            from .lts import LieTripleSystem
            return LieTripleSystem(field, dims["dim"], tensor, _trusted=_trusted)
        if kind == "graded_lie":
            tensor = memo.read(entries, (dims["dim0"] + dims["dim1"],) * 3)
            from .grlie import GradedLieAlgebra
            return GradedLieAlgebra(field, dims["dim0"], dims["dim1"], tensor, _trusted=_trusted)
        if kind == "lts_hom":
            source = _load_nested(payload, "source", "LieTripleSystem")
            target = _load_nested(payload, "target", "LieTripleSystem")
            matrix = _matrices(memo, [entries], 1, dims["target_dim"], dims["source_dim"])[0]
            from .lts import LtsHom
            return LtsHom(source, target, matrix)
        if kind == "graded_hom":
            source = _load_nested(payload, "source", "GradedLieAlgebra")
            target = _load_nested(payload, "target", "GradedLieAlgebra")
            matrix = _matrices(memo, [entries], 1, dims["target_dim0"] + dims["target_dim1"],
                               dims["source_dim0"] + dims["source_dim1"])[0]
            from .grlie import GradedHom
            return GradedHom(source, target, matrix)
        if kind == "module":
            algebra = _load_nested(payload, "algebra", "GradedLieAlgebra")
            m = dims["dim0"] + dims["dim1"]
            action = _matrices(memo, entries, algebra.dim, m, m)
            from .grlie import GradedModule
            return GradedModule(algebra, dims["dim0"], dims["dim1"], action)
        if kind == "cochain":
            algebra = _load_nested(payload, "algebra", "GradedLieAlgebra")
            module = _load_nested(payload, "module", "GradedModule")
            if algebra.field != field:
                raise PayloadError("cochain field mismatch")
            values = memo.read(entries, (comb(algebra.dim, dims["degree"]), module.dim))
            from .cohom import Cochain
            f = Cochain(algebra, module, dims["degree"], values)
            if not f.is_graded():
                raise PayloadError("cochain is not graded")
            return f
    except PayloadError:
        raise
    except (KeyError, TypeError, IndexError) as exc:
        raise PayloadError(f"malformed {kind} payload: {exc}") from None
    raise PayloadError(f"unknown kind {kind!r}")

"""Exact linear algebra over the rationals and prime fields.

Scalars are ``fractions.Fraction`` over Q and plain ``int`` residues in
``range(p)`` over F_p; there is no floating point anywhere.  The kernels
below read ``field.p`` once and then use plain operators, skipping zero
operands and, over F_p, reducing once per output entry.  Matrices and
subspaces are immutable, and every operation is a pure function.

Every elimination runs through one sparse echelon engine, ``_echelon``:
rows are dicts {column: scalar}, and each row joins at its leftmost
column, which is then cleared from the rows already there.  It runs
exactly, with no modular pass: over F_p on residues, over Q on integer
rows (``_integer_rows``), building a ``Fraction`` only per output entry.
Its basis is the unique RREF basis, so every derived basis (RREF, spans,
kernels, sums, intersections, quotient sections) is canonical and
reproducible.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[Fraction, int]
Vector = tuple


class Record:
    """Base of every immutable value type in the library.

    A subclass declares its fields as class annotations; ``_fields`` is
    their tuple, in order.  An instance compares equal only to an instance
    of the same class with equal fields, hashes the tuple of its fields,
    refuses assignment, and reprs as ``Name(field=value, ...)``.  The
    inherited ``__init__`` takes the fields positionally; a class with a
    validation calls it and then checks.  ``Field``, for its default, and
    ``Matrix``, which every matrix operation builds, set each field with
    ``object.__setattr__``.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"positional arguments but {len(args)} were given")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        # the fields compared in C; on CPython 3.11 reading __dict__ builds
        # it and slows later attribute reads, so identical objects skip it
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


# Miller-Rabin with the first twelve primes as bases is exact below
# 318665857834031151167461 (Sorenson & Webster 2015); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_MODULUS = 318665857834031151167460

# the scalar strings Field.fmt writes, and the only ones Field.of reads
_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")
_FIELD_TAG = re.compile(r"Fp:([0-9]+)")


def _is_prime(n: int) -> bool:
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds the supported ceiling {MAX_MODULUS}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Record):
    """The rationals (``p is None``) or the prime field F_p."""

    p: Optional[int]

    def __init__(self, p: Optional[int] = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        # every matrix operation compares fields: read p, build no __dict__
        if type(other) is not Field:
            return NotImplemented
        return self.p == other.p

    __hash__ = Record.__hash__

    def of(self, x) -> Scalar:
        """Coerce an int, a Fraction or a string "n" or "n/d" into the field.

        A string must be what :meth:`fmt` writes: an optional minus sign,
        ASCII digits and at most one "/" before more digits.  ``bool`` is
        refused, although Python counts it as an int.
        """
        # exact ints and Fractions skip the ABC isinstance checks; over Q, 0 is one shared Fraction
        if type(x) is int:
            return (Fraction(x) if x else _ZERO) if self.p is None else x % self.p
        if type(x) is Fraction and self.p is None:
            return x
        if isinstance(x, bool):
            raise TypeError(f"cannot coerce the boolean {x!r} into {self}")
        if isinstance(x, str):
            if not _SCALAR.fullmatch(x):
                raise ValueError(f"malformed scalar {x!r} (expected n or n/d)")
            x = Fraction(x)
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def zero(self) -> Scalar:
        return _ZERO if self.p is None else 0

    def one(self) -> Scalar:
        return _ONE if self.p is None else 1

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, self.p - 2, self.p)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # a scalar's exact string, "n/d" or "n": the builtin, so a row formats in one C-level map
    fmt = staticmethod(str)

    @property
    def tag(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @classmethod
    def from_tag(cls, tag: str) -> "Field":
        """The field of a tag :attr:`tag` writes: "Q", or "Fp:" and ASCII digits."""
        if tag == "Q":
            return cls()
        m = _FIELD_TAG.fullmatch(tag) if isinstance(tag, str) else None
        if m is None:
            raise ValueError(f"unknown field tag {tag!r} (expected 'Q' or 'Fp:<p>')")
        return cls(int(m.group(1)))

    def __str__(self) -> str:
        return self.tag


QQ = Field()
_ZERO = Fraction(0)
_ONE = Fraction(1)


def zero_vec(field: Field, n: int) -> Vector:
    return (field.zero(),) * n

def unit_vec(field: Field, n: int, i: int) -> Vector:
    v = [field.zero()] * n
    v[i] = field.one()
    return tuple(v)

def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    p = field.p
    if p is None:
        return tuple(a + b if b else a for a, b in zip(u, v, strict=True))
    return tuple((a + b) % p if b else a for a, b in zip(u, v, strict=True))

def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    p = field.p
    if p is None:
        return tuple(a - b if b else a for a, b in zip(u, v, strict=True))
    return tuple((a - b) % p if b else a for a, b in zip(u, v, strict=True))

def vec_scale(field: Field, c: Scalar, v: Vector) -> Vector:
    p = field.p
    if p is None:
        if not c:
            return (_ZERO,) * len(v)
        return tuple(c * a if a else _ZERO for a in v)
    return tuple(c * a % p for a in v)

def vec_is_zero(field: Field, v: Vector) -> bool:
    return not any(v)

def vec_from_sums(field: Field, sums: Sequence) -> Vector:
    """Field entries from plain sums of products of field elements: each is
    reduced mod p once, and over Q an entry no product reached becomes
    Fraction(0)."""
    p = field.p
    if p is None:
        return tuple(x if x else _ZERO for x in sums)
    return tuple(x % p for x in sums)

def nonzeros(v: Vector) -> list:
    """The (index, entry) pairs of v's nonzero entries."""
    return [(j, x) for j, x in enumerate(v) if x]


def linear_combination(field: Field, n: int, terms: Iterable) -> Vector:
    """The sum of c * v over the (c, v) pairs in terms, each v a sparse vector
    of (index, scalar) pairs, as a vector of length n.  A coefficient may be
    an unreduced product over F_p: every entry is normalised once, at the end."""
    acc = [0] * n
    for c, v in terms:
        for j, x in v:
            acc[j] += c * x
    return vec_from_sums(field, acc)


class Nonzeros(tuple):
    """The one stored form of a structure tensor: nested tuples indexed by basis
    elements, down to one sparse vector per basis pair (or triple), the tuple
    of its nonzero (index, scalar) pairs sorted by index.  A constructor tells
    it from the dense tensor by its type; it compares and hashes as a tuple."""

    __slots__ = ()


def _as_nonzeros(tensor: tuple, shape: tuple) -> Optional[Nonzeros]:
    """A tensor of the given shape, dense or as Nonzeros (whose vectors have
    no fixed length), as Nonzeros; None when it has another shape."""
    sparse = type(tensor) is Nonzeros

    def shaped(t, dims):
        return len(t) == dims[0] and (len(dims) == 1 or all(shaped(s, dims[1:]) for s in t))

    def stored(t, d):
        return tuple(stored(s, d - 1) for s in t) if d else tuple(nonzeros(t))

    if not shaped(tensor, shape[:-1] if sparse else shape):
        return None
    return tensor if sparse else Nonzeros(stored(tensor, len(shape) - 1))


def dense_tensor(field: Field, n: int, tensor: tuple, depth: int) -> tuple:
    """The dense form of a sparse tensor with depth levels above its vectors
    of length n (a vector for depth 0)."""
    if depth:
        return tuple(dense_tensor(field, n, t, depth - 1) for t in tensor)
    v = [field.zero()] * n
    for j, x in tensor:
        v[j] = x
    return tuple(v)


def _integer_terms(p: Optional[int], tensor: tuple, depth: int) -> tuple:
    """A sparse tensor and den, with integer entries: over F_p the tensor and 1;
    over Q the same nesting times den, the lcm of its entries' denominators."""
    if p is not None:
        return tensor, 1
    leaves = [tensor]
    for _ in range(depth):
        leaves = [s for t in leaves for s in t]
    den = lcm(*(x.denominator for leaf in leaves for _, x in leaf))

    def scale(t, d):
        if d:
            return [scale(s, d - 1) for s in t]
        return [(j, x.numerator * (den // x.denominator)) for j, x in t]

    return scale(tensor, depth), den


def _sparse_sum(p: Optional[int], terms) -> dict:
    """The sum of c * v over the (c, v) pairs in terms, each v an iterable of
    (index, entry) pairs, as a dict of its nonzero entries (reduced mod p)."""
    acc = {}
    for c, v in terms:
        for j, x in v:
            if j in acc:
                acc[j] += c * x
            else:
                acc[j] = c * x
    if p is None:
        return {j: x for j, x in acc.items() if x}
    return {j: x % p for j, x in acc.items() if x % p}


def _defects(field: Field, n: int, den: int, sums) -> list:
    """(key, defect) for each (key, terms) of sums whose sum of c * v over the
    (c, v) of terms, v a sparse integer vector, is not zero: that sum divided
    by den, as a vector of length n of the field."""
    found = ((key, _terms_of(field.p, _sparse_sum(field.p, terms), den)) for key, terms in sums)
    return [(key, dense_tensor(field, n, d, 0)) for key, d in found if d]


def _terms_of(p: Optional[int], acc: dict, den: int = 1) -> tuple:
    """The sparse vector of integer sums {index: sum}: over Q divided by den."""
    if p is None:
        return tuple(sorted((j, Fraction(x, den)) for j, x in acc.items() if x))
    return tuple(sorted((j, x % p) for j, x in acc.items() if x % p))


def _neg_terms(p: Optional[int], v: tuple) -> tuple:
    return tuple((j, -x if p is None else p - x) for j, x in v)


class Matrix(Record):
    """Dense matrix with exact entries, all in one field."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def make(cls, field: Field, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        data = tuple(tuple(field.of(x) for x in row) for row in rows)
        if data:
            ncols = len(data[0])
            if any(len(r) != ncols for r in data):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        if cols is not None and cols != ncols:
            raise ValueError("column count mismatch")
        return cls(field, len(data), ncols, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, n, n, tuple(unit_vec(field, n, i) for i in range(n)))

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Vector], rows: Optional[int] = None) -> "Matrix":
        if cols:
            rows = len(cols[0])
        elif rows is None:
            raise ValueError("empty column list needs an explicit row count")
        return cls(field, rows, len(cols), tuple(zip(*cols, strict=True)) if cols else ((),) * rows)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        cols = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix(self.field, self.cols, self.rows, cols)

    def matvec(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"matvec: {self.cols} columns vs vector of length {len(v)}")
        nz = nonzeros(v)
        p = self.field.p
        if p is None:
            return tuple(sum((r[k] * x for k, x in nz if r[k]), _ZERO) for r in self.entries)
        return tuple(sum(r[k] * x for k, x in nz) % p for r in self.entries)

    def matmul(self, other: "Matrix") -> "Matrix":
        """Each row of the product is the combination of other's rows that
        the row's nonzeros select, over other's precomputed nonzeros."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"matmul: {self.cols} vs {other.rows}")
        onz = [nonzeros(r) for r in other.entries]
        return Matrix(self.field, self.rows, other.cols, tuple(
            linear_combination(self.field, other.cols, ((a, nz) for a, nz in zip(r, onz) if a))
            for r in self.entries))

    def add(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(vec_add(self.field, a, b) for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(vec_sub(self.field, a, b) for a, b in zip(self.entries, other.entries)))

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      tuple(vec_scale(self.field, c, r) for r in self.entries))

    def neg(self) -> "Matrix":
        return self.scale(self.field.neg(self.field.one()))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.field != other.field:
            raise ValueError("hstack shape/field mismatch")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(vec_is_zero(self.field, r) for r in self.entries)

    def to_lists(self) -> list:
        return [list(r) for r in self.entries]

    def flatten(self) -> Vector:
        return tuple(x for r in self.entries for x in r)

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols, self.field) != (other.rows, other.cols, other.field):
            raise ValueError("shape/field mismatch")


def mat_from_flat(field: Field, flat: Vector, rows: int, cols: int) -> Matrix:
    if len(flat) != rows * cols:
        raise ValueError("flat length mismatch")
    return Matrix(field, rows, cols,
                  tuple(tuple(flat[i * cols + j] for j in range(cols)) for i in range(rows)))


def rref(m: Matrix) -> tuple[Matrix, tuple]:
    """Reduced row echelon form and its (strictly increasing) pivot columns:
    the RREF basis of m's row space, which the echelon engine builds from
    m's nonzero entries, followed by m.rows - rank zero rows."""
    span = span_of(m.field, m.cols, m.entries)
    zeros = (zero_vec(m.field, m.cols),) * (m.rows - span.dim)
    return Matrix(m.field, m.rows, m.cols, span.basis.entries + zeros), span.pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """A particular solution of m*x = rhs, or None.

    Deterministic: free variables are set to zero, pivots are leftmost.
    """
    sol, _ = solve_with_certificate(m, rhs)
    return sol


def solve_with_certificate(m: Matrix, rhs: Vector) -> tuple[Optional[Vector], Optional[Vector]]:
    """Like :func:`solve`, but an inconsistent system returns a witness.

    The witness is a row combination c with c*m = 0 and c*rhs = 1, i.e. an
    explicit certificate that no solution exists.
    """
    F = m.field
    if len(rhs) != m.rows:
        raise ValueError(f"solve: {m.rows} rows vs rhs of length {len(rhs)}")
    aug = m.hstack(Matrix.from_cols(F, [rhs], rows=m.rows)).hstack(Matrix.identity(F, m.rows))
    red, pivots = rref(aug)
    for i, row in enumerate(red.entries):
        lead = next((j for j in range(m.cols + 1) if not F.is_zero(row[j])), None)
        if lead == m.cols:
            # 0 = 1 row: the trailing identity block records the combination.
            cert = vec_scale(F, F.inv(row[m.cols]), row[m.cols + 1:])
            return None, cert
    x = list(zero_vec(F, m.cols))
    for r, c in enumerate(p for p in pivots if p < m.cols):
        x[c] = red.entries[r][m.cols]
    return tuple(x), None


def inverse(m: Matrix) -> Optional[Matrix]:
    """Two-sided inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    red, pivots = rref(m.hstack(Matrix.identity(m.field, m.rows)))
    if pivots[: m.rows] != tuple(range(m.rows)):
        return None
    return Matrix(m.field, m.rows, m.rows,
                  tuple(r[m.rows:] for r in red.entries[: m.rows]))


class Subspace(Record):
    """A subspace of F^n held as its unique RREF basis (rows)."""

    field: Field
    ambient_dim: int
    basis: Matrix
    pivots: tuple

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        """The span of vectors given as ints, Fractions or strings."""
        return span_of(field, ambient_dim, Matrix.make(field, list(vectors), cols=ambient_dim).entries)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return span_of(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return span_of(field, ambient_dim, [unit_vec(field, ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> tuple:
        return self.basis.entries

    def reduce(self, v: Vector) -> Vector:
        """Normal form of v modulo the subspace (pivot coordinates cleared)."""
        F = self.field
        out = v
        for r, p in enumerate(self.pivots):
            c = out[p]
            if not F.is_zero(c):
                out = vec_sub(F, out, vec_scale(F, c, self.basis.entries[r]))
        return out

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.field, self.reduce(v))

    def coordinates(self, v: Vector) -> Optional[Vector]:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.entries)

    def sum(self, other: "Subspace") -> "Subspace":
        self._compatible(other)
        return span_of(self.field, self.ambient_dim, self.basis.entries + other.basis.entries)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel method: x = u*A = w*B forces (u, w) into a kernel."""
        self._compatible(other)
        cols = [r for r in self.basis.entries] + [vec_scale(self.field, self.field.neg(self.field.one()), r)
                                                  for r in other.basis.entries]
        m = Matrix.from_cols(self.field, cols, rows=self.ambient_dim)
        vecs = [linear_combination(self.field, self.ambient_dim,
                                   ((c, nonzeros(v)) for c, v in zip(coeffs[: self.dim], self.basis.entries)))
                for coeffs in kernel_basis(m).basis.entries]
        return span_of(self.field, self.ambient_dim, vecs)

    def _compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspace field/ambient mismatch")


def span_of(field: Field, ambient_dim: int, vectors: Sequence[Vector]) -> Subspace:
    """The span of vectors whose entries are already the field's scalars,
    each of length ambient_dim: :meth:`Subspace.span` without coercing
    every entry, for the vectors the library computes itself."""
    return _span(field, ambient_dim, _sparse_rows(vectors))


def kernel_basis(m: Matrix) -> Subspace:
    """The solution space of m*x = 0, dim = cols - rank: m's nonzero rows go
    into the echelon engine exactly, and the solutions it leaves free are
    reduced to their RREF basis."""
    return _span(m.field, m.cols, _kernel_vectors(m))


def _kernel_vectors(m: Matrix) -> list:
    """A basis of the solutions of m*x = 0 as sparse rows, integers over Q."""
    p = m.field.p
    return _null_vectors(p, m.cols, _echelon(_integer_rows(p, _sparse_rows(m.entries))[0], p, m.cols)[0])


def kernel_of_rows(field: Field, ncols: int, rows: Iterable) -> Subspace:
    """The common kernel of sparse rows, each a dict {column: scalar}, in the
    RREF basis :func:`kernel_basis` gives the matrix they form: each row is
    scaled to a canonical multiple (over Q primitive with a positive leading
    entry, over F_p leading entry 1) and kept once, and the engine reduces
    them exactly, up to rank ncols."""
    p = field.p
    echelon, _ = _echelon([dict(row) for row in _distinct_rows(p, rows)], p, ncols)
    return _span(field, ncols, _null_vectors(p, ncols, echelon))


def _sparse_rows(vectors: Iterable) -> Iterable:
    """Each dense vector as a dict {column: entry} of its nonzero entries."""
    return ({j: x for j, x in enumerate(v) if x} for v in vectors)


def _integer_rows(p: Optional[int], rows: Iterable) -> tuple[list, int]:
    """Sparse rows {column: scalar} as (integer rows, den): over Q, times den,
    the least common denominator of their entries; over F_p, unchanged, den 1."""
    if p is not None:
        return rows, 1
    rows = list(rows)
    den = lcm(*(x.denominator for r in rows for x in r.values()))
    return [{j: x.numerator * (den // x.denominator) for j, x in r.items()} for r in rows], den


def _echelon(rows: Iterable, p: Optional[int], bound: int) -> tuple[dict, list]:
    """The echelon engine, exact over Q (p is None) or over F_p:
    the reduced echelon basis {pivot column: row} of sparse rows, and the
    indices of the rows that enlarged it.  It reads no row after the rank
    reaches bound: the number of columns, or a known dimension of the span.

    Each row is a dict {column: scalar} of nonzero entries (integers over Q,
    residues mod p), reduced in place against the basis rows at its pivot
    columns.  A row left nonzero joins at its leftmost column, scaled to 1
    there (over Q, made primitive and positive there), and that column is
    cleared from the rows already in; so every basis row starts at its pivot
    and is 0 at the others: sorted, and divided by that entry, the unique RREF.
    """
    basis = {}
    picked = []
    for i, r in enumerate(rows):
        _reduce(r, basis, p)
        if not r:
            continue
        c = min(r)
        if p is None:
            _primitive(r, c)
        else:
            inv = pow(r[c], -1, p)
            r = {j: x * inv % p for j, x in r.items()}
        for b in [b for b in basis.values() if c in b]:
            if p is None:  # fraction-free, then primitive again
                _primitive(_reduce(b, {c: r}, p), min(b))
            else:
                _sub_multiple(b, b[c], r, p)
        basis[c] = r
        picked.append(i)
        if len(basis) == bound:
            break
    return basis, picked


def _primitive(r: dict, c: int) -> dict:
    """The integer row r divided in place by the gcd of its entries, made positive at column c."""
    g = gcd(*r.values()) if r[c] > 0 else -gcd(*r.values())
    if g != 1:
        for j in r:
            r[j] //= g
    return r


def _reduce(r: dict, echelon: dict, p: Optional[int]) -> dict:
    """r, reduced in place to its normal form modulo a reduced echelon basis
    (over Q, an integer multiple of it, scaled first so that every step is
    integral): one pass, since each basis row is 0 at the other pivots."""
    hits = [c for c in r if c in echelon]
    if p is None:
        m = lcm(*(echelon[c][c] // gcd(r[c], echelon[c][c]) for c in hits))
        if m != 1:
            for j in r:
                r[j] *= m
    for c in hits:  # mod p the pivot entry is 1
        _sub_multiple(r, r[c] // echelon[c][c], echelon[c], p)
    return r


def _sub_multiple(r: dict, f: Scalar, b: dict, p: Optional[int]) -> None:
    """r -= f * b in place, exactly or mod p, dropping the entries that
    vanish; f * y is nonzero, so x vanishes only where r had an entry."""
    if p is None:
        for j, y in b.items():
            x = r.get(j, 0) - f * y
            if x:
                r[j] = x
            else:
                del r[j]
    else:
        for j, y in b.items():
            x = (r.get(j, 0) - f * y) % p
            if x:
                r[j] = x
            else:
                del r[j]


def _null_vectors(p: Optional[int], ncols: int, echelon: dict) -> list:
    """One solution of the echelon's rows per free column f, as a sparse row: 1 at f, and minus
    each basis row's entry at f at its pivot; over Q times den, the lcm of the pivot entries."""
    den = lcm(*(row[c] for c, row in echelon.items()))
    vecs = {f: {f: den if p is None else 1} for f in range(ncols) if f not in echelon}
    for c, row in echelon.items():
        for j, x in row.items():
            if j != c:
                vecs[j][c] = -x * (den // row[c]) if p is None else -x % p
    return list(vecs.values())


def _span(field: Field, ambient_dim: int, rows: Iterable) -> Subspace:
    """The span of sparse rows {column: scalar}, which the echelon engine
    consumes."""
    rows, _ = _integer_rows(field.p, rows)
    return _subspace(field, ambient_dim, _echelon(rows, field.p, ambient_dim)[0])


def _subspace(field: Field, ambient_dim: int, echelon: dict) -> Subspace:
    """The subspace of a reduced echelon basis, held as its dense RREF basis."""
    pivots = tuple(sorted(echelon))
    zero = field.zero()
    basis = []
    for c in pivots:
        v = [zero] * ambient_dim
        row = echelon[c]
        if field.p is None:
            row = {j: Fraction(x, row[c]) for j, x in row.items()}
        for j, x in row.items():
            v[j] = x
        basis.append(tuple(v))
    return Subspace(field, ambient_dim, Matrix(field, len(basis), ambient_dim, tuple(basis)),
                    pivots)


def _distinct_rows(p: Optional[int], rows: Iterable) -> list:
    """The nonzero rows as (column, entry) tuples sorted by column, each
    scaled to its canonical multiple, every row once, in first-seen order."""
    seen = {}
    for row in rows:
        if p is None:
            items = sorted((c, x) for c, x in _integer_rows(p, [row])[0][0].items() if x)
            if items:
                seen[tuple(_primitive(dict(items), items[0][0]).items())] = None
        else:
            items = sorted((c, x % p) for c, x in row.items() if x % p)
            if not items:
                continue
            inv = pow(items[0][1], -1, p)
            seen[tuple((c, x * inv % p) for c, x in items)] = None
    return list(seen)


class QuotientSpace(Record):
    """F^n / A with an explicit linear section.

    ``projection`` (q x n) annihilates exactly A; ``section`` (n x q) picks
    the non-pivot coordinates of A's RREF basis as coset representatives,
    so projection . section = id on the quotient.
    """

    field: Field
    ambient_dim: int
    kernel: Subspace
    projection: Matrix
    section: Matrix

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.kernel.dim


def quotient(ambient_dim: int, sub: Subspace) -> QuotientSpace:
    F = sub.field
    if sub.ambient_dim != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    pivot_set = set(sub.pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    q = len(free)
    # projection row j reads coordinate free[j] of the normal form v - sum v[p_r] basis_r.
    proj_rows = []
    for f in free:
        row = list(unit_vec(F, ambient_dim, f))
        for r, p in enumerate(sub.pivots):
            row[p] = F.sub(row[p], sub.basis.entries[r][f])
        proj_rows.append(tuple(row))
    projection = Matrix(F, q, ambient_dim, tuple(proj_rows))
    section = Matrix.from_cols(F, [unit_vec(F, ambient_dim, f) for f in free], rows=ambient_dim)
    return QuotientSpace(F, ambient_dim, sub, projection, section)

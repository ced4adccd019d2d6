"""Exact linear algebra over the rationals and prime fields.

Scalars are ``fractions.Fraction`` over Q and plain ``int`` residues in
``range(p)`` over F_p; there is no floating point anywhere.  The kernels
below read ``field.p`` once and then use plain operators, skipping zero
operands and, over F_p, reducing once per output entry.  Matrices and
subspaces are immutable, every operation is a pure function, and row
reduction always selects the leftmost pivot, so every derived basis
(kernels, sums, intersections, quotient sections) is canonical and
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
    inherited ``__init__`` takes the fields positionally.  A class with a
    default or a validation, and ``Matrix``, which every matrix operation
    builds, write their own and set each field with ``object.__setattr__``.
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

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def of(self, x) -> Scalar:
        """Coerce an int, a Fraction or a string "n" or "n/d" into the field.

        A string must be what :meth:`fmt` writes: an optional minus sign,
        ASCII digits and at most one "/" before more digits.  ``bool`` is
        refused, although Python counts it as an int.
        """
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
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

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

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def fmt(self, a: Scalar) -> str:
        return str(a)

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


def zero_vec(field: Field, n: int) -> Vector:
    return (field.zero(),) * n

def unit_vec(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one() if j == i else field.zero() for j in range(n))

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

def linear_combination(field: Field, n: int, terms: Iterable) -> Vector:
    """The sum of c * v over the (c, v) pairs in terms, v of length n.

    Zero entries of each v are skipped, and a coefficient may be an
    unreduced product over F_p: every entry is normalised once, at the end.
    """
    acc = [0] * n
    for c, v in terms:
        for j, x in enumerate(v):
            if x:
                acc[j] += c * x
    return vec_from_sums(field, acc)

def nonzeros(v: Vector) -> list:
    """The (index, entry) pairs of v's nonzero entries."""
    return [(j, x) for j, x in enumerate(v) if x]


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
        return cls(field, rows, len(cols),
                   tuple(tuple(c[i] for c in cols) for i in range(rows)))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))

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
        F = self.field
        onz = [nonzeros(r) for r in other.entries]
        out = []
        for r in self.entries:
            acc = [0] * other.cols
            for a, nz in zip(r, onz):
                if a:
                    for j, x in nz:
                        acc[j] += a * x
            out.append(vec_from_sums(F, acc))
        return Matrix(F, self.rows, other.cols, tuple(out))

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

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols or self.field != other.field:
            raise ValueError("vstack shape/field mismatch")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

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
    """Reduced row echelon form and its (strictly increasing) pivot columns.

    Each elimination step touches only the nonzero columns of the pivot row.
    """
    F = m.field
    p = F.p
    a = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        row = a[r]
        # entries left of c are zero: earlier pivots cleared them
        if p is None:
            inv = 1 / row[c]
            row[c:] = [x * inv if x else _ZERO for x in row[c:]]
        else:
            inv = pow(row[c], p - 2, p)
            row[c:] = [x * inv % p for x in row[c:]]
        nz = [(j, row[j]) for j in range(c, m.cols) if row[j]]
        for i in range(m.rows):
            ri = a[i]
            f = ri[c]
            if f and i != r:
                if p is None:
                    for j, y in nz:
                        ri[j] -= f * y
                else:
                    for j, y in nz:
                        ri[j] = (ri[j] - f * y) % p
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(F, m.rows, m.cols, tuple(tuple(row) for row in a)), tuple(pivots)


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
        m = Matrix.make(field, list(vectors), cols=ambient_dim)
        red, pivots = rref(m)
        rows = red.entries[: len(pivots)]
        return cls(field, ambient_dim, Matrix(field, len(rows), ambient_dim, rows), pivots)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls.span(field, ambient_dim, [])

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls.span(field, ambient_dim, [unit_vec(field, ambient_dim, i) for i in range(ambient_dim)])

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
        return Subspace.span(self.field, self.ambient_dim,
                             list(self.basis.entries) + list(other.basis.entries))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel method: x = u*A = w*B forces (u, w) into a kernel."""
        self._compatible(other)
        cols = [r for r in self.basis.entries] + [vec_scale(self.field, self.field.neg(self.field.one()), r)
                                                  for r in other.basis.entries]
        m = Matrix.from_cols(self.field, cols, rows=self.ambient_dim)
        ker = kernel_basis(m)
        vecs = []
        for coeffs in ker.basis.entries:
            x = zero_vec(self.field, self.ambient_dim)
            for c, row in zip(coeffs[: self.dim], self.basis.entries):
                x = vec_add(self.field, x, vec_scale(self.field, c, row))
            vecs.append(x)
        return Subspace.span(self.field, self.ambient_dim, vecs)

    def _compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspace field/ambient mismatch")


def _null_vectors(m: Matrix) -> list:
    """One solution of m*x = 0 per free column of rref(m): 1 there, and
    minus that column of the reduced rows at the pivots."""
    F = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    vecs = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [F.zero()] * m.cols
        v[f] = F.one()
        for r, p in enumerate(pivots):
            v[p] = F.neg(red.entries[r][f])
        vecs.append(tuple(v))
    return vecs


def kernel_basis(m: Matrix) -> Subspace:
    """The solution space of m*x = 0, dim = cols - rank."""
    return Subspace.span(m.field, m.cols, _null_vectors(m))


# Over Q, kernel_of_rows picks its rows by their rank profile modulo this
# prime, then certifies the pick exactly.
SELECT_PRIME = 2 ** 61 - 1


def kernel_of_rows(field: Field, ncols: int, rows: Iterable) -> Subspace:
    """The common kernel of sparse rows, each a dict {column: scalar}: the
    same subspace, with the same RREF basis, as :func:`kernel_basis` of the
    matrix the rows form.

    Each row is scaled to a canonical multiple (over Q a primitive integer
    row with a positive leading entry, over F_p leading entry 1), and equal
    rows are kept once.  The distinct rows are reduced one at a time against
    a growing echelon basis, and only those that enlarge it are eliminated
    exactly.  Over F_p that basis is exact.  Over Q the reduction runs modulo
    SELECT_PRIME; rows independent there are independent over Q, but the
    rank may drop, and then the kernel of the picked rows is too large.  So
    every vector of that kernel is checked in integers against every
    distinct row, and if one check fails all distinct rows are eliminated.
    """
    p = field.p
    distinct = _distinct_rows(p, rows)
    picked = _independent_rows(distinct, p or SELECT_PRIME, ncols)
    vecs = _null_vectors(_sparse_matrix(field, ncols, [distinct[i] for i in picked]))
    if p is None and not _annihilates(distinct, vecs):
        vecs = _null_vectors(_sparse_matrix(field, ncols, distinct))
    return Subspace.span(field, ncols, vecs)


def _distinct_rows(p: Optional[int], rows: Iterable) -> list:
    """The nonzero rows as (column, entry) tuples sorted by column, each
    scaled to its canonical multiple, every row once, in first-seen order."""
    seen = {}
    for row in rows:
        if p is None:
            items = sorted((c, x) for c, x in row.items() if x)
            if not items:
                continue
            den = lcm(*(x.denominator for _, x in items))
            xs = [x.numerator * (den // x.denominator) for _, x in items]
            g = gcd(*xs) if xs[0] > 0 else -gcd(*xs)
            seen[tuple((c, x // g) for (c, _), x in zip(items, xs))] = None
        else:
            items = sorted((c, x % p) for c, x in row.items() if x % p)
            if not items:
                continue
            inv = pow(items[0][1], -1, p)
            seen[tuple((c, x * inv % p) for c, x in items)] = None
    return list(seen)


def _independent_rows(rows: list, p: int, ncols: int) -> list:
    """Indices of the rows independent mod p of the rows before them.

    The basis maps each pivot column to a row {column: residue} with 1 there
    and 0 at every other pivot, so one pass over the pivots a new row meets
    reduces it; a row left nonzero joins at its leftmost column, which is
    cleared from the rows already there.
    """
    basis = {}
    picked = []
    for i, row in enumerate(rows):
        r = {c: x % p for c, x in row if x % p}
        for c in [c for c in r if c in basis]:
            _sub_multiple(r, r[c], basis[c], p)
        if not r:
            continue
        c = min(r)
        inv = pow(r[c], -1, p)
        r = {j: x * inv % p for j, x in r.items()}
        for b in basis.values():
            if c in b:
                _sub_multiple(b, b[c], r, p)
        basis[c] = r
        picked.append(i)
        if len(basis) == ncols:
            break
    return picked


def _sub_multiple(r: dict, f: int, b: dict, p: int) -> None:
    """r -= f * b mod p in place, dropping the entries that vanish."""
    for j, y in b.items():
        x = (r.get(j, 0) - f * y) % p
        if x:
            r[j] = x
        else:
            del r[j]  # f * y is nonzero, so x vanishes only where r had an entry


def _sparse_matrix(field: Field, ncols: int, rows: list) -> Matrix:
    """The matrix whose rows are the given (column, entry) tuples."""
    zero = field.zero()
    out = []
    for row in rows:
        v = [zero] * ncols
        for c, x in row:
            v[c] = field.of(x)
        out.append(tuple(v))
    return Matrix(field, len(rows), ncols, tuple(out))


def _annihilates(rows: list, vecs: list) -> bool:
    """Whether every integer row is orthogonal to every rational vector,
    checked on integer multiples of the vectors."""
    for v in vecs:
        den = lcm(*(x.denominator for x in v))
        w = [x.numerator * (den // x.denominator) for x in v]
        for row in rows:
            if sum(x * w[c] for c, x in row):
                return False
    return True


class QuotientSpace(Record):
    """F^n / A with an explicit linear section.

    ``projection`` (q x n) annihilates exactly A; ``section`` (n x q) picks
    the non-pivot coordinates of A's RREF basis as coset representatives,
    so projection . section = id on the quotient.
    """

    field: Field
    ambient_dim: int
    kernel: Subspace
    coset_reps: Matrix
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
    reps = Matrix(F, q, ambient_dim, tuple(unit_vec(F, ambient_dim, f) for f in free))
    section = reps.transpose()
    return QuotientSpace(F, ambient_dim, sub, reps, projection, section)

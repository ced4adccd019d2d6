"""Exact linear algebra over the rationals and prime fields.

Scalars are ``fractions.Fraction`` over Q and plain ``int`` residues in
``range(p)`` over F_p; there is no floating point anywhere.  Matrices and
subspaces are immutable, every operation is a pure function, and row
reduction always selects the leftmost pivot, so every derived basis
(kernels, sums, intersections, quotient sections) is canonical and
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[Fraction, int]
Vector = tuple


# Miller-Rabin with the first twelve primes as bases is exact below
# 318665857834031151167461 (Sorenson & Webster 2015); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_MODULUS = 318665857834031151167460


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


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field F_p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def of(self, x) -> Scalar:
        """Coerce an int, Fraction or decimal-free string into the field."""
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, (int, str)):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            if "/" in x:
                num, den = x.split("/")
                return self.of(Fraction(int(num), int(den)))
            return int(x) % self.p
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
        if tag == "Q":
            return cls()
        if tag.startswith("Fp:"):
            return cls(int(tag[3:]))
        raise ValueError(f"unknown field tag {tag!r} (expected 'Q' or 'Fp:<p>')")

    def __str__(self) -> str:
        return self.tag


QQ = Field()


def vec(field: Field, xs: Iterable) -> Vector:
    return tuple(field.of(x) for x in xs)

def zero_vec(field: Field, n: int) -> Vector:
    return (field.zero(),) * n

def unit_vec(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one() if j == i else field.zero() for j in range(n))

def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v, strict=True))

def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v, strict=True))

def vec_scale(field: Field, c: Scalar, v: Vector) -> Vector:
    return tuple(field.mul(c, a) for a in v)

def vec_is_zero(field: Field, v: Vector) -> bool:
    return all(field.is_zero(a) for a in v)

def dot(field: Field, u: Vector, v: Vector) -> Scalar:
    acc = field.zero()
    for a, b in zip(u, v, strict=True):
        acc = field.add(acc, field.mul(a, b))
    return acc


@dataclass(frozen=True)
class Matrix:
    """Dense matrix with exact entries, all in one field."""

    field: Field
    rows: int
    cols: int
    entries: tuple

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
        return tuple(dot(self.field, r, v) for r in self.entries)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"matmul: {self.cols} vs {other.rows}")
        ocols = [other.col(j) for j in range(other.cols)]
        return Matrix(self.field, self.rows, other.cols,
                      tuple(tuple(dot(self.field, r, c) for c in ocols) for r in self.entries))

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
    """Reduced row echelon form and its (strictly increasing) pivot columns."""
    F = m.field
    a = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if not F.is_zero(a[i][c])), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = F.inv(a[r][c])
        a[r] = [F.mul(inv, x) for x in a[r]]
        for i in range(m.rows):
            if i != r and not F.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[i], a[r])]
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


@dataclass(frozen=True)
class Subspace:
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


def kernel_basis(m: Matrix) -> Subspace:
    """The solution space of m*x = 0, dim = cols - rank."""
    F = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vecs = []
    for f in free:
        v = [F.zero()] * m.cols
        v[f] = F.one()
        for r, p in enumerate(pivots):
            v[p] = F.neg(red.entries[r][f])
        vecs.append(tuple(v))
    return Subspace.span(F, m.cols, vecs)


@dataclass(frozen=True)
class QuotientSpace:
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

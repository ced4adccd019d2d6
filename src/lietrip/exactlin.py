"""Exact linear algebra over the rationals and prime fields.

Scalars are ``fractions.Fraction`` over Q and plain ``int`` residues in
``range(p)`` over F_p; there is no floating point anywhere.  The kernels
below read ``field.p`` once and then use plain operators on nonzero
entries only, over F_p reducing once per output entry.  A matrix stores
the nonzeros of its rows once (``Matrix.terms``, a ``Nonzeros``), and a
subspace the echelon engine's RREF rows as its basis matrix; both are
immutable, and every operation is a pure function.  Dense input has one
reader, ``_as_nonzeros``: only a list or a tuple is an array, each scalar
goes through ``Field.of`` or a memo of it, and the shape is checked once.

Every elimination runs through one sparse echelon engine, ``_echelon``:
rows are dicts {column: scalar}, and each row joins at its leftmost
column, which is then cleared from the rows already there.  It runs
exactly, with no modular pass: over F_p on residues, over Q on integer
rows (``_integer_rows``), building a ``Fraction`` only per output entry.
Its basis is the unique RREF basis, so every derived basis (RREF, spans,
kernels, intersections, quotient projections) is canonical and
reproducible.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm
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
        raise ValueError(f"modulus of {n.bit_length():,} bits exceeds the supported ceiling {MAX_MODULUS}")
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
        if p is not None and type(p) is not int:  # a float, bool or Fraction would reach the tag
            raise TypeError(f"modulus must be an int, found {type(p).__name__}")
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

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

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
        digits = len(m.group(1).lstrip("0"))  # read only as many as a modulus below the ceiling has
        if digits > len(str(MAX_MODULUS)):
            raise ValueError(f"modulus of {digits:,} digits exceeds the supported ceiling {MAX_MODULUS}")
        return cls(int(m.group(1)))

    def __str__(self) -> str:
        return self.tag


QQ = Field()
_ZERO = Fraction(0)
_ONE = Fraction(1)


def unit_vec(field: Field, n: int, i: int) -> Vector:
    v = [field.zero()] * n
    v[i] = field.one()
    return tuple(v)


def combo_index(combo: Sequence, n: int) -> int:
    """The position of the sorted combo in itertools.combinations(range(n), len(combo)), the one order
    of exterior-power bases and cochain slots: C(n, k) - 1 - sum_t C(n - 1 - c_t, k - t), t from 0."""
    k = len(combo)
    index = comb(n, k) - 1
    for c in combo:
        index -= comb(n - 1 - c, k)
        k -= 1
    return index


class Nonzeros(tuple):
    """The one stored form of a structure tensor, a matrix or a cochain: nested
    tuples indexed by basis elements (or rows, or combinations), down to one
    sparse vector per basis pair, triple, row or combination, the tuple of
    its nonzero (index, scalar) pairs sorted by index.  A constructor tells
    it from the dense form by its type; it compares and hashes as a tuple."""

    __slots__ = ()


def _array(t):
    """t when it is a list or a tuple, the only dense arrays; any other node is refused."""
    if not isinstance(t, (list, tuple)):
        raise ValueError(f"expected an array, found {type(t).__name__} {t!r:.40}")
    return t


def _as_nonzeros(tensor: tuple, shape: tuple, of=None) -> Optional[Nonzeros]:
    """A tensor of the given shape as Nonzeros: a Nonzeros (whose vectors have no fixed
    length) as it is, or nested entries read in one pass in document order, each node not
    an array refused and each scalar read through of, the shape judged last; None on a misfit."""
    if type(tensor) is Nonzeros:
        def shaped(t, dims):
            return len(t) == dims[0] and (len(dims) == 1 or all(shaped(s, dims[1:]) for s in t))

        return tensor if len(shape) == 1 or shaped(tensor, shape[:-1]) else None
    fits = []

    def read(t, d):
        fits.append(len(_array(t)) == shape[d])
        if d < len(shape) - 1:
            return tuple([read(s, d + 1) for s in t])
        # an exact int 0 and the string "0" are zero in every field: only the other entries go through of
        return tuple([(j, y) for j, x in enumerate(t) if (x or type(x) is not int) and x != "0" and (y := of(x))])

    stored = read(tensor, 0)
    return Nonzeros(stored) if all(fits) else None


def nonzeros(field: Field, n: int, v: Vector) -> Nonzeros:
    """The nonzero (index, entry) pairs of a dense vector of length n, each entry read through field.of."""
    terms = _as_nonzeros(v, (n,), field.of)
    if terms is None:
        raise ValueError(f"expected a vector of length {n}")
    return terms


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
    over Q the same nesting of tuples times den, the lcm of its entries' denominators."""
    if p is not None:
        return tensor, 1
    leaves = [tensor]
    for _ in range(depth):
        leaves = [s for t in leaves for s in t]
    den = lcm(*(x.denominator for leaf in leaves for _, x in leaf))

    def scale(t, d):
        if d:
            return [scale(s, d - 1) for s in t]
        return tuple([(j, x.numerator * (den // x.denominator)) for j, x in t])

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


def _transposed(vectors: Iterable) -> dict:
    """{index: {position: entry}} of sparse vectors, each an iterable of (index, entry) pairs."""
    out = {}
    for k, v in enumerate(vectors):
        for i, x in v:
            out.setdefault(i, {})[k] = x
    return out


def _combination(p: Optional[int], terms) -> tuple:
    """:func:`_sparse_sum` as a sparse vector: its nonzero (index, entry) pairs, sorted by index."""
    return tuple(sorted(_sparse_sum(p, terms).items()))


def _keyed_sums(p: Optional[int], chains, den: int = 1) -> list:
    """(key, v) in key order for each key whose sum of c * w over the (key, c, w)
    of chains, w a sparse integer vector, is not zero: v that sum as a sparse
    vector, over Q divided by den.  Only the keys chains name are visited."""
    acc = {}
    for key, c, w in chains:
        sums = acc.setdefault(key, {})
        for j, x in w:
            sums[j] = sums.get(j, 0) + c * x
    found = ((key, _terms_of(p, sums, den)) for key, sums in sorted(acc.items()))
    return [(key, v) for key, v in found if v]


def _defects(field: Field, n: int, den: int, chains) -> list:
    """:func:`_keyed_sums` with each nonzero sum a vector of length n of the field."""
    return [(key, dense_tensor(field, n, v, 0)) for key, v in _keyed_sums(field.p, chains, den)]


def _cyclic_keys(a: int, b: int, e: int, canonical: bool) -> tuple:
    """The (i, j, k) whose cyclic sum over (i, j, k), (j, k, i), (k, i, j) has a
    term at (a, b, e): its three rotations, or on the canonical path the increasing one, if any."""
    if not canonical:
        return (a, b, e), (e, a, b), (b, e, a)
    if a < b:
        return ((a, b, e),) if b < e else ((e, a, b),) if e < a else ()
    return ((b, e, a),) if b < e < a else ()


# the records of both axiom checkers, lts.check_lts_axioms and grlie.check_graded_lie

class AxiomViolation(Record):
    identity: str  # the failed identity's family, e.g. "cyclic" or "jacobi"
    indices: tuple  # the basis tuple it fails at
    defect: Vector  # its defect there: a vector, or for "grading" the 1-tuple of the stray scalar


class AxiomReport(Record):
    ok: bool
    violations: tuple  # of AxiomViolation, in the checker's order


class Refusal(ValueError):
    """Input that breaks a stated hypothesis of the call.  The command line reads it, and it
    alone, as invalid input (exit 2); any other exception is a library fault."""


class AxiomError(ValueError):
    """A failed axiom check, worded from its report."""
    structure, prefix = "", ""  # what was checked; the words before the first violation's indices

    def __init__(self, report: AxiomReport):
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"not a {self.structure}: {len(report.violations)} violation(s), "
            f"first is {first.identity} at {self.prefix}{first.indices}")


def _check_hom_matrix(matrix: Matrix, source, target) -> None:
    """The hom contract, in order: a Matrix, target.dim x source.dim, over the field of both."""
    if not isinstance(matrix, Matrix):
        raise ValueError(f"expected a Matrix, found {type(matrix).__name__} {matrix!r:.40}")
    if matrix.rows != target.dim or matrix.cols != source.dim:
        raise ValueError("hom matrix shape mismatch")
    if matrix.field != source.field or source.field != target.field:
        raise ValueError("hom field mismatch")


class Hom:
    """The constructor and composition of the hom records, lts.LtsHom and grlie.GradedHom: each
    lists this class before Record and defines _law(matrix, source, target), its hom predicate,
    and _refusal, its message.  A matrix of another shape or field is refused even _trusted."""

    def __init__(self, source, target, matrix: Matrix, *, _trusted: bool = False):
        Record.__init__(self, source, target, matrix)
        _check_hom_matrix(matrix, source, target)
        if not _trusted and not self._law(matrix, source, target):
            raise ValueError(self._refusal)

    def compose(self, other):
        """self . other (apply other first)."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return self.__class__(other.source, self.target, self.matrix.matmul(other.matrix), _trusted=True)


def _terms_of(p: Optional[int], acc: dict, den: int = 1) -> tuple:
    """The sparse vector of integer sums {index: sum}: over Q divided by den."""
    if p is None:
        return tuple(sorted((j, Fraction(x, den)) for j, x in acc.items() if x))
    return tuple(sorted((j, x % p) for j, x in acc.items() if x % p))


def _neg_terms(p: Optional[int], v: tuple) -> tuple:
    return tuple((j, -x if p is None else p - x) for j, x in v)


class Matrix(Record):
    """A matrix with exact entries, all in one field, stored once as the
    nonzeros of its rows: terms[i] is the tuple of row i's nonzero (column,
    scalar) pairs, sorted by column.  The dense ``entries`` is a view
    derived on each read."""

    field: Field
    rows: int
    cols: int
    terms: Nonzeros

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        """entries: the dense rows, each scalar read through field.of, or their Nonzeros,
        which the library's own operations build and which are stored as they are."""
        terms = entries if type(entries) is Nonzeros else _as_nonzeros(entries, (rows, cols), field.of)
        if terms is None:
            raise ValueError(f"expected a {rows} x {cols} matrix")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "terms", terms)

    @property
    def entries(self) -> tuple:
        """The dense rows, derived from terms."""
        return dense_tensor(self.field, self.cols, self.terms, 1)

    @classmethod
    def make(cls, field: Field, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        """The matrix of dense rows; cols defaults to the first row's length."""
        if cols is None and not rows:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(field, len(_array(rows)), len(_array(rows[0])) if cols is None else cols, rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, n, n, Nonzeros(tuple(((i, field.one()),) for i in range(n))))

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence, rows: Optional[int] = None) -> "Matrix":
        """The transpose of the matrix whose rows are the given columns: dense
        vectors of length rows, or the Nonzeros of sparse ones, which need rows."""
        if rows is None and (not cols or type(cols) is Nonzeros):
            raise ValueError("empty or sparse columns need an explicit row count")
        return cls(field, len(_array(cols)), len(_array(cols[0])) if rows is None else rows, cols).transpose()

    def transpose(self) -> "Matrix":
        """The nonzeros regrouped by column, in one pass."""
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.terms):
            for j, x in row:
                cols[j].append((i, x))
        return Matrix(self.field, self.cols, self.rows, Nonzeros(tuple(map(tuple, cols))))

    def matmul(self, other: "Matrix") -> "Matrix":
        """Each row of the product is the combination of other's rows that
        the row's nonzeros select."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"matmul: {self.cols} vs {other.rows}")
        p, rows = self.field.p, other.terms
        return Matrix(self.field, self.rows, other.cols, Nonzeros(tuple(
            _combination(p, ((a, rows[k]) for k, a in row)) for row in self.terms)))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.field != other.field:
            raise ValueError("hstack shape/field mismatch")
        shift = self.cols
        return Matrix(self.field, self.rows, self.cols + other.cols, Nonzeros(tuple(
            a + tuple((j + shift, x) for j, x in b) for a, b in zip(self.terms, other.terms))))


def rref(m: Matrix) -> tuple[Matrix, tuple]:
    """Reduced row echelon form and its (strictly increasing) pivot columns:
    the RREF basis of m's row space, which the echelon engine builds from
    m's nonzero entries, followed by m.rows - rank zero rows."""
    span = _span(m.field, m.cols, map(dict, m.terms))
    return (Matrix(m.field, m.rows, m.cols, Nonzeros(span.basis.terms + ((),) * (m.rows - span.dim))),
            span.pivots)


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
    column = Matrix.from_cols(F, Nonzeros((nonzeros(F, m.rows, rhs),)), rows=m.rows)
    aug = m.hstack(column).hstack(Matrix.identity(F, m.rows))
    red, pivots = rref(aug)
    for row in red.terms:
        if row and row[0][0] == m.cols:
            # 0 = 1 row: the trailing identity block records the combination.
            return None, dense_tensor(F, m.rows, ((j - m.cols - 1, x) for j, x in row[1:]), 0)
    x = [F.zero()] * m.cols
    for row, c in zip(red.terms, pivots):
        if c < m.cols:
            x[c] = dict(row).get(m.cols, F.zero())
    return tuple(x), None


def inverse(m: Matrix) -> Optional[Matrix]:
    """Two-sided inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    red, pivots = rref(m.hstack(Matrix.identity(m.field, n)))
    if pivots[:n] != tuple(range(n)):
        return None
    # row r of the RREF is e_r, then row r of the inverse
    return Matrix(m.field, n, n, Nonzeros(tuple(tuple((j - n, x) for j, x in row[1:])
                                                for row in red.terms[:n])))


class Subspace(Record):
    """A subspace of F^n held as its unique RREF basis: the rows of
    ``basis``, whose terms are the echelon engine's rows."""

    field: Field
    ambient_dim: int
    basis: Matrix
    pivots: tuple

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        """The span of vectors given as ints, Fractions or strings."""
        return _span(field, ambient_dim, map(dict, Matrix.make(field, vectors, cols=ambient_dim).terms))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains_subspace(self, other: "Subspace") -> bool:
        return not any(self._residue(dict(row)) for row in other.basis.terms)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel method: x = u*A = w*B forces (u, w) into a kernel."""
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspace field/ambient mismatch")
        p = self.field.p
        basis = self.basis.terms
        cols = Nonzeros(basis + tuple(_neg_terms(p, row) for row in other.basis.terms))
        m = Matrix.from_cols(self.field, cols, rows=self.ambient_dim)
        return _span(self.field, self.ambient_dim, (
            _sparse_sum(p, ((c, basis[i]) for i, c in z if i < self.dim))
            for z in kernel_basis(m).basis.terms))

    def _residue(self, v: dict) -> dict:
        """The sparse vector v {column: scalar}, reduced in place to its
        normal form modulo the subspace (pivot coordinates cleared)."""
        p = self.field.p
        for c, row in zip(self.pivots, self.basis.terms):
            if c in v:
                _sub_multiple(v, v[c], row, p)
        return v


def kernel_basis(m: Matrix) -> Subspace:
    """The solution space of m*x = 0, dim = cols - rank, in its RREF basis."""
    return kernel_of_rows(m.field, m.cols, map(dict, m.terms))


def kernel_of_rows(field: Field, ncols: int, rows: Iterable) -> Subspace:
    """The common kernel of sparse rows, each a dict {column: scalar}, in its
    RREF basis: each row is scaled to a canonical multiple (over Q primitive
    with a positive leading entry, over F_p leading entry 1) and kept once,
    the engine reduces them exactly, up to rank ncols, and the solutions it
    leaves free are reduced to their RREF basis."""
    p = field.p
    echelon, _ = _echelon([dict(row) for row in _distinct_rows(p, rows)], p, ncols)
    return _span(field, ncols, _null_vectors(p, ncols, echelon))


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
    indices of the rows that enlarged it.  It stops reading when a row joins
    and brings the rank to bound (the number of columns, or a known dimension
    of the span); the bound is tested only then, so at bound 0 it reads
    every row and returns the whole echelon.

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
                _sub_multiple(b, b[c], r.items(), p)
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
        _sub_multiple(r, r[c] // echelon[c][c], echelon[c].items(), p)
    return r


def _sub_multiple(r: dict, f: Scalar, b: Iterable, p: Optional[int]) -> None:
    """r -= f * b in place, b given by its nonzero (column, entry) pairs,
    exactly or mod p, dropping the entries that vanish; f * y is nonzero,
    so x vanishes only where r had an entry."""
    if p is None:
        for j, y in b:
            x = r.get(j, 0) - f * y
            if x:
                r[j] = x
            else:
                del r[j]
    else:
        for j, y in b:
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
    """The subspace of a reduced echelon basis, its rows stored sorted and,
    over Q, divided by their pivot entries."""
    rows = []
    for c in sorted(echelon):
        row = sorted(echelon[c].items())
        if field.p is None:
            d = echelon[c][c]
            row = [(j, Fraction(x, d)) for j, x in row]
        rows.append(tuple(row))
    return Subspace(field, ambient_dim, Matrix(field, len(rows), ambient_dim, Nonzeros(tuple(rows))),
                    tuple(sorted(echelon)))


def _distinct_rows(p: Optional[int], rows: Iterable) -> list:
    """The nonzero rows as (column, entry) tuples sorted by column, each
    scaled to its canonical multiple, every row once, in first-seen order.
    Over Q a row of ints is divided by its gcd as it is, a row with a
    Fraction after its denominators are cleared."""
    seen = {}
    for row in rows:
        if p is None:
            if not all(type(x) is int for x in row.values()):
                row = _integer_rows(p, [row])[0][0]
            items = sorted(item for item in row.items() if item[1])
            if not items:
                continue
            g = gcd(*row.values()) if items[0][1] > 0 else -gcd(*row.values())
            seen[tuple(items) if g == 1 else tuple((c, x // g) for c, x in items)] = None
        else:
            items = sorted((c, x % p) for c, x in row.items() if x % p)
            if not items:
                continue
            inv = pow(items[0][1], -1, p)
            seen[tuple((c, x * inv % p) for c, x in items)] = None
    return list(seen)


def quotient(ambient_dim: int, sub: Subspace) -> Matrix:
    """The projection F^n -> F^n / sub, a Matrix that annihilates exactly sub: row s reads the
    free (non-pivot) coordinate free[s] of a vector's normal form modulo sub's RREF basis."""
    F = sub.field
    if sub.ambient_dim != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    pivot_set = set(sub.pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    position = {f: s for s, f in enumerate(free)}
    # projection row s reads coordinate free[s] of the normal form v - sum v[p_r] basis_r:
    # 1 at free[s], and minus the entry of basis_r there at p_r
    proj_rows = [[(f, F.one())] for f in free]
    for c, row in zip(sub.pivots, sub.basis.terms):
        for j, x in row:
            if j != c:
                proj_rows[position[j]].append((c, F.neg(x)))
    return Matrix(F, len(free), ambient_dim, Nonzeros(tuple(tuple(sorted(r)) for r in proj_rows)))

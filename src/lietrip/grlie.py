"""Z2-graded Lie algebras, graded homomorphisms, and graded modules.

The global basis convention is even-first: indices 0..dim0-1 are even,
dim0..dim0+dim1-1 are odd, and every tensor (brackets, hom matrices,
module actions) uses this order.  These are ordinary Lie algebras carrying
a grading; there is no super sign rule.
"""

from __future__ import annotations

from typing import Sequence

from .exactlin import (
    Field, Matrix, Record, Subspace, Vector, kernel_basis, quotient, rank, solve,
    linear_combination, nonzeros, span_of, unit_vec, vec_add, vec_from_sums, vec_is_zero,
    zero_vec,
)
from .lts import LtsHom, odd_part_lts


class GradedLieError(ValueError):
    def __init__(self, report: "GradedCheckReport"):
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"not a graded Lie algebra: {len(report.violations)} violation(s), "
            f"first is {first[0]} at {first[1]}")


class GradedCheckReport(Record):
    ok: bool
    violations: tuple  # (family, indices, defect) triples


class GradedLieAlgebra(Record):
    field: Field
    dim0: int
    dim1: int
    bracket: tuple  # bracket[i][j] = coordinates of [e_i, e_j]

    def __init__(self, field: Field, dim0: int, dim1: int, bracket: tuple,
                 unchecked: bool = False):
        Record.__init__(self, field, dim0, dim1, bracket)
        n = self.dim
        if len(self.bracket) != n or any(
                len(bi) != n or any(len(v) != n for v in bi) for bi in self.bracket):
            raise ValueError("bracket tensor shape does not match dims")
        if not unchecked:
            report = check_graded_lie(self)
            if not report.ok:
                raise GradedLieError(report)

    @property
    def dim(self) -> int:
        return self.dim0 + self.dim1

    def degree(self, i: int) -> int:
        return 0 if i < self.dim0 else 1

    def bracket_vec(self, x: Vector, y: Vector) -> Vector:
        ny = nonzeros(y)
        return linear_combination(self.field, self.dim, (
            (xi * yj, self.bracket[i][j]) for i, xi in nonzeros(x) for j, yj in ny))

    def ad(self, i: int) -> Matrix:
        """Matrix of x -> [e_i, x]."""
        return Matrix.from_cols(self.field, [self.bracket[i][j] for j in range(self.dim)],
                                rows=self.dim)

    def even_subspace(self) -> Subspace:
        return span_of(self.field, self.dim,
                       [unit_vec(self.field, self.dim, i) for i in range(self.dim0)])

    def odd_subspace(self) -> Subspace:
        return span_of(self.field, self.dim,
                       [unit_vec(self.field, self.dim, self.dim0 + a) for a in range(self.dim1)])


def graded_lie(field: Field, dim0: int, dim1: int, entries: Sequence, *,
               unchecked: bool = False) -> GradedLieAlgebra:
    """Build an algebra from nested [i][j][k] entries of ints/strings/Fractions."""
    tensor = tuple(tuple(tuple(field.of(x) for x in v) for v in row) for row in entries)
    return GradedLieAlgebra(field, dim0, dim1, tensor, unchecked=unchecked)


def abelian_algebra(field: Field, dim0: int, dim1: int) -> GradedLieAlgebra:
    n = dim0 + dim1
    z = zero_vec(field, n)
    return GradedLieAlgebra(field, dim0, dim1, tuple(tuple(z for _ in range(n)) for _ in range(n)),
                            unchecked=True)


def _assemble(field: Field, dim0: int, dim1: int, pairs) -> GradedLieAlgebra:
    """The trusted constructor of every algebra the library derives from
    validated input; it checks nothing.

    ``pairs`` yields (i, j, terms), each unordered pair {i, j} at most once
    and never i = j, where terms are the (l, x) with [e_i, e_j] = sum x e_l,
    x already a scalar of the field (zeros may be left out).  [e_j, e_i] is
    filled in as the negative, and every other bracket is zero.  Each caller's
    construction is a graded Lie algebra by theorem when its inputs are
    valid; tests/test_trusted.py asserts that with check_graded_lie.
    """
    n = dim0 + dim1
    p = field.p
    z = zero_vec(field, n)
    bracket = [[z] * n for _ in range(n)]
    for i, j, terms in pairs:
        v, w = list(z), list(z)
        for l, x in terms:
            if x:
                v[l] = x
                w[l] = -x if p is None else p - x
        bracket[i][j] = tuple(v)
        bracket[j][i] = tuple(w)
    return GradedLieAlgebra(field, dim0, dim1, tuple(tuple(row) for row in bracket),
                            unchecked=True)


def check_graded_lie(L: GradedLieAlgebra) -> GradedCheckReport:
    """Antisymmetry (char-2-safe), Jacobi on basis triples, and structural
    grading ([L_i, L_j] inside L_{i+j}, checked as zero blocks)."""
    F = L.field
    n = L.dim
    c = L.bracket
    bad = []
    for i in range(n):
        if not vec_is_zero(F, c[i][i]):
            bad.append(("alternating", (i, i), c[i][i]))
        for j in range(i + 1, n):
            d = vec_add(F, c[i][j], c[j][i])
            if not vec_is_zero(F, d):
                bad.append(("antisymmetry", (i, j), d))
    for i in range(n):
        for j in range(n):
            g = (L.degree(i) + L.degree(j)) % 2
            for k in range(n):
                if L.degree(k) != g and not F.is_zero(c[i][j][k]):
                    bad.append(("grading", (i, j, k), (c[i][j][k],)))
    nz = [[nonzeros(v) for v in row] for row in c]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [0] * n
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, wm in nz[a][b]:
                        for l, x in nz[m][e]:
                            acc[l] += wm * x
                acc = vec_from_sums(F, acc)
                if not vec_is_zero(F, acc):
                    bad.append(("jacobi", (i, j, k), acc))
    return GradedCheckReport(not bad, tuple(bad))


def is_graded_hom(matrix: Matrix, source: GradedLieAlgebra, target: GradedLieAlgebra) -> bool:
    """Block structure phi(L_i) in K_i plus the hom law on basis pairs."""
    if matrix.rows != target.dim or matrix.cols != source.dim:
        raise ValueError("hom matrix shape mismatch")
    F = matrix.field
    for j in range(source.dim):
        for i in range(target.dim):
            if source.degree(j) != target.degree(i) and not F.is_zero(matrix.entries[i][j]):
                return False
    cols = [matrix.col(j) for j in range(source.dim)]
    for i in range(source.dim):
        for j in range(source.dim):
            if matrix.matvec(source.bracket[i][j]) != target.bracket_vec(cols[i], cols[j]):
                return False
    return True


class GradedHom(Record):
    source: GradedLieAlgebra
    target: GradedLieAlgebra
    matrix: Matrix  # target.dim x source.dim, block structure w.r.t. gradings

    def __init__(self, source: GradedLieAlgebra, target: GradedLieAlgebra, matrix: Matrix,
                 unchecked: bool = False):
        Record.__init__(self, source, target, matrix)
        if self.matrix.field != self.source.field or self.source.field != self.target.field:
            raise ValueError("hom field mismatch")
        if not unchecked and not is_graded_hom(self.matrix, self.source, self.target):
            raise ValueError("matrix is not a graded Lie algebra homomorphism")

    def apply(self, v: Vector) -> Vector:
        return self.matrix.matvec(v)

    def compose(self, other: "GradedHom") -> "GradedHom":
        """self . other (apply other first)."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return GradedHom(other.source, self.target, self.matrix.matmul(other.matrix), unchecked=True)

    def kernel(self) -> Subspace:
        return kernel_basis(self.matrix)

    def is_surjective(self) -> bool:
        return rank(self.matrix) == self.target.dim

    def is_bijective(self) -> bool:
        return self.matrix.rows == self.matrix.cols and self.is_surjective()


def identity_hom(L: GradedLieAlgebra) -> GradedHom:
    return GradedHom(L, L, Matrix.identity(L.field, L.dim), unchecked=True)


class GradedModule(Record):
    """A graded module, given by one action matrix per algebra basis vector."""

    algebra: GradedLieAlgebra
    dim0: int
    dim1: int
    action: tuple  # action[i] is a (dim0+dim1) x (dim0+dim1) Matrix

    def __init__(self, algebra: GradedLieAlgebra, dim0: int, dim1: int, action: tuple,
                 unchecked: bool = False):
        Record.__init__(self, algebra, dim0, dim1, action)
        m = self.dim
        if len(self.action) != self.algebra.dim or any(
                a.rows != m or a.cols != m for a in self.action):
            raise ValueError("action shape mismatch")
        if unchecked:
            return
        F = self.algebra.field
        for i in range(self.algebra.dim):
            gi = self.algebra.degree(i)
            a = self.action[i]
            for r in range(m):
                for c in range(m):
                    if (self.degree(r) != (gi + self.degree(c)) % 2
                            and not F.is_zero(a.entries[r][c])):
                        raise ValueError(f"module grading violated at action[{i}][{r}][{c}]")
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                lhs = self.act(self.algebra.bracket[i][j])
                rhs = self.action[i].matmul(self.action[j]).sub(
                    self.action[j].matmul(self.action[i]))
                if lhs != rhs:
                    raise ValueError(f"not a representation: fails at basis pair ({i}, {j})")

    @property
    def dim(self) -> int:
        return self.dim0 + self.dim1

    def degree(self, r: int) -> int:
        return 0 if r < self.dim0 else 1

    def act(self, x: Vector) -> Matrix:
        """Action matrix of an algebra element given in coordinates."""
        F = self.algebra.field
        m = self.dim
        terms = [(xi, self.action[i].entries) for i, xi in nonzeros(x)]
        return Matrix(F, m, m, tuple(linear_combination(F, m, ((xi, a[r]) for xi, a in terms))
                                     for r in range(m)))

    def is_trivial(self) -> bool:
        return all(a.is_zero() for a in self.action)


def trivial_module(L: GradedLieAlgebra, dim0: int = 1) -> GradedModule:
    """Trivial module with trivial grading (no odd part)."""
    z = Matrix.zeros(L.field, dim0, dim0)
    return GradedModule(L, dim0, 0, tuple(z for _ in range(L.dim)), unchecked=True)


def adjoint_module(L: GradedLieAlgebra) -> GradedModule:
    return GradedModule(L, L.dim0, L.dim1, tuple(L.ad(i) for i in range(L.dim)))


def subalgebra_generated(L: GradedLieAlgebra, seed: Subspace) -> Subspace:
    """Smallest bracket-closed subspace containing the seed, by iterating
    V <- V + [V, V] until the dimension stabilizes or reaches dim L: the
    whole space is closed, so no round confirms it."""
    if seed.ambient_dim != L.dim:
        raise ValueError("seed ambient mismatch")
    current = seed
    while True:
        vecs = list(current.basis.entries)
        base = current.basis.entries
        for i in range(len(base)):
            for j in range(i + 1, len(base)):
                vecs.append(L.bracket_vec(base[i], base[j]))
        grown = span_of(L.field, L.dim, vecs)
        if grown.dim in (current.dim, L.dim):
            return grown
        current = grown


def odd_bracket_span(L: GradedLieAlgebra) -> Subspace:
    """[L_1, L_1] as a subspace of the ambient space."""
    vecs = [L.bracket[i][j]
            for i in range(L.dim0, L.dim) for j in range(i + 1, L.dim)]
    return span_of(L.field, L.dim, vecs)


def is_generated_by_odd(L: GradedLieAlgebra) -> bool:
    """True iff the odd part generates; cross-checked against the equivalent
    criterion [L_1, L_1] = L_0.  When [L_1, L_1] = L_0, the first round of
    subalgebra_generated reaches dim L and is its last."""
    generated = subalgebra_generated(L, L.odd_subspace()).dim == L.dim
    even_covered = odd_bracket_span(L).dim == L.dim0
    if generated != even_covered:
        raise RuntimeError("generation criteria disagree; bracket tensor is inconsistent")
    return generated


def center(L: GradedLieAlgebra) -> Subspace:
    """{z : [z, e_j] = 0 for all j}, the kernel of the stacked ad matrices."""
    F = L.field
    n = L.dim
    rows = tuple(tuple(L.bracket[i][j][l] for i in range(n)) for j in range(n) for l in range(n))
    return kernel_basis(Matrix(F, n * n, n, rows))


def direct_sum(K: GradedLieAlgebra, U: GradedLieAlgebra) -> GradedLieAlgebra:
    """Componentwise bracket; (K + U)_i = K_i + U_i with even-first reindexing."""
    if K.field != U.field:
        raise ValueError("field mismatch")
    dim0, dim1 = K.dim0 + U.dim0, K.dim1 + U.dim1
    # each summand's basis, even-first, at its place in the even-first sum
    k_index = list(range(K.dim0)) + [dim0 + a for a in range(K.dim1)]
    u_index = [K.dim0 + j for j in range(U.dim0)] + [dim0 + K.dim1 + b for b in range(U.dim1)]
    return _assemble(K.field, dim0, dim1, (
        (index[i], index[j], ((index[l], x) for l, x in enumerate(A.bracket[i][j])))
        for A, index in ((K, k_index), (U, u_index))
        for i in range(A.dim) for j in range(i + 1, A.dim)))


def _coords_in_rows(field: Field, basis_rows: Sequence[Vector], v: Vector) -> Vector:
    """Coefficients expressing v in the given independent rows; error if outside."""
    m = Matrix.from_cols(field, list(basis_rows), rows=len(v)) if basis_rows else Matrix.zeros(field, len(v), 0)
    x = solve(m, v)
    if x is None:
        raise RuntimeError("vector unexpectedly outside span")
    return x


def graded_pullback(phi: GradedHom, ups: GradedHom):
    """Fibre product {k + u : phi(k) = ups(u)} inside K + U, with the two
    projection homs; phi . pi_K = ups . pi_U holds by construction."""
    if phi.target != ups.target:
        raise ValueError("pullback requires a common codomain")
    K, U = phi.source, ups.source
    F = K.field
    cond = phi.matrix.hstack(ups.matrix.neg())  # L.dim x (K.dim + U.dim)
    sols = kernel_basis(cond)

    ndim = K.dim + U.dim
    even_idx = list(range(K.dim0)) + [K.dim + j for j in range(U.dim0)]
    odd_idx = [K.dim0 + a for a in range(K.dim1)] + [K.dim + U.dim0 + b for b in range(U.dim1)]
    even_amb = span_of(F, ndim, [unit_vec(F, ndim, i) for i in even_idx])
    odd_amb = span_of(F, ndim, [unit_vec(F, ndim, i) for i in odd_idx])
    even_part = sols.intersect(even_amb)
    odd_part = sols.intersect(odd_amb)
    if even_part.dim + odd_part.dim != sols.dim:
        raise RuntimeError("pullback solution space is not graded")
    basis = list(even_part.basis.entries) + list(odd_part.basis.entries)

    def bracket_pair(v: Vector, w: Vector) -> Vector:
        kv, uv = v[:K.dim], v[K.dim:]
        kw, uw = w[:K.dim], w[K.dim:]
        return K.bracket_vec(kv, kw) + U.bracket_vec(uv, uw)

    dim_a = len(basis)
    A = _assemble(F, even_part.dim, odd_part.dim, (
        (s, t, enumerate(_coords_in_rows(F, basis, bracket_pair(basis[s], basis[t]))))
        for s in range(dim_a) for t in range(s + 1, dim_a)))
    pk = GradedHom(A, K, Matrix.from_cols(F, [v[:K.dim] for v in basis], rows=K.dim),
                   unchecked=True)
    pu = GradedHom(A, U, Matrix.from_cols(F, [v[K.dim:] for v in basis], rows=U.dim),
                   unchecked=True)
    return A, pk, pu


def central_quotient(L: GradedLieAlgebra, ideal: Subspace):
    """Quotient by a central ideal contained in the even part, with the
    projection hom; the projection's kernel is exactly the ideal."""
    if ideal.ambient_dim != L.dim:
        raise ValueError("ideal ambient mismatch")
    if not L.even_subspace().contains_subspace(ideal):
        raise ValueError("ideal is not contained in the even part")
    if not center(L).contains_subspace(ideal):
        raise ValueError("ideal is not central")
    q = quotient(L.dim, ideal)
    F = L.field
    new_dim0 = L.dim0 - ideal.dim
    # pivots of the ideal sit in even columns, so the free columns stay ordered
    # even-then-odd and the quotient inherits dims (dim0 - dim I, dim1); the
    # section's columns are the unit vectors at the free coordinates.
    pivots = set(ideal.pivots)
    free = [c for c in range(L.dim) if c not in pivots]
    Q = _assemble(F, new_dim0, L.dim1, (
        (s, t, enumerate(q.projection.matvec(L.bracket[free[s]][free[t]])))
        for s in range(q.dim) for t in range(s + 1, q.dim)))
    return Q, GradedHom(L, Q, q.projection, unchecked=True)


def restrict_hom_to_odd(phi: GradedHom) -> LtsHom:
    """Odd-odd block of a graded hom, as a triple-system homomorphism."""
    F = phi.matrix.field
    src, tgt = phi.source, phi.target
    block = tuple(tuple(phi.matrix.entries[tgt.dim0 + r][src.dim0 + c] for c in range(src.dim1))
                  for r in range(tgt.dim1))
    return LtsHom(odd_part_lts(src), odd_part_lts(tgt), Matrix(F, tgt.dim1, src.dim1, block),
                  unchecked=True)

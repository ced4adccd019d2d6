"""Z2-graded Lie algebras, graded homomorphisms, and graded modules.

The global basis convention is even-first: indices 0..dim0-1 are even,
dim0..dim0+dim1-1 are odd, and every tensor (brackets, hom matrices,
module actions) uses this order.  These are ordinary Lie algebras carrying
a grading; there is no super sign rule.  Algebras and modules store their
structure constants once, as ``Nonzeros``; the dense ``bracket`` and
``action`` are views derived on each read.  ``check_graded_lie`` reports
as ``lts.check_lts_axioms`` does, in the records both take from
``exactlin``: an ``AxiomReport`` of ``AxiomViolation``s, and
``GradedLieError`` is an ``AxiomError``.  L_1 generates L iff [L_1, L_1] =
L_0, as L_1 + [L_1, L_1] is closed by the grading and Jacobi; ``_central``
is the one centrality check, and ``CentralExtensionProblem.from_hom`` the
one check of a central 0-extension, a hom onto with an even central kernel,
kept here so that ``embed`` builds the universal one without ``cohom``.
Only ``restrict_hom_to_odd`` loads ``lts``.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import TYPE_CHECKING, Sequence

from .exactlin import (
    AxiomError, AxiomReport, AxiomViolation, Field, Hom, Matrix, Nonzeros, Record, Refusal,
    Subspace, _array, _as_nonzeros, _check_hom_matrix, _combination, _cyclic_keys, _defects,
    _integer_terms, _neg_terms, _span, _sparse_sum, _subspace, _transposed, dense_tensor,
    kernel_basis, kernel_of_rows, quotient,
)

if TYPE_CHECKING:  # only restrict_hom_to_odd loads lts
    from .lts import LtsHom


class GradedLieError(AxiomError):
    structure = "graded Lie algebra"


class GradedLieAlgebra(Record):
    field: Field
    dim0: int
    dim1: int
    terms: Nonzeros  # terms[i][j] = the nonzeros (l, x) of [e_i, e_j]

    def __init__(self, field: Field, dim0: int, dim1: int, bracket: tuple, *, _trusted: bool = False):
        """bracket: the dense tensor (bracket[i][j] = coordinates of [e_i, e_j]) or its Nonzeros."""
        terms = _as_nonzeros(bracket, (dim0 + dim1,) * 3, field.of)
        if terms is None:
            raise ValueError("bracket tensor shape does not match dims")
        Record.__init__(self, field, dim0, dim1, terms)
        if not _trusted:
            report = check_graded_lie(self)
            if not report.ok:
                raise GradedLieError(report)

    @property
    def bracket(self) -> tuple:
        """The dense tensor, derived from terms: bracket[i][j] = coordinates of [e_i, e_j]."""
        return dense_tensor(self.field, self.dim, self.terms, 2)

    @property
    def dim(self) -> int:
        return self.dim0 + self.dim1

    def degree(self, i: int) -> int:
        return 0 if i < self.dim0 else 1

    def even_subspace(self) -> Subspace:
        return _subspace(self.field, self.dim, {i: {i: 1} for i in range(self.dim0)})


def _bracket(L: GradedLieAlgebra, x, y) -> dict:
    """[x, y] for x and y given by their nonzero (index, scalar) pairs, as a
    dict of its nonzero entries."""
    return _sparse_sum(L.field.p, ((a * b, L.terms[i][j]) for i, a in x for j, b in y))


def graded_lie(field: Field, dim0: int, dim1: int, entries: Sequence) -> GradedLieAlgebra:
    """Build an algebra from nested [i][j][k] entries of ints/strings/Fractions."""
    return GradedLieAlgebra(field, dim0, dim1, entries)


def abelian_algebra(field: Field, dim0: int, dim1: int) -> GradedLieAlgebra:
    n = dim0 + dim1
    return GradedLieAlgebra(field, dim0, dim1, Nonzeros((((),) * n,) * n), _trusted=True)


def _assemble(field: Field, dim0: int, dim1: int, pairs) -> GradedLieAlgebra:
    """The trusted constructor of every algebra the library derives from
    validated input; it checks nothing.

    ``pairs`` yields (i, j, terms), each unordered pair {i, j} at most once
    and never i = j, where terms are the nonzeros (l, x) of [e_i, e_j] =
    sum x e_l, sorted by l, each x a nonzero scalar of the field.  [e_j, e_i]
    is filled in as the negative, and every other bracket is zero.  Each
    caller's construction is a graded Lie algebra by theorem when its inputs
    are valid; tests/test_trusted.py asserts that with check_graded_lie, and
    tests/test_stored_form.py that the terms are canonical.
    """
    n = dim0 + dim1
    p = field.p
    terms = [[()] * n for _ in range(n)]
    for i, j, v in pairs:
        v = tuple(v)
        if v:
            terms[i][j], terms[j][i] = v, _neg_terms(p, v)
    return GradedLieAlgebra(field, dim0, dim1, Nonzeros(tuple(map(tuple, terms))), _trusted=True)


def check_graded_lie(L: GradedLieAlgebra) -> AxiomReport:
    """Antisymmetry (char-2-safe), Jacobi on basis triples, and structural
    grading ([L_i, L_j] inside L_{i+j}, checked as zero blocks), on the
    nonzeros of the structure constants, over Q as integers over den: Jacobi
    sums the chains c[a][b][m] c[m][e] != 0 into the rotation i < j < k of (a, b, e)."""
    F, n, d0, s = L.field, L.dim, L.dim0, L.terms
    c, den = _integer_terms(F.p, s, 2)
    pairs = (((i, j), 1, v) for i in range(n) for j in range(i, n)
             if (c[i][j] or c[j][i]) and (i == j or c[j][i] != _neg_terms(F.p, c[i][j]))
             for v in ((c[i][i],) if i == j else (c[i][j], c[j][i])))
    bad = [AxiomViolation("alternating" if i == j else "antisymmetry", (i, j), d)
           for (i, j), d in _defects(F, n, den, pairs)]
    bad += [AxiomViolation("grading", (i, j, k), (x,)) for i, row in enumerate(s)
            for j, v in enumerate(row) if v for k, x in v if (k >= d0) != ((i >= d0) != (j >= d0))]
    brackets = [[(e, v) for e, v in enumerate(row) if v] for row in c]
    jacobi = ((ix, w, v) for a, row in enumerate(brackets) for b, cab in row for m, w in cab
              for e, v in brackets[m] for ix in _cyclic_keys(a, b, e, True))
    bad += [AxiomViolation("jacobi", ix, d) for ix, d in _defects(F, n, den * den, jacobi)]
    return AxiomReport(not bad, tuple(bad))


def is_graded_hom(matrix: Matrix, source: GradedLieAlgebra, target: GradedLieAlgebra) -> bool:
    """Block structure phi(L_i) in K_i plus the hom law on basis pairs."""
    _check_hom_matrix(matrix, source, target)
    if any(source.degree(j) != target.degree(i) for i, row in enumerate(matrix.terms) for j, _ in row):
        return False
    p = matrix.field.p
    cols = matrix.transpose().terms
    for i in range(source.dim):
        for j in range(source.dim):
            lhs = _sparse_sum(p, ((x, cols[l]) for l, x in source.terms[i][j]))
            if lhs != _bracket(target, cols[i], cols[j]):
                return False
    return True


class GradedHom(Hom, Record):
    source: GradedLieAlgebra
    target: GradedLieAlgebra
    matrix: Matrix  # target.dim x source.dim, block structure w.r.t. gradings
    _law = staticmethod(lambda *hom: is_graded_hom(*hom))  # looked up by name at each call
    _refusal = "matrix is not a graded Lie algebra homomorphism"

    def kernel(self) -> Subspace:
        return kernel_basis(self.matrix)


def identity_hom(L: GradedLieAlgebra) -> GradedHom:
    return GradedHom(L, L, Matrix.identity(L.field, L.dim), _trusted=True)


class GradedModule(Record):
    """A graded module, given by the action of each algebra basis vector."""

    algebra: GradedLieAlgebra
    dim0: int
    dim1: int
    terms: Nonzeros  # terms[i][c] = the nonzeros (r, x) of e_i . m_c, column c of action i

    def __init__(self, algebra: GradedLieAlgebra, dim0: int, dim1: int, action: tuple, *,
                 _trusted: bool = False):
        """action: the (dim0+dim1)-square Matrix of each e_i, or the Nonzeros of their columns."""
        m = dim0 + dim1
        if type(action) is not Nonzeros:
            if any(not isinstance(a, Matrix) for a in _array(action)):
                raise ValueError("expected a Matrix for each action")
            if any((a.rows, a.cols) != (m, m) for a in action):
                raise ValueError("action shape mismatch")
            if any(a.field != algebra.field for a in action):
                raise ValueError("action field mismatch")
            action = Nonzeros(tuple(a.transpose().terms for a in action))
        terms = _as_nonzeros(action, (algebra.dim, m, m))
        if terms is None:
            raise ValueError("action shape mismatch")
        Record.__init__(self, algebra, dim0, dim1, terms)
        if _trusted:
            return
        p = algebra.field.p
        act, br = self.terms, algebra.terms
        for i in range(algebra.dim):
            gi = algebra.degree(i)
            wrong = [(r, c) for c, col in enumerate(act[i]) for r, _ in col
                     if self.degree(r) != (gi + self.degree(c)) % 2]
            if wrong:
                r, c = min(wrong)
                raise ValueError(f"module grading violated at action[{i}][{r}][{c}]")
        # [e_i, e_j] acts as e_i e_j - e_j e_i, column by column; every term is zero at a
        # pair with an empty bracket and a zero action on either side
        idle = [not any(a) for a in act]
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                if (br[i][j] or not (idle[i] or idle[j])) and any(_sparse_sum(p, chain(
                        ((w, act[l][c]) for l, w in br[i][j]),
                        ((-x, act[i][r]) for r, x in act[j][c]),
                        ((x, act[j][r]) for r, x in act[i][c]))) for c in range(m)):
                    raise ValueError(f"not a representation: fails at basis pair ({i}, {j})")

    @property
    def action(self) -> tuple:
        """The action matrices, derived from terms: action[i] is the matrix of e_i."""
        F, m = self.algebra.field, self.dim
        return tuple(Matrix.from_cols(F, Nonzeros(a), rows=m) for a in self.terms)

    @property
    def dim(self) -> int:
        return self.dim0 + self.dim1

    def degree(self, r: int) -> int:
        return 0 if r < self.dim0 else 1

    def is_trivial(self) -> bool:
        return not any(col for a in self.terms for col in a)


def trivial_module(L: GradedLieAlgebra, dim0: int = 1) -> GradedModule:
    """Trivial module with trivial grading (no odd part)."""
    return GradedModule(L, dim0, 0, Nonzeros((((),) * dim0,) * L.dim), _trusted=True)


def adjoint_module(L: GradedLieAlgebra) -> GradedModule:
    """L acting on itself: column c of the action of e_i is [e_i, e_c].  The grading holds as L's
    does, and the representation law is L's Jacobi identity, so the module is built unchecked."""
    return GradedModule(L, L.dim0, L.dim1, L.terms, _trusted=True)


def is_generated_by_odd(L: GradedLieAlgebra) -> bool:
    """Whether L_1 generates L, decided as [L_1, L_1] = L_0 by one echelon of the brackets
    [e_i, e_j], i < j odd, stopped at rank dim L_0.  L_1 generates L_1 + [L_1, L_1], as that
    is closed: [L_1, [L_1, L_1]] lies in L_1 by the grading, and by Jacobi [[a, b], [c, d]] =
    [[[a, b], c], d] + [c, [[a, b], d]] in [L_1, L_1]."""
    d, n = L.dim0, L.dim
    rows = [dict(L.terms[i][j]) for i in range(d, n) for j in range(i + 1, n)]
    return _span(L.field, d, rows).dim == d  # the rows lie in L_0: the echelon stops at rank d


def center(L: GradedLieAlgebra) -> Subspace:
    """{z : [z, e_j] = 0 for all j}, the kernel of the stacked ad matrices:
    row (j, l) holds coordinate l of each [e_i, e_j]."""
    rows = _transposed((((j, l), x) for j, v in enumerate(row) for l, x in v) for row in L.terms)
    return kernel_of_rows(L.field, L.dim, rows.values())


def _central(L: GradedLieAlgebra, Z: Subspace) -> bool:
    """Whether Z is central: [z, e_j] = sum_i z_i [e_i, e_j] = 0 for each basis vector z and each
    j, on any tensor, by one walk of the nonzero [e_i, e_j] at the i where some z is nonzero."""
    s, zs = L.terms, _transposed(Z.basis.terms)  # zs[i] = {k: z_i of basis vector k}
    return not _sparse_sum(L.field.p, ((x, (((k, j, l), y) for l, y in v))
                                       for i, zi in zs.items() if any(s[i])
                                       for j, v in compress(enumerate(s[i]), s[i]) for k, x in zi.items()))


class NotCentral0Extension(Refusal):
    pass


class CentralExtensionProblem(Record):
    """A central 0-extension: a surjective graded hom whose kernel is even and central."""

    phi: GradedHom
    kernel: Subspace

    @classmethod
    def from_hom(cls, phi: GradedHom) -> "CentralExtensionProblem":
        ker = phi.kernel()
        if phi.source.dim - ker.dim != phi.target.dim:  # rank-nullity
            raise NotCentral0Extension("the hom is not surjective")
        if any(i >= phi.source.dim0 for z in ker.basis.terms for i, _ in z):
            raise NotCentral0Extension("the kernel is not contained in the even part")
        if not _central(phi.source, ker):
            raise NotCentral0Extension("the kernel is not central")
        return cls(phi, ker)


def direct_sum(K: GradedLieAlgebra, U: GradedLieAlgebra) -> GradedLieAlgebra:
    """Componentwise bracket; (K + U)_i = K_i + U_i with even-first reindexing."""
    if K.field != U.field:
        raise ValueError("field mismatch")
    dim0, dim1 = K.dim0 + U.dim0, K.dim1 + U.dim1
    # each summand's basis, even-first, at its place in the even-first sum
    k_index = list(range(K.dim0)) + [dim0 + a for a in range(K.dim1)]
    u_index = [K.dim0 + j for j in range(U.dim0)] + [dim0 + K.dim1 + b for b in range(U.dim1)]
    return _assemble(K.field, dim0, dim1, (
        (index[i], index[j], ((index[l], x) for l, x in A.terms[i][j]))
        for A, index in ((K, k_index), (U, u_index))
        for i in range(A.dim) for j in range(i + 1, A.dim)))


def central_quotient(L: GradedLieAlgebra, ideal: Subspace):
    """Quotient by a central ideal contained in the even part, with the
    projection hom; the projection's kernel is exactly the ideal."""
    if ideal.ambient_dim != L.dim:
        raise ValueError("ideal ambient mismatch")
    if ideal.field != L.field:
        raise ValueError("ideal field mismatch")
    if any(i >= L.dim0 for z in ideal.basis.terms for i, _ in z):
        raise ValueError("ideal is not contained in the even part")
    if not _central(L, ideal):
        raise ValueError("ideal is not central")
    projection = quotient(L.dim, ideal)
    F = L.field
    new_dim0 = L.dim0 - ideal.dim
    # pivots of the ideal sit in even columns, so the free columns stay ordered
    # even-then-odd and the quotient inherits dims (dim0 - dim I, dim1); its
    # basis vector s is the coset of the unit vector at free[s].
    pivots = set(ideal.pivots)
    free = [c for c in range(L.dim) if c not in pivots]
    cols = projection.transpose().terms
    Q = _assemble(F, new_dim0, L.dim1, (
        (s, t, _combination(F.p, ((x, cols[l]) for l, x in L.terms[free[s]][free[t]])))
        for s in range(len(free)) for t in range(s + 1, len(free))))
    return Q, GradedHom(L, Q, projection, _trusted=True)


def restrict_hom_to_odd(phi: GradedHom) -> LtsHom:
    """Odd-odd block of a graded hom, as a triple-system homomorphism."""
    from .lts import LtsHom, odd_part_lts
    F = phi.matrix.field
    src, tgt = phi.source, phi.target
    block = Nonzeros(tuple(tuple((c - src.dim0, x) for c, x in row if c >= src.dim0)
                           for row in phi.matrix.terms[tgt.dim0:]))
    return LtsHom(odd_part_lts(src), odd_part_lts(tgt), Matrix(F, tgt.dim1, src.dim1, block),
                  _trusted=True)

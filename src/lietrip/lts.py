"""Lie triple systems presented by structure constants.

A system of dimension n is the tensor t with [e_i, e_j, e_k] =
sum_l t[i][j][k][l] e_l.  The axioms are verified on basis tuples only,
which suffices by multilinearity:

  (1) alternation in the first two slots, stored char-2-safely as both
      t[i][i][k] = 0 and the polarized form t[i][j][k] + t[j][i][k] = 0;
  (2) the cyclic sum t[i][j][k] + t[j][k][i] + t[k][i][j] = 0;
  (3) the five-variable identity making each [a,b,-] act as a derivation.

Constructors run the checker and refuse invalid tensors unless an
explicit ``unchecked`` flag is passed (needed to store intentionally
broken systems for negative tests).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .exactlin import (
    Field, Matrix, Record, Subspace, Vector, kernel_of_rows, linear_combination,
    mat_from_flat, nonzeros, unit_vec, vec_add, vec_from_sums, vec_is_zero,
)


class LtsAxiomError(ValueError):
    def __init__(self, report: "LtsAxiomReport"):
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"not a Lie triple system: {len(report.violations)} violation(s), "
            f"first is {first.identity} at basis tuple {first.indices}")


class AxiomViolation(Record):
    identity: str
    indices: tuple
    defect: Vector


class LtsAxiomReport(Record):
    ok: bool
    violations: tuple


class LieTripleSystem(Record):
    field: Field
    dim: int
    triple: tuple  # triple[i][j][k] = coordinates of [e_i, e_j, e_k]

    def __init__(self, field: Field, dim: int, triple: tuple, unchecked: bool = False):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "triple", triple)
        n = self.dim
        if len(self.triple) != n or any(
                len(ti) != n or any(len(tij) != n or any(len(v) != n for v in tij) for tij in ti)
                for ti in self.triple):
            raise ValueError("triple tensor shape does not match dim")
        if not unchecked:
            report = check_lts_axioms(self)
            if not report.ok:
                raise LtsAxiomError(report)

    def basis_bracket(self, i: int, j: int, k: int) -> Vector:
        return self.triple[i][j][k]


def lie_triple_system(field: Field, entries: Sequence, *, unchecked: bool = False) -> LieTripleSystem:
    """Build a system from nested [i][j][k][l] entries of ints/strings/Fractions."""
    n = len(entries)
    tensor = tuple(
        tuple(tuple(tuple(field.of(x) for x in vec) for vec in tij) for tij in ti)
        for ti in entries)
    return LieTripleSystem(field, n, tensor, unchecked=unchecked)


def triple_bracket(T: LieTripleSystem, a: Vector, b: Vector, c: Vector) -> Vector:
    """Trilinear extension of the structure tensor to arbitrary vectors."""
    n = T.dim
    if len(a) != n or len(b) != n or len(c) != n:
        raise ValueError("vector dimension mismatch")
    t = T.triple
    nb, nc = nonzeros(b), nonzeros(c)
    return linear_combination(T.field, n, (
        (x * y * z, t[i][j][k]) for i, x in nonzeros(a) for j, y in nb for k, z in nc))


def _nonzero_view(T: LieTripleSystem) -> tuple[list, int]:
    """nz[a][b][c] lists the (u, x) with x = den * t[a][b][c][u] != 0.

    Over F_p den is 1 and x the residue; over Q den is the common
    denominator of all entries, so x is a plain int either way.
    """
    den = 1
    if T.field.is_rational:
        den = lcm(*(x.denominator for ti in T.triple for tij in ti for v in tij for x in v))
    return [[[[(u, x.numerator * (den // x.denominator)) for u, x in enumerate(v) if x]
              for v in tij] for tij in ti] for ti in T.triple], den


def check_lts_axioms(T: LieTripleSystem) -> LtsAxiomReport:
    """Verify the three defining identities (plus the polarized form of the
    first) on all basis tuples and report every violation with a witness."""
    F = T.field
    n = T.dim
    t = T.triple
    bad = []

    for i in range(n):
        for k in range(n):
            if not vec_is_zero(F, t[i][i][k]):
                bad.append(AxiomViolation("alternating", (i, i, k), t[i][i][k]))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                d = vec_add(F, t[i][j][k], t[j][i][k])
                if not vec_is_zero(F, d):
                    bad.append(AxiomViolation("polarized-alternating", (i, j, k), d))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = vec_add(F, vec_add(F, t[i][j][k], t[j][k][i]), t[k][i][j])
                if not vec_is_zero(F, d):
                    bad.append(AxiomViolation("cyclic", (i, j, k), d))

    # [e_i,e_j,[e_k,e_l,e_m]] = [[e_i,e_j,e_k],e_l,e_m] + [e_k,[e_i,e_j,e_l],e_m]
    #                           + [e_k,e_l,[e_i,e_j,e_m]],
    # each term a sum of products of two structure constants, taken over
    # nonzeros only; the defect is an integer multiple of 1/den^2.
    nz, den = _nonzero_view(T)
    den2 = den * den
    p = F.p
    for i in range(n):
        ti = nz[i]
        for j in range(n):
            tij = ti[j]
            if not any(tij):
                continue  # every term carries a factor t[i][j][.]
            for k in range(n):
                tijk = tij[k]
                tk = nz[k]
                for l in range(n):
                    tijl = tij[l]
                    tkl = tk[l]
                    for m in range(n):
                        acc = {}
                        for u, x in tkl[m]:
                            for v, y in tij[u]:
                                acc[v] = acc.get(v, 0) + x * y
                        for u, x in tijk:
                            for v, y in nz[u][l][m]:
                                acc[v] = acc.get(v, 0) - x * y
                        for u, x in tijl:
                            for v, y in tk[u][m]:
                                acc[v] = acc.get(v, 0) - x * y
                        for u, x in tij[m]:
                            for v, y in tkl[u]:
                                acc[v] = acc.get(v, 0) - x * y
                        if p is not None:
                            acc = {v: c % p for v, c in acc.items()}
                        if any(acc.values()):
                            d = tuple(F.of(Fraction(acc.get(v, 0), den2)) for v in range(n))
                            bad.append(AxiomViolation("derivation", (i, j, k, l, m), d))
    return LtsAxiomReport(not bad, tuple(bad))


class LtsHom(Record):
    source: LieTripleSystem
    target: LieTripleSystem
    matrix: Matrix  # target.dim x source.dim

    def __init__(self, source: LieTripleSystem, target: LieTripleSystem, matrix: Matrix,
                 unchecked: bool = False):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("hom matrix shape mismatch")
        if self.matrix.field != self.source.field or self.source.field != self.target.field:
            raise ValueError("hom field mismatch")
        if not unchecked and not is_lts_hom(self.matrix, self.source, self.target):
            raise ValueError("matrix is not a homomorphism of Lie triple systems")

    def compose(self, other: "LtsHom") -> "LtsHom":
        """self . other (apply other first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        return LtsHom(other.source, self.target, self.matrix.matmul(other.matrix), unchecked=True)


def is_lts_hom(alpha: Matrix, T: LieTripleSystem, S: LieTripleSystem) -> bool:
    """True iff alpha([e_i,e_j,e_k]) = [alpha e_i, alpha e_j, alpha e_k] on all basis triples."""
    if alpha.rows != S.dim or alpha.cols != T.dim:
        raise ValueError("hom matrix shape mismatch")
    cols = [alpha.col(j) for j in range(T.dim)]
    for i in range(T.dim):
        for j in range(T.dim):
            for k in range(T.dim):
                lhs = alpha.matvec(T.triple[i][j][k])
                rhs = triple_bracket(S, cols[i], cols[j], cols[k])
                if lhs != rhs:
                    return False
    return True


def identity_lts_hom(T: LieTripleSystem) -> LtsHom:
    return LtsHom(T, T, Matrix.identity(T.field, T.dim), unchecked=True)


def inner_derivation(T: LieTripleSystem, a: Vector, b: Vector) -> Matrix:
    """The endomorphism c -> [a, b, c], bilinear in (a, b)."""
    F = T.field
    n = T.dim
    cols = [triple_bracket(T, a, b, unit_vec(F, n, m)) for m in range(n)]
    return Matrix.from_cols(F, cols, rows=n)


class DerivationAlgebra(Record):
    """Basis of all derivations of T, closed under commutator.

    ``basis`` is the deterministic RREF kernel basis of the constraint
    system; ``bracket`` is the commutator table in that basis; ``span`` is
    the same space inside End(T) flattened to F^(n^2).
    """

    lts: LieTripleSystem
    basis: tuple           # tuple of n x n Matrix
    span: Subspace         # in F^(n^2), row-major flattening
    bracket: tuple         # bracket[a][b] = coordinates of [D_a, D_b]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, endo: Matrix) -> Optional[Vector]:
        return self.span.coordinates(endo.flatten())


def _derivation_rows(T: LieTripleSystem):
    """The rows of D[a,b,c] = [Da,b,c] + [a,Db,c] + [a,b,Dc] on all basis
    triples, as sparse integer rows {u*n + v: coefficient of D[u][v]}.

    They are read from the nonzero view, so over Q each row is den times
    the true one, which has the same kernel.
    """
    n = T.dim
    nz, _ = _nonzero_view(T)
    for i in range(n):
        nzi = nz[i]
        for j in range(n):
            nzij = nzi[j]
            for k in range(n):
                rows = [{} for _ in range(n)]  # rows[l]: component l of the defect
                for m, x in nzij[k]:
                    for l in range(n):
                        rows[l][l * n + m] = x
                for u in range(n):
                    for cols, col in ((nz[u][j][k], u * n + i), (nzi[u][k], u * n + j),
                                      (nzij[u], u * n + k)):
                        for l, x in cols:
                            row = rows[l]
                            row[col] = row.get(col, 0) - x
                yield from (row for row in rows if row)


def derivation_algebra(T: LieTripleSystem) -> DerivationAlgebra:
    """Solve the linear system D[a,b,c] = [Da,b,c] + [a,Db,c] + [a,b,Dc]
    over the n^2 unknown entries of D, on all basis triples."""
    F = T.field
    n = T.dim
    span = kernel_of_rows(F, n * n, _derivation_rows(T))
    flats = span.basis.entries
    rows = [_sparse_rows(v, n) for v in flats]
    # [D_b, D_a] = -[D_a, D_b]: each unordered pair is computed once
    zero = (F.zero(),) * len(flats)
    table = [[zero] * len(flats) for _ in flats]
    for a in range(len(flats)):
        for b in range(a + 1, len(flats)):
            coords = span.coordinates(_commutator(F, n, rows[a], rows[b]))
            if coords is None:
                raise RuntimeError("derivation algebra not closed under commutator")
            table[a][b] = coords
            table[b][a] = tuple(F.neg(x) for x in coords)
    basis = tuple(mat_from_flat(F, v, n, n) for v in flats)
    return DerivationAlgebra(T, basis, span, tuple(tuple(row) for row in table))


def _sparse_rows(flat: Vector, n: int) -> list:
    """The (column, entry) nonzeros of each row of a row-major flat n x n matrix."""
    return [nonzeros(flat[r * n:(r + 1) * n]) for r in range(n)]


def _commutator(F: Field, n: int, x: list, y: list) -> Vector:
    """XY - YX, flattened row-major, for X and Y given by their sparse rows."""
    acc = [0] * (n * n)
    for r in range(n):
        base = r * n
        for k, a in x[r]:
            for s, b in y[k]:
                acc[base + s] += a * b
        for k, a in y[r]:
            for s, b in x[k]:
                acc[base + s] -= a * b
    return vec_from_sums(F, acc)


class IdealClosureCertificate(Record):
    """Record that the inner derivations form an ideal of the derivation
    algebra: [D, D_{a,b}] = D_{Da,b} + D_{a,Db} holds and stays in the span."""

    ok: bool
    checked_pairs: int
    failures: tuple


class InnerDerivations(Record):
    lts: LieTripleSystem
    span: Subspace  # in F^(n^2)
    certificate: IdealClosureCertificate

    @property
    def dim(self) -> int:
        return self.span.dim

    def basis_matrices(self) -> tuple:
        n = self.lts.dim
        return tuple(mat_from_flat(self.lts.field, v, n, n) for v in self.span.basis.entries)


def inner_derivation_algebra(T: LieTripleSystem, der: Optional[DerivationAlgebra] = None) -> InnerDerivations:
    F = T.field
    n = T.dim
    # flat[u][v]: D_{u,v} = [e_u, e_v, -] flattened row-major; its column m is t[u][v][m]
    flat = [[tuple(tuv[m][r] for r in range(n) for m in range(n)) for tuv in tu]
            for tu in T.triple]
    flat_nz = [[nonzeros(f) for f in fu] for fu in flat]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    span = Subspace.span(F, n * n, [flat[i][j] for i, j in pairs])
    if der is None:
        der = derivation_algebra(T)
    pair_rows = [_sparse_rows(flat[i][j], n) for i, j in pairs]
    failures = []
    checked = 0
    for d in der.basis:
        e = d.entries
        d_rows = [nonzeros(r) for r in e]
        for (i, j), dij in zip(pairs, pair_rows):
            checked += 1
            comm = _commutator(F, n, d_rows, dij)
            # [D, D_{i,j}] = D_{De_i, e_j} + D_{e_i, De_j}, expanded bilinearly
            acc = [0] * (n * n)
            for u in range(n):
                for c, terms in ((e[u][i], flat_nz[u][j]), (e[u][j], flat_nz[i][u])):
                    if c:
                        for k, x in terms:
                            acc[k] += c * x
            if comm != vec_from_sums(F, acc) or not span.contains(comm):
                failures.append((i, j))
    return InnerDerivations(T, span, IdealClosureCertificate(not failures, checked, tuple(failures)))


def _check_lie_tensor(field: Field, bracket: tuple) -> None:
    """Raise unless the n x n x n tensor defines a Lie algebra.

    Pairs and triples are scanned in lexicographic order, but only the
    sorted ones: the pair (i, j) is the same test as (j, i), and once the
    bracket is alternating on the basis the Jacobiator is alternating in
    any characteristic, so the first failing triple is a sorted one.
    """
    F = field
    n = len(bracket)
    for i in range(n):
        if not vec_is_zero(F, bracket[i][i]):
            raise ValueError(f"not a Lie algebra: [e_{i}, e_{i}] != 0")
        for j in range(i + 1, n):
            if not vec_is_zero(F, vec_add(F, bracket[i][j], bracket[j][i])):
                raise ValueError(f"not a Lie algebra: antisymmetry fails at ({i}, {j})")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = linear_combination(F, n, (
                    (wm, bracket[m][c]) for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j))
                    for m, wm in enumerate(bracket[a][b]) if wm))
                if not vec_is_zero(F, acc):
                    raise ValueError(f"not a Lie algebra: Jacobi fails at ({i}, {j}, {k})")


def lts_of_lie(algebra, field: Optional[Field] = None) -> LieTripleSystem:
    """The full algebra as a triple system under [a,b,c] = [[a,b],c].

    Accepts a graded Lie algebra (grading ignored) or a raw n x n x n
    bracket tensor together with its field.
    """
    if field is None:
        field = algebra.field
        bracket = algebra.bracket
    else:
        bracket = tuple(tuple(tuple(field.of(x) for x in v) for v in row) for row in algebra)
    _check_lie_tensor(field, bracket)
    F = field
    n = len(bracket)
    tensor = tuple(tuple(tuple(
        linear_combination(F, n, ((cm, bracket[m][k]) for m, cm in enumerate(bracket[i][j]) if cm))
        for k in range(n)) for j in range(n)) for i in range(n))
    return LieTripleSystem(F, n, tensor)


def odd_part_lts(L) -> LieTripleSystem:
    """The odd component of a graded Lie algebra as a triple system under
    [a,b,c] = [[a,b],c] (which lands back in the odd part)."""
    F = L.field
    n0, n1 = L.dim0, L.dim1
    n = n0 + n1
    tensor = []
    for a in range(n1):
        ta = []
        for b in range(n1):
            tab = []
            for c in range(n1):
                acc = linear_combination(F, n, (
                    (wm, L.bracket[m][n0 + c])
                    for m, wm in enumerate(L.bracket[n0 + a][n0 + b]) if wm))
                if any(acc[:n0]):
                    raise ValueError("grading violated: [[odd,odd],odd] left the odd part")
                tab.append(acc[n0:])
            ta.append(tuple(tab))
        tensor.append(tuple(ta))
    return LieTripleSystem(F, n1, tuple(tensor))

"""Lie triple systems presented by structure constants.

A system of dimension n is the tensor t with [e_i, e_j, e_k] =
sum_l t[i][j][k][l] e_l.  The axioms are verified on basis tuples only,
which suffices by multilinearity:

  (1) alternation in the first two slots, stored char-2-safely as both
      t[i][i][k] = 0 and the polarized form t[i][j][k] + t[j][i][k] = 0;
  (2) the cyclic sum t[i][j][k] + t[j][k][i] + t[k][i][j] = 0;
  (3) the five-variable identity making each [a,b,-] act as a derivation.

When (1) holds, the defect of (2) is alternating in all three indices and
that of (3) in (i, j) and in (k, l): only the canonical tuples i < j < k,
resp. i < j and k < l, are computed, every other defect is read off by sign
(a repeated pair gives zero).  When (1) fails, the loops take every tuple.

On the canonical path (3) is checked first at the pairs i < j whose D_{i,j}
= [e_i, e_j, -] enlarge an exact echelon of their flats, a basis of Inder(T):
the defect of (3) at (i, j, k, l, m) is linear in D_{i,j}, so it vanishes at
every pair once it vanishes at a basis.  On any defect every pair is scanned.

Constructors run the checker and refuse invalid tensors unless an
explicit ``unchecked`` flag is passed (needed to store intentionally
broken systems for negative tests).  Systems derived from validated input
(``lts_of_lie``, ``odd_part_lts``) are built by ``_assemble_lts``, which
checks nothing.

Der(T) and Inder(T) are both ``DerivationAlgebra`` records built by one
routine; Inder(T) is read from the tensor alone, and that it is an ideal
of Der(T) is checked apart, by ``ideal_closure_certificate``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .exactlin import (
    Field, Matrix, Record, Subspace, Vector, _echelon, _integer_rows, _reduce, _subspace,
    kernel_of_rows, linear_combination, mat_from_flat, nonzeros, unit_vec, vec_add,
    vec_from_sums, vec_is_zero, zero_vec,
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
        Record.__init__(self, field, dim, triple)
        n = self.dim
        if len(self.triple) != n or any(
                len(ti) != n or any(len(tij) != n or any(len(v) != n for v in tij) for tij in ti)
                for ti in self.triple):
            raise ValueError("triple tensor shape does not match dim")
        if not unchecked:
            report = check_lts_axioms(self)
            if not report.ok:
                raise LtsAxiomError(report)


def lie_triple_system(field: Field, entries: Sequence, *, unchecked: bool = False) -> LieTripleSystem:
    """Build a system from nested [i][j][k][l] entries of ints/strings/Fractions."""
    n = len(entries)
    tensor = tuple(
        tuple(tuple(tuple(map(field.of, vec)) for vec in tij) for tij in ti)
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
    rows, den = _integer_rows(T.field.p, [dict(nonzeros(v)) for ti in T.triple for tij in ti for v in tij])
    rows = iter(list(r.items()) for r in rows)
    return [[[next(rows) for _ in tij] for tij in ti] for ti in T.triple], den


# The tuples a canonical tuple stands for: index permutations, each with its sign.
_CYCLIC_ORBIT = (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1))
_DERIVATION_ORBIT = (((0, 1, 2, 3, 4), 1), ((0, 1, 3, 2, 4), -1), ((1, 0, 2, 3, 4), -1), ((1, 0, 3, 2, 4), 1))


def _spread(F: Field, identity: str, found, orbit: tuple) -> list:
    """The violations of one identity in lexicographic order: for each found
    (indices, defect) with a nonzero defect, every tuple of its orbit, with
    the defect times the sign of the permutation."""
    out = [(tuple(indices[q] for q in perm), d if sign > 0 else tuple(F.neg(x) for x in d))
           for indices, d in found if not vec_is_zero(F, d) for perm, sign in orbit]
    return [AxiomViolation(identity, ix, d) for ix, d in sorted(out, key=lambda v: v[0])]


def _derivation_defects(F: Field, nz: list, den: int, pairs: list, canonical: bool) -> list:
    """((i, j, k, l, m), defect) for each nonzero defect of (3) at the (i, j) of
    pairs, from the nonzero view; on the canonical path only at k < l.
    [e_i,e_j,[e_k,e_l,e_m]] = [[e_i,e_j,e_k],e_l,e_m] + [e_k,[e_i,e_j,e_l],e_m]
    + [e_k,e_l,[e_i,e_j,e_m]], each term a sum of products of two structure
    constants over nonzeros only; the defect is an integer multiple of 1/den^2."""
    n = len(nz)
    found = []
    for i, j in pairs:
        tij = nz[i][j]
        if not any(tij):
            continue  # every term carries a factor t[i][j][.]
        for k in range(n):
            tijk = tij[k]
            tk = nz[k]
            for l in range(k + 1 if canonical else 0, n):
                tijl = tij[l]
                tkl = tk[l]
                for m in range(n):
                    acc = [0] * n
                    for u, x in tkl[m]:
                        for v, y in tij[u]:
                            acc[v] += x * y
                    for u, x in tijk:
                        for v, y in nz[u][l][m]:
                            acc[v] -= x * y
                    for u, x in tijl:
                        for v, y in tk[u][m]:
                            acc[v] -= x * y
                    for u, x in tij[m]:
                        for v, y in tkl[u]:
                            acc[v] -= x * y
                    if any(acc) and (F.p is None or any(c % F.p for c in acc)):
                        found.append(((i, j, k, l, m), tuple(F.of(Fraction(c, den * den)) for c in acc)))
    return found


def check_lts_axioms(T: LieTripleSystem) -> LtsAxiomReport:
    """Verify the three defining identities (plus the polarized form of the
    first) on all basis tuples and report every violation with a witness."""
    F = T.field
    n = T.dim
    t = T.triple
    bad = [AxiomViolation("alternating", (i, i, k), t[i][i][k])
           for i in range(n) for k in range(n) if not vec_is_zero(F, t[i][i][k])]
    polar = (((i, j, k), vec_add(F, t[i][j][k], t[j][i][k]))
             for i in range(n) for j in range(i + 1, n) for k in range(n))
    bad += [AxiomViolation("polarized-alternating", ix, d) for ix, d in polar if not vec_is_zero(F, d)]

    canonical = not bad  # when t is alternating, canonical tuples suffice (see the module docstring)
    orbits = slice(None if canonical else 1)  # off the canonical path a tuple is itself only
    cyclic = (((i, j, k), vec_add(F, vec_add(F, t[i][j][k], t[j][k][i]), t[k][i][j]))
              for i in range(n) for j in range(i + 1 if canonical else 0, n)
              for k in range(j + 1 if canonical else 0, n))
    bad += _spread(F, "cyclic", cyclic, _CYCLIC_ORBIT[orbits])

    nz, den = _nonzero_view(T)
    if canonical:  # (3) first at the pairs that span Inder(T), see the module docstring
        pairs, _, picked = _inner_span(T, lambda i, j: {l * n + m: x for m, v in enumerate(nz[i][j])
                                                         for l, x in v})
        found = _derivation_defects(F, nz, den, [pairs[q] for q in picked], True)
        if found:
            found = _derivation_defects(F, nz, den, pairs, True)
    else:
        found = _derivation_defects(F, nz, den, [(i, j) for i in range(n) for j in range(n)], False)
    bad += _spread(F, "derivation", found, _DERIVATION_ORBIT[orbits])
    return LtsAxiomReport(not bad, tuple(bad))


class LtsHom(Record):
    source: LieTripleSystem
    target: LieTripleSystem
    matrix: Matrix  # target.dim x source.dim

    def __init__(self, source: LieTripleSystem, target: LieTripleSystem, matrix: Matrix,
                 unchecked: bool = False):
        Record.__init__(self, source, target, matrix)
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
    """A bracket-closed space of derivations of T: Der(T) or Inder(T).

    ``span`` is the space inside End(T) flattened row-major to F^(n^2),
    with its deterministic RREF basis; ``basis`` is that basis as n x n
    matrices and ``bracket`` the commutator table in it.
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
    """The rows of D[a,b,c] = [Da,b,c] + [a,Db,c] + [a,b,Dc] on the basis
    triples (i, j, k) with i < j, as sparse integer rows {u*n + v: coefficient
    of D[u][v]}: T is alternating, so (j, i, k) gives the same rows negated
    and (i, i, k) zero rows.

    They are read from the nonzero view, so over Q each row is den times
    the true one, which has the same kernel.
    """
    n = T.dim
    nz, _ = _nonzero_view(T)
    for i in range(n):
        nzi = nz[i]
        for j in range(i + 1, n):
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


def _derivations(T: LieTripleSystem, span: Subspace) -> DerivationAlgebra:
    """The algebra on a bracket-closed span of endomorphisms of T.  Over Q the
    commutators are taken in integers, of the basis times its common denominator."""
    F = T.field
    n = T.dim
    flats = span.basis.entries
    ints, den = _integer_rows(F.p, [dict(nonzeros(v)) for v in flats])
    echelon = dict(zip(span.pivots, ints))  # each row den at its pivot, 0 at the others
    rows = [_sparse_rows(v, n) for v in ints]
    # [D_b, D_a] = -[D_a, D_b]: each unordered pair is computed once
    zero = (F.zero(),) * len(flats)
    table = [[zero] * len(flats) for _ in flats]
    for a in range(len(flats)):
        for b in range(a + 1, len(flats)):
            comm = _commutator(n, rows[a], rows[b])
            v = dict(nonzeros(comm if F.p is None else vec_from_sums(F, comm)))
            coords = tuple(Fraction(v.get(c, 0), den * den) if F.p is None else v.get(c, 0)
                           for c in span.pivots)
            if _reduce(v, echelon, F.p):
                raise RuntimeError("derivations not closed under commutator")
            table[a][b] = coords
            table[b][a] = tuple(F.neg(x) for x in coords)
    basis = tuple(mat_from_flat(F, v, n, n) for v in flats)
    return DerivationAlgebra(T, basis, span, tuple(tuple(row) for row in table))


def derivation_algebra(T: LieTripleSystem) -> DerivationAlgebra:
    """Der(T): solve the linear system D[a,b,c] = [Da,b,c] + [a,Db,c] +
    [a,b,Dc] over the n^2 unknown entries of D, on the basis triples with a < b."""
    return _derivations(T, kernel_of_rows(T.field, T.dim ** 2, _derivation_rows(T)))


def _sparse_rows(flat: dict, n: int) -> list:
    """The (column, entry) nonzeros of each row of a row-major flat n x n matrix {index: entry}."""
    return [[(k - r * n, x) for k, x in flat.items() if r * n <= k < r * n + n] for r in range(n)]


def _commutator(n: int, x: list, y: list) -> list:
    """XY - YX, flattened row-major, as plain sums of products, for X and Y
    given by their sparse rows."""
    acc = [0] * (n * n)
    for r in range(n):
        base = r * n
        for k, a in x[r]:
            for s, b in y[k]:
                acc[base + s] += a * b
        for k, a in y[r]:
            for s, b in x[k]:
                acc[base + s] -= a * b
    return acc


def _inner_flats(T: LieTripleSystem) -> list:
    """flat[u][v] = D_{e_u,e_v} = [e_u, e_v, -] flattened row-major, read
    from the tensor: its column m is t[u][v][m]."""
    return [[tuple(chain.from_iterable(zip(*tuv))) for tuv in tu] for tu in T.triple]


def _inner_span(T: LieTripleSystem, flat) -> tuple[list, dict, list]:
    """The pairs i < j, the reduced echelon basis of their flats flat(i, j) (sparse
    rows of D_{e_i,e_j}, up to one common scale), a basis of Inder(T), and the
    indices of the pairs whose flats enlarged it."""
    n = T.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows, _ = _integer_rows(T.field.p, [flat(i, j) for i, j in pairs])
    echelon, picked = _echelon(rows, T.field.p, n * n)
    return pairs, echelon, picked


def inner_derivation_algebra(T: LieTripleSystem) -> DerivationAlgebra:
    """Inder(T), spanned by the D_{e_i,e_j} with i < j."""
    flat = _inner_flats(T)
    return _derivations(T, _subspace(T.field, T.dim ** 2,
                                     _inner_span(T, lambda i, j: dict(nonzeros(flat[i][j])))[1]))


class IdealClosureCertificate(Record):
    """Record that the inner derivations form an ideal of the derivation
    algebra: [D, D_{a,b}] = D_{Da,b} + D_{a,Db} holds and stays in the span."""

    ok: bool
    checked_pairs: int
    failures: tuple


def ideal_closure_certificate(T: LieTripleSystem) -> IdealClosureCertificate:
    """Check [D, D_{e_i,e_j}] for every basis derivation D and pair i < j."""
    F = T.field
    n = T.dim
    flat_nz = [[nonzeros(f) for f in fu] for fu in _inner_flats(T)]
    pairs, echelon, _ = _inner_span(T, lambda i, j: dict(flat_nz[i][j]))
    span = _subspace(F, n * n, echelon)
    pair_rows = [_sparse_rows(dict(flat_nz[i][j]), n) for i, j in pairs]
    failures = []
    checked = 0
    for d in derivation_algebra(T).basis:
        e = d.entries
        d_rows = [nonzeros(r) for r in e]
        for (i, j), dij in zip(pairs, pair_rows):
            checked += 1
            comm = vec_from_sums(F, _commutator(n, d_rows, dij))
            # [D, D_{i,j}] = D_{De_i, e_j} + D_{e_i, De_j}, expanded bilinearly
            acc = [0] * (n * n)
            for u in range(n):
                for c, terms in ((e[u][i], flat_nz[u][j]), (e[u][j], flat_nz[i][u])):
                    if c:
                        for k, x in terms:
                            acc[k] += c * x
            if comm != vec_from_sums(F, acc) or not span.contains(comm):
                failures.append((i, j))
    return IdealClosureCertificate(not failures, checked, tuple(failures))


def _assemble_lts(field: Field, n: int, rows) -> LieTripleSystem:
    """The trusted constructor of the systems derived from validated input;
    it checks nothing.

    ``rows`` yields (i, j, row) for each i < j, row[k] the coordinates of
    [e_i, e_j, e_k]; [e_j, e_i, -] is filled in as the negative and
    [e_i, e_i, -] as zero.  The callers' constructions are triple systems by
    theorem; tests/test_trusted.py asserts that with check_lts_axioms.
    """
    p = field.p
    zero_row = (zero_vec(field, n),) * n
    t = [[zero_row] * n for _ in range(n)]
    for i, j, row in rows:
        t[i][j] = tuple(row)
        t[j][i] = tuple(tuple(x and (-x if p is None else p - x) for x in v) for v in row)
    return LieTripleSystem(field, n, tuple(tuple(ti) for ti in t), unchecked=True)


_LIE_FAILURES = {"alternating": "[e_{0}, e_{0}] != 0",
                 "antisymmetry": "antisymmetry fails at ({0}, {1})",
                 "jacobi": "Jacobi fails at ({0}, {1}, {2})"}


def lts_of_lie(algebra, field: Optional[Field] = None) -> LieTripleSystem:
    """The full algebra as a triple system under [a,b,c] = [[a,b],c].

    Accepts a graded Lie algebra (grading ignored) or a raw n x n x n
    bracket tensor together with its field.  Either is checked as a purely
    even algebra, and the first failure is the error's message.
    """
    from .grlie import GradedLieAlgebra, GradedLieError
    if field is None:
        field = algebra.field
        bracket = algebra.bracket
    else:
        bracket = tuple(tuple(tuple(map(field.of, v)) for v in row) for row in algebra)
    F = field
    n = len(bracket)
    try:
        GradedLieAlgebra(F, n, 0, bracket)
    except GradedLieError as exc:
        family, indices, _ = exc.report.violations[0]
        raise ValueError("not a Lie algebra: " + _LIE_FAILURES[family].format(*indices)) from None
    return _assemble_lts(F, n, (
        (i, j, tuple(
            linear_combination(F, n, ((cm, bracket[m][k]) for m, cm in enumerate(bracket[i][j]) if cm))
            for k in range(n)))
        for i in range(n) for j in range(i + 1, n)))


def odd_part_lts(L) -> LieTripleSystem:
    """The odd component of a graded Lie algebra as a triple system under
    [a,b,c] = [[a,b],c] (which lands back in the odd part)."""
    F = L.field
    n0, n1 = L.dim0, L.dim1
    n = n0 + n1

    def row(a: int, b: int) -> tuple:
        out = []
        for c in range(n1):
            acc = linear_combination(F, n, (
                (wm, L.bracket[m][n0 + c])
                for m, wm in enumerate(L.bracket[n0 + a][n0 + b]) if wm))
            if any(acc[:n0]):
                raise ValueError("grading violated: [[odd,odd],odd] left the odd part")
            out.append(acc[n0:])
        return tuple(out)

    return _assemble_lts(F, n1, ((a, b, row(a, b)) for a in range(n1) for b in range(a + 1, n1)))

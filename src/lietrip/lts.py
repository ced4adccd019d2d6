"""Lie triple systems presented by structure constants.

A system of dimension n is the tensor t with [e_i, e_j, e_k] =
sum_l t[i][j][k][l] e_l, stored once as its nonzeros (``terms``, a
``Nonzeros``); the dense ``triple`` is a view derived on each read.  The
axioms are verified on basis tuples only, which suffices by multilinearity:

  (1) alternation in the first two slots, stored char-2-safely as both
      t[i][i][k] = 0 and the polarized form t[i][j][k] + t[j][i][k] = 0;
  (2) the cyclic sum t[i][j][k] + t[j][k][i] + t[k][i][j] = 0;
  (3) the five-variable identity making each [a,b,-] act as a derivation.

When (1) holds, the defect of (2) is alternating in all three indices and
that of (3) in (i, j) and in (k, l): only the canonical tuples i < j < k,
resp. i < j and k < l, are computed, every other defect is read off by sign
(a repeated pair gives zero).  When (1) fails, the loops take every tuple.

On the canonical path (3), [D, D_{k,l}] = D_{De_k,e_l} + D_{e_k,De_l} for D
= D_{i,j} (D_{k,l} = [e_k, e_l, -]), is decided in Inder(T) coordinates: it
is linear in D, and with B_1..B_r the reduced echelon basis of the flats of
the D_{k,l}, k < l, it holds iff (A) every [B_p, B_q] reduces to 0 against
it and (B) for each p and k < l, sum_s D_{k,l}[c_s] [B_p, B_s] (c_s the
pivots) and the right side at D = B_p agree at the pivots, their
coordinates in Inder(T).  If either fails, every pair i < j is scanned.

The checker returns an ``AxiomReport`` of ``AxiomViolation`` records, as
``grlie.check_graded_lie`` does, and ``AxiomError`` words the message of
either failure; the three live in ``exactlin``, which both checkers import.
The constructor refuses an invalid tensor.  Its private ``_trusted`` flag,
which skips the check, is passed only by ``_assemble_lts`` (for ``lts_of_lie``
and ``odd_part_lts``, derived from validated input), by ``abl``, valid by its
shape, and by the loader of ``check-lts``, which reports the violations.

Der(T) and Inder(T) are both ``DerivationAlgebra`` records built by one
routine; Inder(T) is read from the tensor alone, and that it is an ideal
of Der(T) is checked apart, by ``ideal_closure_certificate``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .exactlin import (
    AxiomError, AxiomReport, AxiomViolation, Field, Hom, Matrix, Nonzeros, Record, Subspace,
    Vector, _array, _as_nonzeros, _check_hom_matrix, _cyclic_keys, _defects, _echelon, _integer_rows,
    _integer_terms, _keyed_sums, _neg_terms, _reduce, _sparse_sum, _subspace, _terms_of,
    dense_tensor, kernel_of_rows, nonzeros, unit_vec,
)


class LtsAxiomError(AxiomError):
    structure, prefix = "Lie triple system", "basis tuple "


class LieTripleSystem(Record):
    field: Field
    dim: int
    terms: Nonzeros  # terms[i][j][k] = the nonzeros (l, x) of [e_i, e_j, e_k]

    def __init__(self, field: Field, dim: int, triple: tuple, *, _trusted: bool = False):
        """triple: the dense tensor (triple[i][j][k] = coordinates of [e_i, e_j, e_k]) or its Nonzeros."""
        terms = _as_nonzeros(triple, (dim,) * 4, field.of)
        if terms is None:
            raise ValueError("triple tensor shape does not match dim")
        Record.__init__(self, field, dim, terms)
        if not _trusted:
            report = check_lts_axioms(self)
            if not report.ok:
                raise LtsAxiomError(report)

    @property
    def triple(self) -> tuple:
        """The dense tensor, derived from terms: triple[i][j][k] = coordinates of [e_i, e_j, e_k]."""
        return dense_tensor(self.field, self.dim, self.terms, 3)


def lie_triple_system(field: Field, entries: Sequence) -> LieTripleSystem:
    """Build a system from nested [i][j][k][l] entries of ints/strings/Fractions."""
    return LieTripleSystem(field, len(_array(entries)), entries)


def triple_bracket(T: LieTripleSystem, a: Vector, b: Vector, c: Vector) -> Vector:
    """Trilinear extension of the structure tensor to arbitrary vectors."""
    F, n, t = T.field, T.dim, T.terms
    na, nb, nc = (nonzeros(F, n, v) for v in (a, b, c))
    return dense_tensor(F, n, _sparse_sum(F.p, (
        (x * y * z, t[i][j][k]) for i, x in na for j, y in nb for k, z in nc)).items(), 0)


# The tuples a canonical tuple stands for: index permutations, each with its sign.
_CYCLIC_ORBIT = (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1))
_DERIVATION_ORBIT = (((0, 1, 2, 3, 4), 1), ((0, 1, 3, 2, 4), -1), ((1, 0, 2, 3, 4), -1), ((1, 0, 3, 2, 4), 1))


def _spread(F: Field, identity: str, found, orbit: tuple) -> list:
    """The violations of one identity in lexicographic order: for each found
    (indices, defect), every tuple of its orbit, with the defect times the
    sign of the permutation."""
    out = [(tuple(indices[q] for q in perm), d if sign > 0 else tuple(F.neg(x) for x in d))
           for indices, d in found for perm, sign in orbit]
    return [AxiomViolation(identity, ix, d) for ix, d in sorted(out, key=lambda v: v[0])]


def _derivation_defects(F: Field, nz: list, den: int, pairs: list, canonical: bool) -> list:
    """((i, j, k, l, m), defect) for each nonzero defect of (3) at the (i, j) of
    pairs, from the nonzeros as integers; on the canonical path only at k < l.
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


def check_lts_axioms(T: LieTripleSystem) -> AxiomReport:
    """Verify the three defining identities (plus the polarized form of the
    first) on all basis tuples and report every violation with a witness."""
    F, n, p = T.field, T.dim, T.field.p
    nz, den = _integer_terms(p, T.terms, 3)
    alternating = (((i, i, k), 1, v) for i in range(n) for k, v in enumerate(nz[i][i]) if v)
    bad = [AxiomViolation("alternating", ix, d) for ix, d in _defects(F, n, den, alternating)]
    polar = (((i, j, k), 1, v) for i in range(n) for j in range(i + 1, n) for k in range(n)
             if (nz[i][j][k] or nz[j][i][k]) and nz[j][i][k] != _neg_terms(p, nz[i][j][k])
             for v in (nz[i][j][k], nz[j][i][k]))  # at the pairs not stored as negatives
    bad += [AxiomViolation("polarized-alternating", ix, d) for ix, d in _defects(F, n, den, polar)]

    canonical = not bad  # when t is alternating, canonical tuples suffice (see the module docstring)
    orbits = slice(None if canonical else 1)  # off the canonical path a tuple is itself only
    cyclic = ((ix, 1, v) for a, ta in enumerate(nz) for b, tab in enumerate(ta)
              for e, v in enumerate(tab) if v for ix in _cyclic_keys(a, b, e, canonical))
    bad += _spread(F, "cyclic", _defects(F, n, den, cyclic), _CYCLIC_ORBIT[orbits])

    if canonical:  # (3) in Inder(T) coordinates first, see the module docstring
        pairs, flats, _, echelon = _inner_span(T)
        found = [] if _derivation_identity_holds(F.p, n, pairs, flats, echelon) else (
            _derivation_defects(F, nz, den, pairs, True))
    else:
        found = _derivation_defects(F, nz, den, [(i, j) for i in range(n) for j in range(n)], False)
    bad += _spread(F, "derivation", found, _DERIVATION_ORBIT[orbits])
    return AxiomReport(not bad, tuple(bad))


class LtsHom(Hom, Record):
    source: LieTripleSystem
    target: LieTripleSystem
    matrix: Matrix  # target.dim x source.dim
    _law = staticmethod(lambda *hom: is_lts_hom(*hom))  # looked up by name at each call
    _refusal = "matrix is not a homomorphism of Lie triple systems"


def is_lts_hom(alpha: Matrix, T: LieTripleSystem, S: LieTripleSystem) -> bool:
    """True iff alpha([e_i,e_j,e_k]) = [alpha e_i, alpha e_j, alpha e_k] on all basis triples."""
    _check_hom_matrix(alpha, T, S)
    p = S.field.p
    cols = alpha.transpose().terms
    for i in range(T.dim):
        for j in range(T.dim):
            for k in range(T.dim):
                lhs = _sparse_sum(p, ((x, cols[l]) for l, x in T.terms[i][j][k]))
                rhs = _sparse_sum(p, ((x * y * z, S.terms[a][b][c]) for a, x in cols[i]
                                      for b, y in cols[j] for c, z in cols[k]))
                if lhs != rhs:
                    return False
    return True


def identity_lts_hom(T: LieTripleSystem) -> LtsHom:
    return LtsHom(T, T, Matrix.identity(T.field, T.dim), _trusted=True)


def inner_derivation(T: LieTripleSystem, a: Vector, b: Vector) -> Matrix:
    """The endomorphism c -> [a, b, c], bilinear in (a, b)."""
    return Matrix.from_cols(T.field, [triple_bracket(T, a, b, unit_vec(T.field, T.dim, m))
                                      for m in range(T.dim)], rows=T.dim)


class DerivationAlgebra(Record):
    """A bracket-closed space of derivations of T: Der(T) or Inder(T).

    ``span`` is the space inside End(T) flattened row-major to F^(n^2),
    with its deterministic RREF basis; ``basis`` is that basis as n x n
    matrices and ``terms`` the commutator table in it.
    """

    lts: LieTripleSystem
    basis: tuple           # tuple of n x n Matrix
    span: Subspace         # in F^(n^2), row-major flattening
    terms: Nonzeros        # terms[a][b] = the nonzeros (c, x) of [D_a, D_b]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def bracket(self) -> tuple:
        """The dense commutator table, derived from terms: bracket[a][b] = coordinates of [D_a, D_b]."""
        return dense_tensor(self.lts.field, self.dim, self.terms, 2)


def _derivation_rows(T: LieTripleSystem):
    """The rows of D[a,b,c] = [Da,b,c] + [a,Db,c] + [a,b,Dc] on the basis
    triples (i, j, k) with i < j, as sparse integer rows {u*n + v: coefficient
    of D[u][v]}: T is alternating, so (j, i, k) gives the same rows negated
    and (i, i, k) zero rows.

    They are read from the nonzeros as integers, so over Q each row is den times
    the true one, which has the same kernel.
    """
    n = T.dim
    nz, _ = _integer_terms(T.field.p, T.terms, 3)
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
    flats = span.basis.terms
    ints, den = _integer_rows(F.p, [dict(v) for v in flats])
    table = _commutator_coordinates(F.p, n, span.pivots, ints)
    if table is None:
        raise RuntimeError("derivations not closed under commutator")
    basis = tuple(Matrix(F, n, n, _flat_rows(v, n)) for v in flats)
    return DerivationAlgebra(T, basis, span, Nonzeros(
        tuple(tuple(_terms_of(F.p, c, den * den) for c in row) for row in table)))


def _commutator_coordinates(p: Optional[int], n: int, pivots: Sequence, ints: list) -> Optional[list]:
    """table[a][b] = [R_a, R_b] at the pivots, {q: x}, for integer rows R_a
    (n x n, row-major) each d at its pivot and 0 at the other pivots: d^2 times
    the coordinates of [R_a / d, R_b / d].  None if one leaves the span."""
    table = [[{}] * len(ints) for _ in ints]
    if len(ints) < 2:
        return table  # no commutator to take
    echelon = dict(zip(pivots, ints))
    rows = [_flat_rows(v.items(), n) for v in ints]
    # [R_b, R_a] = -[R_a, R_b]: each unordered pair is computed once
    for a in range(len(ints)):
        for b in range(a + 1, len(ints)):
            v = _commutator(p, rows[a], rows[b])
            table[a][b] = coords = {q: v[c] for q, c in enumerate(pivots) if c in v}
            table[b][a] = {q: -x for q, x in coords.items()}
            if _reduce(v, echelon, p):
                return None
    return table


def derivation_algebra(T: LieTripleSystem) -> DerivationAlgebra:
    """Der(T): solve the linear system D[a,b,c] = [Da,b,c] + [a,Db,c] +
    [a,b,Dc] over the n^2 unknown entries of D, on the basis triples with a < b."""
    return _derivations(T, kernel_of_rows(T.field, T.dim ** 2, _derivation_rows(T)))


def _flat_rows(flat, n: int) -> Nonzeros:
    """The (column, entry) nonzeros of each row of the n x n matrix whose
    row-major flattening has the nonzero (index, entry) pairs flat, in their order."""
    rows = [[] for _ in range(n)]
    for k, x in flat:
        rows[k // n].append((k % n, x))
    return Nonzeros(map(tuple, rows))


def _commutator(p: Optional[int], x, y) -> dict:
    """XY - YX, flattened row-major, as a dict of its nonzero entries (reduced
    mod p), for X and Y given by their sparse rows."""
    n = len(x)
    acc = [0] * (n * n)
    for r in range(n):
        base = r * n
        for k, a in x[r]:
            for s, b in y[k]:
                acc[base + s] += a * b
        for k, a in y[r]:
            for s, b in x[k]:
                acc[base + s] -= a * b
    if p is None:
        return {j: v for j, v in enumerate(acc) if v}
    return {j: v % p for j, v in enumerate(acc) if v % p}


def _inner_span(T: LieTripleSystem) -> tuple[list, list, int, dict]:
    """The one reading of the inner derivations off the nonzeros: the pairs
    i < j; the flats of their D_{i,j} = [e_i, e_j, -], flattened row-major,
    as integer rows, each den times the true one; den (1 over F_p); and the
    reduced echelon basis of those flats (each row up to scale), of Inder(T)."""
    n = T.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flats, den = _integer_rows(T.field.p, [
        {l * n + m: x for m, v in enumerate(T.terms[i][j]) for l, x in v} for i, j in pairs])
    return pairs, flats, den, _echelon(map(dict, flats), T.field.p, n * n)[0]


def _derivation_identity_holds(p: Optional[int], n: int, pairs: list, flats: list, echelon: dict) -> bool:
    """(3) on an alternating T by (A) and (B) of the module docstring, from
    _inner_span: (B) compares sum_s f_{k,l}[c_s] [R_p, R_s] with d (sum_u
    R_p[u,k] f_{u,l} + sum_u R_p[u,l] f_{k,u}), R_p = d B_p, f the flats."""
    pivots = sorted(echelon)
    d = 1 if p is not None else lcm(*(echelon[c][c] for c in pivots))
    basis = [echelon[c] if d == 1 else {j: x * (d // echelon[c][c]) for j, x in echelon[c].items()}
             for c in pivots]
    table = _commutator_coordinates(p, n, pivots, basis)
    if table is None:
        return False  # (A)
    coords = [[{}] * n for _ in range(n)]  # coords[u][v] = f_{u,v} at the pivots
    for (u, v), f in zip(pairs, flats):
        if f:
            coords[u][v] = c = {q: f[c] for q, c in enumerate(pivots) if c in f}
            coords[v][u] = {q: -x for q, x in c.items()}
    for row, comm in zip(basis, table):
        cols = [[] for _ in range(n)]  # cols[k] = the nonzeros (u, d R_p[u,k])
        for j, x in row.items():
            cols[j % n].append((j // n, d * x))
        for k, l in pairs:
            acc = [0] * len(pivots)
            for s, x in coords[k][l].items():
                for q, y in comm[s].items():
                    acc[q] += x * y
            for u, x in cols[k]:
                for q, y in coords[u][l].items():
                    acc[q] -= x * y
            for u, x in cols[l]:
                for q, y in coords[k][u].items():
                    acc[q] -= x * y
            if any(acc) and (p is None or any(x % p for x in acc)):
                return False  # (B)
    return True


def inner_derivation_algebra(T: LieTripleSystem) -> DerivationAlgebra:
    """Inder(T), spanned by the D_{e_i,e_j} with i < j."""
    return _derivations(T, _subspace(T.field, T.dim ** 2, _inner_span(T)[3]))


class IdealClosureCertificate(Record):
    """Record that the inner derivations form an ideal of the derivation
    algebra: [D, D_{a,b}] = D_{Da,b} + D_{a,Db} holds and stays in the span."""

    ok: bool
    checked_pairs: int
    failures: tuple


def ideal_closure_certificate(T: LieTripleSystem) -> IdealClosureCertificate:
    """Check [D, D_{e_i,e_j}] for every basis derivation D and pair i < j against the sum of inner
    derivations D_{De_i,e_j} + D_{e_i,De_j}: where they agree, it lies in Inder(T).  Both sides
    are linear in D and in the flats, so they are compared as integer dicts: D times the lcm
    of its denominators, the flats of _inner_span times theirs."""
    p = T.field.p
    n = T.dim
    pairs, flats, _, _ = _inner_span(T)
    flat = [[()] * n for _ in range(n)]  # flat[u][v] = the nonzeros of D_{u,v}'s flat
    for (i, j), f in zip(pairs, flats):
        flat[i][j], flat[j][i] = f.items(), [(k, -x) for k, x in f.items()]
    pair_rows = [_flat_rows(f.items(), n) for f in flats]
    failures = []
    checked = 0
    for d in derivation_algebra(T).basis:
        rows, _ = _integer_terms(p, d.terms, 1)
        cols, _ = _integer_terms(p, d.transpose().terms, 1)  # the same scale, its entries by column
        for (i, j), dij in zip(pairs, pair_rows):
            checked += 1
            comm = _commutator(p, rows, dij)
            # [D, D_{i,j}] = D_{De_i, e_j} + D_{e_i, De_j}, expanded bilinearly
            rhs = _sparse_sum(p, chain(((x, flat[u][j]) for u, x in cols[i]),
                                       ((x, flat[i][u]) for u, x in cols[j])))
            if comm != rhs:
                failures.append((i, j))
    return IdealClosureCertificate(not failures, checked, tuple(failures))


def _assemble_lts(field: Field, n: int, rows) -> LieTripleSystem:
    """The trusted constructor of the systems derived from validated input;
    it checks nothing.

    ``rows`` yields (i, j, row) for each i < j, row[k] the nonzeros (l, x) of
    [e_i, e_j, e_k], sorted by l; [e_j, e_i, -] is filled in as the negative
    and [e_i, e_i, -] as zero.  The callers' constructions are triple systems
    by theorem; tests/test_trusted.py asserts that with check_lts_axioms.
    """
    p = field.p
    t = [[((),) * n] * n for _ in range(n)]
    for i, j, row in rows:
        t[i][j] = row
        t[j][i] = tuple([_neg_terms(p, v) if v else v for v in row])
    return LieTripleSystem(field, n, Nonzeros(tuple(map(tuple, t))), _trusted=True)


_LIE_FAILURES = {"alternating": "[e_{0}, e_{0}] != 0",
                 "antisymmetry": "antisymmetry fails at ({0}, {1})",
                 "jacobi": "Jacobi fails at ({0}, {1}, {2})"}


def lts_of_lie(algebra, field: Optional[Field] = None) -> LieTripleSystem:
    """The full algebra as a triple system under [a,b,c] = [[a,b],c].

    Accepts a graded Lie algebra (grading ignored), valid by construction and
    read as it is, or a raw n x n x n bracket tensor together with its field,
    which is checked as a purely even algebra, the first failure being the
    error's message.
    """
    from .grlie import GradedLieAlgebra, GradedLieError
    if field is None:
        if type(algebra) is not GradedLieAlgebra:
            raise ValueError(f"expected a GradedLieAlgebra or a tensor and its field, found "
                             f"{type(algebra).__name__} {algebra!r:.40}")
        return _assemble_lts(algebra.field, algebra.dim, _product_rows(algebra, 0))
    try:
        L = GradedLieAlgebra(field, len(_array(algebra)), 0, algebra)
    except GradedLieError as exc:
        v = exc.report.violations[0]
        raise ValueError("not a Lie algebra: " + _LIE_FAILURES[v.identity].format(*v.indices)) from None
    return _assemble_lts(field, L.dim, _product_rows(L, 0))


def _product_rows(L, start: int):
    """The rows for _assemble_lts of [a,b,c] = [[a,b],c] on e_start, e_start+1,
    ... of the algebra L (all of L, or its odd part), from the chains [a,b]_m [e_m,e_k] != 0."""
    p = L.field.p
    c, den = _integer_terms(p, L.terms, 2)
    basis = range(start, L.dim)
    brackets = [[(k, v) for k, v in enumerate(row[start:], start) if v] for row in c]

    def row(i: int, j: int) -> tuple:
        out = [()] * len(basis)
        for k, v in _keyed_sums(p, ((k, x, v) for m, x in c[i][j] for k, v in brackets[m]), den * den):
            out[k - start] = tuple((l - start, x) for l, x in v) if start else v
        return tuple(out)

    return ((a - start, b - start, row(a, b)) for a in basis for b in range(a + 1, L.dim))


def odd_part_lts(L) -> LieTripleSystem:
    """The odd component of a graded Lie algebra as a triple system under
    [a,b,c] = [[a,b],c] (which lands back in the odd part)."""
    return _assemble_lts(L.field, L.dim1, _product_rows(L, L.dim0))

"""Graded Chevalley-Eilenberg cochains in degrees <= 3, the coboundary,
H^2 of the graded subcomplex, cocycle-built central extensions, and the
constructive splitting of central 0-extensions.  The two-condition test,
``envelope_criterion``, lives in ``embed`` beside the builder it reads; it
is still importable from here.

A degree-n cochain stores one sparse module vector, the nonzeros of its
value, per sorted basis combination i_1 < ... < i_n, so alternation is
structural; the dense ``values`` is a view derived on each read.  A cochain
is graded when arguments of total degree g land in the degree-g block of the
module.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Optional

from .exactlin import (
    Matrix, Nonzeros, Record, Subspace, _as_nonzeros, _combination, _distinct_rows,
    _echelon, _integer_rows, _integer_terms, _null_vectors, _span, _sparse_sum, _terms_of,
    _transposed, dense_tensor, rref, solve,
)
from .grlie import GradedHom, GradedLieAlgebra, GradedModule, _assemble, center, check_graded_lie


class Cochain(Record):
    algebra: GradedLieAlgebra
    module: GradedModule
    degree: int
    terms: Nonzeros  # one sparse module vector per sorted index combination

    def __init__(self, algebra: GradedLieAlgebra, module: GradedModule, degree: int,
                 values: tuple):
        """values: the dense module vectors, one per sorted combination, or their Nonzeros."""
        if degree not in (1, 2, 3):
            raise ValueError("supported cochain degrees are 1, 2, 3")
        if len(values) != comb(algebra.dim, degree):
            raise ValueError("value count does not match the combination count")
        terms = _as_nonzeros(values, (len(values), module.dim), algebra.field.of)
        if terms is None:
            raise ValueError("value length does not match the module dimension")
        Record.__init__(self, algebra, module, degree, terms)

    @property
    def values(self) -> tuple:
        """The dense module vectors, derived from terms."""
        return dense_tensor(self.algebra.field, self.module.dim, self.terms, 1)

    def combos(self) -> list:
        return list(combinations(range(self.algebra.dim), self.degree))

    def is_graded(self) -> bool:
        slots = set(_graded_slots(self.algebra, self.module, self.degree))
        return all((combo, r) in slots for combo, v in zip(self.combos(), self.terms) for r, _ in v)

    def is_zero(self) -> bool:
        return not any(self.terms)


def _combo_index(combo: tuple, n: int, degree: int) -> int:
    # lexicographic position among combinations(range(n), degree)
    idx = 0
    prev = -1
    for pos, c in enumerate(combo):
        for skipped in range(prev + 1, c):
            idx += comb(n - skipped - 1, degree - pos - 1)
        prev = c
    return idx


def zero_cochain(L: GradedLieAlgebra, M: GradedModule, degree: int) -> Cochain:
    return _cochain_at(L, M, degree, {})


def graded_cochain_basis(L: GradedLieAlgebra, M: GradedModule, degree: int) -> list:
    """Indicator cochains spanning the graded cochain space, in the
    deterministic order (combination, module coordinate)."""
    if degree not in (1, 2, 3):
        raise ValueError("supported cochain degrees are 1, 2, 3")
    one = L.field.one()
    return [_cochain_at(L, M, degree, {slot: one}) for slot in _graded_slots(L, M, degree)]


def _graded_slots(L: GradedLieAlgebra, M: GradedModule, degree: int) -> list:
    """The slots (combo, r) where a graded cochain of this degree may be nonzero:
    module coordinate r has the parity of the combination, the number of its
    odd indices."""
    coords = (range(M.dim0), range(M.dim0, M.dim))
    return [(combo, r) for combo in combinations(range(L.dim), degree)
            for r in coords[sum(i >= L.dim0 for i in combo) % 2]]


def _cochain_at(L: GradedLieAlgebra, M: GradedModule, degree: int, entries: dict) -> Cochain:
    """The cochain with the given nonzero {(combo, r): value} entries, zero elsewhere."""
    terms = [()] * comb(L.dim, degree)
    for (combo, r), x in sorted(entries.items()):
        terms[_combo_index(combo, L.dim, degree)] += ((r, x),)
    return Cochain(L, M, degree, Nonzeros(terms))


def _differential(L: GradedLieAlgebra, M: GradedModule, n: int, graded: bool = False) -> tuple:
    """The differential from degree-n to degree-(n+1) cochains as sparse rows,
    or, when graded, its rows at the graded output slots only, read from the
    nonzeros of M's actions and L's brackets; over Q as integers over one
    denominator den, which is returned with the rows (1 over F_p).

    Row (combo, s), in the order (combination, module coordinate), maps each
    input slot (combo', r) to its nonzero coefficient in (df)(combo)_s:
    the action term of position i contributes (-1)^i M.action[combo_i][s][r]
    at combo' = the rest, and the bracket term of positions i < j contributes
    (-1)^(i+j) [e_combo_i, e_combo_j]_k times the sign of sorting (k, rest...)
    at combo' = the sorted combination, for each k not already in the rest.
    """
    p = L.field.p
    (action_cols, brackets), den = _integer_terms(p, (M.terms, L.terms), 3)
    # the nonzeros (s, r, x) of each action: column r of it holds (s, x)
    actions = [[(s, r, x) for r, col in enumerate(a) for s, x in col] for a in action_cols]
    coords = (range(M.dim0), range(M.dim0, M.dim))
    rows = {}
    for combo in combinations(range(L.dim), n + 1):
        outs = coords[sum(i >= L.dim0 for i in combo) % 2] if graded else range(M.dim)
        if not outs:
            continue
        acc = {s: {} for s in outs}
        for i, c in enumerate(combo):
            rest = combo[:i] + combo[i + 1:]
            for s, r, x in actions[c]:
                if s in acc:
                    acc[s][rest, r] = acc[s].get((rest, r), 0) + (-x if i % 2 else x)
        moved = {}
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rest = combo[:i] + combo[i + 1:j] + combo[j + 1:]
                for k, x in brackets[combo[i]][combo[j]]:
                    if k in rest:
                        continue
                    pos = sum(1 for t in rest if t < k)
                    target = rest[:pos] + (k,) + rest[pos:]
                    moved[target] = moved.get(target, 0) + (-x if (i + j + pos) % 2 else x)
        for s, row in acc.items():
            for target, x in moved.items():
                row[(target, s)] = row.get((target, s), 0) + x
            if p is not None:
                row = {key: x % p for key, x in row.items()}
            rows[(combo, s)] = {key: x for key, x in row.items() if x}
    return rows, den


def coboundary(f: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential

    (df)(x_1..x_{n+1}) = sum_i (-1)^{i+1} x_i . f(.. ^x_i ..)
                       + sum_{i<j} (-1)^{i+j} f([x_i,x_j], .. ^x_i .. ^x_j ..),

    evaluated on sorted basis combinations.  Grading is preserved.
    """
    L, M = f.algebra, f.module
    n = f.degree
    if n >= 3:
        raise ValueError("coboundary is only taken up to degree-3 output")
    rows, den = _differential(L, M, n)  # the rows are den times the differential's
    values = {(combo, r): x for combo, v in zip(f.combos(), f.terms) for r, x in v}
    return Cochain(L, M, n + 1, Nonzeros(
        _terms_of(L.field.p, {s: sum(c * values[slot] for slot, c in rows[(combo, s)].items()
                                     if slot in values) for s in range(M.dim)}, den)
        for combo in combinations(range(L.dim), n + 1)))


class H2Result(Record):
    dimension: int
    cocycle_dim: int
    coboundary_dim: int
    representatives: tuple  # cocycles spanning a complement of the coboundaries


def h2_graded(L: GradedLieAlgebra, M: GradedModule) -> H2Result:
    """dim ker(d_2) - dim im(d_1) on the graded subcomplex, with a
    deterministic RREF-complement of representatives.

    d_2's rows and d_1's columns, each scaled to a canonical multiple and
    kept once, are checked for d_2 d_1 = 0 and then eliminated once each,
    exactly: d_1's to rank r_1, and d_2's until their rank reaches its
    bound c_2 - r_1 for the c_2 graded 2-slots, as im d_1 lies in ker d_2.
    Z^2 is read off d_2's echelon only when H^2 = c_2 - r_2 - r_1 is not 0."""
    F = L.field
    p = F.p
    slots1, slots2 = _graded_slots(L, M, 1), _graded_slots(L, M, 2)
    c2 = len(slots2)

    def graded_rows(n, in_slots):  # {position in in_slots: coefficient} per graded output slot
        position = {slot: k for k, slot in enumerate(in_slots)}
        return [{position[c]: x for c, x in row.items() if c in position}
                for row in _differential(L, M, n, graded=True)[0].values()]

    d2, d1 = graded_rows(2, slots2), graded_rows(1, slots1)
    d1_cols = [{k: row[j] for k, row in enumerate(d1) if j in row} for j in range(len(slots1))]
    rows2, cols1 = _distinct_rows(p, d2), _distinct_rows(p, d1_cols)
    d2_cols = _transposed(rows2)  # d_2 d_1 = 0 on the scaled rows, through an index of their columns
    if any(_sparse_sum(p, ((y, d2_cols.get(c, {}).items()) for c, y in col)) for col in cols1):
        raise RuntimeError("coboundaries escaped the cocycles; differential is broken")
    b2, _ = _echelon([dict(col) for col in cols1], p, c2)
    r1 = len(b2)
    z2, _ = _echelon([dict(row) for row in rows2], p, c2 - r1)
    if c2 - len(z2) == r1:
        return H2Result(0, r1, r1, ())
    cocycles = _span(F, c2, _null_vectors(p, c2, z2)).basis.terms
    # the cocycle basis vectors outside the span of the coboundaries and the cocycles before them
    _, picked = _echelon(_integer_rows(p, [*b2.values(), *map(dict, cocycles)])[0], p, c2)
    reps = tuple(_cochain_at(L, M, 2, {slots2[k]: c for k, c in cocycles[i - r1]})
                 for i in picked[r1:])
    return H2Result(len(cocycles) - r1, len(cocycles), r1, reps)


class NotCentral0Extension(ValueError):
    pass


class CentralExtensionProblem(Record):
    """A surjective graded hom whose kernel is even and central."""

    total: GradedLieAlgebra
    base: GradedLieAlgebra
    phi: GradedHom
    kernel: Subspace

    @classmethod
    def from_hom(cls, phi: GradedHom) -> "CentralExtensionProblem":
        ker = phi.kernel()
        if phi.source.dim - ker.dim != phi.target.dim:  # rank-nullity
            raise NotCentral0Extension("the hom is not surjective")
        if not phi.source.even_subspace().contains_subspace(ker):
            raise NotCentral0Extension("the kernel is not contained in the even part")
        if not center(phi.source).contains_subspace(ker):
            raise NotCentral0Extension("the kernel is not central")
        return cls(phi.source, phi.target, phi, ker)


def cocycle_extension(L: GradedLieAlgebra, M: GradedModule, sigma: Cochain) -> CentralExtensionProblem:
    """The central 0-extension defined by a graded 2-cocycle with values in
    a trivial module with no odd part: bracket [x+m, y+n] = [x,y] + sigma(x,y).
    sigma is checked through the total: for such M, its grading holds exactly
    when sigma is graded, and its Jacobi identity exactly when d(sigma) = 0."""
    F = L.field
    if sigma.algebra != L or sigma.module != M or sigma.degree != 2:
        raise ValueError("sigma must be a degree-2 cochain on (L, M)")
    if not M.is_trivial() or M.dim1 != 0:
        raise ValueError("coefficients must form a trivial module with no odd part")
    m = M.dim
    # L's basis, even-first, around the new central block at L.dim0 .. L.dim0 + m - 1; where
    # sigma is graded its values follow the even brackets and [e_i, e_j] stays sorted, and where
    # it is not, check_graded_lie, which reads terms in any order, refuses the total
    lift = list(range(L.dim0)) + [i + m for i in range(L.dim0, L.dim)]
    total = _assemble(F, L.dim0 + m, L.dim1, (
        (lift[i], lift[j], [(lift[l], x) for l, x in L.terms[i][j]] + [(L.dim0 + r, x) for r, x in v])
        for (i, j), v in zip(combinations(range(L.dim), 2), sigma.terms)))
    bad = {v.identity for v in check_graded_lie(total).violations}
    if bad:
        raise ValueError("sigma is not graded" if "grading" in bad else "sigma is not a cocycle")
    proj_rows = Nonzeros(((lift[i], F.one()),) for i in range(L.dim))
    phi = GradedHom(total, L, Matrix(F, L.dim, total.dim, proj_rows), unchecked=True)
    return CentralExtensionProblem.from_hom(phi)


def split_central_0_extension(prob: CentralExtensionProblem) -> Optional[GradedHom]:
    """A graded hom psi with phi . psi = id, or None when the extension does
    not split (the defining cocycle class is nonzero)."""
    K, L, phi = prob.total, prob.base, prob.phi
    F = K.field
    # graded linear section eta, by its columns' nonzeros: phi is onto, so the RREF of
    # [phi | I] has its pivots in phi's block, and column i of I holds the solution of
    # phi x = e_i that is 0 at the free columns (block-diagonal matrices reduce blockwise)
    red, pivots = rref(phi.matrix.hstack(Matrix.identity(F, L.dim)))
    if any(c >= K.dim for c in pivots):
        raise NotCentral0Extension("the hom is not surjective")
    eta = [tuple((pivots[r], x) for r, x in col) for col in red.transpose().terms[K.dim:]]

    ker = prob.kernel
    # sigma(e_i, e_j) = [eta e_i, eta e_j] - eta([e_i, e_j]), valued in the kernel
    rows = []
    rhs = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            sig = _sparse_sum(F.p, chain(
                ((x * y, K.terms[a][b]) for a, x in eta[i] for b, y in eta[j]),
                ((-x, eta[l]) for l, x in L.terms[i][j])))
            sig_coords = [sig.get(c, F.zero()) for c in ker.pivots]
            if ker._residue(sig):
                raise RuntimeError("section defect escaped the kernel")
            if L.degree(i) != L.degree(j):
                if any(sig_coords):
                    raise RuntimeError("mixed-parity defect should vanish for a 0-extension")
                continue
            # unknowns: tau(e_l) for even l, in kernel coordinates
            for s in range(ker.dim):
                rows.append(tuple((l * ker.dim + s, x) for l, x in L.terms[i][j] if l < L.dim0))
                rhs.append(sig_coords[s])
    sol = solve(Matrix(F, len(rows), L.dim0 * ker.dim, Nonzeros(rows)), tuple(rhs))
    if sol is None:
        return None
    psi_cols = []
    for l in range(L.dim):
        tau = zip(sol[l * ker.dim:(l + 1) * ker.dim], ker.basis.terms) if l < L.dim0 else ()
        psi_cols.append(_combination(F.p, chain(((1, eta[l]),), tau)))
    psi = GradedHom(L, K, Matrix.from_cols(F, Nonzeros(psi_cols), rows=K.dim), unchecked=True)
    if phi.compose(psi).matrix != Matrix.identity(F, L.dim):
        raise RuntimeError("splitting failed to section the extension")
    return psi


def is_0_centrally_closed(L: GradedLieAlgebra) -> bool:
    """Whether every central 0-extension of L splits; decided on the
    one-dimensional trivial module, which suffices over a field, by H^2 as
    :func:`embed.envelope_criterion` reads it."""
    from .embed import envelope_criterion
    return envelope_criterion(L).h2_dimension == 0


def __getattr__(name: str):
    # envelope_criterion and its report live in embed, beside their builder; embed loads on first use
    if name in ("envelope_criterion", "EnvelopeCriterionReport"):
        from . import embed
        return getattr(embed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

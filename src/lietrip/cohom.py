"""Graded Chevalley-Eilenberg cochains in degrees <= 3, the coboundary,
H^2 of the graded subcomplex, cocycle-built central extensions, and the
constructive splitting of central 0-extensions, each a ``grlie``
``CentralExtensionProblem``.  The two-condition test, ``envelope_criterion``,
lives in ``embed`` beside the builder it reads; it is importable from here.

A degree-n cochain stores one sparse module vector, the nonzeros of its
value, per sorted basis combination i_1 < ... < i_n, so alternation is
structural; the dense ``values`` is a view derived on each read.  A cochain
is graded when arguments of total degree g land in the degree-g block of the
module.  The differential is built column by column, at only the slots that
``coboundary`` and ``h2_graded`` read: a cochain's nonzero or graded ones.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Optional

from .exactlin import (
    Matrix, Nonzeros, Record, _array, _as_nonzeros, _combination, _distinct_rows,
    _echelon, _integer_rows, _integer_terms, _null_vectors, _span, _sparse_sum, _transposed,
    dense_tensor, rref,
)
from .grlie import (CentralExtensionProblem, GradedHom, GradedLieAlgebra, GradedModule,
                    NotCentral0Extension, _assemble, check_graded_lie)


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
        if module.algebra != algebra:
            raise ValueError("module is over a different algebra")
        if len(_array(values)) != comb(algebra.dim, degree):
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


def _differential(L: GradedLieAlgebra, M: GradedModule, slots: list) -> tuple:
    """d of the indicator cochain at each given n-slot (combo, r), as a sparse
    column {(n+1)-slot: coefficient}, over Q as integers over one denominator
    den, returned with the columns (1 over F_p, where entries are unreduced).
    For each a not in combo, at position i of combo' = combo + a, the action
    adds (-1)^i (e_a . e_r)_s at (combo', s); for each k at position t of combo
    and each pair a < b outside the rest with [e_a, e_b]_k = x != 0, at
    positions i < j of combo' = combo - k + a + b, the bracket adds
    (-1)^(i+j+t) x at (combo', r)."""
    p = L.field.p
    (actions, brackets), den = _integer_terms(p, (M.terms, L.terms), 3)
    acting = [[(a, col[r]) for a, col in enumerate(actions) if col[r]] for r in range(M.dim)]
    pairs = list(combinations(range(L.dim), 2))
    # at each k, {q: [e_a, e_b]_k} over the pairs[q] = (a, b) whose bracket has a k-component
    into = _transposed(brackets[a][b] for a, b in pairs)
    cols = []
    for combo, r in slots:
        col = {}
        for a, v in acting[r]:
            if a not in combo:
                i = sum(1 for c in combo if c < a)
                out = combo[:i] + (a,) + combo[i:]
                for s, x in v:
                    col[out, s] = col.get((out, s), 0) + (-x if i % 2 else x)
        for t, k in enumerate(combo):
            rest = combo[:t] + combo[t + 1:]
            for q, x in into.get(k, {}).items():
                a, b = pairs[q]
                if a not in rest and b not in rest:
                    out = tuple(sorted(rest + (a, b)))
                    i, j = out.index(a), out.index(b)
                    col[out, r] = col.get((out, r), 0) + (-x if (i + j + t) % 2 else x)
        cols.append({key: x for key, x in col.items() if x})
    return cols, den


def coboundary(f: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential

    (df)(x_1..x_{n+1}) = sum_i (-1)^{i+1} x_i . f(.. ^x_i ..)
                       + sum_{i<j} (-1)^{i+j} f([x_i,x_j], .. ^x_i .. ^x_j ..),

    evaluated on sorted basis combinations, as the sum of d's columns at
    f's nonzero slots.  Grading is preserved.
    """
    L, M, n, p = f.algebra, f.module, f.degree, f.algebra.field.p
    if n >= 3:
        raise ValueError("coboundary is only taken up to degree-3 output")
    values = {(combo, r): x for combo, v in zip(f.combos(), f.terms) for r, x in v}
    cols, den = _differential(L, M, list(values))  # den times d's columns
    df = _sparse_sum(p, zip(values.values(), map(dict.items, cols)))
    return _cochain_at(L, M, n + 1, {slot: x if p else x / den for slot, x in df.items()})


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
    F, p = L.field, L.field.p
    if M.algebra != L:
        raise ValueError("module is over a different algebra")
    slots1, slots2 = _graded_slots(L, M, 1), _graded_slots(L, M, 2)
    c2 = len(slots2)
    # d_1's columns over the positions of the graded 2-slots, and d_2's turned into rows at the
    # 3-slots in slot order: d sends graded cochains to graded ones, so every slot is graded
    cols = _differential(L, M, slots1 + slots2)[0]
    position = {slot: k for k, slot in enumerate(slots2)}
    d1 = [{position[s]: x for s, x in col.items()} for col in cols[:len(slots1)]]
    d2 = _transposed(col.items() for col in cols[len(slots1):])
    rows2 = _distinct_rows(p, (d2[slot] for slot in sorted(d2)))
    cols1 = _distinct_rows(p, d1)
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
    phi = GradedHom(total, L, Matrix(F, L.dim, total.dim, proj_rows), _trusted=True)
    return CentralExtensionProblem.from_hom(phi)


def split_central_0_extension(prob: CentralExtensionProblem) -> Optional[GradedHom]:
    """A graded hom psi with phi . psi = id, or None when the extension does
    not split (the defining cocycle class is nonzero)."""
    phi, K, L = prob.phi, prob.phi.source, prob.phi.target
    F = K.field
    # graded linear section eta, by its columns' nonzeros: phi is onto, so the RREF of
    # [phi | I] has its pivots in phi's block, and column i of I holds the solution of
    # phi x = e_i that is 0 at the free columns (block-diagonal matrices reduce blockwise)
    red, pivots = rref(phi.matrix.hstack(Matrix.identity(F, L.dim)))
    if any(c >= K.dim for c in pivots):
        raise NotCentral0Extension("the hom is not surjective")
    eta = [tuple((pivots[r], x) for r, x in col) for col in red.transpose().terms[K.dim:]]

    ker, n0 = prob.kernel, L.dim0
    # sigma(e_i, e_j) = [eta e_i, eta e_j] - eta([e_i, e_j]), valued in the kernel; eta + tau sections
    # phi when tau([e_i, e_j]) = sigma(e_i, e_j) at each pair of equal parity: one row [[e_i, e_j] | sigma]
    rows = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            sig = _sparse_sum(F.p, chain(
                ((x * y, K.terms[a][b]) for a, x in eta[i] for b, y in eta[j]),
                ((-x, eta[l]) for l, x in L.terms[i][j])))
            sig_coords = tuple((n0 + s, sig[c]) for s, c in enumerate(ker.pivots) if c in sig)
            if ker._residue(sig):
                raise RuntimeError("section defect escaped the kernel")
            if L.degree(i) != L.degree(j):
                if sig_coords:
                    raise RuntimeError("mixed-parity defect should vanish for a 0-extension")
                continue
            rows.append(tuple(t for t in L.terms[i][j] if t[0] < n0) + sig_coords)
    # a pivot in sigma's block: the class is not zero; else tau(e_c) is sigma's block of the row at
    # each pivot c, and 0 at the free columns
    red, pivots = rref(Matrix(F, len(rows), n0 + ker.dim, Nonzeros(rows)))
    if any(c >= n0 for c in pivots):
        return None
    tau = dict(zip(pivots, red.terms))
    psi_cols = [_combination(F.p, chain(((1, eta[l]),), ((x, ker.basis.terms[s - n0])
                                                         for s, x in tau.get(l, ()) if s >= n0)))
                for l in range(L.dim)]
    psi = GradedHom(L, K, Matrix.from_cols(F, Nonzeros(psi_cols), rows=K.dim), _trusted=True)
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
    # envelope_criterion lives in embed, beside its builder; embed loads on first use
    if name == "envelope_criterion":
        from .embed import envelope_criterion
        return envelope_criterion
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

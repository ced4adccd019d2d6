"""Imbeddings of Lie triple systems into Z2-graded Lie algebras:

* the standard imbedding Ste(T), inner derivations plus T itself, with
  bracket [X+a, Y+b] = ([X,Y] + D_{a,b}) + (Xb - Ya);
* the pair algebra <T,T> = (T^T)/A(T^T): T^T as a module over Inder(T),
  the even part of Ste(T), divided by the radical of lam: a^b -> D_{a,b},
  Ste's odd-odd bracket.  It is a central extension of Inder(T);
* the universal imbedding A(T), with even part <T,T> and odd part T.  The
  inclusion of T into it is initial among all imbeddings of T into Lie
  algebras, which makes T -> A(T) a functor and every hom out of it
  determined by its odd restriction.  extend_hom and imbedding_functor_hom,
  the functor on morphisms, build each A(T) they need from T.

One builder, ``_envelope``, reads A(L_1) and its hom onto L off the brackets
of any L that its odd part generates: A(T) is it on Ste(T), the universal
central 0-extension of L is it on L, and envelope_criterion, the paper's
two-condition test, reads H^2 after its first step, the radical, and runs
the rest for the witness only when H^2 = 0.  ``pair_algebra`` builds the same
<T,T> record by the generic module route, and ``_glue`` alone turns an even
algebra and a module into a graded algebra.  Everything reads only the
structure tensor, no step computes Der(T), and bases are deterministic RREF
bases, so structure constants are reproducible.  ``lts`` loads only with a
triple system's construction (Ste(T), extend_hom), and ``cohom`` only when
the criterion meets an algebra its odd part does not generate.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import lcm
from typing import TYPE_CHECKING, Optional, Sequence

from .exactlin import (
    Field, Matrix, Nonzeros, Record, Subspace, _echelon, _integer_rows,
    _integer_terms, _null_vectors, _reduce, _sparse_sum, _subspace, _terms_of, _transposed,
    kernel_basis, quotient,
)
from .grlie import (
    CentralExtensionProblem, GradedHom, GradedLieAlgebra, GradedModule, NotCentral0Extension,
    _assemble, _bracket, _central, is_generated_by_odd, trivial_module,
)

if TYPE_CHECKING:  # lts loads with the constructions on a triple system, not with embed
    from .lts import DerivationAlgebra, LieTripleSystem, LtsHom


# ---------------------------------------------------------------------------
# exterior square bookkeeping

def wedge_pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]

def wedge_dim(n: int) -> int:
    return n * (n - 1) // 2

def wedge_index(i: int, j: int, n: int) -> int:
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _wedge(k: int, l: int, n: int) -> tuple:
    """e_k^e_l on the basis {e_i^e_j : i < j}, as a sparse vector."""
    return () if k == l else ((wedge_index(min(k, l), max(k, l), n), 1 if k < l else -1),)


def _wedge_columns(p: Optional[int], n: int, cols: Sequence, pairs: Sequence) -> list:
    """The columns D.(e_i^e_j) = De_i^e_j + e_i^De_j of D on the exterior square at the
    pairs i < j, as dicts of their nonzeros, from D's sparse (integer) columns."""
    return [_sparse_sum(p, chain(((x, _wedge(k, j, n)) for k, x in cols[i]),
                                 ((x, _wedge(i, k, n)) for k, x in cols[j])))
            if cols[i] or cols[j] else {} for i, j in pairs]


# ---------------------------------------------------------------------------
# standard imbedding

class StandardImbedding(Record):
    lts: LieTripleSystem
    algebra: GradedLieAlgebra
    inclusion: Matrix  # (dim0+dim1) x dim(T), onto the odd part
    inder: DerivationAlgebra  # Inder(T), the even part


def standard_imbedding(T: LieTripleSystem) -> StandardImbedding:
    from .lts import _derivations, _inner_span
    F = T.field
    n = T.dim
    _, flats, den, echelon = _inner_span(T)
    inder = _derivations(T, _subspace(F, n * n, echelon))
    r = inder.dim
    even = _assemble(F, r, 0, (
        (a, b, inder.terms[a][b]) for a in range(r) for b in range(a + 1, r)))
    # the D_{e_i,e_j} span Inder(T): their coordinates are their entries at the pivots (flats / den)
    pairing = Matrix.from_cols(F, Nonzeros(
        _terms_of(F.p, {q: f[c] for q, c in enumerate(inder.span.pivots) if c in f}, den)
        for f in flats), rows=r)
    algebra = _glue(even, n, [d.transpose().terms for d in inder.basis], pairing)
    inclusion = Matrix.from_cols(F, Nonzeros(((r + a, F.one()),) for a in range(n)), rows=r + n)
    return StandardImbedding(T, algebra, inclusion, inder)


# ---------------------------------------------------------------------------
# the exterior square as a module over the inner derivations

class WedgeModule(Record):
    lts: LieTripleSystem
    ste: StandardImbedding
    inder_algebra: GradedLieAlgebra  # the even part of Ste(T)
    module: GradedModule             # T^T with the induced action
    lam: Matrix                      # inder.dim x wedge_dim, e_i^e_j -> D_{e_i,e_j}


def wedge_module(T: LieTripleSystem) -> WedgeModule:
    """T^T as a module over Inder(T), read off the nonzeros of Ste(T): the
    action from its even-odd block, lam from its odd-odd block."""
    F, n, pairs = T.field, T.dim, wedge_pairs(T.dim)
    ste = standard_imbedding(T)
    r = ste.inder.dim
    s = ste.algebra.terms
    inder_algebra = _assemble(F, r, 0, ((a, b, s[a][b]) for a in range(r) for b in range(a + 1, r)))
    # column u of the basis derivation D_a is [D_a, e_u], at the odd index r + u
    cols, den = _integer_terms(F.p, [[[(l - r, x) for l, x in v] for v in s[a][r:]]
                                     for a in range(r)], 2)
    actions = Nonzeros(tuple(tuple(_terms_of(F.p, v, den) for v in _wedge_columns(F.p, n, c, pairs))
                             for c in cols))
    module = GradedModule(inder_algebra, wedge_dim(n), 0, actions, _trusted=True)
    lam = Matrix.from_cols(F, Nonzeros(s[r + i][r + j] for i, j in pairs), rows=r)
    return WedgeModule(T, ste, inder_algebra, module, lam)


# ---------------------------------------------------------------------------
# the generic module-quotient algebra

class ModuleQuotient(Record):
    """Quotient Q = M/A(M) of a module by its radical A(M) = span{lam(m).m},
    carrying the Lie bracket [p,q] = mu(p).q and the induced map mu."""

    a_subspace: Subspace
    projection: Matrix         # M -> M/A(M), by exactlin.quotient
    algebra: GradedLieAlgebra  # all-even, dim = M/A(M)
    mu: Matrix                 # lam at the free columns, valued where lam is


def _radical(p: Optional[int], mdim: int, lam_rows: list, act, image: Sequence,
             bound: Optional[int] = None, kernel: str = "lam") -> dict:
    """The echelon {pivot: row} of A(M) = span{lam(m).m} from lam's integer rows and act(u, vs)
    = [lam(e_u).e_v for v in vs]: lam maps its pivot columns s_i onto a basis of Im(lam), so
    lam(s_i).s_i, lam(s_i).s_j + lam(s_j).s_i and lam(s_i).k, k in ker(lam), span A(M).  It
    stops at rank bound (default dim ker(lam), as A(M) lies in ker(lam)); its rows must map
    to 0 under image, the columns of a map."""
    lam_echelon, _ = _echelon(lam_rows, p, mdim)
    pivots = sorted(lam_echelon)
    ker = _null_vectors(p, mdim, lam_echelon)
    acts = [act(u, range(mdim)) for u in pivots]  # acts[i][v] = lam(s_i).e_v
    # built as the engine reads them, which stops at the rank bound; it reduces each row in place
    gens = chain((dict(row[u]) for row, u in zip(acts, pivots)),
                 (_sparse_sum(p, ((1, acts[i][pivots[j]].items()), (1, acts[j][u].items())))
                  for i, u in enumerate(pivots) for j in range(i + 1, len(pivots))),
                 (_sparse_sum(p, ((x, row[w].items()) for w, x in k.items())) for row in acts for k in ker))
    echelon, _ = _echelon(gens, p, len(ker) if bound is None else bound)
    if any(_sparse_sum(p, ((x, image[w]) for w, x in row.items())) for row in echelon.values()):
        raise RuntimeError(f"A(M) escaped the kernel of {kernel}")
    return echelon


def module_quotient_algebra(L: GradedLieAlgebra, module: GradedModule,
                            lam: Matrix) -> ModuleQuotient:
    """Requires lam to be a module homomorphism into the adjoint module,
    lam(l.m) = [l, lam(m)]; raises with a witness pair otherwise.  Every step runs
    on sparse columns of lam, the actions and L's brackets, over Q as integers over
    one denominator den; a structure constant is divided by its scale when written."""
    F = L.field
    p = F.p
    mdim = module.dim
    if lam.rows != L.dim or lam.cols != mdim:
        raise ValueError("lam shape mismatch")
    lam_t = lam.transpose().terms
    cols = [dict(c) for c in lam_t]
    cols += [dict(c) for a in module.terms for c in a]
    ints, den = _integer_rows(p, cols + [dict(v) for row in L.terms for v in row])
    lam_cols, *action_cols = (ints[k * mdim:(k + 1) * mdim] for k in range(L.dim + 1))
    bracket = ints[len(cols):]  # bracket[a * L.dim + b] = [e_a, e_b]
    for a in range(L.dim):
        for u in range(mdim):
            lhs = _sparse_sum(p, ((x, lam_cols[w].items()) for w, x in action_cols[a][u].items()))
            rhs = _sparse_sum(p, ((x, bracket[a * L.dim + b].items()) for b, x in lam_cols[u].items()))
            if lhs != rhs:
                raise ValueError(f"lam is not a module homomorphism: fails at basis pair ({a}, {u})")

    def act(u, vs):  # lam(e_u).e_v for v in vs
        return [_sparse_sum(p, ((x, action_cols[a][v].items()) for a, x in lam_cols[u].items()))
                for v in vs]

    echelon = _radical(p, mdim, _integer_rows(p, map(dict, lam.terms))[0], act, lam_t)
    return _module_quotient(F, mdim, echelon, act, lam_t, L.dim, den * den)


def _module_quotient(F: Field, mdim: int, echelon: dict, act, lam_t: Sequence, rows: int,
                     den: int) -> ModuleQuotient:
    """M/A(M) from the echelon of A(M), with act as for _radical (over Q den times its values)
    and lam_t lam's columns, each rows long.  The quotient's basis vector s is the coset of the
    unit vector at the free column free[s], and mu is lam there."""
    p = F.p
    a_sub = _subspace(F, mdim, echelon)
    projection = quotient(mdim, a_sub)
    free = [c for c in range(mdim) if c not in echelon]
    mu = Matrix.from_cols(F, Nonzeros(lam_t[c] for c in free), rows=rows)
    position = {c: s for s, c in enumerate(free)}
    # [s, t] is the normal form of lam(e_f).e_g where that is not 0, f and g the free columns s
    # and t; over Q of den * scale times it, integral for scale the lcm of the pivot entries
    scale = lcm(*(row[c] for c, row in echelon.items()))
    table = {(s, position[g]): {position[c]: x for c, x in _reduce(
        {j: x * scale for j, x in v.items()}, echelon, p).items()}
        for s, f in enumerate(free) if lam_t[f]
        for g, v in zip(free[s + 1:], act(f, free[s + 1:])) if v}
    algebra = _assemble(F, projection.rows, 0, ((s, t, _terms_of(p, v, den * scale))
                                                for (s, t), v in table.items()))
    if not _central(algebra, kernel_basis(mu)):
        raise RuntimeError("kernel of mu is not central in the quotient")
    return ModuleQuotient(a_sub, projection, algebra, mu)


# ---------------------------------------------------------------------------
# the pair algebra <T,T>

def pair_algebra(T: LieTripleSystem) -> ModuleQuotient:
    """<T,T> by the generic module route: the record universal_imbedding(T).pair holds."""
    w = wedge_module(T)
    return module_quotient_algebra(w.inder_algebra, w.module, w.lam)


# ---------------------------------------------------------------------------
# the universal imbedding

def _bracket_radical(L: GradedLieAlgebra) -> tuple:
    """The first step of _envelope: (the pairs i < j of L_1^L_1, den, D_u's columns, act, the
    echelon of the radical A(L_1^L_1)).  beta: L_1^L_1 -> L_0 is onto and lam(e_i^e_j) =
    D_{e_i,e_j} = ad(beta(e_i^e_j)) on L_1: lam's rows are the rows of ad: L_0 -> End(L_1), in
    echelon, times beta.  The radical lies in ker(beta), by Jacobi beta(D_m.m') = [beta(m),
    beta(m')], which bounds its rank and checks its rows."""
    p, d, n, pairs = L.field.p, L.dim0, L.dim1, wedge_pairs(L.dim1)
    c, den = _integer_terms(p, L.terms, 2)
    beta = [c[d + i][d + j] for i, j in pairs]
    ad = [[[(l - d, x) for l, x in c[z][d + m]] for m in range(n)] for z in range(d)]  # [e_z, e_m]
    ad_rows = _transposed((((m, l), x) for m, col in enumerate(ad_z) for l, x in col) for ad_z in ad)
    beta_rows = _transposed(beta)
    lam_rows = [_sparse_sum(p, ((y, beta_rows[z].items()) for z, y in r.items()))
                for r in _echelon(list(ad_rows.values()), p, d)[0].values()]
    # D_u = ad(beta(e_u)) on L_1 by its columns, over Q den^2 times it, built once for each of
    # lam's pivot columns and the free columns; act is D_u on L_1^L_1 at the wedge columns ws
    columns = cache(lambda u: [_sparse_sum(p, ((y, ad[z][a]) for z, y in beta[u])).items()
                               for a in range(n)])
    act = lambda u, ws: _wedge_columns(p, n, columns(u), [pairs[w] for w in ws])
    echelon = _radical(p, len(pairs), lam_rows, act, beta, len(pairs) - d, "the bracket")
    return pairs, den, columns, act, echelon


def _envelope(L: GradedLieAlgebra, radical: Optional[tuple] = None) -> tuple:
    """(<L_1,L_1>, A(L_1), the hom A(L_1) -> L) for L that its odd part L_1 generates, read off
    L's brackets in two steps: the radical (_bracket_radical, unless the caller has run it),
    then the quotient by it, the glued algebra and the hom.  The hom is beta at the free
    columns, where the free column f acts on L_1 by D_f, and the identity on L_1; its kernel is
    central, of dimension H^2 (Weibel 7.9)."""
    F, p, d, n = L.field, L.field.p, L.dim0, L.dim1
    pairs, den, columns, act, echelon = _bracket_radical(L) if radical is None else radical
    beta = [L.terms[d + i][d + j] for i, j in pairs]
    pair = _module_quotient(F, len(pairs), echelon, act, beta, d, den * den)
    # D_f is 0 where beta(e_f) is, and then none of its columns is built
    free = [w for w in range(len(pairs)) if w not in echelon]
    algebra = _glue(pair.algebra, n, [[_terms_of(p, dict(v), den * den) for v in columns(f)] if beta[f]
                                      else () for f in free], pair.projection)
    q = len(free)
    hom = Matrix(F, L.dim, q + n, Nonzeros(pair.mu.terms + tuple(((q + a, F.one()),) for a in range(n))))
    return pair, algebra, GradedHom(algebra, L, hom, _trusted=True)


class UniversalImbedding(Record):
    lts: LieTripleSystem
    algebra: GradedLieAlgebra
    iota: Matrix               # dim x dim(T), inclusion onto the odd part
    upsilon: GradedHom         # onto the standard imbedding
    pair: ModuleQuotient       # <T,T> = T^T/A(T^T), the even part
    ste: StandardImbedding


def universal_imbedding(T: LieTripleSystem) -> UniversalImbedding:
    ste = standard_imbedding(T)
    pair, algebra, upsilon = _envelope(ste.algebra)
    F, q = T.field, algebra.dim0
    iota = Matrix.from_cols(F, Nonzeros(((q + a, F.one()),) for a in range(T.dim)), rows=q + T.dim)
    return UniversalImbedding(T, algebra, iota, upsilon, pair, ste)


# ---------------------------------------------------------------------------
# an even algebra and a module glued into a graded algebra

def _glue(L: GradedLieAlgebra, mdim: int, actions: Sequence, pairing: Matrix) -> GradedLieAlgebra:
    """The all-even L glued to a module M as the odd part, with [x+m, y+n] = ([x,y] + <m,n>) +
    (x.n - y.m): actions[i][u] are the nonzeros (l, x) of e_i . m_u (an empty actions[i] acts as
    0), and the pairing is a matrix on the wedge coordinates of M.  Built by the trusted
    assembler, it checks nothing: the result is Lie when the pairing is equivariant and
    <m,n>.k + <n,k>.m + <k,m>.n = 0.  Ste(T) and A(T) satisfy both by theorem, and
    tests/test_trusted.py asserts that with check_graded_lie."""
    d = L.dim
    pairs = [(i, j, L.terms[i][j]) for i in range(d) for j in range(i + 1, d)]
    pairs += [(i, d + u, [(d + l, x) for l, x in col])
              for i, cols in enumerate(actions) for u, col in enumerate(cols) if col]
    pairs += [(d + u, d + v, col) for col, (u, v) in zip(pairing.transpose().terms, wedge_pairs(mdim))]
    return _assemble(L.field, d, mdim, pairs)


# ---------------------------------------------------------------------------
# homomorphism extension and the functor on morphisms

def extend_hom(T: LieTripleSystem, L: GradedLieAlgebra, alpha: Matrix) -> GradedHom:
    """The unique graded hom out of the universal imbedding of T restricting
    to alpha: T -> L_1 on the odd part.

    alpha must be a triple-system hom into the odd part of L.  The even
    values are [alpha(t), alpha(t')] summed over a coset representative of
    each pair-algebra basis vector; well-definedness (the radical A(T^T)
    must map to zero) is re-verified at runtime.
    """
    from .lts import is_lts_hom, odd_part_lts
    if not is_lts_hom(alpha, T, odd_part_lts(L)):
        raise ValueError("alpha is not a homomorphism into the odd part of L")
    return _extend(T, L, alpha)


def _extend(T: LieTripleSystem, L: GradedLieAlgebra, alpha: Matrix) -> GradedHom:
    """extend_hom past its check: alpha is a triple-system hom T -> L_1."""
    env = universal_imbedding(T)
    F = L.field
    # the columns of alpha, and their brackets, at their places in L
    alpha_cols = [tuple((L.dim0 + a, x) for a, x in col) for col in alpha.transpose().terms]
    zeta_cols = [_bracket(L, alpha_cols[i], alpha_cols[j]).items() for i, j in wedge_pairs(T.dim)]
    if any(_sparse_sum(F.p, ((x, zeta_cols[w]) for w, x in v)) for v in env.pair.a_subspace.basis.terms):
        raise RuntimeError("extension ill-defined: the radical does not map to zero")
    # the pair quotient's basis vectors are the cosets of the unit vectors at the free columns
    pivots = set(env.pair.a_subspace.pivots)
    cols = [tuple(sorted(v)) for c, v in enumerate(zeta_cols) if c not in pivots] + alpha_cols
    return GradedHom(env.algebra, L, Matrix.from_cols(F, Nonzeros(cols), rows=L.dim), _trusted=True)


def imbedding_functor_hom(alpha: LtsHom) -> GradedHom:
    """A(alpha): A(S) -> A(T), extend_hom of alpha: S -> T into A(T).  The hom law of alpha was
    checked when the LtsHom was built, and the odd part of A(T) is T by construction, so
    extend_hom's own check of alpha is not run again."""
    return _extend(alpha.source, universal_imbedding(alpha.target).algebra, alpha.matrix)


# ---------------------------------------------------------------------------
# universal central 0-extensions

def universal_central_0_extension(L: GradedLieAlgebra) -> CentralExtensionProblem:
    """For L generated by its odd part: A(L_1) -> L, the identity on L_1, read off L's brackets
    by _envelope.  from_hom checks it onto with an even central kernel; a refusal is a fault here."""
    if not is_generated_by_odd(L):
        raise ValueError("algebra is not generated by its odd part")
    try:
        return CentralExtensionProblem.from_hom(_envelope(L)[2])
    except NotCentral0Extension as exc:
        raise RuntimeError(f"universal central 0-extension: {exc}") from None


# ---------------------------------------------------------------------------
# the two-condition characterization

class EnvelopeCriterionReport(Record):
    """Outcome of the two-condition test for being (isomorphic to) the
    universal imbedding of a triple system: the odd part must generate and
    trivial-coefficient graded H^2 must vanish."""

    verdict: bool
    generated_by_odd: bool
    h2_dimension: int
    obstruction: Optional[str]
    witness: Optional[GradedHom]  # A(L_1) -> L, an isomorphism, when the verdict holds


def envelope_criterion(L: GradedLieAlgebra) -> EnvelopeCriterionReport:
    """When L_1 generates L, A(L_1) -> L, the identity on L_1, is onto with an even central
    kernel of dimension H^2 = dim A(L_1)_0 - dim L_0 (Weibel 7.9), read after the radical step
    of _envelope as dim L_1^L_1 - dim A(L_1^L_1) - dim L_0.  Only if H^2 = 0 does the rest of
    _envelope run: its hom is then the witness.  H^2 is eliminated, by cohom, only when the
    odd part does not generate."""
    if not is_generated_by_odd(L):
        from .cohom import h2_graded
        return EnvelopeCriterionReport(False, False, h2_graded(L, trivial_module(L)).dimension,
                                       "the odd part does not generate the algebra", None)
    radical = _bracket_radical(L)
    h2 = len(radical[0]) - len(radical[-1]) - L.dim0  # the pairs, the radical's echelon
    if h2:
        return EnvelopeCriterionReport(False, True, h2,
                                       f"graded H^2 with trivial coefficients has dimension {h2}", None)
    return EnvelopeCriterionReport(True, True, 0, None, _envelope(L, radical)[2])

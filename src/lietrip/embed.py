"""Imbeddings of Lie triple systems into Z2-graded Lie algebras, built for
a system T in one chain T -> Ste(T) -> <T,T> -> A(T):

* the standard imbedding Ste(T), inner derivations plus T itself, with
  bracket [X+a, Y+b] = ([X,Y] + D_{a,b}) + (Xb - Ya);
* the pair algebra <T,T> = (T^T)/A(T^T): T^T as a module over Inder(T),
  the even part of Ste(T), divided by the radical of lam: a^b -> D_{a,b},
  Ste's odd-odd bracket.  It is a central extension of Inder(T);
* the universal imbedding A(T), with even part <T,T> and odd part T.  The
  inclusion of T into it is initial among all imbeddings of T into Lie
  algebras, which makes T -> A(T) a functor and every hom out of it
  determined by its odd restriction.

Ste(T), A(T) and graded_algebra_from_pairing glue an even algebra to a
module through an alternating pairing with ``_glue``.  The chain reads
only the structure tensor: Ste(T) is Inder(T) paired by the D_{e_i,e_j},
and no step computes Der(T).  Bases are deterministic RREF bases, so
structure constants are reproducible across runs.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .exactlin import (
    Matrix, Nonzeros, QuotientSpace, Record, Subspace, _echelon, _integer_rows, _integer_terms,
    _null_vectors, _reduce, _sparse_sum, _subspace, _terms_of, kernel_basis, quotient,
)
from .grlie import (
    GradedHom, GradedLieAlgebra, GradedModule, _assemble, _bracket, is_generated_by_odd,
)
from .lts import (
    DerivationAlgebra, LieTripleSystem, LtsHom, _flat_rows, _inner_flats, inner_derivation_algebra,
    is_lts_hom, odd_part_lts,
)


# ---------------------------------------------------------------------------
# exterior square bookkeeping

def wedge_pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]

def wedge_dim(n: int) -> int:
    return n * (n - 1) // 2

def wedge_index(i: int, j: int, n: int) -> int:
    if not 0 <= i < j < n:
        raise ValueError("wedge index needs i < j")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _wedge(k: int, l: int, n: int) -> tuple:
    """e_k^e_l on the basis {e_i^e_j : i < j}, as a sparse vector."""
    return () if k == l else ((wedge_index(min(k, l), max(k, l), n), 1 if k < l else -1),)


def _wedge_columns(p: Optional[int], n: int, cols: Sequence) -> list:
    """The columns D.(e_i^e_j) = De_i^e_j + e_i^De_j, i < j, of D on the exterior
    square, as dicts of their nonzeros, from D's sparse (integer) columns."""
    return [_sparse_sum(p, chain(((x, _wedge(k, j, n)) for k, x in cols[i]),
                                 ((x, _wedge(i, k, n)) for k, x in cols[j])))
            for i, j in wedge_pairs(n)]


# ---------------------------------------------------------------------------
# standard imbedding

class StandardImbedding(Record):
    lts: LieTripleSystem
    algebra: GradedLieAlgebra
    inclusion: Matrix  # (dim0+dim1) x dim(T), onto the odd part
    inder: DerivationAlgebra  # Inder(T), the even part


def standard_imbedding(T: LieTripleSystem) -> StandardImbedding:
    F = T.field
    n = T.dim
    inder = inner_derivation_algebra(T)
    r = inder.dim
    even = _assemble(F, r, 0, (
        (a, b, inder.terms[a][b]) for a in range(r) for b in range(a + 1, r)))
    # the D_{e_i,e_j} span Inder(T): their coordinates are their entries at the pivots
    flat = _inner_flats(T)
    pairing = Matrix.from_cols(F, Nonzeros(
        tuple((q, flat[i][j][c]) for q, c in enumerate(inder.span.pivots) if c in flat[i][j])
        for i, j in wedge_pairs(n)), rows=r)
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
    F = T.field
    n = T.dim
    ste = standard_imbedding(T)
    r = ste.inder.dim
    s = ste.algebra.terms
    inder_algebra = _assemble(F, r, 0, ((a, b, s[a][b]) for a in range(r) for b in range(a + 1, r)))
    # column u of the basis derivation D_a is [D_a, e_u], at the odd index r + u
    cols, den = _integer_terms(F.p, [[[(l - r, x) for l, x in v] for v in s[a][r:]]
                                     for a in range(r)], 2)
    actions = Nonzeros(tuple(tuple(_terms_of(F.p, v, den) for v in _wedge_columns(F.p, n, c)) for c in cols))
    module = GradedModule(inder_algebra, wedge_dim(n), 0, actions, unchecked=True)
    lam = Matrix.from_cols(F, Nonzeros(s[r + i][r + j] for i, j in wedge_pairs(n)), rows=r)
    return WedgeModule(T, ste, inder_algebra, module, lam)


# ---------------------------------------------------------------------------
# the generic module-quotient algebra

class ModuleQuotient(Record):
    """Quotient Q = M/A(M) of a module by its radical A(M) = span{lam(m).m},
    carrying the Lie bracket [p,q] = mu(p).q and the induced map mu."""

    a_subspace: Subspace
    quotient: QuotientSpace
    algebra: GradedLieAlgebra  # all-even, dim = M/A(M)
    mu: Matrix                 # L.dim x quotient dim


def _radical(p: Optional[int], mdim: int, lam_rows: list, acting, image: Sequence,
             bound: Optional[int] = None, kernel: str = "lam") -> dict:
    """The echelon {pivot: row} of A(M) = span{lam(m).m} from lam's integer rows and acting(u)
    = [lam(e_u).e_v for each v]: lam maps its pivot columns s_i onto a basis of Im(lam), so
    lam(s_i).s_i, lam(s_i).s_j + lam(s_j).s_i and lam(s_i).k, k in ker(lam), span A(M).  It
    stops at rank bound (default dim ker(lam), as A(M) lies in ker(lam)); its rows must map
    to 0 under image, the columns of a map."""
    lam_echelon, _ = _echelon(lam_rows, p, mdim)
    pivots = sorted(lam_echelon)
    ker = _null_vectors(p, mdim, lam_echelon)
    acts = [acting(u) for u in pivots]  # acts[i][v] = lam(s_i).e_v
    gens = [row[u] for row, u in zip(acts, pivots)]
    gens += [_sparse_sum(p, ((1, acts[i][pivots[j]].items()), (1, acts[j][u].items())))
             for i, u in enumerate(pivots) for j in range(i + 1, len(pivots))]
    gens += [_sparse_sum(p, ((x, row[w].items()) for w, x in k.items())) for row in acts for k in ker]
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

    def act(u, v):  # lam(e_u).e_v
        return _sparse_sum(p, ((x, action_cols[a][v].items()) for a, x in lam_cols[u].items()))

    echelon = _radical(p, mdim, _integer_rows(p, map(dict, lam.terms))[0],
                       lambda u: [act(u, v) for v in range(mdim)], lam_t)
    a_sub = _subspace(F, mdim, echelon)
    q = quotient(mdim, a_sub)
    # the section's columns are the unit vectors at the free coordinates
    free = [c for c in range(mdim) if c not in echelon]
    mu = Matrix.from_cols(F, Nonzeros(lam_t[c] for c in free), rows=L.dim)
    position = {c: s for s, c in enumerate(free)}
    # [s, t] is the normal form of lam(e_f).e_g (0 if lam(e_f) = 0), f and g the free columns s
    # and t; over Q of den^2 * scale times it, integral for scale the lcm of the pivot entries
    scale = lcm(*(row[c] for c, row in echelon.items()))
    table = {(s, position[g]): {position[c]: x for c, x in _reduce(
        {j: x * scale for j, x in act(f, g).items()}, echelon, p).items()}
        for s, f in enumerate(free) if lam_cols[f] for g in free[s + 1:]}
    algebra = _assemble(F, q.dim, 0, ((s, t, _terms_of(p, v, den * den * scale))
                                      for (s, t), v in table.items()))
    # [z, e_j] = sum_i z_i [e_i, e_j] at (j, c): table entry v = [e_s, e_t] adds z_s v at t, -z_t v at s
    for z in map(dict, kernel_basis(mu).basis.terms):
        if _sparse_sum(p, ((y, (((j, c), x) for c, x in v.items())) for (s, t), v in table.items()
                           for j, y in ((t, z.get(s, 0)), (s, -z.get(t, 0))) if y)):
            raise RuntimeError("kernel of mu is not central in the quotient")
    return ModuleQuotient(a_sub, q, algebra, mu)


# ---------------------------------------------------------------------------
# the pair algebra <T,T>

class PairAlgebra(Record):
    lts: LieTripleSystem
    algebra: GradedLieAlgebra  # all-even
    mu: Matrix                 # inder.dim x dim<T,T>, valued in inner-derivation coordinates
    mu_end: Matrix             # n^2 x dim<T,T>, same map flattened into End(T)
    projection: Matrix         # wedge -> <T,T>
    section: Matrix            # <T,T> -> wedge (RREF coset representatives)
    wedge: WedgeModule
    a_subspace: Subspace


def pair_algebra(T: LieTripleSystem) -> PairAlgebra:
    w = wedge_module(T)
    mq = module_quotient_algebra(w.inder_algebra, w.module, w.lam)
    mu_end = w.ste.inder.span.basis.transpose().matmul(mq.mu)
    return PairAlgebra(T, mq.algebra, mq.mu, mu_end,
                       mq.quotient.projection, mq.quotient.section, w, mq.a_subspace)


# ---------------------------------------------------------------------------
# the universal imbedding

class UniversalImbedding(Record):
    lts: LieTripleSystem
    algebra: GradedLieAlgebra
    iota: Matrix               # dim x dim(T), inclusion onto the odd part
    upsilon: GradedHom         # onto the standard imbedding
    angle_projection: Matrix   # wedge -> <T,T>
    pair: PairAlgebra
    ste: StandardImbedding


def universal_imbedding(T: LieTripleSystem) -> UniversalImbedding:
    F = T.field
    n = T.dim
    pa = pair_algebra(T)
    q = pa.algebra.dim0
    # e_s acts on T by mu(e_s), the n x n matrix whose flattening is column s of mu_end
    actions = [Matrix(F, n, n, _flat_rows(f, n)).transpose().terms
               for f in pa.mu_end.transpose().terms]
    algebra = _glue(pa.algebra, n, actions, pa.projection)

    ste = pa.wedge.ste
    r = ste.inder.dim
    # the even block of upsilon is mu itself, valued in Ste's even basis, the odd block the identity
    upsilon = GradedHom(algebra, ste.algebra, Matrix(F, r + n, q + n, Nonzeros(
        pa.mu.terms + tuple(((q + a, F.one()),) for a in range(n)))), unchecked=True)
    iota = Matrix.from_cols(F, Nonzeros(((q + a, F.one()),) for a in range(n)), rows=q + n)
    return UniversalImbedding(T, algebra, iota, upsilon, pa.projection, pa, ste)


# ---------------------------------------------------------------------------
# generic graded algebra from an equivariant alternating pairing

def graded_algebra_from_pairing(L: GradedLieAlgebra, module: GradedModule,
                                pairing: Matrix) -> GradedLieAlgebra:
    """Glue an (all-even) algebra L to a module M as the odd part, with
    [x+m, y+n] = ([x,y] + <m,n>) + (x.n - y.m).

    The pairing is a matrix on wedge coordinates of M.  Both hypotheses are
    checked on basis tuples first: equivariance [x,<m,n>] = <x.m,n> + <m,x.n>
    and the cyclic relation <m,n>.k + <n,k>.m + <k,m>.n = 0.
    """
    F = L.field
    if L.dim1 != 0:
        raise ValueError("the base algebra must be purely even")
    mdim = module.dim
    if pairing.rows != L.dim or pairing.cols != wedge_dim(mdim):
        raise ValueError("pairing shape mismatch")

    cols = pairing.transpose().terms
    act = module.terms  # act[a][u] = the nonzeros of e_a . m_u

    def pair(u: int, v: int):  # the nonzeros of <m_u, m_v>
        return [(l, s * x) for w, s in _wedge(u, v, mdim) for l, x in cols[w]]

    for a in range(L.dim):
        for u in range(mdim):
            for v in range(u + 1, mdim):
                if _sparse_sum(F.p, chain(((x, L.terms[a][l]) for l, x in pair(u, v)),
                                          ((-x, pair(w, v)) for w, x in act[a][u]),
                                          ((-x, pair(u, w)) for w, x in act[a][v]))):
                    raise ValueError(f"pairing is not equivariant: fails at ({a}, {u}, {v})")
    for u in range(mdim):
        for v in range(mdim):
            for k in range(mdim):
                if _sparse_sum(F.p, ((y, act[b][h]) for f, g, h in ((u, v, k), (v, k, u), (k, u, v))
                                     for b, y in pair(f, g))):
                    raise ValueError(f"pairing violates the cyclic relation at ({u}, {v}, {k})")
    return _glue(L, mdim, module.terms, pairing)


def _glue(L: GradedLieAlgebra, mdim: int, actions: Sequence, pairing: Matrix) -> GradedLieAlgebra:
    """The algebra of :func:`graded_algebra_from_pairing`, with actions[i][u]
    the nonzeros (l, x) of e_i . m_u, built by the trusted assembler; it
    checks nothing.  Ste(T) and A(T) satisfy the hypotheses by theorem, and
    tests/test_trusted.py asserts that with check_graded_lie."""
    d = L.dim
    pairs = [(i, j, L.terms[i][j]) for i in range(d) for j in range(i + 1, d)]
    pairs += [(i, d + u, [(d + l, x) for l, x in col])
              for i, cols in enumerate(actions) for u, col in enumerate(cols)]
    pairs += [(d + u, d + v, col) for col, (u, v) in zip(pairing.transpose().terms, wedge_pairs(mdim))]
    return _assemble(L.field, d, mdim, pairs)


# ---------------------------------------------------------------------------
# homomorphism extension and the functor on morphisms

def extend_hom(T: LieTripleSystem, L: GradedLieAlgebra, alpha: Matrix,
               envelope: Optional[UniversalImbedding] = None) -> GradedHom:
    """The unique graded hom out of the universal imbedding of T restricting
    to alpha: T -> L_1 on the odd part.

    alpha must be a triple-system hom into the odd part of L.  The even
    values are [alpha(t), alpha(t')] summed over a coset representative of
    each pair-algebra basis vector; well-definedness (the radical A(T^T)
    must map to zero) is re-verified at runtime.
    """
    if alpha.rows != L.dim1 or alpha.cols != T.dim:
        raise ValueError("alpha must be an L.dim1 x dim(T) matrix")
    if envelope is not None and envelope.lts is not T and envelope.lts != T:
        raise ValueError("envelope is not the universal imbedding of T")
    if not is_lts_hom(alpha, T, odd_part_lts(L)):
        raise ValueError("alpha is not a homomorphism into the odd part of L")
    return _extension(L, alpha, envelope if envelope is not None else universal_imbedding(T))


def _extension(L: GradedLieAlgebra, alpha: Matrix, env: UniversalImbedding) -> GradedHom:
    """extend_hom once alpha is known to be a hom T -> L_1."""
    F = L.field
    # the columns of alpha, and their brackets, at their places in L
    alpha_cols = [tuple((L.dim0 + a, x) for a, x in col) for col in alpha.transpose().terms]
    zeta_cols = [_bracket(L, alpha_cols[i], alpha_cols[j]).items() for i, j in wedge_pairs(env.lts.dim)]
    if any(_sparse_sum(F.p, ((x, zeta_cols[w]) for w, x in v)) for v in env.pair.a_subspace.basis.terms):
        raise RuntimeError("extension ill-defined: the radical does not map to zero")
    # the pair section's columns are the unit vectors at the free coordinates
    pivots = set(env.pair.a_subspace.pivots)
    cols = [tuple(sorted(v)) for c, v in enumerate(zeta_cols) if c not in pivots] + alpha_cols
    return GradedHom(env.algebra, L, Matrix.from_cols(F, Nonzeros(cols), rows=L.dim), unchecked=True)


def imbedding_functor_hom(alpha: LtsHom,
                          source_env: Optional[UniversalImbedding] = None,
                          target_env: Optional[UniversalImbedding] = None) -> GradedHom:
    """The universal imbedding applied to a morphism of triple systems."""
    if target_env is not None and target_env.lts is not alpha.target and target_env.lts != alpha.target:
        raise ValueError("target_env is not the universal imbedding of the target")
    env_s = target_env if target_env is not None else universal_imbedding(alpha.target)
    return extend_hom(alpha.source, env_s.algebra, alpha.matrix, envelope=source_env)


# ---------------------------------------------------------------------------
# universal central 0-extensions

class UniversalCentral0Extension(Record):
    envelope: UniversalImbedding  # of the odd part of L
    hom: GradedHom                # envelope.algebra -> L, the identity on odd parts
    kernel: Subspace


def universal_central_0_extension(L: GradedLieAlgebra) -> UniversalCentral0Extension:
    """For L generated by its odd part: the extension of id on L_1 to a
    surjection from the universal imbedding of L_1, whose kernel is even
    and central.  The hom is eliminated once, and each kernel basis vector z is
    checked to be 0 on the odd coordinates and to have [z, e_j] = 0 for every j."""
    if not is_generated_by_odd(L):
        raise ValueError("algebra is not generated by its odd part")
    env = universal_imbedding(odd_part_lts(L))
    A = env.algebra
    hom = _extension(L, Matrix.identity(L.field, L.dim1), env)
    ker = kernel_basis(hom.matrix)
    if A.dim - ker.dim != L.dim:
        raise RuntimeError("extension of the identity failed to be surjective")
    zs = ker.basis.terms
    if any(i >= A.dim0 for z in zs for i, _ in z):
        raise RuntimeError("kernel escaped the even part")
    if any(_sparse_sum(A.field.p, ((x, A.terms[i][j]) for i, x in z)) for z in zs for j in range(A.dim)):
        raise RuntimeError("kernel escaped the center")
    return UniversalCentral0Extension(env, hom, ker)

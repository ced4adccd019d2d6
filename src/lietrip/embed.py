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

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .exactlin import (
    Field, Matrix, QuotientSpace, Record, Subspace, Vector, _echelon, _integer_rows,
    _kernel_vectors, _null_vectors, _reduce, _sparse_rows, _subspace, kernel_basis,
    linear_combination, mat_from_flat, nonzeros, quotient, unit_vec, vec_add, vec_from_sums,
    vec_is_zero, zero_vec,
)
from .grlie import (
    GradedHom, GradedLieAlgebra, GradedModule, _assemble, is_generated_by_odd,
)
from .lts import (
    DerivationAlgebra, LieTripleSystem, LtsHom, inner_derivation_algebra, is_lts_hom,
    odd_part_lts,
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


def wedge_of(field: Field, a: Vector, b: Vector) -> Vector:
    """Coordinates of a^b on the basis {e_i^e_j : i < j}."""
    nb = nonzeros(b)
    return _wedge(field, len(a), [(i, j, x * y) for i, x in nonzeros(a) for j, y in nb])


def wedge_action(endo: Matrix) -> Matrix:
    """The induced action D.(a^b) = Da^b + a^Db on the exterior square,
    read from the nonzeros of D's columns."""
    n = endo.rows
    cols = [nonzeros(c) for c in endo.transpose().entries]
    return Matrix.from_cols(endo.field, [
        _wedge(endo.field, n, [(k, j, x) for k, x in cols[i]] + [(i, k, x) for k, x in cols[j]])
        for i, j in wedge_pairs(n)], rows=wedge_dim(n))


def _wedge(field: Field, n: int, terms: list) -> Vector:
    """Coordinates of the sum of x e_k^e_l over the (k, l, x) in terms."""
    acc = [0] * wedge_dim(n)
    for k, l, x in terms:
        if k < l:
            acc[wedge_index(k, l, n)] += x
        elif l < k:
            acc[wedge_index(l, k, n)] -= x
    return vec_from_sums(field, acc)


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
    total = r + n
    even = _assemble(F, r, 0, (
        (a, b, enumerate(inder.bracket[a][b])) for a in range(r) for b in range(a + 1, r)))
    # the D_{e_i,e_j} span Inder(T): coordinates are pivot entries, c = r*n + m at t[i][j][m][r]
    pairing = Matrix.from_cols(F, [tuple(T.triple[i][j][c % n][c // n] for c in inder.span.pivots)
                                   for i, j in wedge_pairs(n)], rows=r)
    algebra = _glue(even, n, inder.basis, pairing)
    inclusion = Matrix.from_cols(F, [unit_vec(F, total, r + i) for i in range(n)], rows=total)
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
    """T^T as a module over Inder(T), with lam read off Ste(T)'s odd-odd
    bracket block."""
    F = T.field
    n = T.dim
    ste = standard_imbedding(T)
    r = ste.inder.dim
    br = ste.algebra.bracket
    inder_algebra = _assemble(F, r, 0, (
        (a, b, enumerate(br[a][b][:r])) for a in range(r) for b in range(a + 1, r)))
    actions = tuple(wedge_action(x) for x in ste.inder.basis)
    module = GradedModule(inder_algebra, wedge_dim(n), 0, actions, unchecked=True)
    lam = Matrix.from_cols(F, [br[r + i][r + j][:r] for i, j in wedge_pairs(n)], rows=r)
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
    cols = [dict(nonzeros(c)) for m in (lam, *module.action) for c in m.transpose().entries]
    ints, den = _integer_rows(p, cols + [dict(nonzeros(v)) for row in L.bracket for v in row])
    lam_cols, *action_cols = (ints[k * mdim:(k + 1) * mdim] for k in range(L.dim + 1))
    bracket = ints[len(cols):]  # bracket[a * L.dim + b] = [e_a, e_b]
    for a in range(L.dim):
        for u in range(mdim):
            lhs = _sparse_sum(p, ((x, lam_cols[w]) for w, x in action_cols[a][u].items()))
            rhs = _sparse_sum(p, ((x, bracket[a * L.dim + b]) for b, x in lam_cols[u].items()))
            if lhs != rhs:
                raise ValueError(f"lam is not a module homomorphism: fails at basis pair ({a}, {u})")

    def act(u, v):  # lam(e_u).e_v
        return _sparse_sum(p, ((x, action_cols[a][v]) for a, x in lam_cols[u].items()))

    # lam maps its pivot columns s_i onto a basis of Im(lam), so A(M) = span{lam(m).m} is
    # spanned by lam(s_i).s_i, lam(s_i).s_j + lam(s_j).s_i and lam(s_i).k for k in ker(lam)
    lam_echelon, _ = _echelon(_integer_rows(p, _sparse_rows(lam.entries))[0], p, mdim)
    pivots = sorted(lam_echelon)
    ker = _null_vectors(p, mdim, lam_echelon)
    acts = [{v: act(u, v) for v in range(mdim)} for u in pivots]  # acts[i][v] = lam(s_i).e_v
    gens = [act(u, u) for u in pivots]
    gens += [_sparse_sum(p, ((1, acts[i][pivots[j]]), (1, acts[j][u])))
             for i, u in enumerate(pivots) for j in range(i + 1, len(pivots))]
    gens += [_sparse_sum(p, ((x, row[w]) for w, x in k.items())) for row in acts for k in ker]
    if any(_sparse_sum(p, ((x, lam_cols[w]) for w, x in g.items())) for g in gens):
        raise RuntimeError("A(M) escaped the kernel of lam")
    echelon, _ = _echelon(gens, p, len(ker))  # A(M) lies in ker(lam): stop at its rank

    a_sub = _subspace(F, mdim, echelon)
    q = quotient(mdim, a_sub)
    # the section's columns are the unit vectors at the free coordinates
    free = [c for c in range(mdim) if c not in echelon]
    mu = Matrix.from_cols(F, [lam.col(c) for c in free], rows=L.dim)
    position = {c: s for s, c in enumerate(free)}
    # [s, t] is the normal form of lam(e_f).e_g, f and g the free columns s and t; over Q
    # of den^2 * scale times it, integral for scale the lcm of the pivot entries
    scale = lcm(*(row[c] for c, row in echelon.items()))
    table = {(s, position[g]): {position[c]: x for c, x in _reduce(
        {j: x * scale for j, x in act(f, g).items()}, echelon, p).items()}
        for s, f in enumerate(free) for g in free[s + 1:]}
    algebra = _assemble(F, q.dim, 0, (
        (s, t, [(c, Fraction(x, den * den * scale)) for c, x in v.items()] if p is None else v.items())
        for (s, t), v in table.items()))
    for z in _kernel_vectors(mu):  # [z, e_j] is sum_i z_i [e_i, e_j]
        if any(_sparse_sum(p, ((x, table[i, j]) if i < j else (-x, table[j, i])
                               for i, x in z.items() if i != j)) for j in range(q.dim)):
            raise RuntimeError("kernel of mu is not central in the quotient")
    return ModuleQuotient(a_sub, q, algebra, mu)


def _sparse_sum(p: Optional[int], terms) -> dict:
    """The sum of c * v over the (c, v) pairs in terms, v a sparse dict,
    as a sparse dict of its nonzero entries (reduced mod p)."""
    acc = {}
    for c, v in terms:
        for j, x in v.items():
            if j in acc:
                acc[j] += c * x
            else:
                acc[j] = c * x
    if p is None:
        return {j: x for j, x in acc.items() if x}
    return {j: x % p for j, x in acc.items() if x % p}


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
    total = q + n
    mats = [mat_from_flat(F, pa.mu_end.col(s), n, n) for s in range(q)]
    algebra = _glue(pa.algebra, n, mats, pa.projection)

    ste = pa.wedge.ste
    r = ste.inder.dim
    # the even block of upsilon is mu itself, valued in Ste's even basis
    ucols = [pa.mu.col(s) + zero_vec(F, n) for s in range(q)]
    ucols += [unit_vec(F, r + n, r + a) for a in range(n)]
    upsilon = GradedHom(algebra, ste.algebra, Matrix.from_cols(F, ucols, rows=r + n), unchecked=True)
    iota = Matrix.from_cols(F, [unit_vec(F, total, q + a) for a in range(n)], rows=total)
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

    def pair_of(u: Vector, v: Vector) -> Vector:
        return pairing.matvec(wedge_of(F, u, v))

    for a in range(L.dim):
        act = module.action[a]
        for u in range(mdim):
            eu = unit_vec(F, mdim, u)
            for v in range(u + 1, mdim):
                ev = unit_vec(F, mdim, v)
                lhs = L.bracket_vec(unit_vec(F, L.dim, a), pair_of(eu, ev))
                rhs = vec_add(F, pair_of(act.col(u), ev), pair_of(eu, act.col(v)))
                if lhs != rhs:
                    raise ValueError(f"pairing is not equivariant: fails at ({a}, {u}, {v})")
    for u in range(mdim):
        eu = unit_vec(F, mdim, u)
        for v in range(mdim):
            ev = unit_vec(F, mdim, v)
            for k in range(mdim):
                ek = unit_vec(F, mdim, k)
                acc = module.act(pair_of(eu, ev)).matvec(ek)
                acc = vec_add(F, acc, module.act(pair_of(ev, ek)).matvec(eu))
                acc = vec_add(F, acc, module.act(pair_of(ek, eu)).matvec(ev))
                if not vec_is_zero(F, acc):
                    raise ValueError(f"pairing violates the cyclic relation at ({u}, {v}, {k})")
    return _glue(L, mdim, module.action, pairing)


def _glue(L: GradedLieAlgebra, mdim: int, actions: Sequence[Matrix],
          pairing: Matrix) -> GradedLieAlgebra:
    """The algebra of :func:`graded_algebra_from_pairing`, with actions[i]
    the matrix of e_i on M, built by the trusted assembler; it checks
    nothing.  Ste(T) and A(T) satisfy the hypotheses by theorem, and
    tests/test_trusted.py asserts that with check_graded_lie."""
    d = L.dim
    pairs = [(i, j, enumerate(L.bracket[i][j])) for i in range(d) for j in range(i + 1, d)]
    pairs += [(i, d + u, enumerate(actions[i].col(u), d)) for i in range(d) for u in range(mdim)]
    pairs += [(d + u, d + v, enumerate(pairing.col(k)))
              for k, (u, v) in enumerate(wedge_pairs(mdim))]
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
    if not is_lts_hom(alpha, T, odd_part_lts(L)):
        raise ValueError("alpha is not a homomorphism into the odd part of L")
    return _extension(T, L, alpha, envelope if envelope is not None else universal_imbedding(T))


def _extension(T: LieTripleSystem, L: GradedLieAlgebra, alpha: Matrix,
               env: UniversalImbedding) -> GradedHom:
    """extend_hom once alpha is known to be a hom T -> L_1."""
    F = L.field
    n = T.dim
    alpha_cols = [zero_vec(F, L.dim0) + alpha.col(j) for j in range(n)]
    zeta_cols = [L.bracket_vec(alpha_cols[i], alpha_cols[j]) for i, j in wedge_pairs(n)]
    zeta = Matrix.from_cols(F, zeta_cols, rows=L.dim)
    for v in env.pair.a_subspace.basis.entries:
        if not vec_is_zero(F, zeta.matvec(v)):
            raise RuntimeError("extension ill-defined: the radical does not map to zero")
    # the pair section's columns are the unit vectors at the free coordinates
    pivots = set(env.pair.a_subspace.pivots)
    cols = [v for c, v in enumerate(zeta_cols) if c not in pivots] + alpha_cols
    return GradedHom(env.algebra, L, Matrix.from_cols(F, cols, rows=L.dim), unchecked=True)


def imbedding_functor_hom(alpha: LtsHom,
                          source_env: Optional[UniversalImbedding] = None,
                          target_env: Optional[UniversalImbedding] = None) -> GradedHom:
    """The universal imbedding applied to a morphism of triple systems."""
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
    and central."""
    if not is_generated_by_odd(L):
        raise ValueError("algebra is not generated by its odd part")
    return _universal_central_0_extension(L)


def _universal_central_0_extension(L: GradedLieAlgebra) -> UniversalCentral0Extension:
    """universal_central_0_extension once L is known to be generated by its odd part.
    The hom is eliminated once, and each kernel basis vector z is checked to be
    0 on the odd coordinates and to have [z, e_j] = 0 for every j."""
    F = L.field
    T = odd_part_lts(L)
    env = universal_imbedding(T)
    A = env.algebra
    hom = _extension(T, L, Matrix.identity(F, L.dim1), env)
    ker = kernel_basis(hom.matrix)
    if A.dim - ker.dim != L.dim:
        raise RuntimeError("extension of the identity failed to be surjective")
    zs = [nonzeros(z) for z in ker.basis.entries]
    if any(i >= A.dim0 for z in zs for i, _ in z):
        raise RuntimeError("kernel escaped the even part")
    if any(not vec_is_zero(F, linear_combination(F, A.dim, ((x, A.bracket[i][j]) for i, x in z)))
           for z in zs for j in range(A.dim)):
        raise RuntimeError("kernel escaped the center")
    return UniversalCentral0Extension(env, hom, ker)

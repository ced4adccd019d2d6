import functools
import random
from fractions import Fraction
from math import lcm

import pytest

import lietrip.cohom
import lietrip.embed
import lietrip.exactlin
import lietrip.grlie
import lietrip.lts
import oracles
from oracles import vec_is_zero
from lietrip.cohom import envelope_criterion, h2_graded
from extra_algebras import sl2_double_swap
from lietrip.corpus import ab2, abl, even_line, heis, odd2, sl2graded, sl2lts
from lietrip.embed import (
    extend_hom, imbedding_functor_hom, module_quotient_algebra, pair_algebra, standard_imbedding,
    universal_central_0_extension, universal_imbedding, wedge_dim,
    wedge_module, wedge_pairs,
)
from lietrip.exactlin import (
    Field, Matrix, QQ, Subspace, _echelon, _sparse_sum, kernel_basis, solve, unit_vec,
)
from lietrip.grlie import (
    GradedHom, GradedLieAlgebra, GradedModule, adjoint_module, center,
    central_quotient, check_graded_lie, direct_sum, identity_hom,
    is_generated_by_odd, trivial_module,
)
from lietrip.lts import (
    LieTripleSystem, LtsHom, check_lts_axioms, derivation_algebra, identity_lts_hom,
    inner_derivation_algebra, lie_triple_system, lts_of_lie, odd_part_lts, triple_bracket,
)
from test_exactlin import _assert_field_entries
from test_cohom import _h2_ladder
from test_lts import LADDER, ORACLE_SYSTEMS

# seeded changes of basis with the diagonal (2, 1/3, 1, ...), so that the
# structure constants themselves have denominators
RATIONAL = [(f"{name}@3/rational", oracles.rational_change_basis(ORACLE_SYSTEMS[name], 3), QQ)
            for name in ("gl(2)", "sl2lts", "grass(2,2)")]

CORPUS_LTS = lambda field=QQ: [abl(1, field), abl(2, field), abl(3, field),
                               abl(4, field), odd2(field), sl2lts(field)]


def lts_direct_sum(T: LieTripleSystem, S: LieTripleSystem) -> LieTripleSystem:
    """Componentwise triple product on the concatenated basis (test helper)."""
    F = T.field
    n, m = T.dim, S.dim
    total = n + m
    z = (F.zero(),) * total

    def pad_t(v):
        return tuple(v) + (F.zero(),) * m

    def pad_s(v):
        return (F.zero(),) * n + tuple(v)

    tensor = []
    for i in range(total):
        ti = []
        for j in range(total):
            tij = []
            for k in range(total):
                if i < n and j < n and k < n:
                    tij.append(pad_t(T.triple[i][j][k]))
                elif i >= n and j >= n and k >= n:
                    tij.append(pad_s(S.triple[i - n][j - n][k - n]))
                else:
                    tij.append(z)
            ti.append(tuple(tij))
        tensor.append(tuple(ti))
    return LieTripleSystem(F, total, tuple(tensor))


# ---------------------------------------------------------------------------
# standard imbedding

def test_ste_abelian():
    for n in (1, 2, 3):
        ste = standard_imbedding(abl(n))
        assert (ste.algebra.dim0, ste.algebra.dim1) == (0, n)
        assert all(vec_is_zero(QQ, v) for row in ste.algebra.bracket for v in row)


def test_ste_odd2_is_sl2():
    ste = standard_imbedding(odd2())
    assert (ste.algebra.dim0, ste.algebra.dim1) == (1, 2)
    # explicit candidate map: the even basis diag(1,-1) acts like h/2
    cand = Matrix.make(QQ, [["1/2", 0, 0], [0, 1, 0], [0, 0, 1]])
    iso = GradedHom(ste.algebra, sl2graded(), cand)
    assert iso.is_bijective()


def test_ste_sl2lts():
    ste = standard_imbedding(sl2lts())
    assert (ste.algebra.dim0, ste.algebra.dim1) == (3, 3)
    assert check_graded_lie(ste.algebra).ok


@pytest.mark.parametrize("T", CORPUS_LTS())
def test_ste_imbedding_property(T):
    ste = standard_imbedding(T)
    n = T.dim
    cols = ste.inclusion.transpose().entries
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = (cols[x] for x in (i, j, k))
                lhs = ste.algebra.bracket_vec(ste.algebra.bracket_vec(a, b), c)
                assert lhs == ste.inclusion.matvec(T.triple[i][j][k])


# ---------------------------------------------------------------------------
# wedge module and the generic quotient

def test_wedge_module_abelian():
    for n in (1, 3, 4):
        assert wedge_module(abl(n)).inder_algebra.dim == 0
    w = wedge_module(abl(3))
    assert w.module.dim == 3
    assert not any(w.lam.terms)
    # the inner derivations (image of lam) are zero and act by zero; the full
    # derivation algebra is gl_3 here and acts by the usual induced wedge action
    for col in w.lam.transpose().entries:
        assert not any(w.module.act(col).terms)
    assert any(any(map(any, oracles.wedge_action(x.to_lists()))) for x in derivation_algebra(abl(3)).basis)


def test_wedge_module_odd2():
    w = wedge_module(odd2())
    assert w.module.dim == 1
    # lam(e^f) = D_{e,f} = 2 diag(1,-1) in the derivation basis
    assert w.lam.to_lists() == [[2]]
    assert kernel_basis(w.lam).dim == 0


def test_wedge_module_sl2lts():
    w = wedge_module(sl2lts())
    assert w.module.dim == 3
    assert kernel_basis(w.lam).dim == 0  # bijective onto the inner derivations
    assert w.inder_algebra.dim == 3


def test_wedge_module_hom_identity():
    for T in (odd2(), sl2lts(), abl(3)):
        w = wedge_module(T)
        F = T.field
        lam_cols = w.lam.transpose().entries
        for a in range(w.inder_algebra.dim):
            ea = unit_vec(F, w.inder_algebra.dim, a)
            act_cols = w.module.action[a].transpose().entries
            for u in range(w.module.dim):
                lhs = w.lam.matvec(act_cols[u])
                rhs = w.inder_algebra.bracket_vec(ea, lam_cols[u])
                assert lhs == rhs


def test_module_quotient_zero_lambda():
    T = abl(2)
    w = wedge_module(T)
    mq = module_quotient_algebra(w.inder_algebra, w.module, w.lam)
    assert mq.a_subspace.dim == 0
    assert mq.algebra.dim == 1
    assert all(vec_is_zero(QQ, v) for row in mq.algebra.bracket for v in row)


def test_module_quotient_adjoint_sl2():
    # adjoint module with lam = id: A = 0 and the quotient returns sl2 itself
    sl2_even = GradedLieAlgebra(QQ, 3, 0, sl2graded().bracket)
    adj = adjoint_module(sl2_even)
    mq = module_quotient_algebra(sl2_even, adj, Matrix.identity(QQ, 3))
    assert mq.a_subspace.dim == 0
    assert mq.algebra.bracket == sl2_even.bracket


def _first_non_hom_pair(L, module, lam):
    """The first basis pair (a, u), in row-major order, at which
    lam(e_a . e_u) != [e_a, lam(e_u)], from dense matrix products."""
    F = L.field
    lam_cols = lam.transpose().entries
    for a in range(L.dim):
        act_cols = module.action[a].transpose().entries
        for u in range(module.dim):
            if lam.matvec(act_cols[u]) != L.bracket_vec(unit_vec(F, L.dim, a), lam_cols[u]):
                return a, u
    return None


def test_module_quotient_rejects_non_hom():
    sl2_even = GradedLieAlgebra(QQ, 3, 0, sl2graded().bracket)
    adj = adjoint_module(sl2_even)
    bad = Matrix.make(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="module homomorphism"):
        module_quotient_algebra(sl2_even, adj, bad)
    # [e_0, e_0] = e_0 is no Lie bracket, but a line acting on itself by
    # the identity makes lam = id a module hom, and lam(e_0).e_0 = e_0 is
    # a generator of A(M) outside ker(lam)
    line = GradedLieAlgebra(QQ, 1, 0, (((Fraction(1),),),), _trusted=True)
    module = GradedModule(line, 1, 0, (Matrix.identity(QQ, 1),), _trusted=True)
    with pytest.raises(RuntimeError, match=r"A\(M\) escaped the kernel of lam"):
        module_quotient_algebra(line, module, Matrix.identity(QQ, 1))


def test_module_quotient_checks_that_the_kernel_of_mu_is_central(monkeypatch):
    """The check reads [e_s, e_t] off the bracket table on both sides of s: in
    <sl2lts, sl2lts> = sl(2), no basis vector is central, whichever its index;
    the one basis vector of <abl(2), abl(2)> is."""
    w = wedge_module(sl2lts())
    for s in range(3):
        monkeypatch.setattr(lietrip.embed, "kernel_basis",
                            lambda m, s=s: Subspace.span(QQ, m.cols, [unit_vec(QQ, m.cols, s)]))
        with pytest.raises(RuntimeError, match="kernel of mu is not central in the quotient"):
            module_quotient_algebra(w.inder_algebra, w.module, w.lam)
    monkeypatch.setattr(lietrip.embed, "kernel_basis",
                        lambda m: Subspace.span(QQ, m.cols, [unit_vec(QQ, m.cols, 0)]))
    assert pair_algebra(abl(2)).algebra.dim == 1


@pytest.mark.parametrize("rows", [
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    [[1, Fraction(1, 2), 0], [0, 1, 0], [0, 0, Fraction(1, 3)]],
    [[Fraction(2, 3), 0, 0], [0, 1, Fraction(-1, 4)], [0, Fraction(5, 6), 1]],
], ids=["integer", "rational", "rational-dense"])
def test_module_quotient_names_the_first_non_hom_pair(rows):
    """The hom law runs on integer columns over Q, and still names the first
    failing pair when lam has denominators."""
    sl2_even = GradedLieAlgebra(QQ, 3, 0, sl2graded().bracket)
    adj = adjoint_module(sl2_even)
    bad = Matrix.make(QQ, rows)
    a, u = _first_non_hom_pair(sl2_even, adj, bad)
    with pytest.raises(ValueError, match=fr"module homomorphism: fails at basis pair \({a}, {u}\)$"):
        module_quotient_algebra(sl2_even, adj, bad)


def test_radical_chain_inclusions():
    for T in (abl(2), odd2(), sl2lts(), lts_direct_sum(sl2lts(), abl(1))):
        w = wedge_module(T)
        mq = module_quotient_algebra(w.inder_algebra, w.module, w.lam)
        ker = kernel_basis(w.lam)
        assert ker.contains_subspace(mq.a_subspace)
        imker = [w.module.act(col).matvec(k)
                 for col in w.lam.transpose().entries for k in ker.basis.entries]
        assert mq.a_subspace.contains_subspace(
            Subspace.span(T.field, w.module.dim, imker))


# ---------------------------------------------------------------------------
# the pair algebra

def _pair_algebra_lists(pa):
    return pa.a_subspace.basis.to_lists(), [[list(v) for v in row] for row in pa.algebra.bracket]


@pytest.mark.parametrize("name, raw, field", LADDER + RATIONAL,
                         ids=[f"{name}-{field}" for name, _, field in LADDER + RATIONAL])
def test_pair_algebra_matches_oracle(name, raw, field):
    pa = pair_algebra(lie_triple_system(field, raw))
    assert _pair_algebra_lists(pa) == oracles.pair_algebra(raw, field.p)


@pytest.mark.parametrize("field, a_dim, ker_dim", [(Field(2), 2, 4), (QQ, 3, 3)], ids=str)
def test_pair_algebra_rank_stop_both_branches(field, a_dim, ker_dim, monkeypatch):
    """A(M) is eliminated from r * dim ker(lam) + r(r+1)/2 generators, r the
    rank of lam, and the echelon stops at rank dim ker(lam): in gl(2) over Q
    it gets there before the last generator, over F_2 never."""
    calls = []

    def counting(rows, p, bound):
        read = []
        calls.append(read)
        return _echelon((read.append(r) or r for r in rows), p, bound)

    raw = oracles.lts_of_bracket(oracles.gl_bracket(2))
    T = lie_triple_system(field, raw)
    lam = wedge_module(T).lam
    monkeypatch.setattr(lietrip.embed, "_echelon", counting)
    pa = pair_algebra(T)
    assert (pa.a_subspace.dim, kernel_basis(lam).dim) == (a_dim, ker_dim)
    r = wedge_dim(4) - ker_dim
    generators = r * ker_dim + r * (r + 1) // 2
    assert len(calls) == 2  # lam's rows, then the generators of A(M)
    assert (len(calls[1]) < generators) == (a_dim == ker_dim)
    assert len(calls[1]) <= generators
    assert _pair_algebra_lists(pa) == oracles.pair_algebra(raw, field.p)


def radical_generators(monkeypatch, build):
    """The generators of A(M) that build() hands to the echelon engine: the
    last of the echelons it runs in embed, after lam's rows (and, on the
    path of embed._envelope, the rows of ad before them)."""
    calls = []

    def recording(rows, p, bound):
        rows = list(rows)
        calls.append([dict(r) for r in rows])
        return _echelon(rows, p, bound)

    with monkeypatch.context() as m:
        m.setattr(lietrip.embed, "_echelon", recording)
        build()
    assert len(calls) in (2, 3)
    return calls[-1]


def assert_in_kernel_of_lam(raw, generators, p):
    """Each generator, a sparse row on the wedge basis, is killed by the
    oracle's dense lam: e_i^e_j -> [e_i, e_j, -]."""
    lam = oracles.lam_matrix(raw)
    den = lcm(*(Fraction(x).denominator for row in lam for x in row))
    rows = [[int(Fraction(x) * den) for x in row] for row in lam if any(row)]
    assert not any(oracles.scalar(sum(row[u] * x for u, x in g.items()), p)
                   for g in generators for row in rows)


DENSE_GL3 = oracles.lts_of_bracket(oracles.change_bracket_basis(oracles.gl_bracket(3), 1))
RADICAL_CASES = LADDER + RATIONAL + [("gl(3)@1", DENSE_GL3, QQ), ("gl(3)@1", DENSE_GL3, Field(5))]


def test_dense_gl3_is_a_change_of_basis_of_its_triple():
    gl2 = oracles.gl_bracket(2)
    assert (oracles.lts_of_bracket(oracles.change_bracket_basis(gl2, 1))
            == oracles.change_basis(oracles.lts_of_bracket(gl2), 1))


@pytest.mark.parametrize("name, raw, field", RADICAL_CASES,
                         ids=[f"{name}-{field}" for name, _, field in RADICAL_CASES])
def test_every_radical_generator_lies_in_the_kernel_of_lam(name, raw, field, monkeypatch):
    """The library checks only the echelon rows of A(M) against ker(lam) (or
    the bracket); every generator lies there, on both routes that build A(M):
    the pair algebra's module quotient over Inder(T), and envelope_criterion
    on A(T), whose lam is ad(beta) on the odd part, beta the odd-odd bracket."""
    T = lie_triple_system(field, raw)
    assert_in_kernel_of_lam(raw, radical_generators(monkeypatch, lambda: pair_algebra(T)), field.p)
    A = universal_imbedding(T).algebra
    odd = [[[list(v) for v in tij] for tij in ti] for ti in odd_part_lts(A).triple]
    assert odd == [[[list(v) for v in tij] for tij in ti] for ti in T.triple]
    assert_in_kernel_of_lam(odd, radical_generators(monkeypatch, lambda: envelope_criterion(A)),
                            field.p)


def test_the_radical_builds_no_generator_the_echelon_does_not_read(monkeypatch):
    """_radical hands its generators of A(M) to the echelon engine as they are built: on
    the envelope of Ste(gl(6)) over Q the engine stops at the rank bound after reading
    a fifth of them, and every generator built is one it read.  A spy counts the
    embed._sparse_sum calls: each generator after the first group (lam(s_i).s_i, which
    acts already holds) is one call, made while the engine runs."""
    ste = standard_imbedding(lts_of_lie(oracles.gl_bracket(6), QQ))
    sums, calls = [0], []

    def counting(p, terms):
        sums[0] += 1
        return _sparse_sum(p, terms)

    def spy(rows, p, bound):
        read = [0]

        def reading():
            for row in rows:
                read[0] += 1
                yield row

        before = sums[0]
        echelon, picked = _echelon(reading(), p, bound)
        calls.append((sums[0] - before, read[0], len(echelon)))
        return echelon, picked

    with monkeypatch.context() as m:
        m.setattr(lietrip.embed, "_sparse_sum", counting)
        m.setattr(lietrip.embed, "_echelon", spy)
        lietrip.embed._bracket_radical(ste.algebra)
    (_, _, _), (_, _, lam_rank), (built, read, rank) = calls
    mdim = len(wedge_pairs(ste.algebra.dim1))
    generators = lam_rank + lam_rank * (lam_rank - 1) // 2 + lam_rank * (mdim - lam_rank)
    assert rank == mdim - ste.algebra.dim0  # the stop fired at the rank bound
    assert read < generators // 4
    assert built == read - lam_rank, (generators, read, built)


@pytest.mark.parametrize("name, raw, field", LADDER + RATIONAL,
                         ids=[f"{name}-{field}" for name, _, field in LADDER + RATIONAL])
def test_image_times_kernel_of_lam_lies_in_a(name, raw, field):
    """Im(lam).Ker(lam), from the oracle's dense products over every wedge
    basis vector, lies in A(M): the pair algebra builds it only from the
    products with lam's pivot columns."""
    a_rows = pair_algebra(lie_triple_system(field, raw)).a_subspace.basis.to_lists()
    products = oracles.image_kernel_products(raw, field.p)
    assert oracles.frac_rank(a_rows + products, field.p) == len(a_rows)


def test_pair_algebra_examples():
    pa = pair_algebra(abl(2))
    assert pa.algebra.dim == 1
    assert not any(pa.mu.terms)
    assert pa.a_subspace.dim == 0

    pa = pair_algebra(odd2())
    assert pa.algebra.dim == 1
    assert kernel_basis(pa.mu).dim == 0
    assert pa.a_subspace.dim == 0

    pa = pair_algebra(sl2lts())
    assert pa.algebra.dim == 3
    assert kernel_basis(pa.mu).dim == 0
    ind = inner_derivation_algebra(sl2lts())
    mu_end = ind.span.basis.transpose().matmul(pa.mu)  # mu flattened into End(T)
    assert Subspace.span(QQ, 9, mu_end.transpose().entries) == ind.span


def test_pair_algebra_nontrivial_radical():
    # sl2lts + abl(1): the radical A(T^T) equals span{h^u, e^u, f^u}, so the
    # pair algebra drops from dim 6 to dim 3 and mu stays injective.
    T = lts_direct_sum(sl2lts(), abl(1))
    pa = pair_algebra(T)
    assert wedge_dim(4) == 6
    assert pa.a_subspace.dim == 3
    assert pa.algebra.dim == 3
    assert kernel_basis(pa.mu).dim == 0


# ---------------------------------------------------------------------------
# the universal imbedding

def test_universal_abl2_is_heis():
    env = universal_imbedding(abl(2))
    assert env.algebra.bracket == heis().bracket
    assert env.upsilon.kernel().dim == 1


def test_universal_odd2():
    env = universal_imbedding(odd2())
    assert (env.algebra.dim0, env.algebra.dim1) == (1, 2)
    assert env.upsilon.is_bijective()


def test_universal_sl2lts():
    env = universal_imbedding(sl2lts())
    assert (env.algebra.dim0, env.algebra.dim1) == (3, 3)
    assert env.upsilon.is_bijective()


def test_universal_computes_derivations_once(monkeypatch):
    import lietrip.embed
    import lietrip.lts
    calls = []
    original = lietrip.lts.derivation_algebra

    def counting(T):
        calls.append(T)
        return original(T)

    monkeypatch.setattr(lietrip.lts, "derivation_algebra", counting)
    assert not hasattr(lietrip.embed, "derivation_algebra")
    # the imbedding chain reads the structure tensor alone: Der(T) is never built
    for T in (abl(3), odd2(), sl2lts(Field(5))):
        env = universal_imbedding(T)
        assert env.ste == standard_imbedding(T)
        assert envelope_criterion(env.algebra).verdict
    assert calls == []


def test_universal_builds_no_action_where_the_bracket_is_zero(monkeypatch):
    """D_f = ad(beta(e_f)) on L_1 is built only where beta(e_f) is nonzero: L_0 = 0 in
    Ste(abl(8)), so A(abl(8)) builds no column of any D_f."""
    built = []

    def recording_cache(columns):
        def recorded(u):
            built.append(u)
            return columns(u)
        return functools.cache(recorded)

    monkeypatch.setattr(lietrip.embed, "cache", recording_cache)
    A = universal_imbedding(abl(8)).algebra
    assert (A.dim0, A.dim1) == (28, 8) and built == []
    # the spy is live: the brackets of Ste(sl2lts) are not zero
    universal_imbedding(sl2lts())
    assert built


@pytest.mark.parametrize("T", CORPUS_LTS() + [lts_direct_sum(sl2lts(), abl(1))])
def test_universal_invariants(T):
    env = universal_imbedding(T)
    assert check_graded_lie(env.algebra).ok
    assert is_generated_by_odd(env.algebra)
    # upsilon: surjective, graded, kernel inside even part and center
    assert env.upsilon.is_surjective()
    ker = env.upsilon.kernel()
    assert env.algebra.even_subspace().contains_subspace(ker)
    assert center(env.algebra).contains_subspace(ker)
    # upsilon restricted to the odd part is the identity on T
    n = T.dim
    for a in range(n):
        v = env.upsilon.matrix.matvec(env.iota.transpose().entries[a])
        assert v == env.ste.inclusion.transpose().entries[a]
    # round trip: the odd part recovers T exactly
    assert odd_part_lts(env.algebra).triple == T.triple


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3), Field(5)])
def test_universal_roundtrip_all_fields(field):
    for T in CORPUS_LTS(field):
        env = universal_imbedding(T)
        assert odd_part_lts(env.algebra).triple == T.triple


def test_randomized_quotient_systems_validate():
    """Odd parts of random central quotients of the envelope of abl(3) are
    valid systems, and their imbeddings pass the full graded checks."""
    env = universal_imbedding(abl(3))
    L = env.algebra
    cen = center(L)
    rng = random.Random(11)
    seen = 0
    while seen < 10:
        k = rng.randint(0, cen.dim)
        vecs = [tuple(QQ.of(rng.randint(-2, 2)) for _ in range(L.dim)) for _ in range(k)]
        coeffs = Subspace.span(QQ, L.dim, [])
        ideal_vecs = []
        for v in vecs:
            w = [QQ.zero()] * L.dim
            for s, c in enumerate(v[: cen.dim]):
                for t, x in enumerate(cen.basis.entries[s]):
                    w[t] += c * x
            ideal_vecs.append(tuple(w))
        ideal = Subspace.span(QQ, L.dim, ideal_vecs)
        Q, _ = central_quotient(L, ideal)
        assert check_graded_lie(Q).ok
        T = odd_part_lts(Q)
        assert check_lts_axioms(T).ok
        assert check_graded_lie(standard_imbedding(T).algebra).ok
        assert check_graded_lie(universal_imbedding(T).algebra).ok
        seen += 1


# ---------------------------------------------------------------------------
# the glue of an even algebra, a module and a pairing

def test_pairing_reproduces_universal():
    for T in (odd2(), abl(2), sl2lts()):
        pa = pair_algebra(T)
        n = T.dim
        flats = inner_derivation_algebra(T).span.basis.transpose().matmul(pa.mu).transpose().entries
        mats = [Matrix.make(QQ, [[flats[s][r * n + c] for c in range(n)]
                                 for r in range(n)])
                for s in range(pa.algebra.dim)]
        module = GradedModule(pa.algebra, n, 0, tuple(mats))
        built = lietrip.embed._glue(pa.algebra, n, module.terms, pa.projection)
        assert built.bracket == universal_imbedding(T).algebra.bracket
        assert check_graded_lie(built).ok


def test_pairing_reproduces_standard():
    for T in (odd2(), sl2lts()):
        ind = inner_derivation_algebra(T)
        F = T.field
        n = T.dim
        xs = ind.basis
        table = []
        for a in range(ind.dim):
            row = []
            for b in range(ind.dim):
                xy, yx = xs[a].matmul(xs[b]).flatten(), xs[b].matmul(xs[a]).flatten()
                row.append(ind.span.coordinates(tuple(u - v for u, v in zip(xy, yx))))
            table.append(tuple(row))
        L = GradedLieAlgebra(F, ind.dim, 0, tuple(table))
        module = GradedModule(L, n, 0, xs)
        from lietrip.lts import inner_derivation
        pair_cols = [ind.span.coordinates(
            inner_derivation(T, unit_vec(F, n, i), unit_vec(F, n, j)).flatten())
            for i, j in wedge_pairs(n)]
        pairing = Matrix.from_cols(F, pair_cols, rows=ind.dim)
        built = lietrip.embed._glue(L, n, module.terms, pairing)
        assert built.bracket == standard_imbedding(T).algebra.bracket
        assert check_graded_lie(built).ok


def test_pairing_zero_gives_abelian_sum():
    from lietrip.grlie import abelian_algebra
    L = abelian_algebra(QQ, 1, 0)
    module = GradedModule(L, 2, 0, (Matrix(QQ, 2, 2, ((0,) * 2,) * 2),))
    built = lietrip.embed._glue(L, 2, module.terms, Matrix(QQ, 1, 1, ((0,) * 1,) * 1))
    assert all(vec_is_zero(QQ, v) for row in built.bracket for v in row)
    assert (built.dim0, built.dim1) == (1, 2)
    assert check_graded_lie(built).ok


def test_pairing_hypothesis_violation():
    # doubling the action breaks equivariance against the untouched pairing,
    # so the glued algebra breaks Jacobi
    T = sl2lts()
    ind = inner_derivation_algebra(T)
    F, n = T.field, T.dim
    xs = ind.basis
    table = []
    for a in range(ind.dim):
        row = []
        for b in range(ind.dim):
            xy, yx = xs[a].matmul(xs[b]).flatten(), xs[b].matmul(xs[a]).flatten()
            row.append(ind.span.coordinates(tuple(u - v for u, v in zip(xy, yx))))
        table.append(tuple(row))
    L = GradedLieAlgebra(F, ind.dim, 0, tuple(table))
    doubled = tuple(Matrix(F, x.rows, x.cols, [[2 * e for e in r] for r in x.entries]) for x in xs)
    module = GradedModule(L, n, 0, doubled, _trusted=True)
    from lietrip.lts import inner_derivation
    pair_cols = [ind.span.coordinates(
        inner_derivation(T, unit_vec(F, n, i), unit_vec(F, n, j)).flatten())
        for i, j in wedge_pairs(n)]
    pairing = Matrix.from_cols(F, pair_cols, rows=ind.dim)
    report = check_graded_lie(lietrip.embed._glue(L, n, module.terms, pairing))
    assert not report.ok and "jacobi" in {v.identity for v in report.violations}


# ---------------------------------------------------------------------------
# extension of homs, functoriality, universal central 0-extensions

def test_extend_identity_is_identity():
    T = odd2()
    env = universal_imbedding(T)
    alpha = Matrix.identity(QQ, 2)  # iota in odd coordinates
    ext = extend_hom(T, env.algebra, alpha)
    assert ext.source == env.algebra
    assert ext.matrix == Matrix.identity(QQ, env.algebra.dim)


def test_extend_odd2_into_sl2():
    T = odd2()
    ext = extend_hom(T, sl2graded(), Matrix.identity(QQ, 2))
    assert ext.is_bijective()
    assert ext.matrix == Matrix.identity(QQ, 3)  # <e,f> -> h in this basis


def test_extend_abl2_into_ab2():
    from lietrip.exactlin import rank
    ext = extend_hom(abl(2), ab2(), Matrix.identity(QQ, 2))
    assert rank(ext.matrix) == 2  # kills <T,T>


def test_extend_rejects_non_hom():
    with pytest.raises(ValueError, match="homomorphism"):
        extend_hom(odd2(), sl2graded(), Matrix.make(QQ, [[2, 0], [0, 2]]))


ENVELOPE_OPTIONS = {
    "envelope": lambda env: extend_hom(odd2(), env.algebra, Matrix.identity(QQ, 2), envelope=env),
    "source_env": lambda env: imbedding_functor_hom(identity_lts_hom(odd2()), source_env=env),
    "target_env": lambda env: imbedding_functor_hom(identity_lts_hom(odd2()), target_env=env),
}


@pytest.mark.parametrize("option", ENVELOPE_OPTIONS)
def test_extension_and_functor_take_no_envelope(option):
    # each builds the universal imbedding it needs: no caller can hand in one of another system
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{option}'"):
        ENVELOPE_OPTIONS[option](universal_imbedding(odd2()))


def _reconstruct_even_block(T, L, alpha, env, ext):
    """Independent route to the even values: solve for any decomposition of
    each pair-algebra basis vector into projected wedges, then map through
    [alpha(.), alpha(.)]; agreement tests uniqueness/well-definedness."""
    F = L.field
    n = T.dim
    alpha_cols = [tuple([F.zero()] * L.dim0) + alpha.transpose().entries[j] for j in range(n)]
    pairs = wedge_pairs(n)
    for s in range(env.algebra.dim0):
        target = unit_vec(F, env.algebra.dim0, s)
        coeffs = solve(env.pair.projection, target)
        assert coeffs is not None
        image = tuple([F.zero()] * L.dim)
        for c, (i, j) in zip(coeffs, pairs):
            if c:
                term = L.bracket_vec(alpha_cols[i], alpha_cols[j])
                image = tuple(F.of(a + c * b) for a, b in zip(image, term))
        assert image == ext.matrix.transpose().entries[s]


def test_uniqueness_by_independent_reconstruction():
    cases = [
        (odd2(), sl2graded(), Matrix.identity(QQ, 2)),
        (abl(2), heis(), Matrix.identity(QQ, 2)),
        (sl2lts(), sl2_double_swap(), Matrix.identity(QQ, 3)),
    ]
    for T, L, alpha in cases:
        env = universal_imbedding(T)
        ext = extend_hom(T, L, alpha)
        assert ext.source == env.algebra
        for j in range(T.dim):
            full = tuple([QQ.zero()] * L.dim0) + alpha.transpose().entries[j]
            assert ext.matrix.transpose().entries[env.algebra.dim0 + j] == full
        _reconstruct_even_block(T, L, alpha, env, ext)


def test_extend_via_standard_route_agrees():
    # second, genuinely different construction for odd2 -> sl2:
    # compose upsilon with the explicit isomorphism Ste(odd2) ~ sl2
    T = odd2()
    env = universal_imbedding(T)
    ext = extend_hom(T, sl2graded(), Matrix.identity(QQ, 2))
    assert ext.source == env.algebra
    iso = GradedHom(env.ste.algebra, sl2graded(),
                    Matrix.make(QQ, [["1/2", 0, 0], [0, 1, 0], [0, 0, 1]]))
    other = iso.compose(env.upsilon)
    assert other.matrix == ext.matrix


def test_functor_identity_and_zero():
    T = odd2()
    env = universal_imbedding(T)
    f = imbedding_functor_hom(identity_lts_hom(T))
    assert f == identity_hom(env.algebra)

    A = abl(2)
    envA = universal_imbedding(A)
    zero = LtsHom(A, A, Matrix(QQ, 2, 2, ((0,) * 2,) * 2))
    g = imbedding_functor_hom(zero)
    assert (g.source, g.target) == (envA.algebra, envA.algebra)
    assert not any(g.matrix.terms)


def test_functor_composition():
    T = odd2()
    S = sl2lts()
    incl = LtsHom(T, S, Matrix.make(QQ, [[0, 0], [1, 0], [0, 1]]))  # e,f into sl2
    swap = LtsHom(T, T, Matrix.make(QQ, [[0, 1], [1, 0]]))
    lhs = imbedding_functor_hom(incl.compose(swap))
    rhs = imbedding_functor_hom(incl).compose(imbedding_functor_hom(swap))
    assert lhs.matrix == rhs.matrix


def test_functor_does_not_check_the_hom_law_again(monkeypatch):
    # an LtsHom's law was checked when it was built, and the odd part of A(T) is T
    # by construction, so the functor runs no is_lts_hom and builds no odd_part_lts;
    # extend_hom, given the same matrix, still checks it
    T, S = odd2(), sl2lts()
    incl = LtsHom(T, S, Matrix.make(QQ, [[0, 0], [1, 0], [0, 1]]))
    envT, envS = universal_imbedding(T), universal_imbedding(S)
    calls = []
    for name in ("is_lts_hom", "odd_part_lts"):
        inner = getattr(lietrip.lts, name)
        monkeypatch.setattr(lietrip.lts, name,
                            lambda *args, name=name, inner=inner: calls.append(name) or inner(*args))
    f = imbedding_functor_hom(incl)
    assert (f.source, f.target) == (envT.algebra, envS.algebra)
    assert calls == []
    assert extend_hom(T, envS.algebra, incl.matrix) == f
    assert calls == ["odd_part_lts", "is_lts_hom"]


def test_universal_central_0_extension_examples():
    ext = universal_central_0_extension(heis())
    assert ext.kernel.dim == 0
    assert ext.phi.is_bijective()

    ext = universal_central_0_extension(ab2())
    assert ext.kernel.dim == 1
    assert (ext.phi.source.dim0, ext.phi.source.dim1) == (1, 2)

    ext = universal_central_0_extension(sl2graded())
    assert ext.kernel.dim == 0

    with pytest.raises(ValueError, match="generated"):
        universal_central_0_extension(direct_sum(sl2graded(), even_line()))


def _seeded_central_quotient(field, count, seed):
    """A(abl(3)), whose even part is central, divided by `count` seeded
    independent even vectors: H^2 of the quotient is count."""
    A = universal_imbedding(abl(3, field)).algebra
    rng = random.Random(seed)
    while True:
        vecs = [tuple(field.of(rng.randint(-3, 3)) for _ in range(A.dim0)) + (field.zero(),) * A.dim1
                for _ in range(count)]
        ideal = Subspace.span(field, A.dim, vecs)
        if ideal.dim == count:
            return central_quotient(A, ideal)[0]


# (name, the algebra over a field, H^2 = dim of the kernel of A(L_1) -> L)
U0EXT_CASES = [(f"{name}-{field}", lambda field=field, make=make: make(field), h2)
               for field in (QQ, Field(5))
               for name, make, h2 in (
                   ("heis", heis, 0), ("sl2graded", sl2graded, 0), ("sl2ds", sl2_double_swap, 0),
                   ("ab2", ab2, 1),
                   ("A(abl(3))/line@1", lambda F: _seeded_central_quotient(F, 1, 1), 1),
                   ("A(abl(3))/plane@2", lambda F: _seeded_central_quotient(F, 2, 2), 2))]
U0EXT_CASES += [(f"A({name})-{field}", lambda field=field, raw=raw: universal_imbedding(
                    lie_triple_system(field, raw)).algebra, 0)
                for name, raw, field in LADDER if field.p in (None, 5)]


@pytest.mark.parametrize("name, make, h2", U0EXT_CASES, ids=[name for name, _, _ in U0EXT_CASES])
def test_universal_central_0_extension_matches_the_route_through_the_odd_part(name, make, h2):
    """u0ext reads A(L_1) off L's own brackets; the public route takes L_1 as
    a triple system, builds its universal imbedding and extends the identity
    on L_1 to it: the same algebra, hom and kernel."""
    L = make()
    ext = universal_central_0_extension(L)
    T = odd_part_lts(L)
    hom = extend_hom(T, L, Matrix.identity(L.field, L.dim1))
    assert ext.phi.source == universal_imbedding(T).algebra == hom.source
    assert ext.phi == hom
    assert ext.kernel == kernel_basis(hom.matrix)
    assert ext.kernel.dim == h2


# the criterion's inputs with H^2 != 0: ab2, and A(abl(3)) divided by seeded central lines and
# planes (the benchmark's cq1 and cq2) and by unit ones, over Q and F_5
H2_NONZERO_CASES = [case for case in U0EXT_CASES if case[2]] + [
    (f"{name}-{field}", lambda field=field, name=name: _quotient_of_ladder(name)(field), h2)
    for field in (QQ, Field(5)) for name, h2 in (("A(abl(3))/line", 1), ("A(abl(3))/plane", 2))]


@pytest.mark.parametrize("name, make, h2", H2_NONZERO_CASES, ids=[name for name, _, _ in H2_NONZERO_CASES])
def test_kernel_of_mu_is_checked_central_when_h2_is_nonzero(name, make, h2, monkeypatch):
    """With H^2 != 0 the criterion stops after the radical, so it reaches no kernel of mu;
    the universal central 0-extension still checks that kernel, of dimension H^2, for being
    central in the quotient, and it is."""
    L = make()
    kernels = []

    def recording(m):
        kernels.append(kernel_basis(m))
        return kernels[-1]

    monkeypatch.setattr(lietrip.embed, "kernel_basis", recording)
    monkeypatch.setattr(lietrip.grlie, "kernel_basis", recording)  # GradedHom.kernel's
    assert envelope_criterion(L).h2_dimension == h2
    assert kernels == []
    ext = universal_central_0_extension(L)
    mu_kernel, hom_kernel = kernels  # _module_quotient's check, then the extension's kernel
    assert mu_kernel.dim == hom_kernel.dim == ext.kernel.dim == h2


def test_envelope_criterion_checks_generation_once(monkeypatch):
    calls = []

    def spy(L):
        calls.append(L)
        return is_generated_by_odd(L)

    monkeypatch.setattr(lietrip.embed, "is_generated_by_odd", spy)
    A = universal_imbedding(sl2lts()).algebra
    assert envelope_criterion(A).verdict
    assert calls == [A]


def test_envelope_criterion_builds_no_center_and_no_rank_when_true(monkeypatch):
    # H^2 of an odd-generated algebra is read off the dimensions of A(L_1),
    # built from L's brackets, and the witness is its hom: no center, rank or
    # H^2 elimination, whatever the verdict
    calls = []

    def spy(name, real):
        def counting(*args):
            calls.append(name)
            return real(*args)
        return counting

    for module in (lietrip.exactlin, lietrip.grlie, lietrip.embed, lietrip.cohom):
        for name in ("center", "rank", "h2_graded"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for L in (heis(), sl2graded(), universal_imbedding(sl2lts()).algebra):
        assert envelope_criterion(L).verdict
    report = envelope_criterion(ab2())
    assert (report.verdict, report.h2_dimension, report.witness) == (False, 1, None)
    assert calls == []
    # the spies are live: H^2 is eliminated when the odd part does not generate
    assert not envelope_criterion(direct_sum(sl2graded(), even_line())).generated_by_odd
    assert calls == ["h2_graded"]
    lietrip.grlie.center(ab2())
    assert calls == ["h2_graded", "center"]


def test_envelope_criterion_builds_no_envelope(monkeypatch):
    """The criterion and the universal central 0-extension read A(L_1) and its
    hom off L's own brackets: neither runs the imbedding chain of L_1 or
    takes L_1 as a triple system, whatever the verdict."""
    calls = []

    def spy(name, real):
        def counting(*args):
            calls.append(name)
            return real(*args)
        return counting

    names = ("universal_imbedding", "standard_imbedding", "_inner_span", "pair_algebra",
             "odd_part_lts")
    for module in (lietrip, lietrip.lts, lietrip.embed, lietrip.cohom):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    A = lietrip.embed.universal_imbedding(sl2lts()).algebra
    # the spies are live
    lietrip.embed.pair_algebra(sl2lts())
    lietrip.lts.odd_part_lts(A)
    assert set(calls) == set(names)
    calls.clear()
    for L in (heis(), ab2(), sl2graded(), A):
        envelope_criterion(L)
        lietrip.embed.universal_central_0_extension(L)
    assert lietrip.is_0_centrally_closed(A)
    assert calls == []


def _with_envelope_algebra(monkeypatch, dim0, edit=None):
    """Make embed._envelope return A(L_1) with its bracket regraded to dim0
    even basis vectors, after edit(bracket) on a copy, as its hom's source too."""
    real = lietrip.embed._envelope

    def corrupted(L):
        pair, A, hom = real(L)
        bracket = [list(row) for row in A.bracket]
        if edit is not None:
            edit(bracket)
        B = GradedLieAlgebra(A.field, dim0, A.dim - dim0, tuple(tuple(row) for row in bracket),
                             _trusted=True)
        return pair, B, GradedHom(B, hom.target, hom.matrix, _trusted=True)

    monkeypatch.setattr(lietrip.embed, "_envelope", corrupted)


def test_universal_central_0_extension_checks_a_nonzero_kernel(monkeypatch):
    A = universal_imbedding(abl(3)).algebra
    Q, _ = central_quotient(A, Subspace.span(QQ, A.dim, [unit_vec(QQ, A.dim, 0)]))
    ext = universal_central_0_extension(Q)
    assert ext.kernel.dim == 1
    assert ext.phi.source.even_subspace().contains_subspace(ext.kernel)
    assert center(ext.phi.source).contains_subspace(ext.kernel)
    # both checks run: each one raises on an envelope algebra corrupted where
    # the kernel lies (the hom's matrix, read off the radical, is unchanged)
    B = ext.phi.source
    with monkeypatch.context() as m:
        _with_envelope_algebra(m, 0)  # every coordinate odd
        with pytest.raises(RuntimeError, match="^universal central 0-extension: "
                                               "the kernel is not contained in the even part$"):
            universal_central_0_extension(Q)
    c = next(i for i, x in enumerate(ext.kernel.basis.entries[0]) if x)
    one = unit_vec(QQ, B.dim, 0)

    def edit(bracket):  # [e_c, e_odd] = e_0; the rest of B's even part stays central
        bracket[c][B.dim0], bracket[B.dim0][c] = one, tuple(-x for x in one)

    with monkeypatch.context() as m:
        _with_envelope_algebra(m, B.dim0, edit)
        with pytest.raises(RuntimeError, match="^universal central 0-extension: the kernel is not central$"):
            universal_central_0_extension(Q)
    assert universal_central_0_extension(Q) == ext


def test_decomposition_into_quotient_of_envelope():
    # for odd-generated L: the envelope of the odd part modulo the kernel of
    # the canonical surjection is isomorphic to L via the induced map
    for L in (heis(), ab2(), sl2graded(), sl2_double_swap()):
        ext = universal_central_0_extension(L)
        Q, proj = central_quotient(ext.phi.source, ext.kernel)
        # induced map = canonical surjection composed with the coset section, whose
        # columns are the unit vectors at the kernel's free coordinates
        n = ext.phi.source.dim
        section = Matrix.from_cols(L.field, [unit_vec(L.field, n, c) for c in range(n)
                                             if c not in ext.kernel.pivots], rows=n)
        induced = GradedHom(Q, L, ext.phi.matrix.matmul(section))
        assert induced.is_bijective()
        assert induced.compose(proj).matrix == ext.phi.matrix


# ---------------------------------------------------------------------------
# rational structure constants: Q against a large prime, and Fraction entries

def _quotient_of_ladder(name):
    return lambda F: next(L for n, L, _ in _h2_ladder(F) if n == name)


# the wall inputs that fit a test's time: gl(4), a dense gl(3) and abl(8)
WALL_SYSTEMS = {
    "gl(4)": oracles.lts_of_bracket(oracles.gl_bracket(4)),
    "gl(3)@1": DENSE_GL3,  # equal to oracles.change_basis(lts_of_bracket(gl(3)), 1), built faster
    "abl(8)": [[[[0] * 8 for _ in range(8)] for _ in range(8)] for _ in range(8)],
}

# the rational bases, every system of the ladder, the wall inputs (each built
# and axiom-checked in the field), and graded algebras with H^2 != 0
LARGE_PRIME_CASES = [(name, lambda F, raw=raw: lie_triple_system(F, raw)) for name, raw in (
    {name: raw for name, raw, _ in RATIONAL + LADDER} | WALL_SYSTEMS).items()] + [
    ("ab2", ab2), ("A(abl(3))/line", _quotient_of_ladder("A(abl(3))/line")),
    ("A(abl(3))/plane", _quotient_of_ladder("A(abl(3))/plane"))]


def _large_prime_facts(obj):
    """dim Der and dim Inder of a triple system T, and the dims of A(T);
    then, for A(T) or a graded algebra, H^2 by elimination, H^2 as
    envelope_criterion reads it, and its verdict."""
    facts = ()
    if isinstance(obj, LieTripleSystem):
        facts = (derivation_algebra(obj).span.dim, inner_derivation_algebra(obj).span.dim)
        obj = universal_imbedding(obj).algebra
        facts += ((obj.dim0, obj.dim1),)
    report = envelope_criterion(obj)
    return facts + (h2_graded(obj, trivial_module(obj)).dimension, report.h2_dimension,
                    report.verdict)


@pytest.mark.parametrize("name, make", LARGE_PRIME_CASES, ids=[name for name, _ in LARGE_PRIME_CASES])
def test_rational_basis_agrees_with_a_large_prime(name, make):
    """The same facts over Q and over F_(2^61-1), where every denominator is
    invertible: the rational bases, the ladder, the wall inputs, and H^2 != 0."""
    facts = [_large_prime_facts(make(field)) for field in (QQ, Field(2 ** 61 - 1))]
    assert facts[0] == facts[1]
    h2, criterion, verdict = facts[0][-3:]
    assert h2 == criterion and verdict == (h2 == 0)
    assert (h2 == 0) == (name not in ("ab2", "A(abl(3))/line", "A(abl(3))/plane"))


@pytest.mark.parametrize("name, raw", [(name, raw) for name, raw, _ in RATIONAL],
                         ids=[name for name, _, _ in RATIONAL])
def test_rational_basis_results_hold_fractions(name, raw):
    """Every entry the imbedding chain returns over Q is a Fraction, also
    where the constants have denominators and the kernels work on integers."""
    T = lie_triple_system(QQ, raw)
    assert any(x.denominator > 1 for ti in T.triple for tij in ti for v in tij for x in v)
    env = universal_imbedding(T)
    A = env.algebra
    assert any(x.denominator > 1 for row in A.bracket for v in row for x in v)
    rows = [v for row in A.bracket for v in row]
    mu_end = env.ste.inder.span.basis.transpose().matmul(pair_algebra(T).mu)
    rows += env.upsilon.matrix.entries + env.pair.mu.entries + mu_end.entries
    rows += env.pair.a_subspace.basis.entries + env.pair.projection.entries
    rows += envelope_criterion(A).witness.matrix.entries
    # A(T) + ab2 has H^2 != 0, so its representatives come from the exact path
    L = direct_sum(A, ab2())
    h2 = h2_graded(L, trivial_module(L))
    assert h2.dimension > 0
    rows += [v for c in h2.representatives for v in c.values]
    _assert_field_entries(QQ, rows)

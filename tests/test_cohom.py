import random
import sys
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import lietrip.cohom
import lietrip.exactlin
import lietrip.grlie
import oracles

from extra_algebras import sl2_double_swap
from lietrip.corpus import (
    ab2, abl, even_line, heis, odd2, sl2graded, sl2lts,
)
from lietrip.cohom import (
    CentralExtensionProblem, Cochain, NotCentral0Extension, coboundary,
    cocycle_extension, envelope_criterion, graded_cochain_basis, h2_graded,
    is_0_centrally_closed, split_central_0_extension,
)
from lietrip.embed import (
    extend_hom, imbedding_functor_hom, universal_central_0_extension, universal_imbedding,
)
from lietrip.exactlin import (
    Field, Matrix, QQ, Subspace, _distinct_rows, _echelon, _null_vectors, inverse, unit_vec,
)
from lietrip.grlie import (
    GradedHom, GradedLieAlgebra, abelian_algebra, adjoint_module, center, central_quotient,
    direct_sum, graded_lie, identity_hom, is_generated_by_odd, is_graded_hom, restrict_hom_to_odd,
    trivial_module,
)
from lietrip.lts import (
    LieTripleSystem, LtsHom, check_lts_axioms, derivation_algebra, identity_lts_hom, is_lts_hom,
    lie_triple_system, lts_of_lie, odd_part_lts,
)
from test_lts import LADDER

GRADED_CORPUS = lambda field=QQ: [heis(field), ab2(field), sl2graded(field)]


def test_cochain_basis_dims():
    L = ab2()
    M = trivial_module(L)
    assert len(graded_cochain_basis(L, M, 2)) == 1   # only e1^e2, odd+odd -> even
    assert len(graded_cochain_basis(L, M, 1)) == 0   # odd arguments, M1 = 0

    H = heis()
    MH = trivial_module(H)
    assert len(graded_cochain_basis(H, MH, 1)) == 1  # g(z)
    assert len(graded_cochain_basis(H, MH, 2)) == 1  # x^y only
    assert len(graded_cochain_basis(H, MH, 3)) == 1  # z^x^y has even total degree

    S = sl2graded()
    MS = trivial_module(S)
    assert len(graded_cochain_basis(S, MS, 2)) == 1

    empty = trivial_module(L, 0)
    for degree in (1, 2, 3):
        assert graded_cochain_basis(L, empty, degree) == []

    with pytest.raises(ValueError):
        graded_cochain_basis(L, M, 4)


def test_coboundary_abelian_trivial_vanishes():
    L = ab2()
    M = trivial_module(L)
    for f in graded_cochain_basis(L, M, 1) + graded_cochain_basis(L, M, 2):
        assert coboundary(f).is_zero()


def test_coboundary_heis_degree1():
    L = heis()
    M = trivial_module(L)
    g = graded_cochain_basis(L, M, 1)[0]  # g(z) = 1, g vanishes on odds
    dg = coboundary(g)
    # combos in lex order: (z,x), (z,y), (x,y); only the last is nonzero
    assert dg.values[0] == (QQ.of(0),)
    assert dg.values[1] == (QQ.of(0),)
    assert dg.values[2] == (QQ.of(-1),)
    assert dg.is_graded()


def test_coboundary_degree_cap():
    L = heis()
    M = trivial_module(L)
    f3 = Cochain(L, M, 3, ((0,),))
    with pytest.raises(ValueError):
        coboundary(f3)


@pytest.mark.parametrize("p", [None, 2, 3])
def test_delta_squared_zero(p):
    field = Field(p)
    for L in GRADED_CORPUS(field):
        M = trivial_module(L)
        for g in graded_cochain_basis(L, M, 1):
            dg = coboundary(g)
            assert dg.is_graded()
            assert coboundary(dg).is_zero()


def test_h2_values_against_oracle():
    expected = {
        "ab2": (ab2(), oracles.AB2_RAW, 1),
        "heis": (heis(), oracles.HEIS_RAW, 0),
        "sl2graded": (sl2graded(), oracles.SL2_GRADED_RAW, 0),
    }
    for name, (L, raw, frozen) in expected.items():
        got = h2_graded(L, trivial_module(L)).dimension
        assert got == frozen, name
        assert oracles.h2_graded_dim(raw) == frozen, name


def _raw(L):
    """The bracket of L in the oracle's (dim0, dim1, {(i, j, l): c}) form."""
    return (L.dim0, L.dim1, {(i, j, l): x for i, row in enumerate(L.bracket)
                             for j, v in enumerate(row) for l, x in enumerate(v) if x})


def _h2_ladder(field=QQ):
    """Graded algebras of the ladder with their H^2 dimension over Q."""
    a_abl3 = universal_imbedding(abl(3, field)).algebra
    line, plane = ([unit_vec(field, a_abl3.dim, i) for i in range(k)] for k in (1, 2))
    return [
        ("A(sl2lts)", universal_imbedding(sl2lts(field)).algebra, 0),
        ("A(gl2)", universal_imbedding(lie_triple_system(
            field, oracles.lts_of_bracket(oracles.gl_bracket(2)))).algebra, 0),
        ("A(grass(2,2))", universal_imbedding(lie_triple_system(
            field, oracles.grass_triple(2, 2))).algebra, 0),
        ("sl2_double_swap", sl2_double_swap(field), 0),
        ("A(abl(3))", a_abl3, 0),
        ("A(abl(3))/line", central_quotient(a_abl3, Subspace.span(field, a_abl3.dim, line))[0], 1),
        ("A(abl(3))/plane", central_quotient(a_abl3, Subspace.span(field, a_abl3.dim, plane))[0],
         2),
    ]


def test_h2_ladder_against_oracle():
    # the oracle assembles delta1 and delta2 from the raw brackets on its own
    for name, L, frozen in _h2_ladder():
        raw = _raw(L)
        cocycles = len(oracles.graded_pairs(raw)) - oracles.frac_rank(oracles.delta2_matrix(raw))
        coboundaries = oracles.frac_rank(oracles.delta1_matrix(raw))
        got = h2_graded(L, trivial_module(L))
        assert (got.dimension, got.cocycle_dim, got.coboundary_dim) == (
            cocycles - coboundaries, cocycles, coboundaries), name
        assert got.dimension == frozen, name


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_coboundary_of_a_graded_cochain_is_graded(field):
    # h2_graded builds d1 and d2 at the graded slots only, which is enough
    # because d maps graded cochains to graded cochains
    for name, L, _ in _h2_ladder(field):
        for M in (trivial_module(L), adjoint_module(L)):
            for degree in (1, 2):
                for f in graded_cochain_basis(L, M, degree):
                    assert coboundary(f).is_graded(), (name, degree)


@pytest.mark.parametrize("p", [5, 3, 2])
def test_h2_over_fp_against_oracle(p):
    # no frozen values: the characteristic may raise H^2, and only the
    # oracle, reading the same constants mod p, decides
    field = Field(p)
    ladder = [(name, L) for name, L, _ in _h2_ladder(field)]
    for name, L in ladder + [("ab2", ab2(field)), ("heis", heis(field))]:
        raw = _raw(L)
        cocycles = (len(oracles.graded_pairs(raw))
                    - oracles.frac_rank(oracles.delta2_matrix(raw), p))
        coboundaries = oracles.frac_rank(oracles.delta1_matrix(raw), p)
        got = h2_graded(L, trivial_module(L))
        assert (got.dimension, got.cocycle_dim, got.coboundary_dim) == (
            cocycles - coboundaries, cocycles, coboundaries), name
        assert got.dimension == oracles.h2_graded_dim(raw, p), name
        assert len(got.representatives) == got.dimension, name


@pytest.mark.parametrize("p", [None, 2, 5])
def test_delta_squared_zero_on_random_cochains(p):
    # the adjoint module reaches the action terms, which trivial modules skip
    field = Field(p)
    rng = random.Random(2024)
    algebras = [heis(field), sl2graded(field), sl2_double_swap(field),
                universal_imbedding(odd2(field)).algebra]
    for L in algebras:
        for M in (adjoint_module(L), trivial_module(L, 2)):
            for _ in range(3):
                values = tuple(tuple(field.of(rng.randint(-3, 3)) for _ in range(M.dim))
                               for _ in range(L.dim))
                g = Cochain(L, M, 1, values)
                assert coboundary(coboundary(g)).is_zero()


def _random_cochain(L, M, degree, graded, rng):
    """A seeded cochain with a few nonzero values, at graded slots only when graded."""
    field = L.field
    values = []
    for combo in combinations(range(L.dim), degree):
        odd = sum(i >= L.dim0 for i in combo) % 2
        values.append(tuple(field.of(rng.choice([0, 0, 1, -1, 2, -3]))
                            if not graded or (r >= M.dim0) == odd else field.zero()
                            for r in range(M.dim)))
    return Cochain(L, M, degree, tuple(values))


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3), Field(5)], ids=str)
def test_coboundary_matches_the_dense_oracle(field):
    # the oracle evaluates the textbook formula on the dense alternating
    # array of f, so the action terms of the adjoint module are checked too
    rng = random.Random(32)
    algebras = [heis(field), sl2graded(field), sl2_double_swap(field),
                universal_imbedding(abl(3, field)).algebra, universal_imbedding(odd2(field)).algebra]
    for L in algebras:
        for M in (trivial_module(L), trivial_module(L, 2), adjoint_module(L)):
            action = [a.entries for a in M.action]
            for degree, graded in product((1, 2), (True, False)):
                for _ in range(2):
                    f = _random_cochain(L, M, degree, graded, rng)
                    expected = oracles.coboundary(L.bracket, action, f.values, degree, field.p)
                    assert coboundary(f).values == tuple(expected), (L.dim, M.dim, degree, graded)


def test_coboundary_builds_columns_at_the_nonzero_slots_only(monkeypatch):
    built, inner = [], lietrip.cohom._differential

    def differential(L, M, slots):
        built.append(len(slots))
        return inner(L, M, slots)

    monkeypatch.setattr(lietrip.cohom, "_differential", differential)
    L = universal_imbedding(abl(3)).algebra
    M = adjoint_module(L)
    f = _random_cochain(L, M, 2, False, random.Random(5))
    nonzero = sum(len(v) for v in f.terms)
    assert nonzero > 0
    coboundary(f)
    coboundary(Cochain(L, M, 1, ((0,) * M.dim,) * L.dim))
    assert built == [nonzero, 0]


def test_a_module_over_another_algebra_is_refused():
    for L, M in ((sl2_double_swap(), adjoint_module(heis())),
                 (heis(), adjoint_module(sl2_double_swap()))):
        with pytest.raises(ValueError, match="module is over a different algebra"):
            h2_graded(L, M)
        with pytest.raises(ValueError, match="module is over a different algebra"):
            coboundary(Cochain(L, M, 1, ((L.field.zero(),) * M.dim,) * L.dim))


def test_h2_representatives_are_cocycles_not_coboundaries():
    L = ab2()
    M = trivial_module(L)
    result = h2_graded(L, M)
    assert len(result.representatives) == result.dimension == 1
    rep = result.representatives[0]
    assert coboundary(rep).is_zero()
    assert rep.is_graded() and not rep.is_zero()


def test_cocycle_extension_zero_gives_direct_sum():
    L = heis()
    M = trivial_module(L)
    prob = cocycle_extension(L, M, Cochain(L, M, 2, ((0,),) * 3))
    expected = direct_sum(even_line(), L)
    assert (prob.phi.source.dim0, prob.phi.source.dim1) == (expected.dim0, expected.dim1)
    # relabel: extension order is (L0 | M | L1); compare bracket of L-lifts
    assert prob.phi.is_surjective()
    assert prob.kernel.dim == 1
    psi = split_central_0_extension(prob)
    assert psi is not None


def test_cocycle_extension_ab2_gives_heis():
    L = ab2()
    M = trivial_module(L)
    sigma = h2_graded(L, M).representatives[0]
    prob = cocycle_extension(L, M, sigma)
    assert prob.phi.source.bracket == heis().bracket
    assert prob.kernel.dim == 1


def test_cocycle_extension_rejects_bad_sigma():
    # a graded non-cocycle lives on an (even,even) pair of the envelope of abl(3)
    L = universal_imbedding(abl(3)).algebra
    M = trivial_module(L)
    basis = graded_cochain_basis(L, M, 2)
    non_cocycle = next(b for b in basis if not coboundary(b).is_zero())
    with pytest.raises(ValueError, match="cocycle"):
        cocycle_extension(L, M, non_cocycle)

    # a non-graded cochain on heis
    H = heis()
    MH = trivial_module(H)
    values = [(QQ.of(1),), (QQ.of(0),), (QQ.of(0),)]  # supported on (z, x)
    bad = Cochain(H, MH, 2, tuple(values))
    with pytest.raises(ValueError, match="graded"):
        cocycle_extension(H, MH, bad)


def _random_sigmas(L, M, rng):
    """Seeded degree-2 cochains on (L, M): sparse ones on any slot and on graded
    slots only, and coboundaries of sparse graded 1-cochains."""
    F, n = L.field, comb(L.dim, 2)
    draw = lambda: F.of(rng.choice(["1", "-1", "2", "3", "1/2"]) if F.p is None else rng.randrange(1, F.p))
    slots = [(k, r) for k in range(n) for r in range(M.dim)]
    graded = [(k, r) for c in graded_cochain_basis(L, M, 2) for k, v in enumerate(c.terms) for r, _ in v]
    ones = graded_cochain_basis(L, M, 1)

    def cochain(entries):
        return Cochain(L, M, 2, tuple(tuple(entries.get((k, r), 0) for r in range(M.dim))
                                      for k in range(n)))

    sigmas = []
    for _ in range(4):
        for where in (slots, graded):
            sigmas.append(cochain({s: draw() for s in rng.sample(where, min(len(where), rng.randint(1, 3)))}))
        acc = {}
        for g in rng.sample(ones, min(len(ones), rng.randint(1, 3))):
            c = draw()
            for k, v in enumerate(coboundary(g).terms):
                for r, x in v:
                    acc[k, r] = acc.get((k, r), 0) + c * x
        sigmas.append(cochain(acc))
    return sigmas


@pytest.mark.parametrize("field", [QQ, Field(5), Field(2)], ids=str)
def test_cocycle_extension_refuses_exactly_what_the_cochain_predicate_refuses(field):
    """cocycle_extension checks sigma through the grading and the Jacobi
    identity of the total; it accepts and refuses, with the same message, as
    sigma.is_graded() and coboundary(sigma).is_zero() do."""
    verdicts = set()
    algebras = (heis(field), sl2graded(field), sl2_double_swap(field),
                universal_imbedding(abl(3, field)).algebra, universal_imbedding(abl(4, field)).algebra)
    for L in algebras:
        for m in (1, 2):
            M = trivial_module(L, m)
            for sigma in _random_sigmas(L, M, random.Random(L.dim * 10 + m)):
                expected = ("sigma is not graded" if not sigma.is_graded() else
                            None if coboundary(sigma).is_zero() else "sigma is not a cocycle")
                try:
                    cocycle_extension(L, M, sigma)
                    got = None
                except ValueError as e:
                    got = str(e)
                assert got == expected
                verdicts.add(got)
    assert verdicts == {None, "sigma is not graded", "sigma is not a cocycle"}


def test_central_extension_problem_validation():
    L = heis()
    B = ab2()
    proj = GradedHom(L, B, Matrix.make(QQ, [[0, 1, 0], [0, 0, 1]]))
    prob = CentralExtensionProblem.from_hom(proj)
    assert prob.kernel.dim == 1

    # odd kernel is not a 0-extension
    odd_proj = GradedHom(ab2(), abl_odd_line(), Matrix.make(QQ, [[1, 0]]))
    with pytest.raises(NotCentral0Extension):
        CentralExtensionProblem.from_hom(odd_proj)

    not_surjective = GradedHom(B, B, Matrix(QQ, 2, 2, ((0,) * 2,) * 2))
    with pytest.raises(NotCentral0Extension):
        CentralExtensionProblem.from_hom(not_surjective)


def test_central_extension_problem_reads_surjectivity_from_its_kernel(monkeypatch):
    # rank-nullity on the kernel it computes: the hom is eliminated once
    calls = []

    def spy(real):
        def counting(*args):
            calls.append(args)
            return real(*args)
        return counting

    for module in (lietrip.exactlin, lietrip.grlie, lietrip.cohom):
        if hasattr(module, "rank"):
            monkeypatch.setattr(module, "rank", spy(module.rank))
    for F in (QQ, Field(5)):
        proj = GradedHom(heis(F), ab2(F), Matrix.make(F, [[0, 1, 0], [0, 0, 1]]))
        assert CentralExtensionProblem.from_hom(proj).kernel.dim == 1
        assert CentralExtensionProblem.from_hom(identity_hom(heis(F))).kernel.dim == 0
        # [h, x] = x: the ideal spanned by x is even but not central
        b = graded_lie(F, 2, 0, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
        # the first failing condition names the error, in the order surjective,
        # even, central
        for phi, message in (
                (GradedHom(heis(F), heis(F), Matrix(F, 3, 3, ((0,) * 3,) * 3)), "not surjective"),
                (GradedHom(ab2(F), abelian_algebra(F, 0, 1), Matrix.make(F, [[1, 0]])),
                 "not contained in the even part"),
                (GradedHom(b, abelian_algebra(F, 1, 0), Matrix.make(F, [[1, 0]])), "not central")):
            with pytest.raises(NotCentral0Extension, match=message):
                CentralExtensionProblem.from_hom(phi)
    assert calls == []
    # the spy is live
    assert identity_hom(heis()).is_bijective() and len(calls) == 1


def abl_odd_line():
    from lietrip.grlie import abelian_algebra
    return abelian_algebra(QQ, 0, 1)


def test_split_iso_gives_inverse():
    L = heis()
    prob = CentralExtensionProblem.from_hom(identity_hom(L))
    psi = split_central_0_extension(prob)
    assert psi.matrix == Matrix.identity(QQ, 3)


def test_split_heis_over_ab2_fails():
    L = heis()
    B = ab2()
    proj = GradedHom(L, B, Matrix.make(QQ, [[0, 1, 0], [0, 0, 1]]))
    assert split_central_0_extension(CentralExtensionProblem.from_hom(proj)) is None


@pytest.mark.parametrize("p", [None, 3])
def test_splitting_dichotomy(p):
    """Over Q and F_3: an extension by a graded cocycle splits exactly when
    the class vanishes; a returned section is a graded hom with phi.psi = id."""
    field = Field(p)
    cases = [(ab2(field), False), (heis(field), True)]
    for L, should_split in cases:
        M = trivial_module(L)
        cocycle_basis = [b for b in graded_cochain_basis(L, M, 2)
                         if coboundary(b).is_zero()]
        assert cocycle_basis, "expected at least one graded 2-cocycle"
        for sigma in cocycle_basis:
            prob = cocycle_extension(L, M, sigma)
            psi = split_central_0_extension(prob)
            assert (psi is not None) == should_split
            if psi is not None:
                assert prob.phi.compose(psi).matrix == Matrix.identity(field, L.dim)


def test_split_of_coboundary_extension():
    # sigma = delta(g) always splits
    L = heis()
    M = trivial_module(L)
    g = graded_cochain_basis(L, M, 1)[0]
    sigma = coboundary(g)
    prob = cocycle_extension(L, M, sigma)
    psi = split_central_0_extension(prob)
    assert psi is not None
    assert prob.phi.compose(psi).matrix == Matrix.identity(QQ, L.dim)


def _seeded_coboundary(L, M, rng):
    """d of a seeded graded 1-cochain: M has no odd part, so only the even basis vectors map."""
    return coboundary(Cochain(L, M, 1, tuple(
        tuple(rng.randint(-3, 3) for _ in range(M.dim)) if i < L.dim0 else (0,) * M.dim
        for i in range(L.dim))))


def _rank(rows, p):
    return oracles.frac_rank(rows, p) if rows else 0


def _is_coboundary(sigma):
    """Whether each coordinate of sigma, on the pairs of equal parity, lies in the
    column span of the oracle's d_1 with coefficients in F."""
    L, p = sigma.algebra, sigma.algebra.field.p
    raw = _raw(L)
    d1, pairs = oracles.delta1_matrix(raw), oracles.graded_pairs(raw)
    at = dict(zip(combinations(range(L.dim), 2), sigma.values))
    return all(_rank([row + [at[pair][s]] for row, pair in zip(d1, pairs)], p) == _rank(d1, p)
               for s in range(sigma.module.dim))


def _splits_by_the_derived_algebra(prob):
    """A central 0-extension splits exactly when its kernel meets [K, K] in 0."""
    p = prob.phi.source.field.p
    derived = [list(v) for row in prob.phi.source.bracket for v in row]
    kernel = [list(v) for v in prob.kernel.basis.entries]
    return _rank(derived + kernel, p) == _rank(derived, p) + len(kernel)


def _central_projections(field):
    """A(abl(3)), whose even part is central, onto its quotients by two lines and two planes."""
    A = universal_imbedding(abl(3, field)).algebra
    return [central_quotient(A, Subspace.span(field, A.dim, vecs))[1] for vecs in (
        [[1, 0, 0, 0, 0, 0]], [[1, 2, -1, 0, 0, 0]],
        [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], [[1, 1, 0, 0, 0, 0], [0, 1, 2, 0, 0, 0]])]


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3), Field(5)], ids=str)
def test_split_is_one_problem_for_a_kernel_of_any_dimension(field):
    """On central quotients of A(abl(3)), heis and ab2, and on their cocycle
    extensions by k = 1, 2 and 3 lines: H^2 with coefficients in F^k is k copies
    of H^2 with coefficients in F; split returns psi exactly when sigma is a
    coboundary, and then psi is a graded hom with phi psi = id; and the quotient
    maps split exactly when their kernel meets [K, K] in 0."""
    rng = random.Random(11)
    projections = _central_projections(field)
    verdicts = set()
    for L in [proj.target for proj in projections] + [heis(field), ab2(field)]:
        h2 = h2_graded(L, trivial_module(L)).dimension
        for k in (1, 2, 3):
            M = trivial_module(L, k)
            result = h2_graded(L, M)
            assert result.dimension == k * h2
            cob = _seeded_coboundary(L, M, rng)
            sigmas = [cob] + [Cochain(L, M, 2, tuple(tuple(a + b for a, b in zip(u, v))
                                                     for u, v in zip(rep.values, cob.values)))
                              for rep in result.representatives]
            for sigma in sigmas:
                prob = cocycle_extension(L, M, sigma)
                psi = split_central_0_extension(prob)
                assert (psi is not None) == _is_coboundary(sigma)
                verdicts.add(psi is not None)
                if psi is not None:
                    assert prob.phi.compose(psi).matrix == Matrix.identity(field, L.dim)
                    assert is_graded_hom(psi.matrix, L, prob.phi.source)
    for proj in projections:
        prob = CentralExtensionProblem.from_hom(proj)
        assert (split_central_0_extension(prob) is not None) == _splits_by_the_derived_algebra(prob)
    assert verdicts == {True, False}


def test_split_takes_tau_from_one_elimination(monkeypatch):
    """tau comes from one rref of [even brackets | sigma], a row per pair of equal
    parity and L.dim0 + k columns, after the one of [phi | I] that reads the
    section eta; solve is not called."""
    calls = []

    def spy(real, name):
        def recording(m, *args):
            calls.append((name, m.rows, m.cols))
            return real(m, *args)
        return recording

    for module in (lietrip.exactlin, lietrip.cohom):
        for name in ("solve", "solve_with_certificate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(getattr(module, name), name))
    monkeypatch.setattr(lietrip.cohom, "rref", spy(lietrip.cohom.rref, "rref"))
    for F in (QQ, Field(5)):
        projections = _central_projections(F)
        for k in (1, 2, 3):
            H, M = heis(F), trivial_module(heis(F), k)
            extension = cocycle_extension(H, M, _seeded_coboundary(H, M, random.Random(k)))
            cases = [(CentralExtensionProblem.from_hom(proj), False)
                     for proj in projections if proj.kernel().dim == k] + [(extension, True)]
            for prob, splits in cases:
                L = prob.phi.target
                calls.clear()
                assert (split_central_0_extension(prob) is not None) == splits
                pairs = comb(L.dim0, 2) + comb(L.dim1, 2)
                assert calls == [("rref", L.dim, prob.phi.source.dim + L.dim), ("rref", pairs, L.dim0 + k)]


def test_is_0_centrally_closed():
    assert is_0_centrally_closed(heis())
    assert not is_0_centrally_closed(ab2())
    assert is_0_centrally_closed(sl2graded())


def test_closedness_equals_trivial_kernel_on_odd_generated_corpus():
    algebras = [heis(), ab2(), sl2graded(), sl2_double_swap(),
                universal_imbedding(abl(3)).algebra]
    for L in algebras:
        closed = is_0_centrally_closed(L)
        kernel_trivial = universal_central_0_extension(L).kernel.dim == 0
        assert closed == kernel_trivial


def _two_dim_systems_over_f3():
    """Every 2-dimensional triple system over F_3: of the 81 candidate
    tensors, t[0][1] free and t[1][0] = -t[0][1], those that pass the axioms."""
    F = Field(3)
    out = []
    for a, b, c, d in product(range(3), repeat=4):
        t = [[[[0, 0], [0, 0]] for _ in range(2)] for _ in range(2)]
        t[0][1], t[1][0] = [[a, b], [c, d]], [[-a, -b], [-c, -d]]
        T = LieTripleSystem(F, len(t), t, _trusted=True)
        if check_lts_axioms(T).ok:
            out.append(T)
    return out


def _three_dim_systems_over_f3():
    """33 triple systems of dimension 3 over F_3, each moved by a seeded unimodular change of
    basis: lts_of_lie of the abelian and Heisenberg algebras, sl(2), [x,y] = y plus a line,
    and [x,y] = y, [x,z] = lam z for lam = 1, 2; and each 2-dimensional system + abl(1)."""
    F = Field(3)

    def bracket(consts):  # {(i, j): {l: x}} for i < j, [e_i, e_j] = sum x e_l
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for (i, j), v in consts.items():
            for l, x in v.items():
                c[i][j][l], c[j][i][l] = x, -x
        return c

    lies = [bracket({}), bracket({(0, 1): {2: 1}}), oracles.SL2_BRACKET, bracket({(0, 1): {1: 1}})]
    lies += [bracket({(0, 1): {1: 1}, (0, 2): {2: lam}}) for lam in (1, 2)]
    systems = [lts_of_lie(oracles.change_bracket_basis(c, 45 + k), F) for k, c in enumerate(lies)]
    for k, T in enumerate(_two_dim_systems_over_f3()):
        t = [[[[0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
        for i, j, l in product(range(2), repeat=3):
            t[i][j][l][:2] = T.triple[i][j][l]
        systems.append(lie_triple_system(F, oracles.change_basis(t, 51 + k)))
    return systems


def _central_lines(A):
    """The spans of the first one and the first two basis vectors of the even
    part of A's center, as far as that has them."""
    lines = center(A).intersect(A.even_subspace()).basis.entries
    return [Subspace.span(A.field, A.dim, lines[:k]) for k in (1, 2) if k <= len(lines)]


def _by_central_lines(A):
    """A divided by each of its central lines and planes."""
    return [central_quotient(A, Z)[0] for Z in _central_lines(A)]


def _odd_generated(field):
    """Algebras generated by their odd part: the corpus, A(T) of the ladder
    systems (and over F_3 of every 2-dimensional system), their central
    quotients by one and two lines, and direct sums."""
    systems = [abl(k, field) for k in (1, 2, 3)] + [odd2(field), sl2lts(field)]
    systems += [lie_triple_system(field, raw)
                for raw in {name: raw for name, raw, _ in LADDER}.values()]
    if field.p == 3:
        systems += _two_dim_systems_over_f3()
    envelopes = [universal_imbedding(T).algebra for T in systems]
    # over F_2 a corpus algebra may lose generation: its brackets carry 2s
    corpus = [L for L in (heis(field), ab2(field), sl2graded(field), sl2_double_swap(field))
              if is_generated_by_odd(L)]
    sums = [direct_sum(heis(field), ab2(field)), direct_sum(ab2(field), ab2(field)),
            direct_sum(sl2graded(field), universal_imbedding(sl2lts(field)).algebra)]
    return corpus + envelopes + [Q for A in envelopes for Q in _by_central_lines(A)] + sums


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3), Field(5)], ids=str)
def test_h2_is_the_kernel_of_the_universal_central_0_extension(field):
    """For L generated by L_1, dim H^2(L, F) = dim ker(A(L_1) -> L), with H^2
    from the oracle's own d1 and d2.  envelope_criterion reads H^2 off the
    dimensions of A(L_1), built from L's brackets, and when it is 0 its witness
    is the universal central 0-extension, whose source is A(L_1) as the
    universal imbedding of the triple system L_1 builds it."""
    seen = set()
    for L in _odd_generated(field):
        assert is_generated_by_odd(L)
        h2 = oracles.h2_graded_dim(_raw(L), field.p)
        ext = universal_central_0_extension(L)
        report = envelope_criterion(L)
        assert ext.kernel.dim == report.h2_dimension == h2
        assert report.verdict == (h2 == 0)
        assert report.verdict == (split_central_0_extension(ext) is not None)
        if report.verdict:
            assert report.witness.source == universal_imbedding(odd_part_lts(L)).algebra
            assert report.witness == ext.phi
        else:
            assert report.witness is None
        seen.add(h2)
    assert 0 in seen and max(seen) >= 2


def test_the_imbedding_functor_is_full_and_faithful_on_the_systems_over_f3():
    """For a seeded sample of 40 ordered pairs (S, T) of the 2-dimensional systems over F_3,
    and every (T, T): of the 243 block matrices, the graded homs A(S) -> A(T) are exactly
    the images under imbedding_functor_hom of the triple-system homs S -> T among the 81
    odd blocks (full), and restrict_hom_to_odd gives each hom's matrix back (faithful).
    F(id) = id, and F(g f) = F(g) F(f) on a seeded sample of composable triples."""
    F = Field(3)
    systems = _two_dim_systems_over_f3()
    envs = [universal_imbedding(T) for T in systems]
    n = len(systems)
    assert n == 27 and all((env.algebra.dim0, env.algebra.dim1) == (1, 2) for env in envs)
    odd_blocks = [Matrix.make(F, [[a, b], [c, d]]) for a, b, c, d in product(range(3), repeat=4)]
    blocks = [Matrix.make(F, [[x, 0, 0], [0, a, b], [0, c, d]])
              for x in range(3) for a, b, c, d in product(range(3), repeat=4)]
    functor = {}

    def homs(s, t):
        """The triple-system homs f: S -> T, each with F(f)."""
        if (s, t) not in functor:
            functor[s, t] = [(f, imbedding_functor_hom(f))
                             for f in (LtsHom(systems[s], systems[t], m, _trusted=True)
                                       for m in odd_blocks if is_lts_hom(m, systems[s], systems[t]))]
        return functor[s, t]

    rng = random.Random(35)
    pairs = {(t, t) for t in range(n)} | set(rng.sample(list(product(range(n), repeat=2)), 40))
    for s, t in sorted(pairs):
        images = [image.matrix for _, image in homs(s, t)]
        assert all((image.source, image.target) == (envs[s].algebra, envs[t].algebra)
                   for _, image in homs(s, t))
        assert all(restrict_hom_to_odd(image).matrix == f.matrix for f, image in homs(s, t))
        graded = [m for m in blocks if is_graded_hom(m, envs[s].algebra, envs[t].algebra)]
        assert len(images) == len(graded) and set(images) == set(graded), (s, t)
    for t in range(n):
        assert imbedding_functor_hom(identity_lts_hom(systems[t])) == identity_hom(envs[t].algebra)
    composed = 0
    for r, s, t in rng.sample(list(product(range(n), repeat=3)), 40):
        for f, image_f in homs(r, s):
            for g, image_g in homs(s, t):
                image = imbedding_functor_hom(g.compose(f))
                assert image == image_g.compose(image_f)
                composed += any(image.matrix.terms)
    assert composed


def test_the_verdict_holds_exactly_when_extend_hom_is_an_isomorphism_over_f3():
    """ROADMAP item 7 on objects: envelope_criterion(L).verdict holds exactly when
    A(L_1) -> L, extend_hom of the identity of L_1, is an isomorphism.  Over F_3, on
    A(T) for every 2-dimensional system T, their quotients by central lines, a seeded
    sample of A(T) + an even line, which L_1 does not generate, and the central
    extensions of one quotient Q by each representative of H^2(Q) and by the zero
    coboundary (Q has no even part, so d of the zero 1-cochain is its one coboundary); and
    A(T) and its quotients by central lines for each of the 33 systems T of dimension 3 in
    _three_dim_systems_over_f3."""
    F = Field(3)
    envelopes = [universal_imbedding(T).algebra for T in _two_dim_systems_over_f3()]
    quotients = [Q for A in envelopes for Q in _by_central_lines(A)]
    algebras = envelopes + quotients
    algebras += [direct_sum(A, even_line(F)) for A in random.Random(36).sample(envelopes, 6)]
    Q = quotients[0]
    M = trivial_module(Q)
    zero = coboundary(Cochain(Q, M, 1, ((0,),) * Q.dim))
    algebras += [cocycle_extension(Q, M, sigma).phi.source
                 for sigma in h2_graded(Q, M).representatives + (zero,)]
    three = [universal_imbedding(T).algebra for T in _three_dim_systems_over_f3()]
    assert len(three) == 33 and {A.dim1 for A in three} == {3}
    algebras += three + [Q for A in three for Q in _by_central_lines(A)]
    verdicts = []
    for L in algebras:
        m = extend_hom(odd_part_lts(L), L, Matrix.identity(F, L.dim1)).matrix
        verdict = envelope_criterion(L).verdict
        assert verdict == (m.rows == m.cols and inverse(m) is not None)
        if is_generated_by_odd(L):  # the paper's theorem: A(L_1) -> L splits exactly when H^2 = 0
            assert verdict == (split_central_0_extension(universal_central_0_extension(L)) is not None)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


INFINITESIMAL_SYSTEMS = {
    "abl(2)": [[[[0] * 2] * 2] * 2] * 2,
    "abl(3)": [[[[0] * 3] * 3] * 3] * 3,
    "odd2": oracles.ODD2_TRIPLE,
    "sl2lts": oracles.lts_of_bracket(oracles.SL2_BRACKET),
    "gl(2)": oracles.lts_of_bracket(oracles.gl_bracket(2)),
    "grass(2,2)": oracles.grass_triple(2, 2),
    "grass(2,3)": oracles.grass_triple(2, 3),
}


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3), Field(5)], ids=str)
def test_the_even_derivations_of_the_envelope_restrict_onto_the_derivations(field):
    """ROADMAP item 7, the infinitesimal half: restricting to the odd part is a bijection from
    the even derivations of A(T) onto Der(T), so the three dimensions agree: the library's,
    the oracle's derivations of T's raw triple, and the oracle's even derivations of the raw
    bracket of A(T), with no code shared between the last two.  gl(3) runs over F_3 and F_5
    only: over Q its even-derivation oracle alone takes seconds."""
    systems = dict(INFINITESIMAL_SYSTEMS)
    if field.p in (3, 5):
        systems["gl(3)"] = oracles.lts_of_bracket(oracles.gl_bracket(3))
    for name, t in systems.items():
        T = lie_triple_system(field, t)
        L = universal_imbedding(T).algebra
        c = [[list(v) for v in row] for row in L.bracket]
        assert derivation_algebra(T).dim == len(oracles.derivation_basis(t, field.p)) \
            == oracles.even_derivation_dim(c, L.dim0, field.p), name


@pytest.mark.parametrize("field", [QQ, Field(2), Field(5)], ids=str)
def test_central_check_matches_center(field):
    """grlie._central, the one centrality check of central_quotient, from_hom,
    universal_central_0_extension and the module quotient, agrees with the
    kernel that center eliminates: on the central lines and planes of the
    odd-generated algebras, the kernels of their universal central
    0-extensions, seeded random even and mixed spans, and tensors built trusted,
    neither alternating nor Jacobi, where e_0 and e_1 - e_2 bracket to 0 on the left."""
    rng = random.Random(34)
    algebras = _odd_generated(field)
    cases = [(L, Z) for L in algebras for Z in _central_lines(L)]
    cases += [(ext.phi.source, ext.kernel) for ext in map(universal_central_0_extension, algebras)]
    for n in (3, 4):
        c = [[[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        c[0], c[2] = [[0] * n] * n, c[1]  # [e_0, x] = 0 and [e_1 - e_2, x] = 0 for every x
        algebras.append(GradedLieAlgebra(field, 1, n - 1, c, _trusted=True))
        cases += [(algebras[-1], Subspace.span(field, n, [v]))
                  for v in ([1] + [0] * (n - 1), [0, 1, -1] + [0] * (n - 3))]
    for L in algebras:
        for k in (1, 2):
            mixed = [[rng.randint(-1, 1) for _ in range(L.dim)] for _ in range(k)]
            even = [v[:L.dim0] + [0] * L.dim1 for v in mixed]
            cases += [(L, Subspace.span(field, L.dim, rows)) for rows in (even, mixed)]
    seen = set()
    for L, Z in cases:
        verdict = lietrip.grlie._central(L, Z)
        assert verdict == center(L).contains_subspace(Z)
        seen.add((verdict, Z.dim))
    assert {(True, 1), (True, 2), (False, 1), (False, 2)} <= seen


def test_envelope_criterion_positive():
    for L in (heis(), sl2graded()):
        result = envelope_criterion(L)
        assert result.verdict
        assert result.witness is not None
        assert result.witness.is_bijective()
        # the witness really maps the envelope of the odd part onto L
        assert result.witness.source == universal_imbedding(odd_part_lts(L)).algebra


def test_envelope_criterion_negative():
    r = envelope_criterion(ab2())
    assert not r.verdict
    assert r.generated_by_odd
    assert r.h2_dimension == 1
    assert "H^2" in r.obstruction

    r2 = envelope_criterion(direct_sum(sl2graded(), even_line()))
    assert not r2.verdict
    assert not r2.generated_by_odd


def test_recognition_on_envelopes():
    for T in (abl(1), abl(2), abl(3), odd2(), sl2lts()):
        U = universal_imbedding(T).algebra
        result = envelope_criterion(U)
        assert result.verdict
        assert result.witness.is_bijective()


# ---------------------------------------------------------------------------
# one exact elimination of d2: ranks first, cocycles only when H^2 != 0

def _h2(L):
    r = h2_graded(L, trivial_module(L))
    return r.dimension, r.cocycle_dim, r.coboundary_dim


def _oracle_h2(L):
    raw = _raw(L)
    cocycles = (len(oracles.graded_pairs(raw))
                - oracles.frac_rank(oracles.delta2_matrix(raw), L.field.p))
    coboundaries = oracles.frac_rank(oracles.delta1_matrix(raw), L.field.p)
    return cocycles - coboundaries, cocycles, coboundaries


def _eliminations(monkeypatch):
    """The calls h2_graded makes to the echelon engine, as (rows, p, bound)
    with each row's sorted items, and to the null-space reader, which only
    builds Z^2."""
    echelons, nulls = [], []

    def echelon(rows, p, bound):
        rows = list(rows)
        echelons.append(([sorted(r.items()) for r in rows], p, bound))
        return _echelon(rows, p, bound)

    def null_vectors(*args):
        nulls.append(args)
        return _null_vectors(*args)

    monkeypatch.setattr(lietrip.cohom, "_echelon", echelon)
    monkeypatch.setattr(lietrip.cohom, "_null_vectors", null_vectors)
    return echelons, nulls


def _assert_d2_eliminated_once(L, echelons, nulls, h2):
    """Every call runs over L's field, exactly: d1 once, d2 once (stopped at
    rank c2 - dim B^2) and, only when H^2 != 0, the representatives' pick;
    Z^2 is built exactly when H^2 != 0.  d2's rows are the oracle's, each
    scaled to its canonical multiple and kept once."""
    raw = _raw(L)
    d2 = [sorted(row) for row in _distinct_rows(L.field.p, (
        {c: x for c, x in enumerate(row) if x} for row in oracles.delta2_matrix(raw)))]
    assert all(p == L.field.p for _, p, _ in echelons)
    assert len(echelons) == 2 + (h2[0] != 0)
    d2_calls = [bound for rows, _, bound in echelons if rows == d2]
    if d2:  # an abelian algebra has no d2 rows, and no d1 columns either
        assert d2_calls == [len(oracles.graded_pairs(raw)) - h2[2]]
    assert len(nulls) == (h2[0] != 0)


ENVELOPES = [(name, lambda F, raw=raw: lie_triple_system(F, raw), field)
             for name, raw, field in LADDER] + [
    (name, make, field)
    for name, make in (("abl(6)", lambda F: abl(6, F)),
                       ("gl(3)", lambda F: lts_of_lie(oracles.gl_bracket(3), F)))
    for field in (QQ, Field(5), Field(2)) if (name, field) != ("gl(3)", Field(5))]


@pytest.mark.parametrize("name, make, field", ENVELOPES,
                         ids=[f"A({name})-{field}" for name, _, field in ENVELOPES])
def test_h2_certificate_on_envelopes_matches_oracle(name, make, field, monkeypatch):
    L = universal_imbedding(make(field)).algebra
    echelons, nulls = _eliminations(monkeypatch)
    got = _h2(L)
    assert got == _oracle_h2(L)
    assert got[0] == 0
    _assert_d2_eliminated_once(L, echelons, nulls, got)


def _central_quotients(field, rng):
    """A(abl(3)), whose even part is central, by a seeded line and plane."""
    A = universal_imbedding(abl(3, field)).algebra
    out = []
    for k in (1, 2):
        while True:
            vecs = [[rng.randint(-2, 2) for _ in range(A.dim0)] + [0] * A.dim1
                    for _ in range(k)]
            ideal = Subspace.span(field, A.dim, vecs)
            if ideal.dim == k:
                break
        out.append(central_quotient(A, ideal)[0])
    return out


@pytest.mark.parametrize("field", [QQ, Field(5), Field(2)], ids=str)
def test_h2_exact_path_exactly_when_h2_is_nonzero(field, monkeypatch):
    quotients = _central_quotients(field, random.Random(7))
    extensions = []
    for Q in quotients:
        M = trivial_module(Q)
        extensions += [cocycle_extension(Q, M, sigma).phi.source
                       for sigma in h2_graded(Q, M).representatives]
    echelons, nulls = _eliminations(monkeypatch)
    nonzero = 0
    for L in [ab2(field)] + quotients + extensions:
        echelons.clear()
        nulls.clear()
        got = _h2(L)
        assert got == _oracle_h2(L)
        _assert_d2_eliminated_once(L, echelons, nulls, got)
        nonzero += got[0] != 0
    # ab2, both quotients and the extensions of the plane quotient
    assert nonzero == 5


@pytest.mark.parametrize("field", [QQ, Field(5), Field(2)], ids=str)
def test_h2_refuses_a_broken_jacobi_on_both_paths(field, monkeypatch):
    # [e_0, e_1] = -e_2 and [e_0, e_2] = e_0 break Jacobi at (0, 1, 2); two
    # more central basis vectors add free cocycles, so H^2 would not be 0.
    # Either way d2 d1 = 0 is checked before anything is eliminated
    echelons, nulls = _eliminations(monkeypatch)
    for n in (3, 5):
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        c[0][1][2], c[1][0][2] = -1, 1
        c[0][2][0], c[2][0][0] = 1, -1
        L = GradedLieAlgebra(field, n, 0, c, _trusted=True)
        with pytest.raises(RuntimeError, match="coboundaries escaped the cocycles"):
            h2_graded(L, trivial_module(L))
        assert echelons == [] and nulls == []

"""Acceptance suite: one test per criterion, each printing a PASS line.

All assertions are exact (no tolerances): the arithmetic is over Q or F_p.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles
from oracles import vec_is_zero

from lietrip.cohom import (
    cocycle_extension, coboundary, envelope_criterion, graded_cochain_basis,
    h2_graded, is_0_centrally_closed, split_central_0_extension,
)
from extra_algebras import sl2_double_swap
from lietrip.corpus import (
    ab2, abl, even_line, heis, odd2, sl2graded, sl2lts,
)
from lietrip.embed import (
    extend_hom, imbedding_functor_hom, standard_imbedding,
    universal_central_0_extension, universal_imbedding,
)
from lietrip.exactlin import Field, Matrix, QQ, Subspace, solve, unit_vec
from lietrip.grlie import (
    center, central_quotient, check_graded_lie, direct_sum, identity_hom, is_generated_by_odd,
    is_graded_hom, trivial_module,
)
from lietrip.lts import (
    LieTripleSystem, LtsHom, check_lts_axioms, identity_lts_hom, odd_part_lts,
)

CORPUS_LTS_NAMES = ["abl(1)", "abl(2)", "abl(3)", "abl(4)", "odd2", "sl2lts"]


def corpus_lts(field=QQ):
    return [abl(1, field), abl(2, field), abl(3, field), abl(4, field),
            odd2(field), sl2lts(field)]


def graded_corpus(field=QQ):
    out = [heis(field), ab2(field), sl2graded(field)]
    out += [universal_imbedding(T).algebra
            for T in (abl(2, field), odd2(field), sl2lts(field))]
    return out


def random_quotient_systems(count: int, seed: int):
    """Odd parts of random central quotients of the envelope of abl(3)."""
    env = universal_imbedding(abl(3))
    L = env.algebra
    cen = center(L)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(0, cen.dim)
        vecs = []
        for _ in range(k):
            w = [QQ.zero()] * L.dim
            for s in range(cen.dim):
                c = QQ.of(rng.randint(-2, 2))
                for t, x in enumerate(cen.basis.entries[s]):
                    w[t] += c * x
            vecs.append(tuple(w))
        ideal = Subspace.span(QQ, L.dim, vecs)
        Q, _ = central_quotient(L, ideal)
        out.append(odd_part_lts(Q))
    return out


def test_criterion_01_axiom_suite():
    for name, T in zip(CORPUS_LTS_NAMES, corpus_lts()):
        report = check_lts_axioms(T)
        assert report.ok, f"{name} violated the axioms"
    base = sl2lts()
    n = base.dim
    rng = random.Random(20260808)
    for _ in range(20):
        i, j, k, l = (rng.randrange(n) for _ in range(4))
        tensor = [[[list(v) for v in tij] for tij in ti] for ti in base.triple]
        tensor[i][j][k][l] += 1
        broken = LieTripleSystem(
            QQ, n,
            tuple(tuple(tuple(tuple(v) for v in tij) for tij in ti) for ti in tensor),
            _trusted=True)
        report = check_lts_axioms(broken)
        assert not report.ok
        w = report.violations[0]
        # the witness is concrete: re-evaluate the reported identity there
        t = broken.triple
        if w.identity == "alternating":
            a, _, c = w.indices
            assert not vec_is_zero(QQ, t[a][a][c])
        elif w.identity == "polarized-alternating":
            a, b, c = w.indices
            assert not vec_is_zero(QQ, oracles.vec_add(t[a][b][c], t[b][a][c]))
        elif w.identity == "cyclic":
            a, b, c = w.indices
            s = oracles.vec_add(oracles.vec_add(t[a][b][c], t[b][c][a]), t[c][a][b])
            assert not vec_is_zero(QQ, s)
        else:
            assert w.identity == "derivation" and len(w.indices) == 5
        assert not vec_is_zero(QQ, w.defect)
    print("PASS criterion 1: axiom suite + 20 mutation witnesses")


def test_criterion_02_construction_validity():
    systems = list(zip(CORPUS_LTS_NAMES, corpus_lts()))
    systems += [(f"quotient-{i}", T)
                for i, T in enumerate(random_quotient_systems(10, seed=5))]
    for name, T in systems:
        ste = standard_imbedding(T)
        assert check_graded_lie(ste.algebra).ok, f"Ste({name})"
        env = universal_imbedding(T)
        assert check_graded_lie(env.algebra).ok, f"A({name})"
        assert is_generated_by_odd(env.algebra), f"A({name}) generation"
    print("PASS criterion 2: Ste and the envelope pass full graded checks "
          f"({len(systems)} systems, exact)")


def test_criterion_03_central_extension_contract():
    for name, T in zip(CORPUS_LTS_NAMES, corpus_lts()):
        env = universal_imbedding(T)
        ups = env.upsilon
        assert oracles.frac_rank(ups.matrix.entries) == env.ste.algebra.dim, name
        assert is_graded_hom(ups.matrix, env.algebra, env.ste.algebra), name
        ker = ups.kernel()
        assert env.algebra.even_subspace().contains_subspace(ker), name
        assert center(env.algebra).contains_subspace(ker), name
    print("PASS criterion 3: upsilon is a graded central extension on all corpus systems")


def _check_unique_extension(T, L, alpha):
    env = universal_imbedding(T)
    ext = extend_hom(T, L, alpha)
    assert ext.source == env.algebra
    F = L.field
    # restriction to T is the imbedding
    for j in range(T.dim):
        expected = tuple([F.zero()] * L.dim0) + alpha.transpose().entries[j]
        assert ext.matrix.transpose().entries[env.algebra.dim0 + j] == expected
    # agreement with an independently constructed extension: decompose every
    # even basis vector of the envelope through a *different* preimage under
    # the wedge projection and push it through [alpha(.), alpha(.)]
    alpha_cols = [tuple([F.zero()] * L.dim0) + alpha.transpose().entries[j] for j in range(T.dim)]
    pairs, bracket = list(combinations(range(T.dim), 2)), L.bracket
    for s in range(env.algebra.dim0):
        coeffs = solve(env.pair.projection, unit_vec(F, env.algebra.dim0, s))
        assert coeffs is not None
        image = tuple([F.zero()] * L.dim)
        for c, (i, j) in zip(coeffs, pairs):
            if c:
                term = oracles.bracket(bracket, alpha_cols[i], alpha_cols[j], F.p)
                image = tuple(F.of(a + c * b) for a, b in zip(image, term))
        assert image == ext.matrix.transpose().entries[s]
    return ext


def test_criterion_04_universality():
    cases = [
        ("odd2 -> sl2", odd2(), sl2graded(), Matrix.identity(QQ, 2)),
        ("abl(2) -> heis", abl(2), heis(), Matrix.identity(QQ, 2)),
        ("sl2lts -> sl2+sl2 (swap grading)", sl2lts(), sl2_double_swap(),
         Matrix.identity(QQ, 3)),
    ]
    for name, T, L, alpha in cases:
        ext = _check_unique_extension(T, L, alpha)
        assert is_graded_hom(ext.matrix, ext.source, L), name
    print("PASS criterion 4: extensions restrict to the imbeddings and are unique")


def test_criterion_05_roundtrip():
    for name, T in zip(CORPUS_LTS_NAMES, corpus_lts()):
        env = universal_imbedding(T)
        assert odd_part_lts(env.algebra).triple == T.triple, name
    print("PASS criterion 5: the odd part of the envelope recovers T exactly")


def test_criterion_06_cohomology_values():
    expected = [("ab2", ab2(), oracles.AB2_RAW, 1),
                ("heis", heis(), oracles.HEIS_RAW, 0),
                ("sl2graded", sl2graded(), oracles.SL2_GRADED_RAW, 0)]
    for name, L, raw, frozen in expected:
        assert oracles.h2_graded_dims(raw)[0] == frozen, f"oracle for {name}"
        assert h2_graded(L, trivial_module(L)).dimension == frozen, name
    kernel_dims = {"ab2": 1, "heis": 0, "sl2graded": 0}
    for name, L, _, h2dim in expected:
        ext = universal_central_0_extension(L)
        assert ext.kernel.dim == kernel_dims[name], name
        # three-way cross-check: closed <=> H2 = 0 <=> trivial kernel
        assert is_0_centrally_closed(L) == (h2dim == 0) == (ext.kernel.dim == 0)
    print("PASS criterion 6: H2 dims (1,0,0) and kernel dims (1,0,0) agree with the oracle")


def test_criterion_07_splitting_dichotomy():
    for p in (None, 3):
        field = Field(p)
        for L, expected_split in ((ab2(field), False), (heis(field), True)):
            M = trivial_module(L)
            cocycles = [b for b in graded_cochain_basis(L, M, 2)
                        if not any(coboundary(b).terms)]
            assert cocycles
            for sigma in cocycles:
                prob = cocycle_extension(L, M, sigma)
                psi = split_central_0_extension(prob)
                assert (psi is not None) == expected_split
                if psi is not None:
                    assert prob.phi.compose(psi).matrix == Matrix.identity(field, L.dim)
                    assert is_graded_hom(psi.matrix, L, prob.phi.source)
    print("PASS criterion 7: splitting succeeds exactly for vanishing classes over Q and F3")


def test_criterion_08_characterization_end_to_end():
    positives = [("heis", heis()), ("sl2graded", sl2graded())]
    positives += [(f"a_of({n})", universal_imbedding(T).algebra)
                  for n, T in zip(CORPUS_LTS_NAMES, corpus_lts())]
    for name, L in positives:
        result = envelope_criterion(L)
        assert result.verdict, name
        assert result.witness is not None, name
        assert oracles.is_invertible(result.witness.matrix.entries, result.witness.matrix.cols), name

    neg = envelope_criterion(ab2())
    assert not neg.verdict and neg.generated_by_odd and neg.h2_dimension == 1

    neg2 = envelope_criterion(direct_sum(sl2graded(), even_line()))
    assert not neg2.verdict and not neg2.generated_by_odd
    print("PASS criterion 8: the two-condition characterization with witnesses end to end")


def test_criterion_09_delta_squared_zero():
    for p in (None, 2, 3):
        field = Field(p)
        for L in graded_corpus(field):
            M = trivial_module(L)
            basis = graded_cochain_basis(L, M, 1)
            for g in basis:
                assert not any(coboundary(coboundary(g)).terms)
    print("PASS criterion 9: delta^2 = 0 on all degree-1 graded cochains over Q, F2, F3")


def test_criterion_10_functoriality():
    for T in (odd2(), abl(2)):
        env = universal_imbedding(T)
        ident = imbedding_functor_hom(identity_lts_hom(T))
        assert ident == identity_hom(env.algebra)

    incl = LtsHom(odd2(), sl2lts(), Matrix.make(QQ, [[0, 0], [1, 0], [0, 1]]))
    swap = LtsHom(odd2(), odd2(), Matrix.make(QQ, [[0, 1], [1, 0]]))
    neg = LtsHom(odd2(), odd2(), Matrix.make(QQ, [[-1, 0], [0, -1]]))
    zero22 = LtsHom(abl(2), abl(2), Matrix(QQ, 2, 2, ((0,) * 2,) * 2))
    any22 = LtsHom(abl(2), abl(2), Matrix.make(QQ, [[1, 2], [3, 4]]))
    a23 = LtsHom(abl(2), abl(3), Matrix.make(QQ, [[1, 0], [2, 1], [0, -1]]))
    a32 = LtsHom(abl(3), abl(2), Matrix.make(QQ, [[1, 1, 0], [0, 2, 5]]))
    pairs = [(incl, swap), (swap, neg), (neg, swap), (zero22, any22), (a32, a23)]
    assert len(pairs) == 5
    for beta, alpha in pairs:
        lhs = imbedding_functor_hom(beta.compose(alpha))
        rhs = imbedding_functor_hom(beta).compose(imbedding_functor_hom(alpha))
        assert lhs.matrix == rhs.matrix
    print("PASS criterion 10: the imbedding functor preserves identities and composition")

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lietrip import lts
from lietrip.corpus import abl, heis, odd2, sl2graded, sl2lts
from lietrip.exactlin import (
    Field, Matrix, QQ, Subspace, _echelon, _integer_rows, dense_tensor, unit_vec,
)
from lietrip.grlie import adjoint_module, check_graded_lie
from lietrip.lts import (
    IdealClosureCertificate, LieTripleSystem, LtsAxiomError, LtsHom, check_lts_axioms,
    derivation_algebra, ideal_closure_certificate, inner_derivation, inner_derivation_algebra,
    is_lts_hom, lie_triple_system, lts_of_lie, odd_part_lts, triple_bracket,
)
from lietrip.serialize import load, save

FIELDS = [QQ, Field(2), Field(3), Field(5)]


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_systems_pass_axioms(field):
    for T in [abl(1, field), abl(2, field), abl(3, field), abl(4, field),
              odd2(field), sl2lts(field)]:
        assert check_lts_axioms(T).ok


def test_triple_bracket_odd2():
    T = odd2()
    e = unit_vec(QQ, 2, 0)
    f = unit_vec(QQ, 2, 1)
    assert triple_bracket(T, e, f, e) == (Fraction(2), Fraction(0))
    assert triple_bracket(T, e, f, f) == (Fraction(0), Fraction(-2))
    for b in (e, f):
        assert triple_bracket(T, e, e, b) == (Fraction(0), Fraction(0))


def test_triple_bracket_abelian_and_mismatch():
    T = abl(3)
    v = (QQ.of(1), QQ.of(2), QQ.of(3))
    assert triple_bracket(T, v, v, v) == (QQ.of(0),) * 3
    with pytest.raises(ValueError):
        triple_bracket(T, v, v, (QQ.of(1),))


def test_single_constant_mutations_fail_with_witness():
    base = sl2lts()
    rng = random.Random(7)
    n = base.dim
    for _ in range(20):
        i, j, k, l = (rng.randrange(n) for _ in range(4))
        tensor = [[[list(v) for v in tij] for tij in ti] for ti in base.triple]
        tensor[i][j][k][l] += 1
        broken = LieTripleSystem(QQ, n,
                                 tuple(tuple(tuple(tuple(v) for v in tij) for tij in ti)
                                       for ti in tensor),
                                 _trusted=True)
        report = check_lts_axioms(broken)
        assert not report.ok
        witness = report.violations[0]
        # re-run the violated identity on the witness tuple, independently
        if witness.identity == "alternating":
            a, _, c = witness.indices
            assert broken.triple[a][a][c] != base.triple[a][a][c] or any(broken.triple[a][a][c])
        with pytest.raises(LtsAxiomError):
            LieTripleSystem(QQ, n, broken.triple)


def test_derivation_algebra_abelian_is_full_endo():
    for n in (1, 2, 3):
        der = derivation_algebra(abl(n))
        assert der.dim == n * n
        # gl_n bracket table closes
        assert der.algebra.dim == n * n


def test_derivation_algebra_odd2_brute_force():
    """Independent oracle: evaluate the defect map on the four unit matrices
    with triple_bracket and take the nullity by the oracle's elimination.
    Hand-solving the 16 x 4 system forces b = c = 0 and d = -a, so the
    derivations of odd2 are the single line spanned by diag(1, -1)."""
    T = odd2()
    n = 2
    cols = []
    for u in range(n):
        for v in range(n):
            e_uv = Matrix.make(QQ, [[1 if (r, c) == (u, v) else 0 for c in range(n)]
                                    for r in range(n)])
            e_cols = e_uv.transpose().entries
            defect = []
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        ei, ej, ek = (unit_vec(QQ, n, x) for x in (i, j, k))
                        lhs = oracles.matvec(e_uv.entries, T.triple[i][j][k])
                        rhs_parts = [triple_bracket(T, e_cols[i], ej, ek),
                                     triple_bracket(T, ei, e_cols[j], ek),
                                     triple_bracket(T, ei, ej, e_cols[k])]
                        rhs = tuple(sum(p[l] for p in rhs_parts) for l in range(n))
                        defect.extend(a - b for a, b in zip(lhs, rhs))
            cols.append(defect)
    oracle_dim = len(cols) - oracles.frac_rank(cols)  # the columns' count less their rank
    der = derivation_algebra(T)
    assert der.dim == oracle_dim == 1
    assert der.basis[0].entries == ((1, 0), (0, -1))


def test_derivation_algebra_sl2lts_contains_ad():
    L = sl2graded()
    T = sl2lts()
    der = derivation_algebra(T)
    for i in range(3):
        ad = adjoint_module(L).action[i]
        assert oracles.in_span_of(der.span.basis.entries)(oracles.flatten(ad.entries))
    assert der.dim == 3


def test_inner_derivation_examples():
    T = odd2()
    e, f = unit_vec(QQ, 2, 0), unit_vec(QQ, 2, 1)
    assert inner_derivation(T, e, f).entries == ((2, 0), (0, -2))
    assert not any(inner_derivation(T, e, e).terms)
    A = abl(3)
    assert not any(inner_derivation(A, unit_vec(QQ, 3, 0), unit_vec(QQ, 3, 1)).terms)


def test_inner_derivation_bilinear():
    T = sl2lts()
    a = (QQ.of(1), QQ.of(2), QQ.of(0))
    b = (QQ.of(0), QQ.of(1), QQ.of(-1))
    c = (QQ.of(3), QQ.of(0), QQ.of(1))
    lhs = inner_derivation(T, a, tuple(x + y for x, y in zip(b, c)))
    ab, ac = (oracles.flatten(inner_derivation(T, a, x).entries) for x in (b, c))
    assert oracles.flatten(lhs.entries) == tuple(x + y for x, y in zip(ab, ac))


def test_inner_derivations_are_derivations():
    rng = random.Random(3)
    for T in (odd2(), sl2lts()):
        n = T.dim
        for _ in range(5):
            a = tuple(QQ.of(rng.randint(-3, 3)) for _ in range(n))
            b = tuple(QQ.of(rng.randint(-3, 3)) for _ in range(n))
            d = inner_derivation(T, a, b)
            d_cols = d.transpose().entries
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        ei, ej, ek = (unit_vec(QQ, n, x) for x in (i, j, k))
                        lhs = oracles.matvec(d.entries, T.triple[i][j][k])
                        rhs = tuple(
                            triple_bracket(T, d_cols[i], ej, ek)[l]
                            + triple_bracket(T, ei, d_cols[j], ek)[l]
                            + triple_bracket(T, ei, ej, d_cols[k])[l]
                            for l in range(n))
                        assert lhs == rhs


def test_inder_algebra_examples():
    assert inner_derivation_algebra(abl(3)).dim == 0
    ind = inner_derivation_algebra(odd2())
    assert ind.dim == 1
    assert ind.span.basis.entries == ((1, 0, 0, -1),)  # diag(1,-1), RREF-scaled
    assert ideal_closure_certificate(odd2()).ok

    L = sl2graded()
    ad_flat = [oracles.flatten(a.entries) for a in adjoint_module(L).action]
    oracle_rank = oracles.frac_rank(ad_flat)
    ind_s = inner_derivation_algebra(sl2lts())
    assert ind_s.dim == oracle_rank == 3
    in_inder = oracles.in_span_of(ind_s.span.basis.entries)
    for v in ad_flat:
        assert in_inder(v)
    cert = ideal_closure_certificate(sl2lts())
    assert cert.ok
    # one check per (derivation basis element, pair i < j)
    assert cert.checked_pairs == derivation_algebra(sl2lts()).dim * 3
    assert cert.failures == ()


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_ideal_closure_certificate_names_the_pairs_a_planted_fault_breaks(monkeypatch, field):
    # Der(sl2lts) with entry (1, 2) of its second basis derivation set to 1/3, in the
    # matrices and in the flattened span alike: no longer a derivation, it breaks the
    # identity at the pairs (0, 2) and (1, 2), pinned from the certificate's earlier
    # computation in Fractions
    T = sl2lts(field)
    der = lts.derivation_algebra(T)
    mats = [list(map(list, m.entries)) for m in der.basis]
    mats[1][1][2] = field.of(Fraction(1, 3))
    flats = [[x for row in m for x in row] for m in mats]
    span = Subspace(field, 9, Matrix.make(field, flats), der.span.pivots)
    planted = lts.DerivationAlgebra(tuple(Matrix.make(field, m) for m in mats), span, der.algebra)
    monkeypatch.setattr(lts, "derivation_algebra", lambda S: planted)
    assert ideal_closure_certificate(T) == IdealClosureCertificate(False, 9, ((0, 2), (1, 2)))


def test_inder_inside_der():
    for T in (odd2(), sl2lts(), abl(2)):
        der = derivation_algebra(T)
        ind = inner_derivation_algebra(T)
        assert der.span.contains_subspace(ind.span)


def test_is_lts_hom_examples():
    T = sl2lts()
    assert is_lts_hom(Matrix.identity(QQ, 3), T, T)
    S = odd2()
    assert is_lts_hom(Matrix(QQ, 2, 3, ((0,) * 3,) * 2), T, S)
    doubling = Matrix.make(QQ, [[2, 0], [0, 2]])
    assert not is_lts_hom(doubling, S, S)
    with pytest.raises(ValueError):
        LtsHom(S, S, doubling)
    LtsHom(S, S, doubling, _trusted=True)  # negative-test escape hatch


def test_lts_of_lie_examples():
    assert lts_of_lie(heis()).triple == abl(3).triple  # [[.,.],.] dies on span z

    got = lts_of_lie(sl2graded())
    expected = sl2lts()
    assert got.triple == expected.triple

    abelian = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    assert lts_of_lie(abelian, QQ).triple == abl(2).triple

    not_lie = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # symmetric, not antisymmetric
    with pytest.raises(ValueError):
        lts_of_lie(not_lie, QQ)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3), Field(5)], ids=str)
def test_lts_of_lie_reads_an_algebra_as_it_is(field, monkeypatch):
    """A GradedLieAlgebra is valid by construction: lts_of_lie reads its brackets with no Lie
    check, and gives the triple system of the same tensor read raw, which is checked."""
    import lietrip.grlie
    from lietrip.embed import universal_imbedding
    algebras = [heis(field), sl2graded(field), universal_imbedding(sl2lts(field)).algebra,
                lietrip.grlie.graded_lie(field, 9, 0, oracles.gl_bracket(3))]
    checks = []
    check = lietrip.grlie.check_graded_lie
    monkeypatch.setattr(lietrip.grlie, "check_graded_lie", lambda L: checks.append(L) or check(L))
    for L in algebras:
        got = lts_of_lie(L)
        assert checks == []
        assert got == lts_of_lie([[list(v) for v in row] for row in L.bracket], field)
        assert len(checks) == 1 and check_lts_axioms(got).ok
        checks.clear()


def test_odd_part_examples():
    from lietrip.corpus import ab2
    assert odd_part_lts(ab2()).triple == abl(2).triple
    assert odd_part_lts(sl2graded()).triple == odd2().triple
    assert odd_part_lts(heis()).triple == abl(2).triple
    for L in (ab2(), sl2graded(), heis()):
        assert check_lts_axioms(odd_part_lts(L)).ok


def test_validated_construction_policy():
    bad = [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
           [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]  # fails polarized alternation
    with pytest.raises(LtsAxiomError):
        lie_triple_system(QQ, bad)
    T = LieTripleSystem(QQ, len(bad), bad, _trusted=True)
    assert not check_lts_axioms(T).ok


# ---------------------------------------------------------------------------
# the axiom check against the independent five-index oracle

ORACLE_SYSTEMS = {
    "gl(2)": oracles.lts_of_bracket(oracles.gl_bracket(2)),
    "sl2lts": oracles.lts_of_bracket(oracles.SL2_BRACKET),
    "odd2": oracles.ODD2_TRIPLE,
    "abl(3)": [[[[0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)],
    "grass(2,2)": oracles.grass_triple(2, 2),
}
ORACLE_CASES = [(name, field) for name in ORACLE_SYSTEMS for field in (QQ, Field(5), Field(2))
                if not (name.startswith("grass") and field.p == 2)]


def _violations(field, raw):
    report = check_lts_axioms(LieTripleSystem(field, len(raw), raw, _trusted=True))
    assert report.ok == (not report.violations)
    return [(v.identity, v.indices, v.defect) for v in report.violations]


# seeded changes of basis, so that the tensors are dense
DENSE_SYSTEMS = {
    "sl2lts@1": oracles.change_basis(ORACLE_SYSTEMS["sl2lts"], 1),
    "grass(2,2)@2": oracles.change_basis(ORACLE_SYSTEMS["grass(2,2)"], 2),
}
DENSE_CASES = [(name, field) for name in DENSE_SYSTEMS for field in (QQ, Field(5), Field(2))
               if not (name.startswith("grass") and field.p == 2)]

# a change of basis with denominators, so that over Q den != 1 in the nonzero view
RATIONAL_SYSTEMS = {
    "gl(2)@3/rational": oracles.rational_change_basis(ORACLE_SYSTEMS["gl(2)"], 3),
    "sl2lts@1/rational": oracles.rational_change_basis(ORACLE_SYSTEMS["sl2lts"], 1),
}
RATIONAL_CASES = [(name, field) for name in RATIONAL_SYSTEMS for field in (QQ, Field(5))]

LADDER = [(name, ORACLE_SYSTEMS[name], field) for name, field in ORACLE_CASES] + [
    (name, DENSE_SYSTEMS[name], field) for name, field in DENSE_CASES] + [
    ("grass(2,3)", oracles.grass_triple(2, 3), QQ),
    ("grass(2,3)", oracles.grass_triple(2, 3), Field(5)),
    ("gl(3)", oracles.lts_of_bracket(oracles.gl_bracket(3)), Field(5)),
]


@pytest.mark.parametrize("name, raw, field", LADDER,
                         ids=[f"{name}-{field}" for name, _, field in LADDER])
def test_axiom_check_matches_oracle_on_ladder(name, raw, field):
    assert _violations(field, raw) == oracles.lts_violations(raw, field.p) == []


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_CASES), st.data())
def test_axiom_check_matches_oracle_under_mutation(case, data):
    name, field = case
    raw = ORACLE_SYSTEMS[name]
    n = len(raw)
    i, j, k, l = (data.draw(st.integers(0, n - 1)) for _ in range(4))
    delta = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-2, 3)]))
    t = oracles.thawed(raw)
    t[i][j][k][l] += delta
    assert _violations(field, t) == oracles.lts_violations(t, field.p)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ORACLE_CASES + DENSE_CASES + RATIONAL_CASES), st.data())
def test_axiom_check_matches_oracle_under_antisymmetric_mutation(case, data):
    """The mutation keeps t alternating in its first two slots, so only the
    cyclic and derivation identities can fail, and the check reads them on
    canonical tuples and spreads the defects by sign."""
    name, field = case
    raw = {**ORACLE_SYSTEMS, **DENSE_SYSTEMS, **RATIONAL_SYSTEMS}[name]
    n = len(raw)
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    k, l = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    delta = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-2, 3)]))
    t = oracles.thawed(raw)
    t[i][j][k][l] += delta
    t[j][i][k][l] -= delta
    assert _violations(field, t) == oracles.lts_violations(t, field.p)


DERIVATION_SYSTEMS = {**ORACLE_SYSTEMS, **DENSE_SYSTEMS, **RATIONAL_SYSTEMS}
DERIVATION_CASES = [(name, field) for name, field in ORACLE_CASES + DENSE_CASES + RATIONAL_CASES
                    if len(DERIVATION_SYSTEMS[name]) >= 3]


def _derivation_mutation(raw, i, j, k, l, delta):
    """raw with +delta at (i,j,k,l) and (k,j,i,l), -delta at (j,i,k,l) and
    (j,k,i,l), for distinct i, j, k: t stays alternating and its cyclic sum
    at (i,j,k) gains delta - delta, so only identity (3) can fail."""
    t = oracles.thawed(raw)
    t[i][j][k][l] += delta
    t[k][j][i][l] += delta
    t[j][i][k][l] -= delta
    t[j][k][i][l] -= delta
    return t


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DERIVATION_CASES), st.data())
def test_axiom_check_matches_oracle_under_derivation_only_mutation(case, data):
    """(3) is decided in Inder(T) coordinates, by the closure (A) and the
    coordinate identity (B) of the lts module docstring; a mutation that
    keeps (1) and (2) reaches both branches, and the report must list every
    violation the oracle finds."""
    name, field = case
    raw = DERIVATION_SYSTEMS[name]
    i, j, k = data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=3, max_size=3, unique=True))
    l = data.draw(st.integers(0, len(raw) - 1))
    delta = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-2, 3)]))
    t = _derivation_mutation(raw, i, j, k, l, delta)
    got = _violations(field, t)
    assert {identity for identity, _, _ in got} <= {"derivation"}
    assert got == oracles.lts_violations(t, field.p)


def test_failures_of_closure_and_of_coordinates_reach_the_scan(monkeypatch):
    """On a seeded list of (1)(2)-preserving mutations, a failure of (A) (the
    commutators of the echelon basis leave Inder(T)) and a failure of (B)
    (they stay in, but a coordinate differs) each hand over to the scan of
    every pair, whose report is the oracle's; a valid system never does."""
    calls = []
    scan, closure = lts._derivation_defects, lts._commutator_coordinates

    def closure_spy(*args):
        table = closure(*args)
        calls.append(("closed", table is not None))
        return table

    monkeypatch.setattr(lts, "_derivation_defects", lambda F, nz, den, pairs, canonical: (
        calls.append(("scan", len(pairs))) or scan(F, nz, den, pairs, canonical)))
    monkeypatch.setattr(lts, "_commutator_coordinates", closure_spy)
    rng = random.Random(23)
    kinds = set()
    for _ in range(60):
        name, field = rng.choice(DERIVATION_CASES)
        raw = DERIVATION_SYSTEMS[name]
        n = len(raw)
        t = _derivation_mutation(raw, *rng.sample(range(n), 3), rng.randrange(n),
                                 rng.choice([1, -1, Fraction(1, 3)]))
        calls.clear()
        got = _violations(field, t)
        assert got == oracles.lts_violations(t, field.p)
        if not got:
            assert calls == [("closed", True)]
            continue
        (_, closed), *rest = calls
        assert rest == [("scan", n * (n - 1) // 2)]
        kinds.add("B" if closed else "A")
    assert kinds == {"A", "B"}


def _scanned_pairs(field, raw, monkeypatch):
    """The lists of pairs (i, j) at which check_lts_axioms scans identity (3), call by call."""
    calls = []
    scan = lts._derivation_defects
    monkeypatch.setattr(lts, "_derivation_defects", lambda F, nz, den, pairs, canonical: (
        calls.append(list(pairs)) or scan(F, nz, den, pairs, canonical)))
    check_lts_axioms(LieTripleSystem(field, len(raw), raw, _trusted=True))
    monkeypatch.undo()
    return calls


def _picked_pairs(field, raw):
    """The pairs i < j whose D_{i,j} enlarge an exact echelon of the flats of
    the D_{i,j}, in order: a basis of Inder(T)."""
    T = LieTripleSystem(field, len(raw), raw, _trusted=True)
    n = T.dim
    pairs = list(combinations(range(n), 2))
    flats = [{c: x for c, x in enumerate(oracles.flatten(inner_derivation(
        T, unit_vec(field, n, i), unit_vec(field, n, j)).entries)) if x} for i, j in pairs]
    _, picked = _echelon(_integer_rows(field.p, flats)[0], field.p, n * n)
    return [pairs[q] for q in picked]


@pytest.mark.parametrize("name, raw, field", LADDER,
                         ids=[f"{name}-{field}" for name, _, field in LADDER])
def test_picked_pairs_are_a_basis_of_the_inner_derivations(name, raw, field, monkeypatch):
    """On a valid system (3) is decided in the coordinates of Inder(T): the
    scan of the five-index tuples never runs."""
    assert _scanned_pairs(field, raw, monkeypatch) == []
    assert len(_picked_pairs(field, raw)) == inner_derivation_algebra(lie_triple_system(field, raw)).dim


PICKED_CASES = [(name, raw, field) for name, raw in (
    ("gl(2)", ORACLE_SYSTEMS["gl(2)"]),
    ("grass(2,3)@3", oracles.change_basis(oracles.grass_triple(2, 3), 3)),
) for field in (QQ, Field(5))]


@pytest.mark.parametrize("name, raw, field", PICKED_CASES,
                         ids=[f"{name}-{field}" for name, _, field in PICKED_CASES])
def test_mutation_outside_the_picked_pairs_is_caught(name, raw, field, monkeypatch):
    """Identity (3) is linear in D_{i,j}, so a basis of Inder(T) decides it.
    Here the mutated pair is not one of the pairs whose flats give that
    basis, and with k = i the cyclic sums stay clean, so only (3) fails: the
    report must still list every violation the oracle finds."""
    picked = _picked_pairs(field, raw)
    n = len(raw)
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in picked)
    t = oracles.thawed(raw)
    t[i][j][i][0] += Fraction(1, 3)
    t[j][i][i][0] -= Fraction(1, 3)
    assert _scanned_pairs(field, t, monkeypatch) == [list(combinations(range(n), 2))]
    got = _violations(field, t)
    assert got and {identity for identity, _, _ in got} == {"derivation"}
    assert got == oracles.lts_violations(t, field.p)


# ---------------------------------------------------------------------------
# the Lie algebra check of lts_of_lie against an ordered scan

LIE_BRACKETS = {"gl(2)": oracles.gl_bracket(2), "sl2": oracles.SL2_BRACKET}
LIE_FIELDS = [QQ, Field(5), Field(2)]


def _lie_error(field, c):
    """The message lts_of_lie raises for the raw bracket c, or None."""
    try:
        lts_of_lie(c, field)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("field", LIE_FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(LIE_BRACKETS))
def test_lie_check_matches_ordered_scan_on_antisymmetric_mutations(name, field):
    raw = LIE_BRACKETS[name]
    n = len(raw)
    messages = []
    for i, j in combinations(range(n), 2):
        for l in range(n):
            c = oracles.thawed(raw)
            c[i][j][l] += 1
            c[j][i][l] -= 1
            messages.append(oracles.lie_bracket_error(c, field.p))
            assert _lie_error(field, c) == messages[-1]
    assert any(m and "Jacobi" in m for m in messages)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LIE_BRACKETS)), st.sampled_from(LIE_FIELDS), st.data())
def test_lie_check_matches_ordered_scan_under_mutation(name, field, data):
    raw = LIE_BRACKETS[name]
    n = len(raw)
    i, j, l = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-2, 3)]))
    c = oracles.thawed(raw)
    c[i][j][l] += delta
    if data.draw(st.booleans()) and i != j:
        c[j][i][l] -= delta  # keeps the bracket alternating, so Jacobi decides
    assert _lie_error(field, c) == oracles.lie_bracket_error(c, field.p)


# ---------------------------------------------------------------------------
# derivations and inner derivations against the dense-system oracle

DER_SYSTEMS = {name: ORACLE_SYSTEMS[name] for name in ("abl(3)", "odd2", "sl2lts", "gl(2)", "grass(2,2)")}
for _seed, _name in enumerate(("sl2lts", "gl(2)", "grass(2,2)"), 1):
    DER_SYSTEMS[f"{_name}@{_seed}"] = oracles.change_basis(DER_SYSTEMS[_name], _seed)
DER_CASES = [(name, field) for name in DER_SYSTEMS for field in (QQ, Field(5), Field(3), Field(2))]


@pytest.mark.parametrize("name, field", DER_CASES, ids=[f"{n}-{f}" for n, f in DER_CASES])
def test_derivations_match_dense_oracle(name, field):
    raw = DER_SYSTEMS[name]
    n, p = len(raw), field.p
    T = lie_triple_system(field, raw)
    der = derivation_algebra(T)
    want = oracles.derivation_basis(raw, p)
    assert der.span.basis.entries == tuple(map(tuple, want))
    assert [list(oracles.flatten(m.entries)) for m in der.basis] == want
    dense = lambda alg: [[list(c) for c in row] for row in dense_tensor(field, alg.dim, alg.terms, 2)]
    assert dense(der.algebra) == oracles.derivation_bracket(want, n, p)
    ind = inner_derivation_algebra(T)
    inner = oracles.inner_derivation_basis(raw, p)
    assert ind.span.basis.entries == tuple(map(tuple, inner))
    assert [list(oracles.flatten(m.entries)) for m in ind.basis] == inner
    assert dense(ind.algebra) == oracles.derivation_bracket(inner, n, p)
    for alg in (der.algebra, ind.algebra):
        assert check_graded_lie(alg).ok and load(save(alg)) == alg
    assert ideal_closure_certificate(T) == IdealClosureCertificate(
        True, der.dim * n * (n - 1) // 2, ())

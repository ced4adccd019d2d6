from fractions import Fraction
from functools import cache, reduce
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

import lietrip.exactlin
import oracles
from extra_algebras import sl2_double_swap
from lietrip.corpus import ab2, abl, even_line, heis, sl2graded
from lietrip.embed import universal_imbedding
from lietrip.exactlin import Field, Matrix, QQ, Subspace, unit_vec
from lietrip.grlie import (
    GradedHom, GradedLieAlgebra, GradedLieError, GradedModule, abelian_algebra,
    adjoint_module, center, central_quotient, check_graded_lie, direct_sum,
    graded_lie, identity_hom, is_generated_by_odd, is_graded_hom, restrict_hom_to_odd,
    trivial_module,
)
from lietrip.lts import LieTripleSystem, check_lts_axioms, is_lts_hom, lie_triple_system, lts_of_lie, odd_part_lts
from test_cohom import _odd_generated, _raw
from test_lts import LADDER

FIELDS = [QQ, Field(2), Field(3), Field(5)]


@pytest.mark.parametrize("field", FIELDS)
def test_corpus_algebras_pass_checks(field):
    for L in (heis(field), ab2(field), sl2graded(field)):
        assert check_graded_lie(L).ok


def test_heis_jacobi_by_hand():
    # The only bracket is [x, y] = z and z is central, so every Jacobi sum
    # reduces to brackets with z and vanishes; the checker must agree.
    L = heis()
    x, y, z = unit_vec(QQ, 3, 1), unit_vec(QQ, 3, 2), unit_vec(QQ, 3, 0)
    assert oracles.bracket(L.bracket, x, y) == z
    assert oracles.bracket(L.bracket, z, x) == (QQ.of(0),) * 3
    assert check_graded_lie(L).ok


def test_misgraded_sl2_fails_with_witness():
    # put e in the even part: [e(even), f(odd)] = h lands in the even block
    entries = [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
               [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
               [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]
    L = GradedLieAlgebra(QQ, 2, 1, entries, _trusted=True)
    report = check_graded_lie(L)
    assert not report.ok
    assert any(v.identity == "grading" for v in report.violations)
    with pytest.raises(GradedLieError):
        graded_lie(QQ, 2, 1, entries)


def test_char2_antisymmetry_storage():
    # over F_2 a tensor with c[i][i] != 0 must be rejected even though
    # c[i][j] + c[j][i] = 0 holds trivially
    entries = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(GradedLieError):
        graded_lie(Field(2), 0, 2, entries)


# check_graded_lie against the direct definition of its three families

# the graded corpus and A of the ladder's systems over Q but gl(3), each also
# after a change of basis that keeps the grading
LADDER_Q = {name: raw for name, raw, f in LADDER if f == QQ and name != "gl(3)"}
GRADED_BASE = ["heis", "ab2", "sl2graded", "sl2_double_swap"] + [f"A({name})" for name in LADDER_Q]
GRADED_ORACLE_NAMES = GRADED_BASE + [f"{name}@{k}" for k, name in enumerate(GRADED_BASE, 1)]
MUTATIONS = [1, -1, 2, Fraction(1, 3), Fraction(-2, 3)]


@cache
def _graded_oracle_systems():
    """name -> (raw bracket over Q, dim0) for every name of GRADED_ORACLE_NAMES."""
    algebras = {"heis": heis(), "ab2": ab2(), "sl2graded": sl2graded(),
                "sl2_double_swap": sl2_double_swap()}
    algebras.update((f"A({name})", universal_imbedding(lie_triple_system(QQ, raw)).algebra)
                    for name, raw in LADDER_Q.items())
    systems = {name: ([[list(v) for v in row] for row in L.bracket], L.dim0)
               for name, L in algebras.items()}
    for k, name in enumerate(GRADED_BASE, 1):
        c, dim0 = systems[name]
        systems[f"{name}@{k}"] = (oracles.change_graded_basis(c, dim0, k), dim0)
    return systems


def _graded_fields(c):
    """The fields of FIELDS in which every constant of the raw bracket c is defined."""
    dens = {Fraction(x).denominator for row in c for v in row for x in v}
    return [F for F in FIELDS if F.p is None or all(d % F.p for d in dens)]


def _graded_report(field, c, dim0):
    report = check_graded_lie(GradedLieAlgebra(field, dim0, len(c) - dim0, c, _trusted=True))
    assert report.ok == (not report.violations)
    return [(v.identity, v.indices, v.defect) for v in report.violations]


@pytest.mark.parametrize("name", GRADED_ORACLE_NAMES)
def test_graded_check_matches_oracle_on_the_corpus(name):
    c, dim0 = _graded_oracle_systems()[name]
    for field in _graded_fields(c):
        assert _graded_report(field, c, dim0) == oracles.graded_violations(c, dim0, field.p) == []


@seed(25)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GRADED_ORACLE_NAMES), st.data())
def test_graded_check_matches_oracle_under_mutation(name, data):
    """A single-entry mutation, or an antisymmetric one that keeps the
    bracket alternating, so that the grading and Jacobi families decide."""
    c, dim0 = _graded_oracle_systems()[name]
    field = data.draw(st.sampled_from(_graded_fields(c)))
    n = len(c)
    i, j, l = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from([d for d in MUTATIONS if field.p != 3 or type(d) is int]))
    c = oracles.thawed(c)
    c[i][j][l] += delta
    if data.draw(st.booleans()) and i != j:
        c[j][i][l] -= delta
    assert _graded_report(field, c, dim0) == oracles.graded_violations(c, dim0, field.p)


# sparse inputs: the checks and triple products visit only chains of nonzero
# constants; a mutation that makes a zero bracket nonzero feeds the Jacobi sum
# of its triples through a single chain

SPARSE_NAMES = ["gl(3)", "A(abl(4))", "A(abl(3))+heis"]


@cache
def _sparse_inputs():
    """name -> (raw bracket over Q, dim0): gl(3) as a 9-dimensional even
    algebra, A(abl(4)) with dims (6, 4), and the direct sum of A(abl(3)) and heis."""
    sums = {"A(abl(4))": universal_imbedding(abl(4)).algebra,
            "A(abl(3))+heis": direct_sum(universal_imbedding(abl(3)).algebra, heis())}
    return {"gl(3)": (oracles.gl_bracket(3), 9),
            **{name: (oracles.thawed(L.bracket), L.dim0) for name, L in sums.items()}}


def _in_field(field, t):
    """A raw tensor as nested lists of the field's scalars."""
    return [_in_field(field, s) for s in t] if isinstance(t, (list, tuple)) else field.of(t)


def _odd_block(t, dim0):
    """The raw triple t restricted to the indices from dim0 on."""
    return [[[v[dim0:] for v in tij[dim0:]] for tij in ti[dim0:]] for ti in t[dim0:]]


def _mutated(data, t, field, depth):
    """The raw tensor t (a bracket, depth 2, or a triple, depth 3) with one to
    three seeded mutations: a drawn delta added at one entry, in a vector
    drawn at random or among the zero vectors off the diagonal, and
    subtracted at the swapped first two indices or not."""
    n = len(t)
    t = oracles.thawed(t)
    keys = list(product(range(n), repeat=depth))
    deltas = [d for d in MUTATIONS if field.p != 3 or type(d) is int]

    def at(key):
        return reduce(lambda s, i: s[i], key, t)

    for _ in range(data.draw(st.integers(1, 3))):
        zeros = [key for key in keys if key[0] != key[1] and not any(at(key))]
        key = data.draw(st.sampled_from(zeros if zeros and data.draw(st.booleans()) else keys))
        l, delta = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from(deltas))
        at(key)[l] += delta
        if data.draw(st.booleans()) and key[0] != key[1]:
            at((key[1], key[0]) + key[2:])[l] -= delta
    return t


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", SPARSE_NAMES)
def test_sparse_inputs_match_the_oracles(name, field):
    c, dim0 = _sparse_inputs()[name]
    L = graded_lie(field, dim0, len(c) - dim0, c)
    assert _graded_report(field, c, dim0) == oracles.graded_violations(c, dim0, field.p) == []
    t = _in_field(field, oracles.lts_of_bracket(c))
    assert _in_field(field, lts_of_lie(L).triple) == t
    assert _in_field(field, lts_of_lie(c, field).triple) == t
    assert _in_field(field, odd_part_lts(L).triple) == _odd_block(t, dim0)


@seed(26)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPARSE_NAMES), st.sampled_from(FIELDS), st.data())
def test_sparse_inputs_match_the_oracles_under_mutation(name, field, data):
    c, dim0 = _sparse_inputs()[name]
    c = _mutated(data, c, field, 2)
    assert _graded_report(field, c, dim0) == oracles.graded_violations(c, dim0, field.p)
    if dim0 == len(c):  # lts_of_lie refuses the first failure of an ordered scan, or matches
        expected = oracles.lie_bracket_error(c, field.p)
        try:
            got = _in_field(field, lts_of_lie(c, field).triple)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None and got == _in_field(field, oracles.lts_of_bracket(c))


# outputs of lts_of_lie and odd_part_lts small enough for the five-index oracle
TRIPLE_OUTPUTS = {"lts_of_lie(gl(2))": lambda F: lts_of_lie(oracles.gl_bracket(2), F),
                  "lts_of_lie(sl2)": lambda F: lts_of_lie(oracles.SL2_BRACKET, F),
                  "odd_part_lts(A(abl(4)))": lambda F: odd_part_lts(universal_imbedding(abl(4, F)).algebra)}


@seed(26)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TRIPLE_OUTPUTS)), st.sampled_from(FIELDS), st.data())
def test_axiom_check_matches_oracle_on_mutated_triple_products(name, field, data):
    """A zero [e_i, e_j, e_k] made nonzero is a single stored nonzero in its cyclic sums."""
    t = _mutated(data, TRIPLE_OUTPUTS[name](field).triple, field, 3)
    report = check_lts_axioms(LieTripleSystem(field, len(t), t, _trusted=True))
    assert report.ok == (not report.violations)
    got = [(v.identity, v.indices, v.defect) for v in report.violations]
    assert got == oracles.lts_violations(t, field.p)


def _checked_algebras(field):
    """Corpus algebras, generated by their odd part or not, and the envelopes of
    the ladder's systems but gl(3)."""
    algebras = [heis(field), ab2(field), sl2graded(field), sl2_double_swap(field),
                direct_sum(sl2graded(field), even_line(field))]
    return algebras + [universal_imbedding(lie_triple_system(field, raw)).algebra
                       for name, raw, f in LADDER if f == field and name != "gl(3)"]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_is_generated_by_odd_matches_naive_closure(field):
    # the theorem is_generated_by_odd decides by: on a graded Lie algebra, L_1
    # generates L exactly when [L_1, L_1] = L_0
    verdicts = set()
    for L in _checked_algebras(field) + _odd_generated(field):
        odd = [list(unit_vec(field, L.dim, i)) for i in range(L.dim0, L.dim)]
        generated = is_generated_by_odd(L)
        assert generated == (len(oracles.subalgebra_closure(_raw(L), odd, field.p)) == L.dim)
        verdicts.add(generated)
    assert verdicts == {True, False}


def test_is_generated_by_odd():
    assert is_generated_by_odd(heis())
    assert is_generated_by_odd(ab2())
    assert is_generated_by_odd(sl2graded())
    assert not is_generated_by_odd(direct_sum(sl2graded(), even_line()))


def test_generation_stops_at_the_full_space(monkeypatch):
    # is_generated_by_odd reads the brackets [e_i, e_j], i < j odd, in order
    # and no bracket after the first k whose span is already L_0
    read = []
    echelon = lietrip.exactlin._echelon

    def spy(rows, p, bound):
        def counted():
            for r in rows:
                read.append(r)
                yield r
        return echelon(counted(), p, bound)

    monkeypatch.setattr(lietrip.exactlin, "_echelon", spy)
    stopped_early = False
    for name, raw, field in LADDER:
        if name == "gl(3)":
            continue
        A = universal_imbedding(lie_triple_system(field, raw)).algebra
        odd = range(A.dim0, A.dim)
        c = A.bracket
        brackets = [c[i][j] for i in odd for j in odd if i < j]
        k = next(k for k in range(len(brackets) + 1)
                 if Subspace.span(field, A.dim, brackets[:k]) == A.even_subspace())
        read.clear()
        assert is_generated_by_odd(A)
        assert len(read) == k
        stopped_early |= k < len(brackets)
    assert stopped_early


def test_center_examples():
    assert center(abelian_algebra(QQ, 2, 2)) == Subspace.span(QQ, 4, Matrix.identity(QQ, 4).entries)
    assert center(sl2graded()).dim == 0
    assert center(heis()) == Subspace.span(QQ, 3, [unit_vec(QQ, 3, 0)])


def test_direct_sum():
    K = heis()
    Z = abelian_algebra(QQ, 0, 0)
    assert direct_sum(K, Z).bracket == K.bracket

    S = direct_sum(ab2(), ab2())
    assert (S.dim0, S.dim1) == (0, 4)
    assert check_graded_lie(S).ok

    D = direct_sum(sl2graded(), sl2graded())
    assert (D.dim0, D.dim1) == (2, 4)
    assert check_graded_lie(D).ok
    assert is_generated_by_odd(D)


def test_central_quotient():
    L = heis()
    zero_ideal = Subspace.span(QQ, 3, [])
    Q0, proj0 = central_quotient(L, zero_ideal)
    assert Q0.bracket == L.bracket
    assert oracles.is_invertible(proj0.matrix.entries, proj0.matrix.cols)

    z_line = Subspace.span(QQ, 3, [unit_vec(QQ, 3, 0)])
    Q, proj = central_quotient(L, z_line)
    assert (Q.dim0, Q.dim1) == (0, 2)
    assert Q.bracket == ab2().bracket
    assert oracles.frac_rank(proj.matrix.entries) == Q.dim
    assert proj.kernel() == z_line

    with pytest.raises(ValueError):
        central_quotient(sl2graded(), Subspace.span(QQ, 3, [unit_vec(QQ, 3, 0)]))
    with pytest.raises(ValueError):
        central_quotient(L, Subspace.span(QQ, 3, [unit_vec(QQ, 3, 1)]))


def test_restrict_hom_to_odd():
    L = heis()
    ident = identity_hom(L)
    r = restrict_hom_to_odd(ident)
    assert r.matrix == Matrix.identity(QQ, 2)

    B = ab2()
    proj = GradedHom(L, B, Matrix.make(QQ, [[0, 1, 0], [0, 0, 1]]))
    rp = restrict_hom_to_odd(proj)
    assert rp.matrix == Matrix.identity(QQ, 2)
    assert is_lts_hom(rp.matrix, odd_part_lts(L), odd_part_lts(B))

    zero = GradedHom(L, B, Matrix(QQ, 2, 3, ((0,) * 3,) * 2))
    assert not any(restrict_hom_to_odd(zero).matrix.terms)

    # functoriality of the restriction
    comp = restrict_hom_to_odd(proj.compose(ident))
    assert comp.matrix == restrict_hom_to_odd(proj).compose(restrict_hom_to_odd(ident)).matrix


def test_graded_hom_refuses_a_wrong_shape_even_trusted():
    # as LtsHom does: the O(1) shape check runs before the hom law that _trusted skips
    for trusted in (False, True):
        with pytest.raises(ValueError, match="hom matrix shape mismatch"):
            GradedHom(heis(), heis(), Matrix.identity(QQ, 2), _trusted=trusted)


def test_is_graded_hom_rejects_block_violation():
    L = heis()
    bad = Matrix.make(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # maps odd x to even z
    assert not is_graded_hom(bad, L, L)
    with pytest.raises(ValueError):
        GradedHom(L, L, bad)


def test_graded_module_validation():
    L = sl2graded()
    adj = adjoint_module(L)
    assert adj.dim == 3
    assert not adj.is_trivial()

    assert trivial_module(L, 2).is_trivial()

    # breaking the representation law must raise
    bad_action = (adj.action[0], adj.action[1], adj.action[1])
    with pytest.raises(ValueError):
        GradedModule(L, 1, 2, bad_action)


# the representation law against its dense definition: the check skips the
# pairs with an empty bracket and a zero action on either side
MODULE_ALGEBRAS = {"heis": heis, "ab2": ab2, "sl2graded": sl2graded,
                   "sl2_double_swap": sl2_double_swap,
                   "A(abl(3))": lambda F: universal_imbedding(abl(3, F)).algebra}


def _module_check(L, dims, action):
    """The message of GradedModule's refusal of the dense action over L, or None."""
    F = L.field
    try:
        GradedModule(L, *dims, tuple(Matrix.make(F, a) for a in action))
    except ValueError as exc:
        return str(exc)
    return None


def _base_module(L, kind):
    """(dims, dense action) of the adjoint module of L, or of the zero action on F^(1|1)."""
    if kind == "adjoint":
        return (L.dim0, L.dim1), [[list(row) for row in a.entries] for a in adjoint_module(L).action]
    return (1, 1), [[[L.field.zero()] * 2 for _ in range(2)] for _ in range(L.dim)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", ["adjoint", "trivial"])
@pytest.mark.parametrize("name", sorted(MODULE_ALGEBRAS))
def test_representation_check_matches_oracle_on_the_corpus(name, kind, field):
    L = MODULE_ALGEBRAS[name](field)
    dims, action = _base_module(L, kind)
    assert oracles.representation_failure(L.bracket, action, field.p) is None
    assert _module_check(L, dims, action) is None


@seed(27)
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(MODULE_ALGEBRAS)), st.sampled_from(["adjoint", "trivial"]),
       st.sampled_from(FIELDS), st.data())
def test_representation_check_matches_oracle_under_mutation(name, kind, field, data):
    """One to three entries of the action changed where the grading allows
    them, and a bracket constant changed or not: a checked module may sit on
    an algebra built without its check, so no pair is inferred from its swap."""
    L = MODULE_ALGEBRAS[name](field)
    (d0, d1), action = _base_module(L, kind)
    allowed = [(i, r, k) for i in range(L.dim) for r in range(d0 + d1) for k in range(d0 + d1)
               if (r >= d0) == (L.degree(i) + (k >= d0)) % 2]
    deltas = [field.of(d) for d in MUTATIONS if field.p != 3 or type(d) is int]
    # the adjoint module of ab2 allows none: its odd part acts into an even part of 0
    for _ in range(data.draw(st.integers(1, 3)) if allowed else 0):
        i, r, k = data.draw(st.sampled_from(allowed))
        action[i][r][k] += data.draw(st.sampled_from(deltas))
    c = [[list(v) for v in row] for row in L.bracket]
    if data.draw(st.booleans()):
        i, j, l = (data.draw(st.integers(0, L.dim - 1)) for _ in range(3))
        c[i][j][l] += data.draw(st.sampled_from(deltas))
        L = GradedLieAlgebra(field, L.dim0, L.dim1, c, _trusted=True)
    pair = oracles.representation_failure(c, action, field.p)
    expected = None if pair is None else f"not a representation: fails at basis pair {pair}"
    assert _module_check(L, (d0, d1), action) == expected


def test_graded_module_grading_enforced():
    L = heis()
    # an action sending the even z into the odd block violates the grading
    a = Matrix.make(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    z = Matrix(QQ, 3, 3, ((0,) * 3,) * 3)
    with pytest.raises(ValueError):
        GradedModule(L, 1, 2, (a, z, z))

import random
from fractions import Fraction
from functools import cache, reduce
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

import lietrip.grlie
import oracles
from lietrip.corpus import ab2, abl, even_line, heis, odd2, sl2_double_swap, sl2graded, sl2lts
from lietrip.embed import universal_imbedding
from lietrip.exactlin import Field, Matrix, QQ, Subspace, kernel_basis, unit_vec
from lietrip.grlie import (
    GradedHom, GradedLieAlgebra, GradedLieError, GradedModule, abelian_algebra,
    adjoint_module, center, central_quotient, check_graded_lie, direct_sum,
    graded_lie, graded_pullback, identity_hom, is_generated_by_odd,
    is_graded_hom, restrict_hom_to_odd, subalgebra_generated, trivial_module,
)
from lietrip.lts import check_lts_axioms, is_lts_hom, lie_triple_system, lts_of_lie, odd_part_lts
from test_cohom import _raw
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
    assert L.bracket_vec(x, y) == z
    assert L.bracket_vec(z, x) == (QQ.of(0),) * 3
    assert check_graded_lie(L).ok


def test_misgraded_sl2_fails_with_witness():
    # put e in the even part: [e(even), f(odd)] = h lands in the even block
    entries = [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
               [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
               [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]
    L = graded_lie(QQ, 2, 1, entries, unchecked=True)
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
    report = check_graded_lie(graded_lie(field, dim0, len(c) - dim0, c, unchecked=True))
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
    c = [[list(v) for v in row] for row in c]
    c[i][j][l] += delta
    if data.draw(st.booleans()) and i != j:
        c[j][i][l] -= delta
    assert _graded_report(field, c, dim0) == oracles.graded_violations(c, dim0, field.p)


# sparse inputs: the checks and triple products visit only chains of nonzero
# constants; a mutation that makes a zero bracket nonzero feeds the Jacobi sum
# of its triples through a single chain

SPARSE_NAMES = ["gl(3)", "A(abl(4))", "A(abl(3))+heis"]


def _lists(t):
    """A tensor of nested tuples (or lists) as nested lists."""
    return [_lists(s) for s in t] if isinstance(t, (list, tuple)) else t


@cache
def _sparse_inputs():
    """name -> (raw bracket over Q, dim0): gl(3) as a 9-dimensional even
    algebra, A(abl(4)) with dims (6, 4), and the direct sum of A(abl(3)) and heis."""
    sums = {"A(abl(4))": universal_imbedding(abl(4)).algebra,
            "A(abl(3))+heis": direct_sum(universal_imbedding(abl(3)).algebra, heis())}
    return {"gl(3)": (oracles.gl_bracket(3), 9),
            **{name: (_lists(L.bracket), L.dim0) for name, L in sums.items()}}


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
    t = _lists(t)
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
    report = check_lts_axioms(lie_triple_system(field, t, unchecked=True))
    assert report.ok == (not report.violations)
    got = [(v.identity, v.indices, v.defect) for v in report.violations]
    assert got == oracles.lts_violations(t, field.p)


def test_subalgebra_generated():
    L = heis()
    full = Subspace.full(QQ, 3)
    assert subalgebra_generated(L, full) == full
    xy = Subspace.span(QQ, 3, [unit_vec(QQ, 3, 1), unit_vec(QQ, 3, 2)])
    assert subalgebra_generated(L, xy) == full

    S = sl2graded()
    e_line = Subspace.span(QQ, 3, [unit_vec(QQ, 3, 1)])
    assert subalgebra_generated(S, e_line) == e_line


def _generation_cases(field, rng):
    """(algebra, seed rows): the odd part, the even part and random seeds of
    corpus algebras, of the envelopes of the ladder's systems but gl(3), and
    of unchecked alternating tensors, which need not satisfy Jacobi."""
    algebras = [heis(field), ab2(field), sl2graded(field), sl2_double_swap(field),
                direct_sum(sl2graded(field), even_line(field))]
    algebras += [universal_imbedding(lie_triple_system(field, raw)).algebra
                 for name, raw, f in LADDER if f == field and name != "gl(3)"]
    for n in (4, 5):
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c[i][j][k] = rng.choice((0, 0, 1, -1))
                    c[j][i][k] = -c[i][j][k]
        algebras.append(graded_lie(field, n - 2, 2, c, unchecked=True))
    for L in algebras:
        n = L.dim
        yield L, [list(v) for v in L.odd_subspace().basis.entries]
        yield L, [list(v) for v in L.even_subspace().basis.entries]
        for k in (1, 2):
            yield L, [[rng.randint(-1, 1) for _ in range(n)] for _ in range(k)]


@pytest.mark.parametrize("field", [QQ, Field(5), Field(2)], ids=str)
def test_subalgebra_generated_matches_naive_closure(field):
    full = proper = 0
    for L, seed in _generation_cases(field, random.Random(11)):
        got = subalgebra_generated(L, Subspace.span(field, L.dim, seed))
        assert got.basis.to_lists() == oracles.subalgebra_closure(_raw(L), seed, field.p)
        full += got.dim == L.dim
        proper += got.dim < L.dim
    assert full and proper


def test_generation_stops_at_the_full_space(monkeypatch):
    # [L_1, L_1] = L_0 in A(sl2lts), so the first round reaches dim L and
    # no second round of brackets confirms that the whole space is closed
    A = universal_imbedding(sl2lts()).algebra
    odd = A.odd_subspace()
    rounds = []

    def spy(*args):
        rounds.append(args)
        return lietrip.exactlin._span(*args)

    monkeypatch.setattr(lietrip.grlie, "_span", spy)
    assert subalgebra_generated(A, odd).dim == A.dim
    assert len(rounds) == 1


def test_is_generated_by_odd():
    assert is_generated_by_odd(heis())
    assert is_generated_by_odd(ab2())
    assert is_generated_by_odd(sl2graded())
    assert not is_generated_by_odd(direct_sum(sl2graded(), even_line()))


def test_center_examples():
    assert center(abelian_algebra(QQ, 2, 2)) == Subspace.full(QQ, 4)
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


def test_graded_pullback_diagonal():
    L = heis()
    ident = identity_hom(L)
    A, pk, pu = graded_pullback(ident, ident)
    assert (A.dim0, A.dim1) == (L.dim0, L.dim1)
    assert pk.matrix == pu.matrix
    assert pk.is_bijective()


def test_graded_pullback_quotient_vs_identity():
    L = heis()
    B = ab2()
    # quotient by the center z
    proj = GradedHom(L, B, Matrix.make(QQ, [[0, 1, 0], [0, 0, 1]]))
    A, pk, pu = graded_pullback(proj, identity_hom(B))
    assert (A.dim0, A.dim1) == (L.dim0, L.dim1)
    assert pk.is_bijective()
    assert proj.compose(pk).matrix == pu.matrix  # phi . pi_K = ups . pi_U


def test_graded_pullback_with_kernel():
    K = heis()
    L = ab2()
    phi = GradedHom(K, L, Matrix.make(QQ, [[0, 1, 0], [0, 0, 1]]))
    # ups: L -> L the identity has kernel 0; swap roles to get kernel dim 1.
    A, pk, pu = graded_pullback(identity_hom(L), phi)
    assert A.dim == K.dim  # rank-nullity on the defining condition
    assert identity_hom(L).compose(pk).matrix == phi.compose(pu).matrix


def _pullback_by_intersection(phi, ups):
    """graded_pullback's (A, pk, pu) by a second route: the even and odd parts
    of the solution space are its intersections with the even and odd
    coordinate spans of K + U, and each bracket of A is read at the pivots."""
    K, U = phi.source, ups.source
    F, ndim = K.field, K.dim + U.dim
    sols = kernel_basis(phi.matrix.hstack(ups.matrix.scale(-1)))

    def part(indices):
        return sols.intersect(Subspace.span(F, ndim, [unit_vec(F, ndim, i) for i in indices]))

    even = part([*range(K.dim0), *range(K.dim, K.dim + U.dim0)])
    odd = part([*range(K.dim0, K.dim), *range(K.dim + U.dim0, ndim)])
    basis = even.basis.entries + odd.basis.entries
    pivots = even.pivots + odd.pivots

    def bracket(v, w):
        return K.bracket_vec(v[:K.dim], w[:K.dim]) + U.bracket_vec(v[K.dim:], w[K.dim:])

    A = GradedLieAlgebra(F, even.dim, odd.dim, tuple(
        tuple(tuple(bracket(v, w)[c] for c in pivots) for w in basis) for v in basis))
    return (A, GradedHom(A, K, Matrix.from_cols(F, [v[:K.dim] for v in basis], rows=K.dim)),
            GradedHom(A, U, Matrix.from_cols(F, [v[K.dim:] for v in basis], rows=U.dim)))


def _pullback_inputs():
    """The (phi, ups) of every pullback the tests build: those above, and
    (proj, proj) for the quotient of A(T) and of the corpus algebras by a
    central even line, as in test_trusted._quotient_and_extensions."""
    from test_trusted import CASES, SYSTEMS  # imported here: test_embed is slow to import
    L, B = heis(), ab2()
    proj = GradedHom(L, B, Matrix.make(QQ, [[0, 1, 0], [0, 0, 1]]))
    yield from ((identity_hom(L), identity_hom(L)), (proj, identity_hom(B)), (identity_hom(B), proj))
    algebras = [universal_imbedding(SYSTEMS[name](F)).algebra for name, F in CASES]
    algebras += [A for F in (QQ, Field(5), Field(2))
                 for A in (heis(F), sl2_double_swap(F), universal_imbedding(abl(2, F)).algebra)]
    for A in algebras:
        line = center(A).intersect(A.even_subspace())
        if line.dim:
            _, proj = central_quotient(A, Subspace.span(A.field, A.dim, [line.basis.entries[0]]))
            yield proj, proj


def test_graded_pullback_matches_the_intersection_route():
    count = 0
    for phi, ups in _pullback_inputs():
        assert graded_pullback(phi, ups) == _pullback_by_intersection(phi, ups)
        count += 1
    assert count > 3


def test_graded_pullback_refuses_homs_that_are_not_graded():
    # phi sends the even and the odd basis vector of K both to the even line,
    # so (e_0 - e_1, 0) solves phi(k) = ups(u) and mixes the two parities
    K, line = abelian_algebra(QQ, 1, 1), abelian_algebra(QQ, 1, 0)
    phi = GradedHom(K, line, Matrix.make(QQ, [[1, 1]]), unchecked=True)
    ups = GradedHom(K, line, Matrix.zeros(QQ, 1, 2), unchecked=True)
    with pytest.raises(RuntimeError, match="pullback solution space is not graded"):
        graded_pullback(phi, ups)


def test_central_quotient():
    L = heis()
    zero_ideal = Subspace.zero(QQ, 3)
    Q0, proj0 = central_quotient(L, zero_ideal)
    assert Q0.bracket == L.bracket
    assert proj0.is_bijective()

    z_line = Subspace.span(QQ, 3, [unit_vec(QQ, 3, 0)])
    Q, proj = central_quotient(L, z_line)
    assert (Q.dim0, Q.dim1) == (0, 2)
    assert Q.bracket == ab2().bracket
    assert proj.is_surjective()
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

    zero = GradedHom(L, B, Matrix.zeros(QQ, 2, 3))
    assert restrict_hom_to_odd(zero).matrix.is_zero()

    # functoriality of the restriction
    comp = restrict_hom_to_odd(proj.compose(ident))
    assert comp.matrix == restrict_hom_to_odd(proj).compose(restrict_hom_to_odd(ident)).matrix


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
    bad_action = (L.ad(0), L.ad(1), L.ad(1))
    with pytest.raises(ValueError):
        GradedModule(L, 1, 2, bad_action)


def test_graded_module_grading_enforced():
    L = heis()
    # an action sending the even z into the odd block violates the grading
    a = Matrix.make(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    z = Matrix.zeros(QQ, 3, 3)
    with pytest.raises(ValueError):
        GradedModule(L, 1, 2, (a, z, z))

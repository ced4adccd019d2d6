from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import vec_is_zero
from lietrip.exactlin import (
    MAX_MODULUS, Field, Matrix, QQ, Subspace, _is_prime, kernel_basis,
    kernel_of_rows, quotient, rank, rref, solve, solve_with_certificate, unit_vec,
)

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)
FIELDS = [QQ, F2, F3, F5]


def test_field_rejects_non_prime():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)


def test_field_primality_is_deterministic_and_fast():
    import time
    trial = lambda n: n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(_is_prime(n) == trial(n) for n in range(3000))
    # a Carmichael number, 101 * 9901 * 999999000001, and a strong
    # pseudoprime to every prime base up to 23
    for composite in (561, 10 ** 18 + 1, 3825123056546413051):
        with pytest.raises(ValueError):
            Field(composite)
    start = time.perf_counter()
    assert Field(10 ** 18 + 3).p == 10 ** 18 + 3
    assert Field(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="ceiling"):
        Field(MAX_MODULUS + 2)


def test_field_of_and_fmt():
    assert QQ.of("2/4") == Fraction(1, 2)
    assert F5.of(-1) == 4
    assert F5.of("7") == 2
    assert F5.of(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert QQ.fmt(Fraction(-3, 4)) == "-3/4"
    assert Field.from_tag("Fp:7") == Field(7)
    assert Field.from_tag("Q") == QQ
    with pytest.raises(ValueError):
        Field.from_tag("R")
    for field in (QQ, F5):
        for x in (True, False):
            with pytest.raises(TypeError):
                field.of(x)
        for s in ("0.5e0", " 3 ", "1_0", "+1", "1/-2", "3\n", "", "\u0663"):
            with pytest.raises(ValueError):
                field.of(s)
        for x in (Fraction(-3, 7), Fraction(0), Fraction(12), 9):
            y = field.of(x)
            assert field.of(field.fmt(y)) == y


class _Int(int):
    pass


class _Frac(Fraction):
    pass


def test_field_of_values_types_and_errors():
    """Exact ints and Fractions take a fast path; bool, subclasses, strings
    and every refusal keep the general branches."""
    huge = 10 ** 30 + 1
    cases = [
        (QQ, 0, Fraction(0), Fraction), (QQ, -7, Fraction(-7), Fraction),
        (QQ, huge, Fraction(huge), Fraction), (QQ, _Int(7), Fraction(7), Fraction),
        (QQ, Fraction(-2, 3), Fraction(-2, 3), Fraction), (QQ, _Frac(2, 3), Fraction(2, 3), _Frac),
        (QQ, "-6/4", Fraction(-3, 2), Fraction), (QQ, "12", Fraction(12), Fraction),
        (F5, 0, 0, int), (F5, -7, 3, int), (F5, huge, 1, int), (F5, _Int(7), 2, int),
        (F5, Fraction(-2, 3), 1, int), (F5, _Frac(2, 3), 4, int),
        (F5, "-6/4", 1, int), (F5, "12", 2, int),
    ]
    for field, x, want, kind in cases:
        got = field.of(x)
        assert got == want and type(got) is kind, (field, x, got)
    errors = [
        (QQ, True, TypeError, "cannot coerce the boolean True into Q"),
        (F5, False, TypeError, "cannot coerce the boolean False into Fp:5"),
        (QQ, 1.5, TypeError, "cannot coerce 1.5 into Q"),
        (F5, 1.5, TypeError, "cannot coerce 1.5 into F_5"),
        (F5, Fraction(3, 10), ZeroDivisionError, "denominator of 3/10 vanishes mod 5"),
        (F5, _Frac(1, 5), ZeroDivisionError, "denominator of 1/5 vanishes mod 5"),
        (F5, "-1/15", ZeroDivisionError, "denominator of -1/15 vanishes mod 5"),
        (QQ, "1/-2", ValueError, "malformed scalar '1/-2' (expected n or n/d)"),
    ]
    for field, x, exc, message in errors:
        with pytest.raises(exc) as info:
            field.of(x)
        assert str(info.value) == message


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1)


def test_rref_zero():
    m = Matrix.zeros(QQ, 3, 3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == ()


def test_rref_hand_example():
    # Hand row-reduction: [[2,4],[1,2]] -> R2 -= R1/2, R1 /= 2.
    m = Matrix.make(QQ, [[2, 4], [1, 2]])
    red, pivots = rref(m)
    assert red.to_lists() == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_kernel_identity_and_zero():
    assert kernel_basis(Matrix.identity(QQ, 4)).dim == 0
    k = kernel_basis(Matrix.zeros(QQ, 2, 3))
    assert k == Subspace.full(QQ, 3)


def test_kernel_f2_by_enumeration():
    m = Matrix.make(F2, [[1, 1]])
    k = kernel_basis(m)
    # Independent oracle: all four vectors of F_2^2.
    expected = sorted(v for v in product([0, 1], repeat=2)
                      if (v[0] + v[1]) % 2 == 0 and any(v))
    assert [list(r) for r in k.basis.entries] == [list(v) for v in expected[:1]]
    assert k.dim == 1
    assert k.contains((1, 1))


def test_solve_examples():
    m = Matrix.identity(QQ, 3)
    v = (Fraction(1), Fraction(2), Fraction(3))
    assert solve(m, v) == v

    inconsistent = Matrix.make(QQ, [[1, 1], [1, 1]])
    assert solve(inconsistent, (QQ.of(1), QQ.of(2))) is None
    sol, cert = solve_with_certificate(inconsistent, (QQ.of(1), QQ.of(2)))
    assert sol is None
    # cert * m = 0 and cert * rhs = 1
    assert vec_is_zero(QQ, tuple(cert[0] * a + cert[1] * b for a, b in zip(*inconsistent.entries)))
    assert cert[0] * 1 + cert[1] * 2 == 1

    under = Matrix.make(QQ, [[1, 1]])
    x = solve(under, (QQ.of(1),))
    assert x == (Fraction(1), Fraction(0))
    assert under.matvec(x) == (Fraction(1),)

    with pytest.raises(ValueError):
        solve(under, (QQ.of(1), QQ.of(2)))


def test_subspace_sum_intersect_examples():
    x_axis = Subspace.span(QQ, 2, [(QQ.of(1), QQ.of(0))])
    y_axis = Subspace.span(QQ, 2, [(QQ.of(0), QQ.of(1))])
    assert x_axis.sum(y_axis) == Subspace.full(QQ, 2)
    assert x_axis.intersect(y_axis).dim == 0


def test_quotient_example():
    a = Subspace.span(QQ, 3, [(QQ.of(1), QQ.of(1), QQ.of(1))])
    q = quotient(3, a)
    assert q.dim == 2
    assert vec_is_zero(QQ, q.projection.matvec((QQ.of(1), QQ.of(1), QQ.of(1))))
    assert q.projection.matmul(q.section) == Matrix.identity(QQ, 2)


def _matrices(field, max_dim=5):
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(lambda rc: st.lists(
        st.lists(st.integers(-4, 4), min_size=rc[1], max_size=rc[1]),
        min_size=rc[0], max_size=rc[0],
    ).map(lambda rows: Matrix.make(field, rows)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(_matrices))
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(_matrices))
def test_rref_idempotent(m):
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert again == red
    assert pivots2 == pivots
    assert all(a < b for a, b in zip(pivots, pivots[1:]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(_matrices))
def test_kernel_vectors_annihilated(m):
    k = kernel_basis(m)
    for v in k.basis.entries:
        assert vec_is_zero(m.field, m.matvec(v))


def _subspace_pair(field, ambient):
    vectors = st.lists(
        st.lists(st.integers(-3, 3), min_size=ambient, max_size=ambient),
        min_size=0, max_size=ambient)
    return st.tuples(vectors, vectors).map(
        lambda vw: (Subspace.span(field, ambient, [tuple(field.of(x) for x in v) for v in vw[0]]),
                    Subspace.span(field, ambient, [tuple(field.of(x) for x in v) for v in vw[1]])))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.integers(1, 8).flatmap(lambda n: _subspace_pair(f, n))))
def test_grassmann_identity(pair):
    a, b = pair
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim
    inter = a.intersect(b)
    assert a.contains_subspace(inter) and b.contains_subspace(inter)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=0, max_size=n).map(
            lambda vs: (f, n, Subspace.span(f, n, [tuple(f.of(x) for x in v) for v in vs]))))))
def test_quotient_section_property(data):
    field, n, a = data
    q = quotient(n, a)
    assert q.projection.matmul(q.section) == Matrix.identity(field, q.dim)
    for i in range(n):
        v = unit_vec(field, n, i)
        back = q.section.matvec(q.projection.matvec(v))
        assert a.contains(oracles.vec_sub(back, v, field.p))
    for v in a.basis.entries:
        assert vec_is_zero(field, q.projection.matvec(v))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: _matrices(f).flatmap(
        lambda m: st.lists(st.integers(-3, 3), min_size=m.cols, max_size=m.cols)
        .map(lambda x: (m, tuple(f.of(v) for v in x))))))
def test_solve_roundtrip(data):
    m, x = data
    rhs = m.matvec(x)
    sol = solve(m, rhs)
    assert sol is not None
    assert m.matvec(sol) == rhs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: _matrices(f).flatmap(
        lambda m: st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows)
        .map(lambda b: (m, tuple(f.of(v) for v in b))))))
def test_solve_or_certificate(data):
    m, rhs = data
    sol, cert = solve_with_certificate(m, rhs)
    if sol is not None:
        assert m.matvec(sol) == rhs
        assert cert is None
    else:
        F = m.field
        mt = m.transpose()
        assert vec_is_zero(F, mt.matvec(cert))
        prod = F.zero()
        for c, b in zip(cert, rhs):
            prod = F.add(prod, F.mul(c, b))
        assert prod == F.one()


def test_transpose_including_empty_shapes():
    m = Matrix.make(QQ, [[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == Matrix.make(QQ, [[1, 4], [2, 5], [3, 6]])
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        z = Matrix.zeros(QQ, rows, cols)
        assert z.transpose() == Matrix.zeros(QQ, cols, rows)
        assert z.transpose().transpose() == z


def test_from_cols_checks_the_row_count():
    assert Matrix.from_cols(QQ, [(1, 2)], rows=2) == Matrix.make(QQ, [[1], [2]])
    assert Matrix.from_cols(QQ, [], rows=3) == Matrix.zeros(QQ, 3, 0)
    for cols, rows in (([(1, 2)], 3), ([(1, 2)], 1), ([(1, 2), (3,)], None), ([(1, 2), (3,)], 2)):
        with pytest.raises(ValueError):
            Matrix.from_cols(QQ, cols, rows=rows)
    with pytest.raises(ValueError):
        Matrix.from_cols(QQ, [])


# ---------------------------------------------------------------------------
# the field-specialised kernels against the naive oracle in tests/oracles.py

KERNEL_FIELDS = [QQ, F2, F5, Field(2 ** 61 - 1)]


def _entries(field, rows, cols, zero_heavy):
    """Raw entries: mostly zeros or dense; small rationals over Q and any
    residue over F_p."""
    nonzero = (st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)])
               if field.p is None else st.integers(1, field.p - 1))
    entry = (st.one_of(st.just(0), st.just(0), st.just(0), nonzero) if zero_heavy
             else st.one_of(st.just(0), nonzero, nonzero, nonzero))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _assert_field_entries(field, rows):
    for row in rows:
        for x in row:
            if field.p is None:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < field.p


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.booleans(), st.data())
def test_kernels_match_naive_oracle(field, zero_heavy, data):
    p = field.p
    r, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
    if data.draw(st.booleans()):
        a_raw = data.draw(_entries(field, r, k, zero_heavy))
    else:
        # tall and rank-deficient: each row a combination of at most 4 generators
        gens = data.draw(_entries(field, data.draw(st.integers(0, 4)), k, zero_heavy))
        coeff = st.sampled_from([0, 1, -1, 2, Fraction(1, 3)] if p is None else [0, 1, 2, 3])
        a_raw = []
        for _ in range(data.draw(st.integers(0, 12))):
            cs = data.draw(st.lists(coeff, min_size=len(gens), max_size=len(gens)))
            a_raw.append([sum((x * g[j] for x, g in zip(cs, gens)), 0) for j in range(k)])
        r = len(a_raw)
    b_raw = data.draw(_entries(field, k, c, zero_heavy))
    v_raw = data.draw(_entries(field, 1, k, zero_heavy))[0]
    a, b = Matrix.make(field, a_raw, cols=k), Matrix.make(field, b_raw, cols=c)
    v = tuple(field.of(x) for x in v_raw)

    prod = a.matmul(b)
    assert prod.to_lists() == oracles.naive_matmul(a_raw, b_raw, c, p)
    assert (prod.rows, prod.cols) == (r, c)
    image = a.matvec(v)
    assert [[x] for x in image] == oracles.naive_matmul(a_raw, [[x] for x in v_raw], 1, p)

    red, pivots = rref(a)
    want_red, want_pivots = oracles.naive_rref(a_raw, k, p)
    assert red.to_lists() == want_red and pivots == want_pivots
    ker = kernel_basis(a)
    assert ker.basis.to_lists() == oracles.naive_kernel(a_raw, k, p)

    _assert_field_entries(field, prod.entries + red.entries + ker.basis.entries + (image,))


# ---------------------------------------------------------------------------
# the kernel of sparse rows: deduplication, the mod-p pick and its fallback

@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, QQ, F5, F2]), st.booleans(), st.data())
def test_kernel_of_rows_matches_naive_oracle(field, zero_heavy, data):
    """Tall, rank-deficient row sets: every row is a combination of a few
    generators, and some rows reappear scaled, negated or unchanged."""
    cols = data.draw(st.integers(1, 6))
    gens = data.draw(_entries(field, data.draw(st.integers(0, cols)), cols, zero_heavy))
    coeff = st.sampled_from([0, 1, -1, 2, Fraction(1, 3)] if field.p is None else [0, 1, 2, 3])
    rows = []
    for _ in range(data.draw(st.integers(0, 10))):
        c = data.draw(st.lists(coeff, min_size=len(gens), max_size=len(gens)))
        rows.append([sum((a * g[j] for a, g in zip(c, gens)), 0) for j in range(cols)])
    for row in list(rows):
        if data.draw(st.booleans()):
            scale = data.draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)] if field.p is None
                                              else [1, 2, 4]))
            rows.insert(data.draw(st.integers(0, len(rows))), [scale * x for x in row])
    ker = kernel_of_rows(field, cols, [{c: field.of(x) for c, x in enumerate(row)}
                                       for row in rows])
    assert ker.basis.to_lists() == oracles.naive_kernel(rows, cols, field.p)
    assert ker == kernel_basis(Matrix.make(field, rows, cols=cols))


@pytest.mark.parametrize("field", [QQ, F5, F2], ids=str)
def test_kernel_of_rows_stops_at_full_rank(field):
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1]]
    for k in (2, 3, 4, 5):
        ker = kernel_of_rows(field, 3, [{c: field.of(x) for c, x in enumerate(r)} for r in rows[:k]])
        assert ker.basis.to_lists() == oracles.naive_kernel(rows[:k], 3, field.p)

"""Dense input enters through one reader: every public entry point that takes
dense matrix rows or a vector reads each scalar through Field.of and checks
the shape once, so a non-canonical representative (x + kp over F_p, an int
or an "n/d" string over Q) gives the canonical answer."""

from fractions import Fraction
from random import Random

import pytest

import oracles
from lietrip.corpus import sl2lts
from lietrip.exactlin import Field, Matrix, QQ, Subspace, inverse, nonzeros, rref, solve
from lietrip.lts import triple_bracket

F5 = Field(5)


# ---------------------------------------------------------------------------
# the cases the constructors and vector entry points took as given

def test_a_residue_is_stored_reduced_whichever_constructor_reads_it():
    assert Matrix(F5, 1, 1, ((7,),)) == Matrix.make(F5, [[7]])
    assert Matrix(F5, 1, 1, ((7,),)).entries == ((2,),)


def test_inverse_of_a_matrix_that_is_zero_mod_p_is_none():
    assert inverse(Matrix(F5, 1, 1, ((5,),))) is None


def test_a_scalar_string_is_read_into_the_field():
    m = Matrix(QQ, 1, 2, (("1/2", 0),))
    assert m.entries == ((Fraction(1, 2), Fraction(0)),)
    assert rref(m)[0] == Matrix.make(QQ, [[1, 0]])


def test_an_int_entry_over_q_is_stored_as_a_fraction():
    assert type(Matrix(QQ, 1, 1, ((1,),)).entries[0][0]) is Fraction


@pytest.mark.parametrize("rows, cols, entries", [(2, 2, ((1, 2),)), (1, 2, ((1, 2, 3),)),
                                                 (2, 2, ((1, 2), (3,))), (0, 1, ((1,),))])
def test_a_matrix_of_another_shape_is_refused_naming_the_shape(rows, cols, entries):
    with pytest.raises(ValueError, match=f"^expected a {rows} x {cols} matrix$"):
        Matrix(QQ, rows, cols, entries)


def test_span_reads_a_multiple_of_p_as_zero():
    assert Subspace.span(F5, 2, [(5, 0), (-5, 0)]).dim == 0
    assert Subspace.span(F5, 2, [(5, 1)]) == Subspace.span(F5, 2, [(0, 1)])


def test_a_solution_is_read_in_canonical_residues():
    line = Matrix.from_cols(F5, [(1, 0)])
    assert solve(line, (7, 0)) == (2,)
    assert solve(line, (1, 5)) == (1,)
    assert solve(line, (1, 1)) is None


@pytest.mark.parametrize("call", [
    lambda: nonzeros(F5, 2, (1, 0, 0)),
    lambda: solve(Matrix.make(F5, [[1, 2]]), (1, 2)),
    lambda: triple_bracket(sl2lts(F5), (1, 0), (0, 1, 0), (0, 0, 1)),
    lambda: triple_bracket(sl2lts(F5), (1, 0, 0), (0, 1), (0, 0, 1)),
    lambda: triple_bracket(sl2lts(F5), (1, 0, 0), (0, 1, 0), (0, 0)),
], ids=["nonzeros", "solve", "triple_bracket(x)", "triple_bracket(y)", "triple_bracket"])
def test_a_vector_of_another_length_is_refused_naming_the_length(call):
    with pytest.raises(ValueError, match=r"^expected a vector of length \d+$"):
        call()


def test_sparse_columns_need_their_row_count():
    from lietrip.exactlin import Nonzeros
    with pytest.raises(ValueError, match="row count"):
        Matrix.from_cols(QQ, Nonzeros((((0, Fraction(1)),),)))


# ---------------------------------------------------------------------------
# every public dense entry point, fed non-canonical representatives

FIELDS = [Field(2), Field(3), F5, QQ]


def _canonical(rng, field):
    if field.p is not None:
        return rng.randrange(field.p)
    return Fraction(rng.choice([0, 0, 1, -1, 2, -3]), rng.choice([1, 1, 2, 3]))


def _representative(rng, field, x):
    """Another name of the scalar x: x + kp (k of either sign) over F_p; over Q an
    int where x is integral, the Fraction, or an "n/d" string in lowest terms or not."""
    if field.p is not None:
        return x + rng.randint(-3, 3) * field.p
    k = rng.randint(1, 3)
    forms = [x, f"{x.numerator * k}/{x.denominator * k}", str(x)]
    if x.denominator == 1:
        forms.append(int(x))
    return rng.choice(forms)


def _vector(rng, field, n):
    return tuple(_canonical(rng, field) for _ in range(n))


def _renamed(rng, field, rows):
    return [tuple(_representative(rng, field, x) for x in row) for row in rows]


def _assert_canonical(field, values):
    for x in values:
        if field.p is None:
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < field.p


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_every_dense_entry_point_reads_any_representative_canonically(field, seed):
    rng = Random(seed)
    n, r = rng.randint(1, 4), rng.randint(1, 4)
    rows = [_vector(rng, field, n) for _ in range(r)]
    named = _renamed(rng, field, rows)
    m = Matrix(field, r, n, rows)
    _assert_canonical(field, (x for row in m.entries for x in row))

    assert Matrix(field, r, n, named) == m
    assert Matrix.make(field, named) == m
    assert Matrix.from_cols(field, named) == m.transpose()
    square = Matrix(field, n, n, [_vector(rng, field, n) for _ in range(n)])
    assert inverse(Matrix(field, n, n, _renamed(rng, field, square.entries))) == inverse(square)

    v, rhs = _vector(rng, field, n), _vector(rng, field, r)
    assert solve(m, _renamed(rng, field, [rhs])[0]) == solve(m, rhs)
    image = oracles.matvec(m.entries, v, field.p)  # a right-hand side in the image of m
    assert solve(m, _renamed(rng, field, [image])[0]) == solve(m, image)

    span = Subspace.span(field, n, rows)
    assert Subspace.span(field, n, named) == span

    x, y = _vector(rng, field, 3), _vector(rng, field, 3)
    nx, ny = _renamed(rng, field, [x, y])
    T = sl2lts(field)
    z = _vector(rng, field, 3)
    assert triple_bracket(T, nx, ny, _renamed(rng, field, [z])[0]) == triple_bracket(T, x, y, z)

"""Example algebras that only the tests build, beside the library's corpus."""

from lietrip.corpus import sl2graded
from lietrip.exactlin import Field, QQ
from lietrip.grlie import GradedLieAlgebra


def sl2_double_swap(field: Field = QQ) -> GradedLieAlgebra:
    """sl2 + sl2 graded by the swap: diagonal copies even, antidiagonal odd.

    In the basis (d_h, d_e, d_f | a_h, a_e, a_f) with d_x = (x, x) and
    a_x = (x, -x), every bracket mirrors the sl2 constants, landing in the
    d-block when the arguments have equal parity and the a-block otherwise.
    """
    s = sl2graded(field).bracket
    # [d, d] -> d, [d, a] -> a, [a, d] -> a, [a, a] -> d: the block of the sum of the parities
    return GradedLieAlgebra(field, 3, 3, tuple(
        tuple(tuple(s[i % 3][j % 3][k % 3] if ((i >= 3) ^ (j >= 3)) == (k >= 3) else 0
                    for k in range(6)) for j in range(6)) for i in range(6)))

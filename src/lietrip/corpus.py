"""Curated example systems and algebras, parametrized by the base field.

Names accepted by :func:`by_name` (and the CLI):

* ``abl(n)``     n-dimensional abelian triple system, 0 <= n <= MAX_ABL_DIM
* ``odd2``       the odd part of sl2 under its usual grading (basis e, f)
* ``sl2lts``     sl2 as a triple system via [a,b,c] = [[a,b],c] (basis h, e, f)
* ``heis``       graded Heisenberg algebra: L0 = span z, L1 = span{x, y}, [x,y] = z
* ``ab2``        2-dimensional purely odd abelian algebra
* ``sl2graded``  sl2 with L0 = span h, L1 = span{e, f}
* ``a_of(x)``    the universal imbedding of the corpus triple system x
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .exactlin import Field, Nonzeros, QQ
from .grlie import GradedLieAlgebra, abelian_algebra, graded_lie

if TYPE_CHECKING:  # lts loads only for a triple system, so that a graded algebra's name runs no lts
    from .lts import LieTripleSystem


def abl(n: int, field: Field = QQ) -> LieTripleSystem:
    from .lts import LieTripleSystem
    return LieTripleSystem(field, n, Nonzeros(((((),) * n,) * n,) * n), unchecked=True)


# sl2 structure constants in the basis (h, e, f), which the constructor reads into the field
_SL2_BRACKET = (((0, 0, 0), (0, 2, 0), (0, 0, -2)),
                ((0, -2, 0), (0, 0, 0), (1, 0, 0)),
                ((0, 0, 2), (-1, 0, 0), (0, 0, 0)))


def sl2graded(field: Field = QQ) -> GradedLieAlgebra:
    return GradedLieAlgebra(field, 1, 2, _SL2_BRACKET)


def sl2lts(field: Field = QQ) -> LieTripleSystem:
    from .lts import lts_of_lie
    return lts_of_lie(sl2graded(field))


def odd2(field: Field = QQ) -> LieTripleSystem:
    from .lts import lie_triple_system
    entries = [[[[0, 0], [0, 0]], [[2, 0], [0, -2]]],
               [[[-2, 0], [0, 2]], [[0, 0], [0, 0]]]]
    return lie_triple_system(field, entries)


def heis(field: Field = QQ) -> GradedLieAlgebra:
    entries = [[[0, 0, 0], [0, 0, 0], [0, 0, 0]],
               [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
               [[0, 0, 0], [-1, 0, 0], [0, 0, 0]]]
    return graded_lie(field, 1, 2, entries)


def ab2(field: Field = QQ) -> GradedLieAlgebra:
    return abelian_algebra(field, 0, 2)


def even_line(field: Field = QQ) -> GradedLieAlgebra:
    return abelian_algebra(field, 1, 0)


def sl2_double_swap(field: Field = QQ) -> GradedLieAlgebra:
    """sl2 + sl2 graded by the swap: diagonal copies even, antidiagonal odd.

    In the basis (d_h, d_e, d_f | a_h, a_e, a_f) with d_x = (x, x) and
    a_x = (x, -x), every bracket mirrors the sl2 constants, landing in the
    d-block when the arguments have equal parity and the a-block otherwise.
    """
    # [d, d] -> d, [d, a] -> a, [a, d] -> a, [a, a] -> d: the block of the sum of the parities
    return GradedLieAlgebra(field, 3, 3, tuple(
        tuple(tuple(_SL2_BRACKET[i % 3][j % 3][k % 3] if ((i >= 3) ^ (j >= 3)) == (k >= 3) else 0
                    for k in range(6)) for j in range(6)) for i in range(6)))


_LTS_NAMES = {"odd2": odd2, "sl2lts": sl2lts}
_ALGEBRA_NAMES = {"heis": heis, "ab2": ab2, "sl2graded": sl2graded}
# n in abl(n) is ASCII digits; a minus sign is read only to be refused by range
_ABL_RE = re.compile(r"abl\((-?[0-9]+)\)")
_A_OF_RE = re.compile(r"a_of\((.+)\)")

# a_of(abl(n)) has dimension n(n+1)/2: its dense JSON holds 27 million scalars at the ceiling
MAX_ABL_DIM = 24


def lts_by_name(name: str, field: Field = QQ) -> LieTripleSystem:
    m = _ABL_RE.fullmatch(name)
    if m:
        text = m.group(1)
        n = int(text)
        if text.startswith("-") or n > MAX_ABL_DIM:
            raise ValueError(f"abl(n) needs 0 <= n <= {MAX_ABL_DIM}, got n = {text}")
        return abl(n, field)
    if name in _LTS_NAMES:
        return _LTS_NAMES[name](field)
    raise KeyError(f"unknown triple system name {name!r}")


def by_name(name: str, field: Field = QQ):
    """Resolve a corpus name, exactly as listed (no surrounding whitespace),
    to a system or algebra."""
    m = _A_OF_RE.fullmatch(name)
    if m:
        from .embed import universal_imbedding
        return universal_imbedding(lts_by_name(m.group(1), field)).algebra
    if _ABL_RE.fullmatch(name) or name in _LTS_NAMES:
        return lts_by_name(name, field)
    if name in _ALGEBRA_NAMES:
        return _ALGEBRA_NAMES[name](field)
    raise KeyError(f"unknown corpus name {name!r}")

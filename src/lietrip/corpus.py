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

from .exactlin import Field, QQ, zero_vec
from .grlie import GradedLieAlgebra, abelian_algebra, graded_lie
from .lts import LieTripleSystem, lie_triple_system, lts_of_lie


def abl(n: int, field: Field = QQ) -> LieTripleSystem:
    z = zero_vec(field, n)
    tensor = tuple(tuple(tuple(z for _ in range(n)) for _ in range(n)) for _ in range(n))
    return LieTripleSystem(field, n, tensor, unchecked=True)


def _sl2_bracket(field: Field):
    """sl2 structure constants in the basis (h, e, f)."""
    rows = [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
            [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]
    return tuple(tuple(tuple(field.of(x) for x in v) for v in row) for row in rows)


def sl2graded(field: Field = QQ) -> GradedLieAlgebra:
    return GradedLieAlgebra(field, 1, 2, _sl2_bracket(field))


def sl2lts(field: Field = QQ) -> LieTripleSystem:
    return lts_of_lie(sl2graded(field))


def odd2(field: Field = QQ) -> LieTripleSystem:
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
    c = _sl2_bracket(field)
    z = zero_vec(field, 6)
    tensor = [[list(z) for _ in range(6)] for _ in range(6)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                x = c[i][j][k]
                tensor[i][j][k] = x          # [d, d] -> d
                tensor[i][3 + j][3 + k] = x  # [d, a] -> a
                tensor[3 + i][j][3 + k] = x
                tensor[3 + i][3 + j][k] = x  # [a, a] -> d
    return GradedLieAlgebra(field, 3, 3,
                            tuple(tuple(tuple(v) for v in row) for row in tensor))


_LTS_NAMES = ("odd2", "sl2lts")
# n in abl(n) is ASCII digits; a minus sign is read only to be refused by range
_ABL_RE = re.compile(r"abl\((-?[0-9]+)\)")
_A_OF_RE = re.compile(r"a_of\((.+)\)")

# abl(n) is a tensor of n^4 scalars: 331,776 at the ceiling
MAX_ABL_DIM = 24


def lts_by_name(name: str, field: Field = QQ) -> LieTripleSystem:
    m = _ABL_RE.fullmatch(name)
    if m:
        text = m.group(1)
        n = int(text)
        if text.startswith("-") or n > MAX_ABL_DIM:
            raise ValueError(f"abl(n) needs 0 <= n <= {MAX_ABL_DIM}, got n = {text}")
        return abl(n, field)
    if name == "odd2":
        return odd2(field)
    if name == "sl2lts":
        return sl2lts(field)
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
    if name == "heis":
        return heis(field)
    if name == "ab2":
        return ab2(field)
    if name == "sl2graded":
        return sl2graded(field)
    raise KeyError(f"unknown corpus name {name!r}")

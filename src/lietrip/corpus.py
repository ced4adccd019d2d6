"""Curated example systems and algebras, parametrized by the base field.

Names accepted by :func:`builder` (and the CLI):

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
from functools import partial
from typing import TYPE_CHECKING

from .exactlin import Field, Nonzeros, QQ
from .grlie import GradedLieAlgebra, abelian_algebra, graded_lie

if TYPE_CHECKING:  # lts loads only for a triple system, so that a graded algebra's name runs no lts
    from .lts import LieTripleSystem


def abl(n: int, field: Field = QQ) -> LieTripleSystem:
    from .lts import LieTripleSystem
    return LieTripleSystem(field, n, Nonzeros(((((),) * n,) * n,) * n), _trusted=True)


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


_LTS_NAMES = {"odd2": odd2, "sl2lts": sl2lts}
_ALGEBRA_NAMES = {"heis": heis, "ab2": ab2, "sl2graded": sl2graded}
# n in abl(n) is ASCII digits; a minus sign is read only to be refused by range
_ABL_RE = re.compile(r"abl\((-?[0-9]+)\)")
_A_OF_RE = re.compile(r"a_of\((.+)\)")

# a_of(abl(n)) has dimension n(n+1)/2: its dense JSON holds 27 million scalars at the ceiling
MAX_ABL_DIM = 24


def builder(name: str):
    """The builder, a function of the field, of a corpus name exactly as listed
    (no surrounding whitespace).  The name is looked up before anything is
    built: KeyError for an unknown name, ValueError for abl(n) out of range."""
    m = _A_OF_RE.fullmatch(name)
    system = m.group(1) if m else name  # a_of(x) takes the name x of a triple system
    abl_match = _ABL_RE.fullmatch(system)
    if abl_match:
        text = abl_match.group(1)
        n = int(text)
        if text.startswith("-") or n > MAX_ABL_DIM:
            raise ValueError(f"abl(n) needs 0 <= n <= {MAX_ABL_DIM}, got n = {text}")
        build = partial(abl, n)
    elif system in _LTS_NAMES:
        build = _LTS_NAMES[system]
    elif not m and name in _ALGEBRA_NAMES:
        return _ALGEBRA_NAMES[name]
    else:
        raise KeyError(f"unknown corpus name {name!r}")
    if not m:
        return build
    from .embed import universal_imbedding
    return lambda field: universal_imbedding(build(field)).algebra

"""One stored form: triple systems, graded algebras and modules hold their
structure constants once, as ``Nonzeros``, and the library reads nothing
else.

The dense ``triple``, ``bracket`` and ``action`` are views derived on each
read.  No module of ``src/lietrip`` reads them.  Every record the corpus
or a trusted assembler builds is canonical: the public constructor, given
its dense view, returns an equal record with an equal hash, and
``load(save(x)) == x``.  This is checked over Q, F_2 and F_5.
"""

import ast
from pathlib import Path

import pytest

import oracles
from lietrip.cohom import coboundary, cocycle_extension, graded_cochain_basis, h2_graded
from lietrip.corpus import (
    ab2, abl, even_line, heis, odd2, sl2_double_swap, sl2graded, sl2lts,
)
from lietrip.embed import graded_algebra_from_pairing, universal_imbedding
from lietrip.exactlin import Field, Nonzeros, QQ, Subspace, mat_from_flat
from lietrip.grlie import (
    GradedLieAlgebra, GradedModule, adjoint_module, center, central_quotient, direct_sum,
    graded_pullback, trivial_module,
)
from lietrip.lts import DerivationAlgebra, LieTripleSystem, lts_of_lie, odd_part_lts
from lietrip.serialize import load, save

SRC = Path(__file__).resolve().parent.parent / "src" / "lietrip"
VIEWS = {LieTripleSystem: "triple", GradedLieAlgebra: "bracket", GradedModule: "action",
         DerivationAlgebra: "bracket"}


def test_the_dense_tensors_are_derived_views():
    for cls, name in VIEWS.items():
        assert isinstance(cls.__dict__[name], property), cls
        assert name not in cls._fields and "terms" in cls._fields, cls


def test_no_library_module_reads_a_dense_view():
    reads = sorted(f"{path.stem}.py:{node.lineno}: .{node.attr}"
                   for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Attribute) and node.attr in set(VIEWS.values()))
    assert reads == []


def _records(F):
    """(what, record) for the corpus and for every output of the trusted
    assemblers: _assemble_lts, _assemble (directly and through _glue) and
    the modules built unchecked."""
    yield from ((f"abl({n})", abl(n, F)) for n in range(4))
    yield from (("odd2", odd2(F)), ("sl2lts", sl2lts(F)), ("heis", heis(F)), ("ab2", ab2(F)),
                ("sl2graded", sl2graded(F)), ("sl2_double_swap", sl2_double_swap(F)),
                ("even_line", even_line(F)))
    gl2 = lts_of_lie(oracles.gl_bracket(2), F)
    yield "gl(2)", gl2
    for name, T in (("odd2", odd2(F)), ("gl(2)", gl2), ("abl(3)", abl(3, F))):
        env = universal_imbedding(T)
        wedge = env.pair.wedge
        yield from ((f"A({name})", env.algebra), (f"Ste({name})", env.ste.algebra),
                    (f"Inder({name})", wedge.inder_algebra),
                    (f"<{name},{name}>", env.pair.algebra), (f"T^T({name})", wedge.module),
                    (f"odd part of A({name})", odd_part_lts(env.algebra)),
                    (f"adjoint of A({name})", adjoint_module(env.algebra)),
                    (f"trivial module of A({name})", trivial_module(env.algebra, 2)))
    yield "lts_of_lie(sl2graded)", lts_of_lie(sl2graded(F))
    yield "heis + sl2graded", direct_sum(heis(F), sl2graded(F))
    A = universal_imbedding(abl(2, F)).algebra
    line = center(A).intersect(A.even_subspace())
    Q, proj = central_quotient(A, Subspace.span(F, A.dim, [line.basis.entries[0]]))
    yield "A(abl(2))/line", Q
    yield "pullback", graded_pullback(proj, proj)[0]
    M = trivial_module(Q)
    for k, sigma in enumerate(h2_graded(Q, M).representatives):
        yield f"extension {k}", cocycle_extension(Q, M, sigma).total
    H = heis(F)  # coboundaries put sigma's terms next to the bracket's on one pair
    for k, g in enumerate(graded_cochain_basis(H, trivial_module(H), 1)):
        yield f"coboundary extension {k}", cocycle_extension(H, trivial_module(H), coboundary(g)).total
    pa = universal_imbedding(gl2).pair  # gl(2) as a module over <gl(2),gl(2)>, glued back
    module = GradedModule(pa.algebra, 4, 0, tuple(mat_from_flat(F, pa.mu_end.col(s), 4, 4)
                                                  for s in range(pa.algebra.dim)))
    yield "gl(2) over <gl(2),gl(2)>", module
    yield "glued A(gl(2))", graded_algebra_from_pairing(pa.algebra, module, pa.projection)


def _public(x):
    """The public constructor applied to x's dense view."""
    if isinstance(x, LieTripleSystem):
        return LieTripleSystem(x.field, x.dim, x.triple)
    if isinstance(x, GradedLieAlgebra):
        return GradedLieAlgebra(x.field, x.dim0, x.dim1, x.bracket)
    return GradedModule(x.algebra, x.dim0, x.dim1, x.action)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(5)], ids=str)
def test_every_built_record_is_canonical_and_round_trips(field):
    seen = 0
    for what, x in _records(field):
        assert type(x.terms) is Nonzeros, what
        y = _public(x)
        assert y == x and hash(y) == hash(x), what
        assert load(save(x)) == x, what
        seen += 1
    assert seen >= 40

"""One stored form: triple systems, graded algebras and modules hold their
structure constants once, matrices (so subspace bases too) their rows, and
cochains their values, as ``Nonzeros``, and the library reads nothing else.

The dense ``triple``, ``bracket``, ``action``, ``entries`` and ``values``
are views derived on each read.  No module of ``src/lietrip`` reads them.
Every record the corpus, a trusted assembler or the cochain complex builds
is canonical: the public constructor, given its dense view, returns an
equal record with an equal hash, and ``load(save(x)) == x``.  Every matrix
the library builds along the way (homs, projections, lam, mu,
derivation and subspace bases) is canonical the same way.  This is checked
over Q, F_2 and F_5.
"""

import ast
import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import oracles
from lietrip.cohom import (
    Cochain, coboundary, cocycle_extension, envelope_criterion, graded_cochain_basis, h2_graded,
    split_central_0_extension,
)
from extra_algebras import sl2_double_swap
from lietrip.corpus import (
    ab2, abl, even_line, heis, odd2, sl2graded, sl2lts,
)
from lietrip.embed import _glue, pair_algebra, universal_imbedding, wedge_module
from lietrip.exactlin import Field, Matrix, Nonzeros, QQ, Record, Subspace, inverse
from lietrip.grlie import (
    GradedHom, GradedLieAlgebra, GradedModule, adjoint_module, center, central_quotient,
    direct_sum, restrict_hom_to_odd, trivial_module,
)
from lietrip.lts import (
    DerivationAlgebra, LieTripleSystem, LtsHom, derivation_algebra, inner_derivation_algebra,
    lts_of_lie, odd_part_lts,
)
from lietrip.serialize import load, save

SRC = Path(__file__).resolve().parent.parent / "src" / "lietrip"
VIEWS = {LieTripleSystem: "triple", GradedLieAlgebra: "bracket", GradedModule: "action",
         DerivationAlgebra: "bracket", Matrix: "entries", Cochain: "values"}
STRUCTURES = (LieTripleSystem, GradedLieAlgebra, GradedModule, Cochain)
# the levels of each structure's terms above its sparse vectors
DEPTHS = {LieTripleSystem: 3, GradedLieAlgebra: 2, GradedModule: 2, Cochain: 1}
PAYLOADS = STRUCTURES + (LtsHom, GradedHom)


def test_the_dense_tensors_are_derived_views():
    for cls, name in VIEWS.items():
        assert isinstance(cls.__dict__[name], property), cls
        assert name not in cls._fields and "terms" in cls._fields, cls


def test_no_library_module_reads_a_dense_view():
    reads = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        # an attribute that is called, as in dict.values(), is a method, not a view
        reads += [f"{path.stem}.py:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in set(VIEWS.values())
                  and id(node) not in called]
    assert sorted(reads) == []


def _records(F):
    """(what, record) for the records _built makes, and for each one that
    save writes, the record load reads back from its payload."""
    built = list(_built(F))
    yield from built
    for what, x in built:
        if isinstance(x, PAYLOADS):
            yield f"loaded {what}", load(json.loads(json.dumps(save(x))))


def _built(F):
    """(what, record) for the corpus and for every output of the trusted
    assemblers: _assemble_lts, _assemble (directly and through _glue) and
    the modules built unchecked; and the records that hold the matrices
    built on the way: imbeddings, derivation algebras, homs, extensions."""
    yield from ((f"abl({n})", abl(n, F)) for n in range(4))
    yield from (("odd2", odd2(F)), ("sl2lts", sl2lts(F)), ("heis", heis(F)), ("ab2", ab2(F)),
                ("sl2graded", sl2graded(F)), ("sl2_double_swap", sl2_double_swap(F)),
                ("even_line", even_line(F)))
    gl2 = lts_of_lie(oracles.gl_bracket(2), F)
    yield "gl(2)", gl2
    for name, T in (("odd2", odd2(F)), ("gl(2)", gl2), ("abl(3)", abl(3, F))):
        env = universal_imbedding(T)
        yield from ((f"univ({name})", env), (f"Der({name})", derivation_algebra(T)),
                    (f"restricted upsilon of {name}", restrict_hom_to_odd(env.upsilon)))
        criterion = envelope_criterion(env.algebra)
        yield f"criterion of A({name})", criterion
        if criterion.witness is not None:
            yield f"inverse witness of A({name})", inverse(criterion.witness.matrix)
        wedge = wedge_module(T)
        yield from ((f"pair algebra of {name}", pair_algebra(T)), (f"wedge module of {name}", wedge))
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
    yield from (("A(abl(2))/line", Q), ("projection onto A(abl(2))/line", proj))
    M = trivial_module(Q)
    for k, sigma in enumerate(h2_graded(Q, M).representatives):
        problem = cocycle_extension(Q, M, sigma)
        yield from ((f"h2 representative {k}", sigma), (f"extension {k}", problem.phi.source),
                    (f"extension problem {k}", problem))
    H = heis(F)  # coboundaries put sigma's terms next to the bracket's on one pair
    for k, g in enumerate(graded_cochain_basis(H, trivial_module(H), 1)):
        problem = cocycle_extension(H, trivial_module(H), coboundary(g))
        yield from ((f"coboundary extension {k}", problem.phi.source),
                    (f"splitting {k}", split_central_0_extension(problem)))
    for name, L in (("heis", H), ("sl2graded", sl2graded(F)), ("A(abl(2))", A)):
        for M in (trivial_module(L, 2), adjoint_module(L)):
            for degree in (1, 2):
                for k, c in enumerate(graded_cochain_basis(L, M, degree)):
                    yield from ((f"{degree}-cochain {k} on {name}", c),
                                (f"its coboundary {k} on {name}", coboundary(c)))
            yield f"zero 3-cochain on {name}", Cochain(L, M, 3, ((0,) * M.dim,) * comb(L.dim, 3))
    pa = pair_algebra(gl2)  # gl(2) as a module over <gl(2),gl(2)>, glued back
    mu_end = inner_derivation_algebra(gl2).span.basis.transpose().matmul(pa.mu)
    flats = mu_end.transpose().entries
    module = GradedModule(pa.algebra, 4, 0, tuple(Matrix(F, 4, 4, (f[0:4], f[4:8], f[8:12], f[12:16]))
                                                  for f in flats))
    yield "gl(2) over <gl(2),gl(2)>", module
    yield "glued A(gl(2))", _glue(pa.algebra, 4, module.terms, pa.projection)


def _public(x):
    """The public constructor applied to x's dense view."""
    if isinstance(x, LieTripleSystem):
        return LieTripleSystem(x.field, x.dim, x.triple)
    if isinstance(x, GradedLieAlgebra):
        return GradedLieAlgebra(x.field, x.dim0, x.dim1, x.bracket)
    if isinstance(x, Cochain):
        return Cochain(x.algebra, x.module, x.degree, x.values)
    return GradedModule(x.algebra, x.dim0, x.dim1, x.action)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(5)], ids=str)
def test_every_built_record_is_canonical_and_round_trips(field):
    scalar = Fraction if field.p is None else int
    seen = []
    for what, x in _records(field):
        if not isinstance(x, STRUCTURES):
            continue
        assert type(x.terms) is Nonzeros, what
        y = _public(x)
        assert y == x and hash(y) == hash(x), what
        assert load(save(x)) == x, what
        vectors = [x.terms]  # an int over Q would compare equal to its Fraction
        for _ in range(DEPTHS[type(x)]):
            vectors = [v for t in vectors for v in t]
        assert all(type(c) is scalar and (field.p is None or 0 < c < field.p)
                   for v in vectors for _, c in v), what
        seen.append(type(x))
    assert len(seen) >= 40 and set(seen) == set(STRUCTURES)


def _matrices(x, path):
    """(path, matrix) for every Matrix x holds: itself, or in the fields of
    a record and the items of a tuple, recursively (not in Nonzeros)."""
    if isinstance(x, Matrix):
        yield path, x
    elif isinstance(x, Record):
        for name in x._fields:
            yield from _matrices(getattr(x, name), f"{path}.{name}")
    elif type(x) is tuple:
        for k, y in enumerate(x):
            yield from _matrices(y, f"{path}[{k}]")


@pytest.mark.parametrize("field", [QQ, Field(2), Field(5)], ids=str)
def test_every_built_matrix_is_canonical(field):
    """Each stored row holds its nonzero field scalars sorted by column, so
    the constructor, given the dense view, returns an equal matrix with an
    equal hash."""
    scalar = Fraction if field.p is None else int
    kinds = set()
    for what, x in _records(field):
        for path, m in _matrices(x, what):
            assert type(m.terms) is Nonzeros and len(m.terms) == m.rows, path
            assert all(type(c) is scalar and (field.p is None or 0 < c < field.p)
                       for row in m.terms for _, c in row), path
            y = Matrix(m.field, m.rows, m.cols, m.entries)
            assert y == m and hash(y) == hash(m), path
            kinds.add(path.rpartition(".")[2].partition("[")[0])
    assert kinds >= {"matrix", "projection", "lam", "mu", "basis", "iota", "inclusion"}

"""The invariants of everything the library builds itself, and where it
may skip validation.

Objects derived from validated input go through the trusted assemblers
(``grlie._assemble``, ``lts._assemble_lts``, ``embed._glue``) and a few
constructors called with the private ``_trusted=True``; none of them re-runs
an axiom, Jacobi or hom-law scan.  Each construction is valid by theorem, and this
module asserts it with the library's own checkers on the ladder plus gl(3),
grass(2,3) and abl(5), over Q, F_5 and F_2.  The pair algebra, built over
the inner derivations, is also compared with a second route over the whole
derivation algebra.  The call-site test pins every call site of those
trusted paths, and of the validating constructors, in ``src/lietrip``: no
public switch skips validation, and the one unvalidated read of a file is
that of check-lts and check-graded.
"""

import ast
import json
from itertools import combinations
from pathlib import Path

import pytest

import oracles
from lietrip.cohom import (
    Cochain, cocycle_extension, coboundary, envelope_criterion, graded_cochain_basis, h2_graded,
    split_central_0_extension,
)
from extra_algebras import sl2_double_swap
from lietrip.corpus import ab2, abl, heis, odd2, sl2graded, sl2lts
from lietrip.embed import (
    module_quotient_algebra, pair_algebra, universal_imbedding, wedge_dim, wedge_module,
    wedge_pairs,
)
from lietrip.exactlin import Field, Matrix, QQ, Subspace, unit_vec
from lietrip.grlie import (
    GradedHom, GradedLieAlgebra, GradedLieError, GradedModule, adjoint_module, center,
    central_quotient, check_graded_lie, direct_sum, graded_lie, identity_hom, is_graded_hom, restrict_hom_to_odd, trivial_module,
)
from lietrip.lts import (
    IdealClosureCertificate, LieTripleSystem, LtsAxiomError, LtsHom, check_lts_axioms,
    derivation_algebra, ideal_closure_certificate, identity_lts_hom, inner_derivation,
    inner_derivation_algebra, is_lts_hom, lie_triple_system, lts_of_lie, odd_part_lts,
)
from lietrip.serialize import PayloadError, load, save
from test_embed import assert_in_kernel_of_lam, radical_generators

SYSTEMS = {
    "abl(4)": lambda F: abl(4, F),
    "abl(5)": lambda F: abl(5, F),
    "odd2": odd2,
    "sl2lts": sl2lts,
    "gl(2)": lambda F: lts_of_lie(oracles.gl_bracket(2), F),
    "gl(3)": lambda F: lts_of_lie(oracles.gl_bracket(3), F),
    "grass(2,2)": lambda F: lie_triple_system(F, oracles.grass_triple(2, 2)),
    "grass(2,3)": lambda F: lie_triple_system(F, oracles.grass_triple(2, 3)),
}
FIELDS = [QQ, Field(5), Field(2)]
CASES = [(name, F) for name in SYSTEMS for F in FIELDS]


def _graded_ok(L, what):
    report = check_graded_lie(L)
    assert report.ok, f"{what}: {report.violations[:1]}"


def _hom_ok(phi, what):
    assert is_graded_hom(phi.matrix, phi.source, phi.target), what


def _quotient_and_extensions(A, what):
    """A central quotient of A, and the central extensions built from its
    graded H^2 with trivial coefficients; their projections are homs."""
    line = center(A).intersect(A.even_subspace())
    if not line.dim:
        return
    Q, proj = central_quotient(A, Subspace.span(A.field, A.dim, [line.basis.entries[0]]))
    _graded_ok(Q, f"{what}/line")
    _hom_ok(proj, f"projection onto {what}/line")
    assert check_lts_axioms(odd_part_lts(Q)).ok, f"odd part of {what}/line"
    M = trivial_module(Q)
    for k, sigma in enumerate(h2_graded(Q, M).representatives):
        prob = cocycle_extension(Q, M, sigma)
        _graded_ok(prob.phi.source, f"extension {k} of {what}/line")
        _hom_ok(prob.phi, f"projection of extension {k} of {what}/line")


@pytest.mark.parametrize("name, field", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_derived_objects_pass_the_full_checks(name, field):
    T = SYSTEMS[name](field)
    assert check_lts_axioms(T).ok, name  # lts_of_lie builds gl(n) trusted
    env = universal_imbedding(T)
    A = env.algebra
    for what, L in (("Inder", wedge_module(T).inder_algebra), ("<T,T>", env.pair.algebra),
                    ("Ste", env.ste.algebra), ("A", A)):
        _graded_ok(L, f"{what}({name})")
        # adjoint_module builds unchecked; load validates the module law and grading
        assert load(save(adjoint_module(L))) == adjoint_module(L), f"ad({what}({name}))"
    _hom_ok(env.upsilon, f"upsilon of {name}")
    odd = restrict_hom_to_odd(env.upsilon)
    assert check_lts_axioms(odd.source).ok and check_lts_axioms(odd.target).ok, name
    assert is_lts_hom(odd.matrix, odd.source, odd.target), name
    report = envelope_criterion(A)
    assert report.verdict, name
    _hom_ok(report.witness, f"envelope_criterion witness of A({name})")
    assert report.witness.source == A, name
    _quotient_and_extensions(A, f"A({name})")
    n = T.dim
    der = derivation_algebra(T)
    assert ideal_closure_certificate(T) == IdealClosureCertificate(
        True, der.dim * n * (n - 1) // 2, ()), name
    # what the certificate's identity implies: Inder(T) holds every [D, D_{i,j}]
    inder = inner_derivation_algebra(T).span
    for i, j in combinations(range(n), 2):
        dij = inner_derivation(T, unit_vec(field, n, i), unit_vec(field, n, j))
        for d in der.basis:
            comm = [x - y for x, y in zip(d.matmul(dij).flatten(), dij.matmul(d).flatten())]
            assert inder.contains(comm), (name, i, j)


def _pair_algebra_over_der(T):
    """The module quotient of T^T over the whole derivation algebra, and mu
    flattened into End(T), built from the public API: a second route to the
    pair algebra, which the library builds over the inner derivations."""
    F, n = T.field, T.dim
    der = derivation_algebra(T)
    L = GradedLieAlgebra(F, der.dim, 0, der.bracket)  # validated: Jacobi of Der(T)
    module = GradedModule(L, wedge_dim(n), 0, tuple(Matrix.make(F, oracles.wedge_action(
                              x.to_lists(), F.p), cols=wedge_dim(n)) for x in der.basis),
                          _trusted=True)
    lam = Matrix.from_cols(F, [
        der.span.coordinates(inner_derivation(T, unit_vec(F, n, i), unit_vec(F, n, j)).flatten())
        for i, j in wedge_pairs(n)], rows=der.dim)
    mq = module_quotient_algebra(L, module, lam)
    basis = Matrix.from_cols(F, [x.flatten() for x in der.basis], rows=n * n)
    return mq, basis.matmul(mq.mu)


@pytest.mark.parametrize("name, field", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_pair_algebra_matches_the_derivation_route(name, field):
    T = SYSTEMS[name](field)
    mq, mu_end = _pair_algebra_over_der(T)
    pa = pair_algebra(T)
    assert pa.algebra == mq.algebra
    assert pa.a_subspace == mq.a_subspace
    assert pa.projection == mq.projection
    env = universal_imbedding(T)
    assert env.ste.inder.span.basis.transpose().matmul(pa.mu) == mu_end  # mu flattened into End(T)
    r, q = env.ste.inder.dim, pa.algebra.dim
    assert tuple(row[:q] for row in env.upsilon.matrix.entries[:r]) == pa.mu.entries


MORE_SYSTEMS = {
    "abl(3)": lambda F: abl(3, F),
    # gl(n) after a seeded change of basis, so that the tensors turn dense
    "gl(2)@1": lambda F: lts_of_lie(oracles.change_bracket_basis(oracles.gl_bracket(2), 1), F),
    "gl(3)@1": lambda F: lts_of_lie(oracles.change_bracket_basis(oracles.gl_bracket(3), 1), F),
}
PAIR_CASES = [(name, F) for name in [*SYSTEMS, *MORE_SYSTEMS] for F in [*FIELDS, Field(3)]]


@pytest.mark.parametrize("name, field", PAIR_CASES, ids=[f"{n}-{f}" for n, f in PAIR_CASES])
def test_universal_imbedding_pair_is_the_module_quotient_of_the_pair_algebra(name, field):
    """universal_imbedding reads <T,T> off the brackets of Ste(T); pair_algebra
    divides T^T, a module over Inder(T), by its radical: the same record."""
    T = {**SYSTEMS, **MORE_SYSTEMS}[name](field)
    assert pair_algebra(T) == universal_imbedding(T).pair


@pytest.mark.parametrize("name, field", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_image_times_kernel_of_lam_lies_in_a_on_the_derivation_route(name, field, monkeypatch):
    """Over Der(T), L is larger than Im(lam) = Inder(T); Im(lam).Ker(lam),
    from the oracle's dense products, still lies in the A(M) that the
    module quotient builds from the products with lam's pivot columns, and
    each of those generators lies in ker(lam)."""
    T = SYSTEMS[name](field)
    built = []
    gens = radical_generators(monkeypatch, lambda: built.append(_pair_algebra_over_der(T)))
    mq, _ = built[0]
    a_rows = mq.a_subspace.basis.to_lists()
    raw = [[[list(v) for v in tij] for tij in ti] for ti in T.triple]
    assert_in_kernel_of_lam(raw, gens, field.p)
    products = oracles.image_kernel_products(raw, field.p)
    assert oracles.frac_rank(a_rows + products, field.p) == len(a_rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_graded_corpus_extensions_pass_the_full_checks(field):
    for L in (heis(field), sl2_double_swap(field), universal_imbedding(abl(2, field)).algebra):
        assert check_lts_axioms(odd_part_lts(L)).ok
        _graded_ok(direct_sum(L, heis(field)), "direct sum")
        M = trivial_module(L)
        for sigma in h2_graded(L, M).representatives:
            prob = cocycle_extension(L, M, sigma)
            _graded_ok(prob.phi.source, "cocycle extension")
            _hom_ok(prob.phi, "cocycle extension projection")
        for g in graded_cochain_basis(L, M, 1):
            prob = cocycle_extension(L, M, coboundary(g))
            _graded_ok(prob.phi.source, "coboundary extension")
            _hom_ok(split_central_0_extension(prob), "splitting of a coboundary extension")
        _quotient_and_extensions(L, "corpus algebra")


# ---------------------------------------------------------------------------
# the one validation policy, as call sites

SRC = Path(__file__).resolve().parent.parent / "src" / "lietrip"
ASSEMBLERS = ("_assemble", "_assemble_lts", "_glue")
CONSTRUCTORS = ("GradedLieAlgebra", "LieTripleSystem", "GradedHom", "LtsHom", "GradedModule")

# (module.function, call) for every call that builds without a check
TRUSTED_SITES = {
    # the assemblers themselves, and their callers
    ("grlie._assemble", "GradedLieAlgebra(_trusted=True)"),
    ("lts._assemble_lts", "LieTripleSystem(_trusted=True)"),
    ("lts.lts_of_lie", "_assemble_lts"),
    ("lts.odd_part_lts", "_assemble_lts"),
    ("grlie.direct_sum", "_assemble"),
    ("grlie.central_quotient", "_assemble"),
    ("grlie.central_quotient", "GradedHom(_trusted=True)"),
    ("grlie.restrict_hom_to_odd", "LtsHom(_trusted=True)"),
    ("embed.standard_imbedding", "_assemble"),
    ("embed.standard_imbedding", "_glue"),
    ("embed.wedge_module", "_assemble"),
    ("embed.wedge_module", "GradedModule(_trusted=True)"),
    ("embed._module_quotient", "_assemble"),
    ("embed._envelope", "_glue"),
    ("embed._envelope", "GradedHom(_trusted=True)"),
    ("embed._glue", "_assemble"),
    ("embed._extend", "GradedHom(_trusted=True)"),
    ("cohom.cocycle_extension", "_assemble"),
    ("cohom.cocycle_extension", "GradedHom(_trusted=True)"),
    ("cohom.split_central_0_extension", "GradedHom(_trusted=True)"),
    # objects valid by their shape alone
    ("corpus.abl", "LieTripleSystem(_trusted=True)"),
    ("grlie.abelian_algebra", "GradedLieAlgebra(_trusted=True)"),
    ("grlie.identity_hom", "GradedHom(_trusted=True)"),
    ("lts.identity_lts_hom", "LtsHom(_trusted=True)"),
    ("exactlin.Hom.compose", "__class__(_trusted=True)"),
    ("grlie.trivial_module", "GradedModule(_trusted=True)"),
    # the representation law of the adjoint action is the Jacobi identity of L
    ("grlie.adjoint_module", "GradedModule(_trusted=True)"),
    # the checkers' loader: check-lts and check-graded read a top-level system
    # or algebra without its axiom check, which they run to report the violations
    ("serialize.load", "LieTripleSystem(_trusted=_trusted)"),
    ("serialize.load", "GradedLieAlgebra(_trusted=_trusted)"),
    ("cli._load_input", "load(_trusted=_trusted)"),
    ("cli.main", "_load_input(_trusted=args.command in _CHECKS)"),
}

# (module.function, constructor) for every internal call that validates
VALIDATING_SITES = {
    ("lts.lie_triple_system", "LieTripleSystem"),
    ("grlie.graded_lie", "GradedLieAlgebra"),
    ("lts.lts_of_lie", "GradedLieAlgebra"),  # the Lie check of its input
    ("corpus.sl2graded", "GradedLieAlgebra"),
    # nested payloads and the records that hold them are always validated
    ("serialize.load", "LtsHom"),
    ("serialize.load", "GradedHom"),
    ("serialize.load", "GradedModule"),
}


def _call_sites():
    trusted, validating = set(), set()
    for path in sorted(SRC.glob("*.py")):
        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    walk(child, scope + (child.name,))
                    continue
                if isinstance(child, ast.Call):
                    f = child.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    where = ".".join((path.stem,) + scope)
                    flags = [k.value for k in child.keywords if k.arg == "_trusted"]
                    if name in ASSEMBLERS:
                        trusted.add((where, name))
                    for value in flags:
                        trusted.add((where, f"{name}(_trusted={ast.unparse(value)})"))
                    if name in CONSTRUCTORS and not flags:
                        validating.add((where, name))
                walk(child, scope)
        walk(ast.parse(path.read_text(encoding="utf-8")), ())
    return trusted, validating


def test_validation_is_skipped_and_kept_only_at_the_listed_sites():
    trusted, validating = _call_sites()
    assert trusted == TRUSTED_SITES
    assert validating == VALIDATING_SITES


# ---------------------------------------------------------------------------
# the boundary still validates: one invalid input per public constructor

def _broken_lts():
    # [e_0, e_0, e_0] = e_0 breaks alternation
    return LieTripleSystem(QQ, 1, ((((QQ.of(1),),),),), _trusted=True)


def _broken_lie():
    # all even, [e_0, e_1] = e_2 and [e_1, e_2] = e_1: the Jacobiator at
    # (0, 1, 2) is -e_2
    entries = [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
               [[0, 0, -1], [0, 0, 0], [0, 1, 0]],
               [[0, 0, 0], [0, -1, 0], [0, 0, 0]]]
    return GradedLieAlgebra(QQ, 3, 0, entries, _trusted=True)


def _doubled(M):
    return Matrix(M.field, M.rows, M.cols, [[2 * x for x in row] for row in M.entries])


def _edited(obj, path, value):
    """The payload of obj with the entry at path replaced by value."""
    payload = json.loads(json.dumps(save(obj)))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


BOUNDARY_CASES = {
    "LieTripleSystem": (lambda: LieTripleSystem(QQ, 1, _broken_lts().triple), LtsAxiomError,
                        "not a Lie triple system: 3 violation(s), first is alternating "
                        "at basis tuple (0, 0, 0)"),
    # odd2 with [e_1, e_1, e_0] = e_0
    "lie_triple_system": (lambda: lie_triple_system(QQ, oracles.ODD2_TRIPLE[:1] + [
                              [[[-2, 0], [0, 2]], [[1, 0], [0, 0]]]]), LtsAxiomError,
                          "not a Lie triple system: 10 violation(s), first is alternating "
                          "at basis tuple (1, 1, 0)"),
    "GradedLieAlgebra": (lambda: GradedLieAlgebra(QQ, 3, 0, _broken_lie().bracket), GradedLieError,
                         "not a graded Lie algebra: 1 violation(s), first is jacobi at (0, 1, 2)"),
    "graded_lie": (lambda: graded_lie(QQ, 2, 1, oracles.SL2_BRACKET), GradedLieError,
                   "not a graded Lie algebra: 2 violation(s), first is grading at (1, 2, 0)"),
    "lts_of_lie(tensor)": (lambda: lts_of_lie([[[0, 0], [1, 0]], [[0, 0], [0, 0]]], QQ), ValueError,
                           "not a Lie algebra: antisymmetry fails at (0, 1)"),
    # raw entries are read whole before their shape is judged: a bad scalar
    # anywhere is the error, even after a ragged row
    "lts_of_lie(ragged tensor)": (lambda: lts_of_lie([[[0, 0], [1]], [[0, 0], [0, 0]]], QQ),
                                  ValueError, "bracket tensor shape does not match dims"),
    "lts_of_lie(bad scalar)": (lambda: lts_of_lie([[[0, 0], [1]], [[0, 0], [0, "1.5"]]], QQ),
                               ValueError, "malformed scalar '1.5' (expected n or n/d)"),
    "graded_lie(ragged tensor)": (lambda: graded_lie(QQ, 1, 1, [[[0, 0], [0, 0]], [[0, 0], [0]]]),
                                  ValueError, "bracket tensor shape does not match dims"),
    "graded_lie(bad scalar)": (lambda: graded_lie(QQ, 1, 1, [[[0], [0, 0]], [[0, 0], [0, "x"]]]),
                               ValueError, "malformed scalar 'x' (expected n or n/d)"),
    "lie_triple_system(ragged tensor)": (
        lambda: lie_triple_system(QQ, [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                                       [[[0, 0], [0, 0]], [[0, 0], [0]]]]),
        ValueError, "triple tensor shape does not match dim"),
    "lie_triple_system(bad scalar)": (
        lambda: lie_triple_system(Field(5), [[[[0, 0], [0]], [[0, 0], [0, 0]]],
                                             [[[0, 0], [0, 0]], [[0, 0], [0, "--1"]]]]),
        ValueError, "malformed scalar '--1' (expected n or n/d)"),
    "LtsHom": (lambda: LtsHom(odd2(), odd2(), _doubled(Matrix.identity(QQ, 2))), ValueError,
               "matrix is not a homomorphism of Lie triple systems"),
    "GradedHom": (lambda: GradedHom(heis(), heis(), _doubled(Matrix.identity(QQ, 3))), ValueError,
                  "matrix is not a graded Lie algebra homomorphism"),
    "GradedModule": (lambda: GradedModule(sl2graded(), 3, 0, tuple(
                         _doubled(a) for a in adjoint_module(sl2graded()).action)), ValueError,
                     "module grading violated at action[1][0][2]"),
    "load(lts)": (lambda: load(save(_broken_lts())), LtsAxiomError,
                  "not a Lie triple system: 3 violation(s), first is alternating "
                  "at basis tuple (0, 0, 0)"),
    "load(graded_lie)": (lambda: load(save(_broken_lie())), GradedLieError,
                         "not a graded Lie algebra: 1 violation(s), first is jacobi at (0, 1, 2)"),
    "load(lts_hom)": (lambda: load(_edited(identity_lts_hom(odd2()), ["entries", 0, 0], "2")),
                      ValueError, "matrix is not a homomorphism of Lie triple systems"),
    "load(graded_hom)": (lambda: load(_edited(identity_hom(heis()), ["entries", 0, 0], "2")),
                         ValueError, "matrix is not a graded Lie algebra homomorphism"),
    "load(module)": (lambda: load(_edited(adjoint_module(sl2graded()), ["entries", 1, 1, 1], "1")),
                     ValueError, "module grading violated at action[1][1][1]"),
    # the value on (e_0, e_1), of degree 1, in a module with no odd part
    "load(cochain)": (lambda: load(_edited(Cochain(heis(), trivial_module(heis()), 2, ((0,),) * 3),
                                           ["entries", 0], ["1"])),
                      PayloadError, "cochain is not graded"),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_public_constructors_refuse_invalid_input(name):
    build, exc_type, message = BOUNDARY_CASES[name]
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is exc_type and str(info.value) == message

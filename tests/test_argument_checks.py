"""The argument checks of the loader, the hom and module records, the
algebra constructions, the extension problems and exactlin: each refuses
with its own message.  Where a check is reachable from the command line it
is run through main, which must exit 2 with one "error:" line."""

import json
from fractions import Fraction

import pytest

from lietrip.cli import main
from lietrip.cohom import (
    CentralExtensionProblem, Cochain, NotCentral0Extension, cocycle_extension,
    graded_cochain_basis, split_central_0_extension,
)
from lietrip.corpus import ab2, abl, heis, odd2, sl2graded, sl2lts
from lietrip.embed import extend_hom
from lietrip.exactlin import Field, Matrix, Nonzeros, QQ, Subspace, inverse, quotient, solve, unit_vec
from lietrip.grlie import (
    GradedHom, GradedModule, adjoint_module, central_quotient, direct_sum,
    identity_hom, is_graded_hom, trivial_module,
)
from lietrip.lts import LtsHom, identity_lts_hom, is_lts_hom, lts_of_lie
from lietrip.serialize import PayloadError, load, save

F5 = Field(5)


def _refused_by_main(capsys, tmp_path, payloads, command):
    """Write each payload to name.json, run command on the files (or a corpus name
    where a value is a str), and return the one error line, which must come with exit 2."""
    args = []
    for name, payload in payloads.items():
        if isinstance(payload, str):
            args.append(payload)
            continue
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        args.append(str(path))
    assert main([command, *args]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.err
    return lines[0]


# ---------------------------------------------------------------------------
# load and save

def test_a_payload_that_is_not_an_object_is_invalid_input(capsys, tmp_path):
    with pytest.raises(PayloadError, match="^payload must be a JSON object$"):
        load([])
    line = _refused_by_main(capsys, tmp_path, {"list": []}, "thm-a")
    assert line == f"error: {tmp_path / 'list.json'}: payload must be a JSON object"


def test_a_payload_without_its_field_is_invalid_input(capsys, tmp_path):
    payload = save(heis())
    del payload["field"]
    with pytest.raises(PayloadError, match="^missing key 'field'$"):
        load(payload)
    line = _refused_by_main(capsys, tmp_path, {"nofield": payload}, "thm-a")
    assert line.endswith("nofield.json: missing key 'field'")
    # a cochain payload over another field than its algebra's
    H = heis()
    cochain = save(graded_cochain_basis(H, trivial_module(H), 2)[0])
    cochain["field"] = "Fp:5"
    with pytest.raises(PayloadError, match="^cochain field mismatch$"):
        load(cochain)


def test_a_triple_tensor_of_another_size_than_dim_is_invalid_input(capsys, tmp_path):
    payload = save(odd2())
    payload["dims"]["dim"] = 3
    # checked, and read for check-lts, which runs the axiom check itself
    for trusted in (False, True):
        with pytest.raises(PayloadError, match="^tensor size disagrees with dim$"):
            load(payload, _trusted=trusted)
    for command in ("check-lts", "derive"):
        line = _refused_by_main(capsys, tmp_path, {"size": payload}, command)
        assert line.endswith("size.json: tensor size disagrees with dim")


def test_a_graded_hom_payload_without_its_source_is_invalid_input(capsys, tmp_path):
    payload = save(identity_hom(heis()))
    del payload["source"]
    with pytest.raises(PayloadError, match="^malformed graded_hom payload: 'source'$"):
        load(payload)
    line = _refused_by_main(capsys, tmp_path, {"nosource": payload}, "split")
    assert line.endswith("nosource.json: malformed graded_hom payload: 'source'")


def test_save_refuses_a_value_it_cannot_serialize():
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        save(object())
    with pytest.raises(TypeError, match="^cannot serialize Subspace$"):
        save(Subspace.span(QQ, 1, []))


# ---------------------------------------------------------------------------
# homs and modules

# every place a hom matrix enters, with the dimension of its square matrices
HOM_ENTRIES = {
    "LtsHom": (2, lambda m: LtsHom(odd2(), odd2(), m)),
    "LtsHom(_trusted=True)": (2, lambda m: LtsHom(odd2(), odd2(), m, _trusted=True)),
    "GradedHom": (3, lambda m: GradedHom(heis(), heis(), m)),
    "GradedHom(_trusted=True)": (3, lambda m: GradedHom(heis(), heis(), m, _trusted=True)),
    "is_lts_hom": (2, lambda m: is_lts_hom(m, odd2(), odd2())),
    "is_graded_hom": (3, lambda m: is_graded_hom(m, heis(), heis())),
    "extend_hom": (2, lambda m: extend_hom(odd2(), sl2graded(), m)),
}


@pytest.mark.parametrize("entry", HOM_ENTRIES)
def test_a_hom_matrix_is_checked_for_shape_then_field(entry):
    n, enter = HOM_ENTRIES[entry]
    # wrong in both: the shape is named
    with pytest.raises(ValueError, match="^hom matrix shape mismatch$"):
        enter(Matrix.identity(F5, n + 1))
    with pytest.raises(ValueError, match="^hom field mismatch$"):
        enter(Matrix.identity(F5, n))


@pytest.mark.parametrize("entry", HOM_ENTRIES)
def test_a_hom_matrix_that_is_not_a_matrix_is_refused(entry):
    n, enter = HOM_ENTRIES[entry]
    # the dense rows of the identity's first row, n times: refused before its shape is read
    with pytest.raises(ValueError, match=r"^expected a Matrix, found list \[\[1, 0"):
        enter([[1] + [0] * (n - 1)] * n)
    with pytest.raises(ValueError, match="^expected a Matrix, found Nonzeros"):
        enter(Matrix.identity(QQ, n).terms)


def test_lts_hom_checks_shape_field_and_composition(capsys, tmp_path):
    for trusted in (False, True):
        with pytest.raises(ValueError, match="^hom matrix shape mismatch$"):
            LtsHom(odd2(), sl2lts(), Matrix.identity(QQ, 2), _trusted=trusted)
        with pytest.raises(ValueError, match="^hom field mismatch$"):
            LtsHom(odd2(), odd2(), Matrix.identity(F5, 2), _trusted=trusted)
    with pytest.raises(ValueError, match="^composition mismatch$"):
        identity_lts_hom(odd2()).compose(identity_lts_hom(sl2lts()))
    # from a file: dims that agree with the matrix but not with the systems, or
    # systems over another field than the hom's
    shape = save(identity_lts_hom(odd2()))
    shape["dims"] = {"source_dim": 1, "target_dim": 1}
    shape["entries"] = [["1"]]
    field = save(identity_lts_hom(odd2()))
    field["field"] = "Fp:5"
    for payload, message in ((shape, "hom matrix shape mismatch"), (field, "hom field mismatch")):
        line = _refused_by_main(capsys, tmp_path, {"hom": payload, "target": "sl2graded"}, "extend")
        assert line.endswith(f"hom.json: {message}")


def test_graded_hom_checks_field_and_composition(capsys, tmp_path):
    with pytest.raises(ValueError, match="^hom field mismatch$"):
        GradedHom(heis(), heis(), Matrix.identity(F5, 3))
    with pytest.raises(ValueError, match="^composition mismatch$"):
        identity_hom(heis()).compose(identity_hom(ab2()))
    payload = save(identity_hom(heis()))
    payload["field"] = "Fp:5"
    line = _refused_by_main(capsys, tmp_path, {"hom": payload}, "split")
    assert line.endswith("hom.json: hom field mismatch")


def test_a_module_needs_one_square_action_per_basis_vector(capsys, tmp_path):
    H = heis()
    with pytest.raises(ValueError, match="^action shape mismatch$"):
        GradedModule(H, 1, 0, (Matrix.identity(QQ, 2),) * 3)
    with pytest.raises(ValueError, match="^action shape mismatch$"):
        GradedModule(H, 1, 0, Nonzeros((((),),) * 2))
    for trusted in (False, True):
        with pytest.raises(ValueError, match="^action field mismatch$"):
            GradedModule(H, 1, 0, (Matrix(F5, 1, 1, ((0,) * 1,) * 1),) * 3, _trusted=trusted)
    payload = save(trivial_module(H))
    payload["entries"] = payload["entries"][:-1]
    # a zero action, and sl2graded's adjoint action, over another field than the algebra's
    zero = save(trivial_module(H))
    adjoint = save(adjoint_module(sl2graded()))
    zero["field"] = adjoint["field"] = "Fp:5"
    for L, module, message in (("heis", payload, "action shape mismatch"),
                               ("heis", zero, "action field mismatch"),
                               ("sl2graded", adjoint, "action field mismatch")):
        line = _refused_by_main(capsys, tmp_path, {"L": L, "module": module}, "h2")
        assert line.endswith(f"module.json: {message}")


def test_a_module_action_that_is_not_a_matrix_is_refused():
    # dense action matrices are refused before their shape is read, trusted too
    H, one = heis(), Matrix.identity(QQ, 1)
    for trusted in (False, True):
        for action in ([[[0]]] * 3, (one, one, [[0]])):
            with pytest.raises(ValueError, match="^expected a Matrix for each action$"):
                GradedModule(H, 1, 0, action, _trusted=trusted)


# ---------------------------------------------------------------------------
# constructions on graded algebras

def test_direct_sum_needs_one_field():
    with pytest.raises(ValueError, match="^field mismatch$"):
        direct_sum(heis(), heis(F5))


@pytest.mark.parametrize("args", [([[[0]]],), ([[[0]]], None)], ids=["tensor", "tensor-None"])
def test_lts_of_lie_needs_the_field_of_a_tensor(args):
    # refused in one line, as at every other dense entry point, before a field is read off it
    with pytest.raises(ValueError) as info:
        lts_of_lie(*args)
    assert type(info.value) is ValueError and str(info.value) == (
        "expected a GradedLieAlgebra or a tensor and its field, found list [[[0]]]")


def test_central_quotient_needs_a_central_even_ideal():
    H = heis()
    with pytest.raises(ValueError, match="^ideal ambient mismatch$"):
        central_quotient(H, Subspace.span(QQ, 2, []))
    with pytest.raises(ValueError, match="^ideal field mismatch$"):
        central_quotient(heis(F5), Subspace.span(QQ, 3, [unit_vec(QQ, 3, 0)]))
    with pytest.raises(ValueError, match="^ideal is not contained in the even part$"):
        central_quotient(H, Subspace.span(QQ, 3, [unit_vec(QQ, 3, 1)]))
    with pytest.raises(ValueError, match="^ideal is not central$"):
        central_quotient(sl2graded(), Subspace.span(QQ, 3, [unit_vec(QQ, 3, 0)]))


# ---------------------------------------------------------------------------
# central extensions

def test_cocycle_extension_checks_its_cochain_and_its_coefficients():
    H = heis()
    M = trivial_module(H)
    with pytest.raises(ValueError, match=r"^sigma must be a degree-2 cochain on \(L, M\)$"):
        cocycle_extension(H, M, graded_cochain_basis(H, M, 1)[0])
    with pytest.raises(ValueError, match=r"^sigma must be a degree-2 cochain on \(L, M\)$"):
        cocycle_extension(H, trivial_module(H, 2), graded_cochain_basis(H, M, 2)[0])
    adjoint = adjoint_module(H)
    sigma = Cochain(H, adjoint, 2, Nonzeros(((),) * 3))
    with pytest.raises(ValueError, match="^coefficients must form a trivial module with no odd part$"):
        cocycle_extension(H, adjoint, sigma)


def test_split_refuses_a_problem_whose_hom_is_not_onto():
    H = heis()
    phi = GradedHom(H, H, Matrix(QQ, 3, 3, ((0,) * 3,) * 3), _trusted=True)
    prob = CentralExtensionProblem(phi, Subspace.span(QQ, 3, Matrix.identity(QQ, 3).entries))
    with pytest.raises(NotCentral0Extension, match="^the hom is not surjective$"):
        split_central_0_extension(prob)


# ---------------------------------------------------------------------------
# exactlin

def test_inverse_of_a_singular_matrix_is_none():
    assert inverse(Matrix.make(QQ, [[1, 2], [2, 4]])) is None
    assert inverse(Matrix.make(F5, [[1, 2], [3, 1]])) is None  # determinant -5
    assert inverse(Matrix.make(QQ, [[1, 2], [3, 1]])) == Matrix.make(
        QQ, [[Fraction(-1, 5), Fraction(2, 5)], [Fraction(3, 5), Fraction(-1, 5)]])


def test_inverse_needs_a_square_matrix():
    with pytest.raises(ValueError, match="^inverse needs a square matrix$"):
        inverse(Matrix.make(QQ, [[1, 2, 3], [4, 5, 6]]))


def test_an_empty_matrix_needs_its_column_count():
    with pytest.raises(ValueError, match="^empty matrix needs an explicit column count$"):
        Matrix.make(QQ, [])
    empty = Matrix.make(QQ, [], cols=3)
    assert (empty.rows, empty.cols) == (0, 3)


def test_a_right_hand_side_outside_the_column_space_has_no_solution():
    plane = Matrix.from_cols(QQ, [(1, 0, 1), (0, 1, 1)])
    assert solve(plane, (1, 1, 2)) == (1, 1)
    assert solve(plane, (0, 0, 1)) is None


def test_matmul_hstack_and_quotient_name_their_mismatch():
    with pytest.raises(ValueError, match="^field mismatch$"):
        Matrix.identity(QQ, 2).matmul(Matrix.identity(F5, 2))
    with pytest.raises(ValueError, match="^matmul: 2 vs 3$"):
        Matrix.identity(QQ, 2).matmul(Matrix.identity(QQ, 3))
    with pytest.raises(ValueError, match="^hstack shape/field mismatch$"):
        Matrix.identity(QQ, 2).hstack(Matrix.identity(QQ, 3))
    with pytest.raises(ValueError, match="^hstack shape/field mismatch$"):
        Matrix.identity(QQ, 2).hstack(Matrix.identity(F5, 2))
    with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
        quotient(3, Subspace.span(QQ, 2, []))

import copy
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lietrip.cli
import lietrip.cohom
import lietrip.embed
import lietrip.lts
from lietrip.cli import build_parser, main
from lietrip.cohom import (
    Cochain, coboundary, cocycle_extension, graded_cochain_basis, h2_graded,
)
import oracles
from extra_algebras import sl2_double_swap
from lietrip.corpus import (
    MAX_ABL_DIM, ab2, abl, builder, even_line, heis, odd2, sl2graded, sl2lts,
)
from lietrip.embed import universal_imbedding
from lietrip.exactlin import Field, Matrix, QQ, Subspace
from lietrip.grlie import (
    GradedHom, GradedLieAlgebra, adjoint_module, central_quotient, direct_sum, identity_hom,
    is_generated_by_odd, trivial_module,
)
from lietrip.lts import LieTripleSystem, LtsHom, derivation_algebra, identity_lts_hom, lie_triple_system
from lietrip.serialize import PayloadError, load, save


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


# ---------------------------------------------------------------------------
# serialization

def test_roundtrip_corpus_entries():
    names = ["abl(1)", "abl(2)", "abl(3)", "abl(4)", "odd2", "sl2lts",
             "heis", "ab2", "sl2graded", "a_of(abl(2))", "a_of(odd2)"]
    for name in names:
        obj = builder(name)(QQ)
        assert load(save(obj, name=name)) == obj


def test_roundtrip_other_kinds():
    hom = LtsHom(odd2(), sl2lts(), Matrix.make(QQ, [[0, 0], [1, 0], [0, 1]]))
    assert load(save(hom)) == hom

    env = universal_imbedding(odd2())
    assert load(save(env.upsilon)) == env.upsilon

    assert load(save(adjoint_module(sl2graded()))) == adjoint_module(sl2graded())
    assert load(save(trivial_module(heis(), 2))) == trivial_module(heis(), 2)

    rep = h2_graded(ab2(), trivial_module(ab2())).representatives[0]
    assert load(save(rep)) == rep


def test_roundtrip_over_prime_field():
    from lietrip.exactlin import Field
    obj = sl2lts(Field(5))
    payload = save(obj)
    assert payload["field"] == "Fp:5"
    assert load(payload) == obj


def test_loader_rejects_invalid_but_for_the_checkers():
    # only check-lts and check-graded read a system or an algebra without its axiom check
    broken = LieTripleSystem(QQ, 1, ((((QQ.of(1),),),),), _trusted=True)
    payload = save(broken)
    with pytest.raises(ValueError):
        load(payload)
    assert load(payload, _trusted=True) == broken


def test_loader_rejects_malformed():
    with pytest.raises(PayloadError):
        load({"kind": "lts"})
    with pytest.raises(PayloadError):
        load({"format_version": 99, "kind": "lts", "field": "Q",
              "dims": {"dim": 0}, "entries": []})
    with pytest.raises(PayloadError):
        load({"format_version": 1, "kind": "nope", "field": "Q",
              "dims": {}, "entries": []})
    # a string or an object in place of an array is refused, not iterated,
    # even where every character or key would read as a scalar
    for payload in _not_arrays():
        with pytest.raises(PayloadError, match="expected an array"):
            load(payload, _trusted=True)


def test_malformed_cochain_payloads_keep_their_messages():
    H = heis()
    payload = save(graded_cochain_basis(H, trivial_module(H, 2), 2)[0])
    entries = payload["entries"]
    cases = [({**payload, "entries": entries[:-1]},
              "value count does not match the combination count"),
             ({**payload, "entries": [entries[0][:-1], *entries[1:]]},
              "value length does not match the module dimension"),
             ({**payload, "dims": {"degree": 4}}, "supported cochain degrees are 1, 2, 3")]
    for bad, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            load(bad)


def test_matrix_payloads_name_their_counts():
    """Every 3 x 3 matrix of an lts_hom, a graded_hom and a module payload (one per action):
    a row of another length is named with both column counts, before a wrong row count."""
    def short_first(m):
        m.pop()
        m[0].pop()

    edits = [(lambda m: [row.pop() for row in m], "expected 3 columns, found 2"),
             (lambda m: m[-1].append("0"), "expected 3 columns, found 4"),
             (lambda m: m.pop(), "expected 3 rows, found 2"),
             (short_first, "expected 3 columns, found 2")]
    for payload, key in ((save(identity_lts_hom(abl(3))), "source_dim"),
                         (save(identity_hom(heis())), "source_dim0"),
                         (save(adjoint_module(sl2graded())), None)):
        for edit, message in edits:
            bad = copy.deepcopy(payload)
            for matrix in bad["entries"] if key is None else [bad["entries"]]:
                edit(matrix)
            assert _refused(bad) == message
        if key is not None:
            bad = copy.deepcopy(payload)
            bad["dims"][key] -= 1
            assert _refused(bad) == "expected 2 columns, found 3"


# Every value in a scalar position that load refuses, with the exact message,
# over Q and over F_5
BAD_SCALARS = {
    "Q": [
        ([1], "bad scalar [1]: cannot coerce [1] into Q"),
        ({"a": 1}, "bad scalar {'a': 1}: cannot coerce {'a': 1} into Q"),
        (True, "bad scalar True: cannot coerce the boolean True into Q"),
        (False, "bad scalar False: cannot coerce the boolean False into Q"),
        (1.0, "bad scalar 1.0: cannot coerce 1.0 into Q"),
        (None, "bad scalar None: cannot coerce None into Q"),
        (" 1", "bad scalar ' 1': malformed scalar ' 1' (expected n or n/d)"),
        ("0.5e0", "bad scalar '0.5e0': malformed scalar '0.5e0' (expected n or n/d)"),
        ("1/0", "bad scalar '1/0': Fraction(1, 0)"),
    ],
    "Fp:5": [
        ([1], "bad scalar [1]: cannot coerce [1] into F_5"),
        ({"a": 1}, "bad scalar {'a': 1}: cannot coerce {'a': 1} into F_5"),
        (True, "bad scalar True: cannot coerce the boolean True into Fp:5"),
        (False, "bad scalar False: cannot coerce the boolean False into Fp:5"),
        (1.0, "bad scalar 1.0: cannot coerce 1.0 into F_5"),
        (None, "bad scalar None: cannot coerce None into F_5"),
        (" 1", "bad scalar ' 1': malformed scalar ' 1' (expected n or n/d)"),
        ("0.5e0", "bad scalar '0.5e0': malformed scalar '0.5e0' (expected n or n/d)"),
        ("1/0", "bad scalar '1/0': Fraction(1, 0)"),
        ("1/5", "bad scalar '1/5': denominator of 1/5 vanishes mod 5"),
    ],
}


def _scalar_payloads(F):
    """(kind, payload, paths of its first and last vector of scalars) for each
    kind of payload whose own entries are scalars."""
    H = heis(F)
    return [("lts", save(sl2lts(F)), [0, 0, 0], [-1, -1, -1]),
            ("graded_lie", save(H), [0, 0], [-1, -1]),
            ("graded_hom", save(identity_hom(H)), [0], [-1]),
            ("module", save(adjoint_module(sl2graded(F))), [0, 0], [-1, -1]),
            ("cochain", save(Cochain(H, trivial_module(H, 2), 2, ((0, 0),) * 3)), [0], [-1])]


def _vector(payload, path):
    node = payload["entries"]
    for k in path:
        node = node[k]
    return node


def _refused(payload):
    """load's message for payload, the same checked and as check-lts and check-graded read it."""
    messages = set()
    for trusted in (False, True):
        with pytest.raises(PayloadError) as info:
            load(payload, _trusted=trusted)
        messages.add(str(info.value))
    assert len(messages) == 1
    return messages.pop()


@pytest.mark.parametrize("tag", sorted(BAD_SCALARS))
def test_bad_scalars_keep_their_messages(tag):
    F = Field.from_tag(tag)
    for kind, payload, first, last in _scalar_payloads(F):
        for bad, message in BAD_SCALARS[tag]:
            # alone, in the last vector
            alone = copy.deepcopy(payload)
            _vector(alone, last)[-1] = bad
            assert (kind, _refused(alone)) == (kind, message)
            # after the ints 1 and 0, which True, False and 1.0 equal
            after_ints = copy.deepcopy(alone)
            _vector(after_ints, first)[:2] = [1, 0]
            assert (kind, _refused(after_ints)) == (kind, message)
            # after another bad scalar earlier in the document, which is named
            second = copy.deepcopy(alone)
            _vector(second, first)[0] = "1.5"
            assert (kind, _refused(second)) == (
                kind, "bad scalar '1.5': malformed scalar '1.5' (expected n or n/d)")
            # after a vector one entry short: every scalar is read before any shape is judged
            misfit = copy.deepcopy(alone)
            _vector(misfit, first).pop()
            assert (kind, _refused(misfit)) == (kind, message)


def _not_arrays():
    """Payloads with a string or an object where an array belongs: the
    tensor itself, one vector of it, one row of a hom's matrix, an action."""
    lts = {"format_version": 1, "kind": "lts", "field": "Q", "dims": {"dim": 1}}
    hom = save(identity_lts_hom(abl(3)))
    hom["entries"][0] = "100"
    module = save(trivial_module(heis()))
    module["entries"] = {"0": module["entries"][0]}
    return [{**lts, "entries": "0"}, {**lts, "entries": [[[{"0": 1}]]]},
            {**lts, "entries": {"a": 1}}, hom, module]


# ---------------------------------------------------------------------------
# CLI commands

def test_cli_corpus_and_field(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "corpus", "heis")
    assert code == 0
    assert load(report["derived"]["heis"]) == heis()

    code, report, _ = run_cli(capsys, "corpus", "a_of(abl(2))")
    assert code == 0
    assert load(report["derived"]["a_of(abl(2))"]).bracket == heis().bracket

    code, report, _ = run_cli(capsys, "corpus", "odd2", "--field", "Fp:3")
    assert code == 0
    assert report["field"] == "Fp:3"

    code, _, err = run_cli(capsys, "corpus", "nosuch")
    assert code == 2 and "nosuch" in err


def test_cli_rejects_non_prime_field(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "heis", "--field", "Fp:4"])
    assert exc.value.code == 2


def test_cli_check_lts(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "check-lts", "abl(3)")
    assert code == 0 and report["verdict"] == "pass"

    broken = LieTripleSystem(QQ, 1, ((((QQ.of(1),),),),), _trusted=True)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(save(broken)))
    code, report, _ = run_cli(capsys, "check-lts", str(path))
    assert code == 1 and report["verdict"] == "fail"
    assert report["witnesses"]["violations"]["count"] >= 1


def test_cli_check_graded_and_univ_pipe(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "univ", "sl2lts")
    assert code == 0
    assert report["dimensions"] == {"dim0": 3, "dim1": 3, "kernel_dim": 0}
    alg_path = tmp_path / "a_of_sl2lts.json"
    alg_path.write_text(json.dumps(report["derived"]["algebra"]))
    code2, report2, _ = run_cli(capsys, "check-graded", str(alg_path))
    assert code2 == 0 and report2["verdict"] == "pass"


def test_cli_derive_inder_ste(capsys):
    code, report, _ = run_cli(capsys, "derive", "odd2")
    assert code == 0 and report["dimensions"]["dim"] == 1
    for name, T in (("odd2", odd2()), ("sl2lts", sl2lts(Field(5)))):
        _, report, _ = run_cli(capsys, "derive", name, "--field", T.field.tag)
        assert report["derived"]["bracket_table"] == save(derivation_algebra(T).algebra)["entries"]

    code, report, _ = run_cli(capsys, "inder", "sl2lts")
    assert code == 0 and report["dimensions"]["dim"] == 3
    assert report["witnesses"]["ideal_closure"] is True

    code, report, _ = run_cli(capsys, "ste", "odd2")
    assert code == 0 and report["dimensions"] == {"dim0": 1, "dim1": 2}
    assert load(report["derived"]["algebra"]) is not None


def test_cli_extend(capsys, tmp_path):
    hom = LtsHom(odd2(), odd2(), Matrix.identity(QQ, 2))
    hom_path = tmp_path / "hom.json"
    hom_path.write_text(json.dumps(save(hom)))
    code, report, _ = run_cli(capsys, "extend", str(hom_path), "sl2graded")
    assert code == 0
    ext = load(report["derived"]["extension"])
    assert isinstance(ext, GradedHom)
    assert oracles.is_invertible(ext.matrix.entries, ext.matrix.cols)

    # a hom whose target is not the odd part of the algebra is invalid input
    bad = LtsHom(abl(2), abl(2), Matrix.identity(QQ, 2))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(save(bad)))
    code, _, err = run_cli(capsys, "extend", str(bad_path), "sl2graded")
    assert code == 2 and "odd part" in err


def test_cli_h2_closed(capsys):
    code, report, _ = run_cli(capsys, "h2", "heis")
    assert code == 0 and report["dimensions"]["h2"] == 0

    code, report, _ = run_cli(capsys, "h2", "ab2")
    assert code == 0 and report["dimensions"]["h2"] == 1
    assert len(report["derived"]["representatives"]) == 1

    assert run_cli(capsys, "closed", "heis")[0] == 0
    code, report, _ = run_cli(capsys, "closed", "ab2")
    assert code == 1 and report["verdict"] == "false"


def test_cli_split(capsys, tmp_path):
    proj = GradedHom(heis(), ab2(), Matrix.make(QQ, [[0, 1, 0], [0, 0, 1]]))
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(save(proj)))
    code, report, _ = run_cli(capsys, "split", str(path))
    assert code == 1 and report["verdict"] == "false"
    assert report["witnesses"]["h2_dim"] == 1

    from lietrip.grlie import identity_hom
    iso_path = tmp_path / "iso.json"
    iso_path.write_text(json.dumps(save(identity_hom(heis()))))
    code, report, _ = run_cli(capsys, "split", str(iso_path))
    assert code == 0 and report["verdict"] == "true"
    psi = load(report["derived"]["splitting"])
    assert psi.matrix == Matrix.identity(QQ, 3)


def _failing_splits(F):
    """Projections that do not split: A(abl(3)) onto its quotients by two seeded central lines
    and two seeded central planes, all of them generated by their odd part, and a cocycle
    extension of ab2 + an even line, which its odd part does not generate, by a representative
    of its nonzero H^2."""
    rng = random.Random(F.p or 0)
    A = universal_imbedding(abl(3, F)).algebra
    homs = []
    for k in (1, 1, 2, 2):
        Z = Subspace.span(F, A.dim, [])
        while Z.dim < k:
            Z = Subspace.span(F, A.dim, [[rng.randint(-2, 2) for _ in range(A.dim0)]
                                         + [0] * A.dim1 for _ in range(k)])
        homs.append(central_quotient(A, Z)[1])
    L = direct_sum(ab2(F), even_line(F))
    M = trivial_module(L)
    homs.append(cocycle_extension(L, M, h2_graded(L, M).representatives[0]).phi)
    return homs


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3), Field(5)], ids=str)
def test_a_failing_split_reads_its_h2_from_the_envelope_criterion(capsys, monkeypatch, tmp_path,
                                                                 field):
    """The obstruction's h2_dim is k x dim H^2 of the target, with H^2 from the oracle's own d1
    and d2; d2 is eliminated, once and through the criterion, only when the odd part does not
    generate the target."""
    calls = []

    def spy(L, M):
        calls.append(L)
        return h2_graded(L, M)

    monkeypatch.setattr(lietrip.cohom, "h2_graded", spy)
    path = tmp_path / "proj.json"
    generated = set()
    for phi in _failing_splits(field):
        L = phi.target
        path.write_text(json.dumps(save(phi)))
        calls.clear()
        code, report, _ = run_cli(capsys, "split", str(path))
        raw = (L.dim0, L.dim1, {(i, j, l): x for i, row in enumerate(L.bracket)
                                for j, v in enumerate(row) for l, x in enumerate(v) if x})
        k = report["dimensions"]["kernel_dim"]
        assert code == 1 and k > 0
        assert report["witnesses"]["h2_dim"] == k * oracles.h2_graded_dims(raw, field.p)[0] > 0
        gen = is_generated_by_odd(L)
        assert calls == ([] if gen else [L])
        generated.add(gen)
    assert generated == {True, False}


def test_cli_thm_a(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "thm-a", "heis")
    assert code == 0 and report["verdict"] == "true"
    assert report["witnesses"]["isomorphism"]

    code, report, _ = run_cli(capsys, "thm-a", "ab2")
    assert code == 1 and report["verdict"] == "false"
    assert "dimension 1" in report["witnesses"]["obstruction"]

    notgen = direct_sum(sl2graded(), even_line())
    path = tmp_path / "notgen.json"
    path.write_text(json.dumps(save(notgen)))
    code, report, _ = run_cli(capsys, "thm-a", str(path))
    assert code == 1
    assert "does not generate" in report["witnesses"]["obstruction"]


def test_cli_u0ext(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "u0ext", "ab2")
    assert code == 0
    assert report["dimensions"]["kernel_dim"] == 1

    notgen = direct_sum(sl2graded(), even_line())
    path = tmp_path / "notgen.json"
    path.write_text(json.dumps(save(notgen)))
    code, _, err = run_cli(capsys, "u0ext", str(path))
    assert code == 2 and "generated" in err


@pytest.mark.parametrize("name, code", [("heis", 0), ("sl2graded", 0), ("a_of(sl2lts)", 0),
                                        ("ab2", 1)])
def test_a_universal_central_0_extension_splits_exactly_when_h2_is_0(capsys, monkeypatch,
                                                                     tmp_path, name, code):
    """The paper's theorem on the command line: u0ext's hom A(L_1) -> L is the first central
    0-extension of L, and split takes it as written, so split exits 0 exactly when H^2 = 0,
    and 1 for ab2, with its one-dimensional H^2 as the witness."""
    monkeypatch.chdir(tmp_path)
    assert main(["u0ext", name, "--out", "u0ext.json"]) == 0
    report = json.loads((tmp_path / "u0ext.json").read_text())
    (tmp_path / "hom.json").write_text(json.dumps(report["derived"]["upsilon_hat"]))
    assert main(["split", "hom.json", "--out", "split.json"]) == code
    report = json.loads((tmp_path / "split.json").read_text())
    assert report["witnesses"].get("h2_dim") == (1 if code else None)


def test_cli_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "check-lts", str(path))
    assert code == 2 and "junk.json" in err

    path2 = tmp_path / "wrongkind.json"
    path2.write_text(json.dumps(save(heis())))
    code, _, err = run_cli(capsys, "check-lts", str(path2))
    assert code == 2 and "expected" in err

    for k, payload in enumerate(_not_arrays()):
        path3 = tmp_path / f"notarray{k}.json"
        path3.write_text(json.dumps(payload))
        argv = {"lts": ["check-lts", str(path3)], "lts_hom": ["extend", str(path3), "a_of(abl(3))"],
                "module": ["h2", "heis", str(path3)]}[payload["kind"]]
        line = _one_error_line(capsys, argv, 2, "error: ")
        assert "expected an array" in line


def _one_error_line(capsys, argv, code, prefix):
    """Run argv; it must exit with code and print exactly one stderr line."""
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), out.err
    return lines[0]


@pytest.mark.parametrize("field, scalar", [("Q", "1/0"), ("Fp:5", "1/5")])
def test_cli_zero_denominator_is_invalid_input(capsys, tmp_path, field, scalar):
    payload = save(heis())
    payload["field"] = field
    payload["entries"][1][2][0] = scalar
    with pytest.raises(PayloadError):
        load(payload)
    path = tmp_path / "zeroden.json"
    path.write_text(json.dumps(payload))
    _one_error_line(capsys, ["thm-a", str(path)], 2, "error: ")


@pytest.mark.parametrize("scalar", [True, False, "0.5e0", " 3 ", "1_0", "+1", 1.0])
def test_cli_malformed_scalar_is_invalid_input(capsys, tmp_path, scalar):
    # [e_0, e_0] = 0 in heis: a nonzero reading there would fail the check
    payload = save(heis())
    payload["entries"][0][0][0] = scalar
    with pytest.raises(PayloadError):
        load(payload, _trusted=True)
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(payload))
    _one_error_line(capsys, ["check-graded", str(path)], 2, "error: ")


@pytest.mark.parametrize("command, name, n", [
    ("corpus", "abl(-1)", -1), ("univ", "abl(-1)", -1),
    ("univ", f"abl({MAX_ABL_DIM + 1})", MAX_ABL_DIM + 1),
    ("thm-a", f"a_of(abl({MAX_ABL_DIM + 1}))", MAX_ABL_DIM + 1)])
def test_abl_dimension_out_of_range_is_invalid_input(capsys, command, name, n):
    # refused from the name alone, before any tensor is built
    line = _one_error_line(capsys, [command, name], 2, "error: ")
    assert line == f"error: {name}: abl(n) needs 0 <= n <= {MAX_ABL_DIM}, got n = {n}"


def test_abl_dimension_ceiling_is_loadable():
    assert builder(f"abl({MAX_ABL_DIM})")(QQ).dim == MAX_ABL_DIM
    assert builder("abl(0)")(QQ).dim == 0


@pytest.mark.parametrize("dims", [{"dim0": -1, "dim1": 4}, {"dim0": True, "dim1": 2},
                                  {"dim0": "1", "dim1": 2}, {"dim0": 1.0, "dim1": 2},
                                  [1, 2]], ids=str)
def test_bad_dims_are_invalid_input(capsys, tmp_path, dims):
    payload = save(heis())
    payload["dims"] = dims
    for trusted in (False, True):
        with pytest.raises(PayloadError):
            load(payload, _trusted=trusted)
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(payload))
    for command in ("h2", "thm-a", "check-graded"):
        _one_error_line(capsys, [command, str(path)], 2, "error: ")


def _nested_kind_cases():
    """(name, payload, CLI argv tail or None, message) for payloads whose
    embedded object has the wrong kind."""
    hom = save(identity_lts_hom(odd2()))
    hom["source"] = save(identity_lts_hom(odd2()))
    ghom = save(identity_hom(heis()))
    ghom["source"] = save(odd2())
    module = save(trivial_module(heis()))
    module["algebra"] = save(odd2())
    cochain = save(h2_graded(ab2(), trivial_module(ab2())).representatives[0])
    cochain["module"] = save(ab2())
    return [
        ("lts_hom-source", hom, ["extend", "{}", "sl2graded"],
         "source must be a LieTripleSystem, found LtsHom"),
        ("graded_hom-source", ghom, ["split", "{}"],
         "source must be a GradedLieAlgebra, found LieTripleSystem"),
        ("module-algebra", module, ["h2", "heis", "{}"],
         "algebra must be a GradedLieAlgebra, found LieTripleSystem"),
        ("cochain-module", cochain, None, "module must be a GradedModule, found GradedLieAlgebra"),
    ]


@pytest.mark.parametrize("case", _nested_kind_cases(), ids=lambda case: case[0])
def test_nested_payload_of_the_wrong_kind_is_invalid_input(capsys, tmp_path, case):
    _, payload, argv, message = case
    with pytest.raises(PayloadError, match=message):
        load(payload)
    if argv is None:
        return
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(payload))
    argv = [str(path) if arg == "{}" else arg for arg in argv]
    line = _one_error_line(capsys, argv, 2, "error: ")
    assert line == f"error: {path}: {message}"


def test_graded_hom_dims_that_disagree_with_its_algebras_are_invalid_input(capsys, tmp_path):
    # a 2 x 3 matrix between two copies of heis: refused by its shape, before
    # split reads a rank off it
    payload = save(identity_hom(heis()))
    payload["dims"]["target_dim0"] = 0
    payload["entries"] = payload["entries"][1:]
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(payload))
    line = _one_error_line(capsys, ["split", str(path)], 2, "error: ")
    assert line == f"error: {path}: hom matrix shape mismatch"


def test_deeply_nested_json_is_invalid_input(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    # a chain of lts_hom payloads, each the source of the next: shallow
    # enough for the JSON decoder, too deep for the recursive loader
    payload = save(identity_lts_hom(abl(0)))
    for _ in range(700):
        payload = dict(payload, source=payload)
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(payload))
    for path in (deep, chain):
        for command in ("thm-a", "univ"):
            _one_error_line(capsys, [command, str(path)], 2,
                            f"error: {path}: maximum recursion depth exceeded")


def test_cli_internal_error_exit_code(capsys, monkeypatch):
    # every input is valid, so exit 3 is a library fault: here derivations whose
    # commutators seem to leave their span fail the self-check of derive
    monkeypatch.setattr(lietrip.lts, "_commutator_coordinates", lambda *args: None)
    line = _one_error_line(capsys, ["derive", "sl2lts"], 3, "internal error: ")
    assert line == "internal error: derive: derivations not closed under commutator"


def test_cli_split_self_check_is_an_internal_error(capsys, monkeypatch, tmp_path):
    # a valid hom, and a splitting whose every column is planted as zero
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(save(identity_hom(heis()))))
    monkeypatch.setattr(lietrip.cohom, "_combination", lambda *args: ())
    line = _one_error_line(capsys, ["split", str(path)], 3, "internal error: ")
    assert line == "internal error: split: splitting failed to section the extension"


# A fault of any type in the library, a bare ValueError included, is exit 3 with one line
# that names its type: never exit 2 (invalid input, a Refusal alone), exit 1 (a false
# verdict) or a traceback.  That holds also while
# a corpus name's object is built: the KeyError of a_of(odd2)'s envelope once read as an
# unknown name (exit 2), where univ odd2 exited 3.
@pytest.mark.parametrize("command, module, name, arg", [
    ("thm-a", "embed", "envelope_criterion", "heis"), ("h2", "cohom", "h2_graded", "heis"),
    ("thm-a", "embed", "universal_imbedding", "a_of(odd2)"),
    ("univ", "embed", "universal_imbedding", "odd2")],
    ids=["thm-a-embed-envelope_criterion", "h2-cohom-h2_graded",
         "thm-a-embed-universal_imbedding-a_of(odd2)", "univ-embed-universal_imbedding-odd2"])
@pytest.mark.parametrize("fault", [
    IndexError("list index out of range"), KeyError(7), ZeroDivisionError("division by zero"),
    AttributeError("'NoneType' object has no attribute 'dim'"),
    TypeError("'NoneType' object is not subscriptable"), ValueError("expected a 2 x 2 matrix")],
    ids=lambda fault: type(fault).__name__)
def test_cli_library_fault_of_any_type_is_an_internal_error(capsys, monkeypatch, command, module,
                                                            name, arg, fault):
    def faulty(*args, **kwargs):
        raise fault

    # the runners and the corpus import what they call when they run
    monkeypatch.setattr(getattr(lietrip, module), name, faulty)
    line = _one_error_line(capsys, [command, arg], 3, f"internal error: {command}: ")
    assert line == f"internal error: {command}: {type(fault).__name__}: {fault}"


def test_cli_h2_fault_on_a_bracket_that_breaks_the_grading_is_an_internal_error(capsys, monkeypatch):
    # an algebra built past validation with [e_0, e_2] = e_0 in dims (2, 1): h2_graded looks up
    # an ungraded slot, a KeyError that once read as invalid input (exit 2)
    bracket = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    bracket[0][2], bracket[2][0] = [1, 0, 0], [-1, 0, 0]
    stray = GradedLieAlgebra(QQ, 2, 1, bracket, _trusted=True)
    monkeypatch.setattr(lietrip.cohom, "h2_graded", lambda L, M: h2_graded(stray, trivial_module(stray)))
    line = _one_error_line(capsys, ["h2", "heis"], 3, "internal error: h2: ")
    assert line == "internal error: h2: KeyError: ((0, 2), 0)"


# One structure constant changed so that the input breaks an axiom: every command
# refuses the file as invalid input, where --unchecked once let it reach an answer
# or a self-check (exit 3), and the checker of its kind reports the violations.
@pytest.mark.parametrize("command, name, where, value", [
    ("ste", "odd2", [0, 0, 1, 0], "-1"),
    ("univ", "odd2", [0, 0, 1, 0], "-1"),
    ("thm-a", "heis", [2, 0, 0], "2"),
    ("u0ext", "heis", [2, 0, 0], "2"),
    ("u0ext", "sl2graded", [0, 1, 1], "1"),
    ("inder", "sl2lts", [0, 1, 0, 0], "3"),
    ("ste", "sl2lts", [0, 1, 0, 0], "3"),
])
def test_inputs_that_break_an_axiom_are_refused_or_reported(capsys, tmp_path, command, name,
                                                            where, value):
    payload = save(builder(name)(QQ))
    node = payload["entries"]
    for i in where[:-1]:
        node = node[i]
    node[where[-1]] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    line = _one_error_line(capsys, [command, str(path)], 2, "error: ")
    assert line.startswith(f"error: {path}: not a ")
    check = "check-lts" if payload["kind"] == "lts" else "check-graded"
    code, report, err = run_cli(capsys, check, str(path))
    assert (code, report["verdict"], err) == (1, "fail", f"{check}: fail\n")


def _ladder_payloads(field):
    """Every kind of payload save writes, for the ladder's objects."""
    systems = [abl(3, field), odd2(field), sl2lts(field),
               lie_triple_system(field, oracles.lts_of_bracket(oracles.gl_bracket(2)))]
    if field.p != 2:
        systems.append(lie_triple_system(field, oracles.grass_triple(2, 2)))
    algebras = [heis(field), ab2(field), sl2graded(field), sl2_double_swap(field)]
    out = systems + algebras
    for T in systems[:3]:
        env = universal_imbedding(T)
        out += [env.algebra, env.upsilon, adjoint_module(env.algebra)]
    out.append(LtsHom(abl(2, field), abl(2, field),
                      Matrix.make(field, [["-2/3", "1/7"], [0, "5"]])))
    out += list(h2_graded(ab2(field), trivial_module(ab2(field))).representatives)
    return out


@pytest.mark.parametrize("field", [QQ, Field(5), Field(2)], ids=str)
def test_every_saved_payload_loads(field):
    for obj in _ladder_payloads(field):
        payload = json.loads(json.dumps(save(obj)))
        assert load(payload) == obj


def test_cli_large_prime_field(capsys):
    code, report, _ = run_cli(capsys, "univ", "odd2", "--field", "Fp:1000000000000000003")
    assert code == 0 and report["field"] == "Fp:1000000000000000003"
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "heis", "--field", f"Fp:{10 ** 24 + 7}"])
    assert exc.value.code == 2


def _scaled_sl2graded(digits):
    """The payload of sl2graded in the basis scaled by 10^(digits - 1): each nonzero
    structure constant is 10^(digits - 1) times sl2graded's, digits digits long."""
    payload = save(sl2graded())
    scale = 10 ** (digits - 1)
    payload["entries"] = [[[str(int(x) * scale) for x in v] for v in row]
                          for row in payload["entries"]]
    return payload


def test_cli_reads_and_writes_scalars_of_any_size(capsys, tmp_path):
    """Constants of 4,200 digits give thm-a and u0ext report scalars over Python's default
    int/str digit limit (4,300 digits); main lifts the limit for its run and restores it, and
    so does a run in a fresh process."""
    path = tmp_path / "sl2graded_4200.json"
    path.write_text(json.dumps(_scaled_sl2graded(4200)))
    limit = getattr(sys, "get_int_max_str_digits", int)()
    for command in ("thm-a", "u0ext", "check-graded", "h2", "closed"):
        code, report, err = run_cli(capsys, command, str(path))
        assert (code, err) == (0, ""), (command, err)
        assert getattr(sys, "get_int_max_str_digits", int)() == limit
        if command == "thm-a":
            derived = report["derived"]["envelope_of_odd_part"]
            # python -m lietrip.cli lifts the limit too
            code, out, err = _fresh_cli(command, str(path))
            assert (code, err, json.loads(out)) == (0, "", report)
    assert max(len(x) for row in derived["entries"] for v in row for x in v) > 4300
    envelope = tmp_path / "envelope.json"
    envelope.write_text(json.dumps(derived))
    code, report, err = run_cli(capsys, "check-graded", str(envelope))
    assert (code, err, report["verdict"]) == (0, "", "pass")
    if limit:  # a library caller keeps the limit it set
        with pytest.raises(PayloadError, match="^bad scalar"):
            load(derived)


def _sl2graded_with_one_constant(tmp_path, digits, quoted):
    """sl2graded's payload with its constant 1 at [e_1, e_2]_0 made 10^(digits - 1), digits
    digits long, written as a JSON string or a JSON integer literal."""
    payload = save(sl2graded())
    assert payload["entries"][1][2][0] == "1"
    payload["entries"][1][2][0] = "BIG"
    literal = "1" + "0" * (digits - 1)
    path = tmp_path / f"sl2graded_{digits}.json"
    path.write_text(json.dumps(payload).replace('"BIG"', f'"{literal}"' if quoted else literal))
    return str(path)


@pytest.mark.parametrize("quoted", [True, False], ids=["string", "integer"])
def test_cli_refuses_a_scalar_over_the_digit_bound_at_once(capsys, tmp_path, quoted):
    """A scalar of 1,000,000 digits is refused before it is read, in one short line with exit 2,
    where check-graded read it for 9.6 s; one of 100,000 digits, the bound, is read, and the
    changed constant breaks antisymmetry."""
    start = time.perf_counter()
    line = _one_error_line(capsys, ["check-graded", _sl2graded_with_one_constant(
        tmp_path, 1_000_000, quoted)], 2, "error: ")
    assert time.perf_counter() - start < 1
    assert line.endswith(("bad scalar: 1,000,000 characters, over the limit of 100,000" if quoted
                          else "integer literal of 1,000,000 digits, over the limit of 100,000"))
    _one_error_line(capsys, ["check-graded", _sl2graded_with_one_constant(tmp_path, 100_001, quoted)],
                    2, "error: ")
    code, report, _ = run_cli(capsys, "check-graded", _sl2graded_with_one_constant(tmp_path, 100_000, quoted))
    assert (code, report["verdict"]) == (1, "fail")


def test_cli_refuses_a_field_tag_of_more_digits_than_the_ceiling_at_once(capsys, tmp_path):
    payload = save(sl2graded())
    payload["field"] = "Fp:" + "1" * 1_000_000
    path = tmp_path / "tag.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    line = _one_error_line(capsys, ["check-graded", str(path)], 2, "error: ")
    assert time.perf_counter() - start < 1
    assert line.endswith("modulus of 1,000,000 digits exceeds the supported ceiling 318665857834031151167460")
    payload["field"] = "Fp:" + "0" * 1_000 + "5"  # leading zeros are not digits of the modulus
    path.write_text(json.dumps(payload))
    code, report, _ = run_cli(capsys, "check-graded", str(path))
    assert (code, report["field"], report["verdict"]) == (0, "Fp:5", "pass")


def test_cli_validates_every_input_but_the_checkers(capsys, tmp_path):
    # [e_0, e_0, e_0] = e_0 breaks alternation: check-lts reports it, derive
    # refuses the file, and no option lets derive read it unchecked
    broken = LieTripleSystem(QQ, 1, ((((QQ.of(1),),),),), _trusted=True)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(save(broken)))
    code, report, _ = run_cli(capsys, "check-lts", str(path))
    assert (code, report["witnesses"]["violations"]["count"]) == (1, 3)
    line = _one_error_line(capsys, ["derive", str(path)], 2, "error: ")
    assert line == (f"error: {path}: not a Lie triple system: 3 violation(s), "
                    "first is alternating at basis tuple (0, 0, 0)")
    with pytest.raises(SystemExit) as exc:
        main(["derive", str(path), "--unchecked"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --unchecked" in capsys.readouterr().err


def test_the_readme_command_line_examples_run_as_written(capsys, monkeypatch, tmp_path):
    """Each line of the README's Examples block, run through main, exits 1 where its comment
    starts with "false", else 0."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", text, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    codes = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        want = 1 if comment.strip().startswith("false") else 0
        assert (program, main(argv)) == ("lietrip", want), line
        codes.append(want)
    assert codes == [0, 1, 0, 1, 0, 0, 0], codes


def test_cli_byte_stability(capsys):
    code1 = main(["thm-a", "heis"])
    out1 = capsys.readouterr().out
    code2 = main(["thm-a", "heis"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


# The exit code, SHA-256 of stdout and stderr of every command, fixed before
# the derivation system and then the command line were reworked: the reports
# must stay byte for byte what they were.  A name holds the command's
# arguments, split at spaces; each one ending in .json is a file that
# _golden_payloads writes into the working directory.
GOLDEN_REPORTS = {
    ('derive', 'abl(3)', 'Q'): (0, '9d4785188a5ff102c56e8fa346f20de62d983f696a0a004f64373fcc59ca04ab', ''),
    ('derive', 'odd2', 'Q'): (0, '6627572203d3c4bf22abb696827b55707ba24e7ad0a260ab570e2d4c17f0820c', ''),
    ('derive', 'sl2lts', 'Q'): (0, '2e3667186f6df4300f3cd5ce421d8426f27a62a9cacca22028037938a32aa9f7', ''),
    ('inder', 'abl(3)', 'Q'): (0, '7265932ea760564c7e626cc1dc320aa761aa7dad7a3c4e5372c02d7917627305', ''),
    ('inder', 'odd2', 'Q'): (0, 'd44d0403223b204dec3969b7ba708ea2830368a01705c81bca4294638cbe7a6c', ''),
    ('inder', 'sl2lts', 'Q'): (0, 'abfade8978386d9121917e7ed9f018744f76adf525371edd08a27c87dd421231', ''),
    ('univ', 'abl(3)', 'Q'): (0, '2d0342cc2251d37b5b581387ec4b0fe5ac256456b354bdea62929a584770358e', ''),
    ('univ', 'odd2', 'Q'): (0, 'c2f12822adeeb40ad1ba6a3b68ef5dc679f02c4101887ed59e7e43df635adbde', ''),
    ('univ', 'sl2lts', 'Q'): (0, '560f99bcebdb8e5cfc942f344d34a2dafcc2c4377d9906e8a926f75138556f3a', ''),
    ('thm-a', 'heis', 'Q'): (0, 'b1392316a9f00079d019b85074ee176159d48ce111fef396bab6b6320c42bd01', ''),
    ('thm-a', 'ab2', 'Q'): (1, '5ff2e5df5f34794bce93938aae48432b8e1b828ec8429b3c57a8383f93cc25c6', 'thm-a: false\n'),
    ('thm-a', 'sl2graded', 'Q'): (0, '5a118be0f49d3274a1a9e54c64e06f9e8ef9cdd05212f351311099d4f53c595f', ''),
    ('thm-a', 'a_of(sl2lts)', 'Q'): (0, 'f567f7e91407456e6d860e6fc41f555b7e5a9af48b88d2b5b3b8974e5f612ebf', ''),
    ('thm-a', 'a_of(abl(2))', 'Q'): (0, 'f1ec7b887bf9607fdb8aa30046b312ec40b4e7ad88bac61126996ee7e5babfa7', ''),
    ('derive', 'abl(3)', 'Fp:5'): (0, '743af464be298991bf2ee0a92e1ce50ec9248d9baac8347a46ce2cbab2995e5a', ''),
    ('derive', 'odd2', 'Fp:5'): (0, '18eb6899d4b468916e663b0cd0203525b3192d7fef173f9a8fd772fcb54d29f8', ''),
    ('derive', 'sl2lts', 'Fp:5'): (0, '9b731152b5ef02d97932a7fabecff1a7aac8c0783df2e29b3dad22bbc3f50fcd', ''),
    ('inder', 'abl(3)', 'Fp:5'): (0, 'fdd20c5c040490ebd0c2ee12bb956ffcaf0b4ac5c7df161d18e37cb3700c71b2', ''),
    ('inder', 'odd2', 'Fp:5'): (0, '0e68dbda73f1d3b6f8f39a78682eda16d90139262d2d1a49032290e9ee7dca9b', ''),
    ('inder', 'sl2lts', 'Fp:5'): (0, 'da2dde82afb2715161e5b244c85e82c294e87c4226192d634a4b3c487010a217', ''),
    ('univ', 'abl(3)', 'Fp:5'): (0, '8081d4fc07e0772972b0bfa7a1fa3a2c31bd929124fa17a999f2e8522732858d', ''),
    ('univ', 'odd2', 'Fp:5'): (0, 'dac8d499f9b5424565561078f44ff62d594f71626d99fcf7bdea0c94307dabeb', ''),
    ('univ', 'sl2lts', 'Fp:5'): (0, '742dc043e44048984526e62cdd818e2e92b3925c8017f1a62ad03f062fbcf60a', ''),
    ('thm-a', 'heis', 'Fp:5'): (0, '4203efb43f87f4331397f381747f2bce96743f3c62c3ac97f527143ecce3bc43', ''),
    ('thm-a', 'ab2', 'Fp:5'): (1, '109bde0b61d93ea01fe5847495d9122849a0b1e9ffda22b26c41d58c07f9cce4', 'thm-a: false\n'),
    ('thm-a', 'sl2graded', 'Fp:5'): (0, '574e0181e0a067542c5d7f8db28a7a92ac70803f61b6808058248722569b749b', ''),
    ('thm-a', 'a_of(sl2lts)', 'Fp:5'): (0, 'ad0e3889d38c2fcefe8e7cbfe6c9cae3371fa7bda9be0143010bbe0a620ece55', ''),
    ('thm-a', 'a_of(abl(2))', 'Fp:5'): (0, 'a69a28e8fcacb9221509fbe8a64a4c84d7e46ecaf87d9d92f7973078189b3263', ''),
    ('derive', 'abl(3)', 'Fp:2'): (0, 'd685a50c6f4eeb50a91bca4a7c238753196d599ba31701276f21bc401ef99113', ''),
    ('derive', 'odd2', 'Fp:2'): (0, '6fa5c910ed7ad92798ee2d3f8a80313e64f75410c96fbc2b4a9305fd10911a2b', ''),
    ('derive', 'sl2lts', 'Fp:2'): (0, '447a553837d9d1b85754d7a4aefdff65ffec31902d8260e87e93f11f3ae87ae4', ''),
    ('inder', 'abl(3)', 'Fp:2'): (0, 'f7b1d5929a7b36265da9b3fb49c42d71f7c691c7a8383802e751659c20d06a4f', ''),
    ('inder', 'odd2', 'Fp:2'): (0, 'dbdb1771d0804018e61aabc275e0c5d007036a1c22dbf747e68650c3320f6b68', ''),
    ('inder', 'sl2lts', 'Fp:2'): (0, '34e2ba3b3de6257e328b93a1e5b36276e34db56f195f9e937d1d43aa39e599f6', ''),
    ('univ', 'abl(3)', 'Fp:2'): (0, 'd79908a211c43204298f4a753125af7761202f920cc786f3e46e63aec35b7da6', ''),
    ('univ', 'odd2', 'Fp:2'): (0, '54e51b966ed42eaf34762b6679b68a1d99dc755cd02b9a4626cf50922a54798f', ''),
    ('univ', 'sl2lts', 'Fp:2'): (0, '25982f1627e4ebdd6dc65f69115a43b05c8bc724d8e43092dd3bde6b4fedc2b8', ''),
    ('thm-a', 'heis', 'Fp:2'): (0, '83f6e0085ea7dc1d1d47e281f6bc8fe3ddc644efcddde4e6d26eabe9437a1f8c', ''),
    ('thm-a', 'ab2', 'Fp:2'): (1, '3a35ee0e31e4f8edd1c0b17403c05858a0b3a0e153b9c22fe766d8a1d6ef0e78', 'thm-a: false\n'),
    ('thm-a', 'sl2graded', 'Fp:2'): (0, '367834cb7780d9d6eed3116265673e6d923a0996a95e652bbe70c48403887b72', ''),
    ('thm-a', 'a_of(sl2lts)', 'Fp:2'): (0, '2b2d9b8fb67f7c47ff8e621d7f67f466048a7353a931cda1f744f8cde63ee7cd', ''),
    ('thm-a', 'a_of(abl(2))', 'Fp:2'): (0, '26192872155f81aef680b7ea968b48a1fd03ca8c3dbd242e64b6439289719c2f', ''),
    ('corpus', 'heis', 'Q'): (0, 'e8683d3b5fa8f9beb157b466ce1493cc5e8b90ec7e766de9e89bcebda7a05090', ''),
    ('corpus', 'a_of(odd2)', 'Q'): (0, '4e2e587e078569d5189b257273cb1359876ed809382883656fc3c39ce7721927', ''),
    ('corpus', 'nosuch', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: nosuch: not a corpus name\n'),
    ('check-lts', 'sl2lts', 'Q'): (0, 'f003cde2181ab17064acb619a16eb4c3414a60b8f8525bd4b6b7f5abab8dc7fe', ''),
    ('check-lts', 'broken_lts.json', 'Q'): (1, '5f46e4b5bd153a72c40a81735b3ce2aebe73b4c2c19808dfba8baa6a2d59bc10', 'check-lts: fail\n'),
    ('check-lts', 'heis', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: expected a Lie triple system, found GradedLieAlgebra\n'),
    ('check-graded', 'sl2graded', 'Q'): (0, '4f9c57496f711f47ab1e6ca1600907fd53b8927d508c32c127c6a2be64344e40', ''),
    ('check-graded', 'broken_graded.json', 'Q'): (1, 'cd0437c9d7cf411cd19ed79f82d59d97ccff04146dc1aae88862d52ff08ba47a', 'check-graded: fail\n'),
    ('ste', 'odd2', 'Q'): (0, 'faa9ff8f46e4d68f6c9f7b6eac2004288d06043816d9cfc119929232e1bc44e7', ''),
    ('ste', 'sl2lts', 'Q'): (0, 'ea59b552eecd9e73884360f780700e9ee764f174e7a2343a0df67c6f97e42a0d', ''),
    ('extend', 'hom.json sl2graded', 'Q'): (0, 'c4312a3fa5144c5de55f33d2af9951915373fc727fbd8dc2f17725d9c1c0c671', ''),
    ('extend', 'bad_hom.json sl2graded', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: the hom's target is not the odd part of the target algebra\n"),
    ('h2', 'heis', 'Q'): (0, '8fb3b00888a374ed5ca5a2d76e12bf1f5ac7ba02a1a8c73ece4a701a1597a555', ''),
    ('h2', 'ab2', 'Q'): (0, '3d1aa34f8fcb055916d87bbe5938a93d054f8c3baa571598d6a42bc7934c3109', ''),
    ('h2', 'sl2graded adjoint.json', 'Q'): (0, 'ba11aceda1f015e3c34fc8290737f88c9bb4eb5c897e63aa808b893ffb65f89a', ''),
    ('h2', 'heis adjoint.json', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: module file is over a different algebra\n'),
    ('split', 'iso.json', 'Q'): (0, '7396fc78676efa160a40921433723be4831d07fed8c1d3d34d24a206c14d9607', ''),
    ('split', 'proj.json', 'Q'): (1, '6fb91d80c3c57b6ac0e0abbcf176bc669c30db056e551d2f81eba179e18a8693', 'split: false\n'),
    ('split', 'cobext.json', 'Q'): (0, '7d3109d558863aa9a81050823068244917e2fa15d0733548f53676fa073a836a', ''),
    ('split', 'cobext_line.json', 'Q'): (0, 'a6a5cd65d21ac20000bddf5f739401480acbbaf26946f0ea07cbc1af0b838892', ''),
    ('split', 'cobext2.json', 'Q'): (0, '14c58d9aaa883f8f3b726a17d216aa99d1ff6aecd419ef2bb7ee919e30c677c8', ''),
    ('split', 'cquot2.json', 'Q'): (1, '8589fe06d276319c6f4a1d7532a04e18bab29d78ddbe9cfcd721de8b0f065f4e', 'split: false\n'),
    ('split', 'notsurj.json', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: the hom is not surjective\n'),
    ('closed', 'heis', 'Q'): (0, 'b9c1f30ae13dac9dbc7d9822f0ae3b0b33c80b1a7d9b57a014c13522485a4107', ''),
    ('closed', 'ab2', 'Q'): (1, '861148ffe40b06bdb75147ca20baf365c867a8db05bc2f77866dcf77a7b1f7b8', 'closed: false\n'),
    ('u0ext', 'ab2', 'Q'): (0, '8ada3e44faa092128ff189fb82cc94a582493a894e3ecf486e0888fc22983863', ''),
    ('u0ext', 'heis', 'Q'): (0, '2fe8d49f34b2d128312f80ef9924dd0e068e7eed86d7c17193c21f8ac0d2dfc7', ''),
    ('u0ext', 'notgen.json', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: algebra is not generated by its odd part\n'),
    ('corpus', 'heis', 'Fp:5'): (0, '7dff48a4b685034904ba0adf9e37714f75c4edccacee043a8dee769110f1ba09', ''),
    ('corpus', 'a_of(odd2)', 'Fp:5'): (0, 'd3813f6eb6da3ef1b23e1ac6f468d35efc1bbb2bd9805bb4741721c5612df6fa', ''),
    ('corpus', 'nosuch', 'Fp:5'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: nosuch: not a corpus name\n'),
    ('check-lts', 'sl2lts', 'Fp:5'): (0, 'b6248fe41473c3597ab77ef4047adfae0c946408c1cbae93042da374e0e843d8', ''),
    ('check-lts', 'broken_lts.json', 'Fp:5'): (1, '479c8c5f1e7655aea13058f3c43112325281665cc4c66407de43b8132caa3e89', 'check-lts: fail\n'),
    ('check-lts', 'heis', 'Fp:5'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: expected a Lie triple system, found GradedLieAlgebra\n'),
    ('check-graded', 'sl2graded', 'Fp:5'): (0, '65d713af4bb06401d3ef8499f4033bba87afcb6392323efb4d1330409a6c2c3e', ''),
    ('check-graded', 'broken_graded.json', 'Fp:5'): (1, 'f6d82f7f7334ae78bb50c1677af5dcbad713c98d10221e6c87a4c52d2da3e514', 'check-graded: fail\n'),
    ('ste', 'odd2', 'Fp:5'): (0, '9abf85d8029eb4fd27866e6bf152e4879cc42067f8c75d90cb7556dc8d95709d', ''),
    ('ste', 'sl2lts', 'Fp:5'): (0, 'e628cf12655578aa1a89291ec22a550e7ac93938fb850522a65099ec04dab97a', ''),
    ('extend', 'hom.json sl2graded', 'Fp:5'): (0, 'bd1e184d10090d65f629208b2ed587bb0d2e05628b85660c9859105d8b95e5e3', ''),
    ('extend', 'bad_hom.json sl2graded', 'Fp:5'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: the hom's target is not the odd part of the target algebra\n"),
    ('h2', 'heis', 'Fp:5'): (0, '877e62b7474c29c96a25ecb14c3b26170708ebeb6cc61dff3c3ef70c07cc68dc', ''),
    ('h2', 'ab2', 'Fp:5'): (0, '2a17d13e65443d47ec97143a52aa1d169d3616cbf6b91ec2dbf0f7697eaa34b2', ''),
    ('h2', 'sl2graded adjoint.json', 'Fp:5'): (0, 'd20e1bea8b0b6eea3eadf07f9f9dfd5d8cd9fbe84ce238649913667accfe47a1', ''),
    ('h2', 'heis adjoint.json', 'Fp:5'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: module file is over a different algebra\n'),
    ('split', 'iso.json', 'Fp:5'): (0, 'e0c6cfa9bd91aeebe7d2f2944cf7a4c56496f46932319a4b876eb6c4e2ad2b7b', ''),
    ('split', 'proj.json', 'Fp:5'): (1, '5284b85f019f7292fb636f01d82d052ded9789b2d24c0657fabbb4f06e76cbc3', 'split: false\n'),
    ('split', 'cobext.json', 'Fp:5'): (0, '828df729b97c426a6fa9243b5aa982f7b80ab8202e40b294754e31038008ce6d', ''),
    ('split', 'cobext_line.json', 'Fp:5'): (0, '11c6d5754be25a7fc6ba16fbb40ef6d3568bb2b124242a0662c1e2541d4dd176', ''),
    ('split', 'cobext2.json', 'Fp:5'): (0, 'e01851644d099e4e91e8155bdd15b8fd87425eb7fecc689a0dd91f3f23eecbdb', ''),
    ('split', 'cquot2.json', 'Fp:5'): (1, 'e0b1024141c03b3335599019d3b9349ceadd8fad06f341e9d9d4ebf8394ab4ad', 'split: false\n'),
    ('split', 'notsurj.json', 'Fp:5'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: the hom is not surjective\n'),
    ('closed', 'heis', 'Fp:5'): (0, 'eae28b4a3cbbf555480b4fe93ebc8704ac658b73a7c7bcf4de326c38b50ce785', ''),
    ('closed', 'ab2', 'Fp:5'): (1, 'b51d1bcad33dd17855ecd3ce02036d7edccd1b212cf94b7f65fc376468cb3e36', 'closed: false\n'),
    ('u0ext', 'ab2', 'Fp:5'): (0, '684c47e0fa0d7aab2cdad46a61058d6fa58c912a94bdfd22980d427006ad7c24', ''),
    ('u0ext', 'heis', 'Fp:5'): (0, '7f327f7e52ca5cc103d6af8a3df23123c23907e4d92961cc146d466429714ebd', ''),
    ('u0ext', 'notgen.json', 'Fp:5'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: algebra is not generated by its odd part\n'),
}


def _golden_payloads(F):
    """File name -> the library object the golden file cases read, over F."""
    graded = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    graded[1][2][1], graded[2][1][1] = 1, -1  # [e1, e2] = e1 breaks the grading
    H, M = heis(F), trivial_module(heis(F))
    HL = direct_sum(H, even_line(F))
    ML = trivial_module(HL)
    M2 = trivial_module(H, 2)
    A = universal_imbedding(abl(3, F)).algebra
    return {
        "broken_lts.json": LieTripleSystem(F, 1, ((((F.one(),),),),), _trusted=True),
        "broken_graded.json": GradedLieAlgebra(F, 1, 2, graded, _trusted=True),
        "hom.json": identity_lts_hom(odd2(F)),
        "bad_hom.json": identity_lts_hom(abl(2, F)),
        "adjoint.json": adjoint_module(sl2graded(F)),
        "iso.json": identity_hom(heis(F)),
        "proj.json": GradedHom(heis(F), ab2(F), Matrix.make(F, [[0, 1, 0], [0, 0, 1]])),
        # split with a nontrivial kernel; the splitting of heis is unique, but on
        # the even line, outside [L, L], it is the section the split takes
        "cobext.json": cocycle_extension(H, M, coboundary(graded_cochain_basis(H, M, 1)[0])).phi,
        "cobext_line.json": cocycle_extension(HL, ML, coboundary(graded_cochain_basis(HL, ML, 1)[0])).phi,
        # split with a two-dimensional kernel: sigma reaches both kernel lines, and it splits
        "cobext2.json": cocycle_extension(H, M2, coboundary(
            Cochain(H, M2, 1, ((1, 2), (0, 0), (0, 0))))).phi,
        # A(abl(3)) onto its quotient by a central plane: the class is nonzero, and the report
        # carries h2_dim = 2 x H^2 of the quotient with coefficients in F
        "cquot2.json": central_quotient(A, Subspace.span(F, A.dim, [[1, 1, 0, 0, 0, 0],
                                                                    [0, 1, 2, 0, 0, 0]]))[1],
        "notsurj.json": GradedHom(heis(F), heis(F), Matrix(F, 3, 3, ((0,) * 3,) * 3)),
        "notgen.json": direct_sum(sl2graded(F), even_line(F)),
    }


@pytest.mark.parametrize("command, name, field", sorted(GOLDEN_REPORTS), ids=str)
def test_cli_reports_match_golden_digests(capsys, monkeypatch, tmp_path, command, name, field):
    monkeypatch.chdir(tmp_path)
    args = name.split()
    payloads = _golden_payloads(Field.from_tag(field))
    for arg in args:
        if arg in payloads:
            (tmp_path / arg).write_text(json.dumps(save(payloads[arg])))
    code = main([command, *args, "--field", field])
    out = capsys.readouterr()
    digest = hashlib.sha256(out.out.encode()).hexdigest()
    assert (code, digest, out.err) == GOLDEN_REPORTS[command, name, field]
    verdict = json.loads(out.out)["verdict"] if out.out else None
    assert (code == 1) == (verdict in ("fail", "false"))


# The SHA-256 of repr(load(payload)) for every input the golden reports read and
# every corpus name (abl(n) and a_of(abl(n)) for n <= 4), over Q and F_5, fixed
# before load read each distinct scalar once.  The repr tells an int from a
# Fraction, so the types of the stored scalars are pinned too.
GOLDEN_LOADS = {
    ('a_of(abl(0))', 'Q'): '95909f78acf539f18455ca7a905e0680770375da5b62c657ebf937541f822d58',
    ('a_of(abl(1))', 'Q'): 'c525ef63793013b26da17c0deee149e3bec9e9564c8feaf6573ad6dd340d2339',
    ('a_of(abl(2))', 'Q'): 'ce573d0248bf01077d3f34b3bcd8fa1fd4251b6d5145390663d77ae9968b7efb',
    ('a_of(abl(3))', 'Q'): '30ef21a11e7a39090a77ffd22921bbca67ba58b12acee5baef85e6b28561af0c',
    ('a_of(abl(4))', 'Q'): 'db604867b78bce27c6a0f4b09b09e0df67c192a094d830703bb8df09a3dc0d96',
    ('a_of(odd2)', 'Q'): 'a40850cc8c7f5bf11def92ec86f919a197d43db1e1908dd30716890945d9281b',
    ('a_of(sl2lts)', 'Q'): '90652c204a4150007044ac57afd312a55d2d3a263781cf8aed098e6255332ab8',
    ('ab2', 'Q'): 'b542705d7142261272c80ad1c31e9f64d752d3e4e5afc410e98b97d225f6d681',
    ('abl(0)', 'Q'): '69d7e49b11649d488fdc0daf9282639e2cc9761bf2e03ca4eaa66c1b3923c0a7',
    ('abl(1)', 'Q'): '58b52fd06c9749d8aba11fdfa9f42cfae82a04eb8c7b53ab288472848ce2646c',
    ('abl(2)', 'Q'): 'e3e6c4385d8732b04329e277637c0bec37ddad98db782114936ae304df628d42',
    ('abl(3)', 'Q'): '10c60990943cf99da6c59f089805ee6be3de9d1fd4b3bd769297819ea891c9e4',
    ('abl(4)', 'Q'): 'b2681443e24056508edae01879b9f527f698f0395e5f4ea5e01e9a265a2ed9ed',
    ('adjoint.json', 'Q'): '29911480462263e9d69b3194078098cc354c83820b3e02cbfc3ca412e811ac39',
    ('bad_hom.json', 'Q'): '997f8a788f01f6efc2c1d010b2a5cefc4d3bb5d789d47a1cfd809b157c1e3f5e',
    ('broken_graded.json', 'Q'): '94ed97ba8f94176df744c6af5f89647f47ce153bc6de0f4c92a8b9b6865996e6',
    ('broken_lts.json', 'Q'): '11135f3ba8613572a302856b388611a198954e5872e3fe62e6ae87c75ad8c01d',
    ('cobext.json', 'Q'): 'af7057e14cbf1cbfdca44c4b4d2b3cfa4ad2a7c6a3ce5396b1529a09fa9e5a0c',
    ('cobext_line.json', 'Q'): 'fd504f31d6d300079b574c7c634d9e2bdf97b1def2b1635e9ad9dde6c62764cd',
    ('cobext2.json', 'Q'): 'e413b20b2be1aa4b39f568050c905e85bc6b5ed351f9b7acfdba5768d034c422',
    ('cquot2.json', 'Q'): 'd7ca1911f5b3c398001999a85638371d35ecfa48feaaa4b293ffde59b1e92429',
    ('heis', 'Q'): 'ce573d0248bf01077d3f34b3bcd8fa1fd4251b6d5145390663d77ae9968b7efb',
    ('hom.json', 'Q'): '4195c721730f1317b4f8bb4091cba722b6bbe2c04c78b14a836c23c47ad1662a',
    ('iso.json', 'Q'): '3acaac5fe20536c14ba5349a551d6afdff721de5a90877359241a7a4c475909f',
    ('notgen.json', 'Q'): '658e87165299b9461e2a71e771c6c53cf896fcafabe22e2c999e347e4082d580',
    ('notsurj.json', 'Q'): 'd55090471031b5edb0d6d18a02dce0d71d6060dc4c02a2d4dd5c40ca028b2309',
    ('odd2', 'Q'): 'ca5aa71059e6ba6ba61043cbdd542a2fff3fa8286d653eeb6ee0babe326214a4',
    ('proj.json', 'Q'): 'e2f1aacabfdc88e68bdecc0f0050413b12ea73e9cd06feecfbf95c7f5595e89e',
    ('sl2graded', 'Q'): 'a40850cc8c7f5bf11def92ec86f919a197d43db1e1908dd30716890945d9281b',
    ('sl2lts', 'Q'): '2b89c74cc2f702acbdfaf91dc618a970fae494c33cb0e5c89558b303d7aeaed4',
    ('a_of(abl(0))', 'Fp:5'): '8028401db0c3f8011cf2c4477c1c57149e08ccaeb0cfe37af4537b6ddd2a42cc',
    ('a_of(abl(1))', 'Fp:5'): '49c1ce062cbaf097dd27a0c9c524bda04dfe6232949518f9c0cac00ac51c1990',
    ('a_of(abl(2))', 'Fp:5'): '8ee72b6fa8ce1615bb52bada5e31afe81d12da26830185558207735f8d3bdecb',
    ('a_of(abl(3))', 'Fp:5'): '47b9960208eed8fb121ae907e4d8538b8acce21c9f8889223a7923345c8c8cb7',
    ('a_of(abl(4))', 'Fp:5'): 'fa3a879b94c8c89b3f8dffecc9d0e73daaed11fbf853f141ced7ce78d6f9a660',
    ('a_of(odd2)', 'Fp:5'): '378436d8fe0c10993e19410e2ece6067b12f09ae3316a74105a35fad34aa5692',
    ('a_of(sl2lts)', 'Fp:5'): '02ecaf767fd02059945b40189d09173fa52c9936b59d5df996afc871b3371d9d',
    ('ab2', 'Fp:5'): '1276e6677dcd4ff753a69d7240512d6d7f8da52abee910997b11ff362044a847',
    ('abl(0)', 'Fp:5'): '7edca3c18d97f350cb97983b9d7ff0a23167150e056301eb54f9218d77065b82',
    ('abl(1)', 'Fp:5'): '0925e4a918a607450487b100b1a60fe902393cecd118f023f2445e12c3ad355f',
    ('abl(2)', 'Fp:5'): '18c0825085fd44def23fef0561618f303c4c9d235c8f8a0cc0fb6bfb7fb1f60f',
    ('abl(3)', 'Fp:5'): '58064306329129e2cee54a42d4b8c5ecbed022776817d38e410b0812e56a4fdf',
    ('abl(4)', 'Fp:5'): 'cf89d29ae5f5bc33ed6cc1319dcc6d8d6703a545692327e6e2a6287510c0c40c',
    ('adjoint.json', 'Fp:5'): '8b87426f33b9d4696f245aa670382e12b2d21625fb8dfce627b62a7687be41fd',
    ('bad_hom.json', 'Fp:5'): '590bad2fa6d299e7faf94c7f148388416ecabf682b720fca19803cba973cbd76',
    ('broken_graded.json', 'Fp:5'): 'b4720072c884a3ff6e9cbaeae9569a230e34e68e95300ed873acb88d4a59543f',
    ('broken_lts.json', 'Fp:5'): '80f669a4d744f9b42b7ffa98ed6a17fbc3c9eb342c88d67f59be4bf90f2f9a8f',
    ('cobext.json', 'Fp:5'): 'f5d95a91c17afb7ef636c1384a7e2c550b401fd3b33e0d7383946585f68e8b00',
    ('cobext_line.json', 'Fp:5'): '031af435731d0ef4a1f27f8625dd7ac755f29fc461dc0f17511fdf1cb5cfbbcd',
    ('cobext2.json', 'Fp:5'): 'e1dfb7a5b83ef65af16ec17575548c3e75f14932ac439cb88c6532c05e9b175e',
    ('cquot2.json', 'Fp:5'): 'c2dc7b9af85e65b450ee64ac933874b5df26914b1887369431d9065e119a0ae1',
    ('heis', 'Fp:5'): '8ee72b6fa8ce1615bb52bada5e31afe81d12da26830185558207735f8d3bdecb',
    ('hom.json', 'Fp:5'): '33ed0f25fed1d2ffeb8f95b540ae7b876275917aab879b661d74dd6c91b7b4a2',
    ('iso.json', 'Fp:5'): '766f7c962d2bee1738e677c9490e04f1168c0d40eaaa305640819f0f6e8445b2',
    ('notgen.json', 'Fp:5'): '1c82ade16831b4d75300a0d8a10faef2b19d865c4f0f6aeb8c8440129c8f7037',
    ('notsurj.json', 'Fp:5'): '3a53b25ce4e651af35251d5480f8072fefc320a1f2c7957dfb80fd7b66b86386',
    ('odd2', 'Fp:5'): '0b4f0a769adfb8400ef2b62f4df1346679f8f0752f9c889162ce58ee90ca61ab',
    ('proj.json', 'Fp:5'): 'f59b154afed60ed5bbd709f19f22f69d2c3cef19d826c3c058d6c778d09b83bc',
    ('sl2graded', 'Fp:5'): '378436d8fe0c10993e19410e2ece6067b12f09ae3316a74105a35fad34aa5692',
    ('sl2lts', 'Fp:5'): 'c57ef354e65448ae4d0e06194d918ae24f8d0113006fb672a46e7e8e75cbbe73',
}


@pytest.mark.parametrize("tag", ["Q", "Fp:5"])
def test_loads_match_golden_digests(tag):
    F = Field.from_tag(tag)
    names = sorted(name for name, t in GOLDEN_LOADS if t == tag)
    assert {arg for _, name, t in GOLDEN_REPORTS if t == tag for arg in name.split()} - {"nosuch"} \
        <= set(names)
    payloads = _golden_payloads(F)
    for name in names:
        obj = payloads[name] if name in payloads else builder(name)(F)
        loaded = load(json.loads(json.dumps(save(obj))), _trusted=name.startswith("broken_"))
        assert loaded == obj, name
        assert hashlib.sha256(repr(loaded).encode()).hexdigest() == GOLDEN_LOADS[name, tag], name


# The exit code and the SHA-256 of stdout and of stderr of argparse's own
# output, help and usage errors, captured with Python 3.11 at 80 columns
# before main built the parser of the named command alone, and captured again
# when the --unchecked option went from every usage line and help text and
# the description took the validation policy.  A key holds the arguments,
# split at spaces.
ARGPARSE_GOLDENS = {
    '--help': (0, 'ed0745d06beb3678df1d5f52665b1b04e29b6fa396d6b7f5ffd89387aa7e6687',
                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '-h thm-a': (0, 'ed0745d06beb3678df1d5f52665b1b04e29b6fa396d6b7f5ffd89387aa7e6687',
                  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm-a -h': (0, '335b8bc4bb930e2d5f2520b55ef4580a74fd02cb649525163a15c5e9e431cfd3',
                  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'corpus --help': (0, '59c8a3956621d914e3a88bcff45f2f8af11b9c0e3a9e2be273aedbee6413114c',
                       'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lts --help': (0, 'e2ab30ff998588de6f9db3f5ef548aca1564bccd05a1ad42ed4983b439d0f5c7',
                          'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-graded --help': (0, '767ffb35156ab32f5fdf7c372a24db497c061ceadfa28d672a3d6d1ae75bc93b',
                             'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'derive --help': (0, '69f768d6c5540e221338c895106246252813de474a97394ae06182df71dddfc6',
                       'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'inder --help': (0, '79b52e8f1dcfe364a72bb57f5c2ad57bdb829279c6dcdda3aea8bf86a0105b96',
                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'ste --help': (0, '65e86d79ca8ffc4d226a5caeb00335a78c60ccbe3cbc12c99d4c66072d29d1b1',
                    'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'univ --help': (0, 'a73f652c5bb1e079cdd19a8ce65866c305ccbaa9bd0743bf639fe085c1e9205c',
                     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'extend --help': (0, '830c5f8492b0d0be63fb05cf11187a97cc2d26e4dfcef56fc86caac0183d7a9e',
                       'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'h2 --help': (0, '932bb66d7dd1d7789c07c78c55000a685eb1be0f00d26e6c625f42d5c77cc62b',
                   'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'split --help': (0, '956e95c3d312da618609a2b5a87d8a1657542c4dd174f3f227ced8cc07c17c86',
                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'closed --help': (0, '901288081610e3214651bafdcd915ae080924b5cdb414ce5d2bc845507409243',
                       'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'thm-a --help': (0, '335b8bc4bb930e2d5f2520b55ef4580a74fd02cb649525163a15c5e9e431cfd3',
                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'u0ext --help': (0, '2a8e343cb2ae2a312ce43518b63b8b0f3591667301c30f07a0b284b11a85808a',
                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
          '0ea87c48b0314faf8d775a4529510a1f237c681dcd788f65cc254cf2b8c85224'),
    'bogus': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
               'ab44ee911b936c00e09ac34ac105682e4a93b8a5102741c6758a6dfe3fe9baff'),
    'thm': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
             'a37312d2bc2ba2d25a1506146ec3c2c8e2e3cafcf23f107752931ee4039dcb1c'),
    'thm-a heis --bogus': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                            '630d884ea34edb7afceae9c8104635327347712564f20c8527f5c68fc3810746'),
    'h2 heis a b c': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                       '76d536ccc26105e8ebffe8ce4d65da327b6fbd9d2cda2cb8a87d579ee136514d'),
    'thm-a heis --field Fp:4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                 'c6c2eb315c11699f669f432af941f26fa1b8fe158f5851ba6a8f5fb179b64fa3'),
    'univ sl2lts --out': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                           'c01ed4d931140f1000dc946f506ad9c90f3b6d6ac924b5d3ce473056ef666833'),
    'corpus': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                '0c881f44ed6b03beac1f84f290b125631833f199957e29a246b2f9a218a74257'),
}


def _argparse_output(capsys, monkeypatch, parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which argparse ends."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words help and errors differently in other Python versions")
@pytest.mark.parametrize("argv", ARGPARSE_GOLDENS)
def test_cli_argparse_output_matches_golden_digests(capsys, monkeypatch, argv):
    code, out, err = _argparse_output(capsys, monkeypatch, main, argv.split())
    digest = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    assert (code, *digest) == ARGPARSE_GOLDENS[argv]


@pytest.mark.parametrize("argv", ARGPARSE_GOLDENS)
def test_cli_argparse_output_matches_the_parser_of_every_command(capsys, monkeypatch, argv):
    """main builds one subparser when the first argument names a command; its
    help and errors read as the parser of every command writes them."""
    full = _argparse_output(capsys, monkeypatch, build_parser().parse_args, argv.split())
    assert _argparse_output(capsys, monkeypatch, main, argv.split()) == full
    if {"-h", "--help"} & set(argv.split()):
        assert full[0] == 0


# Each command in a fresh interpreter that compiles lietrip from source, on a
# corpus name and on a file where it takes either: the in-process tests run
# with every module loaded, so only here would a runner's missing import show.
FRESH_RUNS = ["corpus heis", "check-lts sl2lts", "check-lts broken_lts.json",
              "check-graded sl2graded", "check-graded broken_graded.json",
              "derive odd2", "derive odd2.json", "inder odd2", "inder odd2.json",
              "ste odd2", "ste odd2.json", "univ odd2", "univ odd2.json",
              "extend hom.json sl2graded", "extend hom.json sl2graded.json",
              "h2 ab2", "h2 ab2.json", "h2 sl2graded.json adjoint.json", "split iso.json",
              "closed heis", "closed heis.json", "thm-a heis", "thm-a heis.json",
              "thm-a a_of(abl(2)).json", "check-graded a_of(abl(2)).json",
              "u0ext ab2", "u0ext ab2.json"]


def _fresh_cli(*args):
    """(exit code, stdout, stderr) of python -m lietrip.cli args in a fresh interpreter that
    compiles lietrip from source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lietrip.cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "lietrip.cli", *args],
                          env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv", FRESH_RUNS)
def test_cli_in_a_fresh_process_matches_main(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    args = argv.split()
    payloads = _golden_payloads(QQ)
    for arg in args:
        if arg.endswith(".json"):
            obj = payloads[arg] if arg in payloads else builder(arg.removesuffix(".json"))(QQ)
            (tmp_path / arg).write_text(json.dumps(save(obj)))
    fresh = _fresh_cli(*args)
    code = main(args)
    out = capsys.readouterr()
    assert fresh == (code, out.out, out.err)


@pytest.mark.parametrize("tag", ["Fp:1_3", "Fp: 5", "Fp:+5", "Fp:\u0665", "Fp:5 ", "fp:5", "Q ", ""])
def test_field_tag_is_q_or_ascii_digits(capsys, tmp_path, tag):
    with pytest.raises(ValueError):
        Field.from_tag(tag)
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "heis", "--field", tag])
    assert exc.value.code == 2
    capsys.readouterr()
    payload = save(heis())
    payload["field"] = tag
    path = tmp_path / "field.json"
    path.write_text(json.dumps(payload))
    _one_error_line(capsys, ["thm-a", str(path)], 2, "error: ")


@pytest.mark.parametrize("tag", [5, None, ["Q"]], ids=str)
def test_non_string_field_tag_is_invalid_input(capsys, tmp_path, tag):
    payload = save(heis())
    payload["field"] = tag
    path = tmp_path / "field.json"
    path.write_text(json.dumps(payload))
    _one_error_line(capsys, ["thm-a", str(path)], 2, "error: ")


@pytest.mark.parametrize("name", ["abl(\u0663)", "abl(+3)", "abl( 3)", "abl(3 )", "abl(3.0)",
                                  "abl()", "abl", "a_of(abl(+2))", "a_of(abl( 2))"])
def test_abl_takes_ascii_digits_only(capsys, name):
    with pytest.raises(KeyError):
        builder(name)
    _one_error_line(capsys, ["univ" if name.startswith("abl") else "thm-a", name], 2, "error: ")


@pytest.mark.parametrize("command, name", [("derive", " abl(2) "), ("thm-a", "heis "),
                                           ("thm-a", "\tab2"), ("thm-a", "a_of( odd2)")])
def test_corpus_name_with_whitespace_is_invalid_input(capsys, command, name):
    with pytest.raises(KeyError):
        builder(name)
    line = _one_error_line(capsys, [command, name], 2, "error: ")
    assert line == f"error: {name}: not a readable file and not a corpus name"


def test_cli_out_flag(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "h2", "heis", "--out", str(out_path))
    assert code == 0
    on_disk = json.loads(out_path.read_text())
    assert on_disk == report


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("stage", ["h2_graded", "dumps", "open"])
def test_cli_out_of_memory_in_each_stage_is_an_internal_error(capsys, monkeypatch, tmp_path, stage):
    """A MemoryError in the runner, in the report's encoding or in the --out
    write exits 3 with one stderr line and prints no report."""
    # the h2 runner imports h2_graded from cohom when it runs
    target = {"h2_graded": lietrip.cohom, "dumps": lietrip.cli.json, "open": lietrip.cli}[stage]
    monkeypatch.setattr(target, stage, _out_of_memory, raising=stage != "open")
    code = main(["h2", "heis", "--out", str(tmp_path / "report.json")])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (3, "", "internal error: h2: out of memory\n")


@pytest.mark.parametrize("cap_mb", [150, 250])
def test_cli_out_of_memory_under_an_address_space_cap(cap_mb):
    """The report of a_of(abl(24)) has 27 million scalars, far beyond either
    cap: the run runs out of memory while it saves or encodes the report,
    and exits 3 with one line, not a traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lietrip.cli.__file__)))
    code = ("import resource, runpy, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap_mb << 20}, {cap_mb << 20})); "
            "sys.argv = ['lietrip', 'corpus', 'a_of(abl(24))', '--field', 'Fp:5']; "
            "runpy.run_module('lietrip.cli', run_name='__main__')")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "internal error: corpus: out of memory\n")


@pytest.mark.parametrize("argv", [["corpus", "a_of(abl(6))"], ["h2", "heis"]], ids=" ".join)
def test_cli_closed_stdout_is_invalid_output(argv):
    """With the read end of its stdout pipe closed, a run exits 2 with one
    stderr line, like an unwritable --out, and no traceback follows at exit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lietrip.cli.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "lietrip.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: cannot write stdout: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("command", ["thm-a", "h2"])
def test_cli_out_unwritable_is_invalid_input(capsys, tmp_path, command):
    """An --out path that cannot be written exits 2 with one error line,
    prints no report and leaves no file behind."""
    out_path = tmp_path / "missing" / "report.json"
    code = main([command, "heis", "--out", str(out_path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: cannot write --out: ")
    assert "Traceback" not in out.err
    assert not out_path.parent.exists()

import json

import pytest

from lietrip.cli import main
from lietrip.cohom import h2_graded
import oracles
from lietrip.corpus import (
    MAX_ABL_DIM, ab2, abl, by_name, even_line, heis, lts_by_name, odd2,
    sl2_double_swap, sl2graded, sl2lts,
)
from lietrip.embed import universal_imbedding
from lietrip.exactlin import Field, Matrix, QQ
from lietrip.grlie import GradedHom, adjoint_module, direct_sum, graded_lie, trivial_module
from lietrip.lts import LieTripleSystem, LtsHom, lie_triple_system
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
        obj = by_name(name)
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


def test_loader_rejects_invalid_unless_unchecked():
    broken = LieTripleSystem(QQ, 1, ((((QQ.of(1),),),),), unchecked=True)
    payload = save(broken)
    with pytest.raises(ValueError):
        load(payload)
    assert load(payload, unchecked=True) == broken


def test_loader_rejects_malformed():
    with pytest.raises(PayloadError):
        load({"kind": "lts"})
    with pytest.raises(PayloadError):
        load({"format_version": 99, "kind": "lts", "field": "Q",
              "dims": {"dim": 0}, "entries": []})
    with pytest.raises(PayloadError):
        load({"format_version": 1, "kind": "nope", "field": "Q",
              "dims": {}, "entries": []})


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

    broken = LieTripleSystem(QQ, 1, ((((QQ.of(1),),),),), unchecked=True)
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
    assert ext.is_bijective()

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


def test_cli_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "check-lts", str(path))
    assert code == 2 and "junk.json" in err

    path2 = tmp_path / "wrongkind.json"
    path2.write_text(json.dumps(save(heis())))
    code, _, err = run_cli(capsys, "check-lts", str(path2))
    assert code == 2 and "expected" in err


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
        load(payload, unchecked=True)
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
    assert line.endswith(f"abl(n) needs 0 <= n <= {MAX_ABL_DIM}, got n = {n}")


def test_abl_dimension_ceiling_is_loadable():
    assert lts_by_name(f"abl({MAX_ABL_DIM})").dim == MAX_ABL_DIM
    assert lts_by_name("abl(0)").dim == 0


def _bracket_payload(tmp_path, dim0, dim1, brackets):
    """A graded_lie file with the given [e_i, e_j] = e_k (and [e_j, e_i] = -e_k),
    saved without any check."""
    n = dim0 + dim1
    entries = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in brackets:
        entries[i][j][k], entries[j][i][k] = 1, -1
    path = tmp_path / "bracket.json"
    path.write_text(json.dumps(save(graded_lie(QQ, dim0, dim1, entries, unchecked=True))))
    return path


@pytest.mark.parametrize("dims", [{"dim0": -1, "dim1": 4}, {"dim0": True, "dim1": 2},
                                  {"dim0": "1", "dim1": 2}, {"dim0": 1.0, "dim1": 2},
                                  [1, 2]], ids=str)
def test_bad_dims_are_invalid_input_even_unchecked(capsys, tmp_path, dims):
    payload = save(heis())
    payload["dims"] = dims
    with pytest.raises(PayloadError):
        load(payload, unchecked=True)
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(payload))
    for command in ("h2", "thm-a"):
        _one_error_line(capsys, [command, str(path), "--unchecked"], 2, "error: ")


def test_cli_internal_error_exit_code(capsys, tmp_path):
    # [e1, e2] = e1 puts an odd vector in [L1, L1]: not graded, caught only
    # by the consistency check inside is_generated_by_odd
    path = _bracket_payload(tmp_path, 1, 2, [(0, 1, 1), (1, 2, 1)])
    _one_error_line(capsys, ["thm-a", str(path), "--unchecked"], 3, "internal error: thm-a: ")


def test_cli_h2_unchecked_stray_bracket(capsys, tmp_path):
    # [e0, e2] = e0 sends even x odd to even, so d2 leaves the graded slots
    path = _bracket_payload(tmp_path, 2, 1, [(0, 2, 0)])
    line = _one_error_line(capsys, ["h2", str(path), "--unchecked"], 2, "error: ")
    assert line == "error: cochain is not graded"


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


def test_cli_unchecked_flag(capsys, tmp_path):
    broken = LieTripleSystem(QQ, 1, ((((QQ.of(1),),),),), unchecked=True)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(save(broken)))
    code, _, _ = run_cli(capsys, "derive", str(path))
    assert code == 2
    code, report, _ = run_cli(capsys, "derive", str(path), "--unchecked")
    assert code == 0


def test_cli_byte_stability(capsys):
    code1 = main(["thm-a", "heis"])
    out1 = capsys.readouterr().out
    code2 = main(["thm-a", "heis"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_out_flag(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "h2", "heis", "--out", str(out_path))
    assert code == 0
    on_disk = json.loads(out_path.read_text())
    assert on_disk == report

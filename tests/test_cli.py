import hashlib
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
from lietrip.grlie import (
    GradedHom, adjoint_module, direct_sum, graded_lie, identity_hom, trivial_module,
)
from lietrip.lts import LieTripleSystem, LtsHom, identity_lts_hom, lie_triple_system
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
    for unchecked in (False, True):
        with pytest.raises(PayloadError, match=message):
            load(payload, unchecked=unchecked)
    if argv is None:
        return
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(payload))
    argv = [str(path) if arg == "{}" else arg for arg in argv]
    for flags in ([], ["--unchecked"]):
        line = _one_error_line(capsys, argv + flags, 2, "error: ")
        assert line == f"error: {path}: {message}"


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


def test_cli_internal_error_exit_code(capsys, tmp_path):
    # [e1, e2] = e1 puts an odd vector in [L1, L1]: not graded, caught only
    # by the consistency check inside is_generated_by_odd
    path = _bracket_payload(tmp_path, 1, 2, [(0, 1, 1), (1, 2, 1)])
    _one_error_line(capsys, ["thm-a", str(path), "--unchecked"], 3, "internal error: thm-a: ")


def test_cli_h2_unchecked_stray_bracket(capsys, tmp_path):
    # [e0, e2] = e0 sends even x odd to even.  The load refuses it; under
    # --unchecked, h2 builds d1 and d2 at the graded slots only and answers
    # for the graded subcomplex (it said "cochain is not graded", exit 2,
    # while it built the rows at the ungraded slots too)
    path = _bracket_payload(tmp_path, 2, 1, [(0, 2, 0)])
    _one_error_line(capsys, ["h2", str(path)], 2, "error: ")
    code, report, err = run_cli(capsys, "h2", str(path), "--unchecked")
    assert (code, err) == (0, "")
    assert report["dimensions"] == {"h2": 1, "cocycles": 1, "coboundaries": 0}


# Objects derived from a file are built without re-checking them, so an
# --unchecked input that breaks an axiom can reach an answer (exit 0) or a
# hypothesis check of a public function (exit 2) where the re-check used to
# refuse it (exit 2, or exit 3 for ste and univ); the exit-code contract
# holds either way.
@pytest.mark.parametrize("command, name, where, value, code", [
    ("ste", "odd2", [0, 0, 1, 0], "-1", 0),         # was exit 3
    ("univ", "odd2", [0, 0, 1, 0], "-1", 0),        # was exit 3
    ("thm-a", "heis", [2, 0, 0], "2", 0),           # was exit 2
    ("u0ext", "heis", [2, 0, 0], "2", 0),           # was exit 2
    # exit 3 while lam was taken in Der(T) coordinates
    ("u0ext", "sl2graded", [0, 1, 1], "1", 2),
    # Inder(T) of a non-system need not be closed under commutator; inder
    # answered (exit 0) while it built no commutator table
    ("inder", "sl2lts", [0, 1, 0, 0], "3", 3),
    ("ste", "sl2lts", [0, 1, 0, 0], "3", 3),
])
def test_unchecked_outcomes_keep_the_exit_contract(capsys, tmp_path, command, name, where,
                                                   value, code):
    payload = save(by_name(name))
    node = payload["entries"]
    for i in where[:-1]:
        node = node[i]
    node[where[-1]] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    _one_error_line(capsys, [command, str(path)], 2, "error: ")
    if code == 0:
        assert run_cli(capsys, command, str(path), "--unchecked")[::2] == (0, "")
    elif code == 2:
        line = _one_error_line(capsys, [command, str(path), "--unchecked"], 2, "error: ")
        assert line == "error: lam is not a module homomorphism: fails at basis pair (0, 0)"
    else:
        line = _one_error_line(capsys, [command, str(path), "--unchecked"], 3, "internal error: ")
        assert line == f"internal error: {command}: derivations not closed under commutator"


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
    ('corpus', 'nosuch', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: "unknown corpus name \'nosuch\'"\n'),
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
    ('split', 'notsurj.json', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: the hom is not surjective\n'),
    ('closed', 'heis', 'Q'): (0, 'b9c1f30ae13dac9dbc7d9822f0ae3b0b33c80b1a7d9b57a014c13522485a4107', ''),
    ('closed', 'ab2', 'Q'): (1, '861148ffe40b06bdb75147ca20baf365c867a8db05bc2f77866dcf77a7b1f7b8', 'closed: false\n'),
    ('u0ext', 'ab2', 'Q'): (0, '8ada3e44faa092128ff189fb82cc94a582493a894e3ecf486e0888fc22983863', ''),
    ('u0ext', 'heis', 'Q'): (0, '2fe8d49f34b2d128312f80ef9924dd0e068e7eed86d7c17193c21f8ac0d2dfc7', ''),
    ('u0ext', 'notgen.json', 'Q'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: algebra is not generated by its odd part\n'),
    ('corpus', 'heis', 'Fp:5'): (0, '7dff48a4b685034904ba0adf9e37714f75c4edccacee043a8dee769110f1ba09', ''),
    ('corpus', 'a_of(odd2)', 'Fp:5'): (0, 'd3813f6eb6da3ef1b23e1ac6f468d35efc1bbb2bd9805bb4741721c5612df6fa', ''),
    ('corpus', 'nosuch', 'Fp:5'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: "unknown corpus name \'nosuch\'"\n'),
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
    return {
        "broken_lts.json": LieTripleSystem(F, 1, ((((F.one(),),),),), unchecked=True),
        "broken_graded.json": graded_lie(F, 1, 2, graded, unchecked=True),
        "hom.json": identity_lts_hom(odd2(F)),
        "bad_hom.json": identity_lts_hom(abl(2, F)),
        "adjoint.json": adjoint_module(sl2graded(F)),
        "iso.json": identity_hom(heis(F)),
        "proj.json": GradedHom(heis(F), ab2(F), Matrix.make(F, [[0, 1, 0], [0, 0, 1]])),
        "notsurj.json": GradedHom(heis(F), heis(F), Matrix.zeros(F, 3, 3)),
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
        by_name(name)
    _one_error_line(capsys, ["univ" if name.startswith("abl") else "thm-a", name], 2, "error: ")


@pytest.mark.parametrize("command, name", [("derive", " abl(2) "), ("thm-a", "heis "),
                                           ("thm-a", "\tab2"), ("thm-a", "a_of( odd2)")])
def test_corpus_name_with_whitespace_is_invalid_input(capsys, command, name):
    with pytest.raises(KeyError):
        by_name(name)
    line = _one_error_line(capsys, [command, name], 2, "error: ")
    assert line == f"error: {name}: not a readable file and not a corpus name"


def test_cli_out_flag(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "h2", "heis", "--out", str(out_path))
    assert code == 0
    on_disk = json.loads(out_path.read_text())
    assert on_disk == report


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

"""What a fresh process loads: ``import lietrip`` runs no submodule, each
public name loads its home submodule on first access, and a command of the
CLI loads only the modules it reaches."""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import lietrip
from lietrip.cohom import h2_graded
from extra_algebras import sl2_double_swap
from lietrip.corpus import ab2, abl, heis, sl2lts
from lietrip.embed import universal_imbedding
from lietrip.exactlin import QQ, Subspace, unit_vec
from lietrip.grlie import central_quotient, identity_hom, trivial_module
from lietrip.lts import LieTripleSystem
from lietrip.serialize import save

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lietrip.__file__)))

# lietrip.__all__: every public name, in _HOMES order
PUBLIC = [
    "CentralExtensionProblem", "Cochain", "Field", "GradedHom", "GradedLieAlgebra", "GradedModule",
    "H2Result", "LieTripleSystem", "LtsHom", "Matrix", "QQ", "StandardImbedding", "Subspace",
    "UniversalImbedding", "adjoint_module", "center", "central_quotient", "check_graded_lie",
    "check_lts_axioms", "coboundary", "cocycle_extension", "cohom", "derivation_algebra",
    "direct_sum", "embed", "envelope_criterion", "exactlin", "extend_hom", "graded_cochain_basis",
    "graded_lie", "grlie", "h2_graded", "ideal_closure_certificate", "imbedding_functor_hom",
    "inner_derivation", "inner_derivation_algebra",
    "is_0_centrally_closed", "is_generated_by_odd", "is_graded_hom", "is_lts_hom", "kernel_basis",
    "lie_triple_system", "load", "lts", "lts_of_lie", "module_quotient_algebra", "odd_part_lts",
    "pair_algebra", "quotient", "rank", "restrict_hom_to_odd", "rref", "save", "serialize", "solve",
    "split_central_0_extension", "standard_imbedding", "triple_bracket", "trivial_module",
    "universal_central_0_extension", "universal_imbedding", "wedge_module",
]

LOADED = "sorted(m for m in sys.modules if m.startswith('lietrip.'))"


def _fresh(code, *args, cwd=None):
    """The stdout lines of code run in a fresh interpreter that compiles
    lietrip from source, as each CLI run does when no bytecode is cached."""
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.splitlines()


def test_import_lietrip_loads_no_submodule():
    assert _fresh(f"import sys, lietrip; print({LOADED})") == ["[]"]


def _cli_inputs(tmp_path):
    """The payload files the commands below read, of the kinds perfbench/clijobs.py writes: a
    graded algebra, an algebra with H^2 != 0 and its projection hom, a triple system that
    fails its axioms, a tensor of the wrong shape, truncated JSON and a scalar "1/0"; and the
    identity hom of heis, a split that succeeds."""
    A = universal_imbedding(abl(3)).algebra
    Q, projection = central_quotient(A, Subspace.span(QQ, A.dim, [unit_vec(QQ, A.dim, 0)]))
    bad_shape, zero_den = save(heis()), save(heis())
    bad_shape["entries"] = [[["0"] * 2] * 2] * 2
    zero_den["entries"][1][2][0] = "1/0"
    files = {"sl2lts.json": save(sl2lts()), "ab2.json": save(ab2()),
             "sl2ds.json": save(sl2_double_swap()), "n3q.json": save(Q),
             "n3proj.json": save(projection), "heisid.json": save(identity_hom(heis())),
             "badshape.json": bad_shape, "zeroden.json": zero_den,
             "notlts.json": save(LieTripleSystem(QQ, 1, ((((QQ.of(1),),),),), _trusted=True))}
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    (tmp_path / "malformed.json").write_text('{"format_version": 1, "kind": "graded_lie", "field": ')


# (command, exit code, the modules it loads): the commands of perfbench/clijobs.py, then more
# commands on a file; a graded command loads no lts, and only h2, split and a criterion on an
# algebra its odd part does not generate load cohom (u0ext builds grlie's CentralExtensionProblem
# without it); a split that fails reads its obstruction's H^2 from the envelope criterion, so it
# loads embed, and one that succeeds does not; derive loads grlie, for the bracket of Der(T); a
# payload refused for a bad scalar loads no record module, since load parses the entries first
COMMANDS = [
    ("thm-a heis", 0, ["cli", "corpus", "embed", "exactlin", "grlie", "serialize"]),
    ("thm-a ab2", 1, ["cli", "corpus", "embed", "exactlin", "grlie", "serialize"]),
    ("thm-a a_of(abl(4))", 0, ["cli", "corpus", "embed", "exactlin", "grlie", "lts", "serialize"]),
    ("thm-a a_of(sl2lts)", 0, ["cli", "corpus", "embed", "exactlin", "grlie", "lts", "serialize"]),
    ("univ sl2lts --field Fp:5", 0,
     ["cli", "corpus", "embed", "exactlin", "grlie", "lts", "serialize"]),
    ("h2 sl2ds.json", 0, ["cli", "cohom", "exactlin", "grlie", "serialize"]),
    ("closed n3q.json", 1, ["cli", "embed", "exactlin", "grlie", "serialize"]),
    ("split n3proj.json", 1, ["cli", "cohom", "embed", "exactlin", "grlie", "serialize"]),
    ("split heisid.json", 0, ["cli", "cohom", "exactlin", "grlie", "serialize"]),
    ("check-lts notlts.json", 1, ["cli", "exactlin", "lts", "serialize"]),
    ("check-graded badshape.json", 2, ["cli", "exactlin", "grlie", "serialize"]),
    ("thm-a malformed.json", 2, ["cli", "exactlin", "serialize"]),
    ("thm-a zeroden.json", 2, ["cli", "exactlin", "serialize"]),
    ("check-lts sl2lts.json", 0, ["cli", "exactlin", "lts", "serialize"]),
    ("derive sl2lts.json", 0, ["cli", "exactlin", "grlie", "lts", "serialize"]),
    ("univ sl2lts", 0, ["cli", "corpus", "embed", "exactlin", "grlie", "lts", "serialize"]),
    ("h2 ab2.json", 0, ["cli", "cohom", "exactlin", "grlie", "serialize"]),
    ("thm-a ab2.json", 1, ["cli", "embed", "exactlin", "grlie", "serialize"]),
    ("thm-a sl2ds.json", 0, ["cli", "embed", "exactlin", "grlie", "serialize"]),
    ("u0ext heis", 0, ["cli", "corpus", "embed", "exactlin", "grlie", "serialize"]),
    ("u0ext n3q.json", 0, ["cli", "embed", "exactlin", "grlie", "serialize"]),
]


@pytest.mark.parametrize("argv, code, loaded", COMMANDS, ids=[argv for argv, _, _ in COMMANDS])
def test_a_command_loads_only_the_modules_it_reaches(tmp_path, argv, code, loaded):
    _cli_inputs(tmp_path)
    run = ("import io, sys\n"
           "from lietrip.cli import main\n"
           "sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
           "code = main(sys.argv[1:])\n"
           "sys.stdout = sys.__stdout__\n"
           f"print(code, {LOADED})\n")
    assert _fresh(run, *argv.split(), cwd=tmp_path) == [
        f"{code} {[f'lietrip.{m}' for m in loaded]}"]


def test_every_traced_name_resolves_in_a_fresh_process():
    """Each (module, attribute) that perfbench/spans.py traces is bound, envelope_criterion
    in cohom too, where it is read from embed on first access; the traced thm-a records the
    criterion's span."""
    code = ("import importlib, io, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import spans\n"
            "from lietrip.cohom import envelope_criterion\n"
            "import lietrip, lietrip.cli, lietrip.embed\n"
            "print(envelope_criterion is lietrip.embed.envelope_criterion)\n"
            "for module, attribute, _ in spans.TRACED:\n"
            "    value = importlib.import_module(f'lietrip.{module}')\n"
            "    for part in attribute.split('.'):\n"
            "        value = getattr(value, part)\n"
            "recorder = spans.Recorder()\n"
            "recorder.install(lietrip)\n"
            "sys.stdout = io.StringIO()\n"
            "code = lietrip.cli.main(['thm-a', 'heis'])\n"
            "sys.stdout = sys.__stdout__\n"
            "print(code, 'cohom.envelope_criterion' in {s['name'] for s in recorder.spans})\n")
    assert _fresh(code, os.path.join(os.path.dirname(SRC), "perfbench")) == ["True", "0 True"]


def test_all_lists_the_public_names():
    assert lietrip.__all__ == PUBLIC


def test_every_public_name_is_the_object_of_its_home_module():
    for name in PUBLIC:
        value = getattr(lietrip, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"lietrip.{name}")
        else:
            assert value is getattr(importlib.import_module(value.__module__), name)


def test_star_import_binds_every_public_name():
    code = ("ns = {}\n"
            "exec('from lietrip import *', ns)\n"
            "print(sorted(n for n in ns if n != '__builtins__'))\n")
    assert _fresh(code) == [str(sorted(PUBLIC))]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'lietrip' has no attribute 'nosuch'"):
        lietrip.nosuch
    assert getattr(lietrip, "_nosuch", None) is None


def test_a_cochain_payload_round_trips_in_a_fresh_process(tmp_path):
    """serialize imports grlie and cohom only for a payload that holds their values, and lts
    not at all for a cochain."""
    payload = save(h2_graded(ab2(), trivial_module(ab2())).representatives[0])
    (tmp_path / "cochain.json").write_text(json.dumps(payload))
    code = ("import json, pathlib, sys\n"
            "from lietrip.serialize import load, save\n"
            f"print({LOADED})\n"
            "payload = json.loads(pathlib.Path(sys.argv[1]).read_text())\n"
            "print(save(load(payload)) == payload, 'lietrip.cohom' in sys.modules)\n")
    assert _fresh(code, str(tmp_path / "cochain.json")) == [
        "['lietrip.exactlin', 'lietrip.serialize']", "True True"]

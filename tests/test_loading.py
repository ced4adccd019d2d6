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
from lietrip.corpus import ab2, sl2lts
from lietrip.grlie import trivial_module
from lietrip.serialize import save

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lietrip.__file__)))

# lietrip.__all__ as it stood when the package imported every submodule
PUBLIC = [
    "CentralExtensionProblem", "Cochain", "Field", "GradedHom", "GradedLieAlgebra", "GradedModule",
    "H2Result", "LieTripleSystem", "LtsHom", "Matrix", "QQ", "StandardImbedding", "Subspace",
    "UniversalImbedding", "adjoint_module", "center", "central_quotient", "check_graded_lie",
    "check_lts_axioms", "coboundary", "cocycle_extension", "cohom", "derivation_algebra",
    "direct_sum", "embed", "envelope_criterion", "exactlin", "extend_hom",
    "graded_algebra_from_pairing", "graded_cochain_basis", "graded_lie", "graded_pullback", "grlie",
    "h2_graded", "ideal_closure_certificate", "imbedding_functor_hom", "inner_derivation",
    "inner_derivation_algebra", "is_0_centrally_closed", "is_generated_by_odd", "is_graded_hom",
    "is_lts_hom", "kernel_basis", "lie_triple_system", "load", "lts", "lts_of_lie",
    "module_quotient_algebra", "odd_part_lts", "pair_algebra", "quotient", "rank",
    "restrict_hom_to_odd", "rref", "save", "serialize", "solve", "split_central_0_extension",
    "standard_imbedding", "subalgebra_generated", "triple_bracket", "trivial_module",
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


@pytest.mark.parametrize("argv, loaded", [
    ("check-lts sl2lts.json", ["cli", "exactlin", "lts", "serialize"]),
    ("derive sl2lts.json", ["cli", "exactlin", "lts", "serialize"]),
    ("univ sl2lts", ["cli", "corpus", "embed", "exactlin", "grlie", "lts", "serialize"]),
    ("h2 ab2.json", ["cli", "cohom", "exactlin", "grlie", "lts", "serialize"]),
    ("thm-a heis", ["cli", "cohom", "corpus", "embed", "exactlin", "grlie", "lts", "serialize"]),
])
def test_a_command_loads_only_the_modules_it_reaches(tmp_path, argv, loaded):
    for name, obj in (("sl2lts.json", sl2lts()), ("ab2.json", ab2())):
        (tmp_path / name).write_text(json.dumps(save(obj)))
    code = ("import io, sys\n"
            "from lietrip.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            "code = main(sys.argv[1:])\n"
            "sys.stdout = sys.__stdout__\n"
            f"print(code, {LOADED})\n")
    assert _fresh(code, *argv.split(), cwd=tmp_path) == [
        f"0 {[f'lietrip.{m}' for m in loaded]}"]


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
    """serialize imports grlie and cohom only for a payload that holds their values."""
    payload = save(h2_graded(ab2(), trivial_module(ab2())).representatives[0])
    (tmp_path / "cochain.json").write_text(json.dumps(payload))
    code = ("import json, pathlib, sys\n"
            "from lietrip.serialize import load, save\n"
            f"print({LOADED})\n"
            "payload = json.loads(pathlib.Path(sys.argv[1]).read_text())\n"
            "print(save(load(payload)) == payload, 'lietrip.cohom' in sys.modules)\n")
    assert _fresh(code, str(tmp_path / "cochain.json")) == [
        "['lietrip.exactlin', 'lietrip.lts', 'lietrip.serialize']", "True True"]

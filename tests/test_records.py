"""The immutable-record base: value equality, hashing, immutability and
repr for every record class, and a start-up that imports no dataclasses."""

import os
import subprocess
import sys

import pytest

import lietrip
from lietrip.cohom import H2Result, cocycle_extension, envelope_criterion, h2_graded
from lietrip.corpus import ab2, heis, odd2
from lietrip.embed import pair_algebra, universal_imbedding, wedge_module
from lietrip.exactlin import Field, Record
from lietrip.grlie import adjoint_module, check_graded_lie, trivial_module
from lietrip.lts import (
    check_lts_axioms, derivation_algebra, ideal_closure_certificate, identity_lts_hom,
    lie_triple_system,
)

RECORD_CLASSES = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


@pytest.fixture(scope="module")
def ladder_records():
    """One instance of each record class, built from the ladder's objects."""
    env = universal_imbedding(odd2())
    wedge = wedge_module(odd2())
    mq = pair_algebra(odd2())
    criterion = envelope_criterion(env.algebra)
    M = trivial_module(ab2())
    h2 = h2_graded(ab2(), M)
    broken = lie_triple_system(lietrip.QQ, [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
                                            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]],
                               unchecked=True)
    axioms = check_lts_axioms(broken)
    instances = [
        Field(5), env.iota, env.pair.a_subspace,
        axioms.violations[0], axioms, odd2(), identity_lts_hom(odd2()),
        derivation_algebra(odd2()), ideal_closure_certificate(odd2()),
        check_graded_lie(heis()), heis(), env.upsilon, adjoint_module(heis()),
        env.ste, wedge, mq, env,
        h2.representatives[0], h2, cocycle_extension(ab2(), M, h2.representatives[0]),
        criterion,
    ]
    return {type(x): x for x in instances}


def test_ladder_covers_every_record_class(ladder_records):
    assert len(RECORD_CLASSES) == 20
    assert set(ladder_records) == set(RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls, ladder_records):
    x = ladder_records[cls]
    values = [getattr(x, name) for name in cls._fields]

    # the same fields, given positionally, rebuild an equal record
    y = cls(*values)
    assert y is not x and y == x and not y != x and hash(y) == hash(x)

    # an instance of another record class with the same values is unequal
    twin_cls = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(cls._fields, "object")})
    twin = twin_cls(*values)
    assert twin._fields == cls._fields
    assert x != twin and twin != x and not x == twin

    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert [getattr(x, name) for name in cls._fields] == values

    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(x) == f"{cls.__name__}({fields})"


def test_record_init_checks_the_argument_count():
    assert H2Result(0, 0, 0, ()) == H2Result(0, 0, 0, ())
    with pytest.raises(TypeError):
        H2Result(0, 0, 0)
    with pytest.raises(TypeError):
        H2Result(0, 0, 0, (), ())


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lietrip.__file__)))
    code = ("import sys, lietrip.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"

"""The envelope outputs, byte for byte: SHA-256 of the saved payload of each,
fixed before universal_imbedding, universal_central_0_extension and
envelope_criterion were moved onto one builder that reads A(L_1) off L's
brackets.  The digests are in envelope_digests.json, keyed "system/field".

For each triple system T (the ladder, gl(4) and a dense gl(3), over Q, F_2,
F_3 and F_5): universal_imbedding(T) (algebra, upsilon, iota), the universal
central 0-extension of A(T) (algebra, hom, kernel basis), extend_hom of the
identity of T into A(T) and into Ste(T), and the witness of
envelope_criterion(A(T)).  For the graded ladder (heis, sl2graded, sl2ds,
ab2, and A(abl(3)) divided by a central line and plane): the criterion's
witness (None when H^2 != 0) and, where the odd part generates, the
universal central 0-extension.  A matrix is hashed as its formatted rows.
"""

import hashlib
import json
from pathlib import Path

import pytest

import oracles
from lietrip.cohom import envelope_criterion
from extra_algebras import sl2_double_swap
from lietrip.corpus import ab2, abl, heis, sl2graded
from lietrip.embed import (
    extend_hom, standard_imbedding, universal_central_0_extension, universal_imbedding,
)
from lietrip.exactlin import Field, Matrix, Subspace, unit_vec
from lietrip.grlie import central_quotient
from lietrip.lts import lie_triple_system
from lietrip.serialize import fmt_matrix, save
from test_embed import DENSE_GL3
from test_lts import DENSE_SYSTEMS, ORACLE_SYSTEMS

DIGESTS = json.loads((Path(__file__).parent / "envelope_digests.json").read_text(encoding="utf-8"))

SYSTEMS = ORACLE_SYSTEMS | DENSE_SYSTEMS | {
    "grass(2,3)": oracles.grass_triple(2, 3),
    "gl(3)": oracles.lts_of_bracket(oracles.gl_bracket(3)),
    "gl(4)": oracles.lts_of_bracket(oracles.gl_bracket(4)),
    "gl(3)@1": DENSE_GL3,
}


def _graded(name, F):
    if name.startswith("A(abl(3))/"):
        A = universal_imbedding(abl(3, F)).algebra
        count = 1 if name.endswith("/line") else 2
        ideal = Subspace.span(F, A.dim, [unit_vec(F, A.dim, i) for i in range(count)])
        return central_quotient(A, ideal)[0]
    return {"heis": heis, "sl2graded": sl2graded, "sl2ds": sl2_double_swap, "ab2": ab2}[name](F)


def _digest(x):
    if x is None:
        return None
    payload = fmt_matrix(x) if isinstance(x, Matrix) else save(x)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _u0ext(L):
    ext = universal_central_0_extension(L)
    return {"u0ext.algebra": _digest(ext.phi.source), "u0ext.hom": _digest(ext.phi),
            "u0ext.kernel": _digest(ext.kernel.basis)}


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_envelope_outputs_match_their_digests(key):
    name, _, tag = key.rpartition("/")
    F = Field.from_tag(tag)
    if name in SYSTEMS:
        T = lie_triple_system(F, SYSTEMS[name])
        env = universal_imbedding(T)
        A = env.algebra
        identity = Matrix.identity(F, T.dim)
        got = {"univ.algebra": _digest(A), "univ.upsilon": _digest(env.upsilon),
               "univ.iota": _digest(env.iota), **_u0ext(A),
               "extend_hom.A": _digest(extend_hom(T, A, identity)),
               "extend_hom.Ste": _digest(extend_hom(T, standard_imbedding(T).algebra, identity)),
               "criterion.witness": _digest(envelope_criterion(A).witness)}
    else:
        L = _graded(name, F)
        report = envelope_criterion(L)
        got = {"criterion.witness": _digest(report.witness)}
        if report.generated_by_odd:
            got |= _u0ext(L)
    assert got == DIGESTS[key]

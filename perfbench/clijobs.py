"""The `cli` workload: one `lietrip` subprocess per job, one at a time.

Payload files are written from raw integers in the documented file format
(no library call), into a fixed directory that is also the subprocess's
working directory, so file names in the reports do not vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import gen


@dataclass
class CliJob:
    id: str
    argv: list
    code: int                # the exit code the README promises
    kind: str = "other"      # "thm_a" or "reject" feed the cli.* layer metrics
    frontier: bool = False
    seeded: bool = False


def _strs(x):
    return [_strs(v) for v in x] if isinstance(x, list) else str(x)


def graded_payload(dim0, dim1, bracket, field="Q"):
    return {"format_version": 1, "kind": "graded_lie", "field": field,
            "dims": {"dim0": dim0, "dim1": dim1}, "entries": _strs(bracket)}


def lts_payload(triple, field="Q"):
    return {"format_version": 1, "kind": "lts", "field": field,
            "dims": {"dim": len(triple)}, "entries": _strs(triple)}


def _free_nilpotent_3():
    """Even z12, z13, z23 then odd x1, x2, x3 with [x_i, x_j] = z_ij."""
    c = gen.zeros(6, 6, 6)
    for z, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        c[3 + i][3 + j][z] = 1
        c[3 + j][3 + i][z] = -1
    return c


def _quotient_by_z23():
    """The free algebra above with z23 set to zero: H^2 has dimension 1."""
    c = gen.zeros(5, 5, 5)
    for z, (i, j) in enumerate(((0, 1), (0, 2))):
        c[2 + i][2 + j][z] = 1
        c[2 + j][2 + i][z] = -1
    return c


def payloads() -> dict:
    """File name -> JSON payload (a dict), or raw text for the malformed file."""
    source = graded_payload(3, 3, _free_nilpotent_3())
    target = graded_payload(2, 3, _quotient_by_z23())
    projection = [[1 if c == r + (1 if r >= 2 else 0) else 0 for c in range(6)]
                  for r in range(5)]
    not_lts = gen.zeros(2, 2, 2, 2)
    not_lts[0][0][0] = [1, 0]  # [e0, e0, e0] != 0 breaks alternation
    bad_shape = graded_payload(1, 2, gen.zeros(2, 2, 2))
    zero_den = graded_payload(1, 2, gen.heis())
    zero_den["entries"][1][2][0] = "1/0"
    return {
        "sl2ds.json": graded_payload(3, 3, gen.sl2_double_swap()),
        "n3q.json": target,
        "n3proj.json": {"format_version": 1, "kind": "graded_hom", "field": "Q",
                        "dims": {"source_dim0": 3, "source_dim1": 3,
                                 "target_dim0": 2, "target_dim1": 3},
                        "entries": _strs(projection), "source": source, "target": target},
        "notlts.json": lts_payload(not_lts),
        "badshape.json": bad_shape,
        "zeroden.json": zero_den,
        "malformed.json": '{"format_version": 1, "kind": "graded_lie", "field": ',
    }


def jobs() -> list:
    return [
        CliJob("thm-a heis", ["thm-a", "heis"], 0, "thm_a"),
        CliJob("thm-a ab2", ["thm-a", "ab2"], 1, "thm_a"),
        CliJob("thm-a a_of(abl(4))", ["thm-a", "a_of(abl(4))"], 0, "thm_a", frontier=True),
        CliJob("thm-a a_of(sl2lts)", ["thm-a", "a_of(sl2lts)"], 0, "thm_a"),
        CliJob("univ sl2lts Fp:5", ["univ", "sl2lts", "--field", "Fp:5"], 0),
        CliJob("h2 sl2ds.json", ["h2", "sl2ds.json"], 0),
        CliJob("closed n3q.json", ["closed", "n3q.json"], 1),
        CliJob("split n3proj.json", ["split", "n3proj.json"], 1),
        CliJob("check-lts notlts.json", ["check-lts", "notlts.json"], 1),
        CliJob("check-graded badshape.json", ["check-graded", "badshape.json"], 2, "reject"),
        CliJob("thm-a malformed.json", ["thm-a", "malformed.json"], 2, "reject"),
        # README: invalid input exits 2.  The loader lets ZeroDivisionError
        # escape, so today this exits 1 with a traceback and counts as failed.
        CliJob("thm-a zeroden.json", ["thm-a", "zeroden.json"], 2, "reject"),
    ]


def chains() -> list:
    """Each command is its own chain, so the seed shuffles all of them."""
    return [[job] for job in jobs()]

"""Workloads: fixed job lists built from raw structure constants.

A job is one user-level request.  In-process jobs call only the public API
of ``lietrip`` and return the canonical output text (``json.dumps`` of
``save(...)`` with sorted keys) plus basis-free facts (dimensions, H^2,
verdict).  Jobs come in chains (build, then univ, then thm-a, ...); a chain
passes its objects along in a per-pass ``state`` dict.  The seed shuffles
the order of the chains and draws the seeded inputs (changes of basis,
central lines and planes); the order inside a chain is fixed.

``FACTS`` holds the expected facts per system.  They do not depend on the
basis, so one entry checks the plain and the dense runs; they do not
depend on the field unless an ``F2`` override says so, so one entry also
checks Q against F_5.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import gen

FACTS = {
    "abl3": {"dims": [3, 3], "verdict": True, "h2": 0},
    "abl4": {"dims": [6, 4], "verdict": True, "h2": 0},
    "abl5": {"dims": [10, 5]},
    "odd2": {"dims": [1, 2], "verdict": True, "h2": 0},
    "sl2lts": {"dims": [3, 3], "verdict": True, "h2": 0},
    "gl2": {"dims": [3, 4], "verdict": True, "h2": 0, "F2": {"dims": [4, 4]}},
    "gl3": {"dims": [8, 9], "verdict": True, "h2": 0, "F2": {"dims": [9, 9]}},
    "grass22": {"dims": [2, 4], "verdict": True, "h2": 0},
    "grass23": {"dims": [4, 6], "verdict": True, "h2": 0},
    "heis": {"dims": [1, 2], "verdict": True, "h2": 0},
    "sl2graded": {"dims": [1, 2], "verdict": True, "h2": 0},
    "sl2ds": {"dims": [3, 3], "verdict": True, "h2": 0},
    "ab2": {"dims": [0, 2], "verdict": False, "h2": 1},
    "cq1": {"dims": [2, 3], "verdict": False, "h2": 1, "splits": False},
    "cq2": {"dims": [1, 3], "verdict": False, "h2": 2, "splits": False},
}


def expected(system: str, field_tag: str) -> dict:
    facts = dict(FACTS[system])
    override = facts.pop("F2", {})
    if field_tag == "Fp:2":
        facts.update(override)
    return facts


@dataclass
class Job:
    id: str
    run: Callable  # state -> (text, facts)
    system: str = ""
    field_tag: str = ""
    seeded: bool = False      # output depends on the seed: no stored digest
    frontier: bool = False


@dataclass
class Workload:
    name: str
    chains: list = field(default_factory=list)
    cli: bool = False

    def jobs(self) -> list:
        return [job for chain in self.chains for job in chain]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _facts_graded(alg):
    return {"dims": [alg.dim0, alg.dim1]}


# ---------------------------------------------------------------------------
# chain builders

def lts_chain(lt, system, tag, make_raw, steps, *, from_lie=False, seeded=False,
              frontier=None):
    """build -> univ -> thm-a (and reload) for a triple system."""
    key = f"{system}/{tag}"
    F = lt.Field.from_tag(tag)
    raw = make_raw()

    def build(state):
        T = lt.lts_of_lie(raw, F) if from_lie else lt.lie_triple_system(F, raw)
        state[key] = T
        return _dump(lt.save(T)), {}

    def univ(state):
        env = lt.universal_imbedding(state[key])
        state[key + ":A"] = env.algebra
        text = _dump({"algebra": lt.save(env.algebra), "upsilon": lt.save(env.upsilon)})
        return text, _facts_graded(env.algebra)

    def thm(state):
        return _thm_a(lt, state[key + ":A"])

    def reload(state):
        payload = json.loads(_dump(lt.save(state[key + ":A"])))
        return _dump(lt.save(lt.load(payload))), _facts_graded(state[key + ":A"])

    fns = {"build": build, "univ": univ, "thm-a": thm, "reload": reload}
    return [Job(f"{key}.{s}", fns[s], system, tag, seeded, frontier == s) for s in steps]


def graded_chain(lt, system, tag, dim0, dim1, make_raw, steps=("build", "thm-a")):
    key = f"{system}/{tag}"
    F = lt.Field.from_tag(tag)
    raw = make_raw()

    def build(state):
        alg = lt.graded_lie(F, dim0, dim1, raw)
        state[key] = alg
        return _dump(lt.save(alg)), _facts_graded(alg)

    def thm(state):
        return _thm_a(lt, state[key])

    fns = {"build": build, "thm-a": thm}
    return [Job(f"{key}.{s}", fns[s], system, tag) for s in steps]


def quotient_chain(lt, tag, rng):
    """A(abl(3)) and its quotients by a seeded central line and plane.

    H^2 of each quotient is nonzero, so thm-a is false and the projection
    does not split.
    """
    F = lt.Field.from_tag(tag)
    chain = lts_chain(lt, "abl3", tag, lambda: gen.abl(3), ("build", "univ", "thm-a"))
    for count, system in ((1, "cq1"), (2, "cq2")):
        vecs = gen.central_vectors(rng, 3, 6, count)
        key = f"{system}/{tag}"

        def build(state, vecs=vecs, key=key):
            A = state[f"abl3/{tag}:A"]
            ideal = lt.Subspace.span(F, A.dim, [tuple(F.of(x) for x in v) for v in vecs])
            Q, proj = lt.central_quotient(A, ideal)
            state[key] = (Q, proj)
            return _dump({"quotient": lt.save(Q), "projection": lt.save(proj)}), _facts_graded(Q)

        def thm(state, key=key):
            return _thm_a(lt, state[key][0])

        def split(state, key=key):
            prob = lt.CentralExtensionProblem.from_hom(state[key][1])
            psi = lt.split_central_0_extension(prob)
            return (_dump({"splitting": None if psi is None else lt.save(psi)}),
                    {"splits": psi is not None})

        chain += [Job(f"{key}.build", build, system, tag, True),
                  Job(f"{key}.thm-a", thm, system, tag, True),
                  Job(f"{key}.split", split, system, tag, True)]
    return chain


def _thm_a(lt, alg):
    rep = lt.envelope_criterion(alg)
    witness = rep.witness
    text = _dump({"verdict": rep.verdict, "h2": rep.h2_dimension,
                  "generated_by_odd": rep.generated_by_odd,
                  "witness": None if witness is None else lt.save(witness)})
    return text, {"verdict": rep.verdict, "h2": rep.h2_dimension}


def dense(rng, make_raw, n):
    p, pinv = gen.unimodular(rng, n)
    return gen.change_basis(make_raw(), p, pinv)


# ---------------------------------------------------------------------------
# the workloads

FULL = ("build", "univ", "thm-a")


def ladder_q(lt, rng):
    Q = "Q"
    return [
        lts_chain(lt, "abl4", Q, lambda: gen.abl(4), ("build", "univ"), frontier="univ"),
        lts_chain(lt, "odd2", Q, gen.odd2, FULL),
        lts_chain(lt, "sl2lts", Q, gen.sl2_bracket, FULL + ("reload",), from_lie=True),
        lts_chain(lt, "gl2", Q, lambda: gen.gl_bracket(2), FULL, from_lie=True),
        lts_chain(lt, "grass22", Q, lambda: gen.grass(2, 2), FULL),
        graded_chain(lt, "heis", Q, 1, 2, gen.heis),
        graded_chain(lt, "sl2graded", Q, 1, 2, gen.sl2_bracket),
        graded_chain(lt, "sl2ds", Q, 3, 3, gen.sl2_double_swap),
        graded_chain(lt, "ab2", Q, 0, 2, lambda: gen.zeros(2, 2, 2)),
        quotient_chain(lt, Q, rng),
    ]


def ladder_fp(lt, rng):
    F5, F2 = "Fp:5", "Fp:2"
    return [
        lts_chain(lt, "gl3", F5, lambda: gen.gl_bracket(3), ("build",), from_lie=True,
                  frontier="build"),
        lts_chain(lt, "grass23", F5, lambda: gen.grass(2, 3), FULL),
        lts_chain(lt, "abl5", F5, lambda: gen.abl(5), ("build", "univ")),
        lts_chain(lt, "gl2", F2, lambda: gen.gl_bracket(2), FULL, from_lie=True),
        lts_chain(lt, "gl2", F5, lambda: gen.gl_bracket(2), FULL, from_lie=True),
        lts_chain(lt, "sl2lts", F5, gen.sl2_bracket, FULL + ("reload",), from_lie=True),
        lts_chain(lt, "odd2", F5, gen.odd2, FULL),
        graded_chain(lt, "heis", F2, 1, 2, gen.heis),
        graded_chain(lt, "sl2ds", F5, 3, 3, gen.sl2_double_swap),
        graded_chain(lt, "ab2", F5, 0, 2, lambda: gen.zeros(2, 2, 2)),
        quotient_chain(lt, F5, rng),
    ]


def dense_basis(lt, rng):
    Q, F5 = "Q", "Fp:5"
    chains = []
    for tag in (Q, F5):
        # draw every change of basis up front so each field sees its own
        gl2 = dense(rng, lambda: gen.gl_bracket(2), 4)
        sl2 = dense(rng, gen.sl2_bracket, 3)
        chains += [
            lts_chain(lt, "gl2", tag, lambda d=gl2: d, FULL, from_lie=True, seeded=True),
            lts_chain(lt, "sl2lts", tag, lambda d=sl2: d, FULL + ("reload",), from_lie=True,
                      seeded=True),
        ]
    g22 = dense(rng, lambda: gen.grass(2, 2), 4)
    g23 = dense(rng, lambda: gen.grass(2, 3), 6)
    chains += [
        lts_chain(lt, "grass22", F5, lambda: g22, FULL, seeded=True),
        lts_chain(lt, "grass23", F5, lambda: g23, ("build",), seeded=True, frontier="build"),
        quotient_chain(lt, Q, rng),
    ]
    return chains


WORKLOADS = {
    "ladder-q": ladder_q,
    "ladder-fp": ladder_fp,
    "dense-basis": dense_basis,
}


def build_workload(lt, name: str, seed: int) -> Workload:
    """Generate the workload's inputs from the seed, then shuffle its chains."""
    rng = random.Random(seed)
    if name == "cli":
        import clijobs
        chains = clijobs.chains()
        wl = Workload(name, chains, cli=True)
    else:
        wl = Workload(name, WORKLOADS[name](lt, rng))
    random.Random(seed ^ 0x5EED).shuffle(wl.chains)
    return wl


def check_facts(job: Job, facts: dict) -> Optional[str]:
    """None when the facts agree with the table, else a description."""
    if not job.system:
        return None
    want = expected(job.system, job.field_tag)
    for k, v in facts.items():
        if k in want and want[k] != v:
            return f"{k} = {v}, expected {want[k]}"
    return None

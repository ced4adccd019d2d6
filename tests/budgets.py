"""Time and memory budgets of the library's calls on inputs near the wall.

Run from the root of the repository as
``PYTHONPATH=src:perfbench python tests/budgets.py``.  Each budget runs once
per field it names, each run in a fresh interpreter (its imports, caches and
peak RSS its own) and under its address-space cap if it has one.  The
runner prints one line per run, each measured value beside its bound, and
exits 1 if any run goes over a bound, raises, or is still running at its
timeout.

To add a budget, add one function decorated with ``@budget`` that builds its
input, times the call with ``timed``, asserts the answer and returns its
checks, made with ``under``; above it, give the reason for each bound: what
the call takes today and what the slow path that the bound catches took.
"""

import contextlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from importlib import import_module
from pathlib import Path
from random import Random

# perfbench's gen is imported where it is used: the runner itself needs only src
from lietrip import (
    CentralExtensionProblem, Field, QQ, Subspace, check_graded_lie, check_lts_axioms, coboundary,
    cocycle_extension, envelope_criterion, graded_cochain_basis, h2_graded,
    ideal_closure_certificate, is_0_centrally_closed, lie_triple_system, lts_of_lie, save,
    split_central_0_extension, trivial_module, universal_central_0_extension, universal_imbedding,
)
from lietrip.cli import main
from lietrip.corpus import abl
from lietrip.grlie import central_quotient

Budget = namedtuple("Budget", "run fields timeout cap_kb")
BUDGETS = []
CAP_KB = 1_000_000  # the address-space cap of the large command-line runs, as ulimit -v takes it
# a fresh interpreter runs one budget, with this directory on its path
_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from budgets import _child; _child(*sys.argv[2:])"


def budget(fields=(None,), timeout=60, cap_kb=None):
    """Register a budget, run once per field tag (with no argument for None),
    killed at timeout seconds and capped at cap_kb KB of address space."""
    def register(run):
        BUDGETS.append(Budget(run, fields, timeout, cap_kb))
        return run
    return register


def timed(call, *args, **kwargs):
    """(seconds, result) of call(*args, **kwargs), on the one clock every budget reads."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return time.perf_counter() - start, result


def under(label, value, bound, unit="s"):
    """The check that value, measured in unit, stays under bound."""
    return label, value, bound, unit, value < bound


def _child(name, module, function, field, cap_kb):
    """Run one budget here, print its line under name and exit 1 if it failed."""
    if cap_kb:
        resource.setrlimit(resource.RLIMIT_AS, (int(cap_kb) * 1024,) * 2)
    try:
        run = getattr(import_module(module), function)
        checks = run(field) if field else run()
        passed = all(ok for *_, ok in checks)
        text = ", ".join(f"{label} {value:.3g} {unit} (bound {bound:.3g} {unit})"
                         for label, value, bound, unit, _ in checks)
    except Exception as exc:  # the budget's failure, reported in its one line
        passed = False
        text = "raised " + ": ".join([type(exc).__name__, *str(exc).splitlines()[:1]])
        text += f" under its {int(cap_kb):,} KB address-space cap" if cap_kb else ""
    print(f"{'ok  ' if passed else 'FAIL'} {name}: {text}")
    sys.exit(0 if passed else 1)


def run(budgets):
    """Run every budget once per field, print one line per run, and return 1
    if any run failed, else 0."""
    failed = False
    for entry in budgets:
        for field in entry.fields:
            name = entry.run.__name__ + (f" over {field}" if field else "")
            command = [sys.executable, "-c", _CHILD, str(Path(__file__).parent), name,
                       Path(entry.run.__code__.co_filename).stem, entry.run.__name__, field or "",
                       str(entry.cap_kb or "")]
            # timeout signals the run's whole process group, command-line runs it started included
            done = subprocess.run(["timeout", f"{entry.timeout:g}", *command], capture_output=True, text=True)
            if done.returncode == 124:
                line = f"FAIL {name}: still running at its {entry.timeout:g} s timeout"
            elif done.stdout:
                line = done.stdout.splitlines()[-1]
            else:
                last = done.stderr.strip().rpartition("\n")[2]
                line = f"FAIL {name}: exited {done.returncode}: {last}"
            print(line, flush=True)
            failed |= done.returncode != 0
    return int(failed)


def _cli(args, **options):
    return subprocess.run([sys.executable, "-m", "lietrip.cli", *args], **options)


def _line_quotient(n, F):
    """(L, projection) of A(abl(n)) over F onto its quotient by a central line."""
    A = universal_imbedding(abl(n, F)).algebra
    return central_quotient(A, Subspace.span(F, A.dim, [[1] + [0] * (A.dim - 1)]))


# universal_imbedding of the 25-dimensional gl(5) over F_5 and Q: 0.04-0.08 s
# on the sparse pair-algebra path, 10 s and 25 s on the dense one, so an 8 s
# budget catches a fall-back that the 60 s timeout alone would not
@budget(fields=("Fp:5", "Q"))
def gl5_universal_imbedding(tag):
    import gen
    seconds, imbedding = timed(universal_imbedding, lts_of_lie(gen.gl_bracket(5), Field.from_tag(tag)))
    A = imbedding.algebra
    assert (A.dim0, A.dim1) == (24, 25), (A.dim0, A.dim1)
    return [under("universal_imbedding", seconds, 8)]


# lie_triple_system of gl(4) in a dense basis (61,440 of 65,536 entries
# nonzero) decides the derivation identity in the coordinates of the
# 15-dimensional Inder(T): 0.17-0.31 s over F_5 and 0.49-0.96 s over Q;
# reading it at the 15 of 120 pairs that span Inder(T) took 1.3-2.0 s and
# 3.7-4.6 s, so the budgets catch a fall-back
@budget(fields=("Fp:5", "Q"), timeout=120)
def dense_gl4_build(tag):
    import gen
    raw = [[[[int(x) for x in v] for v in tij] for tij in ti]
           for ti in lts_of_lie(gen.gl_bracket(4), Field()).triple]
    dense = gen.change_basis(raw, *gen.unimodular(Random(1), 16))
    seconds, T = timed(lie_triple_system, Field.from_tag(tag), dense)
    assert check_lts_axioms(T).ok
    return [under("lie_triple_system", seconds, {"Fp:5": 1.2, "Q": 3.5}[tag])]


# ideal_closure_certificate of gl(3) in a dense basis over Q, derive
# included: the identity [D, D_{a,b}] = D_{Da,b} + D_{a,Db} compared as
# integer dicts takes 0.4-0.8 s, and 2.6-3.0 s in Fraction arithmetic, so
# a 1.5 s budget catches a fall-back to it
@budget()
def dense_gl3_certificate():
    import gen
    T = lts_of_lie(gen.change_basis(gen.gl_bracket(3), *gen.unimodular(Random(1), 9)), QQ)
    seconds, cert = timed(ideal_closure_certificate, T)
    assert cert.ok and cert.checked_pairs == 324, cert
    return [under("ideal_closure_certificate", seconds, 1.5)]


# the structure passes visit only chains of nonzero constants: the graded
# check of A(abl(16)) over Q (136-dimensional, 120 brackets) takes
# 0.008-0.015 s, and walked all 410,040 Jacobi triples in 1.2-1.4 s;
# lts_of_lie of the raw gl(8) bracket takes 0.05-0.09 s over F_5 and
# 0.07-0.12 s over Q, and took
# 0.56-0.83 s and 0.60-0.66 s on the index cube, so budgets of 0.25 s and
# 0.4 s catch a fall-back to it
@budget(fields=("Fp:5", "Q"))
def structure_checks(tag):
    import gen
    F, checks = Field.from_tag(tag), []
    if F.p is None:
        seconds, report = timed(check_graded_lie, universal_imbedding(abl(16)).algebra)
        assert report.ok
        checks.append(under("check_graded_lie", seconds, 0.25))
    seconds, T = timed(lts_of_lie, gen.gl_bracket(8), F)
    assert T.dim == 64
    return checks + [under("lts_of_lie", seconds, 0.4)]


# envelope_criterion and is_0_centrally_closed of A(abl(16)) over Q read
# H^2 off the rank of the radical in 0.015-0.025 s each; H^2 by elimination
# of d1 and d2 took 6-9 s, so a 4 s budget for each catches a fall-back to it
@budget()
def abl16_criterion():
    A = universal_imbedding(abl(16)).algebra
    seconds, report = timed(envelope_criterion, A)
    assert report.verdict and report.h2_dimension == 0
    closed_seconds, closed = timed(is_0_centrally_closed, A)
    assert closed
    return [under("envelope_criterion", seconds, 4), under("is_0_centrally_closed", closed_seconds, 4)]


# load reads each distinct scalar of a payload once, and "0" as the exact
# int 0: thm-a and check-graded on the 12.6 MB A(abl(16)) file over Q (2.5
# million scalars, three distinct) take 1.2-2.1 s and 0.26-0.52 s, where
# coercing every scalar took 12-14 s and 11-12 s, so a 4 s budget for each
# catches a fall-back
@budget(timeout=120)
def abl16_payload_file():
    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a_abl16.json"
        path.write_text(json.dumps(save(universal_imbedding(abl(16)).algebra)))
        for command in ("thm-a", "check-graded"):
            seconds, done = timed(_cli, [command, str(path)], stdout=subprocess.DEVNULL, timeout=60)
            assert done.returncode == 0, f"{command} exited {done.returncode}"
            checks.append(under(command, seconds, 4))
    return checks


# a hom payload's entries, and those of its source and target, reach the
# records through one read each, every distinct scalar coerced once: split
# on the 25 MB graded_hom payload of A(abl(16)) onto its quotient by a
# central line exits 1 in 0.57-1.07 s, where coercing every scalar took 22-24 s,
# so a 6 s budget catches a fall-back
@budget(timeout=120)
def abl16_hom_payload_file():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a_abl16_line.json"
        path.write_text(json.dumps(save(_line_quotient(16, Field())[1])))
        seconds, done = timed(_cli, ["split", str(path)], stdout=subprocess.DEVNULL, timeout=60)
    assert done.returncode == 1, f"split exited {done.returncode}"
    return [under("split", seconds, 6)]


# universal_central_0_extension reads A(L_1) off L's own brackets, by the
# builder envelope_criterion uses: on A(gl(6)) over Q the two take about the
# same time, where building A(L_1) from Ste(L_1) and extending the identity
# took 2.6-3.1 times the criterion's
@budget()
def gl6_universal_central_0_extension():
    import gen
    A = universal_imbedding(lts_of_lie(gen.gl_bracket(6), Field())).algebra
    criterion, u0ext = (min(timed(call, A)[0] for _ in range(3))
                        for call in (envelope_criterion, universal_central_0_extension))
    assert universal_central_0_extension(A).kernel.dim == 0
    return [("u0ext / criterion", u0ext / criterion, 1.5, "x", u0ext <= 1.5 * criterion),
            under("universal_central_0_extension", u0ext, 2)]


# cocycle_extension checks sigma through the grading and the Jacobi identity
# of the algebra it builds: the 28 extensions of A(abl(8)) by the
# coboundaries of its graded 1-cochains take 0.02-0.08 s over F_5 and Q,
# where building the whole degree-2 differential for each sigma took
# 1.5-2.1 s, so a 0.5 s budget catches a fall-back to it
@budget(fields=("Fp:5", "Q"))
def abl8_cocycle_extensions(tag):
    L = universal_imbedding(abl(8, Field.from_tag(tag))).algebra
    M = trivial_module(L)
    sigmas = [coboundary(g) for g in graded_cochain_basis(L, M, 1)]
    seconds, problems = timed(lambda: [cocycle_extension(L, M, sigma) for sigma in sigmas])
    assert len(problems) == 28 and all(p.kernel.dim == 1 for p in problems)
    return [under("28 cocycle_extension calls", seconds, 0.5)]


# h2_graded builds d1 and d2 column by column at the graded 1- and 2-slots:
# on A(abl(12)) modulo a central line it takes 0.08-0.15 s over Q and F_5,
# where building d2 row by row over every 3-combination took 0.37-0.54 s
# over Q and 0.64 s over F_5, so a 0.3 s budget catches a fall-back to it
@budget(fields=("Fp:5", "Q"))
def abl12_quotient_h2(tag):
    L = _line_quotient(12, Field.from_tag(tag))[0]
    seconds, result = timed(h2_graded, L, trivial_module(L))
    dims = (result.dimension, result.cocycle_dim, result.coboundary_dim)
    assert dims == (1, 66, 65), dims
    return [under("h2_graded", seconds, 0.3)]


# split_central_0_extension takes tau from one elimination of [even brackets
# | sigma], L.dim0 + k columns: on A(abl(16)) modulo a central line it
# returns None in 0.045-0.077 s over Q and 0.026-0.057 s over F_5, where the
# k-fold system solved with a certificate block took 0.69-0.98 s and
# 0.67-0.76 s, so a 0.3 s budget catches a fall-back.  The CLI's split of
# the same projection, read from a file, takes its obstruction's H^2 from
# the envelope criterion: 0.51-0.67 s over Q and 0.43-0.81 s over F_5, where
# eliminating d2 took 1.27-1.73 s and 1.28-1.52 s, so a 1.2 s budget
# catches a return to d2
@budget(fields=("Fp:5", "Q"))
def abl16_quotient_split(tag):
    proj = _line_quotient(16, Field.from_tag(tag))[1]
    prob = CentralExtensionProblem.from_hom(proj)
    seconds, psi = timed(split_central_0_extension, prob)
    assert psi is None and prob.kernel.dim == 1
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        path = Path(tmp) / "proj.json"
        path.write_text(json.dumps(save(proj)))
        cli_seconds, code = timed(main, ["split", str(path)])
    assert code == 1 and json.loads(out.getvalue())["witnesses"]["h2_dim"] == 1, code
    return [under("split_central_0_extension", seconds, 0.3), under("CLI split", cli_seconds, 1.2)]


# A(abl(24)) over F_5 has 552 nonzero structure constants among 27 million;
# stored as nonzeros it peaks near 21 MB in 0.013-0.028 s, stored densely it
# took 551 MB, so a 150 MB budget catches a dense tensor
@budget()
def abl24_universal_imbedding_memory():
    seconds, imbedding = timed(lambda: universal_imbedding(abl(24, Field(5))))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    A = imbedding.algebra
    assert (A.dim0, A.dim1) == (276, 24), (A.dim0, A.dim1)
    return [under("peak RSS", peak_mb, 150, "MB"), under("universal_imbedding", seconds, 10)]


def _large_cli_run(args):
    """(checks, report) of the command line on args under this run's address-space
    cap: its seconds beside the timeout, and its peak RSS beside the cap."""
    seconds, done = timed(_cli, args, stdout=subprocess.PIPE)
    assert done.returncode == 0, f"{args[0]} exited {done.returncode}"
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    checks = [under(args[0], seconds, 120), under("peak RSS", peak_mb, CAP_KB / 1024, "MB")]
    return checks, json.loads(done.stdout)


# the largest A(abl(n)) thm-a run: one JSON report and exit 0 within 120 s
# and 1 GB of address space (0.49-0.73 s at 145 MB), where the dense d2 ran
# out of memory
@budget(timeout=120, cap_kb=CAP_KB)
def abl14_thm_a_memory():
    return _large_cli_run(["thm-a", "a_of(abl(14))"])[0]


# h2 is the one command that eliminates H^2 on a universal imbedding: d1 and
# d2 of A(abl(14)) over Q, each once and exactly, in 0.33-0.52 s at 24 MB;
# before the sparse graded rows, a_of(abl(12)) took 52.5 s and 2.6 GB, so
# 120 s and 1 GB of address space catch a fall-back
@budget(timeout=120, cap_kb=CAP_KB)
def abl14_h2_memory():
    checks, report = _large_cli_run(["h2", "a_of(abl(14))"])
    assert report["dimensions"] == {"h2": 0, "cocycles": 91, "coboundaries": 91}, report["dimensions"]
    return checks


if __name__ == "__main__":
    sys.exit(run(BUDGETS))

"""Command-line interface.

Inputs are JSON files or corpus names (e.g. ``heis``, ``abl(3)``,
``a_of(odd2)``).  Every command prints a single JSON report to stdout and
human-readable diagnostics to stderr.  Exit codes: 0 pass/true, 1
fail/false, 2 invalid input, 3 internal error (a library self-check failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import corpus
from .cohom import (
    CentralExtensionProblem, envelope_criterion, h2_graded,
    split_central_0_extension,
)
from .embed import standard_imbedding, universal_central_0_extension, universal_imbedding, extend_hom
from .exactlin import Field, inverse
from .grlie import GradedHom, GradedLieAlgebra, GradedModule, check_graded_lie, trivial_module
from .lts import (
    LieTripleSystem, LtsHom, check_lts_axioms, derivation_algebra, ideal_closure_certificate,
    inner_derivation_algebra, odd_part_lts,
)
from .serialize import PayloadError, fmt_matrix, load, save

EXIT_PASS, EXIT_FAIL, EXIT_INVALID, EXIT_INTERNAL = 0, 1, 2, 3


class InputError(Exception):
    pass


def _load_input(arg: str, field: Field, unchecked: bool):
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            return load(payload, unchecked=unchecked)
        # ValueError covers bad JSON and payloads, RecursionError too deep a nesting
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(f"{arg}: {exc}") from None
    try:
        return corpus.by_name(arg, field)
    except KeyError:
        raise InputError(f"{arg}: not a readable file and not a corpus name") from None
    except ValueError as exc:
        raise InputError(f"{arg}: {exc}") from None


def _expect(obj, cls, what: str):
    if not isinstance(obj, cls):
        raise InputError(f"expected {what}, found {type(obj).__name__}")
    return obj


def _report(command: str, inputs: list, field: Field, verdict, dimensions: dict,
            witnesses: dict, derived: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "field": field.tag,
        "verdict": verdict,
        "dimensions": dimensions,
        "witnesses": witnesses,
        "derived": derived,
    }


def _violations_payload(violations, limit: int = 25) -> dict:
    return {
        "count": len(violations),
        "first": [
            {"identity": v[0] if isinstance(v, tuple) else v.identity,
             "indices": list(v[1] if isinstance(v, tuple) else v.indices)}
            for v in violations[:limit]
        ],
    }


def _run_corpus(args) -> tuple[dict, int]:
    obj = corpus.by_name(args.name, args.field)
    kind = "lts" if isinstance(obj, LieTripleSystem) else "graded_lie"
    dims = ({"dim": obj.dim} if kind == "lts"
            else {"dim0": obj.dim0, "dim1": obj.dim1})
    report = _report("corpus", [args.name], args.field, "pass", dims, {},
                     {args.name: save(obj, name=args.name)})
    return report, EXIT_PASS


def _run_check_lts(args) -> tuple[dict, int]:
    T = _expect(_load_input(args.input, args.field, unchecked=True),
                LieTripleSystem, "a Lie triple system")
    result = check_lts_axioms(T)
    verdict = "pass" if result.ok else "fail"
    report = _report("check-lts", [args.input], T.field, verdict, {"dim": T.dim},
                     {} if result.ok else {"violations": _violations_payload(result.violations)},
                     {})
    return report, EXIT_PASS if result.ok else EXIT_FAIL


def _run_check_graded(args) -> tuple[dict, int]:
    L = _expect(_load_input(args.input, args.field, unchecked=True),
                GradedLieAlgebra, "a graded Lie algebra")
    result = check_graded_lie(L)
    verdict = "pass" if result.ok else "fail"
    report = _report("check-graded", [args.input], L.field, verdict,
                     {"dim0": L.dim0, "dim1": L.dim1},
                     {} if result.ok else {"violations": _violations_payload(result.violations)},
                     {})
    return report, EXIT_PASS if result.ok else EXIT_FAIL


def _run_derive(args) -> tuple[dict, int]:
    T = _expect(_load_input(args.input, args.field, args.unchecked),
                LieTripleSystem, "a Lie triple system")
    der = derivation_algebra(T)
    report = _report("derive", [args.input], T.field, "pass",
                     {"dim": der.dim},
                     {},
                     {"basis": [fmt_matrix(m) for m in der.basis],
                      "bracket_table": [[list(map(T.field.fmt, v)) for v in row]
                                        for row in der.bracket]})
    return report, EXIT_PASS


def _run_inder(args) -> tuple[dict, int]:
    T = _expect(_load_input(args.input, args.field, args.unchecked),
                LieTripleSystem, "a Lie triple system")
    ind = inner_derivation_algebra(T)
    cert = ideal_closure_certificate(T)
    report = _report("inder", [args.input], T.field, "pass",
                     {"dim": ind.dim},
                     {"ideal_closure": cert.ok, "checked_pairs": cert.checked_pairs},
                     {"basis": [fmt_matrix(m) for m in ind.basis]})
    return report, EXIT_PASS


def _run_ste(args) -> tuple[dict, int]:
    T = _expect(_load_input(args.input, args.field, args.unchecked),
                LieTripleSystem, "a Lie triple system")
    ste = standard_imbedding(T)
    report = _report("ste", [args.input], T.field, "pass",
                     {"dim0": ste.algebra.dim0, "dim1": ste.algebra.dim1},
                     {},
                     {"algebra": save(ste.algebra, name=f"ste({args.input})"),
                      "inclusion": fmt_matrix(ste.inclusion)})
    return report, EXIT_PASS


def _run_univ(args) -> tuple[dict, int]:
    T = _expect(_load_input(args.input, args.field, args.unchecked),
                LieTripleSystem, "a Lie triple system")
    env = universal_imbedding(T)
    report = _report("univ", [args.input], T.field, "pass",
                     {"dim0": env.algebra.dim0, "dim1": env.algebra.dim1,
                      "kernel_dim": env.upsilon.kernel().dim},
                     {},
                     {"algebra": save(env.algebra, name=f"a_of({args.input})"),
                      "iota": fmt_matrix(env.iota),
                      "upsilon": save(env.upsilon),
                      "kernel_basis": fmt_matrix(env.upsilon.kernel().basis)})
    return report, EXIT_PASS


def _run_extend(args) -> tuple[dict, int]:
    hom = _expect(_load_input(args.hom, args.field, args.unchecked),
                  LtsHom, "a triple-system hom file")
    L = _expect(_load_input(args.target, args.field, args.unchecked),
                GradedLieAlgebra, "a graded Lie algebra")
    if odd_part_lts(L).triple != hom.target.triple:
        raise InputError("the hom's target is not the odd part of the target algebra")
    ext = extend_hom(hom.source, L, hom.matrix)
    report = _report("extend", [args.hom, args.target], L.field, "pass",
                     {"source_dim0": ext.source.dim0, "source_dim1": ext.source.dim1},
                     {},
                     {"extension": save(ext)})
    return report, EXIT_PASS


def _load_module_arg(args, L: GradedLieAlgebra) -> GradedModule:
    if getattr(args, "module", None):
        M = _expect(_load_input(args.module, args.field, args.unchecked),
                    GradedModule, "a module file")
        if M.algebra != L:
            raise InputError("module file is over a different algebra")
        return M
    return trivial_module(L)


def _run_h2(args) -> tuple[dict, int]:
    L = _expect(_load_input(args.input, args.field, args.unchecked),
                GradedLieAlgebra, "a graded Lie algebra")
    M = _load_module_arg(args, L)
    result = h2_graded(L, M)
    report = _report("h2", [args.input] + ([args.module] if args.module else []),
                     L.field, "pass",
                     {"h2": result.dimension, "cocycles": result.cocycle_dim,
                      "coboundaries": result.coboundary_dim},
                     {},
                     {"representatives": [save(f) for f in result.representatives]})
    return report, EXIT_PASS


def _run_split(args) -> tuple[dict, int]:
    phi = _expect(_load_input(args.hom, args.field, args.unchecked),
                  GradedHom, "a graded hom file")
    try:
        prob = CentralExtensionProblem.from_hom(phi)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    psi = split_central_0_extension(prob)
    if psi is None:
        h2 = h2_graded(prob.base, trivial_module(prob.base, prob.kernel.dim or 1))
        report = _report("split", [args.hom], phi.matrix.field, "false",
                         {"kernel_dim": prob.kernel.dim},
                         {"obstruction": "the defining cocycle class is nonzero",
                          "h2_dim": h2.dimension},
                         {})
        return report, EXIT_FAIL
    report = _report("split", [args.hom], phi.matrix.field, "true",
                     {"kernel_dim": prob.kernel.dim},
                     {},
                     {"splitting": save(psi)})
    return report, EXIT_PASS


def _run_closed(args) -> tuple[dict, int]:
    L = _expect(_load_input(args.input, args.field, args.unchecked),
                GradedLieAlgebra, "a graded Lie algebra")
    h2 = h2_graded(L, trivial_module(L))
    closed = h2.dimension == 0
    report = _report("closed", [args.input], L.field, "true" if closed else "false",
                     {"h2": h2.dimension}, {}, {})
    return report, EXIT_PASS if closed else EXIT_FAIL


def _run_thm_a(args) -> tuple[dict, int]:
    L = _expect(_load_input(args.input, args.field, args.unchecked),
                GradedLieAlgebra, "a graded Lie algebra")
    result = envelope_criterion(L)
    witnesses: dict = {"generated_by_odd": result.generated_by_odd,
                       "h2_dimension": result.h2_dimension}
    derived: dict = {}
    if result.verdict:
        hom = result.witness
        inv = inverse(hom.matrix)
        witnesses["isomorphism"] = fmt_matrix(hom.matrix)
        witnesses["isomorphism_inverse"] = fmt_matrix(inv)
        derived["envelope_of_odd_part"] = save(hom.source, name="a_of(odd part)")
    else:
        witnesses["obstruction"] = result.obstruction
    report = _report("thm-a", [args.input], L.field,
                     "true" if result.verdict else "false",
                     {"dim0": L.dim0, "dim1": L.dim1, "h2": result.h2_dimension},
                     witnesses, derived)
    return report, EXIT_PASS if result.verdict else EXIT_FAIL


def _run_u0ext(args) -> tuple[dict, int]:
    L = _expect(_load_input(args.input, args.field, args.unchecked),
                GradedLieAlgebra, "a graded Lie algebra")
    try:
        ext = universal_central_0_extension(L)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    report = _report("u0ext", [args.input], L.field, "pass",
                     {"dim0": ext.envelope.algebra.dim0,
                      "dim1": ext.envelope.algebra.dim1,
                      "kernel_dim": ext.kernel.dim},
                     {},
                     {"total": save(ext.envelope.algebra),
                      "upsilon_hat": save(ext.hom),
                      "kernel_basis": fmt_matrix(ext.kernel.basis)})
    return report, EXIT_PASS


_COMMANDS = {
    "corpus": _run_corpus,
    "check-lts": _run_check_lts,
    "check-graded": _run_check_graded,
    "derive": _run_derive,
    "inder": _run_inder,
    "ste": _run_ste,
    "univ": _run_univ,
    "extend": _run_extend,
    "h2": _run_h2,
    "split": _run_split,
    "closed": _run_closed,
    "thm-a": _run_thm_a,
    "u0ext": _run_u0ext,
}


def _parse_field(text: str) -> Field:
    try:
        return Field.from_tag(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lietrip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", type=_parse_field, default=Field(),
                       help="base field for corpus names: Q (default) or Fp:<p>")
        p.add_argument("--unchecked", action="store_true",
                       help="skip invariant validation when loading files")
        p.add_argument("--out", help="also write the report JSON to this path")

    p = sub.add_parser("corpus", help="emit a named example")
    p.add_argument("name")
    common(p)
    for cmd, help_text in [
        ("check-lts", "verify the triple-system axioms"),
        ("check-graded", "verify the graded Lie algebra axioms"),
        ("derive", "compute the derivation algebra"),
        ("inder", "compute the inner derivations with the ideal certificate"),
        ("ste", "compute the standard imbedding"),
        ("univ", "compute the universal imbedding with iota, upsilon and its kernel"),
        ("h2", "graded H^2 with trivial coefficients (or a module file)"),
        ("closed", "decide whether every central 0-extension splits"),
        ("thm-a", "generated-by-odd and 0-centrally-closed, with a witness"),
        ("u0ext", "universal central 0-extension of a graded algebra"),
    ]:
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("input", help="JSON file or corpus name")
        if cmd == "h2":
            p.add_argument("module", nargs="?", help="optional module file")
        common(p)
    p = sub.add_parser("extend", help="extend a triple-system hom to the universal imbedding")
    p.add_argument("hom", help="lts_hom JSON file (target = odd part of the algebra)")
    p.add_argument("target", help="graded algebra JSON file or corpus name")
    common(p)
    p = sub.add_parser("split", help="attempt to split a central 0-extension")
    p.add_argument("hom", help="graded_hom JSON file")
    common(p)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PayloadError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"internal error: {args.command}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    if report["verdict"] in ("fail", "false"):
        print(f"{args.command}: {report['verdict']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

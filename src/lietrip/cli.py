"""Command-line interface.

Inputs are JSON files or corpus names (e.g. ``heis``, ``abl(3)``,
``a_of(odd2)``), validated on loading; check-lts and check-graded run the
axiom check of a file themselves.  Every command prints a single JSON report
to stdout and human-readable diagnostics to stderr.  Exit codes: 0 pass/true,
1 fail/false, 2 invalid input, 3 internal error (a library fault, or out of
memory in the run, the report's encoding or its writing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

# lts, grlie, embed, cohom and corpus load where a command needs them; inputs go by class name
from .exactlin import Field, Refusal, inverse
from .serialize import MAX_SCALAR_CHARS, fmt_matrix, fmt_terms, load, save

EXIT_PASS, EXIT_FAIL, EXIT_INVALID, EXIT_INTERNAL = 0, 1, 2, 3

# what an input of each kind is called when a file holds another kind
_KINDS = {
    "LieTripleSystem": "a Lie triple system",
    "GradedLieAlgebra": "a graded Lie algebra",
    "LtsHom": "a triple-system hom file",
    "GradedHom": "a graded hom file",
    "GradedModule": "a module file",
}


def _parse_int(literal: str) -> int:
    """json's reader of an integer literal: one of more than MAX_SCALAR_CHARS digits is refused."""
    digits = len(literal.lstrip("-"))
    if digits > MAX_SCALAR_CHARS:
        raise ValueError(f"integer literal of {digits:,} digits, over the limit of {MAX_SCALAR_CHARS:,}")
    return int(literal)


def _load_input(arg: str, cls: Optional[str], field: Field, _trusted: bool):
    """The input arg names, a file or a corpus name, checked to be of the class named cls (None
    takes a corpus name only), or one Refusal that names arg."""
    if cls is None or not os.path.exists(arg):
        from . import corpus
        try:  # the lookup's refusals only: a fault while the object is built is the library's
            build = corpus.builder(arg)
        except KeyError:
            what = "a corpus name" if cls is None else "a readable file and not a corpus name"
            raise Refusal(f"{arg}: not {what}") from None
        except ValueError as exc:
            raise Refusal(f"{arg}: {exc}") from None
        obj = build(field)
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                obj = load(json.load(fh, parse_int=_parse_int), _trusted=_trusted)
        # ValueError covers bad JSON and payloads, RecursionError too deep a nesting
        except (OSError, ValueError, RecursionError) as exc:
            raise Refusal(f"{arg}: {exc}") from None
    if cls is not None and type(obj).__name__ != cls:
        raise Refusal(f"expected {_KINDS[cls]}, found {type(obj).__name__}")
    return obj


# Each runner maps the loaded inputs, after the list of their names, to
# (verdict, dimensions, witnesses, derived); main builds the report.

def _checked(result, dimensions: dict):
    """An axiom check's verdict, with the count and the first 25 violations."""
    if result.ok:
        return "pass", dimensions, {}, {}
    first = [{"identity": v.identity, "indices": list(v.indices)} for v in result.violations[:25]]
    return "fail", dimensions, {"violations": {"count": len(result.violations), "first": first}}, {}


def _run_corpus(names, obj):
    dims = ({"dim": obj.dim} if type(obj).__name__ == "LieTripleSystem"
            else {"dim0": obj.dim0, "dim1": obj.dim1})
    return "pass", dims, {}, {names[0]: save(obj, name=names[0])}


def _run_check_lts(names, T):
    from .lts import check_lts_axioms
    return _checked(check_lts_axioms(T), {"dim": T.dim})


def _run_check_graded(names, L):
    from .grlie import check_graded_lie
    return _checked(check_graded_lie(L), {"dim0": L.dim0, "dim1": L.dim1})


def _run_derive(names, T):
    from .lts import derivation_algebra
    der = derivation_algebra(T)
    return "pass", {"dim": der.dim}, {}, {
        "basis": [fmt_matrix(m) for m in der.basis],
        "bracket_table": fmt_terms(T.field, der.dim, der.algebra.terms, 2)}


def _run_inder(names, T):
    from .lts import ideal_closure_certificate, inner_derivation_algebra
    ind = inner_derivation_algebra(T)
    cert = ideal_closure_certificate(T)
    return ("pass", {"dim": ind.dim},
            {"ideal_closure": cert.ok, "checked_pairs": cert.checked_pairs},
            {"basis": [fmt_matrix(m) for m in ind.basis]})


def _run_ste(names, T):
    from .embed import standard_imbedding
    ste = standard_imbedding(T)
    return "pass", {"dim0": ste.algebra.dim0, "dim1": ste.algebra.dim1}, {}, {
        "algebra": save(ste.algebra, name=f"ste({names[0]})"),
        "inclusion": fmt_matrix(ste.inclusion)}


def _run_univ(names, T):
    from .embed import universal_imbedding
    env = universal_imbedding(T)
    kernel = env.upsilon.kernel()
    return ("pass",
            {"dim0": env.algebra.dim0, "dim1": env.algebra.dim1, "kernel_dim": kernel.dim},
            {},
            {"algebra": save(env.algebra, name=f"a_of({names[0]})"),
             "iota": fmt_matrix(env.iota),
             "upsilon": save(env.upsilon),
             "kernel_basis": fmt_matrix(kernel.basis)})


def _run_extend(names, hom, L):
    from .embed import extend_hom
    from .lts import odd_part_lts
    if odd_part_lts(L) != hom.target:
        raise Refusal("the hom's target is not the odd part of the target algebra")
    ext = extend_hom(hom.source, L, hom.matrix)
    return ("pass", {"source_dim0": ext.source.dim0, "source_dim1": ext.source.dim1}, {},
            {"extension": save(ext)})


def _run_h2(names, L, M=None):
    from .cohom import h2_graded
    from .grlie import trivial_module
    if M is None:
        M = trivial_module(L)
    elif M.algebra != L:
        raise Refusal("module file is over a different algebra")
    result = h2_graded(L, M)
    return ("pass",
            {"h2": result.dimension, "cocycles": result.cocycle_dim,
             "coboundaries": result.coboundary_dim},
            {},
            {"representatives": [save(f) for f in result.representatives]})


def _run_split(names, phi):
    from .cohom import CentralExtensionProblem, split_central_0_extension
    prob = CentralExtensionProblem.from_hom(phi)
    psi = split_central_0_extension(prob)
    dims = {"kernel_dim": prob.kernel.dim}
    if psi is not None:
        return "true", dims, {}, {"splitting": save(psi)}
    # H^2 with coefficients in F^k is k copies of thm-a's H^2; only a failed split loads embed
    from .embed import envelope_criterion
    h2_dim = prob.kernel.dim * envelope_criterion(phi.target).h2_dimension
    return ("false", dims,
            {"obstruction": "the defining cocycle class is nonzero", "h2_dim": h2_dim}, {})


def _run_closed(names, L):
    from .embed import envelope_criterion
    h2 = envelope_criterion(L).h2_dimension
    return "true" if h2 == 0 else "false", {"h2": h2}, {}, {}


def _run_thm_a(names, L):
    from .embed import envelope_criterion
    result = envelope_criterion(L)
    witnesses: dict = {"generated_by_odd": result.generated_by_odd,
                       "h2_dimension": result.h2_dimension}
    derived: dict = {}
    if result.verdict:
        hom = result.witness
        witnesses["isomorphism"] = fmt_matrix(hom.matrix)
        witnesses["isomorphism_inverse"] = fmt_matrix(inverse(hom.matrix))
        derived["envelope_of_odd_part"] = save(hom.source, name="a_of(odd part)")
    else:
        witnesses["obstruction"] = result.obstruction
    return ("true" if result.verdict else "false",
            {"dim0": L.dim0, "dim1": L.dim1, "h2": result.h2_dimension}, witnesses, derived)


def _run_u0ext(names, L):
    from .embed import universal_central_0_extension
    ext = universal_central_0_extension(L)
    A = ext.phi.source
    return ("pass",
            {"dim0": A.dim0, "dim1": A.dim1, "kernel_dim": ext.kernel.dim},
            {},
            {"total": save(A),
             "upsilon_hat": save(ext.phi),
             "kernel_basis": fmt_matrix(ext.kernel.basis)})


# command -> (help, inputs as (argument, expected class's name, argparse options), runner);
# a class of None takes a corpus name only
_FILE_OR_NAME = {"help": "JSON file or corpus name"}
_LTS = (("input", "LieTripleSystem", _FILE_OR_NAME),)
_ALGEBRA = (("input", "GradedLieAlgebra", _FILE_OR_NAME),)
_COMMANDS = {
    "corpus": ("emit a named example", (("name", None, {}),), _run_corpus),
    "check-lts": ("verify the triple-system axioms", _LTS, _run_check_lts),
    "check-graded": ("verify the graded Lie algebra axioms", _ALGEBRA, _run_check_graded),
    "derive": ("compute the derivation algebra", _LTS, _run_derive),
    "inder": ("compute the inner derivations with the ideal certificate", _LTS, _run_inder),
    "ste": ("compute the standard imbedding", _LTS, _run_ste),
    "univ": ("compute the universal imbedding with iota, upsilon and its kernel", _LTS,
             _run_univ),
    "h2": ("graded H^2 with trivial coefficients (or a module file)",
           _ALGEBRA + (("module", "GradedModule", {"nargs": "?", "help": "optional module file"}),),
           _run_h2),
    "closed": ("decide whether every central 0-extension splits", _ALGEBRA, _run_closed),
    "thm-a": ("generated-by-odd and 0-centrally-closed, with a witness", _ALGEBRA, _run_thm_a),
    "u0ext": ("universal central 0-extension of a graded algebra", _ALGEBRA, _run_u0ext),
    "extend": ("extend a triple-system hom to the universal imbedding",
               (("hom", "LtsHom", {"help": "lts_hom JSON file (target = odd part of the algebra)"}),
                ("target", "GradedLieAlgebra", {"help": "graded algebra JSON file or corpus name"})),
               _run_extend),
    "split": ("attempt to split a central 0-extension",
              (("hom", "GradedHom", {"help": "graded_hom JSON file"}),), _run_split),
}
# check-lts and check-graded load their file without the axiom check, which they run and report
_CHECKS = ("check-lts", "check-graded")


def _parse_field(text: str) -> Field:
    try:
        return Field.from_tag(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named command alone: then a metavar lists every
    command in the usage line of its errors (on the full parser it would reword two errors)."""
    parser = argparse.ArgumentParser(prog="lietrip", description=__doc__)
    built = {command: _COMMANDS[command]} if command in _COMMANDS else _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if built is _COMMANDS
                                else "{" + ",".join(_COMMANDS) + "}")
    for command, (help_text, inputs, _) in built.items():
        p = sub.add_parser(command, help=help_text)
        for argument, _, options in inputs:
            p.add_argument(argument, **options)
        p.add_argument("--field", type=_parse_field, default=Field(),
                       help="base field for corpus names: Q (default) or Fp:<p>")
        p.add_argument("--out", help="also write the report JSON to this path")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser(*(sys.argv[1:] if argv is None else argv)[:1]).parse_args(argv)
    _, inputs, runner = _COMMANDS[args.command]
    # the arguments given, in order; h2's optional module file may be absent or ""
    given = [(getattr(args, argument), cls) for argument, cls, options in inputs
             if getattr(args, argument) or "nargs" not in options]
    names = [arg for arg, _ in given]
    # exact scalars of any size: Python's int/str digit limit is lifted for the run, then restored
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where there is no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        objs = [_load_input(arg, cls, args.field, _trusted=args.command in _CHECKS)
                for arg, cls in given]
        verdict, dimensions, witnesses, derived = runner(names, *objs)
        # the field of the first system or algebra, else of the hom's matrix
        fields = [o.field for o in objs if type(o).__name__ in ("LieTripleSystem", "GradedLieAlgebra")]
        field = fields[0] if fields else objs[0].matrix.field
        report = {"command": args.command, "inputs": names, "field": field.tag, "verdict": verdict,
                  "dimensions": dimensions, "witnesses": witnesses, "derived": derived}
        text = json.dumps(report, indent=2)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"error: cannot write --out: {exc}", file=sys.stderr)
                return EXIT_INVALID
        try:
            print(text, flush=True)
        except OSError as exc:  # a closed pipe, say; the interpreter's last flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            return EXIT_INVALID
    # a refused input is a Refusal; any other exception is a library fault, one line each
    except Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        if isinstance(exc, MemoryError):
            detail = "out of memory"
        elif isinstance(exc, RuntimeError):
            detail = str(exc)  # a self-check's message states the fault
        else:
            detail = f"{type(exc).__name__}: {exc}"
        print(f"internal error: {args.command}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if verdict in ("fail", "false"):
        print(f"{args.command}: {verdict}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())

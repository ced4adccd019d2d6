"""Exact-arithmetic Lie triple systems, their imbeddings into Z2-graded
Lie algebras, and graded Chevalley-Eilenberg cohomology."""

import importlib

# public name -> defining submodule, imported on first access (PEP 562), in __all__'s order
_HOMES = {
    "CentralExtensionProblem": "cohom", "Cochain": "cohom", "Field": "exactlin",
    "GradedHom": "grlie", "GradedLieAlgebra": "grlie", "GradedModule": "grlie", "H2Result": "cohom",
    "LieTripleSystem": "lts", "LtsHom": "lts", "Matrix": "exactlin", "QQ": "exactlin",
    "StandardImbedding": "embed", "Subspace": "exactlin", "UniversalImbedding": "embed",
    "adjoint_module": "grlie", "center": "grlie", "central_quotient": "grlie",
    "check_graded_lie": "grlie", "check_lts_axioms": "lts", "coboundary": "cohom",
    "cocycle_extension": "cohom", "cohom": "cohom", "derivation_algebra": "lts",
    "direct_sum": "grlie", "embed": "embed", "envelope_criterion": "embed", "exactlin": "exactlin",
    "extend_hom": "embed", "graded_cochain_basis": "cohom", "graded_lie": "grlie",
    "grlie": "grlie", "h2_graded": "cohom", "ideal_closure_certificate": "lts",
    "imbedding_functor_hom": "embed", "inner_derivation": "lts",
    "inner_derivation_algebra": "lts", "is_0_centrally_closed": "cohom",
    "is_generated_by_odd": "grlie", "is_graded_hom": "grlie", "is_lts_hom": "lts",
    "kernel_basis": "exactlin", "lie_triple_system": "lts", "load": "serialize", "lts": "lts",
    "lts_of_lie": "lts", "module_quotient_algebra": "embed", "odd_part_lts": "lts",
    "pair_algebra": "embed", "quotient": "exactlin", "rank": "exactlin",
    "restrict_hom_to_odd": "grlie", "rref": "exactlin", "save": "serialize",
    "serialize": "serialize", "solve": "exactlin", "split_central_0_extension": "cohom",
    "standard_imbedding": "embed", "triple_bracket": "lts", "trivial_module": "grlie",
    "universal_central_0_extension": "embed", "universal_imbedding": "embed",
    "wedge_module": "embed",
}
__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    globals()[name] = value = module if name == home else getattr(module, name)
    return value

"""Exact-arithmetic Lie triple systems, their imbeddings into Z2-graded
Lie algebras, and graded Chevalley-Eilenberg cohomology."""

from .exactlin import Field, Matrix, QQ, Subspace, kernel_basis, quotient, rank, rref, solve
from .lts import (
    LieTripleSystem, LtsHom, check_lts_axioms, derivation_algebra,
    ideal_closure_certificate, inner_derivation, inner_derivation_algebra,
    is_lts_hom, lie_triple_system, lts_of_lie, odd_part_lts, triple_bracket,
)
from .grlie import (
    GradedHom, GradedLieAlgebra, GradedModule, adjoint_module, center,
    central_quotient, check_graded_lie, direct_sum, graded_lie,
    graded_pullback, is_generated_by_odd, is_graded_hom, restrict_hom_to_odd,
    subalgebra_generated, trivial_module,
)
from .embed import (
    StandardImbedding, UniversalImbedding, extend_hom,
    graded_algebra_from_pairing, imbedding_functor_hom, module_quotient_algebra,
    pair_algebra, standard_imbedding, universal_central_0_extension,
    universal_imbedding, wedge_module,
)
from .cohom import (
    CentralExtensionProblem, Cochain, H2Result, coboundary, cocycle_extension,
    envelope_criterion, graded_cochain_basis, h2_graded, is_0_centrally_closed,
    split_central_0_extension,
)
from .serialize import load, save

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

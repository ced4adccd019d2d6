#!/usr/bin/env python3
"""Graded cohomology, splitting of central 0-extensions, and the
characterization of universal imbeddings.

A graded Lie algebra is isomorphic to the universal imbedding of a triple
system exactly when (i) its odd part generates it and (ii) its graded H^2
with trivial coefficients vanishes, i.e. every central 0-extension splits.
The Heisenberg algebra passes; the purely odd abelian plane fails (ii);
adding an even abelian line to sl2 fails (i), and so does (ii) for the
envelope A(abl(3)) divided by a central line, though its odd part
generates.  The coboundary squares to zero on graded cochains.
"""

from lietrip import Matrix, QQ, Subspace
from lietrip.cohom import (
    CentralExtensionProblem, Cochain, coboundary, cocycle_extension, envelope_criterion,
    graded_cochain_basis, h2_graded, is_0_centrally_closed, split_central_0_extension,
)
from lietrip.corpus import ab2, abl, even_line, heis, sl2graded
from lietrip.embed import universal_central_0_extension, universal_imbedding
from lietrip.exactlin import unit_vec
from lietrip.grlie import (
    GradedHom, adjoint_module, central_quotient, direct_sum, is_generated_by_odd, trivial_module,
)

print("== graded H^2 with trivial one-dimensional coefficients ==")
for name, L in [("ab2", ab2()), ("heis", heis()), ("sl2graded", sl2graded())]:
    h = h2_graded(L, trivial_module(L))
    print(f"{name:10s} cocycles {h.cocycle_dim}  coboundaries {h.coboundary_dim}"
          f"  H^2 = {h.dimension}")

print()
print("== splitting the quotient heis -> ab2 (it cannot split) ==")
proj = GradedHom(heis(), ab2(), Matrix.make(QQ, [[0, 1, 0], [0, 0, 1]]))
prob = CentralExtensionProblem.from_hom(proj)
print("splitting found:", split_central_0_extension(prob) is not None)
print("(the defining class spans the 1-dimensional H^2 of ab2)")

print()
print("== the universal central 0-extension A(L_1) -> L splits exactly when H^2 = 0 ==")
for name, L in [("ab2", ab2()), ("heis", heis())]:
    ext = universal_central_0_extension(L)
    h = h2_graded(L, trivial_module(L)).dimension
    print(f"{name:10s} A(L_1) dims ({ext.phi.source.dim0}, {ext.phi.source.dim1})"
          f"  H^2 = {h}  splits: {split_central_0_extension(ext) is not None}")
print("(for ab2 it is the hand-built heis -> ab2 above: the same algebra and hom)")
print("same extension:", universal_central_0_extension(ab2()) == prob)

print()
print("== central 0-extensions from graded 2-cocycles ==")
L, M = ab2(), trivial_module(ab2())
rep = h2_graded(L, M).representatives[0]
ext = cocycle_extension(L, M, rep)
# a nonzero class: the extension does not split, and it is A(L_1) -> L itself
assert split_central_0_extension(ext) is None
assert ext == universal_central_0_extension(L)
zero = cocycle_extension(L, M, Cochain(L, M, 2, [(0,)] * len(rep.terms)))
assert split_central_0_extension(zero) is not None  # the zero class splits
print("ab2 by its H^2 representative: total dims "
      f"({ext.phi.source.dim0}, {ext.phi.source.dim1}), splits: False, is A(L_1) -> L: True")
print("ab2 by the zero cocycle:        total dims "
      f"({zero.phi.source.dim0}, {zero.phi.source.dim1}), splits: True")

print()
print("== 0-centrally closed: every central 0-extension splits, i.e. H^2 = 0 ==")
for name, L, closed in [("heis", heis(), True), ("ab2", ab2(), False)]:
    assert is_0_centrally_closed(L) is closed  # H^2 is 0 for heis and 1 for ab2 (above)
    print(f"{name:10s} 0-centrally closed: {closed}")

print()
print("== graded H^2 with adjoint coefficients ==")
L = sl2graded()
ad = adjoint_module(L)
# L acting on itself: e_i acts as ad e_i, whose column c is [e_i, e_c]
assert all(ad.action[i].entries == tuple(zip(*L.bracket[i]))
           for i in range(L.dim))
h = h2_graded(L, ad)
assert h.dimension == 0  # sl2 is rigid: H^2(sl2, sl2) = 0 in characteristic 0 (Whitehead)
print(f"sl2graded  cocycles {h.cocycle_dim}  coboundaries {h.coboundary_dim}  H^2 = {h.dimension}")
cochains = graded_cochain_basis(L, ad, 1)
assert all(not any(coboundary(coboundary(f)).terms) for f in cochains)  # d(d f) = 0
print(f"sl2graded  d(d f) = 0 on all {len(cochains)} graded 1-cochains")

print()
print("== the characterization, end to end ==")
for name, L in [("heis", heis()), ("sl2graded", sl2graded()),
                ("ab2", ab2()),
                ("sl2 + even line", direct_sum(sl2graded(), even_line()))]:
    r = envelope_criterion(L)
    line = f"{name:16s} verdict {str(r.verdict):5s}"
    if r.verdict:
        line += f"  witness iso onto the envelope of the odd part"
    else:
        line += f"  obstruction: {r.obstruction}"
    print(line)

print()
print("== a central quotient of an envelope: generated by its odd part, yet H^2 = 1 ==")
A = universal_imbedding(abl(3)).algebra
Q, proj = central_quotient(A, Subspace.span(QQ, A.dim, [unit_vec(QQ, A.dim, 0)]))
assert not any(row[0] for row in proj.matrix.entries)  # the projection kills e_0
r = envelope_criterion(Q)
h = h2_graded(Q, trivial_module(Q)).dimension
splits = split_central_0_extension(CentralExtensionProblem.from_hom(proj)) is not None
assert ((Q.dim0, Q.dim1), is_generated_by_odd(Q), h, r.verdict, splits) == ((2, 3), True, 1, False, False)
print(f"A(abl(3))/<e_0> dims ({Q.dim0}, {Q.dim1})  odd part generates: True  H^2 = {h}"
      f"  verdict {r.verdict}  projection splits: {splits}")

#!/usr/bin/env python3
"""Graded cohomology, splitting of central 0-extensions, and the
characterization of universal imbeddings.

A graded Lie algebra is isomorphic to the universal imbedding of a triple
system exactly when (i) its odd part generates it and (ii) its graded H^2
with trivial coefficients vanishes, i.e. every central 0-extension splits.
The Heisenberg algebra passes; the purely odd abelian plane fails (ii);
adding an even abelian line to sl2 fails (i).
"""

from lietrip import Matrix, QQ
from lietrip.cohom import (
    CentralExtensionProblem, envelope_criterion, h2_graded,
    split_central_0_extension,
)
from lietrip.corpus import ab2, even_line, heis, sl2graded
from lietrip.embed import universal_central_0_extension
from lietrip.grlie import GradedHom, direct_sum, trivial_module

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

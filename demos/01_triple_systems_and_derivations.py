#!/usr/bin/env python3
"""Triple systems by structure constants: axioms, brackets, derivations.

A Lie triple system is a space with a trilinear bracket [a,b,c] that is
alternating in (a,b), satisfies the cyclic identity, and whose operators
[a,b,-] act as derivations of the bracket.  Everything below is exact
rational arithmetic; axiom checks run over all basis tuples.
"""

from lietrip import (
    QQ, check_lts_axioms, derivation_algebra, ideal_closure_certificate,
    inner_derivation, inner_derivation_algebra, triple_bracket,
)
from lietrip.corpus import abl, odd2, sl2lts
from lietrip.exactlin import unit_vec
from lietrip.lts import LieTripleSystem

print("== the odd part of sl2: basis (e, f), [e,f,e] = 2e, [e,f,f] = -2f ==")
T = odd2()
print("axioms pass:", check_lts_axioms(T).ok)
e, f = unit_vec(QQ, 2, 0), unit_vec(QQ, 2, 1)
print("[e,f,e] =", triple_bracket(T, e, f, e))
print("[e,f,f] =", triple_bracket(T, e, f, f))
print("[e,e,f] =", triple_bracket(T, e, e, f), " (alternating slots)")

print()
print("== breaking one structure constant produces a located witness ==")
tensor = [[[list(v) for v in tij] for tij in ti] for ti in T.triple]
tensor[0][1][0][0] += 1
broken = LieTripleSystem(QQ, 2,
                         tuple(tuple(tuple(tuple(v) for v in tij) for tij in ti)
                               for ti in tensor),
                         unchecked=True)
report = check_lts_axioms(broken)
print("axioms pass:", report.ok)
print("first violation:", report.violations[0].identity,
      "at basis tuple", report.violations[0].indices)

print()
print("== derivations: the kernel of one big linear system ==")
for name, S in [("abl(3)", abl(3)), ("odd2", odd2()), ("sl2lts", sl2lts())]:
    der = derivation_algebra(S)
    ind = inner_derivation_algebra(S)
    print(f"{name:8s} dim Der = {der.dim:2d}   dim Inder = {ind.dim}"
          f"   ideal certificate: {ideal_closure_certificate(S).ok}")

print()
print("== the inner derivation D_(e,f) of odd2 is diag(2, -2) ==")
d = inner_derivation(T, e, f)
for row in d.to_lists():
    print("  ", row)

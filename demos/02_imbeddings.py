#!/usr/bin/env python3
"""Imbedding triple systems into Z2-graded Lie algebras.

Every system T sits inside two canonical graded algebras: the standard
imbedding (inner derivations + T) and the universal imbedding, whose even
part is the pair algebra <T,T>, a central extension of the inner
derivations.  The surjection upsilon between them is graded with even
central kernel, and the odd part of the universal imbedding recovers T on
the nose.  On morphisms, imbedding_functor_hom(alpha) takes a hom of triple
systems S -> T to the graded hom A(S) -> A(T) that restricts to it, which
makes A a functor; restrict_hom_to_odd reads that restriction back.
"""

from lietrip import QQ, Matrix, kernel_basis, odd_part_lts
from lietrip.corpus import abl, odd2, sl2lts
from lietrip.embed import imbedding_functor_hom, standard_imbedding, universal_imbedding
from lietrip.grlie import center, identity_hom, is_generated_by_odd, restrict_hom_to_odd
from lietrip.lts import LtsHom, identity_lts_hom

for name, T in [("abl(2)", abl(2)), ("abl(3)", abl(3)),
                ("odd2", odd2()), ("sl2lts", sl2lts())]:
    ste = standard_imbedding(T)
    env = universal_imbedding(T)
    ker = env.upsilon.kernel()
    print(f"== {name} ==")
    print(f"  Ste(T) dims (even, odd) = ({ste.algebra.dim0}, {ste.algebra.dim1})")
    print(f"  A(T)   dims (even, odd) = ({env.algebra.dim0}, {env.algebra.dim1})")
    print(f"  upsilon: A(T) -> Ste(T) surjective, kernel dim = {ker.dim}")
    print(f"  kernel inside even part and center:",
          env.algebra.even_subspace().contains_subspace(ker)
          and center(env.algebra).contains_subspace(ker))
    print(f"  generated by the odd part: {is_generated_by_odd(env.algebra)}")
    print(f"  odd part recovers T exactly: {odd_part_lts(env.algebra).triple == T.triple}")
    print()

print("For abelian T the pair algebra is the whole exterior square: the")
print("envelope of abl(2) is the graded Heisenberg algebra, and upsilon")
print("collapses its one-dimensional center.")
env = universal_imbedding(abl(2))
print("A(abl(2)) bracket of the two odd generators:",
      env.algebra.bracket[1][2])

print()
print("The functor on morphisms, F = imbedding_functor_hom:")
F_id = imbedding_functor_hom(identity_lts_hom(odd2()))
print("  F(id) is the identity of A(odd2):", F_id == identity_hom(universal_imbedding(odd2()).algebra))
incl = LtsHom(odd2(), sl2lts(), Matrix.make(QQ, [[0, 0], [1, 0], [0, 1]]))  # e, f into sl2
swap = LtsHom(odd2(), odd2(), Matrix.make(QQ, [[0, 1], [1, 0]]))
F_composed = imbedding_functor_hom(incl.compose(swap))
print("  F(incl o swap) = F(incl) o F(swap) for odd2 -> sl2lts:",
      F_composed == imbedding_functor_hom(incl).compose(imbedding_functor_hom(swap)))
print("  its matrix, A(odd2) -> A(sl2lts), row by row:")
for row in F_composed.matrix.entries:
    print("    ", " ".join(f"{str(x):>2}" for x in row))

# the functor read backwards: A(f) restricts to f on the odd parts
for f in (incl, swap, incl.compose(swap)):
    assert restrict_hom_to_odd(imbedding_functor_hom(f)).matrix == f.matrix
print("  F(f) restricted to the odd parts is f, for incl, swap and incl o swap: True")

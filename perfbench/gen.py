"""Raw integer structure constants for the benchmark inputs.

Everything here is plain Python integers: brackets as nested lists
``c[i][j] = coordinates of [e_i, e_j]`` and triple products as
``t[i][j][k] = coordinates of [e_i, e_j, e_k]``.  The library only sees
these lists, passed to its public constructors.  Seeded pieces (the
unimodular change of basis, the central line or plane) come from a
``random.Random`` the caller owns, so one seed gives one input set.
"""

from __future__ import annotations

import random


def zeros(*shape):
    if len(shape) == 1:
        return [0] * shape[0]
    return [zeros(*shape[1:]) for _ in range(shape[0])]


def sl2_bracket():
    """sl2 in the basis (h, e, f)."""
    return [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
            [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]


def gl_bracket(n: int):
    """gl(n) in the basis E_ij (index i*n + j): [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    dim = n * n
    c = zeros(dim, dim, dim)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = c[i * n + j][k * n + l]
                    if j == k:
                        v[i * n + l] += 1
                    if l == i:
                        v[k * n + j] -= 1
    return c


def abl(n: int):
    """The n-dimensional abelian triple system."""
    return zeros(n, n, n, n)


def odd2():
    """The odd part (e, f) of sl2 under its usual grading."""
    return [[[[0, 0], [0, 0]], [[2, 0], [0, -2]]],
            [[[-2, 0], [0, 2]], [[0, 0], [0, 0]]]]


def _mat_bracket(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def grass(p: int, q: int):
    """The odd part of so(p+q) under the block grading, as a triple system.

    The basis is X_ij = E_{i,p+j} - E_{p+j,i} (index i*q + j); it has
    dimension pq and the triple product [[X, Y], Z] of matrices.
    """
    m = p + q
    basis = []
    for i in range(p):
        for j in range(q):
            x = zeros(m, m)
            x[i][p + j] = 1
            x[p + j][i] = -1
            basis.append(x)
    n = len(basis)
    t = zeros(n, n, n, n)
    for a in range(n):
        for b in range(a + 1, n):
            ab = _mat_bracket(basis[a], basis[b])
            for c in range(n):
                r = _mat_bracket(ab, basis[c])
                coords = [r[i][p + j] for i in range(p) for j in range(q)]
                t[a][b][c] = coords
                t[b][a][c] = [-x for x in coords]
    return t


def heis():
    """Graded Heisenberg algebra: even z, odd x, y with [x, y] = z."""
    c = zeros(3, 3, 3)
    c[1][2][0] = 1
    c[2][1][0] = -1
    return c


def sl2_double_swap():
    """sl2 + sl2 graded by the swap, basis (d_h, d_e, d_f | a_h, a_e, a_f)."""
    s = sl2_bracket()
    c = zeros(6, 6, 6)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                x = s[i][j][k]
                c[i][j][k] = x
                c[i][3 + j][3 + k] = x
                c[3 + i][j][3 + k] = x
                c[3 + i][3 + j][k] = x
    return c


# ---------------------------------------------------------------------------
# seeded pieces

def unimodular(rng: random.Random, n: int):
    """A seeded unimodular P = P0 Q and its integer inverse.

    P0 = L U is fixed for each n (unit triangular L, U with off-diagonal
    entries +-1, so det P0 = 1 and P0 is dense); Q is a seeded signed
    permutation.  The new structure constants are those of the fixed dense
    basis P0, relabelled and re-signed by the seed: every seed gives new
    inputs with entries of the same sizes, so the work barely depends on it.
    """
    fixed = random.Random(n)
    lo = [[1 if i == j else (fixed.choice((-1, 1)) if i > j else 0) for j in range(n)]
          for i in range(n)]
    up = [[1 if i == j else (fixed.choice((-1, 1)) if i < j else 0) for j in range(n)]
          for i in range(n)]
    p0 = _matmul(lo, up)
    p0inv = _matmul(_unit_triangular_inverse(up, False), _unit_triangular_inverse(lo, True))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    q = [[signs[j] if i == perm[j] else 0 for j in range(n)] for i in range(n)]
    qinv = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    return _matmul(p0, q), _matmul(qinv, p0inv)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _unit_triangular_inverse(m, lower: bool):
    """Inverse of a unit triangular integer matrix by substitution."""
    n = len(m)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for i in order:
        ks = range(i) if lower else range(i + 1, n)
        for j in range(n):
            out[i][j] -= sum(m[i][k] * out[k][j] for k in ks)
    return out


def change_basis(tensor, p, pinv):
    """Structure constants in the basis f_a = sum_i p[i][a] e_i.

    Works for brackets (rank 3) and triple products (rank 4): every input
    slot is contracted with p and the output coordinates with p^-1.
    """
    n = len(p)
    depth = 0
    x = tensor
    while isinstance(x, list):
        depth += 1
        x = x[0]
    slots = depth - 1

    def contract_first(t, k):
        # move slot k to its new basis: t'[..a..] = sum_i p[i][a] t[..i..]
        if k == 0:
            return [_lin_comb([(p[i][a], t[i]) for i in range(n)]) for a in range(n)]
        return [contract_first(sub, k - 1) for sub in t]

    t = tensor
    for k in range(slots):
        t = contract_first(t, k)

    def outputs(sub, level):
        if level == slots:
            return [sum(pinv[d][l] * sub[l] for l in range(n)) for d in range(n)]
        return [outputs(s, level + 1) for s in sub]

    return outputs(t, 0)


def _lin_comb(terms):
    """sum of c * t over nested integer lists t of equal shape."""
    terms = [(c, t) for c, t in terms if c]
    first = terms[0][1]
    if not isinstance(first, list):
        return sum(c * t for c, t in terms)
    return [_lin_comb([(c, t[i]) for c, t in terms]) for i in range(len(first))]


def central_vectors(rng: random.Random, dim0: int, dim: int, count: int):
    """`count` independent integer vectors supported on the first dim0
    coordinates (the even part), entries in -3..3, leading pivots nonzero."""
    vecs = []
    for r in range(count):
        v = [0] * dim
        v[r] = rng.choice((-3, -2, -1, 1, 2, 3))
        for i in range(r + 1, dim0):
            v[i] = rng.randint(-3, 3)
        vecs.append(v)
    return vecs

"""Independent brute-force oracles for the test suite.

Deliberately self-contained: plain Fractions and integers, naive elimination,
explicit loops, and locally re-declared structure constants, so expected
values come from a second route sharing no code with the library.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

# raw integer bracket tensors, global basis even-first
AB2_RAW = (0, 2, {})
HEIS_RAW = (1, 2, {(1, 2, 0): 1, (2, 1, 0): -1})
SL2_GRADED_RAW = (1, 2, {(0, 1, 1): 2, (1, 0, 1): -2,
                         (0, 2, 2): -2, (2, 0, 2): 2,
                         (1, 2, 0): 1, (2, 1, 0): -1})


def scalar(x, p=None):
    """x as a Fraction, or as its residue in range(p)."""
    x = Fraction(x)
    if p is None:
        return x
    return x.numerator * pow(x.denominator, -1, p) % p


def vec_is_zero(field, v):
    """Whether every entry of v is zero (the field is that of the caller's vectors)."""
    return all(x == 0 for x in v)


def vec_add(u, v, p=None):
    """The entrywise sum of two vectors of equal length."""
    return tuple(scalar(Fraction(a) + Fraction(b), p) for a, b in zip(u, v, strict=True))


def vec_sub(u, v, p=None):
    """The entrywise difference of two vectors of equal length."""
    return tuple(scalar(Fraction(a) - Fraction(b), p) for a, b in zip(u, v, strict=True))


def naive_matmul(a, b, ncols, p=None):
    """a times b for raw nested lists, b with ncols columns: every entry is
    the full sum over the inner index, zeros included."""
    return [[scalar(sum((Fraction(row[k]) * Fraction(b[k][j]) for k in range(len(b))),
                        Fraction(0)), p)
             for j in range(ncols)] for row in a]


def matvec(rows, v, p=None):
    """The raw matrix rows times the vector v, as a tuple."""
    return tuple(col[0] for col in naive_matmul(rows, [[x] for x in v], 1, p))


def flatten(rows):
    """The entries of a raw matrix, row by row, as a tuple."""
    return tuple(x for row in rows for x in row)


def naive_rref(rows, ncols, p=None):
    """(reduced rows, pivot columns) by textbook Gauss-Jordan elimination,
    leftmost pivot first, on Fractions or on int residues mod p."""
    m = [[scalar(x, p) for x in row] for row in rows]
    # residues stay ints: their products and differences need only a % p, no Fraction
    reduce = scalar if p is None else int.__mod__
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c] if p is None else pow(m[r][c], -1, p)
        m[r] = [reduce(x * inv, p) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [reduce(x - f * y, p) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, tuple(pivots)


def naive_kernel(rows, ncols, p=None):
    """The reduced basis of the null space: one vector per free column,
    set to 1 there, then row reduced."""
    red, pivots = naive_rref(rows, ncols, p)
    vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [scalar(int(j == f), p) for j in range(ncols)]
        for r, c in enumerate(pivots):
            v[c] = scalar(-red[r][f], p)
        vecs.append(v)
    red, pivots = naive_rref(vecs, ncols, p)
    return red[:len(pivots)]


def frac_rank(rows, p=None):
    """Rank by plain Gaussian elimination on Fractions, or on residues mod p."""
    return len(naive_rref(rows, len(rows[0]) if rows else 0, p)[1])


def is_invertible(rows, ncols, p=None):
    """Whether the raw matrix rows, with ncols columns, is square and of full rank."""
    return len(rows) == ncols == frac_rank(rows, p)


def in_span(vectors, v, p=None):
    """Whether v lies in the span of vectors: adding it leaves the rank as it is."""
    return frac_rank([*vectors, v], p) == frac_rank(list(vectors), p)


def bracket(c, x, y, p=None):
    """[x, y] for coordinate vectors x and y, from the raw bracket tensor c[i][j][l]."""
    out = [Fraction(0)] * len(c)
    for i, j in product(range(len(c)), repeat=2):
        if x[i] and y[j]:
            for l, z in enumerate(c[i][j]):
                out[l] += Fraction(x[i]) * Fraction(y[j]) * Fraction(z)
    return tuple(scalar(z, p) for z in out)


def _bracket(raw, i, j, l):
    return raw[2].get((i, j, l), 0)


def _degree(raw, i):
    return 0 if i < raw[0] else 1


def graded_pairs(raw):
    n = raw[0] + raw[1]
    return [(i, j) for i, j in combinations(range(n), 2)
            if (_degree(raw, i) + _degree(raw, j)) % 2 == 0]


def graded_triples(raw):
    n = raw[0] + raw[1]
    return [t for t in combinations(range(n), 3)
            if sum(_degree(raw, i) for i in t) % 2 == 0]


def delta1_matrix(raw):
    """Matrix of the degree-1 coboundary on trivial 1-dim coefficients:
    columns = even basis indices, rows = graded pairs."""
    pairs = graded_pairs(raw)
    evens = range(raw[0])
    return [[-_bracket(raw, i, j, l) for l in evens] for i, j in pairs]


def delta2_matrix(raw):
    """Matrix of the degree-2 coboundary: columns = graded pairs, rows =
    graded triples; trivial action, so only the bracket terms appear:
    (d f)(x, y, z) = -f([x,y], z) + f([x,z], y) - f([y,z], x), where
    f(e_l, e_w) is the coordinate of the pair (l, w), negated when l > w."""
    pairs = graded_pairs(raw)
    pair_pos = {p: k for k, p in enumerate(pairs)}
    brackets = {}
    for (i, j, l), c in raw[2].items():
        brackets.setdefault((i, j), []).append((l, c))
    rows = []
    for (x, y, z) in graded_triples(raw):
        row = [0] * len(pairs)
        for (a, b, w), sign in (((x, y, z), -1), ((x, z, y), 1), ((y, z, x), -1)):
            for l, c in brackets.get((a, b), ()):
                if l < w and (l, w) in pair_pos:
                    row[pair_pos[(l, w)]] += sign * c
                elif l > w and (w, l) in pair_pos:
                    row[pair_pos[(w, l)]] -= sign * c
        rows.append(row)
    return rows


def h2_graded_dim(raw, p=None):
    """dim H^2 with trivial 1-dim coefficients over Q, or over F_p when the
    raw constants are read mod p."""
    pairs = graded_pairs(raw)
    d2 = delta2_matrix(raw)
    z2 = len(pairs) - frac_rank(d2, p)
    b2 = frac_rank(delta1_matrix(raw), p)
    return z2 - b2


def coboundary(c, action, values, degree, p=None):
    """The Chevalley-Eilenberg coboundary of a degree-n cochain, by the
    textbook formula on its dense alternating array:

    (df)(x_1..x_{n+1}) = sum_i (-1)^{i+1} x_i . f(.. ^x_i ..)
                       + sum_{i<j} (-1)^{i+j} f([x_i,x_j], .. ^x_i .. ^x_j ..),

    for the raw bracket c[i][j][l] and the dense m x m matrices action[i]
    (action[i][s][r] the s-coordinate of e_i . m_r); values holds f's module
    vector at each sorted combination, in lexicographic order.  Returns df's
    vectors the same way, every sum run in full, zeros included."""
    n = len(c)
    m = len(action[0]) if action else 0
    # f at every ordered tuple: the sign of the sorting permutation times its
    # value at the sorted combination, and 0 at a tuple with a repeat
    f = {args: [0] * m for args in product(range(n), repeat=degree)}
    for combo, v in zip(combinations(range(n), degree), values):
        for perm in permutations(range(degree)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(degree), 2))
            f[tuple(combo[k] for k in perm)] = [(-1) ** inversions * Fraction(x) for x in v]
    out = []
    for xs in combinations(range(n), degree + 1):
        df = [Fraction(0)] * m
        for i in range(degree + 1):
            rest = xs[:i] + xs[i + 1:]
            for s in range(m):
                df[s] += (-1) ** i * sum(Fraction(action[xs[i]][s][r]) * f[rest][r]
                                         for r in range(m))
        for i, j in combinations(range(degree + 1), 2):
            rest = tuple(x for k, x in enumerate(xs) if k not in (i, j))
            for l in range(n):
                for s in range(m):
                    df[s] += (-1) ** (i + j) * Fraction(c[xs[i]][xs[j]][l]) * f[(l,) + rest][s]
        out.append(tuple(scalar(x, p) for x in df))
    return out


def subalgebra_closure(raw, seed, p=None):
    """The reduced basis of the smallest bracket-closed subspace containing
    the seed rows: V <- V + [V, V], with [u, v] for every ordered pair of
    V's reduced basis, until the dimension stops growing.  There is no early
    stop at the full space, so the last round only confirms."""
    n = raw[0] + raw[1]

    def bracket(u, v):
        out = [Fraction(0)] * n
        for (i, j, l), c in raw[2].items():
            out[l] += Fraction(u[i]) * v[j] * c
        return out

    red, pivots = naive_rref(seed, n, p)
    basis = red[:len(pivots)]
    while True:
        red, pivots = naive_rref(basis + [bracket(u, v) for u in basis for v in basis], n, p)
        if len(pivots) == len(basis):
            return red[:len(pivots)]
        basis = red[:len(pivots)]


# ---------------------------------------------------------------------------
# triple systems: raw integer tensors t[i][j][k][l] and a direct axiom check

def lts_of_bracket(c):
    """t[i][j][k] = [[e_i, e_j], e_k] for a raw bracket c[i][j][l]."""
    n = len(c)
    return [[[[sum(c[i][j][m] * c[m][k][l] for m in range(n)) for l in range(n)]
              for k in range(n)] for j in range(n)] for i in range(n)]


def gl_bracket(n):
    """gl(n) on E_ab (index a*n + b): [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    dim = n * n
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for x in range(dim):
        a, b = divmod(x, n)
        for y in range(dim):
            cc, d = divmod(y, n)
            if b == cc:
                c[x][y][a * n + d] += 1
            if d == a:
                c[x][y][cc * n + b] -= 1
    return c


SL2_BRACKET = [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
               [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
               [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]

ODD2_TRIPLE = [[[[0, 0], [0, 0]], [[2, 0], [0, -2]]],
               [[[-2, 0], [0, 2]], [[0, 0], [0, 0]]]]


def grass_triple(p, q):
    """Odd part of so(p+q) under the block grading: X_ij = E_{i,p+j} - E_{p+j,i}
    (index i*q + j) with [X, Y, Z] = [[X, Y], Z] as matrices."""
    m = p + q
    basis = []
    for i in range(p):
        for j in range(q):
            x = [[0] * m for _ in range(m)]
            x[i][p + j], x[p + j][i] = 1, -1
            basis.append(x)

    def comm(a, b):
        return [[sum(a[r][k] * b[k][s] - b[r][k] * a[k][s] for k in range(m))
                 for s in range(m)] for r in range(m)]

    n = len(basis)
    return [[[[comm(comm(basis[a], basis[b]), basis[c])[i][p + j]
               for i in range(p) for j in range(q)]
              for c in range(n)] for b in range(n)] for a in range(n)]


def lts_violations(t, p=None):
    """Every failed axiom instance of the raw tensor t, as (identity, indices,
    defect), in the library's reporting order.  Scalars are Fractions (p is
    None) or residues mod p, and t's denominators are prime to p; each
    identity is evaluated from its definition on basis vectors, in integers:
    over F_p on residues, over Q on den * t, den the lcm of t's denominators,
    so that a defect linear in t (alternation, cyclic) is den times the true
    one and the derivation defect, quadratic in t, den^2 times."""
    n = len(t)

    def bracket(a, b, c):
        # [a, b, c] for integer coordinate vectors a, b, c
        out = [0] * n
        for i, j, k in product(*([r for r in range(n) if v[r]] for v in (a, b, c))):
            coeff = a[i] * b[j] * c[k]
            for l, x in enumerate(tv[i][j][k]):
                if x:
                    out[l] += coeff * x
        return out

    den = 1 if p is not None else lcm(*(Fraction(x).denominator
                                          for ti in t for tij in ti for v in tij for x in v))
    tv = [[[[int(Fraction(x) * den) if p is None else scalar(x, p) for x in v]
            for v in tij] for tij in ti] for ti in t]
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    found = []

    def report(identity, indices, vec, degree=1):
        if any(vec):
            defect = tuple(Fraction(x, den ** degree) if p is None else x % p for x in vec)
            if any(defect):
                found.append((identity, indices, defect))

    for i in range(n):
        for k in range(n):
            report("alternating", (i, i, k), tv[i][i][k])
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                report("polarized-alternating", (i, j, k),
                       [x + y for x, y in zip(tv[i][j][k], tv[j][i][k])])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                report("cyclic", (i, j, k),
                       [x + y + z for x, y, z in zip(tv[i][j][k], tv[j][k][i], tv[k][i][j])])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for m in range(n):
                        lhs = bracket(e[i], e[j], tv[k][l][m])
                        r1 = bracket(tv[i][j][k], e[l], e[m])
                        r2 = bracket(e[k], tv[i][j][l], e[m])
                        r3 = bracket(e[k], e[l], tv[i][j][m])
                        report("derivation", (i, j, k, l, m),
                               [a - b - c - d for a, b, c, d in zip(lhs, r1, r2, r3)], 2)
    return found


def graded_violations(c, dim0, p=None):
    """Every failed axiom instance of the raw bracket c[i][j][l] with even
    part e_0..e_{dim0-1}, as (family, indices, defect), in the library's
    reporting order: [e_i, e_i] = 0 and then antisymmetry at (i, j) for each
    j > i, row by row; then every nonzero constant of [e_i, e_j] at an e_k of
    the wrong parity, its defect the 1-tuple of that constant; then the Jacobi
    identity at i < j < k.  Scalars are Fractions (p is None) or residues mod
    p, and each identity is evaluated from its definition."""
    n = len(c)
    v = [[[scalar(x, p) for x in vec] for vec in row] for row in c]
    found = []

    def report(family, indices, vec):
        defect = tuple(scalar(x, p) for x in vec)
        if any(defect):
            found.append((family, indices, defect))

    for i in range(n):
        report("alternating", (i, i), v[i][i])
        for j in range(i + 1, n):
            report("antisymmetry", (i, j), [x + y for x, y in zip(v[i][j], v[j][i])])
    for i, j, k in product(range(n), repeat=3):
        # [L_a, L_b] lies in L_{a+b}: the degrees of i, j and k sum to an even number
        if v[i][j][k] and ((i >= dim0) + (j >= dim0) + (k >= dim0)) % 2:
            found.append(("grading", (i, j, k), (v[i][j][k],)))
    for i, j, k in combinations(range(n), 3):
        # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        jacobiator = [Fraction(0)] * n
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for m in range(n):
                for l in range(n):
                    jacobiator[l] += v[a][b][m] * v[m][d][l]
        report("jacobi", (i, j, k), jacobiator)
    return found


def representation_failure(c, action, p=None):
    """The first basis pair (i, j), row by row over every ordered pair, at
    which the dense m x m matrices action[i] fail the law that [e_i, e_j]
    acts as e_i e_j - e_j e_i, for the raw bracket c[i][j][l]; None when
    there is none.  Every product and sum runs in full, zeros included."""
    n = len(c)
    a = [[[scalar(x, p) for x in row] for row in mat] for mat in action]
    m = len(a[0]) if a else 0
    for i, j in product(range(n), repeat=2):
        ij, ji = naive_matmul(a[i], a[j], m, p), naive_matmul(a[j], a[i], m, p)
        for r, k in product(range(m), repeat=2):
            lhs = sum((Fraction(c[i][j][l]) * a[l][r][k] for l in range(n)), Fraction(0))
            if scalar(lhs - ij[r][k] + ji[r][k], p):
                return (i, j)
    return None


def lie_bracket_error(c, p=None):
    """The message of the first failed Lie algebra axiom of the raw bracket
    c[i][j][l], or None, scanning every ordered index tuple: for each i,
    [e_i, e_i] = 0 and then antisymmetry at (i, j) for every j; then the
    Jacobi identity at every ordered triple (i, j, k)."""
    n = len(c)
    v = [[[scalar(x, p) for x in vec] for vec in row] for row in c]
    for i in range(n):
        if any(v[i][i]):
            return f"not a Lie algebra: [e_{i}, e_{i}] != 0"
        for j in range(n):
            if any(scalar(x + y, p) for x, y in zip(v[i][j], v[j][i])):
                return f"not a Lie algebra: antisymmetry fails at ({i}, {j})"
    for i, j, k in product(range(n), repeat=3):
        # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        jacobiator = [Fraction(0)] * n
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for m in range(n):
                for l in range(n):
                    jacobiator[l] += v[a][b][m] * v[m][d][l]
        if any(scalar(x, p) for x in jacobiator):
            return f"not a Lie algebra: Jacobi fails at ({i}, {j}, {k})"
    return None


# ---------------------------------------------------------------------------
# derivations and inner derivations of a raw triple tensor t[i][j][k][l]

def _triple(t, a, b, c):
    """[a, b, c] for coordinate vectors a, b, c, from the raw tensor."""
    n = len(t)
    out = [Fraction(0)] * n
    for i, j, k in product(*([r for r in range(n) if v[r]] for v in (a, b, c))):
        coeff = Fraction(a[i]) * b[j] * c[k]
        for l in range(n):
            out[l] += coeff * t[i][j][k][l]
    return out


def _apply(d, v):
    """The matrix d times the vector v."""
    return [sum((Fraction(x) * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in d]


def derivation_basis(t, p=None):
    """The reduced basis of the derivations of t, flattened row-major.

    Each column of the system is the defect D[e_i, e_j, e_k] - [De_i, e_j, e_k]
    - [e_i, De_j, e_k] - [e_i, e_j, De_k] over the (i, j, k, l) of one matrix
    unit D = E_uv (De_v = e_u), since the defect is linear in D; a row that
    repeats an earlier one is dropped, which leaves the null space as it is.
    Where t alternates in its first two slots modulo p (t[i][i] = 0 and
    t[j][i] = -t[i][j]), so does the defect: the rows at j > i are those at
    i < j negated and the rows at i = j are zero, so only i < j are read."""
    n = len(t)
    alternating = all(scalar(t[i][i][k][l], p) == 0 and scalar(t[i][j][k][l] + t[j][i][k][l], p) == 0
                      for i, j, k, l in product(range(n), repeat=4))
    pairs = list(combinations(range(n), 2) if alternating else product(range(n), repeat=2))
    cols = [[t[i][j][k][v] * int(l == u) - int(i == v) * t[u][j][k][l]
             - int(j == v) * t[i][u][k][l] - int(k == v) * t[i][j][u][l]
             for (i, j), k, l in product(pairs, range(n), range(n))]
            for u, v in product(range(n), repeat=2)]
    rows = [list(r) for r in dict.fromkeys(zip(*cols)) if any(r)]
    return naive_kernel(rows, n * n, p)


def even_derivation_dim(c, dim0, p=None):
    """dim of the even derivations of the alternating raw bracket c[i][j][l] with
    even part e_0..e_{dim0-1}: the null space of D[e_x, e_y] - [De_x, e_y] -
    [e_x, De_y] at the coordinates (x, y, l) with x < y (the rows at (y, x, l)
    are their negatives, those at x = y are zero), one column per matrix unit
    D = E_uv of the dim0^2 + dim1^2 that keep the grading (De_v = e_u); a row
    that repeats an earlier one is dropped."""
    n = len(c)
    units = [(u, v) for u, v in product(range(n), repeat=2) if (u < dim0) == (v < dim0)]
    cols = [[c[x][y][v] * int(l == u) - int(x == v) * c[u][y][l] - int(y == v) * c[x][u][l]
             for x, y in combinations(range(n), 2) for l in range(n)] for u, v in units]
    rows = [list(r) for r in dict.fromkeys(zip(*cols)) if any(r)]
    return len(naive_kernel(rows, len(units), p))


def coordinates(basis, v, p=None):
    """Coefficients of v in a reduced basis (its entries at the pivots),
    after checking that they reproduce v."""
    pivots = [next(c for c, x in enumerate(b) if x) for b in basis]
    coords = [v[c] for c in pivots]
    back = [scalar(sum((x * b[c] for x, b in zip(coords, basis)), Fraction(0)), p)
            for c in range(len(v))]
    assert back == [scalar(x, p) for x in v]
    return coords


def derivation_bracket(basis, n, p=None):
    """The commutator table of the flattened derivations in basis."""
    mats = [[b[r * n:(r + 1) * n] for r in range(n)] for b in basis]
    table = []
    for x in mats:
        row = []
        for y in mats:
            xy, yx = naive_matmul(x, y, n, p), naive_matmul(y, x, n, p)
            comm = [scalar(a - b, p) for ra, rb in zip(xy, yx) for a, b in zip(ra, rb)]
            row.append(coordinates(basis, comm, p))
        table.append(row)
    return table


def inner_derivation_basis(t, p=None):
    """The reduced basis of span{[e_i, e_j, -] : i < j}, flattened row-major."""
    n = len(t)
    flats = [[t[i][j][m][r] for r in range(n) for m in range(n)]
             for i in range(n) for j in range(i + 1, n)]
    red, pivots = naive_rref(flats, n * n, p)
    return red[:len(pivots)]


def change_basis(t, seed):
    """The raw tensor t in the basis f_a = sum_i P[i][a] e_i, for a seeded
    unimodular integer P = LU (unit triangular L and U, off-diagonal
    entries in -1..1), so the new constants are integers and mostly nonzero."""
    n = len(t)
    f, pinv = _unimodular(n, seed)
    return [[[_apply(pinv, _triple(t, f[a], f[b], f[c])) for c in range(n)]
             for b in range(n)] for a in range(n)]


def change_bracket_basis(c, seed):
    """The raw bracket c in the basis f of change_basis(t, seed), for t of the
    same dimension: lts_of_bracket of it is change_basis(lts_of_bracket(c), seed),
    at a fraction of the cost."""
    return _bracket_in_basis(c, *_unimodular(len(c), seed))


def change_graded_basis(c, dim0, seed):
    """The raw bracket c in a basis that keeps the grading: f_a = sum_i P[i][a]
    e_i for P block diagonal, a seeded unimodular block (as in change_basis)
    on the even part and another on the odd part."""
    n = len(c)
    f0, inv0 = _unimodular(dim0, seed)
    f1, inv1 = _unimodular(n - dim0, seed + 1)
    f = [v + [0] * (n - dim0) for v in f0] + [[0] * dim0 + v for v in f1]
    pinv = [row + [0] * (n - dim0) for row in inv0] + [[0] * dim0 + row for row in inv1]
    return _bracket_in_basis(c, f, pinv)


def _bracket_in_basis(c, f, pinv):
    """The raw bracket c in the basis f (f[a] the coordinates of f_a), with
    pinv the inverse of the matrix whose columns are the f[a]."""
    n = len(c)
    return [[_apply(pinv, [sum(Fraction(x) * y * c[i][j][l] for i, x in enumerate(f[a]) if x
                               for j, y in enumerate(f[b]) if y) for l in range(n)])
             for b in range(n)] for a in range(n)]


def _unimodular(n, seed):
    """(f, P^-1) for a seeded unimodular integer P = LU (unit triangular L and
    U, off-diagonal entries in -1..1), f[a] the column a of P."""
    import random
    rng = random.Random(seed)
    lo = [[int(i == j) if i <= j else rng.choice((-1, 0, 1)) for j in range(n)] for i in range(n)]
    up = [[int(i == j) if i >= j else rng.choice((-1, 0, 1)) for j in range(n)] for i in range(n)]
    pm = naive_matmul(lo, up, n)
    red, _ = naive_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(pm)], 2 * n)
    return [[pm[i][a] for i in range(n)] for a in range(n)], [row[n:] for row in red]


RATIONAL_DIAGONAL = (2, Fraction(1, 3))


def rational_change_basis(t, seed):
    """The raw tensor t in the basis g_a = d_a f_a, where f is the basis of
    change_basis(t, seed) and d = (2, 1/3, 1, ..., 1): the constant of g_l
    in [g_a, g_b, g_c] is d_a d_b d_c / d_l times that of f_l, so the
    constants themselves have denominators."""
    u = change_basis(t, seed)
    n = len(t)
    d = [Fraction(x) for x in RATIONAL_DIAGONAL[:n]] + [Fraction(1)] * (n - len(RATIONAL_DIAGONAL))
    return [[[[Fraction(u[a][b][c][l]) * d[a] * d[b] * d[c] / d[l] for l in range(n)]
              for c in range(n)] for b in range(n)] for a in range(n)]


# ---------------------------------------------------------------------------
# the pair algebra <T,T> = (T^T)/A(T^T) of a raw triple tensor t[i][j][k][l]

def pair_algebra(t, p=None):
    """(reduced basis of A, bracket table) of the pair algebra of t.

    The wedge basis is e_i^e_j for i < j, in lexicographic order, and
    lam(e_i^e_j) acts as D = [e_i, e_j, -] by D(a^b) = Da^b + a^Db.  A is
    the reduced span of every lam(e_u).e_u and lam(e_u).e_v + lam(e_v).e_u.
    The bracket [s, t] is the normal form of lam(e_f).e_g modulo A, read at
    the free columns of A's reduced basis, f and g the free columns s and t;
    it is computed for every ordered pair, so antisymmetry is not assumed."""
    m, act = _wedge_action(t)
    gens = [act(u, u) for u in range(m)]
    gens += [[x + y for x, y in zip(act(u, v), act(v, u))] for u, v in combinations(range(m), 2)]
    red, pivots = naive_rref(gens, m, p)
    rows = red[:len(pivots)]
    free = [c for c in range(m) if c not in pivots]

    def normal_form(v):
        v = [scalar(x, p) for x in v]
        return [scalar(v[f] - sum((v[c] * row[f] for c, row in zip(pivots, rows)), Fraction(0)), p)
                for f in free]

    return rows, [[normal_form(act(f, g)) for g in free] for f in free]


def _wedge(pairs, a, b):
    """The coordinates of a^b on the wedge basis e_x^e_y, (x, y) in pairs."""
    return [Fraction(a[x]) * b[y] - Fraction(a[y]) * b[x] for x, y in pairs]


def _wedge_action(t):
    """(m, act) for the exterior square of t: its dimension m, and act(u, v),
    the coordinates of lam(e_u).e_v on the wedge basis e_i^e_j (i < j, in
    lexicographic order), where lam(e_i^e_j) = [e_i, e_j, -] acts by
    D(a^b) = Da^b + a^Db."""
    n = len(t)
    pairs = list(combinations(range(n), 2))
    e = [[int(r == c) for c in range(n)] for r in range(n)]

    def act(u, v):
        (i, j), (k, l) = pairs[u], pairs[v]
        return [x + y for x, y in zip(_wedge(pairs, t[i][j][k], e[l]), _wedge(pairs, e[k], t[i][j][l]))]

    return len(pairs), act


def wedge_action(d, p=None):
    """The matrix, as rows, of the action D.(a^b) = Da^b + a^Db of an n x n
    matrix D (nested lists) on the wedge basis e_i^e_j (i < j, in
    lexicographic order)."""
    n = len(d)
    pairs = list(combinations(range(n), 2))
    e = [[int(r == c) for c in range(n)] for r in range(n)]
    col = [[d[k][i] for k in range(n)] for i in range(n)]
    cols = [[scalar(x + y, p) for x, y in zip(_wedge(pairs, col[i], e[j]), _wedge(pairs, e[i], col[j]))]
            for i, j in pairs]
    return [list(row) for row in zip(*cols)] if cols else []


def lam_matrix(t):
    """lam(e_i^e_j) = [e_i, e_j, -] as a matrix: row (a, b) of End(T),
    column u = (i, j) of the wedge basis, entry t[i][j][a][b]."""
    n = len(t)
    pairs = list(combinations(range(n), 2))
    return [[t[i][j][a][b] for i, j in pairs] for a in range(n) for b in range(n)]


def image_kernel_products(t, p=None):
    """Every lam(e_u).k, for u a wedge index and k in a basis of ker(lam),
    where lam(e_i^e_j) = [e_i, e_j, -] in End(T): the products of Im(lam)
    with Ker(lam), as rows on the wedge basis."""
    m, act = _wedge_action(t)
    kernel = naive_kernel(lam_matrix(t), m, p)
    out = []
    for u in range(m):
        acts = [act(u, v) for v in range(m)]
        out += [[scalar(sum((Fraction(k[v]) * acts[v][w] for v in range(m) if k[v]), Fraction(0)), p)
                 for w in range(m)] for k in kernel]
    return out

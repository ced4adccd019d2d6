"""Independent brute-force oracles for the test suite.

Deliberately self-contained: integers, naive elimination, explicit loops,
and locally re-declared structure constants, so expected values come from a
second route sharing no code with the library.

One scalar type per field.  An oracle reads its inputs once, with
``integers``: over F_p into int residues, building no Fraction; over Q into
integers times one common denominator, dividing back once per output entry.
Fractions stay only in naive elimination over Q (``naive_rref`` and its
callers).  The raw-system builders are cached on their arguments and, like
the constant tensors here, hand out immutable tensors (nested tuples): a
test that mutates one copies it into lists first, so no test changes what
another reads.
"""

from fractions import Fraction
from functools import cache, wraps
from itertools import combinations, permutations, product
from math import lcm


def frozen(t):
    """A nested list or tuple as nested tuples."""
    return tuple(map(frozen, t)) if isinstance(t, (list, tuple)) else t


def thawed(t):
    """A nested list or tuple as nested lists, which a test may mutate."""
    return list(map(thawed, t)) if isinstance(t, (list, tuple)) else t


def scalar(x, p=None):
    """x (an int or a Fraction) as a Fraction, or as its residue in range(p)."""
    if p is None:
        return Fraction(x)
    return x % p if type(x) is int else x.numerator * pow(x.denominator, -1, p) % p


def integers(t, p=None):
    """(den, t as nested lists of ints): over Q den times t, den the least
    common denominator of t's entries; over F_p the residues of t, den 1."""
    def nested(s):
        return s and isinstance(s[0], (list, tuple))

    def lcd(s):
        return lcm(*map(lcd, s)) if nested(s) else lcm(*(x.denominator for x in s))

    def read(s):
        if nested(s):
            return [read(u) for u in s]
        return [x.numerator * (den // x.denominator) for x in s] if p is None else [scalar(x, p) for x in s]

    den = 1 if p is not None else lcd(t)
    return den, read(t)


def _back(x, den, p):
    """The int x divided back by den: a Fraction over Q, a residue mod p."""
    return Fraction(x, den) if p is None else x % p


def _mod(x, p):
    """The int x, reduced mod p over F_p."""
    return x if p is None else x % p


def _product(a, b):
    """a times b for int matrices, every entry the full sum, zeros included."""
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]


def vec_is_zero(field, v):
    """Whether every entry of v is zero (the field is that of the caller's vectors)."""
    return all(x == 0 for x in v)


def vec_add(u, v, p=None):
    """The entrywise sum of two vectors of equal length."""
    den, (u, v) = integers((u, v), p)
    return tuple(_back(a + b, den, p) for a, b in zip(u, v, strict=True))


def vec_sub(u, v, p=None):
    """The entrywise difference of two vectors of equal length."""
    return vec_add(u, [-x for x in v], p)


def naive_matmul(a, b, ncols, p=None):
    """a times b for raw nested lists, b with ncols columns: every entry is
    the full sum over the inner index, zeros included."""
    den, (a, b) = integers((a, b), p)
    return [[_back(sum(row[k] * b[k][j] for k in range(len(b))), den * den, p)
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
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        m[r] = [x * inv for x in m[r]] if p is None else [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y if p is None else (x - f * y) % p for x, y in zip(m[i], m[r])]
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


def in_span_of(vectors, p=None):
    """The test whether a vector lies in the span of vectors, whose reduced
    basis is eliminated once: v does when its coordinates reproduce it."""
    vectors = list(vectors)
    red, pivots = naive_rref(vectors, len(vectors[0]) if vectors else 0, p)
    basis = integers(red[:len(pivots)], p)[::-1]
    return lambda v: _coordinates(*basis, *integers(v, p)[::-1], p) is not None


def _coordinates(basis, bden, w, wden, p):
    """The coefficients of w / wden in the reduced basis basis / bden (int
    rows), its entries at the pivots; None when they do not reproduce it."""
    coords = [w[next(c for c, x in enumerate(b) if x)] for b in basis]
    if any(_mod(x * bden - sum(y * b[c] for y, b in zip(coords, basis)), p) for c, x in enumerate(w)):
        return None
    return [_back(x, wden, p) for x in coords]


def coordinates(basis, v, p=None):
    """Coefficients of v in a reduced basis (its entries at the pivots),
    after checking that they reproduce v."""
    coords = _coordinates(*integers(basis, p)[::-1], *integers(v, p)[::-1], p)
    assert coords is not None
    return coords


def bracket(c, x, y, p=None):
    """[x, y] for coordinate vectors x and y, from the raw bracket tensor c[i][j][l]."""
    den, (c, x, y) = integers((c, x, y), p)
    out = [0] * len(c)
    for i, j in product(range(len(c)), repeat=2):
        if x[i] and y[j]:
            for l, z in enumerate(c[i][j]):
                out[l] += x[i] * y[j] * z
    return tuple(_back(z, den ** 3, p) for z in out)


def graded_pairs(raw):
    return [(i, j) for i, j in combinations(range(raw[0] + raw[1]), 2) if (i < raw[0]) == (j < raw[0])]


def graded_triples(raw):
    return [t for t in combinations(range(raw[0] + raw[1]), 3) if sum(i >= raw[0] for i in t) % 2 == 0]


def delta1_matrix(raw):
    """Matrix of the degree-1 coboundary on trivial 1-dim coefficients:
    columns = even basis indices, rows = graded pairs."""
    pairs = graded_pairs(raw)
    evens = range(raw[0])
    return [[-raw[2].get((i, j, l), 0) for l in evens] for i, j in pairs]


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


def h2_graded_dims(raw, p=None):
    """(dim H^2, dim Z^2, dim B^2) with trivial 1-dim coefficients over Q, or
    over F_p when the raw constants are read mod p."""
    cocycles = len(graded_pairs(raw)) - frac_rank(delta2_matrix(raw), p)
    coboundaries = frac_rank(delta1_matrix(raw), p)
    return cocycles - coboundaries, cocycles, coboundaries


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
    den, (c, action, values) = integers((c, action, values), p)
    # f at every ordered tuple: the sign of the sorting permutation times its
    # value at the sorted combination, and 0 at a tuple with a repeat
    f = {args: [0] * m for args in product(range(n), repeat=degree)}
    for combo, v in zip(combinations(range(n), degree), values):
        for perm in permutations(range(degree)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(degree), 2))
            f[tuple(combo[k] for k in perm)] = [(-1) ** inversions * x for x in v]
    out = []
    for xs in combinations(range(n), degree + 1):
        df = [0] * m
        for i in range(degree + 1):
            rest = xs[:i] + xs[i + 1:]
            for s in range(m):
                df[s] += (-1) ** i * sum(action[xs[i]][s][r] * f[rest][r] for r in range(m))
        for i, j in combinations(range(degree + 1), 2):
            rest = tuple(x for k, x in enumerate(xs) if k not in (i, j))
            for l in range(n):
                for s in range(m):
                    df[s] += (-1) ** (i + j) * c[xs[i]][xs[j]][l] * f[(l,) + rest][s]
        out.append(tuple(_back(x, den * den, p) for x in df))
    return out


def subalgebra_closure(raw, seed, p=None):
    """The reduced basis of the smallest bracket-closed subspace containing
    the seed rows: V <- V + [V, V], with [u, v] for every ordered pair of
    V's reduced basis, until the dimension stops growing.  There is no early
    stop at the full space, so the last round only confirms.  Over Q each
    [u, v] is taken on u and v times one common denominator, a nonzero
    multiple of it, which spans the same line."""
    n = raw[0] + raw[1]

    def bracket(u, v):
        _, (u, v) = integers((u, v), p)
        out = [0] * n
        for (i, j, l), c in raw[2].items():
            out[l] += u[i] * v[j] * c
        return out

    red, pivots = naive_rref(seed, n, p)
    basis = red[:len(pivots)]
    while True:
        red, pivots = naive_rref(basis + [bracket(u, v) for u in basis for v in basis], n, p)
        if len(pivots) == len(basis):
            return red[:len(pivots)]
        basis = red[:len(pivots)]


# ---------------------------------------------------------------------------
# raw systems: cached, frozen tensors

def _built(build):
    """build, cached on its arguments (frozen, so that a tensor can be a
    key), handing out its tensor frozen."""
    kept = cache(lambda *args: frozen(build(*args)))
    return wraps(build)(lambda *args: kept(*map(frozen, args)))


def _exact(x, den):
    """The int x divided by den, as an int when den is 1."""
    return x if den == 1 else Fraction(x, den)


@_built
def lts_of_bracket(c):
    """t[i][j][k] = [[e_i, e_j], e_k] for a raw bracket c[i][j][l]."""
    n = len(c)
    den, c = integers(c)
    return [[[[_exact(sum(c[i][j][m] * c[m][k][l] for m in range(n)), den * den) for l in range(n)]
              for k in range(n)] for j in range(n)] for i in range(n)]


@_built
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


SL2_BRACKET = frozen([[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
                      [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
                      [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]])

ODD2_TRIPLE = frozen([[[[0, 0], [0, 0]], [[2, 0], [0, -2]]],
                      [[[-2, 0], [0, 2]], [[0, 0], [0, 0]]]])

# raw integer bracket tensors, global basis even-first
AB2_RAW = (0, 2, {})
HEIS_RAW = (1, 2, {(1, 2, 0): 1, (2, 1, 0): -1})
SL2_GRADED_RAW = (1, 2, {(0, 1, 1): 2, (1, 0, 1): -2,
                         (0, 2, 2): -2, (2, 0, 2): 2,
                         (1, 2, 0): 1, (2, 1, 0): -1})


@_built
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

    def coords(z):
        return [z[i][p + j] for i in range(p) for j in range(q)]

    n = len(basis)
    return [[[coords(comm(comm(basis[a], basis[b]), basis[c])) for c in range(n)]
             for b in range(n)] for a in range(n)]


def lts_violations(t, p=None):
    """Every failed axiom instance of the raw tensor t, as (identity, indices,
    defect), in the library's reporting order.  Scalars are Fractions (p is
    None) or residues mod p, and t's denominators are prime to p; each
    identity is evaluated from its definition on basis vectors, in integers:
    over F_p on residues, over Q on den * t, den the lcm of t's denominators,
    so that a defect linear in t (alternation, cyclic) is den times the true
    one and the derivation defect, quadratic in t, den^2 times."""
    n = len(t)
    den, tv = integers(t, p)
    # each coordinate vector as its nonzero (index, entry) pairs; e[i] is the basis vector e_i
    sparse = [[[[(l, x) for l, x in enumerate(v) if x] for v in tij] for tij in ti] for ti in tv]
    e = [[(i, 1)] for i in range(n)]

    def bracket(a, b, c):
        # [a, b, c] for sparse integer coordinate vectors a, b, c
        out = [0] * n
        for i, x in a:
            for j, y in b:
                for k, z in c:
                    for l, w in sparse[i][j][k]:
                        out[l] += x * y * z * w
        return out

    found, report = _reporter(den, p)
    for i, k in product(range(n), repeat=2):
        report("alternating", (i, i, k), tv[i][i][k])
    for (i, j), k in product(combinations(range(n), 2), range(n)):
        report("polarized-alternating", (i, j, k), [x + y for x, y in zip(tv[i][j][k], tv[j][i][k])])
    for i, j, k in product(range(n), repeat=3):
        report("cyclic", (i, j, k), [x + y + z for x, y, z in zip(tv[i][j][k], tv[j][k][i], tv[k][i][j])])
    for i, j, k, l, m in product(range(n), repeat=5):
        lhs = bracket(e[i], e[j], sparse[k][l][m])
        r1 = bracket(sparse[i][j][k], e[l], e[m])
        r2 = bracket(e[k], sparse[i][j][l], e[m])
        r3 = bracket(e[k], e[l], sparse[i][j][m])
        report("derivation", (i, j, k, l, m), [a - b - c - d for a, b, c, d in zip(lhs, r1, r2, r3)], 2)
    return found


def _reporter(den, p):
    """(found, report): report(identity, indices, vec, degree) appends to found
    the defect vec / den^degree of an integer vec, unless it is zero."""
    found = []

    def report(identity, indices, vec, degree=1):
        if any(vec):
            defect = tuple(_back(x, den ** degree, p) for x in vec)
            if any(defect):
                found.append((identity, indices, defect))

    return found, report


def _jacobiator(v, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] for the int bracket v."""
    out = [0] * len(v)
    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
        for m, x in enumerate(v[a][b]):
            if x:
                for l, y in enumerate(v[m][d]):
                    out[l] += x * y
    return out


def graded_violations(c, dim0, p=None):
    """Every failed axiom instance of the raw bracket c[i][j][l] with even
    part e_0..e_{dim0-1}, as (family, indices, defect), in the library's
    reporting order: [e_i, e_i] = 0 and then antisymmetry at (i, j) for each
    j > i, row by row; then every nonzero constant of [e_i, e_j] at an e_k of
    the wrong parity, its defect the 1-tuple of that constant; then the Jacobi
    identity at i < j < k.  Scalars are Fractions (p is None) or residues mod
    p; each identity is evaluated from its definition, in integers as in
    lts_violations (the Jacobi defect, quadratic in c, is den^2 times the
    true one)."""
    n = len(c)
    den, v = integers(c, p)
    found, report = _reporter(den, p)
    for i in range(n):
        report("alternating", (i, i), v[i][i])
        for j in range(i + 1, n):
            report("antisymmetry", (i, j), [x + y for x, y in zip(v[i][j], v[j][i])])
    for i, j, k in product(range(n), repeat=3):
        # [L_a, L_b] lies in L_{a+b}: the degrees of i, j and k sum to an even number
        if v[i][j][k] and ((i >= dim0) + (j >= dim0) + (k >= dim0)) % 2:
            found.append(("grading", (i, j, k), (_back(v[i][j][k], den, p),)))
    for i, j, k in combinations(range(n), 3):
        report("jacobi", (i, j, k), _jacobiator(v, i, j, k), 2)
    return found


def representation_failure(c, action, p=None):
    """The first basis pair (i, j), row by row over every ordered pair, at
    which the dense m x m matrices action[i] fail the law that [e_i, e_j]
    acts as e_i e_j - e_j e_i, for the raw bracket c[i][j][l]; None when
    there is none.  Every product and sum runs in full, zeros included, on
    c and action times one common denominator (so both sides of the law are
    den^2 times the true ones)."""
    n = len(c)
    den, (c, a) = integers((c, action), p)
    m = len(a[0]) if a else 0
    for i, j in product(range(n), repeat=2):
        ij, ji = _product(a[i], a[j]), _product(a[j], a[i])
        for r, k in product(range(m), repeat=2):
            lhs = sum(c[i][j][l] * a[l][r][k] for l in range(n))
            if _mod(lhs - ij[r][k] + ji[r][k], p):
                return (i, j)
    return None


def lie_bracket_error(c, p=None):
    """The message of the first failed Lie algebra axiom of the raw bracket
    c[i][j][l], or None, scanning every ordered index tuple: for each i,
    [e_i, e_i] = 0 and then antisymmetry at (i, j) for every j; then the
    Jacobi identity at every ordered triple (i, j, k)."""
    n = len(c)
    _, v = integers(c, p)
    for i in range(n):
        if any(v[i][i]):
            return f"not a Lie algebra: [e_{i}, e_{i}] != 0"
        for j in range(n):
            if any(_mod(x + y, p) for x, y in zip(v[i][j], v[j][i])):
                return f"not a Lie algebra: antisymmetry fails at ({i}, {j})"
    for i, j, k in product(range(n), repeat=3):
        if any(_mod(x, p) for x in _jacobiator(v, i, j, k)):
            return f"not a Lie algebra: Jacobi fails at ({i}, {j}, {k})"
    return None


# ---------------------------------------------------------------------------
# derivations and inner derivations of a raw triple tensor t[i][j][k][l]

def derivation_basis(t, p=None):
    """The reduced basis of the derivations of t, flattened row-major.

    Each column of the system is the defect D[e_i, e_j, e_k] - [De_i, e_j, e_k]
    - [e_i, De_j, e_k] - [e_i, e_j, De_k] over the (i, j, k, l) of one matrix
    unit D = E_uv (De_v = e_u), since the defect is linear in D; a row that
    repeats an earlier one is dropped, which leaves the null space as it is,
    and so does reading t times a common denominator.  Where t alternates in
    its first two slots modulo p (t[i][i] = 0 and t[j][i] = -t[i][j]), so
    does the defect: the rows at j > i are those at i < j negated and the
    rows at i = j are zero, so only i < j are read."""
    n = len(t)
    _, t = integers(t, p)
    alternating = all(t[i][i][k][l] == 0 and _mod(t[i][j][k][l] + t[j][i][k][l], p) == 0
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
    that repeats an earlier one is dropped.  c is read times a common
    denominator, which leaves the null space as it is."""
    n = len(c)
    _, c = integers(c, p)
    units = [(u, v) for u, v in product(range(n), repeat=2) if (u < dim0) == (v < dim0)]
    cols = [[c[x][y][v] * int(l == u) - int(x == v) * c[u][y][l] - int(y == v) * c[x][u][l]
             for x, y in combinations(range(n), 2) for l in range(n)] for u, v in units]
    rows = [list(r) for r in dict.fromkeys(zip(*cols)) if any(r)]
    return len(naive_kernel(rows, len(units), p))


def derivation_bracket(basis, n, p=None):
    """The commutator table of the flattened derivations in basis."""
    den, flats = integers(basis, p)
    mats = [[b[r * n:(r + 1) * n] for r in range(n)] for b in flats]

    def commutator(x, y):  # den^2 [x, y], flattened
        return [a - b for ra, rb in zip(_product(x, y), _product(y, x)) for a, b in zip(ra, rb)]

    table = [[_coordinates(flats, den, commutator(x, y), den * den, p) for y in mats] for x in mats]
    assert not any(None in row for row in table)
    return table


def inner_derivation_basis(t, p=None):
    """The reduced basis of span{[e_i, e_j, -] : i < j}, flattened row-major
    (read on t times a common denominator, which spans the same space)."""
    n = len(t)
    _, t = integers(t, p)
    flats = [[t[i][j][m][r] for r in range(n) for m in range(n)]
             for i in range(n) for j in range(i + 1, n)]
    red, pivots = naive_rref(flats, n * n, p)
    return red[:len(pivots)]


@_built
def change_basis(t, seed):
    """The raw integer tensor t in the basis f_a = sum_i P[i][a] e_i, for a
    seeded unimodular integer P = LU (unit triangular L and U, off-diagonal
    entries in -1..1), so the new constants are integers and mostly nonzero."""
    return _in_basis(t, 3, *_unimodular(len(t), seed))


@_built
def change_bracket_basis(c, seed):
    """The raw bracket c in the basis f of change_basis(t, seed), for t of the
    same dimension: lts_of_bracket of it is change_basis(lts_of_bracket(c), seed)."""
    return _in_basis(c, 2, *_unimodular(len(c), seed))


def change_graded_basis(c, dim0, seed):
    """The raw bracket c in a basis that keeps the grading: f_a = sum_i P[i][a]
    e_i for P block diagonal, a seeded unimodular block (as in change_basis)
    on the even part and another on the odd part."""
    n = len(c)
    f0, inv0 = _unimodular(dim0, seed)
    f1, inv1 = _unimodular(n - dim0, seed + 1)
    f = [v + [0] * (n - dim0) for v in f0] + [[0] * dim0 + v for v in f1]
    pinv = [row + [0] * (n - dim0) for row in inv0] + [[0] * dim0 + row for row in inv1]
    return _in_basis(c, 2, f, pinv)


def _in_basis(t, arity, f, pinv):
    """The raw tensor t (a bracket, arity 2, or a triple, arity 3) in the basis
    f, f[a] the integer coordinates of f_a and pinv the inverse of the integer
    matrix whose columns are the f[a]: t(f_a, f_b, ..) expanded on basis
    vectors, then written on f."""
    n = len(t)
    den, t = integers(t)

    def value(args):
        out = [0] * n
        for indices in product(*([i for i, x in enumerate(f[a]) if x] for a in args)):
            entry, coeff = t, 1
            for a, i in zip(args, indices):
                entry, coeff = entry[i], coeff * f[a][i]
            for l, x in enumerate(entry):
                out[l] += coeff * x
        return [_exact(sum(x * y for x, y in zip(row, out)), den) for row in pinv]

    def build(args):
        return value(args) if len(args) == arity else [build(args + (a,)) for a in range(n)]

    return build(())


def _unimodular(n, seed):
    """(f, P^-1) for a seeded unimodular integer P = LU (unit triangular L and
    U, off-diagonal entries in -1..1), f[a] the column a of P; both integer."""
    import random
    rng = random.Random(seed)
    lo = [[int(i == j) if i <= j else rng.choice((-1, 0, 1)) for j in range(n)] for i in range(n)]
    up = [[int(i == j) if i >= j else rng.choice((-1, 0, 1)) for j in range(n)] for i in range(n)]
    pm = _product(lo, up)
    red, _ = naive_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(pm)], 2 * n)
    return [[pm[i][a] for i in range(n)] for a in range(n)], [[int(x) for x in row[n:]] for row in red]


@_built
def rational_change_basis(t, seed):
    """The raw tensor t in the basis g_a = d_a f_a, where f is the basis of
    change_basis(t, seed) and d = (2, 1/3, 1, ..., 1): the constant of g_l
    in [g_a, g_b, g_c] is d_a d_b d_c / d_l times that of f_l, so the
    constants themselves have denominators."""
    u = change_basis(t, seed)
    n = len(t)
    d = [Fraction(2), Fraction(1, 3), *[Fraction(1)] * n][:n]
    return [[[[u[a][b][c][l] * d[a] * d[b] * d[c] / d[l] for l in range(n)]
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
    it is computed for every ordered pair, so antisymmetry is not assumed.
    The actions are read on den * t, which leaves A as it is."""
    den, t = integers(t, p)
    act = [_wedge_images(t[i][j]) for i, j in combinations(range(len(t)), 2)]
    m = len(act)
    gens = [act[u][u] for u in range(m)]
    gens += [[x + y for x, y in zip(act[u][v], act[v][u])] for u, v in combinations(range(m), 2)]
    red, pivots = naive_rref(gens, m, p)
    rden, rows = integers(red[:len(pivots)], p)
    free = [c for c in range(m) if c not in pivots]

    def normal_form(v):
        return [_back(v[f] * rden - sum(v[c] * row[f] for c, row in zip(pivots, rows)), den * rden, p)
                for f in free]

    return red[:len(pivots)], [[normal_form(act[f][g]) for g in free] for f in free]


def _wedge_images(images):
    """D(e_k^e_l) = De_k^e_l + e_k^De_l on the wedge basis e_x^e_y (x < y, in
    lexicographic order), for each k < l, images[k] the int vector De_k."""
    pairs = list(combinations(range(len(images)), 2))
    return [[images[k][x] * (y == l) - images[k][y] * (x == l) + (x == k) * images[l][y]
             - (y == k) * images[l][x] for x, y in pairs] for k, l in pairs]


def wedge_action(d, p=None):
    """The matrix, as rows, of the action D.(a^b) = Da^b + a^Db of an n x n
    matrix D (nested lists) on the wedge basis e_i^e_j (i < j, in
    lexicographic order)."""
    den, d = integers(d, p)
    cols = _wedge_images([list(col) for col in zip(*d)])
    return [[_back(x, den, p) for x in row] for row in zip(*cols)]


def lam_matrix(t):
    """lam(e_i^e_j) = [e_i, e_j, -] as a matrix: row (a, b) of End(T),
    column u = (i, j) of the wedge basis, entry t[i][j][a][b]."""
    n = len(t)
    pairs = list(combinations(range(n), 2))
    return [[t[i][j][a][b] for i, j in pairs] for a in range(n) for b in range(n)]


def image_kernel_products(t, p=None):
    """Every lam(e_u).k, for u a wedge index and k in a basis of ker(lam),
    where lam(e_i^e_j) = [e_i, e_j, -] in End(T): the products of Im(lam)
    with Ker(lam), as rows on the wedge basis, summed on den * t and on the
    kernel times its common denominator, and divided back once."""
    den, t = integers(t, p)
    kden, kernel = integers(naive_kernel(lam_matrix(t), len(t) * (len(t) - 1) // 2, p), p)
    out = []
    for i, j in combinations(range(len(t)), 2):
        acts = _wedge_images(t[i][j])
        out += [[_back(sum(x * y for x, y in zip(k, col) if x), den * kden, p) for col in zip(*acts)]
                for k in kernel]
    return out

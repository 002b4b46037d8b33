"""Small exact linear algebra over Z and Q.

Everything works on row-major lists (or tuples) of Python ints or
Fractions.  Dimensions are tiny (n <= 4 for all lattice work), so the
code favours clarity and exactness over asymptotics.
"""

import math
from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def ext_gcd(a, b):
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def det_bareiss(m):
    """Determinant of an integer matrix, fraction-free (Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def det_fraction(m):
    """Determinant over Q by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def det(m):
    if all(isinstance(x, int) for row in m for x in row):
        return det_bareiss(m)
    return det_fraction(m)


def rank_int(m):
    """Rank over Q of an integer matrix by fraction-free elimination.

    Pivot rule: leftmost nonzero column, then the row whose entry has the
    largest absolute value (first such row on ties).
    """
    a = [list(row) for row in m]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv, best = None, 0
        for i in range(r, rows):
            if abs(a[i][c]) > best:
                piv, best = i, abs(a[i][c])
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            if a[i][c]:
                g = a[r][c]
                f = a[i][c]
                a[i] = [g * x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def is_positive_definite(g):
    """True iff g is square, symmetric and all its leading principal minors
    are positive.  One Bareiss elimination without pivoting: its k-th pivot
    is the k-th leading minor, so it stops at the first non-positive one.
    Rational entries are scaled to integers first, which keeps the signs."""
    n = len(g)
    if any(len(row) != n for row in g):
        return False
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        return False
    if all(type(x) is int for row in g for x in row):
        a = [list(row) for row in g]
    else:
        rows = [[Fraction(x) for x in row] for row in g]
        scale = math.lcm(*[x.denominator for row in rows for x in row])
        a = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    prev = 1
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * piv - a[i][k] * a[k][j]) // prev
        prev = piv
    return True


def invert_fraction(m):
    """Inverse of a nonsingular matrix over Q (Gauss-Jordan)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def solve_fraction(m, v):
    return mat_vec(invert_fraction(m), [Fraction(x) for x in v])


def solve_upper_int(h, v):
    """Solve h*x = v over Z for upper-triangular integer h with positive
    diagonal.  Returns None when v is not an integer combination of the
    columns of h."""
    n = len(h)
    rem = list(v)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        if rem[i] % h[i][i]:
            return None
        xi = rem[i] // h[i][i]
        x[i] = xi
        if xi:
            for r in range(i + 1):
                rem[r] -= xi * h[r][i]
    if any(rem):
        return None
    return x


def hnf_upper(columns, n):
    """Column-style Hermite normal form of the lattice spanned by `columns`.

    Returns an n x n row-major matrix H that is upper triangular with
    positive diagonal and H[i][j] in [0, H[i][i]) for j > i.  The basis
    vectors are the columns of H.  Raises ValueError when the columns do
    not span a full-rank lattice.
    """
    cols = [list(c) for c in columns if any(c)]
    if not cols:
        raise ValueError("zero lattice has no HNF basis")
    basis = [None] * n
    for i in range(n - 1, -1, -1):
        work = [c for c in cols if c[i] != 0]
        rest = [c for c in cols if c[i] == 0]
        if not work:
            raise ValueError("generators do not span a full-rank lattice")
        piv = work[0]
        for c in work[1:]:
            g, u, v = ext_gcd(piv[i], c[i])
            q1, q2 = piv[i] // g, c[i] // g
            combined = [u * piv[k] + v * c[k] for k in range(n)]
            leftover = [q1 * c[k] - q2 * piv[k] for k in range(n)]
            piv = combined
            if any(leftover):
                rest.append(leftover)
        if piv[i] < 0:
            piv = [-x for x in piv]
        basis[i] = piv
        cols = rest
    # reduce off-diagonal entries into [0, diag)
    for j in range(n):
        for i in range(j - 1, -1, -1):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))

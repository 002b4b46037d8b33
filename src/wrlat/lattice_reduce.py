"""Exact shortest-vector machinery.

Gram matrices are exact; a rational one is scaled by the lcm of its
denominators, the only Fraction work.  The integral LLL on the Gram matrix
(Cohen, GTM 138, Alg. 2.6.7) yields integer leading minors d_i and scaled
Gram-Schmidt coefficients lam_ij, which drive Fincke-Pohst enumeration in
scaled integers (Math. Comp. 44, 1985), depth first, the bound shrinking
as shorter vectors appear.  No floating point anywhere.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg

_NOT_PD = "Gram matrix is not symmetric positive definite"


@dataclass(frozen=True)
class GramForm:
    """Symmetric positive-definite matrix of an exact bilinear form."""

    matrix: tuple

    def __post_init__(self):
        if not linalg.is_positive_definite(self.matrix):
            raise ValueError(_NOT_PD)

    @property
    def n(self):
        return len(self.matrix)


@dataclass(frozen=True)
class ShortVectorSet:
    """Minimum value and all attaining vectors, one per +- pair.

    Representatives are sign-normalized (first nonzero coordinate
    positive) and sorted lexicographically.
    """

    minimum: object
    vectors: tuple

    @property
    def count(self):
        return 2 * len(self.vectors)


@dataclass(frozen=True)
class WrReport:
    minimum: object
    count: int
    rank: int
    is_wr: bool
    is_strongly_wr: bool
    is_orthogonal_minimal_basis: bool
    witness: tuple | None
    vectors: tuple


def _matrix_of(gram):
    if isinstance(gram, GramForm):
        return [list(row) for row in gram.matrix]
    return [list(row) for row in gram]


def _integral(gram):
    """(D * gram, D) for the lcm D of the denominators of the exact entries.

    `as_integer_ratio` is exact on ints, Fractions and floats alike; an
    int gives (x, 1) with no Fraction built."""
    rows = [[x.as_integer_ratio() for x in row] for row in _matrix_of(gram)]
    scale = math.lcm(*[den for row in rows for _, den in row])
    return [[num * (scale // den) for num, den in row] for row in rows], scale


def lll_reduce_gram(gram):
    """Integral LLL with delta = 3/4 on an integer quadratic form.

    Cohen, GTM 138, Alg. 2.6.7, run on the Gram matrix.  Returns
    (g_reduced, u, d, lam) with g_reduced = u^T * gram * u; the columns of
    the unimodular u express the reduced basis in the input basis, d[i] is
    the leading i x i minor of g_reduced (d[0] = 1) and lam[k][j] =
    d[j+1] * mu_kj for j < k are the scaled Gram-Schmidt coefficients, all
    integers.  Raises ValueError unless gram is square, symmetric and
    positive definite; d[i] > 0 at every step certifies the last.
    """
    g = _matrix_of(gram)
    n = len(g)
    if any(len(row) != n for row in g) or any(
            g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise ValueError(_NOT_PD)
    u = linalg.identity(n)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def orthogonalize(k):
        for j in range(k + 1):
            t = g[k][j]
            for i in range(j):
                t = (d[i + 1] * t - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = t
        d[k + 1] = t
        if t <= 0:
            raise ValueError(_NOT_PD)

    def reduce(k, j):
        # b_k <- b_k - q*b_j with q the integer nearest mu_kj
        if 2 * abs(lam[k][j]) <= d[j + 1]:
            return
        q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
        for t in range(n):
            u[t][k] -= q * u[t][j]
        gkk = g[k][k] - 2 * q * g[k][j] + q * q * g[j][j]
        for t in range(n):
            if t != k:
                g[k][t] -= q * g[j][t]
                g[t][k] = g[k][t]
        g[k][k] = gkk
        lam[k][j] -= q * d[j + 1]
        for i in range(j):
            lam[k][i] -= q * lam[j][i]

    def swap(k, kmax):
        for t in range(n):
            u[t][k], u[t][k - 1] = u[t][k - 1], u[t][k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for t in range(n):
            g[t][k], g[t][k - 1] = g[t][k - 1], g[t][k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        r = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + r * r) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - r * t) // d[k]
            lam[i][k - 1] = (b * t + r * lam[i][k]) // d[k + 1]
        d[k] = b

    if n:
        orthogonalize(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            orthogonalize(k)
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return (tuple(tuple(row) for row in g), tuple(tuple(row) for row in u),
            tuple(d), tuple(tuple(row[:i]) for i, row in enumerate(lam)))


def _floor_sqrt(x):
    """floor(sqrt(x)) for a nonnegative int or Fraction."""
    if isinstance(x, int):
        return math.isqrt(x)
    return math.isqrt(x.numerator * x.denominator) // x.denominator


def _sign_normalize(v):
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def _as_min(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def shortest_vectors(gram) -> ShortVectorSet:
    """Exhaustive set of nonzero minimizers of v^T G v.

    Fincke-Pohst in scaled integers on the integral LLL reduction of
    D * G (D the lcm of the denominators of G): with M = prod d[i]*d[i+1],
    M * Q(x) = sum_i w[i] * (d[i+1]*x_i + sum_{j>i} lam[j][i]*x_j)^2 where
    w[i] = M / (d[i]*d[i+1]).  Depth-first enumeration from the last
    coordinate; the bound starts at the least reduced diagonal entry and
    shrinks whenever a shorter vector appears.
    """
    g, scale = _integral(gram)
    gred, u, d, lam = lll_reduce_gram(g)
    n = len(gred)
    m = math.prod(d[i] * d[i + 1] for i in range(n))
    w = [m // (d[i] * d[i + 1]) for i in range(n)]
    best = m * min(gred[i][i] for i in range(n))
    found = []
    x = [0] * n

    def descend(level, used):
        nonlocal best, found
        di, wi = d[level + 1], w[level]
        c = sum(lam[j][level] * x[j] for j in range(level + 1, n))
        s = math.isqrt((best - used) // wi)
        for xi in range(-((s + c) // di), (s - c) // di + 1):
            t = di * xi + c
            tot = used + wi * t * t
            if tot > best:
                continue
            x[level] = xi
            if level:
                descend(level - 1, tot)
            elif any(x):
                if tot < best:
                    best, found = tot, [tuple(x)]
                else:
                    found.append(tuple(x))
        x[level] = 0

    descend(n - 1, 0)
    vecs = set()
    for v in found:
        b = tuple(sum(u[i][j] * v[j] for j in range(n)) for i in range(n))
        vecs.add(_sign_normalize(b))
    return ShortVectorSet(_as_min(Fraction(best // m, scale)), tuple(sorted(vecs)))


def naive_shortest(gram, box_radius=None) -> ShortVectorSet:
    """Brute-force box scan; independent check of shortest_vectors.

    With box_radius=None the per-coordinate radii come from the dual
    bound v_i^2 <= B * (G^-1)_ii where B is the least diagonal entry of G,
    which provably contains every vector of value <= B.
    """
    g = _matrix_of(gram)
    n = len(g)
    if box_radius is not None:
        radii = [box_radius] * n
    else:
        bound = min(g[i][i] for i in range(n))
        ginv = linalg.invert_fraction(g)
        radii = [_floor_sqrt(Fraction(bound) * ginv[i][i]) for i in range(n)]
    best = None
    found = []
    for v in itertools.product(*[range(-r, r + 1) for r in radii]):
        if not any(v):
            continue
        val = sum(g[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if best is None or val < best:
            best = val
            found = [v]
        elif val == best:
            found.append(v)
    vecs = sorted({_sign_normalize(v) for v in found})
    return ShortVectorSet(_as_min(Fraction(best)), tuple(vecs))


def gram_of_ideal(ideal) -> GramForm:
    """Gram matrix of the HNF basis columns under the field bilinear form."""
    h = ideal.hnf
    g0 = ideal.field.gram0
    n = len(h)
    cols = [[h[i][j] for i in range(n)] for j in range(n)]
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        ga = [sum(g0[i][j] * cols[a][j] for j in range(n)) for i in range(n)]
        for b in range(a, n):
            v = sum(ga[i] * cols[b][i] for i in range(n))
            out[a][b] = out[b][a] = v
    return GramForm(tuple(tuple(row) for row in out))


def wr_report(ideal) -> WrReport:
    """Enumerate the ideal lattice and decide the well-roundedness flags.

    is_wr: the minimal vectors contain n independent vectors.
    is_strongly_wr: some n minimal vectors form a basis of the lattice
    (determinant +-1 over the HNF basis).
    is_orthogonal_minimal_basis: such a basis exists with pairwise
    orthogonal vectors; when found it is reported as the witness.
    """
    gram = gram_of_ideal(ideal)
    sv = shortest_vectors(gram)
    n = gram.n
    reps = sv.vectors
    rank = linalg.rank_int([list(v) for v in reps])
    is_wr = rank == n
    g = gram.matrix
    witness = None
    strongly = False
    orthogonal = False
    if is_wr:
        for combo in itertools.combinations(reps, n):
            if abs(linalg.det_bareiss([list(v) for v in combo])) != 1:
                continue
            if not strongly:
                strongly = True
                witness = combo
            ortho = all(
                sum(g[i][j] * combo[a][i] * combo[b][j]
                    for i in range(n) for j in range(n)) == 0
                for a in range(n) for b in range(a + 1, n))
            if ortho:
                witness = combo
                orthogonal = True
                break
    return WrReport(
        minimum=sv.minimum,
        count=sv.count,
        rank=rank,
        is_wr=is_wr,
        is_strongly_wr=strongly,
        is_orthogonal_minimal_basis=orthogonal,
        witness=witness,
        vectors=reps,
    )

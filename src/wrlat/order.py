"""The integral order shared by the cubic and quartic field families.

For the lattice layer a field of degree n is integer data over its
integral basis (gamma_1 = 1, ..., gamma_n):

    mul_table[i][j]   coordinates of gamma_i * gamma_j,
    sigma_int         the matrix of the Galois generator,
    gram0             the Gram matrix of the embedding form, det = disc.

`IntegralOrder` builds these tables from a subclass's element arithmetic
and carries everything that depends only on n, the integral basis, `mul`,
`sigma` and `bilinear`.  Elements are n-tuples of exact rationals over the
subclass's own coordinate basis, whose first vector is 1; integral
coordinates are n-tuples of ints.
"""

from fractions import Fraction

from . import linalg
from .lattice_reduce import GramForm


class IntegralOrder:
    """Base of both field classes.

    A subclass sets n, df (monic defining polynomial, ascending, leading 1
    left out) and disc, defines mul, sigma, bilinear and key, and then calls
    `_build_integral_tables` with its integral basis.
    """

    def _build_integral_tables(self, integral_basis):
        self.integral_basis = basis = tuple(integral_basis)
        n = self.n
        self._to_int_matrix = linalg.invert_fraction(
            [[e[i] for e in basis] for i in range(n)])
        gram0 = [[self.bilinear(x, y) for y in basis] for x in basis]
        assert all(v.denominator == 1 for row in gram0 for v in row)
        self.gram0 = tuple(tuple(int(v) for v in row) for row in gram0)
        assert linalg.det_bareiss(self.gram0) == self.disc
        self.mul_table = tuple(tuple(self.to_integral_exact(self.mul(x, y)) for y in basis)
                               for x in basis)
        self.sigma_int = tuple(zip(*[self.to_integral_exact(self.sigma(g)) for g in basis]))
        # imul's inner loop: only the nonzero (k, w_k) of each gamma_i * gamma_j,
        # which keeps it as fast as a loop unrolled for one degree
        self._imul_terms = tuple(tuple(tuple((k, w) for k, w in enumerate(prod) if w)
                                       for prod in row) for row in self.mul_table)

    # -- n-tuple arithmetic ------------------------------------------------------

    def add(self, x, y):
        return tuple(u + v for u, v in zip(x, y))

    def sub(self, x, y):
        return tuple(u - v for u, v in zip(x, y))

    def neg(self, x):
        return tuple(-u for u in x)

    def scale(self, x, k):
        return tuple(k * u for u in x)

    def from_int(self, k):
        return (Fraction(k),) + (Fraction(0),) * (self.n - 1)

    def eval_df(self, x):
        out = self.add(x, self.from_int(self.df[-1]))
        for c in reversed(self.df[:-1]):
            out = self.add(self.mul(out, x), self.from_int(c))
        return out

    # -- Galois orbit, norm and the embedding form -------------------------------

    def conjugates(self, x):
        out = [x]
        for _ in range(self.n - 1):
            out.append(self.sigma(out[-1]))
        return out

    def norm(self, x) -> Fraction:
        prod = self.from_int(1)
        for conj in self.conjugates(x):
            prod = self.mul(prod, conj)
        assert not any(prod[1:])
        return prod[0]

    def length_sq(self, x) -> Fraction:
        return self.bilinear(x, x)

    def gram_form(self, basis) -> GramForm:
        """Gram matrix of n elements; a dependent basis is rejected as singular."""
        if len(basis) != self.n:
            raise ValueError("basis must consist of %d independent elements" % self.n)
        return GramForm(tuple(tuple(self.bilinear(x, y) for y in basis) for x in basis))

    # -- integral coordinates ------------------------------------------------------

    def to_integral(self, x):
        return tuple(linalg.mat_vec(self._to_int_matrix, list(x)))

    def is_integral(self, x) -> bool:
        return all(c.denominator == 1 for c in self.to_integral(x))

    def to_integral_exact(self, x):
        coords = self.to_integral(x)
        if any(c.denominator != 1 for c in coords):
            raise ValueError("element is not integral: %r" % (x,))
        return tuple(int(c) for c in coords)

    def from_integral(self, coords):
        out = self.from_int(0)
        for c, g in zip(coords, self.integral_basis):
            out = self.add(out, self.scale(g, c))
        return out

    def imul(self, u, v):
        out = [0] * self.n
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self._imul_terms[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                f = ui * vj
                for k, w in row[j]:
                    out[k] += f * w
        return tuple(out)

    def isigma(self, u):
        return tuple(sum(s * x for s, x in zip(row, u)) for row in self.sigma_int)

    def __eq__(self, other):
        return isinstance(other, IntegralOrder) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

"""The integral order shared by the cubic and quartic field families.

For the lattice layer a field of degree n is integer data over its
integral basis (gamma_1 = 1, ..., gamma_n):

    mul_table[i][j]   coordinates of gamma_i * gamma_j,
    sigma_int         the matrix of the Galois generator,
    gram0             the Gram matrix of the embedding form, det = disc,
    sigma_orbit_basis a Z-basis of 1 and sigma-images of few basis vectors
                      (computed on first use).

The integral basis is adapted to the subfield chain, as the tables
assert: for every h | n, gamma_1, ..., gamma_h span the integers fixed
by sigma^h.  The splitting engine reads decomposition fields off it.

`IntegralOrder` builds these tables from a subclass's element arithmetic
and carries everything that depends only on n, the integral basis, `mul`,
`sigma` and `bilinear`.  Elements are n-tuples of exact rationals over the
subclass's own coordinate basis, whose first vector is 1; integral
coordinates are n-tuples of ints.  The change of coordinates is an integer
matrix over one common denominator, so converting an element costs integer
dot products and one divisibility test.
"""

import functools
import itertools
import math
from fractions import Fraction

from . import linalg
from .lattice_reduce import GramForm


class IntegralOrder:
    """Base of both field classes.

    A subclass sets n, df (monic defining polynomial, ascending, leading 1
    left out), disc and index (of the order generated by a root of df, so
    disc(df) = index^2 * disc), defines mul, sigma, bilinear and key, and
    then calls `_build_integral_tables` with its integral basis.
    """

    def _build_integral_tables(self, integral_basis):
        self.integral_basis = basis = tuple(integral_basis)
        n = self.n
        # integral coordinates of x are _to_int_num * x / _to_int_den
        inv = linalg.invert_fraction([[e[i] for e in basis] for i in range(n)])
        self._to_int_den = den = math.lcm(*[x.denominator for row in inv for x in row])
        self._to_int_num = tuple(tuple(int(x * den) for x in row) for row in inv)
        gram0 = [[self.bilinear(x, y) for y in basis] for x in basis]
        assert all(v.denominator == 1 for row in gram0 for v in row)
        self.gram0 = tuple(tuple(int(v) for v in row) for row in gram0)
        assert linalg.det_bareiss(self.gram0) == self.disc
        self.mul_table = tuple(tuple(self.to_integral_exact(self.mul(x, y)) for y in basis)
                               for x in basis)
        self.sigma_int = tuple(zip(*[self.to_integral_exact(self.sigma(g)) for g in basis]))
        # adapted to the subfield chain: sigma^h fixes gamma_1..gamma_h and
        # S^h - I has rank n - h, so those h vectors span the integers fixed by sigma^h
        cols = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        for h in range(1, n):
            cols = [self.isigma(c) for c in cols]
            if n % h == 0:
                moved = [[x - int(i == j) for i, x in enumerate(c)] for j, c in enumerate(cols)]
                assert not any(map(any, moved[:h])) and linalg.rank_int(moved) == n - h, \
                    "%s: the integral basis is not adapted to the subfield fixed by " \
                    "sigma^%d" % (self.key, h)
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

    def _scaled_integral(self, x):
        """(y, s): integers y and s > 0 with integral coordinates y / s."""
        scale = math.lcm(*[c.denominator for c in x])
        v = [c.numerator * (scale // c.denominator) for c in x]
        y = [sum(a * b for a, b in zip(row, v)) for row in self._to_int_num]
        return y, scale * self._to_int_den

    def to_integral(self, x):
        y, s = self._scaled_integral(x)
        return tuple(Fraction(c, s) for c in y)

    def is_integral(self, x) -> bool:
        y, s = self._scaled_integral(x)
        return all(c % s == 0 for c in y)

    def to_integral_exact(self, x):
        y, s = self._scaled_integral(x)
        if any(c % s for c in y):
            raise ValueError("element is not integral: %r" % (x,))
        return tuple(c // s for c in y)

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

    @functools.cached_property
    def sigma_orbit_basis(self):
        """(gens, members, inverse): a Z-basis of O made of gamma_1 = 1 and
        sigma-images of as few integral basis vectors as possible.

        members are n pairs (j, k), each standing for sigma^k(gamma_{j+1}),
        with (0, 0) for 1; gens are the indices j > 0 whose orbits are used;
        inverse is the integer inverse of the matrix whose columns are the
        members' integral coordinates (det +-1).  A ring map that commutes
        with sigma and fixes 1, such as Frobenius on O/pO, is thus known from
        its values on the gens.  Taking every basis index always gives a
        basis, so the search ends.  Depends only on the field, and is
        computed once per field object.
        """
        n = self.n
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        for size in range(1, n):
            for gens in itertools.combinations(range(1, n), size):
                candidates = [((0, 0), units[0])]
                for j in gens:
                    v = units[j]
                    for k in range(n):
                        candidates.append(((j, k), v))
                        v = self.isigma(v)
                for chosen in itertools.combinations(candidates, n):
                    cols = [v for _, v in chosen]
                    if abs(linalg.det_bareiss(cols)) == 1:
                        inv = linalg.invert_fraction([list(row) for row in zip(*cols)])
                        return (gens, tuple(member for member, _ in chosen),
                                tuple(tuple(int(x) for x in row) for row in inv))

    def __eq__(self, other):
        return isinstance(other, IntegralOrder) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

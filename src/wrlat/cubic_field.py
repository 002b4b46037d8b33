"""Cyclic cubic field of conductor m, with exact element arithmetic.

The field is Q[x]/(df) where df is the conductor-parameterized monic cubic

    df(x) = x^3 - x^2 + (1-m)/3 x - (m(a-3)+1)/27     when 3 does not divide m,
    df(x) = x^3 - m/3 x - a*m/27                      when 3 divides m,

with (a, b) the conductor parameters (4m = a^2 + 3b^2).  Elements are
coordinate triples over the power basis {1, alpha, alpha^2}, always exact
rationals.  The generator sigma of the Galois group is represented by the
quadratic polynomial sigma_poly with sigma(alpha) = sigma_poly(alpha);
it is found from the quadratic cofactor df(y)/(y - alpha), whose square
root lives in the field because disc(df) = (m*b/3)^2 is a rational square.

The integral basis used for lattice work is {1, alpha, sigma(alpha)} in
both conductor classes.
"""

from fractions import Fraction

from . import linalg
from .numtheory import conductor_params, conductor_violation
from .order import IntegralOrder


class CubicField(IntegralOrder):
    def __init__(self, m: int):
        reason = conductor_violation(m)
        if reason is not None:
            raise ValueError("invalid conductor %d: %s" % (m, reason))
        self.n = 3
        self.m = m
        self.a, self.b = conductor_params(m)
        self.nine_divides_m = m % 9 == 0
        self.disc = m * m
        self.index = abs(self.b) // 3  # disc(df) = (m*b/3)^2
        if self.nine_divides_m:
            c2, c1 = 0, Fraction(-m, 3)
            c0 = Fraction(-self.a * m, 27)
        else:
            c2, c1 = -1, Fraction(1 - m, 3)
            c0 = Fraction(-(m * (self.a - 3) + 1), 27)
        assert c1.denominator == 1 and c0.denominator == 1
        self.df = (int(c0), int(c1), int(c2))
        self.one = self.from_int(1)
        self.alpha = (Fraction(0), Fraction(1), Fraction(0))
        # traces of the power basis: Tr(1), Tr(alpha), Tr(alpha^2)
        self._trace_vec = (3, -self.df[2], self.df[2] ** 2 - 2 * self.df[1])
        self.sigma_poly = self._find_sigma_poly()
        self._sigma_alpha = self.sigma_poly
        self._sigma_alpha_sq = self.mul(self.sigma_poly, self.sigma_poly)
        assert self.sigma(self.sigma(self.sigma(self.alpha))) == self.alpha
        self._build_integral_tables((self.one, self.alpha, self._sigma_alpha))

    # -- arithmetic over the power basis ------------------------------------

    def mul(self, x, y):
        c0, c1, c2 = self.df
        p0 = x[0] * y[0]
        p1 = x[0] * y[1] + x[1] * y[0]
        p2 = x[0] * y[2] + x[1] * y[1] + x[2] * y[0]
        p3 = x[1] * y[2] + x[2] * y[1]
        p4 = x[2] * y[2]
        # reduce with x^3 = -(c2 x^2 + c1 x + c0)
        return (p0 - c0 * p3 + c2 * c0 * p4,
                p1 - c1 * p3 + (c2 * c1 - c0) * p4,
                p2 - c2 * p3 + (c2 * c2 - c1) * p4)

    def pow(self, x, k):
        out = self.one
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def mul_matrix(self, x):
        cols = [x, self.mul(x, self.alpha), self.mul(x, self.pow(self.alpha, 2))]
        return [[cols[j][i] for j in range(3)] for i in range(3)]

    def invert(self, x):
        sol = linalg.solve_fraction(self.mul_matrix(x), [1, 0, 0])
        return tuple(sol)

    # -- Galois action -------------------------------------------------------

    def _find_sigma_poly(self):
        c0, c1, c2 = self.df
        # df(y) / (y - alpha) = y^2 + (alpha + c2) y + (alpha^2 + c2 alpha + c1)
        # roots (-(alpha + c2) +- w) / 2 with w^2 = the cofactor discriminant;
        # w = +- (m b / 3) / df'(alpha) since sqrt(disc df) = m b / 3.
        dfp = (Fraction(c1), Fraction(2 * c2), Fraction(3))
        w = self.scale(self.invert(dfp), Fraction(self.m * self.b, 3))
        lin = self.add(self.alpha, self.from_int(c2))
        cands = []
        for s in (1, -1):
            cand = self.scale(self.add(self.neg(lin), self.scale(w, s)), Fraction(1, 2))
            if cand != self.alpha and self.eval_df(cand) == (0, 0, 0):
                cands.append(cand)
        if not cands:
            raise ArithmeticError("no Galois generator found for m=%d" % self.m)
        return min(cands)

    def sigma(self, x):
        out = self.from_int(0)
        out = self.add(out, self.scale(self.one, x[0]))
        out = self.add(out, self.scale(self._sigma_alpha, x[1]))
        out = self.add(out, self.scale(self._sigma_alpha_sq, x[2]))
        return out

    # -- trace and bilinear form -----------------------------------------------

    def trace(self, x) -> Fraction:
        t = self._trace_vec
        return x[0] * t[0] + x[1] * t[1] + x[2] * t[2]

    def bilinear(self, x, y) -> Fraction:
        """Scalar product of the embedded lattice: Tr(x*y), F totally real."""
        return self.trace(self.mul(x, y))

    @property
    def key(self) -> str:
        return "cubic:%d" % self.m

    def __repr__(self):
        return "CubicField(m=%d)" % self.m

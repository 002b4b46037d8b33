"""Cyclic quartic field Q(beta), beta = sqrt(a*(d - b*sqrt(d))).

Parameters: a squarefree odd nonzero, d = b^2 + c^2 squarefree with
b, c > 0, gcd(a, d) = 1.  The field is totally real for a > 0 and totally
imaginary for a < 0.  Elements are exact rational coordinate quadruples
(s1, s2, s3, s4) over the basis {1, sqrt(d), beta, sigma(beta)}, in which
the multiplication table closes:

    sqrt(d)^2 = d                 beta*sqrt(d)        = c*sb - b*beta
    beta^2    = a*d - a*b*sqrt(d) sb*sqrt(d)          = c*beta + b*sb
    sb^2      = a*d + a*b*sqrt(d) beta*sb             = a*c*sqrt(d)

(writing sb for sigma(beta)).  The Galois generator acts by
(s1, s2, s3, s4) -> (s1, -s2, -s4, s3).  The scalar product of the
embedded lattice is Tr(x * tau(y)) with tau = identity for a > 0 and
tau = sigma^2 (complex conjugation) for a < 0; in coordinates it is
diagonal for both signatures:

    <x, y> = 4*(x1*y1 + d*x2*y2 + |a|*d*(x3*y3 + x4*y4)).
"""

import math
from fractions import Fraction

from .numtheory import factorize
from .order import IntegralOrder


def quartic_violation(a: int, b: int, c: int, d: int):
    """None when (a, b, c, d) is admissible, else the violated constraint."""
    if a == 0 or a % 2 == 0:
        return "a must be odd and nonzero"
    if not factorize(abs(a)).is_squarefree():
        return "a = %d is not squarefree" % a
    if b <= 0 or c <= 0:
        return "b and c must be positive"
    if d != b * b + c * c:
        return "d must equal b^2 + c^2 (got d=%d, b^2+c^2=%d)" % (d, b * b + c * c)
    if not factorize(d).is_squarefree():
        return "d = %d is not squarefree" % d
    if math.gcd(a, d) != 1:
        return "gcd(a, d) = %d is not 1" % math.gcd(a, d)
    return None


def quartic_basis_case(a: int, b: int, c: int, d: int) -> str:
    """Integral-basis case I..V of admissible parameters; disc is odd in IV and V."""
    if d % 2 == 0:
        return "I"
    if b % 2 == 1:
        return "II"
    if (a + b) % 4 == 3:
        return "III"
    return "IV" if (a + c) % 4 == 0 else "V"


# per basis case, the powers of 2 in disc / (a^2 d^3) and in index / (a^2 b^2 c)
_TWO_POWERS = {"I": (8, 0), "II": (6, 1), "III": (4, 2), "IV": (0, 4), "V": (0, 4)}


def quartic_param_box(amax: int, dmax: int, odd_disc_only: bool = False) -> list:
    """All admissible (a, b, c, d) with |a| <= amax and d <= dmax, by b, then c,
    then a; with odd_disc_only, those of odd discriminant only."""
    out = []
    for b in range(1, dmax):
        if b * b + 1 > dmax:
            break
        for c in range(1, dmax):
            d = b * b + c * c
            if d > dmax:
                break
            for a in range(-amax, amax + 1):
                if quartic_violation(a, b, c, d) is not None:
                    continue
                if odd_disc_only and quartic_basis_case(a, b, c, d) not in ("IV", "V"):
                    continue
                out.append((a, b, c, d))
    return out


# integral bases ("case" I..V), coordinates over {1, sqrt(d), beta, sb}
_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


class QuarticField(IntegralOrder):
    def __init__(self, a: int, b: int, c: int, d: int):
        reason = quartic_violation(a, b, c, d)
        if reason is not None:
            raise ValueError("invalid quartic parameters (%d,%d,%d,%d): %s"
                             % (a, b, c, d, reason))
        self.n = 4
        self.a, self.b, self.c, self.d = a, b, c, d
        self.totally_real = a > 0
        # defining polynomial x^4 - 2ad x^2 + a^2 c^2 d
        self.df = (a * a * c * c * d, 0, -2 * a * d, 0)
        self.basis_case = quartic_basis_case(a, b, c, d)
        disc_two, index_two = _TWO_POWERS[self.basis_case]
        self.disc = 2 ** disc_two * a * a * d ** 3
        self.index = 2 ** index_two * a * a * b * b * c
        self.one = self.from_int(1)
        self.sqrt_d = self._vec(0, 1, 0, 0)
        self.beta = self._vec(0, 0, 1, 0)
        self.sigma_beta = self._vec(0, 0, 0, 1)
        # products of basis elements (indices over {1, sqrt_d, beta, sb})
        self._table = {
            (1, 1): self._vec(d, 0, 0, 0),
            (1, 2): self._vec(0, 0, -b, c),
            (1, 3): self._vec(0, 0, c, b),
            (2, 2): self._vec(a * d, -a * b, 0, 0),
            (2, 3): self._vec(0, a * c, 0, 0),
            (3, 3): self._vec(a * d, a * b, 0, 0),
        }
        assert self.eval_df(self.beta) == self._vec(0, 0, 0, 0)
        self._build_integral_tables(self._integral_basis_vectors())

    @staticmethod
    def _vec(s1, s2, s3, s4):
        return (Fraction(s1), Fraction(s2), Fraction(s3), Fraction(s4))

    def mul(self, x, y):
        out = [x[0] * y[0], x[0] * y[1] + x[1] * y[0],
               x[0] * y[2] + x[2] * y[0], x[0] * y[3] + x[3] * y[0]]
        for i in range(1, 4):
            for j in range(1, 4):
                f = x[i] * y[j]
                if not f:
                    continue
                w = self._table[(i, j) if i <= j else (j, i)]
                out[0] += f * w[0]
                out[1] += f * w[1]
                out[2] += f * w[2]
                out[3] += f * w[3]
        return tuple(out)

    def sigma(self, x):
        return (x[0], -x[1], -x[3], x[2])

    def trace(self, x) -> Fraction:
        return 4 * x[0]

    def bilinear(self, x, y) -> Fraction:
        """Tr(x*tau(y)); diagonal in the canonical coordinates."""
        w = abs(self.a) * self.d
        return 4 * (x[0] * y[0] + self.d * x[1] * y[1]
                    + w * (x[2] * y[2] + x[3] * y[3]))

    def _integral_basis_vectors(self):
        one, sd, beta, sb = self.one, self.sqrt_d, self.beta, self.sigma_beta
        half_1_sd = self._vec(_HALF, _HALF, 0, 0)
        if self.basis_case == "I":
            return (one, sd, sb, beta)
        if self.basis_case == "II":
            return (one, half_1_sd, sb, beta)
        if self.basis_case == "III":
            return (one, half_1_sd,
                    self._vec(0, 0, _HALF, _HALF), self._vec(0, 0, -_HALF, _HALF))
        if self.basis_case == "IV":
            return (one, half_1_sd,
                    self._vec(_QUARTER, _QUARTER, -_QUARTER, _QUARTER),
                    self._vec(_QUARTER, -_QUARTER, _QUARTER, _QUARTER))
        return (one, half_1_sd,
                self._vec(_QUARTER, _QUARTER, _QUARTER, _QUARTER),
                self._vec(_QUARTER, -_QUARTER, -_QUARTER, _QUARTER))

    @property
    def params(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    @property
    def key(self) -> str:
        return "quartic:%d,%d,%d,%d" % self.params

    def __repr__(self):
        return "QuarticField(a=%d, b=%d, c=%d, d=%d)" % self.params

"""Closed-form well-roundedness predicates with their minimal-basis
constructions, and the harness that cross-checks every predicate against
exact enumeration.

Cubic (conductor m, discriminant m^2):
  * the square of the product of all ramified primes (conductor prime
    to 3), or that square times the prime above 3 (9 | m), is orthogonal
    and WR with a Galois-orbit minimal basis;
  * the unique ideal of squarefree norm q | m is WR iff m <= 4*q^2 and
    q^2 <= 4*m, and (when 3 | m) 3 | q;
  * for 9 | m and coprime divisors q, q' > 1 of m/9, the unique ideal of
    norm 3*q^2*q' is WR iff m <= 36*q*q'^2 and 9*q*q'^2 <= 4*m.

Quartic (parameters a, b, c, d):
  * products of the unique primes above divisors of d and of a are WR
    only in integral-basis cases IV/V, where the criterion is
    p^2q^2 + q^2d + 2|a|d <= min of six competing squared lengths;
  * single-prime specializations reduce to window conditions on p^2/d
    (|a| in {1, 3, 5}) resp. q^2/|a| (forcing (b, c, d) = (2, 1, 5));
  * a primitive prime above 2 is WR only for (a, b, c, d) = (1, 2, 1, 5).
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .ideal_lattice import (
    IdealLattice,
    decompose_prime,
    ramified_product_ideal,
    unit_ideal,
)
from .lattice_reduce import WrReport, wr_report
from .numtheory import (
    eisenstein_rep_adapted,
    factorize,
    is_prime,
    is_quadratic_residue,
)
from . import linalg


# -- cyclic cubic -----------------------------------------------------------

def cubic_ab_coefficients(field):
    """(A, B) with alpha^2 = 2m/9 + A*alpha + B*sigma(alpha) and
    A^2 - A*B + B^2 = m/9 (conductor divisible by 9)."""
    if not field.nine_divides_m:
        raise ValueError("defined only for conductors divisible by 9")
    coords = field.to_integral_exact(field.mul(field.alpha, field.alpha))
    const, a_coef, b_coef = coords
    assert 9 * const == 2 * field.m
    assert 9 * (a_coef ** 2 - a_coef * b_coef + b_coef ** 2) == field.m
    return a_coef, b_coef


def _ramified_prime(field, p):
    return decompose_prime(field, p).factors[0][0]


def cubic_divisor_ideal(field, q: int) -> IdealLattice:
    """The unique ideal of norm q for squarefree q | m, as the product of
    the ramified primes over the prime factors of q."""
    fact = factorize(q)
    if not fact.is_squarefree() or field.m % q != 0:
        raise ValueError("%d is not a squarefree divisor of %d" % (q, field.m))
    out = unit_ideal(field)
    for p in fact.primes:
        out = out.mul(_ramified_prime(field, p))
    assert out.norm == q
    return out


def cubic_divisor_wr_predicate(field, q: int) -> bool:
    """WR criterion for the norm-q ideal: m/4 <= q^2 <= 4m, and 3 | q
    whenever 3 | m."""
    fact = factorize(q) if q > 1 else factorize(1)
    if q < 1 or not fact.is_squarefree() or field.m % q != 0:
        raise ValueError("%d is not a squarefree divisor of %d" % (q, field.m))
    if field.nine_divides_m and q % 3 != 0:
        return False
    return field.m <= 4 * q * q and q * q <= 4 * field.m


def cubic_divisor_minimal_orbit(field, q: int):
    """Predicted Galois-orbit minimal basis of the norm-q ideal."""
    if field.nine_divides_m:
        p_i = q // 3
        rho = field.sub(field.from_int(p_i),
                        field.add(field.alpha, field.sigma(field.alpha)))
    else:
        rho = field.add(field.alpha, field.from_int((q - 1) // 3))
    return tuple(field.conjugates(rho))


def cubic_orthogonal_ideal(field):
    """The orthogonal WR ideal every cyclic cubic field carries, with its
    orbit basis: norm m^2 (kappa = m - (alpha - sigma(alpha))^2) when 3
    does not divide m, norm m^2/27 (kappa = m/9 + A*alpha + B*sigma(alpha))
    when 9 | m."""
    m = field.m
    primes = factorize(m).primes
    if field.nine_divides_m:
        prod = unit_ideal(field)
        for p in primes:
            if p != 3:
                prod = prod.mul(_ramified_prime(field, p))
        ideal = _ramified_prime(field, 3).mul(prod.mul(prod))
        a_coef, b_coef = cubic_ab_coefficients(field)
        kappa = field.add(field.from_int(m // 9),
                          field.add(field.scale(field.alpha, a_coef),
                                    field.scale(field.sigma(field.alpha), b_coef)))
        assert ideal.norm * 27 == m * m
    else:
        prod = unit_ideal(field)
        for p in primes:
            prod = prod.mul(_ramified_prime(field, p))
        ideal = prod.mul(prod)
        rho = field.sub(field.alpha, field.sigma(field.alpha))
        kappa = field.sub(field.from_int(m), field.mul(rho, rho))
        assert ideal.norm == m * m
    orbit = tuple(field.conjugates(kappa))
    for v in orbit:
        assert ideal.contains(v)
    return ideal, orbit


def cubic_mixed_ideal(field, q: int, q2: int) -> IdealLattice:
    """The unique ideal of norm 3*q^2*q2 (conductor divisible by 9, q and
    q2 coprime divisors of m/9 with q, q2 > 1)."""
    _check_mixed_args(field, q, q2)
    out = _ramified_prime(field, 3)
    for p in factorize(q).primes:
        P = _ramified_prime(field, p)
        out = out.mul(P).mul(P)
    for p in factorize(q2).primes:
        out = out.mul(_ramified_prime(field, p))
    assert out.norm == 3 * q * q * q2
    return out


def _check_mixed_args(field, q, q2):
    if not field.nine_divides_m:
        raise ValueError("conductor must be divisible by 9")
    core = field.m // 9
    if q <= 1 or q2 <= 1:
        raise ValueError("both divisors must exceed 1")
    if core % q != 0 or core % q2 != 0:
        raise ValueError("divisors must divide m/9 = %d" % core)
    if math.gcd(q, q2) != 1:
        raise ValueError("divisors must be coprime")


def cubic_mixed_wr_predicate(field, q: int, q2: int) -> bool:
    """WR criterion for the norm 3*q^2*q2 ideal: m/36 <= q*q2^2 <= 4m/9."""
    _check_mixed_args(field, q, q2)
    w = q * q2 * q2
    return field.m <= 36 * w and 9 * w <= 4 * field.m


def cubic_mixed_minimal_orbit(field, q: int, q2: int):
    """Predicted orbit basis kappa = q*q2 - x*alpha - y*sigma(alpha) with
    (x, y) a representation of q adapted to the field's (A, B)."""
    a_coef, b_coef = cubic_ab_coefficients(field)
    x, y = eisenstein_rep_adapted(field.m // 9, a_coef, b_coef, q)
    kappa = field.sub(field.from_int(q * q2),
                      field.add(field.scale(field.alpha, x),
                                field.scale(field.sigma(field.alpha), y)))
    return tuple(field.conjugates(kappa))


# -- cyclic quartic -----------------------------------------------------------

def _product_parts(field, d_primes, a_primes):
    p_i = 1
    for p in d_primes:
        if field.d % p != 0 or not is_prime(p):
            raise ValueError("%d does not divide d" % p)
        p_i *= p
    q_j = 1
    for q in a_primes:
        if field.a % q != 0 or not is_prime(q):
            raise ValueError("%d does not divide a" % q)
        if is_quadratic_residue(field.d, q):
            raise ValueError("d is a residue mod %d; prime not unique" % q)
        q_j *= q
    return p_i, q_j


def quartic_product_wr_predicate(field, d_primes=(), a_primes=()) -> bool:
    """WR criterion for the product of the unique primes above the given
    divisors of d and a: only in integral-basis cases IV/V, and then
    p^2 q^2 + q^2 d + 2|a|d <= min of the six competing values."""
    p_i, q_j = _product_parts(field, d_primes, a_primes)
    if field.basis_case not in ("IV", "V"):
        return False
    return _product_inequality(p_i, q_j, abs(field.a), field.d)


def _product_inequality(p_i, q_j, aa, d):
    """p^2 q^2 + q^2 d + 2|a|d <= min of the six competing squared
    lengths, with p = p_i, q = q_j and |a| = aa."""
    lhs = p_i * p_i * q_j * q_j + q_j * q_j * d + 2 * aa * d
    competitors = (
        16 * q_j * q_j * d,
        8 * aa * d,
        4 * q_j * q_j * d + 4 * aa * d,
        16 * p_i * p_i * q_j * q_j,
        4 * p_i * p_i * q_j * q_j + 4 * aa * d,
        4 * p_i * p_i * q_j * q_j + 4 * q_j * q_j * d,
    )
    return lhs <= min(competitors)


def quartic_d_prime_wr_predicate(field, d_primes) -> bool:
    """Single-type criterion for the prime product above divisors of d:
    congruences of case IV/V plus a window p^2/d depending on |a|."""
    p_i, _ = _product_parts(field, d_primes, ())
    if field.basis_case not in ("IV", "V"):
        return False
    d, aa = field.d, abs(field.a)
    p2 = p_i * p_i
    if aa == 1:
        return d <= 5 * p2 and p2 <= 5 * d
    if aa == 3:
        return d <= p2 and p2 <= 9 * d
    if aa == 5:
        return 7 * d <= 3 * p2 and p2 <= 5 * d
    return False


def quartic_a_prime_wr_predicate(field, a_primes) -> bool:
    """Single-type criterion for the prime product above divisors of a:
    forces (b, c, d) = (2, 1, 5) with case IV/V congruences, then
    |a| <= q^2 <= 5|a|."""
    _, q_j = _product_parts(field, (), a_primes)
    if (field.b, field.c, field.d) != (2, 1, 5):
        return False
    if field.basis_case not in ("IV", "V"):
        return False
    q2 = q_j * q_j
    return abs(field.a) <= q2 and q2 <= 5 * abs(field.a)


def unique_prime_above(field, p: int):
    """The unique prime above p, or None when p has several."""
    dec = decompose_prime(field, p)
    if len(dec.factors) == 1:
        return dec.factors[0][0]
    return None


def wr_prime_above_2_predicate(field) -> bool:
    """A primitive prime above 2 is WR exactly for (a,b,c,d) = (1,2,1,5)."""
    return (field.a, field.b, field.c, field.d) == (1, 2, 1, 5)


# -- crosscheck harness --------------------------------------------------------

@dataclass(frozen=True)
class WrCase:
    kind: str
    label: str
    ideal: IdealLattice
    predicted: bool
    predicted_orbit: tuple | None = None
    details: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class CrosscheckResult:
    case: WrCase
    report: WrReport
    passed: bool
    reasons: tuple

    @property
    def label(self):
        return self.case.label


def crosscheck_case(case: WrCase) -> CrosscheckResult:
    """PASS iff the predicate verdict matches enumeration and, when a
    minimal orbit is predicted, every orbit vector lies in the ideal,
    attains the enumerated minimum, and the orbit has full rank."""
    rep = wr_report(case.ideal)
    reasons = []
    if rep.is_wr != case.predicted:
        reasons.append("predicate %s but enumeration %s"
                       % (case.predicted, rep.is_wr))
    if case.predicted and case.predicted_orbit is not None:
        f = case.ideal.field
        gram = None
        coords = []
        for v in case.predicted_orbit:
            icoords = f.to_integral(v)
            if any(x.denominator != 1 for x in icoords):
                reasons.append("predicted vector is not integral")
                continue
            sol = linalg.solve_upper_int(case.ideal.hnf,
                                         [int(x) for x in icoords])
            if sol is None:
                reasons.append("predicted vector lies outside the ideal")
                continue
            coords.append(sol)
            if f.length_sq(v) != rep.minimum:
                reasons.append(
                    "predicted vector has length %s, minimum is %s"
                    % (f.length_sq(v), rep.minimum))
        if len(coords) == len(case.predicted_orbit):
            if linalg.rank_int(coords) != f.n:
                reasons.append("predicted orbit does not have full rank")
    return CrosscheckResult(case, rep, not reasons, tuple(reasons))


def _squarefree_divisors(n):
    primes = factorize(n).primes
    out = [1]
    for p in primes:
        out += [d * p for d in out]
    return sorted(out)


def cubic_cases(field):
    """Every certified cubic case for this conductor."""
    cases = []
    ideal, orbit = cubic_orthogonal_ideal(field)
    cases.append(WrCase("cubic-orthogonal", "%s norm %d" % (field.key, ideal.norm),
                        ideal, True, orbit))
    for q in _squarefree_divisors(field.m):
        predicted = cubic_divisor_wr_predicate(field, q)
        if q == 1:
            ideal = unit_ideal(field)
        else:
            ideal = cubic_divisor_ideal(field, q)
        orbit = cubic_divisor_minimal_orbit(field, q) if predicted else None
        cases.append(WrCase("cubic-divisor", "%s q=%d" % (field.key, q),
                            ideal, predicted, orbit))
    if field.nine_divides_m:
        core_primes = [p for p in factorize(field.m).primes if p != 3]
        if len(core_primes) >= 2:
            for q in _squarefree_divisors(field.m // 9):
                for q2 in _squarefree_divisors(field.m // 9):
                    if q <= 1 or q2 <= 1:
                        continue
                    if math.gcd(q, q2) != 1:
                        continue
                    predicted = cubic_mixed_wr_predicate(field, q, q2)
                    ideal = cubic_mixed_ideal(field, q, q2)
                    orbit = (cubic_mixed_minimal_orbit(field, q, q2)
                             if predicted else None)
                    cases.append(WrCase(
                        "cubic-mixed", "%s q=%d q'=%d" % (field.key, q, q2),
                        ideal, predicted, orbit))
    return cases


def quartic_cases(field):
    """Every certified quartic case for these parameters: all admissible
    products of unique primes above divisors of d and a, plus the
    primitive prime above 2 when one exists."""
    cases = []
    d_primes = factorize(field.d).primes
    a_primes = tuple(q for q in factorize(abs(field.a)).primes
                     if not is_quadratic_residue(field.d, q))
    for ki in range(len(d_primes) + 1):
        for i_set in itertools.combinations(d_primes, ki):
            for kj in range(len(a_primes) + 1):
                for j_set in itertools.combinations(a_primes, kj):
                    ideal = ramified_product_ideal(field, i_set, j_set)
                    predicted = quartic_product_wr_predicate(field, i_set, j_set)
                    orbit = None
                    if predicted and field.basis_case in ("IV", "V"):
                        orbit = _product_orbit(field, i_set, j_set)
                    details = {
                        "b_parity_even_reading": predicted,
                        "b_parity_odd_reading": _odd_b_reading(field, i_set, j_set),
                    }
                    cases.append(WrCase(
                        "quartic-product",
                        "%s I=%s J=%s" % (field.key, list(i_set), list(j_set)),
                        ideal, predicted, orbit, details))
    dec2 = decompose_prime(field, 2)
    prim2 = [P for P, _ in dec2.factors if P.is_primitive()]
    for P in prim2:
        cases.append(WrCase("quartic-prime2", "%s above 2" % field.key,
                            P, wr_prime_above_2_predicate(field)))
    return cases


def _product_orbit(field, i_set, j_set):
    p_i, q_j = _product_parts(field, i_set, j_set)
    f = field
    quarter = Fraction(1, 4)
    if f.basis_case == "IV":
        rho = f.scale(f.add(f.sub(f.scale(f.sqrt_d, q_j), f.from_int(p_i * q_j)),
                            f.neg(f.add(f.beta, f.sigma_beta))), quarter)
    else:
        rho = f.scale(f.add(f.sub(f.from_int(p_i * q_j), f.scale(f.sqrt_d, q_j)),
                            f.sub(f.sigma_beta, f.beta)), quarter)
    return tuple(f.conjugates(rho))


def _odd_b_reading(field, i_set, j_set):
    # the alternative reading of the combined criterion with b odd instead
    # of b even; exposed for comparison, never used as the verdict
    if field.d % 4 != 1 or field.b % 2 != 1 or (field.a + field.b) % 4 != 1:
        return False
    p_i, q_j = _product_parts(field, i_set, j_set)
    return _product_inequality(p_i, q_j, abs(field.a), field.d)


def crosscheck_field(field) -> list:
    cases = cubic_cases(field) if field.n == 3 else quartic_cases(field)
    return [crosscheck_case(case) for case in cases]

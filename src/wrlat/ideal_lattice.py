"""Ideals of the ring of integers as full-rank integer lattices.

An ideal is stored as an n x n column-style Hermite normal form over the
field's integral basis (upper triangular, positive diagonal, off-diagonal
entries reduced mod the diagonal), so ideal equality is matrix equality
and the norm is the diagonal product.

Alongside the generic lattice arithmetic this module carries the prime
decompositions of both field families, the explicit integral bases of the
ramified-product ideals, and one splitting engine
(`stable_subspace_primes`) that decomposes every prime p the same way, by
linear algebra over F_p on O/pO.  Its lemma: x -> x^p fixes exactly the
copy of O_L/p in O/pO, where L is the decomposition field of p and
O_L/p = F_p^g for the g primes above p, ramified or not.  The integral
basis is adapted to the subfield chain, so g is the largest h | n whose
h-th basis vector is fixed by x -> x^p, one p-th power per step.  The g
characters of O_L/p are the roots (`roots_mod`) of the minimal
polynomials of O_L's basis vectors, refined by eigenspaces when no one
vector separates them; each prime is pO + sum (b - lam(b))O, plus the
radical of O/pO when p | disc.  No loop runs over F_p and no element is
guessed.  Primes with a closed form (ramified primes, primes prime to
the index, and in the quartic family p | d, p | a, p | c and the stated
bases above 2) are built from generators; the others (p dividing the
cubic index, odd p | b and three classes of p = 2 in the quartic family)
go to the engine, which also serves as the independent oracle for every
closed form.  No prime is out of range.  Every decomposition, closed form
or engine, is certified over F_p: the factors are ideals and
prod P^e = pO (`_finish_decomposition`).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .numtheory import (is_prime, is_quadratic_residue, primes_upto, roots_mod, sqrt_mod,
                        x_power_mod)


class IdealLattice:
    __slots__ = ("field", "hnf", "norm")

    def __init__(self, field, hnf):
        self.field = field
        self.hnf = hnf
        norm = 1
        for i in range(field.n):
            norm *= hnf[i][i]
        self.norm = norm

    def columns(self):
        n = self.field.n
        return [tuple(self.hnf[i][j] for i in range(n)) for j in range(n)]

    def mul(self, other) -> "IdealLattice":
        if other.field is not self.field and other.field != self.field:
            raise ValueError("ideals live in different fields")
        f = self.field
        cols = [f.imul(u, v) for u in self.columns() for v in other.columns()]
        return IdealLattice(f, linalg.hnf_upper(cols, f.n))

    def mul_coprime(self, other) -> "IdealLattice":
        """Product of ideals I, J of coprime norms a, b, as b*I + a*J.

        At a prime q | a the ideal J is locally the whole ring and b is a
        unit, so both sides are locally I (a lies in I); at q | b they are
        both J, and elsewhere both are the whole ring.  The HNF takes 2n
        scaled columns instead of n^2 products.
        """
        if other.field is not self.field and other.field != self.field:
            raise ValueError("ideals live in different fields")
        a, b = self.norm, other.norm
        if math.gcd(a, b) != 1:
            raise ValueError("norms %d and %d are not coprime" % (a, b))
        cols = [tuple(b * x for x in c) for c in self.columns()]
        cols += [tuple(a * x for x in c) for c in other.columns()]
        return IdealLattice(self.field, linalg.hnf_upper(cols, self.field.n))

    def __mul__(self, other):
        return self.mul(other)

    def power(self, k: int) -> "IdealLattice":
        if k < 0:
            raise ValueError("negative ideal powers are out of scope")
        if k == 0:
            return unit_ideal(self.field)
        out = self
        for _ in range(k - 1):
            out = out.mul(self)
        return out

    def apply_sigma(self) -> "IdealLattice":
        f = self.field
        cols = [f.isigma(c) for c in self.columns()]
        return IdealLattice(f, linalg.hnf_upper(cols, f.n))

    def contains_coords(self, v) -> bool:
        return linalg.solve_upper_int(self.hnf, v) is not None

    def contains(self, elem) -> bool:
        coords = self.field.to_integral(elem)
        if any(x.denominator != 1 for x in coords):
            return False
        return self.contains_coords([int(x) for x in coords])

    def is_primitive(self) -> bool:
        g = 0
        for row in self.hnf:
            for x in row:
                g = math.gcd(g, x)
        return g == 1

    def validate_ideal(self) -> bool:
        """True iff the lattice is closed under multiplication by O."""
        f = self.field
        units = _UNIT_VECTORS[f.n]
        for col in self.columns():
            for e in units:
                if not self.contains_coords(f.imul(col, e)):
                    return False
        return True

    def divides_disc(self) -> bool:
        return abs(self.field.disc) % self.norm == 0

    def key(self):
        return (self.field.key, self.hnf)

    def __eq__(self, other):
        return isinstance(other, IdealLattice) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "IdealLattice(%s, norm=%d)" % (self.field.key, self.norm)


# -- constructors -------------------------------------------------------------

# the integral basis vectors e_1, ..., e_n in coordinates, for n = 3, 4
_UNIT_VECTORS = {n: tuple(tuple(int(i == k) for i in range(n)) for k in range(n))
                 for n in (3, 4)}


def unit_ideal(field) -> IdealLattice:
    return IdealLattice(field, _UNIT_VECTORS[field.n])


def principal_integer(field, k: int) -> IdealLattice:
    if k <= 0:
        raise ValueError("need a positive integer")
    n = field.n
    return IdealLattice(field, tuple(tuple(k * int(i == j) for j in range(n))
                                     for i in range(n)))


def from_integral_columns(field, cols) -> IdealLattice:
    return IdealLattice(field, linalg.hnf_upper(cols, field.n))


def from_z_generators(field, elems) -> IdealLattice:
    """Lattice spanned over Z by the given integral elements (no closure)."""
    return from_integral_columns(field, [field.to_integral_exact(e) for e in elems])


def from_generators(field, gens) -> IdealLattice:
    """Ideal generated by the integral elements `gens`: the Z-span of
    {g * e : e integral basis}, each g taken to integral coordinates once."""
    gens = list(gens)
    if not gens or all(g == field.from_int(0) for g in gens):
        raise ValueError("need at least one nonzero generator")
    units = _UNIT_VECTORS[field.n]
    cols = []
    for g in gens:
        u = field.to_integral_exact(g)
        cols.extend(field.imul(u, e) for e in units)
    return from_integral_columns(field, cols)


def trace_sublattice(field, ell: int) -> IdealLattice:
    """Index-ell sublattice of O with coordinate sum divisible by ell over
    the conjugate basis {alpha, sigma(alpha), sigma^2(alpha)} (cyclic cubic,
    conductor prime to 3).  Not an ideal in general."""
    if field.n != 3 or field.nine_divides_m:
        raise ValueError("defined for cyclic cubic fields with 3 not dividing m")
    if ell < 1:
        raise ValueError("ell must be positive")
    al, s1, s2 = field.conjugates(field.alpha)
    gens = [field.scale(al, ell), field.sub(s1, al), field.sub(s2, al)]
    return from_z_generators(field, gens)


# -- prime decompositions ------------------------------------------------------

@dataclass(frozen=True)
class PrimeDecomposition:
    p: int
    factors: tuple  # ((IdealLattice, exponent), ...) canonically ordered
    shape: str

    @property
    def primes(self):
        return tuple(P for P, _ in self.factors)

    def residue_degree(self, P) -> int:
        f = 0
        norm = P.norm
        while norm > 1:
            assert norm % self.p == 0
            norm //= self.p
            f += 1
        return f

    def is_ramified(self) -> bool:
        return any(e > 1 for _, e in self.factors)


def _shape_tag(n, ef_pairs):
    g = len(ef_pairs)
    if g == 1:
        e, f = ef_pairs[0]
        if e == n:
            return "P^%d" % n
        if e == 1:
            return "inert"
        return "P^%d" % e
    if g == 2:
        if all(e == 2 for e, _ in ef_pairs):
            return "P1^2*P2^2"
        return "P1*P2"
    return "*".join("P%d" % (i + 1) for i in range(g))


def _finish_decomposition(field, p, factors) -> PrimeDecomposition:
    """Check that the factors (P, e) are a decomposition of pO, and order them.

    Each N(P) must be a power p^f of p, with sum(e * f) = n.  The product is
    then certified over F_p, in O/pO: a span W starts at all of O/pO, the
    image of O, and each (P, e) replaces it e times by the span of w * h,
    for w in W and h a column of P's HNF.  By induction W is the image of
    prod J^e, with J = P*O the ideal that P generates, so W = {0} says that
    prod J^e lies in pO and p^n = N(pO) divides prod N(J)^e.  As J contains
    P, N(J) divides N(P), and prod N(P)^e = p^(sum e*f) = p^n; so
    N(J) = N(P) and J = P for every factor.  Every factor is therefore an
    ideal, and prod P^e, which lies in pO and has norm p^n, is pO.  (Cohen,
    GTM 138, secs. 2.4 and 6.2: linear algebra over F_p on O/pO.)
    """
    n = field.n
    factors = sorted(factors, key=lambda t: t[0].hnf)
    efs = []
    for P, e in factors:
        f = 0
        norm = P.norm
        while norm > 1:
            assert norm % p == 0, "factor norm %d is not a power of %d" % (P.norm, p)
            norm //= p
            f += 1
        efs.append((e, f))
    assert sum(e * f for e, f in efs) == n
    span = _UNIT_VECTORS[n]
    for P, e in factors:
        cols = [reduced for reduced in (tuple(x % p for x in c) for c in P.columns())
                if any(reduced)]
        for _ in range(e):
            span, _ = _rref_modp([field.imul(w, h) for w in span for h in cols], p)
    assert not span, "prime factors above %d do not multiply back to (%d)" % (p, p)
    return PrimeDecomposition(p, tuple(factors), _shape_tag(n, efs))


def decompose_prime(field, p: int) -> PrimeDecomposition:
    if field.n == 3:
        return decompose_prime_cubic(field, p)
    return decompose_prime_quartic(field, p)


def decompose_prime_cubic(field, p: int) -> PrimeDecomposition:
    """pO in a cyclic cubic field, for any prime p.  Closed forms: the
    ramified divisors of the conductor carry two-element generators, and
    for p prime to the index of Z[alpha] the defining cubic is factored
    mod p (degree 3 forbids a partial split).  The finitely many p
    dividing the index go to the splitting engine."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    f = field
    c0, c1, c2 = f.df

    def check_roots(roots):
        assert all((((r + c2) * r + c1) * r + c0) % p == 0 for r in roots), \
            "%s is not a root of the defining cubic mod %d" % (roots, p)
        return roots

    if f.m % p == 0:
        # df is a cube mod p; build the prime from the triple root (it is
        # -(p-1)/3 mod p when 3 does not divide m, 0 for p | m/9, -1 for p=3)
        roots = check_roots(roots_mod(f.df, p))
        assert len(roots) == 1, "ramified prime %d should give a triple root" % p
        P = from_generators(f, [f.from_int(p),
                                f.sub(f.alpha, f.from_int(roots[0]))])
        assert P.norm == p
        return _finish_decomposition(f, p, [(P, 3)])
    if f.index % p == 0:
        # p divides the index of Z[alpha]; root-finding in df mod p is not
        # conclusive there
        return stable_subspace_primes(f, p)
    roots = check_roots(roots_mod(f.df, p))
    if not roots:
        return _finish_decomposition(f, p, [(principal_integer(f, p), 1)])
    assert len(roots) == 3, "unexpected partial split of a Galois cubic at %d" % p
    factors = []
    for r in roots:
        P = from_generators(f, [f.from_int(p), f.sub(f.alpha, f.from_int(r))])
        assert P.norm == p
        factors.append((P, 1))
    return _finish_decomposition(f, p, factors)


def ramified_product_ideal(field, d_primes, a_primes) -> IdealLattice:
    """Product of the unique primes above the given divisors of d and of a.

    d_primes: primes dividing d (each totally ramified).  a_primes: primes
    dividing a for which d is a quadratic non-residue (each carrying a
    unique prime of norm q^2).  The four-element integral basis depends on
    the field's integral-basis case; the result is validated and has norm
    prod(d_primes) * prod(a_primes)^2.
    """
    f = field
    a, b, c, d = f.a, f.b, f.c, f.d
    d_primes = tuple(sorted(set(d_primes)))
    a_primes = tuple(sorted(set(a_primes)))
    for p in d_primes:
        if d % p != 0 or not is_prime(p):
            raise ValueError("%d is not a prime divisor of d=%d" % (p, d))
    for q in a_primes:
        if a % q != 0 or not is_prime(q):
            raise ValueError("%d is not a prime divisor of a=%d" % (q, a))
        if is_quadratic_residue(d, q):
            raise ValueError(
                "d=%d is a quadratic residue mod %d; no unique prime above it" % (d, q))
    p_i = 1
    for p in d_primes:
        p_i *= p
    q_j = 1
    for q in a_primes:
        q_j *= q
    one, sd, beta, sb = f.one, f.sqrt_d, f.beta, f.sigma_beta
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    if f.basis_case == "I":
        gens = [f.from_int(p_i * q_j), f.scale(sd, q_j), beta, sb]
    elif f.basis_case in ("II", "III"):
        mid = f.scale(f.add(f.from_int(p_i), sd), half * q_j)
        if f.basis_case == "II":
            gens = [f.from_int(p_i * q_j), mid, beta, sb]
        else:
            gens = [f.from_int(p_i * q_j), mid,
                    f.scale(f.add(beta, sb), half),
                    f.scale(f.sub(sb, beta), half)]
    else:
        if f.basis_case == "IV":
            rho = f.scale(f.add(f.sub(f.scale(sd, q_j), f.from_int(p_i * q_j)),
                                f.neg(f.add(beta, sb))), quarter)
        else:
            rho = f.scale(f.add(f.sub(f.from_int(p_i * q_j), f.scale(sd, q_j)),
                                f.sub(sb, beta)), quarter)
        gens = f.conjugates(rho)
    L = from_z_generators(f, gens)
    assert L.validate_ideal(), "ramified product basis is not an ideal"
    assert L.norm == p_i * q_j * q_j
    return L


def split_pair_above(field, q: int) -> tuple:
    """The two primes above q | a when d is a quadratic residue mod q
    (so qO = Q1^2 Q2^2, each of norm q), via the explicit module bases of
    the field's integral-basis case."""
    f = field
    a, b, c, d = f.a, f.b, f.c, f.d
    if a % q != 0 or not is_prime(q) or q == 2:
        raise ValueError("%d is not an odd prime divisor of a=%d" % (q, a))
    if not is_quadratic_residue(d, q):
        raise ValueError("d=%d is a non-residue mod %d; the prime above is unique" % (d, q))
    z1 = sqrt_mod(d % q, q)
    roots = (z1, q - z1)
    one, sd, beta, sb = f.one, f.sqrt_d, f.beta, f.sigma_beta
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    out = []
    for z in roots:
        if f.basis_case == "I":
            gens = [f.from_int(q), f.add(f.from_int(z), sd), beta, sb]
        else:
            t = (z + 1) * pow(4, -1, q) % q
            w = 4 * t - 1
            mid = f.scale(f.add(f.from_int(w), sd), half)
            if f.basis_case == "II":
                gens = [f.from_int(q), mid, beta, sb]
            elif f.basis_case == "III":
                gens = [f.from_int(q), mid,
                        f.scale(f.add(beta, sb), half),
                        f.scale(f.sub(beta, sb), half)]
            elif f.basis_case == "IV":
                gens = [f.from_int(q), mid,
                        f.scale(f.sub(f.add(f.from_int(w), sd), f.add(beta, sb)), quarter),
                        f.scale(f.add(f.add(f.from_int(2 * q + w), sd), f.sub(beta, sb)), quarter)]
            else:
                gens = [f.from_int(q), mid,
                        f.scale(f.sub(f.add(f.from_int(w + 2 * q), sd), f.add(beta, sb)), quarter),
                        f.scale(f.add(f.add(f.from_int(w), sd), f.sub(beta, sb)), quarter)]
        Q = from_z_generators(f, gens)
        assert Q.validate_ideal(), "split-prime basis is not an ideal"
        assert Q.norm == q
        out.append(Q)
    q1, q2 = sorted(out, key=lambda L: L.hnf)
    assert q1 != q2
    return q1, q2


def _decompose_two_quartic(field) -> PrimeDecomposition:
    f = field
    a, b, d = f.a, f.b, f.d
    two = f.from_int(2)
    if d % 2 == 0:
        P = from_generators(f, [two, f.beta])
        assert P.norm == 2
        return _finish_decomposition(f, 2, [(P, 4)])
    if d % 8 == 5 and b % 2 == 1:
        # unique prime of norm 4
        P = from_z_generators(f, [two, f.add(f.one, f.sqrt_d), f.beta, f.sigma_beta])
        assert P.validate_ideal() and P.norm == 4
        return _finish_decomposition(f, 2, [(P, 2)])
    if d % 8 == 5 and (a + b) % 4 != 3:
        # odd field discriminant: 2 is inert
        return _finish_decomposition(f, 2, [(principal_integer(f, 2), 1)])
    return stable_subspace_primes(f, 2)


def decompose_prime_quartic(field, p: int) -> PrimeDecomposition:
    """pO in a cyclic quartic field, for any prime p.  Closed forms: p | d,
    p | a, p | c and p prime to abcd (by the residue classes of d, a, 2a
    and a*d +- a*b*z mod p), and p = 2 with d even, with d = 5 mod 8 and
    b odd, or with odd discriminant and d = 5 mod 8.  Odd p | b and the
    remaining p = 2 classes (d = 5 mod 8 with b even and a + b = 3 mod 4;
    d = 1 mod 8) go to the splitting engine."""
    f = field
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if p == 2:
        return _decompose_two_quartic(f)
    a, b, c, d = f.a, f.b, f.c, f.d
    one, sd, beta, sb = f.one, f.sqrt_d, f.beta, f.sigma_beta
    pe = f.from_int(p)
    if d % p == 0:
        P = from_generators(f, [pe, beta])
        assert P.norm == p
        return _finish_decomposition(f, p, [(P, 4)])
    if a % p == 0:
        if is_quadratic_residue(d, p):
            q1, q2 = split_pair_above(f, p)
            return _finish_decomposition(f, p, [(q1, 2), (q2, 2)])
        Q = ramified_product_ideal(f, (), (p,))
        return _finish_decomposition(f, p, [(Q, 2)])
    if b % p == 0:
        return stable_subspace_primes(f, p)
    if c % p == 0:
        if is_quadratic_residue(2 * a, p):
            ell = sqrt_mod(2 * a % p, p)
            p1 = from_generators(f, [pe, f.sub(beta, f.from_int(ell * b))])
            p2 = from_generators(f, [pe, f.add(beta, f.from_int(ell * b))])
            orbit = [p1]
            for _ in range(3):
                orbit.append(orbit[-1].apply_sigma())
            rest = [P for P in orbit if P not in (p1, p2)]
            assert len(set(orbit)) == 4 and len(rest) == 2
            amb = from_generators(f, [pe, f.mul(beta, beta)])
            assert rest[0].mul(rest[1]) == amb
            return _finish_decomposition(f, p, [(P, 1) for P in orbit])
        p1 = from_generators(f, [pe, f.sub(f.from_int(a * d), f.scale(sd, a * b))])
        p2 = from_generators(f, [pe, f.add(f.from_int(a * d), f.scale(sd, a * b))])
        assert p1.norm == p2.norm == p * p and p1 != p2
        return _finish_decomposition(f, p, [(p1, 1), (p2, 1)])
    # p coprime to a*b*c*d
    if not is_quadratic_residue(d, p):
        return _finish_decomposition(f, p, [(principal_integer(f, p), 1)])
    z = sqrt_mod(d % p, p)
    s = (a * d + a * b * z) % p
    if is_quadratic_residue(s, p):
        t1 = sqrt_mod(s, p)
        t2 = sqrt_mod((a * d - a * b * z) % p, p)
        factors = []
        for t in (t1, p - t1, t2, p - t2):
            P = from_generators(f, [pe, f.sub(beta, f.from_int(t))])
            assert P.norm == p
            factors.append((P, 1))
        assert len({P.hnf for P, _ in factors}) == 4
        return _finish_decomposition(f, p, factors)
    g = f.from_int(a * b * z)
    w = f.scale(sd, a * b)
    p1 = from_generators(f, [pe, f.add(g, w)])
    p2 = from_generators(f, [pe, f.sub(g, w)])
    assert p1.norm == p2.norm == p * p and p1 != p2
    return _finish_decomposition(f, p, [(p1, 1), (p2, 1)])


# -- splitting engine: linear algebra over F_p on O/pO --------------------------

def _rref_modp(rows, p):
    a = [[x % p for x in row] for row in rows]
    if not a:
        return [], []
    cols = len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(a)):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                fi = a[i][c]
                a[i] = [(x - fi * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def _nullspace_modp(mat, p):
    """Basis of the right kernel of `mat` over F_p (columns are vectors)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    rref, pivots = _rref_modp(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = (-row[fc]) % p
        basis.append(tuple(v))
    return basis


def _matpow_modp(m, e, p):
    """m^e mod p for e >= 1, by binary powering with no squaring past the
    last bit of e (m itself for e = 1)."""
    n = len(m)
    out = None
    base = m
    while True:
        if e & 1:
            out = base if out is None else [
                [sum(out[i][k] * base[k][j] for k in range(n)) % p for j in range(n)]
                for i in range(n)]
        e >>= 1
        if not e:
            return out
        base = [[sum(base[i][k] * base[k][j] for k in range(n)) % p for j in range(n)]
                for i in range(n)]


def _min_poly_modp(mat, v, p):
    """Monic minimal polynomial over F_p of `mat` on the vector v, in the
    form of `x_power_mod` (ascending, leading 1 left out): the first linear
    dependency among v, mat v, mat^2 v, ...  One elimination runs along the
    Krylov sequence: each new vector is reduced at the pivots of the
    earlier ones, and its coefficients on the Krylov vectors are carried
    along, so the first vector that reduces to zero gives the dependency."""
    dim = len(mat)
    rows = []  # (pivot, reduced vector, its coefficients on the Krylov vectors)
    w = [x % p for x in v]
    while True:
        k = len(rows)  # w is mat^k v
        r = w
        coeffs = [int(i == k) for i in range(dim + 1)]
        for pc, row, rc in rows:
            c = r[pc]
            if c:
                r = [(x - c * y) % p for x, y in zip(r, row)]
                coeffs = [(x - c * y) % p for x, y in zip(coeffs, rc)]
        pc = next((i for i, x in enumerate(r) if x), None)
        if pc is None:
            return coeffs[:k]
        inv = pow(r[pc], -1, p)
        rows.append((pc, [x * inv % p for x in r], [x * inv % p for x in coeffs]))
        w = [sum(mat[i][j] * w[j] for j in range(dim)) % p for i in range(dim)]


def _apow_modp(field, u, k, p):
    """u^k in O/pO, for integral coordinates u."""
    out = _UNIT_VECTORS[field.n][0]  # gamma_1 = 1
    base = u
    while k:
        if k & 1:
            out = tuple(x % p for x in field.imul(out, base))
        k >>= 1
        if k:
            base = tuple(x % p for x in field.imul(base, base))
    return out


def _frobenius_modp(field, p):
    """The columns of x -> x^p on O/pO, an F_p-linear ring map.

    Frobenius fixes 1 and commutes with sigma, so it is raised to the p-th
    power only on the field's `sigma_orbit_basis` gens; sigma carries those
    powers along the orbits, and the basis's integer inverse maps them back
    to the integral basis."""
    gens, members, inverse = field.sigma_orbit_basis
    n = field.n
    units = _UNIT_VECTORS[n]
    images = {(0, 0): units[0]}
    for j in gens:
        v = _apow_modp(field, units[j], p, p)
        images[j, 0] = v
        for k in range(1, max(k for g, k in members if g == j) + 1):
            v = images[j, k] = tuple(x % p for x in field.isigma(v))
    cols = [images[member] for member in members]
    return [tuple(sum(inverse[t][i] * cols[t][r] for t in range(n)) % p for r in range(n))
            for i in range(n)]


def _span_hnf_modp(vectors, n, p):
    """The HNF of the lattice p*Z^n + span(vectors), as `linalg.hnf_upper`
    gives it, from one echelon form over F_p with pivots taken from the last
    coordinate upward: a pivot at row i gives the column with 1 at i, zeros
    below and entries in [0, p) above (zero at the other pivot rows), and
    every other row i gives the column p*e_i."""
    rref, pivots = _rref_modp([v[::-1] for v in vectors], p)
    cols = [[p * int(r == k) for r in range(n)] for k in range(n)]
    for row, c in zip(rref, pivots):
        cols[n - 1 - c] = row[::-1]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def stable_subspace_primes(field, p: int) -> PrimeDecomposition:
    """The primes above p, by linear algebra over F_p on A = O/pO.

    Lemma: x -> x^p fixes exactly the copy of O_L/p = F_p^g in A, where L
    is the decomposition field of p, ramified or not.  A is the product of
    the local rings O/P^e over the g primes P above p, and in each x^p = x
    holds only on F_p: a non-unit x = x^(p^k) is nilpotent, hence 0, and
    a unit is a root of X^(p-1) - 1 = prod (X - a) over a in F_p^*, whose
    factors differ by units.  L is the fixed field of the decomposition
    group <sigma^g>, p splits completely in it, and O_L/p fills F_p^g.

    The chain: for every h | n, e_1, ..., e_h span the integers fixed by
    sigma^h (asserted in `IntegralOrder._build_integral_tables`).  So
    e_1, ..., e_g span O_L and are fixed, no e_h with h | n, h > g is,
    and g is the largest h | n with e_h^p = e_h, one p-th power per step.

    The characters: each b in O_L is the scalar lam(b) on the factor of
    the character lam, so the roots (`roots_mod`) of b's minimal
    polynomial (Krylov on 1) are b's values.  e_g, ..., e_2 are walked in
    that order: one b with g values gives the characters; otherwise the
    eigenspaces of each b refine A into its g factors, which the basis of
    O_L/p always separates.  No loop runs over F_p and nothing is guessed.

    The primes: b - lam(b) is zero on lam's factor and a unit elsewhere,
    so P^e = pO + sum (b - lam(b))O over the b's used, read off the
    columns of M_b - lam(b) (`_span_hnf_modp`); for g = 1 it is pO.  At
    p | disc, P = P^e + rad for the radical of A, the kernel of
    x -> x^(p^k) once p^k >= n, so f = (n - dim rad)/g and e = n/(g*f).
    The g factors of norm p^f are certified by `_finish_decomposition`,
    so each is one prime (Neukirch, ANT, I.9; Cohen, GTM 138, sec. 6.2).
    Independent of every closed-form decomposition; valid for every p.
    """
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    f = field
    n = f.n
    units = _UNIT_VECTORS[n]
    g = 1
    for h in range(2, n + 1):
        if n % h == 0:
            if _apow_modp(f, units[h - 1], p, p) != units[h - 1]:
                break
            g = h
    # (columns of M_b - lam(b) over the b's used, lam's factor of A)
    pieces = [((), units)]
    for b in units[g - 1:0:-1]:
        if len(pieces) == g:
            break
        mb = [tuple(x % p for x in f.imul(b, e)) for e in units]  # columns
        mat = [list(row) for row in zip(*mb)]
        lams = roots_mod(_min_poly_modp(mat, units[0], p), p)

        def shifted(lam):
            return tuple(tuple((x - lam * int(i == j)) % p for i, x in enumerate(col))
                         for j, col in enumerate(mb))

        if len(lams) == g:
            pieces = [(shifted(lam), None) for lam in lams]
        elif len(lams) > 1:
            pieces = [(gens + shifted(lam), part) for gens, piece in pieces
                      for lam, part in _eigenspaces_modp(mat, piece, lams, p)]
    assert len(pieces) == g, "%s: %d characters at p=%d, not %d" % (f.key, len(pieces), p, g)
    rad = []
    if f.disc % p == 0:
        frob = [list(row) for row in zip(*_frobenius_modp(f, p))]
        e_pow = 1
        while p ** e_pow < n:
            e_pow += 1
        rad = _nullspace_modp(_matpow_modp(frob, e_pow, p), p)
    res_deg = (n - len(rad)) // g
    e_exp = n // (g * res_deg)
    assert e_exp * g * res_deg == n, "%s: incompatible splitting data at p=%d" % (f.key, p)
    factors = [(IdealLattice(f, _span_hnf_modp(list(gens) + rad, n, p)), e_exp)
               for gens, _ in pieces]
    assert all(P.norm == p ** res_deg for P, _ in factors), \
        "%s: norms %s at p=%d, not %d" % (f.key, [P.norm for P, _ in factors], p, p ** res_deg)
    return _finish_decomposition(f, p, factors)


def _restrict_modp(mat, comp, p):
    """Matrix, in the basis `comp`, of `mat` on the subspace comp spans,
    which `mat` must leave stable: one reduction of [comp | mat comp]."""
    dim = len(mat)
    k = len(comp)
    images = [[sum(mat[i][j] * v[j] for j in range(dim)) % p for i in range(dim)]
              for v in comp]
    rref, pivots = _rref_modp([[v[i] for v in comp] + [w[i] for w in images]
                               for i in range(dim)], p)
    assert pivots == list(range(k)), "inconsistent modular system"
    return [row[k:] for row in rref]


def _eigenspaces_modp(mat, comp, eigenvalues, p):
    """The nonzero eigenspaces of `mat` on the span of `comp`, as pairs
    (eigenvalue, basis), for the given eigenvalues, which must exhaust it."""
    restricted = _restrict_modp(mat, comp, p)
    k = len(comp)
    pieces = []
    for lam in eigenvalues:
        shifted = [[(restricted[i][j] - lam * int(i == j)) % p for j in range(k)]
                   for i in range(k)]
        piece = [tuple(sum(coeffs[t] * comp[t][i] for t in range(k)) % p
                       for i in range(len(mat)))
                 for coeffs in _nullspace_modp(shifted, p)]
        if piece:
            pieces.append((lam, piece))
    assert sum(len(piece) for _, piece in pieces) == k, \
        "multiplication is not diagonal with eigenvalues %s" % (eigenvalues,)
    return pieces


# -- enumeration ----------------------------------------------------------------

def may_have_degree_one_prime(field, p: int) -> bool:
    """False only when no prime above p has residue degree one.

    Exact for p not dividing disc(df) = index^2 * disc (Dedekind, Cohen
    GTM 138, sec. 4.8): there pO factors as df does mod p, and since the field
    is Galois all primes above p share one residue degree, so a degree-one
    prime exists iff df splits into distinct linear factors mod p, i.e.
    iff x^p = x mod (df, p).  True for the finitely many p | disc(df).
    """
    if field.index ** 2 * field.disc % p == 0:
        return True
    return x_power_mod(field.df, p, p) == [0, 1] + [0] * (field.n - 2)


def enumerate_primitive_ideals(field, norm_bound: int) -> list:
    """All primitive integral ideals of norm <= norm_bound, as products of
    the prime ideals over p <= norm_bound, sorted by (norm, HNF).  A prime p
    with p^2 > norm_bound is decomposed only when it may have a prime of
    norm p; products across primes are coprime products."""
    if norm_bound < 1:
        raise ValueError("norm bound must be at least 1")
    per_prime = []
    for p in primes_upto(norm_bound):
        if p * p > norm_bound and not may_have_degree_one_prime(field, p):
            continue
        dec = decompose_prime(field, p)
        plist = [(P, P.norm, e0) for P, e0 in dec.factors]
        if min(norm for _, norm, _ in plist) > norm_bound:
            continue
        parts = []

        # "dominated" tracks whether every exponent chosen so far is at
        # least the exponent in pO; such vectors are divisible by pO
        def extend0(idx, lat, norm, dominated):
            if idx == len(plist):
                if lat is not None and not dominated:
                    parts.append((lat, norm))
                return
            P, pn, e0 = plist[idx]
            k = 0
            cur, cn = lat, norm
            while cn <= norm_bound:
                extend0(idx + 1, cur, cn, dominated and k >= e0)
                if cn * pn > norm_bound:
                    break
                cur = P if cur is None else cur.mul(P)
                cn *= pn
                k += 1

        extend0(0, None, 1, True)
        if parts:
            per_prime.append(parts)
    results = [(unit_ideal(field), 1)]
    for parts in per_prime:
        extra = []
        for lat0, n0 in results:
            for latp, np_ in parts:
                nn = n0 * np_
                if nn <= norm_bound:
                    extra.append((latp if n0 == 1 else lat0.mul_coprime(latp), nn))
        results.extend(extra)
    results.sort(key=lambda t: (t[1], t[0].hnf))
    assert len({lat.hnf for lat, _ in results}) == len(results)
    return [lat for lat, _ in results]


def sigma_orbits(ideals) -> list:
    """The Galois orbits {I, sigma(I), sigma^2(I), ...} of a list of ideals.

    Precondition: the list is closed under sigma and sorted by (norm, HNF),
    as `enumerate_primitive_ideals` returns it.  Orbits come in the order
    of their first members in the list, each a list that starts at its
    least (norm, HNF) member and follows sigma from there.  Raises
    ValueError, naming the field, norm and HNF, when a sigma-image is
    missing from the list or an orbit's length does not divide the degree.
    """
    by_hnf = {ideal.hnf: ideal for ideal in ideals}
    seen = set()
    orbits = []
    for head in ideals:
        if head.hnf in seen:
            continue
        n = head.field.n
        orbit = [head]
        image = head.apply_sigma()
        while image.hnf != head.hnf and len(orbit) <= n:
            member = by_hnf.get(image.hnf)
            if member is None:
                raise ValueError(
                    "%s: sigma-image %s of the ideal of norm %d with HNF %s is "
                    "not in the list" % (head.field.key, image.hnf, head.norm, head.hnf))
            orbit.append(member)
            image = member.apply_sigma()
        if n % len(orbit):  # also when the walk ran past n steps
            raise ValueError(
                "%s: the sigma-orbit of the ideal of norm %d with HNF %s does not "
                "close in a divisor of %d steps" % (head.field.key, head.norm, head.hnf, n))
        seen.update(member.hnf for member in orbit)
        orbits.append(orbit)
    return orbits

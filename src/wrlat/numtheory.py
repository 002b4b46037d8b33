"""Integer arithmetic substrate.

Factorization (trial division + Brent's rho, deterministic Miller-Rabin
certificates for the 64-bit range), quadratic residues and modular square
roots, powers and roots of polynomials mod p, cyclic-cubic conductor
parameters, and representations by the norm form x^2 - x*y + y^2 of the
Eisenstein integers.
"""

import math
from dataclasses import dataclass

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 1 << 64
_TRIAL_LIMIT = 10 ** 6
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64.

    Larger inputs are rejected outright rather than answered
    probabilistically.
    """
    if n >= _MR_LIMIT:
        raise ValueError("primality test only certified below 2**64, got %d" % n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(bound: int) -> list:
    """Ascending list of primes <= bound (plain sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i in range(2, bound + 1) if sieve[i]]


@dataclass(frozen=True)
class Factorization:
    """Exact factorization as ((prime, exponent), ...) sorted by prime."""

    pairs: tuple

    def __post_init__(self):
        primes = [p for p, _ in self.pairs]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in self.pairs)

    def as_dict(self) -> dict:
        return dict(self.pairs)

    @property
    def primes(self) -> tuple:
        return tuple(p for p, _ in self.pairs)

    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p ** e
        return out

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _brent_rho(n: int) -> int:
    # n odd composite, no factor below the trial bound
    if is_prime(n):
        return n
    for c in range(1, 50):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError("rho failed on %d" % n)


def factorize(n: int) -> Factorization:
    """Exact factorization of n >= 1 with deterministic ordering."""
    if n < 1:
        raise ValueError("factorize needs n >= 1, got %d" % n)
    if n >= _MR_LIMIT:
        raise ValueError("inputs above 2**64 are out of scope")
    found = {}
    for p in (2, 3):
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    # wheel over 6k +- 1 up to the trial bound
    d = 5
    while d <= _TRIAL_LIMIT and d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                found[p] = found.get(p, 0) + 1
                n //= p
        d += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.extend((g, m // g))
    pairs = tuple(sorted(found.items()))
    fact = Factorization(pairs)
    assert fact.value() * 1 == fact.value()
    return fact


def is_quadratic_residue(a: int, p: int) -> bool:
    """Euler criterion.  Requires p an odd prime not dividing a."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError("modulus %d is not an odd prime" % p)
    if a % p == 0:
        raise ValueError("%d divides %d; residue status is 0, not a boolean" % (p, a))
    return pow(a, (p - 1) // 2, p) == 1


def sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a mod an odd prime p.

    Returns the canonical root r with 0 < r <= p - r (the smaller of the
    two).  Raises ValueError when a is not a quadratic residue.
    """
    if not is_quadratic_residue(a, p):
        raise ValueError("%d is not a quadratic residue mod %d" % (a, p))
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(n, s, p)
    r = e
    while b != 1:
        t, m = b, 0
        while t != 1:
            t = t * t % p
            m += 1
        gs = pow(g, 1 << (r - m - 1), p)
        g = gs * gs % p
        x = x * gs % p
        b = b * g % p
        r = m
    assert x * x % p == a
    return min(x, p - x)


def x_power_mod(df, e, p, shift=0):
    """(x + shift)^e mod (df, p) as len(df) ascending coefficients in
    [0, p); df is monic of degree len(df) >= 2, ascending, with its
    leading 1 left out."""
    n = len(df)
    df = [c % p for c in df]

    def mulmod(u, v):
        prod = [0] * (2 * n - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    prod[i + j] += ui * vj
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k] % p
            if c:  # x^k = -sum_t df[t] x^(k-n+t)
                for t in range(n):
                    prod[k - n + t] -= c * df[t]
        return [x % p for x in prod[:n]]

    out = [1] + [0] * (n - 1)
    base = [shift % p, 1] + [0] * (n - 2)
    while e:
        if e & 1:
            out = mulmod(out, base)
        base = mulmod(base, base)
        e >>= 1
    return out


def _trim(u):
    while u and u[-1] == 0:
        u.pop()
    return u


def _poly_divmod(u, v, p):
    """Quotient and remainder of u by v != 0 over F_p.  Polynomials are
    ascending coefficient lists in [0, p), leading coefficient included,
    with no trailing zeros; [] is zero."""
    u = list(u)
    inv = pow(v[-1], -1, p)
    q = [0] * max(len(u) - len(v) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = u[k + len(v) - 1] * inv % p
        q[k] = c
        if c:
            for i, vi in enumerate(v):
                u[k + i] = (u[k + i] - c * vi) % p
    return q, _trim(u[:len(v) - 1])


def _poly_mul(u, v, p):
    """u * v over F_p, in the form of `_poly_divmod`."""
    out = [0] * max(len(u) + len(v) - 1, 0)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
    return _trim([x % p for x in out])


def _poly_sub(u, v, p):
    """u - v over F_p, in the form of `_poly_divmod`."""
    out = [0] * max(len(u), len(v))
    for i, x in enumerate(u):
        out[i] = x
    for i, x in enumerate(v):
        out[i] -= x
    return _trim([x % p for x in out])


def _poly_gcd(u, v, p):
    """Monic gcd over F_p of u != 0 and v, in the form of `_poly_divmod`."""
    while v:
        u, v = v, _poly_divmod(u, v, p)[1]
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u]


def roots_mod(df, p):
    """The distinct roots in [0, p) of df mod the prime p, ascending; df as
    in `x_power_mod`.

    g = gcd(x^p - x, df) is the product of the distinct linear factors of
    df mod p.  It is split by equal degree (Cantor-Zassenhaus; Cohen, GTM
    138, sec. 3.4): (x + a)^((p-1)/2) - 1 vanishes at the roots r with
    r + a a nonzero square, so its gcd with a factor of g splits that
    factor unless all its roots fall on one side.  For odd p some a in F_p
    separates any two roots, and a = 0 or 1 usually does, so the work is
    O(log p) multiplications mod df.  h = x^((p-1)/2) mod df is computed
    once: it gives x^p = x h^2, and reduced mod g it is the a = 0 split.
    Quadratic pieces x^2 + bx + c are solved as (-b +- sqrt(b^2 - 4c))/2.
    F_2 is tested point by point.
    """
    if p == 2:  # r^n = r on F_2
        return [r for r in range(2)
                if (r + sum(c * r ** k for k, c in enumerate(df))) % 2 == 0]
    half = (p - 1) // 2
    inv2 = half + 1
    monic = [c % p for c in df] + [1]
    h = _trim(x_power_mod(df, half, p))
    xp = _poly_divmod(_trim([0] + _poly_mul(h, h, p)), monic, p)[1]  # x^p = x h^2
    # each piece carries x^((p-1)/2) modulo a multiple of it, or None
    pieces = [(_poly_gcd(monic, _poly_sub(xp, [0, 1], p), p), h)]
    roots = []
    while pieces:
        g, h = pieces.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) == 3:
            c, b = g[0], g[1]
            s = sqrt_mod(b * b - 4 * c, p)
            roots += [(s - b) * inv2 % p, (-s - b) * inv2 % p]
        elif len(g) > 3:
            for a in range(p):
                if a == 0 and h is not None:
                    ha = _poly_divmod(h, g, p)[1]
                else:
                    ha = x_power_mod(g[:-1], half, p, a)
                d = _poly_gcd(g, _poly_sub(ha, [1], p), p)
                if 1 < len(d) < len(g):
                    break
            else:
                raise AssertionError("no shift splits %s mod %d" % (g, p))
            pieces += [(d, None), (_poly_divmod(g, d, p)[0], None)]
    return sorted(roots)


# ---------------------------------------------------------------------------
# cyclic cubic conductors: m = p1*...*pr with distinct factors from
# {9} union {q prime, q = 1 mod 3}, and m = (a^2 + 3 b^2)/4 with
#   a = 2 mod 3, b = 0 mod 3, b > 0        when 3 does not divide m,
#   a = 6 mod 9, b = 3 or 6 mod 9, b > 0   when 3 divides m.

def conductor_violation(m: int):
    """None when m is a valid conductor, else a human-readable reason."""
    if m < 7:
        return "conductor must be at least 7"
    fact = factorize(m)
    for p, e in fact:
        if p == 3:
            if e != 2:
                return "3 divides m with exponent %d; only the factor 9 is allowed" % e
        elif p % 3 != 1:
            return "prime factor %d is not congruent to 1 mod 3" % p
        elif e != 1:
            return "prime factor %d appears with exponent %d > 1" % (p, e)
    return None


def is_valid_conductor(m: int) -> bool:
    return m >= 7 and conductor_violation(m) is None


def enumerate_conductors(bound: int) -> list:
    return [m for m in range(7, bound + 1) if is_valid_conductor(m)]


def conductor_params(m: int) -> tuple:
    """The pair (a, b) with 4*m = a^2 + 3*b^2 and the congruences above.

    When several pairs qualify, the one with smallest b wins, ties broken
    by smaller a.
    """
    reason = conductor_violation(m)
    if reason is not None:
        raise ValueError("invalid conductor %d: %s" % (m, reason))
    three_divides = m % 3 == 0
    candidates = []
    b = 1
    while 3 * b * b <= 4 * m:
        a2 = 4 * m - 3 * b * b
        r = math.isqrt(a2)
        if r * r == a2:
            for a in sorted({-r, r}):
                if three_divides:
                    ok = a % 9 == 6 and b % 9 in (3, 6)
                else:
                    ok = a % 3 == 2 and b % 3 == 0
                if ok:
                    candidates.append((b, a))
        b += 1
    if not candidates:
        raise ValueError("no (a, b) parameters found for conductor %d" % m)
    b, a = min(candidates)
    assert a * a + 3 * b * b == 4 * m
    return a, b


# ---------------------------------------------------------------------------
# representations N = x^2 - x*y + y^2

@dataclass(frozen=True)
class EisensteinRep:
    """A representation x^2 - x*y + y^2 = target with x + y + 1 = 0 mod 3."""

    x: int
    y: int
    target: int

    def __post_init__(self):
        assert self.x * self.x - self.x * self.y + self.y * self.y == self.target
        assert (self.x + self.y + 1) % 3 == 0


def norm_form_solutions(n: int) -> list:
    """All integer pairs (x, y) with x^2 - x*y + y^2 = n, sorted."""
    sols = set()
    ymax = math.isqrt(4 * n // 3)
    for y in range(-ymax, ymax + 1):
        disc = 4 * n - 3 * y * y
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for num in {y + r, y - r}:
            if num % 2 == 0:
                sols.add((num // 2, y))
    return sorted(sols)


def _rep_pre_check(n: int, what: str):
    fact = factorize(n)
    if not fact.is_squarefree():
        raise ValueError("%s %d is not squarefree" % (what, n))
    for p in fact.primes:
        if p % 3 != 1:
            raise ValueError("%s %d has prime factor %d not 1 mod 3" % (what, n, p))


def _canonical_key(sol):
    x, y = sol
    return (abs(x), abs(y), x, y)


def eisenstein_rep(n: int) -> EisensteinRep:
    """Some (x, y) with x^2 - x*y + y^2 = n and x + y + 1 = 0 mod 3.

    n must be a squarefree product of primes = 1 mod 3 (n = 1 allowed).
    Deterministic: smallest |x|, then smallest |y|, then sign order.
    """
    if n < 1:
        raise ValueError("target must be positive, got %d" % n)
    _rep_pre_check(n, "target")
    good = [s for s in norm_form_solutions(n) if (s[0] + s[1] + 1) % 3 == 0]
    if not good:
        raise ValueError("%d is not representable by x^2 - x*y + y^2" % n)
    x, y = min(good, key=_canonical_key)
    return EisensteinRep(x, y, n)


def eisenstein_rep_adapted(n: int, a: int, b: int, p_part: int) -> tuple:
    """A representation (x, y) of p_part | n compatible with the given
    representation n = a^2 - a*b + b^2.

    Compatible means x + y + 1 = 0 mod 3 together with
    p_part | (a*x + b*y - a*y) and p_part | (b*x - a*y); such a pair always
    exists, so an empty search signals a bug upstream.  The divisibility
    conditions say that x + y*w divides a + b*w in Z[w] (w a primitive
    cube root of unity), so they are invariant under unit multiples of
    (a, b); no congruence is imposed on the input representation.
    """
    if a * a - a * b + b * b != n:
        raise ValueError("(%d, %d) does not represent %d" % (a, b, n))
    if n % p_part != 0:
        raise ValueError("%d does not divide %d" % (p_part, n))
    _rep_pre_check(p_part, "divisor")
    good = []
    for x, y in norm_form_solutions(p_part):
        if (x + y + 1) % 3 != 0:
            continue
        if (a * x + b * y - a * y) % p_part == 0 and (b * x - a * y) % p_part == 0:
            good.append((x, y))
    if not good:
        raise ArithmeticError(
            "no compatible representation of %d relative to (%d, %d); "
            "this contradicts the existence guarantee" % (p_part, a, b))
    return min(good, key=_canonical_key)

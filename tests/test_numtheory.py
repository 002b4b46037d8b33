import pytest
from hypothesis import given, settings, strategies as st

from wrlat import numtheory as nt


def test_factorize_examples():
    assert nt.factorize(91).as_dict() == {7: 1, 13: 1}
    assert nt.factorize(1).pairs == ()
    assert nt.factorize(2000).as_dict() == {2: 4, 5: 3}


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        nt.factorize(0)
    with pytest.raises(ValueError):
        nt.factorize(2 ** 64 + 1)


def test_factorize_product_and_primality_small_range():
    sieve_primes = set(nt.primes_upto(3000))
    for n in range(1, 3000):
        fact = nt.factorize(n)
        assert fact.value() == n
        for p, e in fact:
            assert p in sieve_primes
            assert e >= 1


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_factorize_roundtrip_up_to_million(n):
    fact = nt.factorize(n)
    assert fact.value() == n
    assert all(nt.is_prime(p) for p in fact.primes)
    assert list(fact.primes) == sorted(set(fact.primes))


def test_is_prime_against_sieve():
    marks = set(nt.primes_upto(10 ** 4))
    for n in range(2, 10 ** 4):
        assert nt.is_prime(n) == (n in marks)


def test_quadratic_residue_examples():
    assert nt.is_quadratic_residue(5, 3) is False
    for p in (3, 7, 11, 101):
        assert nt.is_quadratic_residue(1, p) is True
    assert nt.is_quadratic_residue(5, 13) is False


def test_quadratic_residue_matches_brute_force():
    for p in nt.primes_upto(200):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert nt.is_quadratic_residue(a, p) == (a in squares)


def test_quadratic_residue_rejects_divisible():
    with pytest.raises(ValueError):
        nt.is_quadratic_residue(26, 13)
    with pytest.raises(ValueError):
        nt.is_quadratic_residue(3, 9)


def test_sqrt_mod_examples():
    assert nt.sqrt_mod(4, 7) == 2
    assert nt.sqrt_mod(2, 7) == 3
    with pytest.raises(ValueError):
        nt.sqrt_mod(5, 13)


@settings(max_examples=150, derandomize=True)
@given(st.sampled_from([p for p in nt.primes_upto(500) if p > 2]),
       st.integers(min_value=1, max_value=10 ** 6))
def test_sqrt_mod_roundtrip(p, x):
    a = x * x % p
    if a == 0:
        return
    r = nt.sqrt_mod(a, p)
    assert 0 < r <= p - r
    assert r * r % p == a


def test_x_power_mod_matches_repeated_multiplication():
    # (x + shift)^e mod (df, p) against e successive multiplications by x + shift
    for df in ((-1, -2, 1), (125, 0, -20, 0), (3, 5, 0, 7), (4, 1)):
        n = len(df)
        for p in (2, 3, 5, 11, 101):
            for shift in (0, 1, -3):
                cur = [1] + [0] * (n - 1)
                for e in range(60):
                    assert nt.x_power_mod(df, e, p, shift) == cur
                    top = cur[-1]
                    cur = [(lo - top * c + shift * hi) % p
                           for lo, c, hi in zip([0] + cur[:-1], df, cur)]


def test_roots_mod_matches_scan(rng):
    # every polynomial shape: irreducible, partly split, repeated roots,
    # fully split; against evaluation at every residue
    mod4 = set()
    for p in nt.primes_upto(130):
        for _ in range(12):
            n = rng.choice((2, 3, 4))
            df = [rng.randrange(-60, 60) for _ in range(n)]
            scan = [r for r in range(p)
                    if (r ** n + sum(c * r ** k for k, c in enumerate(df))) % p == 0]
            assert nt.roots_mod(df, p) == scan, (df, p)
        r1, r2, r3 = (rng.randrange(p) for _ in range(3))
        df = (-r1 * r2 * r3, r1 * r2 + r1 * r3 + r2 * r3, -(r1 + r2 + r3))
        assert nt.roots_mod(df, p) == sorted({r1, r2, r3})
        if p == 2:
            continue
        # two distinct roots make the linear part one quadratic piece, solved
        # by sqrt_mod: one power for p = 3 mod 4, Tonelli-Shanks for p = 1 mod 4;
        # alone, and beside an irreducible x^2 - q
        r1, r2 = rng.sample(range(p), 2)
        b, c = -(r1 + r2), r1 * r2
        q = next(a for a in range(2, p) if not nt.is_quadratic_residue(a, p))
        assert nt.roots_mod((c, b), p) == sorted((r1, r2)), p
        assert nt.roots_mod((-c * q, -b * q, c - q, b), p) == sorted((r1, r2)), p
        mod4.add(p % 4)
    assert mod4 == {1, 3}


def test_roots_mod_large_prime():
    # (x - 1)(x - 2)(x + 3) splits at every prime; x^2 - 2 has roots iff
    # p = +-1 mod 8, and x^2 + 1 iff p = 1 mod 4
    p = 1000003
    assert nt.roots_mod((6, -7, 0), p) == [1, 2, p - 3]
    assert nt.roots_mod((-2, 0), p) == []
    assert nt.roots_mod((1, 0), p) == []
    q = 1000033
    r = nt.roots_mod((1, 0), q)
    assert len(r) == 2 and all((x * x + 1) % q == 0 for x in r)


def test_conductor_params_examples():
    assert nt.conductor_params(7) == (-1, 3)
    assert nt.conductor_params(9) == (-3, 3)
    with pytest.raises(ValueError):
        nt.conductor_params(12)


def test_conductor_validity_examples():
    assert nt.is_valid_conductor(63) is True
    assert nt.is_valid_conductor(21) is False
    assert nt.enumerate_conductors(40) == [7, 9, 13, 19, 31, 37]


def test_conductor_params_identity_and_congruences():
    for m in nt.enumerate_conductors(500):
        a, b = nt.conductor_params(m)
        assert a * a + 3 * b * b == 4 * m
        assert b > 0
        if m % 3 == 0:
            assert a % 9 == 6 and b % 9 in (3, 6)
        else:
            assert a % 3 == 2 and b % 3 == 0


def test_eisenstein_rep_examples():
    rep = nt.eisenstein_rep(7)
    assert rep.x ** 2 - rep.x * rep.y + rep.y ** 2 == 7
    assert (rep.x + rep.y + 1) % 3 == 0
    rep1 = nt.eisenstein_rep(1)
    assert rep1.x ** 2 - rep1.x * rep1.y + rep1.y ** 2 == 1
    rep13 = nt.eisenstein_rep(13)
    assert rep13.x ** 2 - rep13.x * rep13.y + rep13.y ** 2 == 13
    # determinism
    assert nt.eisenstein_rep(91) == nt.eisenstein_rep(91)


def test_eisenstein_rep_rejects_unrepresentable():
    with pytest.raises(ValueError):
        nt.eisenstein_rep(5)  # 5 = 2 mod 3
    with pytest.raises(ValueError):
        nt.eisenstein_rep(49)  # not squarefree


def test_adapted_rep_prime_divisor():
    # N = 91 = 7 * 13 with a base representation
    base = nt.eisenstein_rep(91)
    for p in (7, 13, 91):
        x, y = nt.eisenstein_rep_adapted(91, base.x, base.y, p)
        assert x * x - x * y + y * y == p
        assert (x + y + 1) % 3 == 0
        assert (base.x * x + base.y * y - base.x * y) % p == 0
        assert (base.y * x - base.x * y) % p == 0


def test_adapted_rep_degenerate_full_divisor():
    base = nt.eisenstein_rep(13)
    x, y = nt.eisenstein_rep_adapted(13, base.x, base.y, 13)
    # (x, y) = (base.x, base.y) always satisfies the divisibility conditions
    assert (base.x * base.x + base.y * base.y - base.x * base.y) % 13 == 0
    assert x * x - x * y + y * y == 13


def test_adapted_rep_validates_input():
    with pytest.raises(ValueError):
        nt.eisenstein_rep_adapted(91, 1, 1, 7)  # 1 - 1 + 1 != 91

import itertools
import math
import re

import pytest

from wrlat import ideal_lattice as il
from wrlat import linalg
from wrlat.cubic_field import CubicField
from wrlat.lattice_reduce import wr_report
from wrlat.numtheory import (enumerate_conductors, factorize, is_quadratic_residue, primes_upto,
                             roots_mod)
from wrlat.quartic_field import QuarticField
from wrlat.survey_cli import parse_field_id
from conftest import quartic_param_box


def test_unit_and_principal(cubic7):
    O = il.unit_ideal(cubic7)
    assert O.norm == 1 and O.validate_ideal() and O.is_primitive()
    P = il.from_generators(cubic7, [cubic7.one])
    assert P == O
    seven = il.principal_integer(cubic7, 7)
    assert seven.norm == 7 ** 3
    assert not seven.is_primitive()


def test_two_element_presentation(cubic7):
    f = cubic7
    P = il.from_generators(f, [f.from_int(7), f.add(f.alpha, f.from_int(2))])
    assert P.norm == 7
    assert P.validate_ideal()
    assert P.mul(P).mul(P) == il.principal_integer(f, 7)


def test_from_generators_rejects_zero(cubic7):
    with pytest.raises(ValueError):
        il.from_generators(cubic7, [cubic7.from_int(0)])


def test_mul_unit_is_identity(cubic7, quartic_even):
    for f in (cubic7, quartic_even):
        O = il.unit_ideal(f)
        A = il.decompose_prime(f, 7 if f.n == 3 else 5).factors[0][0]
        assert A.mul(O) == A


def test_norm_multiplicative_coprime(cubic91):
    f = cubic91
    P7 = il.decompose_prime_cubic(f, 7).factors[0][0]
    P13 = il.decompose_prime_cubic(f, 13).factors[0][0]
    prod = P7.mul(P13)
    assert prod.norm == P7.norm * P13.norm == 91


def test_power_starts_from_self(cubic7, quartic_even):
    for f, p in ((cubic7, 7), (quartic_even, 5)):
        P = il.decompose_prime(f, p).factors[0][0]
        assert P.power(0) == il.unit_ideal(f)
        assert P.power(1) is P
        assert P.power(3) == P.mul(P).mul(P)
        with pytest.raises(ValueError):
            P.power(-1)


def test_from_generators_matches_rational_route(small_cubic_fields,
                                                small_quartic_fields, rng):
    for f in small_cubic_fields + small_quartic_fields:
        for _ in range(12):
            gens = [f.from_integral(tuple(rng.randint(-9, 9) for _ in range(f.n)))
                    for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                gens.append(f.from_int(rng.choice((2, 3, 5, 7))))
            if all(g == f.from_int(0) for g in gens):
                continue
            cols = [f.to_integral_exact(f.mul(g, e)) for g in gens for e in f.integral_basis]
            want = il.from_integral_columns(f, cols)
            assert il.from_generators(f, gens) == want
            assert want.validate_ideal()


@pytest.mark.parametrize("family,bound", [("small_cubic_fields", 300),
                                          ("small_quartic_fields", 200)])
def test_coprime_product_matches_mul(family, bound, request, rng):
    for f in request.getfixturevalue(family):
        ideals = il.enumerate_primitive_ideals(f, bound)[1:]
        pairs = 0
        while pairs < 25:
            I, J = rng.choice(ideals), rng.choice(ideals)
            if math.gcd(I.norm, J.norm) != 1:
                with pytest.raises(ValueError):
                    I.mul_coprime(J)
                continue
            assert I.mul_coprime(J) == I.mul(J)
            pairs += 1


def test_degree_one_prefilter_is_exact(small_cubic_fields, small_quartic_fields):
    """The enumerator skips p with p^2 > bound when the prefilter rules out
    a prime of norm p: it may never rule one out wrongly, and for p prime to
    disc(df) it is exact."""
    ramified_guarded = skipped = 0
    for f in small_cubic_fields + small_quartic_fields:
        disc_df = f.index ** 2 * f.disc
        for p in primes_upto(300):
            dec = il.decompose_prime(f, p)
            has_one = any(dec.residue_degree(P) == 1 for P in dec.primes)
            oracle = il.stable_subspace_primes(f, p)
            assert any(oracle.residue_degree(P) == 1 for P in oracle.primes) == has_one
            may = il.may_have_degree_one_prime(f, p)
            if has_one:
                assert may, (f.key, p)
            if disc_df % p:
                assert may == has_one, (f.key, p)
            elif has_one and dec.is_ramified():
                ramified_guarded += 1
            skipped += not may
    # p = 2, 3 and the ramified primes are in range; a fair share is skipped
    assert ramified_guarded >= 17
    assert skipped >= 600


def test_mismatched_fields_rejected(cubic7, cubic91):
    A = il.unit_ideal(cubic7)
    B = il.unit_ideal(cubic91)
    with pytest.raises(ValueError):
        A.mul(B)


def test_contains_and_membership(cubic7):
    from fractions import Fraction
    f = cubic7
    P = il.decompose_prime_cubic(f, 7).factors[0][0]
    assert P.contains(f.from_int(7))
    assert not P.contains(f.one)
    assert not P.contains(f.scale(f.one, Fraction(1, 2)))  # not integral


def test_trace_sublattice_examples(cubic7, cubic91):
    f = cubic7
    assert il.trace_sublattice(f, 1) == il.unit_ideal(f)
    P7 = il.decompose_prime_cubic(f, 7).factors[0][0]
    assert il.trace_sublattice(f, 7) == P7
    for m, f in ((7, cubic7), (91, cubic91)):
        for ell in range(1, 31):
            M = il.trace_sublattice(f, ell)
            det = 1
            for i in range(3):
                det *= M.hnf[i][i]
            assert det == ell
            assert M.validate_ideal() == (m % ell == 0)


def test_trace_sublattice_requires_tame_conductor(cubic9):
    with pytest.raises(ValueError):
        il.trace_sublattice(cubic9, 3)


def test_cubic_decompositions(cubic7, cubic9, cubic91):
    dec = il.decompose_prime_cubic(cubic7, 7)
    assert dec.shape == "P^3" and dec.factors[0][0].norm == 7
    # the prime above 7 is <7, alpha + 2>
    P = dec.factors[0][0]
    assert P.contains(cubic7.add(cubic7.alpha, cubic7.from_int(2)))

    dec3 = il.decompose_prime_cubic(cubic9, 3)
    assert dec3.shape == "P^3"
    P0 = dec3.factors[0][0]
    assert P0.norm == 3
    # triple root of x^3 - 3x + 1 mod 3 is -1, so alpha + 1 generates
    assert P0.contains(cubic9.add(cubic9.alpha, cubic9.one))
    assert not P0.contains(cubic9.sub(cubic9.alpha, cubic9.one))

    assert il.decompose_prime_cubic(cubic7, 2).shape == "inert"
    assert il.decompose_prime_cubic(cubic7, 29).shape == "P1*P2*P3"
    # m = 91 picks b = 6, so 2 divides the index of Z[alpha]
    dec2 = il.decompose_prime_cubic(cubic91, 2)
    assert dec2.factors == il.stable_subspace_primes(cubic91, 2).factors


def test_cubic_oracle_agreement(small_cubic_fields):
    for f in small_cubic_fields:
        for p in primes_upto(20):
            a = il.decompose_prime_cubic(f, p)
            b = il.stable_subspace_primes(f, p)
            assert a.factors == b.factors and a.shape == b.shape


def test_cubic_roots_match_literal_scan(small_cubic_fields):
    # the roots that build the closed-form primes, against evaluating the
    # defining cubic at every residue, wherever the closed forms apply
    for f in small_cubic_fields:
        c0, c1, c2 = f.df
        for p in primes_upto(2000):
            if f.index % p == 0:
                continue
            scan = [r for r in range(p) if (((r + c2) * r + c1) * r + c0) % p == 0]
            assert roots_mod(f.df, p) == scan, (f.key, p)
            assert len(scan) in ((1,) if f.m % p == 0 else (0, 3))


@pytest.mark.parametrize("p,shape", [(1000003, "inert"), (999983, "inert"),
                                     (1000033, "P1*P2*P3")])
def test_cubic_decomposition_near_a_million(cubic7, p, shape):
    dec = il.decompose_prime_cubic(cubic7, p)
    assert dec.shape == shape
    ref = il.stable_subspace_primes(cubic7, p)
    assert dec.factors == ref.factors and dec.shape == ref.shape


def test_quartic_decomposition_examples(quartic_even):
    f = quartic_even
    assert il.decompose_prime_quartic(f, 3).shape == "inert"
    dec5 = il.decompose_prime_quartic(f, 5)
    assert dec5.shape == "P^4"
    P5 = dec5.factors[0][0]
    assert P5.norm == 5 and P5.contains(f.beta)
    dec2 = il.decompose_prime_quartic(f, 2)
    assert dec2.shape == "P^2"
    assert dec2.factors[0][0].norm == 4


def test_quartic_two_even_d():
    f = QuarticField(1, 1, 1, 2)
    dec = il.decompose_prime_quartic(f, 2)
    assert dec.shape == "P^4" and dec.factors[0][0].norm == 2


def test_quartic_two_odd_disc_inert(quartic_imag):
    # d = 5 mod 8 with odd discriminant: 2 stays prime
    dec = il.decompose_prime_quartic(quartic_imag, 2)
    assert dec.shape == "inert"
    assert not dec.factors[0][0].is_primitive()


def test_quartic_two_split_case():
    # d = 17 = 1 mod 8 with odd discriminant goes to the splitting engine
    f = QuarticField(1, 4, 1, 17)
    dec = il.decompose_prime_quartic(f, 2)
    assert dec.shape in ("P1*P2", "P1*P2*P3*P4")
    assert not dec.is_ramified()


def test_divisor_of_b_and_c_branches():
    # p = 3 divides b, a = 1 is a residue mod 3: totally split
    f = QuarticField(1, 3, 2, 13)
    dec = il.decompose_prime_quartic(f, 3)
    assert dec.shape == "P1*P2*P3*P4"
    assert all(P.norm == 3 for P, _ in dec.factors)
    # p = 3 divides b, a = -1 is not a residue mod 3: two primes of norm 9
    f2 = QuarticField(-1, 3, 2, 13)
    dec2 = il.decompose_prime_quartic(f2, 3)
    assert dec2.shape == "P1*P2"
    assert all(P.norm == 9 for P, _ in dec2.factors)
    # p = 3 divides c, 2a = 2 is not a residue mod 3: two primes
    f3 = QuarticField(1, 2, 3, 13)
    dec3 = il.decompose_prime_quartic(f3, 3)
    assert dec3.shape == "P1*P2"
    # p = 3 divides c, 2a = -2 = 1 mod 3 is a residue: split
    f4 = QuarticField(-1, 2, 3, 13)
    dec4 = il.decompose_prime_quartic(f4, 3)
    assert dec4.shape == "P1*P2*P3*P4"


def test_quartic_oracle_agreement_sample(small_quartic_fields):
    for f in small_quartic_fields:
        for p in primes_upto(20):
            a = il.decompose_prime_quartic(f, p)
            b = il.stable_subspace_primes(f, p)
            assert a.factors == b.factors and a.shape == b.shape, (f.key, p)


def test_index_divisor_witnesses_at_101():
    # p = 101 divides b (quartic) resp. the index |b|/3 (cubic): both go
    # to the splitting engine, which has no cap on p
    f = QuarticField(1, 404, 1, 163217)
    dec = il.decompose_prime(f, 101)
    assert dec.shape == "P1*P2*P3*P4"
    assert [P.norm for P in dec.primes] == [101] * 4
    g = CubicField(68863)
    assert g.index == 101
    dec = il.decompose_prime(g, 101)
    assert dec.shape == "P1*P2*P3"
    assert [P.norm for P in dec.primes] == [101] * 3
    for P in dec.primes:
        assert P.validate_ideal()


def _sympy_ef_pairs(f, p):
    """Sorted (e, f) above p in a quartic field, from sympy alone: by
    Kummer-Dedekind, factoring mod p the characteristic polynomial of an
    integral element theta with p prime to [O : Z[theta]]; when no small
    theta qualifies (p a common index divisor, so p < 4), by sympy's
    prime_decomp on the integral basis.  prime_decomp alone is not enough
    with sympy 1.14: its maximal order of (-5,5,3,34) has discriminant
    44719 instead of 251545600, and even given the integral basis its
    splitting step raises on 11 of the 18 p = 5 cases below."""
    from sympy import Matrix, Poly, Rational, ZZ, resultant, symbols
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import hermite_normal_form
    from sympy.polys.numberfields.modules import PowerBasis
    from sympy.polys.numberfields.primes import prime_decomp

    x, y = symbols("x y")
    T = Poly([1] + list(reversed(f.df)), y, domain=ZZ)
    powers = [f.one]
    for _ in range(3):
        powers.append(f.mul(powers[-1], f.beta))

    def rat(q):
        return Rational(q.numerator, q.denominator)

    pw = Matrix(4, 4, lambda i, j: rat(powers[j][i]))
    basis = [pw.solve(Matrix([rat(c) for c in w])) for w in f.integral_basis]
    for coeffs in itertools.product(range(3), repeat=3):
        h = sum(c * basis[k + 1][j] * y ** j for k, c in enumerate(coeffs) for j in range(4))
        chi = Poly(resultant(T.as_expr(), x - h, y), x)
        disc = chi.discriminant()
        if disc == 0:
            continue
        assert disc % f.disc == 0
        if disc // f.disc % p:
            _, factors = Poly(chi, x, modulus=p).factor_list()
            return sorted((e, g.degree()) for g, e in factors)
    assert p < 4
    den = math.lcm(*[int(c.q) for col in basis for c in col])
    mat = DomainMatrix.from_Matrix(Matrix.hstack(*basis) * den).convert_to(ZZ)
    ZK = PowerBasis(T).submodule_from_matrix(hermite_normal_form(mat), denom=den)
    return sorted((P.e, P.f) for P in prime_decomp(p, T, ZK=ZK, dK=f.disc))


def test_engine_matches_sympy_on_quartic_cases():
    pytest.importorskip("sympy")
    cases = [(QuarticField(*t), q) for t in quartic_param_box(5, 40)
             for q in factorize(t[1]).primes if q != 2]
    # p = 2 in the three classes without a closed form: d = 5 mod 8 with
    # b even and a + b = 3 mod 4, then d = 1 mod 8 with even and with odd
    # discriminant
    for t in ((-3, 2, 1, 5), (1, 2, 1, 5), (-5, 1, 4, 17), (1, 1, 4, 17),
              (1, 4, 1, 17), (-3, 4, 1, 17)):
        cases.append((QuarticField(*t), 2))
    cases.append((QuarticField(1, 404, 1, 163217), 101))
    assert len(cases) == 47
    for f, p in cases:
        dec = il.decompose_prime(f, p)
        got = sorted((e, dec.residue_degree(P)) for P, e in dec.factors)
        assert got == _sympy_ef_pairs(f, p), (f.key, p)


def test_literal_subspace_scan_tiny_p(cubic7, cubic91, quartic_even):
    # brute-force check of the oracle on tiny p: every proper nonzero
    # multiplication-stable subspace of O/pO sits inside a reported prime;
    # the last four pairs are decomposed by the splitting engine itself
    for f, p in ((cubic7, 2), (cubic7, 3), (quartic_even, 2), (quartic_even, 3),
                 (QuarticField(1, 3, 2, 13), 3), (QuarticField(-1, 3, 2, 13), 3),
                 (QuarticField(1, 4, 1, 17), 2), (cubic91, 2)):
        n = f.n
        dec = il.stable_subspace_primes(f, p)
        prime_subspaces = []
        for P, _ in dec.factors:
            vecs = set()
            for coeffs in itertools.product(range(p), repeat=n):
                v = [0] * n
                for k, col in enumerate(P.columns()):
                    for i in range(n):
                        v[i] = (v[i] + coeffs[k] * col[i]) % p
                vecs.add(tuple(v))
            prime_subspaces.append(vecs)
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        for dim_vecs in itertools.product(range(p), repeat=n):
            base = dim_vecs
            if not any(base):
                continue
            # cyclic submodule generated by base: the F_p-span of base * e_k
            gens = [tuple(x % p for x in f.imul(base, u)) for u in units]
            span = {tuple([0] * n)}
            frontier = list(span)
            while frontier:
                v = frontier.pop()
                for g in gens:
                    w = tuple((a + b) % p for a, b in zip(v, g))
                    if w not in span:
                        span.add(w)
                        frontier.append(w)
            if len(span) == p ** n:
                continue
            assert any(span <= ps for ps in prime_subspaces), (f.key, p, base)


def _det_modp(m, p):
    total = 0
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(m))
                           for j in range(i + 1, len(m)))
        term = sign
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total % p


def test_fixed_element_eigenvalues_by_scan(cubic7, cubic91, quartic_even):
    # for every Frobenius-fixed element fv of B = (O/pO)/rad, on the pairs of
    # the literal subspace scan: the engine's minimal polynomial annihilates
    # multiplication by fv, no monic polynomial of lower degree does, and
    # its roots are exactly the lam in F_p with mfv - lam singular
    split_at = set()
    for f, p in ((cubic7, 2), (cubic7, 3), (quartic_even, 2), (quartic_even, 3),
                 (QuarticField(1, 3, 2, 13), 3), (QuarticField(-1, 3, 2, 13), 3),
                 (QuarticField(1, 4, 1, 17), 2), (cubic91, 2)):
        _, _, dim, fixed, bmul_matrix, one_b = _semisimple_quotient(f, p)
        eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for fv in fixed:
            mfv = bmul_matrix(fv)
            mpoly = il._min_poly_modp(mfv, one_b, p)
            powers = [eye]
            for _ in mpoly:
                powers.append([[sum(powers[-1][i][k] * mfv[k][j] for k in range(dim)) % p
                                for j in range(dim)] for i in range(dim)])

            def annihilates(tail):
                # x^len(tail) + sum tail[k] x^k, evaluated at mfv
                return all((powers[len(tail)][i][j]
                            + sum(c * powers[k][i][j] for k, c in enumerate(tail))) % p == 0
                           for i in range(dim) for j in range(dim))

            assert annihilates(mpoly), (f.key, p, fv)
            for deg in range(len(mpoly)):
                for tail in itertools.product(range(p), repeat=deg):
                    assert not annihilates(tail), (f.key, p, fv, tail)
            singular = [lam for lam in range(p)
                        if _det_modp([[(mfv[i][j] - lam * eye[i][j]) % p for j in range(dim)]
                                      for i in range(dim)], p) == 0]
            if len(mpoly) == 1:
                assert singular == [-mpoly[0] % p], (f.key, p, fv)
            else:
                assert roots_mod(mpoly, p) == singular, (f.key, p, fv)
                split_at.add((p, f.n))
    # the F_2 branch of roots_mod, and p = 3 with the radical power 2 for n = 4
    assert {(2, 3), (2, 4), (3, 4)} <= split_at


@pytest.mark.parametrize("p", [1000003, 1000199])
@pytest.mark.parametrize("params", [(1, 2, 1, 5), (1, 404, 1, 163217)])
def test_quartic_engine_near_a_million(params, p):
    # 1000199 splits completely in both fields
    f = QuarticField(*params)
    dec = il.decompose_prime(f, p)
    ref = il.stable_subspace_primes(f, p)
    assert ref.factors == dec.factors and ref.shape == dec.shape
    if p == 1000199:
        assert dec.shape == "P1*P2*P3*P4"


def _random_lattice_over_p(rng, n, p, f):
    # p*Z^n + a random subspace of F_p^n of dimension n - f: norm p^f, contains pO
    while True:
        vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n - f)]
        rref, _ = il._rref_modp(vecs, p)
        if len(rref) == n - f:
            return il._span_hnf_modp(vecs, n, p)


def _mutations(dec, rng):
    """Factor lists that are not a decomposition of pO: a prime dropped, an
    exponent moved by one, a prime swapped for another lattice of its norm
    that contains pO."""
    factors = list(dec.factors)
    f = factors[0][0].field
    for i, (P, e) in enumerate(factors):
        yield "drop", factors[:i] + factors[i + 1:]
        for de in (-1, 1):
            yield "exponent", factors[:i] + [(P, e + de)] + factors[i + 1:]
        res_deg = dec.residue_degree(P)
        if res_deg < f.n:  # pO is the only lattice of norm p^n above pO
            for _ in range(3):
                hnf = _random_lattice_over_p(rng, f.n, dec.p, res_deg)
                if hnf != P.hnf:
                    yield "swap", factors[:i] + [(il.IdealLattice(f, hnf), e)] + factors[i + 1:]


@pytest.mark.parametrize("family", ["small_cubic_fields", "small_quartic_fields"])
def test_certificate_rejects_mutated_factor_lists(family, request, rng):
    kinds = set()
    for f in request.getfixturevalue(family):
        for p in primes_upto(30):
            dec = il.decompose_prime(f, p)
            for kind, factors in _mutations(dec, rng):
                with pytest.raises(AssertionError):
                    il._finish_decomposition(f, p, factors)
                kinds.add(kind)
    assert kinds == {"drop", "exponent", "swap"}


@pytest.mark.parametrize("family", ["small_cubic_fields", "small_quartic_fields"])
def test_certified_decompositions_multiply_back_to_p(family, request):
    # the F_p certificate against the integer HNF product it replaced, and
    # its by-product: every certified factor is an ideal
    for f in request.getfixturevalue(family):
        for p in primes_upto(30):
            for dec in (il.decompose_prime(f, p), il.stable_subspace_primes(f, p)):
                prod = il.unit_ideal(f)
                for P, e in dec.factors:
                    assert P.validate_ideal(), (f.key, p, P.hnf)
                    prod = prod.mul(P.power(e))
                assert prod == il.principal_integer(f, p), (f.key, p)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_span_hnf_matches_integer_hnf(p, rng):
    for n in (3, 4):
        for _ in range(200):
            vecs = [tuple(rng.randrange(-3 * p, 3 * p) if rng.random() < 0.8 else 0
                          for _ in range(n))
                    for _ in range(rng.randrange(7))]
            scaled = [tuple(p * int(r == k) for r in range(n)) for k in range(n)]
            assert il._span_hnf_modp(vecs, n, p) == linalg.hnf_upper(scaled + vecs, n), \
                (p, vecs)


def test_frobenius_from_sigma_orbits(small_cubic_fields, small_quartic_fields):
    # the Frobenius matrix built from the sigma-orbit gens, against raising
    # every integral basis vector to the p-th power by square and multiply
    fields = (small_cubic_fields + small_quartic_fields
              + [CubicField(m) for m in (19, 37, 171)]
              + [QuarticField(*q) for q in ((1, 4, 1, 17), (-1, 3, 2, 13), (1, 404, 1, 163217))])
    assert len(fields) == 20
    for f in fields:
        n = f.n
        for p in primes_upto(97) + [1000003]:
            frob = il._frobenius_modp(f, p)
            for j in range(n):
                power, base, k = (1,) + (0,) * (n - 1), tuple(int(i == j) for i in range(n)), p
                while k:
                    if k & 1:
                        power = tuple(x % p for x in f.imul(power, base))
                    base = tuple(x % p for x in f.imul(base, base))
                    k >>= 1
                assert frob[j] == power, (f.key, p, j)


# -- the semisimple-quotient split: the engine's HNF oracle ---------------------

def _semisimple_quotient(field, p):
    """B = (O/pO)/rad over F_p, with the data the quotient split needs:
    (rad, lift, dim_b, fixed, bmul_matrix, one_b).  rad spans the radical
    in O/pO; lift maps B-coordinates to O/pO; fixed spans the
    Frobenius-fixed elements of B (F_p^g); bmul_matrix(bv) is the matrix
    of multiplication by bv on B; one_b is 1 in B-coordinates."""
    f = field
    n = f.n

    def amul(u, v):
        return tuple(x % p for x in f.imul(u, v))

    frob_cols = il._frobenius_modp(f, p)
    frob = [list(col) for col in zip(*frob_cols)]
    e_pow = 1
    while p ** e_pow < n:
        e_pow += 1
    rad = il._nullspace_modp(il._matpow_modp(frob, e_pow, p), p)
    rad_rref, rad_pivots = il._rref_modp(rad, p)
    free = [c for c in range(n) if c not in rad_pivots]

    def project(u):
        u = [x % p for x in u]
        for row, pc in zip(rad_rref, rad_pivots):
            if u[pc]:
                fi = u[pc]
                u = [(x - fi * y) % p for x, y in zip(u, row)]
        return tuple(u[c] for c in free)

    def lift(bv):
        v = [0] * n
        for c, x in zip(free, bv):
            v[c] = x
        return tuple(v)

    dim_b = len(free)
    b_units = [tuple(int(i == k) for i in range(dim_b)) for k in range(dim_b)]

    def bmul_matrix(bv):
        lifted = lift(bv)
        cols = [project(amul(lifted, lift(e))) for e in b_units]
        return [list(col) for col in zip(*cols)]

    # lift(e_c) is the unit vector at free[c], whose p-th power in O/pO is
    # column free[c] of frob
    frob_b = [list(col) for col in zip(*[project(frob_cols[c]) for c in free])]
    fixed = il._nullspace_modp(
        [[(frob_b[i][j] - int(i == j)) % p for j in range(dim_b)]
         for i in range(dim_b)], p)
    one_b = project(tuple(int(i == 0) for i in range(n)))
    return rad, lift, dim_b, fixed, bmul_matrix, one_b


def _quotient_split_primes(field, p):
    """Primes above p by splitting the semisimple quotient B of O/pO.

    B is a product of g residue fields whose Frobenius-fixed elements form
    F_p^g.  The eigenspaces of multiplication by those fixed elements split
    B into its fields, and the prime for component i is
    pZ^n + lift(the other components) + rad.  It shares the F_p kernels
    with the engine but not its argument: no subfield chain, no characters
    of O_L and no generators pO + (b - lam)O."""
    f = field
    n = f.n
    rad, lift, dim_b, fixed, bmul_matrix, one_b = _semisimple_quotient(f, p)
    g = len(fixed)
    comps = [[tuple(int(i == k) for i in range(dim_b)) for k in range(dim_b)]]
    for fv in fixed:
        if len(comps) == g:
            break
        mfv = bmul_matrix(fv)
        mpoly = il._min_poly_modp(mfv, one_b, p)
        if len(mpoly) < 2:  # fv is a scalar and separates nothing
            continue
        comps = [piece for c in comps
                 for _, piece in il._eigenspaces_modp(mfv, c, roots_mod(mpoly, p), p)]
    assert len(comps) == g and sum(len(c) for c in comps) == dim_b
    res_deg = len(comps[0])
    assert all(len(c) == res_deg for c in comps), "non-Galois splitting pattern"
    factors = []
    for i in range(g):
        others = [lift(v) for j, c in enumerate(comps) if j != i for v in c]
        factors.append(il.IdealLattice(f, il._span_hnf_modp(others + rad, n, p)))
    e_exp = n // (g * res_deg)
    assert e_exp * g * res_deg == n, "incompatible splitting data"
    return il._finish_decomposition(f, p, [(P, e_exp) for P in factors])


@pytest.fixture(scope="module")
def sweep_pairs():
    """Every (field, p) with p <= 97 over quartic:box:5,40 and
    cubic:7..300, the decompose-sweep benchmark's pairs."""
    fields = [QuarticField(*t) for t in quartic_param_box(5, 40)]
    fields += [CubicField(m) for m in enumerate_conductors(300) if m >= 7]
    return [(f, p) for f in fields for p in primes_upto(97)]


def test_engine_matches_quotient_split(sweep_pairs):
    # the one-path engine against the semisimple-quotient split, on every
    # sweep pair, ramified ones included
    ramified = more_primes_than_residues = 0
    for f, p in sweep_pairs:
        dec = il.stable_subspace_primes(f, p)
        ref = _quotient_split_primes(f, p)
        assert dec.factors == ref.factors and dec.shape == ref.shape, (f.key, p)
        assert dec.is_ramified() == (f.disc % p == 0), (f.key, p)
        ramified += dec.is_ramified()
        more_primes_than_residues += len(dec.factors) > p
    assert len(sweep_pairs) == 3300 and ramified == 258
    # no single element separates these primes; the characters do
    assert more_primes_than_residues == 27


@pytest.mark.parametrize("field,p", [("quartic:-3,4,1,17", 2), ("quartic:-1,1,3,10", 3),
                                     ("cubic:31", 2)])
def test_more_primes_than_residues(field, p):
    # g > p: every element of O_L takes at most p values, so no one element
    # tells the primes apart; several basis vectors of O_L together do
    f = parse_field_id(field)
    dec = il.stable_subspace_primes(f, p)
    assert len(dec.factors) > p and f.disc % p and not dec.is_ramified()
    assert dec == _quotient_split_primes(f, p) == il.decompose_prime(f, p)


def test_frobenius_fixes_exactly_the_decomposition_field(small_cubic_fields,
                                                         small_quartic_fields):
    # ker(F - I) = span(e_1, ..., e_g) over F_p, for the Frobenius matrix F
    # and the number g of primes above p, ramified p included
    ramified = 0
    for f in small_cubic_fields + small_quartic_fields:
        n = f.n
        for p in primes_upto(30):
            g = len(il.stable_subspace_primes(f, p).factors)
            frob = il._frobenius_modp(f, p)  # columns
            fixed = il._nullspace_modp([[(frob[j][i] - int(i == j)) % p for j in range(n)]
                                        for i in range(n)], p)
            rref, pivots = il._rref_modp(fixed, p)
            assert pivots == list(range(g)), (f.key, p, g)
            assert rref == [[int(i == k) for i in range(n)] for k in range(g)], (f.key, p)
            ramified += f.disc % p == 0
    assert ramified >= 20


def test_decomposition_invariants_over_corpus():
    params = quartic_param_box(3, 30)
    for (a, b, c, d) in params:
        f = QuarticField(a, b, c, d)
        for p in primes_upto(12):
            dec = il.decompose_prime_quartic(f, p)
            assert dec.is_ramified() == (f.disc % p == 0), (f.key, p)
            total = sum(e * dec.residue_degree(P) for P, e in dec.factors)
            assert total == 4
            for P, _ in dec.factors:
                g = [[0] * 4 for _ in range(4)]
                # det(Gram(P)) = N(P)^2 * disc
                cols = P.columns()
                for i in range(4):
                    for j in range(4):
                        g[i][j] = sum(cols[i][s] * f.gram0[s][t] * cols[j][t]
                                      for s in range(4) for t in range(4))
                assert linalg.det_bareiss(g) == P.norm ** 2 * abs(f.disc)


def test_wild_cubic_prime_has_flat_basis(cubic63):
    # for 9 | m the ramified prime over p | m/9 is spanned by p, alpha and
    # sigma(alpha), and products over several p by their product
    f = cubic63
    P7 = il.decompose_prime_cubic(f, 7).factors[0][0]
    flat = il.from_z_generators(f, [f.from_int(7), f.alpha, f.sigma(f.alpha)])
    assert P7 == flat
    f819 = CubicField(819)
    P7b = il.decompose_prime_cubic(f819, 7).factors[0][0]
    P13 = il.decompose_prime_cubic(f819, 13).factors[0][0]
    flat91 = il.from_z_generators(
        f819, [f819.from_int(91), f819.alpha, f819.sigma(f819.alpha)])
    assert P7b.mul(P13) == flat91


def test_galois_stability(quartic_even, cubic63):
    f = quartic_even
    dec = il.decompose_prime_quartic(f, 41)
    primes = set(dec.primes)
    for P in primes:
        assert P.apply_sigma() in primes
    P5 = il.decompose_prime_quartic(f, 5).factors[0][0]
    assert P5.apply_sigma() == P5
    P3 = il.decompose_prime_cubic(cubic63, 3).factors[0][0]
    assert P3.apply_sigma() == P3


def test_ramified_product_ideal_examples(quartic_imag):
    f = quartic_imag
    O = il.ramified_product_ideal(f, (), ())
    assert O == il.unit_ideal(f)
    P5 = il.ramified_product_ideal(f, (5,), ())
    assert P5.norm == 5
    assert P5 == il.decompose_prime_quartic(f, 5).factors[0][0]
    f3 = QuarticField(3, 2, 1, 5)
    Q3 = il.ramified_product_ideal(f3, (), (3,))
    assert Q3.norm == 9
    assert Q3 == il.decompose_prime_quartic(f3, 3).factors[0][0]
    both = il.ramified_product_ideal(f3, (5,), (3,))
    assert both.norm == 45
    assert both == P5_alt(f3).mul(Q3)


def P5_alt(field):
    return il.decompose_prime_quartic(field, 5).factors[0][0]


def test_ramified_product_rejects_inadmissible():
    # d = 5 = 4^2 mod 11 is a residue, so the prime above 11 is not unique
    f = QuarticField(-11, 2, 1, 5)
    assert is_quadratic_residue(f.d, 11)
    with pytest.raises(ValueError):
        il.ramified_product_ideal(f, (), (11,))


def test_ramified_product_over_corpus():
    for (a, b, c, d) in quartic_param_box(5, 30):
        f = QuarticField(a, b, c, d)
        d_primes = factorize(d).primes
        a_primes = tuple(q for q in factorize(abs(a)).primes
                         if q != 2 and not is_quadratic_residue(d, q))
        for i_size in range(len(d_primes) + 1):
            for i_set in itertools.combinations(d_primes, i_size):
                for j_size in range(len(a_primes) + 1):
                    for j_set in itertools.combinations(a_primes, j_size):
                        L = il.ramified_product_ideal(f, i_set, j_set)
                        p_i = 1
                        for p in i_set:
                            p_i *= p
                        q_j = 1
                        for q in j_set:
                            q_j *= q
                        assert L.norm == p_i * q_j * q_j
                        assert L.validate_ideal()


def test_split_pair_examples():
    f = QuarticField(-11, 2, 1, 5)
    q1, q2 = il.split_pair_above(f, 11)
    assert q1 != q2
    assert q1.norm == q2.norm == 11
    assert q1.validate_ideal() and q2.validate_ideal()
    assert q1.power(2).mul(q2.power(2)) == il.principal_integer(f, 11)
    # the pair product has norm q^2 and lies in both primes
    prod = q1.mul(q2)
    assert prod.norm == 121
    for col in prod.columns():
        assert q1.contains_coords(list(col)) and q2.contains_coords(list(col))
    # sigma permutes the fiber above 11
    assert {q1.apply_sigma(), q2.apply_sigma()} == {q1, q2}


def test_split_pair_rejects_nonresidue():
    f = QuarticField(3, 2, 1, 5)
    with pytest.raises(ValueError):
        il.split_pair_above(f, 3)


def test_enumerate_primitive_ideals(cubic7, quartic_even):
    assert il.enumerate_primitive_ideals(cubic7, 1) == [il.unit_ideal(cubic7)]
    ideals = il.enumerate_primitive_ideals(cubic7, 7)
    assert len(ideals) == 2
    assert ideals[1].norm == 7
    ideals = il.enumerate_primitive_ideals(quartic_even, 25)
    norms = [L.norm for L in ideals]
    assert norms == sorted(norms)
    for want in (1, 4, 5, 20, 25):
        assert want in norms
    for L in ideals:
        assert L.is_primitive()
        assert L.validate_ideal()
    # no duplicates
    assert len({L.hnf for L in ideals}) == len(ideals)


def test_enumerate_rejects_bad_bound(cubic7):
    with pytest.raises(ValueError):
        il.enumerate_primitive_ideals(cubic7, 0)


@pytest.mark.parametrize("field", [CubicField(91), QuarticField(1, 2, 1, 5),
                                   QuarticField(-1, 2, 1, 5), QuarticField(1, 1, 1, 2)],
                         ids=lambda f: f.key)
def test_sigma_orbits_share_wr_report(field):
    # sigma is an isometry of every ideal lattice (for a < 0 the form uses
    # tau = sigma^2, which commutes with sigma), so every member of an orbit
    # must report what its head reports
    ideals = il.enumerate_primitive_ideals(field, 600)
    orbits = il.sigma_orbits(ideals)
    members = [ideal for orbit in orbits for ideal in orbit]
    assert sorted(members, key=lambda L: (L.norm, L.hnf)) == ideals
    assert [orbit[0] for orbit in orbits] == sorted(
        (orbit[0] for orbit in orbits), key=lambda L: (L.norm, L.hnf))
    assert any(len(orbit) == field.n for orbit in orbits)

    def summary(rep):
        return (rep.minimum, rep.count, rep.rank, rep.is_wr, rep.is_strongly_wr,
                rep.is_orthogonal_minimal_basis)

    for orbit in orbits:
        assert field.n % len(orbit) == 0
        assert orbit[0] == min(orbit, key=lambda L: (L.norm, L.hnf))
        for k, ideal in enumerate(orbit):
            assert ideal.apply_sigma() == orbit[(k + 1) % len(orbit)]
        head = summary(wr_report(orbit[0]))
        for ideal in orbit[1:]:
            assert summary(wr_report(ideal)) == head, (field.key, ideal.hnf)

    orbit = next(orbit for orbit in orbits if len(orbit) == field.n)
    for victim in orbit:
        rest = [ideal for ideal in ideals if ideal != victim]
        with pytest.raises(ValueError, match=re.escape(str(victim.hnf))) as err:
            il.sigma_orbits(rest)
        assert field.key in str(err.value) and str(victim.norm) in str(err.value)


def test_sigma_orbits_rejects_orbit_length_not_dividing_degree(quartic_even, monkeypatch):
    # a 3-cycle cannot be a sigma-orbit in a quartic field
    ideals = il.enumerate_primitive_ideals(quartic_even, 30)[:3]
    cycle = {a.hnf: b for a, b in zip(ideals, ideals[1:] + ideals[:1])}
    monkeypatch.setattr(il.IdealLattice, "apply_sigma", lambda self: cycle[self.hnf])
    with pytest.raises(ValueError, match=re.escape(str(ideals[0].hnf))) as err:
        il.sigma_orbits(ideals)
    assert quartic_even.key in str(err.value) and "divisor of 4" in str(err.value)

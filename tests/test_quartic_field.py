from fractions import Fraction

import pytest

from wrlat import linalg
from wrlat.quartic_field import QuarticField
from conftest import quartic_param_box


def test_construction_examples(quartic_even, quartic_imag):
    assert quartic_even.df == (5, 0, -10, 0)  # x^4 - 10x^2 + 5
    assert quartic_even.disc == 2000
    assert quartic_even.basis_case == "III"
    assert quartic_even.index == 16
    assert quartic_imag.disc == 125
    assert quartic_imag.basis_case == "IV"
    assert quartic_imag.totally_real is False


def test_each_constraint_rejected_individually():
    with pytest.raises(ValueError, match="odd"):
        QuarticField(2, 2, 1, 5)
    with pytest.raises(ValueError, match="a = 9 is not squarefree"):
        QuarticField(9, 2, 1, 5)
    with pytest.raises(ValueError, match="positive"):
        QuarticField(1, 0, 1, 1)
    with pytest.raises(ValueError, match="b\\^2 \\+ c\\^2"):
        QuarticField(1, 2, 1, 6)
    with pytest.raises(ValueError, match="d = 8 is not squarefree"):
        QuarticField(1, 2, 2, 8)
    with pytest.raises(ValueError, match="gcd"):
        QuarticField(5, 2, 1, 5)


def test_multiplication_table(quartic_even):
    f = quartic_even
    b, c, a, d = f.b, f.c, f.a, f.d
    assert f.mul(f.beta, f.sqrt_d) == f._vec(0, 0, -b, c)
    assert f.mul(f.beta, f.beta) == f._vec(a * d, -a * b, 0, 0)
    assert f.mul(f.beta, f.sigma_beta) == f._vec(0, a * c, 0, 0)
    assert f.mul(f.sigma_beta, f.sqrt_d) == f._vec(0, 0, c, b)


def test_multiplication_is_associative_on_basis(small_quartic_fields):
    for f in small_quartic_fields:
        basis = [f.one, f.sqrt_d, f.beta, f.sigma_beta]
        for x in basis:
            for y in basis:
                for z in basis:
                    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))


def test_sigma_action(quartic_even):
    f = quartic_even
    assert f.sigma(f.sqrt_d) == f.neg(f.sqrt_d)
    assert f.sigma(f.sigma(f.beta)) == f.neg(f.beta)
    assert f.trace(f.beta) == 0
    assert f.trace(f.sqrt_d) == 0
    e = f._vec(1, 2, 3, 4)
    assert f.sigma(f.sigma(f.sigma(f.sigma(e)))) == e


def test_sigma_is_multiplicative(small_quartic_fields):
    for f in small_quartic_fields:
        basis = [f.one, f.sqrt_d, f.beta, f.sigma_beta]
        for x in basis:
            for y in basis:
                assert f.sigma(f.mul(x, y)) == f.mul(f.sigma(x), f.sigma(y))


def test_norms(quartic_even, quartic_imag):
    for f in (quartic_even, quartic_imag):
        a, b, c, d = f.a, f.b, f.c, f.d
        assert f.norm(f.sqrt_d) == d * d
        assert f.norm(f.beta) == a * a * c * c * d
        half_sum = f.scale(f.add(f.beta, f.sigma_beta), Fraction(1, 2))
        assert f.norm(half_sum) == Fraction(a * a * b * b * d, 4)


def test_defining_polynomial_kills_beta(small_quartic_fields):
    for f in small_quartic_fields:
        assert f.eval_df(f.beta) == f._vec(0, 0, 0, 0)
        assert f.eval_df(f.sigma_beta) == f._vec(0, 0, 0, 0)


def test_length_examples(quartic_even, quartic_imag):
    assert quartic_even.length_sq(quartic_even.beta) == 20
    assert quartic_imag.length_sq(quartic_imag.beta) == 20
    assert quartic_even.length_sq(quartic_even.one) == 4
    g2 = quartic_even.scale(quartic_even.add(quartic_even.one, quartic_even.sqrt_d),
                            Fraction(1, 2))
    assert quartic_even.length_sq(g2) == 6


def test_length_equals_trace_form_both_signatures(rng, quartic_even, quartic_imag):
    for f in (quartic_even, quartic_imag):
        for _ in range(500):
            coords = tuple(rng.randint(-5, 5) for _ in range(4))
            e = f.from_integral(coords)
            tau_e = e if f.totally_real else f.sigma(f.sigma(e))
            assert f.length_sq(e) == f.trace(f.mul(e, tau_e))
            s = f.sigma(e)
            assert f.length_sq(s) == f.length_sq(e)
            assert f.norm(s) == f.norm(e)
            assert f.trace(s) == f.trace(e)


def test_integral_basis_cases():
    # case I: d even keeps sqrt(d) itself
    f1 = QuarticField(1, 1, 1, 2)
    assert f1.basis_case == "I"
    assert f1.integral_basis == (f1.one, f1.sqrt_d, f1.sigma_beta, f1.beta)
    # case III example
    f3 = QuarticField(1, 2, 1, 5)
    got = f3.integral_basis
    assert got[1] == f3._vec(Fraction(1, 2), Fraction(1, 2), 0, 0)
    assert got[2] == f3._vec(0, 0, Fraction(1, 2), Fraction(1, 2))
    assert got[3] == f3._vec(0, 0, Fraction(-1, 2), Fraction(1, 2))


def test_gram_determinant_equals_discriminant_over_box():
    for params in quartic_param_box(5, 41):
        f = QuarticField(*params)
        g = f.gram_form(f.integral_basis)
        assert linalg.det([list(r) for r in g.matrix]) == f.disc


def test_index_squared_identity():
    for params in quartic_param_box(5, 41):
        a, b, c, d = params
        f = QuarticField(*params)
        assert f.index ** 2 * f.disc == 256 * a ** 6 * b ** 4 * c * c * d ** 3


def test_param_box_odd_filter_matches_discriminant_parity():
    box = quartic_param_box(5, 40)
    odd = quartic_param_box(5, 40, odd_disc_only=True)
    assert odd == [t for t in box if QuarticField(*t).disc % 2 == 1]
    assert 0 < len(odd) < len(box)


def test_orbit_rank_criterion(rng, quartic_even, quartic_imag):
    # rank of {delta, s(delta), s^2(delta), s^3(delta)} decomposes into a
    # 2x2 block on (1, sqrt(d)) and a rotation block on (beta, s(beta)):
    # full rank iff s1 != 0, s2 != 0 and (s3, s4) != (0, 0).  Nonzero trace
    # alone does not suffice: -1 + 2*beta has trace -4 but rank 3.
    for f in (quartic_even, quartic_imag):
        seen_full = seen_degenerate = 0
        for _ in range(300):
            coords = tuple(rng.randint(-3, 3) for _ in range(4))
            e = f.from_integral(coords)
            orbit = f.conjugates(e)
            rank = linalg.rank_int([list(f.to_integral_exact(v)) for v in orbit])
            expect_full = (e[0] != 0 and e[1] != 0 and (e[2], e[3]) != (0, 0))
            assert (rank == 4) == expect_full
            if rank < 4:
                # trace zero still forces a degenerate orbit
                assert f.trace(e) == 0 or e[1] == 0 or (e[2], e[3]) == (0, 0)
                seen_degenerate += 1
            else:
                assert f.trace(e) != 0
                seen_full += 1
        assert seen_full > 0
        assert seen_degenerate > 0
        witness = f.add(f.neg(f.one), f.scale(f.beta, 2))
        assert f.trace(witness) == -4
        worbit = f.conjugates(witness)
        assert linalg.rank_int([list(f.to_integral_exact(v)) for v in worbit]) == 3


def test_gram_form_rejects_dependent_basis(quartic_even):
    f = quartic_even
    with pytest.raises(ValueError):
        f.gram_form([f.one, f.sqrt_d, f.beta, f.add(f.one, f.beta)])

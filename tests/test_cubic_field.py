from fractions import Fraction

import pytest

from wrlat import linalg
from wrlat.cubic_field import CubicField
from wrlat.numtheory import enumerate_conductors


def coordinate_length_3notdiv(field, z1, z2, z3):
    # independent route: m(z1^2+z2^2+z3^2) + (1-m)(z1+z2+z3)^2/3 over the
    # conjugate basis {alpha, s(alpha), s^2(alpha)}
    m = field.m
    return Fraction(3 * m * (z1 * z1 + z2 * z2 + z3 * z3)
                    + (1 - m) * (z1 + z2 + z3) ** 2, 3)


def coordinate_length_9div(field, m1, m2, m3):
    # independent route over {1, alpha, s(alpha)}
    m = field.m
    return Fraction(9 * m1 * m1 + 2 * m * (m2 * m2 + m3 * m3 - m2 * m3), 3)


def test_defining_polynomials():
    f7 = CubicField(7)
    assert f7.df == (1, -2, -1)  # x^3 - x^2 - 2x + 1
    f9 = CubicField(9)
    assert f9.df == (1, -3, 0)  # x^3 - 3x + 1
    assert f7.disc == 49 and f9.disc == 81


def test_invalid_conductor_message():
    with pytest.raises(ValueError, match="not congruent to 1 mod 3"):
        CubicField(12)


def test_polynomial_discriminant_is_square(cubic91):
    # disc(df) = (m*b/3)^2 for a cyclic cubic
    c0, c1, c2 = cubic91.df
    disc = (c2 * c2 * c1 * c1 - 4 * c1 ** 3 - 4 * c2 ** 3 * c0
            - 27 * c0 * c0 + 18 * c2 * c1 * c0)
    expected = (cubic91.m * cubic91.b // 3) ** 2
    assert disc == expected


def test_sigma_is_an_order_three_symmetry(cubic7, cubic9, cubic91):
    for f in (cubic7, cubic9, cubic91):
        a = f.alpha
        s = f.sigma(a)
        assert s != a
        assert f.eval_df(s) == (0, 0, 0)
        assert f.sigma(f.sigma(s)) == a
        assert f.sigma(f.one) == f.one
        # orbit sum equals minus the x^2 coefficient
        total = f.add(a, f.add(s, f.sigma(s)))
        assert total == f.from_int(-f.df[2])


def test_m7_sigma_polynomial(cubic7):
    # sigma(alpha) = alpha^2 - alpha - 1 for the pinned generator choice
    assert cubic7.sigma_poly == (Fraction(-1), Fraction(-1), Fraction(1))


def test_traces(cubic7, cubic9, cubic63):
    for f in (cubic7,):
        m = f.m
        assert f.trace(f.one) == 3
        assert f.trace(f.alpha) == 1
        assert f.trace(f.mul(f.alpha, f.alpha)) == Fraction(2 * m + 1, 3)
        assert f.trace(f.mul(f.alpha, f.sigma(f.alpha))) == Fraction(1 - m, 3)
    for f in (cubic9, cubic63):
        assert f.trace(f.alpha) == 0
        assert f.trace(f.mul(f.alpha, f.alpha)) == Fraction(2 * f.m, 3)


def test_norm_of_one_and_units(cubic7):
    assert cubic7.norm(cubic7.one) == 1
    assert cubic7.trace(cubic7.one) == 3


def test_length_examples(cubic7, cubic9):
    assert cubic7.length_sq(cubic7.one) == 3
    assert cubic7.length_sq(cubic7.alpha) == Fraction(2 * 7 + 1, 3)
    assert cubic9.length_sq(cubic9.alpha) == 6
    assert cubic9.length_sq(cubic9.sub(cubic9.alpha, cubic9.one)) == 9


def test_length_against_coordinate_formula(rng, cubic7, cubic91, cubic9, cubic63):
    for f in (cubic7, cubic91):
        conj = f.conjugates(f.alpha)
        for _ in range(500):
            z = [rng.randint(-6, 6) for _ in range(3)]
            e = f.from_int(0)
            for zi, c in zip(z, conj):
                e = f.add(e, f.scale(c, zi))
            assert f.length_sq(e) == coordinate_length_3notdiv(f, *z)
            assert f.length_sq(e) == f.trace(f.mul(e, e))
    for f in (cubic9, cubic63):
        basis = (f.one, f.alpha, f.sigma(f.alpha))
        for _ in range(500):
            z = [rng.randint(-6, 6) for _ in range(3)]
            e = f.from_int(0)
            for zi, c in zip(z, basis):
                e = f.add(e, f.scale(c, zi))
            assert f.length_sq(e) == coordinate_length_9div(f, *z)


def test_trace_zero_iff_orbit_dependent(rng, cubic7, cubic63):
    for f in (cubic7, cubic63):
        checked_zero = checked_nonzero = 0
        for _ in range(300):
            coords = tuple(rng.randint(-4, 4) for _ in range(3))
            e = f.from_integral(coords)
            if e[1] == 0 and e[2] == 0:
                continue  # rational
            orbit = f.conjugates(e)
            rank = linalg.rank_int([list(f.to_integral_exact(v)) for v in orbit])
            if f.trace(e) != 0:
                assert rank == 3
                checked_nonzero += 1
            else:
                assert rank < 3
                checked_zero += 1
        assert checked_nonzero > 0
        # force a trace-zero sample
        e = f.sub(f.alpha, f.sigma(f.alpha))
        orbit = f.conjugates(e)
        assert linalg.rank_int([list(f.to_integral_exact(v)) for v in orbit]) < 3


def test_sigma_preserves_invariants(rng, cubic7, cubic63):
    for f in (cubic7, cubic63):
        for _ in range(100):
            coords = tuple(rng.randint(-4, 4) for _ in range(3))
            e = f.from_integral(coords)
            s = f.sigma(e)
            assert f.length_sq(s) == f.length_sq(e)
            assert f.norm(s) == f.norm(e)
            assert f.trace(s) == f.trace(e)


def test_gram_of_integral_basis_has_discriminant_determinant():
    for m in enumerate_conductors(150):
        f = CubicField(m)
        g = f.gram_form(f.integral_basis)
        assert linalg.det([list(r) for r in g.matrix]) == m * m


def test_gram_form_of_orthogonal_orbit(cubic7):
    f = cubic7
    rho = f.sub(f.alpha, f.sigma(f.alpha))
    kappa = f.sub(f.from_int(7), f.mul(rho, rho))
    orbit = f.conjugates(kappa)
    g = f.gram_form(orbit)
    assert [list(r) for r in g.matrix] == [[49, 0, 0], [0, 49, 0], [0, 0, 49]]


def test_gram_form_permutation_symmetry(cubic7):
    f = cubic7
    basis = [f.one, f.alpha, f.sigma(f.alpha)]
    g = f.gram_form(basis).matrix
    perm = [basis[1], basis[2], basis[0]]
    g2 = f.gram_form(perm).matrix
    order = [1, 2, 0]
    for i in range(3):
        for j in range(3):
            assert g2[i][j] == g[order[i]][order[j]]


def test_gram_form_rejects_dependent_basis(cubic7):
    f = cubic7
    with pytest.raises(ValueError):
        f.gram_form([f.one, f.alpha, f.add(f.one, f.alpha)])


def test_nine_divides_case_norm_form_coefficients():
    # A^2 - A*B + B^2 = m/9 where alpha^2 = 2m/9 + A*alpha + B*sigma(alpha)
    from wrlat.wr_certify import cubic_ab_coefficients
    for m in (9, 63, 117, 171):
        f = CubicField(m)
        a_coef, b_coef = cubic_ab_coefficients(f)
        assert a_coef ** 2 - a_coef * b_coef + b_coef ** 2 == m // 9


def test_integrality_change_of_basis(cubic7):
    f = cubic7
    assert f.is_integral(f.alpha)
    assert f.is_integral(f.sigma(f.alpha))
    assert not f.is_integral(f.scale(f.alpha, Fraction(1, 2)))
    assert f.to_integral_exact(f.one) == (1, 0, 0)

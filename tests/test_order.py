"""Contract of the integral-order core that both field families share: the
integer tables agree with the element arithmetic they were built from."""

from fractions import Fraction

import pytest

from wrlat import linalg
from wrlat.linalg import det_bareiss


def _random_coords(rng, n):
    # about a third of the coordinates zero, as in HNF columns
    return tuple(rng.randint(-20, 20) if rng.random() < 0.7 else 0 for _ in range(n))


@pytest.mark.parametrize("family", ["small_cubic_fields", "small_quartic_fields"])
def test_integral_tables_match_element_arithmetic(family, request, rng):
    for f in request.getfixturevalue(family):
        n = f.n
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        basis = f.integral_basis
        assert basis[0] == f.one
        for i in range(n):
            for j in range(n):
                assert f.gram0[i][j] == f.bilinear(basis[i], basis[j])
        for _ in range(30):
            u, v = _random_coords(rng, n), _random_coords(rng, n)
            x, y = f.from_integral(u), f.from_integral(v)
            assert f.to_integral_exact(x) == u
            assert f.imul(u, v) == f.to_integral_exact(f.mul(x, y))
            assert f.isigma(u) == f.to_integral_exact(f.sigma(x))
            # the norm as a product of conjugates against det of multiplication by u
            assert f.norm(x) == det_bareiss([f.imul(u, e) for e in units])


@pytest.mark.parametrize("family", ["small_cubic_fields", "small_quartic_fields"])
def test_to_integral_matches_inverse_basis_matrix(family, request, rng):
    for f in request.getfixturevalue(family):
        n = f.n
        inverse = linalg.invert_fraction([[e[i] for e in f.integral_basis] for i in range(n)])
        for _ in range(60):
            x = tuple(Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 8, 9, 12)))
                      for _ in range(n))
            want = tuple(linalg.mat_vec(inverse, list(x)))
            got = f.to_integral(x)
            assert got == want and all(type(c) is Fraction for c in got)
            integral = all(c.denominator == 1 for c in want)
            assert f.is_integral(x) == integral
            if integral:
                exact = f.to_integral_exact(x)
                assert exact == want and all(type(c) is int for c in exact)
            else:
                with pytest.raises(ValueError):
                    f.to_integral_exact(x)
        # an element with a denominator the integral basis does not have
        with pytest.raises(ValueError):
            f.to_integral_exact(f.scale(f.one, Fraction(1, 3)))


@pytest.mark.parametrize("family", ["small_cubic_fields", "small_quartic_fields"])
def test_sigma_orbit_basis_is_a_basis_of_orbit_members(family, request):
    for f in request.getfixturevalue(family):
        n = f.n
        gens, members, inverse = f.sigma_orbit_basis
        assert len(members) == n and 0 < len(gens) < n
        cols = []
        for j, k in members:
            assert j in gens or (j, k) == (0, 0)
            v = tuple(int(i == j) for i in range(n))
            for _ in range(k):
                v = f.isigma(v)
            assert f.sigma_powers[k][j] == v
            cols.append(v)
        basis = [list(row) for row in zip(*cols)]
        assert linalg.mat_mul(basis, [list(row) for row in inverse]) == linalg.identity(n)
        assert f.sigma_orbit_basis is f.sigma_orbit_basis  # computed once
        assert f.sigma_powers is f.sigma_powers

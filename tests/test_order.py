"""Contract of the integral-order core that both field families share: the
integer tables agree with the element arithmetic they were built from."""

import pytest

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

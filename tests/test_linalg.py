import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from wrlat import linalg


def random_unimodular(rng, n):
    u = linalg.identity(n)
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        for r in range(n):
            u[r][i] += f * u[r][j]
    return u


def test_det_bareiss_matches_fraction():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice((2, 3, 4))
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert linalg.det_bareiss(m) == linalg.det_fraction(m)


def test_solve_upper_int():
    h = [[2, 1, 0], [0, 3, 1], [0, 0, 4]]
    # v = 1*col0 + 2*col1 + 3*col2
    v = [2 + 2 * 1 + 0, 2 * 3 + 3 * 1, 3 * 4]
    assert linalg.solve_upper_int(h, v) == [1, 2, 3]
    assert linalg.solve_upper_int(h, [1, 0, 0]) is None


def test_hnf_canonical_shape():
    cols = [(4, 0, 0), (1, 2, 0), (3, 1, 5)]
    h = linalg.hnf_upper(cols, 3)
    for i in range(3):
        assert h[i][i] > 0
        for j in range(3):
            if j < i:
                assert h[i][j] == 0
            elif j > i:
                assert 0 <= h[i][j] < h[i][i]


@settings(max_examples=80, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_hnf_invariant_under_unimodular_change(seed):
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    while True:
        cols = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if linalg.det_bareiss(cols) != 0:
            break
    h1 = linalg.hnf_upper(cols, n)
    u = random_unimodular(rng, n)
    mixed = linalg.mat_mul([list(r) for r in zip(*cols)], u)  # columns transformed
    cols2 = [[mixed[i][j] for i in range(n)] for j in range(n)]
    h2 = linalg.hnf_upper(cols2, n)
    assert h1 == h2
    det = 1
    for i in range(n):
        det *= h1[i][i]
    assert det == abs(linalg.det_bareiss([list(r) for r in zip(*cols)]))


def test_rank_int():
    assert linalg.rank_int([[1, 2], [2, 4]]) == 1
    assert linalg.rank_int([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2
    assert linalg.rank_int([]) == 0


def test_invert_fraction_roundtrip():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    inv = linalg.invert_fraction(m)
    prod = linalg.mat_mul(m, inv)
    assert prod == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def test_positive_definite_check():
    assert linalg.is_positive_definite([[2, 1], [1, 2]])
    assert not linalg.is_positive_definite([[1, 2], [2, 1]])
    assert not linalg.is_positive_definite([[1, 2], [3, 1]])


def _leading_minors_positive(g):
    n = len(g)
    return all(linalg.det_fraction([row[:k] for row in g[:k]]) > 0 for k in range(1, n + 1))


def test_positive_definite_matches_leading_minors():
    rng = random.Random(11)
    kinds = {"pd": 0, "singular": 0, "indefinite": 0}
    for trial in range(2000):
        n = rng.randint(1, 4)
        rational = trial % 2 == 1

        def entry():
            x = rng.randint(-5, 5)
            return Fraction(x, rng.randint(1, 6)) if rational else x

        if trial % 5 == 0:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    g[i][j] = g[j][i] = entry()
        else:
            # Gram matrix of k vectors: singular when k < n or they are dependent
            vecs = [[entry() for _ in range(n)] for _ in range(rng.randint(max(1, n - 1), n + 1))]
            g = [[sum(v[i] * v[j] for v in vecs) for j in range(n)] for i in range(n)]
            if trial % 5 == 1:
                i = rng.randrange(n)
                g[i][i] -= rng.randint(0, 3)
        got = linalg.is_positive_definite(g)
        assert got == _leading_minors_positive(g), g
        minors = [linalg.det_fraction([row[:k] for row in g[:k]]) for k in range(1, n + 1)]
        if got:
            kinds["pd"] += 1
        elif 0 in minors and all(m >= 0 for m in minors):
            kinds["singular"] += 1
        else:
            kinds["indefinite"] += 1
    assert min(kinds.values()) >= 200, kinds

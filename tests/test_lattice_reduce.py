from fractions import Fraction

import pytest

from wrlat import ideal_lattice as il
from wrlat import lattice_reduce as lr
from wrlat import linalg


def pd_gram(rng, n, entry_cap=3):
    while True:
        a = [[rng.randint(-entry_cap, entry_cap) for _ in range(n)] for _ in range(n)]
        if linalg.det_bareiss(a) != 0:
            return [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]


def boxable(g):
    bound = min(g[i][i] for i in range(len(g)))
    ginv = linalg.invert_fraction(g)
    vol = 1
    for i in range(len(g)):
        vol *= 2 * lr._floor_sqrt(Fraction(bound) * ginv[i][i]) + 1
    return vol <= 30000


def test_identity_3x3():
    s = lr.shortest_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert s.minimum == 1
    assert s.vectors == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert s.count == 6


def test_diagonal_naive():
    s = lr.naive_shortest([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert s.minimum == 2
    assert s.vectors == ((1, 0, 0),)


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        lr.shortest_vectors([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        lr.GramForm(((0, 0), (0, 1)))
    # the integral LLL is the only check: singular, negative, non-symmetric,
    # ragged, and indefinite with a positive diagonal
    for g in ([[1, 1], [1, 1]], [[-1]], [[2, 1], [0, 2]], [[2, 1], [1]],
              [[2, 1, 0], [1, 2], [0, 0, 2]], [[1, 0, 2], [0, 1, 0], [2, 0, 1]]):
        with pytest.raises(ValueError):
            lr.shortest_vectors(g)


def test_gram_form_accepts_rationals():
    g = lr.GramForm(((Fraction(3), Fraction(1, 2)), (Fraction(1, 2), Fraction(2))))
    assert g.n == 2


def test_agreement_with_naive(rng):
    for n in (3, 4):
        done = 0
        while done < 25:
            g = pd_gram(rng, n)
            if not boxable(g):
                continue
            s1 = lr.shortest_vectors(g)
            s2 = lr.naive_shortest(g)
            assert s1.minimum == s2.minimum
            assert s1.vectors == s2.vectors
            done += 1


def rational_pd_gram(rng, n):
    while True:
        den = rng.randint(2, 6)
        g = [[Fraction(x, den) for x in row] for row in pd_gram(rng, n)]
        for i in range(n):
            for j in range(i):
                g[i][j] = g[j][i] = g[i][j] + Fraction(rng.randint(-2, 2), 2 * den)
        if linalg.is_positive_definite(g) and boxable(g):
            return g


def test_agreement_with_naive_small_and_rational(rng):
    examples = [
        ([[3, Fraction(1, 2)], [Fraction(1, 2), 2]], 2, ((0, 1),)),
        ([[Fraction(3, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(5, 4)]],
         Fraction(5, 4), ((0, 1),)),
        ([[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
         Fraction(2, 3), ((0, 1), (1, -1), (1, 0))),
        # floats convert exactly: no entry is truncated
        ([[0.1]], Fraction(0.1), ((1,),)),
        ([[0.75, 0.375], [0.375, 0.75]], Fraction(3, 4), ((0, 1), (1, -1), (1, 0))),
    ]
    cases = [g for g, _, _ in examples]
    for n in (1, 2):
        cases += [g for g in (pd_gram(rng, n) for _ in range(40)) if boxable(g)]
    for n in (1, 2, 3, 4):
        cases += [rational_pd_gram(rng, n) for _ in range(10)]
    for g in cases:
        s1 = lr.shortest_vectors(g)
        s2 = lr.naive_shortest(g)
        assert s1.minimum == s2.minimum
        assert s1.vectors == s2.vectors
        for v in s1.vectors:
            assert sum(g[i][j] * v[i] * v[j] for i in range(len(g))
                       for j in range(len(g))) == s1.minimum
    for g, minimum, vectors in examples:
        s = lr.shortest_vectors(g)
        assert s.minimum == minimum and s.vectors == vectors
    assert type(lr.shortest_vectors([[Fraction(4, 2)]]).minimum) is int


def assert_lll_invariants(g):
    n = len(g)
    gred, u, d, lam = lr.lll_reduce_gram(g)
    ut = [list(r) for r in zip(*u)]
    assert [list(r) for r in gred] == linalg.mat_mul(ut, linalg.mat_mul(g, u))
    assert abs(linalg.det_bareiss(u)) == 1
    for i in range(n + 1):
        assert d[i] == linalg.det_bareiss([row[:i] for row in gred[:i]]) > 0
    for k in range(n):
        for j in range(k):
            # lam[k][j] = d[j+1] * mu_kj is the minor on rows 0..j-1, k
            rows = list(range(j)) + [k]
            assert lam[k][j] == linalg.det_bareiss([gred[r][:j + 1] for r in rows])
            assert 2 * abs(lam[k][j]) <= d[j + 1]
        if k:
            # Lovasz with delta = 3/4
            assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2


def test_lll_invariants(rng, cubic7, cubic63, cubic91, quartic_even, quartic_imag):
    for _ in range(60):
        assert_lll_invariants(pd_gram(rng, rng.randint(1, 4), entry_cap=6))
    primes = [P for f, p in ((cubic7, 7), (cubic7, 13), (cubic63, 19), (cubic91, 43))
              for P, _ in il.decompose_prime_cubic(f, p).factors]
    primes += [P for f, p in ((quartic_even, 5), (quartic_even, 29), (quartic_imag, 11),
                              (quartic_imag, 2))
               for P, _ in il.decompose_prime_quartic(f, p).factors]
    assert len(primes) >= 12
    for P in primes:
        assert_lll_invariants(lr._integral(lr.gram_of_ideal(P))[0])


def test_minimum_invariant_under_unimodular_change(rng):
    for _ in range(20):
        n = rng.choice((3, 4))
        g = pd_gram(rng, n)
        u = linalg.identity(n)
        for _ in range(10):
            i, j = rng.sample(range(n), 2)
            f = rng.randint(-2, 2)
            for r in range(n):
                u[r][i] += f * u[r][j]
        ut = [list(r) for r in zip(*u)]
        g2 = linalg.mat_mul(ut, linalg.mat_mul(g, u))
        assert lr.shortest_vectors(g).minimum == lr.shortest_vectors(g2).minimum


def test_cubic_m9_prime_minimum(cubic9):
    P0 = il.decompose_prime_cubic(cubic9, 3).factors[0][0]
    rep = lr.wr_report(P0)
    assert rep.minimum == 9
    assert rep.is_wr and rep.is_strongly_wr and rep.is_orthogonal_minimal_basis
    # the orbit of alpha + 1 attains the minimum
    v = cubic9.to_integral_exact(cubic9.add(cubic9.alpha, cubic9.one))
    x = linalg.solve_upper_int(P0.hnf, list(v))
    g = lr.gram_of_ideal(P0).matrix
    val = sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3))
    assert val == 9


def test_minimum_of_ring_minus_rationals(cubic7, cubic9, cubic63):
    # over the full ring the minimum is 3 = |1|^2; the first minimum outside
    # the rationals is (2m+1)/3 resp. 2m/3, attained at alpha
    for f in (cubic7, cubic9, cubic63):
        O = il.unit_ideal(f)
        sv = lr.shortest_vectors(lr.gram_of_ideal(O))
        assert sv.minimum == 3
        expected = Fraction(2 * f.m + 1, 3) if not f.nine_divides_m \
            else Fraction(2 * f.m, 3)
        alpha_len = f.length_sq(f.alpha)
        assert alpha_len == expected
        best = None
        g = lr.gram_of_ideal(O).matrix
        # scan integral elements with nonzero alpha-part in a small box
        import itertools
        for v in itertools.product(range(-3, 4), repeat=3):
            if v[1] == 0 and v[2] == 0:
                continue
            val = sum(g[i][j] * v[i] * v[j] for i in range(3) for j in range(3))
            best = val if best is None else min(best, val)
        assert best == expected


def test_wr_report_examples(cubic7, cubic91, quartic_imag):
    # norm m^2 ideal of m = 91 is orthogonal WR with minimum m^2
    from wrlat.wr_certify import cubic_orthogonal_ideal
    ideal, orbit = cubic_orthogonal_ideal(cubic91)
    rep = lr.wr_report(ideal)
    assert rep.is_wr and rep.is_orthogonal_minimal_basis
    assert rep.minimum == 91 ** 2
    # P7 in m=7 is not WR: the trace-zero differences win
    P7 = il.decompose_prime_cubic(cubic7, 7).factors[0][0]
    rep7 = lr.wr_report(P7)
    assert not rep7.is_wr and rep7.minimum == 14 and rep7.rank == 2
    # unique prime above 5 in (-1,2,1,5) is WR
    P5 = il.decompose_prime_quartic(quartic_imag, 5).factors[0][0]
    rep5 = lr.wr_report(P5)
    assert rep5.is_wr and rep5.minimum == 10


def test_minimal_vectors_closed_under_sigma(quartic_even):
    # S(L) of a Galois-stable ideal is closed under the isometry sigma
    f = quartic_even
    P5 = il.decompose_prime_quartic(f, 5).factors[0][0]
    rep = lr.wr_report(P5)
    cols = P5.columns()
    vecs = set(rep.vectors)
    for v in rep.vectors:
        coords = [sum(cols[j][i] * v[j] for j in range(4)) for i in range(4)]
        image = f.isigma(coords)
        sol = linalg.solve_upper_int(P5.hnf, list(image))
        assert sol is not None
        assert lr._sign_normalize(tuple(sol)) in vecs


def test_strongly_wr_witness_determinant(cubic91):
    from wrlat.wr_certify import cubic_orthogonal_ideal
    ideal, _ = cubic_orthogonal_ideal(cubic91)
    rep = lr.wr_report(ideal)
    assert rep.is_strongly_wr
    assert abs(linalg.det_bareiss([list(v) for v in rep.witness])) == 1
    # Gram determinant of the witness equals N(A)^2 * disc
    g = lr.gram_of_ideal(ideal).matrix
    w = rep.witness
    wg = [[sum(g[s][t] * w[i][s] * w[j][t] for s in range(3) for t in range(3))
           for j in range(3)] for i in range(3)]
    assert linalg.det_bareiss(wg) == ideal.norm ** 2 * abs(cubic91.disc)


def test_gram_of_ideal_values(cubic63, quartic_even):
    # unit ideal Gram is the integral-basis Gram
    g = lr.gram_of_ideal(il.unit_ideal(cubic63))
    assert g.matrix[0][0] == 3
    g4 = lr.gram_of_ideal(il.unit_ideal(quartic_even))
    assert linalg.det_bareiss([list(r) for r in g4.matrix]) == 2000

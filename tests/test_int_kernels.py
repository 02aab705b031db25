"""Differential tests: the int kernels against the Fraction routines they replace.

`mat_mul`, `MatrixQ.mul_vec`, `VectorQ.dot` and `circ_mul` multiply ints over
the operands' common denominators, and `inertia_exact` runs a fraction-free
symmetric congruence.  All are compared with the Fraction versions kept in
`helpers`, inertia pivot log and all, and inertia also with sympy's
characteristic polynomial where sympy is installed.  Int-backed matrices
(`MatrixQ.from_ints`) are compared with Fraction-backed copies of the same
values, and the int-backed definitional eccentricity matrices with their
Fraction construction.  `mat_mul`'s Kronecker-packed rows are compared with
the plain int loop they replaced (`helpers.ref_int_mat_mul`) on integer
views, so the denominator must agree as well as the value.
"""

import functools
import random
from fractions import Fraction

import pytest

from helpers import (
    rand_fraction,
    ref_circ_mul,
    ref_dot,
    ref_eccentricity_matrix,
    ref_inertia_exact,
    ref_int_mat_mul,
    ref_mat_mul,
    ref_mul_vec,
)
from wheelecc import closedform as cf
from wheelecc.circulant import CirculantQ, circ_mul
from wheelecc.graphs import (
    bfs_distances,
    build_wheel,
    delete_cycle_edge,
    eccentricity_matrix_definitional,
)
from wheelecc.oracle import PIVOT_HYPERBOLIC, PIVOT_ZERO, bareiss_det, inertia_exact, rank_exact
from wheelecc.ratq import (
    MatrixQ, ShapeError, VectorQ, identity, int_entries, int_rows, mat_mul, rat_str,
)

DENOMINATORS = (1, 2, 3, 4, 6, 7, 12)


def _rand_rows(rng, rows, cols, max_den, density=1.0):
    return [
        [rand_fraction(rng, max_den=max_den) if rng.random() < density else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_int_rows_is_exact_scaling():
    m = MatrixQ([[Fraction(1, 2), Fraction(-2, 3)], [0, Fraction(5, 4)]])
    rows, den = int_rows(m)
    assert den == 12
    assert rows == [[6, -8], [0, 15]]
    assert MatrixQ([[Fraction(x, den) for x in row] for row in rows]) == m
    assert int_rows(MatrixQ([[3, -1]])) == ([[3, -1]], 1)


def _backings(m: MatrixQ, k: int) -> list[MatrixQ]:
    """m's values three ways: Fraction-backed, int-backed over the lcm, int-backed over k * lcm."""
    rows, den = int_rows(m)
    return [
        MatrixQ(list(m.iter_rows())),
        MatrixQ.from_ints(rows, den),
        MatrixQ.from_ints([[k * x for x in r] for r in rows], k * den),
    ]


def _fraction_rows(m: MatrixQ) -> list[list[Fraction]]:
    return [list(r) for r in m.iter_rows()]


def test_int_backed_matches_fraction_backed_random():
    rng = random.Random(20261018)
    for _ in range(1200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        max_den = rng.choice(DENOMINATORS)
        density = rng.choice((1.0, 0.5, 0.1))
        a_vals = _rand_rows(rng, rows, cols, max_den, density)
        b_vals = _rand_rows(rng, rows, cols, rng.choice(DENOMINATORS), density)
        a_all = _backings(MatrixQ(a_vals), rng.randint(2, 5))
        b_all = _backings(MatrixQ(b_vals), rng.randint(2, 5))
        i, j = rng.randrange(rows), rng.randrange(cols)
        bumped = [list(r) for r in a_vals]
        bumped[i][j] += Fraction(rng.choice((-1, 1)), rng.choice(DENOMINATORS))
        bumped_all = _backings(MatrixQ(bumped), rng.randint(2, 5))
        c = rand_fraction(rng, max_den=rng.choice(DENOMINATORS))
        ref_t = [list(col) for col in zip(*a_vals)]
        for a in a_all:
            for a2 in a_all:
                assert a == a2 and hash(a) == hash(a2)
            for x in bumped_all:
                assert a != x and x != a
            if rows != cols:
                assert a != MatrixQ(ref_t) and a != a.transpose()
            assert a != MatrixQ(a_vals + [a_vals[0]]) and a != "matrix"
            assert a.as_strings() == [[rat_str(x) for x in r] for r in a_vals]
            assert _fraction_rows(a) == a_vals
            assert _fraction_rows(a.transpose()) == ref_t
            assert _fraction_rows(a.scaled(c)) == [[c * x for x in r] for r in a_vals]
            assert _fraction_rows(-a) == [[-x for x in r] for r in a_vals]
            pairs = [list(zip(r, q)) for r, q in zip(a_vals, b_vals)]
            for b in b_all:
                assert _fraction_rows(a + b) == [[x + y for x, y in r] for r in pairs]
                assert _fraction_rows(a - b) == [[x - y for x, y in r] for r in pairs]


def test_is_symmetric_agrees_across_backings_random():
    rng = random.Random(20261019)
    for t in range(600):
        m = _random_symmetric(rng, t)
        vals = _fraction_rows(m)
        n = len(vals)
        if n > 1 and t % 2:
            i, j = rng.sample(range(n), 2)
            vals[i][j] += Fraction(1, rng.choice(DENOMINATORS))
        want = all(vals[i][j] == vals[j][i] for i in range(n) for j in range(n))
        for a in _backings(MatrixQ(vals), rng.randint(2, 5)):
            assert a.is_symmetric() == want
    assert not MatrixQ.from_ints([[1, 2, 3], [2, 1, 3]]).is_symmetric()


def test_int_rows_returns_fresh_lists():
    for m in (
        MatrixQ.from_ints([[1, 2], [3, 4]], 6),
        MatrixQ([[Fraction(1, 6), Fraction(1, 3)], [Fraction(1, 2), Fraction(2, 3)]]),
    ):
        rows, den = int_rows(m)
        rows[0][0] = 99
        rows.append([0, 0])
        again, den_again = int_rows(m)
        assert again == [[1, 2], [3, 4]] and den_again == den == 6
        assert again is not rows and again[1] is not rows[1]
        assert m == MatrixQ([[Fraction(1, 6), Fraction(1, 3)], [Fraction(1, 2), Fraction(2, 3)]])
        assert mat_mul(m, MatrixQ.from_ints([[6], [0]])) == MatrixQ([[1], [3]])


def test_from_ints_validates_its_input():
    assert MatrixQ.from_ints([[2, -4]], 4) == MatrixQ([[Fraction(1, 2), -1]])
    assert MatrixQ.from_ints(([x, x + 1] for x in range(2))) == MatrixQ([[0, 1], [1, 2]])
    for den in (0, -3, 2.5, True):
        with pytest.raises(ValueError):
            MatrixQ.from_ints([[1]], den)
    for rows in ([], [[]], [[1, 2], [3]]):
        with pytest.raises(ShapeError):
            MatrixQ.from_ints(rows)


@pytest.mark.parametrize("n", range(5, 41))
def test_definitional_ecc_matrices_match_fraction_construction(n):
    wheel = build_wheel(n)
    for g in (wheel, delete_cycle_edge(wheel)):
        e_def = eccentricity_matrix_definitional(bfs_distances(g))
        ref = ref_eccentricity_matrix(g)
        assert e_def == ref and ref == e_def
        assert e_def.as_strings() == ref.as_strings()


def test_mat_mul_matches_fraction_product_random():
    rng = random.Random(20241017)
    for t in range(2400):
        rows, inner, cols = (rng.randint(1, 7) for _ in range(3))
        a = MatrixQ(_rand_rows(rng, rows, inner, rng.choice(DENOMINATORS), rng.choice((1.0, 0.5, 0.1))))
        b = MatrixQ(_rand_rows(rng, inner, cols, rng.choice(DENOMINATORS), rng.choice((1.0, 0.5, 0.1))))
        assert mat_mul(a, b) == ref_mat_mul(a, b)
    with pytest.raises(ShapeError):
        mat_mul(MatrixQ([[1, 2]]), MatrixQ([[1, 2]]))


def _assert_packed_matches_int_loop(a: MatrixQ, b: MatrixQ) -> None:
    assert int_rows(mat_mul(a, b)) == ref_int_mat_mul(a, b)


def _int_matrix(rng, rows, cols, big, den=1, density=1.0):
    return MatrixQ.from_ints(
        [[rng.randint(-big, big) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)],
        den,
    )


# (rows, inner, cols): 1 x 1, 1 x k . k x 1 and k x 1 . 1 x k, and inner dimensions
# larger than the output, as in Lemma 6.9's L E times the certificate's x.
PACKED_SHAPES = [(1, 1, 1), (1, 6, 1), (6, 1, 6), (2, 9, 3), (1, 11, 2), (4, 4, 4), (3, 7, 5)]
# Entry sizes: small, near 10^6, and above 2^64.
PACKED_BIG = [1, 3, 10**6, 2**64 + 13, 2**80]


@pytest.mark.parametrize("shape", PACKED_SHAPES)
def test_packed_mat_mul_matches_int_loop_random(shape):
    rows, inner, cols = shape
    rng = random.Random(str(shape))
    for big in PACKED_BIG:
        for _ in range(6):
            a = _int_matrix(rng, rows, inner, big, rng.choice((1, 2, 7)), rng.choice((1.0, 0.4)))
            b = _int_matrix(rng, inner, cols, big, rng.choice((1, 3, 12)), rng.choice((1.0, 0.4)))
            _assert_packed_matches_int_loop(a, b)


@pytest.mark.parametrize("shape", PACKED_SHAPES)
def test_packed_mat_mul_fills_each_slot_to_its_bound(shape):
    """Every entry of a and b at +-max, so every product entry is +-cols * max|a| * max|b|."""
    rows, inner, cols = shape
    for big_a, big_b in ((1, 1), (10**6, 10**6 - 1), (2**64 + 1, 3), (2**65, 2**65)):
        for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            a = MatrixQ.from_ints([[sa * big_a] * inner for _ in range(rows)])
            b = MatrixQ.from_ints([[sb * big_b] * cols for _ in range(inner)])
            _assert_packed_matches_int_loop(a, b)
            mixed = MatrixQ.from_ints([[big_b if (i + j) % 2 else -big_b for j in range(cols)]
                                       for i in range(inner)])
            _assert_packed_matches_int_loop(a, mixed)


def test_packed_mat_mul_zero_operands_rows_and_columns():
    rng = random.Random(20261021)
    a = _int_matrix(rng, 4, 5, 10**6)
    b = _int_matrix(rng, 5, 3, 10**6, den=6)
    zero_row = MatrixQ.from_ints([r if i != 2 else [0] * 5 for i, r in enumerate(int_rows(a)[0])], 5)
    zero_col = MatrixQ.from_ints([[0 if j == 1 else x for j, x in enumerate(r)] for r in int_rows(b)[0]])
    for left, right in (
        (MatrixQ.from_ints([[0] * 5] * 4), b),
        (a, MatrixQ.from_ints([[0] * 3] * 5, 4)),
        (MatrixQ.from_ints([[0]]), MatrixQ.from_ints([[0]])),
        (zero_row, b),
        (a, zero_col),
        (zero_row, zero_col),
    ):
        _assert_packed_matches_int_loop(left, right)
    assert int_rows(mat_mul(zero_row, b))[0][2] == [0, 0, 0]


@pytest.mark.parametrize("n", range(5, 13))
def test_packed_mat_mul_matches_int_loop_on_the_literal_power_chain(n):
    """(I + E)^k for k < n, the chain `literal_power_positive` multiplies, entries growing with k."""
    base = identity(n) + cf.ecc_matrix_wheel(n)
    acc = identity(n)
    for _ in range(n - 1):
        _assert_packed_matches_int_loop(acc, base)
        acc = mat_mul(acc, base)


def test_int_entries_is_exact_scaling():
    v = VectorQ([Fraction(1, 2), Fraction(-2, 3), 0])
    assert int_entries(v) == ([3, -4, 0], 6)
    assert int_entries(VectorQ([3, -1])) == ([3, -1], 1)


def test_vector_kernels_match_fraction_routes_random():
    rng = random.Random(20250312)
    for _ in range(2400):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        max_den = rng.choice(DENOMINATORS)
        density = rng.choice((1.0, 0.5, 0.1))
        m = MatrixQ(_rand_rows(rng, rows, cols, max_den, density))
        u, v, x, y = (VectorQ(row) for row in _rand_rows(rng, 4, cols, rng.choice(DENOMINATORS), density))
        assert m.mul_vec(v) == ref_mul_vec(m, v)
        assert u.dot(v) == ref_dot(u, v)
        x, y = CirculantQ(x), CirculantQ(y)
        assert circ_mul(x, y) == ref_circ_mul(x, y)
    with pytest.raises(ShapeError):
        MatrixQ([[1, 2]]).mul_vec(VectorQ([1]))
    with pytest.raises(ShapeError):
        VectorQ([1, 2]).dot(VectorQ([1]))
    with pytest.raises(ShapeError):
        circ_mul(CirculantQ(VectorQ([1, 2])), CirculantQ(VectorQ([1])))


def _random_symmetric(rng: random.Random, t: int) -> MatrixQ:
    """Seeded symmetric matrix of order 1..8; cycles through four kinds.

    Dense with mixed denominators; zero diagonal (hyperbolic pivots are
    forced); rank-deficient B D B' with k < n; sparse with mostly zero
    diagonal, so both pivot kinds and trailing zero blocks occur.
    """
    n = rng.randint(1, 8)
    max_den = rng.choice(DENOMINATORS)
    kind = t % 4
    if kind == 2:
        k = rng.randint(1, max(1, n - 1))
        b = MatrixQ(_rand_rows(rng, n, k, max_den))
        d = MatrixQ([[rand_fraction(rng) if i == j else 0 for j in range(k)] for i in range(k)])
        return ref_mat_mul(ref_mat_mul(b, d), b.transpose())
    a = [[Fraction(0)] * n for _ in range(n)]
    density = 0.3 if kind == 3 else 1.0
    for i in range(n):
        for j in range(i, n):
            if i == j and (kind == 1 or (kind == 3 and rng.random() < 0.8)):
                continue
            if rng.random() < density:
                a[i][j] = a[j][i] = rand_fraction(rng, max_den=max_den)
    return MatrixQ(a)


def _report(m: MatrixQ):
    """Inertia and pivot log, once the same congruence's det and rank match the forward pass."""
    r = inertia_exact(m)
    assert r.counts_consistent()
    assert r.det == bareiss_det(m)
    assert r.inertia.rank == rank_exact(m)
    return r.inertia.as_tuple(), r.pivot_log


def test_inertia_matches_fraction_congruence_random():
    rng = random.Random(20241018)
    seen = {"hyperbolic": 0, "zero": 0}
    for t in range(2400):
        m = _random_symmetric(rng, t)
        ref = ref_inertia_exact(m)
        assert _report(m) == ref
        seen["hyperbolic"] += PIVOT_HYPERBOLIC in ref[1]
        seen["zero"] += PIVOT_ZERO in ref[1]
    assert min(seen.values()) >= 300, seen


def test_inertia_pivot_signs_and_blocks():
    # negative leading pivot: the sign test is against the running prev
    assert _report(MatrixQ([[-2, 1], [1, 3]])) == ((1, 1, 0), ("neg", "pos"))
    assert _report(MatrixQ([[-1, 0], [0, -3]])) == ((0, 2, 0), ("neg", "neg"))
    # zero diagonal: one hyperbolic pivot, then the scaled Schur complement
    m = MatrixQ([[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, 1], [1, 1, 0]])
    assert _report(m) == ref_inertia_exact(m) == ((1, 2, 0), ("hyperbolic", "neg"))
    assert _report(MatrixQ([[0, 0], [0, 0]])) == ((0, 0, 2), ("zero", "zero"))
    with pytest.raises(ShapeError):
        inertia_exact(MatrixQ([[0, 1], [2, 0]]))


@functools.cache
def _wheel_matrices(n: int) -> tuple[MatrixQ, MatrixQ, MatrixQ, MatrixQ]:
    """E, E_minus_edge, L and X at n, built once for the tests that read them."""
    if n % 3 != 1:
        lap, x = cf.laplacian_tilde(n), cf.inverse_E_closed(n)
    else:
        lap, x = cf.laplacian_hat(n), cf.pinv_E_closed(n)
    return cf.ecc_matrix_wheel(n), cf.ecc_matrix_wheel_minus_edge(n), lap, x


@pytest.mark.parametrize("n", range(5, 41))
def test_int_kernels_match_fraction_routes_on_wheel_matrices(n):
    e, e_me, lap, x = _wheel_matrices(n)
    for a, b in ((e, x), (x, e), (lap, e)):
        assert mat_mul(a, b) == ref_mat_mul(a, b)
    for m in (e, e_me, lap, x):
        assert _report(m) == ref_inertia_exact(m)
    assert inertia_exact(e).inertia == cf.inertia_E_closed(n)
    assert inertia_exact(e_me).inertia == cf.inertia_E_minus_edge_closed(n)
    w = cf.weight_w(n)
    for m in (e, e_me, lap, x):
        assert m.mul_vec(w) == ref_mul_vec(m, w)
        assert m.row(1).dot(w) == ref_dot(m.row(1), w)
    block = cf.m_circulant(n) if n % 3 != 1 else cf.p_circulant(n)
    u = CirculantQ(cf.wheel_u(n))
    assert circ_mul(block, u) == ref_circ_mul(block, u)
    assert circ_mul(u, block) == ref_circ_mul(u, block)


@pytest.mark.parametrize("n", range(5, 41))
def test_packed_mat_mul_matches_int_loop_on_wheel_products(n):
    """L E, X E, E X and E L: the products `verify` forms, Theorem 5.8 and Lemma 5.1."""
    e, _, lap, x = _wheel_matrices(n)
    for a, b in ((lap, e), (x, e), (e, x), (e, lap)):
        _assert_packed_matches_int_loop(a, b)


def _descartes_inertia(sympy, m: MatrixQ) -> tuple[int, int, int]:
    """Inertia from sign changes of the characteristic polynomial.

    All roots of a symmetric matrix's characteristic polynomial are real, so
    Descartes' rule of signs counts the positive roots of p(x) and of p(-x)
    exactly; the zero eigenvalues are the trailing zero coefficients.
    """
    from sympy.polys.matrices import DomainMatrix

    s = DomainMatrix.from_Matrix(
        sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.iter_rows()])
    ).convert_to(sympy.QQ)
    coeffs = list(reversed(s.charpoly()))  # coefficient of x^k at index k

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    zero = next(k for k, c in enumerate(coeffs) if c != 0)
    plus = sign_changes(coeffs)
    minus = sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return plus, minus, zero


@pytest.mark.parametrize("n", range(5, 31))
def test_inertia_matches_sympy_charpoly_on_wheel_matrices(n):
    sympy = pytest.importorskip("sympy")
    for m in _wheel_matrices(n):
        assert inertia_exact(m).inertia.as_tuple() == _descartes_inertia(sympy, m)

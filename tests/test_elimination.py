"""Differential tests: the fraction-free elimination core against slower exact routes.

`bareiss_det` and `rank_exact` read their answer off the forward pass of one
integer elimination, and `eliminate` gives the inverse (None when singular)
from the forward pass of [m | I] and, at full rank, a fraction-free back
substitution.  Each is compared with the Fraction row reductions and the
Gauss-Jordan determinant, rank and elimination of [m | I] kept in `helpers`
and, where sympy is installed, with sympy.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from helpers import (
    rand_fraction,
    ref_bareiss_det,
    ref_gauss_jordan_det,
    ref_gauss_jordan_eliminate,
    ref_gauss_jordan_rank,
    ref_inverse_exact,
    ref_rank_exact,
)
from wheelecc.closedform import ecc_matrix_wheel, laplacian_hat, laplacian_tilde
from wheelecc.oracle import bareiss_det, eliminate, rank_exact
from wheelecc.ratq import MatrixQ, ShapeError, mat_mul

DENOMINATORS = (1, 2, 3, 4, 6, 7, 12)


def _random_case(rng: random.Random, t: int) -> MatrixQ:
    """Seeded matrix of shape 1..7 x 1..7; every second one is square.

    Cycles through four kinds: dense with mixed denominators, rank-deficient
    products, leading zero pivots that force row swaps, and sparse matrices
    whose zero columns get skipped.
    """
    rows = rng.randint(1, 7)
    cols = rows if t % 2 else rng.randint(1, 7)
    max_den = rng.choice(DENOMINATORS)
    kind = (t // 2) % 4
    if kind == 1:
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        left = MatrixQ([[rand_fraction(rng, max_den=max_den) for _ in range(k)] for _ in range(rows)])
        right = MatrixQ([[rand_fraction(rng, max_den=max_den) for _ in range(cols)] for _ in range(k)])
        return mat_mul(left, right)
    a = [[rand_fraction(rng, max_den=max_den) for _ in range(cols)] for _ in range(rows)]
    if kind == 2:
        lead = rng.randint(1, rows)
        for i in range(lead):
            for j in range(min(lead - i, cols)):
                a[i][j] = Fraction(0)
    elif kind == 3:
        a = [[x if rng.random() < 0.35 else Fraction(0) for x in row] for row in a]
    return MatrixQ(a)


def _assert_routes_agree(m: MatrixQ) -> None:
    assert rank_exact(m) == ref_rank_exact(m)
    if m.rows != m.cols:
        with pytest.raises(ShapeError):
            bareiss_det(m)
        with pytest.raises(ShapeError):
            eliminate(m)
        return
    assert bareiss_det(m) == ref_bareiss_det(m)
    assert eliminate(m) == ref_inverse_exact(m)


def test_core_matches_fraction_routes_random():
    rng = random.Random(20240607)
    kinds_seen = {"singular": 0, "invertible": 0, "rectangular": 0}
    for t in range(2400):
        m = _random_case(rng, t)
        _assert_routes_agree(m)
        if m.rows != m.cols:
            kinds_seen["rectangular"] += 1
        elif ref_rank_exact(m) < m.rows:
            kinds_seen["singular"] += 1
        else:
            kinds_seen["invertible"] += 1
    assert min(kinds_seen.values()) >= 300, kinds_seen


def test_forward_pass_matches_gauss_jordan_random():
    rng = random.Random(20250311)
    for t in range(2400):
        m = _random_case(rng, t)
        assert rank_exact(m) == ref_gauss_jordan_rank(m)
        if m.rows == m.cols:
            assert bareiss_det(m) == ref_gauss_jordan_det(m)
            inverse = eliminate(m)
            assert inverse == ref_inverse_exact(m)
            assert inverse == ref_gauss_jordan_eliminate(m)[2]
        else:
            with pytest.raises(ShapeError):
                eliminate(m)


def test_forward_pass_skipped_columns_and_wide_matrices():
    # zero columns between pivots, and more columns than rows
    m = MatrixQ([[0, 2, 0, 1, 5], [0, 4, 0, 2, 1], [0, 0, 0, 3, 0]])
    assert rank_exact(m) == ref_gauss_jordan_rank(m) == 3
    m = MatrixQ([[0, 0, 1], [0, 0, 2], [0, 0, 3]])
    assert rank_exact(m) == 1 and bareiss_det(m) == 0
    # a zero leading pivot that needs a swap past several rows
    m = MatrixQ([[0, 1, 1], [0, 2, 3], [Fraction(1, 2), 0, 1]])
    assert bareiss_det(m) == ref_gauss_jordan_det(m) == Fraction(1, 2)


def test_core_row_swaps_and_skipped_columns():
    # zero leading pivot: one swap flips the sign
    assert bareiss_det(MatrixQ([[0, 2], [3, 1]])) == -6
    # an all-zero first column is skipped, not a rank loss beyond it
    m = MatrixQ([[0, 1, 2], [0, 2, 4], [0, 1, 3]])
    assert rank_exact(m) == 2 and bareiss_det(m) == 0
    assert eliminate(m) is None
    # mixed denominators cancel against the lcm scaling
    m = MatrixQ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank_exact(m) == 1 and bareiss_det(m) == 0
    m = MatrixQ([[0, Fraction(1, 2)], [Fraction(2, 3), 0]])
    assert bareiss_det(m) == Fraction(-1, 3)
    assert eliminate(m) == MatrixQ([[0, Fraction(3, 2)], [2, 0]])


# The Fraction Gauss-Jordan inverse of a wheel matrix, built once per matrix
# for the two wheel-matrix tests below (about 2 s per pass over n = 5..40).
_ref_inverse_once = lru_cache(maxsize=None)(ref_inverse_exact)


def _wheel_matrices(n: int):
    yield ecc_matrix_wheel(n)
    yield laplacian_tilde(n) if n % 3 != 1 else laplacian_hat(n)


@pytest.mark.parametrize("n", range(5, 41))
def test_core_matches_fraction_routes_on_wheel_matrices(n):
    for m in _wheel_matrices(n):
        rank = ref_rank_exact(m)
        assert rank_exact(m) == rank
        assert bareiss_det(m) == ref_bareiss_det(m)
        if rank < n:
            assert eliminate(m) is None
        else:
            assert eliminate(m) == _ref_inverse_once(m)


@pytest.mark.parametrize("n", range(5, 41))
def test_eliminate_matches_separate_oracle_calls_on_E(n):
    e = ecc_matrix_wheel(n)
    inverse = eliminate(e)
    assert inverse == _ref_inverse_once(e)
    assert (inverse is None) == (n % 3 == 1)
    assert inverse == ref_gauss_jordan_eliminate(e)[2]


def _from_sympy(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


@pytest.mark.parametrize("n", range(5, 31))
def test_core_matches_sympy_on_wheel_matrices(n):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    for m in _wheel_matrices(n):
        s = DomainMatrix.from_Matrix(
            sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.iter_rows()])
        ).convert_to(sympy.QQ)
        assert rank_exact(m) == s.rank()
        det = _from_sympy(s.det())
        assert bareiss_det(m) == det
        inv = eliminate(m)
        assert (inv is None) == (det == 0)
        if inv is not None:
            assert inv == MatrixQ([[_from_sympy(x) for x in row] for row in s.inv().to_list()])

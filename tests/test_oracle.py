"""Tests for the independent verifiers: elimination, congruence, iteration."""

import math
import random
from fractions import Fraction

import pytest

from helpers import cofactor_det, rand_matrix, rand_nonsingular, rand_symmetric
from wheelecc.closedform import (
    bordered_B,
    ecc_matrix_wheel,
    inertia_E_closed,
    laplacian_hat,
    laplacian_tilde,
    pinv_E_closed,
    rank_E_closed,
    spectral_radius_closed,
)
from wheelecc.oracle import (
    PIVOT_HYPERBOLIC,
    PowerIterationError,
    bareiss_det,
    eliminate,
    inertia_exact,
    is_irreducible,
    literal_power_positive,
    penrose_check,
    power_iteration_rho,
    rank_certificate_check,
    rank_exact,
)
from wheelecc.ratq import MatrixQ, ShapeError, VectorQ, identity, mat_mul, zeros

F = Fraction


# --- determinant -------------------------------------------------------------


def test_bareiss_identity():
    assert bareiss_det(identity(5)) == 1


def test_bareiss_wheel_values():
    assert bareiss_det(ecc_matrix_wheel(6)) == -80
    assert bareiss_det(bordered_B(4)) == 4


def test_bareiss_vs_cofactor_random():
    rng = random.Random(211)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        assert bareiss_det(m) == cofactor_det(m)


def test_bareiss_integer_entries_random():
    rng = random.Random(223)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = MatrixQ([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert bareiss_det(m) == cofactor_det(m)


def test_bareiss_singular_and_row_swap():
    assert bareiss_det(MatrixQ([[0, 0], [0, 0]])) == 0
    # zero pivot up front forces a row swap
    assert bareiss_det(MatrixQ([[0, 1], [1, 0]])) == -1


def test_bareiss_rejects_non_square():
    with pytest.raises(ShapeError):
        bareiss_det(MatrixQ([[1, 2, 3], [4, 5, 6]]))


# --- rank and inverse --------------------------------------------------------


def test_rank_zero_matrix():
    assert rank_exact(zeros(4, 4)) == 0


def test_rank_wheel_values():
    assert rank_exact(ecc_matrix_wheel(7)) == 5
    assert rank_exact(laplacian_hat(7)) == 4


def test_rank_matches_closed_form():
    for n in range(5, 21):
        assert rank_exact(ecc_matrix_wheel(n)) == rank_E_closed(n)


def test_rank_rectangular():
    assert rank_exact(MatrixQ([[1, 2, 3], [2, 4, 6]])) == 1


def test_inverse_identity():
    for n in (1, 3, 6):
        assert eliminate(identity(n)).inverse == identity(n)


def test_inverse_random_product():
    rng = random.Random(227)
    for _ in range(60):
        m = rand_nonsingular(rng, rng.randint(1, 5))
        assert mat_mul(eliminate(m).inverse, m) == identity(m.rows)


def test_inverse_singular_error_distinct_from_shape_error():
    assert eliminate(ecc_matrix_wheel(7)).inverse is None
    with pytest.raises(ShapeError):
        eliminate(MatrixQ([[1, 2]]))


# --- inertia by congruence ---------------------------------------------------


def test_inertia_diagonal():
    rep = inertia_exact(MatrixQ([[3, 0, 0], [0, -2, 0], [0, 0, 0]]))
    assert rep.inertia.as_tuple() == (1, 1, 1)
    assert rep.counts_consistent()


def test_inertia_hyperbolic_pair():
    rep = inertia_exact(MatrixQ([[0, 1], [1, 0]]))
    assert rep.inertia.as_tuple() == (1, 1, 0)
    assert rep.pivot_log == (PIVOT_HYPERBOLIC,)


def test_inertia_wheel():
    rep = inertia_exact(ecc_matrix_wheel(7))
    assert rep.inertia == inertia_E_closed(7)


def test_inertia_rejects_non_symmetric():
    with pytest.raises(ShapeError):
        inertia_exact(MatrixQ([[0, 1], [2, 0]]))


def test_inertia_sylvester_invariance_random():
    rng = random.Random(229)
    for _ in range(110):
        n = rng.randint(2, 6)
        m = rand_symmetric(rng, n)
        g = rand_nonsingular(rng, n)
        congruent = mat_mul(mat_mul(g.transpose(), m), g)
        a = inertia_exact(m)
        b = inertia_exact(congruent)
        assert a.inertia == b.inertia
        assert a.counts_consistent() and b.counts_consistent()


def test_inertia_log_reproduces_counts():
    rng = random.Random(233)
    for _ in range(60):
        rep = inertia_exact(rand_symmetric(rng, rng.randint(1, 6)))
        assert rep.counts_consistent()


# --- Penrose conditions ------------------------------------------------------


def test_penrose_identity():
    assert penrose_check(identity(4), identity(4)) == (True, True, True, True)


def test_penrose_wheel_pinv():
    assert penrose_check(ecc_matrix_wheel(7), pinv_E_closed(7)) == (True,) * 4


def test_penrose_fails_without_rank_one_term():
    # the Laplacian-like half alone is not a pseudoinverse
    candidate = laplacian_hat(7).scaled(F(-1, 2))
    assert not all(penrose_check(ecc_matrix_wheel(7), candidate))


def test_penrose_shape_mismatch():
    with pytest.raises(ShapeError):
        penrose_check(identity(3), identity(4))


# --- irreducibility ----------------------------------------------------------


def test_irreducible_wheels():
    for n in range(5, 21):
        assert is_irreducible(ecc_matrix_wheel(n))


def test_irreducible_counterexamples():
    assert not is_irreducible(identity(3))
    block = MatrixQ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert not is_irreducible(block)


def test_irreducible_rejects_negative_entries():
    with pytest.raises(ValueError):
        is_irreducible(MatrixQ([[0, -1], [1, 0]]))


def test_irreducible_agrees_with_literal_power_random():
    rng = random.Random(239)
    for _ in range(100):
        n = rng.randint(2, 6)
        m = MatrixQ([[rng.choice([0, 0, 1]) if i != j else 0 for j in range(n)] for i in range(n)])
        sym = m + m.transpose()  # keep it symmetric like the matrices under study
        got = is_irreducible(sym)
        acc = identity(n)
        base = identity(n) + sym
        for _ in range(n - 1):
            acc = mat_mul(acc, base)
        literal = all(x > 0 for row in acc.iter_rows() for x in row)
        assert got == literal


def test_literal_power_route_matches_connectivity_random():
    rng = random.Random(240)
    for _ in range(100):
        n = rng.randint(2, 6)
        m = MatrixQ([[rng.choice([0, 0, 1]) if i != j else 0 for j in range(n)] for i in range(n)])
        sym = m + m.transpose()
        assert literal_power_positive(sym) == is_irreducible(sym)
    assert literal_power_positive(ecc_matrix_wheel(7))
    assert not literal_power_positive(identity(3))


# --- power iteration ---------------------------------------------------------


def test_power_iteration_wheel_5():
    rho = power_iteration_rho(ecc_matrix_wheel(5), tol=1e-12)
    assert abs(rho - (1 + math.sqrt(5))) < 1e-8


def test_power_iteration_all_ones():
    assert abs(power_iteration_rho(MatrixQ([[1] * 3] * 3)) - 3.0) < 1e-12


def test_power_iteration_wheel_20():
    rho = power_iteration_rho(ecc_matrix_wheel(20), tol=1e-12)
    assert abs(rho - (16 + math.sqrt(275))) < 1e-8
    assert abs(rho - spectral_radius_closed(20).rho_float) < 1e-8


def test_power_iteration_non_convergence_reports_last():
    # eigenvalues +-sqrt(2) have equal modulus: the iteration cycles
    cycler = MatrixQ([[0, 2], [1, 0]])
    with pytest.raises(PowerIterationError) as err:
        power_iteration_rho(cycler, tol=1e-15, max_iters=50)
    assert err.value.last > 0


# --- rank certificate --------------------------------------------------------


def test_rank_certificate_10_and_13():
    assert rank_certificate_check(laplacian_hat(10), ecc_matrix_wheel(10))
    assert rank_certificate_check(laplacian_hat(13), ecc_matrix_wheel(13))


def test_rank_certificate_rejects_out_of_domain():
    with pytest.raises(ValueError):
        # valid residue but below the n >= 10 construction
        rank_certificate_check(laplacian_hat(7), ecc_matrix_wheel(7))
    with pytest.raises(ValueError):
        rank_certificate_check(laplacian_tilde(11), ecc_matrix_wheel(11))

"""Tests for the closed-form layer: frozen worked examples plus oracle sweeps."""

from fractions import Fraction

import pytest

from wheelecc.circulant import CirculantQ, ResidueClassError, to_dense, tridiagonal
from wheelecc.closedform import (
    InertiaTriple,
    bordered_B,
    det_B_closed,
    det_E_closed,
    det_E_minus_edge_closed,
    det_T_closed,
    det_tridiagonal_closed,
    ecc_matrix_wheel,
    ecc_matrix_wheel_minus_edge,
    edm_witness,
    edm_witness_value,
    inertia_E_closed,
    inertia_E_minus_edge_closed,
    inverse_E_closed,
    laplacian_hat,
    laplacian_tilde,
    m_circulant,
    null_vectors,
    p_circulant,
    pinv_E_closed,
    quotient_matrix,
    rank_E_closed,
    spectral_radius_closed,
    weight_w,
    wheel_u,
)
from wheelecc.graphs import bfs_distances, build_wheel, delete_cycle_edge, eccentricity_matrix_definitional
from wheelecc.oracle import bareiss_det, eliminate, inertia_exact, rank_exact
from wheelecc.ratq import MatrixQ, VectorQ, identity, jmatrix, mat_mul, ones_vector

F = Fraction


def _definitional_E(n):
    return eccentricity_matrix_definitional(bfs_distances(build_wheel(n)))


def _definitional_E_minus(n):
    return eccentricity_matrix_definitional(bfs_distances(delete_cycle_edge(build_wheel(n))))


# --- eccentricity matrices ---------------------------------------------------


def test_ecc_matrix_wheel_5_frozen():
    assert ecc_matrix_wheel(5) == MatrixQ(
        [
            [0, 1, 1, 1, 1],
            [1, 0, 0, 2, 0],
            [1, 0, 0, 0, 2],
            [1, 2, 0, 0, 0],
            [1, 0, 2, 0, 0],
        ]
    )


def test_ecc_matrix_wheel_6_block():
    e6 = ecc_matrix_wheel(6)
    assert e6.submatrix(1, 6, 1, 6) == to_dense(CirculantQ(VectorQ([0, 0, 2, 2, 0])))


def test_ecc_matrix_wheel_matches_definitional():
    for n in range(5, 41):
        assert ecc_matrix_wheel(n) == _definitional_E(n)


def test_ecc_matrix_wheel_4_is_complete_graph_case():
    assert ecc_matrix_wheel(4) == jmatrix(4) - identity(4)
    with pytest.raises(ValueError):
        ecc_matrix_wheel(3)


def test_ecc_minus_edge_frozen_5():
    expected_block = MatrixQ(
        [[0, 0, 2, 2], [0, 0, 0, 2], [2, 0, 0, 0], [2, 2, 0, 0]]
    )
    assert ecc_matrix_wheel_minus_edge(5).submatrix(1, 5, 1, 5) == expected_block


def test_ecc_minus_edge_matches_definitional():
    for n in range(5, 31):
        assert ecc_matrix_wheel_minus_edge(n) == _definitional_E_minus(n)


def test_ecc_minus_edge_is_leading_principal_submatrix_of_next_wheel():
    for n in range(5, 21):
        bigger = ecc_matrix_wheel(n + 1)
        assert ecc_matrix_wheel_minus_edge(n) == bigger.submatrix(0, n, 0, n)


# --- determinants ------------------------------------------------------------


def test_det_tridiagonal_base_case():
    assert det_tridiagonal_closed(1, 9, 2, 5) == 9


def test_det_tridiagonal_order2_degenerate():
    assert det_tridiagonal_closed(2, -2, -2, -2) == 0


def test_det_tridiagonal_vs_bareiss():
    for order in range(1, 9):
        for abc in [(1, 1, 1), (3, 2, 1), (-2, -2, -2), (F(1, 2), 2, F(3, 2))]:
            dense = tridiagonal(order, *abc)
            assert det_tridiagonal_closed(order, *abc) == bareiss_det(dense)


def test_det_tridiagonal_rational_root_path():
    # a=3, b=2, c=1: discriminant 1, roots 2 and 1, determinant 2^(m+1) - 1
    for order in range(1, 12):
        assert det_tridiagonal_closed(order, 3, 2, 1) == 2 ** (order + 1) - 1


def test_det_tridiagonal_outside_formula_domain():
    # a=2, b=c=1 has a^2 == 4bc; the recurrence gives order + 1
    for order in range(1, 10):
        assert det_tridiagonal_closed(order, 2, 1, 1) == order + 1
        assert bareiss_det(tridiagonal(order, 2, 1, 1)) == order + 1


def test_det_T_examples():
    assert det_T_closed(3) == 8
    assert det_T_closed(2) == 0
    assert det_T_closed(4) == -16
    for order in range(1, 31):
        dense = tridiagonal(order, -2, -2, -2)
        assert det_T_closed(order) == bareiss_det(dense)


def test_det_B_small_values():
    assert [det_B_closed(n) for n in (2, 3, 4)] == [-1, 0, 4]
    assert det_B_closed(5) == -16
    assert bareiss_det(bordered_B(5)) == -16


def test_det_B_recurrence():
    for n in range(5, 31):
        assert det_B_closed(n) == 4 * det_T_closed(n - 4) + 8 * det_B_closed(n - 3)


def test_det_E_examples():
    assert det_E_closed(7) == 0
    assert det_E_closed(5) == -32
    assert det_E_closed(6) == -80
    assert bareiss_det(ecc_matrix_wheel(5)) == -32
    assert bareiss_det(ecc_matrix_wheel(6)) == -80


def test_det_E_recurrence():
    for n in range(5, 41):
        rhs = -((n - 1) ** 2) * det_T_closed(n - 2) + 6 * (n - 1) * det_B_closed(n - 1)
        assert det_E_closed(n) == rhs


def test_det_E_minus_edge_examples():
    assert det_E_minus_edge_closed(5) == -16
    assert det_E_minus_edge_closed(6) == 0
    assert det_E_minus_edge_closed(7) == 64
    assert bareiss_det(ecc_matrix_wheel_minus_edge(5)) == -16
    assert bareiss_det(ecc_matrix_wheel_minus_edge(7)) == 64


# --- inertia and rank --------------------------------------------------------


def test_inertia_minus_edge_examples():
    assert inertia_E_minus_edge_closed(5) == InertiaTriple(2, 3, 0)
    assert inertia_E_minus_edge_closed(6) == InertiaTriple(2, 3, 1)
    assert inertia_E_minus_edge_closed(7) == InertiaTriple(3, 4, 0)
    for n in (5, 6, 7):
        assert inertia_exact(ecc_matrix_wheel_minus_edge(n)).inertia == inertia_E_minus_edge_closed(n)


def test_inertia_E_examples():
    assert inertia_E_closed(7) == InertiaTriple(2, 3, 2)
    assert inertia_E_closed(9) == InertiaTriple(4, 5, 0)
    assert inertia_E_closed(8) == InertiaTriple(3, 5, 0)
    for n in (7, 8, 9):
        assert inertia_exact(ecc_matrix_wheel(n)).inertia == inertia_E_closed(n)


def test_inertia_arithmetic_invariants():
    for n in range(5, 31):
        tri = inertia_E_closed(n)
        assert tri.order == n
        assert tri.rank == rank_E_closed(n)
        assert (tri.n_zero == 2) == (n % 3 == 1)
        det = det_E_closed(n)
        if det != 0:
            sign = 1 if det > 0 else -1
            assert sign == (-1) ** tri.n_minus
        tri_me = inertia_E_minus_edge_closed(n)
        assert tri_me.order == n
        det_me = det_E_minus_edge_closed(n)
        if det_me != 0:
            assert (1 if det_me > 0 else -1) == (-1) ** tri_me.n_minus


def test_interlacing_consistency_of_closed_inertias():
    for n in range(6, 41):
        sub = inertia_E_minus_edge_closed(n - 1)
        full = inertia_E_closed(n)
        assert full.n_plus >= sub.n_plus
        assert full.n_minus >= sub.n_minus


def test_rank_E_examples():
    assert rank_E_closed(7) == 5
    assert rank_E_closed(8) == 8
    assert rank_E_closed(10) == 8
    assert rank_exact(ecc_matrix_wheel(7)) == 5
    assert rank_exact(ecc_matrix_wheel(10)) == 8


def test_null_vectors_frozen_7():
    x, y = null_vectors(7)
    assert x == VectorQ([0, 1, 0, -1, 1, 0, -1])
    assert y == VectorQ([0, 0, 1, -1, 0, 1, -1])


def test_null_vectors_annihilated():
    for n in (7, 10, 13):
        e = ecc_matrix_wheel(n)
        x, y = null_vectors(n)
        zero = VectorQ([0] * n)
        assert e.mul_vec(x) == zero
        assert e.mul_vec(y) == zero
        w = weight_w(n)
        assert w.dot(x) == 0
        assert w.dot(y) == 0


def test_null_vectors_residue_error():
    with pytest.raises(ResidueClassError):
        null_vectors(8)


# --- Laplacian-like matrices and the inverse ---------------------------------


def test_laplacian_tilde_frozen_6():
    expected = MatrixQ(
        [
            [5, -1, -1, -1, -1, -1],
            [-1, -1, 2, -1, -1, 2],
            [-1, 2, -1, 2, -1, -1],
            [-1, -1, 2, -1, 2, -1],
            [-1, -1, -1, 2, -1, 2],
            [-1, 2, -1, -1, 2, -1],
        ]
    ).scaled(F(1, 3))
    assert laplacian_tilde(6) == expected


def test_laplacian_tilde_annihilates_ones():
    for n in (5, 6, 8, 9, 11, 12):
        lt = laplacian_tilde(n)
        assert lt.mul_vec(ones_vector(n)) == VectorQ([0] * n)
        assert lt.is_symmetric()


def test_laplacian_tilde_rank():
    for n in range(5, 31):
        if n % 3 == 1:
            continue
        assert rank_exact(laplacian_tilde(n)) == n - 1


def test_laplacian_tilde_residue_error():
    with pytest.raises(ResidueClassError):
        laplacian_tilde(7)


def test_weight_w_values():
    assert weight_w(6) == VectorQ([F(1, 6)] * 6)
    assert weight_w(7) == VectorQ([0] + [F(1, 6)] * 6)


def test_weight_w_identity():
    for n in range(5, 31):
        e = ecc_matrix_wheel(n)
        got = e.mul_vec(weight_w(n))
        assert got == ones_vector(n).scaled(F(n - 1, 6))


def test_inverse_frozen_6():
    expected = MatrixQ(
        [
            [-4, 1, 1, 1, 1, 1],
            [1, 1, F(-3, 2), 1, 1, F(-3, 2)],
            [1, F(-3, 2), 1, F(-3, 2), 1, 1],
            [1, 1, F(-3, 2), 1, F(-3, 2), 1],
            [1, 1, 1, F(-3, 2), 1, F(-3, 2)],
            [1, F(-3, 2), 1, 1, F(-3, 2), 1],
        ]
    ).scaled(F(1, 5))
    assert inverse_E_closed(6) == expected


def test_inverse_exact_product():
    e8 = ecc_matrix_wheel(8)
    assert mat_mul(e8, inverse_E_closed(8)) == identity(8)


def test_inverse_matches_gauss_jordan():
    for n in (5, 6, 8, 9, 11, 12):
        assert inverse_E_closed(n) == eliminate(ecc_matrix_wheel(n)).inverse


def test_inverse_residue_error_names_singularity():
    with pytest.raises(ResidueClassError, match="singular"):
        inverse_E_closed(7)


def test_identity_pair():
    for n in range(5, 31):
        if n % 3 == 1:
            continue
        e = ecc_matrix_wheel(n)
        lt = laplacian_tilde(n)
        w = weight_w(n)
        lhs = mat_mul(lt, e) + identity(n).scaled(2)
        rhs = MatrixQ([[2 * w[i] for _ in range(n)] for i in range(n)])
        assert lhs == rhs


def test_m_circulant_row_sums():
    for n in (5, 6, 8, 9, 11, 12):
        m = to_dense(m_circulant(n))
        assert m.mul_vec(ones_vector(n - 1)) == ones_vector(n - 1).scaled(F(2 - n, 3))


def test_si_product_identity():
    from wheelecc.circulant import circ_mul

    for n in (5, 6, 8, 9, 11, 12):
        m = m_circulant(n)
        u = CirculantQ(wheel_u(n))
        z = VectorQ([-4, 2] + [4 - 2 * n] * (n - 4) + [2])
        assert circ_mul(m, u) == CirculantQ(z.scaled(F(1, 3)))


# --- pseudoinverse side ------------------------------------------------------


def test_laplacian_hat_frozen_7():
    p = p_circulant(7)
    assert p.first_row == VectorQ(
        [F(-35, 18), F(11, 36), F(-7, 36), F(1, 18), F(-7, 36), F(11, 36)]
    )
    lh = laplacian_hat(7)
    assert lh[0, 0] == 2
    assert all(lh[0, j] == F(-1, 3) for j in range(1, 7))
    assert lh.submatrix(1, 7, 1, 7) == to_dense(
        CirculantQ(VectorQ([F(1, 18), F(11, 36), F(-7, 36), F(1, 18), F(-7, 36), F(11, 36)]))
    )


def test_laplacian_hat_annihilates_ones():
    for n in (7, 10, 13, 16):
        lh = laplacian_hat(n)
        assert lh.mul_vec(ones_vector(n)) == VectorQ([0] * n)
        assert lh.is_symmetric()


def test_laplacian_hat_rank():
    for n in (7, 10, 13, 16, 19):
        assert rank_exact(laplacian_hat(n)) == n - 3


def test_laplacian_hat_residue_error():
    with pytest.raises(ResidueClassError):
        laplacian_hat(8)


def test_pinv_frozen_7():
    # hub row and cyclic block as printed; the corner is -1, the value forced
    # by symmetry of X E (the Moore-Penrose inverse is unique)
    expected_rows = [[F(-1)] + [F(1, 6)] * 6]
    block = to_dense(
        CirculantQ(VectorQ([0, F(-1, 8), F(1, 8), 0, F(1, 8), F(-1, 8)]))
    )
    for i in range(6):
        expected_rows.append([F(1, 6)] + list(block.row(i)))
    assert pinv_E_closed(7) == MatrixQ(expected_rows)


def test_pinv_penrose_conditions():
    from wheelecc.oracle import penrose_check

    for n in (7, 10, 13):
        assert penrose_check(ecc_matrix_wheel(n), pinv_E_closed(n)) == (True,) * 4


def test_pinv_xe_structure():
    for n in (7, 10, 13):
        x = pinv_E_closed(n)
        e = ecc_matrix_wheel(n)
        xe = mat_mul(x, e)
        v = to_dense(CirculantQ(VectorQ([2, -1, -1] * ((n - 1) // 3))))
        expected = [list(r) for r in identity(n).iter_rows()]
        for i in range(n - 1):
            for j in range(n - 1):
                expected[i + 1][j + 1] -= F(1, n - 1) * v[i, j]
        assert xe == MatrixQ(expected)


def test_pinv_residue_error():
    with pytest.raises(ResidueClassError):
        pinv_E_closed(8)


def test_p_circulant_identities():
    from wheelecc.circulant import circ_mul

    for n in (7, 10, 13, 16):
        p = p_circulant(n)
        dense = to_dense(p)
        assert dense.mul_vec(ones_vector(n - 1)) == ones_vector(n - 1).scaled(F(2 - n, 3))
        v = CirculantQ(VectorQ([2, -1, -1] * ((n - 1) // 3)))
        assert circ_mul(p, v) == CirculantQ(v.first_row.scaled(F(1 - n, 3)))
        u = CirculantQ(VectorQ([1, 1] + [0] * (n - 4) + [1]))
        zp = VectorQ(
            [5 * n - n * n - 10, 2 * n - n * n + 2]
            + [3, -6, 3] * ((n - 4) // 3)
            + [2 * n - n * n + 2]
        )
        assert circ_mul(p, u) == CirculantQ(zp.scaled(F(1, 3 * (n - 1))))


def test_lhat_e_block_form():
    for n in (7, 10, 13):
        lhs = mat_mul(laplacian_hat(n), ecc_matrix_wheel(n))
        assert lhs[0, 0] == F(1 - n, 3)
        assert all(lhs[0, j] == F(7 - n, 3) for j in range(1, n))
        assert all(lhs[j, 0] == F(1, 3) for j in range(1, n))
        vp = VectorQ(
            [F(17 - 5 * n, n - 1)]
            + [F(n - 7, n - 1), F(n - 7, n - 1), F(n + 11, n - 1)] * ((n - 4) // 3)
            + [F(n - 7, n - 1), F(n - 7, n - 1)]
        )
        assert lhs.submatrix(1, n, 1, n) == to_dense(CirculantQ(vp.scaled(F(1, 3))))


# --- spectral radius, quotient, witnesses ------------------------------------


def test_quotient_matrix_frozen_7():
    assert quotient_matrix(7) == MatrixQ([[0, 6], [1, 6]])


def test_quotient_matrix_equitable_row_sums():
    for n in range(5, 21):
        q = quotient_matrix(n)
        e = ecc_matrix_wheel(n)
        assert q[0, 1] == e.row(0).sum()
        for i in range(1, n):
            assert e[i, 0] == q[1, 0]
            assert sum(e[i, j] for j in range(1, n)) == q[1, 1]


def test_quotient_matrix_characteristic_polynomial():
    for n in range(5, 21):
        q = quotient_matrix(n)
        res = spectral_radius_closed(n)
        assert q[0, 0] + q[1, 1] == 2 * res.rho_int_part
        assert q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0] == res.rho_int_part**2 - res.radicand


def test_spectral_radius_values():
    r5 = spectral_radius_closed(5)
    assert (r5.rho_int_part, r5.radicand) == (1, 5)
    assert abs(r5.rho_float - 3.23606797749979) < 1e-11
    r7 = spectral_radius_closed(7)
    assert (r7.rho_int_part, r7.radicand) == (3, 15)
    assert abs(r7.rho_float - 6.872983346207417) < 1e-11


def test_perron_vector_residual():
    for n in range(5, 61):
        res = spectral_radius_closed(n)
        v = res.perron_vector_float()
        ef = [[float(x) for x in row] for row in ecc_matrix_wheel(n).iter_rows()]
        residual = max(
            abs(sum(ef[i][j] * v[j] for j in range(n)) - res.rho_float * v[i])
            for i in range(n)
        )
        assert residual < 1e-8


def test_edm_witness_frozen_small():
    assert edm_witness(5) == VectorQ([0, 1, -1, 1, -1])
    assert edm_witness(6) == VectorQ([0, 1, -1, 0, 1, -1])
    assert edm_witness(8) == VectorQ([0, 1, -1, 1, 0, -1, 1, -1])


def test_edm_witness_energy():
    e5 = ecc_matrix_wheel(5)
    y = edm_witness(5)
    assert y.dot(e5.mul_vec(y)) == 8
    for n, val in ((6, 4), (8, 8)):
        z = edm_witness(n)
        assert z.dot(ecc_matrix_wheel(n).mul_vec(z)) == val
        assert edm_witness_value(n) == val


def test_edm_witness_sweep():
    for n in range(5, 31):
        z = edm_witness(n)
        assert z.sum() == 0
        energy = z.dot(ecc_matrix_wheel(n).mul_vec(z))
        assert energy == edm_witness_value(n)
        assert energy > 0


def test_edm_witness_odd_is_eigenvector():
    # for odd n the witness is an eigenvector with eigenvalue 2
    for n in (5, 7, 9, 11):
        y = edm_witness(n)
        assert ecc_matrix_wheel(n).mul_vec(y) == y.scaled(2)

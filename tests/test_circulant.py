"""Tests for circulant algebra and the special defining vectors."""

import random
from fractions import Fraction

import pytest

from helpers import cofactor_det, rand_vector
from wheelecc.circulant import (
    CirculantQ,
    ResidueClassError,
    basis_c,
    circ_mul,
    is_symmetric_in_last_coords,
    period3_row_product,
    shift_T,
    special_x,
    special_y,
    special_z,
    to_dense,
    tridiagonal,
)
from wheelecc.graphs import bfs_distances, build_wheel, eccentricity_matrix_definitional
from wheelecc.ratq import MatrixQ, ShapeError, VectorQ, mat_mul


def test_shift_basic():
    assert shift_T(VectorQ([1, 2, 3])) == VectorQ([3, 1, 2])


def test_shift_full_cycle_is_identity():
    v = VectorQ([1, 2, 3, 4, 5])
    assert shift_T(v, len(v)) == v
    assert shift_T(v, 0) == v


def test_shift_composition():
    v = VectorQ([4, 7, 1, 3])
    assert shift_T(shift_T(v, 1), 1) == shift_T(v, 2)


def test_to_dense_order_one():
    assert to_dense(CirculantQ(VectorQ([Fraction(5, 3)]))) == MatrixQ([[Fraction(5, 3)]])


def test_to_dense_matches_definitional_wheel_block():
    e5 = eccentricity_matrix_definitional(bfs_distances(build_wheel(5)))
    assert to_dense(CirculantQ(VectorQ([0, 0, 2, 0]))) == e5.submatrix(1, 5, 1, 5)


def test_dense_circulants_commute_random():
    rng = random.Random(101)
    for _ in range(120):
        a = to_dense(CirculantQ(rand_vector(rng, 6)))
        b = to_dense(CirculantQ(rand_vector(rng, 6)))
        assert mat_mul(a, b) == mat_mul(b, a)


def test_circ_mul_identity_circulant():
    e1 = CirculantQ(VectorQ([1, 0, 0, 0]))
    y = CirculantQ(VectorQ([3, 1, 4, 1]))
    assert circ_mul(e1, y) == y


def test_circ_mul_matches_dense_product_random():
    rng = random.Random(103)
    for _ in range(120):
        x = CirculantQ(rand_vector(rng, 6))
        y = CirculantQ(rand_vector(rng, 6))
        assert to_dense(circ_mul(x, y)) == mat_mul(to_dense(x), to_dense(y))


def test_circ_mul_commutes_random():
    rng = random.Random(107)
    for _ in range(120):
        x = CirculantQ(rand_vector(rng, 5))
        y = CirculantQ(rand_vector(rng, 5))
        assert circ_mul(x, y) == circ_mul(y, x)


def test_circ_mul_order_mismatch():
    with pytest.raises(ShapeError):
        circ_mul(CirculantQ(VectorQ([1, 2])), CirculantQ(VectorQ([1, 2, 3])))


def test_circulant_linearity_random():
    rng = random.Random(109)
    for _ in range(120):
        x = rand_vector(rng, 7)
        y = rand_vector(rng, 7)
        a, b = Fraction(2), Fraction(-3, 2)
        lhs = to_dense(CirculantQ(x.scaled(a) + y.scaled(b)))
        rhs = to_dense(CirculantQ(x)).scaled(a) + to_dense(CirculantQ(y)).scaled(b)
        assert lhs == rhs


def test_period3_constant_pattern_gives_column_sums():
    c = CirculantQ(VectorQ([1, 2, 3, 4, 5, 6]))
    g = VectorQ([1, 1, 1, 1, 1, 1])
    t1, t2, t3 = period3_row_product(g, c)
    assert t1 == t2 == t3 == 21


def test_period3_small_example_vs_dense():
    c = CirculantQ(VectorQ([1, 2, 3, 4, 5, 6]))
    g = VectorQ([1, 0, 0, 1, 0, 0])
    t1, t2, t3 = period3_row_product(g, c)
    full = mat_mul(g.as_row(), to_dense(c)).row(0)
    assert VectorQ([t1, t2, t3, t1, t2, t3]) == full


def test_period3_reconstruction_random():
    rng = random.Random(113)
    for _ in range(120):
        m = rng.choice([6, 9, 12])
        alpha, beta, gamma = (rand_vector(rng, 3)).entries
        g = VectorQ([alpha, beta, gamma] * (m // 3))
        c = CirculantQ(rand_vector(rng, m))
        t1, t2, t3 = period3_row_product(g, c)
        full = mat_mul(g.as_row(), to_dense(c)).row(0)
        assert VectorQ([t1, t2, t3] * (m // 3)) == full


def test_period3_rejects_bad_inputs():
    c6 = CirculantQ(VectorQ([1, 2, 3, 4, 5, 6]))
    with pytest.raises(ValueError):
        period3_row_product(VectorQ([1, 2, 1, 2]), CirculantQ(VectorQ([1, 2, 3, 4])))
    with pytest.raises(ValueError):
        period3_row_product(VectorQ([1, 2, 3, 4, 5, 6]), c6)


def test_symmetric_tail_examples():
    assert is_symmetric_in_last_coords(VectorQ([5, 1, 2, 2, 1]))
    assert not is_symmetric_in_last_coords(VectorQ([5, 1, 2, 3, 1]))


def test_symmetric_tail_of_special_vectors():
    for n in (5, 8, 11, 14):
        assert is_symmetric_in_last_coords(special_x(n))
    for n in (6, 9, 12, 15):
        assert is_symmetric_in_last_coords(special_y(n))


def test_symmetric_tail_implies_symmetric_circulant_random():
    rng = random.Random(127)
    for _ in range(120):
        m = rng.randint(4, 12)
        head = rand_vector(rng, 1)[0]
        half = [rand_vector(rng, 1)[0] for _ in range(m // 2)]
        tail = half + list(reversed(half[: (m - 1) // 2]))
        v = VectorQ([head] + tail)
        assert is_symmetric_in_last_coords(v)
        assert to_dense(CirculantQ(v)).is_symmetric()


def test_basis_c_printed_examples():
    assert basis_c(1, 6) == VectorQ([0, 1, 0, 0, 1])
    assert basis_c(2, 6) == VectorQ([0, 0, 1, 1, 0])


def test_basis_c_symmetric_tail():
    for n in range(5, 14):
        kmax = (n - 2) // 2 if n % 2 == 0 else (n - 3) // 2
        for k in range(1, kmax + 1):
            assert is_symmetric_in_last_coords(basis_c(k, n))


def test_basis_c_range_errors():
    with pytest.raises(ValueError):
        basis_c(0, 6)
    with pytest.raises(ValueError):
        basis_c(3, 6)  # kmax = (6-2)/2 = 2
    with pytest.raises(ValueError):
        basis_c(3, 7)  # kmax = (7-3)/2 = 2


def test_special_x_values():
    assert special_x(8) == VectorQ([-6, 1, -2, 1, 1, -2, 1])
    assert special_x(5) == VectorQ([-3, 1, -2, 1])
    assert special_x(11) == VectorQ([-9, 1, -2, 1, 1, -2, 1, 1, -2, 1])


def test_special_x_sum_and_residue():
    for n in (5, 8, 11, 14, 17, 20):
        assert special_x(n).sum() == 2 - n
    with pytest.raises(ResidueClassError):
        special_x(6)
    with pytest.raises(ResidueClassError):
        special_x(7)


def test_special_y_values():
    assert special_y(6) == VectorQ([-6, 2, -1, -1, 2])
    assert special_y(9) == VectorQ([-9, 2, -1, -1, 2, -1, -1, 2])
    assert special_y(12) == VectorQ([-12, 2, -1, -1, 2, -1, -1, 2, -1, -1, 2])


def test_special_y_sum_and_residue():
    for n in (6, 9, 12, 15, 18):
        assert special_y(n).sum() == 2 - n
    with pytest.raises(ResidueClassError):
        special_y(7)
    with pytest.raises(ResidueClassError):
        special_y(8)


def test_special_z_values():
    assert special_z(7) == VectorQ(
        [-35, Fraction(11, 2), Fraction(-7, 2), 1, Fraction(-7, 2), Fraction(11, 2)]
    )
    assert special_z(10) == VectorQ([-80, 10, -8, 1, 1, 1, 1, -8, 10])


def test_special_z_sum_symmetry_residue():
    for n in (7, 10, 13, 16, 19, 22):
        z = special_z(n)
        assert z.sum() == (n - 1) * (2 - n)
        assert is_symmetric_in_last_coords(z)
    with pytest.raises(ResidueClassError):
        special_z(8)
    with pytest.raises(ResidueClassError):
        special_z(9)


def test_tridiagonal_order_one():
    assert tridiagonal(1, Fraction(7), Fraction(2), Fraction(3)) == MatrixQ([[7]])


def test_tridiagonal_validates_order_and_coerces_entries():
    with pytest.raises(ShapeError, match="tridiagonal order must be >= 1, got 0"):
        tridiagonal(0, 1, 1, 1)
    with pytest.raises(TypeError):
        tridiagonal(2, 0.5, 1, 1)
    t = tridiagonal(2, "1/2", 3, Fraction(-1, 3))
    assert t == MatrixQ([[Fraction(1, 2), 3], [Fraction(-1, 3), Fraction(1, 2)]])


def test_tridiagonal_det_by_cofactor():
    t3 = tridiagonal(3, -2, -2, -2)
    assert cofactor_det(t3) == 8


def test_tridiagonal_symmetry_iff_equal_off_diagonals():
    assert tridiagonal(4, 1, 5, 5).is_symmetric()
    assert not tridiagonal(4, 1, 5, 3).is_symmetric()

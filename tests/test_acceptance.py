"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every algebraic comparison is exact (zero tolerance); the only
floating-point checks are the spectral-radius ones, pinned at 1e-8.
"""

import random
from fractions import Fraction

from helpers import rand_nonsingular, rand_symmetric, rand_vector
from wheelecc.circulant import (
    CirculantQ,
    circ_mul,
    is_symmetric_in_last_coords,
    period3_row_product,
    to_dense,
)
from wheelecc.closedform import (
    bordered_B,
    det_B_closed,
    det_E_closed,
    det_T_closed,
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
    p_circulant,
    pinv_E_closed,
    rank_certificate,
    rank_E_closed,
    spectral_radius_closed,
    tridiagonal,
    weight_w,
    wheel_u,
)
from wheelecc.oracle import (
    bareiss_det,
    inertia_exact,
    is_irreducible,
    penrose_check,
    power_iteration_rho,
    rank_certificate_check,
    rank_exact,
)
from wheelecc.ratq import MatrixQ, VectorQ, identity, mat_mul, ones_vector

F = Fraction
SPECTRAL_TOL = 1e-8


def _passed(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_criterion_01_determinant_theorem():
    for n in range(5, 61):
        assert det_E_closed(n) == bareiss_det(ecc_matrix_wheel(n)), f"n={n}"
    _passed("1 determinant formula", "closed == Bareiss for n = 5..60, exact")


def test_criterion_02_tridiagonal_and_bordered_determinants():
    for order in range(1, 61):
        dense = tridiagonal(order, -2, -2, -2)
        assert det_T_closed(order) == bareiss_det(dense), f"T order={order}"
    for n in range(2, 61):
        assert det_B_closed(n) == bareiss_det(bordered_B(n)), f"B n={n}"
    for n in range(5, 61):
        assert det_B_closed(n) == 4 * det_T_closed(n - 4) + 8 * det_B_closed(n - 3)
        assert det_E_closed(n) == -((n - 1) ** 2) * det_T_closed(n - 2) + 6 * (
            n - 1
        ) * det_B_closed(n - 1)
    _passed(
        "2 tridiagonal/bordered lemmas",
        "closed == Bareiss to order 60 and both recurrences exact for n = 5..60",
    )


def test_criterion_03_inertia_theorems():
    for n in range(5, 41):
        got_me = inertia_exact(ecc_matrix_wheel_minus_edge(n))
        assert got_me.inertia == inertia_E_minus_edge_closed(n), f"minus-edge n={n}"
        assert got_me.counts_consistent()
        got = inertia_exact(ecc_matrix_wheel(n))
        assert got.inertia == inertia_E_closed(n), f"full n={n}"
        assert got.counts_consistent()
    _passed("3 inertia formulas", "congruence oracle matches for both matrices, n = 5..40")


def test_criterion_04_ranks():
    for n in range(5, 31):
        assert rank_exact(ecc_matrix_wheel(n)) == rank_E_closed(n), f"E n={n}"
        if n % 3 != 1:
            assert rank_exact(laplacian_tilde(n)) == n - 1, f"Ltilde n={n}"
        elif n >= 7:
            assert rank_exact(laplacian_hat(n)) == n - 3, f"Lhat n={n}"
    _passed("4 rank theorems", "E, Ltilde, Lhat ranks exact for n = 5..30")


def test_criterion_05_inverse_formula():
    for n in range(5, 41):
        if n % 3 == 1:
            continue
        e = ecc_matrix_wheel(n)
        x = inverse_E_closed(n)
        assert mat_mul(e, x) == identity(n), f"EX n={n}"
        assert mat_mul(x, e) == identity(n), f"XE n={n}"
    printed = MatrixQ(
        [
            [-4, 1, 1, 1, 1, 1],
            [1, 1, F(-3, 2), 1, 1, F(-3, 2)],
            [1, F(-3, 2), 1, F(-3, 2), 1, 1],
            [1, 1, F(-3, 2), 1, F(-3, 2), 1],
            [1, 1, 1, F(-3, 2), 1, F(-3, 2)],
            [1, F(-3, 2), 1, 1, F(-3, 2), 1],
        ]
    ).scaled(F(1, 5))
    assert inverse_E_closed(6) == printed
    _passed(
        "5 inverse formula",
        "E X = X E = I exactly for n % 3 != 1 in 5..40; n = 6 entry-for-entry",
    )


def test_criterion_06_moore_penrose_formula():
    for n in range(7, 38, 3):
        assert penrose_check(ecc_matrix_wheel(n), pinv_E_closed(n)) == (True,) * 4, f"n={n}"
    # n = 7 worked example, entry for entry; corner -1 is forced by
    # symmetry of X E (uniqueness of the Moore-Penrose inverse)
    block = to_dense(CirculantQ(VectorQ([0, F(-1, 8), F(1, 8), 0, F(1, 8), F(-1, 8)])))
    rows = [[F(-1)] + [F(1, 6)] * 6]
    for i in range(6):
        rows.append([F(1, 6)] + list(block.row(i)))
    assert pinv_E_closed(7) == MatrixQ(rows)
    _passed(
        "6 Moore-Penrose formula",
        "all four conditions exact for n = 7,10,...,37; n = 7 entry-for-entry",
    )


def test_criterion_07_identity_ledger():
    for n in range(5, 41):
        e = ecc_matrix_wheel(n)
        w = weight_w(n)
        assert e.mul_vec(w) == ones_vector(n).scaled(F(n - 1, 6)), f"Ew n={n}"
        if n % 3 != 1:
            lt = laplacian_tilde(n)
            lhs = mat_mul(lt, e) + identity(n).scaled(2)
            rhs = MatrixQ([[2 * w[i] for _ in range(n)] for i in range(n)])
            assert lhs == rhs, f"LE identity n={n}"
            m = m_circulant(n)
            ones = ones_vector(n - 1)
            assert to_dense(m).mul_vec(ones) == ones.scaled(F(2 - n, 3)), f"Me n={n}"
            z = VectorQ([-4, 2] + [4 - 2 * n] * (n - 4) + [2])
            assert circ_mul(m, CirculantQ(wheel_u(n))) == CirculantQ(z.scaled(F(1, 3)))
        elif n >= 7:
            p = p_circulant(n)
            ones = ones_vector(n - 1)
            assert to_dense(p).mul_vec(ones) == ones.scaled(F(2 - n, 3)), f"Pe n={n}"
            v = CirculantQ(VectorQ([2, -1, -1] * ((n - 1) // 3)))
            assert circ_mul(p, v) == CirculantQ(v.first_row.scaled(F(1 - n, 3))), f"PV n={n}"
            u = CirculantQ(VectorQ([1, 1] + [0] * (n - 4) + [1]))
            zp = VectorQ(
                [5 * n - n * n - 10, 2 * n - n * n + 2]
                + [3, -6, 3] * ((n - 4) // 3)
                + [2 * n - n * n + 2]
            )
            assert circ_mul(p, u) == CirculantQ(zp.scaled(F(1, 3 * (n - 1)))), f"PU n={n}"
    _passed(
        "7 identity ledger",
        "Ew, LE+2I, Me, Pe, PV, PU and the cyclic product identity exact for n = 5..40",
    )


def test_criterion_08_spectral_radius():
    for n in range(5, 61):
        rho_closed = spectral_radius_closed(n).rho_float
        rho_pi = power_iteration_rho(ecc_matrix_wheel(n), tol=1e-12)
        assert abs(rho_pi - rho_closed) < SPECTRAL_TOL, f"n={n}"
    _passed("8 spectral radius", f"power iteration within {SPECTRAL_TOL:g} for n = 5..60")


def test_criterion_09_irreducibility():
    for n in range(5, 31):
        e = ecc_matrix_wheel(n)
        assert is_irreducible(e), f"n={n}"
        if n <= 12:
            acc = identity(n)
            base = identity(n) + e
            for _ in range(n - 1):
                acc = mat_mul(acc, base)
            assert all(x > 0 for row in acc.iter_rows() for x in row), f"literal n={n}"
    _passed(
        "9 irreducibility",
        "support strongly connected for n = 5..30; literal power cross-check at n <= 12",
    )


def test_criterion_10_edm_witnesses():
    for n in range(5, 31):
        z = edm_witness(n)
        e = ecc_matrix_wheel(n)
        assert z.sum() == 0, f"n={n}"
        expected = F(2 * (n - 1)) if n % 2 == 1 else F(2 * (n - 4))
        assert edm_witness_value(n) == expected
        assert z.dot(e.mul_vec(z)) == expected, f"n={n}"
    _passed("10 non-EDM witnesses", "e'z = 0 and z'Ez = 2(n-1) / 2(n-4) exact for n = 5..30")


def test_criterion_11_rank_certificate():
    for n in (10, 13, 16, 19):
        x, c = rank_certificate(n)
        le = mat_mul(laplacian_hat(n), ecc_matrix_wheel(n))
        assert rank_certificate_check(le, x, c), f"n={n}"
    _passed("11 rank certificate", "Lhat E X = C with rank(C) = n-3 for n = 10, 13, 16, 19")


def test_criterion_12_property_suites():
    rng = random.Random(4242)

    # circulant commutativity, linearity, product rule
    for _ in range(120):
        m = rng.randint(2, 8)
        x, y = CirculantQ(rand_vector(rng, m)), CirculantQ(rand_vector(rng, m))
        dx, dy = to_dense(x), to_dense(y)
        assert mat_mul(dx, dy) == mat_mul(dy, dx)
        assert to_dense(circ_mul(x, y)) == mat_mul(dx, dy)
        a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        combined = CirculantQ(x.first_row.scaled(a) + y.first_row.scaled(b))
        assert to_dense(combined) == dx.scaled(a) + dy.scaled(b)

    # period-3 row product against the dense product
    for _ in range(120):
        m = rng.choice([6, 9, 12])
        g = VectorQ(list(rand_vector(rng, 3)) * (m // 3))
        c = CirculantQ(rand_vector(rng, m))
        t1, t2, t3 = period3_row_product(g, c)
        assert VectorQ([t1, t2, t3] * (m // 3)) == mat_mul(g.as_row(), to_dense(c)).row(0)

    # palindromic tail forces a symmetric dense circulant
    for _ in range(120):
        m = rng.randint(4, 12)
        half = [rand_vector(rng, 1)[0] for _ in range(m // 2)]
        v = VectorQ([rand_vector(rng, 1)[0]] + half + list(reversed(half[: (m - 1) // 2])))
        assert is_symmetric_in_last_coords(v)
        assert to_dense(CirculantQ(v)).is_symmetric()

    # congruence invariance of the inertia oracle
    for _ in range(110):
        nn = rng.randint(2, 6)
        s = rand_symmetric(rng, nn)
        g = rand_nonsingular(rng, nn)
        assert inertia_exact(mat_mul(mat_mul(g.transpose(), s), g)).inertia == inertia_exact(s).inertia

    _passed("12 property suites", "4 randomized suites, 110+ cases each, all exact")

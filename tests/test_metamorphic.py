"""Metamorphic relations: each holds without a reference route.

The eliminations: a seeded unit-triangular integer U keeps det, rank and
inertia under the congruence U A U', and any seeded nonsingular integer U
multiplies det by det(U)^2 and keeps rank and inertia (Sylvester's law).
Scaling by c multiplies det by c^n, keeps the rank, and for c < 0 swaps
n_plus and n_minus; c = -1/2 also makes the entries non-integral.  A column
A x appended to A keeps the rank.  Both the symmetric congruence
(`inertia_exact`, which also gives det and rank) and the forward pass
(`bareiss_det`, `rank_exact`) are held to these on the BFS-built E and
E_minus_edge, the bordered tridiagonal B and T = tridiagonal(n, -2, -2, -2),
and at a few larger n on the closed-form L (Ltilde or Lhat) and X, whose
denominators exceed 1.

BFS: relabelling the vertices of a wheel (or of a wheel less a cycle edge)
by a permutation P turns its eccentricity matrix E into P E P', and keeps
det, rank and inertia.

Products: (A B) C = A (B C), (A B)' = B' A' and A I = I A = A on seeded
shapes, 1 x k shapes, all-zero rows and denominators above 1 included, and
on the wheel's own L, E and X.
"""

import math
import random
from fractions import Fraction
from operator import mul

import pytest

from wheelecc import closedform as cf
from wheelecc import graphs
from wheelecc.oracle import bareiss_det, inertia_exact, rank_exact
from wheelecc.ratq import MatrixQ, identity, int_rows, mat_mul

ORDERS = (5, 13, 21, 29, 30)  # every class mod 3, up to n = 30
FORMULA_ORDERS = (13, 26, 36)  # L and X, every class mod 3
ELIMINATION_ORDERS = sorted(set(ORDERS) | set(FORMULA_ORDERS))


def _matrices(n: int):
    """E and E_minus_edge from BFS, B and T at ORDERS; L and X at FORMULA_ORDERS."""
    if n in ORDERS:
        wheel = graphs.build_wheel(n)
        yield graphs.eccentricity_matrix_definitional(graphs.bfs_distances(wheel))
        yield graphs.eccentricity_matrix_definitional(
            graphs.bfs_distances(graphs.delete_cycle_edge(wheel))
        )
        yield cf.bordered_B(n)
        yield cf.tridiagonal(n, -2, -2, -2)
    if n in FORMULA_ORDERS:
        lap = cf.laplacian_hat(n) if n % 3 == 1 else cf.laplacian_tilde(n)
        yield lap
        yield cf.inverse_formula(lap, cf.weight_w(n))


def _unit_lower(rng: random.Random, n: int) -> MatrixQ:
    return MatrixQ.from_ints(
        [1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)] for i in range(n)
    )


def _measures(m: MatrixQ):
    report = inertia_exact(m)
    return report.det, report.inertia, bareiss_det(m), rank_exact(m)


@pytest.mark.parametrize("n", ORDERS)
def test_unit_triangular_congruence_keeps_det_rank_and_inertia(n):
    rng = random.Random(1800 + n)
    for a in _matrices(n):
        u = _unit_lower(rng, n)
        assert _measures(mat_mul(mat_mul(u, a), u.transpose())) == _measures(a)


def _nonsingular(rng: random.Random, n: int) -> tuple[MatrixQ, int]:
    """(U, det U) for U = L D' with a seeded unit-upper L and lower D, diagonal entries of D +-1, +-2.

    One diagonal entry of D is 2, so |det U| >= 2.
    """
    d = [rng.choice((1, -1, 2, -2)) for _ in range(n)]
    d[rng.randrange(n)] = 2
    lower = MatrixQ.from_ints(
        [d[i] if i == j else rng.randint(-1, 1) if i > j else 0 for j in range(n)] for i in range(n)
    )
    return mat_mul(_unit_lower(rng, n).transpose(), lower.transpose()), math.prod(d)


@pytest.mark.parametrize("n", ELIMINATION_ORDERS)
def test_nonsingular_congruence_scales_det_by_det_u_squared_and_keeps_rank_and_inertia(n):
    rng = random.Random(3600 + n)
    for a in _matrices(n):
        u, det_u = _nonsingular(rng, n)
        assert abs(det_u) >= 2
        det, inertia, det_fwd, rank = _measures(a)
        got = _measures(mat_mul(mat_mul(u, a), u.transpose()))
        assert got == (det_u**2 * det, inertia, det_u**2 * det_fwd, rank)


@pytest.mark.parametrize("n", ELIMINATION_ORDERS)
def test_appending_a_column_a_x_keeps_the_rank(n):
    rng = random.Random(4500 + n)
    for a in _matrices(n):
        ints, den = int_rows(a)
        x = [rng.randint(-3, 3) for _ in range(n)]
        wider = MatrixQ.from_ints((r + [sum(map(mul, r, x))] for r in ints), den)
        assert rank_exact(wider) == rank_exact(a)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("c", [2, -2, Fraction(-1, 2)])
def test_scaling_multiplies_det_by_c_to_the_n_and_signs_the_inertia(n, c):
    for a in _matrices(n):
        det, inertia, det_fwd, rank = _measures(a)
        s_det, s_inertia, s_det_fwd, s_rank = _measures(a.scaled(c))
        assert (s_det, s_det_fwd) == (c**n * det, c**n * det_fwd)
        plus, minus = (inertia.n_plus, inertia.n_minus)[:: 1 if c > 0 else -1]
        assert s_inertia.as_tuple() == (plus, minus, inertia.n_zero)
        assert s_rank == rank


def _relabelled(g: graphs.Graph, p: list[int]) -> graphs.Graph:
    """g with vertex v renamed p[v]."""
    adjacency = [()] * g.vertex_count
    for v, nbrs in enumerate(g.adjacency):
        adjacency[p[v]] = tuple(sorted(p[w] for w in nbrs))
    return graphs.Graph(g.vertex_count, tuple(adjacency))


@pytest.mark.parametrize("n", ORDERS)
def test_relabelled_wheel_gives_p_e_p_transpose_with_the_same_det_rank_and_inertia(n):
    rng = random.Random(2700 + n)
    wheel = graphs.build_wheel(n)
    for g in (wheel, graphs.delete_cycle_edge(wheel)):
        p = list(range(n))
        rng.shuffle(p)
        perm = MatrixQ.from_ints([1 if p[j] == i else 0 for j in range(n)] for i in range(n))
        e = graphs.eccentricity_matrix_definitional(graphs.bfs_distances(g))
        relabelled = graphs.eccentricity_matrix_definitional(
            graphs.bfs_distances(_relabelled(g, p))
        )
        assert relabelled == mat_mul(mat_mul(perm, e), perm.transpose())
        assert mat_mul(perm, perm.transpose()) == identity(n)
        assert _measures(relabelled) == _measures(e)


# (rows of A, cols of A = rows of B, cols of B = rows of C, cols of C)
SHAPES = [(1, 1, 1, 1), (1, 6, 1, 4), (5, 1, 3, 1), (1, 3, 4, 1), (2, 3, 4, 5), (6, 6, 6, 6)]


def _random_matrix(rng: random.Random, rows: int, cols: int) -> MatrixQ:
    den = rng.choice((1, 2, 6, 35))
    ints = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        ints[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.5:
        return MatrixQ.from_ints(ints, den)
    return MatrixQ([[Fraction(x, den) for x in r] for r in ints])  # reduced, mixed denominators


def _hold_product_relations(a: MatrixQ, b: MatrixQ, c: MatrixQ) -> None:
    ab = mat_mul(a, b)
    assert mat_mul(a, identity(a.cols)) == a == mat_mul(identity(a.rows), a)
    assert mat_mul(ab, c) == mat_mul(a, mat_mul(b, c))
    assert ab.transpose() == mat_mul(b.transpose(), a.transpose())


@pytest.mark.parametrize("seed", range(24))
def test_products_associate_and_transpose_in_reverse_order(seed):
    rng = random.Random(2700 + seed)
    r, k, m, p = SHAPES[seed] if seed < len(SHAPES) else [rng.randint(1, 7) for _ in range(4)]
    _hold_product_relations(
        _random_matrix(rng, r, k), _random_matrix(rng, k, m), _random_matrix(rng, m, p)
    )


@pytest.mark.parametrize("n", [13, 14, 15])
def test_wheel_products_associate_and_transpose_in_reverse_order(n):
    lap = cf.laplacian_hat(n) if n % 3 == 1 else cf.laplacian_tilde(n)
    e = graphs.eccentricity_matrix_definitional(graphs.bfs_distances(graphs.build_wheel(n)))
    x = cf.inverse_formula(lap, cf.weight_w(n))
    _hold_product_relations(lap, e, x)
    _hold_product_relations(x, e, lap)

"""Metamorphic relations for the elimination oracles: no reference route needed.

A seeded unit-triangular integer U keeps det, rank and inertia under the
congruence U A U'.  Scaling by c multiplies det by c^n, keeps the rank, and
for c < 0 swaps n_plus and n_minus; c = -1/2 also makes the entries
non-integral.  Both the symmetric congruence (`inertia_exact`, which also
gives det and rank) and the forward pass (`bareiss_det`, `rank_exact`) are
held to these on the BFS-built E and E_minus_edge, the bordered tridiagonal
B and T = tridiagonal(n, -2, -2, -2).
"""

import random
from fractions import Fraction

import pytest

from wheelecc import closedform as cf
from wheelecc import graphs
from wheelecc.circulant import tridiagonal
from wheelecc.oracle import bareiss_det, inertia_exact, rank_exact
from wheelecc.ratq import MatrixQ, mat_mul

ORDERS = (5, 13, 21, 29, 30)  # every class mod 3, up to n = 30


def _matrices(n: int):
    wheel = graphs.build_wheel(n)
    yield graphs.eccentricity_matrix_definitional(graphs.bfs_distances(wheel))
    yield graphs.eccentricity_matrix_definitional(
        graphs.bfs_distances(graphs.delete_cycle_edge(wheel))
    )
    yield cf.bordered_B(n)
    yield tridiagonal(n, -2, -2, -2)


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

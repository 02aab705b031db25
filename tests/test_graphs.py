"""Tests for the definitional graph layer (wheels, BFS, eccentricity matrices)."""

import random
from fractions import Fraction

import pytest

from wheelecc.circulant import CirculantQ, to_dense
from wheelecc.closedform import ecc_matrix_wheel, wheel_d
from wheelecc.graphs import (
    Graph,
    GraphError,
    bfs_distances,
    build_wheel,
    delete_cycle_edge,
    eccentricities,
    eccentricity_matrix_definitional,
)
from wheelecc.ratq import MatrixQ, VectorQ, identity, jmatrix


def test_build_wheel_4_is_complete():
    g = build_wheel(4)
    assert g.degrees() == (3, 3, 3, 3)
    assert bfs_distances(g) == jmatrix(4) - identity(4)


def test_build_wheel_7_degree_sequence():
    assert build_wheel(7).degrees() == (6, 3, 3, 3, 3, 3, 3)


def test_build_wheel_5_edge_set():
    g = build_wheel(5)
    expected = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)}
    assert set(g.edges()) == expected


def test_build_wheel_rejects_small_n():
    with pytest.raises(GraphError):
        build_wheel(3)


def test_delete_cycle_edge_w5_degrees():
    g = delete_cycle_edge(build_wheel(5))
    assert g.degrees() == (4, 2, 3, 3, 2)


def test_delete_cycle_edge_distance_between_endpoints():
    for n in range(5, 13):
        d = bfs_distances(delete_cycle_edge(build_wheel(n)))
        assert d[1, n - 1] == 2  # both endpoints still reach each other via the hub


def test_delete_cycle_edge_preserves_eccentricities():
    for n in range(5, 13):
        ecc_w = eccentricities(bfs_distances(build_wheel(n)))
        ecc_me = eccentricities(bfs_distances(delete_cycle_edge(build_wheel(n))))
        assert ecc_w == ecc_me


def test_delete_cycle_edge_rejects_bad_input():
    with pytest.raises(GraphError):
        delete_cycle_edge(build_wheel(4))
    path = Graph(vertex_count=3, adjacency=((1,), (0, 2), (1,)))
    with pytest.raises(GraphError):
        delete_cycle_edge(path)


def test_bfs_w4_complete():
    assert bfs_distances(build_wheel(4)) == jmatrix(4) - identity(4)


def test_bfs_blockform_matches_circulant_distance_block():
    for n in range(5, 13):
        d = bfs_distances(build_wheel(n))
        assert d.row(0) == VectorQ([0] + [1] * (n - 1))
        block = d.submatrix(1, n, 1, n)
        assert block == to_dense(CirculantQ(wheel_d(n)))


def test_bfs_disconnected_reported():
    two_islands = Graph(vertex_count=4, adjacency=((1,), (0,), (3,), (2,)))
    with pytest.raises(GraphError):
        bfs_distances(two_islands)


def test_eccentricities_wheel():
    for n in range(5, 12):
        ecc = eccentricities(bfs_distances(build_wheel(n)))
        assert ecc == VectorQ([1] + [2] * (n - 1))
    assert eccentricities(bfs_distances(build_wheel(4))) == VectorQ([1, 1, 1, 1])


def test_eccentricities_invariant_under_relabeling():
    rng = random.Random(5)
    g = build_wheel(7)
    perm = list(range(7))
    rng.shuffle(perm)
    relabeled_edges = [(perm[i], perm[j]) for i, j in g.edges()]
    adj = [set() for _ in range(7)]
    for i, j in relabeled_edges:
        adj[i].add(j)
        adj[j].add(i)
    h = Graph(vertex_count=7, adjacency=tuple(tuple(sorted(a)) for a in adj))
    ecc_g = sorted(eccentricities(bfs_distances(g)))
    ecc_h = sorted(eccentricities(bfs_distances(h)))
    assert ecc_g == ecc_h


def test_ecc_matrix_w4_equals_distance_matrix():
    d = bfs_distances(build_wheel(4))
    assert eccentricity_matrix_definitional(d) == d


def test_ecc_matrix_w5_block_value():
    d = bfs_distances(build_wheel(5))
    e = eccentricity_matrix_definitional(d)
    assert e == MatrixQ(
        [
            [0, 1, 1, 1, 1],
            [1, 0, 0, 2, 0],
            [1, 0, 0, 0, 2],
            [1, 2, 0, 0, 0],
            [1, 0, 2, 0, 0],
        ]
    )
    assert e.submatrix(1, 5, 1, 5) == to_dense(CirculantQ(VectorQ([0, 0, 2, 0])))


def test_ecc_matrix_matches_closed_form_sweep():
    for n in range(5, 41):
        d = bfs_distances(build_wheel(n))
        assert eccentricity_matrix_definitional(d) == ecc_matrix_wheel(n)


def test_distance_matrix_invariants():
    for n in range(5, 16):
        for g in (build_wheel(n), delete_cycle_edge(build_wheel(n))):
            d = bfs_distances(g)
            assert d.is_symmetric()
            for i in range(n):
                assert d[i, i] == 0
                for j in range(n):
                    for k in range(n):
                        assert d[i, j] <= d[i, k] + d[k, j]


def test_ecc_matrix_row_sums():
    for n in range(5, 21):
        e = eccentricity_matrix_definitional(bfs_distances(build_wheel(n)))
        assert e.row(0).sum() == n - 1
        for i in range(1, n):
            assert e.row(i).sum() == 2 * (n - 4) + 1


def test_minus_edge_nested_principal_submatrices():
    prev = None
    for n in range(5, 21):
        e = eccentricity_matrix_definitional(
            bfs_distances(delete_cycle_edge(build_wheel(n)))
        )
        if prev is not None:
            assert e.submatrix(0, n - 1, 0, n - 1) == prev
        prev = e


def test_eccentricities_rejects_malformed():
    with pytest.raises(GraphError):
        eccentricities(MatrixQ([[0, 1], [1, 1]]))  # nonzero diagonal
    with pytest.raises(GraphError):
        eccentricities(MatrixQ([[0, 1, 2], [1, 0, 1]]))  # not square
    with pytest.raises(GraphError):
        eccentricities(MatrixQ([[0, 1], [2, 0]]))  # not symmetric


def test_distances_are_exact_rationals():
    d = bfs_distances(build_wheel(6))
    assert all(isinstance(x, Fraction) for row in d.iter_rows() for x in row)

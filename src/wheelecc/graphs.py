"""Definitional ground truth: wheel graphs, BFS distances, eccentricity matrices.

Everything here computes straight from graph definitions with no closed
forms, so it can serve as an independent oracle for the formula layer.
Vertices are 0-indexed internally; internal vertex i is the 1-indexed
vertex i+1 of the usual labelling (hub first, then the cycle in order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .ratq import MatrixQ, VectorQ, int_rows


class GraphError(ValueError):
    """Invalid graph input (wrong order, not a wheel, disconnected, ...)."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph as sorted neighbor tuples; no self-loops."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.vertex_count) for j in self.adjacency[i] if i < j]


def _graph_from_edges(n: int, edges) -> Graph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i == j:
            raise GraphError("self-loops are not allowed")
        adj[i].add(j)
        adj[j].add(i)
    return Graph(vertex_count=n, adjacency=tuple(tuple(sorted(a)) for a in adj))


def build_wheel(n: int) -> Graph:
    """Hub vertex 0 adjacent to all others; vertices 1..n-1 form a cycle in order."""
    if n < 4:
        raise GraphError(f"wheel graphs need n >= 4, got {n}")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges.append((1, n - 1))
    return _graph_from_edges(n, edges)


def delete_cycle_edge(g: Graph) -> Graph:
    """Remove the cycle edge between the first and last rim vertices.

    The input must be a wheel on n >= 5 vertices; the deleted edge is the
    one joining internal vertices 1 and n-1 (the 1-indexed pair v2, vn),
    so downstream matrices match the fixed labelling entry for entry.
    """
    n = g.vertex_count
    if n < 5:
        raise GraphError(f"edge deletion needs a wheel with n >= 5, got n = {n}")
    if g != build_wheel(n):
        raise GraphError("input is not a wheel graph with the standard labelling")
    edges = [e for e in g.edges() if e != (1, n - 1)]
    return _graph_from_edges(n, edges)


def bfs_distances(g: Graph) -> MatrixQ:
    """All-pairs shortest path lengths by BFS from every vertex.

    Distances are exact integers, held as an int-backed matrix (see
    `MatrixQ.from_ints`).  Raises GraphError if the graph is disconnected.
    """
    n = g.vertex_count
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if any(d < 0 for d in dist):
            raise GraphError(f"graph is disconnected (vertex {s} does not reach all vertices)")
        rows.append(dist)
    return MatrixQ.from_ints(rows)


def _distance_ints(d: MatrixQ) -> tuple[list[list[int]], int]:
    """d over one positive denominator (`int_rows`), once d is checked to be a distance matrix."""
    if d.rows != d.cols:
        raise GraphError("distance matrix must be square")
    a, den = int_rows(d)
    if any(a[i][i] != 0 for i in range(d.rows)):
        raise GraphError("distance matrix must have zero diagonal")
    if not d.is_symmetric():
        raise GraphError("distance matrix must be symmetric")
    return a, den


def eccentricities(d: MatrixQ) -> VectorQ:
    """Per-vertex eccentricity: the maximum entry of each distance-matrix row."""
    a, den = _distance_ints(d)
    return VectorQ(Fraction(max(r), den) for r in a)


def eccentricity_matrix_definitional(d: MatrixQ) -> MatrixQ:
    """Keep d(i,j) where it attains min(ecc(i), ecc(j)); zero elsewhere.

    Computed on d's integer rows: scaling by a positive denominator keeps
    every maximum and every equality.
    """
    a, den = _distance_ints(d)
    ecc = [max(r) for r in a]
    return MatrixQ.from_ints(
        ([x if i != j and x == min(ecc[i], ecc[j]) else 0 for j, x in enumerate(r)]
         for i, r in enumerate(a)),
        den,
    )

"""Shared graph fixtures and small builders used across the test suite."""

from __future__ import annotations

import itertools

import pytest

from pottspart.graphs import Graph
from reference import is_connected


def cycle(n: int) -> Graph:
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(
        [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges([(i, a + j) for i in range(a) for j in range(b)])


def two_triangles() -> Graph:
    """Two disjoint triangles: {0,1,2} and {3,4,5}."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def triangles_with_bridge() -> Graph:
    """Two triangles joined by the single edge 0-3."""
    return Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)]
    )


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(outer + inner + spokes)


def prism() -> Graph:
    """Triangular prism: two triangles plus a perfect matching."""
    return Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def cube() -> Graph:
    """3-dimensional hypercube on vertices 0..7 (bit flips)."""
    edges = []
    for v in range(8):
        for b in range(3):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return Graph.from_edges(edges)


def all_connected_graphs(n: int):
    """Every labeled connected graph on exactly n vertices (no isolated)."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        seen = set()
        for u, v in edges:
            seen.add(u)
            seen.add(v)
        if len(seen) != n:
            continue
        g = Graph.from_edges(edges, n=n)
        if is_connected(g):
            out.append(g)
    return out


@pytest.fixture(scope="session")
def connected_graphs_4():
    return all_connected_graphs(4)

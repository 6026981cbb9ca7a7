"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    Graph,
    binary_tree_graph,
    complete_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    ring_graph,
    star_graph,
)


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: a long-running test (the whole suite still runs it)"
    )


def shrikhande_graph() -> Graph:
    """The Shrikhande graph, the smallest Doob graph: 16 vertices,
    6-regular, not a ring.  Built as the Cayley graph of Z4 x Z4 with
    connection set ±{(1, 0), (0, 1), (1, 1)}; vertices are the pairs."""
    vertices = [(a, b) for a in range(4) for b in range(4)]
    edges = [
        ((a, b), ((a + da) % 4, (b + db) % 4))
        for a, b in vertices
        for da, db in ((1, 0), (0, 1), (1, 1))
    ]
    return Graph(vertices, edges)


#: Non-ring shapes for the local-step suites (incremental safety
#: monitoring, rank-indexed selection): a tree-like, a planar, a dense
#: tree, and two vertex-transitive graphs.
NONRING_GRAPHS = {
    "path": lambda: path_graph(10),
    "grid": lambda: grid_graph(3, 4),
    "binary-tree": lambda: binary_tree_graph(11),
    "petersen": petersen_graph,
    "shrikhande": shrikhande_graph,
}


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded random generator."""
    return random.Random(12345)


@pytest.fixture
def ring6() -> Graph:
    return ring_graph(6)


@pytest.fixture
def path5() -> Graph:
    return path_graph(5)


@pytest.fixture
def star5() -> Graph:
    return star_graph(5)


@pytest.fixture
def grid3x3() -> Graph:
    return grid_graph(3, 3)


@pytest.fixture
def complete4() -> Graph:
    return complete_graph(4)


@pytest.fixture(params=["ring", "path", "star", "grid", "complete"])
def small_graph(request) -> Graph:
    """A parametrized family of small connected graphs."""
    return {
        "ring": ring_graph(6),
        "path": path_graph(5),
        "star": star_graph(5),
        "grid": grid_graph(3, 3),
        "complete": complete_graph(4),
    }[request.param]


@pytest.fixture
def shrikhande() -> Graph:
    return shrikhande_graph()


@pytest.fixture(params=sorted(NONRING_GRAPHS))
def nonring_graph(request) -> Graph:
    """A parametrized family of small connected non-ring graphs."""
    return NONRING_GRAPHS[request.param]()


@pytest.fixture(params=["ring"] + sorted(NONRING_GRAPHS))
def local_step_graph(request) -> Graph:
    """The ring plus every :data:`NONRING_GRAPHS` shape."""
    if request.param == "ring":
        return ring_graph(12)
    return NONRING_GRAPHS[request.param]()

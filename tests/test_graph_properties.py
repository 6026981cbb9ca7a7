"""Unit tests for structural graph properties (diameter, holes, cyclo, lcp)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    Graph,
    all_pairs_distances,
    center,
    complete_graph,
    cyclomatic_characteristic_upper_bound,
    cyclomatic_number,
    diameter,
    diameter_endpoints,
    eccentricity,
    fundamental_cycles,
    girth,
    grid_graph,
    has_cycle,
    hole_length,
    is_ring,
    is_tree,
    longest_chordless_path_length,
    lollipop_graph,
    path_graph,
    petersen_graph,
    profile,
    radius,
    ring_graph,
    star_graph,
)


class TestDistances:
    def test_diameter_ring(self):
        assert diameter(ring_graph(8)) == 4
        assert diameter(ring_graph(9)) == 4

    def test_diameter_path_and_star(self):
        assert diameter(path_graph(7)) == 6
        assert diameter(star_graph(9)) == 2
        assert diameter(complete_graph(5)) == 1

    def test_diameter_single_vertex(self):
        assert diameter(Graph([0], [])) == 0

    def test_diameter_requires_connected(self):
        with pytest.raises(GraphError):
            diameter(Graph([0, 1], []))

    def test_diameter_endpoints(self):
        u, v = diameter_endpoints(path_graph(6))
        assert {u, v} == {0, 5}

    def test_eccentricity_and_radius(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2
        assert radius(g) == 2
        assert center(g) == [2]

    def test_all_pairs(self):
        g = ring_graph(6)
        dist = all_pairs_distances(g)
        assert dist[0][3] == 3
        assert dist[3][0] == 3


class TestCycles:
    def test_girth(self):
        assert girth(ring_graph(7)) == 7
        assert girth(complete_graph(4)) == 3
        assert girth(path_graph(5)) is None
        assert girth(petersen_graph()) == 5

    def test_has_cycle(self):
        assert has_cycle(ring_graph(4))
        assert not has_cycle(path_graph(4))

    def test_is_tree_and_is_ring(self):
        assert is_tree(path_graph(4))
        assert not is_tree(ring_graph(4))
        assert is_ring(ring_graph(5))
        assert not is_ring(star_graph(5))
        assert not is_ring(Graph([0, 1], [(0, 1)]))

    def test_cyclomatic_number(self):
        assert cyclomatic_number(path_graph(5)) == 0
        assert cyclomatic_number(ring_graph(5)) == 1
        assert cyclomatic_number(complete_graph(4)) == 3

    def test_fundamental_cycles_count(self):
        g = complete_graph(4)
        cycles = fundamental_cycles(g)
        assert len(cycles) == cyclomatic_number(g)
        for cycle in cycles:
            assert len(cycle) >= 3
            # consecutive cycle vertices are adjacent
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert g.has_edge(a, b)


class TestHoleAndLcp:
    def test_hole_of_tree_is_two(self):
        assert hole_length(path_graph(6)) == 2
        assert hole_length(star_graph(6)) == 2

    def test_hole_of_ring_is_n(self):
        assert hole_length(ring_graph(7)) == 7

    def test_hole_of_complete_graph_is_triangle(self):
        assert hole_length(complete_graph(6)) == 3

    def test_hole_of_petersen(self):
        # Petersen: girth 5 and every chordless cycle has length 5 or 6;
        # the longest hole is 6.
        assert hole_length(petersen_graph()) == 6

    def test_hole_of_grid(self):
        # In the 2x3 grid the outer 6-cycle has the middle rung as a chord,
        # so the longest hole is a unit square; in the 3x3 grid the outer
        # 8-cycle avoids the centre vertex and is chordless.
        assert hole_length(grid_graph(2, 3)) == 4
        assert hole_length(grid_graph(3, 3)) == 8

    def test_hole_of_long_ring_is_exact(self):
        # Depth-first search as deep as the ring: no recursion limit.
        assert hole_length(ring_graph(1000)) == 1000

    def test_hole_budget_exhaustion_falls_back_to_n(self):
        assert hole_length(ring_graph(50), budget=10) == 50
        assert hole_length(petersen_graph(), budget=0) == 10

    def test_cyclo_upper_bound(self):
        assert cyclomatic_characteristic_upper_bound(path_graph(5)) == 2
        assert cyclomatic_characteristic_upper_bound(ring_graph(6)) == 6
        assert cyclomatic_characteristic_upper_bound(complete_graph(5)) <= 5

    def test_lcp_path(self):
        # The whole path is chordless: lcp = n - 1 edges.
        assert longest_chordless_path_length(path_graph(6)) == 5

    def test_lcp_complete_graph(self):
        # Any path of 2 edges in a complete graph has a chord.
        assert longest_chordless_path_length(complete_graph(5)) == 1

    def test_lcp_ring(self):
        # Removing one vertex of the cycle leaves a chordless path.
        assert longest_chordless_path_length(ring_graph(6)) == 4

    def test_lcp_long_graphs_do_not_recurse(self):
        # Both exhaust the default budget and fall back to n.
        assert longest_chordless_path_length(path_graph(1200)) == 1200
        assert longest_chordless_path_length(ring_graph(1500)) == 1500

    def test_lcp_budget_exhaustion_falls_back_to_n(self):
        assert longest_chordless_path_length(path_graph(40), budget=10) == 40
        assert longest_chordless_path_length(petersen_graph(), budget=0) == 10


class TestProfile:
    def test_profile_ring(self):
        p = profile(ring_graph(6))
        assert p.n == 6
        assert p.m == 6
        assert p.diameter == 3
        assert p.girth == 6
        assert p.hole == 6
        assert not p.is_tree
        assert p.is_ring
        d = p.as_dict()
        assert d["diameter"] == 3

    def test_profile_without_exact_np_hard(self):
        p = profile(lollipop_graph(4, 3), exact_np_hard=False)
        assert p.hole is None
        assert p.lcp is None
        assert p.cyclo_upper_bound is not None

    def test_profile_requires_connected(self):
        with pytest.raises(GraphError):
            profile(Graph([0, 1], []))


class TestShrikhandeFixture:
    def test_is_the_shrikhande_graph(self, shrikhande):
        # srg(16, 6, 2, 2) with 192 automorphisms — the 4x4 rook's graph
        # shares the parameters but has 1152.
        assert (shrikhande.n, shrikhande.m) == (16, 48)
        assert {shrikhande.degree(v) for v in shrikhande.vertices} == {6}
        assert len(shrikhande.automorphisms()) == 192
        assert diameter(shrikhande) == 2
        assert not is_ring(shrikhande)

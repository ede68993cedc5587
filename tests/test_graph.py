import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (UnknownEdge, adjacency_masks, complete_graph, components,
                      cycle_graph, is_d_matching, make_corpus, min_cut_reference,
                      path_graph, vertex_mask, vertex_set)
from dcut import (Bipartition, DisconnectedGraph, Graph, InvalidBipartition,
                  connected_components, edge_cut, global_min_cut,
                  is_connected, is_d_cut)
from dcut.generators import grid_graph, two_cliques_bridged
from dcut.graph import _max_flow, lowest_component, mask_components


def bipartition(g, side):
    return Bipartition.of(g, side)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize("n", ["3", 3.0, None, True])
    def test_rejects_non_int_vertex_count(self, n):
        with pytest.raises(TypeError, match=re.escape(
                f"vertex count must be an int, got {n!r}")):
            Graph(n, [])

    def test_edges_sorted_and_adjacency_consistent(self):
        g = Graph(3, [(2, 1), (0, 2)])
        assert g.edges == ((0, 2), (1, 2))
        assert g.adj[2] == {0, 1}

    def test_neighbour_masks_match_adjacency(self):
        graphs = make_corpus(40, seed=41) + [Graph(0, []), Graph(3, []),
                                             Graph(70, [(0, 69), (5, 64)])]
        for g in graphs:
            assert g.adj_masks == tuple(adjacency_masks(g))


class TestConnectedComponents:
    def test_singleton(self):
        assert connected_components(Graph(1, [])) == [frozenset({0})]

    def test_path_is_one_component(self):
        assert connected_components(path_graph(3)) == [frozenset({0, 1, 2})]

    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_empty_graph(self):
        assert connected_components(Graph(0, [])) == []
        assert is_connected(Graph(0, []))

    def test_single_vertex_is_connected(self):
        assert is_connected(Graph(1, []))

    def test_edgeless_graph_is_all_singletons(self):
        g = Graph(4, [])
        assert connected_components(g) == [frozenset({v}) for v in range(4)]
        assert not is_connected(g)

    def test_disconnected_graph_by_least_member(self):
        g = Graph(7, [(5, 1), (1, 3), (0, 6), (2, 4)])
        assert connected_components(g) == [
            frozenset({0, 6}), frozenset({1, 3, 5}), frozenset({2, 4})]
        assert not is_connected(g)
        assert is_connected(path_graph(5))

    def test_matches_components_reference(self):
        rng = random.Random(43)
        sparse = [Graph(n, rng.sample(list(itertools.combinations(range(n), 2)),
                                      min(n - 1, n * (n - 1) // 2)))
                  for n in range(2, 14) for _ in range(3)]
        for g in make_corpus(40, seed=47) + sparse:
            expected = components(g.adj, g.vertices)
            assert connected_components(g) == expected
            assert is_connected(g) == (len(expected) == 1)


class TestComponents:
    def test_induced_on_the_given_vertices(self):
        # 1 joins 0 and 2 in the graph, but it is not among the vertices
        assert components(path_graph(3).adj, [0, 2]) == [
            frozenset({0}), frozenset({2})]

    def test_follows_input_order(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert components(g.adj, [3, 4, 1, 2, 0]) == [
            frozenset({2, 3}), frozenset({4}), frozenset({0, 1})]

    def test_dict_adjacency(self):
        adj = {5: {6}, 6: {5, 7}, 7: {6}, 9: set()}
        assert components(adj, [9, 7, 5]) == [
            frozenset({9}), frozenset({7}), frozenset({5})]
        assert components(adj, [7, 5, 6]) == [frozenset({5, 6, 7})]

    def test_empty_input(self):
        assert components(path_graph(3).adj, []) == []


class TestMaskComponents:
    """The mask component search against ``components`` on the sorted
    members, which lists components by least member as the masks must."""

    def assert_matches(self, graph, mask):
        expected = [vertex_mask(c)
                    for c in components(graph.adj, sorted(vertex_set(mask)))]
        assert mask_components(adjacency_masks(graph), mask) == expected, \
            (graph.n, graph.edges, mask)

    def test_matches_components_on_random_masks(self):
        rng = random.Random(17)
        sparse = []  # at most n edges: usually disconnected, often isolated bits
        for n in range(2, 12):
            pairs = list(itertools.combinations(range(n), 2))
            sparse += [Graph(n, rng.sample(pairs, rng.randint(0, min(n, len(pairs)))))
                       for _ in range(4)]
        for g in make_corpus(40, seed=23) + sparse:
            for _ in range(5):
                self.assert_matches(g, rng.getrandbits(g.n))
            self.assert_matches(g, (1 << g.n) - 1)

    def test_empty_mask(self):
        assert mask_components(adjacency_masks(path_graph(3)), 0) == []

    def test_isolated_bits(self):
        # no edges, and on the path only non-adjacent bits: one component each
        assert mask_components(adjacency_masks(Graph(6, [])), 0b101101) == [
            0b1, 0b100, 0b1000, 0b100000]
        assert mask_components(adjacency_masks(path_graph(6)), 0b10101) == [
            0b1, 0b100, 0b10000]
        assert mask_components(adjacency_masks(path_graph(6)), 0b110110) == [
            0b110, 0b110000]


class TestLowestComponent:
    def test_is_the_component_of_the_lowest_member(self):
        # the component ``components`` lists first on the sorted members
        rng = random.Random(29)
        for g in make_corpus(40, seed=31):
            adj = adjacency_masks(g)
            for _ in range(5):
                mask = rng.getrandbits(g.n) | 1 << rng.randrange(g.n)
                first = components(g.adj, sorted(vertex_set(mask)))[0]
                assert lowest_component(adj, mask) == vertex_mask(first), \
                    (g.n, g.edges, mask)

    def test_empty_mask_and_lone_bit(self):
        adj = adjacency_masks(path_graph(5))
        assert lowest_component(adj, 0) == 0
        assert lowest_component(adj, 0b11010) == 0b10
        assert lowest_component(adj, 0b11100) == 0b11100

    def test_seed_grows_the_components_it_meets(self):
        adj = adjacency_masks(path_graph(6))  # {0, 1, 2} and {4, 5} in the mask
        assert lowest_component(adj, 0b110111, 0b100000) == 0b110000
        assert lowest_component(adj, 0b110111, 0b100001) == 0b110111
        assert lowest_component(adj, 0b110111, 0) == 0
        rng = random.Random(59)
        for g in make_corpus(30, seed=61):
            adj = adjacency_masks(g)
            for _ in range(5):
                mask = rng.getrandbits(g.n)
                seed = mask & rng.getrandbits(g.n)
                comps = components(g.adj, sorted(vertex_set(mask)))
                expected = sum(vertex_mask(c) for c in comps if vertex_mask(c) & seed)
                assert lowest_component(adj, mask, seed) == expected


class TestEdgeCut:
    def test_empty_side_gives_empty_cut(self):
        g = cycle_graph(4)
        assert edge_cut(g, bipartition(g, ())) == []

    def test_c4_opposite_pairs(self):
        g = cycle_graph(4)
        assert edge_cut(g, bipartition(g, {0, 1})) == [(0, 3), (1, 2)]

    def test_k4_two_two(self):
        g = complete_graph(4)
        assert len(edge_cut(g, bipartition(g, {0, 1}))) == 4

    def test_invalid_bipartition(self):
        g = cycle_graph(4)
        with pytest.raises(InvalidBipartition):
            edge_cut(g, Bipartition(frozenset({0}), frozenset({0, 1, 2, 3})))
        with pytest.raises(InvalidBipartition):
            edge_cut(g, Bipartition(frozenset({0}), frozenset({2, 3})))

    def test_symmetric_in_sides(self):
        g = cycle_graph(5)
        p = bipartition(g, {0, 2})
        assert edge_cut(g, p) == edge_cut(g, Bipartition(p.side_b, p.side_a))


class TestIsDCut:
    def test_empty_side_is_not_a_cut(self):
        g = cycle_graph(4)
        assert not is_d_cut(g, bipartition(g, ()), 1)

    def test_c4_matching_cut(self):
        g = cycle_graph(4)
        assert is_d_cut(g, bipartition(g, {0, 1}), 1)

    def test_k4_needs_d_two(self):
        g = complete_graph(4)
        p = bipartition(g, {0, 1})
        assert not is_d_cut(g, p, 1)
        assert is_d_cut(g, p, 2)

    def test_every_split_is_a_cut_when_d_covers_max_degree(self):
        g = cycle_graph(5)
        d = max(g.degree(v) for v in g.vertices)
        for r in range(1, 5):
            for side in itertools.combinations(range(5), r):
                assert is_d_cut(g, bipartition(g, side), d)


class TestIsDMatching:
    def test_empty_edge_set(self):
        assert is_d_matching(cycle_graph(4), [], 1)

    def test_two_disjoint_c4_edges(self):
        assert is_d_matching(cycle_graph(4), [(0, 1), (2, 3)], 1)

    def test_shared_endpoint(self):
        assert not is_d_matching(cycle_graph(4), [(0, 1), (1, 2)], 1)

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            is_d_matching(cycle_graph(4), [(0, 2)], 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_d_cut_equals_d_matching_of_cut(data):
    n = data.draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    g = Graph(n, edges)
    side = data.draw(st.sets(st.integers(0, n - 1)))
    d = data.draw(st.integers(1, 3))
    p = bipartition(g, side)
    expected = p.is_cut and is_d_matching(g, edge_cut(g, p), d)
    assert is_d_cut(g, p, d) == expected


def brute_min_cut(g):
    best = None
    for r in range(1, g.n):
        for side in itertools.combinations(range(g.n), r):
            size = len(edge_cut(g, bipartition(g, side)))
            if best is None or size < best:
                best = size
    return best


class TestGlobalMinCut:
    def test_single_edge(self):
        assert global_min_cut(path_graph(2))[0] == 1

    def test_c4_min_cut_is_two(self):
        assert global_min_cut(cycle_graph(4))[0] == 2

    def test_k4(self):
        assert global_min_cut(complete_graph(4))[0] == 3

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            global_min_cut(Graph(4, [(0, 1), (2, 3)]))

    def test_edgeless_graph_rejected(self):
        with pytest.raises(DisconnectedGraph):
            global_min_cut(Graph(3, []))

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_bipartition_below_two_vertices(self, n):
        assert global_min_cut(Graph(n, [])) == (None, None)

    def test_witness_side_holds_vertex_0(self):
        # side A is what vertex 0 reaches in the residual of a minimum flow
        for g in make_corpus(30, seed=53):
            size, part = global_min_cut(g)
            assert 0 in part.side_a and part.is_cut
            assert len(edge_cut(g, part)) == size

    def test_cut_witness_achieves_value(self):
        size, part = global_min_cut(cycle_graph(6))
        assert size == 2
        assert len(edge_cut(cycle_graph(6), part)) == 2

    def test_flow_stops_at_its_limit(self):
        g = complete_graph(5)
        assert _max_flow(g, 0, 1)[0] == 4
        assert _max_flow(g, 0, 1, 2)[0] == 2
        assert _max_flow(g, 0, 1, 6)[0] == 4

    def test_capped_flows_match_uncapped_reference(self):
        # each flow stops at the best value so far, which cannot change the
        # value or the first minimiser, whose residual gives side A
        graphs = (make_corpus(60, seed=20250808)
                  + [grid_graph(r, c) for r, c in ((2, 7), (3, 6), (4, 5))]
                  + [two_cliques_bridged(q) for q in (4, 9, 10)])
        for g in graphs:
            size, part = global_min_cut(g)
            assert (size, part.side_a) == min_cut_reference(g)

    def test_agrees_with_brute_force(self):
        from dcut.generators import gnm_random
        for seed in range(12):
            n = 4 + seed % 7
            g = gnm_random(n, min(2 * n - 3, n * (n - 1) // 2), seed=seed)
            size, part = global_min_cut(g)
            assert size == brute_min_cut(g)
            assert len(edge_cut(g, part)) == size

import itertools
import random

import pytest

from conftest import (complete_graph, cycle_graph, gray_reference_min_dcut,
                      make_corpus, path_graph)
from dcut import (Bipartition, Graph, brute_force_min_dcut, edge_cut,
                  connected_components, is_d_cut, solve)
from dcut.generators import gnm_random
from dcut.graph import SizeLimitExceeded


def slow_reference_min(g, d):
    """Direct double-check via graph-core predicates, no incremental state."""
    best = None
    for r in range(1, g.n):
        for side in itertools.combinations(range(g.n), r):
            p = Bipartition.of(g, side)
            if is_d_cut(g, p, d):
                size = len(edge_cut(g, p))
                if best is None or size < best:
                    best = size
    return best


class TestBruteForce:
    def test_single_edge(self):
        assert brute_force_min_dcut(path_graph(2), 1).min_cut_size == 1

    def test_k4_has_no_matching_cut(self):
        res = brute_force_min_dcut(complete_graph(4), 1)
        assert res.min_cut_size is None and res.best_cut is None

    def test_c4_opposite_edges(self):
        assert brute_force_min_dcut(cycle_graph(4), 1).min_cut_size == 2

    def test_single_vertex(self):
        assert brute_force_min_dcut(Graph(1, []), 1).min_cut_size is None

    def test_best_cut_revalidates(self):
        for g in [cycle_graph(6), path_graph(5)]:
            for d in (1, 2):
                res = brute_force_min_dcut(g, d)
                assert is_d_cut(g, res.best_cut, d)
                assert len(edge_cut(g, res.best_cut)) == res.min_cut_size

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            brute_force_min_dcut(path_graph(8), 1, max_vertices=6)

    def test_matches_slow_reference(self):
        for g in make_corpus(15, seed=321, n_lo=3, n_hi=11):
            for d in (1, 2):
                assert brute_force_min_dcut(g, d).min_cut_size == \
                    slow_reference_min(g, d)


class TestAgainstGrayReference:
    """The whole result, minimum and first minimiser in Gray order, equals
    the cross-degree walk's."""

    @staticmethod
    def assert_matches(graphs, ds):
        for g in graphs:
            for d in ds:
                assert brute_force_min_dcut(g, d) == gray_reference_min_dcut(g, d), \
                    (g, d)

    def test_corpus(self):
        self.assert_matches(make_corpus(40, seed=20250808), (1, 2, 3))

    def test_tiny(self):
        self.assert_matches([Graph(0, []), Graph(1, []), Graph(2, []),
                             Graph(2, [(0, 1)])], (1, 2))

    def test_edgeless_and_disconnected(self):
        rng = random.Random(13)
        graphs = [Graph(n, []) for n in (3, 7)]
        graphs.append(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
        for n in (5, 8, 10, 11, 12):
            pairs = list(itertools.combinations(range(n), 2))
            graphs += [Graph(n, [e for e in rng.sample(pairs, n) if max(e) < n - 2]),
                       Graph(n, [e for e in rng.sample(pairs, 2 * n) if min(e) > 0])]
        assert all(len(connected_components(g)) > 1 for g in graphs)
        self.assert_matches(graphs, (1, 2, 3))

    def test_complete_graphs_have_no_d_cut(self):
        # K_n has no d-cut when n > 2d, so every lane runs the d check.
        graphs = [complete_graph(n) for n in range(7, 13)]
        self.assert_matches(graphs, (1, 2, 3))
        assert all(brute_force_min_dcut(g, 3).min_cut_size is None for g in graphs)

    def test_d_at_or_above_max_degree(self):
        for g in make_corpus(20, seed=77) + [complete_graph(6)]:
            top = max(len(g.adj[v]) for v in g.vertices)
            self.assert_matches([g], (top, top + 1))

    def test_larger_random_graphs(self):
        # n = 9 scans one block of lanes, n = 10 two, the second reversed;
        # n = 19 and 20 are the oracle's top sizes.
        graphs = [gnm_random(n, 2 * n, seed=n) for n in (9, 10, 16, 17, 18, 19, 20)]
        graphs += [gnm_random(n, 3 * n, seed=n + 1) for n in (19, 20)]
        self.assert_matches(graphs, (1, 2))

    def test_first_of_tied_minima_in_a_reversed_block(self):
        # K4s around 9 and around 8 joined by the path 2-6-7-3: the three
        # matching cuts of size 1 all walk 8, so they lie in block 1, whose
        # lanes run descending, and the first of them in Gray order wins.
        cliques = [e for q in ((9, 0, 1, 2), (8, 3, 4, 5))
                   for e in itertools.combinations(q, 2)]
        graph = Graph(10, cliques + [(2, 6), (6, 7), (7, 3)])
        self.assert_matches([graph], (1,))
        assert brute_force_min_dcut(graph, 1).min_cut_size == 1

    def test_blocks_skipped_by_vertices_over_d(self):
        # Vertex 11 has three neighbours among the vertices >= 8, so at
        # d = 1 every block that walks two of them is skipped; so is every
        # block that walks 8 without its neighbours 9 and 10.
        extra = {(8, 11), (9, 11), (10, 11), (8, 9), (8, 10)}
        graphs = [Graph(12, set(gnm_random(12, m, seed=m).edges) | extra)
                  for m in (14, 18, 24)]
        # The only matching cut of size 1 walks the K4 {0, 8, 9, 10}, whose
        # vertices >= 8 share the walked side: its block must be scanned.
        ring = [1, 2, 3, 4, 5, 6, 7, 11]
        graphs.append(Graph(12, list(itertools.combinations((0, 8, 9, 10), 2))
                            + list(zip(ring, ring[1:] + ring[:1])) + [(0, 1)]))
        self.assert_matches(graphs, (1, 2))


def oracle_min(graph, d):
    return brute_force_min_dcut(graph, d).min_cut_size


class TestOracleDecide:
    def test_disconnected_is_yes_even_at_k0(self):
        assert oracle_min(Graph(4, [(0, 1), (2, 3)]), 1) == 0

    def test_c4_k1_no(self):
        assert oracle_min(cycle_graph(4), 1) == 2

    def test_k4_d2_k4_yes(self):
        assert oracle_min(complete_graph(4), 2) == 4

    def test_monotone_in_k_and_d(self):
        for g in make_corpus(10, seed=555, n_lo=4, n_hi=9):
            prev_d = None
            for d in (1, 2, 3):
                best = oracle_min(g, d)
                answers = [best is not None and best <= k for k in range(7)]
                for earlier, later in zip(answers, answers[1:]):
                    assert later or not earlier  # yes stays yes as k grows
                if prev_d is not None:
                    for lo, hi in zip(prev_d, answers):
                        assert hi or not lo  # yes stays yes as d grows
                prev_d = answers


def relabelled(graph, seed):
    """The graph with its vertices renamed by a seeded permutation."""
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def glued_clique(graph, d):
    """The graph with a K_{2d+1} glued onto vertex 0.  No d-cut splits the
    clique, so it stays on vertex 0's side and adds no cut edge."""
    clique = [0, *range(graph.n, graph.n + 2 * d)]
    return Graph(graph.n + 2 * d,
                 list(graph.edges) + list(itertools.combinations(clique, 2)))


class TestMetamorphic:
    """The oracle's minimum and ``solve()``'s answers do not change under a
    relabelling of the vertices or a glued K_{2d+1}."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_relabelled_and_glued(self, d):
        graphs = make_corpus(30, seed=2468, n_hi=17 - 2 * d)
        for i, g in enumerate(graphs):
            minimum = oracle_min(g, d)
            answers = [solve(g, k, d).answer for k in range(5)]
            assert answers == [minimum is not None and minimum <= k for k in range(5)]
            for variant in (relabelled(g, seed=i), glued_clique(g, d)):
                assert variant.n <= 17
                assert oracle_min(variant, d) == minimum, (g, d)
                assert [solve(variant, k, d).answer for k in range(5)] == answers, (g, d)

import itertools
import random

import pytest

from conftest import (complete_graph, cycle_graph, gray_reference_min_dcut,
                      make_corpus, path_graph)
from dcut import (Bipartition, Graph, brute_force_min_dcut, edge_cut,
                  connected_components, is_d_cut)
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
        for n in (5, 8, 11):
            pairs = list(itertools.combinations(range(n), 2))
            graphs += [Graph(n, [e for e in rng.sample(pairs, n) if max(e) < n - 2]),
                       Graph(n, [e for e in rng.sample(pairs, 2 * n) if min(e) > 0])]
        assert all(len(connected_components(g)) > 1 for g in graphs)
        self.assert_matches(graphs, (1, 2, 3))

    def test_complete_graphs_have_no_d_cut(self):
        # K_n has no d-cut when n > 2d, so every step runs the d check.
        graphs = [complete_graph(n) for n in range(7, 12)]
        self.assert_matches(graphs, (1, 2, 3))
        assert all(brute_force_min_dcut(g, 3).min_cut_size is None for g in graphs)

    def test_d_at_or_above_max_degree(self):
        for g in make_corpus(20, seed=77) + [complete_graph(6)]:
            top = max(len(g.adj[v]) for v in g.vertices)
            self.assert_matches([g], (top, top + 1))

    def test_larger_random_graphs(self):
        graphs = [gnm_random(n, 2 * n, seed=n) for n in (16, 17, 18)]
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

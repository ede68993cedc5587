import importlib.util
import math
import os
import random
import time
from collections import Counter

import pytest

from conftest import (adjacency_masks, complete_graph, contexts_reference,
                      cycle_graph, gray_small_cuts, local_edges, loglog_slope,
                      make_corpus, path_graph, verify_reference)
from dcut import (Graph, construct, derive_contexts, grid_graph, parse,
                  serialize, two_cliques_bridged, verify)
from dcut import decomposition
from dcut.decomposition import (AxiomViolation, DecompositionError,
                                RootedDecomposition)
from dcut.generators import gnm_random
from dcut.graph import DisconnectedGraph, SizeLimitExceeded, is_connected
from dcut.textio import ParseError


DIGEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "solver_digest.py")


def single_bag(graph):
    return RootedDecomposition(graph.n, (frozenset(graph.vertices),), (None,))


def views(contexts):
    """Each context's node, bag, adhesion, cone, interior (cone minus
    adhesion) and bag edges, with the vertex sets as frozensets."""
    return [(c.node, c.bag, c.adhesion, c.cone, c.cone - c.adhesion, c.bag_edges)
            for c in contexts]


def load_digest():
    spec = importlib.util.spec_from_file_location("solver_digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRootedDecomposition:
    def test_rejects_two_roots(self):
        with pytest.raises(ValueError, match="root"):
            RootedDecomposition(2, (frozenset({0}), frozenset({1})), (None, None))

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle|root"):
            RootedDecomposition(2, (frozenset({0}), frozenset({1})), (1, 0))

    def test_rejects_too_many_nodes(self):
        bags = tuple(frozenset({0}) for _ in range(4))
        with pytest.raises(ValueError, match="node count"):
            RootedDecomposition(2, bags, (None, 0, 0, 0))

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            RootedDecomposition(2, (frozenset({5}),), (None,))

    def test_children_and_postorder(self):
        td = RootedDecomposition(
            3, (frozenset({0}), frozenset({0, 1}), frozenset({0, 2})), (None, 0, 0))
        assert td.children()[0] == (1, 2)
        order = td.postorder()
        assert order[-1] == 0 and set(order) == {0, 1, 2}


class TestDeriveContexts:
    def test_single_node(self):
        g = path_graph(3)
        ctxs = derive_contexts(g, single_bag(g))
        ctx = ctxs[0]
        assert ctx.adhesion == frozenset()
        assert ctx.cone == frozenset({0, 1, 2})
        assert ctx.cone - ctx.adhesion == frozenset({0, 1, 2})
        assert set(local_edges(g, ctx)) == set(g.edges)

    def test_two_node_chain(self):
        g = path_graph(3)  # 0-1-2
        td = RootedDecomposition(3, (frozenset({0, 1}), frozenset({1, 2})), (None, 0))
        root, child = derive_contexts(g, td)
        assert child.adhesion == frozenset({1})
        assert child.cone - child.adhesion == frozenset({2})
        assert child.cone == frozenset({1, 2})
        assert root.cone == frozenset({0, 1, 2})
        # local graph of the child drops edges internal to its adhesion
        assert set(local_edges(g, child)) == {(1, 2)}

    def test_leaf_bag_inside_parent_has_empty_interior(self):
        g = path_graph(2)
        td = RootedDecomposition(2, (frozenset({0, 1}), frozenset({0})), (None, 0))
        _, leaf = derive_contexts(g, td)
        assert leaf.cone - leaf.adhesion == frozenset()
        assert leaf.adhesion == frozenset({0})

    def test_adhesion_internal_edges_excluded_from_local_graph(self):
        g = cycle_graph(4)
        td = RootedDecomposition(
            4, (frozenset({0, 1}), frozenset({0, 1, 2, 3})), (None, 0))
        _, child = derive_contexts(g, td)
        assert (0, 1) not in local_edges(g, child)
        assert child.bag_edges == ((0, 3), (1, 2), (2, 3))

    def test_axiom_violation_raises_with_counterexample(self):
        g = cycle_graph(4)
        td = RootedDecomposition(
            4, (frozenset({0, 1}), frozenset({2, 3})), (None, 0))
        with pytest.raises(AxiomViolation) as err:
            derive_contexts(g, td)
        assert err.value.kind == "uncovered-edge"


def random_disconnected(rng, n):
    """A seeded graph on n vertices with at most n edges, so usually
    disconnected, often with isolated vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, rng.randint(0, min(n, len(pairs)))))


class TestSmallCuts:
    """The spanning-forest cut search against the Gray-code scan of every
    bipartition in ``conftest``."""

    def assert_same_cuts(self, graph):
        adj = adjacency_masks(graph)
        whole = (1 << graph.n) - 1
        for k in range(7):
            assert set(decomposition._small_cuts(adj, whole, k)) == \
                set(gray_small_cuts(adj, k)), \
                (graph.n, graph.edges, k)

    def test_matches_reference_on_corpus(self):
        for g in make_corpus(60, seed=20250808):
            self.assert_same_cuts(g)

    def test_matches_reference_on_disconnected_graphs(self):
        rng = random.Random(5)
        graphs = [random_disconnected(rng, rng.randint(2, 11)) for _ in range(80)]
        assert sum(not is_connected(g) for g in graphs) >= 50
        assert sum(any(not g.adj[v] for v in g.vertices) for g in graphs) >= 40
        for g in graphs:
            self.assert_same_cuts(g)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_matches_reference_with_no_edge_or_one(self, n):
        self.assert_same_cuts(Graph(n, []))
        if n >= 2:
            self.assert_same_cuts(Graph(n, [(0, n - 1)]))
            self.assert_same_cuts(Graph(n, [(0, 1)]))

    def test_matches_reference_on_sub_pieces(self):
        # the reference scans the induced subgraph on local indices, whose
        # cuts, mapped back to vertex ids, keep their sorted order
        rng = random.Random(31)
        for g in make_corpus(40, seed=41):
            adj = adjacency_masks(g)
            for _ in range(3):
                piece = rng.getrandbits(g.n)
                order = [v for v in g.vertices if piece >> v & 1]
                local = [sum(1 << i for i, w in enumerate(order) if w in g.adj[v])
                         for v in order]
                for k in range(7):
                    expected = sorted(
                        (sum(1 << v for i, v in enumerate(order) if mask >> i & 1), cut)
                        for mask, cut in gray_small_cuts(local, k))
                    assert decomposition._small_cuts(adj, piece, k) == expected, \
                        (g.n, g.edges, piece, k)

    def test_sorted_by_mask_without_duplicates(self):
        rng = random.Random(11)
        graphs = make_corpus(20, seed=3) + [random_disconnected(rng, 10)
                                            for _ in range(20)]
        for g in graphs:
            for k in range(7):
                masks = [mask for mask, _ in decomposition._small_cuts(
                    adjacency_masks(g), (1 << g.n) - 1, k)]
                assert all(a < b for a, b in zip(masks, masks[1:]))
                assert all(0 < mask < 1 << (g.n - 1) for mask in masks)


@pytest.fixture
def no_cut_search(monkeypatch):
    """Makes any call of the cut search fail the test."""
    def fail(*args):
        raise AssertionError("cut search ran")

    monkeypatch.setattr(decomposition, "_small_cuts", fail)


class TestVerify:
    def test_single_vertex_passes(self):
        g = Graph(1, [])
        report = verify(g, single_bag(g), 1)
        assert report.passed

    def test_p3_single_bag_k1_passes(self):
        report = verify(path_graph(3), single_bag(path_graph(3)), 1)
        assert report.passed

    def test_missing_edge_fails_axioms_with_counterexample(self):
        g = cycle_graph(4)
        td = RootedDecomposition(4, (frozenset({0, 1}), frozenset({2, 3})), (None, 0))
        report = verify(g, td, 2)
        assert not report.passed
        assert report["axioms"].status == "fail"
        assert report["axioms"].detail[0] == "uncovered-edge"

    def test_oversized_adhesion_fails(self):
        g = complete_graph(4)
        td = RootedDecomposition(
            4, (frozenset({0, 1, 2, 3}), frozenset({0, 1, 2})), (None, 0))
        report = verify(g, td, 1)
        assert report["adhesion-size"].status == "fail"

    def test_non_compact_leaf_fails(self):
        g = path_graph(2)
        td = RootedDecomposition(2, (frozenset({0, 1}), frozenset({0})), (None, 0))
        report = verify(g, td, 1)
        assert report["compactness"].status == "fail"

    def test_breakable_bag_fails(self):
        # two triangles joined by a bridge: the single full bag is split
        # 3|3 by the order-1 bridge cut
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        report = verify(g, single_bag(g), 1)
        assert report["unbreakable-bags"].status == "fail"
        assert report["unbreakable-bags"].detail == (
            "breakable-bag", (0, frozenset({0, 1, 2}), 1))

    def test_bag_of_2k_plus_2_vertices_is_searched(self):
        # the middle edge splits the path's four vertices 2|2 at k = 1
        g = path_graph(4)
        assert verify(g, single_bag(g), 1)["unbreakable-bags"].detail == (
            "breakable-bag", (0, frozenset({0, 1}), 1))

    def test_breakable_bag_of_disconnected_graph_fails_at_least_cut(self):
        # the edge 0-2 and the pendant 1-3 on the triangle 3-4-5: {0, 2}
        # (cut 0) and {0, 1, 2} (cut 1) both split the bag 3|3 at k = 1;
        # the report names the one of least side mask
        g = Graph(6, [(0, 2), (1, 3), (3, 4), (4, 5), (3, 5)])
        report = verify(g, single_bag(g), 1)
        assert report["unbreakable-bags"].detail == (
            "breakable-bag", (0, frozenset({0, 2}), 0))

    def test_small_bags_pass_without_a_cut_search(self, no_cut_search):
        # no bag of at most 2k+1 vertices can be split with more than k
        # of them on each side, so no search runs, above the limit too
        g = path_graph(30)
        td = RootedDecomposition(30, tuple(frozenset({i, i + 1}) for i in range(29)),
                                 (None, *range(28)))
        assert verify(g, td, 1).passed
        assert verify(complete_graph(5), single_bag(complete_graph(5)), 2).passed

    def test_failed_axioms_skip_the_other_checks(self):
        # a bag of 10 vertices over a 6-vertex graph: the unbreakability
        # search would index vertices the graph lacks
        g = path_graph(6)
        td = RootedDecomposition(10, (frozenset(range(10)),), (None,))
        report = verify(g, td, 1)
        assert report["axioms"].detail == ("vertex-count-mismatch", (10, 6))
        for name in ("compactness", "adhesion-size", "unbreakable-bags"):
            assert report[name] == decomposition.CheckResult(
                name, "skipped", "axioms failed")

    def test_size_limit_skips_only_unbreakability(self):
        g = path_graph(6)
        report = verify(g, single_bag(g), 1, unbreakable_limit=4)
        assert report["unbreakable-bags"].status == "skipped"
        assert report["axioms"].status == "pass"
        assert not report.passed and report.failures() == []


class TestChecksAgainstSetReferences:
    """``verify``'s mask checks and ``derive_contexts`` against the
    set-based references in ``conftest``, on constructed decompositions and
    the seeded mutations of ``solver_digest.py``'s ``verify`` slice."""

    @staticmethod
    def check(graph, td, k, kinds):
        report = verify(graph, td, k)
        assert [(c.name, c.status, c.detail) for c in report.checks] == \
            verify_reference(graph, td, k), (graph.n, graph.edges, td, k)
        if report["axioms"].status == "pass":
            assert views(derive_contexts(graph, td)) == \
                views(contexts_reference(graph, td))
        kinds.update(c.detail[0] for c in report.failures()
                     if c.name in ("axioms", "compactness"))

    def test_corpus_decompositions_and_their_mutations(self):
        digest = load_digest()
        rng = random.Random(20250808)
        kinds = Counter()
        built = 0
        for graph in digest.corpus_graphs(60, 20250808):
            for k in range(7):
                td = construct(graph, k)
                built += 1
                self.check(graph, td, k, kinds)
                for g, mutant in digest.mutations(graph, td, rng):
                    self.check(g, mutant, k, kinds)
        assert built >= 300
        assert set(kinds) == {
            "vertex-count-mismatch", "uncovered-edge", "missing-vertex",
            "disconnected-occurrence", "empty-interior", "interior-disconnected",
            "adhesion-mismatch"}

    def test_path_decompositions_and_their_mutations(self):
        # bags {0, i, i+1} on cycles: each node's component search grows
        # from its child's, down to depth 11, then mutated twice over
        digest = load_digest()
        rng = random.Random(7)
        kinds = Counter()
        for n in range(5, 15):
            g = cycle_graph(n)
            td = RootedDecomposition(n, tuple(frozenset({0, i, i + 1})
                                              for i in range(1, n - 1)),
                                     (None, *range(n - 3)))
            self.check(g, td, 2, kinds)
            for _ in range(10):
                for g1, mutant in digest.mutations(g, td, rng):
                    self.check(g1, mutant, 2, kinds)
                    for g2, twice in digest.mutations(g1, mutant, rng):
                        self.check(g2, twice, 2, kinds)
        assert {"interior-disconnected", "adhesion-mismatch"} <= set(kinds)


def test_verify_and_contexts_scale_linearly_on_path_decompositions():
    # bags {0, i, i+1} on the cycle C_n: a path of n - 2 nodes whose cones
    # grow to the whole graph, so whole-subtree vertex sets cost O(n^2)
    sizes = (500, 1000, 2000, 4000)
    times = []
    for n in sizes:
        g = cycle_graph(n)
        td = RootedDecomposition(n, tuple(frozenset({0, i, i + 1})
                                          for i in range(1, n - 1)),
                                 (None, *range(n - 3)))
        best = math.inf
        for _ in range(5):
            reps = 4000 // n  # samples of like length, well above timer noise
            start = time.perf_counter()
            for _ in range(reps):
                assert verify(g, td, 2).passed
                derive_contexts(g, td)
            best = min(best, (time.perf_counter() - start) / reps)
        times.append(best)
    slope = loglog_slope(sizes, times)
    assert slope < 1.6, f"log-log slope {slope:.2f}"


class TestConstruct:
    def test_k4_single_bag(self):
        td = construct(complete_graph(4), 1)
        assert td.node_count == 1
        assert td.bags[0] == frozenset({0, 1, 2, 3})

    def test_two_triangles_bridged(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        td = construct(g, 1)
        assert verify(g, td, 1).passed
        assert td.node_count > 1
        ctxs = derive_contexts(g, td)
        assert max(len(c.adhesion) for c in ctxs) <= 1

    def test_single_vertex(self):
        td = construct(Graph(1, []), 2)
        assert td.node_count == 1 and td.bags[0] == frozenset({0})

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            construct(Graph(4, [(0, 1), (2, 3)]), 2)

    def test_rejects_oversized(self):
        with pytest.raises(SizeLimitExceeded):
            construct(path_graph(30), 2)

    def test_no_cut_search_on_graphs_of_at_most_2k_plus_1_vertices(self, no_cut_search):
        for g in (complete_graph(5), path_graph(5), cycle_graph(4)):
            assert construct(g, 2).bags == (frozenset(g.vertices),)

    # serialize(construct(g, k)) on 20-vertex graphs, as the Gray-code scan
    # of every bipartition produced it
    BRIDGED = ("s td 3 11 20\nb 1 1\nb 2 1 2 3 4 5 6 7 8 9 10\n"
               "b 3 1 11 12 13 14 15 16 17 18 19 20\np 2 1\np 3 1\n")
    WHOLE = "s td 1 20 20\nb 1 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20\n"
    PINNED = {
        ("two_cliques_bridged(10)", 2): BRIDGED,
        ("two_cliques_bridged(10)", 3): BRIDGED,
        ("two_cliques_bridged(10)", 4): BRIDGED,
        ("grid_graph(4, 5)", 2): WHOLE,
        ("grid_graph(4, 5)", 3): WHOLE,
        ("grid_graph(4, 5)", 4): "s td 7 8 20\nb 1 3 8 13 18\nb 2 3 6 7 8 13 18\n"
        "b 3 1 2 3 6 7\nb 4 6 7 11 12 13 16 17 18\nb 5 3 8 9 10 13 18\nb 6 3 4 5 9 10\n"
        "b 7 9 10 13 14 15 18 19 20\np 2 1\np 3 2\np 4 2\np 5 1\np 6 5\np 7 5\n",
        ("gnm_random(20, 25, seed=2)", 2): "s td 9 7 20\nb 1 5 9\nb 2 4 5 7 9 15 19\n"
        "b 3 1 9 15\nb 4 1 11 15\nb 5 1 9 16 18\nb 6 2 5 7\nb 7 3 7 8 10 15\nb 8 13 15\n"
        "b 9 5 6 9 12 14 17 20\np 2 1\np 3 2\np 4 3\np 5 3\np 6 2\np 7 2\np 8 2\np 9 1\n",
        ("gnm_random(20, 25, seed=2)", 3): "s td 10 7 20\nb 1 5 9\nb 2 5 9 11\n"
        "b 3 1 9 11 16 18\nb 4 5 7 9 11\nb 5 2 5 7\nb 6 5 7 11 15 19\nb 7 3 7 8 10 15\n"
        "b 8 4 5 15 19\nb 9 13 15\nb 10 5 6 9 12 14 17 20\np 2 1\np 3 2\np 4 2\np 5 4\n"
        "p 6 4\np 7 6\np 8 6\np 9 6\np 10 1\n",
        ("gnm_random(20, 25, seed=2)", 4): "s td 9 8 20\nb 1 5 9\nb 2 5 9 11\n"
        "b 3 1 9 11 16 18\nb 4 5 7 9 10 11\nb 5 2 5 7\nb 6 3 7 10\n"
        "b 7 4 5 7 10 11 13 15 19\nb 8 8 10\nb 9 5 6 9 12 14 17 20\np 2 1\np 3 2\n"
        "p 4 2\np 5 4\np 6 4\np 7 4\np 8 4\np 9 1\n",
    }
    GRAPHS = {"two_cliques_bridged(10)": lambda: two_cliques_bridged(10),
              "grid_graph(4, 5)": lambda: grid_graph(4, 5),
              "gnm_random(20, 25, seed=2)": lambda: gnm_random(20, 25, seed=2)}

    @pytest.mark.parametrize("name,k", sorted(PINNED))
    def test_pinned_output_above_18_vertices(self, name, k):
        assert serialize(construct(self.GRAPHS[name](), k)) == self.PINNED[name, k]

    def test_pinned_bag_search_failure(self):
        # a yes-instance (minimum matching cut 1) on which the bag search
        # finds no decomposition; a constructor that always returns is open.
        # The message names k and the failed piece of fewest vertices.
        with pytest.raises(DecompositionError) as info:
            construct(gnm_random(20, 25, seed=9), 2)
        assert str(info.value) == (
            "bag search exhausted without a valid decomposition at k=2; "
            "smallest failed piece [0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13, "
            "14, 15, 16, 17, 19] with adhesion [2]")

    def test_rejects_breakable_builder_output(self, monkeypatch):
        # the bridge splits a single whole-graph bag 3|3 at k=1; the final
        # check must catch it although the builder never scanned the graph
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        monkeypatch.setattr(decomposition._Builder, "build",
                            lambda self, piece, adhesion: (piece, []))
        with pytest.raises(DecompositionError, match="unbreakable-bags fail"):
            construct(g, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_output_verifies_on_sample_graphs(self, k):
        graphs = [path_graph(7), cycle_graph(8), complete_graph(5),
                  Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])]
        for g in graphs:
            report = verify(g, construct(g, k), k)
            assert report.passed

    def test_local_graphs_partition_the_edges(self):
        # edges of each local graph = bag edges plus the children's local
        # edges, all pairwise disjoint
        g = cycle_graph(8)
        td = construct(g, 2)
        ctxs = derive_contexts(g, td)
        kids = td.children()
        for ctx in ctxs:
            pieces = [set(ctx.bag_edges)]
            pieces += [set(local_edges(g, ctxs[c])) for c in kids[ctx.node]]
            union = set()
            total = 0
            for piece in pieces:
                union |= piece
                total += len(piece)
            assert total == len(union), "pieces overlap"
            assert union == set(local_edges(g, ctx))

    def test_compactness_literal_on_corpus(self):
        for g in make_corpus(12, seed=99, n_lo=4, n_hi=10):
            td = construct(g, 2)
            ctxs = derive_contexts(g, td)
            for ctx in ctxs:
                if td.parent[ctx.node] is None:
                    continue
                interior = ctx.cone - ctx.adhesion
                neighborhood = frozenset(
                    w for v in interior for w in g.adj[v]) - interior
                assert neighborhood == ctx.adhesion


class TestSerialization:
    def test_round_trip_object(self):
        g = cycle_graph(8)
        td = construct(g, 2)
        assert parse(serialize(td)) == td

    def test_round_trip_canonical_text(self):
        text = "s td 2 3 3\nb 1 1 2\nb 2 1 2 3\np 2 1\n"
        assert serialize(parse(text)) == text

    def test_parse_p3_single_bag(self):
        td = parse("c hand-written fixture\ns td 1 3 3\nb 1 1 2 3\n")
        assert td.node_count == 1
        assert td.bags[0] == frozenset({0, 1, 2})

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ParseError, match="unknown vertex"):
            parse("s td 1 3 3\nb 1 1 2 4\n")

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("b 1 1 2\n")

    def test_rejects_duplicate_bag(self):
        with pytest.raises(ParseError) as err:
            parse("s td 2 2 3\nb 1 1 2\nb 1 2 3\np 2 1\n")
        assert err.value.line == 3

    def test_rejects_two_roots(self):
        with pytest.raises(ParseError):
            parse("s td 2 2 3\nb 1 1 2\nb 2 2 3\n")

    def test_rejects_header_max_bag_mismatch(self):
        # the header promises bags of 99 vertices over a 3-vertex bag
        with pytest.raises(ParseError, match="max bag 99") as err:
            parse("c comment\ns td 1 99 3\nb 1 1 2 3\n")
        assert err.value.line == 2
        with pytest.raises(ParseError, match="max bag 2"):
            parse("s td 2 2 3\nb 1 1 2\nb 2 1 2 3\np 2 1\n")

    def test_comments_and_blanks_ignored(self):
        td = parse("c hello\n\ns td 1 2 2\nc mid\nb 1 1 2\n")
        assert td.node_count == 1

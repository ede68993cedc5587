import pytest

from conftest import (complete_graph, cycle_graph, local_edges, make_corpus,
                      path_graph)
from dcut import Graph, construct, derive_contexts, parse, serialize, verify
from dcut import decomposition
from dcut.decomposition import (AxiomViolation, DecompositionError,
                                RootedDecomposition, SizeLimitExceeded,
                                TdParseError)
from dcut.graph import DisconnectedGraph


def single_bag(graph):
    return RootedDecomposition(graph.n, (frozenset(graph.vertices),), (None,))


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
        assert ctx.interior == frozenset({0, 1, 2})
        assert set(local_edges(g, ctx)) == set(g.edges)

    def test_two_node_chain(self):
        g = path_graph(3)  # 0-1-2
        td = RootedDecomposition(3, (frozenset({0, 1}), frozenset({1, 2})), (None, 0))
        root, child = derive_contexts(g, td)
        assert child.adhesion == frozenset({1})
        assert child.interior == frozenset({2})
        assert child.cone == frozenset({1, 2})
        assert root.cone == frozenset({0, 1, 2})
        # local graph of the child drops edges internal to its adhesion
        assert set(local_edges(g, child)) == {(1, 2)}

    def test_leaf_bag_inside_parent_has_empty_interior(self):
        g = path_graph(2)
        td = RootedDecomposition(2, (frozenset({0, 1}), frozenset({0})), (None, 0))
        _, leaf = derive_contexts(g, td)
        assert leaf.interior == frozenset()
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
        node, side, cut = report["unbreakable-bags"].detail[1]
        assert cut <= 1

    def test_size_limit_skips_only_unbreakability(self):
        g = path_graph(6)
        report = verify(g, single_bag(g), 1, unbreakable_limit=4)
        assert report["unbreakable-bags"].status == "skipped"
        assert report["axioms"].status == "pass"
        assert not report.passed and report.ok


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

    def test_rejects_breakable_builder_output(self, monkeypatch):
        # the bridge splits a single whole-graph bag 3|3 at k=1; the final
        # check must catch it although the builder never scanned the graph
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        monkeypatch.setattr(decomposition._Builder, "build",
                            lambda self, piece, adhesion:
                            decomposition._TreeNode(piece, []))
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
                interior = ctx.interior
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
        with pytest.raises(TdParseError, match="unknown vertex"):
            parse("s td 1 3 3\nb 1 1 2 4\n")

    def test_rejects_missing_header(self):
        with pytest.raises(TdParseError, match="header"):
            parse("b 1 1 2\n")

    def test_rejects_duplicate_bag(self):
        with pytest.raises(TdParseError) as err:
            parse("s td 2 2 3\nb 1 1 2\nb 1 2 3\np 2 1\n")
        assert err.value.line == 3

    def test_rejects_two_roots(self):
        with pytest.raises(TdParseError):
            parse("s td 2 2 3\nb 1 1 2\nb 2 2 3\n")

    def test_rejects_header_max_bag_mismatch(self):
        # the header promises bags of 99 vertices over a 3-vertex bag
        with pytest.raises(TdParseError, match="max bag 99") as err:
            parse("c comment\ns td 1 99 3\nb 1 1 2 3\n")
        assert err.value.line == 2
        with pytest.raises(TdParseError, match="max bag 2"):
            parse("s td 2 2 3\nb 1 1 2\nb 2 1 2 3\np 2 1\n")

    def test_comments_and_blanks_ignored(self):
        td = parse("c hello\n\ns td 1 2 2\nc mid\nb 1 1 2\n")
        assert td.node_count == 1

import gc
import itertools
import random
import re
import tracemalloc

import pytest

from conftest import (AllSubsetsSolver, ComponentSplitSolver,
                      UnboundedFillSolver, complete_graph, components,
                      cycle_graph, is_d_matching, local_edges, make_corpus,
                      path_graph, rebuild_reference, split_items, vertex_mask,
                      vertex_set)
from dcut import (DPSolver, Graph, INFEASIBLE, SolveOptions, bounded_multisets,
                  brute_force_min_dcut, edge_cut, is_d_cut, solve)
from dcut import decomposition, setfamily
from dcut import solver as solver_module
from dcut.decomposition import (DecompositionError, RootedDecomposition,
                                construct, derive_contexts)
from dcut.generators import gnm_random, grid_graph, two_cliques_bridged
from dcut.setfamily import draw_rounds, heuristic_rounds, round_columns
from dcut.solver import CostTable, budget_families, cheapest


def dp(graph, td, d, k, **kw):
    return DPSolver(graph, td, d, k, **kw).run()


def cost_under(entries, budget):
    """Cost of the cheapest ``(usage, cost, ...)`` entry fitting the
    budget; infinity if none."""
    hit = cheapest(sorted(entries, key=lambda entry: entry[1]), budget)
    return INFEASIBLE if hit is None else hit[1]


def child_rows(solver, node):
    """The node's rows for descending into one child, as ``(usage, cost,
    child budget)``."""
    return tuple((usage, cost, choice[2])
                 for usage, cost, choice in solver._child_rows(node))


def listed_cuts(solver, node):
    """Every candidate side of the node, read or not by the fill, as a dict
    from vertex mask to split count in rank order."""
    return dict(solver._side_candidates(node, solver._edge_masks(node))[0])


def side_rows(solver, node, side):
    """Every row the row builder gives the candidate side (a vertex mask)
    under the cap k, as ``(usage, cost, child budgets)``: the side's rows
    whether or not an earlier side's zero-usage row keeps them off the
    menu, or the root's stop keeps them unread."""
    edges = solver._edge_masks(node)
    return tuple((usage, cost, choice[2]) for usage, cost, choice in solver._bag_rows(
        node, edges)(side, listed_cuts(solver, node)[side], solver.k))


def families(items, d, k, cost_cap=INFEASIBLE, usage_order=()):
    return budget_families(items, d, k, cost_cap, usage_order)


def zero_cost_item(key, vertices, mult, size):
    """A split item offering every bounded budget on the vertices at cost 0."""
    return (key, tuple(sorted(vertices)),
            [(b, 0) for b in bounded_multisets(vertices, mult, size)])


@pytest.fixture
def c4_fixture():
    """C4 with a verified two-node decomposition: root {0,1}, child all."""
    g = cycle_graph(4)
    td = RootedDecomposition(
        4, (frozenset({0, 1}), frozenset({0, 1, 2, 3})), (None, 0))
    return g, td


@pytest.fixture
def nested_p2():
    """P2 with a child bag equal to the root bag: the child's local graph
    has no edges at all (the adhesion-internal edge is excluded).  Not
    compact; used only to exercise the per-node arithmetic."""
    g = path_graph(2)
    td = RootedDecomposition(2, (frozenset({0, 1}), frozenset({0, 1})), (None, 0))
    return g, td


class TestSaturatingSum:
    """Family costs add up within the cap; anything beyond it is dropped."""

    def test_within_cap(self):
        items = [("a", (0,), [((1,), 1)]), ("b", (1,), [((1,), 2)])]
        assert [cost for _, cost, _ in families(items, 1, 2, cost_cap=4)] == [3]

    def test_exceeding_cap_is_infeasible(self):
        items = [("a", (0,), [((1,), 2)]), ("b", (1,), [((1,), 3)])]
        assert families(items, 1, 2, cost_cap=4) == []

    def test_infinity_propagates(self):
        items = [("a", (0,), [((1,), 1)]), ("b", (1,), [((1,), INFEASIBLE)])]
        assert families(items, 1, 2, cost_cap=10) == []

    def test_empty(self):
        assert families([], 1, 2, cost_cap=0) == [((), 0, ())]


class TestEdgeCosts:
    """A bag edge costs nothing unless the side splits it; a split edge
    costs one and spends one cross neighbor at each endpoint."""

    def test_unsplit_traces_cost_zero_for_every_budget(self):
        g = path_graph(3)  # 0-1-2; side {0} splits (0,1) only
        td = RootedDecomposition(3, (frozenset({0, 1, 2}),), (None,))
        solver = dp(g, td, 1, 2)
        kids, edges = split_items(solver, 0, frozenset({0}))
        assert kids == [] and edges == [(0, 1)]
        # one family: the split edge alone, on an empty adhesion
        assert side_rows(solver, 0, vertex_mask({0})) == (((), 1, {}),)

    def test_split_trace_with_both_budgeted_costs_one(self):
        g = path_graph(2)
        td = RootedDecomposition(2, (frozenset({0, 1}),), (None,))
        solver = dp(g, td, 1, 2)
        for side in (vertex_mask({0}), vertex_mask({1})):
            assert side_rows(solver, 0, side) == (((), 1, {}),)
        # the edge's option grants each endpoint one cross neighbor
        fams = families([((0, 1), (0, 1), [((1, 1), 1)])], 1, 2, 2, (0, 1))
        assert fams == [((1, 1), 1, (((0, 1), (1, 1)),))]

    def test_split_trace_with_missing_budget_is_infeasible(self, c4_fixture):
        # in the child, side {0} splits the bag edge (0,3): adhesion vertex
        # 0 must be granted its cross neighbor
        solver = dp(*c4_fixture, 1, 2)
        entries = side_rows(solver, 1, vertex_mask({0}))
        assert solver.plans[1].adhesion_order == [0, 1]
        assert entries == (((1, 0), 1, {}),)
        assert cost_under(entries, (1, 0)) == 1
        assert cost_under(entries, (0, 1)) is INFEASIBLE
        assert cost_under(entries, (0, 0)) is INFEASIBLE

    def test_materialized_table_values(self):
        for g in make_corpus(6, seed=11, n_lo=5, n_hi=8):
            td = construct(g, 3)
            solver = dp(g, td, 1, 3)
            for node, plan in enumerate(solver.plans):
                for side in listed_cuts(solver, node):
                    entries = side_rows(solver, node, side)
                    kids, edges = split_items(solver, node, vertex_set(side))
                    for usage, cost, fam in entries:
                        assert 1 <= cost <= 3
                        assert sorted(fam) == sorted(c for c, _ in kids)
                        # every split edge spends one at each endpoint, each
                        # split child its budget
                        spent = dict.fromkeys(plan.adhesion_order, 0)
                        for e in edges:
                            for v in e:
                                if v in spent:
                                    spent[v] += 1
                        for c, budget in fam.items():
                            child_order = solver.plans[c].adhesion_order
                            for v, m in zip(child_order, budget):
                                if v in spent:
                                    spent[v] += m
                        assert usage == tuple(spent.values())


@pytest.fixture
def ear_fixture():
    """A triangle 0-1-2 with the ear 0-3-1: root bag {0,1,2}, child {0,1,3}."""
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    td = RootedDecomposition(
        4, (frozenset({0, 1, 2}), frozenset({0, 1, 3})), (None, 0))
    return g, td


class TestTrivialCost:
    """A trivial partition keeps a whole cone on one side at no cost; the
    table leaves it out."""

    def test_empty_or_full_side_costs_zero(self, ear_fixture):
        # sides {2} and {0,1} leave the child adhesion {0,1} empty or full:
        # they pay only the split bag edges (0,2) and (1,2), no child budget
        solver = dp(*ear_fixture, 2, 3)
        for side in (vertex_mask({2}), vertex_mask({0, 1})):
            assert side_rows(solver, 0, side) == (((), 2, {}),)
        assert side_rows(solver, 0, vertex_mask({0})) == (((), 3, {1: (0, 1)}),)

    def test_proper_split_is_infeasible(self, ear_fixture):
        # splitting the child adhesion cuts 0-3 or 3-1: without a budget
        # for 0 or 1 no partition pays for it
        solver = dp(*ear_fixture, 2, 3)
        for budget in solver.plans[1].budgets:
            value = solver.table.get(1, vertex_mask({0}), budget)
            assert value == (INFEASIBLE if budget == (0, 0) else 1)


def mask_split(solver, node, side):
    """The solver's mask split counts for a frozenset side, in the form of
    the ``split_items`` reference: the split children with their traces as
    frozensets, and the number of split bag edges, the popcounts of the
    side vertices' cross neighbour masks."""
    crossing, traces = solver._splitter(node, solver._edge_masks(node))(
        vertex_mask(side))
    return [(c, frozenset(v for v in side if trace >> v & 1))
            for c, trace in traces], sum(out.bit_count() for _, out in crossing)


class TestSplitItems:
    """The frozenset reference in ``conftest`` and the solver's mask
    counts, on hand-checked sides and on every candidate side of a
    corpus."""

    def test_side_splitting_child_and_edge(self, c4_fixture):
        solver = DPSolver(*c4_fixture, 1, 2)
        kids, edges = split_items(solver, 0, frozenset({0}))
        assert kids == [(1, frozenset({0}))]
        assert edges == [(0, 1)]
        assert mask_split(solver, 0, frozenset({0})) == (kids, 1)

    def test_side_containing_child_adhesion_splits_nothing(self, c4_fixture):
        solver = DPSolver(*c4_fixture, 1, 2)
        assert split_items(solver, 0, frozenset({0, 1})) == ([], [])
        assert mask_split(solver, 0, frozenset({0, 1})) == ([], 0)

    def test_edgeless_bag_splits_nothing(self, nested_p2):
        solver = DPSolver(*nested_p2, 1, 2)
        assert split_items(solver, 1, frozenset({0})) == ([], [])
        assert mask_split(solver, 1, frozenset({0})) == ([], 0)

    def test_traces_recorded(self, c4_fixture):
        solver = DPSolver(*c4_fixture, 1, 2)
        kids, edges = split_items(solver, 0, frozenset({1}))
        assert kids == [(1, frozenset({1}))]
        assert edges == [(0, 1)]
        assert mask_split(solver, 0, frozenset({1})) == (kids, 1)

    def test_mask_counts_match_reference_on_corpus(self):
        # every candidate side, listed or drawn: its carried count is its
        # split edges, the same split children, each side vertex's cross
        # neighbours are its split edges, and a side is pruned exactly
        # when it splits more than k items
        checked = dict.fromkeys(("enumerate", "colorcode"), 0)
        for options in ({}, dict(mode="colorcode", family_kind="randomized",
                                 family_seed=7)):
            for g in make_corpus(60, seed=20250808):
                for k in range(7):
                    td = construct(g, k)
                    for d in (1, 2):
                        solver = dp(g, td, d, k, record_choices=False, **options)
                        for node, plan in enumerate(solver.plans):
                            edges = solver._edge_masks(node)
                            cuts, mode = solver._side_candidates(node, edges)
                            cuts = dict(cuts)
                            assert list(cuts)[:len(plan.sides)] == plan.sides
                            split = solver._splitter(node, edges)
                            bag_rows = solver._bag_rows(node, edges)
                            for mask in cuts:
                                side = vertex_set(mask)
                                kids, edges = split_items(solver, node, side)
                                crossing, traces = split(mask)
                                assert cuts[mask] == len(edges)
                                assert traces == [(c, vertex_mask(t)) for c, t in kids]
                                assert sorted((low.bit_length() - 1, out)
                                              for low, out in crossing) == sorted(
                                    (v, vertex_mask(w for e in edges if v in e
                                                    for w in e if w != v))
                                    for v in side if any(v in e for e in edges))
                                before = solver.stats["overloaded_side_prunes"]
                                bag_rows(mask, cuts[mask], k)
                                pruned = solver.stats["overloaded_side_prunes"] > before
                                assert pruned == (len(kids) + len(edges) > k)
                                checked[mode] += 1
        assert checked["enumerate"] > 40000 and checked["colorcode"] > 40000, checked


class TestBudgetFamilies:
    def test_no_split_items_yields_exactly_the_empty_family(self, c4_fixture):
        solver = dp(*c4_fixture, 1, 2)
        rows = solver._bag_rows(0, solver._edge_masks(0))(vertex_mask({0, 1}), 0, 2)
        assert rows == [((), 0, ("bag", vertex_mask({0, 1}), {}))]

    def test_single_split_edge_matches_nested_enumeration(self):
        fams = families([zero_cost_item((0, 1), (0, 1), 1, 2)], d=1, k=2)
        got = sorted(picks[0][1] for _, _, picks in fams)
        expected = sorted((a, b) for a in (0, 1) for b in (0, 1))
        assert got == expected

    def test_parent_budget_caps_child_budgets(self):
        # the parent grants vertex 0 nothing: only the empty budget fits
        fams = families([zero_cost_item("c1", (0,), 2, 3)], d=2, k=3,
                        usage_order=(0,))
        fitting = [picks for usage, _, picks in fams
                   if all(u <= q for u, q in zip(usage, (0,)))]
        assert fitting == [(("c1", (0,)),)]

    def test_per_vertex_cap_couples_items(self):
        # two children sharing vertex 0 with d=1: at most one may spend it
        fams = families([zero_cost_item("c1", (0,), 1, 3),
                         zero_cost_item("c2", (0,), 1, 3)], d=1, k=3)
        spends = sorted(tuple(sum(b) for _, b in picks) for _, _, picks in fams)
        assert spends == [(0, 0), (0, 1), (1, 0)]

    def test_total_size_cap(self):
        # three children, each able to spend up to 2, capped at 2k=4 jointly
        fams = families([zero_cost_item(f"c{i}", (i,), 2, 2)
                         for i in range(3)], d=2, k=2, usage_order=(0, 1, 2))
        assert all(sum(usage) <= 4 for usage, _, _ in fams)
        brute = sum(1 for spend in itertools.product(range(3), repeat=3)
                    if sum(spend) <= 4)
        assert len(fams) == brute

    def test_start_vector_is_spent_before_the_items(self):
        # the split edges (0,1) and (0,2) as a start vector: vertex 0 has
        # two cross neighbours, so nothing fits at d=1; at d=2 the families
        # are those of the edges as items, without their picks, unless
        # their cost alone exceeds the cap
        edges = [((0, 1), (0, 1), [((1, 1), 1)]), ((0, 2), (0, 2), [((1, 1), 1)])]
        start = ({0: 2, 1: 1, 2: 1}, 2)
        assert budget_families([], 1, 3, 3, (0, 1), start) == []
        assert budget_families([], 2, 3, 3, (0, 1), start) == [((2, 1), 2, ())]
        assert budget_families(edges, 2, 3, 3, (0, 1)) == [
            ((2, 1), 2, (((0, 1), (1, 1)), ((0, 2), (1, 1))))]
        assert budget_families([], 2, 3, 1, (0, 1), start) == []
        assert budget_families(edges, 2, 3, 1, (0, 1)) == []

    def test_combined_is_sum_union(self):
        # the usage vector is the pointwise sum of the picked budgets
        items = [zero_cost_item("c1", (0, 1), 2, 3),
                 zero_cost_item((0, 2), (0, 2), 1, 2)]
        vertices = {key: verts for key, verts, _ in items}
        for usage, _, picks in families(items, d=2, k=3, usage_order=(0, 1, 2)):
            total = [0, 0, 0]
            for key, budget in picks:
                for v, m in zip(vertices[key], budget):
                    total[v] += m
            assert usage == tuple(total)


class TestFamilyCost:
    def test_empty_family_costs_zero(self, nested_p2):
        # the edgeless leaf: a side splitting nothing costs nothing
        solver = DPSolver(*nested_p2, 1, 2)
        solver.fill_node(1)
        assert side_rows(solver, 1, vertex_mask({0})) == (((0, 0), 0, {}),)

    def test_single_edge_family(self):
        g = path_graph(2)
        td = RootedDecomposition(2, (frozenset({0, 1}),), (None,))
        solver = dp(g, td, 1, 2)
        # one family: the split edge at cost one, with no child budgets
        assert side_rows(solver, 0, vertex_mask({0})) == (((), 1, {}),)
        # below an adhesion {0, 1}, the split edge (1, 2) spends one at 1
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        td = RootedDecomposition(3, (frozenset({0, 1}), frozenset({0, 1, 2})),
                                 (None, 0))
        solver = dp(g, td, 1, 2)
        assert side_rows(solver, 1, vertex_mask({0, 2})) == (((0, 1), 1, {}),)


class TestBestFamilyCost:
    def test_overloaded_side_pruned_without_enumeration(self):
        star = Graph(5, [(0, i) for i in range(1, 5)])
        td = RootedDecomposition(5, (frozenset(range(5)),), (None,))
        solver = dp(star, td, 1, 3)
        assert solver.stats["overloaded_side_prunes"] >= 1
        # the centre splits four edges; a leaf splits one
        assert side_rows(solver, 0, vertex_mask({0})) == ()
        assert side_rows(solver, 0, vertex_mask({1})) == (((), 1, {}),)

    def test_side_splitting_nothing_costs_zero(self, nested_p2):
        # fill only the edgeless leaf: the full run would trip the split-cost
        # sanity assert at the root, which presumes a compact decomposition
        solver = DPSolver(*nested_p2, 1, 2)
        solver.fill_node(1)
        assert cost_under(side_rows(solver, 1, vertex_mask({0})), (1, 1)) == 0

    def test_c4_child_side_costs_two(self, c4_fixture):
        solver = dp(*c4_fixture, 1, 3)
        assert cost_under(side_rows(solver, 1, vertex_mask({2, 3})), (1, 1)) == 2

    def test_budget_restricts_value(self, c4_fixture):
        solver = dp(*c4_fixture, 1, 3)
        side = vertex_mask({2, 3})
        assert cost_under(side_rows(solver, 1, side), (0, 0)) is INFEASIBLE

    def test_invalid_sides_rejected(self, c4_fixture):
        # empty, whole-bag and oversized sides never get a family table
        solver = dp(*c4_fixture, 1, 2)
        sides = solver.plans[1].sides
        assert 0 not in sides
        assert vertex_mask({0, 1, 2, 3}) not in sides
        assert vertex_mask({0, 1, 2}) not in sides
        assert all(0 < side.bit_count() <= 2 for side in sides)


def cost_via_bag(solver, node, side_class, budget):
    """The least cost of a row fitting the budget of any candidate side
    whose trace on the adhesion has the key of ``side_class``."""
    key = solver.table.key(node, side_class)
    adhesion = solver.contexts[node].adhesion_mask
    return cost_under([row for side in listed_cuts(solver, node)
                       if solver.table.key(node, side & adhesion) == key
                       for row in side_rows(solver, node, side)], budget)


class TestBagSplitSearch:
    def test_c4_root_split_value(self, c4_fixture):
        solver = dp(*c4_fixture, 1, 3)
        assert cost_via_bag(solver, 0, 0, ()) == 2

    def test_singleton_bag_has_no_compatible_side(self):
        g = path_graph(3)
        td = RootedDecomposition(
            3, (frozenset({1}), frozenset({0, 1}), frozenset({1, 2})),
            (None, 0, 0))
        solver = dp(g, td, 1, 2)
        assert cost_via_bag(solver, 0, 0, ()) is INFEASIBLE
        # the cut still surfaces through the children
        assert solver.root_value() == 1


class TestChildDescent:
    def test_leaf_is_infeasible(self):
        g = path_graph(2)
        td = RootedDecomposition(2, (frozenset({0, 1}),), (None,))
        solver = dp(g, td, 1, 2)
        assert child_rows(solver, 0) == ()
        assert cost_under(child_rows(solver, 0), ()) is INFEASIBLE
        # the root's entry holds the split of its bag instead
        assert solver.table.row(0, 0, ()) == ((), 1, ("bag", vertex_mask({0}), {}))

    def test_child_entry_of_two_flows_up(self, c4_fixture):
        solver = dp(*c4_fixture, 1, 3)
        # nontrivial partitions of the child's local path 1-2-3-0 that do
        # not split {0,1} cost two edges
        assert solver.table.get(1, 0, (1, 1)) == 2
        assert child_rows(solver, 0) == (((), 2, (1, 1)),)
        assert cost_under(child_rows(solver, 0), ()) == 2
        assert solver.root_value() == 2


class TestFillValues:
    def test_p2_single_node_value_is_one(self):
        g = path_graph(2)
        td = RootedDecomposition(2, (frozenset({0, 1}),), (None,))
        for k in (1, 2, 3):
            solver = dp(g, td, 1, k)
            assert solver.root_value() == 1

    def test_split_side_entries_at_least_one_on_verified_decomposition(self):
        g = cycle_graph(6)
        td = construct(g, 2)
        solver = dp(g, td, 1, 2)
        for (node, side, budget), value in solver.table.entries():
            adhesion = vertex_mask(solver.contexts[node].adhesion)
            if side and side != adhesion:
                assert value >= 1

    def test_complement_symmetry_of_lookups(self, c4_fixture):
        solver = dp(*c4_fixture, 1, 2)
        adhesion = solver.contexts[1].adhesion
        whole = vertex_mask(adhesion)
        for budget in solver.plans[1].budgets:
            for r in range(len(adhesion) + 1):
                for combo in itertools.combinations(sorted(adhesion), r):
                    side = vertex_mask(combo)
                    assert solver.table.get(1, side, budget) == \
                        solver.table.get(1, whole ^ side, budget)

    def test_table_rejects_double_write(self):
        table = CostTable([0])
        table.set(0, 0, (), 0)
        with pytest.raises(RuntimeError, match="twice"):
            table.set(0, 0, (), 1)

    def test_table_rejects_side_outside_adhesion(self):
        table = CostTable([vertex_mask({1, 2})])
        # {1} and {2} share the key that leaves out the least vertex 1
        assert table.key(0, vertex_mask({1})) == vertex_mask({2})
        assert table.key(0, vertex_mask({2})) == vertex_mask({2})
        outside = vertex_mask({2, 3})
        with pytest.raises(ValueError, match="not within adhesion"):
            table.key(0, outside)
        with pytest.raises(ValueError, match="not within adhesion"):
            table.set(0, outside, (), 0)
        with pytest.raises(ValueError, match="not within adhesion"):
            table.get(0, outside, ())

    def test_keys_on_corpus_adhesions(self):
        # a side and its complement share a key, which is one of the two;
        # keys() lists each class once; the rebuilt side is a frozenset
        classes = rebuilt = 0
        for g in make_corpus(60, seed=20250808):
            for k in range(7):
                td = construct(g, k)
                solver = dp(g, td, 1, k)
                table = solver.table
                for node, ctx in enumerate(solver.contexts):
                    whole = vertex_mask(ctx.adhesion)
                    a = len(ctx.adhesion)
                    keys = table.keys(node)
                    assert len(keys) == len(set(keys)) == \
                        (2 ** (a - 1) if a else 1)
                    if not a:
                        assert keys == [0]
                    found = set()
                    for r in range(a + 1):
                        for combo in itertools.combinations(sorted(ctx.adhesion), r):
                            side = vertex_mask(combo)
                            key = table.key(node, side)
                            assert key == table.key(node, whole ^ side)
                            assert key in (side, whole ^ side)
                            found.add(key)
                    assert found == set(keys)
                    classes += len(keys)
                if solver.root_value() <= k:
                    side = solver.rebuild_side()
                    assert isinstance(side, frozenset)
                    assert side <= set(g.vertices)
                    rebuilt += 1
        assert classes > 700 and rebuilt > 200

    def test_budget_monotonicity(self, c4_fixture):
        solver = dp(*c4_fixture, 1, 3)
        entries = dict(solver.table.entries())
        for (node, side, budget), value in entries.items():
            for (node2, side2, budget2), value2 in entries.items():
                if (node, side) == (node2, side2) \
                        and all(a <= b for a, b in zip(budget, budget2)):
                    assert value2 <= value


class TestSolveEndToEnd:
    def test_canonical_instances(self):
        p2 = path_graph(2)
        c4 = cycle_graph(4)
        k4 = complete_graph(4)
        two_edges = Graph(4, [(0, 1), (2, 3)])
        assert solve(p2, 1, 1).answer
        assert not solve(c4, 1, 1).answer
        assert solve(c4, 2, 1).answer
        for k in range(6):
            assert not solve(k4, k, 1).answer
        assert solve(k4, 4, 2).answer
        assert solve(two_edges, 0, 1).answer

    def test_routes(self):
        assert solve(Graph(4, [(0, 1), (2, 3)]), 0, 1).route == "disconnected"
        assert solve(path_graph(2), 1, 1).route == "mincut"
        assert solve(cycle_graph(4), 2, 1).route == "dp"

    def test_witnesses_certified(self):
        for g, k, d in [(path_graph(2), 1, 1), (cycle_graph(4), 2, 1),
                        (complete_graph(4), 4, 2),
                        (Graph(4, [(0, 1), (2, 3)]), 0, 1)]:
            res = solve(g, k, d)
            assert res.answer
            assert is_d_cut(g, res.witness, d)
            cut = edge_cut(g, res.witness)
            assert len(cut) == res.cut_size <= k
            assert is_d_matching(g, cut, d)

    def test_witness_deterministic(self):
        a = solve(cycle_graph(6), 2, 1)
        b = solve(cycle_graph(6), 2, 1)
        assert a.witness == b.witness

    @pytest.mark.parametrize("index,d,k,side_a", [
        (5, 1, 3, [0]),
        (42, 1, 4, [4, 5, 6, 9]),
        (67, 1, 2, [0, 3]),
        (125, 2, 4, [1, 5]),
        (217, 2, 5, [10]),
        (244, 2, 4, [2]),
    ])
    def test_pinned_witnesses_under_ties(self, index, d, k, side_a):
        # Several cuts tie on these acceptance-corpus graphs; the emitted
        # one follows from keeping the first of equally cheap choices in
        # the order bounded_multisets lists budgets.  Ordering the budgets
        # as plain tuples instead changes every one of these witnesses.
        g = make_corpus(index + 1, 20250808)[index]
        res = solve(g, k, d)
        assert sorted(res.witness.side_a) == side_a

    def test_rebuild_matches_recursive_reference(self):
        rebuilt = 0
        for g in make_corpus(40, seed=20250808):
            for k in range(7):
                for d in (1, 2):
                    res = solve(g, k, d)
                    if res.route == "dp" and res.answer:
                        assert res.witness.side_a == rebuild_reference(res.solver)
                        rebuilt += 1
        assert rebuilt > 50

    def test_rebuild_complements_within_a_cone_larger_than_the_bag(self):
        # node 1 (bag {1, 3}, adhesion {1}) is visited wanting vertex 1 off
        # the part, and its row's side is {1}: its part {0, 1, 10} is
        # complemented within its cone {0, 1, 3, 4, 9, 10}, which takes
        # along child 3's vertices 4 and 9, left out of the bag
        g = Graph(11, [(0, 10), (1, 2), (1, 8), (1, 10), (3, 9), (3, 10),
                       (4, 9), (5, 6), (5, 7), (5, 8), (6, 7)])
        bags = ({1}, {1, 3}, {0, 1, 3, 10}, {3, 4, 9}, {1, 2}, {1, 5, 6, 7, 8})
        td = RootedDecomposition(11, tuple(map(frozenset, bags)),
                                 (None, 0, 1, 1, 0, 0))
        res = solve(g, 2, 1, SolveOptions(decomposition=td))
        assert res.solver.table.row(0, 0, ())[2] == ("child", 1, (0,))
        assert res.solver.table.row(1, 0, (0,))[2][:2] == ("bag", vertex_mask({1}))
        assert res.witness.side_a == rebuild_reference(res.solver) == {3, 4, 9}

    def test_witness_deeper_than_the_recursion_limit(self):
        # bags {0, i, i+1} on an 1100-cycle: a path of 1098 nodes, past
        # Python's default limit of 1000 frames
        n = 1100
        td = RootedDecomposition(n, tuple(frozenset({0, i, i + 1})
                                          for i in range(1, n - 1)),
                                 (None, *range(n - 3)))
        res = solve(cycle_graph(n), 2, 1, SolveOptions(decomposition=td))
        assert res.answer and res.cut_size == 2
        assert res.witness.side_a == {0, n - 1}

    def test_record_choices_changes_nothing(self, c4_fixture):
        # every entry holds its chosen row either way
        solver = dp(*c4_fixture, 1, 2, record_choices=False)
        recorded = dp(*c4_fixture, 1, 2)
        entries = dict(recorded.table.entries())
        assert dict(solver.table.entries()) == entries
        assert [solver.table.row(*key) for key in entries] == \
            [recorded.table.row(*key) for key in entries]
        assert solver.rebuild_side() == recorded.rebuild_side()

    def test_witness_holds_little_more_memory(self):
        # the entries' rows are all a witness needs, so solve() with a
        # witness holds at most 1.5 times the memory it holds without one
        g = grid_graph(4, 5)
        td = construct(g, 4)

        def held(witness):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = solve(g, 4, 2, SolveOptions(decomposition=td, witness=witness))
                assert result.answer and result.route == "dp"
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        with_witness, without = held(True), held(False)
        assert with_witness <= 1.5 * without, (with_witness, without)

    def test_witness_skippable(self):
        res = solve(cycle_graph(4), 2, 1, SolveOptions(witness=False))
        assert res.answer and res.witness is None

    def test_dp_value_matches_oracle_minimum(self):
        g = cycle_graph(6)
        res = solve(g, 3, 1)
        assert res.stats["root_value"] == \
            brute_force_min_dcut(g, 1).min_cut_size == 2

    def test_supplied_decomposition_used(self, c4_fixture):
        g, td = c4_fixture
        res = solve(g, 2, 1, SolveOptions(decomposition=td))
        assert res.answer and res.decomposition == td

    def test_bad_supplied_decomposition_rejected(self):
        g = cycle_graph(4)
        bad = RootedDecomposition(
            4, (frozenset({0, 1}), frozenset({2, 3})), (None, 0))
        with pytest.raises(DecompositionError, match="axioms fail: .*uncovered-edge"):
            solve(g, 2, 1, SolveOptions(decomposition=bad))

    def test_supplied_decomposition_over_missing_vertices_rejected(self):
        # a bag larger than 2k+1 naming vertices 6..9 that the graph lacks
        td = RootedDecomposition(10, (frozenset(range(10)),), (None,))
        with pytest.raises(DecompositionError,
                           match="vertex-count-mismatch.*unbreakable-bags "
                                 "skipped: axioms failed"):
            solve(path_graph(6), 2, 1, SolveOptions(decomposition=td))

    def test_supplied_decomposition_above_limit_names_skipped_check(self):
        # valid, but too large for the exhaustive unbreakability check
        g = two_cliques_bridged(13)
        td = RootedDecomposition(26, (frozenset({0, 13}), frozenset(range(13)),
                                      frozenset(range(13, 26))), (None, 0, 0))
        with pytest.raises(DecompositionError) as err:
            solve(g, 2, 1, SolveOptions(decomposition=td))
        assert str(err.value) == (
            "supplied decomposition failed verification: "
            "unbreakable-bags skipped: n=26 exceeds limit 24")

    def test_supplied_decomposition_above_limit_with_small_bags_used(self):
        # bags of at most 2k+1 vertices are unbreakable without a cut
        # search, so the limit does not apply to them
        g = path_graph(30)
        td = RootedDecomposition(30, tuple(frozenset({i, i + 1}) for i in range(29)),
                                 (None, *range(28)))
        res = solve(g, 2, 1, SolveOptions(decomposition=td))
        assert res.answer and res.route == "dp" and res.cut_size == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve(path_graph(2), -1, 1)
        with pytest.raises(ValueError):
            solve(path_graph(2), 1, 0)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_family_rounds_below_one_rejected(self, rounds):
        # with no round drawn, this graph of matching-cut minimum 1 would
        # answer no; with a negative count the draw itself would fail
        g = gnm_random(10, 14, seed=3)
        assert brute_force_min_dcut(g, 1).min_cut_size == 1
        options = dict(mode="colorcode", family_kind="randomized",
                       family_rounds=rounds)
        with pytest.raises(ValueError,
                           match=f"family_rounds must be at least 1, got {rounds}"):
            solve(g, 3, 1, SolveOptions(**options))
        with pytest.raises(ValueError, match="family_rounds must be at least 1"):
            DPSolver(g, construct(g, 3), 1, 3, **options)
        assert solve(g, 3, 1, SolveOptions(**dict(options, family_rounds=1))) \
            .route == "dp"

    def test_negative_family_seed_rejected(self):
        # random.Random(-s) draws random.Random(s)'s stream, so -s would
        # repeat s's family at node 0, which is every node of a one-bag
        # decomposition
        g = gnm_random(10, 14, seed=3)
        options = dict(mode="colorcode", family_kind="randomized",
                       family_rounds=40)
        message = "family_seed must be non-negative, got -3"
        with pytest.raises(ValueError, match=message):
            solve(g, 4, 1, SolveOptions(family_seed=-3, **options))
        with pytest.raises(ValueError, match=message):
            DPSolver(g, construct(g, 4), 1, 4, family_seed=-3, **options)
        assert solve(g, 4, 1, SolveOptions(family_seed=0, **options)).route == "dp"

    @staticmethod
    def assert_type_error(name, value, k=3, d=1, **options):
        # the message names the argument and its value, through both doors
        g = gnm_random(10, 14, seed=3)
        message = re.escape(f"{name} must be an int, got {value!r}")
        with pytest.raises(TypeError, match=message):
            solve(g, k, d, SolveOptions(**options))
        with pytest.raises(TypeError, match=message):
            DPSolver(g, construct(g, 3), d, k, **options)

    @pytest.mark.parametrize("value", [2.5, "3", None, True])
    def test_non_int_k_rejected(self, value):
        self.assert_type_error("k", value, k=value)

    @pytest.mark.parametrize("value", [1.5, "1", None, True])
    def test_non_int_d_rejected(self, value):
        self.assert_type_error("d", value, d=value)

    @pytest.mark.parametrize("value", [2.5, "2", False])
    def test_non_int_family_rounds_rejected(self, value):
        self.assert_type_error("family_rounds", value, family_rounds=value,
                               mode="colorcode", family_kind="randomized")

    @pytest.mark.parametrize("value", [1.5, None, "1", True])
    def test_non_int_family_seed_rejected(self, value):
        self.assert_type_error("family_seed", value, family_seed=value,
                               mode="colorcode", family_kind="randomized")

    @pytest.mark.parametrize("value", [1.5e6, None, "10", False])
    def test_non_int_enumerate_budget_rejected(self, value):
        self.assert_type_error("enumerate_budget", value, enumerate_budget=value)

    @pytest.mark.parametrize("value", [2.5, None, "24", True])
    def test_non_int_max_construct_vertices_rejected(self, value):
        # a solve() option only: DPSolver takes a built decomposition
        message = re.escape(f"max_construct_vertices must be an int, got {value!r}")
        with pytest.raises(TypeError, match=message):
            solve(gnm_random(10, 14, seed=3), 3, 1,
                  SolveOptions(max_construct_vertices=value))

    @pytest.mark.parametrize("name,args,options,label", [
        ("graph", (None, 3, 1), {}, "a Graph"),
        ("graph", ([(0, 1)], 1, 1), {}, "a Graph"),
        ("decomposition", (cycle_graph(4), 1, 1), dict(decomposition=[[0, 1]]),
         "a RootedDecomposition or None"),
        ("witness", (cycle_graph(4), 2, 1), dict(witness=None), "a bool"),
        ("witness", (cycle_graph(4), 2, 1), dict(witness=1), "a bool"),
    ])
    def test_mistyped_solve_argument_named(self, name, args, options, label):
        value = args[0] if name == "graph" else options[name]
        with pytest.raises(TypeError, match=re.escape(
                f"{name} must be {label}, got {value!r}")):
            solve(*args, SolveOptions(**options))

    @pytest.mark.parametrize("options", [{"witness": True}, {}, (), "auto"])
    def test_options_not_solve_options_named(self, options):
        # the options are typed before any of their fields is read
        with pytest.raises(TypeError, match=re.escape(
                f"options must be a SolveOptions, got {options!r}")):
            solve(gnm_random(8, 10, seed=1), 3, 1, options)

    @pytest.mark.parametrize("name,value", [
        ("graph", None), ("graph", [(0, 1)]), ("decomposition", None),
        ("decomposition", [[0, 1]]), ("record_choices", None),
        ("record_choices", 1)])
    def test_mistyped_solver_argument_named(self, name, value):
        # DPSolver needs a decomposition; None does not ask for one
        g = cycle_graph(4)
        args = dict(graph=g, td=construct(g, 2), record_choices=True)
        args["td" if name == "decomposition" else name] = value
        label = dict(graph="a Graph", decomposition="a RootedDecomposition",
                     record_choices="a bool")[name]
        with pytest.raises(TypeError, match=re.escape(
                f"{name} must be {label}, got {value!r}")):
            DPSolver(args["graph"], args["td"], 1, 2,
                     record_choices=args["record_choices"])

    def test_family_stats_only_when_a_family_was_drawn(self):
        # auto mode lists every node's sides exactly here, so no family is
        # drawn and the family keys stay out of the stats
        g = gnm_random(10, 14, seed=3)
        for mode, drawn in (("auto", False), ("colorcode", True)):
            stats = solve(g, 3, 1, SolveOptions(
                mode=mode, family_kind="randomized", family_seed=5,
                family_rounds=1)).stats
            assert ("colorcode" in stats["minbeta_modes"]) == drawn
            if drawn:
                assert (stats["family_seed"], stats["family_rounds"]) == (5, 1)
            else:
                assert stats["minbeta_modes"] == {"enumerate": 5}
                assert "family_seed" not in stats and "family_rounds" not in stats

    def test_unknown_search_options_rejected_on_every_route(self):
        routes = [(Graph(4, [(0, 1), (2, 3)]), 0, 1, "disconnected"),
                  (path_graph(3), 1, 1, "mincut"),
                  (cycle_graph(4), 2, 1, "dp")]
        for graph, k, d, route in routes:
            assert solve(graph, k, d).route == route
            for mode in ("magic", "enumerate"):
                with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
                    solve(graph, k, d, SolveOptions(mode=mode))
            with pytest.raises(ValueError, match="unknown family kind 'psychic'"):
                solve(graph, k, d, SolveOptions(family_kind="psychic"))

    @pytest.mark.parametrize("supplied", [False, True])
    def test_axioms_checked_once_per_decision(self, monkeypatch, supplied):
        calls = {"axioms": 0, "contexts": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        g = cycle_graph(6)
        opts = SolveOptions(decomposition=construct(g, 3) if supplied else None)
        monkeypatch.setattr(decomposition, "_axiom_violation",
                            counted("axioms", decomposition._axiom_violation))
        derive = counted("contexts", decomposition.derive_contexts)
        monkeypatch.setattr(decomposition, "derive_contexts", derive)
        monkeypatch.setattr(solver_module, "derive_contexts", derive)
        assert solve(g, 3, 1, opts).route == "dp"
        assert calls == {"axioms": 1, "contexts": 1}

    def test_stats_fields(self):
        res = solve(cycle_graph(4), 2, 1)
        for field in ("root_value", "table_entries", "decomposition_nodes",
                      "max_bag", "max_adhesion", "minbeta_modes",
                      "sides_considered", "overloaded_side_prunes"):
            assert field in res.stats
        for field in ("families_evaluated", "sides_considered",
                      "overloaded_side_prunes"):
            assert res.stats[field] == res.solver.stats[field]
        assert res.stats["sides_considered"] > res.stats["overloaded_side_prunes"]


class TestModes:
    def test_enumerate_and_colorcode_tables_identical(self):
        # both equal the tables of every bag subset as a side
        for g in [cycle_graph(6), complete_graph(5),
                  Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                            (5, 3)])]:
            for d, k in [(1, 2), (1, 3), (2, 3)]:
                td = construct(g, k)
                reference = dict(AllSubsetsSolver(g, td, d, k).run().table.entries())
                one = dp(g, td, d, k)
                two = dp(g, td, d, k, mode="colorcode",
                         family_kind="exhaustive")
                assert dict(one.table.entries()) == reference
                assert dict(two.table.entries()) == reference

    @pytest.mark.parametrize("index,d,k", [(60, 1, 4), (178, 2, 4), (284, 2, 4)])
    def test_child_adhesion_cliques_needed_on_deep_decompositions(self, index, d, k):
        # multi-node decompositions on which a helper graph without the
        # child adhesion cliques misses sides that change the tables
        g = make_corpus(index + 1, seed=77, n_lo=8, n_hi=16)[index]
        td = construct(g, k)
        assert td.node_count >= 5
        reference = AllSubsetsSolver(g, td, d, k, record_choices=False).run()
        solver = dp(g, td, d, k, record_choices=False)
        assert dict(solver.table.entries()) == dict(reference.table.entries())

    def test_sides_are_the_helper_connected_bag_subsets(self, c4_fixture):
        # child bag {0,1,2,3} under adhesion {0,1}: the helper graph is the
        # cycle 0-1-2-3-0, so {0,2} and {1,3} are the disconnected pairs
        solver = dp(*c4_fixture, 1, 2)
        assert solver.plans[1].sides == [
            vertex_mask(s) for s in ({0}, {1}, {2}, {3},
                                     {0, 1}, {0, 3}, {1, 2}, {2, 3})]

    def test_exhaustive_colorcode_answers_above_family_limit(self):
        # a 22-vertex bag, beyond the 20-vertex exhaustive covering family;
        # with no randomized family to draw from, it lists its sides exactly
        res = solve(complete_graph(22), 3, 1, SolveOptions(mode="colorcode"))
        assert not res.answer
        assert res.stats["max_bag"] == 22
        assert res.stats["minbeta_modes"] == {"enumerate": 1}

    def test_starved_family_errs_toward_no(self):
        # one random subset plus the empty set misses most good sets: every
        # cost may only move up, so answers can only flip yes -> no
        for g in make_corpus(8, seed=2024, n_lo=5, n_hi=9):
            for d, k in [(1, 2), (1, 4)]:
                td = construct(g, k)
                full = dp(g, td, d, k)
                starved = dp(g, td, d, k, mode="colorcode",
                             family_kind="randomized", family_seed=1,
                             family_rounds=1, record_choices=False)
                for key, value in full.table.entries():
                    assert starved.table.get(*key) >= value

    @pytest.mark.parametrize("rounds", [None, 1])
    def test_mask_split_equals_component_split(self, monkeypatch, rounds):
        # the randomized family's sides, tables and all, against the
        # per-bit family split by components, on corpus graphs and on two
        # dense one-bag graphs, where most rounds fit no set; under the
        # heuristic rounds some nodes isolate every listed side and stop
        # drawing early while others draw every round, and one round never
        # stops early
        full_length = {True: 0, False: 0}

        def counted(size, seed, rounds):
            drawn = 0
            try:
                for count, columns in round_columns(size, seed, rounds):
                    drawn += count
                    yield count, columns
            finally:
                full_length[drawn == rounds] += 1

        monkeypatch.setattr(solver_module, "round_columns", counted)
        dense = [complete_graph(12), gnm_random(12, 54, seed=9)]
        for g in make_corpus(30, seed=515) + dense:
            for k in range(2, 6):
                td = construct(g, k)
                for d in (1, 2):
                    args = (g, td, d, k)
                    options = dict(mode="colorcode", family_kind="randomized",
                                   family_seed=3, family_rounds=rounds,
                                   record_choices=False)
                    one = DPSolver(*args, **options).run()
                    two = ComponentSplitSolver(*args, **options).run()
                    assert [p.sides for p in one.plans] == \
                        [p.sides for p in two.plans]
                    assert dict(one.table.entries()) == \
                        dict(two.table.entries())
        assert full_length[True] > 0, full_length
        assert (full_length[False] > 0) == (rounds is None), full_length

    def test_draw_stops_once_every_listed_side_is_isolated(self, monkeypatch):
        # generator outputs counted per node seed through a random.Random
        # subclass: each drawing node stops at the end of the block (of
        # min(2^b, rounds left) rounds) in which the per-bit reference
        # first isolates its last listed side as a helper component, or
        # draws every round when some side is never isolated; a family
        # that holds every bag subset stops it no later, and under the
        # heuristic rounds some nodes stop in an earlier block than that
        outputs = {}

        class Counting(random.Random):
            def __init__(self, seed):
                self.key = seed
                outputs[seed] = 0
                super().__init__(seed)

            def getrandbits(self, bits):
                outputs[self.key] += bits // 32
                return super().getrandbits(bits)

        cases = {"early": 0, "full": 0, "before complete": 0}
        for g in make_corpus(12, seed=77, n_lo=5, n_hi=11):
            for k, rounds in [(3, None), (4, None), (3, 6)]:
                td = construct(g, k)
                outputs.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(setfamily.random, "Random", Counting)
                    drawn = dp(g, td, 1, k, mode="colorcode",
                               family_kind="randomized", family_seed=5,
                               family_rounds=rounds, record_choices=False)
                listed = UnboundedFillSolver(g, td, 1, k, record_choices=False).run()
                for node, ctx in enumerate(drawn.contexts):
                    bag = sorted(ctx.bag)
                    sides = {frozenset(vertex_set(side))
                             for side in listed.plans[node].sides}
                    b, seed = len(bag), 5 * 100003 + node * 7919
                    total = rounds or heuristic_rounds(b, k, k * k + k)
                    adj = {v: vertex_set(mask) for v, mask
                           in drawn._helper_masks(node).items()}
                    left, seen, last, complete = set(sides), set(), None, None
                    for r, flags in enumerate(draw_rounds(b, seed, total)):
                        if left:
                            member = [v for v, flag in zip(bag, flags) if flag]
                            left -= {frozenset(c) for c in components(adj, member)}
                            if not left:
                                last = r
                        seen.add(flags)
                        if len(seen) == 1 << b:
                            complete = r
                            break
                    block = min(1 << b, setfamily._BLOCK_ROUNDS)
                    ends = [min(start + block, total)
                            for start in range(0, total, block)]
                    if not sides:
                        stop = 0
                    elif last is None:
                        stop = total
                    else:
                        stop = next(end for end in ends if end > last)
                    assert outputs.get(seed, 0) == stop * b, (node, stop)
                    if complete is not None:
                        done = next(end for end in ends if end > complete)
                        assert stop <= done
                        cases["before complete"] += stop < done
                    cases["full" if stop == total else "early"] += 1
        assert all(cases.values()), cases

    @pytest.mark.parametrize("rounds", [None, 1])
    def test_mask_split_past_bit_64(self, rounds):
        # a 70-cycle under bags {0, i, i+1}: the draws' masks reach bit 69
        g = cycle_graph(70)
        td = RootedDecomposition(70, tuple(frozenset({0, i, i + 1})
                                           for i in range(1, 69)),
                                 (None, *range(67)))
        options = dict(mode="colorcode", family_kind="randomized",
                       family_rounds=rounds)
        one = DPSolver(g, td, 1, 2, **options).run()
        two = ComponentSplitSolver(g, td, 1, 2, **options).run()
        assert [p.sides for p in one.plans] == [p.sides for p in two.plans]
        assert dict(one.table.entries()) == dict(two.table.entries())
        assert one.stats["modes"] == {"colorcode": 68}
        if rounds is None:
            assert one.stats["sides_considered"] == 408
            res = solve(g, 2, 1, SolveOptions(decomposition=td, **options))
            assert res.answer and res.cut_size == 2

    def test_auto_past_enumerate_budget(self):
        # a node draws only from a randomized family; without one it lists
        # its sides exactly, whatever its subset count
        g = complete_graph(5)
        td = construct(g, 2)
        listed = dp(g, td, 1, 2, enumerate_budget=3)
        assert listed.stats["modes"] == {"enumerate": 1}
        assert dict(listed.table.entries()) == dict(dp(g, td, 1, 2).table.entries())
        drawn = dp(g, td, 1, 2, enumerate_budget=3, family_kind="randomized")
        assert drawn.stats["modes"] == {"colorcode": 1}

    def test_auto_uses_enumerate_at_desk_scale(self):
        res = solve(cycle_graph(6), 2, 1)
        assert res.stats["minbeta_modes"] == {"enumerate": res.stats["decomposition_nodes"]}

    def test_rejects_unknown_mode(self, c4_fixture):
        with pytest.raises(ValueError):
            DPSolver(*c4_fixture, 1, 2, mode="magic")
        with pytest.raises(ValueError):
            DPSolver(*c4_fixture, 1, 2, family_kind="psychic")


class TestZeroUsageBound:
    """A zero-usage row fits every budget, so the fill builds no row of a
    later side of its key that costs as much, and the root reads no side
    once its cap is below the least cost of a root row: checked against
    the unbounded fill in ``conftest``, which reads every side."""

    @pytest.mark.parametrize("options", [
        {}, dict(mode="colorcode", family_kind="randomized", family_seed=7)],
        ids=["auto", "colorcode"])
    def test_matches_unbounded_fill_on_corpus(self, options):
        # every entry's value and row, every witness and every counter but
        # the one that counts families is the reference's, and so are the
        # two that count sides where the root does not stop early; each
        # node's sides are a prefix of the reference's; the root stops
        # early on at least 100 decisions, at no other node
        saved = stopped = 0
        for g in make_corpus(60, seed=20250808):
            for k in range(7):
                td = construct(g, k)
                for d in (1, 2):
                    solver = dp(g, td, d, k, **options)
                    reference = UnboundedFillSolver(g, td, d, k, **options).run()
                    entries = dict(solver.table.entries())
                    assert entries == dict(reference.table.entries())
                    for key in entries:
                        assert solver.table.row(*key) == reference.table.row(*key)
                    assert solver.root_value() == reference.root_value()
                    if solver.root_value() <= k:
                        assert solver.rebuild_side() == reference.rebuild_side()
                    for node, (plan, ref_plan) in enumerate(
                            zip(solver.plans, reference.plans)):
                        assert plan.sides == ref_plan.sides[:len(plan.sides)]
                        if len(plan.sides) < len(ref_plan.sides):
                            assert node == td.root
                            stopped += 1
                    # the root that stops early counts only the sides it
                    # read, and prunes no more of them than the reference
                    read = sum(len(plan.sides) for plan in solver.plans)
                    assert solver.stats["sides_considered"] == read
                    if read < sum(len(plan.sides) for plan in reference.plans):
                        for counter in ("sides_considered", "overloaded_side_prunes"):
                            assert solver.stats.pop(counter) \
                                <= reference.stats.pop(counter)
                    found = solver.stats.pop("families_evaluated")
                    full = reference.stats.pop("families_evaluated")
                    assert found <= full
                    saved += full - found
                    assert solver.stats == reference.stats
        assert saved > 0
        assert stopped >= 100, stopped

    @pytest.mark.parametrize("pendant,free", [(False, {0, 1, 2}), (True, {3, 4, 5})],
                             ids=["two-triangles", "with-pendant"])
    def test_root_of_disconnected_graph_stops_after_first_free_side(
            self, pendant, free):
        # two triangles, the first perhaps with vertex 6 hanging off vertex
        # 0, in one bag: a root row may cost 0, so the root reads sides
        # until its first cost-0 side, past the pendant's cost-1 side
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = Graph(6 + pendant, edges + [(0, 6)] * pendant)
        td = RootedDecomposition(g.n, (frozenset(range(g.n)),), (None,))
        solver = dp(g, td, 2, 4)
        reference = UnboundedFillSolver(g, td, 2, 4).run()
        sides = solver.plans[0].sides
        assert solver.root_value() == reference.root_value() == 0
        assert sides[-1] == vertex_mask(free)
        assert sides == reference.plans[0].sides[:len(sides)]
        assert len(sides) < len(reference.plans[0].sides)
        assert dict(solver.table.entries()) == dict(reference.table.entries())
        assert solver.rebuild_side() == reference.rebuild_side() == free

    def test_later_sides_beaten_by_a_free_row_are_skipped(self):
        # the path 0-1-2 in one bag: on the empty adhesion every row has
        # zero usage, and side {0}, first, costs one, so every later side,
        # costing at least one, is skipped before its families are built
        g = path_graph(3)
        td = RootedDecomposition(3, (frozenset({0, 1, 2}),), (None,))
        solver = dp(g, td, 2, 2)
        reference = UnboundedFillSolver(g, td, 2, 2).run()
        assert solver.stats["families_evaluated"] == 1
        assert reference.stats["families_evaluated"] == 5
        assert solver.plans[0].sides == [vertex_mask({0})]
        assert solver.table.row(0, 0, ()) == ((), 1, ("bag", vertex_mask({0}), {}))
        # the reference's menu, by cost and then rank
        assert sorted(((cost, vertex_set(side)) for side in listed_cuts(reference, 0)
                       for _, cost, _ in side_rows(reference, 0, side)),
                      key=lambda row: row[0]) == [
            (1, {0}), (1, {2}), (1, {0, 1}), (1, {1, 2}), (2, {1})]
        assert solver.root_value() == reference.root_value() == 1
        assert solver.rebuild_side() == reference.rebuild_side() == {0}


class TestRealizability:
    """Finite side costs are achieved by a real partition of the local graph."""

    @pytest.mark.parametrize("graph,k,d", [
        (cycle_graph(4), 2, 1),
        (cycle_graph(6), 3, 1),
        (Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]), 2, 1),
        (complete_graph(4), 4, 2),
    ])
    def test_best_family_cost_realizable(self, graph, k, d):
        td = construct(graph, k)
        solver = dp(graph, td, d, k)
        for node in range(td.node_count):
            ctx = solver.contexts[node]
            plan = solver.plans[node]
            edges = local_edges(graph, ctx)
            rest = sorted(ctx.cone - ctx.bag)
            for side in listed_cuts(solver, node):
                for budget in plan.budgets:
                    value = cost_under(side_rows(solver, node, side), budget)
                    if value is INFEASIBLE:
                        continue
                    achieved = None
                    for r in range(len(rest) + 1):
                        for extra in itertools.combinations(rest, r):
                            a = vertex_set(side) | set(extra)
                            cut = [e for e in edges
                                   if (e[0] in a) != (e[1] in a)]
                            if len(cut) > value:
                                continue
                            degree = {}
                            for u, v in cut:
                                degree[u] = degree.get(u, 0) + 1
                                degree[v] = degree.get(v, 0) + 1
                            if any(c > d for c in degree.values()):
                                continue
                            if any(degree.get(v, 0) > m for v, m
                                   in zip(plan.adhesion_order, budget)):
                                continue
                            achieved = a
                            break
                        if achieved is not None:
                            break
                    assert achieved is not None, (node, sorted(vertex_set(side)),
                                                  budget, value)

"""Bottom-up dynamic program deciding whether a graph has a d-cut with at
most k crossing edges.

The program runs over a verified rooted decomposition.  Per node it keeps
a cost for every (side-of-adhesion, cross-neighbor budget) key: the fewest
local crossing edges of any partition of the node's local graph, other
than keeping the whole cone on one side (which costs nothing and is not
stored), whose trace on the adhesion matches the side (or its
complement), whose crossing edges form a d-matching, and whose adhesion
vertices use at most their budgeted number of cross neighbors.  Costs
live in {0..k, inf}; any sum exceeding k saturates to infinity, since such
partitions can never take part in an acceptable cut.

Each entry is the cheapest fitting row of one cost-sorted menu per side:
a row for each way to split the bag along a small candidate side, paying
for each child and bag edge the side breaks, and, under the empty side, a
row for each way to descend entirely into one child.  Candidate sides are
the bag subsets of at most k vertices connected in a helper graph
(adhesions turned into cliques plus the bag edges), listed exactly or,
with a randomized covering family, as the helper graph's components on
its distinct members, each member a mask of bag indices split by a
breadth-first search over the helper graph's neighbour masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .decomposition import (CONSTRUCT_LIMIT, DecompositionError,
                            RootedDecomposition, _construct, _verify,
                            derive_contexts)
from .graph import (Bipartition, Graph, connected_components,
                    edge_cut, global_min_cut, is_d_cut)
from .multisets import bounded_multisets
from .setfamily import distinct_draws, heuristic_rounds

INFEASIBLE = math.inf
ENUMERATE_BUDGET = 10 ** 6  # enumerate's subset cap; auto picks colorcode above it


class EnumerationBudgetExceeded(RuntimeError):
    """Direct side enumeration was forced beyond its subset budget."""


class WitnessCertificationError(RuntimeError):
    """A reconstructed witness failed certification; internal bug signal."""


def _check_arguments(k, d, mode, family_kind):
    """Reject a bad k or d, or an unknown side-search mode or family kind."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if d < 1:
        raise ValueError("d must be at least 1")
    if mode not in ("auto", "enumerate", "colorcode"):
        raise ValueError(f"unknown mode {mode!r}")
    if family_kind not in ("exhaustive", "randomized"):
        raise ValueError(f"unknown family kind {family_kind!r}")


def budget_families(items, d, k, cost_cap, usage_order) -> list:
    """Every choice of one ``(budget, cost)`` option per split item whose
    budgets together give no vertex more than d cross neighbors and at most
    2k in total, and whose costs sum to at most ``cost_cap``.

    ``items`` holds ``(key, vertices, options)`` triples; every option's
    budget is a count vector on the item's sorted ``vertices``.  Pruning
    assumes every option costs at least one, as every split item does in
    the fill; for zero-cost options pass an infinite cap.  Returns
    ``(usage, cost, picks)`` triples: the summed budgets on ``usage_order``,
    the summed costs and the chosen ``(key, budget)`` pairs, in item order.
    """
    counts = {}
    chosen = []
    found = []
    last = len(items)

    def rec(i, size, cost):
        if i == last:
            found.append((tuple(counts.get(v, 0) for v in usage_order), cost,
                          tuple(chosen)))
            return
        key, verts, opts = items[i]
        remaining = last - i - 1
        for budget, val in opts:
            new_cost = cost + val
            if new_cost + remaining > cost_cap:
                continue
            new_size = size + sum(budget)
            if new_size > 2 * k:
                continue
            if any(counts.get(v, 0) + m > d for v, m in zip(verts, budget)):
                continue
            for v, m in zip(verts, budget):
                counts[v] = counts.get(v, 0) + m
            chosen.append((key, budget))
            rec(i + 1, new_size, new_cost)
            chosen.pop()
            for v, m in zip(verts, budget):
                counts[v] -= m

    rec(0, 0, 0)
    return found


def cheapest(entries, pvec):
    """The first of the cost-sorted ``(usage, cost, ...)`` entries whose
    usage fits within ``pvec`` pointwise, hence the cheapest such; None
    when none fits."""
    for entry in entries:
        if all(u <= q for u, q in zip(entry[0], pvec)):
            return entry
    return None


class CostTable:
    """The cost table, keyed under the lexicographically smaller of a side
    and its adhesion complement (the semantics are symmetric in the two),
    written exactly once per key."""

    def __init__(self, adhesions):
        self._keys = [self._canonical_keys(adhesion) for adhesion in adhesions]
        self._data = {}

    @staticmethod
    def _canonical_keys(adhesion):
        """Every subset of the adhesion mapped to its key, the subsets
        taken by size, then in lexicographic order."""
        order = sorted(adhesion)
        keys = {}
        for size in range(len(order) + 1):
            for combo in combinations(order, size):
                rest = tuple(v for v in order if v not in combo)
                keys[frozenset(combo)] = frozenset(min(combo, rest))
        return keys

    def canonical_side(self, node, side):
        try:
            return self._keys[node][frozenset(side)]
        except KeyError:
            raise ValueError(
                f"side {sorted(side)} not within adhesion of node {node}") from None

    def canonical_sides(self, node):
        """The node's distinct keys, in the order their first subsets
        take in :meth:`_canonical_keys`."""
        return list(dict.fromkeys(self._keys[node].values()))

    def set(self, node, side, budget, value):
        key = (node, self.canonical_side(node, side), budget)
        if key in self._data:
            raise RuntimeError(f"table key written twice: {key}")
        self._data[key] = value

    def get(self, node, side, budget):
        return self._data[(node, self.canonical_side(node, side), budget)]

    def entries(self):
        yield from self._data.items()

    def __len__(self):
        return len(self._data)


@dataclass
class NodePlan:
    """Per-node evaluation artifacts kept for the fill and backtracking."""

    adhesion_order: list
    budgets: list         # count vectors on adhesion_order
    sides: list           # candidate sides; their order ranks them
    menus: dict           # canonical trace -> cost-sorted (usage, cost, choice)
    mode: str


class DPSolver:
    """Fills the cost table bottom-up over a verified decomposition."""

    def __init__(self, graph: Graph, td: RootedDecomposition, d: int, k: int, *,
                 contexts=None, mode: str = "auto", family_kind: str = "exhaustive",
                 family_seed: int = 0, family_rounds=None,
                 enumerate_budget: int = ENUMERATE_BUDGET,
                 record_choices: bool = True):
        _check_arguments(k, d, mode, family_kind)
        self.graph = graph
        self.td = td
        self.d = d
        self.k = k
        self.contexts = list(contexts) if contexts is not None else derive_contexts(graph, td)
        self.children = td.children()
        self.mode = mode
        self.family_kind = family_kind
        self.family_seed = family_seed
        self.family_rounds = family_rounds
        self.enumerate_budget = enumerate_budget
        self.record_choices = record_choices
        self.table = CostTable(ctx.adhesion for ctx in self.contexts)
        self.plans = [None] * td.node_count
        self.stats = {"modes": {}, "families_evaluated": 0, "sides_considered": 0,
                      "overloaded_side_prunes": 0}
        self._choices = {}

    # ------------------------------------------------------------------
    # node evaluation

    def run(self):
        for t in self.td.postorder():
            self.fill_node(t)
        return self

    def root_value(self):
        return self.table.get(self.td.root, frozenset(), ())

    def split_items(self, node, side):
        """The ``(child, trace)`` pairs of the children whose adhesion the
        side splits, and the bag edges it splits."""
        kids = []
        for c in self.children[node]:
            child_adhesion = self.contexts[c].adhesion
            trace = side & child_adhesion
            if trace and trace != child_adhesion:
                kids.append((c, trace))
        edges = [e for e in self.contexts[node].bag_edges
                 if (e[0] in side) != (e[1] in side)]
        return kids, edges

    def _bag_rows(self, node, side):
        """The menu rows for splitting the bag along the side, one per
        budget family, in the order :func:`budget_families` lists them.
        Families whose cost saturates can never win and are skipped
        outright; each split edge admits exactly one finite-cost budget
        (both endpoints at one), so only the split children contribute real
        branching."""
        kids, edges = self.split_items(node, side)
        if len(kids) + len(edges) > self.k:
            self.stats["overloaded_side_prunes"] += 1
            return []
        items = [(e, e, (((1, 1), 1),)) for e in edges]
        for c, trace in kids:
            child_plan = self.plans[c]
            opts = []
            for b in child_plan.budgets:
                val = self.table.get(c, trace, b)
                if val is INFEASIBLE:
                    continue
                # A split child always pays at least one crossing edge.
                assert val >= 1
                opts.append((b, val))
            if not opts:
                return []
            items.append((c, child_plan.adhesion_order, opts))

        families = budget_families(items, self.d, self.k, self.k,
                                   self.plans[node].adhesion_order)
        self.stats["families_evaluated"] += len(families)
        # Edge picks come first and carry nothing the rebuild needs.
        return [(usage, cost, ("bag", side, dict(picks[len(edges):])))
                for usage, cost, picks in families]

    def _side_candidates(self, node):
        """Candidate sides for splitting the bag, plus the mode used."""
        ctx = self.contexts[node]
        bag_order = sorted(ctx.bag)
        b = len(bag_order)
        subset_count = sum(math.comb(b, i) for i in range(min(self.k, b) + 1))
        mode = self.mode
        if mode == "auto":
            mode = "enumerate" if subset_count <= self.enumerate_budget else "colorcode"
        elif mode == "enumerate" and subset_count > self.enumerate_budget:
            raise EnumerationBudgetExceeded(
                f"{subset_count} bag subsets exceed budget {self.enumerate_budget}")
        adj = self._helper_graph(node)
        if mode == "colorcode" and self.family_kind == "randomized":
            return self._drawn_sides(node, bag_order, adj), mode
        # A disconnected side never beats its component that meets the
        # adhesion, and that component comes first in this order.  Every
        # connected set of s + 1 vertices holds a connected set of s, so
        # each size is grown from the last by one helper neighbour.
        sides = []
        level = {frozenset([v]) for v in bag_order}
        for size in range(1, min(self.k, b - 1) + 1):
            if size > 1:
                level = {s | {v} for s in level for u in s for v in adj[u] - s}
            sides += sorted(level, key=sorted)
        return sides, mode

    def _helper_graph(self, node):
        """Adhesions of the node and of each child become cliques; the bag
        edges come along.  Components of induced subgraphs then localize
        candidate sides."""
        ctx = self.contexts[node]
        adj = {v: set() for v in ctx.bag}
        kids = [self.contexts[c].adhesion for c in self.children[node]]
        for group in [ctx.adhesion, *kids, *map(frozenset, ctx.bag_edges)]:
            for u in group:
                adj[u] |= group - {u}
        return adj

    def _drawn_sides(self, node, bag_order, adj):
        """The helper graph's components of 1..k vertices, short of the
        whole bag, on the distinct members of the node's randomized
        covering family, sorted; each member is split by a breadth-first
        search over masks of bag indices."""
        index = {v: i for i, v in enumerate(bag_order)}
        nbrs = [sum(1 << index[w] for w in adj[v]) for v in bag_order]
        whole = (1 << len(bag_order)) - 1
        rounds = self.family_rounds
        if rounds is None:
            rounds = heuristic_rounds(len(bag_order), self.k, self.k * self.k + self.k)
        seed = self.family_seed * 100003 + node * 7919
        kept = set()
        for left in distinct_draws(len(bag_order), seed, rounds):
            while left:
                comp = frontier = left & -left
                while frontier:
                    reach = 0
                    while frontier:
                        low = frontier & -frontier
                        reach |= nbrs[low.bit_length() - 1]
                        frontier ^= low
                    frontier = reach & left & ~comp
                    comp |= frontier
                left ^= comp
                if comp.bit_count() <= self.k and comp != whole:
                    kept.add(comp)
        sides = [frozenset(v for i, v in enumerate(bag_order) if mask >> i & 1)
                 for mask in kept]
        return sorted(sides, key=sorted)

    def fill_node(self, node):
        adhesion = self.contexts[node].adhesion
        adhesion_order = sorted(adhesion)
        budgets = bounded_multisets(adhesion, self.d, self.k)
        sides, mode = self._side_candidates(node)
        self.stats["modes"][mode] = self.stats["modes"].get(mode, 0) + 1
        self.stats["sides_considered"] += len(sides)
        plan = self.plans[node] = NodePlan(adhesion_order, budgets, sides, {}, mode)
        # Rows rank by cost (at most k: families are capped at k, children
        # offer finite table values), then side (a child after every side),
        # then usage; the sort is stable, so the first family, child and
        # child budget win the remaining ties.
        ranked = {key: [] for key in self.table.canonical_sides(node)}
        for rank, side in enumerate(sides):
            ranked[self.table.canonical_side(node, side & adhesion)] += [
                (cost, rank, usage, choice)
                for usage, cost, choice in self._bag_rows(node, side)]
        for c in self.children[node]:
            child_plan = self.plans[c]
            for cb in child_plan.budgets:
                cost = self.table.get(c, frozenset(), cb)
                if cost is not INFEASIBLE:
                    counts = dict(zip(child_plan.adhesion_order, cb))
                    usage = tuple(counts.get(v, 0) for v in adhesion_order)
                    ranked[frozenset()].append(
                        (cost, len(sides), usage, ("child", c, cb)))
        for key, rows in ranked.items():
            rows.sort(key=lambda row: row[:3])
            menu = plan.menus[key] = tuple((usage, cost, choice)
                                           for cost, _, usage, choice in rows)
            for budget in budgets:
                hit = cheapest(menu, budget)
                self.table.set(node, key, budget,
                               INFEASIBLE if hit is None else hit[1])
                if self.record_choices and hit is not None:
                    self._choices[(node, key, budget)] = hit[2]

    # ------------------------------------------------------------------
    # witness reconstruction

    def rebuild_side(self):
        """The A side of a partition achieving the root value, rebuilt from
        the recorded argmin choices."""
        root = self.td.root
        value = self.root_value()
        if value is INFEASIBLE or value > self.k:
            raise RuntimeError("no witness: root value exceeds k")
        if not self.record_choices:
            raise RuntimeError("witness reconstruction needs recorded choices")
        side = self._rebuild(root, (), frozenset())
        return frozenset(side)

    def _rebuild(self, node, budget, wanted_trace):
        ctx = self.contexts[node]
        adhesion = ctx.adhesion
        s_key = self.table.canonical_side(node, wanted_trace)
        kind, *data = self._choices[(node, s_key, budget)]
        if kind == "child":
            c, cb = data
            part = self._rebuild(c, cb, frozenset())
        else:
            side, fam = data
            part = set(side)
            for c in self.children[node]:
                child_adhesion = self.contexts[c].adhesion
                trace = side & child_adhesion
                if c in fam:
                    part |= self._rebuild(c, fam[c], trace)
                elif child_adhesion and trace == child_adhesion:
                    part |= self.contexts[c].cone
        if part & adhesion != wanted_trace:
            part = set(ctx.cone) - part
        assert part & adhesion == wanted_trace
        return part


@dataclass
class SolveOptions:
    mode: str = "auto"                 # enumerate | colorcode | auto
    family_kind: str = "exhaustive"    # exhaustive | randomized
    family_seed: int = 0
    family_rounds: int | None = None
    witness: bool = True
    decomposition: RootedDecomposition | None = None
    enumerate_budget: int = ENUMERATE_BUDGET
    max_construct_vertices: int = CONSTRUCT_LIMIT


@dataclass
class SolveResult:
    answer: bool
    witness: Bipartition | None
    cut_size: int | None
    route: str
    stats: dict
    decomposition: RootedDecomposition | None = None
    solver: DPSolver | None = None


def _certify(graph, part, d, k):
    cut = edge_cut(graph, part)
    if not is_d_cut(graph, part, d) or len(cut) > k:
        raise WitnessCertificationError(
            f"witness failed certification: cut size {len(cut)}")
    return len(cut)


def solve(graph: Graph, k: int, d: int, options: SolveOptions = None) -> SolveResult:
    """Decide whether the graph has a d-cut with at most k crossing edges.

    Disconnected graphs are yes instances with an empty cut.  When d >= k
    the question degenerates to whether the global minimum cut is within
    k (every such cut is automatically degree-bounded).  Otherwise the
    dynamic program runs over a verified decomposition; any emitted
    witness is certified before being returned.
    """
    opts = options or SolveOptions()
    _check_arguments(k, d, opts.mode, opts.family_kind)
    stats = {"n": graph.n, "m": graph.m, "k": k, "d": d}

    comps = connected_components(graph)
    if len(comps) > 1:
        witness = None
        cut_size = None
        if opts.witness:
            witness = Bipartition.of(graph, comps[0])
            cut_size = _certify(graph, witness, d, k)
        return SolveResult(True, witness, cut_size, "disconnected", stats)

    if d >= k:
        size, cut = global_min_cut(graph)
        answer = size is not None and size <= k
        witness = None
        cut_size = None
        if answer and opts.witness:
            witness = cut
            cut_size = _certify(graph, witness, d, k)
        stats["min_cut"] = size
        return SolveResult(answer, witness, cut_size, "mincut", stats)

    td = opts.decomposition
    if td is not None:
        report, contexts = _verify(graph, td, k, opts.max_construct_vertices)
        if not report.passed:
            raise DecompositionError(
                f"supplied decomposition failed verification: {report.summary()}")
    else:
        td, contexts = _construct(graph, k, opts.max_construct_vertices)
    solver = DPSolver(graph, td, d, k, contexts=contexts, mode=opts.mode,
                      family_kind=opts.family_kind,
                      family_seed=opts.family_seed,
                      family_rounds=opts.family_rounds,
                      enumerate_budget=opts.enumerate_budget,
                      record_choices=opts.witness)
    solver.run()
    value = solver.root_value()
    answer = value <= k
    witness = None
    cut_size = None
    if answer and opts.witness:
        part = Bipartition.of(graph, solver.rebuild_side())
        cut_size = _certify(graph, part, d, k)
        if cut_size > value:
            raise WitnessCertificationError(
                f"witness cut {cut_size} exceeds table value {value}")
        witness = part
    stats.update({
        "root_value": None if value is INFEASIBLE else value,
        "table_entries": len(solver.table),
        "decomposition_nodes": td.node_count,
        "max_bag": max(len(b) for b in td.bags),
        "max_adhesion": max(len(ctx.adhesion) for ctx in solver.contexts),
        "minbeta_modes": solver.stats["modes"],
        "families_evaluated": solver.stats["families_evaluated"],
    })
    if opts.family_kind == "randomized":
        stats["family_seed"] = opts.family_seed
        stats["family_rounds"] = opts.family_rounds
    return SolveResult(answer, witness, cut_size, "dp", stats, td, solver)

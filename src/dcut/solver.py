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

Each entry holds the cheapest fitting row of one cost-sorted menu per
key, and its value is that row's cost.  A menu has a row for each way to
split the bag along a small candidate side, paying for each child and
bag edge the side breaks, and, under the empty side, a row for each way
to descend entirely into one child.  Candidate sides are
the bag subsets of at most k vertices connected in a helper graph
(adhesions turned into cliques plus the bag edges), listed exactly, grown
size by size.  With a randomized covering family they are the helper
graph's components of at most k vertices, short of the bag, on the
family's members, grown along chains of drawn sets in blocks of
round-bitset columns until the last listed side is isolated
(:meth:`DPSolver._drawn_sides`).  Each side comes with the number of bag
edges it splits, which is carried as a side grows.

A row using no adhesion vertex's budget fits every budget, so once a
side offers one at cost c, the menu's later sides are split only for
rows cheaper than c.  A menu thus leaves out the later sides' rows that
such a row beats, which no lookup could return; at a root, whose
adhesion is empty, every row is of this kind.  Root rows cost at least
1 on a connected graph; below that cap the root lists no further side.

The fill works on integer masks over vertex ids, and a side takes no
other form: node contexts, sides, table keys, rows and the witness
rebuild hold masks, and only the rebuilt witness is a frozenset.  The
entries' rows are the one record of the fill's choices, which the
witness rebuild reads; a node's menus are dropped once it is filled.  A
side splitting more than k bag edges is pruned before it is split;
otherwise its split edges and children are read with popcounts on masks
built once per node, and a side splitting more than k of them is pruned
before any item exists.  The split edges enter the budget search as a
start vector, and each child's finite options are read once per trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decomposition import (CONSTRUCT_LIMIT, DecompositionError,
                            RootedDecomposition, _construct, _verify,
                            derive_contexts)
from .graph import (Bipartition, Graph, _members, connected_components,
                    edge_cut, global_min_cut, is_connected, is_d_cut)
from .multisets import bounded_multisets
from .setfamily import heuristic_rounds, round_columns

INFEASIBLE = math.inf
ENUMERATE_BUDGET = 10 ** 6  # auto draws a randomized family above this many bag subsets


class WitnessCertificationError(RuntimeError):
    """A reconstructed witness failed certification; internal bug signal."""


def _check_arguments(graph, k, d, options, build=False, **flags):
    """Reject a bad k, d, seed, round count, mode or family kind, or a
    mistyped argument or option: ``flags`` are bool arguments beside the
    ``witness`` option, and the decomposition may be None only if ``build``."""
    typed = [("graph", graph, Graph, "a Graph"), ("k", k, int, "an int"),
             ("d", d, int, "an int"), ("options", options, SolveOptions, "a SolveOptions")]
    for name, value, kind, label in typed:  # the options' fields join once typed
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            raise TypeError(f"{name} must be {label}, got {value!r}")
        if name == "options":  # family_rounds None draws heuristic rounds
            typed += [("decomposition", options.decomposition,
                       (RootedDecomposition, type(None) if build else ()),
                       "a RootedDecomposition" + " or None" * build),
                      *((flag, on, bool, "a bool")
                        for flag, on in dict(flags, witness=options.witness).items()),
                      *((field, getattr(options, field), int, "an int") for field in
                        ("family_seed", "enumerate_budget", "max_construct_vertices")),
                      ("family_rounds", options.family_rounds, (int, type(None)), "an int")]
    if k < 0:
        raise ValueError("k must be non-negative")
    if d < 1:
        raise ValueError("d must be at least 1")
    if options.mode not in ("auto", "colorcode"):
        raise ValueError(f"unknown mode {options.mode!r}")
    if options.family_kind not in ("exhaustive", "randomized"):
        raise ValueError(f"unknown family kind {options.family_kind!r}")
    if options.family_rounds is not None and options.family_rounds < 1:
        raise ValueError(f"family_rounds must be at least 1, got {options.family_rounds}")
    if options.family_seed < 0:  # random.Random seeds with the absolute value
        raise ValueError(f"family_seed must be non-negative, got {options.family_seed}")


def budget_families(items, d, k, cost_cap, usage_order, start=None) -> list:
    """Every choice of one ``(budget, cost)`` option per split item whose
    budgets together give no vertex more than d cross neighbors and at most
    2k in total, and whose costs sum to at most ``cost_cap``.

    ``items`` holds ``(key, vertices, options)`` triples; every option's
    budget is a count vector on the item's sorted ``vertices``.  Pruning
    assumes every option costs at least one, as every split item does in
    the fill; for zero-cost options pass an infinite cap.  ``start`` is an
    optional ``(counts, cost)`` pair of cross neighbors per vertex and their
    cost, spent before the first item: the fill passes the split bag
    edges this way, since each edge has the one option of one neighbor at
    either end for cost one.  The families are those of the edges put
    first as items, without the edge picks.  Returns ``(usage, cost,
    picks)`` triples: the summed budgets on ``usage_order``, the summed
    costs and the chosen ``(key, budget)`` pairs, in item order.
    """
    counts, cost = start or ({}, 0)
    if cost > cost_cap or sum(counts.values()) > 2 * k \
            or any(m > d for m in counts.values()):
        return []
    if not items:  # the start vector is the one family
        return [(tuple(counts.get(v, 0) for v in usage_order), cost, ())]
    counts = dict(counts)
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

    rec(0, sum(counts.values()), cost)
    return found


def _lex_key(mask):
    """A key whose descending order lists vertex masks as their sorted
    vertex tuples ascend: the bits run lowest first, so of two sets the one
    holding the lowest vertex of their difference has the larger key, and
    the end marker puts a set before the sets it is a prefix of."""
    return bin(mask)[:1:-1] + "2"


def cheapest(entries, pvec):
    """The first of the cost-sorted ``(usage, cost, ...)`` entries whose
    usage fits within ``pvec`` pointwise, hence the cheapest such; None
    when none fits."""
    for entry in entries:
        if all(u <= q for u, q in zip(entry[0], pvec)):
            return entry
    return None


class CostTable:
    """The cost table, keyed per side of a node's adhesion, given as a
    vertex mask, under whichever of the side and its adhesion complement
    leaves out the adhesion's least vertex (the semantics are symmetric in
    the two), written exactly once per key with the fill's chosen row,
    ``(usage, cost, choice)``, or None: its value is the cost or INFEASIBLE."""

    def __init__(self, adhesions):
        self._adhesions = list(adhesions)  # vertex masks, one per node
        self._data = {}

    def key(self, node, side):
        """The key of the adhesion subset given as a vertex mask."""
        adhesion = self._adhesions[node]
        if side & ~adhesion:
            raise ValueError(f"side {_members(side)} not within adhesion "
                             f"of node {node}")
        return side ^ adhesion if side & adhesion & -adhesion else side

    def keys(self, node):
        """The node's distinct keys: the submasks of its adhesion without
        the least vertex, ascending."""
        adhesion = self._adhesions[node]
        rest = adhesion & (adhesion - 1)
        found = [rest]
        while found[-1]:
            found.append((found[-1] - 1) & rest)
        return found[::-1]

    def set(self, node, side, budget, row):
        key = (node, self.key(node, side), budget)
        if key in self._data:
            raise RuntimeError(f"table key written twice: {key}")
        self._data[key] = row

    def row(self, node, side, budget):
        """The entry's chosen row, or None when no row fits."""
        return self._data[(node, self.key(node, side), budget)]

    def get(self, node, side, budget):
        row = self.row(node, side, budget)
        return INFEASIBLE if row is None else row[1]

    def entries(self):
        for key, row in self._data.items():
            yield key, INFEASIBLE if row is None else row[1]

    def __len__(self):
        return len(self._data)


@dataclass
class NodePlan:
    """Per-node evaluation artifacts kept for the fill and backtracking."""

    adhesion_order: list
    budgets: list         # count vectors on adhesion_order
    sides: list           # sides the fill read, as vertex masks; their order ranks them
    mode: str


class DPSolver:
    """Fills the cost table bottom-up over a verified decomposition.  The
    type-checked ``record_choices`` has no effect: the benchmark passes it,
    and ROADMAP item 3 part B deletes it."""

    def __init__(self, graph: Graph, td: RootedDecomposition, d: int, k: int, *,
                 contexts=None, mode: str = "auto", family_kind: str = "exhaustive",
                 family_seed: int = 0, family_rounds=None,
                 enumerate_budget: int = ENUMERATE_BUDGET,
                 record_choices: bool = True):
        self.options = SolveOptions(  # the side search's settings
            mode=mode, family_kind=family_kind, family_seed=family_seed,
            family_rounds=family_rounds, decomposition=td,
            enumerate_budget=enumerate_budget)
        _check_arguments(graph, k, d, self.options, record_choices=record_choices)
        self.graph = graph
        self.td = td
        self.d = d
        self.k = k
        self.contexts = list(contexts) if contexts is not None else derive_contexts(graph, td)
        self.children = td.children()
        self.table = CostTable(ctx.adhesion_mask for ctx in self.contexts)
        self.root_floor = 1 if is_connected(graph) else 0  # least root row cost
        self.plans = [None] * td.node_count
        self.stats = {"modes": {}, "families_evaluated": 0, "sides_considered": 0,
                      "overloaded_side_prunes": 0}

    # ------------------------------------------------------------------
    # node evaluation

    def run(self):
        for t in self.td.postorder():
            self.fill_node(t)
        return self

    def root_value(self):
        return self.table.get(self.td.root, 0, ())

    def _edge_masks(self, node):
        """Each bag vertex's neighbours along the node's bag edges, as a
        vertex mask, keyed by the vertex's bit."""
        masks = {1 << v: 0 for v in _members(self.contexts[node].bag_mask)}
        for u, v in self.contexts[node].bag_edges:
            masks[1 << u] |= 1 << v
            masks[1 << v] |= 1 << u
        return masks

    def _splitter(self, node, edge_nbrs):
        """A function from a side, as a vertex mask, to the bag edges and
        children it splits, read off masks built once for the node:
        ``(crossing, traces)`` with ``crossing`` the ``(vertex bit, mask of
        its cross neighbours)`` pairs of the side's vertices that have some
        and ``traces`` the ``(child, trace mask)`` pairs of the children
        whose adhesion the side meets but does not hold."""
        kids = [(c, self.contexts[c].adhesion_mask) for c in self.children[node]]

        def split(side):
            outside = ~side
            crossing = []
            rest = side
            while rest:
                low = rest & -rest
                rest ^= low
                out = edge_nbrs[low] & outside
                if out:
                    crossing.append((low, out))
            traces = [(c, trace) for c, adhesion in kids
                      if (trace := adhesion & side) and trace != adhesion]
            return crossing, traces

        return split

    def _bag_rows(self, node, edges):
        """A function from a side, as a vertex mask, the number of bag
        edges it splits and a cost cap of at most k to its menu rows for
        splitting the bag along it that cost at most the cap, one per
        budget family, in the order :func:`budget_families` lists them.

        A side splitting more than k bag edges is pruned before it is
        split, and one splitting more than k bag edges and children before
        any item is built.  After these prunes, which the counters record,
        a side splitting more bag edges and children than the cap yields no
        row, as every split child costs at least one.  The split edges,
        each with the one finite option of one cross neighbor at either end
        for cost one, become the start vector of :func:`budget_families`;
        only the split children branch.  A child's finite ``(budget,
        value)`` options are read once per trace and kept for every side
        leaving that trace."""
        k, d, stats = self.k, self.d, self.stats
        usage_order = self.plans[node].adhesion_order
        split = self._splitter(node, edges)
        child_items = {}

        def child_item(c, trace):
            plan = self.plans[c]
            opts = []
            for b in plan.budgets:
                val = self.table.get(c, trace, b)
                if val is INFEASIBLE:
                    continue
                # A split child always pays at least one crossing edge.
                assert val >= 1
                opts.append((b, val))
            return (c, plan.adhesion_order, opts) if opts else None

        def rows(side, edges, cap):
            if edges > k:
                stats["overloaded_side_prunes"] += 1
                return []
            crossing, traces = split(side)
            if edges + len(traces) > k:
                stats["overloaded_side_prunes"] += 1
                return []
            if edges + len(traces) > cap:
                return []
            counts = {}
            for low, out in crossing:
                counts[low.bit_length() - 1] = out.bit_count()
                for w in _members(out):
                    counts[w] = counts.get(w, 0) + 1
            items = []
            for pair in traces:
                if pair not in child_items:
                    child_items[pair] = child_item(*pair)
                if child_items[pair] is None:
                    return []
                items.append(child_items[pair])
            families = budget_families(items, d, k, cap, usage_order,
                                       (counts, edges))
            stats["families_evaluated"] += len(families)
            return [(usage, cost, ("bag", side, dict(picks)))
                    for usage, cost, picks in families]

        return rows

    def _child_rows(self, node):
        """The node's ``(usage, cost, ("child", child, budget))`` rows for
        descending into one child: one per finite child entry on no trace."""
        adhesion_order = self.plans[node].adhesion_order
        rows = []
        for c in self.children[node]:
            child_plan = self.plans[c]
            for cb in child_plan.budgets:
                if (row := self.table.row(c, 0, cb)) is not None:
                    counts = dict(zip(child_plan.adhesion_order, cb))
                    usage = tuple(counts.get(v, 0) for v in adhesion_order)
                    rows.append((usage, row[1], ("child", c, cb)))
        return rows

    def _side_candidates(self, node, edges):
        """Candidate sides for splitting the bag, as an iterable, to be read
        once, of ``(vertex mask, number of bag edges the side splits)``
        pairs in rank order, plus how they were found: ``"colorcode"`` when
        drawn from the randomized family, which happens in colorcode mode
        or, in auto mode, when the bag has more than ``enumerate_budget``
        subsets of at most k vertices; ``"enumerate"`` when listed exactly.
        ``edges`` holds the node's bag-edge masks (:meth:`_edge_masks`)."""
        bag_order = _members(self.contexts[node].bag_mask)
        b = len(bag_order)
        subset_count = sum(math.comb(b, i) for i in range(min(self.k, b) + 1))
        nbrs = self._helper_masks(node)
        opts = self.options
        if opts.family_kind == "randomized" and (
                opts.mode == "colorcode" or subset_count > opts.enumerate_budget):
            rounds = opts.family_rounds or heuristic_rounds(
                b, self.k, self.k * self.k + self.k)
            return self._drawn_sides(bag_order, nbrs, edges,
                                     opts.family_seed * 100003 + node * 7919,
                                     rounds), "colorcode"
        return self._listed_sides(bag_order, nbrs, edges), "enumerate"

    def _drawn_sides(self, bag_order, nbrs, edges, seed, rounds):
        """The helper graph's components of 1..k vertices, short of the
        whole bag, on the drawn rounds, in lexicographic order, each with
        the number of bag edges it splits.  The rounds are
        :func:`dcut.setfamily.round_columns`' blocks, drawn only as far as
        needed.

        A round R reaches each such component C along a chain of sets: from
        C's lowest vertex, each step adds the lowest helper neighbour that
        R draws.  The order in which a chain adds a set's vertices depends
        on the set alone, so each set has one parent, and the sets form a
        tree.  Each vertex of C has at most |C| - 1 drawn neighbours, so R
        fits every set on the chain: it draws the set and gives none of its
        vertices k or more drawn neighbours (a bit-sliced count per vertex
        and block).  Each block grows the tree from the singletons, handing
        each set the rounds in which a chain reaches it and stepping, in
        each, to the lowest drawn neighbour, a child when it may follow the
        set on a chain; a set is kept as a side once one of its rounds
        draws none of its neighbours.  So a block costs the chains of its
        fitting rounds, and a dense bag's C(b, <= k) connected sets are
        never listed.

        A set is finished once it is kept and so is every set below it,
        and a block no longer enters it.  The draw stops after the block
        that finishes every singleton: every connected set of at most k
        vertices is then kept, so this is the block in which the last
        listed side is first isolated."""
        limit = min(self.k, len(bag_order) - 1)
        bits = [1 << v for v in bag_order]
        helper = {1 << v: nbrs[v] for v in bag_order}
        # a reached set: [its members' helper neighbours, split count, kept,
        # its children not finished plus one while it is not kept, the
        # vertices that may follow it on a chain, its parent]
        reached = {}
        for bit in bits if limit > 0 else ():
            after = ~(2 * bit - 1)
            reached[bit] = [helper[bit], edges[bit].bit_count(), False,
                            1 + ((helper[bit] & after).bit_count() if limit > 1 else 0),
                            after, 0]
        unfinished = len(reached)  # singletons
        for _, columns in round_columns(len(bag_order), seed,
                                        rounds if reached else 0):
            drawn = dict(zip(bits, columns))
            fits = {}  # rounds drawing the vertex and at most limit - 1 neighbours
            for bit in bits:
                around = helper[bit]
                if around.bit_count() < limit:
                    fits[bit] = drawn[bit]
                    continue
                more = [0] * limit  # more[j]: rounds with more than j drawn neighbours
                while around:
                    low = around & -around
                    around ^= low
                    column = drawn[low]
                    for j in range(limit - 1, 0, -1):
                        more[j] |= more[j - 1] & column
                    more[0] |= column
                fits[bit] = drawn[bit] & ~more[-1]
            level = {bit: fits[bit] for bit in bits if reached[bit][3]}
            for size in range(1, limit + 1):
                below = {}  # the next size's sets and the rounds that reach them
                for side, live in level.items():
                    entry = reached[side]
                    near, cut, kept, _, after, _ = entry
                    rest = near & ~side
                    while rest and live:
                        low = rest & -rest
                        rest ^= low
                        # the rounds whose lowest drawn neighbour is low
                        step = live & drawn[low]
                        live ^= step
                        if not low & after or size == limit:
                            continue
                        step &= fits[low]
                        if not step:
                            continue
                        grown = side | low
                        child = reached.get(grown)
                        if child is None:
                            out, wider = edges[low], near | helper[low]
                            # a neighbour below low would have come before it
                            follow = after & ~(near & (2 * low - 1))
                            child = reached[grown] = [
                                wider, cut + (out & ~side).bit_count()
                                - (out & side).bit_count(), False,
                                1 + ((wider & ~grown & follow).bit_count()
                                     if size + 1 < limit else 0), follow, side]
                        if child[3]:
                            below[grown] = step
                    if live and not kept:  # rounds with no drawn neighbour
                        entry[2] = True
                        entry[3] -= 1
                        while not entry[3]:  # finished, and so perhaps its parent
                            if not entry[5]:
                                unfinished -= 1
                                break
                            entry = reached[entry[5]]
                            entry[3] -= 1
                level = below
            if not unfinished:
                break
        kept = [side for side, entry in reached.items() if entry[2]]
        return [(side, reached[side][1])
                for side in sorted(kept, key=_lex_key, reverse=True)]

    def _listed_sides(self, bag_order, nbrs, edges):
        """The helper graph's connected bag subsets of 1..k vertices, short
        of the whole bag, with their split bag edges, by size and then
        lexicographically, yielded as ``(side, split count)`` pairs; a size
        is grown when its first side is asked for.

        A disconnected side never beats its component that meets the
        adhesion, and that component comes first in this order.  Every
        connected set of s + 1 vertices holds a connected set of s, so
        each size is grown from the last by one helper neighbour; each set
        is kept with the union of its members' neighbours and its split
        edges, which adding v changes by v's edges leaving the set less
        those entering it."""
        level = {1 << v: (nbrs[v], edges[1 << v].bit_count()) for v in bag_order}
        by_bit = {1 << v: nbrs[v] for v in bag_order}
        for size in range(1, min(self.k, len(bag_order) - 1) + 1):
            if size > 1:
                grown = {}
                for side, (near, cut) in level.items():
                    rest = near & ~side
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        if side | low not in grown:
                            out = edges[low]
                            grown[side | low] = (near | by_bit[low], cut
                                                 + (out & ~side).bit_count()
                                                 - (out & side).bit_count())
                level = grown
            for side in sorted(level, key=_lex_key, reverse=True):
                yield side, level[side][1]

    def _helper_masks(self, node):
        """Each bag vertex's neighbours, as a vertex mask, in the helper
        graph: adhesions of the node and of each child become cliques, and
        the bag edges come along.  Components of induced subgraphs then
        localize candidate sides."""
        ctx = self.contexts[node]
        nbrs = dict.fromkeys(_members(ctx.bag_mask), 0)
        kids = [self.contexts[c].adhesion_mask for c in self.children[node]]
        edges = [1 << u | 1 << v for u, v in ctx.bag_edges]
        for group in [ctx.adhesion_mask, *kids, *edges]:
            for u in _members(group):
                nbrs[u] |= group ^ 1 << u
        return nbrs

    def fill_node(self, node):
        """Give each of the node's table entries the cheapest fitting row of
        its key's cost-sorted menu.  Each side's rows are built under the
        cap of k and of one less than the least cost of a zero-usage row
        that an earlier side of its key offers, so the menu holds no row
        that such a row beats.  The root reads no side once its cap is below
        the least root row cost."""
        adhesion_mask = self.contexts[node].adhesion_mask
        adhesion_order = _members(adhesion_mask)
        budgets = bounded_multisets(adhesion_order, self.d, self.k)
        edges = self._edge_masks(node)
        cuts, mode = self._side_candidates(node, edges)
        self.stats["modes"][mode] = self.stats["modes"].get(mode, 0) + 1
        plan = self.plans[node] = NodePlan(adhesion_order, budgets, [], mode)
        # Rows rank by cost (at most k: families are capped at k, children
        # offer finite table values), then side (a child after every side),
        # then usage; the sort is stable, so the first family, child and
        # child budget win the remaining ties.  ``caps`` holds, per trace on
        # the adhesion, one less than its menu's least zero-usage cost so far.
        k = self.k
        ranked = {key: [] for key in self.table.keys(node)}
        caps = {}
        floor = self.root_floor if node == self.td.root else -math.inf
        bag_rows = self._bag_rows(node, edges)
        for rank, (side, cut) in enumerate(cuts):
            plan.sides.append(side)
            trace = side & adhesion_mask
            rows = bag_rows(side, cut, caps.get(trace, k))
            if rows:
                ranked[self.table.key(node, trace)] += [
                    (cost, rank, usage, choice) for usage, cost, choice in rows]
                # each row is within the cap, so a zero-usage one lowers it;
                # a trace and its adhesion complement share one menu
                zero = [cost for usage, cost, _ in rows if not any(usage)]
                if zero:
                    caps[trace] = caps[trace ^ adhesion_mask] = min(zero) - 1
            if caps.get(0, k) < floor:  # no later root side has a row
                break
        self.stats["sides_considered"] += len(plan.sides)
        ranked[0] += [(cost, len(plan.sides), usage, choice)
                      for usage, cost, choice in self._child_rows(node)]
        for key, rows in ranked.items():
            menu = [(usage, cost, choice) for cost, _, usage, choice
                    in sorted(rows, key=lambda row: row[:3])]
            for budget in budgets:
                self.table.set(node, key, budget, cheapest(menu, budget))

    # ------------------------------------------------------------------
    # witness reconstruction

    def rebuild_side(self):
        """The A side of a partition achieving the root value.  A visited
        node reads the row of its entry under the wanted trace and its
        budget; its part is the row's side with its visited children's
        parts, or their complement in its cone, whichever meets its adhesion
        in the wanted trace.  Nodes are visited top-down and closed bottom-up."""
        value = self.root_value()
        if value is INFEASIBLE or value > self.k:
            raise RuntimeError("no witness: root value exceeds k")
        visits = [(self.td.root, (), 0, None)]  # node, budget, wanted trace, caller
        parts = []
        for node, budget, wanted, _ in visits:  # visits grows as it is walked
            kind, *data = self.table.row(node, wanted, budget)[2]
            # descending into one child is the empty side splitting it alone
            side, picks = (0, {data[0]: data[1]}) if kind == "child" else data
            parts.append(side)
            for c in self.children[node]:
                child_adhesion = self.contexts[c].adhesion_mask
                trace = side & child_adhesion
                if c in picks:
                    visits.append((c, picks[c], trace, len(parts) - 1))
                elif child_adhesion and trace == child_adhesion:
                    parts[-1] |= self.contexts[c].cone_mask
        for i in reversed(range(len(visits))):
            node, _, wanted, caller = visits[i]
            adhesion = self.contexts[node].adhesion_mask
            if parts[i] & adhesion != wanted:
                parts[i] = self.contexts[node].cone_mask & ~parts[i]
            assert parts[i] & adhesion == wanted
            if caller is not None:
                parts[caller] |= parts[i]
        return frozenset(_members(parts[0]))


@dataclass
class SolveOptions:
    # auto | colorcode.  With a randomized family, colorcode draws every
    # node's sides, and auto only those of bags past enumerate_budget.
    mode: str = "auto"
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
    witness is certified before being returned.  A supplied decomposition
    is verified before the route is chosen, so a bad one is rejected on
    every route.
    """
    opts = SolveOptions() if options is None else options
    _check_arguments(graph, k, d, opts, build=True)
    stats = {"n": graph.n, "m": graph.m, "k": k, "d": d}
    td = opts.decomposition
    if td is not None:
        report, contexts = _verify(graph, td, k, opts.max_construct_vertices)
        if not report.passed:
            raise DecompositionError(
                f"supplied decomposition failed verification: {report.summary()}")

    comps = connected_components(graph)
    solver = None
    if len(comps) > 1:
        route, answer, side = "disconnected", True, comps[0]
    elif d >= k:
        size, cut = global_min_cut(graph)
        stats["min_cut"] = size
        route, answer = "mincut", size is not None and size <= k
        side = cut.side_a if answer else None
    else:
        if td is None:
            td, contexts = _construct(graph, k, opts.max_construct_vertices)
        solver = DPSolver(graph, td, d, k, contexts=contexts, mode=opts.mode,
                          family_kind=opts.family_kind,
                          family_seed=opts.family_seed,
                          family_rounds=opts.family_rounds,
                          enumerate_budget=opts.enumerate_budget)
        solver.run()
        value = solver.root_value()
        route, answer = "dp", value <= k
        side = solver.rebuild_side() if answer and opts.witness else None
        stats.update({
            "root_value": None if value is INFEASIBLE else value,
            "table_entries": len(solver.table),
            "decomposition_nodes": td.node_count,
            "max_bag": max(len(b) for b in td.bags),
            "max_adhesion": max(c.adhesion_mask.bit_count() for c in solver.contexts),
            "minbeta_modes": solver.stats["modes"],
            "families_evaluated": solver.stats["families_evaluated"],
            "sides_considered": solver.stats["sides_considered"],
            "overloaded_side_prunes": solver.stats["overloaded_side_prunes"],
        })
        if "colorcode" in solver.stats["modes"]:  # only drawing nodes use these
            stats["family_seed"] = opts.family_seed
            stats["family_rounds"] = opts.family_rounds

    witness = cut_size = None
    if answer and opts.witness:
        witness = Bipartition.of(graph, side)
        cut_size = _certify(graph, witness, d, k)
        if route == "dp" and cut_size > value:
            raise WitnessCertificationError(
                f"witness cut {cut_size} exceeds table value {value}")
    return SolveResult(answer, witness, cut_size, route, stats,
                       td if solver else None, solver)

import math
import random
from itertools import combinations

from dcut import (DPSolver, Graph, SubsetFamily, build_randomized,
                  heuristic_rounds)
from dcut.generators import gnm_random
from dcut.decomposition import NodeContext
from dcut.graph import Bipartition, SizeLimitExceeded, _max_flow, is_d_cut
from dcut.oracle import OracleResult


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def local_edges(graph, ctx):
    """Edges of a node's local graph: inside its cone, minus the edges
    internal to its adhesion."""
    cone, adhesion = ctx.cone, ctx.adhesion
    return [e for e in graph.edges
            if e[0] in cone and e[1] in cone
            and not (e[0] in adhesion and e[1] in adhesion)]


def loglog_slope(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x in sizes]
    ys = [math.log(y) for y in times]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) \
        / sum((x - mean_x) ** 2 for x in xs)


def adjacency_masks(graph):
    """Each vertex's neighbours as a bitmask, in the form the cut search
    of ``dcut.decomposition`` takes."""
    return [sum(1 << w for w in graph.adj[v]) for v in graph.vertices]


def gray_small_cuts(local_adj, k):
    """Reference for ``decomposition._small_cuts``: every bipartition of the
    indices crossed by at most k edges, as (side mask, crossing edges), by
    a Gray-code scan of all subsets of indices 0..m-2, so that the last
    index stays on the fixed side.  Shares no code with the tree search."""
    m = len(local_adj)
    if m <= 1:
        return []
    degs = [a.bit_count() for a in local_adj]
    mask = 0
    cut = 0
    found = []
    for i in range(1, 1 << (m - 1)):
        j = (i & -i).bit_length() - 1
        bit = 1 << j
        inside = (local_adj[j] & mask).bit_count()
        if mask & bit:
            cut += 2 * inside - degs[j]
        else:
            cut += degs[j] - 2 * inside
        mask ^= bit
        if cut <= k:
            found.append((mask, cut))
    return found


def gray_reference_min_dcut(graph, d):
    """Reference for ``oracle.brute_force_min_dcut``: the same Gray-code
    order over subsets of vertices 0..n-2, but each step updates every
    vertex's cross-degree and a count of vertices over d, and a side is
    kept when none is over d and its cut beats the best so far."""
    n = graph.n
    if n < 2:
        return OracleResult(None, None)
    side = 0
    cut = 0
    cross = [0] * n
    over = 0  # vertices with more than d cross neighbors
    best = None
    best_mask = 0
    neighbors = [tuple(graph.adj[v]) for v in range(n)]
    for i in range(1, 1 << (n - 1)):
        j = (i & -i).bit_length() - 1
        bit = 1 << j
        j_in_a = not side & bit
        side ^= bit
        new_cross_j = 0
        for u in neighbors[j]:
            old = cross[u]
            if bool(side & (1 << u)) != j_in_a:
                new_cross_j += 1
                cross[u] = old + 1
                if old == d:
                    over += 1
                cut += 1
            else:
                cross[u] = old - 1
                if old == d + 1:
                    over -= 1
                cut -= 1
        old_j = cross[j]
        cross[j] = new_cross_j
        if old_j > d >= new_cross_j:
            over -= 1
        elif old_j <= d < new_cross_j:
            over += 1
        if side and over == 0 and (best is None or cut < best):
            best = cut
            best_mask = side
    if best is None:
        return OracleResult(None, None)
    part = Bipartition.of(graph, {v for v in range(n - 1) if best_mask >> v & 1})
    assert is_d_cut(graph, part, d) and best >= 0
    return OracleResult(best, part)


class UnknownEdge(ValueError):
    """An edge set refers to an edge not present in the graph."""


def is_d_matching(graph, edges, d: int) -> bool:
    """True iff every vertex is incident to at most ``d`` of the given edges
    of the graph: the reference that a d-cut's crossing edges satisfy."""
    count = {}
    for u, v in edges:
        if v not in graph.adj[u]:
            raise UnknownEdge(f"edge {(u, v)} not in graph")
        count[u] = count.get(u, 0) + 1
        count[v] = count.get(v, 0) + 1
    return all(c <= d for c in count.values())


def components(adj, vertices) -> list:
    """Vertex sets of the components that ``adj`` (a sequence or mapping
    from vertex to neighbours) induces on ``vertices``, in the order of
    each component's first member in ``vertices``."""
    left = set(vertices)
    comps = []
    for start in vertices:
        if start not in left:
            continue
        left.remove(start)
        comp = [start]
        for u in comp:  # comp grows as it is walked: a breadth-first search
            for w in adj[u]:
                if w in left:
                    left.remove(w)
                    comp.append(w)
        comps.append(frozenset(comp))
    return comps


def axiom_violation_reference(graph, td):
    """Reference for ``decomposition._axiom_violation``: the same checks on
    vertex and node sets, with ``components`` on the tree."""
    if td.n_vertices != graph.n:
        return ("vertex-count-mismatch", (td.n_vertices, graph.n))
    for e in graph.edges:
        if not any(e[0] in bag and e[1] in bag for bag in td.bags):
            return ("uncovered-edge", e)
    occurrence = [set() for _ in range(graph.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            occurrence[v].add(i)
    tree = [kids + (() if p is None else (p,))
            for kids, p in zip(td.children(), td.parent)]
    for v in graph.vertices:
        if not occurrence[v]:
            return ("missing-vertex", v)
        if len(components(tree, occurrence[v])) != 1:
            return ("disconnected-occurrence", v)
    return None


def contexts_reference(graph, td):
    """Reference for ``decomposition.derive_contexts`` on a decomposition
    that meets the axioms: cones and adhesions as frozensets, each node's
    bag edges by a scan of every edge, then stored as the context's masks."""
    cones = [None] * td.node_count
    kids = td.children()
    for t in td.postorder():
        cone = set(td.bags[t])
        for c in kids[t]:
            cone |= cones[c]
        cones[t] = frozenset(cone)
    contexts = []
    for t in range(td.node_count):
        p = td.parent[t]
        adhesion = frozenset() if p is None else td.bags[t] & td.bags[p]
        cone = cones[t]
        bag = td.bags[t]
        bag_edges = tuple(e for e in graph.edges
                          if e[0] in bag and e[1] in bag
                          and not (e[0] in adhesion and e[1] in adhesion))
        contexts.append(NodeContext(
            node=t, bag_mask=vertex_mask(bag), adhesion_mask=vertex_mask(adhesion),
            cone_mask=vertex_mask(cone), bag_edges=bag_edges))
    return contexts


def compactness_reference(graph, td, ctxs):
    """Reference for ``decomposition.verify``'s compactness check: None, or
    the first non-root node whose interior is empty, is disconnected (by
    ``components``) or has another neighbourhood than its adhesion."""
    bad = None
    for ctx in ctxs:
        if td.parent[ctx.node] is None:
            continue
        interior = ctx.cone - ctx.adhesion
        if not interior:
            bad = ("empty-interior", ctx.node)
            break
        if len(components(graph.adj, interior)) != 1:
            bad = ("interior-disconnected", ctx.node)
            break
        boundary = frozenset(w for v in interior for w in graph.adj[v]) - interior
        if boundary != ctx.adhesion:
            bad = ("adhesion-mismatch", (ctx.node, boundary, ctx.adhesion))
            break
    return bad


def verify_reference(graph, td, k):
    """Reference for ``decomposition.verify`` on graphs of at most 24
    vertices: its checks as ``(name, status, detail)`` triples, from the
    references above and, for the bags, the least breaking side among the
    sorted ``gray_small_cuts``."""
    assert graph.n <= 24
    detail = axiom_violation_reference(graph, td)
    if detail is not None:
        return [("axioms", "fail", detail)] + [
            (name, "skipped", "axioms failed")
            for name in ("compactness", "adhesion-size", "unbreakable-bags")]
    ctxs = contexts_reference(graph, td)
    checks = [("axioms", "pass", None)]
    bad = compactness_reference(graph, td, ctxs)
    checks.append(("compactness", "fail" if bad else "pass", bad))
    oversize = [(ctx.node, len(ctx.adhesion)) for ctx in ctxs if len(ctx.adhesion) > k]
    checks.append(("adhesion-size", "fail" if oversize else "pass",
                   oversize[0] if oversize else None))
    bad = None
    if any(len(bag) > 2 * k + 1 for bag in td.bags):
        for mask, cut in sorted(gray_small_cuts(adjacency_masks(graph), k)):
            side = vertex_set(mask)
            broken = [t for t, bag in enumerate(td.bags)
                      if min(len(bag & side), len(bag - side)) > k]
            if broken:
                bad = ("breakable-bag", (broken[0], side, cut))
                break
    return checks + [("unbreakable-bags", "fail" if bad else "pass", bad)]


def vertex_mask(vertices):
    """The vertices as a bitmask over vertex ids, the form the solver's
    candidate sides take."""
    return sum(1 << v for v in vertices)


def vertex_set(mask):
    """The vertex ids of a bitmask as a frozenset."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def split_items(solver, node, side):
    """Reference for the solver's mask split counts: the ``(child, trace)``
    pairs of the children whose adhesion the frozenset side splits, and the
    bag edges it splits, by set operations on the node's contexts."""
    kids = []
    for c in solver.children[node]:
        child_adhesion = solver.contexts[c].adhesion
        trace = side & child_adhesion
        if trace and trace != child_adhesion:
            kids.append((c, trace))
    edges = [e for e in solver.contexts[node].bag_edges
             if (e[0] in side) != (e[1] in side)]
    return kids, edges


def min_cut_reference(graph):
    """Reference for ``graph.global_min_cut`` on a connected graph of at
    least two vertices: every flow from vertex 0 run to its end, and side A
    what vertex 0 reaches in the residual of the first least one, by a
    search over the residual's dicts."""
    best = None
    for sink in range(1, graph.n):
        value, residual = _max_flow(graph, 0, sink)
        if best is None or value < best:
            best, best_residual = value, residual
    side = {0}
    stack = [0]
    while stack:
        for w, c in best_residual[stack.pop()].items():
            if c > 0 and w not in side:
                side.add(w)
                stack.append(w)
    return best, frozenset(side)


class UnboundedFillSolver(DPSolver):
    """The solver with every side's rows built up to cost k, whatever
    zero-usage rows earlier sides of the same key offer, and every
    candidate side read at the root too: a reference for the fill's bound
    and the root's stop, whose menus hold every row and whose entries hold
    the rows that the fill's entries must equal."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.root_floor = -math.inf  # no cap falls below it

    def _bag_rows(self, node, edges):
        rows = super()._bag_rows(node, edges)
        return lambda side, cut, cap: rows(side, cut, self.k)


def rebuild_reference(solver):
    """Reference for ``DPSolver.rebuild_side``: the recursive rebuild, one
    call per visited node, each reading the row of the node's entry under
    the wanted trace and its budget.  Recurses as deep as the
    decomposition."""
    def rebuild(node, budget, wanted):
        ctx = solver.contexts[node]
        kind, *data = solver.table.row(node, wanted, budget)[2]
        if kind == "child":
            c, cb = data
            part = rebuild(c, cb, 0)
        else:
            side, fam = data
            part = side
            for c in solver.children[node]:
                child_adhesion = vertex_mask(solver.contexts[c].adhesion)
                trace = side & child_adhesion
                if c in fam:
                    part |= rebuild(c, fam[c], trace)
                elif child_adhesion and trace == child_adhesion:
                    part |= vertex_mask(solver.contexts[c].cone)
        if part & vertex_mask(ctx.adhesion) != wanted:
            part = vertex_mask(ctx.cone) & ~part
        return part

    return vertex_set(rebuild(solver.td.root, (), 0))


def make_corpus(count, seed, n_lo=4, n_hi=12):
    """Seeded random connected graphs with n in [n_lo, n_hi] and
    m in [n-1, 2n]."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        n = rng.randint(n_lo, n_hi)
        m = min(rng.randint(n - 1, 2 * n), n * (n - 1) // 2)
        graphs.append(gnm_random(n, m, seed=seed + i + 1))
    return graphs


def with_cuts(solver, node, sides):
    """The frozenset sides as the solver's candidate pairs, in the given
    order: each side's vertex mask with the number of the node's bag edges
    it splits, by a scan of the bag edges."""
    edges = solver.contexts[node].bag_edges
    return [(vertex_mask(side), sum((u in side) != (v in side) for u, v in edges))
            for side in sides]


class AllSubsetsSolver(DPSolver):
    """The solver with every bag subset of 1..min(k, b-1) vertices as a
    candidate side, connected in the helper graph or not: a reference
    that shares no side search with the solver under test."""

    def _side_candidates(self, node, edges):
        bag_order = sorted(self.contexts[node].bag)
        top = min(self.k, len(bag_order) - 1)
        return with_cuts(self, node, [
            frozenset(combo) for size in range(1, top + 1)
            for combo in combinations(bag_order, size)]), "enumerate"


def randomized_members_reference(universe, seed, rounds):
    """Reference for ``setfamily.build_randomized``'s members: one
    ``getrandbits(1)`` call per element of the sorted universe per round,
    then the empty set.  Shares no code with the bulk draw."""
    order = sorted(universe)
    rng = random.Random(seed)
    members = [frozenset(u for u in order if rng.getrandbits(1))
               for _ in range(rounds)]
    return (*members, frozenset())


class ComponentSplitSolver(DPSolver):
    """The solver with randomized-family sides found by the reference
    family, its distinct members as frozensets, and ``components`` on each:
    a reference that shares neither the bulk draw nor the column filter
    with the solver under test."""

    def _side_candidates(self, node, edges):
        opts = self.options
        if opts.mode != "colorcode" or opts.family_kind != "randomized":
            return super()._side_candidates(node, edges)
        bag = self.contexts[node].bag
        rounds = opts.family_rounds or heuristic_rounds(
            len(bag), self.k, self.k * self.k + self.k)
        members = randomized_members_reference(
            bag, opts.family_seed * 100003 + node * 7919, rounds)
        adj = {v: {w for w in bag if mask >> w & 1}
               for v, mask in self._helper_masks(node).items()}
        sides = {side for member in set(members)
                 for side in components(adj, member)
                 if len(side) <= self.k and side != bag}
        return with_cuts(self, node, sorted(sides, key=sorted)), "colorcode"


def _subsets_up_to(order, bound):
    for size in range(min(bound, len(order)) + 1):
        yield from combinations(order, size)


def verify_covering(family: SubsetFamily, a: int, b: int, *,
                    pair_budget: int = 10 ** 7):
    """None if the family covers (a, b); otherwise the first uncovered
    disjoint pair (A, B) in (size, lexicographic) order.

    Members and candidate pairs are compared as bitmasks so the exhaustive
    pair scan stays cheap for the universes this is meant for.
    """
    order = family.universe
    n = len(order)
    count_a = sum(math.comb(n, i) for i in range(min(a, n) + 1))
    count_b = sum(math.comb(n, i) for i in range(min(b, n) + 1))
    if count_a * count_b > pair_budget:
        raise SizeLimitExceeded(
            f"{count_a * count_b} candidate pairs exceed budget {pair_budget}")
    index = {u: i for i, u in enumerate(order)}
    member_masks = [sum(1 << index[u] for u in s) for s in family.members]
    for combo_a in _subsets_up_to(order, a):
        mask_a = sum(1 << index[u] for u in combo_a)
        rest = [u for u in order if not mask_a >> index[u] & 1]
        for combo_b in _subsets_up_to(rest, b):
            mask_b = sum(1 << index[u] for u in combo_b)
            for s in member_masks:
                if not mask_a & ~s and not mask_b & s:
                    break
            else:
                return combo_a, combo_b
    return None


def find_covering_family(universe, a: int, b: int, *, seed: int = 0,
                         rounds: int | None = None, retries: int = 10) -> SubsetFamily:
    """Draw, verify, and retry with incremented seeds until a family
    covers (a, b); the returned provenance records the seed that passed."""
    order = tuple(sorted(universe))
    if rounds is None:
        rounds = heuristic_rounds(len(order), a, b)
    for attempt in range(retries):
        family = build_randomized(order, a, b, seed + attempt, rounds)
        if verify_covering(family, a, b) is None:
            return family
    raise RuntimeError(
        f"no covering family within {retries} retries (seed={seed}, rounds={rounds})")

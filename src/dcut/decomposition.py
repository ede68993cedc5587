"""Rooted compact tree decompositions with small adhesions and bags that
no small edge cut can split unevenly.

The constructor here is a desk-scale substitute for the polynomial
machinery the solver's correctness argument treats as a black box: it
recursively tests the current vertex set for (k,k)-edge-unbreakability by
listing every edge cut of order at most k (a search over the edges of a
spanning forest, not over all bipartitions), splits along a minimum-order
witness cut when one exists, and keeps children compact by recursing on
connected components with their exact neighborhoods as adhesions.
Whatever it returns must pass :func:`verify` in full; the solver relies
on nothing else about the construction.

The constructor, the checks and the node contexts hold every vertex set
as a vertex mask, as the solver does, and read the graph's neighbour
masks, with one component search, :func:`dcut.graph.lowest_component`.
Only the decomposition and the reports they hand out hold frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import (DisconnectedGraph, Graph, SizeLimitExceeded, _mask,
                    _members, is_connected, lowest_component, mask_components)

CONSTRUCT_LIMIT = 24  # most vertices construct and verify list small cuts for
_FALLBACK_LIMIT = 16  # pieces this small also try every bag above the adhesion
_WITNESS_CAP = 24     # most witness cuts a piece derives candidate bags from


class DecompositionError(RuntimeError):
    """Construction failed or produced output that fails verification."""


class AxiomViolation(ValueError):
    """The tree-decomposition axioms do not hold; carries a counterexample."""

    def __init__(self, kind, payload):
        super().__init__(f"{kind}: {payload}")
        self.kind = kind
        self.payload = payload


@dataclass(frozen=True)
class RootedDecomposition:
    """Tree of bags; ``parent[i]`` is ``None`` exactly at the root."""

    n_vertices: int
    bags: tuple
    parent: tuple

    def __post_init__(self):
        if len(self.bags) != len(self.parent) or not self.bags:
            raise ValueError("bags and parent links must align and be non-empty")
        if len(self.bags) > self.n_vertices + 1:
            raise ValueError("node count exceeds vertex count + 1")
        roots = [i for i, p in enumerate(self.parent) if p is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        for i, p in enumerate(self.parent):
            if p is not None and not (0 <= p < len(self.bags)):
                raise ValueError(f"parent of node {i} out of range")
        if len(self.postorder()) != len(self.bags):  # a cycle hangs off no root
            raise ValueError("parent links contain a cycle")
        for i, bag in enumerate(self.bags):
            for v in bag:
                if not (0 <= v < self.n_vertices):
                    raise ValueError(f"bag {i} references unknown vertex {v}")

    @property
    def root(self) -> int:
        return self.parent.index(None)

    @property
    def node_count(self) -> int:
        return len(self.bags)

    def children(self) -> tuple:
        kids = [[] for _ in self.bags]
        for i, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(i)
        return tuple(tuple(sorted(c)) for c in kids)

    def postorder(self) -> list:
        kids = self.children()
        order = []
        stack = [(self.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
            else:
                stack.append((node, True))
                for c in reversed(kids[node]):
                    stack.append((c, False))
        return order


@dataclass(frozen=True)
class NodeContext:
    """Per-node derived quantities as vertex masks: the bag, its adhesion
    (the part shared with the parent) and cone (union of descendant bags;
    less the adhesion, the node's interior), and the bag edges (edges
    inside the bag, minus those internal to the adhesion).  The node's
    local graph is the cone with the edges not internal to the adhesion;
    the bag edges are the part of it the node itself pays for."""

    node: int
    bag_mask: int
    adhesion_mask: int
    cone_mask: int
    bag_edges: tuple

    bag = property(lambda self: frozenset(_members(self.bag_mask)))
    adhesion = property(lambda self: frozenset(_members(self.adhesion_mask)))
    cone = property(lambda self: frozenset(_members(self.cone_mask)))


def _axiom_violation(graph: Graph, td: RootedDecomposition):
    """None if the tree-decomposition axioms hold, else a counterexample."""
    if td.n_vertices != graph.n:
        return ("vertex-count-mismatch", (td.n_vertices, graph.n))
    occurrence = [0] * graph.n  # each vertex's nodes, and the tree, as node masks
    for i, bag in enumerate(td.bags):
        for v in bag:
            occurrence[v] |= 1 << i
    for u, v in graph.edges:
        if not occurrence[u] & occurrence[v]:
            return ("uncovered-edge", (u, v))
    tree = [_mask(kids) | (0 if p is None else 1 << p)
            for kids, p in zip(td.children(), td.parent)]
    for v, nodes in enumerate(occurrence):
        if not nodes:
            return ("missing-vertex", v)
        if lowest_component(tree, nodes) != nodes:
            return ("disconnected-occurrence", v)
    return None


def derive_contexts(graph: Graph, td: RootedDecomposition) -> list:
    """One context per node, computed exactly from the definitions."""
    detail = _axiom_violation(graph, td)
    if detail is not None:
        raise AxiomViolation(*detail)
    bags = [_mask(bag) for bag in td.bags]
    cones = bags[:]
    for t in td.postorder()[:-1]:  # children first; the root comes last
        cones[td.parent[t]] |= cones[t]
    contexts = []
    for t, bag in enumerate(bags):
        p = td.parent[t]
        adhesion = 0 if p is None else bag & bags[p]
        bag_edges = tuple(  # u's bag neighbours above u, unless both in the adhesion
            (u, v) for u in _members(bag) for v in _members(
                graph.adj_masks[u] & -(2 << u)
                & (bag & ~adhesion if adhesion >> u & 1 else bag)))
        contexts.append(NodeContext(t, bag, adhesion, cones[t], bag_edges))
    return contexts


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skipped
    detail: object = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def summary(self) -> str:
        """Every check that did not pass, with its status and detail."""
        return "; ".join(f"{c.name} {c.status}: {c.detail}"
                         for c in self.checks if c.status != "pass")

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _small_cuts(adj, piece, k):
    """Every bipartition of the piece, a vertex mask, crossed by at most k
    edges of ``adj`` (a neighbour mask per vertex), as (side mask, number
    of crossing edges), sorted by mask.  The piece's highest vertex stays
    on the fixed side, so each bipartition appears exactly once.

    The vertices are placed one at a time in the order of a breadth-first
    spanning forest: a tree from the highest vertex, then one from the
    least unplaced vertex of each further component.  Each placement
    extends every partial side kept so far, on either side, counting the
    edges back to the vertices already placed, and keeps the extensions
    crossed by at most k of them.  Every vertex but a tree's root is
    placed after its tree parent, so a kept partial side separates at most
    k tree edges: at most sum_{j<=k} C(m-1, j) are kept per choice of
    sides for the further components, not the 2^(m-1) bipartitions.
    """
    if not piece & (piece - 1):
        return []
    steps = []  # (vertex bit, edges back to the vertices placed before it)
    seen = placed = 0
    for root in (piece.bit_length() - 1, *_members(piece)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        tree = [root]
        for v in tree:  # tree grows as it is walked: a breadth-first search
            steps.append((1 << v, adj[v] & placed))
            placed |= 1 << v
            fresh = adj[v] & piece & ~seen
            seen |= fresh
            tree += _members(fresh)
    partial = [(0, 0)]  # the highest vertex alone, on the fixed side
    for bit, back in steps[1:]:
        grown = []
        for side, cut in partial:
            to_side = (back & side).bit_count()
            if cut + to_side <= k:
                grown.append((side, cut + to_side))
            moved = cut + back.bit_count() - to_side
            if moved <= k:
                grown.append((side | bit, moved))
        partial = grown
    return sorted(found for found in partial if found[0])


def _breaks(mask, bag_mask, bag_size, k):
    """True iff the cut side holds more than k of the bag's vertices and
    leaves more than k of them on the other side."""
    a = (mask & bag_mask).bit_count()
    return a > k and bag_size - a > k


def verify(graph: Graph, td: RootedDecomposition, k: int, *,
           unbreakable_limit: int = CONSTRUCT_LIMIT) -> VerificationReport:
    """Check the four properties the solver relies on.

    (i) tree-decomposition axioms, (ii) compactness of every non-root
    node, (iii) adhesion sizes at most k, (iv) every bag unbreakable by
    edge cuts of order at most k, the last against every such cut of the
    graph, connected or not (:func:`_small_cuts`).  Bags of at most 2k+1
    vertices pass (iv) without a search.  Above ``unbreakable_limit``
    vertices the search is skipped with a size-limit marker; the other
    checks still run.  When the axioms fail, (ii)-(iv) are skipped.  A
    failure of (iv) names the breaking cut whose side, read as a bitmask
    over the vertices, is least, and the first bag it breaks.
    """
    return _verify(graph, td, k, unbreakable_limit)[0]


def _compactness_failure(graph, td, ctxs):
    """None if every non-root node's interior is non-empty, connected and
    has its adhesion as neighbourhood; else the failure at the least such
    node.  By the axioms an interior's neighbours lie in the cone, and a
    child's interior in its parent's: children come first, and a node's
    component search grows the largest part its children's searches found."""
    adj, kids = graph.adj_masks, td.children()
    found, failures = {}, {}
    for t in td.postorder()[:-1]:  # the root comes last and has no adhesion
        adhesion = ctxs[t].adhesion_mask
        interior = ctxs[t].cone_mask & ~adhesion
        part = max((found[c] for c in kids[t]), key=int.bit_count, default=0)
        rest = interior & ~part
        near = _mask(v for v in _members(rest) if adj[v] & part) if part else None
        found[t] = part | lowest_component(adj, rest, near)
        boundary = _mask(a for a in _members(adhesion) if adj[a] & interior)
        if not interior:
            failures[t] = ("empty-interior", t)
        elif found[t] != interior:
            failures[t] = ("interior-disconnected", t)
        elif boundary != adhesion:
            failures[t] = ("adhesion-mismatch",
                           (t, frozenset(_members(boundary)), ctxs[t].adhesion))
    return failures[min(failures)] if failures else None


def _verify(graph, td, k, unbreakable_limit, scan=None):
    """:func:`verify`'s report, and the node contexts (None when the axioms
    fail).  ``scan`` returns the whole graph's :func:`_small_cuts` if the
    caller has them; otherwise they are searched here.  Either way only
    when some bag has more than 2k+1 vertices, and not above the limit."""
    checks = []
    try:
        ctxs, detail = derive_contexts(graph, td), None
    except AxiomViolation as exc:
        ctxs, detail = None, (exc.kind, exc.payload)
    checks.append(CheckResult("axioms", "fail" if detail else "pass", detail))
    if detail is None:
        bad = _compactness_failure(graph, td, ctxs)
        checks.append(CheckResult("compactness", "fail" if bad else "pass", bad))
        oversize = [(ctx.node, ctx.adhesion_mask.bit_count()) for ctx in ctxs
                    if ctx.adhesion_mask.bit_count() > k]
        checks.append(CheckResult(
            "adhesion-size", "fail" if oversize else "pass",
            oversize[0] if oversize else None))
    else:
        # the other checks read the contexts, or vertices the graph may lack
        checks += [CheckResult(name, "skipped", "axioms failed")
                   for name in ("compactness", "adhesion-size", "unbreakable-bags")]
        return VerificationReport(tuple(checks)), None

    if all(len(bag) <= 2 * k + 1 for bag in td.bags):
        # no cut can leave more than k of a bag's vertices on each side
        checks.append(CheckResult("unbreakable-bags", "pass"))
    elif graph.n > unbreakable_limit:
        checks.append(CheckResult("unbreakable-bags", "skipped",
                                  f"n={graph.n} exceeds limit {unbreakable_limit}"))
    else:
        cuts = scan() if scan else _small_cuts(graph.adj_masks, (1 << graph.n) - 1, k)
        bag_sizes = [len(bag) for bag in td.bags]
        bad = None
        for mask, cut in cuts:
            for t, ctx in enumerate(ctxs):
                if _breaks(mask, ctx.bag_mask, bag_sizes[t], k):
                    bad = ("breakable-bag", (t, frozenset(_members(mask)), cut))
                    break
            if bad:
                break
        checks.append(CheckResult("unbreakable-bags", "fail" if bad else "pass", bad))
    return VerificationReport(tuple(checks)), ctxs


class _Builder:
    """Backtracking search for a decomposition of the required shape.

    Pieces, adhesions and bags are vertex masks, and a node is a
    ``(bag, children)`` pair.  Root bags are tried in order: the whole
    current piece when it is unbreakable, then bags derived from
    minimum-order witness cuts (one-sided endpoint sets, then both), then
    an exhaustive fallback for small pieces.  Failures are memoized per
    (piece, adhesion), cut searches per piece, for the length of one
    construction.
    """

    def __init__(self, graph: Graph, k: int):
        self.adj = graph.adj_masks
        self.k = k
        self._failed = set()
        self._scans = {}

    def scan(self, piece):
        """The piece's :func:`_small_cuts`, searched once per piece."""
        found = self._scans.get(piece)
        if found is None:
            found = self._scans[piece] = _small_cuts(self.adj, piece, self.k)
        return found

    def build(self, piece, adhesion):
        key = (piece, adhesion)
        if key in self._failed:
            return None
        if piece.bit_count() <= 2 * self.k + 1:
            return piece, []
        cuts = self.scan(piece)
        witnesses = self._witnesses(piece, cuts)
        if not witnesses:
            return piece, []
        for bag in self._candidates(piece, adhesion, witnesses):
            node = self._try_bag(piece, bag, cuts)
            if node is not None:
                return node
        self._failed.add(key)
        return None

    def _witnesses(self, piece, cuts):
        """Minimum-order cuts splitting the piece into two sides of more
        than k vertices each, by sorted vertex tuple; empty iff the piece
        is unbreakable."""
        k = self.k
        size = piece.bit_count()
        best = None
        found = []
        for mask, cut in cuts:
            if _breaks(mask, piece, size, k):
                if best is None or cut < best:
                    best = cut
                    found = [mask]
                elif cut == best:
                    found.append(mask)
        return sorted(found, key=_members)[:_WITNESS_CAP]

    def _candidates(self, piece, adhesion, witnesses):
        seen = set()
        for side in witnesses:
            other = piece & ~side
            ends_a = ends_b = 0
            for u in _members(side):
                out = self.adj[u] & other
                if out:
                    ends_a |= 1 << u
                    ends_b |= out
            for extra in (ends_a, ends_b, ends_a | ends_b):
                bag = adhesion | extra
                if bag not in seen and bag != adhesion and bag != piece:
                    seen.add(bag)
                    yield bag
        if piece.bit_count() <= _FALLBACK_LIMIT:
            rest = _members(piece & ~adhesion)
            for size in range(1, len(rest)):
                for extra in combinations(rest, size):
                    bag = adhesion | _mask(extra)
                    if bag not in seen:
                        seen.add(bag)
                        yield bag

    def _try_bag(self, piece, bag, cuts):
        size = bag.bit_count()
        if size > 2 * self.k + 1 and any(
                _breaks(mask, bag, size, self.k) for mask, _ in cuts):
            return None
        children = []
        for comp in mask_components(self.adj, piece & ~bag):
            near = 0
            for v in _members(comp):
                near |= self.adj[v]
            boundary = near & piece & ~comp
            if boundary.bit_count() > self.k:
                return None
            sub_piece = comp | boundary
            if sub_piece == piece:
                return None
            child = self.build(sub_piece, boundary)
            if child is None:
                return None
            children.append(child)
        return bag, children


def construct(graph: Graph, k: int, *,
              max_vertices: int = CONSTRUCT_LIMIT) -> RootedDecomposition:
    """Build a decomposition that passes :func:`verify` in full.

    Raises :class:`DecompositionError` rather than ever returning an
    unverified result.
    """
    return _construct(graph, k, max_vertices)[0]


def _construct(graph, k, max_vertices):
    """:func:`construct`'s result, and the contexts its final check derived."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if graph.n > max_vertices:
        raise SizeLimitExceeded(
            f"construction is limited to {max_vertices} vertices; n={graph.n}")
    if not is_connected(graph):
        raise DisconnectedGraph("construction requires a connected graph")
    builder = _Builder(graph, k)
    whole = (1 << graph.n) - 1
    root = builder.build(whole, 0)
    if root is None:  # the root's own failure is recorded, so one exists
        piece, adhesion = min(builder._failed, key=lambda f: (f[0].bit_count(), f))
        raise DecompositionError(
            f"bag search exhausted without a valid decomposition at k={k}; smallest "
            f"failed piece {_members(piece)} with adhesion {_members(adhesion)}")
    bags = []
    parents = []
    stack = [(root, None)]
    while stack:
        (bag, children), parent = stack.pop()
        idx = len(bags)
        bags.append(frozenset(_members(bag)))
        parents.append(parent)
        for child in reversed(children):
            stack.append((child, idx))
    td = RootedDecomposition(graph.n, tuple(bags), tuple(parents))
    # The root piece is the whole graph, so its scan serves the final check.
    report, contexts = _verify(graph, td, k, max_vertices,
                               lambda: builder.scan(whole))
    if not report.passed:
        raise DecompositionError(
            f"constructed decomposition failed verification: {report.summary()}")
    return td, contexts

"""Simple undirected graphs, bipartitions and cut predicates.

Vertices are dense integer ids ``0..n-1``.  Graphs are immutable after
construction and safe to share; every operation in this module is pure.
Inside the decomposition and the solver a vertex set is a bitmask over
vertex ids, bit v for vertex v; the mask helpers here serve both, and a
graph carries its neighbour masks (``adj_masks``) beside ``adj``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class InvalidBipartition(ValueError):
    """The two sides do not partition the graph's vertex set."""


class DisconnectedGraph(ValueError):
    """Raised by operations that require a connected input."""


class SizeLimitExceeded(RuntimeError):
    """An exhaustive search was requested past its vertex or universe limit."""


class Graph:
    """Immutable simple undirected graph.

    Self-loops and parallel edges are rejected outright: the algorithms
    here assume simple graphs and silently repairing input would hide
    data problems.
    """

    __slots__ = ("n", "edges", "adj", "adj_masks", "_hash")

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        adj = [set() for _ in range(n)]
        masks = [0] * n
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
            if type(u) is not int or type(v) is not int:  # bools are ints too
                raise TypeError(f"edge {edge!r} has an endpoint that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add(key)
            adj[u].add(v)
            adj[v].add(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.edges = tuple(sorted(seen))
        self.adj = tuple(frozenset(s) for s in adj)
        self.adj_masks = tuple(masks)
        self._hash = hash((n, self.edges))

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Bipartition:
    """A two-sided vertex partition; a cut when both sides are non-empty."""

    side_a: frozenset
    side_b: frozenset

    @classmethod
    def of(cls, graph: Graph, side_a) -> "Bipartition":
        a = frozenset(side_a)
        return cls(a, frozenset(graph.vertices) - a)

    @property
    def is_cut(self) -> bool:
        return bool(self.side_a) and bool(self.side_b)


def _check_bipartition(graph: Graph, part: Bipartition) -> None:
    if part.side_a & part.side_b:
        raise InvalidBipartition("sides overlap")
    if part.side_a | part.side_b != frozenset(graph.vertices):
        raise InvalidBipartition("sides do not cover the vertex set")


def _mask(vertices):
    """The vertices as a bitmask over vertex ids."""
    return sum(1 << v for v in vertices)


def _members(mask):
    """The vertex ids of a bitmask, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def lowest_component(adj, mask, seed=None):
    """The component of ``mask``'s lowest bit, ``adj`` a neighbour mask per
    bit; or, given bits of ``mask`` as ``seed``, the components they meet."""
    comp = frontier = mask & -mask if seed is None else seed
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp


def mask_components(adj, mask) -> list:
    """Each :func:`lowest_component` (grown breadth-first) of ``mask`` in turn."""
    comps = []
    while mask:
        comps.append(lowest_component(adj, mask))
        mask ^= comps[-1]
    return comps


def connected_components(graph: Graph) -> list:
    """Maximal connected vertex sets, sorted by smallest member."""
    return [frozenset(_members(comp))
            for comp in mask_components(graph.adj_masks, (1 << graph.n) - 1)]


def is_connected(graph: Graph) -> bool:
    whole = (1 << graph.n) - 1
    return lowest_component(graph.adj_masks, whole) == whole


def edge_cut(graph: Graph, part: Bipartition) -> list:
    """Edges with one endpoint on each side, in sorted order."""
    _check_bipartition(graph, part)
    a = part.side_a
    return [e for e in graph.edges if (e[0] in a) != (e[1] in a)]


def is_d_cut(graph: Graph, part: Bipartition, d: int) -> bool:
    """True iff both sides are non-empty and every vertex has at most ``d``
    neighbors across the partition."""
    if d < 1:
        raise ValueError("d must be at least 1")
    _check_bipartition(graph, part)
    if not part.is_cut:
        return False
    a = part.side_a
    for v in graph.vertices:
        across = v in a
        limit = d
        for w in graph.adj[v]:
            if (w in a) != across:
                limit -= 1
                if limit < 0:
                    return False
    return True


def _max_flow(graph: Graph, source: int, sink: int, limit=None):
    """Unit-capacity max flow (Edmonds-Karp), stopped once it reaches
    ``limit`` when one is given; returns (value, residual)."""
    n = graph.n
    cap = [dict() for _ in range(n)]
    for u, v in graph.edges:
        cap[u][v] = 1
        cap[v][u] = 1
    flow = 0
    while limit is None or flow < limit:
        parent = [-1] * n
        parent[source] = source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for w, c in cap[u].items():
                if c > 0 and parent[w] == -1:
                    parent[w] = u
                    queue.append(w)
        if parent[sink] == -1:
            break
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] = cap[v].get(u, 0) + 1
            v = u
        flow += 1
    return flow, cap


def global_min_cut(graph: Graph):
    """Smallest edge cut over all non-trivial bipartitions.

    Runs a unit-capacity max flow from vertex 0 to every other vertex;
    simple and provably correct, which is all the desk scale needs.  Each
    flow stops at the best value so far: reaching it cannot beat it.
    Returns ``(size, bipartition)``; size is ``None`` for graphs with
    fewer than two vertices (no non-trivial bipartition exists).
    """
    if not is_connected(graph):
        raise DisconnectedGraph("global min cut requires a connected graph")
    if graph.n < 2:
        return None, None
    best = None
    for sink in range(1, graph.n):
        value, residual = _max_flow(graph, 0, sink, best)
        if best is None or value < best:
            best = value
            best_residual = residual
    # Side A is what vertex 0 reaches in the residual.
    residual = [_mask(w for w, c in out.items() if c > 0) for out in best_residual]
    side = lowest_component(residual, (1 << graph.n) - 1)
    return best, Bipartition.of(graph, _members(side))

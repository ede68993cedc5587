import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcut import bounded_multisets
from dcut.solver import cheapest

counts_strategy = st.dictionaries(st.integers(0, 6), st.integers(0, 4), max_size=5)


def sparse(vertices, vec):
    """The ``(vertex, multiplicity)`` listing of a count vector."""
    return tuple((v, m) for v, m in zip(sorted(vertices), vec) if m)


def fits(usage, budget):
    """Pointwise inclusion, through the solver's own comparison."""
    return cheapest([(usage, 0)], budget) is not None


class TestMultisetBasics:
    """A budget is a count vector aligned with its sorted vertices."""

    def test_empty_equals_empty(self):
        # the empty vertex set has exactly one budget, the empty vector
        assert bounded_multisets(set(), 2, 3) == bounded_multisets((), 1, 0) == [()]

    def test_differing_multiplicity(self):
        assert bounded_multisets({3}, 2, 2) == [(0,), (1,), (2,)]

    def test_insertion_order_irrelevant(self):
        a = bounded_multisets([5, 1], 2, 3)
        b = bounded_multisets((1, 5), 2, 3)
        c = bounded_multisets({5, 1}, 2, 3)
        assert a == b == c

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            bounded_multisets((), -1, 2)
        with pytest.raises(ValueError):
            bounded_multisets((), 1, -1)

    def test_rejects_unsorted_direct_construction(self):
        # the vector is aligned with the sorted vertices, not the given order
        assert bounded_multisets([9, 2], 1, 2) == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_size_and_support(self):
        for vec in bounded_multisets((0, 4), 2, 3):
            assert len(vec) == 2
            assert sum(vec) == sum(m for _, m in sparse((0, 4), vec))
        assert sparse((0, 4), (2, 1)) == ((0, 2), (4, 1))


class TestInclusion:
    def test_empty_included_everywhere(self):
        assert all(fits((0, 0), b) for b in bounded_multisets((1, 2), 3, 4))

    def test_multiplicity_exceeds(self):
        assert not fits((2,), (1,))

    def test_pointwise(self):
        assert fits((1, 0), (1, 3))
        assert not fits((0, 1), (1, 0))


@settings(max_examples=200, deadline=None)
@given(counts_strategy, counts_strategy)
def test_operations_match_counter_semantics(raw_a, raw_b):
    a, b = Counter({k: v for k, v in raw_a.items() if v}), \
        Counter({k: v for k, v in raw_b.items() if v})
    support = sorted(set(raw_a) | set(raw_b))
    va = tuple(a[v] for v in support)
    vb = tuple(b[v] for v in support)
    assert (va == vb) == (a == b)
    assert fits(va, vb) == all(a[k] <= b[k] for k in a)
    assert sum(va) == sum(a.values())
    assert sparse(support, va) == tuple(sorted(a.items()))


def nested_loop_count(q, d, k):
    """Independent counter: multiplicity vectors over q vertices."""
    return sum(1 for vec in product(range(d + 1), repeat=q) if sum(vec) <= k)


class TestBoundedMultisets:
    def test_empty_support(self):
        assert bounded_multisets((), 3, 5) == [()]

    def test_single_vertex(self):
        assert bounded_multisets({7}, 1, 2) == [(0,), (1,)]

    def test_two_vertices_d2_k3(self):
        assert len(bounded_multisets({0, 1}, 2, 3)) == 8

    def test_counts_match_nested_loops(self):
        for q in range(0, 5):
            for d in range(1, 4):
                for k in range(q, 5):
                    out = bounded_multisets(range(q), d, k)
                    assert len(out) == nested_loop_count(q, d, k)
                    assert len(set(out)) == len(out)

    def test_results_satisfy_all_conditions(self):
        support = (2, 5, 9)
        for vec in bounded_multisets(support, 2, 3):
            assert len(vec) == len(support)
            assert all(0 <= m <= 2 for m in vec)
            assert sum(vec) <= 3

    def test_count_bounded_by_subset_selection(self):
        # at most sum of C(q*d, i) for i <= k: selecting copies of vertices
        for q, d, k in [(3, 2, 3), (4, 3, 4), (2, 1, 2)]:
            out = bounded_multisets(range(q), d, k)
            bound = sum(math.comb(q * d, i) for i in range(k + 1))
            assert len(out) <= bound

    def test_support_larger_than_size_cap_rejected(self):
        with pytest.raises(ValueError):
            bounded_multisets(range(5), 1, 4)

    def test_deterministic_canonical_order(self):
        # sorted by sparse listing, which is not the plain tuple order: the
        # solver keeps the first of equally cheap choices, so witnesses
        # depend on it
        out = bounded_multisets({3, 1}, 1, 2)
        assert out == [(0, 0), (1, 0), (1, 1), (0, 1)]
        for q in range(0, 5):
            support = range(2, 2 + 3 * q, 3)
            for d in range(1, 4):
                for k in range(q, 7):
                    out = bounded_multisets(support, d, k)
                    assert out == sorted(out, key=lambda v: sparse(support, v))

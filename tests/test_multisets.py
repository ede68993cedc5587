import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcut import EMPTY_MULTISET, VertexMultiset, bounded_multisets

counts_strategy = st.dictionaries(st.integers(0, 6), st.integers(0, 4), max_size=5)


class TestMultisetBasics:
    def test_empty_equals_empty(self):
        assert VertexMultiset.from_counts({}) == EMPTY_MULTISET

    def test_differing_multiplicity(self):
        assert VertexMultiset.from_counts({3: 1}) != VertexMultiset.from_counts({3: 2})

    def test_insertion_order_irrelevant(self):
        a = VertexMultiset.from_counts([(5, 2), (1, 1)])
        b = VertexMultiset.from_counts([(1, 1), (5, 2)])
        assert a == b and hash(a) == hash(b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VertexMultiset.from_counts({0: -1})

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(ValueError):
            VertexMultiset(((2, 1), (1, 1)))

    def test_size_and_support(self):
        m = VertexMultiset.from_counts({0: 2, 4: 1})
        assert m.size == 3
        assert m.support() == (0, 4)
        assert m.multiplicity(4) == 1 and m.multiplicity(1) == 0


class TestInclusion:
    def test_empty_included_everywhere(self):
        assert EMPTY_MULTISET.included_in(VertexMultiset.from_counts({1: 3}))

    def test_multiplicity_exceeds(self):
        a = VertexMultiset.from_counts({1: 2})
        b = VertexMultiset.from_counts({1: 1})
        assert not a.included_in(b)

    def test_pointwise(self):
        a = VertexMultiset.from_counts({0: 1})
        b = VertexMultiset.from_counts({0: 1, 1: 3})
        assert a.included_in(b)


@settings(max_examples=200, deadline=None)
@given(counts_strategy, counts_strategy)
def test_operations_match_counter_semantics(raw_a, raw_b):
    a, b = Counter({k: v for k, v in raw_a.items() if v}), \
        Counter({k: v for k, v in raw_b.items() if v})
    ma, mb = VertexMultiset.from_counts(a), VertexMultiset.from_counts(b)
    assert (ma == mb) == (a == b)
    assert ma.included_in(mb) == all(a[k] <= b[k] for k in a)
    assert ma.size == sum(a.values())


def nested_loop_count(q, d, k):
    """Independent counter: multiplicity vectors over q vertices."""
    return sum(1 for vec in product(range(d + 1), repeat=q) if sum(vec) <= k)


class TestBoundedMultisets:
    def test_empty_support(self):
        assert bounded_multisets((), 3, 5) == [EMPTY_MULTISET]

    def test_single_vertex(self):
        out = bounded_multisets({7}, 1, 2)
        assert out == [EMPTY_MULTISET, VertexMultiset.from_counts({7: 1})]

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
        for ms in bounded_multisets(support, 2, 3):
            assert all(v in support for v in ms.support())
            assert all(m <= 2 for _, m in ms.entries)
            assert ms.size <= 3

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
        out = bounded_multisets({3, 1}, 1, 2)
        assert out == sorted(out, key=lambda m: m.entries)
        assert out[0] == EMPTY_MULTISET

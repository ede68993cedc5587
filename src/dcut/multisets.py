"""Vertex multisets with canonical encodings.

The solver keys its tables on multisets of vertices (cross-neighbor
budgets), so the encoding is canonical by construction: entries sorted
by vertex id, zero multiplicities dropped.  That makes equality, hashing
and deduplication structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class VertexMultiset:
    """Multiset of vertices as sorted ``(vertex, multiplicity)`` pairs."""

    entries: tuple = ()
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        last = -1
        total = 0
        for v, m in self.entries:
            if m < 1:
                raise ValueError("stored multiplicities must be >= 1")
            if v <= last:
                raise ValueError("entries must be strictly sorted by vertex")
            last = v
            total += m
        object.__setattr__(self, "size", total)

    @classmethod
    def from_counts(cls, counts) -> "VertexMultiset":
        """Build from a mapping or iterable of ``(vertex, multiplicity)``;
        zero counts are dropped, negatives rejected."""
        items = counts.items() if hasattr(counts, "items") else counts
        merged = {}
        for v, m in items:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                merged[v] = merged.get(v, 0) + m
        return cls(tuple(sorted(merged.items())))

    def multiplicity(self, v: int) -> int:
        for w, m in self.entries:
            if w == v:
                return m
            if w > v:
                break
        return 0

    def support(self) -> tuple:
        return tuple(v for v, _ in self.entries)

    def included_in(self, other: "VertexMultiset") -> bool:
        """Pointwise multiplicity comparison."""
        return all(m <= other.multiplicity(v) for v, m in self.entries)


EMPTY_MULTISET = VertexMultiset()


def bounded_multisets(vertices, max_mult: int, max_size: int) -> list:
    """All multisets supported on ``vertices`` with per-vertex multiplicity
    at most ``max_mult`` and total size at most ``max_size``.

    Enumerates per-vertex multiplicity vectors with running-sum pruning, so
    no duplicates are ever generated.  Result is sorted by canonical
    encoding.  For an empty vertex set the only result is the empty
    multiset.
    """
    verts = sorted(vertices)
    if len(verts) > max_size:
        raise ValueError(
            f"support of size {len(verts)} exceeds the size cap {max_size}")
    if max_mult < 0 or max_size < 0:
        raise ValueError("caps must be non-negative")
    out = []
    stack = []

    def rec(i, total):
        if i == len(verts):
            out.append(VertexMultiset(tuple(stack)))
            return
        v = verts[i]
        rec(i + 1, total)
        for m in range(1, min(max_mult, max_size - total) + 1):
            stack.append((v, m))
            rec(i + 1, total + m)
            stack.pop()

    rec(0, 0)
    out.sort(key=lambda p: p.entries)
    return out

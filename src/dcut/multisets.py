"""Cross-neighbor budgets as count vectors.

A budget says how many cross neighbors each vertex of a vertex set may
have.  It is a plain tuple of multiplicities aligned with the sorted
vertices, so the solver's table keys and the vectors it compares are the
same objects.
"""

from __future__ import annotations


def bounded_multisets(vertices, max_mult: int, max_size: int) -> list:
    """All count vectors on ``sorted(vertices)`` with every entry at most
    ``max_mult`` and total at most ``max_size``.

    The vectors come in the order their sparse ``(vertex, multiplicity)``
    listings sort: the zero vector first, then by the first nonzero vertex,
    its multiplicity, and so on.  The solver keeps the first of equally
    cheap choices, so this order decides which witness it emits.  For an
    empty vertex set the only result is ``()``.
    """
    verts = sorted(vertices)
    if len(verts) > max_size:
        raise ValueError(
            f"support of size {len(verts)} exceeds the size cap {max_size}")
    if max_mult < 0 or max_size < 0:
        raise ValueError("caps must be non-negative")
    n = len(verts)

    def rec(i, room):
        # Vectors on verts[i:] totalling at most room, in listing order.
        out = [(0,) * (n - i)]
        for j in range(i, n):
            pad = (0,) * (j - i)
            for m in range(1, min(max_mult, room) + 1):
                out.extend(pad + (m,) + rest for rest in rec(j + 1, room - m))
        return out

    return rec(0, max_size)

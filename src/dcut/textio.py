"""The two line-based text formats: DIMACS graphs and decompositions.

Each line is a record led by a one-letter type; blank lines and lines
whose first field is ``c`` (``c`` alone or followed by whitespace) are
comments.  Ids are 1-based in the text, 0-based inside.
Malformed text raises :class:`ParseError` with the offending line number
(0 when the fault is the file as a whole); nothing is repaired, so
self-loops and repeated edges are hard errors.

DIMACS: ``p edge <n> <m>``, then ``m`` lines ``e <u> <v>``.
Decompositions: ``s td <nodes> <maxbag> <n>``, a ``b <node> <vertex>...``
line per node and a ``p <child> <parent>`` line per non-root node.
"""

from __future__ import annotations

from .decomposition import RootedDecomposition
from .graph import Graph


class ParseError(ValueError):
    """Malformed text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _records(text: str):
    """(line number from 1, fields) of each line but blanks and comments."""
    for line, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and fields[0] != "c":
            yield line, fields


def _ints(line: int, fields, what: str) -> list:
    """The fields as integers, or a :class:`ParseError` naming ``what``."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise ParseError(line, f"non-integer {what}") from None


def parse_graph(text: str) -> Graph:
    """Parse a DIMACS edge-format graph."""
    header = None
    edges = []
    seen = set()
    for line, fields in _records(text):
        if fields[0] == "p":
            if header is not None:
                raise ParseError(line, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(line, "problem line must be 'p edge <n> <m>'")
            header = _ints(line, fields[2:], "problem field")
            if header[0] < 0 or header[1] < 0:
                raise ParseError(line, "negative counts in problem line")
        elif fields[0] == "e":
            if header is None:
                raise ParseError(line, "edge line before problem line")
            if len(fields) != 3:
                raise ParseError(line, "edge line must be 'e <u> <v>'")
            u, v = _ints(line, fields[1:], "edge endpoint")
            n = header[0]
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line, f"endpoint out of range 1..{n}")
            if u == v:
                raise ParseError(line, f"self-loop at vertex {u}")
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in seen:
                raise ParseError(line, f"repeated edge {u} {v}")
            seen.add(key)
            edges.append(key)
        else:
            raise ParseError(line, f"unrecognized line type {fields[0]!r}")
    if header is None:
        raise ParseError(0, "missing problem line")
    if len(edges) != header[1]:
        raise ParseError(
            0, f"problem line declares {header[1]} edges, found {len(edges)}")
    return Graph(header[0], edges)


def format_graph(graph: Graph, comment: str | None = None) -> str:
    """DIMACS edge format, led by the comment's lines as ``c`` lines."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {graph.n} {graph.m}")
    for u, v in graph.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> RootedDecomposition:
    """Parse the decomposition format."""
    header = None
    bags = {}
    parents = {}
    for line, fields in _records(text):
        if fields[0] == "s":
            if header is not None:
                raise ParseError(line, "duplicate header line")
            if len(fields) != 5 or fields[1] != "td":
                raise ParseError(line, "header must be 's td <nodes> <maxbag> <n>'")
            header_line = line
            header = _ints(line, fields[2:], "header field")
        elif fields[0] == "b":
            if header is None:
                raise ParseError(line, "bag line before header")
            ids = _ints(line, fields[1:], "bag field")
            if not ids:
                raise ParseError(line, "bag line missing node id")
            node, verts = ids[0], ids[1:]
            if not (1 <= node <= header[0]):
                raise ParseError(line, f"bag id {node} out of range")
            if node in bags:
                raise ParseError(line, f"duplicate bag {node}")
            for v in verts:
                if not (1 <= v <= header[2]):
                    raise ParseError(line, f"bag references unknown vertex {v}")
            if len(set(verts)) != len(verts):
                raise ParseError(line, "repeated vertex in bag")
            bags[node] = frozenset(v - 1 for v in verts)
        elif fields[0] == "p":
            if header is None:
                raise ParseError(line, "parent line before header")
            if len(fields) != 3:
                raise ParseError(line, "parent line must be 'p <child> <parent>'")
            child, parent = _ints(line, fields[1:], "parent field")
            if not (1 <= child <= header[0] and 1 <= parent <= header[0]):
                raise ParseError(line, "parent line id out of range")
            if child in parents:
                raise ParseError(line, f"duplicate parent line for {child}")
            if child == parent:
                raise ParseError(line, "node cannot be its own parent")
            parents[child] = parent
        else:
            raise ParseError(line, f"unrecognized line type {fields[0]!r}")
    if header is None:
        raise ParseError(0, "missing header line")
    n_nodes, max_bag, n_vertices = header
    missing = [i for i in range(1, n_nodes + 1) if i not in bags]
    if missing:
        raise ParseError(0, f"missing bag line for node {missing[0]}")
    largest = max((len(bag) for bag in bags.values()), default=0)
    if max_bag != largest:
        raise ParseError(header_line,
                         f"header max bag {max_bag} but the largest bag has {largest}")
    parent_tuple = tuple(parents[i + 1] - 1 if i + 1 in parents else None
                         for i in range(n_nodes))
    try:
        return RootedDecomposition(
            n_vertices, tuple(bags[i + 1] for i in range(n_nodes)), parent_tuple)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def serialize(td: RootedDecomposition) -> str:
    """Canonical decomposition text: header, bag lines, parent lines."""
    max_bag = max(len(b) for b in td.bags)
    lines = [f"s td {td.node_count} {max_bag} {td.n_vertices}"]
    for i, bag in enumerate(td.bags):
        verts = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i + 1} {verts}".rstrip())
    for i, p in enumerate(td.parent):
        if p is not None:
            lines.append(f"p {i + 1} {p + 1}")
    return "\n".join(lines) + "\n"

"""Deterministic instance generators for experiments and tests."""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph, is_connected

MAX_TRIES = 10000  # samples gnm_random draws before giving up on connectivity


def two_cliques_bridged(q: int) -> Graph:
    """Two q-cliques joined by a single bridge; its minimum matching cut is
    the bridge."""
    if q < 1:
        raise ValueError("clique size must be positive")
    edges = []
    for block in (range(q), range(q, 2 * q)):
        edges.extend(combinations(block, 2))
    edges.append((0, q))
    return Graph(2 * q, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def gnm_random(n: int, m: int, seed: int = 0, *, connected: bool = True) -> Graph:
    """Uniform m-edge graph on n vertices from a seeded generator; resamples
    until connected unless told otherwise."""
    if n < 1:
        raise ValueError("need at least one vertex")
    pairs = list(combinations(range(n), 2))
    if m < 0 or m > len(pairs):
        raise ValueError(f"m={m} outside 0..{len(pairs)}")
    if connected and m < n - 1:
        raise ValueError(f"m={m} cannot connect {n} vertices")
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        graph = Graph(n, rng.sample(pairs, m))
        if not connected or is_connected(graph):
            return graph
    raise ValueError(
        f"no connected sample with n={n}, m={m} within {MAX_TRIES} tries")


# Each model's required and optional parameters.
MODEL_PARAMS = {
    "gnm": (("n", "m"), ("connected",)),
    "grid": (("rows", "cols"), ()),
    "two-cliques-bridged": (("q",), ()),
}


def generate_instance(model: str, params: dict, seed: int = 0) -> Graph:
    """Dispatch on the model name; deterministic for a fixed seed.  A
    missing or unknown parameter raises ValueError naming it."""
    if model not in MODEL_PARAMS:
        raise ValueError(f"unknown model {model!r}")
    required, optional = MODEL_PARAMS[model]
    for key in required:
        if key not in params:
            raise ValueError(f"model {model!r} needs parameter {key!r}")
    for key in params:
        if key not in required + optional:
            raise ValueError(f"model {model!r} has no parameter {key!r}")
    if model == "gnm":
        return gnm_random(int(params["n"]), int(params["m"]), seed,
                          connected=bool(int(params.get("connected", 1))))
    if model == "grid":
        return grid_graph(int(params["rows"]), int(params["cols"]))
    return two_cliques_bridged(int(params["q"]))

import random
from itertools import combinations

from dcut import DPSolver, Graph
from dcut.generators import gnm_random


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def local_edges(graph, ctx):
    """Edges of a node's local graph: inside its cone, minus the edges
    internal to its adhesion."""
    cone, adhesion = ctx.cone, ctx.adhesion
    return [e for e in graph.edges
            if e[0] in cone and e[1] in cone
            and not (e[0] in adhesion and e[1] in adhesion)]


def make_corpus(count, seed, n_lo=4, n_hi=12):
    """Seeded random connected graphs with n in [n_lo, n_hi] and
    m in [n-1, 2n]."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        n = rng.randint(n_lo, n_hi)
        m = min(rng.randint(n - 1, 2 * n), n * (n - 1) // 2)
        graphs.append(gnm_random(n, m, seed=seed + i + 1))
    return graphs


class AllSubsetsSolver(DPSolver):
    """The solver with every bag subset of 1..min(k, b-1) vertices as a
    candidate side, connected in the helper graph or not: a reference
    that shares no side search with the solver under test."""

    def _side_candidates(self, node):
        bag_order = sorted(self.contexts[node].bag)
        top = min(self.k, len(bag_order) - 1)
        return [frozenset(combo) for size in range(1, top + 1)
                for combo in combinations(bag_order, size)], "enumerate"

#!/usr/bin/env python3
"""Digest of everything the solver decides and records.

Solves seeded instances built with ``dcut.generators`` and prints one
SHA-256 per slice over the answers, witnesses, cut sizes, routes and
``stats`` of every decision and, on the ``dp`` route, the solver's plan
sides, tables, choices and counters.  The choice of each finite table
entry is read from the row the entry holds, as the witness rebuild reads
it.  Each record keeps the slot that once held the solver's menus, now
always None, so that digests taken before and after the menus were
dropped can be compared.  The ``construct`` slice digests the
decomposition layer on its own instead: the text form of what
``construct`` builds, or the class and text of the error it raises, and
the ``verify`` summary of the single whole-graph bag.  The ``verify``
slice digests the checks: each ``verify`` report's (name, status,
detail) triples and, where the axioms hold, the ``derive_contexts``
fields, on constructed decompositions and seeded mutations of them.  The
``oracle`` slice digests the brute-force oracle: the minimum and the
first minimiser's side A of each (graph, d).  Two trees that print equal
digests decide, rank and record alike; a refactor compares its digests
with its parent's.

Every set is written as a sorted tuple: a frozenset's ``repr`` follows
its hash table, so equal sets built in different orders can print
differently.  The digest does not depend on how the solver holds a side:
every side, whether a vertex set or a vertex mask, is written as its
sorted vertex tuple, and every table and choice key as the smaller
of the sorted vertex tuples of the keyed side and its adhesion
complement.

Slices:
    corpus     connected gnm graphs, n in 4..12 and m in [n-1, 2n], over
               d = 1, 2 and k = 0..6, in auto mode
    colorcode  the same graphs and grid in randomized ``colorcode`` mode
               with ``family_seed=7``
    large-n    two_cliques_bridged(9), (10), grid_graph(3,6), (4,5) at
               d = 1, k = 2..4
    construct  the corpus graphs, the large-n graphs and
               gnm_random(n, int(1.6 n), seed=SEED + n) for n = 16..24,
               at k = 0..6
    oracle     the corpus graphs at d = 1, 2, 3,
               gnm_random(15, m, seed=SEED + m) for m = 27..30 and
               gnm_random(20, m, seed=SEED + m) for m = 30, 40 at d = 1, 2,
               and grid_graph(4, 5) at d = 1
    verify     each corpus graph's construct(g, k) at k = 0..6, then its
               mutations: a vertex dropped from a bag, a tree neighbour's
               vertex added to a bag, a parent link moved, one vertex too
               many, and one too many with an isolated vertex in the graph

``solver_digest_count20.txt``, beside this script, holds the
``--count 20`` output; CI diffs against it under two hash seeds, so a
change to what the solver decides or records updates it in plain sight.
``solver_digest_count20_decided.txt`` holds the corpus, colorcode and
large-n lines of ``--count 20`` without the plan sides and the two
counters of sides read (the usage line below); CI diffs against it too,
so a change to how many sides the fill reads leaves it alone, and a
change to what the solver decides does not.

Usage:
    python scripts/solver_digest.py --count 60
    python scripts/solver_digest.py --count 20 --slice corpus \\
        --slice colorcode --slice large-n --exclude-plan-sides \\
        --exclude-stat sides_considered --exclude-stat overloaded_side_prunes
"""

import argparse
import hashlib
import random
import sys

from dcut import (Graph, SolveOptions, brute_force_min_dcut, construct,
                  derive_contexts, serialize, solve, verify)
from dcut.decomposition import DecompositionError, RootedDecomposition
from dcut.generators import gnm_random, grid_graph, two_cliques_bridged
from dcut.graph import DisconnectedGraph, SizeLimitExceeded
from dcut.solver import INFEASIBLE

SLICES = ("corpus", "colorcode", "large-n", "construct", "oracle", "verify")


def canonical(obj):
    """The object with every set as a sorted tuple and every dict as a
    tuple of items sorted by key, recursively."""
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted((canonical(x) for x in obj), key=repr))
    if isinstance(obj, dict):
        return tuple(sorted(((canonical(k), canonical(v)) for k, v in obj.items()),
                            key=repr))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(x) for x in obj)
    return obj


def vertex_set(side):
    """The side as a frozenset, given as a vertex set or a vertex mask."""
    if isinstance(side, int):
        return frozenset(v for v in range(side.bit_length()) if side >> v & 1)
    return frozenset(side)


def side_key(adhesion, side):
    """The smaller of the sorted vertex tuples of the side and of its
    complement in the adhesion, as a set."""
    side = vertex_set(side)
    return frozenset(min(sorted(side), sorted(adhesion - side)))


def choice_record(choice):
    """A row's choice with its side, if it has one, as a vertex set."""
    kind, *data = choice
    if kind == "bag":
        side, picks = data
        return (kind, vertex_set(side), picks)
    return choice


def solver_record(solver, excluded, sides=True):
    """The plan sides (if ``sides`` is true), the menus' slot (None), the
    table, each finite entry's choice and the counters not in ``excluded``
    of a filled solver, with every side and key in the form above."""
    adhesions = [ctx.adhesion for ctx in solver.contexts]

    def keyed(key):
        node, side, budget = key
        return (node, side_key(adhesions[node], side), budget)

    return [[[vertex_set(side) for side in plan.sides] for plan in solver.plans]
            if sides else None,
            None,
            {keyed(key): value for key, value in solver.table.entries()},
            {keyed(key): choice_record(solver.table.row(*key)[2])
             for key, value in solver.table.entries() if value is not INFEASIBLE},
            {key: value for key, value in solver.stats.items() if key not in excluded}]


def corpus_graphs(count, seed):
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        n = rng.randint(4, 12)
        m = min(rng.randint(n - 1, 2 * n), n * (n - 1) // 2)
        graphs.append(gnm_random(n, m, seed=seed + i + 1))
    return graphs


def large_graphs():
    return [two_cliques_bridged(9), two_cliques_bridged(10),
            grid_graph(3, 6), grid_graph(4, 5)]


def decisions(name, count, seed):
    """The slice's ``(graph, k, d, options)`` decisions."""
    if name == "large-n":
        return [(g, k, 1, SolveOptions()) for g in large_graphs() for k in (2, 3, 4)]
    options = SolveOptions()
    if name == "colorcode":
        options = SolveOptions(mode="colorcode", family_kind="randomized",
                               family_seed=7)
    return [(g, k, d, options) for g in corpus_graphs(count, seed)
            for d in (1, 2) for k in range(7)]


def record(result, excluded, sides=True):
    """Everything one decision decides and records, canonicalised; the
    plan sides only if ``sides`` is true."""
    witness = result.witness
    stats = {key: value for key, value in result.stats.items()
             if key not in excluded}
    out = [result.answer, witness and witness.side_a, result.cut_size,
           result.route, stats]
    if result.solver is not None:
        out += solver_record(result.solver, excluded, sides)
    return canonical(out)


def construct_record(graph, k):
    """The text form of the graph's constructed decomposition, or the
    error's class and text, and the single-bag ``verify`` summary."""
    try:
        built = serialize(construct(graph, k))
    except (DecompositionError, DisconnectedGraph, SizeLimitExceeded) as exc:
        built = (type(exc).__name__, str(exc))
    one_bag = RootedDecomposition(graph.n, (frozenset(graph.vertices),), (None,))
    return built, verify(graph, one_bag, k).summary()


def oracle_record(graph, d):
    """The oracle's minimum and its first minimiser's side A."""
    result = brute_force_min_dcut(graph, d)
    return canonical((result.min_cut_size, result.best_cut and result.best_cut.side_a))


def mutations(graph, td, rng):
    """Seeded ``(graph, decomposition)`` mutations of a decomposition: a
    vertex dropped from a bag; a vertex of a tree neighbour's bag added to
    a bag; a non-root node moved under a node outside its subtree; one
    vertex too many, and the same with an isolated vertex in the graph."""
    n, bags, parent = td.n_vertices, td.bags, td.parent

    def with_bag(t, bag):
        return graph, RootedDecomposition(n, bags[:t] + (bag,) + bags[t + 1:], parent)

    t = rng.randrange(len(bags))
    found = [with_bag(t, bags[t] - {rng.choice(sorted(bags[t]))})]
    t = rng.randrange(len(bags))
    near = set().union(*(bags[i] for i, p in enumerate(parent)
                         if p == t or parent[t] == i)) - bags[t]
    if near:
        found.append(with_bag(t, bags[t] | {rng.choice(sorted(near))}))
    movable = [i for i, p in enumerate(parent) if p is not None]
    if movable:
        t = rng.choice(movable)
        others = [i for i in range(len(bags))
                  if t not in ancestors(parent, i) and i != parent[t]]
        if others:
            moved = tuple(rng.choice(others) if i == t else p
                          for i, p in enumerate(parent))
            found.append((graph, RootedDecomposition(n, bags, moved)))
    more = RootedDecomposition(n + 1, bags, parent)
    return found + [(graph, more), (Graph(n + 1, graph.edges), more)]


def ancestors(parent, node):
    """The node and its ancestors."""
    found = [node]
    while parent[found[-1]] is not None:
        found.append(parent[found[-1]])
    return found


def verify_cases(count, seed):
    """``(graph, decomposition, k)`` triples: each corpus graph's
    constructed decomposition at k = 0..6, where one is found, followed by
    its :func:`mutations`."""
    rng = random.Random(seed)
    cases = []
    for graph in corpus_graphs(count, seed):
        for k in range(7):
            try:
                td = construct(graph, k)
            except DecompositionError:
                continue
            cases.append((graph, td, k))
            cases += [(g, mutant, k) for g, mutant in mutations(graph, td, rng)]
    return cases


def verify_record(graph, td, k):
    """The ``verify`` report's checks and, where the axioms hold, the node
    contexts."""
    report = verify(graph, td, k)
    contexts = None
    if report["axioms"].status == "pass":
        contexts = [(c.node, c.bag, c.adhesion, c.cone, c.cone - c.adhesion,
                     c.bag_edges) for c in derive_contexts(graph, td)]
    return canonical(([(c.name, c.status, c.detail) for c in report.checks],
                      contexts))


def slice_records(name, count, seed, excluded, sides=True):
    """One record per decision, per (graph, k) of the construct slice, or
    per (graph, d) of the oracle slice."""
    if name == "oracle":
        return [oracle_record(g, d) for g in corpus_graphs(count, seed)
                for d in (1, 2, 3)] + [
            oracle_record(gnm_random(15, m, seed=seed + m), d)
            for m in range(27, 31) for d in (1, 2)] + [
            oracle_record(gnm_random(20, m, seed=seed + m), d)
            for m in (30, 40) for d in (1, 2)] + [oracle_record(grid_graph(4, 5), 1)]
    if name == "verify":
        return [verify_record(*case) for case in verify_cases(count, seed)]
    if name == "construct":
        graphs = corpus_graphs(count, seed) + large_graphs() + [
            gnm_random(n, int(1.6 * n), seed=seed + n) for n in range(16, 25)]
        return [construct_record(g, k) for g in graphs for k in range(7)]
    return [record(solve(graph, k, d, options), excluded, sides)
            for graph, k, d, options in decisions(name, count, seed)]


def slice_digest(name, count, seed, excluded, sides=True):
    digest = hashlib.sha256()
    records = slice_records(name, count, seed, excluded, sides)
    for rec in records:
        digest.update(repr(rec).encode())
        digest.update(b"\n")
    return len(records), digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slice", action="append", choices=SLICES,
                        help="slice to digest (repeatable; default: all)")
    parser.add_argument("--count", type=int, default=60,
                        help="corpus graphs per corpus, colorcode, construct, "
                             "oracle and verify slice")
    parser.add_argument("--seed", type=int, default=20250808)
    parser.add_argument("--exclude-stat", action="append", default=[],
                        metavar="KEY",
                        help="leave this key out of the solve() stats and "
                             "the solver's counters")
    parser.add_argument("--exclude-plan-sides", action="store_true",
                        help="leave out the sides each node's fill read")
    args = parser.parse_args(argv)
    for name in args.slice or SLICES:
        runs, hexdigest = slice_digest(name, args.count, args.seed,
                                       set(args.exclude_stat),
                                       not args.exclude_plan_sides)
        print(f"{name} {runs} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

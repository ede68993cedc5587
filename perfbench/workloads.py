"""The four benchmark workloads, generated from the benchmark seed.

Each generator receives the freshly imported ``dcut`` package, the seed and
a scratch directory, and returns the decisions of one pass plus the
untimed probes.  The solver only ever sees the generated graphs.  Why each
workload exists, and which layer it stresses, is in ``README.md``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field


@dataclass
class Decision:
    """One unit of work: one ``solve(graph, k, d)`` call or one CLI document."""

    label: str
    graph: object
    k: int
    d: int
    path: str | None = None   # DIMACS file, for CLI decisions


@dataclass
class Workload:
    name: str
    kind: str                 # "solve" or "cli"
    decisions: list
    options: dict = field(default_factory=dict)   # SolveOptions fields
    exact: bool = True        # False: randomized mode, may err toward "no"
    probes: list = field(default_factory=list)    # run untimed, once per run


def _corpus_graphs(dcut, rng, per_n):
    """Like the acceptance corpus (connected gnm, n in 4..12, m in [n-1, 2n]),
    but stratified: ``per_n`` graphs for each n, with m evenly spread, so
    that the seed changes the graphs and not the mix of sizes."""
    graphs = []
    for n in range(4, 13):
        lo, hi = n - 1, min(2 * n, n * (n - 1) // 2)
        for i in range(per_n):
            m = lo + round(i * (hi - lo) / (per_n - 1))
            seed = rng.randrange(2 ** 31)
            graphs.append((f"gnm(n={n},m={m},seed={seed})",
                           dcut.gnm_random(n, m, seed=seed)))
    return graphs


def corpus_grid(dcut, seed, workdir):
    rng = random.Random(seed)
    decisions = [Decision(f"{name} d={d} k={k}", g, k, d)
                 for name, g in _corpus_graphs(dcut, rng, 11)
                 for d in (1, 2) for k in range(7)]
    return Workload("corpus-grid", "solve", decisions, {"witness": True})


# A constructor failure at the time the benchmark was written: ``construct``
# raises DecompositionError("bag search exhausted") on this yes-instance
# (matching-cut minimum 1).  It runs as an untimed probe, so the timed loop
# holds only decisions that succeed; README.md lists a second such instance.
PINNED_FAILURE = ("gnm(n=20,m=25,seed=9)", 20, 25, 9)


def large_n(dcut, seed, workdir):
    rng = random.Random(seed)
    fixed = [("two_cliques_bridged(9)", dcut.two_cliques_bridged(9)),
             ("two_cliques_bridged(10)", dcut.two_cliques_bridged(10)),
             ("grid_graph(3,6)", dcut.grid_graph(3, 6)),
             ("grid_graph(4,5)", dcut.grid_graph(4, 5))]
    decisions = [Decision(f"{name} d=1 k={k}", g, k, 1)
                 for name, g in fixed for k in (2, 3, 4)]
    # Random graphs at k = 2 have rare, seed-dependent constructor tails of
    # minutes (see README.md), which no run length averages out.  Random
    # members use k = 3 and m >= 1.75n, where none of 1400 sampled took over
    # 1 s; the fixed members and the pinned instance below keep k = 2, and
    # the tail, in every run.  They are all at n = 18, with m spread evenly:
    # construction cost doubles with each vertex, so a spread of n would put
    # the latency quantiles on the steep steps between sizes, where the
    # seed alone moves them by a fifth.  With 35 decisions a pass, a run
    # makes at least three passes, p50 falls among the n = 18 decisions and
    # p90 amid the 18 or more timings of the six fixed n = 20 decisions.
    n = 18
    lo, hi = math.ceil(1.75 * n), 2 * n
    for i in range(22):
        m = lo + i % (hi - lo + 1)
        s = rng.randrange(2 ** 31)
        decisions.append(Decision(f"gnm(n={n},m={m},seed={s}) d=1 k=3",
                                  dcut.gnm_random(n, m, seed=s), 3, 1))
    # Pinned: constructor backtracking takes about 3 s on this one.
    decisions.append(Decision("gnm(n=20,m=25,seed=2) d=1 k=2",
                              dcut.gnm_random(20, 25, seed=2), 2, 1))
    label, n, m, s = PINNED_FAILURE
    probes = [Decision(f"{label} d=1 k=2", dcut.gnm_random(n, m, seed=s), 2, 1)]
    return Workload("large-n", "solve", decisions, {"witness": True},
                    probes=probes)


def colorcode(dcut, seed, workdir):
    rng = random.Random(seed)
    decisions = [Decision(f"{name} d={d} k={k}", g, k, d)
                 for name, g in _corpus_graphs(dcut, rng, 6)
                 for d in (1, 2) for k in (4, 5)]
    options = {"mode": "colorcode", "family_kind": "randomized",
               "family_seed": 7, "witness": True}
    return Workload("colorcode", "solve", decisions, options, exact=False)


def cli_both(dcut, seed, workdir):
    rng = random.Random(seed)
    decisions = []
    # One n, with m spread evenly over [1.75n, 2n] and k alternating 3, 4:
    # like large-n's random members, no constructor tails.  The oracle's
    # cost doubles with each vertex, so over a spread of n the latency
    # quantiles sit on the steps between sizes and move with the seed; at
    # one n, 120 documents pin them within a few percent.
    n = 15
    lo, hi = math.ceil(1.75 * n), 2 * n
    for i in range(120):
        m = lo + (i // 2) % (hi - lo + 1)
        s = rng.randrange(2 ** 31)
        g = dcut.gnm_random(n, m, seed=s)
        name = f"g{i:03d}.gr"
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(dcut.format_graph(g, f"gnm n={n} m={m} seed={s}"))
        k = 3 + i % 2
        decisions.append(Decision(f"{name} d=1 k={k}", g, k, 1, path))
    return Workload("cli-both", "cli", decisions)


WORKLOADS = {
    "corpus-grid": corpus_grid,
    "large-n": large_n,
    "colorcode": colorcode,
    "cli-both": cli_both,
}

"""Per-layer measurement from outside the program.

``traced_solve`` runs the same steps as ``dcut.solve`` by calling each
module's public functions itself, timing every call and reading the
counters the program already exposes.  ``traced_cli`` runs ``cli.run`` with
timings on and reads the layer seconds and counters from the document.
Neither adds tracing inside ``src/``.

Seconds are busy seconds summed over the decisions of one pass.  Counts
are exact: the same code and seed must give the same numbers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# Spans that ``solve()`` itself performs.  The re-run ``verify`` and the
# re-built covering families are extra work done only to measure a layer.
SOLVE_SPANS = ("graph.components_s", "graph.min_cut_s", "decomposition.construct_s",
               "decomposition.contexts_s", "solver.fill_s", "solver.rebuild_s",
               "graph.certify_s")


class Recorder:
    """Busy seconds, on ``clock``, and counts for one pass."""

    def __init__(self, clock):
        self.clock = clock
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_bag = 0

    def timed(self, name, fn, *args, **kwargs):
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += self.clock() - start

    def record_dp(self, nodes, max_bag):
        self.counts["dp_decisions"] += 1
        self.counts["multi_node"] += nodes > 1
        self.counts["decomposition.nodes"] += nodes
        self.max_bag = max(self.max_bag, max_bag)

    def exact_counts(self) -> dict:
        """The counters of the pass, including the ratios derived from them."""
        counts = dict(self.counts)
        counts["decomposition.max_bag"] = self.max_bag
        dp = counts.pop("dp_decisions", 0)
        counts["decomposition.multi_node_share"] = counts.pop("multi_node", 0) / dp if dp else 0.0
        considered = counts.get("solver.sides_considered", 0)
        kept = considered - counts.get("solver.overloaded_side_prunes", 0)
        counts["solver.side_keep_ratio"] = kept / considered if considered else 0.0
        return counts


def _certify(dcut, graph, part, d, k):
    cut = dcut.edge_cut(graph, part)
    if not dcut.is_d_cut(graph, part, d) or len(cut) > k:
        raise dcut.WitnessCertificationError(
            f"witness failed certification: cut size {len(cut)}")
    return len(cut)


def traced_solve(dcut, rec: Recorder, graph, k, d, opts):
    """``dcut.solve`` step by step; returns (answer, side_a, cut_size)."""
    comps = rec.timed("graph.components_s", dcut.connected_components, graph)
    if len(comps) > 1:
        part = dcut.Bipartition.of(graph, comps[0]) if opts.witness else None
        size = rec.timed("graph.certify_s", _certify, dcut, graph, part, d, k) if part else None
        return True, part.side_a if part else None, size
    if d >= k:
        size, cut = rec.timed("graph.min_cut_s", dcut.global_min_cut, graph)
        rec.counts["graph.min_cut_calls"] += 1
        answer = size is not None and size <= k
        if not (answer and opts.witness):
            return answer, None, None
        return answer, cut.side_a, rec.timed("graph.certify_s", _certify, dcut, graph, cut, d, k)

    limit = opts.max_construct_vertices
    td = rec.timed("decomposition.construct_s", dcut.construct, graph, k, max_vertices=limit)
    report = rec.timed("decomposition.verify_s", dcut.verify, graph, td, k,
                       unbreakable_limit=limit)
    if not report.passed:
        raise dcut.DecompositionError(f"re-run verify failed: {report.failures()}")
    contexts = rec.timed("decomposition.contexts_s", dcut.derive_contexts, graph, td)
    solver = rec.timed("solver.fill_s", lambda: dcut.DPSolver(
        graph, td, d, k, contexts=contexts, mode=opts.mode,
        family_kind=opts.family_kind, family_seed=opts.family_seed,
        family_rounds=opts.family_rounds, enumerate_budget=opts.enumerate_budget,
        record_choices=opts.witness).run())
    value = solver.root_value()
    answer = value <= k
    side = size = None
    if answer and opts.witness:
        side = rec.timed("solver.rebuild_s", solver.rebuild_side)
        part = dcut.Bipartition.of(graph, side)
        size = rec.timed("graph.certify_s", _certify, dcut, graph, part, d, k)

    rec.record_dp(td.node_count, max(len(b) for b in td.bags))
    stats = solver.stats
    counts = rec.counts
    counts["solver.sides_considered"] += stats["sides_considered"]
    counts["solver.overloaded_side_prunes"] += stats["overloaded_side_prunes"]
    counts["solver.families_evaluated"] += stats["families_evaluated"]
    counts["solver.table_entries"] += len(solver.table)
    counts["solver.nodes_enumerate"] += stats["modes"].get("enumerate", 0)
    counts["solver.nodes_colorcode"] += stats["modes"].get("colorcode", 0)
    counts["multisets.budgets"] += sum(
        len(dcut.bounded_multisets(ctx.adhesion, d, k)) for ctx in contexts)
    for node, plan in enumerate(solver.plans):
        if plan.mode != "colorcode":
            continue
        # The same arguments DPSolver passes when it builds the node's family.
        bag_order = sorted(contexts[node].bag)
        if opts.family_kind == "randomized":
            rounds = opts.family_rounds or dcut.heuristic_rounds(len(bag_order), k, k * k + k)
            family = rec.timed("setfamily.build_s", dcut.build_randomized, bag_order,
                               k, k * k + k, opts.family_seed * 100003 + node * 7919, rounds)
        else:
            family = rec.timed("setfamily.build_s", dcut.build_exhaustive, bag_order)
        counts["setfamily.members"] += len(family.members)
    return answer, side, size


def traced_cli(cli, rec: Recorder, config):
    """One CLI document with timings on; returns its text without timings,
    which must equal the untimed document byte for byte."""
    # Wall clock, like the document's own timings, so the shares compare.
    start = perf_counter()
    doc, _ = cli.run(config)
    rec.seconds["cli.run_s"] += perf_counter() - start
    rec.timed("cli.json_s", json.dumps, doc, indent=2, sort_keys=True)
    timings = doc.pop("timings")
    rec.seconds["dimacs.load_s"] += timings["load"]
    rec.seconds["cli.fpt_s"] += timings["fpt"]
    rec.seconds["oracle.scan_s"] += timings["brute"]
    text = json.dumps(doc, indent=2, sort_keys=True)
    rec.counts["cli.doc_bytes"] += len(text.encode())
    stats = doc["fpt"]["stats"]
    if doc["fpt"]["route"] == "dp":
        rec.record_dp(stats["decomposition_nodes"], stats["max_bag"])
        rec.counts["solver.table_entries"] += stats["table_entries"]
        rec.counts["solver.families_evaluated"] += stats["families_evaluated"]
        for mode, nodes in stats["minbeta_modes"].items():
            rec.counts[f"solver.nodes_{mode}"] += nodes
    return text


def pass_seconds(rec: Recorder) -> dict:
    seconds = dict(rec.seconds)
    seconds["pipeline.solve_s"] = (seconds.get("cli.fpt_s", 0.0)
                                   + sum(seconds.get(n, 0.0) for n in SOLVE_SPANS))
    return seconds

#!/usr/bin/env python3
"""dcut benchmark: closed-loop decisions/s, latency and per-layer costs.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus-grid --seed 1 --seconds 27 --trace 0

One caller runs the workload's decisions back to back, in whole passes:
the number of passes nearest to ``--seconds`` of wall time, and at least
100 decisions and two passes, in an order shuffled by the seed.  Answers
and witnesses are checked against the brute-force oracle outside the
timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics (see ``layers.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The line before it holds the notes: environment, error classes, probes,
input and counter digests.  Workloads are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from time import perf_counter, process_time

import layers
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"

# Decisions and set-up are timed on the process's CPU clock: the loop is
# single-threaded, so on an idle machine this equals wall time, and it leaves
# out the time a shared machine's scheduler gives to other tenants.  The
# loop's length is governed by wall time.
CLOCK = process_time
MIN_DECISIONS = 100     # so that p90 has at least ten samples beyond it
MIN_PASSES = 2          # so that outputs and counters can be compared
SETUP_REPEATS = 11
TYPED_ERRORS = ("DecompositionError", "SizeLimitExceeded",
                "EnumerationBudgetExceeded", "FamilySizeLimit",
                "WitnessCertificationError")


@dataclass(frozen=True)
class Raised:
    """Outcome of a decision that raised, kept as its exception class."""

    name: str

    def __repr__(self):
        return f"raised {self.name}"


def import_dcut():
    """A fresh import of the package under test, from this checkout."""
    for name in [n for n in sys.modules if n == "dcut" or n.startswith("dcut.")]:
        del sys.modules[name]
    dcut = importlib.import_module("dcut")
    if not os.path.abspath(dcut.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dcut imported from {dcut.__file__}, not from {SRC}")
    return dcut, importlib.import_module("dcut.cli")


def setup(name, seed, workdir):
    """Import, generate and write inputs several times; report the median."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = CLOCK()
        dcut, cli = import_dcut()
        workload = WORKLOADS[name](dcut, seed, workdir)
        # The generators list decisions by size, and the machine's speed
        # drifts over seconds: in that order, p50 would time only the small
        # decisions, in the first seconds of each pass.  Shuffled, every
        # quantile samples the whole pass.
        random.Random(seed).shuffle(workload.decisions)
        times.append(CLOCK() - start)
    return dcut, cli, workload, statistics.median(times)


def input_digest(workload) -> str:
    h = hashlib.sha256()
    for dec in workload.decisions + workload.probes:
        h.update(f"{dec.label}|{dec.graph.n}|{sorted(dec.graph.edges)}|{dec.k}|{dec.d}\n".encode())
    return h.hexdigest()[:16]


class Harness:
    def __init__(self, dcut, cli, workload):
        self.dcut = dcut
        self.cli = cli
        self.workload = workload
        self.opts = dcut.SolveOptions(**workload.options)
        self.errors = Counter()
        self.problems = []
        self._minima = {}
        self._verdicts = {}

    # -- running decisions ------------------------------------------------

    def call(self, dec):
        """The timed unit of work.  Returns the raw result."""
        if self.workload.kind == "cli":
            doc, _ = self.cli.run(self._cli_config(dec, timings=False))
            return json.dumps(doc, indent=2, sort_keys=True)
        return self.dcut.solve(dec.graph, dec.k, dec.d, self.opts)

    def _cli_config(self, dec, timings):
        return self.cli.RunConfig(k=dec.k, d=dec.d, input_path=dec.path,
                                  algorithm="both", witness=True, timings=timings)

    def summarize(self, out):
        """What is kept of a result: small, comparable, checked later."""
        if self.workload.kind == "cli":
            return out
        return (out.answer, out.witness.side_a if out.witness else None, out.cut_size)

    def failed(self, exc, dec):
        name = type(exc).__name__
        self.errors[name] += 1
        if name not in TYPED_ERRORS:
            print(f"untyped error on {dec.label}:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
        return Raised(name)

    def run_pass(self):
        """One timed pass; returns the outcomes and the per-decision seconds."""
        outcomes, latencies = [], []
        for dec in self.workload.decisions:
            start = CLOCK()
            try:
                out = self.call(dec)
            except Exception as exc:  # a failed decision is counted; the run goes on
                latencies.append(CLOCK() - start)
                outcomes.append(self.failed(exc, dec))
                continue
            latencies.append(CLOCK() - start)
            outcomes.append(self.summarize(out))
        return outcomes, latencies

    def traced_pass(self, rec):
        outcomes = []
        for dec in self.workload.decisions:
            try:
                if self.workload.kind == "cli":
                    out = layers.traced_cli(self.cli, rec, self._cli_config(dec, timings=True))
                else:
                    out = layers.traced_solve(self.dcut, rec, dec.graph, dec.k, dec.d, self.opts)
            except Exception as exc:  # counted like an untraced failure
                out = self.failed(exc, dec)
            outcomes.append(out)
        return outcomes

    def probe(self):
        """Run each probe once, untimed; returns their outcomes by label."""
        results = {}
        for dec in self.workload.probes:
            try:
                outcome = self.summarize(self.call(dec))
            except Exception as exc:  # probes are known failures; counted apart
                outcome = Raised(type(exc).__name__)
            else:
                self.verdict(dec, outcome)
            results[dec.label] = repr(outcome)
        return results

    # -- checking, outside the timed region -----------------------------------

    def oracle_min(self, dec):
        key = (id(dec.graph), dec.d)
        if key not in self._minima:
            self._minima[key] = self.dcut.brute_force_min_dcut(dec.graph, dec.d).min_cut_size
        return self._minima[key]

    def expected(self, dec):
        if len(self.dcut.connected_components(dec.graph)) > 1:
            return True
        minimum = self.oracle_min(dec)
        return minimum is not None and minimum <= dec.k

    def verdict(self, dec, outcome):
        """True when the decision succeeded; hard faults go to ``problems``."""
        if isinstance(outcome, Raised):
            return False
        key = (id(dec), outcome)
        if key not in self._verdicts:
            problem, ok = self._judge(dec, outcome)
            if problem:
                self.problems.append(f"{self.workload.name}: {dec.label}: {problem}")
            self._verdicts[key] = ok and not problem
        return self._verdicts[key]

    def _judge(self, dec, outcome):
        """(hard problem or None, decision succeeded)."""
        dcut = self.dcut
        if self.workload.kind == "cli":
            doc = json.loads(outcome)
            if doc.get("agreement") is not True:
                return "fpt and brute disagree", False
            if doc["brute"]["min_cut_size"] != self.oracle_min(dec):
                return "brute min_cut_size differs from the oracle", False
            answer = doc["answer"] == "yes"
            wit = doc.get("witness")
            side = frozenset(v - 1 for v in wit["side_a"]) if wit else None
            size = wit["cut_size"] if wit else None
            if wit and len(wit["cut_edges"]) != size:
                return "witness cut_edges and cut_size differ", False
        else:
            answer, side, size = outcome
        expected = self.expected(dec)
        if answer != expected:
            if not self.workload.exact and not answer:
                return None, False   # randomized mode may miss a cut; it may not invent one
            return f"answer {answer}, oracle {expected}", False
        if answer and self.opts.witness:
            if side is None:
                return "yes without a witness", False
            part = dcut.Bipartition.of(dec.graph, side)
            cut = dcut.edge_cut(dec.graph, part)
            if not part.is_cut or not dcut.is_d_cut(dec.graph, part, dec.d) \
                    or len(cut) > dec.k or len(cut) != size:
                return f"witness fails re-certification (cut {len(cut)}, reported {size})", False
        return None, True

    def check_passes(self, passes, reference=None):
        """Check every outcome; all passes must equal the first (or ``reference``).
        Returns the number of failed decisions."""
        first = reference if reference is not None else passes[0]
        failed = 0
        for p, outcomes in enumerate(passes):
            for i, (dec, outcome) in enumerate(zip(self.workload.decisions, outcomes)):
                if outcome != first[i]:
                    self.problems.append(
                        f"{self.workload.name}: {dec.label}: pass {p} output differs from the first")
                failed += not self.verdict(dec, outcome)
        return failed


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def done(wall, seconds, passes):
    """True once the whole number of passes run is the one nearest to
    ``seconds`` of wall time, and at least ``MIN_PASSES``."""
    elapsed = perf_counter() - wall
    return passes >= MIN_PASSES and elapsed + elapsed / passes / 2 >= seconds


def measure(harness, seconds):
    passes, latencies = [], []
    wall, start = perf_counter(), CLOCK()
    while True:
        outcomes, times = harness.run_pass()
        passes.append(outcomes)
        latencies += times
        if done(wall, seconds, len(passes)) and len(latencies) >= MIN_DECISIONS:
            break
    elapsed = CLOCK() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = harness.check_passes(passes)
    attempted = len(latencies)
    metrics = {
        "decisions_per_s": attempted / elapsed,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * quantile(latencies, 90),
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"passes": len(passes), "latency_samples": attempted}
    return attempted, failed, metrics, notes


def measure_traced(harness, seconds):
    decisions = len(harness.workload.decisions)
    untraced, latencies = harness.run_pass()
    untraced_rate = decisions / sum(latencies)
    recorders, passes = [], []
    wall, start = perf_counter(), CLOCK()
    while True:
        rec = layers.Recorder(CLOCK)
        passes.append(harness.traced_pass(rec))
        recorders.append(rec)
        if done(wall, seconds, len(passes)):
            break
    elapsed = CLOCK() - start
    traced_rate = decisions * len(passes) / elapsed
    failed = harness.check_passes([untraced] + passes, untraced)

    counts = [rec.exact_counts() for rec in recorders]
    for p, other in enumerate(counts[1:], start=1):
        for name in sorted(set(counts[0]) | set(other)):
            if counts[0].get(name, 0) != other.get(name, 0):
                harness.problems.append(
                    f"benchmark bug: counter {name} differs between traced passes "
                    f"0 and {p} ({counts[0].get(name, 0)} vs {other.get(name, 0)})")
    per_pass = [layers.pass_seconds(rec) for rec in recorders]
    values = {name: statistics.median(s.get(name, 0.0) for s in per_pass)
              for name in set().union(*per_pass)}
    values.update(counts[0])
    values["trace.decisions_per_s"] = traced_rate
    values["trace.overhead_ratio"] = untraced_rate / traced_rate
    attempted = decisions * (len(passes) + 1)
    notes = {
        "passes": {"untraced": 1, "traced": len(passes)},
        "counter_digest": hashlib.sha256(
            json.dumps(counts[0], sort_keys=True).encode()).hexdigest()[:16],
        "design_shares": _shares(values),
    }
    return attempted, failed, values, notes


def _shares(v):
    """The layer shares each workload was chosen for (see README.md)."""
    def share(part, whole):
        return round(v.get(part, 0) / v[whole], 4) if v.get(whole) else None
    return {
        "fill_of_solve": share("solver.fill_s", "pipeline.solve_s"),
        "construct_of_solve": share("decomposition.construct_s", "pipeline.solve_s"),
        "oracle_of_cli_run": share("oracle.scan_s", "cli.run_s"),
    }


def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dcut", "__init__.py")):
        print(f"error: package under test not found at {SRC}/dcut", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)   # DIMACS paths, and so CLI documents, are relative to the checkout
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        dcut, cli, workload, setup_s = setup(args.workload, args.seed, workdir)
        harness = Harness(dcut, cli, workload)
        if args.trace:
            attempted, failed, metrics, notes = measure_traced(harness, args.seconds)
        else:
            attempted, failed, metrics, notes = measure(harness, args.seconds)
            metrics["setup_s"] = setup_s
        probes = harness.probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if args.trace:
        metrics["decomposition.probe_errors"] = sum(
            o.startswith("raised") for o in probes.values())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    for problem in harness.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    notes.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "decisions_per_pass": len(workload.decisions),
        "input_digest": input_digest(workload),
        "errors": dict(sorted(harness.errors.items())),
        "probes": probes,
        "environment": environment(),
    })
    print(json.dumps({"notes": notes}, sort_keys=True))
    print(json.dumps({
        "correct": not harness.problems,
        "attempted": attempted,
        "failed": failed,
        # A layer the workload does not exercise reads 0.
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark harness's per-layer tracer.

``perfbench/layers.py`` re-performs ``solve()`` step by step through the
package's public names, so a refactor of the package can break it without
breaking anything else.  Each traced call here must agree with the
untraced program.
"""

import importlib.util
import json
import os
from time import process_time

import dcut
from dcut import cli
from conftest import cycle_graph
from dcut.generators import two_cliques_bridged

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_matches_solve():
    layers = load_layers()
    rec = layers.Recorder(process_time)
    cases = [(cycle_graph(6), 2, 1, dcut.SolveOptions()),
             (two_cliques_bridged(4), 3, 1, dcut.SolveOptions(mode="colorcode")),
             (two_cliques_bridged(4), 3, 1,
              dcut.SolveOptions(mode="colorcode", family_kind="randomized",
                                family_seed=7)),
             (cycle_graph(5), 2, 2, dcut.SolveOptions())]
    for graph, k, d, opts in cases:
        answer, side, size = layers.traced_solve(dcut, rec, graph, k, d, opts)
        expected = dcut.solve(graph, k, d, opts)
        assert answer == expected.answer
        assert side == expected.witness.side_a and size == expected.cut_size
    counts = rec.exact_counts()
    assert counts["solver.sides_considered"] > 0
    assert counts["solver.nodes_enumerate"] > 0 and counts["solver.nodes_colorcode"] > 0
    assert counts["setfamily.members"] > 0
    assert counts["graph.min_cut_calls"] == 1
    assert "solver.fill_s" in layers.pass_seconds(rec)


def test_traced_cli_matches_untimed_document():
    layers = load_layers()
    rec = layers.Recorder(process_time)
    config = dict(k=3, d=1, gen_spec="gnm:n=10,m=15", algorithm="both", seed=3,
                  json_output=True)
    text = layers.traced_cli(cli, rec, cli.RunConfig(timings=True, **config))
    doc, code = cli.run(cli.RunConfig(**config))
    assert code == 0
    assert text == json.dumps(doc, indent=2, sort_keys=True)
    assert rec.counts["cli.doc_bytes"] == len(text.encode())
    assert {"dimacs.load_s", "cli.fpt_s", "oracle.scan_s"} <= set(rec.seconds)

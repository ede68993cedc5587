"""Command line front end.

Reads a DIMACS graph (or generates an instance), runs the solver and/or
the brute-force check, and emits a single structured JSON document.
Vertices in documents and files are 1-based, matching the DIMACS input.
Identical configurations and seeds yield byte-identical documents;
wall-clock timings are therefore opt-in via --timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import textio
from .decomposition import DecompositionError
from .generators import generate_instance
from .graph import SizeLimitExceeded, edge_cut
from .oracle import brute_force_min_dcut, check_oracle_size
from .solver import SolveOptions, solve


@dataclass
class RunConfig:
    k: int
    d: int
    input_path: str | None = None
    gen_spec: str | None = None
    algorithm: str = "fpt"          # fpt | brute | both
    family_seed: int = 0
    family_rounds: int | None = None
    td_in: str | None = None
    td_out: str | None = None
    witness: bool = False
    seed: int = 0
    json_output: bool = False
    timings: bool = False

    def validate(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if (self.input_path is None) == (self.gen_spec is None):
            raise ValueError("provide exactly one of an input file or --gen")
        if self.algorithm not in ("fpt", "brute", "both"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.family_rounds is not None and self.family_rounds < 1:
            raise ValueError(
                f"--family-rounds must be at least 1, got {self.family_rounds}")
        if self.family_seed != 0 and self.family_rounds is None:
            raise ValueError("--family-seed needs --family-rounds")
        for flag, value in (("--family-rounds", self.family_rounds),
                            ("--td-in", self.td_in), ("--td-out", self.td_out)):
            if value is not None and self.algorithm == "brute":
                raise ValueError(f"{flag} needs --algorithm fpt or both")


def _parse_gen_spec(spec: str):
    model, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not key or not value:
                raise ValueError(f"malformed generator parameter {item!r}")
            params[key] = value
    return model, params


def _load_graph(config: RunConfig):
    if config.input_path is not None:
        with open(config.input_path) as fh:
            return textio.parse_graph(fh.read()), {"source": config.input_path}
    model, params = _parse_gen_spec(config.gen_spec)
    graph = generate_instance(model, params, config.seed)
    return graph, {"source": config.gen_spec, "seed": config.seed}


def _vertices_1based(vs):
    return [v + 1 for v in sorted(vs)]


def run(config: RunConfig):
    """Execute the configured run; returns (document, exit_code)."""
    config.validate()
    timings = {}
    start = time.perf_counter()
    graph, instance = _load_graph(config)
    timings["load"] = time.perf_counter() - start
    instance.update({"n": graph.n, "m": graph.m})
    if config.algorithm in ("brute", "both"):
        check_oracle_size(graph.n)  # before the solve, which may fail first

    doc = {
        "instance": instance,
        "parameters": {
            "k": config.k, "d": config.d, "algorithm": config.algorithm,
            "family_seed": config.family_seed,
            "family_rounds": config.family_rounds,
            "seed": config.seed,
        },
    }
    exit_code = 0

    fpt_answer = None
    if config.algorithm in ("fpt", "both"):
        td = None
        if config.td_in is not None:
            with open(config.td_in) as fh:
                td = textio.parse(fh.read())
        drawn = config.family_rounds is not None
        opts = SolveOptions(
            mode="colorcode" if drawn else "auto",
            family_kind="randomized" if drawn else "exhaustive",
            family_seed=config.family_seed,
            family_rounds=config.family_rounds,
            witness=config.witness,
            decomposition=td,
        )
        start = time.perf_counter()
        result = solve(graph, config.k, config.d, opts)
        timings["fpt"] = time.perf_counter() - start
        fpt_answer = result.answer
        doc["fpt"] = {
            "answer": "yes" if result.answer else "no",
            "route": result.route,
            "stats": result.stats,
        }
        if result.witness is not None:
            cut = edge_cut(graph, result.witness)
            doc["witness"] = {
                "side_a": _vertices_1based(result.witness.side_a),
                "side_b": _vertices_1based(result.witness.side_b),
                "cut_edges": [[u + 1, v + 1] for u, v in cut],
                "cut_size": len(cut),
            }
        elif config.witness:
            doc["witness"] = None
        if config.td_out is not None and result.decomposition is not None:
            with open(config.td_out, "w") as fh:
                fh.write(textio.serialize(result.decomposition))

    brute_answer = None
    if config.algorithm in ("brute", "both"):
        start = time.perf_counter()
        oracle = brute_force_min_dcut(graph, config.d)
        # A disconnected graph's minimum is the empty cut, size 0.
        brute_answer = (oracle.min_cut_size is not None
                        and oracle.min_cut_size <= config.k)
        timings["brute"] = time.perf_counter() - start
        doc["brute"] = {
            "answer": "yes" if brute_answer else "no",
            "min_cut_size": oracle.min_cut_size,
        }

    if config.algorithm == "both":
        agreement = fpt_answer == brute_answer
        doc["agreement"] = agreement
        if not agreement:
            exit_code = 2
            doc["reproducer"] = {
                "dimacs": textio.format_graph(graph), "k": config.k,
                "d": config.d, "family_seed": config.family_seed,
                "family_rounds": config.family_rounds,
            }

    answer = fpt_answer if fpt_answer is not None else brute_answer
    doc["answer"] = "yes" if answer else "no"
    if config.timings:
        doc["timings"] = {name: round(v, 6) for name, v in timings.items()}
    return doc, exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcut",
        description="Decide whether a graph has a d-cut with at most k "
                    "crossing edges (matching cut for d=1).")
    parser.add_argument("input_path", metavar="input", nargs="?",
                        help="DIMACS edge-format graph file")
    parser.add_argument("--gen", dest="gen_spec", metavar="SPEC",
                        help="generate an instance instead of reading a file, "
                             "e.g. gnm:n=10,m=15 | grid:rows=2,cols=3 | "
                             "two-cliques-bridged:q=4")
    parser.add_argument("--k", type=int, required=True,
                        help="maximum number of crossing edges")
    parser.add_argument("--d", type=int, required=True,
                        help="maximum cross neighbors per vertex")
    parser.add_argument("--algorithm", choices=("fpt", "brute", "both"),
                        default="fpt")
    parser.add_argument("--family-seed", type=int, default=0)
    parser.add_argument("--family-rounds", type=int, default=None,
                        help="keep the listed candidate sides that some round of "
                             "a randomized covering family of this many rounds "
                             "isolates (default: keep them all)")
    parser.add_argument("--td-in", metavar="FILE",
                        help="use this decomposition (verified before use)")
    parser.add_argument("--td-out", metavar="FILE",
                        help="write the decomposition that was used "
                             "(dp route only)")
    parser.add_argument("--witness", action="store_true",
                        help="reconstruct and certify a cut witness")
    parser.add_argument("--seed", type=int, default=0,
                        help="instance generator seed")
    parser.add_argument("--json", dest="json_output", action="store_true",
                        help="print the full JSON document")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the document")
    return parser


def main(argv=None) -> int:
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        doc, exit_code = run(config)
    except (ValueError, OSError, DecompositionError, SizeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    route = doc.get("fpt", {}).get("route")
    if config.td_out is not None and route not in (None, "dp"):
        print(f"note: route {route} uses no decomposition; "
              f"{config.td_out} not written", file=sys.stderr)
    if config.json_output:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        line = f"answer: {doc['answer']}"
        if doc.get("witness"):
            line += f" (cut size {doc['witness']['cut_size']})"
        if "agreement" in doc:
            line += f" [agreement: {doc['agreement']}]"
        print(line)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

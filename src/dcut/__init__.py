"""Deciding d-cuts with a bounded number of crossing edges.

A d-cut is a two-sided vertex partition in which every vertex has at most
d neighbors on the far side; for d=1 this is a matching cut.  The package
answers whether a graph admits one with at most k crossing edges, via a
dynamic program over verified tree decompositions, and ships a
brute-force oracle to check it against at desk scale.
"""

from .graph import (Bipartition, DisconnectedGraph, Graph, InvalidBipartition,
                    SizeLimitExceeded, connected_components, edge_cut,
                    global_min_cut, is_connected, is_d_cut)
from .multisets import bounded_multisets
from .decomposition import (DecompositionError, NodeContext,
                            RootedDecomposition, VerificationReport,
                            construct, derive_contexts, verify)
from .setfamily import (SubsetFamily, build_exhaustive, build_randomized,
                        heuristic_rounds)
from .oracle import OracleResult, brute_force_min_dcut
from .solver import (DPSolver, INFEASIBLE, SolveOptions, SolveResult,
                     WitnessCertificationError, solve)
from .textio import ParseError, format_graph, parse, parse_graph, serialize
from .generators import (generate_instance, gnm_random, grid_graph,
                         two_cliques_bridged)

__all__ = [
    "Bipartition", "DisconnectedGraph", "Graph", "InvalidBipartition",
    "SizeLimitExceeded", "connected_components", "edge_cut", "global_min_cut",
    "is_connected", "is_d_cut",
    "bounded_multisets",
    "DecompositionError", "NodeContext", "RootedDecomposition",
    "VerificationReport", "construct", "derive_contexts", "verify",
    "SubsetFamily", "build_exhaustive", "build_randomized",
    "heuristic_rounds",
    "OracleResult", "brute_force_min_dcut",
    "DPSolver", "INFEASIBLE", "SolveOptions", "SolveResult",
    "WitnessCertificationError", "solve",
    "ParseError", "format_graph", "parse", "parse_graph", "serialize",
    "generate_instance", "gnm_random", "grid_graph", "two_cliques_bridged",
]

__version__ = "0.1.0"

"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
a single PASS line when it holds (pytest shows the prints with -rA or on
failure).  The corpus is 500 seeded random connected graphs with
n in [4,12] and m in [n-1, 2n]; a module-scoped fixture runs the full
solver-vs-brute-force sweep once and the invariant criteria read off the
evidence it collected.
"""

import itertools
import math
import random
import time

import pytest

from conftest import (AllSubsetsSolver, complete_graph, cycle_graph,
                      find_covering_family, loglog_slope, make_corpus,
                      path_graph, verify_covering, vertex_mask)
from dcut import (DPSolver, Graph, INFEASIBLE, SolveOptions,
                  brute_force_min_dcut, build_exhaustive, construct, edge_cut,
                  is_d_cut, solve, verify)
from dcut.generators import two_cliques_bridged
from dcut.solver import budget_families

CORPUS_SEED = 20250808
CORPUS_SIZE = 500
FULL_GRID = [(d, k) for d in (1, 2) for k in range(7)]
DP_GRID = [(d, k) for d, k in FULL_GRID if d < k]
RANDOMIZED_FAMILY_SEED = 7


def report(criterion, message):
    print(f"PASS {criterion}: {message}")


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(CORPUS_SIZE, CORPUS_SEED)


@pytest.fixture(scope="module")
def corpus_run(corpus):
    """One full differential sweep; collects the invariant evidence."""
    evidence = {
        "runs": 0, "mismatches": [], "answers": {},
        "symmetry_checks": 0, "prop5_checks": 0, "monotonic_checks": 0,
        "witnesses": 0, "dp_runs": 0, "elapsed": 0.0,
    }
    start = time.perf_counter()
    for gi, g in enumerate(corpus):
        minima = {d: brute_force_min_dcut(g, d).min_cut_size for d in (1, 2)}
        for d, k in FULL_GRID:
            expected = minima[d] is not None and minima[d] <= k
            result = solve(g, k, d)
            evidence["runs"] += 1
            evidence["answers"][(gi, d, k)] = result.answer
            if result.answer != expected:
                evidence["mismatches"].append((gi, d, k))
            if result.answer:
                # every emitted witness re-certified here as a hard gate
                assert result.witness is not None
                assert is_d_cut(g, result.witness, d)
                assert len(edge_cut(g, result.witness)) <= k
                evidence["witnesses"] += 1
            if result.route == "dp":
                evidence["dp_runs"] += 1
                _collect_table_invariants(result.solver, evidence)
    evidence["elapsed"] = time.perf_counter() - start
    return evidence


def _collect_table_invariants(solver, evidence):
    table = solver.table
    grouped = {}
    for (node, side, budget), value in table.entries():
        adhesion = vertex_mask(solver.contexts[node].adhesion)
        # complement symmetry through the public lookup
        assert table.get(node, adhesion ^ side, budget) == value
        evidence["symmetry_checks"] += 1
        if side and side != adhesion:
            assert value >= 1
            evidence["prop5_checks"] += 1
        grouped.setdefault((node, side), []).append((budget, value))
    for entries in grouped.values():
        for (b1, v1), (b2, v2) in itertools.combinations(entries, 2):
            # budgets are count vectors on the sorted adhesion: compare
            # them pointwise
            if all(x <= y for x, y in zip(b1, b2)):
                assert v2 <= v1
                evidence["monotonic_checks"] += 1
            elif all(y <= x for x, y in zip(b1, b2)):
                assert v1 <= v2
                evidence["monotonic_checks"] += 1


def test_criterion_1_differential_correctness(corpus_run):
    assert corpus_run["runs"] == CORPUS_SIZE * len(FULL_GRID)
    assert corpus_run["mismatches"] == []
    assert corpus_run["elapsed"] < 600
    report("criterion-1",
           f"{corpus_run['runs']} solver-vs-oracle runs agree "
           f"({corpus_run['elapsed']:.1f}s)")


def test_criterion_2_canonical_instances():
    p2 = path_graph(2)
    c4 = cycle_graph(4)
    k4 = complete_graph(4)
    bridged = two_cliques_bridged(4)
    two_edges = Graph(4, [(0, 1), (2, 3)])
    # expectations derived from the brute-force oracle before comparing
    assert brute_force_min_dcut(p2, 1).min_cut_size == 1
    assert brute_force_min_dcut(c4, 1).min_cut_size == 2
    assert brute_force_min_dcut(k4, 1).min_cut_size is None
    assert brute_force_min_dcut(k4, 2).min_cut_size == 4
    assert brute_force_min_dcut(bridged, 1).min_cut_size == 1

    assert solve(p2, 1, 1).answer is True
    assert solve(c4, 1, 1).answer is False
    assert solve(c4, 2, 1).answer is True
    for k in range(6):
        assert solve(k4, k, 1).answer is False
    assert solve(k4, 4, 2).answer is True
    assert solve(bridged, 1, 1).answer is True
    assert solve(two_edges, 0, 1).answer is True
    report("criterion-2", "canonical instances match the oracle exactly")


def test_criterion_3_decomposition_validity(corpus):
    checked = 0
    for g in corpus:
        for k in range(7):
            td = construct(g, k)
            rep = verify(g, td, k)
            assert rep.passed, (g.edges, k, rep.failures())
            checked += 1
    report("criterion-3", f"{checked} constructed decompositions pass "
                          "all four checks")


def test_criterion_4_mode_agreement(corpus, corpus_run):
    # exact table equality between the helper-connected side list and
    # every bag subset as a side
    tables_compared = 0
    for g in corpus:
        if g.n > 10:
            continue
        for d, k in DP_GRID:
            td = construct(g, k)
            one = DPSolver(g, td, d, k, record_choices=False).run()
            two = AllSubsetsSolver(g, td, d, k, record_choices=False).run()
            assert dict(one.table.entries()) == dict(two.table.entries())
            tables_compared += 1

    # randomized families: pinned seed, heuristic rounds; answers must
    # agree on at least 99% of runs and any disagreement must be the
    # randomized side answering no where enumeration answers yes
    total = 0
    agree = 0
    for gi, g in enumerate(corpus):
        for d, k in DP_GRID:
            opts = SolveOptions(mode="colorcode", family_kind="randomized",
                                family_seed=RANDOMIZED_FAMILY_SEED,
                                witness=False)
            randomized = solve(g, k, d, opts).answer
            reference = corpus_run["answers"][(gi, d, k)]
            total += 1
            if randomized == reference:
                agree += 1
            else:
                assert reference and not randomized, \
                    "randomized mode may only err toward 'no'"
    assert agree / total >= 0.99
    report("criterion-4",
           f"{tables_compared} exact table matches; randomized agreement "
           f"{agree}/{total} = {agree / total:.4f}, all errors one-sided")


def _independent_multiset_count(q, d, k):
    return sum(1 for vec in itertools.product(range(d + 1), repeat=q)
               if sum(vec) <= k)


def _reference_triple_selection(child_items, edge_items, d, k, adhesion,
                                parent_budget):
    """Triple-copy selection: pick at most 2k copies out of d copies of
    every child adhesion vertex and one copy of every split-edge endpoint,
    materialize the budgets, validate, deduplicate."""
    triples = []
    for key, adh in child_items:
        for v in adh:
            for copy in range(1, d + 1):
                triples.append(("c", key, v))
    for key, ends in edge_items:
        for v in ends:
            triples.append(("e", key, v))
    families = set()
    for size in range(0, 2 * k + 1):
        for combo in itertools.combinations(range(len(triples)), size):
            per_item = {}
            for t in combo:
                kind, key, v = triples[t]
                per_item.setdefault((kind, key), []).append(v)
            ok = True
            built = {}
            for key, adh in child_items:
                counts = {}
                for v in per_item.get(("c", key), []):
                    counts[v] = counts.get(v, 0) + 1
                if any(m > d for m in counts.values()) \
                        or sum(counts.values()) > k:
                    ok = False
                    break
                built[("c", key)] = tuple(sorted(counts.items()))
            if ok:
                for key, ends in edge_items:
                    counts = {}
                    for v in per_item.get(("e", key), []):
                        counts[v] = counts.get(v, 0) + 1
                    if any(m > 1 for m in counts.values()):
                        ok = False
                        break
                    built[("e", key)] = tuple(sorted(counts.items()))
            if not ok:
                continue
            combined = {}
            for entries in built.values():
                for v, m in entries:
                    combined[v] = combined.get(v, 0) + m
            if sum(combined.values()) > 2 * k:
                continue
            if any(m > d for m in combined.values()):
                continue
            if any(combined.get(v, 0) > parent_budget[v] for v in adhesion):
                continue
            families.add(tuple(sorted(built.items())))
    return families


def _criterion_5_configs():
    """The 50 seeded ``(d, k, child_items, edge_items, adhesion,
    parent_budget)`` split configurations of criterion 5."""
    rng = random.Random(424242)
    configs = 0
    while configs < 50:
        d = rng.choice((1, 2))
        k = rng.choice((2, 3))
        child_items = []
        for ci in range(rng.randint(0, 2)):
            size = rng.randint(1, min(k, 2))
            child_items.append(
                (f"c{ci}", tuple(sorted(rng.sample(range(5), size)))))
        edge_items = []
        for ei in range(rng.randint(0, 2)):
            u, v = rng.sample(range(5), 2)
            edge_items.append((f"e{ei}", (min(u, v), max(u, v))))
        if not child_items and not edge_items:
            continue
        triple_count = sum(d * len(adh) for _, adh in child_items) \
            + 2 * len(edge_items)
        if triple_count > 10:
            continue
        adhesion = frozenset(rng.sample(range(5), rng.randint(0, 3)))
        parent_budget = {v: rng.randint(0, d) for v in adhesion}
        yield d, k, child_items, edge_items, adhesion, parent_budget
        configs += 1


def test_criterion_5_enumeration_oracles():
    from dcut import bounded_multisets
    combos = 0
    for q in range(0, 5):
        for d in range(1, 4):
            for k in range(q, 5):
                got = bounded_multisets(range(q), d, k)
                assert len(got) == _independent_multiset_count(q, d, k)
                assert len(set(got)) == len(got)
                combos += 1

    configs = 0
    for d, k, child_items, edge_items, adhesion, parent_budget \
            in _criterion_5_configs():
        reference = _reference_triple_selection(
            child_items, edge_items, d, k, adhesion, parent_budget)
        # The enumerator the fill uses, offered every budget at zero cost
        # (so no cost cap), with the parent budget applied to the usage
        # vector as the fill applies it.
        items = [(key, adh, [(b, 0) for b in bounded_multisets(adh, d, k)])
                 for key, adh in child_items]
        items += [(key, ends, [(b, 0) for b in bounded_multisets(ends, 1, 2)])
                  for key, ends in edge_items]
        kinds = {key: "c" for key, _ in child_items}
        kinds.update((key, "e") for key, _ in edge_items)
        vertices = {key: verts for key, verts, _ in items}
        order = sorted(adhesion)
        pvec = tuple(parent_budget[v] for v in order)
        direct = set()
        for usage, _, picks in budget_families(items, d, k, INFEASIBLE, order):
            if not all(u <= q for u, q in zip(usage, pvec)):
                continue
            # key each pick by its sparse (vertex, multiplicity) listing,
            # as the reference builds them
            key = tuple(sorted(
                ((kinds[key], key),
                 tuple((v, m) for v, m in zip(vertices[key], b) if m))
                for key, b in picks))
            assert key not in direct, "duplicate family generated"
            direct.add(key)
        assert direct == reference
        configs += 1
    assert configs == 50
    report("criterion-5", f"{combos} multiset counts match; {configs} "
                          "family enumerations match the copy-selection "
                          "procedure")


def test_budget_families_start_vector_equals_edge_items():
    # Split edges passed as a start vector give the families of the edges
    # put first as items, less the edge picks, under the fill's cost cap k
    # and with no cap.
    from dcut import bounded_multisets
    configs = 0
    for d, k, child_items, edge_items, adhesion, _ in _criterion_5_configs():
        order = sorted(adhesion)
        kids = [(key, adh, [(b, 1 + sum(b)) for b in bounded_multisets(adh, d, k)])
                for key, adh in child_items]
        edges = [(key, ends, [((1, 1), 1)]) for key, ends in edge_items]
        counts = {}
        for _, ends in edge_items:
            for v in ends:
                counts[v] = counts.get(v, 0) + 1
        for cap in (k, INFEASIBLE):
            prepended = [(usage, cost, picks[len(edges):]) for usage, cost, picks
                         in budget_families(edges + kids, d, k, cap, order)]
            started = budget_families(kids, d, k, cap, order,
                                      (counts, len(edges)))
            assert started == prepended
        configs += 1
    assert configs == 50


def test_criterion_6_table_invariants(corpus_run):
    assert corpus_run["dp_runs"] > 1000
    assert corpus_run["symmetry_checks"] > 10000
    assert corpus_run["prop5_checks"] > 100
    assert corpus_run["monotonic_checks"] > 1000
    assert corpus_run["witnesses"] > 1000
    report("criterion-6",
           f"{corpus_run['symmetry_checks']} symmetry, "
           f"{corpus_run['prop5_checks']} split-side, "
           f"{corpus_run['monotonic_checks']} monotonicity checks and "
           f"{corpus_run['witnesses']} certified witnesses across "
           f"{corpus_run['dp_runs']} table fills")


def test_criterion_7_set_family_covering():
    searched = 0
    for size in range(0, 11):
        universe = range(size)
        for a in range(4):
            for b in range(4):
                family = find_covering_family(
                    universe, a, b, seed=0,
                    rounds=1024 if size >= 8 else 256, retries=10)
                assert verify_covering(family, a, b) is None
                exhaustive = build_exhaustive(universe)
                assert verify_covering(exhaustive, a, b) is None
                searched += 1
    report("criterion-7", f"{searched} (universe, a, b) combinations "
                          "covered within 10 retries; exhaustive always passes")


def test_criterion_8_dp_scaling_proxy():
    sizes = []
    times = []
    for q in (4, 5, 6, 7):
        g = two_cliques_bridged(q)
        td = construct(g, 3)
        solver_args = (g, td, 1, 3)
        DPSolver(*solver_args).run()  # warm caches out of the timing
        best = math.inf
        for _ in range(5):
            reps = 10
            start = time.perf_counter()
            for _ in range(reps):
                DPSolver(*solver_args).run()
            best = min(best, (time.perf_counter() - start) / reps)
        sizes.append(g.n)
        times.append(best)
    slope = loglog_slope(sizes, times)
    assert slope < 4, f"log-log slope {slope:.2f}"
    report("criterion-8", f"DP phase log-log slope {slope:.2f} < 4 "
                          "on bridged-clique instances")

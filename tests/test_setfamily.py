import random

import pytest

from conftest import (find_covering_family, randomized_members_reference,
                      verify_covering, vertex_mask, vertex_set)
from dcut import DPSolver, build_exhaustive, build_randomized, heuristic_rounds
from dcut import setfamily
from dcut.graph import SizeLimitExceeded
from dcut.setfamily import draw_rounds, round_columns
from dcut.solver import _lex_key


class TestExhaustive:
    def test_empty_universe(self):
        fam = build_exhaustive(())
        assert fam.members == (frozenset(),)

    def test_four_elements(self):
        assert len(build_exhaustive(range(4))) == 16

    def test_covering_for_all_bounds(self):
        fam = build_exhaustive(range(4))
        for a in range(5):
            for b in range(5):
                assert verify_covering(fam, a, b) is None

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            build_exhaustive(range(25))


class TestRandomized:
    def test_deterministic(self):
        one = build_randomized(range(6), 2, 2, seed=5, rounds=8)
        two = build_randomized(range(6), 2, 2, seed=5, rounds=8)
        assert one.members == two.members

    def test_always_appends_empty(self):
        fam = build_randomized(range(6), 0, 3, seed=1, rounds=4)
        assert fam.members[-1] == frozenset()
        assert len(fam.members) == 5

    def test_empty_a_always_covered(self):
        fam = build_randomized(range(5), 0, 3, seed=3, rounds=1)
        assert verify_covering(fam, 0, 3) is None

    def test_pinned_fixture_covers(self):
        fam = build_randomized(range(8), 2, 2, seed=1, rounds=4096)
        assert verify_covering(fam, 2, 2) is None

    def test_bulk_draw_equals_per_bit_reference(self):
        # unsorted, non-contiguous labels over universes of 0..30 elements
        rng = random.Random(2024)
        for size in range(31):
            for rounds in (1, 2, 300, rng.randint(3, 299)):
                for _ in range(3):
                    universe = rng.sample(range(-40, 1000), size)
                    seed = rng.randrange(2 ** 64)
                    family = build_randomized(universe, 2, 6, seed, rounds)
                    assert family.members == randomized_members_reference(
                        universe, seed, rounds)

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            build_randomized(range(4), 1, 1, seed=0, rounds=0)


def remapped(members, positions):
    """Members over element indices as masks with element i at bit
    ``positions[i]``."""
    return [vertex_mask(positions[i] for i in member) for member in members]


def column_rounds(size, seed, rounds, positions=None):
    """The rounds of :func:`round_columns`, read back row by row as masks
    with element j at bit ``positions[j]`` (j itself by default), checking
    each block's round count on the way."""
    positions = positions or range(size)
    found, left = [], rounds
    for count, columns in round_columns(size, seed, rounds):
        assert count == min(1 << size, setfamily._BLOCK_ROUNDS, left)
        assert len(columns) == size and all(c >> count == 0 for c in columns)
        left -= count
        found += [vertex_mask(p for p, c in zip(positions, columns) if c >> r & 1)
                  for r in range(count)]
    assert left == 0
    return found


def draw_positions():
    """Vertex positions to read the columns' rounds back onto: contiguous
    and gapped (past bit 64) at sizes around one byte and one word."""
    rng = random.Random(8)
    for size in (0, 1, 7, 8, 9, 63, 64, 65):
        yield list(range(size))
        yield sorted(rng.sample(range(2 * size + 80), size))
    yield from ([56, 60, 63, 64, 65, 71, 72], [63, 64], [64],
                [0, 127, 128, 250], [7, 8, 15, 16], [3, 500, 1000, 1001])


class TestDistinctDraws:
    """:func:`round_columns`: its columns are :func:`draw_rounds`' flags
    transposed, block by block."""

    @pytest.mark.parametrize("positions", list(draw_positions()))
    def test_equals_per_bit_reference(self, positions):
        # each round, as the mask of the positions whose column holds it,
        # is the per-bit reference's member in order
        rng = random.Random(len(positions))
        for rounds in (1, 2, 300):
            seed = rng.randrange(2 ** 64)
            members = randomized_members_reference(range(len(positions)),
                                                   seed, rounds)
            assert column_rounds(len(positions), seed, rounds, positions) == \
                remapped(members[:-1], positions), (seed, rounds)

    @pytest.mark.parametrize("positions,block", [
        ([0, 2, 3, 9, 12], setfamily._BLOCK_ROUNDS),
        ([1, 5, 64, 66, 100, 130], 7)])
    def test_blocks_equal_one_draw(self, monkeypatch, positions, block):
        # rounds over three blocks and a part, or over many blocks of
        # 2^size, against draw_rounds' single getrandbits call
        monkeypatch.setattr(setfamily, "_BLOCK_ROUNDS", block)
        rounds = 3 * block + 5
        draws = draw_rounds(len(positions), 21, rounds)
        expected = remapped(({i for i, flag in enumerate(flags) if flag}
                             for flags in draws), positions)
        assert column_rounds(len(positions), 21, rounds, positions) == expected

    def test_columns_past_bit_64(self, monkeypatch):
        # blocks of 100 rounds over 9 elements, then 50: column bits past
        # 64 against draw_rounds' flags
        monkeypatch.setattr(setfamily, "_BLOCK_ROUNDS", 100)
        draws = draw_rounds(9, 5, 250)
        blocks = list(round_columns(9, 5, 250))
        assert [count for count, _ in blocks] == [100, 100, 50]
        for i, (count, columns) in enumerate(blocks):
            for j, column in enumerate(columns):
                assert column == sum(draws[100 * i + r][j] << r for r in range(count))

    @pytest.mark.parametrize("positions", [[0], [3, 5], [0, 2, 3], [1, 64, 130],
                                           [0, 1, 2, 3, 4]])
    def test_stops_at_a_complete_family(self, monkeypatch, positions):
        # a clique bag over the positions, with its proper subsets listed
        # by size: the filter reads the columns up to the end of the block
        # (2^size rounds) in which the rounds first hold every proper
        # subset, so never past the block in which they hold every subset,
        # and keeps each subset with its split edges in lexicographic
        # order; generator outputs are counted through a random.Random
        # subclass
        size = len(positions)
        rounds = 400 << size
        clique = vertex_mask(positions)
        nbrs = {p: clique ^ 1 << p for p in positions}
        proper = range(1, (1 << size) - 1)
        expected = {vertex_mask(p for i, p in enumerate(positions) if mask >> i & 1):
                    mask.bit_count() * (size - mask.bit_count()) for mask in proper}
        ends = []
        for seed in range(6):
            seen, sides_end, family_end = set(), None if proper else 0, None
            for i, flags in enumerate(draw_rounds(size, seed, rounds)):
                seen.add(flags)
                if sides_end is None and len(
                        seen - {bytes(size), bytes([1] * size)}) == len(proper):
                    sides_end = i + 1
                if len(seen) == 1 << size:
                    family_end = i + 1
                    break
            block = 1 << size
            ends.append((seed, -(-sides_end // block) * block,
                         -(-family_end // block) * block))
        outputs = []

        class Counting(random.Random):
            def getrandbits(self, bits):
                outputs.append(bits // 32)
                return super().getrandbits(bits)

        monkeypatch.setattr(setfamily.random, "Random", Counting)
        listed = sorted(expected.items(), key=lambda pair: (
            pair[0].bit_count(), sorted(vertex_set(pair[0]))))
        for seed, sides_end, family_end in ends:
            outputs.clear()
            sides = dict(DPSolver._drawn_sides(listed, positions, nbrs, seed, rounds))
            assert sides == expected
            assert list(sides) == sorted(expected, key=_lex_key, reverse=True)
            assert sum(outputs) == sides_end * size <= family_end * size

    def test_no_rounds_no_draws(self):
        assert list(round_columns(2, 3, 0)) == []


class TestVerifyCovering:
    def test_empty_family_counterexample(self):
        fam = build_randomized(range(3), 1, 0, seed=0, rounds=1)
        only_empty = type(fam)(fam.universe, (frozenset(),), "fixture")
        assert verify_covering(only_empty, 1, 0) == ((0,), ())

    def test_full_universe_family(self):
        fam = build_exhaustive(range(4))
        full_only = type(fam)(fam.universe, (frozenset(range(4)),), "fixture")
        assert verify_covering(full_only, 4, 0) is None

    def test_budget_guard(self):
        fam = build_exhaustive(range(16))
        with pytest.raises(SizeLimitExceeded):
            verify_covering(fam, 8, 8, pair_budget=10)

    def test_monotone_in_bounds(self):
        fam = find_covering_family(range(7), 2, 2, seed=0, rounds=1024)
        for a in range(3):
            for b in range(3):
                assert verify_covering(fam, a, b) is None


class TestFindCoveringFamily:
    def test_provenance_records_seed(self):
        fam = find_covering_family(range(5), 1, 1, seed=9, rounds=64)
        assert "seed=" in fam.provenance

    def test_small_grid(self):
        for size in (0, 3, 6):
            for a in range(3):
                for b in range(3):
                    fam = find_covering_family(range(size), a, b,
                                               seed=0, rounds=512)
                    assert verify_covering(fam, a, b) is None


def test_heuristic_rounds_grows_with_bounds():
    assert heuristic_rounds(10, 1, 5) < heuristic_rounds(10, 3, 5)
    assert heuristic_rounds(10, 3, 5) == heuristic_rounds(10, 5, 3)
    assert heuristic_rounds(4, 2, 2) >= 1

"""Covering subset families.

A family F over a universe U covers bounds (a, b) when every disjoint
pair A, B of subsets with |A| <= a and |B| <= b has some member S with
A inside S and B disjoint from S.  Two constructions are provided: the
exhaustive one (all subsets, trivially covering) for small universes,
and a seeded randomized one.  The solver reads its randomized members
as round-bitset columns, one per element (:func:`round_columns`), block
by block, and keeps the listed candidate sides that some round
isolates; it stops drawing once every listed side is kept, never later
than a family that holds every subset, which would isolate them all.  The
exhaustive covering checker that pins a passing seed lives with the
tests.  A randomized family that misses a pair can only push the
solver's costs up, never down, so its failures are one-sided.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, compress

from .graph import SizeLimitExceeded

EXHAUSTIVE_FAMILY_LIMIT = 20  # largest universe the exhaustive family lists
_ROUNDS_SCALE = 4.0  # heuristic_rounds per 4^min(a, b) per log of the universe
_ROUNDS_CAP = 8      # largest min(a, b) heuristic_rounds grows with


@dataclass(frozen=True)
class SubsetFamily:
    universe: tuple
    members: tuple
    provenance: str

    def __len__(self):
        return len(self.members)


def build_exhaustive(universe) -> SubsetFamily:
    """All subsets of the universe, in deterministic order."""
    order = tuple(sorted(universe))
    if len(order) > EXHAUSTIVE_FAMILY_LIMIT:
        raise SizeLimitExceeded(
            f"universe of size {len(order)} exceeds {EXHAUSTIVE_FAMILY_LIMIT}")
    members = []
    for size in range(len(order) + 1):
        for combo in combinations(order, size):
            members.append(frozenset(combo))
    return SubsetFamily(order, tuple(members), "exhaustive")


# A byte's top bit as a 0/1 flag, and as a binary digit: getrandbits(1) is
# the top bit of one 32-bit generator output, and that output's top byte
# is every fourth byte of a longer draw laid out little-endian.
_TOP_BIT = bytes(byte >> 7 for byte in range(256))
_TOP_DIGIT = bytes(b"01"[byte >> 7] for byte in range(256))
_BLOCK_ROUNDS = 1 << 14  # most rounds per getrandbits call in round_columns


def draw_rounds(size: int, seed: int, rounds: int) -> list:
    """``rounds`` draws over ``size`` elements from ``random.Random(seed)``,
    each a ``size``-byte string of 0/1 flags: the bits that one
    ``getrandbits(1)`` call per element per round would give, taken from
    a single ``getrandbits`` call over ``size * rounds`` generator outputs."""
    if size == 0:
        return [b""] * rounds
    total = size * rounds
    stream = random.Random(seed).getrandbits(32 * total).to_bytes(4 * total, "little")
    flags = stream[3::4].translate(_TOP_BIT)
    return [flags[i:i + size] for i in range(0, total, size)]


def round_columns(size: int, seed: int, rounds: int):
    """The rounds of :func:`draw_rounds` in blocks, one stream drawn a
    block at a time: per block a ``(count, columns)`` pair, ``columns[j]``
    the block's ``count`` rounds of element j as a bitset, round r at bit
    r.  A block is 2^size rounds (at most ``_BLOCK_ROUNDS``): the fewest
    that can hold every subset, and enough that each given subset turns up
    in it with probability above 1 - 1/e."""
    rng, start = random.Random(seed), 0
    while start < rounds:
        count = min(1 << size, _BLOCK_ROUNDS, rounds - start)
        start += count
        stream = rng.getrandbits(32 * size * count).to_bytes(4 * size * count, "little")
        yield count, [int(stream[4 * j + 3::4 * size].translate(_TOP_DIGIT)[::-1], 2)
                      for j in range(size)]


def build_randomized(universe, a: int, b: int, seed: int, rounds: int) -> SubsetFamily:
    """``rounds`` subsets drawn element-wise with probability 1/2 from a
    seeded generator (:func:`draw_rounds` over the canonical order), plus
    the empty set (which alone covers every pair with empty A).
    Deterministic in (seed, rounds, canonical order); a draw that repeats
    an earlier one shares its frozenset."""
    if a < 0 or b < 0:
        raise ValueError("bounds must be non-negative")
    if rounds < 1:
        raise ValueError("rounds must be positive")
    order = tuple(sorted(universe))
    draws = draw_rounds(len(order), seed, rounds)
    made = {flags: frozenset(compress(order, flags)) for flags in set(draws)}
    members = (*(made[flags] for flags in draws), frozenset())
    return SubsetFamily(order, members,
                        f"randomized(a={a},b={b},seed={seed},rounds={rounds})")


def heuristic_rounds(universe_size: int, a: int, b: int) -> int:
    """Round count for solver-scale randomized families where exhaustive
    verification is off the table; grows with 4^min(a, b) (capped) and
    logarithmically with the universe."""
    effective = min(a, b, _ROUNDS_CAP)
    return max(1, math.ceil(
        _ROUNDS_SCALE * (4 ** effective) * math.log(max(universe_size, 2))))

"""Defense verification through the counting criterion.

A defense D counters every attack of size at most k exactly when no attack A
with |A| <= k has more attackers than defender copies stationed in N[A]; the
matching formulation and this counting formulation agree by Hall's theorem.
`find_violator` hunts for a counterexample attack either exhaustively or with
a pruned search that only visits attacks whose members sit within distance
two of each other.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from defdom.errors import InputError
from defdom.graphs import (Graph, VertexMultiset, VertexSet, check_multiset,
                           closed_neighborhood, count_in, require_vertices)

STRATEGIES = ("exhaustive", "pruned")


@dataclass(frozen=True)
class Violator:
    """An attack the defense fails to counter, with its defender shortfall."""

    attack: VertexSet
    deficiency: int

    def __post_init__(self):
        if self.deficiency <= 0:
            raise InputError("a violator must have positive deficiency")


def hall_deficiency(g: Graph, defense: VertexMultiset, attack: Iterable[int]) -> int:
    """|A| minus the defender copies in N[A]; positive means A is uncountered."""
    attack = set(attack)
    require_vertices(g, attack, "attack")
    check_multiset(g, defense)
    return len(attack) - count_in(defense, closed_neighborhood(g, attack))


def _copy_masks(g: Graph, defense: VertexMultiset) -> list[int]:
    """Per-vertex bitmask of defender copies stationed in N[v].

    Each defender copy gets its own bit, so popcounts of mask unions count
    copies with multiplicity.  This is the workhorse for both strategies.
    """
    bit = 0
    station: dict[int, int] = {}
    for v in sorted(defense):
        mask = 0
        for _ in range(defense[v]):
            mask |= 1 << bit
            bit += 1
        station[v] = mask
    dmask = [0] * (g.n + 1)
    for v, mask in station.items():
        dmask[v] |= mask
        for u in g.adj[v]:
            dmask[u] |= mask
    return dmask


def _violator_exhaustive(g: Graph, dmask: list[int], k: int) -> Optional[Violator]:
    # Ascending size, lexicographic inside each size: the first hit is the
    # canonical witness.
    for size in range(1, min(k, g.n) + 1):
        for combo in itertools.combinations(g.vertices, size):
            cover = 0
            for v in combo:
                cover |= dmask[v]
            if cover.bit_count() < size:
                return Violator(frozenset(combo), size - cover.bit_count())
    return None


def _connected_subsets(neighbors: list[int], members: list[int], size: int):
    """Yield the size-`size` subsets of `members` that induce a connected
    subgraph of the mask-encoded graph `neighbors`, each exactly once.

    Root-anchored extension search: subsets containing a root only ever use
    higher-numbered vertices, and each new vertex must be a fresh neighbor of
    the current subset, which makes every subset appear exactly once.
    """
    member_mask = 0
    for v in members:
        member_mask |= 1 << (v - 1)
    for root in members:
        above = member_mask & ~((1 << root) - 1)  # ids strictly above root
        sub = [root]
        sub_mask = 1 << (root - 1)
        hood = neighbors[root] | sub_mask

        def extend(ext: int, hood: int):
            if len(sub) == size:
                yield tuple(sub)
                return
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length()
                fresh = neighbors[w] & above & ~hood
                sub.append(w)
                yield from extend(ext | fresh, hood | neighbors[w] | low)
                sub.pop()

        if size == 1:
            yield (root,)
        else:
            yield from extend(neighbors[root] & above, hood)


def _violator_pruned(g: Graph, dmask: list[int], k: int) -> Optional[Violator]:
    # A minimum-size uncountered attack splits along components that are
    # pairwise farther than two apart, and the shortfall adds up across the
    # split, so some minimum violator is connected at distance <= 2.  Search
    # only those, per size m, over vertices with fewer than m nearby copies.
    masks = g.neighborhood_masks()
    square = [0] * (g.n + 1)
    for v in g.vertices:
        m = masks[v]
        for u in g.adj[v]:
            m |= masks[u]
        square[v] = m & ~(1 << (v - 1))
    for m in range(1, min(k, g.n) + 1):
        cand = [v for v in g.vertices if dmask[v].bit_count() < m]
        if len(cand) < m:
            continue
        for combo in _connected_subsets(square, cand, m):
            cover = 0
            for v in combo:
                cover |= dmask[v]
            if cover.bit_count() < m:
                return Violator(frozenset(combo), m - cover.bit_count())
    return None


def find_violator(g: Graph, defense: VertexMultiset, k: int,
                  strategy: str = "pruned") -> Optional[Violator]:
    """Search for an uncountered attack of size at most k.

    Both strategies are complete for existence; the exhaustive one also
    promises the (size, lexicographic)-least witness, the pruned one only
    promises some witness.
    """
    if k < 1:
        raise InputError("attack budget k must be at least 1")
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    check_multiset(g, defense)
    dmask = _copy_masks(g, defense)
    if strategy == "exhaustive":
        return _violator_exhaustive(g, dmask, k)
    return _violator_pruned(g, dmask, k)


def good_defense(g: Graph, defense: VertexMultiset, k: int,
                 strategy: str = "pruned") -> bool:
    """True iff the defense counters every attack of size at most k."""
    return find_violator(g, defense, k, strategy) is None


"""Defense verification through the counting criterion.

A defense D counters every attack of size at most k exactly when no attack A
with |A| <= k has more attackers than defender copies stationed in N[A]; the
matching formulation and this counting formulation agree by Hall's theorem.
`find_violator` hunts for a counterexample attack either exhaustively or with
a pruned search that only visits attacks whose members sit within distance
two of each other.

The pruned search grows each such attack one vertex at a time and carries
its copy cover, the union of the copy sets of N[v] over its members.  It
drops a branch as soon as the cover holds m copies for a size-m attack.
Invariant: the cover only grows as the attack grows, so a dropped branch
holds no size-m violator.  The surviving branches keep the order of the
unbounded enumeration, so the first violator found, and its deficiency,
are the ones that enumeration returns.
"""

import itertools
from typing import Iterable, Optional

from defdom.errors import InputError, record
from defdom.graphs import (Graph, VertexMultiset, VertexSet, check_multiset,
                           closed_neighborhood, count_in, require_vertices)

STRATEGIES = ("exhaustive", "pruned")


@record
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
    dmask = [0] * (g.n + 1)
    bit = 0
    for v in sorted(defense):
        mask = ((1 << defense[v]) - 1) << bit
        bit += defense[v]
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


def _uncovered_subset(neighbors: list[int], dmask: list[int], members: list[int],
                      size: int) -> Optional[tuple[tuple[int, ...], int]]:
    """First size-`size` subset of `members`, connected in the mask-encoded
    graph `neighbors`, whose copy cover has fewer than `size` copies; returns
    it with its cover, or None.

    Root-anchored extension search: subsets containing a root only ever use
    higher-numbered vertices, and each new vertex must be a fresh neighbor of
    the current subset, which makes every subset appear exactly once.  The
    search carries the cover of the subset so far and skips a branch once
    the cover holds `size` copies: covers only grow as a subset grows, so no
    subset in that branch is uncovered.
    """
    member_mask = 0
    for v in members:
        member_mask |= 1 << (v - 1)
    sub: list[int] = []

    def extend(ext: int, hood: int, cover: int, above: int):
        if len(sub) == size:
            return tuple(sub), cover
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length()
            grown = cover | dmask[w]
            if grown.bit_count() >= size:
                continue
            sub.append(w)
            found = extend(ext | (neighbors[w] & above & ~hood),
                           hood | neighbors[w] | low, grown, above)
            if found is not None:
                return found
            sub.pop()
        return None

    for root in members:
        sub.append(root)
        above = member_mask & ~((1 << root) - 1)  # ids strictly above root
        found = extend(neighbors[root] & above, neighbors[root] | (1 << (root - 1)),
                       dmask[root], above)
        if found is not None:
            return found
        sub.pop()
    return None


def _violator_pruned(g: Graph, dmask: list[int], k: int) -> Optional[Violator]:
    # A minimum-size uncountered attack splits along components that are
    # pairwise farther than two apart, and the shortfall adds up across the
    # split, so some minimum violator is connected at distance <= 2.  Search
    # only those, per size m, over vertices with fewer than m nearby copies.
    # Size 1 needs no distance-2 masks: the first vertex with no copy nearby.
    for v in g.vertices:
        if not dmask[v]:
            return Violator(frozenset({v}), 1)
    masks = g.neighborhood_masks()
    square = [0] * (g.n + 1)
    for v in g.vertices:
        m = masks[v]
        for u in g.adj[v]:
            m |= masks[u]
        square[v] = m & ~(1 << (v - 1))
    for m in range(2, min(k, g.n) + 1):
        cand = [v for v in g.vertices if dmask[v].bit_count() < m]
        if len(cand) < m:
            continue
        found = _uncovered_subset(square, dmask, cand, m)
        if found is not None:
            combo, cover = found
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
    # A station serves at most |A| <= min(k, n) attackers, so copies past that
    # change no count compared with an attack size, and get no bit.
    cap = min(k, g.n)
    dmask = _copy_masks(g, {v: min(c, cap) for v, c in defense.items()})
    if strategy == "exhaustive":
        return _violator_exhaustive(g, dmask, k)
    return _violator_pruned(g, dmask, k)


def good_defense(g: Graph, defense: VertexMultiset, k: int,
                 strategy: str = "pruned") -> bool:
    """True iff the defense counters every attack of size at most k."""
    return find_violator(g, defense, k, strategy) is None


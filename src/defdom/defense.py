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
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from defdom.errors import InputError
from defdom.graphs import (Graph, VertexMultiset, VertexSet, check_multiset,
                           closed_neighborhood, count_in, require_vertices)

STRATEGIES = ("exhaustive", "pruned")


class _Violator(NamedTuple):
    attack: VertexSet
    deficiency: int


class Violator(_Violator):
    """An attack the defense fails to counter, with its defender shortfall."""

    __slots__ = ()

    def __new__(cls, attack: VertexSet, deficiency: int):
        if deficiency <= 0:
            raise InputError("a violator must have positive deficiency")
        return super().__new__(cls, attack, deficiency)


def hall_deficiency(g: Graph, defense: VertexMultiset, attack: Iterable[int]) -> int:
    """|A| minus the defender copies in N[A]; positive means A is uncountered."""
    attack = set(attack)
    require_vertices(g, attack, "attack")
    check_multiset(g, defense)
    return len(attack) - count_in(defense, closed_neighborhood(g, attack))


def _copy_masks(g: Graph, defense: VertexMultiset, part: Sequence[int],
                place: Sequence[int]) -> list[int]:
    """Per place i, the bitmask of defender copies stationed in N[part[i]],
    where `part` is closed under neighbors and place[v] is v's index in it.

    Each defender copy gets its own bit, so popcounts of mask unions count
    copies with multiplicity.
    """
    dmask, bit = [0] * len(part), 0
    for i, v in enumerate(part):
        count = defense.get(v)
        if count:
            mask = ((1 << count) - 1) << bit
            bit += count
            dmask[i] |= mask
            for u in g.adj[v]:
                dmask[place[u]] |= mask
    return dmask


def _violator_exhaustive(g: Graph, defense: VertexMultiset, k: int) -> Optional[Violator]:
    # Ascending size, lexicographic inside each size: the first hit is the
    # canonical witness.  Vertex v is place v - 1.
    dmask = _copy_masks(g, defense, g.vertices, range(-1, g.n))
    for size in range(1, min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            cover = 0
            for i in combo:
                cover |= dmask[i]
            if cover.bit_count() < size:
                return Violator(frozenset(i + 1 for i in combo), size - cover.bit_count())
    return None


def _components(g: Graph) -> Iterator[list[int]]:
    """The vertex lists of g's components with two or more vertices, each
    in ascending id order."""
    seen = bytearray(g.n + 1)
    for root in g.vertices:
        if seen[root] or not g.adj[root]:
            continue
        seen[root] = 1
        part = [root]
        for v in part:
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    part.append(u)
        part.sort()
        yield part


def _uncovered_from(square: list[int], dmask: list[int], members: int, root: int,
                    size: int) -> Optional[tuple[list[int], int]]:
    """First size-`size` subset (size >= 2) of `members` with least element
    `root`, connected in the mask-encoded graph `square`, whose copy cover
    has fewer than `size` copies; returns it with its cover, or None.

    Root-anchored extension search: the subset only ever uses places above
    the root, and each new place must be a fresh neighbor of the subset so
    far, which makes every subset appear exactly once.  The search carries
    the cover of the subset so far and skips a branch once the cover holds
    `size` copies: covers only grow as a subset grows, so no subset in that
    branch is uncovered.  It runs depth first on an explicit stack, so an
    attack of any size needs no recursion.
    """
    above = members >> (root + 1) << (root + 1)
    sub = [root]
    # the places still to try next, the places within distance 2 of sub (or
    # in it), and sub's cover; `stack` keeps these for each shorter prefix
    ext, hood, cover = square[root] & above, square[root] | (1 << root), dmask[root]
    stack = []
    while True:
        if not ext:
            if not stack:
                return None
            ext, hood, cover = stack.pop()
            sub.pop()
            continue
        low = ext & -ext
        ext ^= low
        w = low.bit_length() - 1
        grown = cover | dmask[w]
        if grown.bit_count() >= size:
            continue
        sub.append(w)
        if len(sub) == size:
            return sub, grown
        stack.append((ext, hood, cover))
        ext, hood, cover = ext | (square[w] & above & ~hood), hood | square[w] | low, grown


def _violator_pruned(g: Graph, defense: VertexMultiset, k: int) -> Optional[Violator]:
    # A minimum-size uncountered attack splits along components that are
    # pairwise farther than two apart, and the shortfall adds up across the
    # split, so some minimum violator is connected at distance <= 2.  Search
    # only those, per size m, over vertices with fewer than m nearby copies.
    # Size 1 needs no masks: the first vertex with no copy nearby.
    copies = defense.keys()
    for v in g.vertices:
        if v not in defense and copies.isdisjoint(g.adj[v]):
            return Violator(frozenset({v}), 1)
    # A larger one lies inside one component of g, so each component numbers
    # its own vertices and copies, in ascending id order, and its masks are
    # as wide as it is.  Roots are still tried in ascending id for each m.
    local = [0] * (g.n + 1)   # v -> its place in its component
    # per component: ids, copy masks, copy counts, the counts sorted, and
    # the distance-2 masks once a search starts in it
    comps = []
    for part in _components(g):
        for i, v in enumerate(part):
            local[v] = i
        dmask = _copy_masks(g, defense, part, local)
        counts = [mask.bit_count() for mask in dmask]
        comps.append([part, dmask, counts, sorted(counts), None])
    for m in range(2, min(k, g.n) + 1):
        roots = []
        for comp in comps:
            # a size-m violator needs m places with fewer than m copies nearby
            if bisect_left(comp[3], m) >= m:
                places = [i for i, count in enumerate(comp[2]) if count < m]
                members = sum(1 << i for i in places)
                roots += [(comp[0][i], i, members, comp) for i in places]
        for _, i, members, comp in sorted(roots, key=itemgetter(0)):
            ids, dmask, _, _, square = comp
            if square is None:
                comp[4] = square = _squares(g, ids, local)
            found = _uncovered_from(square, dmask, members, i, m)
            if found is not None:
                sub, cover = found
                return Violator(frozenset(ids[j] for j in sub), m - cover.bit_count())
    return None


def _squares(g: Graph, ids: list[int], local: list[int]) -> list[int]:
    """Per place in the component `ids`: the other places within distance 2."""
    hood = []
    for i, v in enumerate(ids):
        mask = 1 << i
        for u in g.adj[v]:
            mask |= 1 << local[u]
        hood.append(mask)
    square = []
    for i, v in enumerate(ids):
        mask = hood[i]
        for u in g.adj[v]:
            mask |= hood[local[u]]
        square.append(mask & ~(1 << i))
    return square


def find_violator(g: Graph, defense: VertexMultiset, k: int,
                  strategy: str = "pruned") -> Optional[Violator]:
    """Search for an uncountered attack of size at most k.

    Both strategies are complete for existence and return a violator of
    least size, with its deficiency.  The exhaustive one returns the
    (size, lexicographic)-least one; the pruned one returns the first one
    that the root-anchored enumeration of attacks connected at distance at
    most 2 finds, size by size, with roots in ascending vertex id.
    """
    if k < 1:
        raise InputError("attack budget k must be at least 1")
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    check_multiset(g, defense)
    # A station serves at most |A| <= min(k, n) attackers, so copies past that
    # change no count compared with an attack size, and get no bit.
    cap = min(k, g.n)
    capped = {v: min(c, cap) for v, c in defense.items()}
    if strategy == "exhaustive":
        return _violator_exhaustive(g, capped, k)
    return _violator_pruned(g, capped, k)


def good_defense(g: Graph, defense: VertexMultiset, k: int,
                 strategy: str = "pruned") -> bool:
    """True iff the defense counters every attack of size at most k."""
    return find_violator(g, defense, k, strategy) is None


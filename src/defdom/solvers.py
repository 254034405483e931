"""Exact solvers for smallest defenses: a counterexample-guided search.

All three solvers run one search over per-vertex copy counts `0..cap`
(`cap = k` for multisets, `1` for sets, `upper - lower` for the constrained
variant).  Candidates come in ascending size, lexicographic within a size on
the expanded sorted tuple of copies, so the first candidate the verifier
accepts is the optimum and its witness is canonical.

By the counting criterion, a defense counters every attack of size <= k
exactly when D(N[A]) >= |A| for each such attack A.  So every Hall violator
the verifier returns is a Hall cut that all defenses satisfy.  The search
learns one such cut per rejected candidate, keeps it across sizes,
and skips a subtree as soon as the cuts can no longer all be met: the copies
already placed in some N[A] plus the most that the remaining budget and
caps can still put there fall short of |A|, or cuts with pairwise disjoint
open vertices need more copies between them than the budget has left.
Only candidates that meet every cut are handed to the verifier.

Invariant: a skipped candidate breaks a valid Hall inequality and so is no
defense.  The first verified candidate is therefore the same optimum and the
same witness that plain enumeration of every candidate returns."""

import bisect
from typing import Callable, Iterable, NamedTuple, Optional, Union

from defdom.errors import InputError
from defdom.graphs import (Graph, VertexMultiset, VertexSet, check_multiset,
                           closed_neighborhood, count_in, multiset_size,
                           require_vertices)

# A Hall cut: at least `need` copies among the vertices of `hood`.
Cut = tuple[Iterable[int], int]


class SolveResult(NamedTuple):
    """Optimum size, one optimal witness, and the candidates handed to the
    verifier (those that met every Hall cut in the pool)."""

    optimum: int
    witness: Union[VertexSet, VertexMultiset]
    explored: int


def _least_defense(vertices: list[int], caps: list[int],
                   separate: Callable[[VertexMultiset], Optional[Cut]]):
    """First candidate in (size, lexicographic) order that `separate` accepts.

    `separate(counts)` returns None to accept, or a cut the candidate breaks
    to reject it.  Returns (size, counts, candidates verified), or None
    when no candidate within the caps is accepted.

    Positions are decided in order, each taking counts from the most it can
    down to a floor.  Per cut the search keeps its deficit (need minus the
    copies placed in its hood) and its slack (copies placed plus the caps
    still open in its hood, minus need).  A count below the floor would make
    some slack negative or leave more copies than later positions can take.
    A node survives when the cuts whose open positions are pairwise disjoint
    have deficits that the copies left can pay: a greedy packing, earliest
    last position first, which also bounds every single deficit.  The search
    uses an explicit stack, so its depth is not bounded by the recursion
    limit.
    """
    m = len(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    member: list[list[int]] = [[] for _ in range(m)]   # cuts through each position
    deficit: list[int] = []
    slack: list[int] = []
    hmask: list[int] = []  # positions of each cut's hood, as a bitmask
    order: list[int] = []  # cuts by last position, then hood size
    x = [0] * m            # copies at each decided position, 0 beyond
    rem = [0] * (m + 1)    # copies left to place before deciding position i
    floor = [0] * m        # least count position i may take on this path

    def add_cut(hood: Iterable[int], need: int, depth: int) -> None:
        j = len(deficit)
        placed = room = bits = 0
        for v in hood:
            p = pos.get(v)
            if p is None:
                continue
            member[p].append(j)
            bits |= 1 << p
            if p < depth:
                placed += x[p]
            else:
                room += caps[p]
        deficit.append(need - placed)
        slack.append(placed + room - need)
        hmask.append(bits)
        bisect.insort(order, j, key=lambda j: (hmask[j].bit_length(), hmask[j].bit_count()))

    explored = 0
    for size in range(suffix[0] + 1):
        if deficit and max(deficit) > size:
            continue
        rem[0] = size
        i, fresh = 0, True
        while i >= 0:
            hoods = member[i] if i < m else ()
            if fresh:
                r = rem[i]
                if r == 0:             # a candidate: later positions stay 0
                    explored += 1
                    counts = {vertices[p]: x[p] for p in range(i) if x[p]}
                    cut = separate(counts)
                    if cut is None:
                        return size, counts, explored
                    add_cut(*cut, i)
                    i, fresh = i - 1, False
                    continue
                cap = caps[i]
                c = min(cap, r)
                least = max(0, r - suffix[i + 1])
                if hoods:
                    least = max(least, cap - min([slack[j] for j in hoods]))
                if c < least:
                    i, fresh = i - 1, False
                    continue
                floor[i] = least
                x[i] = c
                for j in hoods:
                    slack[j] += c - cap
                    deficit[j] -= c
                fresh = False
            else:
                c = x[i]
                if c <= floor[i]:
                    for j in hoods:
                        slack[j] += caps[i] - c
                        deficit[j] += c
                    x[i] = 0
                    i -= 1
                    continue
                c = x[i] = c - 1
                for j in hoods:
                    slack[j] -= 1
                    deficit[j] += 1
            # Greedy packing over the cuts still short of their need.
            left = rem[i] - c
            above = -1 << (i + 1)
            used = total = 0
            for j in order:
                d = deficit[j]
                if d > 0:
                    u = hmask[j] & above
                    if not u or d > left:
                        break
                    if not u & used:
                        used |= u
                        total += d
                        if total > left:
                            break
            else:
                rem[i + 1] = left
                i, fresh = i + 1, True
    return None


def _min_defense(g: Graph, k: int, cap: int):
    """Least (size, lexicographic) defense against every attack of size <= k
    with at most `cap` copies per vertex; the exhaustive verifier separates,
    and each violator it finds becomes the Hall cut of its attack."""
    from defdom.defense import find_violator   # the --attacks path never loads it
    if k < 1:
        raise InputError("attack budget k must be at least 1")

    def separate(counts: VertexMultiset) -> Optional[Cut]:
        violator = find_violator(g, counts, k, "exhaustive")
        if violator is None:
            return None
        attack = violator.attack
        return closed_neighborhood(g, attack), len(attack)

    found = _least_defense(list(g.vertices), [cap] * g.n, separate)
    if found is None:
        raise AssertionError("unreachable: one defender per vertex is always enough")
    return found


def min_set_defense(g: Graph, k: int) -> SolveResult:
    """Smallest set of distinct defenders countering every attack of size <= k.

    Always solvable: stationing one defender on every vertex matches any
    attack identically.
    """
    size, counts, explored = _min_defense(g, k, 1)
    return SolveResult(size, frozenset(counts), explored)


def min_multiset_defense(g: Graph, k: int) -> SolveResult:
    """Smallest defender multiset countering every attack of size <= k.

    Stacking more than k copies on one vertex is never useful (at most k
    attackers can be matched there), so the search caps multiplicity at k.
    """
    return SolveResult(*_min_defense(g, k, k))


def domination_number(g: Graph) -> SolveResult:
    """Classical domination: defenses against single-vertex attacks."""
    return min_set_defense(g, 1)


def min_constrained_multiset(g: Graph, attacks: Iterable[Iterable[int]],
                             lower: VertexMultiset,
                             upper: VertexMultiset) -> Optional[SolveResult]:
    """Smallest multiset D with lower <= D <= upper countering each listed
    attack (only those).  Returns None when even `upper` fails.

    The matching check on the listed attacks verifies; the attackers S its
    search reaches for the first attacker it cannot place become the cut
    D(N[S]) >= |S|, net of the copies `lower` already puts in N[S].
    """
    from defdom.matching import uncountered   # the size-k solvers never load it
    check_multiset(g, lower)
    check_multiset(g, upper)
    for v, c in lower.items():
        if c > upper.get(v, 0):
            raise InputError(f"lower bound exceeds upper bound at vertex {v}")
    attack_list = []
    for a in attacks:
        a = frozenset(a)
        require_vertices(g, a, "attack")
        attack_list.append(a)

    if uncountered(g, upper, attack_list) is not None:
        return None
    slack_vertices = [v for v in sorted(upper) if upper[v] > lower.get(v, 0)]
    caps = [upper[v] - lower.get(v, 0) for v in slack_vertices]

    def separate(add: VertexMultiset) -> Optional[Cut]:
        reached = uncountered(g, _plus(lower, add), attack_list)
        if reached is None:
            return None
        hood = closed_neighborhood(g, reached)
        return hood, len(reached) - count_in(lower, hood)

    found = _least_defense(slack_vertices, caps, separate)
    if found is None:
        return None
    extra, add, explored = found
    return SolveResult(multiset_size(lower) + extra, _plus(lower, add), explored)


def _plus(lower: VertexMultiset, add: VertexMultiset) -> VertexMultiset:
    defense = dict(lower)
    for v, c in add.items():
        defense[v] = defense.get(v, 0) + c
    return defense

"""The attacker-coverage check: match attackers to defender stations.

An attack is countered when every attacker can be assigned its own defender
copy stationed in the attacker's closed neighborhood, no copy reused.  A
station is a vertex holding copies, and it serves at most as many attackers
as it holds copies, so the check is a matching of the attackers into
stations of bounded capacity.  `uncountered` places the attackers one by one
in ascending order, each on the first station in its neighborhood with room,
or else by an augmenting-path search that shifts earlier attackers along an
alternating path (Kuhn, Naval Res. Logist. Q. 2, 1955).  It checks a whole
list of attacks against one defense and shares the per-vertex station lists
across them; `counters` is its one-attack case.

The first attacker that cannot be placed ends the check.  The attackers its
search reached form a Hall violator: every station they see is full and
held only by the others among them, so they see exactly one copy fewer than
their number.
"""

from typing import Iterable, Optional

from defdom.graphs import (Graph, VertexMultiset, VertexSet, check_multiset,
                           require_vertices)


def _unplaced(reach: list[list[int]], defense: VertexMultiset,
              attackers: list[int]) -> Optional[VertexSet]:
    """Place the attackers on the stations in their `reach` lists, at most
    defense[s] on station s.  Returns None once all are placed, else the
    attackers reached by the search for the first one that cannot be."""
    holders: dict[int, list[int]] = {}   # station -> the attackers it serves
    seat: dict[int, tuple[int, int]] = {}   # attacker -> (station, place)
    for root in attackers:
        for s in reach[root]:
            held = holders.setdefault(s, [])
            if len(held) < defense[s]:
                seat[root] = (s, len(held))
                held.append(root)
                break
        else:
            reached = _shift(root, reach, defense, holders, seat)
            if reached is not None:
                return reached
    return None


def _shift(root: int, reach: list[list[int]], defense: VertexMultiset,
           holders: dict[int, list[int]],
           seat: dict[int, tuple[int, int]]) -> Optional[VertexSet]:
    """Place `root` along an alternating path, or return the attackers the
    search reached: every station they see is full and held by them.

    Depth first on an explicit stack; came[b] is the attacker that reached
    b and may take b's place, and each full station hands over its holders
    once.
    """
    came = {root: None}
    done = set()
    stack = [root]
    while stack:
        a = stack.pop()
        for s in reach[a]:
            held = holders.setdefault(s, [])
            if len(held) < defense[s]:
                # a takes the free place on s, and every attacker on the
                # path back to the root takes the place its successor left
                held.append(a)
                place = (s, len(held) - 1)
                while a is not None:
                    left = seat.get(a)
                    seat[a] = place
                    holders[place[0]][place[1]] = a
                    a, place = came[a], left
                return None
            if s not in done:
                done.add(s)
                for b in held:
                    if b not in came:
                        came[b] = a
                        stack.append(b)
    return frozenset(came)


def uncountered(g: Graph, defense: VertexMultiset,
                attacks: Iterable[Iterable[int]]) -> Optional[VertexSet]:
    """A Hall violator inside the first listed attack the defense does not
    counter, or None: the whole attack when it outnumbers the copies, else
    the attackers reached by the search for the first one that cannot be
    placed.

    The defense is checked once, and each vertex gets the ascending list of
    stations in its closed neighborhood once; every attack then runs the
    placement on those shared lists.  A count is a capacity, so a station
    with 10**12 copies costs no more than one with a single copy.  Each
    attack is validated when its turn comes, so a bad vertex after the first
    uncountered attack goes unnoticed.
    """
    check_multiset(g, defense)
    reach: list[list[int]] = [[] for _ in range(g.n + 1)]
    for s in sorted(defense):
        reach[s].append(s)
        for u in g.adj[s]:
            reach[u].append(s)
    total = sum(defense.values())
    for attack in attacks:
        attackers = sorted(frozenset(attack))
        require_vertices(g, attackers, "attack")
        if len(attackers) > total:
            return frozenset(attackers)
        reached = _unplaced(reach, defense, attackers)
        if reached is not None:
            return reached
    return None


def counters(g: Graph, defense: VertexMultiset, attack: Iterable[int]) -> bool:
    """True iff the defense counters the attack: the attackers admit a
    matching into distinct defender copies from their closed neighborhoods."""
    return uncountered(g, defense, [attack]) is None

"""Bipartite maximum matching and the attacker-coverage check built on it.

An attack is countered when every attacker can be assigned its own defender
copy stationed in the attacker's closed neighborhood, no copy reused.  That
is exactly a perfect matching of the attackers into defender copies, so the
coverage check reduces to Hopcroft-Karp.  `uncountered` checks a whole list
of attacks against one defense and shares the per-vertex copy lists across
them; `counters` is its one-attack case.  A failed maximum matching names
a Hall violator: each copy seen by the attackers that alternating paths
reach from an unmatched one (Hopcroft and Karp, SIAM J. Comput. 2, 1973) is
matched to another of them, so they see one copy fewer than their number.
"""

from collections import deque
from typing import Iterable, Optional, Sequence

from defdom.graphs import (Graph, VertexMultiset, VertexSet, check_multiset,
                           require_vertices)

INF = float("inf")


def max_matching(adj: Sequence[Sequence[int]],
                 num_right: int) -> tuple[int, dict[int, int]]:
    """Hopcroft-Karp on left tokens 0..len(adj)-1, where adj[u] lists the
    right tokens in 0..num_right-1 that u may take, in the order tried.
    Returns the matching size and a left->right pairing."""
    num_left = len(adj)
    match_l = [-1] * num_left
    match_r = [-1] * num_right
    dist = [INF] * num_left

    def bfs() -> bool:
        q = deque()
        for u in range(num_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for r in adj[u]:
                w = match_r[r]
                if w == -1:
                    found = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    # Each phase searches augmenting paths down the BFS layers, depth
    # first from each free left token in turn.  The path is a stack of left
    # tokens, and next_arc[u] is the arc u tries next: an arc that fails
    # once cannot succeed later in the phase, so the index only moves
    # forward, and a token with no arc left is dead for the phase.
    size = 0
    while bfs():
        next_arc = [0] * num_left
        for root in range(num_left):
            if match_l[root] != -1:
                continue
            path = [root]
            while path:
                u = path[-1]
                arcs = adj[u]
                layer = dist[u] + 1
                i = next_arc[u]
                while i < len(arcs):
                    w = match_r[arcs[i]]
                    if w == -1 or dist[w] == layer:
                        break
                    i += 1
                next_arc[u] = i
                if i == len(arcs):
                    dist[u] = INF
                    path.pop()
                    if path:
                        next_arc[path[-1]] += 1
                elif w != -1:
                    path.append(w)
                else:                      # a free right token: flip the path
                    for v in path:
                        r = adj[v][next_arc[v]]
                        match_l[v] = r
                        match_r[r] = v
                    size += 1
                    break

    pairing = {u: match_l[u] for u in range(num_left) if match_l[u] != -1}
    return size, pairing


def defender_copies(defense: VertexMultiset) -> list[int]:
    """Expand a defense multiset into one token per copy, vertex-sorted."""
    out: list[int] = []
    for v in sorted(defense):
        out.extend([v] * defense[v])
    return out


def _stranded(adj: Sequence[Sequence[int]], pairing: dict[int, int]) -> set[int]:
    """Left tokens that alternating paths reach from the first one the
    maximum matching `pairing` leaves unmatched."""
    # every right token reached is matched, or the matching would grow
    owner = {r: u for u, r in pairing.items()}
    seen = {next(u for u in range(len(adj)) if u not in pairing)}
    stack = list(seen)
    while stack:
        for r in adj[stack.pop()]:
            if owner[r] not in seen:
                seen.add(owner[r])
                stack.append(owner[r])
    return seen


def uncountered(g: Graph, defense: VertexMultiset,
                attacks: Iterable[Iterable[int]]) -> Optional[VertexSet]:
    """A Hall violator inside the first listed attack the defense does not
    counter, or None: the whole attack when it outnumbers the copies, else
    the attackers that a maximum matching strands.

    The defense is checked and expanded into copies once (at most n per
    vertex), and each vertex gets the ascending list of copies stationed in
    its closed neighborhood once; every attack then runs Hopcroft-Karp on
    those shared lists.  Each attack is validated when its turn comes, so a
    bad vertex after the first uncountered attack goes unnoticed.
    """
    check_multiset(g, defense)
    # an attack has at most n members, so a station's copies past n go unused
    copies = defender_copies({v: min(c, g.n) for v, c in defense.items()})
    reach: list[list[int]] = [[] for _ in range(g.n + 1)]
    for ri, d in enumerate(copies):
        reach[d].append(ri)
        for u in g.adj[d]:
            reach[u].append(ri)
    for attack in attacks:
        attackers = sorted(frozenset(attack))
        require_vertices(g, attackers, "attack")
        if len(attackers) > len(copies):
            return frozenset(attackers)
        adj = [reach[a] for a in attackers]
        size, pairing = max_matching(adj, len(copies))
        if size < len(attackers):
            return frozenset(attackers[u] for u in _stranded(adj, pairing))
    return None


def counters(g: Graph, defense: VertexMultiset, attack: Iterable[int]) -> bool:
    """True iff the defense counters the attack: the attackers admit a
    matching into distinct defender copies from their closed neighborhoods."""
    return uncountered(g, defense, [attack]) is None

"""Bipartite maximum matching and the attacker-coverage check built on it.

An attack is countered when every attacker can be assigned its own defender
copy stationed in the attacker's closed neighborhood, no copy reused.  That
is exactly a perfect matching of the attackers into defender copies, so the
coverage check reduces to Hopcroft-Karp.
"""

from collections import deque
from typing import Iterable, Sequence

from defdom.graphs import Graph, VertexMultiset, check_multiset, require_vertices

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

    def dfs(u: int) -> bool:
        for r in adj[u]:
            w = match_r[r]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = r
                match_r[r] = u
                return True
        dist[u] = INF
        return False

    size = 0
    while bfs():
        for u in range(num_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    pairing = {u: match_l[u] for u in range(num_left) if match_l[u] != -1}
    return size, pairing


def defender_copies(defense: VertexMultiset) -> list[int]:
    """Expand a defense multiset into one token per copy, vertex-sorted."""
    out: list[int] = []
    for v in sorted(defense):
        out.extend([v] * defense[v])
    return out


def counters(g: Graph, defense: VertexMultiset, attack: Iterable[int]) -> bool:
    """True iff the defense counters the attack: the attackers admit a
    matching into distinct defender copies from their closed neighborhoods."""
    attackers: Sequence[int] = sorted(set(attack))
    require_vertices(g, attackers, "attack")
    check_multiset(g, defense)
    copies = defender_copies(defense)
    if len(attackers) > len(copies):
        return False
    adj = [[ri for ri, d in enumerate(copies) if d == a or d in g.adj[a]]
           for a in attackers]
    size, _ = max_matching(adj, len(copies))
    return size == len(attackers)

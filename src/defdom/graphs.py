"""Simple undirected graphs on dense integer vertices, plus the handful of
operations the rest of the package leans on: closed neighborhoods, multiset
counting, exact clique search, vertex deletion with an identity translation
table, and deterministic instance generators.

Vertices are always exactly 1..n.  A graph may carry a role label per vertex;
gadget constructions use labels to keep certificates meaningful after the
instance has been written to disk and read back.
"""

import itertools
import random
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from defdom.errors import InputError

VertexSet = frozenset[int]
_NO_NEIGHBORS: VertexSet = frozenset()

# A multiset of vertices is a plain dict: vertex -> positive copy count.
VertexMultiset = dict[int, int]


class Graph:
    """A finite simple graph, immutable by convention.

    `adj[v]` is the open neighborhood of v as a frozenset; index 0 is unused.
    Equality compares vertex count, edge set and labels.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[Mapping[int, str]] = None):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        # sized before any edge is read, so an impossible n fails at once
        adj: list = [_NO_NEIGHBORS] * (n + 1)
        us: list[int] = []
        vs: list[int] = []
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"edge ({u},{v}) outside vertex range 1..{n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            us.append(u)
            vs.append(v)
        self._build(n, us, vs, labels, adj)

    @classmethod
    def _from_columns(cls, n: int, us: Sequence[int], vs: Sequence[int],
                      labels: Optional[Mapping[int, str]] = None) -> "Graph":
        """The graph with edges (us[i], vs[i]), which the caller has already
        checked: ids in 1..n, no self-loop.  A repeated edge counts once."""
        g = cls.__new__(cls)
        g._build(n, us, vs, labels, [_NO_NEIGHBORS] * (n + 1))
        return g

    def _build(self, n: int, us: Sequence[int], vs: Sequence[int],
               labels: Optional[Mapping[int, str]], adj: list) -> None:
        """Fill `adj`, n + 1 empty sets: only vertices with an edge get their
        own set; isolated ones share one, so a header's n costs a pointer per
        vertex."""
        self.n = n
        touched = set(us).union(vs)
        for v in touched:
            adj[v] = []
        for u, v in zip(us, vs):
            adj[u].append(v)
            adj[v].append(u)
        for v in touched:
            adj[v] = frozenset(adj[v])
        self.adj: tuple[frozenset[int], ...] = tuple(adj)
        if labels is not None:
            if set(labels) != set(range(1, n + 1)):
                raise InputError("labels must cover vertices 1..n exactly")
            labels = {v: str(labels[v]) for v in range(1, n + 1)}
        self.labels = labels

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in self.vertices:
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.adj == other.adj
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def require_vertices(g: Graph, vertices: Iterable[int], what: str = "vertex set") -> None:
    for v in vertices:
        if not (1 <= v <= g.n):
            raise InputError(f"{what} mentions vertex {v} outside 1..{g.n}")


def check_multiset(g: Graph, d: VertexMultiset) -> None:
    """Validate a defense multiset against its graph: known vertices, positive counts."""
    for v, c in d.items():
        if not (1 <= v <= g.n):
            raise InputError(f"multiset keys vertex {v} outside 1..{g.n}")
        if c <= 0:
            raise InputError(f"multiset count for vertex {v} must be positive, got {c}")


def multiset_size(d: VertexMultiset) -> int:
    return sum(d.values())


def closed_neighborhood(g: Graph, s: Iterable[int]) -> VertexSet:
    """N[S]: S together with every vertex adjacent to S.  N[empty] is empty."""
    s = set(s)
    require_vertices(g, s)
    out = set(s)
    for v in s:
        out |= g.adj[v]
    return frozenset(out)


def count_in(d: VertexMultiset, region: Iterable[int]) -> int:
    """Total copy count the multiset places inside the given vertex region."""
    return sum(d.get(v, 0) for v in region)


def find_clique(g: Graph, t: int) -> Optional[VertexSet]:
    """Exact search for t pairwise-adjacent vertices.

    Branch and bound: vertices with degree below t-1 are peeled off first,
    the rest are explored in degree-descending order with a candidate-count
    bound.  Returns a witness clique or None.
    """
    if t < 1:
        raise InputError("clique size must be at least 1")
    if t == 1:
        return frozenset({1}) if g.n >= 1 else None
    # Peel vertices that cannot be in a K_t (degree < t-1), to a fixpoint.
    alive = set(g.vertices)
    degs = {v: g.degree(v) for v in alive}
    queue = [v for v in alive if degs[v] < t - 1]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for u in g.adj[v]:
            if u in alive:
                degs[u] -= 1
                if degs[u] < t - 1:
                    queue.append(u)
    if len(alive) < t:
        return None

    order = sorted(alive, key=lambda v: (-degs[v], v))
    pos = {v: i for i, v in enumerate(order)}
    adj_mask = [0] * len(order)
    for v in order:
        m = 0
        for u in g.adj[v]:
            if u in alive:
                m |= 1 << pos[u]
        adj_mask[pos[v]] = m

    # Depth first on an explicit stack, so a clique of any size needs no
    # recursion: `cand` holds the vertices still to try next after
    # `current`, and `stack` the same for each shorter prefix.  A level ends
    # once its candidates cannot complete a K_t.
    current: list[int] = []
    stack: list[int] = []
    cand = (1 << len(order)) - 1
    while True:
        if len(current) + cand.bit_count() < t:
            if not stack:
                return None
            cand = stack.pop()
            current.pop()
            continue
        low = cand & -cand
        i = low.bit_length() - 1
        cand ^= low
        current.append(order[i])
        if len(current) == t:
            return frozenset(current)
        stack.append(cand)
        cand &= adj_mask[i]


def has_clique(g: Graph, t: int) -> bool:
    return find_clique(g, t) is not None


def delete_vertices(g: Graph, x: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on V minus X, with identities compacted back to 1..n'.

    Returns the new graph and the old->new identity translation table for the
    surviving vertices.  Labels follow their vertices.
    """
    x = set(x)
    require_vertices(g, x, "deletion set")
    keep = [v for v in g.vertices if v not in x]
    new = [0] * (g.n + 1)   # old id -> new id, 0 once deleted
    for i, v in enumerate(keep, start=1):
        new[v] = i
    us: list[int] = []
    vs: list[int] = []
    for v in keep:   # each surviving edge once, from its lower end
        for u in g.adj[v]:
            if u > v and new[u]:
                us.append(new[v])
                vs.append(new[u])
    labels = None
    if g.labels is not None:
        labels = {new[v]: g.labels[v] for v in keep}
    return Graph._from_columns(len(keep), us, vs, labels), {v: new[v] for v in keep}


# ---------------------------------------------------------------------------
# Generators.  All deterministic; the random one takes an explicit seed.

def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs n >= 1")
    return Graph(n, itertools.combinations(range(1, n + 1), 2))


def star_graph(leaves: int) -> Graph:
    """Center is vertex 1, leaves are 2..leaves+1."""
    if leaves < 1:
        raise InputError("star needs at least one leaf")
    return Graph(leaves + 1, ((1, v) for v in range(2, leaves + 2)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("path needs n >= 1")
    return Graph(n, ((v, v + 1) for v in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    return Graph(n, ((v, v % n + 1) for v in range(1, n + 1)))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a mandatory seed for reproducibility."""
    if n < 1:
        raise InputError("random graph needs n >= 1")
    if not (0.0 <= p <= 1.0):
        raise InputError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < p]
    return Graph(n, edges)

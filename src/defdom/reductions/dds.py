"""Reduction from clique node deletion to defensive domination.

Given a graph G with a deletion budget s and forbidden clique size t, the
construction builds a labeled graph G' with an attack bound k = n+s and a
defense bound ell such that s deletions can make G free of K_t exactly when
G' admits an ell-defense countering every k-attack.

The layout of G' is retained alongside the graph so certificates can be
transformed in both directions and instances can be audited after a round
trip through files.  It holds the vertex groups and lists the wiring as
data: the groups wired as cliques and the joins, each a tuple of groups
wired completely to one another.
`_wired_edges` draws the edges of that list, for this construction and for
the formula one in `defdom.reductions.sat` alike.
"""

import re
from itertools import chain, combinations
from math import comb, inf
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from defdom.errors import InputError
from defdom.graphs import (Graph, VertexMultiset, VertexSet, check_multiset,
                           delete_vertices, has_clique)


class _CndInstance(NamedTuple):
    graph: Graph
    s: int
    t: int


class CndInstance(_CndInstance):
    """Delete at most s vertices so that no K_t remains."""

    __slots__ = ()

    def __new__(cls, graph: Graph, s: int, t: int):
        if s < 1:
            raise InputError("deletion budget s must be at least 1")
        if t < 1:
            raise InputError("clique size t must be at least 1")
        if s > graph.n:
            raise InputError("deletion budget s exceeds the vertex count")
        return super().__new__(cls, graph, s, t)


# a complete multipartite join: every id of each part is wired to every id
# of every later part; most joins have two parts
_Join = tuple[tuple[int, ...], ...]


class DdsLayout(NamedTuple):
    """Vertex ids of every group in the constructed graph, and its wiring:
    the cliques Q1, Q2 and Q4, and the joins between groups."""

    v_prime: dict[int, int]            # source vertex -> v'
    v_second: dict[int, int]           # source vertex -> v''
    e_vertex: dict[tuple[int, int], int]   # source edge (u<v) -> e'
    i2: tuple[int, ...]
    i3: tuple[int, ...]
    q1: tuple[int, ...]
    q2: tuple[int, ...]
    q4: tuple[int, ...]
    i_v: dict[int, tuple[int, ...]]    # source vertex -> its one-per-pair class
    ip_v: dict[int, tuple[int, ...]]   # source vertex -> its size-t class
    cliques: tuple[tuple[int, ...], ...]
    joins: tuple[_Join, ...]


def _bipartite_edges(left: tuple[int, ...], right: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    for u in left:
        for w in right:
            yield (u, w) if u < w else (w, u)


def _clique_edges(members: Iterable[int]) -> Iterator[tuple[int, int]]:
    members = sorted(members)
    for i, u in enumerate(members):
        for w in members[i + 1:]:
            yield (u, w)


def _wired_edges(lay) -> Iterator[tuple[int, int]]:
    """Every edge a `DdsLayout` or `SatLayout` wires, as (smaller id, larger
    id): its cliques, then its joins, each in list order.  A join's part
    pairs are reached as its edges are drawn, so a rebuild that stops at a
    missing edge never lists them.  The construction wires no pair twice,
    so each edge comes exactly once."""
    for clique in lay.cliques:
        yield from _clique_edges(clique)
    for parts in lay.joins:
        for i, part in enumerate(parts):
            for other in parts[i + 1:]:
                yield from _bipartite_edges(part, other)


class DdsInstance(NamedTuple):
    graph: Graph
    k: int
    ell: int
    s: int
    t: int
    layout: DdsLayout


def _ell(inst: CndInstance) -> int:
    """The defense bound: the size of the proof's forward defense."""
    n, s, t = inst.graph.n, inst.s, inst.t
    return 4 * (n + s) + n * t - (t + 1)


def cnd_to_dds(inst: CndInstance) -> DdsInstance:
    """Build the defensive-domination instance for a deletion instance.

    The attack bound is k = n+s and the defense bound is
    ell = 4(n+s) + nt - (t+1), exactly the size of `proof_defense`'s
    defense.  The bound is tight: on two disjoint K4 with s = 1, a good
    defense of ell + 1 copies exists although no deletion set does.
    """
    layout, labels = _dds_layout(inst)
    graph = Graph(len(labels), _wired_edges(layout), labels)
    return DdsInstance(graph, inst.graph.n + inst.s, _ell(inst), inst.s, inst.t, layout)


class _Labels(dict):
    """Vertex id -> role label, filled in id order by `fresh`.  A rebuild caps
    the ids at the file's vertex count, so a layout the file cannot hold is
    refused after cap + 1 ids, before any edge is drawn."""

    def __init__(self, params: str, cap: float = inf):
        super().__init__()
        self.params, self.cap = params, cap

    def fresh(self, label: str) -> int:
        vid = len(self) + 1
        if vid > self.cap:
            raise self.size_error(f"more than {self.cap}")
        self[vid] = label
        return vid

    def size_error(self, size: object) -> InputError:
        return InputError(f"{self.params} give a construction of {size} vertices, "
                          f"the graph has {self.cap}")


def _dds_layout(inst: CndInstance, cap: float = inf) -> tuple[DdsLayout, _Labels]:
    """The construction's vertex groups and wiring, and the role label of
    each vertex id."""
    g, s, t = inst.graph, inst.s, inst.t
    n = g.n
    if t < 4:
        raise InputError("construction requires t >= 4")
    # with t >= 4 this gives n+s >= t+2, so the group Q2 is never empty
    if n + s < comb(t, 2):
        raise InputError(
            f"construction requires n+s >= t(t-1)/2 (got {n + s} < {comb(t, 2)})")
    ell = _ell(inst)

    labels = _Labels(f"labels and parameters (n={n}, s={s}, t={t}, ell={ell})", cap)
    fresh = labels.fresh
    # with t >= 4 every loop iteration allocates an id: work stays within cap
    v_prime = {v: fresh(f"v'({v})") for v in range(1, n + 1)}
    v_second = {v: fresh(f"v''({v})") for v in range(1, n + 1)}
    e_vertex = {(u, v): fresh(f"e'({u},{v})") for u, v in g.edges()}
    groups = {name: tuple(fresh(f"{name}#{i}") for i in range(1, size + 1))
              for name, size in (("I1", n + s), ("I2", n + s - comb(t, 2)),
                                 ("I3", n + s + ell), ("I4", n + s), ("Q1", n + s),
                                 ("Q2", n + s - (t + 1)), ("Q4", n + s))}
    i_v = {v: tuple(fresh(f"Iv({v})#{i}") for i in range(1, comb(t, 2) + 1))
           for v in range(1, n + 1)}
    ip_v = {v: tuple(fresh(f"I'v({v})#{i}") for i in range(1, t + 1))
            for v in range(1, n + 1)}
    q1, q2, q4 = groups["Q1"], groups["Q2"], groups["Q4"]
    # each e' to both twins of its ends, four group pairs, then per source
    # vertex its twins to its Iv class and that class to its I'v class
    joins = [((ev,), (v_prime[u], v_second[u], v_prime[v], v_second[v]))
             for (u, v), ev in e_vertex.items()]
    hub = (*q1, *groups["I2"], *e_vertex.values(), *chain.from_iterable(i_v.values()))
    v_group = tuple(w for v in v_prime for w in (v_prime[v], v_second[v]))
    joins += [(groups["I1"], q1), (q2, hub), (v_group, q4 + groups["I3"]), (q4, groups["I4"])]
    for v in v_prime:
        joins += [((v_prime[v], v_second[v]), i_v[v]), (i_v[v], ip_v[v])]
    layout = DdsLayout(v_prime=v_prime, v_second=v_second, e_vertex=e_vertex,
                       i2=groups["I2"], i3=groups["I3"], q1=q1, q2=q2, q4=q4,
                       i_v=i_v, ip_v=ip_v, cliques=(q1, q2, q4), joins=tuple(joins))
    return layout, labels


def _require_construction(g: Graph, labels: _Labels,
                          edges: Iterable[tuple[int, int]]) -> None:
    """Accept g only if it is the construction with these labels and this
    edge stream (each edge yielded once), vertex ids included.

    The vertex counts are compared first, then the labels, then each edge
    as it is yielded, so a file that lacks one is refused at the first such
    edge without the rest being produced; a file with extra edges is
    refused last, on the count.
    """
    if len(labels) != g.n:
        raise labels.size_error(len(labels))
    if g.labels != labels:
        v = next(v for v in g.vertices if g.labels[v] != labels[v])
        raise InputError(
            f"vertex {v} differs from the construction: label {g.labels[v]!r} "
            f"(construction: {labels[v]!r})")
    adj = g.adj
    want = 0
    for u, v in edges:
        if v not in adj[u]:
            raise InputError(
                f"vertex {u} differs from the construction: no edge to {v} "
                f"(the file has {g.edge_count()} edges)")
        want += 1
    have = g.edge_count()
    if have != want:
        raise InputError(f"the file has {have} edges, the construction {want}")


def _require_stated(stated: Optional[Mapping[str, int]], derived: dict[str, int],
                    basis: str) -> None:
    """Refuse a stated parameter other than the one the labels derive; the
    message names the parameter, both values and the `basis` they rest on.
    A parameter the file does not state is not checked."""
    for name, want in derived.items():
        if stated and stated.get(name, want) != want:
            raise InputError(f"stated {name}={stated[name]} differs from the construction's "
                             f"{name}={want} ({basis})")


# A label index has at most 18 digits: no buildable instance has 10**18
# vertices, and int() refuses a string of more than 4 300 digits.
_INDEX = r"(\d{1,18})"
_EDGE_LABEL = re.compile(rf"e'\({_INDEX},{_INDEX}\)")


def dds_from_graph(g: Graph, stated: Optional[Mapping[str, int]] = None) -> DdsInstance:
    """Rebuild an instance from a labeled graph alone.

    The labels give every parameter: n from the v'(i) vertices, the source
    edges from the e'(u,v) vertices, t as the size of the I'v(1) class and
    s as |I1| - n; then k = n+s and ell = 4(n+s) + nt - (t+1).  `stated`,
    the file's `c params` entries, may repeat any of k, ell, s and t; a
    value other than the derived one is refused before a vertex id is laid
    out.  The graph is accepted exactly when it is the construction for
    these parameters, vertex ids included: laid out with ids capped at the
    vertex count, then checked by `_require_construction`.  The accepted
    graph itself becomes the instance's graph.
    """
    if g.labels is None:
        raise InputError("graph carries no role labels")
    labels = g.labels.values()
    n = sum(1 for label in labels if label.startswith("v'("))
    edges = [(int(m[1]), int(m[2])) for m in map(_EDGE_LABEL.fullmatch, labels) if m]
    t = sum(1 for label in labels if label.startswith("I'v(1)#"))
    s = sum(1 for label in labels if label.startswith("I1#")) - n
    inst = CndInstance(Graph(n, edges), s, t)
    k, ell = n + s, _ell(inst)
    _require_stated(stated, {"k": k, "ell": ell, "s": s, "t": t}, f"n={n}, s={s}, t={t}")
    layout, built = _dds_layout(inst, cap=g.n)
    _require_construction(g, built, _wired_edges(layout))
    return DdsInstance(g, k, ell, s, t, layout)


def proof_defense(dds: DdsInstance, deletion: VertexSet) -> VertexMultiset:
    """The forward-direction defense for a deletion certificate.

    One defender on every clique-group vertex and every size-t class
    vertex, one on v' for every source vertex, and one on v'' exactly for
    deleted vertices.
    """
    lay = dds.layout
    if len(deletion) != dds.s:
        raise InputError(f"deletion set must have exactly s={dds.s} vertices")
    for v in deletion:
        if v not in lay.v_prime:
            raise InputError(f"deletion set mentions unknown source vertex {v}")
    defense: VertexMultiset = {}
    for vid in chain(lay.q1, lay.q2, lay.q4, *lay.ip_v.values()):
        defense[vid] = 1
    for v in sorted(lay.v_prime):
        defense[lay.v_prime[v]] = 1
    for v in sorted(deletion):
        defense[lay.v_second[v]] = 1
    return defense


def enumerate_serious_attacks(dds: DdsInstance) -> Iterator[VertexSet]:
    """All attacks of the shape that separates yes from no instances.

    Each attack is the whole I2 group plus exactly t(t-1)/2 edge vertices,
    for a total of k; yielded in lexicographic order of the edge choice.
    """
    lay = dds.layout
    base = frozenset(lay.i2)
    e_ids = sorted(lay.e_vertex.values())
    for combo in combinations(e_ids, comb(dds.t, 2)):
        yield base | frozenset(combo)


def extract_deletion_set(dds: DdsInstance, defense: VertexMultiset) -> VertexSet:
    """Recover a deletion certificate from a good defense.

    v'(v) and v''(v) are false twins: they have the same open neighbourhood
    and are not adjacent, so a copy counters the same attacks on either,
    and the copies on the pair count together.  The normalization moves
    that reach the source-vertex group are made on these pair counts, in
    order: a pair holding no copy takes one from its Iv class, and while
    the group holds more than k copies, the lowest pair holding two or
    more gives one to Q2.  Every pair then holds a copy, so at most s pairs
    hold two or more; their source vertices, padded with the lowest other
    ones, are the s-set returned.  The proof's middle move, collecting the
    defenders on I2 and edge vertices on Q2, leaves the group as it is, so
    it is not made.  Neither the defense nor the set is checked here: a
    defense that is not good may give a set that leaves a K_t.
    """
    check_multiset(dds.graph, defense)
    lay = dds.layout
    pair = {}
    for v in sorted(lay.v_prime):
        pair[v] = defense.get(lay.v_prime[v], 0) + defense.get(lay.v_second[v], 0)
        if not pair[v]:
            if not any(w in defense for w in lay.i_v[v]):
                raise InputError(
                    "defense violates backward-direction observation: no defender "
                    f"near the classes of source vertex {v}")
            pair[v] = 1
    surplus = max(0, sum(pair.values()) - dds.k)
    for v in pair:
        drained = min(surplus, pair[v] - 1)
        pair[v] -= drained
        surplus -= drained
    doubly = [v for v in pair if pair[v] > 1]
    rest = [v for v in pair if pair[v] == 1]
    return frozenset(doubly + rest[:dds.s - len(doubly)])


def solve_cnd_bruteforce(inst: CndInstance) -> Optional[VertexSet]:
    """Smallest (then lexicographically first) deletion set, if one exists.

    Exhaustive over all subsets of size 0..s; intended for desk-scale
    instances and oracle duty.
    """
    vertices = sorted(inst.graph.vertices)
    for size in range(0, inst.s + 1):
        for combo in combinations(vertices, size):
            remaining, _ = delete_vertices(inst.graph, frozenset(combo))
            if not has_clique(remaining, inst.t):
                return frozenset(combo)
    return None

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdom.errors import InputError
from defdom.graphs import (Graph, closed_neighborhood, complete_graph, count_in,
                           cycle_graph, delete_vertices, find_clique, has_clique,
                           multiset_size, path_graph, random_graph, star_graph)
from helpers import brute_has_clique, is_clique, neighborhood_masks, random_simple_graph


def test_construction_and_adjacency():
    g = Graph(4, [(1, 2), (2, 3), (1, 4)])
    assert g.has_edge(2, 1) and g.has_edge(1, 2)
    assert not g.has_edge(3, 4)
    assert list(g.edges()) == [(1, 2), (1, 4), (2, 3)]
    assert g.edge_count() == 3
    assert g.degree(1) == 2 and g.degree(3) == 1


def test_construction_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(1, 4)])
    with pytest.raises(InputError):
        Graph(3, [(2, 2)])
    with pytest.raises(InputError):
        Graph(-1, [])


def test_labels_must_cover_all_vertices():
    g = Graph(2, [(1, 2)], {1: "a", 2: "b"})
    assert g.labels == {1: "a", 2: "b"}
    with pytest.raises(InputError):
        Graph(2, [(1, 2)], {1: "a"})


def test_neighborhood_masks_match_closed_neighborhoods():
    rng = random.Random(1)
    for _ in range(30):
        g = random_simple_graph(rng)
        masks = neighborhood_masks(g)
        for v in g.vertices:
            expected = closed_neighborhood(g, [v])
            got = {u for u in g.vertices if masks[v] >> (u - 1) & 1}
            assert got == expected


def test_closed_neighborhood_of_empty_set_is_empty():
    g = path_graph(3)
    assert closed_neighborhood(g, []) == frozenset()
    assert closed_neighborhood(g, [2]) == frozenset({1, 2, 3})


def test_count_in_and_multiset_size():
    d = {1: 2, 3: 1}
    assert multiset_size(d) == 3
    assert count_in(d, {1, 2}) == 2
    assert count_in(d, {1, 3}) == 3
    assert count_in(d, set()) == 0


def test_generators_shapes():
    assert complete_graph(5).edge_count() == 10
    assert star_graph(5).edge_count() == 5
    assert star_graph(5).degree(1) == 5
    assert path_graph(4).edge_count() == 3
    assert cycle_graph(4).edge_count() == 4
    assert path_graph(1).edge_count() == 0


def test_random_graph_is_deterministic():
    a = random_graph(12, 0.4, seed=9)
    b = random_graph(12, 0.4, seed=9)
    c = random_graph(12, 0.4, seed=10)
    assert a == b
    assert a != c


def test_find_clique_on_known_graphs():
    assert find_clique(complete_graph(6), 6) == frozenset(range(1, 7))
    assert find_clique(cycle_graph(5), 3) is None
    assert find_clique(cycle_graph(5), 2) is not None
    assert find_clique(path_graph(3), 1) is not None
    assert find_clique(Graph(0, []), 1) is None


def test_find_clique_agrees_with_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        g = random_simple_graph(rng, n_max=9)
        for t in range(1, 6):
            witness = find_clique(g, t)
            assert (witness is not None) == brute_has_clique(g, t)
            assert has_clique(g, t) == (witness is not None)
            if witness is not None:
                assert len(witness) == t
                assert is_clique(g, witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10_000), st.integers(1, 4))
def test_find_clique_witness_is_a_clique(n, seed, t):
    g = random_graph(n, 0.6, seed)
    witness = find_clique(g, t)
    if witness is not None:
        assert is_clique(g, witness)
        assert len(witness) == t


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.floats(0.1, 0.9), st.integers(0, 10_000), st.integers(-1, 1))
def test_find_clique_agrees_with_networkx_clique_number(n, p, seed, offset):
    g = random_graph(n, p, seed)
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    omega = max(len(c) for c in nx.find_cliques(h))
    t = max(1, omega + offset)
    witness = find_clique(g, t)
    assert (witness is not None) == (t <= omega)
    if witness is not None:
        assert len(witness) == t and is_clique(g, witness)


def test_delete_vertices_induces_subgraph():
    rng = random.Random(11)
    for _ in range(40):
        g = random_simple_graph(rng)
        drop = {v for v in g.vertices if rng.random() < 0.3}
        h, mapping = delete_vertices(g, drop)
        keep = sorted(set(g.vertices) - drop)
        assert mapping == {v: i for i, v in enumerate(keep, start=1)}
        assert h.n == len(keep)
        for u, v in itertools.combinations(keep, 2):
            assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
        # labels follow their vertices; the remnant equals the graph built
        # from the surviving edges
        labeled = Graph(g.n, g.edges(), {v: f"v{v}" for v in g.vertices})
        h, _ = delete_vertices(labeled, drop)
        assert h == Graph(len(keep), [(mapping[u], mapping[v]) for u, v in g.edges()
                                      if u in mapping and v in mapping],
                          {mapping[v]: f"v{v}" for v in keep})


def test_delete_vertices_carries_labels():
    g = Graph(3, [(1, 2), (2, 3)], {1: "a", 2: "b", 3: "c"})
    h, mapping = delete_vertices(g, {2})
    assert h.labels == {mapping[1]: "a", mapping[3]: "c"}

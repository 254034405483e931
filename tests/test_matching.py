import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdom.defense import hall_deficiency
from defdom.errors import InputError
from defdom.graphs import path_graph, star_graph
from defdom.matching import counters, defender_copies, max_matching, uncountered
from helpers import brute_matching_size, random_defense, random_split_graph


def adjacency(nl, edges):
    adj = [[] for _ in range(nl)]
    for u, v in sorted(edges):
        adj[u].append(v)
    return adj


def assert_valid_matching(adj, size, assignment):
    assert len(assignment) == size
    assert len(set(assignment.values())) == size
    for u, v in assignment.items():
        assert v in adj[u]


def test_perfect_matching_on_complete_bipartite():
    size, assignment = max_matching([[0, 1, 2]] * 3, 3)
    assert size == 3
    assert sorted(assignment) == [0, 1, 2]
    assert len(set(assignment.values())) == 3


def test_matching_respects_missing_edges():
    # both left tokens compete for the single right token
    size, assignment = max_matching([[0], [0]], 1)
    assert size == 1
    assert len(assignment) == 1


def test_empty_instance():
    size, assignment = max_matching([], 0)
    assert size == 0 and assignment == {}


def test_augmenting_path_through_every_token():
    # each token but the last first takes the right token its successor
    # needs, so the last one's augmenting path runs through all 3 000
    n = 3000
    chain = [[u + 1, u] for u in range(n - 1)] + [[n - 1]]
    size, assignment = max_matching(chain, n)
    assert size == n
    assert assignment == {u: u for u in range(n)}


def test_matching_agrees_with_brute_force():
    rng = random.Random(3)
    for _ in range(80):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        edges = [(u, v) for u in range(nl) for v in range(nr)
                 if rng.random() < 0.45]
        adj = adjacency(nl, edges)
        size, assignment = max_matching(adj, nr)
        assert size == brute_matching_size(dict(enumerate(adj)), nl)
        assert_valid_matching(adj, size, assignment)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.floats(0.0, 0.5),
       st.integers(0, 2**32))
def test_matching_agrees_with_networkx(nl, nr, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(nl) for v in range(nr) if rng.random() < p]
    adj = adjacency(nl, edges)
    size, assignment = max_matching(adj, nr)
    b = nx.Graph()
    b.add_nodes_from(("L", u) for u in range(nl))
    b.add_nodes_from(("R", v) for v in range(nr))
    b.add_edges_from((("L", u), ("R", v)) for u, v in edges)
    top = [("L", u) for u in range(nl)]
    assert size == len(nx.bipartite.maximum_matching(b, top_nodes=top)) // 2
    assert_valid_matching(adj, size, assignment)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_matching_size_is_monotone_in_edges(nl, nr, data):
    all_pairs = [(u, v) for u in range(nl) for v in range(nr)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=12))
    small, _ = max_matching(adjacency(nl, chosen[: len(chosen) // 2]), nr)
    large, _ = max_matching(adjacency(nl, chosen), nr)
    assert small <= large


def test_defender_copies_expansion():
    assert defender_copies({3: 2, 1: 1}) == [1, 3, 3]
    assert defender_copies({}) == []


def test_counters_star_multiset_example():
    g = star_graph(5)
    defense = {1: 2}   # two copies on the hub
    for attack in ([2, 3], [1, 6], [4, 5]):
        assert counters(g, defense, attack)
    assert not counters(g, {2: 2}, [3, 4])   # leaf copies reach nobody else


def test_counters_path_example():
    g = path_graph(3)
    assert not counters(g, {2: 1}, [1, 3])
    assert counters(g, {2: 2}, [1, 3])
    assert counters(g, {1: 1, 3: 1}, [1, 3])


def test_counters_rejects_bad_input():
    g = path_graph(3)
    with pytest.raises(InputError):
        counters(g, {9: 1}, [1])
    with pytest.raises(InputError):
        counters(g, {1: 1}, [0])
    with pytest.raises(InputError):
        counters(g, {1: 0}, [1])


def test_uncountered_matches_per_attack_checks():
    rng = random.Random(12)
    failing = 0
    for _ in range(300):
        g = random_split_graph(rng)
        defense = random_defense(rng, g, max_copies=3)
        attacks = [rng.sample(g.vertices, rng.randint(1, min(5, g.n)))
                   for _ in range(rng.randint(0, 6))]
        if attacks and rng.random() < 0.3:
            attacks.append(list(attacks[0]))   # a repeated attack
        for a in attacks:
            # Hall: countered iff no subset of the attack has positive deficiency
            subsets = (s for size in range(1, len(a) + 1)
                       for s in itertools.combinations(a, size))
            assert counters(g, defense, a) == all(hall_deficiency(g, defense, s) <= 0
                                                  for s in subsets)
        first = next((frozenset(a) for a in attacks if not counters(g, defense, a)), None)
        stranded = uncountered(g, defense, attacks)
        assert (stranded is None) == (first is None)
        if first is not None:
            # a Hall violator inside the first uncountered attack, re-checked
            # by counting
            assert stranded <= first
            assert hall_deficiency(g, defense, stranded) >= 1
        failing += first is not None
    assert 50 < failing < 250


def test_uncountered_ignores_copies_past_n():
    # an attack has at most n members, so n copies on a station and 10**12
    # counter the same attacks
    rng = random.Random(13)
    for _ in range(100):
        g = random_split_graph(rng)
        defense = random_defense(rng, g, max_copies=2, density=0.3)
        heavy = rng.sample(sorted(defense), min(len(defense), 2))
        attacks = [rng.sample(g.vertices, rng.randint(1, g.n)) for _ in range(4)]
        at_n = {**defense, **{v: g.n for v in heavy}}
        huge = {**defense, **{v: 10**12 for v in heavy}}
        assert uncountered(g, huge, attacks) == uncountered(g, at_n, attacks)


def test_uncountered_edge_cases():
    g = star_graph(3)
    assert uncountered(g, {1: 1}, []) is None
    # more attackers than copies, found without a matching
    assert uncountered(g, {1: 2}, [[1, 2], [2, 3, 4]]) == {2, 3, 4}
    # a repeated attack is checked again, and the first failure wins
    assert uncountered(g, {2: 1}, [[2], [2], [3], [4]]) == {3}
    # only the attackers the failed matching strands: 5 sees no copy, while
    # 1 and 2 are matched to copies on 1 and 3
    assert uncountered(path_graph(5), {1: 1, 3: 2}, [[1, 2, 5]]) == {5}
    with pytest.raises(InputError):
        uncountered(g, {1: 1}, [[1], [5]])
    with pytest.raises(InputError):
        uncountered(g, {1: 0}, [[1]])
    with pytest.raises(InputError):
        uncountered(g, {1: 1}, [[0]])

import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdom.defense import hall_deficiency
from defdom.errors import InputError
from defdom.graphs import Graph, closed_neighborhood, path_graph, star_graph
from defdom.matching import counters, uncountered
from helpers import (brute_matching_size, random_defense, random_simple_graph,
                     random_split_graph)


def copy_tokens(g, defense, attackers):
    """The matching as a bipartite graph on copies: attacker i may take every
    copy stationed in its closed neighborhood, one right-hand token each."""
    tokens = [s for s in sorted(defense) for _ in range(defense[s])]
    return [[r for r, s in enumerate(tokens) if s in closed_neighborhood(g, [a])]
            for a in attackers], len(tokens)


def chain(n):
    """Attackers n+1..2n and stations 1..n on a path: attacker n+i sees the
    stations n+1-i and n-i, and the last attacker only station 1."""
    edges = [(n + i, n + 1 - i) for i in range(1, n + 1)]
    edges += [(n + i, n - i) for i in range(1, n)]
    return Graph(2 * n, edges), list(range(n + 1, 2 * n + 1))


def test_perfect_matching_on_complete_bipartite():
    # K_{3,3}: each of the attackers 1..3 sees every station 4..6
    g = Graph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    assert counters(g, {4: 1, 5: 1, 6: 1}, [1, 2, 3])
    assert counters(g, {5: 3}, [1, 2, 3])
    assert uncountered(g, {4: 1, 6: 1}, [[1, 2, 3]]) == {1, 2, 3}


def test_matching_respects_missing_edges():
    # attackers 1 and 3 compete for the one copy on 2; a copy on 3 reaches
    # 3 but not 1
    g = path_graph(3)
    assert uncountered(g, {2: 1}, [[1, 3]]) == {1, 3}
    assert counters(g, {2: 1, 3: 1}, [1, 3])
    assert uncountered(g, {3: 2}, [[1, 3]]) == {1}


def test_empty_instance():
    g = path_graph(2)
    assert uncountered(g, {}, []) is None
    assert counters(g, {}, [])
    assert uncountered(g, {}, [[1]]) == {1}


def test_augmenting_path_through_every_attacker():
    # each attacker but the last first takes the station its successor
    # needs, so the last one is placed only by shifting all 2 999 before it
    n = 3000
    g, attackers = chain(n)
    stations = {s: 1 for s in range(1, n + 1)}
    assert uncountered(g, stations, [attackers]) is None
    # without station n the search reaches every attacker and places none
    del stations[n]
    assert uncountered(g, stations, [attackers]) == frozenset(attackers)


def test_a_full_station_hands_over_its_holders_once():
    # 20 000 leaves attacked and the hub one copy short (the other copy sits
    # on an isolated vertex): the search for the last leaf reaches all the
    # others through the hub, and expanding the hub again for each of them
    # would make 4 * 10**8 membership checks
    m = 20_000
    g = Graph(m + 2, [(1, v) for v in range(2, m + 2)])
    leaves = range(2, m + 2)
    start = time.perf_counter()
    assert uncountered(g, {1: m - 1, m + 2: 1}, [leaves]) == frozenset(leaves)
    assert time.perf_counter() - start < 2


def test_matching_agrees_with_brute_force():
    rng = random.Random(3)
    for _ in range(120):
        g = random_simple_graph(rng, n_max=7)
        defense = random_defense(rng, g, max_copies=2, density=0.4)
        attackers = rng.sample(g.vertices, rng.randint(1, min(5, g.n)))
        adj, _ = copy_tokens(g, defense, attackers)
        size = brute_matching_size(dict(enumerate(adj)), len(attackers))
        assert counters(g, defense, attackers) == (size == len(attackers))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 0.6), st.integers(0, 2**32))
def test_matching_agrees_with_networkx(n, p, seed):
    rng = random.Random(seed)
    g = Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                  if rng.random() < p])
    defense = random_defense(rng, g, max_copies=3, density=rng.random())
    attackers = rng.sample(g.vertices, rng.randint(0, n))
    adj, num_tokens = copy_tokens(g, defense, attackers)
    b = nx.Graph()
    b.add_nodes_from(("L", u) for u in range(len(attackers)))
    b.add_nodes_from(("R", r) for r in range(num_tokens))
    b.add_edges_from((("L", u), ("R", r)) for u, rs in enumerate(adj) for r in rs)
    top = [("L", u) for u in range(len(attackers))]
    size = len(nx.bipartite.maximum_matching(b, top_nodes=top)) // 2
    assert counters(g, defense, attackers) == (size == len(attackers))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_adding_a_copy_never_uncounters(seed):
    rng = random.Random(seed)
    g = random_split_graph(rng)
    defense = random_defense(rng, g, max_copies=2, density=0.4)
    attack = rng.sample(g.vertices, rng.randint(1, g.n))
    if counters(g, defense, attack):
        for v in g.vertices:
            assert counters(g, {**defense, v: defense.get(v, 0) + 1}, attack)


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
        reached = uncountered(g, defense, attacks)
        assert (reached is None) == (first is None)
        if first is not None:
            # a Hall violator inside the first uncountered attack, re-checked
            # by counting: one copy short, unless the whole attack outnumbers
            # the copies
            assert reached <= first
            if len(first) > sum(defense.values()):
                assert reached == first
            else:
                assert hall_deficiency(g, defense, reached) == 1
        failing += first is not None
    assert 50 < failing < 250


def test_uncountered_ignores_copies_past_n():
    # a count is a capacity and an attack has at most n members, so n copies
    # on a station and 10**12 counter the same attacks
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
    # more attackers than copies, found without a search
    assert uncountered(g, {1: 2}, [[1, 2], [2, 3, 4]]) == {2, 3, 4}
    # a repeated attack is checked again, and the first failure wins
    assert uncountered(g, {2: 1}, [[2], [2], [3], [4]]) == {3}
    # only the attackers the search for 5 reaches: 5 sees no copy, while 1
    # and 2 are placed on the copies on 1 and 3
    assert uncountered(path_graph(5), {1: 1, 3: 2}, [[1, 2, 5]]) == {5}
    with pytest.raises(InputError):
        uncountered(g, {1: 1}, [[1], [5]])
    with pytest.raises(InputError):
        uncountered(g, {1: 0}, [[1]])
    with pytest.raises(InputError):
        uncountered(g, {1: 1}, [[0]])

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdom.defense import STRATEGIES, find_violator, good_defense, hall_deficiency
from defdom.errors import InputError
from defdom.graphs import Graph, path_graph, random_graph, star_graph
from defdom.matching import counters
from helpers import attacks_up_to, hall_ok, random_defense, random_simple_graph


def test_hall_deficiency_examples():
    g = path_graph(3)
    assert hall_deficiency(g, {2: 1}, [1, 3]) == 1
    assert hall_deficiency(g, {2: 2}, [1, 3]) == 0
    assert hall_deficiency(g, {}, [2]) == 1


def test_p3_violator():
    g = path_graph(3)
    violator = find_violator(g, {2: 1}, 2)
    assert violator is not None
    assert violator.deficiency == 1
    assert len(violator.attack) == 2
    # whichever attack came out, it must genuinely exceed its neighborhood count
    assert hall_deficiency(g, {2: 1}, violator.attack) == violator.deficiency


def test_star_multiset_defense_is_good():
    g = star_graph(5)
    assert good_defense(g, {1: 2}, 2)
    assert not good_defense(g, {1: 1}, 2)
    # one copy per leaf fails nothing at k=2 either
    assert good_defense(g, {v: 1 for v in range(2, 7)}, 2)


def test_full_cover_defense_is_always_good():
    rng = random.Random(2)
    for _ in range(20):
        g = random_simple_graph(rng, n_max=7)
        defense = {v: 1 for v in g.vertices}
        for k in range(1, g.n + 1):
            assert good_defense(g, defense, k)


def test_empty_defense_fails_immediately():
    g = path_graph(4)
    violator = find_violator(g, {}, 3)
    assert violator is not None
    assert len(violator.attack) == 1


def test_strategies_agree_on_violator_existence():
    rng = random.Random(4)
    for _ in range(150):
        g = random_simple_graph(rng, n_max=9)
        defense = random_defense(rng, g)
        k = rng.randint(1, 4)
        exhaustive = find_violator(g, defense, k, strategy="exhaustive")
        pruned = find_violator(g, defense, k, strategy="pruned")
        assert (exhaustive is None) == (pruned is None), (g.n, defense, k)
        for violator in (exhaustive, pruned):
            if violator is not None:
                assert hall_deficiency(g, defense, violator.attack) > 0
                assert 1 <= len(violator.attack) <= k


def test_pruned_search_handles_disconnected_graphs():
    # deficiency splits over components, so the pruned search may restrict
    # itself to near-connected attacks without losing completeness
    g = Graph(4, [(1, 2), (3, 4)])
    assert find_violator(g, {1: 2, 3: 2}, 2, strategy="pruned") is None
    violator = find_violator(g, {1: 2, 3: 1}, 2, strategy="pruned")
    assert violator is not None
    assert violator.attack <= {3, 4}
    assert hall_deficiency(g, {1: 2, 3: 1}, violator.attack) > 0


def test_violator_agrees_with_matching_semantics():
    rng = random.Random(6)
    for _ in range(120):
        g = random_simple_graph(rng, n_max=8)
        defense = random_defense(rng, g)
        k = rng.randint(1, 3)
        violator = find_violator(g, defense, k)
        countered_all = all(counters(g, defense, a) for a in attacks_up_to(g, k))
        assert (violator is None) == countered_all


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000), st.integers(1, 3), st.data())
def test_good_defense_matches_subset_hall_oracle(n, seed, k, data):
    g = random_graph(n, 0.5, seed)
    defense = {v: data.draw(st.integers(0, 2)) for v in g.vertices}
    defense = {v: c for v, c in defense.items() if c}
    ok = all(hall_ok(g, defense, a) for a in attacks_up_to(g, k))
    assert good_defense(g, defense, k) == ok


def test_strategy_names_and_validation():
    g = path_graph(2)
    assert set(STRATEGIES) == {"exhaustive", "pruned"}
    with pytest.raises(InputError):
        find_violator(g, {}, 0)
    with pytest.raises(InputError):
        find_violator(g, {}, 1, strategy="magic")
    with pytest.raises(InputError):
        find_violator(g, {5: 1}, 1)


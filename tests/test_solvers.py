import itertools
import random

import pytest

from defdom.defense import good_defense
from defdom.errors import InputError
from defdom.graphs import (complete_graph, cycle_graph, multiset_size,
                           path_graph, star_graph)
from defdom.matching import counters
from defdom.solvers import (domination_number, min_constrained_multiset,
                            min_multiset_defense, min_set_defense)
from helpers import (brute_dominating_number, random_simple_graph,
                     reference_min_constrained_multiset,
                     reference_min_multiset_defense, reference_min_set_defense)


def test_star_contrast():
    g = star_graph(5)
    assert min_set_defense(g, 2).optimum == 5
    assert min_multiset_defense(g, 2).optimum == 2


def test_c4_single_attacker():
    g = cycle_graph(4)
    assert min_set_defense(g, 1).optimum == 2
    assert min_multiset_defense(g, 1).optimum == 2


def test_witnesses_are_good_defenses():
    rng = random.Random(8)
    for _ in range(25):
        g = random_simple_graph(rng, n_max=6)
        k = rng.randint(1, 3)
        for result, multiset in ((min_set_defense(g, k), False),
                                 (min_multiset_defense(g, k), True)):
            witness = result.witness
            defense = dict(witness) if multiset else {v: 1 for v in witness}
            assert multiset_size(defense) == result.optimum
            assert good_defense(g, defense, k)


def test_multiset_optimum_never_exceeds_set_optimum():
    rng = random.Random(9)
    for _ in range(25):
        g = random_simple_graph(rng, n_max=6)
        k = rng.randint(1, 3)
        assert min_multiset_defense(g, k).optimum <= min_set_defense(g, k).optimum


def test_multiset_optimality_via_exhaustive_recheck():
    # every multiset one smaller than the reported optimum must fail
    rng = random.Random(10)
    for _ in range(10):
        g = random_simple_graph(rng, n_max=5)
        k = rng.randint(1, 2)
        opt = min_multiset_defense(g, k).optimum
        if opt == 0:
            continue
        smaller = opt - 1
        for support in itertools.combinations_with_replacement(g.vertices, smaller):
            defense = {}
            for v in support:
                defense[v] = defense.get(v, 0) + 1
            assert not good_defense(g, defense, k)


def test_domination_number_matches_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        g = random_simple_graph(rng, n_max=7)
        assert domination_number(g).optimum == brute_dominating_number(g)
    assert domination_number(star_graph(6)).optimum == 1
    assert domination_number(path_graph(6)).optimum == 2


def test_constrained_solver_basics():
    g = path_graph(3)
    result = min_constrained_multiset(g, [[1, 3]], {}, {2: 5})
    assert result.optimum == 2 and result.witness == {2: 2}
    # forced lower bound is kept
    result = min_constrained_multiset(g, [[1, 3]], {1: 1}, {1: 1, 2: 5, 3: 5})
    assert result.optimum == 2
    assert result.witness.get(1) == 1
    # attack list semantics: only the listed attacks matter
    result = min_constrained_multiset(g, [[2]], {}, {v: 3 for v in g.vertices})
    assert result.optimum == 1


def test_constrained_solver_infeasible_and_errors():
    g = path_graph(3)
    # upper bound leaves vertex 3's area empty
    assert min_constrained_multiset(g, [[3]], {}, {1: 2}) is None
    with pytest.raises(InputError):
        min_constrained_multiset(g, [[1]], {2: 2}, {2: 1})
    with pytest.raises(InputError):
        min_constrained_multiset(g, [[1]], {9: 1}, {})


def test_constrained_witness_counters_all_listed_attacks():
    rng = random.Random(12)
    for _ in range(20):
        g = random_simple_graph(rng, n_max=6)
        attacks = [rng.sample(range(1, g.n + 1), rng.randint(1, min(3, g.n)))
                   for _ in range(rng.randint(1, 4))]
        upper = {v: 2 for v in g.vertices}
        result = min_constrained_multiset(g, attacks, {}, upper)
        if result is None:
            continue
        for attack in attacks:
            assert counters(g, result.witness, attack)
        for v, c in result.witness.items():
            assert c <= upper[v]


def test_empty_graph_and_k_validation():
    g = complete_graph(3)
    with pytest.raises(InputError):
        min_set_defense(g, 0)
    with pytest.raises(InputError):
        min_multiset_defense(g, -1)


def test_solvers_equal_enumeration_reference():
    # cut pruning may skip only non-defenses: same optimum, same witness
    rng = random.Random(13)
    outcomes = set()
    for _ in range(150):
        g = random_simple_graph(rng, n_max=8)
        k = rng.randint(1, 4)
        result = min_set_defense(g, k)
        assert (result.optimum, result.witness) == reference_min_set_defense(g, k)
        result = min_multiset_defense(g, k)
        assert (result.optimum, result.witness) == reference_min_multiset_defense(g, k)
        attacks = [rng.sample(range(1, g.n + 1), rng.randint(1, min(4, g.n)))
                   for _ in range(rng.randint(1, 4))]
        lower = {v: rng.randint(1, 2) for v in g.vertices if rng.random() < 0.3}
        upper = {v: lower.get(v, 0) + rng.randint(0, 3) for v in g.vertices
                 if v in lower or rng.random() < 0.7}
        upper = {v: c for v, c in upper.items() if c}
        result = min_constrained_multiset(g, attacks, lower, upper)
        expected = reference_min_constrained_multiset(g, attacks, lower, upper)
        outcomes.add(expected is None)
        if expected is None:
            assert result is None
        else:
            assert (result.optimum, result.witness) == expected
    assert outcomes == {True, False}    # both feasible and infeasible bounds


def test_constrained_solver_with_large_listed_attacks():
    # the search starts with no cuts, so the matching check rejects some
    # candidates and each rejection teaches the cut of the attackers its
    # search reached
    rng = random.Random(14)
    rejected = 0
    for _ in range(20):
        g = random_simple_graph(rng, n_min=14, n_max=14)
        attack = rng.sample(range(1, 15), 13)
        lower = {v: 1 for v in rng.sample(range(1, 15), 6)}
        upper = {v: 1 for v in g.vertices}
        upper.update((v, 2) for v in rng.sample(range(1, 15), 3))
        result = min_constrained_multiset(g, [attack], lower, upper)
        expected = reference_min_constrained_multiset(g, [attack], lower, upper)
        if expected is None:
            assert result is None
            continue
        assert (result.optimum, result.witness) == expected
        rejected += result.explored > 1
    assert rejected


@pytest.mark.parametrize("n, size", [(30, 13), (40, 20)])
def test_constrained_solver_learns_large_attacks_quickly(n, size):
    # every cut comes from a failed matching, so an attack this large needs
    # no enumeration of its subsets
    g = path_graph(n)
    attack = range(1, size + 1)
    result = min_constrained_multiset(g, [attack], {}, {v: size for v in g.vertices})
    assert result.optimum == size
    assert counters(g, result.witness, attack)

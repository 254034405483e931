import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdom.defense import STRATEGIES, find_violator, good_defense, hall_deficiency
from defdom.errors import InputError
from defdom.graphs import Graph, path_graph, random_graph, star_graph
from defdom.intervals import greedy_defense, intersection_graph
from defdom.matching import counters
from defdom.reductions import CndInstance, cnd_to_dds, proof_defense, solve_cnd_bruteforce
from helpers import (attacks_up_to, clustered_intervals, hall_ok, random_defense,
                     random_simple_graph, random_split_graph, reference_pruned_violator,
                     shuffled_union)


def test_hall_deficiency_examples():
    g = path_graph(3)
    assert hall_deficiency(g, {2: 1}, [1, 3]) == 1
    assert hall_deficiency(g, {2: 2}, [1, 3]) == 0
    assert hall_deficiency(g, {}, [2]) == 1


def test_copy_counts_past_k_change_no_verdict():
    # a station serves at most k attackers, so k copies there and 10**12
    # give the same witness and deficiency, under both strategies
    rng = random.Random(14)
    violators = 0
    for _ in range(150):
        g = random_split_graph(rng)
        k = rng.randint(1, 4)
        defense = random_defense(rng, g, max_copies=2, density=0.4)
        heavy = rng.sample(sorted(defense), min(len(defense), 2))
        at_k = {**defense, **{v: k for v in heavy}}
        huge = {**defense, **{v: 10**12 for v in heavy}}
        for strategy in STRATEGIES:
            found = find_violator(g, at_k, k, strategy)
            assert find_violator(g, huge, k, strategy) == found
            violators += found is not None
    assert violators > 50


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


def pruned_witness(g, defense, k):
    violator = find_violator(g, defense, k, strategy="pruned")
    return None if violator is None else (violator.attack, violator.deficiency)


def test_pruned_witness_matches_unbounded_enumeration():
    # the cover bound only drops branches without a violator, so the first
    # witness and its deficiency are the ones plain enumeration finds
    rng = random.Random(10)
    found = 0
    for _ in range(1200):
        g = random_split_graph(rng)
        defense = random_defense(rng, g, max_copies=3)
        k = rng.randint(1, 5)
        expected = reference_pruned_violator(g, defense, k)
        assert pruned_witness(g, defense, k) == expected, (g.n, defense, k)
        found += expected is not None
    assert 300 < found < 1100   # both outcomes are well represented


def test_pruned_witness_on_many_components():
    # a few hundred vertices in interleaved components: random pieces with
    # one or two copies on every vertex, and clustered interval graphs with
    # the greedy defense for k or a smaller budget, then a few copies taken
    # away; each component numbers its own vertices and copies, and the
    # witness must still be the unbounded enumeration's
    rng = random.Random(18)
    sizes = Counter()
    for _ in range(60):
        k = rng.randint(2, 6)
        pieces = [(random_split_graph(rng, parts=4), None) for _ in range(rng.randint(5, 15))]
        for _ in range(rng.randint(1, 3)):
            inst = clustered_intervals(rng, rng.randint(30, 80))
            budget = rng.choice([k, rng.randint(1, k)])
            pieces.append((intersection_graph(inst), greedy_defense(inst, budget)))
        g, ids = shuffled_union(rng, [piece for piece, _ in pieces])
        defense, base = {}, 0
        for piece, own in pieces:
            own = own or {v: rng.randint(1, 2) for v in piece.vertices}
            defense.update({ids[base + v - 1]: count for v, count in own.items()})
            base += piece.n
        for v in rng.sample(sorted(defense), rng.randint(0, 2)):
            defense[v] -= 1
            if not defense[v]:
                del defense[v]
        expected = reference_pruned_violator(g, defense, k)
        assert pruned_witness(g, defense, k) == expected, (g.n, k)
        sizes[expected and len(expected[0])] += 1
    assert sizes[None] >= 10 and sum(sizes[m] > 0 for m in range(2, 7)) >= 4, sizes


def test_pruned_witness_on_dds_with_a_copy_removed():
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
    inst = CndInstance(g, 1, 4)
    dds = cnd_to_dds(inst)
    defense = proof_defense(dds, solve_cnd_bruteforce(inst))
    # every sixth defended vertex, so each of the defense's three vertex
    # groups loses a copy somewhere; without a copy at vertex 5 the
    # unbounded enumeration runs for minutes
    for v in sorted(defense)[::6]:
        weaker = {u: c - (u == v) for u, c in defense.items() if c - (u == v)}
        expected = reference_pruned_violator(dds.graph, weaker, dds.k)
        assert expected is not None
        assert pruned_witness(dds.graph, weaker, dds.k) == expected, v


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


def test_records_are_named_tuples():
    from defdom.defense import Violator
    from defdom.formulas import E2Formula, solve_e2sat
    from defdom.reductions import e2sat_to_cnd
    from defdom.solvers import SolveResult

    v = Violator(frozenset({1}), 1)
    w = Violator(deficiency=1, attack=frozenset({1}))
    assert v == w and hash(v) == hash(w)
    assert v != Violator(frozenset({1}), 2)
    assert Violator(frozenset({1}), 1) == (frozenset({1}), 1)   # the tuple of its fields
    assert repr(v) == "Violator(attack=frozenset({1}), deficiency=1)"

    r = SolveResult(3, {1: 2}, 5)
    assert r == SolveResult(optimum=3, witness={1: 2}, explored=5)
    assert r != v
    assert repr(r) == "SolveResult(optimum=3, witness={1: 2}, explored=5)"
    s = SolveResult(3, frozenset({1}), 5)
    assert hash(s) == hash(SolveResult(3, frozenset({1}), 5))

    k4_pendant = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
    cnd = CndInstance(k4_pendant, 1, 4)
    dds = cnd_to_dds(cnd)
    layout = dds.layout
    assert layout == type(layout)(**{name: getattr(layout, name)
                                     for name in type(layout).__match_args__})
    with pytest.raises(TypeError):
        hash(layout)               # its fields hold dicts

    f = E2Formula(1, 2, ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3)))
    sat = e2sat_to_cnd(f, allow_small=True)
    records = (v, r, f, solve_e2sat(f), cnd, layout, dds, sat.layout, sat)
    assert [type(record).__name__ for record in records] == [
        "Violator", "SolveResult", "E2Formula", "E2SatResult", "CndInstance",
        "DdsLayout", "DdsInstance", "SatLayout", "SatCnd"]
    for record in records:
        fields = type(record)._fields
        assert isinstance(record, tuple) and type(record).__match_args__ == fields
        assert tuple(record) == tuple(getattr(record, name) for name in fields)
        assert not hasattr(record, "__dict__")     # a validated subclass keeps __slots__ = ()
        with pytest.raises(AttributeError):
            setattr(record, fields[0], 0)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
    assert f.c == 4 and sat.graph is sat.cnd.graph and dds.layout.v_prime

    with pytest.raises(TypeError, match="missing 1 required positional argument: 'deficiency'"):
        Violator(frozenset({1}))
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        SolveResult(3, {1: 2}, 5, size=3)
    with pytest.raises(TypeError, match="multiple values for argument 'optimum'"):
        SolveResult(3, {1: 2}, 5, optimum=3)
    with pytest.raises(InputError, match="positive deficiency"):
        Violator(frozenset({1}), 0)
    with pytest.raises(InputError, match="exactly 3 literals"):
        E2Formula(1, 2, ((1, 2),))
    with pytest.raises(InputError, match="deletion budget s must be at least 1"):
        CndInstance(k4_pendant, 0, 4)

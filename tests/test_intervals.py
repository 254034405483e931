import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdom.cli import _gen_intervals
from defdom.defense import find_violator, good_defense, hall_deficiency
from defdom.errors import InputError
from defdom.graphs import closed_neighborhood, multiset_size
from defdom.intervals import (IntervalInstance, _endpoint_ranks, greedy_defense,
                              greedy_defense_reference, intersection_graph,
                              properize, validate)
from defdom.io import read_intervals, write_intervals
from defdom.solvers import min_multiset_defense
from helpers import (attacks_up_to, clustered_intervals, dense_intervals,
                     interval_components, is_proper, random_intervals)


def test_instance_validation():
    with pytest.raises(InputError):
        IntervalInstance({1: (2, 1)})
    with pytest.raises(InputError):
        IntervalInstance({2: (0, 1)})           # ids must start at 1
    with pytest.raises(InputError):
        IntervalInstance({1: (0.5, 1.0)})       # floats rejected
    inst = IntervalInstance({1: (0, 2), 2: (Fraction(5, 2), 4)})
    assert inst.interval(2) == (Fraction(5, 2), Fraction(4))


def test_endpoint_distinctness():
    validate(IntervalInstance({1: (0, 1), 2: (2, 3)}))
    validate(IntervalInstance({1: (5, 5)}))     # point interval is fine
    with pytest.raises(InputError):
        validate(IntervalInstance({1: (0, 2), 2: (2, 3)}))
    with pytest.raises(InputError):
        validate(IntervalInstance({1: (1, 1), 2: (1, 4)}))


def test_tied_instance_cannot_be_built():
    # the constructor is the one endpoint check, so no function that takes an
    # instance, the greedy included, ever sees a tie
    for rows, shown in [({1: (0, 2), 2: (2, 3)}, "2: hi of interval 1 and lo of interval 2"),
                        ({1: (3, 9), 2: (1, 9)}, "9: hi of interval 1 and hi of interval 2"),
                        ({1: (4, 4), 2: (4, 6)}, "4: hi of interval 1 and lo of interval 2"),
                        ({1: (0, 1), 2: (Fraction(1, 2), Fraction(3, 2)), 3: (Fraction(6, 4), 5)},
                         "3/2: hi of interval 2 and lo of interval 3")]:
        with pytest.raises(InputError, match=f"^duplicate endpoint value {shown}$"):
            IntervalInstance(rows)


def test_intersection_graph_matches_pairwise_checks():
    rng = random.Random(21)
    for _ in range(60):
        inst = random_intervals(rng)
        g = intersection_graph(inst)
        for u, v in itertools.combinations(inst.vertices, 2):
            (lo_u, hi_u), (lo_v, hi_v) = inst.interval(u), inst.interval(v)
            expected = (lo_u <= hi_v and lo_v <= hi_u)
            assert g.has_edge(u, v) == expected


def test_properize_moves_contained_defenders():
    inst = IntervalInstance({1: (0, 10), 2: (1, 3), 3: (4, 6)})
    out = properize(inst, {2: 2, 3: 1})
    assert out == {1: 3}
    assert is_proper(inst, out)


def test_properize_prefers_rightmost_container():
    inst = IntervalInstance({1: (0, 7), 2: (1, 9), 3: (2, 5)})
    out = properize(inst, {3: 1})
    assert out == {2: 1}   # container reaching furthest right wins


def test_properize_preserves_size_and_counterings():
    rng = random.Random(23)
    for _ in range(60):
        inst = random_intervals(rng, n_max=7)
        g = intersection_graph(inst)
        defense = {}
        for v in inst.vertices:
            if rng.random() < 0.5:
                defense[v] = rng.randint(1, 2)
        if not defense:
            continue
        moved = properize(inst, defense)
        assert multiset_size(moved) == multiset_size(defense)
        assert is_proper(inst, moved)
        assert properize(inst, moved) == moved
        for attack in attacks_up_to(g, 2):
            if hall_deficiency(g, defense, attack) <= 0:
                assert hall_deficiency(g, moved, attack) <= 0


def test_endpoint_ranks_preserve_order_and_thicken_points():
    inst = IntervalInstance({1: (0, 10), 2: (3, 3), 3: (5, 7)})
    l_rank, r_rank = _endpoint_ranks(inst)
    assert l_rank[2] + 1 == r_rank[2]          # the point got positive width
    assert l_rank[1] < l_rank[2] < l_rank[3]
    assert r_rank[2] < l_rank[3] < r_rank[3] < r_rank[1]


def fraction_ranks(inst):
    """Endpoint ranks from one stable sort of Fraction-converted endpoints."""
    entries = []
    for v, (lo, hi) in inst.items():
        entries.append((Fraction(lo), v, 0))
        entries.append((Fraction(hi), v, 1))
    entries.sort(key=lambda e: e[0])
    ranks = ([0] * (inst.n + 1), [0] * (inst.n + 1))
    for rank, (_, v, kind) in enumerate(entries):
        ranks[kind][v] = rank
    return ranks


def spell(x, style):
    """One of several file spellings of the rational x."""
    if style == "decimal" and x.denominator in (1, 2, 4):
        whole, part = divmod(abs(x.numerator), x.denominator)
        return f"{'-' if x < 0 else ''}{whole}.{part * 100 // x.denominator:02d}"
    if style == "over" and x.denominator == 1:
        return f"{3 * x}/3"          # a whole value written as a ratio
    return str(x)


def test_endpoint_ranks_match_fraction_sort_on_mixed_files(tmp_path):
    rng = random.Random(29)
    path = tmp_path / "mixed.ivl"
    for _ in range(40):
        n = rng.randint(1, 30)
        pool = sorted({Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3, 4, 7)))
                       for _ in range(4 * n)})
        values = rng.sample(pool, 2 * (len(pool) // 2))
        lines = [f"p intervals {len(values) // 2}"]
        for v in range(1, len(values) // 2 + 1):
            lo, hi = sorted(values[2 * v - 2:2 * v])
            if rng.random() < 0.15:
                lo = hi                                    # point interval
            if rng.random() < 0.2:
                shift = 10**40 + Fraction(1, 3)            # huge, sometimes whole
                lo, hi = lo + shift, hi + shift
            style = rng.choice(("plain", "decimal", "over"))
            lines.append(f"{v} {spell(lo, style)} {spell(hi, style)}")
        path.write_text("\n".join(lines) + "\n")
        inst = read_intervals(path)
        for value in inst.ends:
            assert type(value) is (int if value.denominator == 1 else Fraction)
        assert _endpoint_ranks(inst) == fraction_ranks(inst)


def test_duplicate_endpoint_error_names_the_rational_value(tmp_path):
    path = tmp_path / "dup.ivl"
    big = 10**40
    for body, shown in [("1 7/3 5\n2 -1 14/6\n", "7/3"),
                        ("1 0.5 2\n2 -3 1/2\n", "1/2"),
                        ("1 -4 2.0\n2 4/2 8\n", "2"),
                        (f"1 0 {4 * big}/4\n2 {big}.000 {10 * big}\n", str(big))]:
        path.write_text("p intervals 2\n" + body)
        with pytest.raises(InputError, match=f"duplicate endpoint value {shown}:"):
            read_intervals(path)
    huge = 10**40 + Fraction(1, 3)
    with pytest.raises(InputError, match=f"value {3 * 10**40 + 1}/3: hi of interval 1"):
        validate(IntervalInstance({1: (0, huge), 2: (huge, 10**41)}))


def test_prime_denominators_stay_fast(tmp_path):
    # 2 000 pairwise coprime denominators: their common multiple has
    # thousands of digits, so scaling every endpoint to an integer would not do
    sieve = bytearray([1]) * 20_000
    primes = []
    for p in range(2, len(sieve)):
        if sieve[p]:
            primes.append(p)
            sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    rng = random.Random(30)
    rows = {}
    for v, p in enumerate(primes[:2000], start=1):
        lo = Fraction(rng.randrange(10**6) * p + rng.randrange(1, p), p)
        rows[v] = (lo, lo + rng.randrange(1, 50_000))
    inst = IntervalInstance(rows)
    path = tmp_path / "primes.ivl"
    write_intervals(path, inst)
    start = time.perf_counter()
    back = read_intervals(path)
    validate(back)
    defense = greedy_defense(back, 3)
    assert time.perf_counter() - start < 3.0
    assert back == inst
    lo_rank, hi_rank = _endpoint_ranks(inst)
    ranked = IntervalInstance({v: (lo_rank[v], hi_rank[v]) for v in inst.vertices})
    assert defense == greedy_defense(ranked, 3)


def test_greedy_star_and_disjoint_examples():
    # one long interval under five short ones: the hub absorbs both copies
    star = IntervalInstance({1: (0, 11), 2: (1, 2), 3: (3, 4), 4: (5, 6),
                             5: (7, 8), 6: (9, 10)})
    d = greedy_defense(star, 2)
    assert multiset_size(d) == 2
    assert good_defense(intersection_graph(star), d, 2)

    apart = IntervalInstance({v: (10 * v, 10 * v + 1) for v in range(1, 6)})
    d = greedy_defense(apart, 1)
    assert multiset_size(d) == 5


def test_greedy_fast_equals_reference():
    rng = random.Random(24)
    for _ in range(150):
        inst = random_intervals(rng)
        k = rng.randint(1, 4)
        assert greedy_defense(inst, k) == greedy_defense_reference(inst, k)
    # clustered bounded-length instances, with k from 1 up past n
    for _ in range(60):
        inst = clustered_intervals(rng, rng.randint(1, 40), cluster=(1, 10))
        for k in {1, 2, 3, 5, rng.randint(1, inst.n), inst.n, inst.n + 1}:
            assert greedy_defense(inst, k) == greedy_defense_reference(inst, k)
    # point intervals, and Fraction endpoints mixed with whole ones
    for _ in range(80):
        base = random_intervals(rng, n_max=10)
        inst = IntervalInstance({v: (Fraction(lo, 3), Fraction(hi, 3))
                                 for v, (lo, hi) in base.items()})
        for k in range(1, inst.n + 2):
            assert greedy_defense(inst, k) == greedy_defense_reference(inst, k)
    # many clusters under one large k, so the top lefts form many runs
    inst = clustered_intervals(random.Random(27), 150)
    assert greedy_defense(inst, 500) == greedy_defense_reference(inst, 500)
    # point intervals inside multi-interval components, at k = 1, 2, c, c + 1
    # and n, c the largest component, with whole and with thirds as endpoints
    for _ in range(40):
        inst = clustered_intervals(rng, rng.randint(20, 60), cluster=(2, 12), points=0.15)
        thirds = IntervalInstance({v: (Fraction(lo, 3), Fraction(hi, 3))
                                   for v, (lo, hi) in inst.items()})
        c = max(part.n for part, _ in interval_components(inst))
        for k in {1, 2, c, c + 1, inst.n}:
            assert greedy_defense(inst, k) == greedy_defense_reference(inst, k)
            assert greedy_defense(thirds, k) == greedy_defense_reference(thirds, k)


def test_greedy_large_k_stays_fast():
    # n = 10 000 clustered intervals at k = 5 000: a sweep that scans every
    # top left per step took about 3 s on a 2-vCPU VM, this one about 0.2 s
    inst = clustered_intervals(random.Random(31), 10_000)
    start = time.perf_counter()
    defense = greedy_defense(inst, 5_000)
    assert time.perf_counter() - start < 2.0
    assert multiset_size(defense) == inst.n    # k covers every component


def test_greedy_cost_follows_component_size():
    # n = 50 000 clustered intervals at k = 25 000: a sweep that carried its
    # tops and copies across the gaps between components took about 4.5 s
    # on a 2-vCPU VM, one that starts afresh at every gap about 0.2 s
    inst = clustered_intervals(random.Random(31), 50_000)
    start = time.perf_counter()
    defense = greedy_defense(inst, 25_000)
    assert time.perf_counter() - start < 2.0
    assert multiset_size(defense) == inst.n


def test_greedy_large_k_on_one_big_component():
    # the dense generator's n = 20 000 intervals form one component, so a
    # step may see all k = 5 000 top lefts: a sweep that scanned every block
    # of them per step took about 34 s on a 2-vCPU VM, the run lists 0.06 s
    inst = _gen_intervals(20_000, seed=7)
    start = time.perf_counter()
    defense = greedy_defense(inst, 5_000)
    assert time.perf_counter() - start < 1.0
    assert multiset_size(defense) == 5_000


def test_greedy_splits_along_components():
    # invariant 3 of greedy_defense: the answer is the union of the answers
    # on the components, each found on its own
    rng = random.Random(32)
    for _ in range(200):
        base = clustered_intervals(rng, rng.randint(1, 40), cluster=(1, 8))
        ids = list(base.vertices)
        rng.shuffle(ids)                        # components interleave by id
        den = rng.choice((1, 2, 3))             # 2 and 3 give Fraction endpoints
        rows = {}
        for v, (lo, hi) in base.items():
            if rng.random() < 0.15:
                hi = lo                         # a point interval
            rows[ids[v - 1]] = (Fraction(lo, den), Fraction(hi, den))
        inst = IntervalInstance(rows)
        parts = interval_components(inst)
        g = intersection_graph(inst)
        part_of = {v: i for i, (_, part_ids) in enumerate(parts) for v in part_ids}
        assert len(part_of) == inst.n
        assert all(part_of[u] == part_of[v] for u, v in g.edges())
        for part, _ in parts:                   # and each part is connected
            part_graph, reach = intersection_graph(part), {1}
            while (grown := closed_neighborhood(part_graph, reach)) != reach:
                reach = grown
            assert len(reach) == part.n
        c = max(part.n for part, _ in parts)
        for k in {1, 2, c - 1, c, inst.n + 1, 500} - {0}:
            union = {}
            for part, part_ids in parts:
                for j, copies in greedy_defense_reference(part, k).items():
                    union[part_ids[j - 1]] = copies
            fast = greedy_defense(inst, k)
            assert fast == union
            assert fast == greedy_defense_reference(inst, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 3))
def test_greedy_output_is_good_and_optimal(seed, k):
    inst = dense_intervals(random.Random(seed), n_max=7)
    defense = greedy_defense(inst, k)
    g = intersection_graph(inst)
    assert find_violator(g, defense, k, strategy="exhaustive") is None
    assert multiset_size(defense) == min_multiset_defense(g, k).optimum


def test_greedy_is_optimal_beyond_ten_vertices():
    # the cut-pruned exact solver reaches n = 16..24, past acceptance 02
    rng = random.Random(1)
    for _ in range(20):
        n, k = rng.randint(16, 24), rng.randint(1, 3)
        inst = clustered_intervals(rng, n, cluster=(6, 12))
        optimum = min_multiset_defense(intersection_graph(inst), k).optimum
        assert multiset_size(greedy_defense(inst, k)) == optimum


def test_greedy_output_is_good_and_proper():
    rng = random.Random(25)
    for _ in range(40):
        inst = random_intervals(rng, n_max=7)
        k = rng.randint(1, 3)
        defense = greedy_defense(inst, k)
        g = intersection_graph(inst)
        assert find_violator(g, defense, k, strategy="exhaustive") is None
        assert is_proper(inst, defense)


def test_greedy_rejects_duplicate_endpoints_and_bad_k():
    with pytest.raises(InputError):
        greedy_defense(IntervalInstance({1: (0, 2), 2: (2, 4)}), 1)
    with pytest.raises(InputError):
        greedy_defense(IntervalInstance({1: (0, 1)}), 0)


def test_span_monotone_deficiency():
    """A larger attack confined to a smaller covered region is also bad.

    If attack A1 is uncountered and A2 has at least as many attackers whose
    intervals all lie inside the union covered by A1, then A2 is uncountered
    too.  (Union of intervals, not their bounding interval.)
    """
    rng = random.Random(26)
    checked = 0
    while checked < 50:
        inst = random_intervals(rng, n_max=7)
        if inst.n < 2:
            continue
        g = intersection_graph(inst)
        defense = {v: 1 for v in inst.vertices if rng.random() < 0.4}
        k = rng.randint(1, 3)
        violator = find_violator(g, defense, k, strategy="exhaustive")
        if violator is None:
            continue
        a1 = violator.attack
        union = [inst.interval(v) for v in a1]

        def covered(w):
            lo_w, hi_w = inst.interval(w)
            return any(lo <= lo_w and hi_w <= hi for lo, hi in union)

        inside = [w for w in inst.vertices if covered(w) or w in a1]
        for size in range(len(a1), min(len(inside), len(a1) + 1) + 1):
            for a2 in itertools.combinations(sorted(inside), size):
                if all(map(covered, a2)):
                    assert hall_deficiency(g, defense, a2) > 0
        checked += 1

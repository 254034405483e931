"""Self-tests of the benchmark: generators, oracles and the result line.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import generators as gen
import oracles
import run
import workloads
from defdom.formulas import E2Formula, solve_e2sat
from defdom.graphs import Graph
from defdom.intervals import IntervalInstance, greedy_defense_reference
from defdom.reductions import CndInstance, cnd_to_dds, e2sat_to_cnd, solve_cnd_bruteforce
from defdom.solvers import min_constrained_multiset, min_multiset_defense, min_set_defense

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _endpoints(rows):
    return [x for row in rows for x in row]


@pytest.mark.parametrize("make", [
    lambda rng: gen.dense_intervals(500, rng),
    lambda rng: gen.sparse_intervals(500, rng),
])
def test_interval_generators_are_seeded_and_distinct(make):
    rows = make(random.Random(3))
    assert rows == make(random.Random(3))
    assert rows != make(random.Random(4))
    assert len(rows) == 500
    assert len(set(_endpoints(rows))) == 1000
    assert all(lo < hi for lo, hi in rows)


def test_sparse_components_stay_within_a_cluster():
    rows = gen.sparse_intervals(2000, random.Random(5))
    comps = gen.components(rows)
    assert sorted(v for comp in comps for v in comp) == list(range(1, 2001))
    assert max(map(len, comps)) <= gen.CLUSTER[1]


def test_sparse_check_needs_each_component_share(tmp_path):
    [job] = workloads.greedy_sparse(random.Random(13), tmp_path, n=40, ks=(500,))
    out = Path(job.argv[-1])
    gen.write_multiset(out, {v: 1 for v in range(1, 41)})
    assert job.check() is None
    gen.write_multiset(out, {1: 40})
    assert job.check() is not None


def test_graph_and_formula_generators_are_seeded():
    assert gen.gnp(12, 0.3, random.Random(1)) == gen.gnp(12, 0.3, random.Random(1))
    edges = gen.gnm(9, 18, random.Random(2))
    assert edges == gen.gnm(9, 18, random.Random(2)) and len(set(edges)) == 18
    clauses = gen.formula(2, 2, 8, random.Random(3))
    assert clauses == gen.formula(2, 2, 8, random.Random(3))
    assert all(len({abs(lit) for lit in cl}) == 3 for cl in clauses)


def test_interval_edges_match_pairwise_overlap():
    rows = gen.sparse_intervals(60, random.Random(6))
    expected = [(u, v) for u, v in itertools.combinations(range(1, 61), 2)
                if rows[u - 1][0] <= rows[v - 1][1] and rows[v - 1][0] <= rows[u - 1][1]]
    assert gen.interval_edges(rows) == expected


def _instance(rows):
    return IntervalInstance({v: row for v, row in enumerate(rows, start=1)})


def _size(defense):
    return sum(defense.values())


def test_dense_oracle_matches_reference():
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        rows = gen.dense_intervals(rng.randint(1, 10), rng)
        if not oracles.has_universal_interval(rows):
            continue
        for k in (1, 2, 3, 5):
            assert oracles.dense_optimum(rows, k) == _size(
                greedy_defense_reference(_instance(rows), k))
        checked += 1
    assert checked > 20


def test_universal_interval_check_matches_pairwise():
    rng = random.Random(8)
    for _ in range(200):
        rows = gen.dense_intervals(rng.randint(1, 10), rng)
        brute = any(all(lo <= b and a <= hi for a, b in rows) for lo, hi in rows)
        assert oracles.has_universal_interval(rows) == brute


def _small_clusters(rng):
    """Up to 10 intervals in several clusters: sparse draws of at most
    CLUSTER[0] intervals (one cluster each), shifted apart."""
    rows, base = [], 0
    while len(rows) < 10 and (not rows or rng.random() < 0.7):
        part = gen.sparse_intervals(rng.randint(1, min(gen.CLUSTER[0], 10 - len(rows))), rng)
        rows += [(lo + base, hi + base) for lo, hi in part]
        base = max(hi for _, hi in rows) + 1
    return rows


def test_component_oracle_matches_reference():
    rng = random.Random(9)
    for _ in range(40):
        rows = _small_clusters(rng)
        for k in (1, 2, 3, 6):
            expected = greedy_defense_reference(_instance(rows), k)
            size, defense = oracles.component_greedy(rows, k)
            assert size == _size(expected)
            assert defense is None or defense == expected


def test_exact_oracles_match_solvers():
    rng = random.Random(10)
    for _ in range(12):
        n = rng.randint(1, 8)
        edges = gen.gnp(n, rng.uniform(0.15, 0.6), rng)
        g = Graph(n, edges)
        for k in (1, 2, 3):
            assert oracles.exact_optimum(n, edges, k, True) == min_multiset_defense(g, k).optimum
        assert oracles.exact_optimum(n, edges, 2, False) == min_set_defense(g, 2).optimum
        attacks = [rng.sample(range(1, n + 1), min(n, 3)) for _ in range(3)]
        cap = max(map(len, attacks))
        result = min_constrained_multiset(g, attacks, {}, {v: cap for v in g.vertices})
        assert oracles.listed_attacks_optimum(n, edges, attacks) == result.optimum


def test_formula_oracle_matches_solver():
    rng = random.Random(11)
    for _ in range(40):
        a, b = rng.randint(1, 3), rng.randint(0, 3)
        if a + b < 3:
            continue
        clauses = gen.formula(a, b, rng.randint(1, 8), rng)
        result = solve_e2sat(E2Formula(a, b, tuple(clauses)))
        assert oracles.e2sat_winner(a, b, clauses) == result.winning_nu


def test_reduction_sizes_match_constructions():
    n, edges = gen.k4_pendant()
    dds = cnd_to_dds(CndInstance(Graph(n, edges), 1, 4))
    assert oracles.dds_sizes(n, len(edges), 1, 4) == {"vertices": 137, "k": 6, "ell": 39}
    assert (dds.graph.n, dds.k, dds.ell) == (137, 6, 39)
    rng = random.Random(12)
    for _ in range(3):
        edges = gen.gnm(8, 14, rng)
        dds = cnd_to_dds(CndInstance(Graph(8, edges), 2, 4))
        assert oracles.dds_sizes(8, 14, 2, 4) == {
            "vertices": dds.graph.n, "k": dds.k, "ell": dds.ell}
        deletion = oracles.clique_deletion(8, edges, 2, 4)
        assert (deletion is None) == (solve_cnd_bruteforce(
            CndInstance(Graph(8, edges), 2, 4)) is None)
        clauses = gen.formula(2, 2, 7, rng)
        sc = e2sat_to_cnd(E2Formula(2, 2, tuple(clauses)))
        assert oracles.sat_cnd_sizes(2, 2, clauses) == {
            "vertices": sc.graph.n, "s": sc.cnd.s, "t": sc.cnd.t}


def _result(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _result(["--workload", "certify", "--seed", "0", "--seconds", "0.5",
                      "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared

"""Expected answers for every benchmark job, computed off the timed path.

None of these calls the code path a job times.  Interval optima come from
structure (a universal interval, components no larger than k) or from the
quadratic `greedy_defense_reference` run per component; exact optima come
from an integer program over the full Hall constraint set (scipy's HiGHS
`milp`); reduction outputs are checked against the construction's sizes;
formulas are decided by an independent brute-force search.
"""

import itertools
from math import comb

import numpy as np

from generators import Edges, Interval, components

# ------------------------------------------------------------- intervals


def has_universal_interval(rows: list[Interval]) -> bool:
    """True when some interval meets every other one, in O(n).

    Interval v meets all others exactly when lo_v <= min hi over the others
    and hi_v >= max lo over the others; keeping the two smallest rights and
    the two largest lefts gives both "others" values for every v.
    """
    if len(rows) <= 1:
        return True
    his = sorted(hi for _, hi in rows)[:2]
    los = sorted((lo for lo, _ in rows), reverse=True)[:2]
    for lo, hi in rows:
        min_hi = his[1] if hi == his[0] else his[0]
        max_lo = los[1] if lo == los[0] else los[0]
        if lo <= min_hi and hi >= max_lo:
            return True
    return False


def dense_optimum(rows: list[Interval], k: int) -> int:
    """min(k, n) on a graph with a universal vertex: k copies there counter
    every attack, and an attack of min(k, n) vertices needs that many."""
    if not has_universal_interval(rows):
        raise ValueError("dense instance has no universal interval")
    return min(k, len(rows))


def component_greedy(rows: list[Interval], k: int) -> tuple[int, dict[int, int] | None]:
    """Greedy optimum by components, with the multiset unless k covers them all.

    When every component has at most k vertices, the optimum is n: each
    component is itself an attack, and one copy per vertex counters all.
    Otherwise the quadratic reference runs on each component alone, which
    is exact because the greedy never serves one component with a copy
    placed in another.
    """
    from defdom.intervals import IntervalInstance, greedy_defense_reference

    comps = components(rows)
    if all(len(comp) <= k for comp in comps):
        return len(rows), None
    total = 0
    defense: dict[int, int] = {}
    for comp in comps:
        inst = IntervalInstance({i: rows[v - 1] for i, v in enumerate(comp, start=1)})
        for i, c in greedy_defense_reference(inst, k).items():
            defense[comp[i - 1]] = c
            total += c
    return total, defense


# ---------------------------------------------------------- exact optima


def _closed_hoods(n: int, edges: Edges) -> list[set[int]]:
    hood = [{v} for v in range(n + 1)]
    for u, v in edges:
        hood[u].add(v)
        hood[v].add(u)
    return hood


def _milp_minimum(n: int, rows: list[tuple[set[int], int]], cap: int) -> int:
    """min sum(D) over integers 0 <= D_v <= cap with sum_{v in R} D_v >= b per row."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    a = np.zeros((len(rows), n))
    rhs = np.empty(len(rows))
    for i, (region, need) in enumerate(rows):
        a[i, [v - 1 for v in region]] = 1
        rhs[i] = need
    res = milp(np.ones(n), constraints=LinearConstraint(a, rhs, np.inf),
               integrality=np.ones(n), bounds=Bounds(0, cap))
    if not res.success:
        raise RuntimeError(f"oracle integer program failed: {res.message}")
    return round(res.fun)


def _hall_rows(hood: list[set[int]], attacks) -> list[tuple[set[int], int]]:
    """One Hall row per attack: N[A] must hold at least |A| copies."""
    rows = {}
    for attack in attacks:
        region = frozenset().union(*(hood[v] for v in attack))
        rows[region] = max(rows.get(region, 0), len(attack))
    return list(rows.items())


def exact_optimum(n: int, edges: Edges, k: int, multiset: bool) -> int:
    """Smallest defense countering every attack of size <= k (Hall's theorem:
    countered exactly when every attack sees |A| copies in N[A])."""
    hood = _closed_hoods(n, edges)
    attacks = itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), size) for size in range(1, min(k, n) + 1))
    return _milp_minimum(n, _hall_rows(hood, attacks), k if multiset else 1)


def listed_attacks_optimum(n: int, edges: Edges, attacks: list[list[int]]) -> int:
    """Smallest multiset, capped at the longest attack per vertex, countering
    each listed attack: every subset S of a listed attack needs |S| copies in N[S]."""
    hood = _closed_hoods(n, edges)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(attack, size)
        for attack in attacks for size in range(1, len(attack) + 1))
    return _milp_minimum(n, _hall_rows(hood, subsets), max(map(len, attacks)))


# ------------------------------------------------------------ reductions


def _has_clique(adj: list[set[int]], alive: set[int], t: int) -> bool:
    return any(all(v in adj[u] for u, v in itertools.combinations(group, 2))
               for group in itertools.combinations(sorted(alive), t))


def clique_deletion(n: int, edges: Edges, s: int, t: int) -> tuple[int, ...] | None:
    """Lexicographically first s vertices whose removal leaves no K_t."""
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for combo in itertools.combinations(range(1, n + 1), s):
        if not _has_clique(adj, set(range(1, n + 1)) - set(combo), t):
            return combo
    return None


def dds_sizes(n: int, m: int, s: int, t: int) -> dict[str, int]:
    """Sizes of the clique-node-deletion -> defensive-domination construction.

    k = n + s and ell = 4(n+s) + nt - (t+1); the vertex groups are v', v''
    per source vertex, one per edge, I1..I4, Q1, Q2, Q4, and the per-vertex
    classes of sizes C(t,2) and t.  The forward proof defense uses exactly
    ell copies.
    """
    k = n + s
    ell = 4 * k + n * t - (t + 1)
    vertices = (2 * n + m + k + (k - comb(t, 2)) + (k + ell) + k + k + (k - t - 1) + k
                + n * comb(t, 2) + n * t)
    return {"vertices": vertices, "k": k, "ell": ell}


def sat_cnd_sizes(a: int, b: int, clauses) -> dict[str, int]:
    """Sizes of the two-level SAT -> clique-node-deletion construction.

    s = ac + 3c and t = b + c.  Vertices: 2c per existential gadget plus
    c^2 (t-2) edge pads, two per universal variable, six per clause gadget
    with 9 (t-2) pads, and t-1-g clause-clique pads for a clause with g
    existential literals.
    """
    c = len(clauses)
    t = b + c
    existential = [sum(1 for lit in cl if abs(lit) <= a) for cl in clauses]
    vertices = (2 * a * c + a * c * c * (t - 2) + 2 * b + 6 * c + 9 * c * (t - 2)
                + sum(t - 1 - g for g in existential))
    return {"vertices": vertices, "s": a * c + 3 * c, "t": t}


# -------------------------------------------------------------- formulas


def e2sat_winner(a: int, b: int, clauses) -> tuple[bool, ...] | None:
    """First x-assignment (False-first order) that no y-assignment completes.

    Clauses become bit masks over the a+b variables; an assignment satisfies
    a clause when it sets a positive literal or clears a negative one.
    """
    masks = []
    for cl in clauses:
        pos = sum(1 << (abs(lit) - 1) for lit in cl if lit > 0)
        neg = sum(1 << (abs(lit) - 1) for lit in cl if lit < 0)
        masks.append((pos, neg))
    full = (1 << (a + b)) - 1
    for nu in itertools.product((False, True), repeat=a):
        xbits = sum(1 << i for i, bit in enumerate(nu) if bit)
        if not any(all(bits & pos or ~bits & full & neg for pos, neg in masks)
                   for bits in (xbits | (y << a) for y in range(1 << b))):
            return nu
    return None

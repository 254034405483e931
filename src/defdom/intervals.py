"""Interval instances and the greedy multiset defense for their graphs.

An instance assigns each vertex 1..n a closed interval with rational
endpoints; the intersection graph connects vertices whose intervals meet.
An endpoint is stored as a plain `int` when it is a whole number and as an
exact `Fraction` otherwise, with no common denominator: integer instances
never touch Fraction arithmetic, and coprime denominators cannot blow up.
All block and greedy machinery assumes no two distinct intervals share an
endpoint value (point intervals are fine), which `validate` enforces and
`normalize` can repair when a graph-preserving strictification exists.

The greedy sweeps right endpoints in ascending order and, for every prefix
block (the m members of the processed prefix with the largest left
endpoints), tops the nearby defender count up to m, always stationing new
copies on the interval that reaches furthest right while still starting
before the sweep line.  Both implementations work in endpoint-rank space:
exact integer order, and a point interval acquires a positive width there,
which keeps the selection rule total without touching the graph.
`greedy_defense` is the fast path; the literal restatement
`greedy_defense_reference` is kept for differential testing.
"""

import bisect
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from defdom.errors import InputError
from defdom.graphs import (Graph, VertexMultiset, check_multiset,
                           closed_neighborhood, count_in)

Endpoint = Union[int, Fraction]


def _exact(x) -> Endpoint:
    """The exact value of x: an int when whole, a Fraction otherwise."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class IntervalInstance:
    """Vertices 1..n, each owning a closed interval [lo, hi] with lo <= hi.

    Endpoints are exact rationals, stored as `int` when the denominator is 1
    and as `Fraction` otherwise (the two compare and hash alike); floats are
    rejected to keep every comparison exact.
    """

    __slots__ = ("n", "lo", "hi")

    def __init__(self, intervals: Mapping[int, tuple[Endpoint, Endpoint]]):
        n = len(intervals)
        if set(intervals) != set(range(1, n + 1)):
            raise InputError("interval ids must be exactly 1..n")
        self.n = n
        self.lo: dict[int, Endpoint] = {}
        self.hi: dict[int, Endpoint] = {}
        for v in range(1, n + 1):
            lo, hi = intervals[v]
            if type(lo) is not int or type(hi) is not int:
                if isinstance(lo, float) or isinstance(hi, float):
                    raise InputError(f"interval {v} uses float endpoints; use int or Fraction")
                lo, hi = _exact(lo), _exact(hi)
            if lo > hi:
                raise InputError(f"interval {v} has lo > hi")
            self.lo[v] = lo
            self.hi[v] = hi

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def interval(self, v: int) -> tuple[Endpoint, Endpoint]:
        return self.lo[v], self.hi[v]

    def items(self):
        for v in self.vertices:
            yield v, (self.lo[v], self.hi[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalInstance):
            return NotImplemented
        return self.n == other.n and self.lo == other.lo and self.hi == other.hi

    def __repr__(self) -> str:
        return f"IntervalInstance(n={self.n})"


def validate(inst: IntervalInstance) -> None:
    """Require that no two distinct intervals share an endpoint value.

    A point interval may coincide with itself (lo == hi); any value reuse
    across different vertices is rejected.  The check counts distinct
    values; only a failing instance is scanned again to name a culprit pair.
    """
    points = sum(map(operator.eq, inst.lo.values(), inst.hi.values()))
    if len({*inst.lo.values(), *inst.hi.values()}) == 2 * inst.n - points:
        return
    seen: dict[Endpoint, tuple[int, str]] = {}
    for v in inst.vertices:
        for value, kind in ((inst.lo[v], "lo"), (inst.hi[v], "hi")):
            if value in seen and seen[value][0] != v:
                w, wk = seen[value]
                raise InputError(
                    f"duplicate endpoint value {value}: {wk} of interval {w} "
                    f"and {kind} of interval {v}")
            seen[value] = (v, kind)


def intersection_graph(inst: IntervalInstance) -> Graph:
    """Intersection graph via an endpoint sweep.  Requires validated input."""
    validate(inst)
    events = []
    for v in inst.vertices:
        # value ties only happen within one point interval; open sorts first
        events.append((inst.lo[v], 0, v))
        events.append((inst.hi[v], 1, v))
    events.sort()
    active: set[int] = set()
    edges: list[tuple[int, int]] = []
    for _, kind, v in events:
        if kind == 0:
            edges.extend((min(u, v), max(u, v)) for u in active)
            active.add(v)
        else:
            active.discard(v)
    return Graph(inst.n, edges)


def normalize(inst: IntervalInstance) -> IntervalInstance:
    """Strictify tied endpoints, keeping the intersection graph intact.

    One canonical proposal is tried: sort all endpoints, breaking value ties
    toward separation (closing endpoints before opening ones, then vertex
    id; a point interval keeps its own pair ordered), and replace each
    endpoint by its position.  The proposal is accepted only if it keeps
    the intersection graph; otherwise the least adjacency-changing pair is
    reported.  In particular, intervals that merely touch are rejected
    rather than silently glued together.
    """
    def key(entry):
        value, v, kind = entry
        if inst.lo[v] == inst.hi[v]:
            rank = 0 if kind == "lo" else 1
        else:
            rank = 0 if kind == "hi" else 1
        return (value, rank, v)

    entries = []
    for v in inst.vertices:
        entries.append((inst.lo[v], v, "lo"))
        entries.append((inst.hi[v], v, "hi"))
    entries.sort(key=key)
    new: dict[int, dict[str, int]] = {v: {} for v in inst.vertices}
    for position, (_, v, kind) in enumerate(entries):
        new[v][kind] = position
    # Distinct values keep their order, so only a tie between one interval's
    # lo and another's hi can change adjacency: the pair meets at that value,
    # and stops meeting when the proposal puts the hi first.  Among all such
    # pairs report the least (u, v), as a check of every pair would.
    culprit = None
    value = closed = None
    for entry_value, v, kind in entries:
        if entry_value != value:
            value, closed = entry_value, []   # least two ids whose hi sits here
        if kind == "hi":
            closed = sorted(closed + [v])[:2]
            continue
        w = next((w for w in closed if w != v), None)
        if w is not None:
            pair = (min(v, w), max(v, w))
            culprit = pair if culprit is None else min(culprit, pair)
    if culprit is not None:
        u, v = culprit
        raise InputError(
            f"strictification would change adjacency between intervals "
            f"{u} and {v}; separate their endpoints explicitly")
    return IntervalInstance({v: (new[v]["lo"], new[v]["hi"]) for v in inst.vertices})


def properize(inst: IntervalInstance, defense: VertexMultiset) -> VertexMultiset:
    """Move defenders off properly contained intervals.

    While some defender's interval is a proper subset of any vertex interval,
    its copies move onto a containing interval reaching furthest right
    (which is itself inclusion maximal), so the result has the same total
    size and each move can only widen the defenders' reach.
    """
    out = dict(defense)
    for v in out:
        if v not in inst.lo:
            raise InputError(f"defense mentions unknown interval {v}")
        if out[v] <= 0:
            raise InputError(f"defense count for interval {v} must be positive")
    changed = True
    while changed:
        changed = False
        for u in sorted(out):
            containers = [w for w in inst.vertices
                          if w != u
                          and inst.lo[w] <= inst.lo[u] and inst.hi[u] <= inst.hi[w]
                          and (inst.lo[w], inst.hi[w]) != (inst.lo[u], inst.hi[u])]
            if not containers:
                continue
            target = max(containers, key=lambda w: (inst.hi[w], -w))
            out[target] = out.get(target, 0) + out.pop(u)
            changed = True
            break
    return out


@dataclass(frozen=True)
class Block:
    """The `size` members of the prefix ending by x with the largest left ends."""

    x: Endpoint
    size: int
    members: frozenset[int]


def block(inst: IntervalInstance, x: Endpoint, size: int) -> Block:
    """Block at sweep position x: among intervals closing at or before x,
    the `size` with the largest left endpoints."""
    validate(inst)
    x = _exact(x)
    if x not in set(inst.hi.values()):
        raise InputError(f"{x} is not a right endpoint of any interval")
    prefix = [v for v in inst.vertices if inst.hi[v] <= x]
    if not (1 <= size <= len(prefix)):
        raise InputError(f"block size {size} outside 1..{len(prefix)}")
    prefix.sort(key=lambda v: inst.lo[v], reverse=True)
    return Block(x, size, frozenset(prefix[:size]))


def is_block_defense(inst: IntervalInstance, defense: VertexMultiset, k: int) -> bool:
    """Check every block of size up to k has at least that many nearby copies."""
    if k < 1:
        raise InputError("attack budget k must be at least 1")
    validate(inst)
    g = intersection_graph(inst)
    check_multiset(g, defense)
    by_right = sorted(inst.vertices, key=lambda v: inst.hi[v])
    prefix: list[int] = []   # maintained in descending left-endpoint order
    neg_lefts: list[Endpoint] = []
    for v in by_right:
        pos = bisect.bisect_left(neg_lefts, -inst.lo[v])
        prefix.insert(pos, v)
        neg_lefts.insert(pos, -inst.lo[v])
        for m in range(1, min(len(prefix), k) + 1):
            hood = closed_neighborhood(g, prefix[:m])
            if count_in(defense, hood) < m:
                return False
    return True


def is_proper(inst: IntervalInstance, defense: VertexMultiset) -> bool:
    """No defender's interval properly contained in another defender's."""
    support = sorted(v for v, c in defense.items() if c > 0)
    for u in support:
        for w in support:
            if u == w:
                continue
            if (inst.lo[w] <= inst.lo[u] and inst.hi[u] <= inst.hi[w]
                    and (inst.lo[w], inst.hi[w]) != (inst.lo[u], inst.hi[u])):
                return False
    return True


def _endpoint_ranks(inst: IntervalInstance) -> tuple[list[int], list[int]]:
    """Positions of each endpoint in the sorted order of all 2n endpoints.

    Exact (one sort of the stored values, then machine ints) and
    order-isomorphic, so every cross-interval comparison is preserved; a
    point interval comes out with lo rank < hi rank, giving it positive
    width without changing the intersection graph.
    """
    n = inst.n
    values = [*inst.lo.values(), *inst.hi.values()]   # lo of v at v-1, hi at n+v-1
    ranks = [0] * (2 * n)
    # stable: a point interval keeps lo before hi
    for rank, i in enumerate(sorted(range(2 * n), key=values.__getitem__)):
        ranks[i] = rank
    return [0, *ranks[:n]], [0, *ranks[n:]]


def greedy_defense_reference(inst: IntervalInstance, k: int) -> VertexMultiset:
    """Literal restatement of the greedy, quadratic on purpose.

    Kept as the differential-testing partner for the fast sweep below; the
    two must produce identical multisets.
    """
    if k < 1:
        raise InputError("attack budget k must be at least 1")
    validate(inst)
    lr, rr = _endpoint_ranks(inst)
    defense: VertexMultiset = {}
    by_right = sorted(inst.vertices, key=lambda v: rr[v])
    prefix: list[int] = []   # descending left endpoints
    for v in by_right:
        x = rr[v]
        pos = 0
        while pos < len(prefix) and lr[prefix[pos]] > lr[v]:
            pos += 1
        prefix.insert(pos, v)
        for m in range(1, min(len(prefix), k) + 1):
            members = prefix[:m]
            nearby = 0
            for w, c in defense.items():
                if any(lr[w] <= rr[b] and lr[b] <= rr[w] for b in members):
                    nearby += c
            need = m - nearby
            if need > 0:
                candidates = [w for w in inst.vertices if lr[w] < x]
                d = max(candidates, key=lambda w: rr[w])
                defense[d] = defense.get(d, 0) + need
    return defense


def greedy_defense(inst: IntervalInstance, k: int) -> VertexMultiset:
    """Fast sweep producing the same multiset as the reference.

    Works in endpoint-rank space (exact order, machine ints).  State per
    step: the top-k left endpoints of the processed prefix with the running
    maxima of their rights, defender copies split into expired (interval
    closed at or before the sweep line; their rights arrive in ascending
    order) and active (still open; chosen as running argmax of the right
    endpoint, so their lefts and rights both ascend).  A defender placed at
    the line always meets every block examined afterwards in the same step,
    which collapses the inner top-up loop into one running maximum.
    """
    if k < 1:
        raise InputError("attack budget k must be at least 1")
    validate(inst)
    n = inst.n
    defense: VertexMultiset = {}
    if n == 0:
        return defense

    l_rank, r_rank = _endpoint_ranks(inst)
    by_right = sorted(inst.vertices, key=lambda v: r_rank[v])
    by_left = sorted(inst.vertices, key=lambda v: l_rank[v])
    lefts_sorted = [l_rank[v] for v in by_left]
    # pref_best[j]: among the first j+1 intervals in left order, the one
    # reaching furthest right.  The greedy's defender for sweep position x is
    # pref_best at the number of lefts below x, minus one.
    pref_best = [0] * n
    best = by_left[0]
    for j, v in enumerate(by_left):
        if r_rank[v] > r_rank[best]:
            best = v
        pref_best[j] = best

    kk = min(k, n)
    top = np.empty(kk + 1, dtype=np.int64)       # descending prefix lefts
    run_max = np.empty(kk + 1, dtype=np.int64)   # running max right per rank
    mlen = 0
    m_values = np.arange(0, kk + 2, dtype=np.int64)
    exp_r = np.empty(2 * n + 2, dtype=np.int64)
    exp_cum = np.zeros(2 * n + 3, dtype=np.int64)
    ne = 0
    act_l = np.empty(n + 1, dtype=np.int64)
    act_r = np.empty(n + 1, dtype=np.int64)
    act_cum = np.zeros(n + 2, dtype=np.int64)
    head = 0
    na = 0

    for i, v in enumerate(by_right, start=1):
        x = r_rank[v]
        lv = l_rank[v]
        while head < na and act_r[head] <= x:
            exp_r[ne] = act_r[head]
            exp_cum[ne + 1] = exp_cum[ne] + (act_cum[head + 1] - act_cum[head])
            ne += 1
            head += 1
        big = min(i, k)
        rho = int(np.searchsorted(-top[:mlen], -lv, side="left")) + 1
        if rho <= kk:
            keep = min(mlen, kk - 1)
            if keep >= rho:
                tail = top[rho - 1:keep].copy()
                top[rho:keep + 1] = tail
            top[rho - 1] = lv
            mlen = min(mlen + 1, kk)
            run_max[rho - 1:mlen] = x
            if rho <= big:
                a, b = rho - 1, big
                thresholds = top[a:b]
                expired = exp_cum[ne] - exp_cum[
                    np.searchsorted(exp_r[:ne], thresholds, side="left")]
                active = act_cum[head + np.searchsorted(
                    act_l[head:na], run_max[a:b], side="right")] - act_cum[head]
                shortfall = m_values[rho:big + 1] - expired - active
                need = int(shortfall.max(initial=0))
                if need > 0:
                    j = bisect.bisect_left(lefts_sorted, x)
                    d = pref_best[j - 1]
                    defense[d] = defense.get(d, 0) + need
                    if r_rank[d] > x:
                        act_l[na] = l_rank[d]
                        act_r[na] = r_rank[d]
                        act_cum[na + 1] = act_cum[na] + need
                        na += 1
                    else:
                        exp_r[ne] = r_rank[d]
                        exp_cum[ne + 1] = exp_cum[ne] + need
                        ne += 1
    return defense

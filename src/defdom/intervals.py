"""Interval instances and the greedy multiset defense for their graphs.

An instance assigns each vertex 1..n a closed interval with rational
endpoints; the intersection graph connects vertices whose intervals meet.
An endpoint is stored as a plain `int` when it is a whole number and as an
exact `Fraction` otherwise, with no common denominator: integer instances
never touch Fraction arithmetic, and coprime denominators cannot blow up.
No two distinct intervals share an endpoint value (point intervals are
fine): the constructor rejects a tie, and all block and greedy machinery
rests on that.

The constructor keeps the 2n endpoints in one list, `ends`: slot v-1
holds the lo of interval v and slot n+v-1 its hi.  It sorts them once and
keeps the result as `order`, which lists the slots by ascending value, a
point interval's lo just before its hi.  The tie check, the endpoint
ranks, the greedy and the intersection graph all read that order; none
sorts endpoints again.

The greedy sweeps right endpoints in ascending order and, for every prefix
block (the m members of the processed prefix with the largest left
endpoints), tops the nearby defender count up to m, always stationing new
copies on the interval that reaches furthest right while still starting
before the sweep line.  Both implementations work in endpoint-rank space:
exact integer order, and a point interval acquires a positive width there,
which keeps the selection rule total without touching the graph.
`greedy_defense` is the fast path; the literal restatement
`greedy_defense_reference` is kept for differential testing.

The fast path ranks the endpoints in one pass over `order`, then sweeps
`order` itself; `greedy_defense` states the three invariants it rests on.
"""

import operator
from array import array
from bisect import bisect_left
from heapq import heappush, heappushpop
from itertools import chain, islice
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from defdom.errors import InputError

if TYPE_CHECKING:
    from fractions import Fraction

    from defdom.graphs import Graph, VertexMultiset

Endpoint = Union[int, "Fraction"]


def _exact_columns(lo: Sequence, hi: Sequence) -> tuple[list[Endpoint], list[Endpoint]]:
    """Both columns as exact rationals: `int` when whole, else `Fraction`."""
    from fractions import Fraction
    for v, (a, b) in enumerate(zip(lo, hi), start=1):
        if isinstance(a, float) or isinstance(b, float):
            raise InputError(f"interval {v} uses float endpoints; use int or Fraction")

    def exact(x) -> Endpoint:
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x
    return list(map(exact, lo)), list(map(exact, hi))


class IntervalInstance:
    """Vertices 1..n, each owning a closed interval [lo, hi] with lo <= hi.

    Endpoints are exact rationals, stored as `int` when the denominator is 1
    and as `Fraction` otherwise (the two compare and hash alike); floats are
    rejected to keep every comparison exact, and so is an endpoint value
    shared by two intervals.  `ends` holds the endpoints by slot (the lo
    of v at v-1, its hi at n+v-1) and `order` the slots in endpoint order,
    sorted once when the instance is built (see `validate`).
    """

    __slots__ = ("n", "ends", "order")

    def __init__(self, intervals: Mapping[int, tuple[Endpoint, Endpoint]]):
        n = len(intervals)
        if set(intervals) != set(range(1, n + 1)):
            raise InputError("interval ids must be exactly 1..n")
        rows = list(map(intervals.__getitem__, range(1, n + 1)))
        self._build([lo for lo, _ in rows], [hi for _, hi in rows])

    @classmethod
    def from_columns(cls, lo: Sequence[Endpoint],
                     hi: Sequence[Endpoint]) -> "IntervalInstance":
        """The instance whose interval v is [lo[v-1], hi[v-1]], with the
        constructor's checks but no mapping of pairs to build first; the
        two columns have equal length."""
        inst = cls.__new__(cls)
        inst._build(lo, hi)
        return inst

    def _build(self, lo: Sequence[Endpoint], hi: Sequence[Endpoint]) -> None:
        if not {int}.issuperset(map(type, chain(lo, hi))):   # else nothing to convert
            lo, hi = _exact_columns(lo, hi)
        n = len(lo)
        if any(map(operator.gt, lo, hi)):
            v = next(v for v in range(n) if lo[v] > hi[v]) + 1
            raise InputError(f"interval {v} has lo > hi")
        self.n = n
        self.ends: list[Endpoint] = [*lo, *hi]
        self.order = validate(self)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def interval(self, v: int) -> tuple[Endpoint, Endpoint]:
        return self.ends[v - 1], self.ends[self.n + v - 1]

    def items(self):
        return zip(self.vertices, zip(self.ends[:self.n], self.ends[self.n:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalInstance):
            return NotImplemented
        return self.ends == other.ends

    def __repr__(self) -> str:
        return f"IntervalInstance(n={self.n})"


def validate(inst: IntervalInstance) -> "array[int]":
    """Require that no two distinct intervals share an endpoint value, and
    return the instance's endpoint order.

    The order lists the 2n endpoint slots, slot v-1 for the lo of interval
    v and slot n+v-1 for its hi, by ascending value, as machine ints.  One
    stable sort builds it, so a point interval's lo comes just before its
    hi.  A point interval may coincide with itself (lo == hi); any value
    reuse across different vertices is rejected.  So the instance is valid
    exactly when the order has as many equal neighbours as there are point
    intervals; only a failing instance is scanned again to name a culprit
    pair.  Every `IntervalInstance` runs it when built.
    """
    ends = inst.ends
    slots = sorted(range(len(ends)), key=ends.__getitem__)
    ranked = list(map(ends.__getitem__, slots))
    ties = sum(map(operator.eq, ranked, islice(ranked, 1, None)))
    if ties == sum(map(operator.eq, ends, islice(ends, inst.n, None))):
        return array("l", slots)
    seen: dict[Endpoint, tuple[int, str]] = {}
    for v, interval in inst.items():
        for value, kind in zip(interval, ("lo", "hi")):
            if value in seen and seen[value][0] != v:
                w, wk = seen[value]
                raise InputError(
                    f"duplicate endpoint value {value}: {wk} of interval {w} "
                    f"and {kind} of interval {v}")
            seen[value] = (v, kind)


def intersection_graph(inst: IntervalInstance) -> "Graph":
    """Intersection graph via a sweep of the endpoint order."""
    from defdom.graphs import Graph
    n = inst.n
    active: set[int] = set()
    edges: list[tuple[int, int]] = []
    for i in inst.order:     # a point interval opens before it closes
        if i < n:
            v = i + 1
            edges.extend((min(u, v), max(u, v)) for u in active)
            active.add(v)
        else:
            active.discard(i - n + 1)
    return Graph(n, edges)


def properize(inst: IntervalInstance, defense: "VertexMultiset") -> "VertexMultiset":
    """Move defenders off properly contained intervals.

    The copies on a defender's interval that another interval contains move
    onto the containing interval reaching furthest right.  That interval is
    itself inclusion maximal (one containing it would contain the defender
    and reach further), so one pass suffices; the result has the same total
    size and each move can only widen the defenders' reach.
    """
    out: VertexMultiset = {}
    for u, c in defense.items():
        if u not in inst.vertices:
            raise InputError(f"defense mentions unknown interval {u}")
        if c <= 0:
            raise InputError(f"defense count for interval {u} must be positive")
        # endpoints are distinct, so containment is strict on both sides
        lo, hi = inst.interval(u)
        containers = {w: b for w, (a, b) in inst.items() if a < lo and hi < b}
        target = max(containers, key=containers.__getitem__, default=u)
        out[target] = out.get(target, 0) + c
    return out


def _endpoint_ranks(inst: IntervalInstance) -> tuple[list[int], list[int]]:
    """Positions of each endpoint in the sorted order of all 2n endpoints.

    Exact (read off the instance's endpoint order) and order-isomorphic, so
    every cross-interval comparison is preserved; a point interval comes out
    with lo rank < hi rank, giving it positive width without changing the
    intersection graph.
    """
    n = inst.n
    ranks = [0] * (2 * n)
    for rank, i in enumerate(inst.order):
        ranks[i] = rank
    return [0, *ranks[:n]], [0, *ranks[n:]]


def greedy_defense_reference(inst: IntervalInstance, k: int) -> "VertexMultiset":
    """Literal restatement of the greedy, quadratic on purpose.

    Kept as the differential-testing partner for the fast sweep below; the
    two must produce identical multisets.
    """
    if k < 1:
        raise InputError("attack budget k must be at least 1")
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


def greedy_defense(inst: IntervalInstance, k: int) -> "VertexMultiset":
    """Fast sweep producing the same multiset as the reference.

    Works in endpoint-rank space: one pass over the instance's `order`,
    sorted when it was built, writes `rank[i]`, the rank of slot i, and the
    sweep walks `order` itself.  Slot i < n at rank x is the left end of
    vertex i + 1, reaching rank[i + n]; any other slot a right end, opened
    at rank[i - n].  At a left end, `best_right` keeps the furthest right
    reach among the intervals opened so far, and `best` its vertex carries
    every copy placed.  At a right end x, the closing interval's left joins
    the prefix, whose top-k lefts are kept in a heap; if it enters the
    top-k, every block containing it is topped up at once.
    Two invariants make that step cheap:

    1. A copy placed at x starts before x, and every block examined at x or
       later contains the interval that closes there, so a copy still open
       meets all of them.  A closed copy that reaches the block's least left
       t is itself a member or contains t.  So a block's nearby count is the
       number of copies whose right is at or beyond its least left.
    2. `best_right` is at least the right of the interval closing at x and
       never falls, so copies arrive in ascending right order, each beyond
       every current top.  Hence below(t), the number of copies ending
       before t, is fixed once t is a top, and nondecreasing in t.

    So the block of the m largest tops, with least left t, is short by
    m + below(t) - copies.  The tops with equal below form runs, and within
    a run the largest block, reaching down to the run's least top, falls
    furthest short.  Each run therefore keeps one key, below plus the size
    of that block.  The blocks containing the new top are those of its own
    run and the lower ones, so the copies to add are their largest key
    minus the copies placed.  A new top grows those blocks by one (added
    lazily through `lift`), and the top pushed out of the top-k shrinks
    the lowest run's.  A third invariant keeps those lists short:

    3. No interval is open at a left end x exactly when x > best_right,
       and then x starts a new component: every earlier interval and copy
       lies left of x.  A block that mixes components splits into an
       earlier-prefix block, topped up when its last member entered
       (copies only accumulate), and a new-component block, whose closed
       neighbourhood meets no earlier interval or copy.  So a mixed block
       is short by at most what its new part is short by and never needs
       copies, and the new blocks fall equally short with or without the
       earlier state.  The sweep therefore empties `tops`, the runs and
       `rights` there, while `best_right` stays, as the new interval
       reaches furthest.  A step then does O(min(k, c)) list work, c being
       the largest component, and the sweep O(n log n + n·min(k, c)) in all.

    The common right-end step allocates nothing, by two shortcuts that each
    do what the plain statement does: later runs are lowered only when there
    are some (an empty tail has nothing to lower), and a new top in the
    lowest run (r == 0) reads run_key[0], the only key of runs 0..r.  Nor
    does a step build a list of copies, since it places at most one: every
    block is met before m enters; the new top m grows each block that
    contains it by one member, and the new block whose least left is m is
    short by at most one more than the met block of the tops above m,
    because below(m) <= below(t) for t > m.  So the one copy's right is
    appended to `rights`.
    """
    if k < 1:
        raise InputError("attack budget k must be at least 1")
    n = inst.n
    order = inst.order
    rank = array("l", [0]) * (2 * n)        # rank of each endpoint, by slot
    for x, i in enumerate(order):
        rank[i] = x

    defense: VertexMultiset = {}
    tops: list[int] = []       # min-heap: the top-k left ranks of the prefix
    run_below: list[int] = []  # below() of each run of tops, ascending
    run_size: list[int] = []   # tops in each run
    run_key: list[int] = []    # below() plus tops in this and later runs, minus lift
    lift = 0
    rights: list[int] = []     # right rank of every copy placed, ascending
    best_right = best = -1     # furthest right rank open so far, and its vertex
    for x, i in enumerate(order):
        if i < n:                                  # the left end of vertex i + 1
            if x > best_right:                     # nothing open: a new component
                tops, run_below, run_size, run_key, rights = [], [], [], [], []
                lift = 0
            if (right := rank[i + n]) > best_right:
                best_right = right
                best = i + 1
            continue
        m = rank[i - n]                            # a right end, opened at m
        if len(tops) < k:
            heappush(tops, m)
        elif heappushpop(tops, m) == m:            # below every top: no new block
            continue
        else:                                      # the least top left the top-k
            run_size[0] -= 1
            run_key[0] -= 1
            if not run_size[0]:
                del run_below[0], run_size[0], run_key[0]
        below = bisect_left(rights, m)
        r = bisect_left(run_below, below)
        if r == len(run_below) or run_below[r] != below:    # m starts a run
            later = run_key[r] + lift - run_below[r] if r < len(run_below) else 0
            run_below.insert(r, below)
            run_size.insert(r, 0)
            run_key.insert(r, below + later - lift)
        run_size[r] += 1
        lift += 1                                  # m joins the blocks of runs 0..r
        if r + 1 < len(run_key):                   # but no later one
            run_key[r + 1:] = [key - 1 for key in run_key[r + 1:]]
        need = (max(run_key[:r + 1]) if r else run_key[0]) + lift - len(rights)
        if need > 0:                               # need is 1: one copy per step
            defense[best] = defense.get(best, 0) + 1
            rights.append(best_right)
    return defense

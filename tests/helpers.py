"""Small seeded generators and brute-force oracles shared by the tests."""

import itertools
from defdom.defense import good_defense
from defdom.graphs import Graph, closed_neighborhood, count_in
from defdom.intervals import IntervalInstance
from defdom.matching import counters


def random_intervals(rng, n_max=8, allow_points=True):
    n = rng.randint(1, n_max)
    values = rng.sample(range(1, 20 * n + 1), 2 * n)
    rows = {}
    for v in range(1, n + 1):
        a, b = values[2 * v - 2], values[2 * v - 1]
        if allow_points and rng.random() < 0.15:
            a = b
        rows[v] = (min(a, b), max(a, b))
    return IntervalInstance(rows)


def is_proper(inst, defense):
    """No defender's interval properly contained in another defender's."""
    support = sorted(v for v, c in defense.items() if c > 0)
    for u in support:
        for w in support:
            if u == w:
                continue
            (lo_u, hi_u), (lo_w, hi_w) = inst.interval(u), inst.interval(w)
            if (lo_w <= lo_u and hi_u <= hi_w
                    and (lo_w, hi_w) != (lo_u, hi_u)):
                return False
    return True


def dense_intervals(rng, n_max=10, allow_points=False):
    # endpoints packed into a narrow range, so overlaps are the norm
    n = rng.randint(1, n_max)
    values = rng.sample(range(1, 4 * n + 1), 2 * n)
    rows = {}
    for v in range(1, n + 1):
        a, b = values[2 * v - 2], values[2 * v - 1]
        if allow_points and rng.random() < 0.1:
            a = b
        rows[v] = (min(a, b), max(a, b))
    return IntervalInstance(rows)


def clustered_intervals(rng, n, cluster=(4, 16), points=0.0):
    """Bounded-length intervals in well-separated clusters, endpoints distinct.

    A cluster of c intervals draws its 2c endpoints from a window of 3c
    consecutive integers, and windows are one apart, so no component is
    larger than its cluster and the ids run left to right.  Each interval
    is then a point, at the lesser of its two values, with probability
    `points`; at 0, the default, nothing more is drawn from `rng`.
    """
    rows = {}
    base = 1
    while len(rows) < n:
        c = min(rng.randint(*cluster), n - len(rows))
        values = rng.sample(range(base, base + 3 * c), 2 * c)
        for a, b in zip(values[0::2], values[1::2]):
            a, b = min(a, b), max(a, b)
            if points and rng.random() < points:
                b = a
            rows[len(rows) + 1] = (a, b)
        base += 3 * c + 1
    return IntervalInstance(rows)


def interval_components(inst):
    """The components of the intersection graph, left to right.

    One sweep over the sorted endpoints (a point interval opens before it
    closes) cuts wherever no interval is open.  Each component comes back
    as `(part, ids)`: its own instance on vertices 1..|C|, and the id map,
    `ids[j - 1]` being the original id of the part's vertex j.
    """
    events = sorted([(lo, 0, v) for v, (lo, _) in inst.items()]
                    + [(hi, 1, v) for v, (_, hi) in inst.items()])
    parts, members, open_now = [], [], 0
    for _, closing, v in events:
        if not closing:
            open_now += 1
            members.append(v)
            continue
        open_now -= 1
        if not open_now:
            ids = sorted(members)
            parts.append((IntervalInstance({j: inst.interval(w) for j, w in enumerate(ids, 1)}),
                          ids))
            members = []
    return parts


def random_simple_graph(rng, n_max=8, n_min=1):
    n = rng.randint(n_min, n_max)
    p = rng.uniform(0.15, 0.85)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    return Graph(n, edges)


def random_split_graph(rng, parts=3, n_max=6):
    """Disjoint union of 1..parts random graphs, vertex ids shuffled so the
    components interleave."""
    pieces = [random_simple_graph(rng, n_max=n_max) for _ in range(rng.randint(1, parts))]
    return shuffled_union(rng, pieces)[0]


def shuffled_union(rng, pieces):
    """Disjoint union of the graphs, vertex ids shuffled so the components
    interleave; returns it with the id map, the union's `ids[base + v - 1]`
    being vertex v of the piece whose predecessors hold `base` vertices."""
    ids = list(range(1, sum(p.n for p in pieces) + 1))
    rng.shuffle(ids)
    edges, base = [], 0
    for piece in pieces:
        edges += [(ids[base + u - 1], ids[base + v - 1])
                  for u in piece.vertices for v in piece.adj[u] if u < v]
        base += piece.n
    return Graph(len(ids), edges), ids


def random_defense(rng, g, max_copies=2, density=0.5):
    defense = {}
    for v in g.vertices:
        if rng.random() < density:
            defense[v] = rng.randint(1, max_copies)
    return defense


def attacks_up_to(g, k):
    for size in range(1, k + 1):
        yield from itertools.combinations(g.vertices, size)


def hall_ok(g, defense, attack):
    """Independent countering oracle: every attacker subset must see enough
    defender copies in its joint closed neighborhood."""
    attack = list(attack)
    for size in range(1, len(attack) + 1):
        for subset in itertools.combinations(attack, size):
            hood = closed_neighborhood(g, subset)
            copies = sum(c for v, c in defense.items() if v in hood)
            if copies < size:
                return False
    return True


def brute_matching_size(adjacency, num_left):
    """Maximum bipartite matching by exhaustive assignment (tiny inputs)."""
    best = 0
    lefts = list(range(num_left))

    def extend(i, used, size):
        nonlocal best
        best = max(best, size)
        if i == len(lefts) or size + (len(lefts) - i) <= best:
            return
        extend(i + 1, used, size)
        for r in adjacency.get(lefts[i], ()):
            if r not in used:
                extend(i + 1, used | {r}, size + 1)

    extend(0, frozenset(), 0)
    return best


def brute_dominating_number(g):
    for size in range(0, g.n + 1):
        for combo in itertools.combinations(g.vertices, size):
            if closed_neighborhood(g, combo) == frozenset(g.vertices):
                return size
    raise AssertionError("unreachable")


def is_clique(g, members):
    members = sorted(members)
    return all(g.has_edge(u, v)
               for i, u in enumerate(members) for v in members[i + 1:])


def brute_has_clique(g, t):
    if t <= 1:
        return g.n >= t
    return any(is_clique(g, combo)
               for combo in itertools.combinations(g.vertices, t))


# ------------------------------------------------ enumeration reference solvers
#
# Plain enumeration of every candidate defense, in ascending size and
# lexicographic order on the expanded sorted tuple within a size.  The
# package's cut-pruned solvers must return the same optimum and witness.


def capped_multisets(vertices, total, caps):
    """Multisets of the given total size with count <= caps[v] per vertex,
    in lexicographic order of their expanded sorted tuples."""
    vertices = list(vertices)

    def rec(idx, remaining, acc):
        if remaining == 0:
            yield dict(acc)
            return
        if idx == len(vertices) or remaining > sum(caps[v] for v in vertices[idx:]):
            return
        v = vertices[idx]
        for c in range(min(caps[v], remaining), -1, -1):
            if c:
                acc.append((v, c))
            yield from rec(idx + 1, remaining - c, acc)
            if c:
                acc.pop()

    yield from rec(0, total, [])


def reference_min_set_defense(g, k):
    """(optimum, witness set) by enumerating vertex subsets."""
    for size in range(0, g.n + 1):
        for combo in itertools.combinations(g.vertices, size):
            if good_defense(g, {v: 1 for v in combo}, k, strategy="exhaustive"):
                return size, frozenset(combo)
    raise AssertionError("unreachable: the full vertex set is always a defense")


def reference_min_multiset_defense(g, k):
    """(optimum, witness multiset) by enumerating multisets capped at k."""
    caps = {v: k for v in g.vertices}
    for size in range(0, g.n + 1):
        for defense in capped_multisets(g.vertices, size, caps):
            if good_defense(g, defense, k, strategy="exhaustive"):
                return size, defense
    raise AssertionError("unreachable: one defender per vertex is always enough")


def reference_min_constrained_multiset(g, attacks, lower, upper):
    """(optimum, witness) with lower <= D <= upper, or None when upper fails."""
    attacks = [frozenset(a) for a in attacks]

    def ok(defense):
        return all(counters(g, defense, a) for a in attacks)

    if not ok(upper):
        return None
    slack = {v: upper[v] - lower.get(v, 0) for v in sorted(upper)
             if upper[v] > lower.get(v, 0)}
    for extra in range(0, sum(slack.values()) + 1):
        for add in capped_multisets(sorted(slack), extra, slack):
            defense = dict(lower)
            for v, c in add.items():
                defense[v] = defense.get(v, 0) + c
            if ok(defense):
                return sum(lower.values()) + extra, defense
    return None


# ------------------------------------------------ unbounded pruned-search reference
#
# The pruned violator search before its cover bound: enumerate every
# connected size-m subset of the distance-two graph over vertices with fewer
# than m nearby copies, then test each one.  The bounded search must return
# the same first violator and deficiency.


def connected_subsets(neighbors, members, size):
    """The size-`size` subsets of `members` that induce a connected subgraph
    of the mask-encoded graph `neighbors`, each once, in root-anchored
    extension order."""
    member_mask = 0
    for v in members:
        member_mask |= 1 << (v - 1)
    for root in members:
        above = member_mask & ~((1 << root) - 1)
        sub = [root]

        def extend(ext, hood):
            if len(sub) == size:
                yield tuple(sub)
                return
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length()
                sub.append(w)
                yield from extend(ext | (neighbors[w] & above & ~hood),
                                  hood | neighbors[w] | low)
                sub.pop()

        yield from extend(neighbors[root] & above, neighbors[root] | (1 << (root - 1)))


def neighborhood_masks(g):
    """Closed-neighborhood bitmasks (bit v-1 stands for vertex v)."""
    masks = [0] * (g.n + 1)
    for v in g.vertices:
        m = 1 << (v - 1)
        for u in g.adj[v]:
            m |= 1 << (u - 1)
        masks[v] = m
    return masks


def reference_pruned_violator(g, defense, k):
    """(attack, deficiency) of the first violator the unbounded enumeration
    finds, or None."""
    masks = neighborhood_masks(g)
    square = [0] * (g.n + 1)
    for v in g.vertices:
        m = masks[v]
        for u in g.adj[v]:
            m |= masks[u]
        square[v] = m & ~(1 << (v - 1))
    nearby = {v: count_in(defense, closed_neighborhood(g, [v])) for v in g.vertices}
    for m in range(1, min(k, g.n) + 1):
        cand = [v for v in g.vertices if nearby[v] < m]
        if len(cand) < m:
            continue
        for combo in connected_subsets(square, cand, m):
            copies = count_in(defense, closed_neighborhood(g, combo))
            if copies < m:
                return frozenset(combo), m - copies
    return None

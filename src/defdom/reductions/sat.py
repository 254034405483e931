"""Reduction from two-level 3-CNF satisfiability to clique node deletion.

The constructed graph has one K_{c,c} gadget per existential variable, a
two-vertex gadget per universal variable, and a K_{3,3} gadget per clause,
glued together by per-edge clique paddings, one clause clique per clause,
and occurrence wiring.  Deleting s = ac+3c vertices can remove every K_t
(t = b+c) exactly when some existential assignment defeats all universal
responses.

Every vertex carries a structured role label, so certificates survive
serialization and the typed clique audit can work on any (possibly
vertex-deleted) labeled graph without the formula at hand.
"""

import re
from collections import defaultdict
from itertools import combinations, product
from math import inf
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from defdom.errors import InputError
from defdom.formulas import Assignment, E2Formula
from defdom.graphs import Graph, VertexSet, delete_vertices, find_clique
from defdom.reductions.dds import (_INDEX, CndInstance, _Join, _Labels, _require_construction,
                                   _require_stated, _wired_edges)


class SatLayout(NamedTuple):
    """Vertex ids of every gadget part, keyed by source indices, and the
    construction's wiring: every clique and every join it wires."""

    x_pos: dict[int, tuple[int, ...]]   # variable index -> ids numbered 1..c
    x_neg: dict[int, tuple[int, ...]]
    y_pos: dict[int, int]
    y_neg: dict[int, int]
    goods: dict[int, tuple[int, int, int]]   # clause -> good ids by occurrence
    bads: dict[int, tuple[int, int, int]]    # clause -> bad ids; first is ugly
    # a*c*c variable-gadget edges (i, p, q), then 9c clause-gadget edges
    # (k, o, o'), each as its two ends and its t-2 pads; then per clause k its
    # clause clique: the x goods, each followed by its `:Q` core, and q pads
    cliques: tuple[tuple[int, ...], ...]
    # per clause k: each universal good to its own y vertex and both of every
    # other universal gadget, then the ugly vertex to every y vertex; then
    # one join whose parts are the universal gadgets, and one whose parts
    # are the clauses, each its bads and its universal goods
    joins: tuple[_Join, ...]


def _occurrence(f: E2Formula, k: int, o: int) -> tuple[str, int, bool]:
    """(family, index within family, positive?) of occurrence o of clause k."""
    lit = f.clauses[k - 1][o - 1]
    var = abs(lit)
    if var <= f.a:
        return ("x", var, lit > 0)
    return ("y", var - f.a, lit > 0)


def _budget(f: E2Formula) -> tuple[int, int]:
    """The deletion budget s = ac+3c and the clique size t = b+c."""
    return f.a * f.c + 3 * f.c, f.b + f.c


class SatCnd(NamedTuple):
    """A clique-node-deletion instance constructed from a formula."""

    formula: E2Formula
    cnd: CndInstance
    layout: SatLayout

    @property
    def graph(self) -> Graph:
        return self.cnd.graph


def e2sat_to_cnd(f: E2Formula, allow_small: bool = False) -> SatCnd:
    """Build the deletion instance for a formula.

    The standard precondition is more than six clauses; `allow_small`
    waives it for downscaled audit cross-checks (the construction is still
    well formed whenever b+c >= 4).
    """
    if f.c < 1:
        raise InputError("construction requires at least one clause")
    if not allow_small and f.c <= 6:
        raise InputError(f"construction requires c > 6 (got c = {f.c})")
    layout, labels = _sat_layout(f)
    graph = Graph(len(labels), _wired_edges(layout), labels)
    return SatCnd(f, CndInstance(graph, *_budget(f)), layout)


def _sat_layout(f: E2Formula, cap: float = inf) -> tuple[SatLayout, _Labels]:
    """The construction's gadget parts and wiring, and the role label of
    each vertex id."""
    c = f.c
    _, t = _budget(f)
    if t < 4:
        raise InputError(f"downscaled construction still requires b+c >= 4 (got {t})")

    labels = _Labels(f"labels (a={f.a}, b={f.b}, c={c})", cap)
    fresh = labels.fresh
    # t >= 4: each loop allocates an id per iteration or per clause, so work stays within cap
    x_pos = {i: tuple(fresh(f"x{i}:pos:{p}") for p in range(1, c + 1))
             for i in range(1, f.a + 1)}
    x_neg = {i: tuple(fresh(f"x{i}:neg:{p}") for p in range(1, c + 1))
             for i in range(1, f.a + 1)}
    cliques: list[tuple[int, ...]] = []

    def padded(ends: Sequence[int], name: str, count: int) -> None:
        cliques.append((*ends, *(fresh(f"{name}:{j}") for j in range(1, count + 1))))

    for i, p, q in product(range(1, f.a + 1), range(1, c + 1), range(1, c + 1)):
        padded((x_pos[i][p - 1], x_neg[i][q - 1]), f"x{i}:pad:{p}:{q}", t - 2)
    y_pos = {j: fresh(f"y{j}:pos") for j in range(1, f.b + 1)}
    y_neg = {j: fresh(f"y{j}:neg") for j in range(1, f.b + 1)}
    goods = {}
    bads = {}
    for k in range(1, c + 1):
        occ_labels = []
        for o in (1, 2, 3):
            family, idx, positive = _occurrence(f, k, o)
            sign = "pos" if positive else "neg"
            occ_labels.append(fresh(f"c{k}:good:{o}:{family}{idx}:{sign}"))
        goods[k] = tuple(occ_labels)
        bads[k] = (fresh(f"c{k}:ugly:1"), fresh(f"c{k}:bad:2"), fresh(f"c{k}:bad:3"))
    for k, o, op in product(range(1, c + 1), (1, 2, 3), (1, 2, 3)):
        padded((goods[k][o - 1], bads[k][op - 1]), f"c{k}:pad:{o}:{op}", t - 2)
    # with the 9c(t-2) clause pads laid out within cap, the 2b neighbours
    # listed per universal good stay within the ids laid out
    ys = (*y_pos.values(), *y_neg.values())
    joins: list[_Join] = []
    cross = []   # per clause: its bads, then its universal goods
    for k in range(1, c + 1):
        z: list[int] = []
        y_goods = []
        for o in (1, 2, 3):
            family, i, positive = _occurrence(f, k, o)
            good = goods[k][o - 1]
            if family == "y":
                own = y_pos[i] if positive else y_neg[i]
                others = (w for j in y_pos if j != i for w in (y_pos[j], y_neg[j]))
                joins.append(((good,), (own, *others)))
                y_goods.append(good)
                continue
            member = x_pos[i][k - 1] if positive else x_neg[i][k - 1]
            labels[member] += ":Q"
            z += (good, member)
        padded(z, f"c{k}:qpad", t - 1 - len(z) // 2)
        joins.append((bads[k][:1], ys))
        cross.append((*bads[k], *y_goods))
    joins += [tuple((y_pos[j], y_neg[j]) for j in y_pos), tuple(cross)]
    layout = SatLayout(x_pos=x_pos, x_neg=x_neg, y_pos=y_pos, y_neg=y_neg,
                       goods=goods, bads=bads, cliques=tuple(cliques), joins=tuple(joins))
    return layout, labels


_SAT_PATTERNS = (
    ("xcore", re.compile(rf"^x{_INDEX}:(pos|neg):{_INDEX}(:Q)?$")),
    ("xpad", re.compile(rf"^x{_INDEX}:pad:{_INDEX}:{_INDEX}:{_INDEX}$")),
    ("y", re.compile(rf"^y{_INDEX}:(pos|neg)$")),
    ("good", re.compile(rf"^c{_INDEX}:good:([123]):([xy]){_INDEX}:(pos|neg)$")),
    ("bad", re.compile(rf"^c{_INDEX}:(bad|ugly):([123])$")),
    ("cpad", re.compile(rf"^c{_INDEX}:pad:([123]):([123]):{_INDEX}$")),
    ("qpad", re.compile(rf"^c{_INDEX}:qpad:{_INDEX}$")),
)


def _parse_sat_labels(g: Graph) -> dict[str, dict]:
    """Group surviving vertices by role; unlabeled or alien labels reject."""
    parsed: dict[str, dict] = {name: {} for name, _ in _SAT_PATTERNS}
    for vid in g.vertices:
        label = (g.labels or {}).get(vid)
        if label is None:
            raise InputError(f"vertex {vid} carries no role label")
        for name, pattern in _SAT_PATTERNS:
            m = pattern.match(label)
            if m:
                parsed[name][vid] = m.groups()
                break
        else:
            raise InputError(f"vertex {vid} has unrecognized role label {label!r}")
    return parsed


def sat_cnd_from_graph(g: Graph, stated: Optional[Mapping[str, int]] = None) -> SatCnd:
    """Rebuild a full (undeleted) instance, formula included, from labels alone.

    The clauses come from the good labels, a and b from the largest
    existential and universal indices, and s = ac+3c and t = b+c from the
    formula.  `stated`, the file's `c params` entries, may repeat any of s,
    t, a, b and c; a value other than the derived one is refused before a
    vertex id is laid out.  The graph is accepted exactly when it is the
    construction of that formula, vertex ids included, checked as
    `dds_from_graph` checks: vertex count, labels, then the edges as the
    construction yields them.  The accepted graph itself becomes the
    instance's graph.
    """
    parsed = _parse_sat_labels(g)
    a = max((int(grp[0]) for grp in parsed["xcore"].values()), default=0)
    b = max((int(grp[0]) for grp in parsed["y"].values()), default=0)
    occ = {(int(k), int(o)): (family, int(idx), sign == "pos")
           for k, o, family, idx, sign in parsed["good"].values()}
    c = max((k for k, _ in occ), default=0)
    if c < 1:
        raise InputError("no clause gadgets found in labels")
    clauses = []
    for k in range(1, c + 1):
        lits = []
        for o in (1, 2, 3):
            if (k, o) not in occ:
                raise InputError(f"clause {k} is missing occurrence {o}")
            family, idx, positive = occ[(k, o)]
            var = idx if family == "x" else a + idx
            lits.append(var if positive else -var)
        clauses.append(tuple(lits))
    formula = E2Formula(a, b, tuple(clauses))
    s, t = _budget(formula)
    _require_stated(stated, {"s": s, "t": t, "a": a, "b": b, "c": c}, f"a={a}, b={b}, c={c}")
    layout, built = _sat_layout(formula, cap=g.n)
    _require_construction(g, built, _wired_edges(layout))
    return SatCnd(formula, CndInstance(g, s, t), layout)


def valuation_to_deletion(sc: SatCnd, nu: Assignment) -> VertexSet:
    """The forward-direction deletion set for an existential assignment.

    Removes the class falsified by nu in every variable gadget, and the
    goods (bads) of every clause that nu does (does not) already satisfy.
    """
    f, lay = sc.formula, sc.layout
    if len(nu) != f.a:
        raise InputError(f"assignment must cover all {f.a} existential variables")
    removed: set[int] = set()
    for i in range(1, f.a + 1):
        removed.update(lay.x_neg[i] if nu[i - 1] else lay.x_pos[i])
    values = {i + 1: v for i, v in enumerate(nu)}
    for k, clause in enumerate(sc.formula.clauses, start=1):
        x_satisfied = any(
            (lit > 0) == values[abs(lit)]
            for lit in clause if abs(lit) <= f.a)
        removed.update(lay.goods[k] if x_satisfied else lay.bads[k])
    assert len(removed) == sc.cnd.s
    return frozenset(removed)


def deletion_to_valuation(sc: SatCnd, deletion: VertexSet) -> Assignment:
    """Read an existential assignment off a valid deletion set.

    The budget argument forces one full class per variable gadget and one
    full class per clause gadget; any other shape is rejected.
    """
    f, lay = sc.formula, sc.layout
    if len(deletion) > sc.cnd.s:
        raise InputError("deletion set exceeds the budget")
    nu = []
    for i in range(1, f.a + 1):
        if set(lay.x_neg[i]) <= deletion:
            nu.append(True)
        elif set(lay.x_pos[i]) <= deletion:
            nu.append(False)
        else:
            raise InputError(
                f"deletion set contains no full class of variable gadget {i}; "
                "the budget count forces one full class per gadget")
    for k in range(1, f.c + 1):
        if not (set(lay.goods[k]) <= deletion or set(lay.bads[k]) <= deletion):
            raise InputError(
                f"deletion set contains no full class of clause gadget {k}; "
                "the budget count forces goods or bads per clause")
    return tuple(nu)


def kt_witness_from_y(sc: SatCnd, nu: Assignment, mu: Assignment) -> VertexSet:
    """The clique that survives deletion when (nu, mu) satisfies everything.

    Picks the assignment vertex in every universal gadget and, per clause,
    the ugly vertex when it survived, otherwise the good vertex of a
    mu-satisfied universal occurrence.  The result is verified to be a
    pairwise adjacent set of size b+c avoiding the deletion.
    """
    f, lay = sc.formula, sc.layout
    if len(mu) != f.b:
        raise InputError(f"assignment must cover all {f.b} universal variables")
    deletion = valuation_to_deletion(sc, nu)
    witness: list[int] = []
    for j in range(1, f.b + 1):
        witness.append(lay.y_pos[j] if mu[j - 1] else lay.y_neg[j])
    for k in range(1, f.c + 1):
        ugly = lay.bads[k][0]
        if ugly not in deletion:
            witness.append(ugly)
            continue
        chosen = None
        for o in (1, 2, 3):
            family, j, positive = _occurrence(f, k, o)
            if family == "y" and mu[j - 1] == positive:
                chosen = lay.goods[k][o - 1]
                break
        if chosen is None:
            raise InputError(
                f"universal assignment does not satisfy clause {k}, so no "
                "witness vertex is available there")
        witness.append(chosen)
    out = frozenset(witness)
    if len(out) != sc.cnd.t or out & deletion:
        raise InputError("witness construction failed consistency checks")
    return _verify_clique(sc.graph, out)


def _verify_clique(g: Graph, members: Iterable[int]) -> VertexSet:
    """The members as a set, once every pair of them is checked adjacent."""
    out = frozenset(members)
    for u, v in combinations(sorted(out), 2):
        if not g.has_edge(u, v):
            raise InputError(f"claimed clique misses edge ({u},{v})")
    return out


def typed_clique_audit(g: Graph, t: int) -> Optional[VertexSet]:
    """Find a K_t in a labeled construction by checking the four shapes.

    Works on the construction itself or any vertex-deleted remnant of it.
    One pass over the role labels fills three tables: `ends`, the vertex at
    each end of a gadget edge (x cores by sign, goods, bads); `pads`, the
    pad ids of each gadget edge, keyed by shape first so that variable
    gadgets sort before clause gadgets; and `clause`, the survivors of each
    clause clique (its pads, x goods and `:Q` cores).  The shapes are tried
    in order: (a) a variable-gadget edge with its full padding, (b) a
    clause-gadget edge with its full padding, one loop over `pads` for
    both, (c) t survivors of one clause clique, (d) anything built from
    universal-gadget, bad, and universally assigned good vertices, searched
    exactly on that small induced subgraph.  Every witness is re-verified
    edge by edge before being returned.
    """
    if t < 5:
        raise InputError("typed audit requires t >= 5")
    ends: dict[tuple[str, int, int], int] = {}   # (role, gadget, index) -> vertex
    pads: dict[tuple[str, int, int, int], list[int]] = defaultdict(list)
    clause: dict[int, list[int]] = defaultdict(list)
    pool: list[int] = []   # shape (d): y, bad and y-good vertices
    parsed = _parse_sat_labels(g)
    for vid, (i, sign, p, q_flag) in parsed["xcore"].items():
        ends[(sign, int(i), int(p))] = vid
        if q_flag:
            clause[int(p)].append(vid)
    for role, shape in (("xpad", "a"), ("cpad", "b")):
        for vid, (gadget, one, two, _) in parsed[role].items():
            pads[(shape, int(gadget), int(one), int(two))].append(vid)
    for vid, (k, o, family, _, _) in parsed["good"].items():
        ends[("good", int(k), int(o))] = vid
        (clause[int(k)] if family == "x" else pool).append(vid)
    for vid, (k, _, o) in parsed["bad"].items():
        ends[("bad", int(k), int(o))] = vid
        pool.append(vid)
    for vid, (k, _) in parsed["qpad"].items():
        clause[int(k)].append(vid)
    pool.extend(parsed["y"])

    for (shape, gadget, one, two), ids in sorted(pads.items()):
        first, second = ("pos", "neg") if shape == "a" else ("good", "bad")
        u, v = ends.get((first, gadget, one)), ends.get((second, gadget, two))
        if len(ids) == t - 2 and u and v:
            return _verify_clique(g, [u, v, *ids])
    for k in sorted(clause):
        if len(clause[k]) >= t:
            return _verify_clique(g, sorted(clause[k])[:t])
    sub, kept = delete_vertices(g, set(g.vertices).difference(pool))
    found = find_clique(sub, t)
    back = {new: old for old, new in kept.items()}
    return None if found is None else _verify_clique(g, (back[v] for v in found))

import random
from itertools import product

import pytest

from defdom.errors import InputError
from defdom.formulas import E2Formula, satisfying_mu, solve_e2sat
from defdom.graphs import Graph, delete_vertices, has_clique
from defdom.reductions import (e2sat_to_cnd, deletion_to_valuation,
                               kt_witness_from_y, sat_cnd_from_graph,
                               typed_clique_audit, valuation_to_deletion)
from defdom.reductions.dds import _wired_edges
from defdom.reductions.sat import _sat_layout

# Four clauses that pin x1=True to a contradiction over every (y1, y2) sign
# pattern: yes-instance with winning assignment (True,).
YES4 = E2Formula(1, 2, ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3)))

# Seven of the eight sign patterns over (x1, x2, y1): yes with (False, False),
# and big enough clause count to need no waiver.
F7 = E2Formula(2, 1, ((1, 2, 3), (-1, 2, 3), (1, -2, 3), (-1, -2, 3),
                      (1, 2, -3), (-1, 2, -3), (1, -2, -3)))

# One clause repeated seven times is satisfiable whatever the x variables do.
NO7 = E2Formula(2, 1, ((1, 2, 3),) * 7)


def small_formulas():
    yield YES4
    yield E2Formula(1, 2, ((1, 2, 3), (-1, 2, -3), (1, -2, -3)))
    yield E2Formula(2, 2, ((1, 3, 4), (-1, -2, 3), (2, -3, -4)))
    yield E2Formula(1, 2, ((1, 2, 3),) * 4)


def clique_families(sc):
    """The layout's cliques split by family: variable-gadget edges with
    their pads, clause-gadget edges with their pads, and clause cliques."""
    cliques, x_end = sc.layout.cliques, sc.formula.a * sc.formula.c ** 2
    c_end = x_end + 9 * sc.formula.c
    assert len(cliques) == c_end + sc.formula.c
    return cliques[:x_end], cliques[x_end:c_end], cliques[c_end:]


def test_frozen_construction_sizes():
    sc = e2sat_to_cnd(F7)
    assert (sc.graph.n, sc.graph.edge_count()) == (1073, 5117)
    assert (sc.cnd.s, sc.cnd.t) == (35, 8)
    small = e2sat_to_cnd(YES4, allow_small=True)
    assert (small.graph.n, small.graph.edge_count()) == (260, 1034)
    assert (small.cnd.s, small.cnd.t) == (16, 6)


def test_clause_count_preconditions():
    with pytest.raises(InputError, match="c > 6"):
        e2sat_to_cnd(YES4)
    with pytest.raises(InputError, match="at least one clause"):
        e2sat_to_cnd(E2Formula(1, 1, ()), allow_small=True)
    tiny = E2Formula(3, 0, ((1, 2, 3), (1, 2, -3), (-1, -2, 3)))
    with pytest.raises(InputError, match="b\\+c >= 4"):
        e2sat_to_cnd(tiny, allow_small=True)   # t = 0+3 is too small even waived


def test_clause_clique_membership():
    sc = e2sat_to_cnd(F7)
    f, labels = sc.formula, sc.graph.labels
    _, _, clause_cliques = clique_families(sc)
    qpads = [[v for v in clique if ":qpad:" in labels[v]] for clique in clause_cliques]
    for k, (clause, clique) in enumerate(zip(f.clauses, clause_cliques), start=1):
        g = sum(1 for lit in clause if abs(lit) <= f.a)
        assert len(qpads[k - 1]) == sc.cnd.t - 1 - g
        assert len(clique) == sc.cnd.t - 1 + g
        flagged = [v for v in clique if labels[v].endswith(":Q")]
        assert len(flagged) == g
    # every F7 clause mentions both existential variables
    assert all(len(pads) == sc.cnd.t - 3 for pads in qpads)


def test_valuation_roundtrip_all_assignments():
    for f in (YES4, F7):
        sc = e2sat_to_cnd(f, allow_small=True)
        for nu in product((False, True), repeat=f.a):
            deletion = valuation_to_deletion(sc, nu)
            assert len(deletion) == sc.cnd.s
            assert deletion_to_valuation(sc, deletion) == nu


def test_deletion_to_valuation_rejections():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    good = valuation_to_deletion(sc, (True,))
    too_big = set(good)
    v = 1
    while len(too_big) <= sc.cnd.s:
        too_big.add(v)
        v += 1
    with pytest.raises(InputError, match="exceeds the budget"):
        deletion_to_valuation(sc, frozenset(too_big))
    # knock one vertex out of the variable class: no longer a full class
    partial = set(good) - {sc.layout.x_neg[1][0]}
    with pytest.raises(InputError, match="variable gadget 1"):
        deletion_to_valuation(sc, frozenset(partial))
    # keep the variable class, gut the deleted clause class instead
    partial = set(good) - {sc.layout.goods[1][0], sc.layout.bads[1][0]}
    with pytest.raises(InputError, match="clause gadget 1"):
        deletion_to_valuation(sc, frozenset(partial))


def test_valuation_to_deletion_length_check():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    with pytest.raises(InputError):
        valuation_to_deletion(sc, (True, False))


def test_yes_pipeline_kills_every_clique():
    for f in (YES4, F7):
        sc = e2sat_to_cnd(f, allow_small=True)
        res = solve_e2sat(f)
        assert res.verdict
        deletion = valuation_to_deletion(sc, res.winning_nu)
        remnant, _ = delete_vertices(sc.graph, deletion)
        assert typed_clique_audit(remnant, sc.cnd.t) is None


def test_yes_verdicts_match_expectations():
    assert solve_e2sat(YES4).winning_nu == (True,)
    assert solve_e2sat(F7).winning_nu == (False, False)
    assert not solve_e2sat(NO7).verdict


def test_losing_assignment_yields_verified_witness():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    nu = (False,)                      # the losing branch of the yes instance
    mu = satisfying_mu(sc.formula, nu)
    assert mu is not None
    witness = kt_witness_from_y(sc, nu, mu)
    assert len(witness) == sc.cnd.t
    members = sorted(witness)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            assert sc.graph.has_edge(u, v)
    assert not witness & valuation_to_deletion(sc, nu)
    # the witness lives in the universal-side machinery
    labels = sc.graph.labels
    assert any(labels[v].startswith("y") for v in witness)


def test_witness_matches_generic_search_on_remnant():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    nu = (False,)
    deletion = valuation_to_deletion(sc, nu)
    remnant, _ = delete_vertices(sc.graph, deletion)
    assert has_clique(remnant, sc.cnd.t)
    found = typed_clique_audit(remnant, sc.cnd.t)
    assert found is not None and len(found) == sc.cnd.t


def test_kt_witness_requires_satisfying_mu():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    # winning assignment: no mu satisfies the formula, so none can witness
    with pytest.raises(InputError, match="does not satisfy clause"):
        kt_witness_from_y(sc, (True,), (False, False))
    with pytest.raises(InputError):
        kt_witness_from_y(sc, (False,), (True,))   # wrong mu length


def test_typed_audit_size_guard():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    with pytest.raises(InputError, match="t >= 5"):
        typed_clique_audit(sc.graph, 4)


def test_typed_audit_agrees_with_generic_search():
    rng = random.Random(57)
    for f in small_formulas():
        sc = e2sat_to_cnd(f, allow_small=True)
        t = sc.cnd.t
        # the intact construction always holds cliques of size t
        assert typed_clique_audit(sc.graph, t) is not None
        assert has_clique(sc.graph, t)
        for nu in product((False, True), repeat=f.a):
            remnant, _ = delete_vertices(sc.graph, valuation_to_deletion(sc, nu))
            typed = typed_clique_audit(remnant, t)
            assert (typed is not None) == has_clique(remnant, t)
        # a few arbitrary part-deletions for verdict variety
        for _ in range(2):
            cut = rng.sample(range(1, sc.graph.n + 1), sc.graph.n // 3)
            remnant, _ = delete_vertices(sc.graph, cut)
            typed = typed_clique_audit(remnant, t)
            assert (typed is not None) == has_clique(remnant, t)


def test_typed_audit_finds_a_clause_clique():
    # with one pad gone from every x-pad and c-pad clique, shapes (a) and
    # (b) find nothing (a gadget edge with t - 3 pads is only a K_{t-1}),
    # and a clause clique that names an existential variable still holds K_t
    for f in small_formulas():
        sc = e2sat_to_cnd(f, allow_small=True)
        t = sc.cnd.t
        x_family, c_family, clause_cliques = clique_families(sc)
        pads = [clique[2] for clique in x_family + c_family]
        remnant, trans = delete_vertices(sc.graph, pads)
        witness = typed_clique_audit(remnant, t)
        assert (witness is not None) == has_clique(remnant, t)
        assert witness is not None and len(witness) == t
        cliques = [{trans[w] for w in clique} for clique in clause_cliques]
        assert any(witness <= q for q in cliques)


# The audit's witness, in construction ids, on each remnant of the shape
# test below: intact, then with the x pads, the clause pads and the clause
# cliques deleted in turn.
SHAPE_WITNESSES = {
    YES4: ({1, 5, 9, 10, 11, 12}, {77, 80, 101, 102, 103, 104},
           {5, 77, 245, 246, 247, 248}, {78, 80, 84, 86, 90, 92}),
    F7: ({1, 15, 29, 30, 31, 32, 33, 34}, {619, 622, 661, 662, 663, 664, 665, 666},
         {1, 8, 619, 620, 1039, 1040, 1041, 1042}, {621, 622, 627, 633, 639, 645, 651, 657}),
}


@pytest.mark.parametrize("f", [*small_formulas(), F7])
def test_each_shape_finds_a_clique_of_its_family(f):
    # each remnant leaves the earlier shapes nothing, so shape (a), (b),
    # (c) and (d) in turn must answer, with a clique of its own kind
    sc = e2sat_to_cnd(f, allow_small=True)
    lay, t = sc.layout, sc.cnd.t
    x_family, c_family, clause_cliques = clique_families(sc)
    x_pads = [w for clique in x_family for w in clique[2:]]
    c_pads = [w for clique in c_family for w in clique[2:]]
    members = [w for clique in clause_cliques for w in clique]
    pool = {*lay.y_pos.values(), *lay.y_neg.values(),
            *(w for ids in [*lay.bads.values(), *lay.goods.values()] for w in ids)}
    families = [[set(clique) for clique in family] for family in clique_families(sc)]
    families.append([pool - set(members)])   # y, bad and y-good vertices
    found = []
    for cut, family in zip(([], x_pads, x_pads + c_pads, x_pads + c_pads + members), families):
        remnant, trans = delete_vertices(sc.graph, cut)
        back = {new: old for old, new in trans.items()}
        witness = typed_clique_audit(remnant, t)
        assert witness is not None and len(witness) == t
        found.append({back[v] for v in witness})
        assert any(found[-1] <= clique for clique in family)
    if f in SHAPE_WITNESSES:
        assert tuple(found) == SHAPE_WITNESSES[f]


@pytest.mark.parametrize("shape", [0, 1, 2], ids=["a", "b", "c"])
def test_typed_audit_refuses_a_witness_with_a_missing_edge(shape):
    # the shapes read roles, not edges, so a labeled graph that lacks one
    # edge of the clique a shape names must fail the edge-by-edge re-check
    sc = e2sat_to_cnd(YES4, allow_small=True)
    pads = [[w for clique in family for w in clique[2:]] for family in clique_families(sc)[:2]]
    u, v = sorted(SHAPE_WITNESSES[YES4][shape])[:2]
    edges = [e for e in sc.graph.edges() if e != (u, v)]
    broken = Graph(sc.graph.n, edges, sc.graph.labels)
    remnant, trans = delete_vertices(broken, [w for group in pads[:shape] for w in group])
    with pytest.raises(InputError, match=rf"^claimed clique misses edge \({trans[u]},{trans[v]}\)$"):
        typed_clique_audit(remnant, sc.cnd.t)


def test_edge_stream_yields_each_edge_once():
    # the rebuild counts the stream against the file's edge count, so a
    # repeated edge would refuse the construction itself
    rng = random.Random(34)
    for _ in range(60):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        b = max(b, 3 - a)
        clauses = []
        for _ in range(rng.randint(max(1, 4 - b), 4)):
            variables = rng.sample(range(1, a + b + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        f = E2Formula(a, b, tuple(clauses))
        layout, _ = _sat_layout(f)
        streamed = sum(1 for _ in _wired_edges(layout))
        assert streamed == e2sat_to_cnd(f, allow_small=True).graph.edge_count()


def test_label_file_roundtrip():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    rebuilt = sat_cnd_from_graph(sc.graph)
    assert rebuilt.formula == sc.formula
    assert rebuilt.layout == sc.layout
    assert rebuilt.graph == sc.graph
    assert (rebuilt.cnd.s, rebuilt.cnd.t) == (sc.cnd.s, sc.cnd.t)
    stated = {"s": sc.cnd.s, "t": sc.cnd.t, "a": 1, "b": 2, "c": 4}
    assert sat_cnd_from_graph(sc.graph, stated) == rebuilt


def test_reconstruction_rejects_corruption():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    labels = dict(sc.graph.labels)
    labels[1] = "never:a:role"
    broken = Graph(sc.graph.n, sc.graph.edges(), labels)
    with pytest.raises(InputError):
        sat_cnd_from_graph(broken)
    with pytest.raises(InputError):
        sat_cnd_from_graph(Graph(3, [(1, 2)]))
    with pytest.raises(InputError, match=r"^stated s=17 differs from the construction's "
                                         r"s=16 \(a=1, b=2, c=4\)$"):
        sat_cnd_from_graph(sc.graph, {"s": sc.cnd.s + 1, "t": sc.cnd.t})
    # one vertex more or less than the construction
    n = sc.graph.n
    grown = Graph(n + 1, sc.graph.edges(), {**sc.graph.labels, n + 1: "c1:qpad:1"})
    with pytest.raises(InputError, match=r"^labels \(a=1, b=2, c=4\) give a construction "
                                         r"of 260 vertices, the graph has 261$"):
        sat_cnd_from_graph(grown)
    cut, _ = delete_vertices(sc.graph, [n])
    with pytest.raises(InputError, match="of more than 259 vertices, the graph has 259$"):
        sat_cnd_from_graph(cut)
    # another well-formed role label on one vertex, or one edge gone
    pad = sc.layout.cliques[0][2]   # the first pad of variable-gadget edge (1, 1, 1)
    labels = dict(sc.graph.labels)
    labels[pad] = "x1:pad:1:1:9"
    with pytest.raises(InputError, match=rf"^vertex {pad} "):
        sat_cnd_from_graph(Graph(sc.graph.n, sc.graph.edges(), labels))
    u, v = sorted((sc.layout.x_pos[1][0], sc.layout.x_neg[1][0]))
    edges = [e for e in sc.graph.edges() if e != (u, v)]
    with pytest.raises(InputError, match=rf"^vertex {u} "):
        sat_cnd_from_graph(Graph(sc.graph.n, edges, sc.graph.labels))


def test_file_with_an_extra_edge_is_refused():
    sc = e2sat_to_cnd(YES4, allow_small=True)
    # the first pads of variable-gadget edges (1, 1, 1) and (1, 1, 2)
    u, v = sc.layout.cliques[0][2], sc.layout.cliques[1][2]
    extra = Graph(sc.graph.n, [*sc.graph.edges(), (u, v)], sc.graph.labels)
    with pytest.raises(InputError, match="^the file has 1035 edges, the construction 1034$"):
        sat_cnd_from_graph(extra)

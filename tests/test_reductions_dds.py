import itertools
import random

import pytest

from defdom.defense import find_violator
from defdom.errors import InputError
from defdom.graphs import (Graph, complete_graph, cycle_graph, delete_vertices,
                           has_clique, multiset_size, path_graph, random_graph)
from defdom.matching import counters, uncountered
from defdom.reductions import (CndInstance, cnd_to_dds, dds_from_graph,
                               enumerate_serious_attacks, extract_deletion_set,
                               proof_defense, solve_cnd_bruteforce)
from defdom.reductions.dds import _dds_layout, _wired_edges


def k4_pendant():
    # K4 on 1..4 with a pendant 5 hanging off vertex 4
    return Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])


def tiny_instances():
    yield CndInstance(k4_pendant(), 1, 4)
    yield CndInstance(complete_graph(5), 2, 4)
    g = Graph(6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)])
    yield CndInstance(g, 2, 4)
    yield CndInstance(cycle_graph(7), 3, 4)


def padded(inst, deletion):
    """Grow a sub-budget deletion set to exactly s vertices."""
    extra = (v for v in sorted(inst.graph.vertices) if v not in deletion)
    out = set(deletion)
    while len(out) < inst.s:
        out.add(next(extra))
    return frozenset(out)


def test_instance_validation():
    with pytest.raises(InputError):
        CndInstance(path_graph(3), 0, 4)
    with pytest.raises(InputError):
        CndInstance(path_graph(3), 4, 4)   # budget larger than the graph
    with pytest.raises(InputError):
        CndInstance(path_graph(3), 1, 0)


def test_construction_preconditions_named():
    with pytest.raises(InputError, match="t >= 4"):
        cnd_to_dds(CndInstance(path_graph(3), 1, 3))
    with pytest.raises(InputError, match="t\\(t-1\\)/2"):
        cnd_to_dds(CndInstance(path_graph(4), 1, 5))


def test_k4_pendant_frozen_shape():
    dds = cnd_to_dds(CndInstance(k4_pendant(), 1, 4))
    assert dds.graph.n == 137
    assert dds.graph.edge_count() == 863
    assert dds.k == 6
    assert dds.ell == 39
    lay = dds.layout
    assert len(lay.i2) == 0          # n+s - t(t-1)/2 = 6 - 6
    assert len(lay.q2) == 1          # n+s - (t+1) = 6 - 5
    assert len(lay.i3) == 45         # n+s + ell
    assert len(lay.e_vertex) == 7
    assert all(len(lay.i_v[v]) == 6 and len(lay.ip_v[v]) == 4 for v in range(1, 6))
    attacks = list(enumerate_serious_attacks(dds))
    assert len(attacks) == 7         # C(7,6) edge subsets, I2 empty
    assert all(len(a) == 6 for a in attacks)


def two_k4():
    return Graph(8, [(u, v) for base in (0, 4)
                     for u, v in itertools.combinations(range(base + 1, base + 5), 2)])


def test_ell_is_tight():
    # two disjoint K4 need two deletions, so s = 1 is a no-instance; yet the
    # proof's defense for {1} with one more copy, on v''(5), is good, and
    # its extracted set leaves a K4
    inst = CndInstance(two_k4(), 1, 4)
    assert solve_cnd_bruteforce(inst) is None
    dds = cnd_to_dds(inst)
    assert (dds.k, dds.ell) == (9, 63)
    defense = {**proof_defense(dds, frozenset({1})), dds.layout.v_second[5]: 1}
    assert multiset_size(defense) == dds.ell + 1
    assert uncountered(dds.graph, defense, enumerate_serious_attacks(dds)) is None
    assert find_violator(dds.graph, defense, dds.k, strategy="pruned") is None
    deletion = extract_deletion_set(dds, defense)
    assert deletion == frozenset({5})
    assert has_clique(delete_vertices(inst.graph, deletion)[0], inst.t)


def test_edge_vertex_wiring():
    dds = cnd_to_dds(CndInstance(k4_pendant(), 1, 4))
    lay = dds.layout
    e12 = lay.e_vertex[(1, 2)]
    hood = set(dds.graph.adj[e12])
    v_side = {lay.v_prime[1], lay.v_second[1], lay.v_prime[2], lay.v_second[2]}
    assert v_side <= hood
    # plus the complete-bipartite wiring into the Q2 group
    assert set(lay.q2) <= hood
    assert len(hood) == 4 + len(lay.q2)


def test_forward_direction_certificates():
    for inst in itertools.islice(tiny_instances(), 3):
        deletion = solve_cnd_bruteforce(inst)
        assert deletion is not None
        dds = cnd_to_dds(inst)
        defense = proof_defense(dds, padded(inst, deletion))
        assert multiset_size(defense) == dds.ell
        for attack in enumerate_serious_attacks(dds):
            assert counters(dds.graph, defense, attack)


def test_k4_pendant_full_violator_search():
    inst = CndInstance(k4_pendant(), 1, 4)
    dds = cnd_to_dds(inst)
    defense = proof_defense(dds, solve_cnd_bruteforce(inst))
    assert find_violator(dds.graph, defense, dds.k, strategy="pruned") is None


def test_bad_deletion_leaves_a_serious_attack():
    dds = cnd_to_dds(CndInstance(k4_pendant(), 1, 4))
    bad = proof_defense(dds, frozenset({5}))   # pendant: the K4 survives
    missed = [a for a in enumerate_serious_attacks(dds)
              if not counters(dds.graph, bad, a)]
    assert len(missed) == 1
    # the missed attack is exactly the six K4 edge vertices
    expected = {dds.layout.e_vertex[e] for e in [(1, 2), (1, 3), (1, 4),
                                                 (2, 3), (2, 4), (3, 4)]}
    assert missed[0] == frozenset(expected)


def test_roundtrip_on_tiny_instances():
    rng = random.Random(31)
    for inst in tiny_instances():
        dds = cnd_to_dds(inst)
        n = inst.graph.n
        for _ in range(3):
            deletion = frozenset(rng.sample(range(1, n + 1), inst.s))
            defense = proof_defense(dds, deletion)
            assert extract_deletion_set(dds, defense) == deletion


def test_extraction_rejects_foreign_defenses():
    dds = cnd_to_dds(CndInstance(k4_pendant(), 1, 4))
    with pytest.raises(InputError):
        extract_deletion_set(dds, {})
    # all defenders piled far away from the per-vertex classes
    with pytest.raises(InputError):
        extract_deletion_set(dds, {dds.layout.i3[0]: 39})


def moved(defense, src, dst):
    """The defense with one copy moved from src to dst."""
    out = dict(defense)
    out[src] -= 1
    if not out[src]:
        del out[src]
    out[dst] = out.get(dst, 0) + 1
    return out


def test_extraction_undoes_each_normalization_move():
    # K5 with s = 2, t = 4 has one I2 vertex and two Q2 vertices; proof
    # defenses are already normal, so each case undoes one move on one
    dds = cnd_to_dds(CndInstance(complete_graph(5), 2, 4))
    lay, deletion = dds.layout, frozenset({2, 4})
    defense = proof_defense(dds, deletion)
    q2 = lay.q2[0]
    undone = {
        # a v' copy on its Iv class, v'' empty
        "pair class": moved(defense, lay.v_prime[3], lay.i_v[3][2]),
        # a Q2 copy on I2, or on an edge vertex: the proof's middle move,
        # which leaves the source-vertex group as it is
        "I2": moved(defense, q2, lay.i2[0]),
        "edge vertex": moved(defense, q2, lay.e_vertex[(1, 5)]),
        # an extra copy on a v'' of a vertex left in place
        "surplus v''": moved(defense, q2, lay.v_second[1]),
    }
    undone["all three"] = moved(moved(undone["pair class"], lay.q2[1], lay.i2[0]),
                                lay.q1[0], lay.v_second[1])
    for case, changed in undone.items():
        assert changed != defense and multiset_size(changed) == dds.ell, case
        assert extract_deletion_set(dds, changed) == deletion, case


def test_extraction_counts_twin_copies_together():
    # v'(v) and v''(v) have the same open neighbourhood and are not
    # adjacent, so two copies on either one mark v as deleted
    stacked = 0
    for inst in itertools.islice(tiny_instances(), 2):
        dds = cnd_to_dds(inst)
        adj, lay = dds.graph.adj, dds.layout
        deletion = solve_cnd_bruteforce(inst)
        defense = proof_defense(dds, deletion)
        for v in sorted(deletion):
            pair = (lay.v_prime[v], lay.v_second[v])
            assert adj[pair[0]] == adj[pair[1]] and pair[1] not in adj[pair[0]]
            for src, dst in (pair, pair[::-1]):
                changed = moved(defense, src, dst)
                assert find_violator(dds.graph, changed, dds.k, strategy="pruned") is None
                assert extract_deletion_set(dds, changed) == deletion, (v, src)
                stacked += 1
    assert stacked == 6


def test_extraction_of_fuzzed_good_defenses():
    # proof defenses with 1-4 copies moved among the groups the
    # normalization touches, keeping a set or stacking copies: each one
    # the pruned search accepts must give an s-set that leaves no K_t
    rng = random.Random(34)
    kept = {False: 0, True: 0}
    for inst in itertools.islice(tiny_instances(), 3):
        dds = cnd_to_dds(inst)
        lay = dds.layout
        v_group = tuple(w for v in lay.v_prime for w in (lay.v_prime[v], lay.v_second[v]))
        sources = v_group + lay.q2 + tuple(w for ids in lay.i_v.values() for w in ids)
        targets = sources + lay.i2 + tuple(lay.e_vertex.values())
        deletions = [frozenset(c) for c in itertools.combinations(inst.graph.vertices, inst.s)
                     if not has_clique(delete_vertices(inst.graph, c)[0], inst.t)]
        for trial in range(400):
            stack = trial % 2 == 1
            defense = proof_defense(dds, rng.choice(deletions))
            for _ in range(rng.randint(1, 4)):
                src = rng.choice([w for w in sources if w in defense])
                pool = v_group if rng.random() < 0.5 else targets
                dst = rng.choice([w for w in pool if w != src and (stack or w not in defense)])
                defense = moved(defense, src, dst)
            if find_violator(dds.graph, defense, dds.k, strategy="pruned") is not None:
                continue
            kept[max(defense.values()) > 1] += 1
            deletion = extract_deletion_set(dds, defense)
            assert len(deletion) == inst.s, defense
            assert not has_clique(delete_vertices(inst.graph, deletion)[0], inst.t), defense
    assert min(kept.values()) >= 10, kept


def test_extraction_names_each_refusal():
    dds = cnd_to_dds(CndInstance(complete_graph(5), 2, 4))
    lay = dds.layout
    defense = proof_defense(dds, frozenset({2, 4}))
    with pytest.raises(InputError, match=f"vertex {dds.graph.n + 1} outside 1..{dds.graph.n}$"):
        extract_deletion_set(dds, {**defense, dds.graph.n + 1: 1})
    with pytest.raises(InputError, match="must be positive, got 0$"):
        extract_deletion_set(dds, {**defense, lay.i3[0]: 0})
    lone = {w: c for w, c in defense.items() if w != lay.v_prime[3]}
    with pytest.raises(InputError, match="no defender near the classes of source vertex 3$"):
        extract_deletion_set(dds, lone)
    # k + 1 copies on the source group, s + 2 of them on v'(1): the surplus
    # drains from v'(1), which stays marked, and the lowest other pads
    piled = {lay.v_prime[v]: 1 for v in range(1, 6)}
    piled[lay.v_prime[1]] += dds.s + 1
    assert extract_deletion_set(dds, piled) == frozenset({1, 2})
    # one marked vertex short of s: the lowest unmarked one pads the set
    short = moved(defense, lay.v_second[4], lay.q2[0])
    assert extract_deletion_set(dds, short) == frozenset({1, 2})


def test_proof_defense_validates_deletion_set():
    dds = cnd_to_dds(CndInstance(k4_pendant(), 1, 4))
    with pytest.raises(InputError):
        proof_defense(dds, frozenset())           # wrong size
    with pytest.raises(InputError):
        proof_defense(dds, frozenset({1, 2}))     # wrong size
    with pytest.raises(InputError):
        proof_defense(dds, frozenset({99}))       # not a source vertex


def test_file_reconstruction_equals_original():
    dds = cnd_to_dds(CndInstance(k4_pendant(), 1, 4))
    rebuilt = dds_from_graph(dds.graph)
    assert rebuilt.graph == dds.graph
    assert (rebuilt.k, rebuilt.ell, rebuilt.s, rebuilt.t) == (dds.k, dds.ell, dds.s, dds.t)
    assert rebuilt.layout == dds.layout
    stated = {"k": dds.k, "ell": dds.ell, "s": dds.s, "t": dds.t}
    assert dds_from_graph(dds.graph, stated) == rebuilt
    with pytest.raises(InputError, match=r"^stated k=7 differs from the construction's "
                                         r"k=6 \(n=5, s=1, t=4\)$"):
        dds_from_graph(dds.graph, {**stated, "k": dds.k + 1})
    with pytest.raises(InputError):
        dds_from_graph(Graph(2, [(1, 2)]))
    # another well-formed role label on one vertex, or one edge gone
    q1 = dds.layout.q1[0]
    labels = dict(dds.graph.labels)
    labels[q1] = "Q4#1"
    with pytest.raises(InputError, match=rf"^vertex {q1} "):
        dds_from_graph(Graph(dds.graph.n, dds.graph.edges(), labels))
    u, v = sorted((dds.layout.v_prime[1], dds.layout.e_vertex[(1, 2)]))
    edges = [e for e in dds.graph.edges() if e != (u, v)]
    with pytest.raises(InputError, match=rf"^vertex {u} "):
        dds_from_graph(Graph(dds.graph.n, edges, dds.graph.labels))
    # the same construction with two vertex ids swapped is not the construction
    swap = {1: 2, 2: 1}
    renumbered = Graph(dds.graph.n,
                       [(swap.get(x, x), swap.get(y, y)) for x, y in dds.graph.edges()],
                       {swap.get(v, v): label for v, label in dds.graph.labels.items()})
    with pytest.raises(InputError, match="^vertex 1 "):
        dds_from_graph(renumbered)
    # one vertex more or less than the construction
    n = dds.graph.n
    grown = Graph(n + 1, dds.graph.edges(), {**dds.graph.labels, n + 1: "Q4#1"})
    with pytest.raises(InputError, match=r"^labels and parameters \(n=5, s=1, t=4, ell=39\) give "
                                         r"a construction of 137 vertices, the graph has 138$"):
        dds_from_graph(grown)
    cut, _ = delete_vertices(dds.graph, [n])
    with pytest.raises(InputError, match="of more than 136 vertices, the graph has 136$"):
        dds_from_graph(cut)
    # a construction cut short so that a negative ell would explain its size
    small = cnd_to_dds(CndInstance(Graph(3, []), 3, 4))
    cut, _ = delete_vertices(small.graph, small.layout.i3 + (small.graph.n,))
    with pytest.raises(InputError, match=r"^stated ell=-7 differs from the "
                                         r"construction's ell=31 \(n=3, s=3, t=4\)$"):
        dds_from_graph(cut, {"k": small.k, "ell": -(small.k + 1)})


def test_edge_stream_yields_each_edge_once():
    # the rebuild counts the stream against the file's edge count, so a
    # repeated edge would refuse the construction itself
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(5, 10)
        inst = CndInstance(random_graph(n, rng.random(), rng.randrange(1000)),
                           rng.randint(1, n), 4)
        layout, _ = _dds_layout(inst)
        assert sum(1 for _ in _wired_edges(layout)) == cnd_to_dds(inst).graph.edge_count()


def test_file_with_an_extra_edge_is_refused():
    dds = cnd_to_dds(CndInstance(k4_pendant(), 1, 4))
    u, v = dds.layout.i3[:2]   # I3 is an independent set
    extra = Graph(dds.graph.n, [*dds.graph.edges(), (u, v)], dds.graph.labels)
    with pytest.raises(InputError, match="^the file has 864 edges, the construction 863$"):
        dds_from_graph(extra)


def test_solve_cnd_bruteforce_examples():
    # C4 holds no triangle, so the empty deletion already works
    assert solve_cnd_bruteforce(CndInstance(cycle_graph(4), 1, 3)) == frozenset()
    # K4 needs one vertex gone; ties break toward the smallest
    assert solve_cnd_bruteforce(CndInstance(complete_graph(4), 1, 4)) == frozenset({1})
    # K5 cannot be freed of triangles by two deletions
    assert solve_cnd_bruteforce(CndInstance(complete_graph(5), 2, 3)) is None


def test_solve_cnd_agrees_with_generic_clique_search():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(4, 7)
        p = rng.uniform(0.4, 0.9)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        g = Graph(n, edges)
        s, t = rng.randint(1, 2), rng.randint(3, 4)
        deletion = solve_cnd_bruteforce(CndInstance(g, s, t))
        if deletion is None:
            # every deletion of size <= s leaves some K_t
            for combo in itertools.combinations(g.vertices, s):
                assert has_clique(delete_vertices(g, combo)[0], t)
        else:
            assert len(deletion) <= s
            assert not has_clique(delete_vertices(g, deletion)[0], t)

"""`defdom audit`: re-check a reduction's instance and certificate."""

from defdom.cli import _listing, _log, _param


def add_arguments(p) -> None:
    psub = p.add_subparsers(dest="kind", required=True)
    for kind, func, outcome in (("dds-forward", dds_forward, "full verification"),
                                ("dds-roundtrip", dds_roundtrip, "extracted deletion set")):
        q = psub.add_parser(kind, help=f"deletion set -> defense -> {outcome}")
        q.add_argument("graph")
        q.add_argument("--deletion", required=True, metavar="FILE")
        q.set_defaults(func=func)
    q = psub.add_parser("cnd-certificate",
                        help="valuation -> deletion -> typed no-clique audit")
    q.add_argument("graph")
    q.add_argument("--valuation", required=True, metavar="FILE")
    q.set_defaults(func=cnd_certificate)
    q = psub.add_parser("clique-typed",
                        help="typed audit vs generic clique search")
    q.add_argument("graph")
    q.add_argument("--t", type=int)
    q.set_defaults(func=clique_typed)


def _load_dds(args):
    """The rebuilt instance, the deletion set and the proof's defense for it."""
    from defdom.io import read_graph, read_vertex_set
    from defdom.reductions.dds import dds_from_graph, proof_defense
    g, params = read_graph(args.graph)
    dds = dds_from_graph(g, params)
    deletion = read_vertex_set(args.deletion)
    return dds, deletion, proof_defense(dds, deletion)


def dds_forward(args) -> tuple:
    from defdom.defense import find_violator
    from defdom.graphs import multiset_size
    from defdom.matching import uncountered
    from defdom.reductions.dds import enumerate_serious_attacks
    dds, _, defense = _load_dds(args)
    reached = uncountered(dds.graph, defense, enumerate_serious_attacks(dds))
    if reached is not None:
        _log(f"FAIL: attackers {_listing(reached)} of a serious attack see "
             "fewer defenders than their number")
        return "fail", len(reached)
    violator = find_violator(dds.graph, defense, dds.k, strategy="pruned")
    if violator is not None:
        _log(f"FAIL: attack {_listing(violator.attack)} exceeds nearby defenders "
             f"by {violator.deficiency}")
        return "fail", violator.deficiency
    _log("PASS: defense counters every serious attack and the full search finds none")
    return "pass", multiset_size(defense)


def dds_roundtrip(args) -> tuple:
    from defdom.reductions.dds import extract_deletion_set
    dds, deletion, defense = _load_dds(args)
    recovered = extract_deletion_set(dds, defense)
    if recovered != deletion:
        _log(f"FAIL: extraction returned {{{_listing(recovered)}}}")
        return "fail", len(recovered)
    _log("PASS: extraction recovered the deletion set exactly")
    return "pass", len(recovered)


def cnd_certificate(args) -> tuple:
    from defdom.graphs import delete_vertices
    from defdom.io import read_graph, read_valuation
    from defdom.reductions.sat import (sat_cnd_from_graph, typed_clique_audit,
                                       valuation_to_deletion)
    g, params = read_graph(args.graph)
    sc = sat_cnd_from_graph(g, params)
    t = sc.cnd.t
    nu = read_valuation(args.valuation, expected=sc.formula.a)
    deletion = valuation_to_deletion(sc, nu)
    remnant, mapping = delete_vertices(g, deletion)
    back = {new: old for old, new in mapping.items()}
    witness = typed_clique_audit(remnant, t)
    if witness is not None:
        _log(f"FAIL: a size-{t} clique survives the deletion: "
             f"{_listing(back[v] for v in witness)}")
        return "fail", t
    _log(f"PASS: no size-{t} clique survives; the valuation wins")
    return "pass", len(deletion)


def clique_typed(args) -> tuple:
    from defdom.graphs import find_clique
    from defdom.io import read_graph
    from defdom.reductions.sat import typed_clique_audit
    g, params = read_graph(args.graph)
    t = _param(args.t, params, "t")
    typed = typed_clique_audit(g, t)
    generic = find_clique(g, t)
    if (typed is None) != (generic is None):
        _log(f"FAIL: typed audit says {typed}, generic search says {generic}")
        return ("fail",)
    state = "both found a clique" if typed is not None else "both found none"
    _log(f"PASS: {state}")
    return "pass", t

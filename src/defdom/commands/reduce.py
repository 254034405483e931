"""`defdom reduce`: build an instance of one of the hardness reductions."""

from defdom.cli import _log, _param


def add_arguments(p) -> None:
    psub = p.add_subparsers(dest="kind", required=True)
    q = psub.add_parser("cnd-to-dds",
                        help="clique node deletion -> defensive domination")
    q.add_argument("input", help="graph file; s and t via flags or 'c params'")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--s", type=int)
    q.add_argument("--t", type=int)
    q.set_defaults(func=run)
    q = psub.add_parser("e2sat-to-cnd",
                        help="two-level satisfiability -> clique node deletion")
    q.add_argument("input", help="formula file")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--allow-small", action="store_true",
                   help="waive the clause-count requirement (audit use)")
    q.set_defaults(func=run)


def run(args) -> tuple:
    from defdom.io import read_formula, read_graph, write_graph
    if args.kind == "cnd-to-dds":
        from defdom.reductions.dds import CndInstance, cnd_to_dds
        g, params = read_graph(args.input)
        s = _param(args.s, params, "s")
        t = _param(args.t, params, "t")
        dds = cnd_to_dds(CndInstance(g, s, t))
        write_graph(args.output, dds.graph,
                    {"k": dds.k, "ell": dds.ell, "s": s, "t": t})
        _log(f"wrote instance with {dds.graph.n} vertices, k={dds.k}, ell={dds.ell}")
        return "ok", dds.k, args.output
    from defdom.reductions.sat import e2sat_to_cnd
    formula = read_formula(args.input)
    sc = e2sat_to_cnd(formula, allow_small=args.allow_small)
    write_graph(args.output, sc.graph,
                {"s": sc.cnd.s, "t": sc.cnd.t,
                 "a": formula.a, "b": formula.b, "c": formula.c})
    _log(f"wrote instance with {sc.graph.n} vertices, s={sc.cnd.s}, t={sc.cnd.t}")
    return "ok", sc.cnd.s, args.output

"""`defdom clique`: find one clique of a given size."""

from defdom.cli import _emit, _listing, _log


def add_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("t", type=int)
    p.add_argument("--emit-witness", metavar="FILE")
    p.set_defaults(func=run)


def run(args) -> tuple:
    from defdom.graphs import find_clique
    from defdom.io import read_graph, write_vertex_set
    g, _ = read_graph(args.graph)
    witness = find_clique(g, args.t)
    if witness is None:
        _log(f"NONE: no clique of size {args.t}")
        return ("none",)
    _log(f"FOUND: {{{_listing(witness)}}}")
    return "found", args.t, _emit(args.emit_witness, write_vertex_set, witness)

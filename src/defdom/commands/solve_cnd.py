"""`defdom solve-cnd`: clique node deletion by brute force."""

from defdom.cli import _emit, _listing, _log, _param


def add_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--emit-deletion", metavar="FILE")
    p.set_defaults(func=run)


def run(args) -> tuple:
    from defdom.io import read_graph, write_vertex_set
    from defdom.reductions.dds import CndInstance, solve_cnd_bruteforce
    g, params = read_graph(args.graph)
    s = _param(args.s, params, "s")
    t = _param(args.t, params, "t")
    deletion = solve_cnd_bruteforce(CndInstance(g, s, t))
    if deletion is None:
        _log(f"NO: no {s} vertices remove every size-{t} clique")
        return ("no",)
    _log(f"YES: delete {{{_listing(deletion)}}}")
    return "yes", len(deletion), _emit(args.emit_deletion, write_vertex_set, deletion)

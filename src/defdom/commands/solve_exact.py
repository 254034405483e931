"""`defdom solve-exact`: the smallest defense, by exact cut-pruned search."""

from defdom.cli import _emit, _format_multiset, _listing, _log
from defdom.errors import InputError


def add_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("--multiset", action="store_true",
                   help="allow several copies per vertex")
    p.add_argument("--attacks", metavar="FILE",
                   help="counter exactly these attacks instead of all size-k ones")
    p.add_argument("--lower", metavar="FILE", help="multiset every solution must contain")
    p.add_argument("--upper", metavar="FILE",
                   help="multiset every solution must stay within (default: the longest "
                        "listed attack or the --lower count, whichever is larger)")
    p.add_argument("--emit-defense", metavar="FILE")
    p.set_defaults(func=run)


def run(args) -> tuple:
    from defdom.io import (read_attacks, read_graph, read_multiset,
                           write_multiset, write_vertex_set)
    from defdom.solvers import (min_constrained_multiset, min_multiset_defense,
                                min_set_defense)
    g, _ = read_graph(args.graph)
    if args.attacks is not None:
        if args.k is not None or args.multiset:
            raise InputError("--attacks takes neither an attack size k nor --multiset")
        attacks = read_attacks(args.attacks)
        lower = read_multiset(args.lower) if args.lower else {}
        if args.upper:
            upper = read_multiset(args.upper)
        else:
            cap = max((len(a) for a in attacks), default=1)
            upper = {v: max(cap, lower.get(v, 0)) for v in g.vertices}
        result = min_constrained_multiset(g, attacks, lower, upper)
        if result is None:
            _log("NONE: even the upper bound fails to counter the attack list")
            return ("none",)
    else:
        if args.k is None:
            raise InputError("this command needs the attack size k")
        if args.lower or args.upper:
            raise InputError("--lower/--upper require --attacks")
        result = (min_multiset_defense if args.multiset else min_set_defense)(g, args.k)
    if args.attacks is not None or args.multiset:
        _log(f"optimum {result.optimum}: {_format_multiset(result.witness)}")
        write = write_multiset
    else:
        _log(f"optimum {result.optimum}: {{{_listing(result.witness)}}}")
        write = write_vertex_set
    return "optimal", result.optimum, _emit(args.emit_defense, write, result.witness)

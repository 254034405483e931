"""`defdom verify`: check a defense against every attack up to size k."""

from defdom.cli import _listing, _log


def add_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("defense")
    p.add_argument("k", type=int)
    p.add_argument("--multiset", action="store_true",
                   help="read the defense as '<v> <count>' lines")
    p.set_defaults(func=run)


def run(args) -> tuple:
    from defdom.defense import find_violator
    from defdom.io import read_graph, read_multiset, read_vertex_set
    g, _ = read_graph(args.graph)
    if args.multiset:
        defense = read_multiset(args.defense)
    else:
        defense = {v: 1 for v in read_vertex_set(args.defense)}
    violator = find_violator(g, defense, args.k, strategy="pruned")
    if violator is None:
        _log(f"GOOD: defense counters every attack of size <= {args.k}")
        return "good", 0
    _log(f"BAD: attack {_listing(violator.attack)} exceeds nearby defenders "
         f"by {violator.deficiency}")
    return "bad", violator.deficiency

"""`defdom greedy`: the greedy multiset defense of an interval instance."""

from defdom.cli import _emit, _format_multiset, _listing, _log


def add_arguments(p) -> None:
    p.add_argument("intervals")
    p.add_argument("k", type=int)
    p.add_argument("--emit-defense", metavar="FILE")
    p.add_argument("--check", action="store_true",
                   help="re-verify the output with the pruned violator search")
    p.set_defaults(func=run)


def run(args) -> tuple:
    from defdom.intervals import greedy_defense
    from defdom.io import read_intervals, write_multiset
    inst = read_intervals(args.intervals)
    defense = greedy_defense(inst, args.k)
    size = sum(defense.values())
    _log(f"greedy defense of size {size}: {_format_multiset(defense)}")
    cert = _emit(args.emit_defense, write_multiset, defense)
    if not args.check:
        return "ok", size, cert
    from defdom.defense import find_violator
    from defdom.intervals import intersection_graph
    violator = find_violator(intersection_graph(inst), defense, args.k, strategy="pruned")
    if violator is not None:
        _log(f"BAD: greedy output failed its own check on attack {_listing(violator.attack)}")
        return "bad", size, cert
    _log("GOOD: pruned violator search confirms the defense")
    return "good", size, cert

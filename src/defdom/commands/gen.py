"""`defdom gen`: deterministic instance generators."""

from typing import TYPE_CHECKING

from defdom.cli import _gen_intervals, _log
from defdom.errors import InputError

if TYPE_CHECKING:
    from defdom.formulas import E2Formula


def add_arguments(p) -> None:
    psub = p.add_subparsers(dest="kind", required=True)
    for kind, flags in (
            ("interval", ("n",)), ("random", ("n", "p")), ("star", ("leaves",)),
            ("path", ("n",)), ("cycle", ("n",)), ("complete", ("n",)),
            ("formula", ("a", "b", "c"))):
        q = psub.add_parser(kind)
        for flag in flags:
            if flag == "p":
                q.add_argument("--p", type=float, required=True)
            else:
                q.add_argument(f"--{flag}", type=int, required=True)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("-o", "--output", required=True)
        q.set_defaults(func=run)


def _gen_formula(a: int, b: int, c: int, seed: int) -> "E2Formula":
    import random

    from defdom.formulas import E2Formula
    if a + b < 3:
        raise InputError("formula generation needs at least three variables")
    if c < 0:
        raise InputError("formula generation needs c >= 0")
    rng = random.Random(seed)
    clauses = []
    for _ in range(c):
        variables = rng.sample(range(1, a + b + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return E2Formula(a, b, tuple(clauses))


def run(args) -> tuple:
    if args.kind == "interval":
        from defdom.io import write_intervals
        write_intervals(args.output, _gen_intervals(args.n, args.seed))
    elif args.kind == "formula":
        from defdom.io import write_formula
        write_formula(args.output, _gen_formula(args.a, args.b, args.c, args.seed))
    else:
        from defdom.graphs import (complete_graph, cycle_graph, path_graph,
                                   random_graph, star_graph)
        from defdom.io import write_graph
        if args.kind == "star":
            g = star_graph(args.leaves)
        elif args.kind == "random":
            g = random_graph(args.n, args.p, args.seed)
        elif args.kind == "path":
            g = path_graph(args.n)
        elif args.kind == "cycle":
            g = cycle_graph(args.n)
        else:
            g = complete_graph(args.n)
        write_graph(args.output, g)
    _log(f"wrote {args.kind} instance to {args.output} (seed {args.seed})")
    return "ok", args.seed, args.output

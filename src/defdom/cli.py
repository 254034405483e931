"""Command-line front end.

Every command prints human-readable detail to stderr and returns its record
(verdict, value, certificate); value and certificate default to "-".  Only
`main` prints the record, as one stdout line, once: after the command
finishes or after the time limit fires, with the alarm cancelled, or after
a usage error.  `--help` alone prints its text and exits 0 without one.

    verdict=<word> value=<number or -> certificate=<path or ->

`_EXIT_CODES` maps the verdict to the exit code: 0 = affirmative/optimal
(good, optimal, ok, pass, yes, found), 1 = negative/infeasible (bad, none,
fail, no), 2 = usage or input error, or memory exhausted (error), 3 = time
limit exceeded (timeout).

Each command imports the modules it runs when it runs, so a job loads only
its own code, and `main` builds the argument parser of that command alone.
"""

import argparse
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from defdom.errors import InputError

if TYPE_CHECKING:
    from defdom.formulas import E2Formula
    from defdom.intervals import IntervalInstance


MAX_TIME_LIMIT = 2**31 - 1   # signal.alarm takes a C int

_EXIT_CODES = {**dict.fromkeys(("good", "optimal", "ok", "pass", "yes", "found"), 0),
               **dict.fromkeys(("bad", "none", "fail", "no"), 1),
               "error": 2, "timeout": 3}


class _Timeout(Exception):
    pass


@contextmanager
def _alarm(seconds: Optional[int]):
    if seconds is None:
        yield
        return
    if not 1 <= seconds <= MAX_TIME_LIMIT:
        raise InputError(f"--time-limit must lie in 1..{MAX_TIME_LIMIT} seconds")
    import signal   # about 1 ms of start-up, so only a job with a limit pays it

    def handler(signum, frame):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, handler)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _record(verdict: str, value="-", certificate="-") -> None:
    print(f"verdict={verdict} value={value} certificate={certificate}")


def _require_k(k: Optional[int]) -> int:
    if k is None:
        raise InputError("this command needs the attack size k")
    return k


def _param(args_value: Optional[int], params: dict, name: str) -> int:
    if args_value is not None:
        return args_value
    if name in params:
        return params[name]
    raise InputError(f"parameter {name} missing: pass --{name} or a 'c params' line")


def _format_multiset(d) -> str:
    return " ".join(f"{v}x{c}" for v, c in sorted(d.items()) if c) or "(empty)"


def _listing(vertices) -> str:
    return " ".join(str(v) for v in sorted(vertices))


def _emit(path: Optional[str], write, data) -> str:
    """Write a certificate if one was asked for; the record's certificate field."""
    if path is None:
        return "-"
    write(path, data)
    return path


# ---------------------------------------------------------------- commands


def cmd_verify(args) -> tuple:
    from defdom.defense import find_violator
    from defdom.io import read_graph, read_multiset, read_vertex_set
    g, _ = read_graph(args.graph)
    k = _require_k(args.k)
    if args.multiset:
        defense = read_multiset(args.defense)
    else:
        defense = {v: 1 for v in read_vertex_set(args.defense)}
    violator = find_violator(g, defense, k, strategy=args.strategy)
    if violator is None:
        _log(f"GOOD: defense counters every attack of size <= {k}")
        return "good", 0
    _log(f"BAD: attack {_listing(violator.attack)} exceeds nearby defenders "
         f"by {violator.deficiency}")
    return "bad", violator.deficiency


def cmd_solve_exact(args) -> tuple:
    from defdom.io import (read_attacks, read_graph, read_multiset,
                           write_multiset, write_vertex_set)
    from defdom.solvers import (min_constrained_multiset, min_multiset_defense,
                                min_set_defense)
    g, _ = read_graph(args.graph)
    if args.attacks is not None:
        attacks = read_attacks(args.attacks)
        lower = read_multiset(args.lower) if args.lower else {}
        if args.upper:
            upper = read_multiset(args.upper)
        else:
            cap = max((len(a) for a in attacks), default=1)
            upper = {v: cap for v in g.vertices}
        result = min_constrained_multiset(g, attacks, lower, upper)
        if result is None:
            _log("NONE: even the upper bound fails to counter the attack list")
            return ("none",)
    else:
        k = _require_k(args.k)
        if args.lower or args.upper:
            raise InputError("--lower/--upper require --attacks")
        result = (min_multiset_defense if args.multiset else min_set_defense)(g, k)
    if args.attacks is not None or args.multiset:
        _log(f"optimum {result.optimum}: {_format_multiset(result.witness)}")
        write = write_multiset
    else:
        _log(f"optimum {result.optimum}: {{{_listing(result.witness)}}}")
        write = write_vertex_set
    return "optimal", result.optimum, _emit(args.emit_defense, write, result.witness)


def cmd_greedy(args) -> tuple:
    from defdom.intervals import greedy_defense
    from defdom.io import read_intervals, write_multiset
    inst = read_intervals(args.intervals)
    k = _require_k(args.k)
    defense = greedy_defense(inst, k)
    size = sum(defense.values())
    _log(f"greedy defense of size {size}: {_format_multiset(defense)}")
    cert = _emit(args.emit_defense, write_multiset, defense)
    if not args.check:
        return "ok", size, cert
    from defdom.defense import find_violator
    from defdom.intervals import intersection_graph
    violator = find_violator(intersection_graph(inst), defense, k, strategy="pruned")
    if violator is not None:
        _log(f"BAD: greedy output failed its own check on attack {_listing(violator.attack)}")
        return "bad", size, cert
    _log("GOOD: pruned violator search confirms the defense")
    return "good", size, cert


def cmd_reduce(args) -> tuple:
    from defdom.io import read_formula, read_graph, write_graph
    if args.kind == "cnd-to-dds":
        from defdom.reductions.dds import CndInstance, cnd_to_dds
        g, params = read_graph(args.input)
        s = _param(args.s, params, "s")
        t = _param(args.t, params, "t")
        dds = cnd_to_dds(CndInstance(g, s, t), ell_mode=args.ell_mode)
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


def _load_dds(args):
    """The rebuilt instance, the deletion set and the proof's defense for it."""
    from defdom.io import read_graph, read_vertex_set
    from defdom.reductions.dds import dds_from_graph, proof_defense
    g, params = read_graph(args.graph)
    dds = dds_from_graph(g, _param(args.k, params, "k"), _param(args.ell, params, "ell"))
    deletion = read_vertex_set(args.deletion)
    return dds, deletion, proof_defense(dds, deletion)


def cmd_audit_dds_forward(args) -> tuple:
    from defdom.defense import find_violator
    from defdom.graphs import multiset_size
    from defdom.matching import uncountered
    from defdom.reductions.dds import enumerate_serious_attacks
    dds, _, defense = _load_dds(args)
    stranded = uncountered(dds.graph, defense, enumerate_serious_attacks(dds))
    if stranded is not None:
        _log(f"FAIL: attackers {_listing(stranded)} of a serious attack see "
             "fewer defenders than their number")
        return "fail", len(stranded)
    violator = find_violator(dds.graph, defense, dds.k, strategy="pruned")
    if violator is not None:
        _log(f"FAIL: attack {_listing(violator.attack)} exceeds nearby defenders "
             f"by {violator.deficiency}")
        return "fail", violator.deficiency
    _log("PASS: defense counters every serious attack and the full search finds none")
    return "pass", multiset_size(defense)


def cmd_audit_dds_roundtrip(args) -> tuple:
    from defdom.reductions.dds import extract_deletion_set
    dds, deletion, defense = _load_dds(args)
    recovered = extract_deletion_set(dds, defense)
    if recovered != deletion:
        _log(f"FAIL: extraction returned {{{_listing(recovered)}}}")
        return "fail", len(recovered)
    _log("PASS: extraction recovered the deletion set exactly")
    return "pass", len(recovered)


def cmd_audit_cnd_certificate(args) -> tuple:
    from defdom.graphs import delete_vertices
    from defdom.io import read_graph, read_valuation
    from defdom.reductions.sat import (sat_cnd_from_graph, typed_clique_audit,
                                       valuation_to_deletion)
    g, params = read_graph(args.graph)
    s = _param(args.s, params, "s")
    t = _param(args.t, params, "t")
    sc = sat_cnd_from_graph(g, s, t)
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


def cmd_audit_clique_typed(args) -> tuple:
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


def cmd_e2sat(args) -> tuple:
    from defdom.formulas import solve_e2sat
    from defdom.io import read_formula, write_valuation
    formula = read_formula(args.formula)
    result = solve_e2sat(formula)
    if result.verdict:
        bits = "".join("1" if b else "0" for b in result.winning_nu)
        _log(f"YES: assignment {bits} defeats every universal response")
        return "yes", bits or "-", _emit(args.emit_valuation, write_valuation,
                                         result.winning_nu)
    _log("NO: every existential assignment admits a satisfying response")
    for nu, mu in sorted(result.refutations.items()):
        nu_bits = "".join("1" if b else "0" for b in nu) or "(empty)"
        mu_bits = "".join("1" if b else "0" for b in mu) or "(empty)"
        _log(f"  nu={nu_bits} is beaten by mu={mu_bits}")
    return ("no",)


def cmd_solve_cnd(args) -> tuple:
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


def cmd_clique(args) -> tuple:
    from defdom.graphs import find_clique
    from defdom.io import read_graph, write_vertex_set
    g, _ = read_graph(args.graph)
    witness = find_clique(g, args.t)
    if witness is None:
        _log(f"NONE: no clique of size {args.t}")
        return ("none",)
    _log(f"FOUND: {{{_listing(witness)}}}")
    return "found", args.t, _emit(args.emit_witness, write_vertex_set, witness)


def _gen_intervals(n: int, seed: int) -> "IntervalInstance":
    import random

    from defdom.intervals import IntervalInstance
    if n < 0:
        raise InputError("interval generation needs n >= 0")
    rng = random.Random(seed)
    # `sample` picks its objects from a list of the whole range, so they lie
    # scattered over a heap ten times their size; fresh copies, made in draw
    # order, sit next to each other.
    values = [v + 0 for v in rng.sample(range(1, 20 * n + 1), 2 * n)]
    rows = {}
    for v in range(1, n + 1):
        a, b = values[2 * v - 2], values[2 * v - 1]
        rows[v] = (min(a, b), max(a, b))
    return IntervalInstance(rows)


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


def cmd_gen(args) -> tuple:
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


# ----------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Usage errors end in the ("error",) record, like any input error;
    subparsers inherit the class, so this covers every command."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def _verify_args(p) -> None:
    p.add_argument("graph")
    p.add_argument("defense")
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("--multiset", action="store_true",
                   help="read the defense as '<v> <count>' lines")
    p.add_argument("--strategy", default="pruned",
                   help="violator search: pruned or exhaustive (default: %(default)s)")
    p.set_defaults(func=cmd_verify)


def _solve_exact_args(p) -> None:
    p.add_argument("graph")
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("--multiset", action="store_true",
                   help="allow several copies per vertex")
    p.add_argument("--attacks", metavar="FILE",
                   help="counter exactly these attacks instead of all size-k ones")
    p.add_argument("--lower", metavar="FILE", help="multiset every solution must contain")
    p.add_argument("--upper", metavar="FILE", help="multiset every solution must stay within")
    p.add_argument("--emit-defense", metavar="FILE")
    p.set_defaults(func=cmd_solve_exact)


def _greedy_args(p) -> None:
    p.add_argument("intervals")
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("--emit-defense", metavar="FILE")
    p.add_argument("--check", action="store_true",
                   help="re-verify the output with the pruned violator search")
    p.set_defaults(func=cmd_greedy)


def _reduce_args(p) -> None:
    psub = p.add_subparsers(dest="kind", required=True)
    q = psub.add_parser("cnd-to-dds",
                        help="clique node deletion -> defensive domination")
    q.add_argument("input", help="graph file; s and t via flags or 'c params'")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--s", type=int)
    q.add_argument("--t", type=int)
    q.add_argument("--ell-mode", default="proof-consistent",
                   help="defense bound: proof-consistent or literal "
                        "(default: %(default)s)")
    q.set_defaults(func=cmd_reduce)
    q = psub.add_parser("e2sat-to-cnd",
                        help="two-level satisfiability -> clique node deletion")
    q.add_argument("input", help="formula file")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--allow-small", action="store_true",
                   help="waive the clause-count requirement (audit use)")
    q.set_defaults(func=cmd_reduce)


def _audit_args(p) -> None:
    psub = p.add_subparsers(dest="kind", required=True)
    for kind, func, outcome in (("dds-forward", cmd_audit_dds_forward, "full verification"),
                                ("dds-roundtrip", cmd_audit_dds_roundtrip,
                                 "extracted deletion set")):
        q = psub.add_parser(kind, help=f"deletion set -> defense -> {outcome}")
        q.add_argument("graph")
        q.add_argument("--deletion", required=True, metavar="FILE")
        q.add_argument("--k", type=int)
        q.add_argument("--ell", type=int)
        q.set_defaults(func=func)
    q = psub.add_parser("cnd-certificate",
                        help="valuation -> deletion -> typed no-clique audit")
    q.add_argument("graph")
    q.add_argument("--valuation", required=True, metavar="FILE")
    q.add_argument("--s", type=int)
    q.add_argument("--t", type=int)
    q.set_defaults(func=cmd_audit_cnd_certificate)
    q = psub.add_parser("clique-typed",
                        help="typed audit vs generic clique search")
    q.add_argument("graph")
    q.add_argument("--t", type=int)
    q.set_defaults(func=cmd_audit_clique_typed)


def _e2sat_args(p) -> None:
    p.add_argument("formula")
    p.add_argument("--emit-valuation", metavar="FILE")
    p.set_defaults(func=cmd_e2sat)


def _solve_cnd_args(p) -> None:
    p.add_argument("graph")
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--emit-deletion", metavar="FILE")
    p.set_defaults(func=cmd_solve_cnd)


def _clique_args(p) -> None:
    p.add_argument("graph")
    p.add_argument("t", type=int)
    p.add_argument("--emit-witness", metavar="FILE")
    p.set_defaults(func=cmd_clique)


def _gen_args(p) -> None:
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
        q.set_defaults(func=cmd_gen)


# command -> (its help line, the function that adds its arguments)
_COMMANDS = {
    "verify": ("check a defense against all attacks up to size k", _verify_args),
    "solve-exact": ("smallest defense by exact, cut-pruned search", _solve_exact_args),
    "greedy": ("greedy multiset defense for an interval instance", _greedy_args),
    "reduce": ("build a hardness-reduction instance", _reduce_args),
    "audit": ("run an invariant suite entry on an instance", _audit_args),
    "e2sat": ("solve a two-level formula by brute force", _e2sat_args),
    "solve-cnd": ("clique node deletion by brute force", _solve_cnd_args),
    "clique": ("find one clique of a given size", _clique_args),
    "gen": ("deterministic instance generators", _gen_args),
}


def _invoked(argv: list[str]) -> Optional[str]:
    """The command `argv` runs when it comes first; None otherwise (help, an
    option or an unknown command), since then the parser needs every
    command, to list them or name the choices."""
    return argv[0] if argv and argv[0] in _COMMANDS else None


def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command line; with a `command`, only that command's subparser is
    built, which is most of the set-up time, and the usage line still lists
    every command."""
    parser = _Parser(
        prog="defdom",
        description="defensive graph domination: verification, exact and "
                    "greedy solvers, hardness reductions, audits")
    parser.add_argument("--time-limit", type=int, metavar="SECONDS",
                        help="abort with exit code 3 after this many seconds")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parser(_invoked(argv)).parse_args(argv)
        with _alarm(args.time_limit):
            record = args.func(args)
    except InputError as exc:
        _log(f"error: {exc}")
        record = ("error",)
    except MemoryError:
        _log("error: out of memory")
        record = ("error",)
    except _Timeout:
        _log("time limit exceeded")
        record = ("timeout",)
    _record(*record)
    return _EXIT_CODES[record[0]]


if __name__ == "__main__":
    sys.exit(main())

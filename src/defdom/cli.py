"""Command-line front end.

Every command prints human-readable detail to stderr and returns its record
(verdict, value, certificate); value and certificate default to "-".  Only
`main` prints the record, as one stdout line, once: after the command
finishes or after the time limit fires, with the alarm cancelled, or after
a usage error.  `--help` alone prints its text and exits 0 without one.

    verdict=<word> value=<number or -> certificate=<path or ->

`_EXIT_CODES` maps the verdict to the exit code: 0 = affirmative/optimal
(good, optimal, ok, pass, yes, found), 1 = negative/infeasible (bad, none,
fail, no), 2 = usage or input error, memory exhausted or a count past the
index range (error), 3 = time limit exceeded (timeout).

This module holds the record and exit-code contract, the helpers several
commands share and the dispatcher.  Each command lives in its own module
under `defdom.commands`, which adds the command's arguments and imports the
library modules it runs when it runs.  `main` imports the invoked command's
module alone and builds its parser alone, so a job compiles and loads only
its own code: `solve-exact g 3` loads the solvers and the exhaustive
verifier but not the matching code, and `solve-exact --attacks` the matching
code but not the verifier.  A leading `--time-limit N` or `--time-limit=N`
keeps that so; help, usage errors and any other leading option import
every command.
"""

import argparse
import importlib
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from defdom.errors import InputError

if TYPE_CHECKING:
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

    try:
        old = signal.signal(signal.SIGALRM, handler)
    except ValueError:   # signal handlers can be set only in the main thread
        raise InputError("--time-limit works only in the main thread") from None
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


def _gen_intervals(n: int, seed: int) -> "IntervalInstance":
    """`gen interval`'s instance; it lives here because tests draw their
    interval instances from it."""
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


# ----------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Usage errors end in the ("error",) record, like any input error;
    subparsers inherit the class, so this covers every command."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


# command -> (its help line, its module in defdom.commands)
_COMMANDS = {
    "verify": ("check a defense against all attacks up to size k", "verify"),
    "solve-exact": ("smallest defense by exact, cut-pruned search", "solve_exact"),
    "greedy": ("greedy multiset defense for an interval instance", "greedy"),
    "reduce": ("build a hardness-reduction instance", "reduce"),
    "audit": ("run an invariant suite entry on an instance", "audit"),
    "e2sat": ("solve a two-level formula by brute force", "e2sat"),
    "solve-cnd": ("clique node deletion by brute force", "solve_cnd"),
    "clique": ("find one clique of a given size", "clique"),
    "gen": ("deterministic instance generators", "gen"),
}


def _invoked(argv: list[str]) -> Optional[str]:
    """The command `argv` runs when it comes first, after a leading
    `--time-limit N` or `--time-limit=N`; None otherwise (help, another
    option or spelling, or an unknown command), since then the parser needs
    every command, to list them or name the choices."""
    if argv[:1] == ["--time-limit"]:
        argv = argv[2:]
    elif argv and argv[0].startswith("--time-limit="):
        argv = argv[1:]
    return argv[0] if argv and argv[0] in _COMMANDS else None


def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command line; with a `command`, only that command's module is
    imported and only its subparser built, which is most of the set-up
    time, and the usage line still lists every command."""
    parser = _Parser(
        prog="defdom",
        description="defensive graph domination: verification, exact and "
                    "greedy solvers, hardness reductions, audits")
    parser.add_argument("--time-limit", type=int, metavar="SECONDS",
                        help="abort with exit code 3 after this many seconds")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (text, module) in _COMMANDS.items():
        if command in (None, name):
            spec = importlib.import_module(f"defdom.commands.{module}")
            spec.add_arguments(sub.add_parser(name, help=text))
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
    except OverflowError as exc:
        _log(f"error: a count past the index range: {exc}")
        record = ("error",)
    except _Timeout:
        _log("time limit exceeded")
        record = ("timeout",)
    _record(*record)
    return _EXIT_CODES[record[0]]


if __name__ == "__main__":
    sys.exit(main())

"""Line-based text formats for graphs, defenses, intervals, and formulas.

In every format, blank lines and "c" comment lines are skipped.  Graph
files follow the DIMACS habit: a "p dds <n> <m>" header, then "e <u> <v>"
edge lines with 1 <= u < v <= n.  Two comment forms carry data and
round-trip: "c role <v> <label>" attaches a vertex label, and "c params
<name> <value> ..." records instance parameters such as k/ell or s/t;
a vertex gets at most one role line and a name at most one value.
Vertex sets are one id per line; multisets are "<v> <count>" lines;
attack lists hold one attack (space-separated ids) per line; valuations
are a single line of 0/1 bits.

Every parse failure raises InputError with the offending line number; a
file that cannot be read as UTF-8 text, or cannot be written, raises it too.
The line readers below are the one definition of each format and of every
error text.  Interval and graph files also have a bulk path for the
canonical layout that `write_intervals` and `write_graph` produce: for
intervals, the header, then lines "<id> <lo> <hi>" of integers with ids
1..n in order; for graphs, any lines up to the first edge, then exactly
the header's m lines "e <u> <v>" of unsigned integers; in both, single
spaces and a final newline.  Such a file is checked in one pass over the
text and read column-wise.  Any other file, or one that fails a check,
goes to the line reader, so every other spelling is accepted or refused
exactly as that reader says.
"""

import operator
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

from defdom.errors import InputError

if TYPE_CHECKING:
    from defdom.formulas import E2Formula
    from defdom.graphs import Graph, VertexMultiset, VertexSet
    from defdom.intervals import Endpoint, IntervalInstance

PathLike = Union[str, Path]


def _read(path: PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _lines(text: str, keep: tuple[str, ...] = ()) -> list[tuple[int, str]]:
    """Numbered nonblank lines, stripped; "c" comment lines are dropped
    unless their second word is in `keep`."""
    out = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "c":
            words = line.split(None, 2)
            if words[0] == "c" and (len(words) < 2 or words[1] not in keep):
                continue
        out.append((num, line))
    return out


def _write(path: PathLike, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _int(token: str, path: PathLike, num: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"{path}:{num}: expected an integer, got {token!r}") from None


def read_graph(path: PathLike) -> tuple["Graph", dict[str, int]]:
    """Parse a graph file; returns the graph and any "c params" entries."""
    text = _read(path)
    cut = text.find("\ne ") + 1      # the first "e " line after line 1; 0 if none
    if cut:
        header, edges, labels, params = _graph_lines(text[:cut], path)
        if header is not None and not edges:
            g = _canonical_edges(text[cut:], header, labels)
            if g is not None:
                return g, params
    header, edges, labels, params = _graph_lines(text, path)
    if header is None:
        raise InputError(f"{path}: missing 'p dds' header")
    n, m = header
    if len(edges) != m:
        raise InputError(f"{path}: header promises {m} edges, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise InputError(f"{path}: duplicate edge lines")
    for v in labels:
        if not 1 <= v <= n:
            raise InputError(f"{path}: role line for out-of-range vertex {v}")
    from defdom.graphs import Graph
    return Graph(n, edges, labels or None), params


def _graph_lines(text: str, path: PathLike):
    """The header (or None), edges, role labels and params of a graph
    file's lines, each line checked on its own."""
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    params: dict[str, int] = {}
    for num, line in _lines(text, keep=("role", "params")):
        parts = line.split()
        if parts[0] == "c":
            if parts[1] == "role":
                if len(parts) < 4:
                    raise InputError(f"{path}:{num}: role line needs a vertex and a label")
                v = _int(parts[2], path, num)
                if v in labels:
                    raise InputError(f"{path}:{num}: second role line for vertex {v}")
                labels[v] = " ".join(parts[3:])
            else:
                pairs = parts[2:]
                if not pairs or len(pairs) % 2:
                    raise InputError(f"{path}:{num}: params line needs name/value pairs")
                for name, value in zip(pairs[0::2], pairs[1::2]):
                    if name in params:
                        raise InputError(f"{path}:{num}: parameter {name} given twice")
                    params[name] = _int(value, path, num)
            continue
        if parts[0] == "p":
            if header is not None:
                raise InputError(f"{path}:{num}: duplicate header")
            if len(parts) != 4 or parts[1] != "dds":
                raise InputError(f"{path}:{num}: header must be 'p dds <n> <m>'")
            header = (_int(parts[2], path, num), _int(parts[3], path, num))
            continue
        if parts[0] == "e":
            if header is None:
                raise InputError(f"{path}:{num}: edge before header")
            if len(parts) != 3:
                raise InputError(f"{path}:{num}: edge line must be 'e <u> <v>'")
            u, v = _int(parts[1], path, num), _int(parts[2], path, num)
            n = header[0]
            if not (1 <= u < v <= n):
                raise InputError(f"{path}:{num}: edge ({u},{v}) must satisfy "
                                 f"1 <= u < v <= {n}")
            edges.append((u, v))
            continue
        raise InputError(f"{path}:{num}: unrecognized line {line!r}")
    return header, edges, labels, params


_DIGITS = str.maketrans("", "", "0123456789")


def _canonical_edges(block: str, header: tuple[int, int],
                     labels: dict[int, str]) -> Optional["Graph"]:
    """The graph of a file whose lines from the first edge on are exactly
    the header's m lines "e <u> <v>" (digits, single spaces, final
    newline) with 1 <= u < v <= n, no edge twice, and roles, if any, on
    exactly 1..n; None for any other file.

    Deleting the digits leaves "e  \n" once per edge; given the final
    newline, 3m tokens, every third an "e", then mean that each line is
    "e <u> <v>" with no id empty.  The newlines are counted first, so a
    header's m sizes nothing before the file has shown m lines.
    """
    n, m = header
    if (block.count("\n") != m or not block.endswith("\n")
            or block.translate(_DIGITS) != "e  \n" * m):
        return None
    tokens = block.split()
    if len(tokens) != 3 * m or tokens[::3].count("e") != m:
        return None
    try:
        us, vs = list(map(int, tokens[1::3])), list(map(int, tokens[2::3]))
    except ValueError:            # past int()'s digit limit
        return None
    del tokens
    if not (min(us) >= 1 and max(vs) <= n and all(map(operator.lt, us, vs))):
        return None
    if labels and (len(labels) != n or min(labels) < 1 or max(labels) > n):
        return None
    from defdom.graphs import Graph
    g = Graph._from_columns(n, us, vs, labels or None)
    return g if g.edge_count() == m else None     # else an edge is repeated


def write_graph(path: PathLike, g: "Graph", params: Optional[Mapping[str, int]] = None) -> None:
    lines = [f"p dds {g.n} {g.edge_count()}"]
    if params:
        pairs = " ".join(f"{name} {value}" for name, value in params.items())
        lines.append(f"c params {pairs}")
    for v in sorted(g.labels or ()):
        lines.append(f"c role {v} {g.labels[v]}")
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    _write(path, "\n".join(lines) + "\n")


def read_vertex_set(path: PathLike) -> "VertexSet":
    out = set()
    for num, line in _lines(_read(path)):
        v = _int(line, path, num)
        if v in out:
            raise InputError(f"{path}:{num}: vertex {v} listed twice")
        out.add(v)
    return frozenset(out)


def write_vertex_set(path: PathLike, vertices: Iterable[int]) -> None:
    body = "".join(f"{v}\n" for v in sorted(set(vertices)))
    _write(path, body)


def read_multiset(path: PathLike) -> "VertexMultiset":
    out: dict[int, int] = {}
    for num, line in _lines(_read(path)):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{num}: multiset line must be '<v> <count>'")
        v, count = _int(parts[0], path, num), _int(parts[1], path, num)
        if v in out:
            raise InputError(f"{path}:{num}: vertex {v} listed twice")
        if count < 1:
            raise InputError(f"{path}:{num}: count must be positive")
        out[v] = count
    return out


def write_multiset(path: PathLike, d: "VertexMultiset") -> None:
    body = "".join(f"{v} {count}\n" for v, count in sorted(d.items()) if count)
    _write(path, body)


# Decimals and ratios only: Fraction would also take an exponent, and a
# short token such as 1e2000000 expands into a multi-megabit integer.
_RATIO = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|[0-9]*\.[0-9]+|[0-9]+\.)")


def _endpoint(token: str) -> "Endpoint":
    """An integer token as an int; a decimal or ratio as an exact Fraction."""
    try:
        return int(token)
    except ValueError:
        if not _RATIO.fullmatch(token):
            raise
        from fractions import Fraction
        return Fraction(token)


def read_intervals(path: PathLike) -> "IntervalInstance":
    """Parse an interval file ("p intervals <n>" header)."""
    text = _read(path)
    inst = _canonical_intervals(text)
    return inst if inst is not None else _intervals_by_line(text, path)


_HEAD = "p intervals "
_NUMERALS = str.maketrans("", "", "0123456789-")


def _canonical_intervals(text: str) -> Optional["IntervalInstance"]:
    """The instance in a file of canonical layout; None for any other file.

    Deleting digits and '-' from a canonical file leaves the header's words
    and then "  \n" once per interval.  Given that, 3n + 3 tokens mean that
    no field is empty, and int() refuses a stray '-'.  The header's count
    is compared with the file's line count before anything of that size
    is built.
    """
    if not text.startswith(_HEAD):
        return None
    try:
        n = int(text[len(_HEAD):text.find("\n")])
    except ValueError:            # not an integer, or past int()'s digit limit
        return None
    if text.count("\n") != n + 1 or text.translate(_NUMERALS) != f"{_HEAD}\n" + "  \n" * n:
        return None
    tokens = text.split()
    if len(tokens) != 3 * n + 3:
        return None
    try:
        if not all(map(operator.eq, map(int, tokens[3::3]), range(1, n + 1))):
            return None
        lo, hi = list(map(int, tokens[4::3])), list(map(int, tokens[5::3]))
    except ValueError:
        return None
    from defdom.intervals import IntervalInstance
    return IntervalInstance.from_columns(lo, hi)


def _intervals_by_line(text: str, path: PathLike) -> "IntervalInstance":
    from defdom.intervals import IntervalInstance
    header: Optional[int] = None
    rows: dict[int, tuple[Endpoint, Endpoint]] = {}
    for num, line in _lines(text):
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise InputError(f"{path}:{num}: duplicate header")
            if len(parts) != 3 or parts[1] != "intervals":
                raise InputError(f"{path}:{num}: header must be 'p intervals <n>'")
            header = _int(parts[2], path, num)
            continue
        if header is None:
            raise InputError(f"{path}:{num}: interval before header")
        if len(parts) != 3:
            raise InputError(f"{path}:{num}: interval line must be '<id> <l> <r>'")
        v = _int(parts[0], path, num)
        try:
            lo, hi = _endpoint(parts[1]), _endpoint(parts[2])
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{path}:{num}: endpoints must be decimal rationals "
                             f"such as 3, -0.5 or 3/4") from None
        if v in rows:
            raise InputError(f"{path}:{num}: interval id {v} listed twice")
        rows[v] = (lo, hi)
    if header is None:
        raise InputError(f"{path}: missing 'p intervals' header")
    if len(rows) != header:
        raise InputError(f"{path}: header promises {header} intervals, found {len(rows)}")
    return IntervalInstance(rows)


def write_intervals(path: PathLike, inst: "IntervalInstance") -> None:
    lines = [f"p intervals {inst.n}"]
    for v, (lo, hi) in inst.items():
        lines.append(f"{v} {lo} {hi}")
    _write(path, "\n".join(lines) + "\n")


def read_formula(path: PathLike) -> "E2Formula":
    """Parse "p e2cnf <a> <b> <c>" plus c zero-terminated clause lines."""
    from defdom.formulas import E2Formula
    header: Optional[tuple[int, int, int]] = None
    clauses: list[tuple[int, int, int]] = []
    for num, line in _lines(_read(path)):
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise InputError(f"{path}:{num}: duplicate header")
            if len(parts) != 5 or parts[1] != "e2cnf":
                raise InputError(f"{path}:{num}: header must be 'p e2cnf <a> <b> <c>'")
            header = tuple(_int(word, path, num) for word in parts[2:])
            continue
        if header is None:
            raise InputError(f"{path}:{num}: clause before header")
        lits = [_int(tok, path, num) for tok in parts]
        if len(lits) != 4 or lits[-1] != 0:
            raise InputError(f"{path}:{num}: clause line must hold three literals and a 0")
        clauses.append((lits[0], lits[1], lits[2]))
    if header is None:
        raise InputError(f"{path}: missing 'p e2cnf' header")
    a, b, c = header
    if len(clauses) != c:
        raise InputError(f"{path}: header promises {c} clauses, found {len(clauses)}")
    return E2Formula(a, b, tuple(clauses))


def write_formula(path: PathLike, f: "E2Formula") -> None:
    lines = [f"p e2cnf {f.a} {f.b} {f.c}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    _write(path, "\n".join(lines) + "\n")


def read_attacks(path: PathLike) -> list[list[int]]:
    """One attack per line: distinct vertex ids separated by spaces."""
    out: list[list[int]] = []
    for num, line in _lines(_read(path)):
        attack = [_int(tok, path, num) for tok in line.split()]
        if len(set(attack)) != len(attack):
            raise InputError(f"{path}:{num}: attack repeats a vertex")
        out.append(attack)
    return out


def write_attacks(path: PathLike, attacks: Iterable[Iterable[int]]) -> None:
    body = "".join(" ".join(str(v) for v in sorted(attack)) + "\n"
                   for attack in attacks)
    _write(path, body)


def read_valuation(path: PathLike, expected: Optional[int] = None) -> tuple[bool, ...]:
    """A single line of 0/1 bits, with or without spaces."""
    lines = _lines(_read(path))
    if len(lines) != 1:
        raise InputError(f"{path}: valuation file must hold exactly one line")
    num, line = lines[0]
    bits = line.replace(" ", "")
    if not bits or any(ch not in "01" for ch in bits):
        raise InputError(f"{path}:{num}: valuation must be a string of 0s and 1s")
    out = tuple(ch == "1" for ch in bits)
    if expected is not None and len(out) != expected:
        raise InputError(f"{path}: expected {expected} bits, found {len(out)}")
    return out


def write_valuation(path: PathLike, bits: Sequence[bool]) -> None:
    _write(path, "".join("1" if bit else "0" for bit in bits) + "\n")

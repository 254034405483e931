import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from defdom import io
from defdom.cli import main
from defdom.errors import InputError
from defdom.formulas import E2Formula
from defdom.graphs import Graph, random_graph
from defdom.intervals import IntervalInstance
from defdom.io import (read_attacks, read_formula, read_graph, read_intervals,
                       read_multiset, read_valuation, read_vertex_set,
                       write_attacks, write_formula, write_graph,
                       write_intervals, write_multiset, write_valuation,
                       write_vertex_set)


def add_comments(path):
    """Rewrite a file with a leading comment line and one after its first line."""
    first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text("c leading comment\n" + first + "c mid-file comment\n" + "".join(rest))


def test_graph_roundtrip(tmp_path):
    g = Graph(4, [(1, 2), (2, 3), (1, 4)], {1: "hub", 2: "mid x", 3: "leaf", 4: "leaf2"})
    path = tmp_path / "g.dds"
    write_graph(path, g, params={"k": 2, "ell": 7})
    back, params = read_graph(path)
    assert back == g
    assert back.labels == g.labels        # labels with spaces survive
    assert params == {"k": 2, "ell": 7}


def test_graph_roundtrip_without_decoration(tmp_path):
    g = random_graph(9, 0.4, seed=3)
    path = tmp_path / "g.dds"
    write_graph(path, g)
    back, params = read_graph(path)
    assert back == g and back.labels is None and params == {}


def test_graph_parse_errors(tmp_path):
    cases = [
        ("e 1 2\np dds 2 1\n", "edge before header"),
        ("p dds 2 1\n", "promises 1 edges, found 0"),
        ("p dds 2 0\np dds 2 0\n", "duplicate header"),
        ("p dds 3 2\ne 1 2\ne 1 2\n", "duplicate edge"),
        ("p dds 3 1\ne 2 2\n", "1 <= u < v <= 3"),
        ("p dds 3 1\ne 1 9\n", "1 <= u < v <= 3"),
        ("p dds 2 0\nc role 7 far\n", "out-of-range vertex 7"),
        # a repeated edge and a missing role: the role fault is named
        ("p dds 3 2\nc role 1 a\nc role 2 b\ne 1 2\ne 1 2\n",
         r"bad\.dds: labels must cover vertices 1\.\.n exactly"),
        ("p dds 3 1\nc role 1 a\ne 1 2\n", r"bad\.dds: labels must cover"),
        ("p dds 2 0\nc params k\n", "name/value pairs"),
        # a repeated role or parameter is refused, not silently overwritten
        ("p dds 2 0\nc role 1 a\nc role 1 b\n", r"bad\.dds:3: second role line for vertex 1"),
        ("p dds 2 0\nc params k 3 k 4\n", r"bad\.dds:2: parameter k given twice"),
        ("p dds 2 0\nc params k 3\n\nc params ell 2 k 4\n", r"bad\.dds:4: parameter k given twice"),
        ("p dds 2 0\nwat\n", "unrecognized line"),
        ("p wrong 2 0\n", "header must be"),
        ("", "missing 'p dds' header"),
    ]
    for body, fragment in cases:
        path = tmp_path / "bad.dds"
        path.write_text(body)
        with pytest.raises(InputError, match=fragment):
            read_graph(path)


def test_error_messages_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.dds"
    path.write_text("p dds 3 1\nc a comment\ne 2 2\n")
    with pytest.raises(InputError, match=r"bad\.dds:3"):
        read_graph(path)


def test_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        read_graph("/nonexistent/place/g.dds")


def test_vertex_set_roundtrip(tmp_path):
    path = tmp_path / "x.set"
    write_vertex_set(path, [5, 1, 3])
    add_comments(path)
    assert read_vertex_set(path) == frozenset({1, 3, 5})
    path.write_text("1\n1\n")
    with pytest.raises(InputError, match="listed twice"):
        read_vertex_set(path)


def test_multiset_roundtrip(tmp_path):
    path = tmp_path / "d.ms"
    write_multiset(path, {3: 2, 1: 1, 7: 0})   # zero rows are dropped
    add_comments(path)
    assert read_multiset(path) == {1: 1, 3: 2}
    for body, fragment in [("1 0\n", "count must be positive"),
                           ("1 2 3\n", "'<v> <count>'"),
                           ("1 1\n1 2\n", "listed twice")]:
        path.write_text(body)
        with pytest.raises(InputError, match=fragment):
            read_multiset(path)


def test_interval_roundtrip(tmp_path):
    inst = IntervalInstance({1: (Fraction(0), Fraction(5)),
                             2: (Fraction(1, 2), Fraction(3)),
                             3: (Fraction(4), Fraction(4))})
    path = tmp_path / "i.ivl"
    write_intervals(path, inst)
    assert read_intervals(path) == inst


def test_interval_decimal_endpoints(tmp_path):
    path = tmp_path / "i.ivl"
    path.write_text("p intervals 2\n1 0.5 2\n2 1 3.25\n")
    inst = read_intervals(path)
    assert inst.interval(1) == (Fraction(1, 2), Fraction(2))
    assert inst.interval(2) == (Fraction(1), Fraction(13, 4))


def test_interval_parse_errors(tmp_path):
    cases = [
        ("1 0 2\n", "interval before header"),
        ("p intervals 1\n1 0 2\n1 3 4\n", "listed twice"),
        ("p intervals 2\n1 0 2\n", "promises 2 intervals"),
        ("p intervals 1 1\n1 0 2\n", "header must be 'p intervals <n>'"),
        ("p intervals 1\n1 two 3\n", "decimal rationals"),
        ("p intervals 1\n1 5 2\n", "lo"),                 # validate(): lo > hi
        ("p intervals 2\n1 0 2\n2 2 4\n", "endpoint"),    # shared endpoint
    ]
    for body, fragment in cases:
        path = tmp_path / "bad.ivl"
        path.write_text(body)
        with pytest.raises(InputError, match=fragment):
            read_intervals(path)


def test_interval_errors_name_the_file_line(tmp_path):
    # the bad line is file line 6 but the fourth data line, after a comment
    # and a blank line, so only the file's own count gives the right number
    lead = "p intervals 3\n1 0 2\n2 5 7\nc a comment\n\n"
    cases = [
        ("3 9", "interval line must be"),
        ("3 9 11 13", "interval line must be"),
        ("x 9 11", "expected an integer"),
        ("3 1e5 11", "decimal rationals"),
        ("p intervals 3", "duplicate header"),
        ("2 9 11", "listed twice"),
    ]
    path = tmp_path / "bad.ivl"
    for line, fragment in cases:
        path.write_text(lead + line + "\n")
        with pytest.raises(InputError) as err:
            read_intervals(path)
        assert str(err.value).startswith(f"{path}:6: "), str(err.value)
        assert fragment in str(err.value)


def test_exponent_endpoints_are_rejected_quickly(tmp_path):
    # Fraction would expand 1e2000000 into a 6.6-million-bit integer
    path = tmp_path / "huge.ivl"
    path.write_text("p intervals 1\n1 0 1e2000000\n")
    start = time.perf_counter()
    with pytest.raises(InputError, match="decimal rationals"):
        read_intervals(path)
    assert time.perf_counter() - start < 1.0
    assert main(["greedy", str(path), "1"]) == 2


def outcome(read, *args):
    """What a reader returns, or the text of the InputError it raises."""
    try:
        return read(*args)
    except InputError as exc:
        return f"InputError: {exc}"


CANONICAL = "p intervals 4\n1 0 5\n2 2 9\n3 6 7\n4 -3 -1\n"
SPELLINGS = [
    CANONICAL,
    "p intervals 0\n",
    "c a comment\n" + CANONICAL,
    CANONICAL.replace("\n2 ", "\n\n2 "),                  # a blank line
    CANONICAL.replace("\n", "\r\n"),
    CANONICAL.replace("2 2 9", "2\t2 9"),
    CANONICAL.replace("2 2 9", "2  2 9"),
    CANONICAL.replace(" 2 9", " +2 9"),
    CANONICAL.replace(" 2 9", " 002 9"),
    CANONICAL.replace(" 0 5", " -0 5"),
    CANONICAL.replace("\n1 0", "\n-0 0"),
    CANONICAL.replace(" 2 9", " 1_0 11"),
    CANONICAL.replace(" 2 9", " 5-3 9"),
    CANONICAL.replace(" 2 9", " - 9"),
    CANONICAL.replace("\n3 ", "\n- "),
    CANONICAL.replace(" 2 9", " 5/2 9.5"),
    CANONICAL.replace(" 2 9", " " + "9" * 5000 + " 9"),     # past int()'s digit limit
    CANONICAL.replace(" 2 9", " 2 9 1"),
    CANONICAL.replace(" 2 9", " 2"),
    CANONICAL.replace("\n2 2 9\n3 6 7", "\n3 6 7\n2 2 9"),   # shuffled ids
    CANONICAL.replace("\n3 ", "\n2 "),                    # repeated id
    CANONICAL.replace("\n3 ", "\n7 "),
    CANONICAL.rstrip("\n"),                                # no final newline
    CANONICAL.replace("intervals 4", "intervals 5"),
    CANONICAL.replace("intervals 4", "intervals 3"),
    CANONICAL.replace("intervals 4", "intervals 04"),
    CANONICAL.replace("intervals 4", "intervals -4"),
    CANONICAL.replace("intervals 4", "intervals  4"),
    CANONICAL.replace(" 6 7", " 7 6"),                      # lo > hi
    CANONICAL.replace(" 6 7", " 6 9"),                      # a shared endpoint
    "p intervals 1000000000000\n1 0 1\n",
    "p intervals " + "9" * 5000 + "\n1 0 5\n",               # a count past int()'s limit
    CANONICAL.replace("2 2 9", "2  9"),                     # an empty field
    "p intervals 1\n1 0 \n5",                               # a field after the last newline
    CANONICAL.replace("-1\n", "\n-1"),
]


def test_bulk_and_line_readers_agree(tmp_path):
    # the line reader defines the format: the bulk path must return what it
    # returns, or raise its exact error, on every spelling
    path = tmp_path / "i.ivl"
    for text in SPELLINGS:
        path.write_text(text)
        expected = outcome(io._intervals_by_line, path.read_text(), path)
        assert outcome(read_intervals, path) == expected, text
    fast = outcome(io._canonical_intervals, CANONICAL.partition("\n")[2], 4)
    assert isinstance(fast, IntervalInstance) and fast.interval(4) == (-3, -1)


def test_canonical_interval_files_skip_the_line_reader(tmp_path, monkeypatch):
    # the bulk path is the whole gain on large files; a layout check that
    # quietly stopped matching would leave every file on the line reader
    generated, written = tmp_path / "g.ivl", tmp_path / "w.ivl"
    assert main(["gen", "interval", "--n", "300", "--seed", "4", "-o", str(generated)]) == 0
    expected = read_intervals(generated)

    def line_reader(text, path):
        raise AssertionError(f"{path} went to the line reader")
    monkeypatch.setattr(io, "_intervals_by_line", line_reader)
    assert read_intervals(generated) == expected
    points = IntervalInstance({1: (0, 2), 2: (-7, -5), 3: (5, 5)})
    write_intervals(written, points)
    assert read_intervals(written) == points
    write_intervals(written, IntervalInstance({1: (Fraction(1, 2), 3)}))
    with pytest.raises(AssertionError, match="line reader"):   # a ratio is not canonical
        read_intervals(written)


GRAPH = ("p dds 5 4\nc params k 2 ell 7\nc role 1 hub\nc role 2 mid x\nc role 3 a\n"
         "c role 4 b\nc role 5 c\ne 1 2\ne 1 3\ne 2 4\ne 4 5\n")
BARE = "p dds 5 4\nc params k 4\ne 1 2\ne 1 3\ne 2 4\ne 4 5\n"    # as the benchmark writes
GRAPH_SPELLINGS = [
    GRAPH,
    BARE,
    "p dds 5 0\n",
    GRAPH.replace("e 4 5", "e 1 3"),                       # a duplicate edge
    GRAPH.replace("e 2 4", "e 2 2"),
    GRAPH.replace("e 2 4", "e 4 2"),
    GRAPH.replace("e 2 4", "e 0 4"),
    GRAPH.replace("e 2 4", "e 2 6"),
    GRAPH.replace("e 2 4", "e 2 +4"),
    GRAPH.replace("e 2 4", "e 002 04"),
    GRAPH.replace("e 2 4", "e 2 ٤"),                       # a non-ASCII digit
    GRAPH.replace("e 2 4", "e 2 0_4"),
    GRAPH.replace("e 2 4", "e\t2 4"),
    GRAPH.replace("e 2 4", "e 2  4"),
    GRAPH.replace("e 2 4", "e  24"),
    GRAPH.replace("e 2 4", "e2 3 5"),
    GRAPH.replace("e 2 4", "2e 3 5"),
    GRAPH.replace("e 2 4", "e 2 4 "),
    GRAPH.replace("e 2 4", "e 2"),
    GRAPH.replace("e 2 4", "e 2 4 5"),
    GRAPH.replace("e 2 4", "e 2 " + "9" * 5000),           # past int()'s digit limit
    GRAPH.replace("e 2 4\n", "c a comment\ne 2 4\n"),
    GRAPH.replace("e 2 4\n", "\ne 2 4\n"),
    GRAPH.replace("e 1 2", "e\t1 2"),                      # the first edge in another spelling
    GRAPH.replace("e 1 2", "e\t1 2").replace("dds 5 4", "dds 5 3"),
    GRAPH.replace("\n", "\r\n"),
    GRAPH.rstrip("\n"),
    GRAPH.replace("e 4 5\n", "e 4 \n5"),                  # an id after the last newline
    GRAPH.replace("dds 5 4", "dds 5 5"),
    GRAPH.replace("dds 5 4", "dds 5 3"),
    GRAPH.replace("dds 5 4", "dds 5 1000000000000"),
    GRAPH.replace("dds 5 4", "dds -5 4"),
    GRAPH.replace("c role 5 c\n", "") + "c role 5 c\n",    # a role line after the edges
    GRAPH.replace("c role 5 c\n", ""),                     # roles miss a vertex
    GRAPH.replace("c role 5 c\n", "c role 6 c\n"),
    GRAPH.replace("c role 5 c\n", "c role 0 c\n"),
    GRAPH.replace("c role 5 c\n", "").replace("e 4 5", "e 1 3"),
    GRAPH.replace("p dds 5 4\n", "") + "p dds 5 4\n",      # the header after the edges
    "e 1 2\n" + BARE,
]


def test_bulk_and_line_graph_readers_agree(tmp_path, monkeypatch):
    # the line reader defines the format: the bulk path must return the
    # same graph, labels and params, or raise its exact error, on every
    # spelling
    path = tmp_path / "g.dds"
    write_graph(path, random_graph(40, 0.3, seed=3), {"k": 3})
    spellings = [path.read_text(), *GRAPH_SPELLINGS]
    for text in spellings:
        path.write_bytes(text.encode())
        bulk = outcome(read_graph, path)
        with monkeypatch.context() as patch:
            patch.setattr(io, "_canonical_edges", lambda *args: None)
            assert outcome(read_graph, path) == bulk, text


def test_canonical_graph_files_skip_the_line_reader(tmp_path, monkeypatch):
    # as for intervals: a layout check that quietly stopped matching would
    # leave every graph file on the line reader
    line_reader = io._graph_lines

    def head_only(text, path):
        assert "\ne " not in text, f"{path} went to the line reader"
        return line_reader(text, path)

    path = tmp_path / "g.dds"
    for text in (GRAPH, BARE):
        path.write_text(text)
        expected = read_graph(path)
        with monkeypatch.context() as patch:
            patch.setattr(io, "_graph_lines", head_only)
            assert read_graph(path) == expected
            path.write_text(text.replace("e 2 4", "e 2  4"))
            with pytest.raises(AssertionError, match="line reader"):   # not canonical
                read_graph(path)


def tail_edits(text, rng, count):
    """`count` copies of `text`, each with 1 to 3 characters inserted,
    deleted or replaced within its last 8."""
    for _ in range(count):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(max(0, len(chars) - 8), len(chars))
            kind = rng.randrange(3)
            if kind and i < len(chars):
                del chars[i]
            if kind != 1:
                chars.insert(i, rng.choice("0123456789 -e\n\t"))
        yield "".join(chars)


def test_bulk_and_line_readers_agree_near_the_end(tmp_path, monkeypatch):
    # the end of the body is where the bulk check once fell short of the
    # line reader: a field after the final newline was read as the last
    # one; this seed's edits hold two such interval files
    rng = random.Random(0)
    path = tmp_path / "i.ivl"
    for text in tail_edits(CANONICAL, rng, 2000):
        path.write_bytes(text.encode())
        expected = outcome(io._intervals_by_line, path.read_text(), path)
        assert outcome(read_intervals, path) == expected, text
    path = tmp_path / "g.dds"
    for text in tail_edits(GRAPH, rng, 2000):
        path.write_bytes(text.encode())
        bulk = outcome(read_graph, path)
        with monkeypatch.context() as patch:
            patch.setattr(io, "_canonical_edges", lambda *args: None)
            assert outcome(read_graph, path) == bulk, text


def test_huge_interval_header_ends_at_once(tmp_path):
    # the header count is checked against the file before anything that
    # large is built
    path = tmp_path / "huge.ivl"
    path.write_text("p intervals 1000000000000\n1 0 1\n")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(InputError, match="header promises 1000000000000 intervals, found 1"):
            read_intervals(path)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1 << 20, (elapsed, peak)
    assert main(["greedy", str(path), "1"]) == 2


def test_formula_roundtrip(tmp_path):
    f = E2Formula(2, 1, ((1, -2, 3), (-1, 2, 3)))
    path = tmp_path / "f.cnf"
    write_formula(path, f)
    add_comments(path)
    assert read_formula(path) == f


def test_formula_parse_errors(tmp_path):
    cases = [
        ("p e2cnf 2 1 1\n1 -2 3\n", "three literals and a 0"),
        ("p e2cnf 2 1 2\n1 -2 3 0\n", "promises 2 clauses"),
        ("p e2cnf 2 1\n", "header must be 'p e2cnf <a> <b> <c>'"),
        ("1 2 3 0\n", "clause before header"),
        ("p e2cnf 1 1 1\n1 2 9 0\n", "unknown variable"),
    ]
    for body, fragment in cases:
        path = tmp_path / "bad.cnf"
        path.write_text(body)
        with pytest.raises(InputError, match=fragment):
            read_formula(path)


def test_attacks_roundtrip(tmp_path):
    path = tmp_path / "a.atk"
    write_attacks(path, [[3, 1], [2]])
    assert read_attacks(path) == [[1, 3], [2]]
    path.write_text("c a note\n1 2\n")
    assert read_attacks(path) == [[1, 2]]
    path.write_text("1 1\n")
    with pytest.raises(InputError, match="repeats a vertex"):
        read_attacks(path)


def test_valuation_roundtrip(tmp_path):
    path = tmp_path / "v.val"
    write_valuation(path, (True, False, True))
    add_comments(path)
    assert read_valuation(path) == (True, False, True)
    assert read_valuation(path, expected=3) == (True, False, True)
    with pytest.raises(InputError, match="expected 2 bits"):
        read_valuation(path, expected=2)
    path.write_text("1 0 1\n")
    assert read_valuation(path) == (True, False, True)   # spaces tolerated
    path.write_text("烏\n")
    with pytest.raises(InputError, match="0s and 1s"):
        read_valuation(path)
    path.write_text("1\n0\n")
    with pytest.raises(InputError, match="exactly one line"):
        read_valuation(path)

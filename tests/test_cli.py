import hashlib
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import defdom
from defdom import cli
from defdom.cli import main
from defdom.errors import InputError
from defdom.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from defdom.intervals import IntervalInstance, greedy_defense, intersection_graph
from defdom.io import (read_formula, read_graph, read_multiset, read_valuation,
                       read_vertex_set, write_attacks, write_formula,
                       write_graph, write_intervals, write_multiset,
                       write_valuation, write_vertex_set)
from defdom.reductions import dds, sat
from helpers import clustered_intervals

RECORD = re.compile(r"^verdict=(\w+) value=(\S+) certificate=(\S+)$")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 1, f"stdout must hold exactly one record line: {out!r}"
    m = RECORD.match(lines[0])
    assert m, f"malformed record line: {lines[0]!r}"
    return code, m.groups(), err


def k4_pendant_file(tmp_path, params=None):
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
    path = tmp_path / "cnd.dds"
    write_graph(path, g, params)
    return path


def test_verify_good_star(tmp_path, capsys):
    graph = tmp_path / "star.dds"
    write_graph(graph, star_graph(4))
    defense = tmp_path / "d.ms"
    write_multiset(defense, {1: 2})
    code, (verdict, value, cert), _ = run(
        capsys, "verify", graph, defense, 2, "--multiset")
    assert code == 0 and verdict == "good" and value == "0" and cert == "-"


def test_verify_bad_path(tmp_path, capsys):
    graph = tmp_path / "p3.dds"
    write_graph(graph, path_graph(3))
    defense = tmp_path / "d.set"
    write_vertex_set(defense, [2])
    code, (verdict, value, _), err = run(capsys, "verify", graph, defense, 2)
    assert code == 1 and verdict == "bad" and value == "1"
    assert "BAD" in err
    # verify always runs the pruned search; there is no strategy to choose
    code, (verdict, _, _), err = run(capsys, "verify", graph, defense, 2,
                                     "--strategy", "exhaustive")
    assert code == 2 and verdict == "error"
    assert "unrecognized arguments: --strategy exhaustive" in err


def test_verify_usage_errors(tmp_path, capsys):
    graph = tmp_path / "p3.dds"
    write_graph(graph, path_graph(3))
    defense = tmp_path / "d.set"
    write_vertex_set(defense, [2])
    # a missing k is a usage error, raised before any file is read
    for argv in (["verify", graph, defense], ["greedy", tmp_path / "nope.ivl"]):
        code, (verdict, _, _), err = run(capsys, *argv)
        assert code == 2 and verdict == "error", argv
        assert "the following arguments are required: k" in err, argv
    code, (verdict, _, _), _ = run(capsys, "verify", tmp_path / "nope", defense, 2)
    assert code == 2 and verdict == "error"


def test_solve_exact_star_contrast(tmp_path, capsys):
    graph = tmp_path / "star.dds"
    write_graph(graph, star_graph(5))
    code, (verdict, value, _), _ = run(capsys, "solve-exact", graph, 2)
    assert code == 0 and verdict == "optimal" and value == "5"
    code, (verdict, value, _), _ = run(capsys, "solve-exact", graph, 2, "--multiset")
    assert code == 0 and verdict == "optimal" and value == "2"


def test_solve_exact_emits_witness(tmp_path, capsys):
    graph = tmp_path / "c4.dds"
    write_graph(graph, cycle_graph(4))
    out = tmp_path / "w.ms"
    code, (verdict, value, cert), _ = run(
        capsys, "solve-exact", graph, 1, "--multiset", "--emit-defense", out)
    assert code == 0 and value == "2" and cert == str(out)
    witness = read_multiset(out)
    assert sum(witness.values()) == 2


def test_solve_exact_attack_list(tmp_path, capsys):
    graph = tmp_path / "p3.dds"
    write_graph(graph, path_graph(3))
    attacks = tmp_path / "a.atk"
    write_attacks(attacks, [[1, 3]])
    code, (verdict, value, _), _ = run(
        capsys, "solve-exact", graph, "--attacks", attacks)
    assert code == 0 and verdict == "optimal" and value == "2"


def test_solve_exact_constrained_infeasible(tmp_path, capsys):
    graph = tmp_path / "edgeless.dds"
    write_graph(graph, Graph(3, []))
    attacks = tmp_path / "a.atk"
    write_attacks(attacks, [[1, 2, 3]])
    upper = tmp_path / "u.ms"
    write_multiset(upper, {1: 1})
    code, (verdict, _, _), _ = run(
        capsys, "solve-exact", graph, "--attacks", attacks, "--upper", upper)
    assert code == 1 and verdict == "none"


def test_default_upper_bound_meets_the_lower_one(tmp_path, capsys):
    # with no --upper a vertex may hold the longest listed attack or its
    # --lower count, whichever is larger; an explicit --upper below --lower
    # is still refused
    graph, attacks = tmp_path / "p3.dds", tmp_path / "a.atk"
    lower, upper = tmp_path / "l.ms", tmp_path / "u.ms"
    write_graph(graph, path_graph(3))
    write_attacks(attacks, [[1, 2]])
    write_multiset(lower, {2: 4})
    code, record, _ = run(capsys, "solve-exact", graph, "--attacks", attacks, "--lower", lower)
    assert (code, record) == (0, ("optimal", "4", "-"))
    write_multiset(upper, {2: 2})
    code, record, err = run(capsys, "solve-exact", graph, "--attacks", attacks,
                            "--lower", lower, "--upper", upper)
    assert (code, record) == (2, ("error", "-", "-"))
    assert "lower bound exceeds upper bound at vertex 2" in err


def test_long_augmenting_path_ends_with_a_record(tmp_path, capsys):
    # attacker a sees stations R(a) and R(a+1), station ids descending, so
    # the attack's matching needs an augmenting path through all 1 500
    # attackers; a recursive path search ended this in a RecursionError
    n = 1500

    def station(j):
        return 2 * n - j

    edges = [(a + 1, station(a)) for a in range(n)]
    edges += [(a + 1, station(a + 1)) for a in range(n - 1)]
    graph, attacks, upper = tmp_path / "chain.dds", tmp_path / "a.atk", tmp_path / "u.ms"
    write_graph(graph, Graph(2 * n, edges))
    write_attacks(attacks, [range(1, n + 1)])
    write_multiset(upper, {station(j): 1 for j in range(n)})
    code, (verdict, _, _), err = run(capsys, "--time-limit", 5, "solve-exact", graph,
                                     "--attacks", attacks, "--upper", upper)
    assert code in (0, 3) and verdict in ("optimal", "timeout"), err
    assert "Traceback" not in err


def test_solve_exact_bounds_need_attacks(tmp_path, capsys):
    graph = tmp_path / "p3.dds"
    write_graph(graph, path_graph(3))
    lower = tmp_path / "l.ms"
    write_multiset(lower, {1: 1})
    code, (verdict, _, _), _ = run(capsys, "solve-exact", graph, 1, "--lower", lower)
    assert code == 2 and verdict == "error"


def test_solve_exact_attacks_refuse_k_and_multiset(tmp_path, capsys):
    # the listed attacks fix the problem, so a size k or --multiset beside
    # them would be ignored; they are refused instead
    graph = tmp_path / "p4.dds"
    write_graph(graph, path_graph(4))
    attacks = tmp_path / "a.atk"
    write_attacks(attacks, [[1, 2]])
    for extra in ([2], ["--multiset"], [2, "--multiset"]):
        code, (verdict, _, _), err = run(capsys, "solve-exact", graph, *extra,
                                         "--attacks", attacks)
        assert code == 2 and verdict == "error", extra
        assert "--attacks takes neither" in err and "Traceback" not in err, extra


def test_greedy_with_check(tmp_path, capsys):
    intervals = tmp_path / "i.ivl"
    code, _, _ = run(capsys, "gen", "interval", "--n", 7, "--seed", 5,
                     "-o", intervals)
    assert code == 0
    out = tmp_path / "d.ms"
    code, (verdict, value, cert), err = run(
        capsys, "greedy", intervals, 2, "--check", "--emit-defense", out)
    assert code == 0 and verdict == "good" and cert == str(out)
    assert "GOOD: pruned violator search confirms the defense" in err
    assert sum(read_multiset(out).values()) == int(value)


def test_greedy_rejects_a_tied_file(tmp_path, capsys):
    intervals = tmp_path / "tied.ivl"
    intervals.write_text("p intervals 2\n1 0 2\n2 2 4\n")
    code, (verdict, _, _), err = run(capsys, "greedy", intervals, 1)
    assert code == 2 and verdict == "error"
    assert "duplicate endpoint value 2" in err and "Traceback" not in err


def test_huge_copy_counts_end_at_once(tmp_path, capsys):
    # 10**12 copies on one vertex: expanding every copy died with a
    # MemoryError in solve-exact and looped until the time limit in verify
    graph = tmp_path / "p3.dds"
    write_graph(graph, path_graph(3))
    attacks = tmp_path / "a.atk"
    write_attacks(attacks, [[1, 2]])
    upper = tmp_path / "up.ms"
    write_multiset(upper, {1: 10**12, 2: 1})
    for argv, expected in ((["solve-exact", graph, "--attacks", attacks, "--upper", upper],
                            "optimal"),
                           (["verify", graph, upper, 2, "--multiset"], "good")):
        start = time.perf_counter()
        code, (verdict, _, _), err = run(capsys, "--time-limit", 10, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 0 and verdict == expected, argv
        assert "Traceback" not in err


def count_drawn(monkeypatch):
    """Replace the edge generator `_wired_edges`, in both reduction modules
    that call it, by one that records each edge it yields; returns the
    record."""
    original, drawn = dds._wired_edges, []

    def recording(*args):
        for edge in original(*args):
            drawn.append(edge)
            yield edge

    for module in (dds, sat):
        monkeypatch.setattr(module, "_wired_edges", recording)
    return drawn


def test_reduce_and_audit_chain(tmp_path, capsys, monkeypatch):
    source = k4_pendant_file(tmp_path, {"s": 1, "t": 4})
    reduced = tmp_path / "out.dds"
    code, (verdict, value, cert), _ = run(
        capsys, "reduce", "cnd-to-dds", source, "-o", reduced)
    assert code == 0 and verdict == "ok" and value == "6" and cert == str(reduced)

    deletion = tmp_path / "x.set"
    write_vertex_set(deletion, [1])
    code, (verdict, _, _), _ = run(
        capsys, "audit", "dds-forward", reduced, "--deletion", deletion)
    assert code == 0 and verdict == "pass"
    code, (verdict, _, _), _ = run(
        capsys, "audit", "dds-roundtrip", reduced, "--deletion", deletion)
    assert code == 0 and verdict == "pass"

    write_vertex_set(deletion, [5])   # pendant deletion leaves the K4 intact
    code, (verdict, _, _), err = run(
        capsys, "audit", "dds-forward", reduced, "--deletion", deletion)
    assert code == 1 and verdict == "fail"
    assert "serious attack" in err

    # stated parameters far beyond the file are refused before any edge is drawn
    drawn = count_drawn(monkeypatch)
    g, params = read_graph(reduced)
    bogus = tmp_path / "bogus.dds"
    for name in ("k", "ell"):
        write_graph(bogus, g, {**params, name: 10 ** 12})
        for audit in ("dds-forward", "dds-roundtrip"):
            code, (verdict, _, _), err = run(
                capsys, "audit", audit, bogus, "--deletion", deletion)
            assert code == 2 and verdict == "error", (audit, name)
            assert f"stated {name}=1000000000000 differs" in err, (audit, name)
    assert drawn == []

    # a second value for a parameter the audit reads is refused
    with reduced.open("a") as f:
        f.write("c params k 4\n")
    code, (verdict, _, _), err = run(
        capsys, "audit", "dds-forward", reduced, "--deletion", deletion)
    assert code == 2 and verdict == "error"
    assert "parameter k given twice" in err and "Traceback" not in err


def test_sat_reduction_chain(tmp_path, capsys):
    from defdom.formulas import E2Formula
    formula = tmp_path / "f.cnf"
    write_formula(formula, E2Formula(
        1, 2, ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3))))
    reduced = tmp_path / "cnd.dds"
    code, (verdict, value, _), _ = run(
        capsys, "reduce", "e2sat-to-cnd", formula, "-o", reduced, "--allow-small")
    assert code == 0 and verdict == "ok" and value == "16"

    valuation = tmp_path / "nu.val"
    valuation.write_text("1\n")
    code, (verdict, _, _), _ = run(
        capsys, "audit", "cnd-certificate", reduced, "--valuation", valuation)
    assert code == 0 and verdict == "pass"

    valuation.write_text("0\n")
    code, (verdict, _, _), err = run(
        capsys, "audit", "cnd-certificate", reduced, "--valuation", valuation)
    assert code == 1 and verdict == "fail"
    assert "clique survives" in err

    code, (verdict, _, _), _ = run(
        capsys, "audit", "clique-typed", reduced)   # t from the params sidecar
    assert code == 0 and verdict == "pass"


@pytest.mark.parametrize("reduce, audit", [
    (["cnd-to-dds", "cnd.dds"], ["dds-forward", "--deletion", "x.set"]),
    (["e2sat-to-cnd", "f.cnf", "--allow-small"], ["cnd-certificate", "--valuation", "nu.val"]),
], ids=["dds", "sat"])
def test_edgeless_reduction_files_end_before_the_builder(
        tmp_path, capsys, monkeypatch, reduce, audit):
    # an edgeless copy of a construction, labels and parameters intact, once
    # made the audit build the whole construction before comparing; the
    # rebuild must stop at the first edge of the construction's stream
    from defdom.formulas import E2Formula
    monkeypatch.chdir(tmp_path)
    k4_pendant_file(tmp_path, {"s": 1, "t": 4})
    write_formula("f.cnf", E2Formula(
        1, 2, ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3))))
    write_vertex_set("x.set", [1])
    write_valuation("nu.val", [True])
    code, _, _ = run(capsys, "reduce", *reduce, "-o", "r.dds")
    assert code == 0
    g, params = read_graph("r.dds")
    write_graph("r.dds", Graph(g.n, [], g.labels), params)

    drawn = count_drawn(monkeypatch)
    code, (verdict, _, _), err = run(capsys, "audit", audit[0], "r.dds", *audit[1:])
    assert code == 2 and verdict == "error"
    assert "edges" in err and "Traceback" not in err
    assert len(drawn) == 1


def test_e2sat_verdicts(tmp_path, capsys):
    from defdom.formulas import E2Formula
    formula = tmp_path / "f.cnf"
    write_formula(formula, E2Formula(
        1, 2, ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3))))
    out = tmp_path / "nu.val"
    code, (verdict, value, cert), _ = run(
        capsys, "e2sat", formula, "--emit-valuation", out)
    assert code == 0 and verdict == "yes" and value == "1" and cert == str(out)
    assert read_valuation(out) == (True,)

    write_formula(formula, E2Formula(2, 1, ((1, 2, 3),) * 7))
    code, (verdict, _, _), err = run(capsys, "e2sat", formula)
    assert code == 1 and verdict == "no"
    assert "beaten by" in err


def test_solve_cnd_and_clique(tmp_path, capsys):
    source = k4_pendant_file(tmp_path)
    out = tmp_path / "x.set"
    code, (verdict, value, _), _ = run(
        capsys, "solve-cnd", source, "--s", 1, "--t", 4, "--emit-deletion", out)
    assert code == 0 and verdict == "yes" and value == "1"
    assert read_vertex_set(out) == frozenset({1})

    # no single deletion leaves the K4 free of triangles
    code, (verdict, value, _), err = run(capsys, "solve-cnd", source, "--s", 1, "--t", 3)
    assert code == 1 and verdict == "no" and value == "-"
    assert "Traceback" not in err

    witness = tmp_path / "w.set"
    code, (verdict, value, cert), _ = run(
        capsys, "clique", source, 4, "--emit-witness", witness)
    assert code == 0 and verdict == "found" and value == "4" and cert == str(witness)
    assert read_vertex_set(witness) == frozenset({1, 2, 3, 4})
    code, (verdict, _, _), _ = run(capsys, "clique", source, 5)
    assert code == 1 and verdict == "none"


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.dds", tmp_path / "b.dds"
    for out in (a, b):
        code, _, _ = run(capsys, "gen", "random", "--n", 12, "--p", 0.4,
                         "--seed", 9, "-o", out)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    for argv, expected in ((["star", "--leaves", 5], star_graph(5)),
                           (["cycle", "--n", 6], cycle_graph(6)),
                           (["complete", "--n", 5], complete_graph(5))):
        code, _, _ = run(capsys, "gen", *argv, "-o", a)
        assert code == 0 and read_graph(a)[0] == expected, argv

    f = tmp_path / "f.cnf"
    code, _, _ = run(capsys, "gen", "formula", "--a", 2, "--b", 2, "--c", 5,
                     "--seed", 3, "-o", f)
    assert code == 0
    parsed = read_formula(f)
    assert (parsed.a, parsed.b, parsed.c) == (2, 2, 5)

    # the interval file is pinned byte for byte, so a change in how the
    # generator draws or stores its values cannot alter the instances
    ivl = tmp_path / "g.ivl"
    code, _, _ = run(capsys, "gen", "interval", "--n", 1000, "--seed", 7, "-o", ivl)
    assert code == 0
    assert hashlib.sha256(ivl.read_bytes()).hexdigest() == (
        "5b6656ff5829f4e18d5e7ad91e600773216f7d00a85a924a2034eb3834b6a6c9")


def test_time_limit_exit_code(tmp_path, capsys):
    graph = tmp_path / "big.dds"
    code, _, _ = run(capsys, "gen", "random", "--n", 40, "--p", 0.5,
                     "--seed", 1, "-o", graph)
    assert code == 0
    code, (verdict, _, _), _ = run(
        capsys, "--time-limit", 1, "solve-exact", graph, 4)
    assert code == 3 and verdict == "timeout"


def test_time_limit_off_the_main_thread_is_an_input_error(tmp_path, capsys):
    # only the main thread may set a signal handler, so a limit asked for in
    # another thread ends in the error record instead of escaping main
    graph, codes = tmp_path / "p.dds", []
    argv = ["--time-limit", "5", "gen", "path", "--n", "3", "-o", str(graph)]
    worker = threading.Thread(target=lambda: codes.append(main(argv)))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    out, err = capsys.readouterr()
    assert codes == [2] and out == "verdict=error value=- certificate=-\n"
    assert "error: --time-limit works only in the main thread" in err
    assert not graph.exists()


def test_out_of_range_values_are_input_errors(tmp_path, capsys):
    graph = tmp_path / "p3.dds"
    write_graph(graph, path_graph(3))
    defense = tmp_path / "d.set"
    write_vertex_set(defense, [2])
    attacks = tmp_path / "a.atk"
    write_attacks(attacks, [[1, 99]])
    intervals = tmp_path / "i.txt"
    write_intervals(intervals, IntervalInstance({1: (0, 1)}))
    out = tmp_path / "out.txt"
    for argv in (["--time-limit", 99999999999, "verify", graph, defense, 2],
                 ["--time-limit", -1, "verify", graph, defense, 2],
                 ["--time-limit", 0, "verify", graph, defense, 2],
                 ["gen", "interval", "--n", -3, "-o", out],
                 ["gen", "formula", "--a", 2, "--b", 2, "--c", -1, "-o", out],
                 # the library checks each of these inputs
                 ["verify", graph, defense, 0],
                 ["greedy", intervals, 0],
                 ["solve-exact", graph, 0],
                 ["solve-exact", graph, "--attacks", attacks],
                 ["gen", "random", "--n", 5, "--p", 2, "-o", out],
                 ["clique", graph, 0]):
        code, (verdict, _, _), err = run(capsys, *argv)
        assert code == 2 and verdict == "error", argv
        assert "Traceback" not in err
    assert not out.exists()


F7_CNF = ("p e2cnf 2 1 7\n1 2 3 0\n-1 2 3 0\n1 -2 3 0\n-1 -2 3 0\n"
          "1 2 -3 0\n-1 2 -3 0\n1 -2 -3 0\n")
K4P_DDS = "p dds 5 7\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\ne 4 5\n"


@pytest.mark.parametrize("files, setup, argv, message", [
    ({"g.dds": "p dds 3 0\nc role 3\n"}, [], ["clique", "g.dds", 2],
     "g.dds:2: role line needs a vertex and a label"),
    ({"i.ivl": "p intervals\n"}, [], ["greedy", "i.ivl", 1],
     "i.ivl:1: header must be 'p intervals <n>'"),
    ({"i.ivl": "c only a comment\n"}, [], ["greedy", "i.ivl", 1],
     "i.ivl: missing 'p intervals' header"),
    ({"f.cnf": "p e2cnf 1 2 1\np e2cnf 1 2 1\n1 2 3 0\n"}, [], ["e2sat", "f.cnf"],
     "f.cnf:2: duplicate header"),
    ({"f.cnf": "p e2cnf 1 2\n"}, [], ["e2sat", "f.cnf"],
     "f.cnf:1: header must be 'p e2cnf <a> <b> <c>'"),
    ({"f.cnf": ""}, [], ["e2sat", "f.cnf"], "f.cnf: missing 'p e2cnf' header"),
    ({"g.dds": "p dds 4 0\nc role 1 c1:good:1:y1:pos\nc role 2 c1:good:2:y2:pos\n"
               "c role 3 c1:good:3:y3:pos\nc role 4 y3:pos\nc params t 9\n",
      "nu.val": "\n"}, [],
     ["audit", "cnd-certificate", "g.dds", "--valuation", "nu.val"],
     "stated t=9 differs from the construction's t=4 (a=0, b=3, c=1)"),
    ({"g.dds": "p dds 1 0\nc role 1 c1:good:1:y1:pos\n", "nu.val": "\n"}, [],
     ["audit", "cnd-certificate", "g.dds", "--valuation", "nu.val"],
     "clause 1 is missing occurrence 2"),
    ({"g.dds": "p dds 1 0\nc role 1 y1:pos\n", "nu.val": "\n"}, [],
     ["audit", "cnd-certificate", "g.dds", "--valuation", "nu.val"],
     "no clause gadgets found in labels"),
    ({"g.dds": "p dds 4 0\nc role 1 v'(1)\nc role 2 I1#1\nc role 3 I1#2\n"
               "c role 4 I'v(1)#1\nc params k 1\n", "x.set": "1\n"}, [],
     ["audit", "dds-forward", "g.dds", "--deletion", "x.set"],
     "stated k=1 differs from the construction's k=2 (n=1, s=1, t=1)"),
    ({}, [], ["gen", "formula", "--a", 1, "--b", 1, "--c", 1, "-o", "f.cnf"],
     "formula generation needs at least three variables"),
], ids=["role-without-label", "ivl-header-without-count", "ivl-comment-only",
        "cnf-duplicate-header", "cnf-short-header", "cnf-empty", "cnd-t-not-b-plus-c",
        "cnd-clause-missing-occurrence", "cnd-no-clause-gadget",
        "dds-forward-small-k", "gen-formula-two-variables"])
def test_input_errors_exit_2_with_their_message(tmp_path, capsys, monkeypatch,
                                                files, setup, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    if setup:
        assert run(capsys, *setup)[0] == 0
    code, (verdict, _, _), err = run(capsys, *argv)
    assert code == 2 and verdict == "error"
    assert message in err and "Traceback" not in err


def test_non_utf8_input_is_an_input_error(tmp_path, capsys):
    from defdom.formulas import E2Formula
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    graph = tmp_path / "p3.dds"
    write_graph(graph, path_graph(3))
    defense = tmp_path / "d.set"
    write_vertex_set(defense, [2])
    formula = tmp_path / "f.cnf"
    write_formula(formula, E2Formula(
        1, 2, ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3))))
    cnd = tmp_path / "cnd.dds"
    code, _, _ = run(capsys, "reduce", "e2sat-to-cnd", formula, "-o", cnd, "--allow-small")
    assert code == 0
    out = tmp_path / "out.txt"
    for argv in (["verify", bad, defense, 2],                      # read_graph
                 ["verify", graph, bad, 2],                        # read_vertex_set
                 ["verify", graph, bad, 2, "--multiset"],          # read_multiset
                 ["greedy", bad, 2],                               # read_intervals
                 ["solve-exact", graph, "--attacks", bad],         # read_attacks
                 ["e2sat", bad],                                   # read_formula
                 ["reduce", "e2sat-to-cnd", bad, "-o", out],
                 ["audit", "cnd-certificate", cnd, "--valuation", bad]):   # read_valuation
        code, (verdict, _, _), err = run(capsys, *argv)
        assert code == 2 and verdict == "error", argv
        assert "Traceback" not in err and str(bad) in err, argv
    assert not out.exists()


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    intervals = tmp_path / "i.ivl"
    code, _, _ = run(capsys, "gen", "interval", "--n", 5, "-o", intervals)
    assert code == 0
    for argv in (["gen", "path", "--n", 3, "-o", tmp_path / "missing" / "p.dds"],
                 ["greedy", intervals, 2, "--emit-defense", tmp_path]):
        code, (verdict, _, _), err = run(capsys, *argv)
        assert code == 2 and verdict == "error", argv
        assert "Traceback" not in err and "cannot write" in err, argv


def test_unknown_mode_values_are_input_errors(tmp_path, capsys):
    graph = tmp_path / "p3.dds"
    write_graph(graph, path_graph(3))
    defense = tmp_path / "d.set"
    write_vertex_set(defense, [2])
    # verify runs the pruned search alone, so there is no strategy to choose
    code, (verdict, _, _), err = run(capsys, "verify", graph, defense, 2, "--strategy", "bogus")
    assert code == 2 and verdict == "error"
    assert "Traceback" not in err and "unrecognized arguments: --strategy bogus" in err
    # the defense bound has one definition, so there is no mode to choose
    source = k4_pendant_file(tmp_path, {"s": 1, "t": 4})
    out = tmp_path / "out.dds"
    code, (verdict, _, _), err = run(capsys, "reduce", "cnd-to-dds", source, "-o", out,
                                     "--ell-mode", "literal")
    assert code == 2 and verdict == "error"
    assert "Traceback" not in err and "unrecognized arguments: --ell-mode literal" in err
    assert not out.exists()


def test_usage_errors_end_in_an_error_record(capsys):
    for argv in (["verify"], ["gen", "random", "--n", "3", "--p", "abc", "-o", "g.dds"],
                 ["frobnicate"]):
        code, (verdict, _, _), err = run(capsys, *argv)
        assert code == 2 and verdict == "error", argv
        assert err.startswith("usage: defdom") and "Traceback" not in err, argv


COMMANDS = ("verify", "solve-exact", "greedy", "reduce", "audit", "e2sat",
            "solve-cnd", "clique", "gen")


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["-h"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in text
    assert all(f"\n    {command} " in text for command in COMMANDS), text


def test_one_command_parser_reads_as_the_full_one(capsys):
    # a job builds only its own command's subparser; its help and the
    # usage line of a top-level error stay those of the full parser
    for argv in (["greedy", "-h"], ["reduce", "cnd-to-dds", "--help"],
                 ["greedy", "i.ivl", "2", "extra"], ["--time-limit", "5", "greedy", "-h"],
                 ["--time-limit=5", "greedy", "i.ivl", "2", "extra"],
                 ["--time-limit", "x", "greedy", "i.ivl", "2"]):
        with pytest.raises((SystemExit, InputError)) as full:
            cli._parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises((SystemExit, InputError)) as one:
            cli._parser(cli._invoked(argv)).parse_args(argv)
        assert capsys.readouterr() == expected, argv
        assert str(one.value) == str(full.value), argv
    assert [cli._invoked(argv) for argv in (
        ["greedy", "f", "2"], ["-h", "greedy"], ["--help"], ["frobnicate"],
        ["--", "greedy"], [], ["--time-limit", "5", "gen"], ["--time-limit=5", "gen"],
        ["--time", "5", "gen"], ["--time-limit"], ["--time-limit", "gen"],
        ["--time-limit=5", "--time-limit", "5", "gen"])] == [
            "greedy", None, None, None, None, None, "gen", "gen", None, None, None, None]


def test_unknown_command_names_the_choices(capsys):
    code, (verdict, _, _), err = run(capsys, "frobnicate", "x")
    assert code == 2 and verdict == "error"
    assert "invalid choice: 'frobnicate'" in err
    assert all(repr(command) in err for command in COMMANDS), err


def test_time_limit_spellings_before_a_command(tmp_path, capsys):
    intervals = tmp_path / "i.ivl"
    write_intervals(intervals, IntervalInstance({1: (0, 2), 2: (1, 3), 3: (4, 5)}))
    for limit in (["--time-limit", "5"], ["--time-limit=5"], ["--time", "5"]):
        code, record, _ = run(capsys, *limit, "greedy", intervals, 2)
        assert (code, record) == (0, ("ok", "3", "-")), limit


def source_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(defdom.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# Runs `main` on the arguments, then prints the peak RSS of this process in
# KiB on the line after the record.  It reads VmHWM, the high-water mark of
# the process's own memory map: Linux carries ru_maxrss across fork and exec,
# so getrusage would report the test runner's size.
CHILD = ("import sys\n"
         "from defdom.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "with open('/proc/self/status') as status:\n"
         "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
         "sys.exit(code)\n")


def run_child(*argv, timeout=60, address_space=None):
    """Run one defdom command in a fresh interpreter, its address space
    capped at `address_space` bytes if given.

    Returns the exit code, the record line, stderr and the child's own peak
    RSS in MB (None when the child died before reporting it).
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)],
                          capture_output=True, text=True, env=source_env(),
                          timeout=timeout, preexec_fn=limit if address_space else None)
    lines = proc.stdout.splitlines()
    record = lines[0] if lines else ""
    rss_mb = int(lines[1]) / 1024 if len(lines) == 2 else None
    return proc.returncode, record, proc.stderr, rss_mb


def test_python_dash_m(tmp_path):
    graph = tmp_path / "star.dds"
    write_graph(graph, star_graph(4))
    defense = tmp_path / "d.ms"
    write_multiset(defense, {1: 2})
    proc = subprocess.run([sys.executable, "-m", "defdom", "verify", str(graph),
                           str(defense), "2", "--multiset"],
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "verdict=good value=0 certificate=-"


def test_solve_exact_on_long_path_ends_with_a_record(tmp_path):
    # a search that recursed once per vertex died here with RecursionError
    graph = tmp_path / "p.dds"
    write_graph(graph, path_graph(1500))
    proc = subprocess.run([sys.executable, "-m", "defdom", "--time-limit", "1",
                           "solve-exact", str(graph), "1", "--multiset"],
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert RECORD.match(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("graph, k", [(Graph(50_000, []), 1), (path_graph(40_000), 2),
                                      (Graph(1_000_000, []), 2)],
                         ids=["edgeless-50000", "path-40000", "edgeless-1000000"])
def test_verify_finds_a_lone_vertex_in_bounded_memory(tmp_path, graph, k):
    # a vertex with no copy nearby is a size-1 violator; the search once
    # built quadratic distance-2 masks first (about 200 MB here), and the
    # graph once held a set and a frozenset per vertex (475 MB at 10^6)
    graph_file = tmp_path / "g.dds"
    write_graph(graph_file, graph)
    defense = tmp_path / "d.ms"
    write_multiset(defense, {1: 1})
    code, record, err, rss_mb = run_child("verify", graph_file, defense, k, "--multiset")
    assert "Traceback" not in err
    assert code == 1 and RECORD.match(record).group(1) == "bad"
    assert rss_mb < 100, rss_mb


def test_verify_on_many_small_components_in_bounded_memory(tmp_path):
    # 50 000 clustered intervals, no component above 16 vertices: masks
    # indexed by global vertex and copy ids once took 456 MB here
    inst = clustered_intervals(random.Random(18), 50_000)
    graph = tmp_path / "g.dds"
    write_graph(graph, intersection_graph(inst))
    defense = tmp_path / "d.ms"
    write_multiset(defense, greedy_defense(inst, 4))
    code, record, err, rss_mb = run_child("verify", graph, defense, 4, "--multiset")
    assert code == 0 and RECORD.match(record).group(1) == "good", err
    assert rss_mb < 150, rss_mb


@pytest.mark.parametrize("n, size", [(30, 13), (40, 20)])
def test_solve_exact_learns_cuts_for_a_large_attack(tmp_path, n, size):
    # seeding the cut of every subset of the attack took 10 s at (30, 13)
    # and ran past 30 s at (40, 20)
    graph = tmp_path / "p.dds"
    write_graph(graph, path_graph(n))
    attacks = tmp_path / "a.atk"
    write_attacks(attacks, [range(1, size + 1)])
    code, record, err, _ = run_child("--time-limit", 5, "solve-exact", graph,
                                     "--attacks", attacks)
    assert code == 0, err
    assert RECORD.match(record).groups()[:2] == ("optimal", str(size))


def test_solve_exact_on_a_hub_attack_in_bounded_memory(tmp_path):
    # every leaf of a 10 000-leaf star in one attack, under the default upper
    # bound of 10 000 copies per vertex: a matching that expanded each copy
    # into its own token ran out of memory on this input
    n = 10_000
    graph = tmp_path / "star.dds"
    write_graph(graph, star_graph(n))
    attacks = tmp_path / "leaves.atk"
    write_attacks(attacks, [range(2, n + 2)])
    code, record, err, rss_mb = run_child("solve-exact", graph, "--attacks", attacks,
                                          address_space=512 * 2**20)
    assert code == 0, err
    assert RECORD.match(record).groups()[:2] == ("optimal", str(n))
    assert rss_mb < 100, rss_mb


def test_hostile_sat_labels_exit_2_in_bounded_memory(tmp_path):
    # labels naming a = c = 400 on an edgeless 3 202-vertex file with no
    # 'c params' line, so the rebuild derives s and t and lays the
    # construction out; one that laid out the a*c^2 variable paddings
    # before comparing sizes ran out of memory here
    a = c = 400
    labels = [f"x{i}:{sign}:1" for i in range(1, a + 1) for sign in ("pos", "neg")]
    labels += ["y1:pos", "y1:neg"]
    for k in range(1, c + 1):
        labels += [f"c{k}:good:1:x{k}:pos", f"c{k}:good:2:y1:pos",
                   f"c{k}:good:3:x{k % a + 1}:neg",
                   f"c{k}:ugly:1", f"c{k}:bad:2", f"c{k}:bad:3"]
    graph = tmp_path / "hostile.dds"
    write_graph(graph, Graph(len(labels), [], dict(enumerate(labels, start=1))))
    valuation = tmp_path / "nu.val"
    write_valuation(valuation, [True] * a)
    code, record, err, _ = run_child("audit", "cnd-certificate", graph,
                                     "--valuation", valuation, timeout=30,
                                     address_space=1 << 30)
    assert code == 2, err
    assert RECORD.match(record).group(1) == "error"
    assert "Traceback" not in err and "out of memory" not in err
    assert "give a construction of more than 3202 vertices" in err


def wide_sat_labels(b, c, pads):
    """The labels of the construction for c clauses (y1, y2, y3) over b
    universal variables, its pads left out unless `pads`."""
    labels = [f"y{j}:{sign}" for sign in ("pos", "neg") for j in range(1, b + 1)]
    for k in range(1, c + 1):
        labels += [f"c{k}:good:{o}:y{o}:pos" for o in (1, 2, 3)]
        labels += [f"c{k}:ugly:1", f"c{k}:bad:2", f"c{k}:bad:3"]
    t = b + c
    if pads:
        labels += [f"c{k}:pad:{o}:{op}:{j}" for k in range(1, c + 1) for o in (1, 2, 3)
                   for op in (1, 2, 3) for j in range(1, t - 1)]
        labels += [f"c{k}:qpad:{j}" for k in range(1, c + 1) for j in range(1, t)]
    return labels


@pytest.mark.parametrize("b, c, pads, message", [
    (10 ** 4, 1, True, "edges"),
    (5000, 5000, False, "give a construction of more than 40000 vertices"),
], ids=["one-clause", "no-pads"])
def test_wide_edgeless_sat_files_exit_2_in_bounded_memory(tmp_path, b, c, pads, message):
    # one-clause: every label of the construction, 119 997 vertices and no
    # edges; a layout that listed the b(b-1)/2 pairs of universal gadgets
    # before the first edge check ran out of memory.  no-pads: the
    # clause pads missing; one that listed each universal good's 2b
    # neighbours before laying out the pads ran out of memory
    graph = tmp_path / "wide.dds"
    labels = wide_sat_labels(b, c, pads)
    write_graph(graph, Graph(len(labels), [], dict(enumerate(labels, start=1))))
    valuation = tmp_path / "nu.val"
    write_valuation(valuation, [True])
    code, record, err, _ = run_child("audit", "cnd-certificate", graph,
                                     "--valuation", valuation, timeout=30,
                                     address_space=1 << 30)
    assert code == 2, err
    assert RECORD.match(record).group(1) == "error"
    assert "Traceback" not in err and "out of memory" not in err
    assert message in err


def count_ids(monkeypatch):
    """Make every construction layout record each vertex id it asks for;
    returns the record.  A runaway layout stops at 10**6 ids."""
    original, asked = dds._Labels.fresh, []

    def recording(labels, label):
        asked.append(label)
        if len(asked) > 10 ** 6:
            raise RuntimeError("layout ran past 10**6 ids")
        return original(labels, label)

    monkeypatch.setattr(dds._Labels, "fresh", recording)
    return asked


def test_rebuild_layouts_stop_at_the_file_size(tmp_path, capsys, monkeypatch):
    # a construction larger than the file is refused after at most g.n + 1
    # ids and before any edge is drawn: labels naming n = 1000 source
    # vertices, s = 1 and t = 4 on a 2 005-vertex file, whose construction
    # has over 27 000 vertices, and labels naming a = c = 400 (b = 1) with
    # the s and t they imply, whose layout has over 64 million vertices (the
    # labels of test_hostile_sat_labels_exit_2_in_bounded_memory); a stated
    # ell other than the construction's is refused before any id is asked for
    monkeypatch.chdir(tmp_path)
    source = k4_pendant_file(tmp_path, {"s": 1, "t": 4})
    assert run(capsys, "reduce", "cnd-to-dds", source, "-o", "big.dds")[0] == 0
    g, params = read_graph("big.dds")
    write_graph("bogus.dds", g, {**params, "ell": 10 ** 12})
    write_vertex_set("x.set", [1])
    n = 1000
    labels = [f"v'({v})" for v in range(1, n + 1)] + [f"I'v(1)#{i}" for i in range(1, 5)]
    labels += [f"I1#{i}" for i in range(1, n + 2)]
    ell = 4 * (n + 1) + 4 * n - 5
    write_graph("wide.dds", Graph(len(labels), [], dict(enumerate(labels, start=1))),
                {"k": n + 1, "ell": ell})
    a = c = 400
    labels = [f"x{i}:{sign}:1" for i in range(1, a + 1) for sign in ("pos", "neg")]
    labels += ["y1:pos", "y1:neg"]
    for k in range(1, c + 1):
        labels += [f"c{k}:good:1:x{k}:pos", f"c{k}:good:2:y1:pos",
                   f"c{k}:good:3:x{k % a + 1}:neg",
                   f"c{k}:ugly:1", f"c{k}:bad:2", f"c{k}:bad:3"]
    write_graph("hostile.dds", Graph(len(labels), [], dict(enumerate(labels, start=1))),
                {"s": a * c + 3 * c, "t": 1 + c})
    write_valuation("nu.val", [True] * a)

    asked = count_ids(monkeypatch)
    drawn = count_drawn(monkeypatch)
    code, (verdict, _, _), err = run(capsys, "audit", "dds-forward", "bogus.dds",
                                     "--deletion", "x.set")
    assert code == 2 and verdict == "error", err
    assert ("stated ell=1000000000000 differs from the construction's ell=39 "
            "(n=5, s=1, t=4)") in err
    assert asked == []
    for argv, size, params in (
            (["dds-forward", "wide.dds", "--deletion", "x.set"], 2 * n + 5,
             f"labels and parameters (n={n}, s=1, t=4, ell={ell})"),
            (["cnd-certificate", "hostile.dds", "--valuation", "nu.val"], 3202,
             "labels (a=400, b=1, c=400)")):
        asked.clear()
        code, (verdict, _, _), err = run(capsys, "audit", *argv)
        assert code == 2 and verdict == "error", err
        assert (f"{params} give a construction of more than {size} vertices, "
                f"the graph has {size}") in err
        assert len(asked) <= size + 1
    assert drawn == []


def test_audits_read_every_parameter_off_the_labels(tmp_path, capsys, monkeypatch):
    # a construction file passes every rebuild audit without its 'c params'
    # line, and a stated value other than the one the labels give, for any
    # one parameter, is refused by name before any vertex id is laid out
    from defdom.formulas import E2Formula
    monkeypatch.chdir(tmp_path)
    k4_pendant_file(tmp_path, {"s": 1, "t": 4})
    write_formula("f.cnf", E2Formula(
        1, 2, ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3))))
    write_vertex_set("x.set", [1])
    write_valuation("nu.val", [True])
    assert run(capsys, "reduce", "cnd-to-dds", "cnd.dds", "-o", "dds.dds")[0] == 0
    assert run(capsys, "reduce", "e2sat-to-cnd", "f.cnf", "-o", "sat.dds",
               "--allow-small")[0] == 0
    asked = count_ids(monkeypatch)
    for path, audits in (("dds.dds", (["dds-forward", "--deletion", "x.set"],
                                      ["dds-roundtrip", "--deletion", "x.set"])),
                         ("sat.dds", (["cnd-certificate", "--valuation", "nu.val"],))):
        g, params = read_graph(path)
        assert set(params) == ({"k", "ell", "s", "t"} if path == "dds.dds"
                               else {"s", "t", "a", "b", "c"})
        write_graph("bare.dds", g)
        for audit in audits:
            code, (verdict, _, _), err = run(capsys, "audit", audit[0], "bare.dds", *audit[1:])
            assert code == 0 and verdict == "pass", (audit, err)
        for name, value in params.items():
            write_graph("wrong.dds", g, {**params, name: value + 1})
            for audit in audits:
                asked.clear()
                code, (verdict, _, _), err = run(capsys, "audit", audit[0], "wrong.dds",
                                                 *audit[1:])
                assert code == 2 and verdict == "error", (audit, name)
                assert (f"stated {name}={value + 1} differs from the construction's "
                        f"{name}={value} (") in err, (audit, name, err)
                assert asked == [], (audit, name)


@pytest.mark.parametrize("graph, size, argv, code, record", [
    (star_graph, 1099, ["verify", "g.dds", "d.ms", 1100, "--multiset"], 1, ("bad", "1")),
    (complete_graph, 1100, ["clique", "g.dds", 1100], 0, ("found", "1100")),
], ids=["verify-star", "clique-complete"])
def test_searches_deeper_than_the_recursion_limit(tmp_path, monkeypatch, graph, size, argv,
                                                   code, record):
    # the pruned violator search and the clique search each recursed once
    # per member, and died with RecursionError near 1 000 members
    monkeypatch.chdir(tmp_path)
    write_graph("g.dds", graph(size))
    write_multiset("d.ms", {1: 1099})   # the star's center: one copy short
    got, line, err, _ = run_child(*argv)
    assert "Traceback" not in err
    assert got == code and RECORD.match(line).groups()[:2] == record


def test_hostile_header_exits_2_when_memory_runs_out(tmp_path):
    # an edgeless header promising 10^9 vertices asks for an 8 GB
    # adjacency table; the MemoryError once ended in a traceback and exit 1
    graph = tmp_path / "g.dds"
    graph.write_text("p dds 1000000000 0\n")
    defense = tmp_path / "d.ms"
    write_multiset(defense, {1: 1})
    code, record, err, _ = run_child("verify", graph, defense, 2, "--multiset",
                                     address_space=3 << 29)
    assert code == 2, err
    assert RECORD.match(record).group(1) == "error"
    assert "out of memory" in err and "Traceback" not in err


HUGE = 10**20   # past the index range, so nothing this size is ever allocated


@pytest.mark.parametrize("argv", [
    ["verify", "h.dds", "d.ms", 2, "--multiset"],
    ["solve-exact", "h.dds", 2],
    ["clique", "h.dds", 3],
    *(["gen", kind, "--n", HUGE, "-o", "o.dds"] for kind in ("interval", "complete", "path",
                                                              "cycle")),
    ["gen", "random", "--n", HUGE, "--p", 0.5, "-o", "o.dds"],
    ["gen", "star", "--leaves", HUGE, "-o", "o.dds"],
    ["gen", "formula", "--a", HUGE, "--b", 0, "--c", 1, "-o", "o.cnf"],
], ids=lambda argv: "-".join(map(str, argv[:2])))
def test_counts_past_the_index_range_exit_2_at_once(tmp_path, capsys, monkeypatch, argv):
    # such a count once raised OverflowError and exited 1, and `gen path`,
    # `star` and `cycle` spun in the edge loop until killed; the time limit
    # turns a hang into a timeout record that fails the test
    monkeypatch.chdir(tmp_path)
    Path("h.dds").write_text(f"p dds {HUGE} 0\n")
    write_multiset("d.ms", {1: 1})
    start = time.perf_counter()
    code, (verdict, _, _), err = run(capsys, "--time-limit", 2, *argv)
    assert (code, verdict) == (2, "error"), err
    assert time.perf_counter() - start < 1
    assert "index range" in err and not Path("o.dds").exists()


NINES = "9" * 5000   # beyond int()'s 4 300-digit string limit


@pytest.mark.parametrize("argv, label, params", [
    (["clique-typed", "g.dds"], f"x{NINES}:pos:1", {"t": 5}),
    (["dds-forward", "g.dds", "--deletion", "x.set"], f"e'({NINES},1)", {"k": 5, "ell": 3}),
    (["cnd-certificate", "g.dds", "--valuation", "nu.val"], f"y{NINES}:pos", {"s": 1, "t": 5}),
], ids=["clique-typed", "dds-forward", "cnd-certificate"])
def test_long_label_indices_are_input_errors(tmp_path, capsys, monkeypatch, argv, label, params):
    monkeypatch.chdir(tmp_path)
    write_graph("g.dds", Graph(1, [], {1: label}), params)
    write_vertex_set("x.set", [1])
    write_valuation("nu.val", [True])
    code, (verdict, _, _), err = run(capsys, "audit", *argv)
    assert code == 2 and verdict == "error"
    assert "Traceback" not in err


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('defdom'))))"


def run_loaded(argv, probe):
    """Run one command in a fresh interpreter: its record line, the line
    `probe` prints, and the `defdom` modules it loaded outside
    `defdom.commands`."""
    code = ("import sys, defdom.cli; "
            f"defdom.cli.main({[str(a) for a in argv]!r}); "
            f"print({probe}); " + LOADED)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0, proc.stderr
    record, probed, loaded = proc.stdout.strip().splitlines()
    # a job imports its own command's module and no other command's
    modules = loaded.split()
    command = next(str(a) for a in argv if str(a) in COMMANDS)
    assert "defdom.commands" in modules, argv
    assert [m for m in modules if m.startswith("defdom.commands.")] == [
        "defdom.commands." + command.replace("-", "_")], argv
    return record, probed, {m for m in modules if not m.startswith("defdom.commands")}


def test_cli_import_leaves_numpy_out(tmp_path):
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, defdom.cli; print('numpy' in sys.modules); " + LOADED],
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "defdom defdom.cli defdom.errors"]

    # a greedy job loads the interval path only: no graph, verifier,
    # solver, matching, formula or reduction module, and no dataclasses
    intervals = tmp_path / "i.ivl"
    write_intervals(intervals, IntervalInstance({1: (0, 2), 2: (1, 3), 3: (4, 5)}))
    out = tmp_path / "d.ms"
    record, probed, loaded = run_loaded(
        ["greedy", intervals, "2", "--emit-defense", out],
        "'dataclasses' in sys.modules, 'numpy' in sys.modules, 'fractions' in sys.modules")
    assert record.startswith("verdict=ok value=3")
    assert probed == "False False False"
    assert loaded == {"defdom", "defdom.cli", "defdom.errors", "defdom.intervals", "defdom.io"}

    # a time limit before the command, in either full spelling, changes no
    # module the job loads
    for limit in (["--time-limit", "5"], ["--time-limit=5"]):
        record, _, loaded = run_loaded(
            [*limit, "gen", "path", "--n", "3", "-o", tmp_path / "p.dds"], "0")
        assert record.startswith("verdict=ok"), limit
        assert loaded == {"defdom", "defdom.cli", "defdom.errors", "defdom.graphs",
                          "defdom.io"}, limit

    # a graph job loads neither the interval module nor fractions
    graph = tmp_path / "star.dds"
    write_graph(graph, star_graph(3))
    defense = tmp_path / "d.set"
    write_vertex_set(defense, [1])
    record, probed, loaded = run_loaded(["verify", graph, defense, "1"],
                                        "'fractions' in sys.modules")
    assert (record, probed) == ("verdict=good value=0 certificate=-", "False")
    assert loaded == {"defdom", "defdom.cli", "defdom.defense", "defdom.errors",
                      "defdom.graphs", "defdom.io"}

    # exact and certify jobs build their records without dataclasses or
    # inspect; the size-k solvers leave the matching code out, and listed
    # attacks the verifier
    from defdom.formulas import E2Formula
    formula = tmp_path / "f.cnf"
    write_formula(formula, E2Formula(
        1, 2, ((-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3))))
    reduced = tmp_path / "cnd.dds"
    valuation = tmp_path / "nu.val"
    write_valuation(valuation, [True])
    attacks = tmp_path / "a.atk"
    write_attacks(attacks, [[2, 3]])
    for argv, expected, left_out in (
            (["solve-exact", graph, "3", "--multiset"], "verdict=optimal value=3",
             "defdom.matching"),
            (["solve-exact", graph, "--attacks", attacks], "verdict=optimal value=2",
             "defdom.defense"),
            (["reduce", "e2sat-to-cnd", formula, "-o", reduced, "--allow-small"],
             "verdict=ok value=16", None),
            (["audit", "cnd-certificate", reduced, "--valuation", valuation],
             "verdict=pass", None)):
        record, probed, loaded = run_loaded(
            argv, "'dataclasses' in sys.modules, 'inspect' in sys.modules")
        assert record.startswith(expected), argv
        assert probed == "False False", argv
        assert left_out not in loaded, argv


def test_lazy_namespace_resolves_every_public_name():
    import importlib

    import defdom.reductions
    for package in (defdom, defdom.reductions):
        for name, module in package._EXPORTS.items():
            source = importlib.import_module(f"{package.__name__}.{module}")
            assert getattr(package, name) is getattr(source, name), name
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        with pytest.raises(AttributeError):
            package.no_such_name
    assert set(defdom.__all__) == {*defdom._EXPORTS, "__version__"}
    assert set(defdom.reductions.__all__) == set(defdom.reductions._EXPORTS)


def test_console_script(tmp_path):
    exe = shutil.which("defdom")
    assert exe, "console script should be installed"
    graph = tmp_path / "star.dds"
    write_graph(graph, star_graph(4))
    defense = tmp_path / "d.ms"
    write_multiset(defense, {1: 2})
    proc = subprocess.run([exe, "verify", str(graph), str(defense), "2",
                           "--multiset"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "verdict=good value=0 certificate=-"

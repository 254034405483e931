"""Re-runnable mutation check: does the suite notice each listed fault?

Each entry names a file under `src/defdom`, an exact text that occurs in it
once, the text that replaces it, and the test files expected to fail.  The
script first runs each distinct test list once against an unmutated copy of
`src`; a list that fails there cannot tell a mutant apart, so its mutants
count as baseline_failed.  For every other entry it copies `src` to a
temporary directory, applies the edit there, runs only those tests against
the copy under a time limit and counts the mutant as killed (a test
failed), survived (all passed) or timed out.  A mutant listed in
`EQUIVALENT` changes no result the tests can see; it counts as equivalent
when it survives.  The counts print as one JSON object, and the script
exits 1 when any mutant survived, timed out or had a failing baseline, so
it can serve as a gate.

    python tests/mutants.py            # every entry
    python tests/mutants.py pads-b-first skip-done   # the named ones

pytest does not collect this file, and the checkout is never edited.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIME_LIMIT = 300   # seconds per mutant
SAT, MATCHING, DDS = "reductions/sat.py", "matching.py", "reductions/dds.py"
SAT_TESTS = ["tests/test_reductions_sat.py", "tests/test_acceptance.py"]
MATCHING_TESTS = ["tests/test_matching.py"]
DDS_TESTS = ["tests/test_reductions_dds.py"]
STATED_TESTS = ["tests/test_reductions_dds.py", "tests/test_reductions_sat.py",
                "tests/test_cli.py::test_audits_read_every_parameter_off_the_labels",
                "tests/test_cli.py::test_rebuild_layouts_stop_at_the_file_size"]
DDS_STATED = ('_require_stated(stated, {"k": k, "ell": ell, "s": s, "t": t}, '
              'f"n={n}, s={s}, t={t}")')
DDS_LAYOUT = "layout, built = _dds_layout(inst, cap=g.n)"
ALARM = "old = signal.signal(signal.SIGALRM, handler)"
GREEDY, GREEDY_TESTS = "intervals.py", ["tests/test_intervals.py"]
LOADED_TESTS = ["tests/test_cli.py::test_cli_import_leaves_numpy_out"]
GREEDY_BEST = ("if (right := rank[i + n]) > best_right:\n"
               "                best_right = right\n                best = i + 1")

# (name, file, old text, new text, tests expected to kill it)
MUTANTS = [
    ("pads-b-first", SAT, "sorted(pads.items())",
     "sorted(pads.items(), key=lambda item: (item[0][0] == 'a', item[0]))", SAT_TESTS),
    ("pads-short-by-one", SAT, "len(ids) == t - 2", "len(ids) >= t - 3", SAT_TESTS),
    ("bads-out-of-pool", SAT, 'ends[("bad", int(k), int(o))] = vid\n        pool.append(vid)',
     'ends[("bad", int(k), int(o))] = vid', SAT_TESTS),
    ("q-cores-out-of-clause", SAT, "if q_flag:\n            clause[int(p)].append(vid)",
     "pass", SAT_TESTS),
    ("pad-witness-unverified", SAT, "return _verify_clique(g, [u, v, *ids])",
     "return frozenset([u, v, *ids])", SAT_TESTS),
    ("greedy-room-le", MATCHING, "if len(held) < defense[s]:\n                seat[root]",
     "if len(held) <= defense[s]:\n                seat[root]", MATCHING_TESTS),
    ("shift-room-le", MATCHING, "if len(held) < defense[s]:\n                # a takes",
     "if len(held) <= defense[s]:\n                # a takes", MATCHING_TESTS),
    ("skip-done", MATCHING, "if s not in done:", "if True:", MATCHING_TESTS),
    ("root-not-returned", MATCHING, "return frozenset(came)",
     "return frozenset(came) - {root}", MATCHING_TESTS),
    ("no-whole-attack-shortcut", MATCHING,
     "if len(attackers) > total:\n            return frozenset(attackers)\n", "", MATCHING_TESTS),
    ("dds-stated-k-ell-only", DDS, '{"k": k, "ell": ell, "s": s, "t": t}',
     '{"k": k, "ell": ell}', STATED_TESTS),
    ("sat-stated-s-t-only", SAT, '{"s": s, "t": t, "a": a, "b": b, "c": c}',
     '{"s": s, "t": t}', STATED_TESTS),
    ("stated-after-layout", DDS, f"{DDS_STATED}\n    {DDS_LAYOUT}",
     f"{DDS_LAYOUT}\n    {DDS_STATED}", STATED_TESTS),
    ("derived-s-off-by-one", DDS, 'label.startswith("I1#")) - n',
     'label.startswith("I1#")) - n - 1', STATED_TESTS),
    ("multipartite-next-part-only", DDS, "for other in parts[i + 1:]",
     "for other in parts[i + 1:i + 2]", SAT_TESTS),
    ("clause-clique-one-qpad-short", SAT, "t - 1 - len(z) // 2", "t - 2 - len(z) // 2",
     SAT_TESTS),
    ("cliques-stop-after-variable-gadgets", SAT, "cliques=tuple(cliques)",
     "cliques=tuple(cliques[:f.a * c * c])", SAT_TESTS),
    ("dds-q4-i4-join-dropped", DDS, ', (q4, groups["I4"])]', "]", DDS_TESTS),
    ("default-upper-ignores-lower", "commands/solve_exact.py", "max(cap, lower.get(v, 0))",
     "cap", ["tests/test_cli.py::test_default_upper_bound_meets_the_lower_one"]),
    ("alarm-off-main-thread-escapes", "cli.py",
     f"try:\n        {ALARM}\n    except ValueError:", f"{ALARM}\n    if False:",
     ["tests/test_cli.py::test_time_limit_off_the_main_thread_is_an_input_error"]),
    ("pruned-gate-strict", "defense.py", "bisect_left(comp[3], m) >= m",
     "bisect_left(comp[3], m) > m", ["tests/test_defense.py"]),
    ("ell-one-more", DDS, "n * t - (t + 1)", "n * t - t", DDS_TESTS),
    ("twin-copies-uncounted", DDS,
     "defense.get(lay.v_prime[v], 0) + defense.get(lay.v_second[v], 0)",
     "defense.get(lay.v_prime[v], 0)", DDS_TESTS),
    ("deleted-ends-kept", "graphs.py", "if u > v and new[u]:", "if u > v:",
     ["tests/test_graphs.py"]),
    ("greedy-later-runs-kept", GREEDY, "[key - 1 for key in run_key[r + 1:]]",
     "run_key[r + 1:]", GREEDY_TESTS),
    ("greedy-need-own-run-only", GREEDY, "(max(run_key[:r + 1]) if r else run_key[0])",
     "run_key[r]", GREEDY_TESTS),
    ("greedy-best-at-component-start", GREEDY, f"lift = 0\n            {GREEDY_BEST}",
     "lift = 0\n                best_right, best = rank[i + n], i + 1", GREEDY_TESTS),
    ("greedy-no-reset-at-gap", GREEDY, "if x > best_right:", "if False:", GREEDY_TESTS),
    ("greedy-gap-test-ge", GREEDY, "if x > best_right:", "if x >= best_right:",
     GREEDY_TESTS),
    ("violator-zero-deficiency", "defense.py", "if deficiency <= 0:", "if deficiency < 0:",
     ["tests/test_defense.py"]),
    ("violator-without-slots", "defense.py", "__slots__ = ()\n\n    def __new__(cls, attack",
     "def __new__(cls, attack", ["tests/test_defense.py"]),
    ("formula-variable-past-range", "formulas.py", "if var > a + b:", "if var > a + b + 1:",
     ["tests/test_formulas.py"]),
    ("cnd-budget-past-n", DDS, "if s > graph.n:", "if s > graph.n + 1:", DDS_TESTS),
    ("parser-imports-every-command", "cli.py", "if command in (None, name):", "if True:",
     LOADED_TESTS),
    ("time-limit-value-read-as-command", "cli.py", "argv = argv[2:]", "argv = argv[1:]",
     LOADED_TESTS),
    ("pruned-stops-below-k", "defense.py", "range(2, min(k, g.n) + 1)", "range(2, min(k, g.n))",
     ["tests/test_defense.py::test_strategies_agree_on_violator_existence"]),
    ("shift-first-holder-only", MATCHING, "for b in held:", "for b in held[:1]:",
     ["tests/test_matching.py::test_uncountered_matches_per_attack_checks"]),
    ("solvers-import-matching-at-top", "solvers.py", "import bisect\n",
     "import bisect\nfrom defdom.matching import uncountered\n", LOADED_TESTS),
    ("solvers-import-verifier-at-top", "solvers.py", "import bisect\n",
     "import bisect\nfrom defdom.defense import find_violator\n", LOADED_TESTS),
]
# mutants that cannot change any result, with the reason
EQUIVALENT = {
    "greedy-gap-test-ge": "x is a left rank and best_right a right rank or -1, "
                          "and no two endpoints share a rank, so x == best_right never holds",
}


def run(tests, edit=None) -> str:
    """Run `tests` against a copy of `src`, with `edit`, a (name, file, old
    text, new text) tuple, applied first when given: passed, failed or
    timed_out."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if edit:
            name, file, old, new = edit
            target = src / "defdom" / file
            text = target.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {file}")
            target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                *(str(ROOT / t) for t in tests)]
        try:
            done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True,
                                  timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            return "timed_out"
        return "passed" if done.returncode == 0 else "failed"


def outcome(name, file, old, new, tests, baseline) -> str:
    if baseline[tuple(tests)] != "passed":
        return "baseline_failed"
    result = run(tests, (name, file, old, new))
    if result == "failed":
        return "killed"
    if result == "passed":
        return "equivalent" if name in EQUIVALENT else "survived"
    return result


if __name__ == "__main__":
    chosen = [m for m in MUTANTS if not sys.argv[1:] or m[0] in sys.argv[1:]]
    baseline = {tests: run(tests) for tests in dict.fromkeys(tuple(m[4]) for m in chosen)}
    outcomes = {m[0]: outcome(*m, baseline) for m in chosen}
    counts = {kind: sum(v == kind for v in outcomes.values())
              for kind in ("killed", "survived", "equivalent", "timed_out", "baseline_failed")}
    print(json.dumps({**counts, "mutants": outcomes}, indent=1))
    sys.exit(1 if counts["survived"] + counts["timed_out"] + counts["baseline_failed"] else 0)

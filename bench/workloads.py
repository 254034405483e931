"""Benchmark workloads: each one turns a seed into a cycle of CLI jobs.

A job is the argument list of one `defdom` command plus the exit code,
verdict and value the oracles expect, and optionally a check of the files
the command wrote.  Each workload function writes its inputs under the
given directory.
The closed loop runs a workload's cycle in order, over and over.
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import generators as gen
import oracles

RECORD = re.compile(r"^verdict=(\S+) value=(\S+) certificate=(\S+)$")


@dataclass
class Job:
    argv: list[str]
    code: int
    verdict: str
    value: str
    check: Optional[Callable[[], Optional[str]]] = None   # error text or None


def job_error(job: Job, code: int, stdout: str) -> Optional[str]:
    """Compare one run of a job with its expected answer; None when correct."""
    lines = stdout.strip().splitlines()
    m = RECORD.match(lines[-1]) if lines else None
    if m is None:
        return f"exit {code} without a record line"
    if (code, m[1], m[2]) != (job.code, job.verdict, job.value):
        return (f"expected exit {job.code} verdict={job.verdict} value={job.value}, "
                f"got exit {code} {lines[-1]}")
    return job.check() if job.check else None


def _read_multiset(path: Path) -> dict[int, int]:
    return {int(v): int(c) for v, c in (line.split() for line in path.read_text().split("\n") if line)}


def _header_check(path: Path, vertices: int, params: dict[str, int]) -> Callable[[], Optional[str]]:
    """Check a written graph file's vertex count and its 'c params' values."""
    def check() -> Optional[str]:
        lines = path.read_text().split("\n", 2)
        header, found = lines[0].split(), {}
        if len(lines) > 1 and lines[1].startswith("c params"):
            pairs = lines[1].split()[2:]
            found = {name: int(value) for name, value in zip(pairs[0::2], pairs[1::2])}
        if header[:3] != ["p", "dds", str(vertices)]:
            return f"{path.name}: header {lines[0]!r}, expected {vertices} vertices"
        wrong = {name: found.get(name) for name, value in params.items()
                 if found.get(name) != value}
        return f"{path.name}: params {wrong}, expected {params}" if wrong else None
    return check


# ------------------------------------------------------------ workloads


DENSE_K = 50   # the `greedy` budget on dense files


def greedy_dense(rng: random.Random, work: Path, n: int = 10_000,
                 files: int = 3) -> list[Job]:
    """`greedy <f> DENSE_K` on the dense shape; the answer is min(k, n)."""
    jobs = []
    for i in range(files):
        rows = gen.dense_intervals(n, rng)
        while not oracles.has_universal_interval(rows):
            rows = gen.dense_intervals(n, rng)
        path = work / f"dense{i}.txt"
        gen.write_intervals(path, rows)
        jobs.append(Job(["greedy", str(path), str(DENSE_K)], 0, "ok",
                        str(oracles.dense_optimum(rows, DENSE_K))))
    return jobs


def greedy_sparse(rng: random.Random, work: Path, n: int = 10_000,
                  ks: tuple[int, ...] = (1, 5, 500)) -> list[Job]:
    """`greedy <f> k --emit-defense` on clustered instances, one per k.

    The emitted multiset must equal the per-component reference wherever
    that was run.  Where k covers every component, each component must
    receive exactly one copy per vertex in total (its own optimum).
    """
    jobs = []
    for i, k in enumerate(ks):
        rows = gen.sparse_intervals(n, rng)
        path, out = work / f"sparse{i}.txt", work / f"sparse{i}.ms"
        gen.write_intervals(path, rows)
        size, expected = oracles.component_greedy(rows, k)
        comps = gen.components(rows) if expected is None else []

        def check(out=out, size=size, expected=expected, comps=comps) -> Optional[str]:
            got = _read_multiset(out)
            if expected is not None:
                wrong = got != expected
            else:
                wrong = sum(got.values()) != size or any(
                    sum(got.get(v, 0) for v in comp) != len(comp) for comp in comps)
            return f"{out.name}: emitted defense differs from the reference" if wrong else None

        jobs.append(Job(["greedy", str(path), str(k), "--emit-defense", str(out)],
                        0, "ok", str(size), check))
    return jobs


# Exact instances are G(n, EXACT_P) draws, kept until the multiset optimum
# (k = 3) matches the stratum's target and the set optimum (k = 2) is one
# less, so every seed mixes the same search depths.  Each graph also gets a
# file of EXACT_ATTACKS listed 3-attacks, redrawn until their optimum is two
# less than the target.  These are the commonest optima of each stratum.
EXACT_STRATA = ((14, 6), (14, 6), (14, 7), (15, 6), (15, 6), (15, 7))
EXACT_P = 0.25
EXACT_ATTACKS = 8
EXACT_DRAWS = 1000   # draws per stratum before the workload gives up


def exact(rng: random.Random, work: Path,
          strata: tuple[tuple[int, Optional[int]], ...] = EXACT_STRATA) -> list[Job]:
    """`solve-exact` on G(n, p): multiset k = 3, set k = 2, and a listed-attack file.

    A stratum target of None takes the first draws, whatever their optima.
    """
    jobs = []
    for i, (n, target) in enumerate(strata):
        for _ in range(EXACT_DRAWS):
            edges = gen.gnp(n, EXACT_P, rng)
            multi = oracles.exact_optimum(n, edges, 3, multiset=True)
            if target is not None and multi != target:
                continue
            single = oracles.exact_optimum(n, edges, 2, multiset=False)
            if target is None or single == target - 1:
                break
        else:
            raise RuntimeError(f"no G({n}, {EXACT_P}) draw reached multiset optimum {target}")
        for _ in range(EXACT_DRAWS):
            listed = [rng.sample(range(1, n + 1), 3) for _ in range(EXACT_ATTACKS)]
            attacked = oracles.listed_attacks_optimum(n, edges, listed)
            if target is None or attacked == target - 2:
                break
        else:
            raise RuntimeError(f"no attack list on G({n}, {EXACT_P}) reached optimum {target - 2}")
        graph, attack_file = work / f"exact{i}.dds", work / f"exact{i}.atk"
        gen.write_graph(graph, n, edges)
        gen.write_attacks(attack_file, listed)
        jobs += [
            Job(["solve-exact", str(graph), "3", "--multiset"], 0, "optimal", str(multi)),
            Job(["solve-exact", str(graph), "2"], 0, "optimal", str(single)),
            Job(["solve-exact", str(graph), "--attacks", str(attack_file)], 0, "optimal",
                str(attacked)),
        ]
    return jobs


def _dds_chain(work: Path, name: str, n: int, edges: gen.Edges, s: int, t: int,
               deletion) -> list[Job]:
    source, big, dfile = work / f"{name}.cnd", work / f"{name}.dds", work / f"{name}.del"
    gen.write_graph(source, n, edges, {"s": s, "t": t})
    gen.write_vertex_set(dfile, deletion)
    size = oracles.dds_sizes(n, len(edges), s, t)
    return [
        Job(["reduce", "cnd-to-dds", str(source), "-o", str(big)], 0, "ok", str(size["k"]),
            _header_check(big, size["vertices"], {"k": size["k"], "ell": size["ell"]})),
        Job(["audit", "dds-forward", str(big), "--deletion", str(dfile)], 0, "pass",
            str(size["ell"])),
        Job(["audit", "dds-roundtrip", str(big), "--deletion", str(dfile)], 0, "pass", str(s)),
    ]


def _sat_chain(work: Path, name: str, a: int, b: int, clauses, nu) -> list[Job]:
    ffile, big, vfile = work / f"{name}.cnf", work / f"{name}.dds", work / f"{name}.nu"
    gen.write_formula(ffile, a, b, clauses)
    gen.write_valuation(vfile, nu)
    size = oracles.sat_cnd_sizes(a, b, clauses)
    bits = "".join("1" if bit else "0" for bit in nu) or "-"
    return [
        Job(["e2sat", str(ffile)], 0, "yes", bits),
        Job(["reduce", "e2sat-to-cnd", str(ffile), "-o", str(big)], 0, "ok", str(size["s"]),
            _header_check(big, size["vertices"], {"s": size["s"], "t": size["t"]})),
        Job(["audit", "cnd-certificate", str(big), "--valuation", str(vfile)], 0, "pass",
            str(size["s"])),
        Job(["audit", "clique-typed", str(big)], 0, "pass", str(size["t"])),
    ]


def certify(rng: random.Random, work: Path, n: int = 5_000, ks: tuple[int, ...] = (4, 6),
            graphs: tuple[tuple[int, int], ...] = ((8, 14),),
            clause_counts: tuple[int, ...] = (7, 8)) -> list[Job]:
    """Certificate checks: pruned verification, the DDS reduction with its two
    audits, and the SAT reduction with its two audits."""
    jobs = []
    for i, k in enumerate(ks):
        rows = gen.sparse_intervals(n, rng)
        graph = work / f"verify{i}.dds"
        gen.write_graph(graph, n, gen.interval_edges(rows))
        _, defense = oracles.component_greedy(rows, k)
        defense = defense or {v: 1 for v in range(1, n + 1)}
        good, bad = work / f"verify{i}.good", work / f"verify{i}.bad"
        gen.write_multiset(good, defense)
        short = rng.choice(sorted(defense))
        gen.write_multiset(bad, {**defense, short: defense[short] - 1})
        jobs += [Job(["verify", str(graph), str(good), str(k), "--multiset"], 0, "good", "0"),
                 Job(["verify", str(graph), str(bad), str(k), "--multiset"], 1, "bad", "1")]

    sources = [("k4p",) + gen.k4_pendant() + (1,)]
    for i, (gn, gm) in enumerate(graphs):
        sources.append((f"gnm{i}", gn, gen.gnm(gn, gm, rng), 2))
    for name, gn, edges, s in sources:
        deletion = oracles.clique_deletion(gn, edges, s, 4)
        while deletion is None:
            edges = gen.gnm(gn, len(edges), rng)
            deletion = oracles.clique_deletion(gn, edges, s, 4)
        jobs += _dds_chain(work, name, gn, edges, s, 4, deletion)

    for i, c in enumerate(clause_counts):
        clauses = gen.formula(2, 2, c, rng)
        nu = oracles.e2sat_winner(2, 2, clauses)
        while nu is None:
            clauses = gen.formula(2, 2, c, rng)
            nu = oracles.e2sat_winner(2, 2, clauses)
        jobs += _sat_chain(work, f"sat{i}", 2, 2, clauses, nu)
    return jobs


WORKLOADS: dict[str, Callable[..., list[Job]]] = {
    "greedy-dense": greedy_dense,
    "greedy-sparse": greedy_sparse,
    "exact": exact,
    "certify": certify,
}

# One small job of every command, appended to each traced pass so that
# every layer is exercised whatever the workload.
PROBE: tuple[tuple[Callable[..., list[Job]], dict], ...] = (
    (greedy_dense, {"n": 300, "files": 1}),
    (greedy_sparse, {"n": 300, "ks": (5,)}),
    (exact, {"strata": ((9, None),)}),
    (certify, {"n": 300, "ks": (3,), "graphs": (), "clause_counts": (7,)}),
)


def build(name: str, seed: int, work: Path) -> list[Job]:
    """The job cycle of one workload; the same seed writes the same inputs."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)


def build_probe(seed: int, work: Path) -> list[Job]:
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"probe:{seed}")
    jobs = []
    for i, (make, sizes) in enumerate(PROBE):
        sub = work / str(i)
        sub.mkdir(exist_ok=True)
        jobs += make(rng, sub, **sizes)
    return jobs

"""Seeded instance generators and the file writers the benchmark uses.

Everything here is independent of the `defdom` package: instances are
plain tuples and lists, and files are written in the text formats the CLI
reads (see `defdom.io`).  Every generator takes a `random.Random`, so one
workload seed fixes every input of a run.
"""

import itertools
from pathlib import Path

Interval = tuple[int, int]
Edges = list[tuple[int, int]]


# ------------------------------------------------------------- intervals


def dense_intervals(n: int, rng) -> list[Interval]:
    """The dense shape: 2n distinct values drawn from 1..20n, paired in order.

    Long random intervals overlap heavily, so some interval almost always
    meets every other one and the optimum is min(k, n).
    """
    values = rng.sample(range(1, 20 * n + 1), 2 * n)
    return [(min(a, b), max(a, b)) for a, b in zip(values[0::2], values[1::2])]


CLUSTER = (4, 16)   # least and most intervals in one sparse cluster


def sparse_intervals(n: int, rng) -> list[Interval]:
    """Bounded-length intervals in well-separated clusters, all endpoints distinct.

    A cluster of c intervals draws its 2c endpoints from a window of 3c
    consecutive integers, and consecutive windows are separated by a gap,
    so no component is larger than its cluster.  Clusters are emitted left
    to right, which makes the input nearly sorted.
    """
    rows: list[Interval] = []
    base = 1
    while len(rows) < n:
        c = min(rng.randint(*CLUSTER), n - len(rows))
        values = rng.sample(range(base, base + 3 * c), 2 * c)
        rows.extend((min(a, b), max(a, b)) for a, b in zip(values[0::2], values[1::2]))
        base += 3 * c + 1
    return rows


def components(rows: list[Interval]) -> list[list[int]]:
    """Connected components of the intersection graph, as lists of ids 1..n."""
    order = sorted(range(len(rows)), key=lambda i: rows[i][0])
    out: list[list[int]] = []
    reach = None
    for i in order:
        lo, hi = rows[i]
        if reach is None or lo > reach:
            out.append([])
            reach = hi
        else:
            reach = max(reach, hi)
        out[-1].append(i + 1)
    return out


def interval_edges(rows: list[Interval]) -> Edges:
    """Edges of the intersection graph (1-based ids, u < v), by a sweep."""
    events = sorted((x, kind, v) for v, (lo, hi) in enumerate(rows, start=1)
                    for x, kind in ((lo, 0), (hi, 1)))
    active: set[int] = set()
    edges = []
    for _, kind, v in events:
        if kind == 0:
            edges.extend((min(u, v), max(u, v)) for u in active)
            active.add(v)
        else:
            active.discard(v)
    return sorted(edges)


# ---------------------------------------------------------------- graphs


def gnp(n: int, p: float, rng) -> Edges:
    """Erdos-Renyi G(n, p) edge list."""
    return [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < p]


def gnm(n: int, m: int, rng) -> Edges:
    """Uniform graph with exactly m edges."""
    return sorted(rng.sample(list(itertools.combinations(range(1, n + 1), 2)), m))


def k4_pendant() -> tuple[int, Edges]:
    """K4 on 1..4 with a pendant vertex 5 hanging off vertex 4."""
    return 5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)]


# -------------------------------------------------------------- formulas


def formula(a: int, b: int, c: int, rng) -> list[tuple[int, int, int]]:
    """c random 3-literal clauses over three distinct variables of 1..a+b."""
    clauses = []
    for _ in range(c):
        variables = rng.sample(range(1, a + b + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return clauses


# ----------------------------------------------------------------- files


def write_intervals(path: Path, rows: list[Interval]) -> None:
    lines = [f"p intervals {len(rows)}"]
    lines.extend(f"{v} {lo} {hi}" for v, (lo, hi) in enumerate(rows, start=1))
    path.write_text("\n".join(lines) + "\n")


def write_graph(path: Path, n: int, edges: Edges, params: dict | None = None) -> None:
    lines = [f"p dds {n} {len(edges)}"]
    if params:
        lines.append("c params " + " ".join(f"{k} {v}" for k, v in params.items()))
    lines.extend(f"e {u} {v}" for u, v in edges)
    path.write_text("\n".join(lines) + "\n")


def write_multiset(path: Path, d: dict[int, int]) -> None:
    path.write_text("".join(f"{v} {c}\n" for v, c in sorted(d.items()) if c))


def write_vertex_set(path: Path, vertices) -> None:
    path.write_text("".join(f"{v}\n" for v in sorted(vertices)))


def write_attacks(path: Path, attacks) -> None:
    path.write_text("".join(" ".join(map(str, sorted(a))) + "\n" for a in attacks))


def write_formula(path: Path, a: int, b: int, clauses) -> None:
    lines = [f"p e2cnf {a} {b} {len(clauses)}"]
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    path.write_text("\n".join(lines) + "\n")


def write_valuation(path: Path, bits) -> None:
    path.write_text("".join("1" if b else "0" for b in bits) + "\n")

"""Per-layer spans for the traced run, recorded from outside the package.

`Tracer.install()` replaces each public function listed in `TARGETS` with a
timing wrapper, in its defining module and in every `defdom` module that
imported it by name, so calls are caught wherever they are made.  A
layer's time is self time: a span's duration minus the spans it encloses.
Counts are read from arguments and results at the same boundaries.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _strategy(args, kwargs) -> str:
    return kwargs.get("strategy", args[3] if len(args) > 3 else "pruned")


def _violator_metric(args, kwargs) -> str:
    return f"defense.{_strategy(args, kwargs)}_s"


def _exhaustive_calls(args, kwargs, result) -> dict[str, int]:
    return {"defense.exhaustive_calls": _strategy(args, kwargs) == "exhaustive"}


def _copies(args, kwargs, result) -> dict[str, int]:
    return {"intervals.copies_placed": sum(result.values())}


def _candidates(args, kwargs, result) -> dict[str, int]:
    return {"solvers.candidates": result.explored if result is not None else 0}


def _one(name):
    return lambda args, kwargs, result: {name: 1}


# (module, function, time metric or a function of the call's arguments,
#  counts taken from the call).  A `None` metric counts yielded items.
TARGETS = (
    ("defdom.cli", "main", "cli.self_s", None),
    ("defdom.io", "read_intervals", "io.read_intervals_s", None),
    ("defdom.io", "read_graph", "io.read_graph_s", None),
    *(("defdom.io", name, "io.read_other_s", None) for name in
      ("read_multiset", "read_vertex_set", "read_attacks", "read_formula", "read_valuation")),
    *(("defdom.io", name, "io.write_s", None) for name in
      ("write_graph", "write_multiset", "write_vertex_set", "write_valuation")),
    ("defdom.intervals", "validate", "intervals.validate_s", None),
    ("defdom.intervals", "greedy_defense", "intervals.greedy_defense_self_s", _copies),
    ("defdom.defense", "find_violator", _violator_metric, _exhaustive_calls),
    ("defdom.matching", "counters", "matching.counters_s", _one("matching.counters_calls")),
    *(("defdom.solvers", name, "solvers.solve_s", _candidates) for name in
      ("min_multiset_defense", "min_set_defense", "min_constrained_multiset")),
    ("defdom.graphs", "find_clique", "graphs.find_clique_s", None),
    ("defdom.graphs", "delete_vertices", "graphs.delete_vertices_s", None),
    ("defdom.reductions.dds", "cnd_to_dds", "reductions.build_s", None),
    ("defdom.reductions.sat", "e2sat_to_cnd", "reductions.build_s", None),
    ("defdom.reductions.dds", "dds_from_graph", "reductions.rebuild_s", None),
    ("defdom.reductions.sat", "sat_cnd_from_graph", "reductions.rebuild_s", None),
    ("defdom.reductions.dds", "enumerate_serious_attacks", None, "reductions.serious_attacks"),
    ("defdom.reductions.dds", "proof_defense", "reductions.extract_s", None),
    ("defdom.reductions.dds", "extract_deletion_set", "reductions.extract_s", None),
    ("defdom.reductions.sat", "valuation_to_deletion", "reductions.extract_s", None),
    ("defdom.reductions.sat", "typed_clique_audit", "reductions.typed_audit_s", None),
    ("defdom.formulas", "solve_e2sat", "formulas.solve_e2sat_s", None),
)

TIME_METRICS = sorted({m for _, _, m, _ in TARGETS if isinstance(m, str)}
                      | {"defense.pruned_s", "defense.exhaustive_s"})
COUNT_METRICS = ["intervals.copies_placed", "defense.exhaustive_calls",
                 "matching.counters_calls", "solvers.candidates",
                 "reductions.serious_attacks"]


class Tracer:
    """Accumulates self time and counts per layer while installed."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []   # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()

    def _timed(self, fn, metric, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._stack.pop()
                name = metric if isinstance(metric, str) else metric(args, kwargs)
                self.seconds[name] += elapsed - child
                if self._stack:
                    self._stack[-1] += elapsed
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result
        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[name] += 1
                yield item
        return wrapper

    def install(self) -> None:
        for module_name, attr, metric, count in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if metric is None:
                wrapper = self._counted(original, count)
            else:
                wrapper = self._timed(original, metric, count)
            for name, module in list(sys.modules.items()):
                if name == "defdom" or name.startswith("defdom."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

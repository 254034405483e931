"""Defensive graph domination: verification, solvers, and reductions.

A defense places guard copies on vertices; an attack picks up to k distinct
vertices.  The defense is good when every attack can be countered by
matching each attacker to its own guard copy in the attacker's closed
neighborhood.  This package verifies defenses, solves small instances
exactly, runs the fast greedy for interval graphs, and builds the two
hardness reductions with checkable certificates.

The public names below load their submodule on first access (PEP 562), so
importing the package, or one submodule, does not import the others.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Graph": "graphs",
    "InputError": "errors",
    "IntervalInstance": "intervals",
    "Violator": "defense",
    "counters": "matching",
    "delete_vertices": "graphs",
    "domination_number": "solvers",
    "find_clique": "graphs",
    "find_violator": "defense",
    "good_defense": "defense",
    "greedy_defense": "intervals",
    "hall_deficiency": "defense",
    "has_clique": "graphs",
    "intersection_graph": "intervals",
    "min_constrained_multiset": "solvers",
    "min_multiset_defense": "solvers",
    "min_set_defense": "solvers",
    "properize": "intervals",
    "uncountered": "matching",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

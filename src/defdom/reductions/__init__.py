"""Hardness reductions with executable certificate transformations.

The public names below load their submodule on first access (PEP 562).
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "CndInstance": "dds",
    "DdsInstance": "dds",
    "SatCnd": "sat",
    "cnd_to_dds": "dds",
    "dds_from_graph": "dds",
    "deletion_to_valuation": "sat",
    "e2sat_to_cnd": "sat",
    "enumerate_serious_attacks": "dds",
    "extract_deletion_set": "dds",
    "kt_witness_from_y": "sat",
    "proof_defense": "dds",
    "sat_cnd_from_graph": "sat",
    "solve_cnd_bruteforce": "dds",
    "typed_clique_audit": "sat",
    "valuation_to_deletion": "sat",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

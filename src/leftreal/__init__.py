"""Desk-scale workbench for left-computable reals: exact dyadic series,
concrete prefix-free machines, Kraft-Chaitin coding, length-uniform
randomness tests, and the constructive conversions between certified
names and complexity-rate certificates.

The public names below are imported from their submodule on first use,
so ``import leftreal`` (and every CLI command) loads only the modules it
needs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "foundations": (
            "BitStream",
            "Dyadic",
            "DyadicInterval",
            "NatSetView",
            "charseq",
            "interval_of",
            "join",
            "lenlex",
            "lenlex_inv",
            "pair",
            "unpair",
        ),
        "kraft_chaitin": ("KCAllocator", "kc_build_machine"),
        "machines": (
            "Budget",
            "ComplexityValue",
            "Interpreter",
            "KStatus",
            "TableMachine",
            "complexity",
            "enumerate_domain",
            "omega_lower",
            "omega_s_bounds",
            "validate_table",
        ),
        "names": (
            "IncreasingDyadicStream",
            "Modulus",
            "NameStream",
            "name_from_increasing",
            "partial_sum",
            "regular_sum",
            "roc_certificate_check",
            "strongly_lc",
            "tail_weight",
        ),
        "randomness": (
            "TestFamily",
            "TestKind",
            "covers",
            "kurtz_witness_check",
            "level_weight",
            "rate_from_skt",
            "skt_from_rate",
            "validate_family",
        ),
        "conversions": (
            "RateSpec",
            "StageTrace",
            "carry_counter",
            "count_bound_check",
            "lc_to_roc",
            "roc_to_skt",
            "tail_bound_check",
        ),
        "spectra": (
            "ComplexityProfile",
            "DimEstimate",
            "ce_log_bound_check",
            "dim_gap_rate",
            "dim_window",
            "profile",
            "square_interleave",
            "sum_machine",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

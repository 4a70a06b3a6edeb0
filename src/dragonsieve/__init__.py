"""Division-free valuation sieve, fractal sequence checks, dragon-curve rendering.

Each public name is imported from its submodule on first access (PEP 562),
so ``import dragonsieve`` and the CLI load only the modules a caller uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SUBMODULE = {
    "CheckReport": "verify",
    "Failure": "verify",
    "SieveTable": "sieve",
    "TurnSequence": "dragons",
    "ValuationSequence": "valuations",
    "decimate_terms": "fractal",
    "format_b_file": "bfile",
    "generate_dci": "valuations",
    "heighway_turns": "dragons",
    "levy_turns": "dragons",
    "parse_b_file": "bfile",
    "primes_by_trial_division": "valuations",
    "read_factorization": "sieve",
    "reconstruct_odd_part": "fractal",
    "run_sieve": "sieve",
    "to_svg": "render",
    "trace": "render",
    "write_b_file": "bfile",
    "write_svg": "render",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

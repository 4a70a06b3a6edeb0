"""Division-free valuation sieve, fractal sequence checks, dragon-curve rendering."""

from .bfile import format_b_file, parse_b_file, write_b_file
from .dragons import TurnSequence, heighway_turns, levy_turns
from .fractal import (
    aperiodicity_witness,
    decimate_terms,
    reconstruct_odd_part,
)
from .render import PolylinePath, to_svg, trace, write_svg
from .sieve import (
    Factorization,
    SieveTable,
    read_factorization,
    run_sieve,
)
from .valuations import (
    ValuationSequence,
    generate_dci,
    primes_by_trial_division,
)
from .verify import CheckReport, Failure

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "Factorization",
    "Failure",
    "PolylinePath",
    "SieveTable",
    "TurnSequence",
    "ValuationSequence",
    "aperiodicity_witness",
    "decimate_terms",
    "format_b_file",
    "generate_dci",
    "heighway_turns",
    "levy_turns",
    "parse_b_file",
    "primes_by_trial_division",
    "read_factorization",
    "reconstruct_odd_part",
    "run_sieve",
    "to_svg",
    "trace",
    "write_b_file",
    "write_svg",
]

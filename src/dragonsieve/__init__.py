"""Division-free valuation sieve, fractal sequence checks, dragon-curve rendering."""

from .bfile import format_b_file, parse_b_file, read_b_file, write_b_file
from .dragons import (
    HeighwayTurnSequence,
    LevyTurnSequence,
    check_heighway_equivalence,
    check_levy_theorem,
    heighway_turns,
    levy_turns,
)
from .fractal import (
    aperiodicity_witness,
    check_self_containment,
    decimate_terms,
    odd_part_decimation_indexes,
    reconstruct_odd_part,
)
from .render import (
    PolylinePath,
    TurnProgram,
    path_equal,
    to_svg,
    trace,
    write_svg,
)
from .reports import CheckReport, Failure
from .sieve import (
    Factorization,
    SieveTable,
    format_table,
    next_candidate,
    read_factorization,
    run_sieve,
)
from .valuations import (
    OddEvenDecomposition,
    ValuationSequence,
    generate_dci,
    odd_even_parts,
    odd_part_mod4,
    primes_by_trial_division,
    trial_division_factor,
    valuation_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "Factorization",
    "Failure",
    "HeighwayTurnSequence",
    "LevyTurnSequence",
    "OddEvenDecomposition",
    "PolylinePath",
    "SieveTable",
    "TurnProgram",
    "ValuationSequence",
    "aperiodicity_witness",
    "check_heighway_equivalence",
    "check_levy_theorem",
    "check_self_containment",
    "decimate_terms",
    "format_b_file",
    "format_table",
    "generate_dci",
    "heighway_turns",
    "levy_turns",
    "next_candidate",
    "odd_even_parts",
    "odd_part_decimation_indexes",
    "odd_part_mod4",
    "parse_b_file",
    "path_equal",
    "primes_by_trial_division",
    "read_b_file",
    "read_factorization",
    "reconstruct_odd_part",
    "run_sieve",
    "to_svg",
    "trace",
    "trial_division_factor",
    "valuation_oracle",
    "write_b_file",
    "write_svg",
]

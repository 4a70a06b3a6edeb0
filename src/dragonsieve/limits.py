"""Resource limits sized to the machine's physical memory.

Every construction that checks its memory charges a figure from `BYTES_PER`:
an upper bound on its command's peak RSS growth per unit it builds.
``tests/growth_cases.py`` measures each figure's command against it.
"""

import os

BYTES_PER = {
    "valuation term": 4,  # generate_dci: the terms and its chunks; verify's division column
    "sieve column": 9,  # SieveTable: the store and row 2's DCI terms; not prime_headers
    "dragon term": 10,  # levy_turns, heighway_turns: the last round's buffers and the terms
    "odd-part term": 10,  # reconstruct_odd_part: the array and the first level's odd numbers
    "trace term": 264,  # trace: the vertex tuples, a chunk of columns and to_svg's text
    "svg byte term": 10,  # check_svg: a term held as bytes, its construction or parse included
    "svg list term": 50,  # check_svg: a term held in a list of ints, its parse included
    "svg chunk vertex": 1024,  # check_svg: a vertex of write_svg's chunk, texts and unit vectors
    "decimated term": 12,  # the decimate command: every row and its text
}


def require_memory(what: str, nbytes: int) -> None:
    """Raise ValueError, before anything is allocated, if ``nbytes`` exceeds physical memory."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        raise ValueError(f"{what} would not fit in physical memory ({total} bytes)")

"""Resource limits sized to the machine's physical memory."""

import os


def require_memory(what: str, nbytes: int) -> None:
    """Raise ValueError, before anything is allocated, if ``nbytes`` exceeds physical memory."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        raise ValueError(f"{what} would not fit in physical memory ({total} bytes)")

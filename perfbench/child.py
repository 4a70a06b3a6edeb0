"""Run one request as a child process under an address-space limit and a timeout."""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Exit:
    code: int  # exit code, or -signal when killed
    latency_s: float  # from spawn until the child was reaped
    cpu_s: float  # the child's user + system time
    maxrss_kb: int
    timed_out: bool


def mem_available_bytes() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def run(argv: list[str], *, env: dict, cwd: Path, stdout: Path, stderr: Path,
        as_limit: int, timeout_s: float) -> Exit:
    """Run ``argv`` to completion, writing its output to files.

    The address-space limit applies to the child only, so a request that
    outgrows it fails with MemoryError instead of exhausting the machine.
    A child still running after ``timeout_s`` is killed.
    """
    def limit_child() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (as_limit, as_limit))

    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd, preexec_fn=limit_child)
        pidfd = os.pidfd_open(proc.pid)
        status = None
        try:
            timed_out = not select.select([pidfd], [], [], max(timeout_s, 0))[0]
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - t0
        finally:
            os.close(pidfd)
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, latency, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss, timed_out)

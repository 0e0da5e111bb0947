"""Run the command line in a child process with a capped address space, so a
test of a resource cap cannot exhaust the host when the cap is missing."""
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env() -> dict:
    """This environment with ``src`` first on ``PYTHONPATH``, so that a child
    Python imports the package of this checkout, installed or not."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_capped(argv, limit: int = 2**30, timeout: int = 300, cpu: int | None = None) -> subprocess.CompletedProcess:
    """``python -m toricmld *argv`` with ``RLIMIT_AS`` set to ``limit`` bytes
    in the child only.  Past the limit an allocation raises ``MemoryError``,
    which the command line reports as an internal error (exit 3).  ``cpu``,
    when given, sets ``RLIMIT_CPU`` to that many seconds in the child, which
    past it is killed by ``SIGXCPU`` (return code -24)."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        if cpu is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))

    return subprocess.run(
        [sys.executable, "-m", "toricmld", *argv],
        preexec_fn=cap,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )

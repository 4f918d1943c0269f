"""Process set-up shared by every benchmark entry point.

Import this module, and call ``pin_blas_threads`` and ``import_program``,
before anything imports numpy: OpenBLAS reads its thread count from the
environment once, when the library loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout holds no qipsolve sources to benchmark."""


def pin_blas_threads() -> None:
    """One BLAS thread: numbers stay comparable on a machine shared with others."""
    pinned = all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)
    if "numpy" in sys.modules and not pinned:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import qipsolve from the checkout's ``src`` directory and nowhere else."""
    if not (SRC / "qipsolve" / "__init__.py").is_file():
        raise MissingProgram(f"no qipsolve package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qipsolve

    if Path(qipsolve.__file__).resolve().parent != SRC / "qipsolve":
        raise MissingProgram(f"qipsolve was imported from {qipsolve.__file__}, not {SRC}")
    return qipsolve


def _git_sha() -> str:
    """HEAD of the checkout, read from its .git directory (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """Versions, thread pinning and machine size, recorded with every result."""
    import numpy
    import scipy

    def blas_version(config_module):
        try:
            return config_module.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy.__config__),
        "scipy_openblas": blas_version(scipy.__config__),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_sha": _git_sha(),
    }

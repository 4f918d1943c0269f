"""Scan of small QKD instances: every run converges with long steps.

Solves QKD n=3 (m=1) and n=4 (m=2) at seeds 0-119 and 29005, each with
and without the -ln det X barrier (484 runs), and fails (exit 1) on

* a run that does not converge,
* a barrier run outside the theory's iteration caps,
* a Newton step with alpha < 1e-6.

Run from the root of a checkout:

    PYTHONPATH=src python tests/qkd_scan.py

It takes about 20 s with one BLAS thread. The file name keeps it out of
pytest's collection.
"""

from __future__ import annotations

import sys

from qipsolve import probio
from qipsolve.errors import QipError
from qipsolve.pathfollow import solve

SHAPES = ({"n": 3, "m": 1}, {"n": 4, "m": 2})
SEEDS = (*range(120), 29005)
MIN_ALPHA = 1e-6


def scan_failures(shape: dict, seed: int, include_barrier: bool) -> list[str]:
    """What is wrong with one run, as messages; empty when it passes."""
    label = f"qkd n={shape['n']} seed {seed} barrier={include_barrier}"
    steps = []
    try:
        report = solve(probio.generate_random("qkd", shape, seed=seed),
                       include_barrier=include_barrier, callback=steps.append)
    except QipError as exc:
        return [f"{label}: {type(exc).__name__}: {exc}"]
    bad = []
    if report.termination != "Converged":
        bad.append(f"{label}: {report.termination}")
    if include_barrier and not report.bound_check["within_caps"]:
        bad.append(f"{label}: outside the caps ({report.bound_check})")
    short = [s for s in steps if s["alpha"] < MIN_ALPHA]
    if short:
        bad.append(f"{label}: {len(short)} steps with alpha < {MIN_ALPHA:g}, "
                   f"smallest {min(s['alpha'] for s in short):.3e}")
    return bad


def main() -> int:
    runs, bad = 0, []
    for shape in SHAPES:
        for seed in SEEDS:
            for include_barrier in (True, False):
                runs += 1
                bad.extend(scan_failures(shape, seed, include_barrier))
    for line in bad:
        print(line)
    print(f"{runs} runs, {len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

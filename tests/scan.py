"""Scan of small instances: every run converges with long steps.

Solves

* QKD n=3 (m=1) and n=4 (m=2) at seeds 0-119 and 29005, each with and
  without the -ln det X barrier (484 runs);
* type1 n=3, 4 and 6 with each of the four generators at seeds 0-24, with
  N = n + 1 rows of which m = n//2 (even seeds) or n//2 + 1 (odd seeds)
  are inequalities (300 runs),

and fails (exit 1) on

* a run that does not converge,
* a barrier run outside the theory's iteration caps,
* a Newton step with alpha < 1e-6.

Run from the root of a checkout:

    PYTHONPATH=src python tests/scan.py

It takes about 30 s with one BLAS thread. The file name keeps it out of
pytest's collection.
"""

from __future__ import annotations

import sys

from qipsolve import probio
from qipsolve.errors import QipError
from qipsolve.pathfollow import solve

QKD_SHAPES = ({"n": 3, "m": 1}, {"n": 4, "m": 2})
QKD_SEEDS = (*range(120), 29005)
TYPE1_ORDERS = (3, 4, 6)
TYPE1_GENERATORS = (
    {"generator": "inverse"},
    {"generator": "neg_log"},
    {"generator": "neg_sqrt"},
    {"generator": "neg_power", "alpha": 0.37},
)
TYPE1_SEEDS = range(25)
MIN_ALPHA = 1e-6


def runs():
    """(kind, dims, seed, include_barrier) of every run of the scan."""
    for shape in QKD_SHAPES:
        for seed in QKD_SEEDS:
            for include_barrier in (True, False):
                yield "qkd", shape, seed, include_barrier
    for n in TYPE1_ORDERS:
        for gen in TYPE1_GENERATORS:
            for seed in TYPE1_SEEDS:
                yield "type1", {"n": n, "m": n // 2 + seed % 2, "N": n + 1, **gen}, seed, True


def scan_failures(kind: str, dims: dict, seed: int, include_barrier: bool) -> list[str]:
    """What is wrong with one run, as messages; empty when it passes."""
    label = f"{kind} {dims} seed {seed} barrier={include_barrier}"
    steps = []
    try:
        report = solve(probio.generate_random(kind, dims, seed=seed),
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
    count, bad = 0, []
    for run in runs():
        count += 1
        bad.extend(scan_failures(*run))
    for line in bad:
        print(line)
    print(f"{count} runs, {len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

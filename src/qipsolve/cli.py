"""Command-line front end: gen, solve, check and bench.

Exit codes: 0 success, 1 failed checks, 2 argument errors, 3 problem
validation/parse failures, 4 solver failures. To cap the BLAS threads,
set OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS / MKL_NUM_THREADS, by BLAS)
before launch: numpy reads it when it loads.

A ``bench`` suite's CSV schema, also the column order of its text table,
is its columns in ``SUITES``. ``bench --json PATH`` writes the same runs
as one JSON record: an ``environment`` header (git SHA, numpy and scipy
versions with their BLAS builds, the BLAS thread variables) and one row
per size with the instance dimensions, seed, ``wall_s``, ``total_newton``,
``outer_iters``, the work counts ``hessian_evals``, ``value_evals``,
``kkt_solves`` and ``backtracks``, ``termination`` and ``f_min``. A row's
seed is ``--seed`` plus its index in the suite's full ladder, whatever
``--sizes`` selects, and a size outside the ladder exits 2. A row that
does not converge (``IterCap``, or a solver error, recorded as
``NumericalFailure`` at the iterate it failed at) is still printed and
written; ``bench`` then exits 4 once every row has run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import oracle, probio
from .errors import NotFound, QipError
from .pathfollow import COUNTS, SolverConfig, solve

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# gen's dimension flags, in --help order: each is a key of the dims that
# generate_random takes, with its add_argument options
DIMS = (*((name, {"type": int}) for name in ("n", "k", "m", "N", "r1", "r2", "n1", "n2")),
        ("generator", {"choices": ("inverse", "neg_log", "neg_sqrt", "neg_power")}),
        ("alpha", {"type": float}))

# bench suites: (kind, the ladder's dims, the table's columns). A column
# is a dims key, f_min, nNewton (the Newton steps) or time_s (wall seconds)
SUITES = {
    "table1": ("type1", [{"n": n, "m": n // 2, "N": n} for n in (4, 8, 16, 32, 64)],
               ("n", "m", "N", "f_min", "nNewton", "time_s")),
    "table2": ("qkd", [dict(zip(("n", "k", "m", "r1", "r2"), row)) for row in (
        (4, 8, 2, 2, 2), (6, 12, 4, 1, 2), (12, 24, 6, 2, 4), (16, 32, 10, 2, 2),
        (32, 64, 20, 2, 2))],
               ("n", "k", "m", "r1", "r2", "time_s", "f_min", "nNewton")),
}


def _resolve_problem(token: str):
    if os.path.exists(token):
        return probio.load(token)
    try:
        return probio.build_named(token)
    except NotFound:
        raise NotFound(
            f"{token!r} is neither an existing file nor a canonical problem name"
        )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.named:
        spec = probio.build_named(args.named)
    else:
        if args.n is None:
            print("gen: --n is required (or use --named)", file=sys.stderr)
            return 2
        dims = {name: v for name, _ in DIMS if (v := getattr(args, name)) is not None}
        spec = probio.generate_random(args.kind, dims, seed=args.seed)
    probio.save(spec, args.out)
    echo = " ".join(f"{key}={v}" for key, v in spec.dims.items() if v is not None)
    print(f"kind={spec.kind} {echo} -> {args.out}")
    return 0


def cmd_solve(args) -> int:
    spec = _resolve_problem(args.problem)
    records = []
    try:
        config = SolverConfig(beta0=args.beta0, theta=args.theta, epsilon=args.eps)
        report = solve(spec, config=config, callback=records.append,
                       include_barrier=not args.no_barrier)
    except ValueError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 2
    except QipError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is not None:
            _write_solve_outputs(report, records, args, phase=exc.phase)
        return 4
    if report.termination != "Converged":
        print(f"solver did not converge: {report.termination}", file=sys.stderr)
        _write_solve_outputs(report, records, args)
        return 4

    print(f"f_min      {report.f_min:.10g}")
    print(f"nNewton    {report.total_newton}")
    print(f"outer      {report.outer_iters}")
    print(f"predictions_accepted {report.predictions_accepted}")
    print(f"predictions_rejected {report.predictions_rejected}")
    print(f"time_s     {report.wall_time:.4f}")
    _write_solve_outputs(report, records, args)
    return 0


def _write_solve_outputs(report, records, args, phase=None):
    if args.out:
        doc = report.to_dict()
        if phase is not None:
            doc["phase"] = phase
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.out}")
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "beta", "delta", "alpha", "f", "feas_residual"])
            for i, rec in enumerate(records):
                writer.writerow([i, rec["beta"], rec["delta"], rec["alpha"],
                                 rec["f"], rec["feas_residual"]])
        print(f"trace -> {args.trace}")


def cmd_check(args) -> int:
    spec = _resolve_problem(args.problem)
    rng = np.random.default_rng(args.seed)
    results = oracle.derivative_audit(spec, rng, points=3)
    worst_fail = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        worst_fail |= not res.passed
        print(f"{status}  {res.name:<24s} {res.detail}")
    return 1 if worst_fail else 0


def _git_sha() -> str:
    """HEAD of the git checkout holding this package, or "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_environment() -> dict:
    """What a benchmark number depends on besides the code: versions, BLAS, threads."""
    import scipy

    def blas(module):
        try:
            dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_blas": blas(np),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def cmd_bench(args) -> int:
    runs = []  # (dimensions, seed, report, wall seconds)
    try:
        config = SolverConfig(epsilon=args.eps)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    kind, shapes, header = SUITES[args.suite]
    ladder = [dims["n"] for dims in shapes]
    sizes = set(args.sizes or ladder)
    if not sizes <= set(ladder):
        print(f"bench: sizes {sorted(sizes - set(ladder))} not in {ladder}", file=sys.stderr)
        return 2
    for seed, dims in enumerate(shapes, args.seed):
        if dims["n"] in sizes:
            spec = probio.generate_random(kind, dims, seed=seed)
            t0 = time.perf_counter()
            try:
                report = solve(spec, config=config)
            except QipError as exc:
                print(f"bench: solver failure at n={dims['n']}: {exc}", file=sys.stderr)
                report = getattr(exc, "report", None)
                if report is None:
                    continue
            runs.append((dims, seed, report, time.perf_counter() - t0))

    rows = []
    for d, _, rep, dt in runs:
        cells = {**d, "f_min": rep.f_min, "nNewton": rep.total_newton, "time_s": dt}
        rows.append([cells[c] for c in header])

    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [f"{v:.6f}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"csv -> {args.csv}")
    if args.json:
        doc = {
            "suite": args.suite,
            "epsilon": args.eps,
            "environment": bench_environment(),
            "rows": [{**dims, "seed": seed, "wall_s": dt, "total_newton": rep.total_newton,
                      "outer_iters": rep.outer_iters,
                      **{count: getattr(rep, count) for count in COUNTS},
                      "termination": rep.termination, "f_min": rep.f_min}
                     for dims, seed, rep, dt in runs],
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"json -> {args.json}")
    failed = [f"n={d['n']} {rep.termination}" for d, _, rep, _ in runs
              if rep.termination != "Converged"]
    if failed:
        print(f"bench: solver did not converge: {', '.join(failed)}", file=sys.stderr)
    return 4 if failed or len(runs) < len(sizes) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qipsolve",
        description="Long-step path-following solver for matrix trace objectives "
                    "and quantum relative entropy problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random or canonical problem file")
    g.add_argument("--kind", choices=("type1", "type2", "qkd"), default="qkd")
    g.add_argument("--named", help="canonical instance name (overrides --kind)")
    for name, options in DIMS:
        g.add_argument(f"--{name}", **options)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve a problem file or canonical instance")
    s.add_argument("problem")
    s.add_argument("--beta0", type=float, default=1.0)
    s.add_argument("--theta", type=float, default=1.0,
                   help="every beta is beta0 (1 + theta)^i, up to the first at or "
                        "above 4r/eps; a tangent predictor skips betas while its "
                        "predictions land, and each centering is capped at the "
                        "theory's per-outer Newton-step bound")
    s.add_argument("--eps", type=float, default=1e-8)
    s.add_argument("--no-barrier", action="store_true",
                   help="drop the -ln det X term (qkd problems only; an error on others)")
    s.add_argument("--trace", help="write a per-step CSV trace here")
    s.add_argument("--out", help="write the solve report JSON here")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("check", help="derivative and invariant audit of an instance")
    c.add_argument("problem")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_check)

    b = sub.add_parser("bench", help="run a benchmark ladder")
    b.add_argument("--suite", choices=tuple(SUITES), required=True)
    b.add_argument("--sizes", type=int, nargs="*")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--eps", type=float, default=1e-8)
    b.add_argument("--csv")
    b.add_argument("--json", help="write the rows and the run environment as JSON here")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotFound):
            return 2
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

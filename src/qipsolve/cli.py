"""Command-line front end: gen, solve, check and bench.

Exit codes: 0 success, 1 failed checks, 2 argument errors, 3 problem
validation/parse failures, 4 solver failures. The environment variable
QIPSOLVE_THREADS caps the internal BLAS parallelism.

Benchmark CSV schemas (also the column order of the text tables):
  table1: n,m,N,f_min,nNewton,time_s
  table2: n,k,m,r1,r2,time_s,f_min,nNewton
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import oracle, probio
from .errors import NotFound, QipError
from .pathfollow import SolverConfig, solve

TABLE2_ROWS = [
    (4, 8, 2, 2, 2),
    (6, 12, 4, 1, 2),
    (12, 24, 6, 2, 4),
    (16, 32, 10, 2, 2),
    (32, 64, 20, 2, 2),
]


def _limit_threads():
    cap = os.environ.get("QIPSOLVE_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(n)
    except ImportError:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))


def _resolve_problem(token: str):
    if os.path.exists(token):
        return probio.load(token)
    try:
        return probio.build_named(token)
    except NotFound:
        raise NotFound(
            f"{token!r} is neither an existing file nor a canonical problem name"
        )


def _solver_config(args) -> SolverConfig:
    return SolverConfig(beta0=args.beta0, theta=args.theta, epsilon=args.eps)


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
        dims = {
            "n": args.n, "k": args.k, "m": args.m, "N": args.N,
            "r1": args.r1, "r2": args.r2, "n1": args.n1, "n2": args.n2,
            "generator": args.generator, "alpha": args.alpha,
        }
        dims = {k: v for k, v in dims.items() if v is not None}
        spec = probio.generate_random(args.kind, dims, seed=args.seed)
    probio.save(spec, args.out)
    d = spec.dims
    echo = " ".join(f"{key}={d[key]}" for key in ("n", "k", "m", "N", "r1", "r2")
                    if d.get(key) is not None)
    print(f"kind={spec.kind} {echo} -> {args.out}")
    return 0


def cmd_solve(args) -> int:
    spec = _resolve_problem(args.problem)
    records = []

    def hook(rec):
        records.append(rec)

    try:
        report = solve(spec, config=_solver_config(args), callback=hook,
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


def cmd_bench(args) -> int:
    sizes = set(args.sizes) if args.sizes else None
    rows = []
    config = SolverConfig(epsilon=args.eps)
    if args.suite == "table1":
        header = ["n", "m", "N", "f_min", "nNewton", "time_s"]
        ladder = [n for n in (4, 8, 16, 32, 64) if sizes is None or n in sizes]
        for idx, n in enumerate(ladder):
            spec = probio.generate_random(
                "type1", {"n": n, "m": n // 2, "N": n}, seed=args.seed + idx)
            t0 = time.perf_counter()
            report = solve(spec, config=config)
            dt = time.perf_counter() - t0
            rows.append([n, n // 2, n, report.f_min, report.total_newton, dt])
    else:
        header = ["n", "k", "m", "r1", "r2", "time_s", "f_min", "nNewton"]
        ladder = [r for r in TABLE2_ROWS if sizes is None or r[0] in sizes]
        for idx, (n, k, m, r1, r2) in enumerate(ladder):
            spec = probio.generate_random(
                "qkd", {"n": n, "k": k, "m": m, "r1": r1, "r2": r2},
                seed=args.seed + idx)
            t0 = time.perf_counter()
            report = solve(spec, config=config)
            dt = time.perf_counter() - t0
            rows.append([n, k, m, r1, r2, dt, report.f_min, report.total_newton])

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
    return 0


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
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--N", type=int, dest="N")
    g.add_argument("--r1", type=int)
    g.add_argument("--r2", type=int)
    g.add_argument("--n1", type=int)
    g.add_argument("--n2", type=int)
    g.add_argument("--generator", choices=("inverse", "neg_log", "neg_sqrt", "neg_power"))
    g.add_argument("--alpha", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve a problem file or canonical instance")
    s.add_argument("problem")
    s.add_argument("--beta0", type=float, default=1.0)
    s.add_argument("--theta", type=float, default=1.0)
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
    b.add_argument("--suite", choices=("table1", "table2"), required=True)
    b.add_argument("--sizes", type=int, nargs="*")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--eps", type=float, default=1e-8)
    b.add_argument("--csv")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _limit_threads()
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

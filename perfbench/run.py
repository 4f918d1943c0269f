"""qipsolve benchmark: end-to-end solve metrics and a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qkd-desk --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py``; every instance is generated
from ``--seed`` and handed to ``qipsolve.pathfollow.solve`` in this one
process, with BLAS pinned to one thread before numpy loads.

``--trace 0`` generates the instance set several times (``setup_s`` is the
median), then solves fresh copies of it, pass after pass, as many whole
passes as fit in ``--seconds`` and at least one. ``setup_s``, and every
solve timing of a workload with ``kernel_every``, is rescaled to a
reference machine speed by kernel samples taken between solves (see
``calibration.py``).
It prints the end-to-end metrics:

    wall_s        median over passes of the summed solve times of one pass
    solve_s_p50   median time of one solve, over all solves
    solves_per_s  converged solves of one pass / wall_s
    newton_steps  Newton steps of one pass (identical in every pass)
    setup_s       median time to generate and validate the instance set
    peak_rss_mb   peak resident memory of this process
    failed_frac   solves that raised a QipError or did not converge, / attempted
    solve_s_tail  solve time at the highest percentile with >= 10 solves
                  beyond it, where the run has that many solves

``failed_frac`` is carried by the result's ``failed`` / ``attempted`` and
``solve_s_tail`` is only printed, so neither is in BENCHMARK.json: the
first is 0 (no workload holds a shape known to fail) and the second needs
more than ten solves.

``--trace 1`` solves one warm-up pass, one pass untraced and one pass
with every layer's public functions wrapped (see ``tracer.py``), checks
that all three give the same ``f_min`` and Newton count for every
instance, and prints the per-layer metrics in measured seconds.
``<fn>_s`` is self time (span minus child spans) and ``<fn>_calls`` a
call count; ``pathfollow.line_search_s`` and
``pathfollow.max_feasible_step_s`` include their children;
``trace.overhead_s`` is the traced minus the untraced pass time and
``trace.solve_coverage`` the smallest share of a solve that its child
spans cover. The spans go to ``perfbench/out/`` once the pass has ended.

Every solve is checked outside the timed region. A converged solve must
respect the theory's iteration caps, reach a feasibility residual within
the solver's epsilon and carry a finite last gap certificate, and every
pass must reproduce the first pass exactly. A wrong result makes the run
print ``"correct": false`` and exit 1; a named QipError is only counted
as failed.
"""

from __future__ import annotations

import sys

import bench_env

bench_env.pin_blas_threads()
try:
    qipsolve = bench_env.import_program()
except (bench_env.MissingProgram, ImportError) as _exc:
    sys.exit(f"perfbench: cannot import the program: {_exc}")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qipsolve.errors import QipError  # noqa: E402
from qipsolve.pathfollow import SolverConfig, solve  # noqa: E402

SETUP_REPS = 64
# set-up repetitions between two calibration kernel samples
SETUP_KERNEL_EVERY = 2
OUT_DIR = Path(__file__).resolve().parent / "out"
# The solve's direct child spans must cover at least this share of it;
# below it, the trace no longer explains where the solve's time went.
MIN_SOLVE_COVERAGE = 0.9

END_TO_END = {
    "wall_s": "s",
    "solve_s_p50": "s",
    "solves_per_s": "1/s",
    "newton_steps": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# spans whose self time (<name>_s) and call count (<name>_calls) are reported
_SELF_TIMED = (
    "qre.hessian", "qre.value", "kkt.newton_step",
    *(f"objectives.{f}" for f in ("composite_eval", "phi_hessian_in_basis", "congruence_batch",
                                  "sandwich_diag", "sandwich_core", "barrier_eval",
                                  "map_barrier_eval")),
    *(f"matfun.{f}" for f in ("spectral_decompose", "divided_diff_1",
                              "second_divided_diff_tensor")),
    *(f"linmap.{f}" for f in ("apply", "adjoint_apply", "vectorized_matrix")),
)
PER_LAYER = {
    "pathfollow.hessian_evals": "count",
    "pathfollow.value_evals": "count",
    "pathfollow.newton_per_hessian": "ratio",
    "pathfollow.outer_iters": "count",
    "pathfollow.line_search_s": "s",
    "pathfollow.backtracks": "count",
    "pathfollow.max_feasible_step_s": "s",
    **{k: v for span in _SELF_TIMED
       for k, v in ((f"{span}_s", "s"), (f"{span}_calls", "count"))},
    "trace.overhead_s": "s",
    "trace.solve_coverage": "ratio",
}


@dataclass
class Outcome:
    label: str
    report: object | None  # SolveReport, or the partial report of a failure
    error: str | None  # QipError class name
    seconds: float = 0.0  # measured

    @property
    def converged(self) -> bool:
        return self.error is None and self.report.termination == "Converged"

    @property
    def newton_steps(self) -> int:
        return self.report.total_newton if self.report is not None else 0

    def fingerprint(self):
        """What a repeated or traced solve of the same instance must reproduce."""
        if self.report is None:
            return (self.error, None, None, None)
        return (self.error, self.report.termination, self.report.f_min.hex(),
                self.report.total_newton)


def solve_guarded(spec, config, span=nullcontext):
    """(report, None), or (partial report or None, error name) on a QipError."""
    try:
        with span():
            return solve(spec, config=config), None
    except QipError as exc:
        return getattr(exc, "report", None), type(exc).__name__


def timed(items, work, speed=None, every=1):
    """An [item, result, seconds] row per item: ``work(item)``, timed one by one.

    With ``speed``, the calibration kernel runs before every ``every``-th
    item and after the last one, outside the timings, and each time is
    rescaled by the two samples that bracket it.
    """
    out = []
    for i, item in enumerate(items):
        if speed and i % every == 0:
            speed.sample()
        t0 = time.perf_counter()
        result = work(item)
        out.append([item, result, time.perf_counter() - t0])
    if speed:
        speed.sample()
        first = len(speed.samples) - 1 - math.ceil(len(out) / every)
        for i, row in enumerate(out):
            row[2] = speed.at_reference(row[2], first + i // every)
    return out


def run_pass(specs, config, span=nullcontext, speed=None, every=1):
    """Solve each (label, spec) once, timing each solve (see ``timed``)."""
    return [Outcome(label, *result, seconds)
            for (label, _), result, seconds
            in timed(specs, lambda item: solve_guarded(item[1], config, span), speed, every)]


def wrong_result(o: Outcome, config: SolverConfig) -> str | None:
    """Why a converged solve's output is wrong, or None."""
    if not o.converged:
        return None
    r = o.report
    gap = r.gap_certificates[-1] if r.gap_certificates else math.nan
    if not math.isfinite(r.f_min):
        return f"{o.label}: f_min is {r.f_min}"
    if not r.bound_check["within_caps"]:
        return f"{o.label}: Newton count outside the theory caps {r.bound_check}"
    if not r.feas_residual <= config.epsilon:
        return f"{o.label}: feasibility residual {r.feas_residual:.3e} > {config.epsilon:g}"
    if not math.isfinite(gap):
        return f"{o.label}: last gap certificate is {gap}"
    return None


def check_pass(outcomes, config, reference=None, what="pass"):
    problems = [p for p in (wrong_result(o, config) for o in outcomes) if p]
    if reference is not None:
        for o, ref in zip(outcomes, reference):
            if o.fingerprint() != ref.fingerprint():
                problems.append(f"{o.label}: {what} gave {o.fingerprint()}, "
                                f"first pass {ref.fingerprint()}")
    return problems


def tail(times):
    """(seconds, percentile, samples) at the highest percentile with >= 10 beyond it."""
    n = len(times)
    if n <= 10:
        return None
    ordered = sorted(times)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(name, seed):
    """Median time to generate the instance set, at the reference speed.

    Generation is overhead-bound on every workload, so it is always
    calibrated.
    """
    reps = timed(range(SETUP_REPS), lambda _: workloads.build(name, seed),
                 calibration.Speed(), every=SETUP_KERNEL_EVERY)
    return statistics.median(seconds for _, _, seconds in reps)


def run_untraced(name, seed, seconds, config):
    setup = setup_seconds(name, seed)
    every = workloads.WORKLOADS[name].kernel_every
    speed = calibration.Speed() if every else None

    passes = []
    t_start = time.perf_counter()
    while True:  # as many whole passes as fit in the time, and at least one
        passes.append(run_pass(workloads.build(name, seed), config, speed=speed, every=every))
        spent = time.perf_counter() - t_start
        if spent + spent / len(passes) > seconds:
            break

    first = passes[0]
    problems = check_pass(first, config)
    for p in passes[1:]:
        problems += check_pass(p, config, reference=first, what="repeated pass")

    wall = statistics.median(sum(o.seconds for o in p) for p in passes)
    times = [o.seconds for p in passes for o in p]
    metrics = {
        "wall_s": wall,
        "solve_s_p50": statistics.median(times),
        "solves_per_s": sum(o.converged for o in first) / wall,
        "newton_steps": sum(o.newton_steps for o in first),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
    }
    failed = sum(not o.converged for p in passes for o in p)
    notes = [f"{len(passes)} passes of {len(first)} solves",
             (f"solve timings are at the reference speed (calibration.py, "
              f"{len(speed.samples)} kernel samples, median factor {speed.factor():.4f})"
              if speed else "solve timings are measured seconds"),
             f"failed_frac {failed / len(times):.4f} ({failed} of {len(times)} solves)"]
    t = tail(times)
    notes.append(f"solve_s_tail {t[0]:.6g} s (p{t[1]:.1f} of {t[2]} solves)" if t
                 else f"solve_s_tail not reported ({len(times)} solves, needs > 10)")
    for o in first:
        if not o.converged:
            notes.append(f"failed: {o.label} ({o.error or o.report.termination})")
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
            "attempted": len(times), "failed": failed,
            "problems": problems, "notes": notes}


def _backtracks(spans):
    kids = tracer.children(spans)
    total = 0
    for i, s in enumerate(spans):
        if s[tracer.NAME] == "pathfollow.line_search":
            candidates = sum(spans[c][tracer.NAME] == "pathfollow.value_eval"
                             for c in kids[i]) - 1  # the first evaluation is F at alpha=0
            total += candidates - (1 if s[tracer.OK] else 0)
    return total


def _coverage(spans):
    """Smallest share of a solve span that its direct child spans cover."""
    kids = tracer.children(spans)
    worst = 1.0
    for i, s in enumerate(spans):
        if s[tracer.NAME] == "solve":
            dur = s[tracer.END] - s[tracer.START]
            covered = sum(spans[c][tracer.END] - spans[c][tracer.START] for c in kids[i])
            worst = min(worst, covered / dur)
    return worst


def layer_shares(spans):
    """Share of traced solve time spent in each layer's own code."""
    total = tracer.inclusive_seconds(spans, "solve")
    shares = {}
    for s, self_s in zip(spans, tracer.self_times(spans)):
        layer = s[tracer.NAME].split(".")[0] if "." in s[tracer.NAME] else "unattributed"
        shares[layer] = shares.get(layer, 0.0) + self_s / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run_traced(name, seed, config):
    # The first pass only warms the allocator and caches, so that the
    # untraced and traced passes compared below start from the same state.
    warm = run_pass(workloads.build(name, seed), config)
    untraced = run_pass(workloads.build(name, seed), config)
    specs = workloads.build(name, seed)
    with tracer.Tracer() as tr:
        tr.install(tracer.layer_targets(qipsolve))
        traced = run_pass(specs, config, span=tr.solve_span)
    spans = tr.spans

    problems = check_pass(warm, config)
    problems += check_pass(untraced, config, reference=warm, what="repeated pass")
    problems += check_pass(traced, config, reference=warm, what="traced pass")

    summary = tracer.summarize(spans)
    hessian_evals = summary.get("pathfollow.hessian_eval", (0.0, 0))[1]
    steps = sum(o.newton_steps for o in traced)
    metrics = {
        "pathfollow.hessian_evals": hessian_evals,
        "pathfollow.value_evals": summary.get("pathfollow.value_eval", (0.0, 0))[1],
        "pathfollow.newton_per_hessian": steps / hessian_evals if hessian_evals else 0.0,
        "pathfollow.outer_iters": sum(o.report.outer_iters for o in traced if o.report),
        "pathfollow.line_search_s": tracer.inclusive_seconds(spans, "pathfollow.line_search"),
        "pathfollow.backtracks": _backtracks(spans),
        "pathfollow.max_feasible_step_s":
            tracer.inclusive_seconds(spans, "pathfollow.max_feasible_step"),
    }
    for span in _SELF_TIMED:
        self_s, calls = summary.get(span, (0.0, 0))
        metrics[f"{span}_s"] = self_s
        metrics[f"{span}_calls"] = calls
    metrics["trace.overhead_s"] = (sum(o.seconds for o in traced)
                                   - sum(o.seconds for o in untraced))
    metrics["trace.solve_coverage"] = _coverage(spans)
    if metrics["trace.solve_coverage"] < MIN_SOLVE_COVERAGE:
        problems.append(f"child spans cover only {metrics['trace.solve_coverage']:.3f} "
                        f"of a solve (need {MIN_SOLVE_COVERAGE})")

    shares = layer_shares(spans)
    notes = ["layer shares of traced solve time: "
             + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{name}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": name, "seed": seed, "environment": bench_env.environment(),
        "fields": ["name", "start", "end", "parent", "solve", "ok"],
        "solves": [o.label for o in traced], "layer_shares": shares, "spans": spans,
    }))
    notes.append(f"{len(spans)} spans -> {out.relative_to(bench_env.ROOT)}")
    solved = warm + untraced + traced
    failed = sum(not o.converged for o in solved)
    return {"metrics": {k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER},
            "attempted": len(solved), "failed": failed,
            "problems": problems, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    config = SolverConfig()
    print(f"# environment {json.dumps(bench_env.environment())}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        result = run_traced(args.workload, args.seed, config)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, config)

    for note in result["notes"]:
        print(f"# {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<40s} {value:>16.6g} {unit}")
    for problem in result["problems"]:
        print(f"WRONG: {problem}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

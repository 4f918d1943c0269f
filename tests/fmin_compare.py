"""Compare the solver's results on the benchmark's instances across two revisions.

A refactor that is not bit for bit must keep every result within a
drift budget. This script records the results of one checkout and
compares two such records:

    python tests/fmin_compare.py --dump OUT.json
    python tests/fmin_compare.py --compare BEFORE.json AFTER.json

``--dump`` solves the 140 instances of the benchmark's three workloads
at seeds 1 and 2, as ``perfbench/workloads.py`` builds them, and a
``named`` group of seven canonical instances (``NAMED``, as
``probio.build_named`` builds them), with one BLAS thread and the
default ``SolverConfig``. For each it writes
``f_min`` (as ``float.hex``), the termination (or the name of the
QipError raised), ``total_newton``, ``outer_iters``,
``predictions_accepted``, ``predictions_rejected``, the work counts
``hessian_evals``, ``value_evals``, ``kkt_solves`` and ``backtracks``,
``schur_condition_max``, the report's ``centering_caps`` and
``total_cap`` (each as ``float.hex``) and the
SHA-256 of the instance's problem document,
``json.dumps(probio.to_dict(spec), sort_keys=True)``. It
solves with the checkout it lives in: to record another revision, run
that revision's copy of this file (or a copy placed in that checkout).
It takes about a minute.

``--compare`` exits 1 when an instance's termination or problem-document
hash changed, or when |f_A - f_B| / (1 + |f_A|) exceeds 1e-10. It prints the worst drift per
workload, the drift of every QKD instance (the relative entropy carries
value noise of a few 1e-11 near its optima, so these sit closest to the
budget), every change in the Newton count, and per workload the totals
of ``total_newton``, ``outer_iters`` (centerings), the accepted and
rejected predictions and the work counts of both records; a changed
count alone is reported, not failed, and a record that lacks a count
(one written before it was recorded) totals it as 0. Per workload it
also prints how many instances changed their centering caps or their
total cap, the theory's step limits, which a refactor of ``pathfollow``
should keep bit for bit; like a changed count, a changed cap is reported,
not failed, and a record that lacks the caps differs from one that holds
them. Plain relative error would mean nothing here,
since the type2 optima are about 1e-16. It also lists every instance
whose ``schur_condition_max`` moved by more than a factor of 10, and
the largest move per workload: the Cholesky pivot ratio depends on the
coordinates of the Newton system, so it moves with them, and the list
shows how close a move comes to the SingularKKT gate (about 1e13 at
n = 32). A moved condition alone is reported, not failed.

CI runs it on every pull request, on the one-BLAS-thread leg only: it
dumps the base branch (with this copy of the file) and the change on the
same runner, and ``--compare`` fails the job on a changed termination,
a changed problem document or an ``f_min`` drift above 1e-10, so the job
also guards the problem-file format and the canonical instances. Both dumps come from one machine and
one BLAS build; across builds, or thread counts, ``f_min`` moves by tens
of 1e-12 on its own. The file name keeps it out of pytest's collection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_env  # noqa: E402

bench_env.pin_blas_threads()
bench_env.import_program()

import workloads  # noqa: E402
from qipsolve import probio  # noqa: E402
from qipsolve.errors import QipError  # noqa: E402
from qipsolve.pathfollow import SolverConfig, solve  # noqa: E402

SEEDS = (1, 2)
NAMED = ("trace-inverse-n4", "ree-2x2", "ree-2x3", "fidelity-n4", "qkd-toy", "qkd-n4", "qkd-n6")
MAX_DRIFT = 1e-10
CONDITION_MOVE = 10.0
# the per-instance counts totalled per workload, with their printed titles
COUNTS = {
    "total_newton": "Newton steps",
    "outer_iters": "centerings",
    "predictions_accepted": "predictions accepted",
    "predictions_rejected": "predictions rejected",
    "hessian_evals": "Hessians",
    "value_evals": "value evaluations",
    "kkt_solves": "KKT solves",
    "backtracks": "backtracks",
}


def record(workload: str, seed: int, label: str, spec, config) -> dict:
    """One instance's result: f_min as hex (None without a report), termination,
    count, and the hash of its problem document."""
    doc = json.dumps(probio.to_dict(spec), sort_keys=True)
    try:
        report = solve(spec, config=config)
        termination = report.termination
    except QipError as exc:
        report, termination = getattr(exc, "report", None), type(exc).__name__
    return {
        "workload": workload,
        "seed": seed,
        "label": label,
        "f_min": None if report is None else report.f_min.hex(),
        "termination": termination,
        # a checkout whose report lacks a count (an older base) records None
        **{count: getattr(report, count, None) for count in COUNTS},
        "schur_condition_max": None if report is None else report.schur_condition_max,
        "centering_caps": None if report is None else [
            cap.hex() for cap in report.bound_check["centering_caps"]],
        "total_cap": None if report is None else report.bound_check["total_cap"].hex(),
        "problem_sha256": hashlib.sha256(doc.encode()).hexdigest(),
    }


def dump(out: Path) -> int:
    config = SolverConfig()
    rows = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for label, spec in workloads.build(name, seed):
                rows.append(record(name, seed, label, spec, config))
            print(f"{name} seed {seed} solved ({len(rows)} instances)", file=sys.stderr)
    for name in NAMED:
        rows.append(record("named", None, name, probio.build_named(name), config))
    print(f"named solved ({len(rows)} instances)", file=sys.stderr)
    doc = {"environment": bench_env.environment(), "instances": rows}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(rows)} instances written to {out}")
    return 0


def drift(a: str | None, b: str | None) -> float:
    """|f_a - f_b| / (1 + |f_a|); 0 when neither has a value, inf when one lacks it."""
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    fa, fb = float.fromhex(a), float.fromhex(b)
    return abs(fa - fb) / (1.0 + abs(fa))


def condition_move(a: float | None, b: float | None) -> float:
    """b / a of two Schur conditions, 1 when either is missing."""
    return 1.0 if a is None or b is None else b / a


def compare(path_a: Path, path_b: Path) -> int:
    rows_a = {(r["workload"], r["label"]): r for r in json.loads(path_a.read_text())["instances"]}
    rows_b = {(r["workload"], r["label"]): r for r in json.loads(path_b.read_text())["instances"]}
    failures = [f"{key[1]}: only in {path_a}" for key in rows_a.keys() - rows_b.keys()]
    failures += [f"{key[1]}: only in {path_b}" for key in rows_b.keys() - rows_a.keys()]
    worst: dict[str, tuple[float, str]] = {}
    totals = {}  # (workload, side, count) -> sum
    moves: dict[str, tuple[float, str]] = {}
    caps_changed: dict[str, int] = {}
    for key in sorted(rows_a.keys() & rows_b.keys()):
        a, b = rows_a[key], rows_b[key]
        name, label = key
        d = drift(a["f_min"], b["f_min"])
        if d >= worst.get(name, (-1.0, ""))[0]:
            worst[name] = (d, label)
        if label.startswith("qkd"):
            print(f"{label}: f_min drift {d:.2e}")
        if a["termination"] != b["termination"]:
            failures.append(f"{label}: termination {a['termination']} -> {b['termination']}")
        if a.get("problem_sha256") != b.get("problem_sha256"):
            failures.append(f"{label}: problem document hash changed")
        if not d <= MAX_DRIFT:
            failures.append(f"{label}: f_min drift {d:.3e} > {MAX_DRIFT:g}")
        if a["total_newton"] != b["total_newton"]:
            print(f"{label}: Newton steps {a['total_newton']} -> {b['total_newton']}")
        caps = [(row.get("centering_caps"), row.get("total_cap")) for row in (a, b)]
        caps_changed[name] = caps_changed.get(name, 0) + (caps[0] != caps[1])
        move = condition_move(a.get("schur_condition_max"), b.get("schur_condition_max"))
        factor = max(move, 1.0 / move)
        if factor > moves.get(name, (1.0, ""))[0]:
            moves[name] = (factor, label)
        if factor > CONDITION_MOVE:
            print(f"{label}: schur_condition_max {a['schur_condition_max']:.3g} -> "
                  f"{b['schur_condition_max']:.3g} ({move:.3g}x)")
        for side, row in (("a", a), ("b", b)):
            for count in COUNTS:
                key = name, side, count
                # a record written before a count was recorded lacks it
                totals[key] = totals.get(key, 0) + (row.get(count) or 0)
    for name, (d, label) in worst.items():
        factor, where = moves.get(name, (1.0, ""))
        counts = "; ".join(f"{title} {totals[name, 'a', count]} -> {totals[name, 'b', count]}"
                           for count, title in COUNTS.items())
        print(f"{name}: worst drift {d:.2e} ({label}); {counts}; caps changed in "
              f"{caps_changed[name]} instances; largest Schur condition "
              f"move {factor:.3g}x ({where or 'none'})")
    for line in failures:
        print("FAIL", line)
    print(f"{len(rows_a.keys() & rows_b.keys())} instances compared, {len(failures)} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", type=Path, metavar="OUT")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.dump is not None:
        return dump(args.dump)
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())

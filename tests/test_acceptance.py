"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Every test prints a single PASS/FAIL line (before asserting) so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import json
import time

import numpy as np
import pytest

from qipsolve import probio
from qipsolve.matfun import INVERSE, NEG_LOG, NEG_SQRT, neg_power, symmetrize, vec
from qipsolve.objectives import EvalPoint, TraceObjective, barrier_eval, phi_eval
from qipsolve.oracle import (
    dense_hessian_reference,
    derivative_audit,
    fd_cubic_form,
    fixed_coordinates,
    reference_minimize,
    sym_isometry,
)
from qipsolve.pathfollow import solve

_converged_reports = []


def _record(report):
    # every converged run anywhere in this suite must respect the theory caps
    if report.termination == "Converged":
        bc = report.bound_check
        assert report.total_newton <= bc["total_cap"]
        assert bc["per_outer_max"] <= bc["per_outer_cap"]
        _converged_reports.append(report)
    return report


def _emit(num, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_analytic_optimum():
    worst_rel, worst_time = 0.0, 0.0
    for n in (2, 4, 8):
        t0 = time.perf_counter()
        report = _record(solve(probio.build_named(f"trace-inverse-n{n}")))
        dt = time.perf_counter() - t0
        worst_rel = max(worst_rel, abs(report.f_min - n * n) / (n * n))
        worst_time = max(worst_time, dt)
    _emit(1, worst_rel <= 1e-4 and worst_time < 5.0,
          f"min Tr(X^-1) on the simplex hits n^2: rel err {worst_rel:.2e} "
          f"(tol 1e-4), slowest solve {worst_time:.2f}s (cap 5s)")


def test_criterion_02_qkd_trivial_instance():
    report = _record(solve(probio.build_named("qkd-toy")))
    _emit(2, abs(report.f_min) <= 1e-7 and report.total_newton <= 20,
          f"identity-vs-trivial-pinching instance: f_min {report.f_min:.2e} "
          f"(tol 1e-7), nNewton {report.total_newton} (cap 20)")


def test_criterion_03_ree_equality_case():
    problem = probio.build_named("ree-2x2")
    report = _record(solve(problem))
    dist = float(np.linalg.norm(report.X_star - problem.terms[0].C))
    _emit(3, abs(report.f_min) <= 1e-6 and dist <= 1e-3,
          f"feasible-weight entanglement bound: f_min {report.f_min:.2e} "
          f"(tol 1e-6), ||X*-C|| {dist:.2e} (tol 1e-3)")


def test_criterion_04_derivative_suite():
    def trace_family(generator, alpha=None):
        extra = {"generator": generator}
        if alpha is not None:
            extra["alpha"] = alpha
        return lambda n: probio.generate_random(
            "type1", {"n": n, "m": 1, "N": 3, **extra}, seed=n)

    families = [
        ("trace-inverse", trace_family("inverse")),
        ("neg-log", trace_family("neg_log")),
        # the fidelity form: -Tr((Y^1/2 X Y^1/2)^1/2), map-composed
        ("neg-sqrt/fidelity", lambda n: probio.build_named(f"fidelity-n{n}")),
        ("neg-power", trace_family("neg_power", alpha=0.37)),
        ("qre", lambda n: probio.generate_random("qkd", {"n": n, "m": 1}, seed=n)),
    ]
    worst_g, worst_h = 0.0, 0.0
    rng = np.random.default_rng(7)
    for fam, make in families:
        for n in (3, 5, 8):
            results = {r.name: r for r in derivative_audit(make(n), rng, points=3)}
            worst_g = max(worst_g, results["gradient-vs-fd"].value)
            worst_h = max(worst_h, results["hessian-action-vs-fd"].value)
    _emit(4, worst_g <= 1e-6 and worst_h <= 1e-5,
          f"5 families x n in (3,5,8) x 3 points: gradient vs FD {worst_g:.2e} "
          f"(tol 1e-6), Hessian action vs FD {worst_h:.2e} (tol 1e-5)")


def test_criterion_05_hessian_two_path_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (3, 6, 8):
        g = rng.standard_normal((n, n))
        x = symmetrize(g @ g.T + 0.5 * np.eye(n))
        g = rng.standard_normal((n, n))
        c = symmetrize(g @ g.T)
        for gen in (INVERSE, NEG_LOG, NEG_SQRT, neg_power(0.37)):
            obj = TraceObjective(c, gen)
            h_prod = fixed_coordinates(phi_eval(obj, EvalPoint(x))).hessian
            h_ref = dense_hessian_reference(obj, x)
            worst = max(worst, float(np.linalg.norm(h_prod - h_ref)
                                     / np.linalg.norm(h_ref)))
    _emit(5, worst <= 1e-10,
          f"block-sparse vs dense entrywise Hessian, all generators, n<=8: "
          f"rel Frobenius {worst:.2e} (tol 1e-10)")


def test_criterion_06_compatibility_inequality():
    rng = np.random.default_rng(23)
    violations = 0
    total = 0
    for gen in (INVERSE, NEG_LOG, NEG_SQRT, neg_power(0.37)):
        for _ in range(50):
            n = 4
            g = rng.standard_normal((n, n))
            x = symmetrize(g @ g.T + 0.4 * np.eye(n))
            g = rng.standard_normal((n, n))
            c = symmetrize(g @ g.T)
            xi = symmetrize(rng.standard_normal((n, n)))
            obj = TraceObjective(c, gen)
            s = sym_isometry(n).T @ vec(xi)
            d2phi = float(s @ (fixed_coordinates(phi_eval(obj, EvalPoint(x))).hessian @ s))
            d2b = float(s @ (fixed_coordinates(barrier_eval(EvalPoint(x))).hessian @ s))
            d3 = fd_cubic_form(lambda y: fixed_coordinates(phi_eval(obj, EvalPoint(y))).hessian,
                               x, xi)
            bound = 3.0 * d2phi * np.sqrt(d2b)
            total += 1
            if abs(d3) > bound + 1e-4 * max(1.0, bound):
                violations += 1
    _emit(6, violations == 0,
          f"third-derivative compatibility bound (constant 3): "
          f"{violations}/{total} violations across 50 draws per generator")


def test_criterion_07_quadratic_centering():
    from qipsolve.pathfollow import FBetaEvaluator, _Run, center

    pairs = []
    for seed in (9, 21):
        problem = probio.generate_random("type1", {"n": 4, "m": 0, "N": 2}, seed=seed)
        ev = FBetaEvaluator(problem)
        for point_seed in range(6):
            prng = np.random.default_rng(point_seed)
            x = probio.random_feasible_point(problem, prng, scale=0.5)
            run = _Run(EvalPoint(x))
            center(run, 4.0, ev, 500, target=1e-7)
            deltas = [d for _, d in run.trace]
            pairs.extend(zip(deltas, deltas[1:]))
    in_regime = [(a, b) for a, b in pairs if a <= 1.0 / 6.0]
    good = sum(1 for a, b in in_regime if b <= 8.0 * a * a)
    frac = good / len(in_regime) if in_regime else 0.0
    _emit(7, len(in_regime) >= 20 and frac >= 0.95,
          f"delta_k <= 1/6 implies delta_k+1 <= 8 delta_k^2 in "
          f"{good}/{len(in_regime)} recorded steps ({100 * frac:.1f}%, need 95%)")


def test_criterion_08_complexity_bound_conformance():
    # standard set of converged runs, plus everything recorded so far
    reports = list(_converged_reports)
    for name in ("trace-inverse-n4", "ree-2x2", "fidelity-n4", "qkd-n4"):
        reports.append(solve(probio.build_named(name)))
    for seed in (0, 1):
        reports.append(solve(probio.generate_random(
            "type1", {"n": 4, "m": 2, "N": 4}, seed=seed)))
        reports.append(solve(probio.generate_random("qkd", {"n": 4, "m": 2}, seed=seed)))
    bad = 0
    for rep in reports:
        bc = rep.bound_check
        if not (rep.total_newton <= bc["total_cap"]
                and bc["per_outer_max"] <= bc["per_outer_cap"]):
            bad += 1
    _emit(8, bad == 0 and len(reports) >= 8,
          f"Newton-step counts within the per-outer and total theory caps on "
          f"{len(reports)} converged runs ({bad} violations)")


def test_criterion_09_desk_scale_qkd():
    problem = probio.generate_random(
        "qkd", {"n": 16, "k": 32, "m": 10, "r1": 2, "r2": 2}, seed=42)
    t0 = time.perf_counter()
    report = _record(solve(problem))
    dt = time.perf_counter() - t0
    _emit(9, report.termination == "Converged" and report.total_newton <= 100
          and dt <= 120.0,
          f"n=16 k=32 m=10 instance: {report.termination}, "
          f"nNewton {report.total_newton} (cap 100), {dt:.1f}s (cap 120s)")


def test_criterion_10_cross_solver_consistency():
    families = [
        ("inverse", {"generator": "inverse"}),
        ("neg_log", {"generator": "neg_log"}),
        ("neg_sqrt", {"generator": "neg_sqrt"}),
        ("neg_power", {"generator": "neg_power", "alpha": 0.37}),
        ("qre", None),
    ]
    worst = 0.0
    for fam, extra in families:
        for seed in range(20):
            if extra is None:
                problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=seed)
            else:
                problem = probio.generate_random(
                    "type1", {"n": 3, "m": 0, "N": 2, **extra}, seed=seed)
            f_ref, _ = reference_minimize(problem)
            report = _record(solve(problem))
            worst = max(worst, abs(f_ref - report.f_min) / (1 + abs(f_ref)))
    _emit(10, worst <= 1e-4,
          f"path-following vs projected-gradient reference on 20 n=3 instances "
          f"per family: worst rel gap {worst:.2e} (tol 1e-4)")


def test_criterion_11_roundtrip_and_determinism(tmp_path):
    problem = probio.generate_random("qkd", {"n": 4, "m": 2}, seed=17)
    path = tmp_path / "p.json"
    probio.save(problem, path)
    loaded = probio.load(path)
    same_problem = (
        np.array_equal(loaded.start, problem.start)
        and all(np.array_equal(a, b) for a, b in
                zip(loaded.constraints.mats, problem.constraints.mats))
        and all(np.array_equal(a, b) for a, b in
                zip(loaded.terms[0].l1.factors, problem.terms[0].l1.factors))
    )
    r1 = _record(solve(problem)).to_dict()
    r2 = solve(loaded).to_dict()
    r1.pop("wall_time"), r2.pop("wall_time")
    identical = json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    _emit(11, same_problem and identical,
          f"save/load identity {'ok' if same_problem else 'BROKEN'}, "
          f"fixed-seed reports identical up to timing: {identical}")

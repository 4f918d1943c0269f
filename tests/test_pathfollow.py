import copy
import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg

from qipsolve import objectives, pathfollow, probio
from qipsolve.errors import (
    DecompositionFailure,
    DomainViolation,
    InfeasibleStart,
    LineSearchFailure,
    SingularKKT,
)
from qipsolve.kkt import AffineConstraints, NewtonStep, newton_step_type1
from qipsolve.matfun import pair_table, spectral_decompose, symmetrize, vec
from qipsolve.objectives import (
    DerivativeBundle,
    EvalPoint,
    LogDetBarrier,
    combine_terms,
    evaluate_terms,
)
from qipsolve.oracle import (
    derivative_audit,
    fixed_coordinates,
    reference_minimize,
    sym_isometry,
)
from qipsolve.pathfollow import (
    FBetaEvaluator,
    SolverConfig,
    _Run,
    center,
    cone_step_bound,
    iteration_bound,
    line_search,
    max_feasible_step,
    proximity_gap_bound,
    solve,
)


def cap_centerings(monkeypatch, per_outer):
    """Make ``per_outer`` the theory's per-outer cap, the step limit of every centering."""
    real = pathfollow.iteration_bound
    monkeypatch.setattr(pathfollow, "iteration_bound",
                        lambda config, r: (per_outer, real(config, r)[1]))


def count_decompositions(monkeypatch, problem) -> int:
    """Spectral decompositions a solve of ``problem`` makes."""
    calls = []
    real = objectives.spectral_decompose

    def counted(y):
        calls.append(None)
        return real(y)

    monkeypatch.setattr(objectives, "spectral_decompose", counted)
    solve(problem)
    monkeypatch.undo()
    return len(calls)


def fake_step(direction):
    return NewtonStep(
        direction_X=direction,
        decrement=1.0,
        decrement_innerprod=1.0,
        schur_condition=1.0,
        tangency_residual=0.0,
    )


def type1_point(rng):
    """Evaluator and a random strictly feasible point of a small type1 instance."""
    problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=3)
    x = probio.random_feasible_point(problem, rng)
    return FBetaEvaluator(problem), EvalPoint(x)


def slack_bound(problem, x, p):
    """Least s_i / <A_i, P> over the inequality rows whose slack falls along P."""
    cons = problem.constraints
    m = cons.n_ineq
    slacks = cons.rhs[:m] - np.array([np.tensordot(a, x) for a in cons.mats[:m]])
    rates = np.array([np.tensordot(a, p) for a in cons.mats[:m]])
    return min((s / r for s, r in zip(slacks, rates) if r > 0), default=math.inf)


class TestMaxFeasibleStep:
    def test_scaling_direction_hits_boundary_at_one(self, rng):
        problem = probio.build_named("trace-inverse-n4")
        ev = FBetaEvaluator(problem)
        g = rng.standard_normal((4, 4))
        x = symmetrize(g @ g.T + 0.3 * np.eye(4))
        a = max_feasible_step(EvalPoint(x), fake_step(-x), ev)
        assert a == pytest.approx(1.0, rel=1e-10)

    def test_psd_direction_is_unbounded(self, rng):
        problem = probio.build_named("trace-inverse-n4")
        ev = FBetaEvaluator(problem)
        g = rng.standard_normal((4, 4))
        x = symmetrize(g @ g.T + 0.3 * np.eye(4))
        p = symmetrize(g @ g.T)  # PSD step
        assert max_feasible_step(EvalPoint(x), fake_step(p), ev) == math.inf

    def test_slack_boundary(self, rng):
        # a PSD direction leaves X definite, so the first falling slack bounds it
        problem = probio.generate_random("type1", {"n": 3, "m": 2, "N": 3}, seed=5)
        ev = FBetaEvaluator(problem)
        x = probio.random_feasible_point(problem, rng)
        w, v = np.linalg.eigh(problem.constraints.mats[0])
        assert w[-1] > 0.0
        p = np.outer(v[:, -1], v[:, -1])
        expected = slack_bound(problem, x, p)
        assert math.isfinite(expected)
        assert max_feasible_step(EvalPoint(x), fake_step(p), ev) == pytest.approx(expected,
                                                                                  rel=1e-12)


    def test_failed_generalized_eigenproblem_raises(self, rng):
        # X not positive definite: the pencil (P, X) has no bound from X's
        # decomposition, whose Lam^-1/2 needs lam > 0
        problem = probio.build_named("trace-inverse-n4")
        x = -np.eye(4)
        with pytest.raises(DomainViolation, match="iterate X must be positive definite"):
            max_feasible_step(EvalPoint(x), fake_step(symmetrize(
                rng.standard_normal((4, 4)))), FBetaEvaluator(problem))

    @pytest.mark.parametrize("kind, dims", [("type1", {"n": 5, "m": 2, "N": 4}),
                                            ("type2", {"n": 4, "m": 1})])
    def test_bounds_match_scipy_eigh(self, rng, kind, dims):
        # the bound from Y's decomposition against the generalized eigenvalues
        # of the pencil (P, Y) from scipy, on X and on the map cones
        problem = probio.generate_random(kind, dims, seed=7)
        ev = FBetaEvaluator(problem)
        x = probio.random_feasible_point(problem, rng)
        lmap = problem.constraint_map

        def pencils(p):
            return [(p, x)] + ([] if lmap is None else [(lmap.apply(p), lmap.apply(x))])

        def scipy_bound(p, y):
            w = scipy.linalg.eigh(p, y, eigvals_only=True)
            wmin = float(w.min())
            return -1.0 / wmin if wmin < -1e-14 * max(1.0, float(np.abs(w).max())) else math.inf

        def assert_same_bound(got, expected):
            if math.isinf(expected):
                assert got == math.inf
            else:
                assert got == pytest.approx(expected, rel=1e-12)

        cases = [pc for _ in range(5) for pc in pencils(symmetrize(rng.standard_normal(x.shape)))]
        cases += pencils(np.eye(x.shape[0]))  # PSD step: unbounded in every cone
        assert len(cases) == (12 if kind == "type2" else 6)
        for p, y in cases:
            dec = spectral_decompose(y)
            assert_same_bound(cone_step_bound(dec.U.T @ p @ dec.U, dec.lam), scipy_bound(p, y))
        step = newton_step_type1(ev.x_bundle(EvalPoint(x), 2.0), problem.constraints)
        bounds = [scipy_bound(p, y) for p, y in pencils(step.direction_X)]
        bounds.append(slack_bound(problem, x, step.direction_X))
        assert_same_bound(max_feasible_step(EvalPoint(x), step, ev), min(bounds))

    @pytest.mark.parametrize("kind, dims", [("type1", {"n": 5, "m": 2, "N": 4}),
                                            ("type2", {"n": 4, "m": 1})])
    def test_bounds_match_scipy_eigh_bitwise(self, rng, kind, dims):
        # each cone's bound is -1 / lambda_min of W = Lam^-1/2 O.T P O Lam^-1/2
        # from scipy's divide-and-conquer symmetric eigensolver on W's upper
        # triangle, bit for bit, and max_feasible_step is the least of the
        # cones' bounds, bit for bit, and of the slacks' bounds
        problem = probio.generate_random(kind, dims, seed=7)
        ev = FBetaEvaluator(problem)
        x = probio.random_feasible_point(problem, rng)
        lmap = problem.constraint_map

        def pencils(p):
            return [(p, x)] + ([] if lmap is None else [(lmap.apply(p), lmap.apply(x))])

        def scipy_bound(p, y):
            dec = spectral_decompose(y)
            s = 1.0 / np.sqrt(dec.lam)
            w = scipy.linalg.eigh((dec.U.T @ p @ dec.U) * np.outer(s, s), lower=False,
                                  eigvals_only=True, driver="evd")
            wmin = float(w.min())
            return -1.0 / wmin if wmin < -1e-14 * max(1.0, float(np.abs(w).max())) else math.inf

        cases = [pc for _ in range(5) for pc in pencils(symmetrize(rng.standard_normal(x.shape)))]
        cases += pencils(np.eye(x.shape[0]))  # PSD step: unbounded in every cone
        assert len(cases) == (12 if kind == "type2" else 6)
        for p, y in cases:
            dec = spectral_decompose(y)
            assert cone_step_bound(dec.U.T @ p @ dec.U, dec.lam) == scipy_bound(p, y)
        assert scipy_bound(*cases[-1]) == math.inf
        step = newton_step_type1(ev.x_bundle(EvalPoint(x), 2.0), problem.constraints)
        cones = min(scipy_bound(p, y) for p, y in pencils(step.direction_X))
        slacks = slack_bound(problem, x, step.direction_X)
        bound = max_feasible_step(EvalPoint(x), step, ev)
        if cones <= slacks:
            assert bound == cones
        else:
            assert bound == pytest.approx(slacks, rel=1e-12)


class TestLineSearch:
    def test_strict_decrease_on_newton_step(self, rng, monkeypatch):
        ev, point = type1_point(rng)
        problem = ev.problem
        beta = 2.0
        step = newton_step_type1(ev.x_bundle(point, beta), problem.constraints)
        real_value = ev.value
        tested = []

        def recorded(p, b):
            tested.append(p)
            return real_value(p, b)

        monkeypatch.setattr(ev, "value", recorded)
        alpha, trial = line_search(point, step, beta, ev)
        monkeypatch.undo()
        assert 0.0 < alpha <= 1.0
        new_x = symmetrize(point.x + alpha * step.direction_X)
        f0 = ev.value(point, beta)
        f1 = ev.value(EvalPoint(new_x), beta)
        assert f1 < f0
        # the accepted trial is that step, and its point holds its X
        assert np.array_equal(trial.x, new_x)
        assert ev.value(trial, beta) == f1
        assert tested[0] is point and tested[-1] is trial

    def test_ascent_direction_fails(self, rng, monkeypatch):
        # a value decrease is the only acceptance rule, so an ascent
        # direction exhausts the backtrack budget. Values are clamped at
        # F_beta(x): at alpha ~ 1e-14 the rounding of real ones can show a
        # spurious decrease of about 1e-14 relative
        ev, point = type1_point(rng)
        beta = 2.0
        step = newton_step_type1(ev.x_bundle(point, beta), ev.problem.constraints)
        step.direction_X = -step.direction_X
        f0 = ev.value(point, beta)
        true_value = ev.value
        values = []

        def clamped(point, b):
            values.append(true_value(point, b))
            return max(values[-1], f0)

        monkeypatch.setattr(ev, "value", clamped)
        with pytest.raises(LineSearchFailure):
            line_search(point, step, beta, ev)
        assert len(values) == 1 + pathfollow.LS_MAX_BACKTRACKS
        assert all(v > f0 for v in values[1:10])


class TestCertifiedStep:
    # instances whose value noise at beta ~ 1e9 once defeated the value test
    # inside the band (a step of alpha ~ 1e-9 at n=4 seed 85)
    @pytest.mark.parametrize("n, m, seed", [(3, 1, 102), (4, 2, 85)])
    def test_value_noise_instances_take_long_steps(self, n, m, seed):
        steps = []
        report = solve(probio.generate_random("qkd", {"n": n, "m": m}, seed=seed),
                       callback=steps.append)
        assert report.termination == "Converged"
        assert report.bound_check["within_caps"]
        assert min(s["alpha"] for s in steps) >= 1e-6

    @pytest.mark.parametrize("include_barrier", [True, False])
    def test_line_search_skipped_only_with_the_barrier(self, include_barrier, monkeypatch):
        searched = []
        real_search = pathfollow.line_search

        def recording(point, step, beta, evaluator):
            searched.append((beta, step.decrement))
            return real_search(point, step, beta, evaluator)

        monkeypatch.setattr(pathfollow, "line_search", recording)
        problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=0)
        steps = []
        solve(problem, include_barrier=include_barrier, callback=steps.append)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        certified = [pathfollow.certified_full_step(ev, s["delta"]) for s in steps]
        if include_barrier:
            assert any(certified)
            assert searched == [(s["beta"], s["delta"])
                                for s, c in zip(steps, certified) if not c]
            assert all(s["alpha"] == 1.0 for s, c in zip(steps, certified) if c)
        else:
            assert not any(certified)
            assert searched == [(s["beta"], s["delta"]) for s in steps]

    @pytest.mark.parametrize("kind, dims, seed", [
        ("qkd", {"n": 3, "m": 1}, 0),
        ("qkd", {"n": 4, "m": 2}, 3),
        ("type1", {"n": 4, "m": 2, "N": 4}, 6),
        ("type2", {"n": 4, "n1": 2, "n2": 2}, 1),
    ])
    def test_certified_step_decrease_meets_the_bound(self, kind, dims, seed):
        # F(x + p) - F(x) <= -(4/M^2)(lam^2 + lam + ln(1 - lam)), lam = (M/2) delta;
        # at beta <= 1e4 the value noise of F_beta is far below the margin.
        # The schedule of theta = 1 up to there, with no predictions, so
        # each step starts where the last one ended
        problem = probio.generate_random(kind, dims, seed=seed)
        ev = FBetaEvaluator(problem)
        run, steps = _Run(EvalPoint(problem.start)), []
        for i in range(14):
            center(run, 2.0**i, ev, 500, callback=steps.append)
        pairs = zip([problem.start] + [s["x"] for s in steps], steps)
        m = pathfollow.SELF_CONCORDANCE_M
        checked = 0
        for start, s in pairs:
            if not pathfollow.certified_full_step(ev, s["delta"]):
                continue
            lam = 0.5 * m * s["delta"]
            bound = (4.0 / m**2) * (lam**2 + lam + math.log1p(-lam))
            f0 = ev.value(EvalPoint(start), s["beta"])
            f1 = ev.value(EvalPoint(s["x"]), s["beta"])
            assert f1 - f0 <= -bound + 1e-12 * abs(f0)
            checked += 1
        assert checked >= 3


class TestCenter:
    def test_already_centered_takes_zero_steps(self):
        problem = probio.build_named("trace-inverse-n4")
        ev = FBetaEvaluator(problem)
        run = _Run(EvalPoint(np.eye(4) / 4))
        center(run, 1.0, ev, 500)
        assert run.steps == [0]
        assert len(run.trace) == 1

    def test_quadratic_contraction_on_logged_trace(self, rng):
        # center well past the gate (but above the float floor) and look
        # at consecutive decrements
        problem = probio.generate_random("type1", {"n": 4, "m": 0, "N": 2}, seed=9)
        ev = FBetaEvaluator(problem)
        pairs = []
        for point_seed in range(6):
            prng = np.random.default_rng(point_seed)
            x = probio.random_feasible_point(problem, prng, scale=0.5)
            run = _Run(EvalPoint(x))
            center(run, 4.0, ev, 500, target=1e-7)
            deltas = [d for _, d in run.trace]
            pairs.extend(zip(deltas, deltas[1:]))
        in_regime = [(a, b) for a, b in pairs if a <= 1.0 / 6.0]
        assert len(in_regime) >= 5
        good = sum(1 for a, b in in_regime if b <= 8.0 * a * a)
        assert good / len(in_regime) >= 0.95


# (kind, dims, include_barrier): QKD with and without -ln det X, type1
# with inequality rows, and type2 with two barriers (on X and on L(X))
CACHE_CASES = {
    "qkd": ("qkd", {"n": 3, "m": 1}, True),
    "qkd-no-barrier": ("qkd", {"n": 3, "m": 1}, False),
    "type1": ("type1", {"n": 4, "m": 2, "N": 4}, True),
    "type2": ("type2", {"n": 4, "m": 1}, True),
}


def cache_case(case, rng):
    kind, dims, include_barrier = CACHE_CASES[case]
    problem = probio.generate_random(kind, dims, seed=5)
    x = probio.random_feasible_point(problem, rng)
    return problem, include_barrier, x


def count_fresh_hessians(monkeypatch, ev):
    """Record the X of every fresh Hessian evaluation ``ev`` makes."""
    fresh = []
    real = ev.x_bundle

    def counted(point, beta, want_hessian=True):
        if want_hessian:
            fresh.append(np.array(point.x))
        return real(point, beta, want_hessian)

    monkeypatch.setattr(ev, "x_bundle", counted)
    return fresh


def reference_bundle(problem, include_barrier, x, beta):
    """F_beta's bundle at X from a new evaluator and a new point."""
    return FBetaEvaluator(problem, include_barrier=include_barrier).x_bundle(EvalPoint(x), beta)


def assert_bitwise_equal(a, b):
    assert a.value == b.value
    assert np.array_equal(a.gradient, b.gradient)
    assert np.array_equal(a.hessian, b.hessian)


class TestHessianCache:
    @pytest.mark.parametrize("case", sorted(CACHE_CASES))
    def test_recombination_is_exact(self, case, rng, monkeypatch):
        problem, include_barrier, x = cache_case(case, rng)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        fresh = count_fresh_hessians(monkeypatch, ev)
        point = EvalPoint(x)
        ev.hessian_bundle(point, 3.0)
        recombined = ev.hessian_bundle(point, 7.5)  # the same point
        assert len(fresh) == 1
        reference = reference_bundle(problem, include_barrier, x, 7.5)
        assert_bitwise_equal(recombined, reference)

    @pytest.mark.parametrize("case", ["qkd", "type2"])
    def test_kept_bundles_belong_to_the_kept_point(self, case, rng, monkeypatch):
        problem, include_barrier, x = cache_case(case, rng)
        other = probio.random_feasible_point(problem, rng)
        assert not np.array_equal(other, x)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        fresh = count_fresh_hessians(monkeypatch, ev)
        point = EvalPoint(x)
        ev.hessian_bundle(point, 3.0)
        parts = point.parts
        assert np.array_equal(point.x, x) and len(parts) == len(ev.terms)
        # a value-only evaluation at the same point keeps its bundles
        ev.value(point, 5.0)
        assert point.parts is parts
        reference = reference_bundle(problem, include_barrier, x, 7.5)
        assert_bitwise_equal(ev.hessian_bundle(point, 7.5), reference)
        assert len(fresh) == 1
        # the bundles belong to their point: one at another X holds none,
        # and a new point at X is evaluated afresh
        other_point = EvalPoint(other)
        ev.value(other_point, 5.0)
        assert np.array_equal(other_point.x, other) and other_point.parts is None
        assert_bitwise_equal(ev.hessian_bundle(EvalPoint(x), 7.5), reference)
        assert len(fresh) == 2

    @pytest.mark.parametrize("case", sorted(CACHE_CASES))
    def test_iterate_keeps_its_bundles_across_another_point(self, case, rng, monkeypatch):
        # a value evaluation elsewhere (a trial step, or a predicted point)
        # takes nothing from the iterate: back at it, a new beta recombines
        problem, include_barrier, x = cache_case(case, rng)
        other = probio.random_feasible_point(problem, rng)
        assert not np.array_equal(other, x)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        fresh = count_fresh_hessians(monkeypatch, ev)
        iterate = EvalPoint(x)
        ev.hessian_bundle(iterate, 3.0)
        assert math.isfinite(ev.value(EvalPoint(other), 3.0))
        bundle = ev.hessian_bundle(iterate, 7.5)
        assert len(fresh) == 1
        assert_bitwise_equal(bundle, combine_terms(7.5, iterate.parts, ev.n_scaled))
        assert_bitwise_equal(bundle, reference_bundle(problem, include_barrier, x, 7.5))

    def test_new_iterate_is_evaluated_afresh(self, rng, monkeypatch):
        # a point holds its own copy of X: changing the caller's array in
        # place makes it a new iterate, with a point of its own
        problem, include_barrier, x = cache_case("type2", rng)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        fresh = count_fresh_hessians(monkeypatch, ev)
        ev.hessian_bundle(EvalPoint(x), 3.0)
        x[:] = probio.random_feasible_point(problem, rng)
        bundle = ev.hessian_bundle(EvalPoint(x), 3.0)
        assert len(fresh) == 2
        assert np.array_equal(fresh[1], x)
        reference = reference_bundle(problem, include_barrier, x, 3.0)
        assert_bitwise_equal(bundle, reference)

    # the relative entropy; type1 with inequality rows (their logs in the
    # X barrier, and steps outside the certified band, so line-searched);
    # type2 (map barrier)
    @pytest.mark.parametrize("kind, dims", [
        ("qkd", {"n": 3, "m": 1}),
        ("type1", {"n": 4, "m": 2, "N": 4}),
        ("type2", {"n": 4, "m": 1}),
    ], ids=["qkd", "type1", "type2"])
    def test_one_fresh_hessian_per_newton_step_plus_one(self, kind, dims, monkeypatch):
        # with every prediction declined the schedule is theta = 1 and each
        # centering starts at the iterate where the previous one evaluated
        # its gate, so only the start and each step cost a Hessian of
        # -ln det X, a term of every case
        problem = probio.generate_random(kind, dims, seed=0)
        real = objectives.barrier_eval
        real_search = pathfollow.line_search
        hessians, searches = [], []

        def counted(point, want_hessian=True, constraints=None):
            hessians.append(want_hessian)
            return real(point, want_hessian, constraints)

        def counted_search(*args):
            searches.append(None)
            return real_search(*args)

        monkeypatch.setattr(objectives, "barrier_eval", counted)
        monkeypatch.setattr(pathfollow, "line_search", counted_search)
        monkeypatch.setattr(pathfollow, "predict", lambda *args: False)
        report = solve(problem)
        assert report.termination == "Converged"
        assert report.outer_iters > 1
        assert report.predictions_accepted == report.predictions_rejected == 0
        assert sum(hessians) == report.total_newton + 1
        assert len(hessians) > sum(hessians)  # value-only evaluations ran too
        if kind == "type1":
            assert searches

    @pytest.mark.parametrize("kind, dims", [
        ("qkd", {"n": 3, "m": 1}),
        ("type1", {"n": 4, "m": 2, "N": 4}),
        ("type2", {"n": 4, "m": 1}),
    ], ids=["qkd", "type1", "type2"])
    def test_one_fresh_hessian_per_newton_step_and_prediction_plus_one(self, kind, dims,
                                                                       monkeypatch):
        # each centering starts at the iterate where the previous one
        # evaluated its gate, or at a predicted point evaluated for its
        # own gate, so only the start, each step and each prediction cost
        # a Hessian of -ln det X, a term of every case
        problem = probio.generate_random(kind, dims, seed=0)
        real = objectives.barrier_eval
        real_search = pathfollow.line_search
        hessians, searches = [], []

        def counted(point, want_hessian=True, constraints=None):
            hessians.append(want_hessian)
            return real(point, want_hessian, constraints)

        def counted_search(*args):
            searches.append(None)
            return real_search(*args)

        monkeypatch.setattr(objectives, "barrier_eval", counted)
        monkeypatch.setattr(pathfollow, "line_search", counted_search)
        report = solve(problem)
        assert report.termination == "Converged"
        assert report.outer_iters > 1
        predictions = report.predictions_accepted + report.predictions_rejected
        assert report.predictions_accepted and report.predictions_rejected
        assert sum(hessians) == 1 + report.total_newton + predictions
        assert len(hessians) > sum(hessians)  # value-only evaluations ran too
        if kind == "type1":
            assert searches


class TestSharedPoint:
    @pytest.mark.parametrize("case", sorted(CACHE_CASES))
    def test_value_is_the_combined_bundle_value(self, case, rng):
        problem, include_barrier, x = cache_case(case, rng)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        parts = evaluate_terms(ev.terms, ev.n_scaled, EvalPoint(x))
        expected = combine_terms(3.0, parts, ev.n_scaled).value
        assert ev.value(EvalPoint(x), 3.0) == expected

    @pytest.mark.parametrize("case", ["qkd", "type1", "type2"])
    def test_accepted_trial_is_not_decomposed_again(self, case, rng, monkeypatch):
        problem, include_barrier, x = cache_case(case, rng)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        point = EvalPoint(x)
        beta = 2.0
        step = newton_step_type1(ev.hessian_bundle(point, beta), problem.constraints)
        seen = []
        real = objectives.spectral_decompose

        def counted(y):
            seen.append(np.array(y))
            return real(y)

        monkeypatch.setattr(objectives, "spectral_decompose", counted)
        alpha, trial = line_search(point, step, beta, ev)
        # F at alpha = 0 reads the Hessian evaluation's decompositions
        assert seen and not any(np.array_equal(y, x) for y in seen)
        new_x = symmetrize(point.x + alpha * step.direction_X)
        assert np.array_equal(trial.x, new_x)
        del seen[:]
        bundle = ev.hessian_bundle(trial, beta)
        assert seen == []
        monkeypatch.undo()
        reference = reference_bundle(problem, include_barrier, new_x, beta)
        assert_bitwise_equal(bundle, reference)

    @pytest.mark.parametrize("case", ["qkd", "type1", "type2"])
    def test_value_at_a_point_holding_parts_is_a_fresh_evaluation(self, case, rng):
        problem, include_barrier, x = cache_case(case, rng)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        point = EvalPoint(x)
        ev.hessian_bundle(point, 1.0)
        assert point.parts is not None
        for beta in (0.5, 3.0, 2.5e7):
            fresh = FBetaEvaluator(problem, include_barrier=include_barrier)
            assert ev.value(point, beta) == fresh.value(EvalPoint(x), beta), beta

    @pytest.mark.parametrize("case", ["qkd", "type1", "type2"])
    def test_line_search_value_at_zero_evaluates_no_term(self, case, rng, monkeypatch):
        problem, include_barrier, x = cache_case(case, rng)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        point = EvalPoint(x)
        beta = 2.0
        step = newton_step_type1(ev.hessian_bundle(point, beta), problem.constraints)
        evaluated = []
        for cls in {type(term) for term in ev.terms}:
            def recorded(term, p, want_hessian=True, real=cls.evaluate):
                evaluated.append(p)
                return real(term, p, want_hessian)

            monkeypatch.setattr(cls, "evaluate", recorded)
        line_search(point, step, beta, ev)
        # the trials are evaluated, the iterate's point is not
        assert evaluated and not any(p is point for p in evaluated)


# small instances of every structure whose runs accept and reject predictions
PREDICTOR_CASES = [
    ("qkd", {"n": 4, "m": 2}, 3),
    ("type1", {"n": 4, "m": 2, "N": 4}, 6),
    ("type2", {"n": 4, "n1": 2, "n2": 2}, 1),
]


def traced_predictions(monkeypatch):
    """Record (centered X, predicted X or None, beta', accepted, X after) of every prediction."""
    events = []
    real_predict, real_system = pathfollow.predict, pathfollow.newton_system

    def predict(run, beta_pred, evaluator, target):
        centered, seen = run.point, []

        def system(run_, beta_, evaluator_):
            seen.append(run_.point)
            return real_system(run_, beta_, evaluator_)

        monkeypatch.setattr(pathfollow, "newton_system", system)
        try:
            accepted = real_predict(run, beta_pred, evaluator, target)
        finally:
            monkeypatch.setattr(pathfollow, "newton_system", real_system)
        predicted = next((p for p in seen if p is not centered), None)
        events.append((centered, predicted, beta_pred, accepted, run.point))
        return accepted

    monkeypatch.setattr(pathfollow, "predict", predict)
    return events


class TestPredictor:
    @pytest.mark.parametrize("kind, dims, seed", PREDICTOR_CASES,
                             ids=[c[0] for c in PREDICTOR_CASES])
    def test_every_centering_ends_at_the_gate_on_the_schedule(self, kind, dims, seed):
        problem = probio.generate_random(kind, dims, seed=seed)
        config = SolverConfig()
        report = solve(problem, config=config)
        assert report.termination == "Converged"
        assert report.bound_check["within_caps"]
        assert report.predictions_accepted and report.predictions_rejected
        # one run of equal betas per centering, each ending at the gate
        ends = [(b, d) for (b, d), nxt in zip(report.decrement_trace,
                                              report.decrement_trace[1:] + [(None, 0)])
                if b != nxt[0]]
        assert len(ends) == report.outer_iters == len(report.gap_certificates)
        assert all(d <= pathfollow.DELTA_STAR for _, d in ends)
        assert [b for b, _ in ends] == sorted({b for b, _ in ends})
        last = pathfollow.schedule_end(config, report.barrier_param_r)
        assert ends[-1][0] == report.beta_final == config.beta0 * (1.0 + config.theta) ** last
        assert report.outer_iters == 1 + report.predictions_accepted + report.predictions_rejected

    def test_rejected_prediction_starts_at_the_lower_value(self, monkeypatch):
        # after a rejection the corrector at the predicted beta' starts from
        # whichever of the predicted and the centered point has the lower
        # F_beta'; both choices occur over these runs. At beta' the predicted
        # point is nearly always the lower: of the predictor cases' rejections
        # none keeps the centered point, and one of type1 seed 3's does
        chosen = []
        for kind, dims, seed in PREDICTOR_CASES + [("type1", {"n": 4, "m": 2, "N": 4}, 3)]:
            problem = probio.generate_random(kind, dims, seed=seed)
            events = traced_predictions(monkeypatch)
            solve(problem)
            monkeypatch.undo()
            ev = FBetaEvaluator(problem)
            for centered, predicted, beta, accepted, after in events:
                if accepted:
                    assert after is predicted
                    continue
                assert predicted is not None  # every prediction here was in the domain
                values = [ev.value(EvalPoint(p.x), beta) for p in (centered, predicted)]
                lower = predicted if values[1] < values[0] else centered
                assert after is lower
                chosen.append(lower is predicted)
        assert any(chosen) and not all(chosen)

    @pytest.mark.parametrize("kind, dims, seed", PREDICTOR_CASES,
                             ids=[c[0] for c in PREDICTOR_CASES])
    def test_no_newton_system_is_solved_twice(self, kind, dims, seed, monkeypatch):
        # each point holds the system solved there, so a gate check after an
        # accepted prediction, or at a rejected one's point, reads it again;
        # the kept bases stay alive, so their ids are not reused
        problem = probio.generate_random(kind, dims, seed=seed)
        real = pathfollow.newton_step_type1
        calls = []

        def counted(bundle, constraints):
            calls.append((bundle.basis, np.array(bundle.gradient)))
            return real(bundle, constraints)

        monkeypatch.setattr(pathfollow, "newton_step_type1", counted)
        report = solve(problem)
        assert report.termination == "Converged"
        assert report.predictions_accepted and report.predictions_rejected
        for i, (basis, gradient) in enumerate(calls):
            assert not any(b is basis and np.array_equal(g, gradient)
                           for b, g in calls[:i])

    def test_prediction_outside_the_domain_is_rejected_in_place(self, monkeypatch):
        # a tangent pushed far past the boundary: the prediction is
        # rejected, and the corrector starts from the centered point
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        real_solve = NewtonStep.solve
        monkeypatch.setattr(NewtonStep, "solve",
                            lambda step, g: tuple(v * 1e6 for v in real_solve(step, g)))
        events = traced_predictions(monkeypatch)
        report = solve(problem)
        assert report.termination == "Converged"
        assert report.predictions_accepted == 0
        assert report.predictions_rejected == len(events) == report.outer_iters - 1
        assert all(after is centered for centered, _, _, _, after in events)


def schedule_exponent(config, beta):
    """The i of beta = beta0 (1 + theta)^i."""
    return round(math.log(beta / config.beta0) / math.log1p(config.theta))


class TestLongStepCorrector:
    @pytest.mark.parametrize("kind, dims, seed", PREDICTOR_CASES,
                             ids=[c[0] for c in PREDICTOR_CASES])
    def test_every_corrector_runs_at_the_predicted_beta(self, kind, dims, seed, monkeypatch):
        # accepted or not, the centering after a prediction is at its beta'
        events = traced_predictions(monkeypatch)
        report = solve(probio.generate_random(kind, dims, seed=seed))
        assert report.termination == "Converged"
        assert report.predictions_rejected
        betas = list(dict.fromkeys(b for b, _ in report.decrement_trace))
        assert betas[1:] == [beta_pred for _, _, beta_pred, _, _ in events]
        # a rejected prediction's corrector starts from a point off the gate
        # at beta' and takes steps there
        for k, (_, _, beta_pred, accepted, _) in enumerate(events):
            if not accepted:
                assert report.inner_iters_per_outer[k + 1] > 0
                first = next(d for b, d in report.decrement_trace if b == beta_pred)
                assert first > pathfollow.DELTA_STAR

    @pytest.mark.parametrize("kind, dims, seed", PREDICTOR_CASES,
                             ids=[c[0] for c in PREDICTOR_CASES])
    def test_one_cap_per_centering_at_its_ratio(self, kind, dims, seed):
        config = SolverConfig()
        report = solve(probio.generate_random(kind, dims, seed=seed), config=config)
        bc, r = report.bound_check, report.barrier_param_r
        assert report.termination == "Converged" and bc["within_caps"]
        assert len(bc["centering_caps"]) == report.outer_iters
        assert all(steps <= cap for steps, cap in zip(report.inner_iters_per_outer,
                                                      bc["centering_caps"]))
        betas = list(dict.fromkeys(b for b, _ in report.decrement_trace))
        exponents = [schedule_exponent(config, b) for b in betas]
        advances = [1] + [b - a for a, b in zip(exponents, exponents[1:])]
        for advance, cap in zip(advances, bc["centering_caps"]):
            if advance == 1:
                assert cap == bc["per_outer_cap"]
            else:
                wide = dataclasses.replace(config, theta=2.0**advance - 1.0)
                assert cap == iteration_bound(wide, r)[0] > bc["per_outer_cap"]

    def test_run_total_is_the_sum_of_its_centering_caps(self):
        # qkd n=4 seed 3: one long corrector's own cap exceeds the plain
        # schedule's total, so only the sum of the caps bounds this run
        report = solve(probio.generate_random("qkd", {"n": 4}, seed=3))
        bc = report.bound_check
        assert report.termination == "Converged" and bc["within_caps"]
        assert bc["centering_caps_total"] == sum(bc["centering_caps"])
        assert max(bc["centering_caps"]) > bc["total_cap"]
        assert report.total_newton <= min(bc["total_cap"], bc["centering_caps_total"])

    @pytest.mark.parametrize("kind, dims, seed", PREDICTOR_CASES,
                             ids=[c[0] for c in PREDICTOR_CASES])
    def test_span_resets_after_a_rejection_and_doubles_after_an_acceptance(
            self, kind, dims, seed, monkeypatch):
        config = SolverConfig()
        events = traced_predictions(monkeypatch)
        report = solve(probio.generate_random(kind, dims, seed=seed), config=config)
        last = pathfollow.schedule_end(config, report.barrier_param_r)
        exponents = [0] + [schedule_exponent(config, e[2]) for e in events]
        spans = [b - a for a, b in zip(exponents, exponents[1:])]
        assert spans[0] == 1
        for (_, _, _, accepted, _), span, nxt, ahead in zip(events, spans, spans[1:],
                                                             exponents[2:]):
            expected = 2 * span if accepted else 1
            assert nxt == expected or (nxt < expected and ahead == last)
        assert any(not e[3] for e in events[:-1])

    def test_wide_centering_gets_the_larger_step_limit(self, monkeypatch):
        # the step limit handed to each centering is the floor of its cap,
        # the per-outer cap at theta' = (1 + theta)^span - 1
        config = SolverConfig(theta=0.5)
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        r = probio.barrier_parameter(problem)
        real = pathfollow.center
        limits = []

        def recorded(run, beta, evaluator, max_steps, **kwargs):
            limits.append((beta, max_steps))
            return real(run, beta, evaluator, max_steps, **kwargs)

        monkeypatch.setattr(pathfollow, "center", recorded)
        report = solve(problem, config=config)
        assert report.termination == "Converged"
        per_outer = iteration_bound(config, r)[0]
        exponents = [schedule_exponent(config, b) for b, _ in limits]
        advances = [1] + [b - a for a, b in zip(exponents, exponents[1:])]
        assert max(advances) > 1
        for advance, (_, limit), cap in zip(advances, limits,
                                            report.bound_check["centering_caps"]):
            wide = dataclasses.replace(config, theta=1.5**advance - 1.0)
            expected = per_outer if advance == 1 else iteration_bound(wide, r)[0]
            assert cap == expected and limit == math.floor(expected)
            assert advance == 1 or limit > math.floor(per_outer)

    @pytest.mark.parametrize("kind, dims, seed", [
        ("qkd", {"n": 3, "m": 1}, 0),
        ("type1", {"n": 4, "m": 2, "N": 4}, 0),
        ("type2", {"n": 4, "m": 1}, 4),
    ], ids=["qkd", "type1", "type2"])
    def test_report_counts_the_work_where_it_happens(self, kind, dims, seed, monkeypatch):
        # -ln det X is a term of every case, so its evaluations count F_beta's
        problem = probio.generate_random(kind, dims, seed=seed)
        real_barrier, real_kkt = objectives.barrier_eval, pathfollow.newton_step_type1
        real_search = pathfollow.line_search
        barrier, kkt, searches = [], [], []

        def counted_barrier(point, want_hessian=True, constraints=None):
            barrier.append(want_hessian)
            return real_barrier(point, want_hessian, constraints)

        def counted_kkt(bundle, constraints):
            kkt.append(None)
            return real_kkt(bundle, constraints)

        def counted_search(*args):
            out = real_search(*args)
            searches.append(None)
            return out

        monkeypatch.setattr(objectives, "barrier_eval", counted_barrier)
        monkeypatch.setattr(pathfollow, "newton_step_type1", counted_kkt)
        monkeypatch.setattr(pathfollow, "line_search", counted_search)
        report = solve(problem)
        assert report.termination == "Converged"
        assert report.hessian_evals == sum(barrier) > 0
        assert report.value_evals == len(barrier) - sum(barrier)
        assert report.kkt_solves == len(kkt) >= report.hessian_evals
        # every trial but the accepted one of each search is a backtrack
        assert report.backtracks == report.value_evals - len(searches)
        if kind == "type1":
            assert searches
        if kind == "type2":
            assert report.backtracks  # one line search of this run backtracks


class TestIterationBound:
    def test_theta_to_zero_limit(self):
        config = SolverConfig(theta=1e-12, epsilon=1e-6)
        per_outer, _ = iteration_bound(config, r=4.0)
        assert per_outer == pytest.approx(22.0 / 3.0, abs=1e-6)

    def test_arithmetic_cross_check(self):
        config = SolverConfig(beta0=1.0, theta=1.0, epsilon=1e-6)
        per_outer, total = iteration_bound(config, r=4.0)
        # independent evaluation of the same closed forms
        kp, th, r = 2.0, 1.0, 4.0
        expected_per = 22.0 / 3.0 + 22.0 * th * (2.5 * kp * math.sqrt(r)
                                                 + th * kp**2 * r / (th + 1.0))
        expected_total = (math.log(4.0 * r / 1e-6) / math.log(2.0)) * expected_per
        assert per_outer == pytest.approx(expected_per, rel=1e-12)
        assert total == pytest.approx(expected_total, rel=1e-12)


class TestSolve:
    def test_trace_inverse_analytic_optimum(self):
        problem = probio.build_named("trace-inverse-n2")
        report = solve(problem)
        assert report.termination == "Converged"
        assert report.f_min == pytest.approx(4.0, rel=1e-5)
        assert report.total_newton == sum(report.inner_iters_per_outer)

    def test_qkd_toy_zero_objective(self):
        report = solve(probio.build_named("qkd-toy"))
        assert abs(report.f_min) <= 1e-7
        assert report.total_newton <= 20

    def test_ree_klein_optimum(self):
        problem = probio.build_named("ree-2x2")
        report = solve(problem)
        assert abs(report.f_min) <= 1e-6
        assert np.linalg.norm(report.X_star - problem.terms[0].C) <= 1e-3

    def test_beta_schedule_exact(self):
        # predictions skip betas of the schedule, but every beta is one of
        # them, exact to machine precision, from beta0 to the last
        problem = probio.generate_random("type1", {"n": 3, "m": 1, "N": 2}, seed=2)
        config = SolverConfig(theta=0.7, beta0=0.9)
        report = solve(problem, config=config)
        last = pathfollow.schedule_end(config, report.barrier_param_r)
        grid = [0.9 * (1.0 + 0.7) ** i for i in range(last + 1)]
        betas = [b for b, _ in report.decrement_trace]
        assert betas == sorted(betas)
        assert set(betas) <= set(grid)
        assert betas[0] == grid[0] and betas[-1] == report.beta_final == grid[-1]
        assert len(set(betas)) == report.outer_iters < len(grid)

    def test_monotone_feasibility_and_descent(self):
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        records = []
        report = solve(problem, callback=records.append)
        assert records, "expected at least one Newton step"
        for rec in records:
            assert rec["feas_residual"] <= 1e-8
        assert report.f_min <= report.f_start + 1e-9 * (1 + abs(report.f_start))
        assert np.linalg.eigvalsh(report.X_star).min() > 0.0

    def test_decrement_gate_at_every_handoff(self):
        problem = probio.generate_random("type2", {"n": 4, "m": 1}, seed=4)
        config = SolverConfig()
        report = solve(problem, config=config)
        gate = pathfollow.DELTA_STAR + 1e-10
        # last decrement recorded for each beta value is the handoff
        last = {}
        for b, d in report.decrement_trace:
            last[b] = d
        assert all(d <= gate for d in last.values())

    def test_gap_certificate_below_epsilon_on_converged(self):
        problem = probio.build_named("ree-2x2")
        config = SolverConfig()
        report = solve(problem, config=config)
        assert report.termination == "Converged"
        assert report.beta_final >= 4.0 * report.barrier_param_r / config.epsilon
        assert report.gap_certificates[-1] <= config.epsilon

    def test_bounds_hold_on_converged_runs(self):
        for seed in (0, 1):
            problem = probio.generate_random("qkd", {"n": 4, "m": 2}, seed=seed)
            report = solve(problem)
            assert report.termination == "Converged"
            assert report.bound_check["within_caps"]

    def test_infeasible_start_rejected(self):
        problem = probio.build_named("trace-inverse-n2")
        problem.start = np.diag([2.0, 2.0])  # violates Tr X = 1
        with pytest.raises(InfeasibleStart):
            solve(problem)

    def test_deterministic_report(self):
        problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=8)
        r1 = solve(problem)
        r2 = solve(problem)
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("wall_time"), d2.pop("wall_time")
        assert d1 == d2

    def test_no_barrier_heuristic_flagged(self):
        problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=0)
        with_barrier = solve(problem)
        report = solve(problem, include_barrier=False)
        assert report.heuristic_no_barrier
        assert not with_barrier.heuristic_no_barrier
        assert report.f_min == pytest.approx(with_barrier.f_min, abs=1e-6)

    def test_no_barrier_steps_are_descent_directions(self, monkeypatch):
        # without the barrier the QRE Hessian is singular along svec(X);
        # every step the solve takes must still decrease F_beta to first
        # order. Without the barrier every step is line-searched, from the
        # iterate the search receives
        starts = []
        real_search = pathfollow.line_search

        def recording(point, step, beta, evaluator):
            starts.append((evaluator.problem, point.x, beta))
            return real_search(point, step, beta, evaluator)

        monkeypatch.setattr(pathfollow, "line_search", recording)
        for seed in (0, 1):
            solve(probio.generate_random("qkd", {"n": 3, "m": 1}, seed=seed),
                  include_barrier=False)
        assert len(starts) >= 5
        for problem, x, beta in starts:
            ev = FBetaEvaluator(problem, include_barrier=False)
            bundle = ev.x_bundle(EvalPoint(x), beta)
            step = newton_step_type1(bundle, problem.constraints)
            grad = fixed_coordinates(bundle).gradient
            assert grad @ (sym_isometry(3).T @ vec(step.direction_X)) < 0.0
            assert step.decrement_innerprod == pytest.approx(step.decrement, rel=1e-6)

    # QKD instances whose full-space Hessian solve used to end in
    # SingularKKT or LineSearchFailure at beta ~ 1e9 (homogeneous null
    # direction of the relative entropy)
    @pytest.mark.parametrize("n, m, seed", [
        (3, 1, 6), (3, 1, 66), (3, 1, 102), (3, 1, 29005),
        (4, 2, 11), (4, 2, 19), (4, 2, 26),
    ])
    def test_qkd_null_direction_instances_converge(self, n, m, seed):
        report = solve(probio.generate_random("qkd", {"n": n, "m": m}, seed=seed))
        assert report.termination == "Converged"
        assert report.bound_check["within_caps"]

    def test_non_descent_step_fails_fast(self, monkeypatch):
        # an ascent direction must be named before any line-search backtrack
        problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=0)
        real_step = pathfollow.newton_step_type1

        def flipped(bundle, cons):
            step = real_step(bundle, cons)
            step.direction_X = -step.direction_X
            return step

        monkeypatch.setattr(pathfollow, "newton_step_type1", flipped)
        monkeypatch.setattr(pathfollow, "line_search",
                            lambda *a, **k: pytest.fail("line search ran"))
        with pytest.raises(SingularKKT, match=r"not a descent direction.*phase: outer 0"):
            solve(problem)

    def test_failure_report_carries_the_failing_iterate(self, monkeypatch):
        # fail the first line search past the initial centering: the
        # iterate is then not centered at its beta, and the report must
        # hold it, here a rejected prediction's point, rather than the last
        # centered point or the last step's
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        config = SolverConfig()
        records, failed = [], []
        real_search = pathfollow.line_search

        def failing(point, step, beta, evaluator):
            if beta > config.beta0:
                failed.append((point.x, beta))
                raise LineSearchFailure("forced failure")
            return real_search(point, step, beta, evaluator)

        monkeypatch.setattr(pathfollow, "line_search", failing)
        with pytest.raises(LineSearchFailure, match="phase: outer") as caught:
            solve(problem, config=config, callback=records.append)
        report = caught.value.report
        x, beta = failed[0]
        assert report.termination == "NumericalFailure"
        assert report.beta_final == beta > config.beta0
        assert report.predictions_rejected >= 1
        assert not np.array_equal(x, records[-1]["x"])
        assert np.array_equal(report.X_star, x)
        assert report.f_min == problem.objective_at(EvalPoint(x))
        assert report.total_newton == len(records)

    def test_every_centering_failure_carries_a_report(self, monkeypatch):
        # a failed decomposition mid-solve is a QipError like any other:
        # it re-raises with the phase and a NumericalFailure report
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=3)
        calls = []
        real = objectives.spectral_decompose
        total = count_decompositions(monkeypatch, problem)

        def failing(y):
            calls.append(None)
            if len(calls) == 2 * total // 3:
                raise DecompositionFailure("forced failure")
            return real(y)

        monkeypatch.setattr(objectives, "spectral_decompose", failing)
        with pytest.raises(DecompositionFailure, match="phase: outer") as caught:
            solve(problem)
        assert caught.value.phase.startswith("outer ")
        report = caught.value.report
        assert report.termination == "NumericalFailure"
        assert report.total_newton > 0

    def test_failed_callback_record_leaves_the_step_uncounted(self, monkeypatch):
        # the callback record evaluates f at the new iterate; a failure
        # there must not count a step that the callback never received.
        # The report holds the last iterate: a step's, or one a
        # prediction moved to
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=3)
        real = objectives.spectral_decompose
        real_predict = pathfollow.predict
        total = count_decompositions(monkeypatch, problem)
        for fail_at in range(total // 2, total):
            calls, records, iterates = [], [], [problem.start]

            def recorded(rec):
                records.append(rec)
                iterates.append(rec["x"])

            def predict(run, *args):
                accepted = real_predict(run, *args)
                iterates.append(run.point.x)
                return accepted

            def failing(y):
                calls.append(None)
                if len(calls) == fail_at:
                    raise DecompositionFailure("forced failure")
                return real(y)

            monkeypatch.setattr(objectives, "spectral_decompose", failing)
            monkeypatch.setattr(pathfollow, "predict", predict)
            with pytest.raises(DecompositionFailure) as caught:
                solve(problem, callback=recorded)
            report = caught.value.report
            assert report.total_newton == len(records), fail_at
            assert np.array_equal(report.X_star, iterates[-1]), fail_at

    def test_iteration_cap_report_carries_the_failing_iterate(self, monkeypatch):
        cap_centerings(monkeypatch, 1.5)
        problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=0)
        records = []
        report = solve(problem, callback=records.append)
        assert report.termination == "IterCap"
        assert np.array_equal(report.X_star, records[-1]["x"])
        assert report.bound_check["per_outer_cap"] == 1.5

    def test_iteration_cap_report_counts_the_failed_centering(self, monkeypatch):
        # the initial centering reaches the per-outer cap after three
        # steps: the report counts them, as the callback saw them
        cap_centerings(monkeypatch, 3.0)
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        records = []
        report = solve(problem, callback=records.append)
        assert report.termination == "IterCap"
        assert report.total_newton == 3 == len(records)
        assert report.inner_iters_per_outer == [3]
        assert len(report.decrement_trace) == 3

    def test_iteration_cap_report_keeps_the_failed_centering_schur_conditions(
            self, monkeypatch):
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        conditions = []
        real = pathfollow.newton_step_type1

        def recorded(bundle, cons):
            step = real(bundle, cons)
            conditions.append(step.schur_condition)
            return step

        monkeypatch.setattr(pathfollow, "newton_step_type1", recorded)
        cap_centerings(monkeypatch, 3.0)
        report = solve(problem)
        assert report.termination == "IterCap"
        assert len(conditions) == 3
        assert max(conditions) > 1.0
        assert report.schur_condition_max == max(conditions)

    def test_small_theta_runs_the_whole_schedule(self):
        # theta = 0.1 gives a schedule of 224 betas at r = 4. Predictions
        # square their ratio while they land, so the run centers at far
        # fewer of them; it still ends at the schedule's last beta, within
        # the caps
        config = SolverConfig(theta=0.1)
        problem = probio.generate_random("type1", {"n": 3}, seed=2)
        r = probio.barrier_parameter(problem)
        last = pathfollow.schedule_end(config, r)
        assert last + 1 == math.ceil(math.log(4.0 * r / (config.epsilon * config.beta0))
                                     / math.log1p(config.theta)) + 1 == 224
        report = solve(problem, config=config)
        assert report.termination == "Converged"
        assert report.bound_check["within_caps"]
        assert report.beta_final == config.beta0 * (1.0 + config.theta) ** last
        assert report.outer_iters == 1 + report.predictions_accepted + report.predictions_rejected
        assert report.outer_iters < 224 // 10

    @pytest.mark.parametrize("theta", [0.0, 1e-17, math.nan])
    def test_theta_must_grow_beta(self, theta):
        with pytest.raises(ValueError, match="1 \\+ theta > 1"):
            SolverConfig(theta=theta)

    @pytest.mark.parametrize("name, value", [
        ("beta0", math.nan), ("beta0", math.inf), ("theta", math.inf),
        ("epsilon", math.nan), ("epsilon", math.inf),
    ])
    def test_parameters_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SolverConfig(**{name: value})

    def test_no_barrier_rejected_on_trace_objectives(self, monkeypatch):
        monkeypatch.setattr(pathfollow, "center", lambda *a, **k: pytest.fail("solve ran"))
        for name in ("trace-inverse-n4", "ree-2x2"):
            with pytest.raises(ValueError, match="only supported on qkd"):
                solve(probio.build_named(name), include_barrier=False)

    def test_no_barrier_rejected_with_inequality_rows(self, monkeypatch):
        # validation keeps inequality rows out of qkd files, but a problem
        # built in code reaches solve, whose X barrier holds their logs
        monkeypatch.setattr(pathfollow, "center", lambda *a, **k: pytest.fail("solve ran"))
        qkd = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=0)
        cons = qkd.constraints
        rows = AffineConstraints([2.0 * np.eye(3), *cons.mats], [3.0, *cons.rhs], n_ineq=1)
        problem = probio.ProblemSpec(constraints=rows, terms=qkd.terms, start=qkd.start)
        with pytest.raises(ValueError, match="equality rows only"):
            solve(problem, include_barrier=False)

    def test_gap_bound_formula(self):
        # printed proximity bound at delta = 0 collapses to 0
        assert proximity_gap_bound(0.0, 10.0, 4.0, 2.0) == 0.0
        assert proximity_gap_bound(1.0 / 6.0, 1e9, 4.0, 2.0) < 1e-8


# (kind, dims, barrier parameter n+m / n+k / n, reference optimizer admitted)
MODEL_CASES = {
    "type1": ("type1", {"n": 3, "m": 1, "N": 2}, 4.0, False),  # inequality row
    "type2": ("type2", {"n": 4, "m": 1}, 8.0, True),
    "qkd": ("qkd", {"n": 3, "m": 1}, 3.0, True),
}


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_structure_comes_from_the_data(case, rng):
    kind, dims, r, reference = MODEL_CASES[case]
    problem = probio.generate_random(kind, dims, seed=1)
    assert probio.barrier_parameter(problem) == r

    # objective terms, then the X barrier with the problem's rows, then
    # -ln det L(X) for type2 only
    ev = FBetaEvaluator(problem)
    barriers = [LogDetBarrier(None, problem.constraints)]
    if kind == "type2":
        barriers.append(LogDetBarrier(problem.constraint_map))
    assert ev.n_scaled == len(problem.terms)
    assert all(a is b for a, b in zip(ev.terms, problem.terms))
    assert ev.terms[ev.n_scaled:] == tuple(barriers)

    x = probio.random_feasible_point(problem, rng)
    values = [t.evaluate(EvalPoint(x), want_hessian=False).value for t in problem.terms]
    assert problem.objective_at(EvalPoint(x)) == sum(values) + problem.offset

    assert all(res.passed for res in derivative_audit(problem, rng, points=2))
    report = solve(problem)
    assert report.termination == "Converged"
    assert report.barrier_param_r == r
    if reference:
        f_ref, _ = reference_minimize(problem)
        assert abs(f_ref - report.f_min) <= 1e-4 * (1 + abs(f_ref))


def package_namespaces():
    """Every module namespace of the package and every class namespace in one, copied."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qipsolve" or name.startswith("qipsolve.")):
            continue
        out[name] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("qipsolve"):
                out[f"{value.__module__}.{value.__qualname__}"] = dict(vars(value))
    return out


def solve_namespaces(problems):
    """``package_namespaces()`` with vars() of each problem, its constraints,
    each term and each map, copied and keyed by (case, name)."""
    out = package_namespaces()
    for case, problem in problems.items():
        objects = {"ProblemSpec": problem, "AffineConstraints": problem.constraints,
                   "constraint_map": problem.constraint_map}
        for i, term in enumerate(problem.terms):
            objects[f"terms[{i}]"] = term
            for attr in ("map", "l1", "l2"):
                objects[f"terms[{i}].{attr}"] = getattr(term, attr, None)
        out.update({(case, name): dict(vars(obj))
                    for name, obj in objects.items() if obj is not None})
    return out


def test_a_solve_changes_no_package_namespace():
    # the iterate is its EvalPoint: no module or class of the package, and
    # nothing of the problem solved, keeps state from a solve. Values
    # compare by identity, so that no array is compared with ==
    problems = {case: probio.generate_random(kind, dims, seed=1)
                for case, (kind, dims, _, _) in MODEL_CASES.items()}
    before = solve_namespaces(problems)
    for problem in problems.values():
        assert solve(problem).termination == "Converged"
    after = solve_namespaces(problems)
    assert after.keys() == before.keys()
    missing = object()
    for name, names in before.items():
        changed = sorted(key for key in names.keys() | after[name].keys()
                         if names.get(key, missing) is not after[name].get(key, missing))
        assert not changed, (name, changed)


# one instance of each dataclass that holds numpy arrays
EQ_CASES = {
    "AffineConstraints": lambda: AffineConstraints([np.eye(2)], [1.0]),
    "NewtonStep": lambda: fake_step(np.zeros((2, 2))),
    "PairTable": lambda: pair_table(np.ones(2)),
    "DerivativeBundle": lambda: DerivativeBundle(1.0, np.ones(3), np.eye(3), np.eye(2)),
    "SolveReport": lambda: solve(probio.build_named("trace-inverse-n2")),
    "SpectralDecomp": lambda: spectral_decompose(np.eye(2)),
    "_Run": lambda: _Run(EvalPoint(np.eye(2) / 2), steps=[0]),
}


@pytest.mark.parametrize("name", sorted(EQ_CASES))
def test_array_dataclasses_compare_by_identity(name):
    # generated field-wise equality would take the truth value of an array
    a = EQ_CASES[name]()
    assert a == a
    assert a != copy.deepcopy(a)

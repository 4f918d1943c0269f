import math

import numpy as np
import pytest

from qipsolve import pathfollow, probio, qre
from qipsolve.errors import InfeasibleStart, LineSearchFailure, SingularKKT
from qipsolve.kkt import NewtonStep
from qipsolve.matfun import symmetrize, vec
from qipsolve.objectives import LogDetBarrier
from qipsolve.oracle import derivative_audit, reference_minimize
from qipsolve.pathfollow import (
    FBetaEvaluator,
    SolverConfig,
    _State,
    center,
    iteration_bound,
    line_search,
    max_feasible_step,
    proximity_gap_bound,
    solve,
)


def fake_step(direction, slack=None):
    return NewtonStep(
        direction_X=direction,
        direction_slack=np.zeros(0) if slack is None else slack,
        multipliers=np.zeros(1),
        decrement=1.0,
        decrement_innerprod=1.0,
        schur_condition=1.0,
        tangency_residual=0.0,
    )


def type1_point(rng):
    """Evaluator and a random strictly feasible state of a small type1 instance."""
    problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=3)
    x = probio.random_feasible_point(problem, rng)
    cons = problem.constraints
    slacks = cons.rhs[:2] - np.array([np.tensordot(a, x) for a in cons.mats[:2]])
    return FBetaEvaluator(problem), _State(x, slacks)


class TestMaxFeasibleStep:
    def test_scaling_direction_hits_boundary_at_one(self, rng):
        problem = probio.build_named("trace-inverse-n4")
        ev = FBetaEvaluator(problem)
        g = rng.standard_normal((4, 4))
        x = symmetrize(g @ g.T + 0.3 * np.eye(4))
        a = max_feasible_step(_State(x, np.zeros(0)), fake_step(-x), ev)
        assert a == pytest.approx(1.0, rel=1e-10)

    def test_psd_direction_is_unbounded(self, rng):
        problem = probio.build_named("trace-inverse-n4")
        ev = FBetaEvaluator(problem)
        g = rng.standard_normal((4, 4))
        x = symmetrize(g @ g.T + 0.3 * np.eye(4))
        p = symmetrize(g @ g.T)  # PSD step
        assert max_feasible_step(_State(x, np.zeros(0)), fake_step(p), ev) == math.inf

    def test_slack_boundary(self, rng):
        problem = probio.generate_random("type1", {"n": 3, "m": 2, "N": 3}, seed=5)
        ev = FBetaEvaluator(problem)
        state = _State(np.eye(3) * 10, np.array([0.5, 2.0]))
        step = fake_step(np.zeros((3, 3)), slack=np.array([-1.0, -1.0]))
        assert max_feasible_step(state, step, ev) == pytest.approx(0.5)


class TestLineSearch:
    def test_strict_decrease_on_newton_step(self, rng):
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=3)
        ev = FBetaEvaluator(problem)
        x = probio.random_feasible_point(problem, rng)
        cons = problem.constraints
        slacks = cons.rhs[:2] - np.array([np.tensordot(a, x) for a in cons.mats[:2]])
        state = _State(x, slacks)
        beta = 2.0
        bundle = ev.x_bundle(x, beta)
        step = ev.newton_step(bundle, state)
        alpha = line_search(state, step, beta, ev)
        assert 0.0 < alpha <= 1.0
        f0 = ev.value(state.x, state.slacks, beta)
        f1 = ev.value(symmetrize(x + alpha * step.direction_X),
                      slacks + alpha * step.direction_slack, beta)
        assert f1 < f0

    def test_noisy_values_fall_back_to_the_slope(self, rng, monkeypatch):
        # values that never show a decrease (standing in for rounding noise
        # at large beta): the largest trial step along which F_beta still
        # descends is taken, and it really lowers F_beta
        ev, state = type1_point(rng)
        beta = 2.0
        step = ev.newton_step(ev.x_bundle(state.x, beta), state)
        f0 = ev.value(state.x, state.slacks, beta)
        true_value_and_slope = ev.value_and_slope
        slopes = []

        def noisy(x, slacks, b, st):
            value, slope = true_value_and_slope(x, slacks, b, st)
            slopes.append(slope)
            return max(value, f0), slope

        monkeypatch.setattr(ev, "value_and_slope", noisy)
        alpha = line_search(state, step, beta, ev)
        assert len(slopes) == pathfollow.LS_MAX_BACKTRACKS
        first = next(i for i, slope in enumerate(slopes) if slope < 0.0)
        alpha0 = min(1.0, pathfollow.LS_BOUNDARY_FRACTION * max_feasible_step(state, step, ev))
        assert alpha == alpha0 * pathfollow.LS_SHRINK**first
        f1 = ev.value(symmetrize(state.x + alpha * step.direction_X),
                      state.slacks + alpha * step.direction_slack, beta)
        assert f1 < f0

        # an ascent direction has no descending trial step to fall back to
        step.direction_X = -step.direction_X
        step.direction_slack = -step.direction_slack
        with pytest.raises(LineSearchFailure):
            line_search(state, step, beta, ev)


class TestCenter:
    def test_already_centered_takes_zero_steps(self):
        problem = probio.build_named("trace-inverse-n4")
        ev = FBetaEvaluator(problem)
        state = _State(np.eye(4) / 4, np.zeros(0))
        state, steps, records, _ = center(state, 1.0, ev, SolverConfig())
        assert steps == 0
        assert len(records) == 1

    def test_quadratic_contraction_on_logged_trace(self, rng):
        # center well past the gate (but above the float floor) and look
        # at consecutive decrements
        problem = probio.generate_random("type1", {"n": 4, "m": 0, "N": 2}, seed=9)
        ev = FBetaEvaluator(problem)
        pairs = []
        for point_seed in range(6):
            prng = np.random.default_rng(point_seed)
            x = probio.random_feasible_point(problem, prng, scale=0.5)
            state = _State(x, np.zeros(0))
            _, _, records, _ = center(state, 4.0, ev, SolverConfig(), target=1e-7)
            deltas = [d for _, d in records]
            pairs.extend(zip(deltas, deltas[1:]))
        in_regime = [(a, b) for a, b in pairs if a <= 1.0 / 6.0]
        assert len(in_regime) >= 5
        good = sum(1 for a, b in in_regime if b <= 8.0 * a * a)
        assert good / len(in_regime) >= 0.95


# (kind, dims, include_barrier): QKD with and without -ln det X, type1
# with slacks, and type2 with two barriers (on X and on L(X))
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

    def counted(x, beta, want_hessian=True):
        if want_hessian:
            fresh.append(np.array(x))
        return real(x, beta, want_hessian)

    monkeypatch.setattr(ev, "x_bundle", counted)
    return fresh


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
        ev.hessian_bundle(x, 3.0)
        recombined = ev.hessian_bundle(x.copy(), 7.5)  # same X by value
        assert len(fresh) == 1
        reference = FBetaEvaluator(problem, include_barrier=include_barrier).x_bundle(x, 7.5)
        assert_bitwise_equal(recombined, reference)

    @pytest.mark.parametrize("case", ["qkd", "type2"])
    def test_value_only_evaluation_keeps_the_cache(self, case, rng, monkeypatch):
        problem, include_barrier, x = cache_case(case, rng)
        other = probio.random_feasible_point(problem, rng)
        assert not np.array_equal(other, x)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        fresh = count_fresh_hessians(monkeypatch, ev)
        ev.hessian_bundle(x, 3.0)
        ev.value(other, np.zeros(0), 5.0)
        ev.x_bundle(other, 5.0, want_hessian=False)
        recombined = ev.hessian_bundle(x, 7.5)
        assert len(fresh) == 1
        reference = FBetaEvaluator(problem, include_barrier=include_barrier).x_bundle(x, 7.5)
        assert_bitwise_equal(recombined, reference)

    def test_new_iterate_is_evaluated_afresh(self, rng, monkeypatch):
        # the cache holds its own copy of X: changing the caller's array in
        # place makes it a new iterate
        problem, include_barrier, x = cache_case("type2", rng)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        fresh = count_fresh_hessians(monkeypatch, ev)
        ev.hessian_bundle(x, 3.0)
        x[:] = probio.random_feasible_point(problem, rng)
        bundle = ev.hessian_bundle(x, 3.0)
        assert len(fresh) == 2
        assert np.array_equal(fresh[1], x)
        reference = FBetaEvaluator(problem, include_barrier=include_barrier).x_bundle(x, 3.0)
        assert_bitwise_equal(bundle, reference)

    def test_one_fresh_hessian_per_newton_step_plus_one(self, monkeypatch):
        # each centering starts at the iterate where the previous one
        # evaluated its gate, so only the start and each step cost a
        # relative-entropy Hessian
        problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=0)
        real = qre.qre_eval
        hessians = []

        def counted(obj, x, want_hessian=True):
            hessians.append(want_hessian)
            return real(obj, x, want_hessian=want_hessian)

        monkeypatch.setattr(qre, "qre_eval", counted)
        report = solve(problem)
        assert report.termination == "Converged"
        assert report.outer_iters > 1
        assert sum(hessians) == report.total_newton + 1


class TestIterationBound:
    def test_theta_to_zero_limit(self):
        config = SolverConfig(theta=1e-12, epsilon=1e-6)
        per_outer, _ = iteration_bound(config, r=4.0)
        assert per_outer == pytest.approx(22.0 / 3.0, abs=1e-6)

    def test_arithmetic_cross_check(self):
        config = SolverConfig(beta0=1.0, theta=1.0, epsilon=1e-6, kappa=2.0)
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
        problem = probio.generate_random("type1", {"n": 3, "m": 1, "N": 2}, seed=2)
        config = SolverConfig(theta=0.7, beta0=0.9)
        report = solve(problem, config=config)
        betas = sorted({b for b, _ in report.decrement_trace})
        for i, b in enumerate(betas):
            assert b == 0.9 * (1.0 + 0.7) ** i  # exact, machine precision

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
        gate = config.delta_star + 1e-10
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
        with pytest.raises(InfeasibleStart):
            solve(problem, start=np.diag([2.0, 2.0]))  # violates Tr X = 1

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

    def test_no_barrier_steps_are_descent_directions(self):
        # without the barrier the QRE Hessian is singular along vec(X);
        # every step the solve takes must still decrease F_beta to first order
        problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=0)
        records = []
        solve(problem, include_barrier=False, callback=records.append)
        ev = FBetaEvaluator(problem, include_barrier=False)
        starts = [problem.start] + [rec["x"] for rec in records[:-1]]
        assert len(starts) >= 5
        for x, rec in zip(starts, records):
            bundle = ev.x_bundle(x, rec["beta"])
            step = ev.newton_step(bundle, _State(x, np.zeros(0)))
            assert bundle.gradient @ vec(step.direction_X) < 0.0
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
        real_step = FBetaEvaluator.newton_step

        def flipped(self, bundle, state):
            step = real_step(self, bundle, state)
            step.direction_X = -step.direction_X
            return step

        monkeypatch.setattr(FBetaEvaluator, "newton_step", flipped)
        monkeypatch.setattr(pathfollow, "line_search",
                            lambda *a, **k: pytest.fail("line search ran"))
        with pytest.raises(SingularKKT, match=r"not a descent direction.*phase: outer 0"):
            solve(problem)

    def test_failure_report_carries_the_failing_iterate(self, monkeypatch):
        # fail the first line search that follows a step at the same beta,
        # past the initial centering: the iterate is then not centered, and
        # the report must hold it rather than the last centered point
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        config = SolverConfig()
        records = []
        real_search = pathfollow.line_search

        def failing(state, step, beta, evaluator):
            if beta > config.beta0 and any(rec["beta"] == beta for rec in records):
                raise LineSearchFailure("forced failure")
            return real_search(state, step, beta, evaluator)

        monkeypatch.setattr(pathfollow, "line_search", failing)
        with pytest.raises(LineSearchFailure, match="phase: outer") as caught:
            solve(problem, config=config, callback=records.append)
        report = caught.value.report
        assert report.termination == "NumericalFailure"
        assert records[-1]["beta"] == report.beta_final > config.beta0
        assert np.array_equal(report.X_star, records[-1]["x"])
        assert report.f_min == problem.objective_value(records[-1]["x"])
        assert report.total_newton == len(records)

    def test_iteration_cap_report_carries_the_failing_iterate(self):
        problem = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=0)
        records = []
        report = solve(problem, config=SolverConfig(max_inner=1), callback=records.append)
        assert report.termination == "IterCap"
        assert np.array_equal(report.X_star, records[-1]["x"])

    def test_iteration_cap_report_counts_the_failed_centering(self):
        # the initial centering runs out of inner steps after three steps:
        # the report counts them, as the callback saw them
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        records = []
        report = solve(problem, config=SolverConfig(max_inner=3), callback=records.append)
        assert report.termination == "IterCap"
        assert report.total_newton == 3 == len(records)
        assert report.inner_iters_per_outer == [3]
        assert len(report.decrement_trace) == 3

    def test_no_barrier_rejected_on_trace_objectives(self, monkeypatch):
        monkeypatch.setattr(pathfollow, "center", lambda *a, **k: pytest.fail("solve ran"))
        for name in ("trace-inverse-n4", "ree-2x2"):
            with pytest.raises(ValueError, match="only supported on qkd"):
                solve(probio.build_named(name), include_barrier=False)

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

    # objective terms, then -ln det X, then -ln det L(X) for type2 only
    ev = FBetaEvaluator(problem)
    maps = [None, problem.constraint_map] if kind == "type2" else [None]
    assert ev.n_scaled == len(problem.terms)
    assert all(a is b for a, b in zip(ev.terms, problem.terms))
    assert ev.terms[ev.n_scaled:] == tuple(LogDetBarrier(m) for m in maps)

    x = probio.random_feasible_point(problem, rng)
    values = [t.evaluate(x, want_hessian=False).value for t in problem.terms]
    assert problem.objective_value(x) == sum(values) + problem.offset

    assert all(res.passed for res in derivative_audit(problem, rng, points=2))
    report = solve(problem)
    assert report.termination == "Converged"
    assert report.barrier_param_r == r
    if reference:
        f_ref, _ = reference_minimize(problem)
        assert abs(f_ref - report.f_min) <= 1e-4 * (1 + abs(f_ref))

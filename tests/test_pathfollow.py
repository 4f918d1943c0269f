import math

import numpy as np
import pytest

from qipsolve import objectives, pathfollow, probio
from qipsolve.errors import (
    DecompositionFailure,
    InfeasibleStart,
    LineSearchFailure,
    SingularKKT,
)
from qipsolve.kkt import NewtonStep
from qipsolve.matfun import symmetrize, vec
from qipsolve.objectives import LogDetBarrier, combine_terms, evaluate_terms
from qipsolve.oracle import derivative_audit, reference_minimize
from qipsolve.pathfollow import (
    FBetaEvaluator,
    SolverConfig,
    _refresh_slacks,
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

    def test_ascent_direction_fails(self, rng, monkeypatch):
        # a value decrease is the only acceptance rule, so an ascent
        # direction exhausts the backtrack budget. Values are clamped at
        # F_beta(x): at alpha ~ 1e-14 the rounding of real ones can show a
        # spurious decrease of about 1e-14 relative
        ev, state = type1_point(rng)
        beta = 2.0
        step = ev.newton_step(ev.x_bundle(state.x, beta), state)
        step.direction_X = -step.direction_X
        step.direction_slack = -step.direction_slack
        f0 = ev.value(state.x, state.slacks, beta)
        true_value = ev.value
        values = []

        def clamped(x, slacks, b):
            values.append(true_value(x, slacks, b))
            return max(values[-1], f0)

        monkeypatch.setattr(ev, "value", clamped)
        with pytest.raises(LineSearchFailure):
            line_search(state, step, beta, ev)
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

        def recording(state, step, beta, evaluator):
            searched.append((beta, step.decrement))
            return real_search(state, step, beta, evaluator)

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
        # at beta <= 1e4 the value noise of F_beta is far below the margin
        problem = probio.generate_random(kind, dims, seed=seed)
        steps = []
        solve(problem, callback=steps.append)
        ev = FBetaEvaluator(problem)
        m = pathfollow.SELF_CONCORDANCE_M
        checked = 0
        for start, s in zip([problem.start] + [s["x"] for s in steps], steps):
            if s["beta"] > 1e4 or not pathfollow.certified_full_step(ev, s["delta"]):
                continue
            lam = 0.5 * m * s["delta"]
            bound = (4.0 / m**2) * (lam**2 + lam + math.log1p(-lam))
            f0 = ev.value(start, pathfollow._refresh_slacks(problem, start), s["beta"])
            f1 = ev.value(s["x"], pathfollow._refresh_slacks(problem, s["x"]), s["beta"])
            assert f1 - f0 <= -bound + 1e-12 * abs(f0)
            checked += 1
        assert checked >= 3


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
    def test_kept_bundles_belong_to_the_kept_point(self, case, rng, monkeypatch):
        problem, include_barrier, x = cache_case(case, rng)
        other = probio.random_feasible_point(problem, rng)
        assert not np.array_equal(other, x)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        fresh = count_fresh_hessians(monkeypatch, ev)
        ev.hessian_bundle(x, 3.0)
        point = ev._point
        parts = point.parts
        assert np.array_equal(point.x, x) and len(parts) == len(ev.terms)
        # a value-only evaluation at the same X keeps the point and its bundles
        ev.value(x.copy(), np.zeros(0), 5.0)
        assert ev._point is point and point.parts is parts
        reference = FBetaEvaluator(problem, include_barrier=include_barrier).x_bundle(x, 7.5)
        assert_bitwise_equal(ev.hessian_bundle(x, 7.5), reference)
        assert len(fresh) == 1
        # one at another X replaces the point, and the bundles go with it
        ev.value(other, np.zeros(0), 5.0)
        assert np.array_equal(ev._point.x, other) and ev._point.parts is None
        assert_bitwise_equal(ev.hessian_bundle(x, 7.5), reference)
        assert len(fresh) == 2

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

    # the relative entropy; type1 with inequality rows (slacks, and steps
    # outside the certified band, so line-searched); type2 (map barrier)
    @pytest.mark.parametrize("kind, dims", [
        ("qkd", {"n": 3, "m": 1}),
        ("type1", {"n": 4, "m": 2, "N": 4}),
        ("type2", {"n": 4, "m": 1}),
    ], ids=["qkd", "type1", "type2"])
    def test_one_fresh_hessian_per_newton_step_plus_one(self, kind, dims, monkeypatch):
        # each centering starts at the iterate where the previous one
        # evaluated its gate, so only the start and each step cost a
        # Hessian of -ln det X, a term of every case
        problem = probio.generate_random(kind, dims, seed=0)
        real = objectives.barrier_eval
        real_search = pathfollow.line_search
        hessians, searches = [], []

        def counted(x, want_hessian=True, **kwargs):
            hessians.append(want_hessian)
            return real(x, want_hessian=want_hessian, **kwargs)

        def counted_search(*args):
            searches.append(None)
            return real_search(*args)

        monkeypatch.setattr(objectives, "barrier_eval", counted)
        monkeypatch.setattr(pathfollow, "line_search", counted_search)
        report = solve(problem)
        assert report.termination == "Converged"
        assert report.outer_iters > 1
        assert sum(hessians) == report.total_newton + 1
        assert len(hessians) > sum(hessians)  # value-only evaluations ran too
        if kind == "type1":
            assert searches


class TestSharedPoint:
    @pytest.mark.parametrize("case", sorted(CACHE_CASES))
    def test_value_is_the_combined_bundle_value(self, case, rng):
        problem, include_barrier, x = cache_case(case, rng)
        slacks = _refresh_slacks(problem, x)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        parts = evaluate_terms(ev.terms, ev.n_scaled, x)
        expected = combine_terms(3.0, parts, ev.n_scaled).value
        if slacks.size:
            expected -= float(np.sum(np.log(slacks)))
        assert ev.value(x, slacks, 3.0) == expected

    @pytest.mark.parametrize("case", ["qkd", "type1", "type2"])
    def test_accepted_trial_is_not_decomposed_again(self, case, rng, monkeypatch):
        problem, include_barrier, x = cache_case(case, rng)
        ev = FBetaEvaluator(problem, include_barrier=include_barrier)
        state = _State(x, _refresh_slacks(problem, x))
        beta = 2.0
        step = ev.newton_step(ev.hessian_bundle(x, beta), state)
        seen = []
        real = objectives.spectral_decompose

        def counted(y):
            seen.append(np.array(y))
            return real(y)

        monkeypatch.setattr(objectives, "spectral_decompose", counted)
        alpha = line_search(state, step, beta, ev)
        # F at alpha = 0 reads the Hessian evaluation's decompositions
        assert seen and not any(np.array_equal(y, x) for y in seen)
        new_x = symmetrize(state.x + alpha * step.direction_X)
        del seen[:]
        bundle = ev.hessian_bundle(new_x, beta)
        assert seen == []
        monkeypatch.undo()
        reference = FBetaEvaluator(problem, include_barrier=include_barrier).x_bundle(new_x, beta)
        assert_bitwise_equal(bundle, reference)


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

    def test_every_centering_failure_carries_a_report(self, monkeypatch):
        # a failed decomposition mid-solve is a QipError like any other:
        # it re-raises with the phase and a NumericalFailure report
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=3)
        calls = []
        real = objectives.spectral_decompose

        def failing(y):
            calls.append(None)
            if len(calls) == 50:
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
        # there must not count a step that the callback never received
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=3)
        real = objectives.spectral_decompose
        for fail_at in range(40, 60):
            calls, records = [], []

            def failing(y):
                calls.append(None)
                if len(calls) == fail_at:
                    raise DecompositionFailure("forced failure")
                return real(y)

            monkeypatch.setattr(objectives, "spectral_decompose", failing)
            with pytest.raises(DecompositionFailure) as caught:
                solve(problem, callback=records.append)
            report = caught.value.report
            assert report.total_newton == len(records), fail_at
            if records:
                assert np.array_equal(report.X_star, records[-1]["x"]), fail_at

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

    def test_iteration_cap_report_keeps_the_failed_centering_schur_conditions(
            self, monkeypatch):
        problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=6)
        conditions = []
        real = pathfollow.FBetaEvaluator.newton_step

        def recorded(self, bundle, state):
            step = real(self, bundle, state)
            conditions.append(step.schur_condition)
            return step

        monkeypatch.setattr(pathfollow.FBetaEvaluator, "newton_step", recorded)
        report = solve(problem, config=SolverConfig(max_inner=3))
        assert report.termination == "IterCap"
        assert len(conditions) == 3
        assert max(conditions) > 1.0
        assert report.schur_condition_max == max(conditions)

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

import numpy as np
import pytest

from conftest import rand_density, rand_spd, rel_err
from qipsolve import probio
from qipsolve.errors import OracleInconclusive, SizeGuard, ValidationError
from qipsolve.linmap import KrausMap
from qipsolve.matfun import INVERSE, NEG_LOG, NEG_SQRT, divided_diff_2, neg_power, vec
from qipsolve.objectives import EvalPoint, TraceObjective, phi_eval
from qipsolve.oracle import (
    dense_hessian_reference,
    dense_qre_hessian_reference,
    dense_sparse_core,
    derivative_audit,
    fd_gradient,
    fd_hessian_action,
    fixed_coordinates,
    problem_bundle,
    reference_minimize,
    sym_isometry,
)
from qipsolve.pathfollow import solve
from qipsolve.qre import qre_eval

ALL_GENERATORS = [INVERSE, NEG_LOG, NEG_SQRT, neg_power(0.6)]


class TestFiniteDifferences:
    def test_linear_function_exact(self, rng):
        x = rand_spd(rng, 3)
        g = fd_gradient(np.trace, x)
        assert np.linalg.norm(g - vec(np.eye(3))) <= 1e-9

    def test_logdet_at_diagonal_point(self):
        x = np.diag([1.0, 2.0, 3.0])
        g = fd_gradient(lambda y: -np.linalg.slogdet(y)[1], x, h=1e-5)
        assert rel_err(g, vec(-np.diag([1.0, 0.5, 1.0 / 3.0]))) <= 1e-6

    def test_qre_gradient_is_validated(self, rng):
        problem = probio.generate_random("qkd", {"n": 4, "m": 1}, seed=3)
        x = rand_density(rng, 4)
        b = fixed_coordinates(qre_eval(problem.terms[0], EvalPoint(x)))
        g_fd = fd_gradient(lambda y: qre_eval(problem.terms[0], EvalPoint(y), False).value, x)
        assert rel_err(b.gradient, sym_isometry(4).T @ g_fd) <= 1e-5

    def test_hessian_action_from_bare_scalar(self, rng):
        # nested-FD route: pass an fd_gradient closure instead of a gradient
        x = rand_spd(rng, 3)
        obj = TraceObjective(rand_spd(rng, 3, 0.1), INVERSE)
        b = fixed_coordinates(phi_eval(obj, EvalPoint(x)))
        xi = rand_spd(rng, 3, 0.0)
        act = fd_hessian_action(
            lambda y: fd_gradient(lambda z: phi_eval(obj, EvalPoint(z), False).value, y, h=1e-5),
            x, xi, h=1e-3)
        p = sym_isometry(3)
        assert rel_err(b.hessian @ (p.T @ vec(xi)), p.T @ act) <= 1e-5


class TestDenseHessianReference:
    def test_two_path_agreement_all_generators(self, rng):
        x = rand_spd(rng, 4)
        c = rand_spd(rng, 4, 0.1)
        for gen in ALL_GENERATORS:
            obj = TraceObjective(c, gen)
            h_prod = fixed_coordinates(phi_eval(obj, EvalPoint(x))).hessian
            h_ref = dense_hessian_reference(obj, x)
            assert np.linalg.norm(h_prod - h_ref) <= 1e-10 * np.linalg.norm(h_ref)

    def test_two_path_agreement_through_map(self, rng):
        lmap = KrausMap([rng.standard_normal((5, 3)) * 0.4 for _ in range(2)])
        obj = TraceObjective(rand_spd(rng, 5, 0.1), NEG_LOG, map=lmap)
        x = rand_spd(rng, 3)
        h_prod = fixed_coordinates(phi_eval(obj, EvalPoint(x))).hessian
        h_ref = dense_hessian_reference(obj, x)
        assert np.linalg.norm(h_prod - h_ref) <= 1e-10 * np.linalg.norm(h_ref)

    def test_diagonal_case_entrywise(self, rng):
        # diagonal X and C: only the delta-selected entries survive
        lam = np.array([3.0, 2.0, 1.0])
        cdiag = np.array([0.5, 1.5, 1.0])
        s = dense_sparse_core(INVERSE, lam, np.diag(cdiag))
        n = 3
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        expected = 0.0
                        if i == k and j == l:
                            expected = (
                                cdiag[j] * divided_diff_2(INVERSE, lam[i], lam[j], lam[j])
                                + cdiag[i] * divided_diff_2(INVERSE, lam[i], lam[j], lam[i])
                            )
                        assert s[i + n * j, k + n * l] == pytest.approx(expected, abs=1e-14)

    def test_zero_weight(self, rng):
        obj = TraceObjective(np.zeros((3, 3)), NEG_LOG)
        assert np.all(dense_hessian_reference(obj, rand_spd(rng, 3)) == 0.0)

    def test_size_guard(self):
        obj = TraceObjective(np.eye(9), NEG_LOG)
        with pytest.raises(SizeGuard):
            dense_hessian_reference(obj, np.eye(9))


class TestReferenceMinimize:
    def test_trace_inverse_n2(self):
        f_ref, _ = reference_minimize(probio.build_named("trace-inverse-n2"))
        assert f_ref == pytest.approx(4.0, abs=1e-5)

    def test_ree_toy_klein_optimum(self):
        problem = probio.build_named("ree-2x2")
        f_ref, x_ref = reference_minimize(problem)
        assert abs(f_ref) <= 1e-4
        assert np.linalg.norm(x_ref - problem.terms[0].C) <= 1e-2

    def test_cross_solver_agreement(self):
        for seed in range(5):
            problem = probio.generate_random(
                "type1", {"n": 3, "m": 0, "N": 2, "generator": "neg_log"}, seed=seed)
            f_ref, _ = reference_minimize(problem)
            report = solve(problem)
            assert abs(f_ref - report.f_min) <= 1e-4 * (1 + abs(f_ref))

    def test_inconclusive_on_tiny_budget(self):
        problem = probio.generate_random(
            "type1", {"n": 3, "m": 0, "N": 2, "generator": "inverse"}, seed=1)
        with pytest.raises(OracleInconclusive):
            reference_minimize(problem, max_iter=2)

    def test_rejects_inequalities(self):
        problem = probio.generate_random("type1", {"n": 3, "m": 1, "N": 2}, seed=1)
        with pytest.raises(ValidationError):
            reference_minimize(problem)

    def test_size_guard(self):
        problem = probio.build_named("trace-inverse-n8")
        with pytest.raises(SizeGuard):
            reference_minimize(problem)


class TestDenseQreHessianReference:
    @pytest.mark.parametrize("n", [3, 4])
    def test_production_hessian_matches(self, n):
        # qkd n = 3, 4 have map outputs of order k = 6, 8
        for seed in range(3):
            problem = probio.generate_random("qkd", {"n": n}, seed=seed)
            (obj,) = problem.terms
            assert obj.out_order == 2 * n
            rng = np.random.default_rng(seed)
            points = [problem.start] + [probio.random_feasible_point(problem, rng)
                                        for _ in range(2)]
            for x in points:
                h = fixed_coordinates(qre_eval(obj, EvalPoint(x))).hessian
                ref = dense_qre_hessian_reference(obj, x)
                assert np.linalg.norm(h - ref) <= 1e-10 * np.linalg.norm(ref), (seed, x)

    def test_size_guard(self):
        problem = probio.generate_random("qkd", {"n": 5}, seed=0)
        with pytest.raises(SizeGuard):
            dense_qre_hessian_reference(problem.terms[0], problem.start)


class TestDerivativeAudit:
    def test_canonical_instances_pass(self, rng):
        for name in ("trace-inverse-n4", "ree-2x2", "fidelity-n4", "qkd-n4"):
            results = derivative_audit(probio.build_named(name), rng, points=2)
            for res in results:
                assert res.passed, f"{name}: {res.name} {res.detail}"
            if name == "qkd-n4":
                assert "qre-vs-dense-reference" in {res.name for res in results}

    def test_corrupted_hessian_fails_named_check(self, rng):
        problem = probio.build_named("trace-inverse-n4")

        def corrupt(h):
            bad = h.copy()
            bad[0, 1] += 0.5 * np.linalg.norm(h, 2)
            return bad

        results = derivative_audit(problem, rng, points=1, corrupt_hessian=corrupt)
        failed = {r.name for r in results if not r.passed}
        assert "hessian-symmetry" in failed
        assert "hessian-action-vs-fd" in failed
        assert any(r.passed for r in results)  # gradient check untouched

    def test_psd_check_reports_eigenvalue(self, rng):
        results = derivative_audit(probio.build_named("trace-inverse-n4"), rng, points=1)
        psd = next(r for r in results if r.name == "hessian-psd")
        assert "eigenvalue" in psd.detail

    def test_problem_bundle_includes_offset(self, rng):
        problem = probio.build_named("ree-2x2")
        x = probio.random_feasible_point(problem, rng, scale=0.05)
        b = problem_bundle(problem, x, want_hessian=False)
        assert b.gradient is None and b.hessian is None
        assert b.value == problem_bundle(problem, x).value
        assert b.value == pytest.approx(problem.objective_at(EvalPoint(x)))

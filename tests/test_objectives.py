import numpy as np
import pytest

from conftest import rand_spd, rand_sym, rel_err
from qipsolve import objectives, probio
from qipsolve.errors import DomainViolation, ValidationError
from qipsolve.linmap import KrausMap, PartialTranspose
from qipsolve.matfun import (
    INVERSE,
    NEG_LOG,
    NEG_SQRT,
    divided_diff_1,
    neg_power,
    pair_table,
    second_divided_diff_tensor,
    spectral_decompose,
    symmetrize,
    vec,
)
from qipsolve.objectives import (
    EvalPoint,
    LogDetBarrier,
    TraceObjective,
    barrier_eval,
    composite_eval,
    map_barrier_eval,
    phi_eval,
    phi_hessian_in_basis,
)
from qipsolve.oracle import fd_gradient, fd_hessian_action, fixed_coordinates, sym_isometry
from qipsolve.pathfollow import FBetaEvaluator
from qipsolve.qre import QreObjective

ALL_GENERATORS = [INVERSE, NEG_LOG, NEG_SQRT, neg_power(0.37)]


def separable_ppt_state(rng, n1, n2):
    n = n1 * n2
    x = sum(np.kron(rand_spd(rng, n1, 0.2), rand_spd(rng, n2, 0.2)) for _ in range(3))
    x = x / np.trace(x) + 0.05 * np.eye(n)
    return symmetrize(x / np.trace(x))


class TestTraceObjective:
    def test_weight_must_be_psd(self, rng):
        c = rand_sym(rng, 3)
        c -= (np.linalg.eigvalsh(c).min() - 0.5) * np.eye(3)  # make one eig negative
        with pytest.raises(ValidationError):
            TraceObjective(-c, INVERSE)

    def test_zero_weight(self, rng):
        obj = TraceObjective(np.zeros((3, 3)), NEG_LOG)
        b = phi_eval(obj, EvalPoint(rand_spd(rng, 3)))
        assert b.value == 0.0
        assert np.all(b.gradient == 0.0)
        assert np.all(b.hessian == 0.0)


class TestPhiEval:
    def test_inverse_identity_case(self):
        obj = TraceObjective(np.eye(2), INVERSE)
        b = fixed_coordinates(phi_eval(obj, EvalPoint(np.eye(2))))
        assert b.value == pytest.approx(2.0)
        assert np.allclose(b.gradient, sym_isometry(2).T @ vec(-np.eye(2)))
        # d^2/dt^2 Tr((I + t xi)^{-1}) = 2 Tr(xi^2) at t=0, so H == 2 I
        assert np.allclose(b.hessian, 2.0 * np.eye(3), atol=1e-12)

    def test_inverse_identity_fd_quadratic_form(self, rng):
        obj = TraceObjective(np.eye(2), INVERSE)
        b = fixed_coordinates(phi_eval(obj, EvalPoint(np.eye(2))))
        xi = rand_sym(rng, 2)
        h = 1e-4
        vals = [np.trace(np.linalg.inv(np.eye(2) + t * xi)) for t in (-h, 0.0, h)]
        fd2 = (vals[0] - 2 * vals[1] + vals[2]) / h**2
        s = sym_isometry(2).T @ vec(xi)
        quad = s @ (b.hessian @ s)
        assert quad == pytest.approx(fd2, rel=1e-5)

    def test_neglog_weight_equal_to_point(self, rng):
        x = rand_spd(rng, 4)
        obj = TraceObjective(x, NEG_LOG)
        b = fixed_coordinates(phi_eval(obj, EvalPoint(x)))
        # <grad, I> = -Tr(C X^{-1}) = -n when C = X
        p = sym_isometry(4)
        assert b.gradient @ (p.T @ vec(np.eye(4))) == pytest.approx(-4.0, rel=1e-10)
        g_fd = fd_gradient(lambda y: phi_eval(obj, EvalPoint(y), False).value, x)
        assert rel_err(b.gradient, p.T @ g_fd) <= 1e-6

    @pytest.mark.parametrize("n", [3, 5])
    def test_gradient_and_hessian_vs_fd(self, rng, n):
        for gen in ALL_GENERATORS:
            c = rand_spd(rng, n, 0.1)
            obj = TraceObjective(c, gen)
            x = rand_spd(rng, n)
            b = fixed_coordinates(phi_eval(obj, EvalPoint(x)))
            p = sym_isometry(n)
            g_fd = fd_gradient(lambda y: phi_eval(obj, EvalPoint(y), False).value, x)
            assert rel_err(b.gradient, p.T @ g_fd) <= 1e-6, gen.kind
            xi = rand_sym(rng, n)
            act_fd = fd_hessian_action(
                lambda y: fixed_coordinates(phi_eval(obj, EvalPoint(y))).gradient, x, xi)
            assert rel_err(b.hessian @ (p.T @ vec(xi)), act_fd) <= 1e-5, gen.kind

    def test_hessian_symmetric_psd(self, rng):
        for gen in ALL_GENERATORS:
            c = rand_spd(rng, 4, 0.1)
            x = rand_spd(rng, 4)
            h = phi_eval(TraceObjective(c, gen), EvalPoint(x)).hessian
            assert np.linalg.norm(h - h.T) <= 1e-9 * np.linalg.norm(h)
            hnorm = np.linalg.norm(h, 2)
            assert np.linalg.eigvalsh(h).min() >= -1e-7 * hnorm

    def test_domain_violation(self, rng):
        obj = TraceObjective(np.eye(3), NEG_LOG)
        x = rand_sym(rng, 3)
        x -= (np.linalg.eigvalsh(x).min() + 1.0) * np.eye(3)
        with pytest.raises(DomainViolation):
            phi_eval(obj, EvalPoint(x))

    def test_map_output_domain_violation(self, rng):
        # partial transpose of an entangled state is indefinite
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        x = symmetrize(0.95 * bell + 0.05 * np.eye(4) / 4)
        pt = PartialTranspose(2, 2)
        obj = TraceObjective(np.eye(4), NEG_LOG, map=pt)
        with pytest.raises(DomainViolation):
            phi_eval(obj, EvalPoint(x))

    def test_through_kraus_map_vs_fd(self, rng):
        k_factors = [rng.standard_normal((6, 4)) * 0.4 for _ in range(2)]
        lmap = KrausMap(k_factors)
        obj = TraceObjective(rand_spd(rng, 6, 0.1), NEG_SQRT, map=lmap)
        x = rand_spd(rng, 4)
        b = fixed_coordinates(phi_eval(obj, EvalPoint(x)))
        p = sym_isometry(4)
        g_fd = fd_gradient(lambda y: phi_eval(obj, EvalPoint(y), False).value, x)
        assert rel_err(b.gradient, p.T @ g_fd) <= 1e-6
        xi = rand_sym(rng, 4)
        act_fd = fd_hessian_action(
            lambda y: fixed_coordinates(phi_eval(obj, EvalPoint(y))).gradient, x, xi)
        assert rel_err(b.hessian @ (p.T @ vec(xi)), act_fd) <= 1e-5


class TestBarrier:
    def test_identity(self):
        b = fixed_coordinates(barrier_eval(EvalPoint(np.eye(3))))
        assert b.value == pytest.approx(0.0)
        assert np.allclose(b.gradient, sym_isometry(3).T @ vec(-np.eye(3)))
        assert np.allclose(b.hessian, np.eye(6), atol=1e-13)

    def test_diag_case(self):
        b = fixed_coordinates(barrier_eval(EvalPoint(np.diag([2.0, 1.0]))))
        assert b.value == pytest.approx(-np.log(2.0))
        assert np.allclose(b.gradient, sym_isometry(2).T @ vec(np.diag([-0.5, -1.0])))

    def test_hessian_action_vs_fd(self, rng):
        x = rand_spd(rng, 4)
        b = fixed_coordinates(barrier_eval(EvalPoint(x)))
        xi = rand_sym(rng, 4)
        act_fd = fd_hessian_action(
            lambda y: fixed_coordinates(barrier_eval(EvalPoint(y))).gradient, x, xi)
        p = sym_isometry(4)
        assert rel_err(b.hessian @ (p.T @ vec(xi)), act_fd) <= 1e-6

    def test_domain(self, rng):
        with pytest.raises(DomainViolation):
            barrier_eval(EvalPoint(-np.eye(3)))

    def test_map_barrier_vs_fd(self, rng):
        # the partial transpose, and the Kraus map of fidelity-n4
        for lmap, x in ((PartialTranspose(2, 2), separable_ppt_state(rng, 2, 2)),
                        (probio.build_named("fidelity-n4").constraint_map, rand_spd(rng, 4))):
            bundle = map_barrier_eval(lmap, EvalPoint(x))
            assert np.array_equal(bundle.hessian, bundle.hessian.T)  # a Gram matrix
            b = fixed_coordinates(bundle)
            p = sym_isometry(4)
            g_fd = fd_gradient(lambda y: map_barrier_eval(lmap, EvalPoint(y), False).value, x)
            assert rel_err(b.gradient, p.T @ g_fd) <= 1e-6
            xi = rand_sym(rng, 4) * 0.01
            act_fd = fd_hessian_action(
                lambda y: fixed_coordinates(map_barrier_eval(lmap, EvalPoint(y))).gradient, x, xi)
            assert rel_err(b.hessian @ (p.T @ vec(xi)), act_fd) <= 1e-5


class TestComposite:
    def test_beta_zero_is_pure_barrier(self, rng):
        x = rand_spd(rng, 3)
        obj = TraceObjective(rand_spd(rng, 3, 0.1), INVERSE)
        comp = composite_eval(0.0, [obj], [None], x)
        bar = barrier_eval(EvalPoint(x))
        assert comp.value == pytest.approx(bar.value)
        assert np.allclose(comp.gradient, bar.gradient)
        assert np.allclose(comp.hessian, bar.hessian)

    def test_additivity(self, rng):
        x = rand_spd(rng, 3)
        obj = TraceObjective(rand_spd(rng, 3, 0.1), INVERSE)
        beta = 2.5
        comp = composite_eval(beta, [obj], [None], x)
        phi = phi_eval(obj, EvalPoint(x))
        bar = barrier_eval(EvalPoint(x))
        assert comp.value == pytest.approx(beta * phi.value + bar.value)
        assert np.allclose(comp.gradient, beta * phi.gradient + bar.gradient)
        assert np.allclose(comp.hessian, beta * phi.hessian + bar.hessian)

    def test_ree_composite_vs_fd(self, rng):
        c = separable_ppt_state(rng, 2, 2)
        x = separable_ppt_state(rng, 2, 2)
        pt = PartialTranspose(2, 2)
        terms = [TraceObjective(c, NEG_LOG)]
        beta = 3.0
        b = fixed_coordinates(composite_eval(beta, terms, [None, pt], x))
        p = sym_isometry(4)
        g_fd = fd_gradient(lambda y: composite_eval(beta, terms, [None, pt], y, False).value, x)
        assert rel_err(b.gradient, p.T @ g_fd) <= 1e-6
        xi = rand_sym(rng, 4) * 0.01
        act_fd = fd_hessian_action(
            lambda y: fixed_coordinates(composite_eval(beta, terms, [None, pt], y)).gradient,
            x, xi)
        assert rel_err(b.hessian @ (p.T @ vec(xi)), act_fd) <= 1e-5

    def test_error_names_offending_term(self, rng):
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        x = symmetrize(0.95 * bell + 0.05 * np.eye(4) / 4)  # PD but not PPT
        pt = PartialTranspose(2, 2)
        with pytest.raises(DomainViolation, match="barrier term 1"):
            composite_eval(1.0, [TraceObjective(np.eye(4), NEG_LOG)], [None, pt], x)


class TestCompatibilityInequality:
    def test_spot_check(self, rng):
        # |D^3 phi| <= 3 D^2 phi sqrt(D^2 B) for anti-monotone trace objectives
        from qipsolve.oracle import fd_cubic_form

        for gen in ALL_GENERATORS:
            for _ in range(5):
                n = 4
                c = rand_spd(rng, n, 0.1)
                obj = TraceObjective(c, gen)
                x = rand_spd(rng, n)
                xi = rand_sym(rng, n)
                s = sym_isometry(n).T @ vec(xi)
                d2phi = float(s @ (fixed_coordinates(phi_eval(obj, EvalPoint(x))).hessian @ s))
                d2b = float(s @ (fixed_coordinates(barrier_eval(EvalPoint(x))).hessian @ s))
                d3 = fd_cubic_form(
                    lambda y: fixed_coordinates(phi_eval(obj, EvalPoint(y))).hessian, x, xi)
                bound = 3.0 * d2phi * np.sqrt(d2b)
                assert abs(d3) <= bound + 1e-4 * max(1.0, bound)


def einsum_phi_hessian_in_basis(ctil, gamma):
    """The svec Hessian in the eigenbasis from one einsum over one-hot svec selectors.

    E[s, i, j] is 1 where s(i, j) = s and 0 elsewhere, s from the upper
    triangle, row by row, as the oracle's isometry orders it; the Hessian
    is sum_ijl E[s, i, j] E[t, i, l] W_ijl with W_ijl = Ctil_jl Gamma_ijl
    times 2 c_ij c_il, c = 1 on the diagonal and 1/sqrt(2) off it. Each
    entry has at most two nonzero terms and the selectors are exact, so
    no order of summation the einsum picks can change its bits.
    """
    n = ctil.shape[0]
    d = n * (n + 1) // 2
    rows, cols = np.triu_indices(n)
    sel = np.zeros((d, n, n))
    sel[np.arange(d), rows, cols] = sel[np.arange(d), cols, rows] = 1.0
    c = np.where(np.eye(n, dtype=bool), 1.0, 1.0 / np.sqrt(2.0))
    w = (ctil[None, :, :] * gamma) * (2.0 * c[:, :, None] * c[:, None, :])
    return np.einsum("sij,ijl,til->st", sel, w, sel, optimize=True)


@pytest.mark.parametrize("n", [2, 3, 9, 16])
def test_phi_hessian_in_basis_matches_einsum_bitwise(rng, n):
    for gen in ALL_GENERATORS:
        dec = spectral_decompose(rand_spd(rng, n))
        ctil = symmetrize(dec.U.T @ rand_spd(rng, n, 0.1) @ dec.U)
        table = pair_table(dec.lam)
        gamma = second_divided_diff_tensor(gen, table, f1=divided_diff_1(gen, table))
        got = phi_hessian_in_basis(ctil, gamma)
        assert np.array_equal(got, einsum_phi_hessian_in_basis(ctil, gamma)), gen.kind
        assert np.array_equal(got, got.T), gen.kind


def count_decompositions(monkeypatch):
    """Record the argument of every spectral decomposition an EvalPoint makes."""
    seen = []
    real = objectives.spectral_decompose

    def counted(x):
        seen.append(np.array(x))
        return real(x)

    monkeypatch.setattr(objectives, "spectral_decompose", counted)
    return seen


class TestEvalPoint:
    # (problem, number of distinct images): X for type1; X and the
    # partial transpose for type2; X and L(X) for fidelity-n4, whose
    # objective reads L(X) through the constraint map itself
    CASES = {
        "type1": (lambda: probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=5), 1),
        "type2": (lambda: probio.generate_random("type2", {"n": 4, "m": 1}, seed=5), 2),
        "fidelity-n4": (lambda: probio.build_named("fidelity-n4"), 2),
        "qkd": (lambda: probio.generate_random("qkd", {"n": 3, "m": 1}, seed=5), 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("want_hessian", [True, False])
    def test_each_image_is_decomposed_once(self, case, want_hessian, rng, monkeypatch):
        build, images = self.CASES[case]
        problem = build()
        if case == "fidelity-n4":
            assert problem.terms[0].map is problem.constraint_map
        x = probio.random_feasible_point(problem, rng)
        seen = count_decompositions(monkeypatch)
        FBetaEvaluator(problem).x_bundle(EvalPoint(x), 2.0, want_hessian=want_hessian)
        assert len(seen) == images
        for i, a in enumerate(seen):
            assert not any(np.array_equal(a, b) for b in seen[:i])

    def test_point_owns_a_read_only_copy(self, rng):
        x = rand_spd(rng, 3)
        point = EvalPoint(x)
        x[0, 0] += 1.0
        assert point.x[0, 0] != x[0, 0]
        with pytest.raises(ValueError):
            point.x[0, 0] = 0.0


def term_cases(rng):
    """(label, term, X) for every term kind: trace on X or through a map,
    both barriers and the relative entropy."""
    pt = PartialTranspose(2, 2)
    x = separable_ppt_state(rng, 2, 2)
    kraus = KrausMap([rng.standard_normal((6, 4)) * 0.4 for _ in range(2)])
    qkd = probio.generate_random("qkd", {"n": 3, "m": 1}, seed=5)
    return [
        *((f"trace-{gen.kind}", TraceObjective(rand_spd(rng, 4, 0.1), gen), x)
          for gen in ALL_GENERATORS),
        ("trace-kraus", TraceObjective(rand_spd(rng, 6, 0.1), NEG_SQRT, map=kraus), x),
        ("trace-partial-transpose", TraceObjective(rand_spd(rng, 4, 0.1), NEG_LOG, map=pt), x),
        ("barrier", LogDetBarrier(), x),
        ("map-barrier", LogDetBarrier(pt), x),
        ("qre", qkd.terms[0], probio.random_feasible_point(qkd, rng)),
    ]


def test_value_only_matches_the_full_evaluation_bitwise(rng):
    kinds = set()
    for label, term, x in term_cases(rng):
        kinds.add(type(term))
        point = EvalPoint(x)
        full = term.evaluate(point)
        assert full.gradient is not None and full.hessian is not None, label
        alone = term.evaluate(EvalPoint(x), want_hessian=False)
        assert alone.gradient is None and alone.hessian is None, label
        assert alone.value == full.value, label
        # a value-only evaluation at a point the full one decomposed
        shared = term.evaluate(point, False)
        assert shared.gradient is None and shared.value == full.value, label
    assert kinds == {TraceObjective, LogDetBarrier, QreObjective}

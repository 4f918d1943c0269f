import numpy as np
import pytest

from conftest import rand_spd, rand_sym
from qipsolve import matfun
from qipsolve.errors import DomainViolation, InvalidMatrix
from qipsolve.matfun import (
    CONFLUENCE_RTOL,
    INVERSE,
    LOG,
    NEG_LOG,
    NEG_SQRT,
    apply_matrix_function,
    divided_diff_1,
    divided_diff_2,
    neg_power,
    second_divided_diff_tensor,
    spectral_decompose,
    symmetrize,
    unvec,
    vec,
)

ALL_GENERATORS = [NEG_LOG, INVERSE, NEG_SQRT, neg_power(0.37)]


class TestSpectralDecompose:
    def test_identity(self):
        dec = spectral_decompose(np.eye(3))
        assert np.allclose(dec.lam, np.ones(3))
        assert np.allclose(dec.U @ dec.U.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        dec = spectral_decompose(np.diag([2.0, 1.0]))
        assert np.allclose(dec.lam, [2.0, 1.0])
        assert np.allclose(np.abs(dec.U), np.eye(2), atol=1e-12)

    def test_reconstruction(self, rng):
        x = rand_sym(rng, 6)
        dec = spectral_decompose(x)
        assert np.linalg.norm(dec.reconstruct() - x) <= 1e-10 * (1 + np.linalg.norm(x))
        assert np.linalg.norm(dec.U @ dec.U.T - np.eye(6)) <= 1e-10 * 6
        assert np.all(np.diff(dec.lam) <= 0)

    def test_nonfinite_rejected(self):
        x = np.eye(2)
        x[0, 1] = x[1, 0] = np.nan
        with pytest.raises(InvalidMatrix):
            spectral_decompose(x)


class TestDividedDiff1:
    def test_neglog_confluent(self):
        d = divided_diff_1(NEG_LOG, np.array([1.0, 1.0]))
        assert d[0, 1] == pytest.approx(-1.0)

    def test_neglog_distinct(self):
        d = divided_diff_1(NEG_LOG, np.array([np.e, 1.0]))
        assert d[0, 1] == pytest.approx(-1.0 / (np.e - 1.0), rel=1e-12)

    def test_inverse(self):
        d = divided_diff_1(INVERSE, np.array([2.0, 1.0]))
        assert d[0, 1] == pytest.approx(-0.5, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainViolation):
            divided_diff_1(NEG_LOG, np.array([1.0, -1.0]))

    def test_exact_symmetry(self, rng):
        lam = np.sort(rng.uniform(0.1, 5.0, size=7))[::-1]
        lam[3] = lam[2]  # planted confluent pair
        for gen in ALL_GENERATORS:
            d = divided_diff_1(gen, lam)
            assert np.array_equal(d, d.T)

    def test_continuity_across_confluence_boundary(self):
        # entries just inside and just outside the derivative branch agree
        for gen in ALL_GENERATORS:
            base = 1.3
            gap_lo = 0.99 * CONFLUENCE_RTOL * base
            gap_hi = 1.01 * CONFLUENCE_RTOL * base
            d_lo = divided_diff_1(gen, np.array([base + gap_lo, base]))[0, 1]
            d_hi = divided_diff_1(gen, np.array([base + gap_hi, base]))[0, 1]
            assert abs(d_lo - d_hi) <= 1e-6


class TestDividedDiff2:
    def test_neglog_fully_confluent(self):
        assert divided_diff_2(NEG_LOG, 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_neglog_nested_formula(self):
        def h1(a, b):
            return (NEG_LOG.g(a) - NEG_LOG.g(b)) / (a - b)

        expected = (h1(1.0, 2.0) - h1(1.0, 4.0)) / (2.0 - 4.0)
        got = divided_diff_2(NEG_LOG, 1.0, 2.0, 4.0)
        assert got == pytest.approx(expected, rel=1e-12)
        # exact invariance under all six permutations (distinct branch)
        from itertools import permutations

        vals = {divided_diff_2(NEG_LOG, *p) for p in permutations((1.0, 2.0, 4.0))}
        assert len(vals) == 1

    def test_inverse_partially_confluent(self):
        assert divided_diff_2(INVERSE, 1.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-9)

    def test_permutation_invariance_near_confluence(self):
        from itertools import permutations

        args = (1.0, 1.0 + 2e-9, 3.0)
        vals = [divided_diff_2(INVERSE, *p) for p in permutations(args)]
        ref = vals[0]
        for v in vals:
            assert abs(v - ref) <= 1e-8 * abs(ref)

    def test_domain(self):
        with pytest.raises(DomainViolation):
            divided_diff_2(INVERSE, 1.0, 0.0, 2.0)

    @pytest.mark.parametrize("lam", [
        [3.0, 2.0, 2.0, 0.5, 0.5],  # exact repeats
        [2.0 * (1 + 0.4 * CONFLUENCE_RTOL), 2.0, 1.0, 1.0 - 0.5 * CONFLUENCE_RTOL, 0.25],
        [1.5, 1.5, 1.5, 0.7],  # triple coincidence
        [1.5 * (1 + 0.3 * CONFLUENCE_RTOL), 1.5, 1.5 * (1 - 0.3 * CONFLUENCE_RTOL), 0.7],
    ], ids=["repeats", "near-pairs", "triple", "near-triple"])
    def test_tensor_matches_scalar_on_confluent_spectra(self, lam):
        lam = np.array(lam)
        n = lam.size
        for gen in [*ALL_GENERATORS, LOG]:
            t = second_divided_diff_tensor(gen, lam, f1=divided_diff_1(gen, lam))
            assert np.array_equal(t, dense_second_divided_diff_tensor(gen, lam)), gen.kind
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        ref = divided_diff_2(gen, lam[i], lam[j], lam[k])
                        assert t[i, j, k] == pytest.approx(ref, rel=1e-7, abs=1e-12), \
                            (gen.kind, i, j, k)

    def test_tensor_matches_scalar(self, rng):
        lam = np.sort(rng.uniform(0.2, 4.0, size=5))[::-1]
        for gen in ALL_GENERATORS:
            t = second_divided_diff_tensor(gen, lam, f1=divided_diff_1(gen, lam))
            for i in range(5):
                for j in range(5):
                    for k in range(5):
                        ref = divided_diff_2(gen, lam[i], lam[j], lam[k])
                        assert t[i, j, k] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def dense_second_divided_diff_tensor(gen, lam):
    """Every branch of the tensor's recurrence on all n^3 entries, then selected."""
    f1 = divided_diff_1(gen, lam)
    li, lj, lk = lam[:, None, None], lam[None, :, None], lam[None, None, :]
    djk = lj - lk
    sep_jk = np.abs(djk) > CONFLUENCE_RTOL * matfun._conf_scale(lj, lk)
    main = (f1[:, :, None] - f1[:, None, :]) / np.where(sep_jk, djk, 1.0)
    mu = 0.5 * (lam[:, None] + lam[None, :])[None, :, :]
    dimu = li - mu
    sep_imu = np.abs(dimu) > CONFLUENCE_RTOL * matfun._conf_scale(li, mu)
    safe_imu = np.where(sep_imu, dimu, 1.0)
    pairwise = ((gen.g(lam)[:, None, None] - gen.g(mu)) / safe_imu - gen.dg(mu)) / safe_imu
    triple = 0.5 * gen.d2g((li + lj + lk) / 3.0)
    return np.where(sep_jk, main, np.where(sep_imu, pairwise, triple))


class TestMatrixFunction:
    def test_neglog_identity(self):
        assert np.allclose(apply_matrix_function(NEG_LOG, np.eye(3)), 0.0)

    def test_inverse_diagonal(self):
        out = apply_matrix_function(INVERSE, np.diag([2.0, 4.0]))
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_negsqrt_square_identity(self, rng):
        x = rand_spd(rng, 5)
        s = apply_matrix_function(NEG_SQRT, x)
        assert np.linalg.norm((-s) @ (-s) - x) <= 1e-9 * (1 + np.linalg.norm(x))

    def test_domain(self, rng):
        x = rand_sym(rng, 3)  # indefinite
        x -= (np.linalg.eigvalsh(x).min() + 0.1) * np.eye(3)
        with pytest.raises(DomainViolation):
            apply_matrix_function(NEG_LOG, -x)

    def test_orthogonal_commutation(self, rng):
        x = rand_spd(rng, 5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        for gen in ALL_GENERATORS:
            lhs = apply_matrix_function(gen, symmetrize(q @ x @ q.T))
            rhs = q @ apply_matrix_function(gen, x) @ q.T
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


class TestVecSchurKron:
    def test_vec_column_stacking(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(unvec(vec(a), 2), a)

    def test_kron_vec_identity(self, rng):
        a, x, b = (rng.standard_normal((3, 3)) for _ in range(3))
        lhs = vec(a @ x @ b.T)
        rhs = np.kron(b, a) @ vec(x)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


class TestGeneratorProperties:
    def test_anti_monotone_sampled(self, rng):
        for gen in ALL_GENERATORS:
            for _ in range(25):
                b = rand_spd(rng, 2, ridge=0.4)
                a = b + rand_spd(rng, 2, ridge=0.0)
                ga = apply_matrix_function(gen, a)
                gb = apply_matrix_function(gen, b)
                assert np.linalg.eigvalsh(ga - gb).max() <= 1e-10

    def test_convexity_sampled(self, rng):
        t = rng.uniform(0.05, 10.0, size=200)
        for gen in ALL_GENERATORS:
            assert np.all(gen.d2g(t) >= 0.0)

    def test_unknown_generator(self):
        with pytest.raises(DomainViolation):
            matfun.generator_from_name("exp")

    def test_neg_power_domain(self):
        with pytest.raises(DomainViolation):
            neg_power(1.5)

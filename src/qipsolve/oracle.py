"""Independent verification paths for the analytic machinery.

Nothing here shares code with the production derivative assembly: the
finite-difference operators probe objective values directly over the
n(n+1)/2 independent symmetric coordinates, the dense Hessian reference
materializes the sparse core entry by entry from scalar second divided
differences and conjugates it with explicit Kronecker factors and a
dense map matrix built from the map's ``apply``, and the
reference optimizer is a first-order projected-gradient method with
boundary backoff. Production Hessians are d x d on svec coordinates;
the oracles reach those coordinates through their own dense isometry
``sym_isometry`` (vec <- svec), built from the symmetric unit basis, not
from the production index tables. Any disagreement with the production
path is a test failure, not a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, OracleInconclusive, SizeGuard, ValidationError
from .matfun import divided_diff_2, spectral_decompose, symmetrize, vec
from .objectives import DerivativeBundle, TraceObjective
from .probio import ProblemSpec, random_feasible_point
from .qre import QreObjective, qre_hessian_asymmetry


def _sym_basis(n):
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            yield i, j, e


def sym_isometry(n: int) -> np.ndarray:
    """Dense n^2 x n(n+1)/2 isometry P with vec(xi) = P svec(xi).

    Column a is vec(E_a) / ||E_a|| for the a-th symmetric unit matrix E_a
    (upper triangle, row by row), so P.T vec(xi) = svec(xi) and
    P.T H P is a full-vec Hessian H on svec coordinates.
    """
    return np.stack([vec(e) / np.linalg.norm(e) for _, _, e in _sym_basis(n)], axis=1)


def sym_map_matrix(lmap) -> np.ndarray:
    """Dense k^2 x n(n+1)/2 matrix M P of a linear map on svec inputs.

    Column a is vec(L(E_a)) / ||E_a|| from the map's ``apply`` on the
    a-th symmetric unit matrix, so M P svec(xi) = vec(L(xi)).
    """
    return np.stack([vec(lmap.apply(e)) / np.linalg.norm(e)
                     for _, _, e in _sym_basis(lmap.in_order)], axis=1)


def fd_gradient(f, x: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference gradient over symmetric coordinates, as a vec.

    The returned vector g satisfies df(X)(xi) ~= <unvec(g), xi> for
    symmetric directions xi.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    grad = np.zeros((n, n))
    for i, j, e in _sym_basis(n):
        fp = f(x + h * e)
        fm = f(x - h * e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise DomainViolation(f"probe left the domain at coordinate ({i}, {j})")
        d = (fp - fm) / (2.0 * h)
        if i == j:
            grad[i, i] = d
        else:
            grad[i, j] = grad[j, i] = 0.5 * d
    return vec(grad)


def fd_hessian_action(grad_fn, x: np.ndarray, direction: np.ndarray,
                      h: float | None = None) -> np.ndarray:
    """Central difference of a gradient along a symmetric direction.

    ``grad_fn`` maps a matrix to a vec gradient; pass the analytic
    gradient to validate a Hessian against it, or a closure over
    fd_gradient for a derivative-free probe of a bare scalar function.
    """
    x = np.asarray(x, dtype=float)
    direction = symmetrize(direction)
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    gp = np.asarray(grad_fn(x + h * direction))
    gm = np.asarray(grad_fn(x - h * direction))
    if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
        raise DomainViolation("probe left the domain")
    return (gp - gm) / (2.0 * h)


def fd_cubic_form(hessian_fn, x: np.ndarray, xi: np.ndarray,
                  h: float | None = None) -> float:
    """FD estimate of D^3 f(X)(xi, xi, xi) from the analytic svec Hessian.

    Differentiates t -> <xi, H(X + t xi) xi> centrally; step defaults to
    the coarser third-derivative scaling.
    """
    x = np.asarray(x, dtype=float)
    xi = symmetrize(xi)
    if h is None:
        h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    v = sym_isometry(x.shape[0]).T @ vec(xi)
    hp = hessian_fn(x + h * xi)
    hm = hessian_fn(x - h * xi)
    return float((v @ (hp @ v) - v @ (hm @ v)) / (2.0 * h))


# ---------------------------------------------------------------------------
# dense Hessian reference
# ---------------------------------------------------------------------------

def dense_sparse_core(gen, lam: np.ndarray, ctil: np.ndarray) -> np.ndarray:
    """The core S as a dense matrix, entry by entry from the two-delta formula.

    S[(i,j),(k,l)] = delta_ik Ctil_jl g2(lam_i, lam_j, lam_l)
                   + delta_jl Ctil_ik g2(lam_i, lam_j, lam_k),
    indexed with the column-stacking vec convention. Off-diagonal blocks
    (j != l) are diagonal in (i, k), which is the sparsity the production
    path exploits.
    """
    n = lam.size
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            row = i + n * j
            for k in range(n):
                for l in range(n):
                    val = 0.0
                    if i == k:
                        val += ctil[j, l] * divided_diff_2(gen, lam[i], lam[j], lam[l])
                    if j == l:
                        val += ctil[i, k] * divided_diff_2(gen, lam[i], lam[j], lam[k])
                    if val != 0.0:
                        s[row, k + n * l] = val
    return s


def dense_hessian_reference(obj: TraceObjective, x: np.ndarray) -> np.ndarray:
    """Brute-force svec Hessian P.T H P of a trace objective.

    H is the full-vec Hessian from explicit Kronecker factors and P the
    oracle's own isometry (``sym_isometry``), or with a map L, M P from
    ``sym_map_matrix``.
    """
    x = np.asarray(x, dtype=float)
    y = x if obj.map is None else obj.map.apply(x)
    if max(x.shape[0], y.shape[0]) > 8:
        raise SizeGuard("dense Hessian reference is limited to order <= 8")
    dec = spectral_decompose(y)
    if dec.lam[-1] <= 0.0:
        raise DomainViolation("reference Hessian needs a positive definite argument")
    u, lam = dec.U, dec.lam
    ctil = u.T @ obj.C @ u
    s = dense_sparse_core(obj.gen, lam, ctil)
    uu = np.kron(u, u)
    h = uu @ s @ uu.T
    p = sym_isometry(x.shape[0]) if obj.map is None else sym_map_matrix(obj.map)
    return symmetrize(p.T @ h @ p)


# ---------------------------------------------------------------------------
# instance audit
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float = 0.0


def problem_bundle(problem: ProblemSpec, x: np.ndarray,
                   want_hessian: bool = True) -> DerivativeBundle:
    """Objective-only bundle (no barriers) for an instance, offset included.

    The Hessian is the terms' svec Hessians summed, d x d. Without
    ``want_hessian`` the bundle holds the value alone, as a term's does.
    """
    value = problem.offset
    if not want_hessian:
        for t in problem.terms:
            value += t.evaluate(x, want_hessian=False).value
        return DerivativeBundle(value, None)
    grad = np.zeros(problem.n * problem.n)
    d = problem.n * (problem.n + 1) // 2
    hess = np.zeros((d, d))
    for t in problem.terms:
        b = t.evaluate(x)
        value += b.value
        grad += b.gradient
        hess += b.hessian
    return DerivativeBundle(value, grad, hess)


def derivative_audit(problem: ProblemSpec, rng, points: int = 3,
                     corrupt_hessian=None) -> list:
    """FD and invariant audit of an instance's objective at feasible points.

    Returns one CheckResult per check, aggregated (worst case) over the
    probed points. ``corrupt_hessian`` is a test hook that perturbs the
    analytic Hessian before checking, to prove the audit actually bites.
    """
    worst = {
        "gradient-vs-fd": 0.0,
        "hessian-action-vs-fd": 0.0,
        "hessian-symmetry": 0.0,
        "hessian-psd": -math.inf,
    }
    qre_terms = [t for t in problem.terms if isinstance(t, QreObjective)]
    if qre_terms:
        worst["qre-presym-asymmetry"] = 0.0
    p = sym_isometry(problem.n)
    for _ in range(points):
        # probe well inside the cone: central differences degrade as
        # 1/lambda_min powers near the boundary
        x = random_feasible_point(problem, rng, scale=0.2, margin=0.1 / problem.n)
        b = problem_bundle(problem, x)
        hess = b.hessian if corrupt_hessian is None else corrupt_hessian(b.hessian)

        g_fd = fd_gradient(lambda y: problem_bundle(problem, y, False).value, x)
        worst["gradient-vs-fd"] = max(
            worst["gradient-vs-fd"],
            float(np.linalg.norm(b.gradient - g_fd) / (1 + np.linalg.norm(g_fd))),
        )

        xi = symmetrize(rng.standard_normal(x.shape))
        act = hess @ (p.T @ vec(xi))
        act_fd = p.T @ fd_hessian_action(
            lambda y: problem_bundle(problem, y).gradient, x, xi)
        worst["hessian-action-vs-fd"] = max(
            worst["hessian-action-vs-fd"],
            float(np.linalg.norm(act - act_fd) / (1 + np.linalg.norm(act_fd))),
        )

        # unit floor in the normalizations: a degenerate objective (e.g.
        # identical maps) leaves only rounding noise in the Hessian, and
        # noise/noise ratios would be meaningless
        hnorm = max(float(np.linalg.norm(hess, 2)), 1.0)
        worst["hessian-symmetry"] = max(
            worst["hessian-symmetry"],
            float(np.linalg.norm(hess - hess.T) / hnorm),
        )
        lam_min = float(np.linalg.eigvalsh(symmetrize(hess)).min())
        worst["hessian-psd"] = max(worst["hessian-psd"], -lam_min / hnorm)

        for term in qre_terms:
            worst["qre-presym-asymmetry"] = max(
                worst["qre-presym-asymmetry"], qre_hessian_asymmetry(term, x))

    tolerances = {
        "gradient-vs-fd": 1e-6,
        "hessian-action-vs-fd": 1e-5,
        "hessian-symmetry": 1e-9,
        "hessian-psd": 1e-7,
        "qre-presym-asymmetry": 1e-8,
    }
    results = []
    for name, value in worst.items():
        tol = tolerances[name]
        if name == "hessian-psd":
            detail = f"min eigenvalue >= {-value:.3e} * ||H|| (tol -{tol:.0e})"
        else:
            detail = f"max rel err {value:.3e} (tol {tol:.0e})"
        results.append(CheckResult(name=name, passed=bool(value <= tol),
                                   detail=detail, value=value))
    return results


# ---------------------------------------------------------------------------
# reference optimizer
# ---------------------------------------------------------------------------

def _cone_margin(problem: ProblemSpec, x: np.ndarray) -> float:
    margin = float(np.linalg.eigvalsh(x).min())
    if problem.constraint_map is not None:
        margin = min(margin, float(np.linalg.eigvalsh(problem.constraint_map.apply(x)).min()))
    return margin


def reference_minimize(problem: ProblemSpec, x0: np.ndarray | None = None,
                       grad_tol: float = 1e-9, max_iter: int = 60000):
    """Projected-gradient reference optimum for tiny equality-constrained problems.

    Steepest descent on the equality tangent space with a Barzilai-Borwein
    step, nonmonotone Armijo backtracking (monotone descent would defeat
    the BB step on ill-conditioned near-boundary instances) and
    PSD-boundary backoff, run until the projected gradient norm falls
    below grad_tol relative to the gradient scale. Only ever used as a
    cross-check.
    """
    # order 4 admitted so the 2x2-subsystem entanglement toy fits
    if problem.n > 4:
        raise SizeGuard("reference optimizer is limited to order <= 4")
    if problem.constraints.n_ineq != 0:
        raise ValidationError("reference optimizer handles equality constraints only")
    x = problem.start if x0 is None else np.asarray(x0, dtype=float)
    if x is None:
        raise ValidationError("reference optimizer needs a starting point")
    x = symmetrize(x)

    def fn(x):
        b = problem_bundle(problem, x)
        return b.value, b.gradient

    veq = problem.constraints.vec_stack
    gram_inv = np.linalg.inv(veq @ veq.T)

    def project(gv):
        return gv - veq.T @ (gram_inv @ (veq @ gv))

    fval, gv = fn(x)
    pg = project(gv)
    step = 1.0 / (1.0 + float(np.linalg.norm(pg)))
    prev_x = prev_pg = None
    floor = 1e-13
    recent = [fval]

    for _ in range(max_iter):
        norm_pg = float(np.linalg.norm(pg))
        if norm_pg <= grad_tol * max(1.0, float(np.linalg.norm(gv))):
            return fval, x
        d = -symmetrize(pg.reshape(x.shape, order="F"))
        if prev_x is not None:
            dx = vec(x) - prev_x
            dg = pg - prev_pg
            denom = float(dx @ dg)
            if denom > 0:
                step = float(dx @ dx) / denom
        step = min(max(step, 1e-14), 1e8)
        prev_x, prev_pg = vec(x), pg

        f_bar = max(recent)
        t = step
        accepted = False
        for _ in range(80):
            cand = symmetrize(x + t * d)
            if _cone_margin(problem, cand) > floor:
                try:
                    fc, gc = fn(cand)
                except DomainViolation:
                    fc = math.inf
                if fc <= f_bar - 1e-4 * t * norm_pg**2:
                    x, fval, gv = cand, fc, gc
                    pg = project(gv)
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            raise OracleInconclusive(
                f"no acceptable step found (projected gradient norm {norm_pg:.3e})"
            )
        recent.append(fval)
        if len(recent) > 10:
            recent.pop(0)

    raise OracleInconclusive(
        f"projected gradient did not reach tolerance within {max_iter} iterations"
    )

"""Long-step path-following driver.

Every beta of a run is on the schedule beta_i = (1+theta)^i * beta0,
i = 0..K, whose last beta_K is the first at or above 4 r / epsilon. Each
outer iteration (a centering) re-centers F_beta = beta f + B by damped
Newton steps until the Newton decrement passes the gate
delta <= 1/(3 kappa) (kappa = M/2 = 2, below; ``DELTA_STAR``), and the
run stops after its centering at beta_K. One loop runs every centering:
the first, at beta0, supplies the centered point the predictions presume.

Between centerings the run predicts along the central path (Nesterov
and Nemirovski 1994; Gonzaga, SIAM Review 34, 1992). At x(beta),
beta grad f + grad B + A^T lambda = 0 with A x = b, so the tangent
xdot = dx/dbeta solves the Newton system of F_beta at x with the
gradient grad f, the sum of the unscaled objective parts the point
holds. The centered point holds the gate check that ended its centering
(``EvalPoint.system``), whose step keeps its factor
(``kkt.NewtonStep.solve``), so xdot costs two triangular solves. Late in
a run x(beta) ~ x* + c / beta, so the predicted point is
x_p = x + (beta' - beta)(beta / beta') xdot, at beta' = min(mu beta, beta_K).
mu starts at 1 + theta, is squared after each accepted prediction and
goes back to 1 + theta after a rejection, so every beta' is a beta_i and
the last beta is beta_K. A prediction is accepted when x_p is strictly
feasible and passes the gate at beta'; that centering takes no Newton
step. Accepted or not, the next centering is at beta': after a
rejection it starts from whichever of x_p and x has the lower F_beta',
both values read from the parts the two points hold, so nothing is
evaluated again, and when x_p wins its Hessian and Newton system at
beta' serve the first corrector step; the other point's parts are
released at once. An x_p outside the domain is rejected at its
evaluation, and the run centers from x.

The corrector after a rejection is a long step. The theory's per-outer
cap bounds the damped-Newton steps of a centering by
F_beta'(start) - min F_beta' over the least decrease per step, where the
start is x(beta) and beta' = (1 + theta) beta; the cap is that
difference's bound, an expression in theta and r. Nothing in the bound
asks the ratio beta'/beta to be the schedule's, so read with
theta' = beta'/beta - 1 in place of theta it bounds the re-centering
from x(beta) at any beta' > beta. A centering that advances the
schedule by s exponents thus has the per-outer cap at
theta' = (1 + theta)^s - 1 as its step limit; at s = 1 that is the
per-outer cap itself. The run starts the corrector from x or from a
point of lower F_beta', which only shrinks the difference. An accepted
prediction takes no step, and every centering still ends at the gate,
so the proximity certificates keep their meaning. A prediction is not
a Newton step: the step counts and the caps count Newton steps only,
and the report counts predictions apart.

Step lengths come from self-concordance where it applies. Every objective
term f is 1-compatible with the barrier B: |D^3 f[h,h,h]| <= 3 D^2 f[h,h]
sqrt(D^2 B[h,h]), the constant 3 that acceptance criterion 6 checks for
the trace objectives (Faybusovich and Tsuchiya 2017 give it for matrix
monotone objectives and the relative entropy). B is B_X, plus
-ln det L(X) with a constraint map, where the barrier of X's domain is
B_X = -ln det X - sum_i ln s_i with s = b - A_ineq(X); a sum of
self-concordant barriers is one, and its extra terms only enlarge D^2 B,
so the bound holds against the whole of B. Both sides scale alike with
beta, so by Nesterov and Nemirovski's compatibility proposition (1994,
with compatibility constant 1) F_beta is self-concordant with
M = 2 (1 + 1) = 4 for every beta > 0, and kappa = M/2 = 2 is the one
constant of the gate, the caps and the certificates. For such an F and
lambda = (M/2) delta < 1, the full Newton step x + p stays in the domain
and
    F(x + p) - F(x) <= -(4/M^2) (lambda^2 + lambda + ln(1 - lambda)),
which is a strict decrease while lambda is below 0.6838. So ``center``
takes alpha = 1 with no value test whenever (M/2) delta <= 0.68
(delta <= 0.34) and -ln det X is one of the terms; without it F_beta is
not self-concordant and every step is line-searched. Outside the band the
line search backtracks from the feasibility boundary (slack ratios and,
for X and each map cone Y = O Lam O.T, the most negative eigenvalue of
Lam^-1/2 O.T P O Lam^-1/2, read from the decompositions the current
point already holds) and accepts on a value decrease only.

F_beta is evaluated from one ordered term list: the problem's objective
terms (trace objectives, or the relative entropy), each scaled by beta,
then the barriers, B_X and, with a constraint map, -ln det L(X). F_beta
is evaluated in two modes: the value alone at a line-search trial, and
value, gradient and Hessian at a Newton iterate. Each evaluation reads
the evaluation point (``objectives.EvalPoint``) of its X, which
decomposes X and each map image once; the iterate is its point. The
line search's value at alpha = 0 is the sum of the term values that the
Hessian evaluation there left on the point, with no term evaluated
again, and the line search hands back the point of the trial
it accepts, which becomes the next iterate with the decompositions its
value test made. A Hessian evaluation keeps its unscaled per-term
derivatives on its point, and since H_beta = beta H_f + H_B, a centering
that starts where the previous one stopped recombines them at the new
beta instead of evaluating anew; an evaluation at another point takes
nothing from the iterate's. A solve thus makes one Hessian evaluation
at the start, one per Newton step and one per prediction, at x_p,
accepted or rejected. It solves one Newton system per Hessian
evaluation, plus one where a rejected prediction's corrector starts
from x, whose bundles are recombined at beta'; the report counts both.
Every bundle is on the
svec coordinates of X's eigenbasis U, which the point holds
(``objectives``); the Newton system is solved in them (``kkt``), and the
slope along a direction P is g~ . svec(U.T P U).

The run is fixed by beta0, theta and epsilon alone. The theory caps
each centering at 22/3 + 22 theta (5/2 kappa sqrt(r) + theta kappa^2 r / (theta+1))
Newton steps (``per_outer_cap``), and the run at that times
ln(4r/(eps beta0)) / ln(1+theta) (``iteration_bound``).
The per-outer cap at the ratio a centering takes (above) is its step
limit, so IterCap means that one centering reached it. The report holds
the per-outer cap, each centering's cap and two totals, and checks
every centering against its own cap and the run against both totals:
- ``total_cap``, the per-outer cap at theta times the real
  ln(4r/(eps beta0)) / ln(1+theta), which the schedule's step count
  rounds up (30.16 against 31 steps at r = 3 with the defaults), is the
  theory's total for the plain schedule, which centers at every
  (1 + theta)^i beta0. It stays as the paper states it.
- ``centering_caps_total``, the sum of the run's centering caps, is the
  total the theory backs for this run: a corrector that advances s
  exponents has the per-outer cap at theta' = (1 + theta)^s - 1, which
  can exceed ``total_cap`` alone, so only this sum bounds a run whose
  correctors take long steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DecompositionFailure,
    DomainViolation,
    InfeasibleStart,
    IterCap,
    LineSearchFailure,
    QipError,
    SingularKKT,
)
from .kkt import NewtonStep, newton_step_type1
from .matfun import svec, symmetrize
from .objectives import (
    DerivativeBundle,
    EvalPoint,
    LogDetBarrier,
    combine_terms,
    combine_values,
    evaluate_terms,
)
from .probio import ProblemSpec, barrier_parameter, start_violation
from .qre import QreObjective


# line search: first trial step as a fraction of the distance to the
# boundary, shrink factor per backtrack, and the backtrack budget
LS_BOUNDARY_FRACTION = 0.99
LS_SHRINK = 0.5
LS_MAX_BACKTRACKS = 60

# self-concordance constant M = 2 (1 + beta_c) of F_beta, beta_c = 1 the
# compatibility constant (module docstring), and the largest (M/2) delta
# at which the full Newton step is taken without a line search: just
# below 0.6838, the root of lambda^2 + lambda + ln(1 - lambda) = 0
SELF_CONCORDANCE_M = 4.0
FULL_STEP_RADIUS = 0.68

# kappa = M/2 of the decrement gate delta <= 1/(3 kappa), the complexity
# caps and the proximity certificates (module docstring)
KAPPA = SELF_CONCORDANCE_M / 2.0
DELTA_STAR = 1.0 / (3.0 * KAPPA)

# the work a solve counts (FBetaEvaluator.counts), reported by these names
COUNTS = ("hessian_evals", "value_evals", "kkt_solves", "backtracks")


@dataclass(frozen=True)
class SolverConfig:
    beta0: float = 1.0
    theta: float = 1.0
    epsilon: float = 1e-8

    def __post_init__(self):
        # beta must grow in floating point, or the schedule never ends
        if self.beta0 <= 0 or not 1.0 + self.theta > 1.0 or self.epsilon <= 0:
            raise ValueError("beta0 and epsilon must be positive, and 1 + theta > 1")
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")


@dataclass(eq=False)
class SolveReport:
    f_min: float
    X_star: np.ndarray
    outer_iters: int
    inner_iters_per_outer: list
    total_newton: int
    predictions_accepted: int
    predictions_rejected: int
    decrement_trace: list
    wall_time: float
    termination: str
    bound_check: dict
    beta_final: float
    barrier_param_r: float
    gap_certificates: list
    f_start: float
    feas_residual: float
    schur_condition_max: float
    heuristic_no_barrier: bool
    hessian_evals: int
    value_evals: int
    kkt_solves: int
    backtracks: int
    name: str = ""
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field, JSON-ready: X_star as nested lists."""
        return {**asdict(self), "X_star": self.X_star.tolist()}


@dataclass(eq=False)
class _Run:
    """A solve's progress, which ``center`` updates step by step.

    The iterate's point, the Newton steps of each centering (the last one
    counts the steps of the centering in progress) and its cap, one
    (beta, delta) pair per decrement a centering computed, one gap
    certificate per finished centering, the largest Schur condition so
    far, and the predictions accepted and rejected.
    """

    point: EvalPoint
    steps: list = field(default_factory=list)
    caps: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    max_cond: float = 1.0
    accepted: int = 0
    rejected: int = 0


class FBetaEvaluator:
    """F_beta = beta f + B for one problem instance, as one ordered term list.

    ``terms`` holds the problem's objective terms, each scaled by beta,
    then the barriers: B_X, -ln det X with the logs of the inequality
    slacks (unless ``include_barrier`` is false), and -ln det L(X) when
    the problem has a constraint map. Each term yields an unscaled
    DerivativeBundle, and a bundle of F_beta is their sum in that order
    (``combine_terms``).

    Every evaluation takes the ``EvalPoint`` of its X, which the caller
    holds and all terms share, so X and each map image are decomposed once
    per point. The evaluator keeps nothing between calls that an
    evaluation reads. A value-only evaluation computes the terms' values
    alone, with no gradient.

    ``counts`` is the work of the solve that owns the evaluator: the
    Hessian and value-only evaluations of the terms, counted here, and
    the KKT solves and line-search backtracks, counted by
    ``newton_system`` and ``line_search``, which receive the evaluator.

    A Hessian evaluation leaves its per-term bundles on its point
    (``EvalPoint.parts``). Since H_beta = beta H_f + H_B, ``hessian_bundle``
    at a point that holds them recombines them at another beta instead of
    evaluating anew: every centering starts where the previous one
    stopped, so its first Newton system needs no new derivatives. A
    value-only evaluation at such a point sums their values, so the line
    search's value at alpha = 0 evaluates no term. Evaluations at other
    points leave them in place.
    """

    def __init__(self, problem: ProblemSpec, include_barrier: bool = True):
        self.problem = problem
        barriers = [LogDetBarrier(None, problem.constraints)] if include_barrier else []
        if problem.constraint_map is not None:
            barriers.append(LogDetBarrier(problem.constraint_map))
        self.terms = (*problem.terms, *barriers)
        self.n_scaled = len(problem.terms)
        # F_beta is self-concordant only when -ln det X is one of its terms
        self.self_concordant = include_barrier
        self.counts = dict.fromkeys(COUNTS, 0)

    def x_bundle(self, point: EvalPoint, beta, want_hessian=True) -> DerivativeBundle:
        """Evaluate F_beta at the X of ``point``.

        Without ``want_hessian`` only the value is computed (gradient
        None), and at a point that holds its per-term bundles it is their
        ``combine_values``, the same bits as evaluating the terms anew (a
        term's value is one expression in both modes). A Hessian
        evaluation keeps its per-term bundles on the point.
        """
        if not want_hessian and point.parts is not None:
            return DerivativeBundle(value=combine_values(beta, point.parts, self.n_scaled),
                                    gradient=None)
        self.counts["hessian_evals" if want_hessian else "value_evals"] += 1
        parts = evaluate_terms(self.terms, self.n_scaled, point, want_hessian)
        if want_hessian:
            point.parts = parts
        return combine_terms(beta, parts, self.n_scaled)

    def hessian_bundle(self, point: EvalPoint, beta) -> DerivativeBundle:
        """F_beta with its Hessian; recombined when the point holds its bundles."""
        if point.parts is not None:
            return combine_terms(beta, point.parts, self.n_scaled)
        return self.x_bundle(point, beta, want_hessian=True)

    def value(self, point: EvalPoint, beta) -> float:
        """F_beta at the X of ``point``; +inf outside the open domain."""
        try:
            return self.x_bundle(point, beta, want_hessian=False).value
        except DomainViolation:
            return math.inf


def directional_derivative(gradient: np.ndarray, step: NewtonStep) -> float:
    """<grad F_beta, P>, the slope of F_beta along the step.

    ``gradient`` is on the svec coordinates of the basis U of the step's
    system. The slope is computed here from the direction itself, the one
    ``center`` moves along, as g~ . svec(U.T P U), not taken from the KKT
    solve.
    """
    u = step.system.basis
    return float(gradient @ svec(u.T @ step.direction_X @ u))


def cone_step_bound(p_tilde: np.ndarray, lam: np.ndarray) -> float:
    """Largest alpha with Y + alpha P still positive definite, from Y's decomposition.

    ``p_tilde`` is O.T P O and ``lam`` the eigenvalues of Y = O Lam O.T > 0.
    Y + alpha P = O Lam^1/2 (I + alpha W) Lam^1/2 O.T with
    W = Lam^-1/2 P~ Lam^-1/2, so the bound is -1 / lambda_min(W) when
    lambda_min is negative beyond roundoff, else inf. W's eigenvalues are
    those of the pencil (P, Y).
    """
    s = 1.0 / np.sqrt(lam)
    w, _, info = lapack.dsyevd(p_tilde * (s[:, None] * s), compute_v=0)
    if info != 0:
        raise DecompositionFailure(f"eigenvalues of the scaled step failed (info {info})")
    wmin = float(w[0])
    if wmin < -1e-14 * max(1.0, float(np.abs(w).max())):
        return -1.0 / wmin
    return math.inf


def max_feasible_step(point: EvalPoint, step: NewtonStep, evaluator: FBetaEvaluator) -> float:
    """Largest alpha keeping X + alpha P in the domain: X, L(X) definite, slacks positive.

    Each cone's bound reads the decomposition of its image at X from the
    iterate's point, which its Hessian evaluation made, so no decomposition
    is computed for it. A slack s_i falling at the rate <A_i, P> > 0 bounds
    alpha by s_i / <A_i, P>.
    """
    bounds = [math.inf]
    p = step.direction_X
    if np.linalg.norm(p) > 0:
        _, dec = point.pd_image("iterate X")
        bounds.append(cone_step_bound(dec.U.T @ p @ dec.U, dec.lam))
    cons = evaluator.problem.constraints
    if cons.n_ineq:
        rate = cons.svec_rows[:cons.n_ineq] @ svec(p)
        falls = rate > 0
        if np.any(falls):
            bounds.append(float(np.min(cons.slacks(point.x)[falls] / rate[falls])))
    lmap = evaluator.problem.constraint_map
    if lmap is not None:
        yp = lmap.apply(p)
        if np.linalg.norm(yp) > 0:
            _, dec = point.pd_image("mapped iterate L(X)", lmap)
            bounds.append(cone_step_bound(dec.U.T @ yp @ dec.U, dec.lam))
    return min(bounds)


def line_search(point: EvalPoint, step: NewtonStep, beta: float,
                evaluator: FBetaEvaluator) -> tuple[float, EvalPoint]:
    """Backtrack from min(1, fraction * alpha_max) until F_beta decreases.

    ``point`` is the iterate's. The only acceptance rule is a value
    decrease: the first trial step at which F_beta is below its value at
    alpha = 0 is returned, as alpha and the trial's point, which keeps the
    decompositions of its value test; if none of LS_MAX_BACKTRACKS trials
    is, LineSearchFailure is raised. Every rejected trial counts as a
    backtrack on ``evaluator.counts``. ``center`` calls this only outside
    the band in which self-concordance certifies the full step (module
    docstring).
    """
    f0 = evaluator.value(point, beta)
    if not math.isfinite(f0):
        raise DomainViolation("line search started outside the domain")
    amax = max_feasible_step(point, step, evaluator)
    alpha = min(1.0, LS_BOUNDARY_FRACTION * amax)
    for _ in range(LS_MAX_BACKTRACKS):
        # X and P are exactly symmetric, so X + alpha P is
        trial = EvalPoint(point.x + alpha * step.direction_X)
        if evaluator.value(trial, beta) < f0:
            return alpha, trial
        evaluator.counts["backtracks"] += 1
        alpha *= LS_SHRINK
    raise LineSearchFailure(
        f"no decrease after {LS_MAX_BACKTRACKS} backtracks (delta={step.decrement:.3e})"
    )


def certified_full_step(evaluator: FBetaEvaluator, delta: float) -> bool:
    """Whether self-concordance certifies the full Newton step at decrement delta."""
    return evaluator.self_concordant and 0.5 * SELF_CONCORDANCE_M * delta <= FULL_STEP_RADIUS


def newton_system(run: _Run, beta: float, evaluator: FBetaEvaluator):
    """(gradient, step): F_beta's gradient and Newton step at the iterate.

    Reused from the iterate's point (``EvalPoint.system``) when it holds
    them at beta, as after a prediction; otherwise solved, with the Schur
    condition recorded and the solve counted, and kept on the point.
    """
    if run.point.system is None or run.point.system[0] != beta:
        bundle = evaluator.hessian_bundle(run.point, beta)
        evaluator.counts["kkt_solves"] += 1
        step = newton_step_type1(bundle, evaluator.problem.constraints)
        run.max_cond = max(run.max_cond, step.schur_condition)
        run.point.system = (beta, bundle.gradient, step)
    return run.point.system[1:]


def predict(run: _Run, beta_pred: float, evaluator: FBetaEvaluator) -> bool:
    """Move the centered iterate along the tangent to ``beta_pred``; whether it is accepted.

    ``run.point.system`` must be the gate check that centered it. The
    predicted point is accepted when it is strictly feasible and its
    decrement at ``beta_pred`` passes the gate ``DELTA_STAR``; the run
    then holds it, with that check as its system. Otherwise the run holds whichever of
    the predicted and the centered point has the lower F at ``beta_pred``
    (module docstring), or the centered point when the predicted one is
    outside the domain. Any other QipError of the predicted point's
    evaluation is raised with the run left at the centered point.
    """
    x = run.point
    beta_c, _, step = x.system
    n = evaluator.n_scaled
    grad_f = sum((part.gradient for part in x.parts[:n]), np.zeros_like(x.parts[0].gradient))
    tangent, _ = step.solve(grad_f)
    run.point = EvalPoint(x.x + (beta_pred - beta_c) * (beta_c / beta_pred) * tangent)
    try:
        _, trial = newton_system(run, beta_pred, evaluator)
    except QipError as exc:
        run.point = x  # a prediction that fails its evaluation leaves the run in place
        if not isinstance(exc, DomainViolation):
            raise
        run.rejected += 1
        return False
    if trial.decrement <= DELTA_STAR:
        run.accepted += 1
        return True
    run.rejected += 1
    if not combine_values(beta_pred, run.point.parts, n) < combine_values(beta_pred, x.parts, n):
        run.point = x
    return False


def center(run: _Run, beta: float, evaluator: FBetaEvaluator, max_steps: int,
           callback=None, predict_first: bool = False) -> bool:
    """Newton-iterate ``run.point`` at fixed beta until the decrement passes ``DELTA_STAR``.

    With ``predict_first``, the iterate is centered at a beta below
    ``beta`` and its point holds its gate check: ``predict`` first tries
    the tangent predictor to ``beta``. If that is accepted, the run is
    centered there with no step and True is returned; otherwise the
    centering at ``beta`` starts from the point ``predict`` chose.

    Opens a step count on ``run.steps`` and, as it goes, records every
    decrement it computes (gate value included) as a (beta, delta) pair on
    ``run.trace`` and every Schur condition in ``run.max_cond``. After
    ``max_steps`` steps it raises IterCap. ``callback`` receives one dict
    per step taken: beta, delta, alpha, and f, feas_residual and x at the
    new iterate. A step that is not a descent direction raises SingularKKT
    before the line search. A step inside the self-concordance band
    (``certified_full_step``) is taken whole, with no line search, to a new
    point; every other one is line-searched, and the new iterate adopts the
    accepted trial's point. When a QipError is raised, ``run`` holds
    the last iterate reached and counts the steps taken (with a callback,
    exactly those it was given).
    """
    problem = evaluator.problem
    run.steps.append(0)
    accepted = predict_first and predict(run, beta, evaluator)
    for _ in range(max_steps):
        point = run.point
        gradient, step = newton_system(run, beta, evaluator)
        run.trace.append((beta, step.decrement))
        if step.decrement <= DELTA_STAR:
            return accepted
        slope = directional_derivative(gradient, step)
        if slope >= 0.0:
            raise SingularKKT(f"Newton direction is not a descent direction: "
                              f"<grad F, p> = {slope:.3e} at beta={beta:.3e}")
        if certified_full_step(evaluator, step.decrement):
            alpha, new = 1.0, EvalPoint(point.x + step.direction_X)
        else:
            alpha, new = line_search(point, step, beta, evaluator)
        if callback is not None:
            # before the step is committed: an error raised while the
            # record is built leaves uncounted a step no callback saw
            callback({
                "beta": beta,
                "delta": step.decrement,
                "alpha": alpha,
                "f": problem.objective_at(new),
                "feas_residual": _feas_residual(problem, new.x),
                "x": new.x,
            })
        run.point = new
        run.steps[-1] += 1
    raise IterCap(f"centering at beta={beta:.3e} reached the cap of {max_steps} Newton steps")


def _feas_residual(problem: ProblemSpec, x) -> float:
    """Largest scaled equality residual; the inequality rows hold inside the domain."""
    cons = problem.constraints
    m = cons.n_ineq
    res = cons.residuals(x)[m:] / (1.0 + np.abs(cons.rhs[m:]))
    return float(np.abs(res).max(initial=0.0))


def proximity_gap_bound(delta: float, beta: float, r: float, kappa: float) -> float:
    """Certified |f(x) - f(x(beta))| bound at a centered point."""
    d1 = 1.0 - 2.25 * kappa * delta
    d2 = 1.0 - kappa * delta
    if d1 <= 0 or d2 <= 0:
        return math.inf
    return (delta / d1) * ((1.0 + kappa * delta**2) / d2) * math.sqrt(r) / beta


def per_outer_cap(theta: float, r: float) -> float:
    """The theory's cap on the Newton steps of one centering, from beta to (1+theta) beta."""
    kp = KAPPA
    return 22.0 / 3.0 + 22.0 * theta * (2.5 * kp * math.sqrt(r)
                                        + theta * kp**2 * r / (theta + 1.0))


def iteration_bound(config: SolverConfig, r: float):
    """(per-outer cap, total cap) on Newton steps for barrier parameter r."""
    per_outer = per_outer_cap(config.theta, r)
    n_outer = math.log(4.0 * r / (config.epsilon * config.beta0)) / math.log1p(config.theta)
    total = max(n_outer, 0.0) * per_outer
    return per_outer, total


def schedule_end(config: SolverConfig, r: float) -> int:
    """K, the exponent of the schedule's last beta: the least beta0 (1+theta)^K >= 4r/epsilon."""
    beta_stop = 4.0 * r / config.epsilon
    k = max(0, math.ceil(math.log(beta_stop / config.beta0) / math.log1p(config.theta)))
    # the estimate is off by one at most where the logarithms round
    while k > 0 and config.beta0 * (1.0 + config.theta) ** (k - 1) >= beta_stop:
        k -= 1
    while config.beta0 * (1.0 + config.theta) ** k < beta_stop:
        k += 1
    return k


def solve(problem: ProblemSpec, config: SolverConfig | None = None, callback=None,
          include_barrier: bool = True) -> SolveReport:
    """Run the full path-following scheme and return a SolveReport.

    The problem's start must be n x n, finite and strictly feasible
    (``probio.start_violation``; InfeasibleStart otherwise). One loop
    centers at beta0, then at each beta the predictions reach. Each
    centering may take at most ``per_outer_cap`` Newton steps at the ratio
    of the betas it moves between (module docstring), the first at theta;
    one that reaches it ends the run with an IterCap report. Any other QipError raised while
    centering re-raises with the phase and a NumericalFailure report
    attached; like an IterCap report, it is built at the iterate where
    centering stopped, not at the last centered point, and counts the
    steps of that centering. ``include_barrier=False`` drops the barrier
    of X's domain, a heuristic admitted only when every objective term is
    a relative entropy (qkd problems) and there are no inequality rows,
    whose logs that barrier holds; otherwise it raises ValueError.
    """
    if not include_barrier and (problem.constraints.n_ineq or not all(
            isinstance(t, QreObjective) for t in problem.terms)):
        raise ValueError("include_barrier=False is only supported on qkd problems "
                         "(relative-entropy objectives) with equality rows only: it "
                         "drops -ln det X and the inequality slacks' logs")
    config = config or SolverConfig()
    if problem.start is None:
        raise InfeasibleStart("no starting point supplied")
    # checked raw: symmetrize of a non-square start raises numpy's broadcast error
    why = start_violation(problem, problem.start)
    if why:
        raise InfeasibleStart(why)
    x0 = symmetrize(problem.start)

    r = barrier_parameter(problem)
    caps = iteration_bound(config, r)
    evaluator = FBetaEvaluator(problem, include_barrier=include_barrier)
    run = _Run(EvalPoint(x0))

    t_start = time.perf_counter()
    f_start = problem.objective_at(run.point)
    last = schedule_end(config, r)
    termination = "Converged"
    failure = None
    # the centering at beta0 (1+theta)^i, i = 0..last; after the first, a
    # prediction reaches it ``span`` exponents ahead, and its cap is the
    # per-outer cap at theta' = (1+theta)^span - 1 (module docstring): at
    # span 1 the per-outer cap itself, like the first centering's
    i, span, cap = 0, 1, caps[0]
    try:
        while True:
            run.caps.append(cap)
            beta = config.beta0 * (1.0 + config.theta) ** i
            accepted = center(run, beta, evaluator, math.floor(cap), callback=callback,
                              predict_first=i > 0)
            run.gaps.append(proximity_gap_bound(run.trace[-1][1], beta, r, KAPPA))
            if i == last:
                break
            span = min(2 * span if accepted else 1, last - i)
            cap = caps[0] if span == 1 else per_outer_cap((1.0 + config.theta) ** span - 1.0, r)
            i += span
    except IterCap:
        termination = "IterCap"
    except QipError as exc:  # ``run`` holds the iterate it was raised at
        termination, failure = "NumericalFailure", exc

    report = _build_report(evaluator, run, config, caps, beta, r, f_start,
                           time.perf_counter() - t_start, termination)
    if failure is not None:
        failure.phase = f"outer {len(run.steps) - 1}, beta={beta:.6e}"
        failure.report = report
        failure.args = (f"{failure.args[0]} [phase: {failure.phase}]",) + failure.args[1:]
        raise failure
    return report


def _build_report(evaluator, run, config, caps, beta, r, f_start, wall, termination):
    problem, include_barrier = evaluator.problem, evaluator.self_concordant
    per_outer, total_cap = caps
    total, caps_total = sum(run.steps), sum(run.caps)
    bound_check = {
        "per_outer_cap": per_outer,
        "total_cap": total_cap,
        "centering_caps": list(run.caps),
        "centering_caps_total": caps_total,
        "per_outer_max": max(run.steps),
        "total_newton": total,
        "within_caps": total <= total_cap and total <= caps_total and all(
            steps <= cap for steps, cap in zip(run.steps, run.caps)),
    }
    cfg = {"beta0": config.beta0, "theta": config.theta, "epsilon": config.epsilon,
           "kappa": KAPPA, "barrier_param_r": r, "include_barrier": include_barrier}
    return SolveReport(
        f_min=problem.objective_at(run.point),
        X_star=run.point.x,
        outer_iters=len(run.steps),
        inner_iters_per_outer=list(run.steps),
        total_newton=total,
        predictions_accepted=run.accepted,
        predictions_rejected=run.rejected,
        decrement_trace=run.trace,
        wall_time=wall,
        termination=termination,
        bound_check=bound_check,
        beta_final=beta,
        barrier_param_r=r,
        gap_certificates=run.gaps,
        f_start=f_start,
        feas_residual=_feas_residual(problem, run.point.x),
        schur_condition_max=run.max_cond,
        heuristic_no_barrier=not include_barrier,
        **evaluator.counts,
        name=problem.name,
        config=cfg,
    )

"""Long-step path-following driver.

Outer iterations grow beta geometrically, beta_i = (1+theta)^i * beta0;
each outer iteration re-centers F_beta = beta f + B by damped Newton
steps until the Newton decrement passes the gate delta <= 1/(3 kappa)
(kappa = M/2 = 2, below),
and the run stops once beta >= 4 r / epsilon. An initial damped-Newton
phase at beta0 supplies the centered starting point the outer loop
presumes.

Step lengths come from self-concordance where it applies. Every objective
term f is 1-compatible with the barrier B: |D^3 f[h,h,h]| <= 3 D^2 f[h,h]
sqrt(D^2 B[h,h]), the constant 3 that acceptance criterion 6 checks for
the trace objectives (Faybusovich and Tsuchiya 2017 give it for matrix
monotone objectives and the relative entropy).
B = -ln det X, plus -ln det L(X) with a constraint map and -ln s_i per
inequality slack, is a self-concordant barrier, and its extra terms only
enlarge D^2 B, so the bound holds against the whole of B. Both sides scale
alike with beta, so by Nesterov and Nemirovski's compatibility proposition
(1994, with compatibility constant 1) F_beta is self-concordant with
M = 2 (1 + 1) = 4 for every beta > 0, and kappa = M/2 = 2 is the one
constant of the gate, the caps and the certificates. For
such an F and lambda = (M/2) delta < 1, the full Newton step x + p stays
in the domain and
    F(x + p) - F(x) <= -(4/M^2) (lambda^2 + lambda + ln(1 - lambda)),
which is a strict decrease while lambda is below 0.6838. So ``center``
takes alpha = 1 with no value test whenever (M/2) delta <= 0.68
(delta <= 0.34) and -ln det X is one of the terms; without it F_beta is
not self-concordant and every step is line-searched. Outside the band the
line search backtracks from the feasibility boundary (most negative
generalized eigenvalue of the step against the current point, slack
ratios, and map-cone boundaries) and accepts on a value decrease only;
the slope fallback it once had for F_beta's value noise at large beta is
gone, since the steps that needed it lie inside the band.

F_beta is evaluated from one ordered term list: the problem's objective
terms (trace objectives, or the relative entropy), each scaled by beta,
then the log-det barriers on X and, when the problem has a constraint
map, on L(X); inequality rows add one log per slack. F_beta is
evaluated in two modes: the value alone at a line-search trial, and
value, gradient and Hessian at a Newton iterate. Each evaluation reads
one evaluation point (``objectives.EvalPoint``) that decomposes X and
each map image once, and the point of the last evaluation is kept: the
line search's value at alpha = 0 reads the Hessian evaluation's
decompositions, and the Hessian evaluation at an accepted trial reads
the trial's. A Hessian evaluation keeps its unscaled per-term
derivatives on its point, and since H_beta = beta H_f + H_B, a
centering that starts where the previous one stopped recombines them at
the new beta instead of evaluating anew. A solve thus makes one Hessian
evaluation per Newton step plus one at the start.

Complexity caps from the underlying theory are evaluated alongside every
run: per outer iteration at most 22/3 + 22 theta (5/2 kappa sqrt(r) +
theta kappa^2 r / (theta+1)) Newton steps, and that times
ln(4r/(eps beta0)) / ln(1+theta) in total. Both are attached to the
report and checked against the observed counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DomainViolation,
    InfeasibleStart,
    IterCap,
    LineSearchFailure,
    QipError,
    SingularKKT,
)
from .kkt import NewtonStep, newton_step_type1
from .matfun import symmetrize, vec
from .objectives import (
    DerivativeBundle,
    EvalPoint,
    LogDetBarrier,
    combine_terms,
    evaluate_terms,
)
from .probio import ProblemSpec, barrier_parameter, feasibility_violations
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


@dataclass(frozen=True)
class SolverConfig:
    beta0: float = 1.0
    theta: float = 1.0
    epsilon: float = 1e-8
    max_outer: int = 200
    max_inner: int = 500

    def __post_init__(self):
        if self.beta0 <= 0 or self.theta <= 0 or self.epsilon <= 0:
            raise ValueError("beta0, theta and epsilon must be positive")


@dataclass
class SolveReport:
    f_min: float
    X_star: np.ndarray
    outer_iters: int
    inner_iters_per_outer: list
    total_newton: int
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
    name: str = ""
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field, JSON-ready: X_star as nested lists."""
        return {**asdict(self), "X_star": self.X_star.tolist()}


@dataclass
class _State:
    x: np.ndarray
    slacks: np.ndarray


class FBetaEvaluator:
    """F_beta = beta f + B for one problem instance, as one ordered term list.

    ``terms`` holds the problem's objective terms, each scaled by beta,
    then the barriers: -ln det X (unless ``include_barrier`` is false)
    and -ln det L(X) when the problem has a constraint map. Each term
    yields an unscaled DerivativeBundle, and a bundle of F_beta is their
    sum in that order (``combine_terms``). The inequality slacks' logs
    are added to values only; their derivatives enter the Newton step.

    Every evaluation reads one ``EvalPoint`` of its X, shared by all terms,
    so X and each map image are decomposed once, and the point of the last
    evaluation is the one thing kept: the line search's value at alpha = 0
    reads the decompositions of the Hessian evaluation at the same X, and
    the Hessian evaluation at an accepted trial reads those of the trial,
    which is the same ``symmetrize(x + alpha p)`` array bit for bit. A
    value-only evaluation computes the terms' values alone, with no gradient.

    A Hessian evaluation leaves its per-term bundles on its point
    (``EvalPoint.parts``). Since H_beta = beta H_f + H_B, ``hessian_bundle``
    at the kept point's X and another beta recombines them instead of
    evaluating anew: every centering starts where the previous one
    stopped, so its first Newton system needs no new derivatives. An
    evaluation at another X replaces the point, and its bundles with it.
    """

    def __init__(self, problem: ProblemSpec, include_barrier: bool = True):
        self.problem = problem
        barriers = [LogDetBarrier()] if include_barrier else []
        if problem.constraint_map is not None:
            barriers.append(LogDetBarrier(problem.constraint_map))
        self.terms = (*problem.terms, *barriers)
        self.n_scaled = len(problem.terms)
        # F_beta is self-concordant only when -ln det X is one of its terms
        self.self_concordant = any(isinstance(t, LogDetBarrier) and t.map is None
                                   for t in self.terms)
        self._point = None

    def objective(self, x) -> float:
        return self.problem.objective_value(x)

    def _point_at(self, x) -> EvalPoint:
        """The kept point when it is at X, else a new point at X, which is kept."""
        if self._point is None or not np.array_equal(x, self._point.x):
            self._point = EvalPoint(x)
        return self._point

    def x_bundle(self, x, beta, want_hessian=True) -> DerivativeBundle:
        """Evaluate the X-block of F_beta at X (slack block excluded).

        Without ``want_hessian`` only the value is computed (gradient
        None). A Hessian evaluation keeps its per-term bundles on the point.
        """
        point = self._point_at(x)
        parts = evaluate_terms(self.terms, self.n_scaled, point.x, want_hessian, point=point)
        if want_hessian:
            point.parts = parts
        return combine_terms(beta, parts, self.n_scaled)

    def hessian_bundle(self, x, beta) -> DerivativeBundle:
        """X-block of F_beta with its Hessian; recombined when X is the kept iterate."""
        point = self._point
        if point is not None and point.parts is not None and np.array_equal(x, point.x):
            return combine_terms(beta, point.parts, self.n_scaled)
        return self.x_bundle(x, beta, want_hessian=True)

    def value(self, x, slacks, beta) -> float:
        """Full F_beta including slack logs; +inf outside the open domain."""
        try:
            v = self.x_bundle(x, beta, want_hessian=False).value
        except DomainViolation:
            return math.inf
        if slacks.size:
            if slacks.min() <= 0.0:
                return math.inf
            v -= float(np.sum(np.log(slacks)))
        return v

    def feasibility_maps(self):
        lmap = self.problem.constraint_map
        return [] if lmap is None else [lmap]

    def newton_step(self, bundle, state) -> NewtonStep:
        # with no inequality rows there are no slacks: the structure-II step
        return newton_step_type1(bundle, state.slacks, self.problem.constraints)


def _refresh_slacks(problem: ProblemSpec, x) -> np.ndarray:
    m = problem.constraints.n_ineq
    if m == 0:
        return np.zeros(0)
    cons = problem.constraints
    vals = np.array([float(np.tensordot(a, x)) for a in cons.mats[:m]])
    return cons.rhs[:m] - vals


def directional_derivative(gradient: np.ndarray, slacks: np.ndarray, step: NewtonStep) -> float:
    """<grad F_beta, p> + <grad_s F_beta, q>, the slope of F_beta along the step.

    ``gradient`` is that of the X-block; the slack block's is -1/slacks.
    """
    slope = float(gradient @ vec(step.direction_X))
    if slacks.size:
        slope -= float(step.direction_slack @ (1.0 / slacks))
    return slope


def max_feasible_step(state: _State, step: NewtonStep, evaluator: FBetaEvaluator) -> float:
    """Largest alpha keeping X (and slacks, and mapped cones) in the open cone."""
    bounds = []
    p = step.direction_X
    if np.linalg.norm(p) > 0:
        w = scipy.linalg.eigh(p, state.x, eigvals_only=True)
        wmin = float(w.min())
        if wmin < -1e-14 * max(1.0, float(np.abs(w).max())):
            bounds.append(-1.0 / wmin)
    if state.slacks.size:
        q = step.direction_slack
        neg = q < 0
        if np.any(neg):
            bounds.append(float(np.min(state.slacks[neg] / -q[neg])))
    for lmap in evaluator.feasibility_maps():
        yp = lmap.apply(p)
        if np.linalg.norm(yp) == 0:
            continue
        y = lmap.apply(state.x)
        w = scipy.linalg.eigh(yp, y, eigvals_only=True)
        wmin = float(w.min())
        if wmin < -1e-14 * max(1.0, float(np.abs(w).max())):
            bounds.append(-1.0 / wmin)
    return min(bounds) if bounds else math.inf


def line_search(state: _State, step: NewtonStep, beta: float,
                evaluator: FBetaEvaluator) -> float:
    """Backtrack from min(1, fraction * alpha_max) until F_beta decreases.

    The only acceptance rule is a value decrease: the first trial step at
    which F_beta is below its value at alpha = 0 is taken, and if none of
    LS_MAX_BACKTRACKS trials is, LineSearchFailure is raised. There is no
    slope fallback. ``center`` calls this only outside the band in which
    self-concordance certifies the full step (module docstring), which is
    where the value noise of F_beta at large beta used to defeat the test.
    """
    f0 = evaluator.value(state.x, state.slacks, beta)
    if not math.isfinite(f0):
        raise DomainViolation("line search started outside the domain")
    amax = max_feasible_step(state, step, evaluator)
    alpha = min(1.0, LS_BOUNDARY_FRACTION * amax)
    for _ in range(LS_MAX_BACKTRACKS):
        cand_x = symmetrize(state.x + alpha * step.direction_X)
        cand_s = state.slacks + alpha * step.direction_slack
        if evaluator.value(cand_x, cand_s, beta) < f0:
            return alpha
        alpha *= LS_SHRINK
    raise LineSearchFailure(
        f"no decrease after {LS_MAX_BACKTRACKS} backtracks (delta={step.decrement:.3e})"
    )


def certified_full_step(evaluator: FBetaEvaluator, delta: float) -> bool:
    """Whether self-concordance certifies the full Newton step at decrement delta."""
    return evaluator.self_concordant and 0.5 * SELF_CONCORDANCE_M * delta <= FULL_STEP_RADIUS


def center(state: _State, beta: float, evaluator: FBetaEvaluator, config: SolverConfig,
           target: float | None = None, callback=None):
    """Newton-iterate at fixed beta until the decrement gate passes.

    Returns (state, newton_steps, records) where records holds one
    (beta, delta) pair per computed decrement, gate value included.
    ``callback`` receives one dict per step taken: beta, delta, alpha,
    and f, feas_residual and x at the new iterate. A step that is not a
    descent direction raises SingularKKT before the line search. A step
    inside the self-concordance band (``certified_full_step``) is taken
    whole, with no line search; every other one is line-searched. Any
    QipError raised here carries the last iterate reached as ``state``,
    the steps taken (with a callback, exactly those it was given) and the
    records made so far as ``steps`` and ``records``, and the largest
    Schur condition so far as ``max_cond``.
    """
    target = DELTA_STAR if target is None else target
    records = []
    steps = 0
    max_cond = 1.0
    try:
        for _ in range(config.max_inner):
            bundle = evaluator.hessian_bundle(state.x, beta)
            step = evaluator.newton_step(bundle, state)
            max_cond = max(max_cond, step.schur_condition)
            records.append((beta, step.decrement))
            if step.decrement <= target:
                return state, steps, records, max_cond
            slope = directional_derivative(bundle.gradient, state.slacks, step)
            if slope >= 0.0:
                raise SingularKKT(f"Newton direction is not a descent direction: "
                                  f"<grad F, p> = {slope:.3e} at beta={beta:.3e}")
            alpha = (1.0 if certified_full_step(evaluator, step.decrement)
                     else line_search(state, step, beta, evaluator))
            new_x = symmetrize(state.x + alpha * step.direction_X)
            new_state = _State(x=new_x, slacks=_refresh_slacks(evaluator.problem, new_x))
            if callback is not None:
                # before the step is committed: an error raised while the
                # record is built leaves uncounted a step no callback saw
                callback({
                    "beta": beta,
                    "delta": step.decrement,
                    "alpha": alpha,
                    "f": evaluator.objective(new_x),
                    "feas_residual": _feas_residual(evaluator.problem, new_state),
                    "x": new_x,
                })
            state = new_state
            steps += 1
        raise IterCap(f"centering at beta={beta:.3e} exceeded {config.max_inner} inner steps")
    except QipError as exc:
        exc.state, exc.steps, exc.records, exc.max_cond = state, steps, records, max_cond
        raise


def _feas_residual(problem: ProblemSpec, state: _State) -> float:
    res = problem.constraints.residuals(state.x, state.slacks if state.slacks.size else None)
    return float(np.abs(res / (1.0 + np.abs(problem.constraints.rhs))).max())


def proximity_gap_bound(delta: float, beta: float, r: float, kappa: float) -> float:
    """Certified |f(x) - f(x(beta))| bound at a centered point."""
    d1 = 1.0 - 2.25 * kappa * delta
    d2 = 1.0 - kappa * delta
    if d1 <= 0 or d2 <= 0:
        return math.inf
    return (delta / d1) * ((1.0 + kappa * delta**2) / d2) * math.sqrt(r) / beta


def iteration_bound(config: SolverConfig, r: float):
    """(per-outer cap, total cap) on Newton steps for barrier parameter r."""
    th, kp = config.theta, KAPPA
    per_outer = 22.0 / 3.0 + 22.0 * th * (2.5 * kp * math.sqrt(r) + th * kp**2 * r / (th + 1.0))
    n_outer = math.log(4.0 * r / (config.epsilon * config.beta0)) / math.log1p(th)
    total = max(n_outer, 0.0) * per_outer
    return per_outer, total


def solve(problem: ProblemSpec, start: np.ndarray | None = None,
          config: SolverConfig | None = None, callback=None,
          include_barrier: bool = True) -> SolveReport:
    """Run the full path-following scheme and return a SolveReport.

    The start (given or taken from the problem) must be strictly
    feasible; a damped-Newton phase at beta0 performs the initial
    centering. Any QipError other than IterCap raised while centering
    re-raises with the phase and a NumericalFailure report attached; like
    an IterCap report, it is built at the iterate where centering
    stopped, not at the last centered point, and counts the steps of
    that centering. ``include_barrier=False`` drops -ln det X,
    a heuristic admitted only when every objective term is a relative
    entropy (qkd problems); otherwise it raises ValueError.
    """
    if not include_barrier and not all(isinstance(t, QreObjective) for t in problem.terms):
        raise ValueError("include_barrier=False is only supported on qkd problems "
                         "(relative-entropy objectives); trace objectives need the "
                         "-ln det X barrier")
    config = config or SolverConfig()
    x0 = problem.start if start is None else np.asarray(start, dtype=float)
    if x0 is None:
        raise InfeasibleStart("no starting point supplied")
    x0 = symmetrize(x0)
    bad = feasibility_violations(problem, x0)
    if bad:
        raise InfeasibleStart("start is not strictly feasible: " + bad[0][0])

    r = barrier_parameter(problem)
    evaluator = FBetaEvaluator(problem, include_barrier=include_barrier)
    state = _State(x=x0, slacks=_refresh_slacks(problem, x0))

    t_start = time.perf_counter()
    f_start = evaluator.objective(state.x)
    trace, inner_counts, gap_bounds = [], [], []
    beta_stop = 4.0 * r / config.epsilon
    max_cond = 1.0
    termination = "Converged"
    failure = None
    beta = config.beta0
    i = 0

    try:
        while True:
            state, k, rec, cond = center(state, beta, evaluator, config, callback=callback)
            inner_counts.append(k)
            trace.extend(rec)
            max_cond = max(max_cond, cond)
            gap_bounds.append(proximity_gap_bound(rec[-1][1], beta, r, KAPPA))
            if beta >= beta_stop:
                break
            if i >= config.max_outer:
                termination = "IterCap"
                break
            i += 1
            beta = config.beta0 * (1.0 + config.theta) ** i
    except QipError as exc:  # raised by center, with the iterate it stopped at
        state = exc.state
        inner_counts.append(exc.steps)
        trace.extend(exc.records)
        max_cond = max(max_cond, exc.max_cond)
        failure = None if isinstance(exc, IterCap) else exc
        termination = "IterCap" if failure is None else "NumericalFailure"

    report = _build_report(problem, evaluator, state, config, inner_counts, trace,
                           gap_bounds, beta, r, f_start, max_cond,
                           time.perf_counter() - t_start, termination, include_barrier)
    if failure is not None:
        failure.phase = f"outer {i}, beta={beta:.6e}"
        failure.report = report
        failure.args = (f"{failure.args[0]} [phase: {failure.phase}]",) + failure.args[1:]
        raise failure
    return report


def _build_report(problem, evaluator, state, config, inner_counts, trace, gap_bounds,
                  beta, r, f_start, max_cond, wall, termination, include_barrier):
    per_outer_cap, total_cap = iteration_bound(config, r)
    total = int(sum(inner_counts))
    bound_check = {
        "per_outer_cap": per_outer_cap,
        "total_cap": total_cap,
        "max_inner_observed": int(max(inner_counts)) if inner_counts else 0,
        "total_newton": total,
        "within_caps": bool(
            total <= total_cap
            and (not inner_counts or max(inner_counts) <= per_outer_cap)
        ),
    }
    cfg = {
        "beta0": config.beta0,
        "theta": config.theta,
        "epsilon": config.epsilon,
        "kappa": KAPPA,
        "barrier_param_r": r,
        "include_barrier": include_barrier,
    }
    return SolveReport(
        f_min=evaluator.objective(state.x),
        X_star=state.x,
        outer_iters=len(inner_counts),
        inner_iters_per_outer=[int(k) for k in inner_counts],
        total_newton=total,
        decrement_trace=trace,
        wall_time=wall,
        termination=termination,
        bound_check=bound_check,
        beta_final=beta,
        barrier_param_r=r,
        gap_certificates=gap_bounds,
        f_start=f_start,
        feas_residual=_feas_residual(problem, state),
        schur_condition_max=max_cond,
        heuristic_no_barrier=not include_barrier,
        name=problem.name,
        config=cfg,
    )

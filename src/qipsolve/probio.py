"""Problem definitions, random instance generation and (de)serialization.

A problem is an objective term list, affine trace rows (inequalities
first) and an optional constraint map L whose output must stay PSD and
receives its own log-det barrier. The solver reads its structure from
these data alone. The ``kind`` and ``dims`` of a problem are read from
the same data (``ProblemSpec.kind``, ``ProblemSpec.dims``); the kind
names one of three families for the file format, generation and
validation:

* ``type1``  - trace objective, mixed inequality/equality trace constraints,
  PSD cone on X (slack reformulation handled by the solver),
* ``type2``  - trace objective(s) plus the constraint map,
* ``qkd``    - quantum relative entropy of two Kraus maps (one
  ``QreObjective`` term) under equality constraints.

A problem file names its kind, which picks the parser, and must name the
kind of the data it holds.

Problems round-trip through a single JSON document (row-major matrices,
decimal floats); generation is a pure function of (kind, dims, seed) and
every generated or loaded instance passes the strict-feasibility
validator before any solve. Externally produced data can be used by
exporting matrices into the same JSON schema.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DecompositionFailure,
    NotFound,
    ParseError,
    ShapeError,
    ValidationError,
)
from .kkt import AffineConstraints
from .linmap import KrausMap, PartialTranspose, compose, identity_map, pinching_map
from .matfun import (
    generator_from_name,
    spectral_decompose,
    svec,
    symmetrize,
    unsvec,
)
from .objectives import EvalPoint, TraceObjective
from .qre import QreObjective

FEAS_MARGIN = 1e-8


@dataclass
class ProblemSpec:
    """A fully specified optimization instance plus optional starting point."""

    constraints: AffineConstraints
    terms: list = field(default_factory=list)
    offset: float = 0.0
    constraint_map: object | None = None
    start: np.ndarray | None = None
    name: str = ""
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.constraints.order

    @property
    def kind(self) -> str:
        """qkd with a relative-entropy term, else type2 with a constraint map, else type1."""
        if any(isinstance(t, QreObjective) for t in self.terms):
            return "qkd"
        return "type1" if self.constraint_map is None else "type2"

    @property
    def dims(self) -> dict:
        """The sizes read from the data: n; m, the inequality rows of type1
        and the equality rows otherwise; N, all rows; k, the output order of
        the map (L1 for qkd); r1 and r2, the Kraus ranks (None if not Kraus).
        """
        cons, kind = self.constraints, self.kind
        if kind == "qkd":
            maps = (self.terms[0].l1, self.terms[0].l2)
        else:
            maps = (self.constraint_map, None)
        ranks = [len(lm.factors) if isinstance(lm, KrausMap) else None for lm in maps]
        return {"n": self.n, "k": None if maps[0] is None else maps[0].out_order,
                "m": cons.n_ineq if kind == "type1" else cons.n_eq, "N": cons.n_total,
                "r1": ranks[0], "r2": ranks[1]}

    def objective_at(self, point: EvalPoint) -> float:
        """f at the X of ``point``, from the decompositions it holds."""
        return sum(t.evaluate(point, want_hessian=False).value for t in self.terms) + self.offset


def barrier_parameter(problem: ProblemSpec) -> float:
    """Barrier parameter r of the employed barrier.

    -ln det X contributes n, each inequality slack's log 1, and
    -ln det L(X) the output order k of the constraint map: n + m for
    type1, n + k for type2 and n for qkd.
    """
    lmap = problem.constraint_map
    k = lmap.out_order if lmap is not None else 0
    return float(problem.n + problem.constraints.n_ineq + k)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def _min_eigenvalue(y: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    LAPACK's dsyevd on the lower triangle, as ``np.linalg.eigvalsh``,
    without numpy's per-call overhead: every solve checks its start here.
    The workspace is the one dsyevd takes with eigenvectors, enough for
    the blocked tridiagonal reduction that numpy's workspace query
    selects above n = 32; scipy's smaller default selects the unblocked one.
    """
    n = y.shape[0]
    w, _, info = lapack.dsyevd(y, compute_v=0, lower=1, lwork=1 + 6 * n + 2 * n * n)
    if info != 0:
        raise DecompositionFailure(f"eigenvalues failed (dsyevd info {info})")
    return float(w[0])


def feasibility_violations(problem: ProblemSpec, x: np.ndarray, margin: float = FEAS_MARGIN):
    """List of (description, value) pairs violating strict feasibility."""
    bad = []
    x = symmetrize(np.asarray(x, dtype=float))
    lam_min = _min_eigenvalue(x)
    if lam_min < margin:
        bad.append((f"cone margin: min eigenvalue of X is {lam_min:.3e}", lam_min))
    cons = problem.constraints
    for i, res in enumerate(cons.residuals(x)):
        if i < cons.n_ineq:
            if -res < margin:
                bad.append((f"inequality constraint {i}: slack {-res:.3e}", -res))
        elif abs(res) > margin * (1.0 + abs(cons.rhs[i])):
            bad.append((f"equality constraint {i}: residual {abs(res):.3e}", abs(res)))
    if problem.constraint_map is not None:
        lam_map = _min_eigenvalue(problem.constraint_map.apply(x))
        if lam_map < margin:
            bad.append((f"map-cone margin: min eigenvalue of L(X) is {lam_map:.3e}", lam_map))
    return bad


def validate_problem(problem: ProblemSpec) -> None:
    """Raise ValidationError on any invariant violation."""
    if problem.kind == "qkd":
        if len(problem.terms) != 1 or not isinstance(problem.terms[0], QreObjective):
            raise ValidationError("qkd problem takes exactly one relative-entropy term")
        if problem.constraints.n_ineq != 0:
            raise ValidationError("qkd problems take equality constraints only")
        if problem.constraint_map is not None:
            raise ValidationError("qkd problems take no constraint map")
        qre = problem.terms[0]
        for label, lm in (("L1", qre.l1), ("L2", qre.l2)):
            defect = lm.trace_contraction_defect()
            if defect > 1e-10:
                raise ValidationError(
                    f"{label} violates sum K.T K <= I by {defect:.3e}"
                )
            if lm.in_order != problem.n:
                raise ValidationError(f"{label} input order does not match the constraints")
    else:
        if not problem.terms:
            raise ValidationError("trace-objective problem has no terms")
        for t in problem.terms:
            if not isinstance(t, TraceObjective):
                raise ValidationError(f"{problem.kind} problems take trace objectives only")
            if t.input_order() != problem.n:
                raise ValidationError("objective term order does not match the constraints")
        lmap = problem.constraint_map
        if lmap is not None and lmap.in_order != problem.n:
            raise ValidationError("constraint map order does not match the constraints")
    if problem.start is not None:
        if np.shape(problem.start) != (problem.n, problem.n):
            raise ValidationError(f"start has shape {np.shape(problem.start)}, not the "
                                  f"constraints' order {problem.n} x {problem.n}")
        bad = feasibility_violations(problem, problem.start)
        if bad:
            raise ValidationError("declared start is not strictly feasible: " + bad[0][0])


def random_feasible_point(problem: ProblemSpec, rng, scale: float = 0.3,
                          steps: int = 3, margin: float = 1e-6) -> np.ndarray:
    """A strictly feasible point near the start, via projected random steps."""
    if problem.start is None:
        raise ValidationError("problem carries no starting point")
    n = problem.n
    cons = problem.constraints
    seq = cons.svec_rows[cons.n_ineq:]
    gram_inv = np.linalg.inv(seq @ seq.T)
    x = problem.start.copy()
    for _ in range(steps):
        ds = svec(symmetrize(rng.standard_normal((n, n))))
        d = unsvec(ds - seq.T @ (gram_inv @ (seq @ ds)))
        t = scale
        for _ in range(40):
            cand = symmetrize(x + t * d)
            if not feasibility_violations(problem, cand, margin):
                x = cand
                break
            t *= 0.5
    return x


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

def _random_interior_density(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    w = g @ g.T
    w = w + (np.trace(w) / (2 * n)) * np.eye(n)
    return symmetrize(w / np.trace(w))


def _random_psd_weight(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    w = g @ g.T
    return symmetrize(w / np.trace(w))


def _random_kraus(rng, k: int, n: int, r: int, slack: float = 0.1) -> KrausMap:
    mats = [rng.standard_normal((k, n)) for _ in range(r)]
    gram = sum(m.T @ m for m in mats)
    top = np.linalg.eigvalsh(symmetrize(gram)).max()
    factor = 1.0 / math.sqrt(top * (1.0 + slack))
    return KrausMap([factor * m for m in mats])


def _random_pinching(rng, k: int, blocks: int) -> KrausMap:
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    sizes = [k // blocks + (1 if i < k % blocks else 0) for i in range(blocks)]
    projectors, lo = [], 0
    for s in sizes:
        cols = q[:, lo:lo + s]
        projectors.append(symmetrize(cols @ cols.T))
        lo += s
    return pinching_map(projectors)


def _build_constraints(rng, n, x0, m_ineq, n_eq_random):
    """Trace normalization plus random rows, all feasible at x0 by construction."""
    mats, rhs = [], []
    for _ in range(m_ineq):
        while True:
            a = symmetrize(rng.standard_normal((n, n)))
            val = float(np.tensordot(a, x0))
            margin = rng.uniform(0.1, 1.0) * abs(val)
            if margin > 1e-4:
                break
        mats.append(a)
        rhs.append(val + margin)
    mats.append(np.eye(n))
    rhs.append(1.0)
    for _ in range(n_eq_random):
        a = symmetrize(rng.standard_normal((n, n)))
        mats.append(a)
        rhs.append(float(np.tensordot(a, x0)))
    return AffineConstraints(mats, np.array(rhs), n_ineq=m_ineq)


def _most_square_split(n: int):
    for a in range(int(math.isqrt(n)), 0, -1):
        if n % a == 0:
            return a, n // a
    return 1, n


def generate_random(kind: str, dims: dict, seed: int) -> ProblemSpec:
    """Reproducible random instance with a strictly feasible interior start."""
    dims = dict(dims or {})
    n = int(dims.get("n", 0))
    if n < 2:
        raise ShapeError("dims must include n >= 2")
    rng = np.random.default_rng(seed)

    if kind == "type1":
        m = int(dims.get("m", n // 2))
        n_total = int(dims.get("N", n))
        if not 0 <= m < n_total:
            raise ShapeError("type1 needs 0 <= m < N (the trace row is an equality)")
        gen = generator_from_name(dims.get("generator", "inverse"), dims.get("alpha"))
        x0 = _random_interior_density(rng, n)
        cons = _build_constraints(rng, n, x0, m, n_total - m - 1)
        c = _random_psd_weight(rng, n)
        spec = ProblemSpec(
            constraints=cons,
            terms=[TraceObjective(c, gen)],
            start=x0,
            seed=seed,
            name=f"random-type1-n{n}-seed{seed}",
        )
    elif kind == "type2":
        m = int(dims.get("m", 1))
        n1 = dims.get("n1")
        n2 = dims.get("n2")
        if n1 is None or n2 is None:
            n1, n2 = _most_square_split(n)
        if n1 * n2 != n:
            raise ShapeError(f"partial transpose split {n1}x{n2} does not factor {n}")
        pt = PartialTranspose(n1, n2)
        # shrink a random density toward I/n until its partial transpose
        # is safely positive definite
        rho = _random_interior_density(rng, n)
        s = 1.0
        while s > 1e-3:
            x0 = symmetrize((1 - s) * np.eye(n) / n + s * rho)
            if np.linalg.eigvalsh(pt.apply(x0)).min() > 10 * FEAS_MARGIN:
                break
            s *= 0.5
        cons = _build_constraints(rng, n, x0, 0, max(0, m - 1))
        c = _random_psd_weight(rng, n)
        spec = ProblemSpec(
            constraints=cons,
            terms=[TraceObjective(c, generator_from_name("neg_log"))],
            offset=float(np.sum(_entropy_weights(c))),
            constraint_map=pt,
            start=x0,
            seed=seed,
            name=f"random-type2-n{n}-seed{seed}",
        )
    elif kind == "qkd":
        k = int(dims.get("k") or 2 * n)
        m = int(dims.get("m", max(1, n // 2)))
        r1 = int(dims.get("r1", 2))
        r2 = int(dims.get("r2", 2))
        l1 = _random_kraus(rng, k, n, r1)
        l2 = _random_kraus(rng, k, n, r2)
        x0 = _random_interior_density(rng, n)
        cons = _build_constraints(rng, n, x0, 0, max(0, m - 1))
        spec = ProblemSpec(
            constraints=cons,
            terms=[QreObjective(l1, l2)],
            start=x0,
            seed=seed,
            name=f"random-qkd-n{n}-seed{seed}",
        )
    else:
        raise ShapeError(f"unknown problem kind {kind!r}")
    if kind != "type1" and m < 1:  # m counts the equality rows, the trace row among them
        raise ShapeError(f"{kind} needs m >= 1 (the trace row is an equality)")
    validate_problem(spec)
    return spec


def _entropy_weights(c: np.ndarray) -> np.ndarray:
    """Eigenvalue terms of Tr(C ln C), treating zero eigenvalues as 0 ln 0 = 0."""
    mu = np.linalg.eigvalsh(symmetrize(c))
    mu = np.clip(mu, 0.0, None)
    out = np.zeros_like(mu)
    pos = mu > 0
    out[pos] = mu[pos] * np.log(mu[pos])
    return out


# ---------------------------------------------------------------------------
# canonical named instances
# ---------------------------------------------------------------------------

def build_named(name: str) -> ProblemSpec:
    """Canonical instances used by the acceptance suite and the CLI."""
    m = re.fullmatch(r"trace-inverse-n(\d+)", name)
    if m:
        n = int(m.group(1))
        cons = AffineConstraints([np.eye(n)], np.array([1.0]), n_ineq=0)
        return ProblemSpec(
            constraints=cons,
            terms=[TraceObjective(np.eye(n), generator_from_name("inverse"))],
            start=np.eye(n) / n,
            name=name,
            seed=0,
        )

    m = re.fullmatch(r"ree-(\d+)x(\d+)", name)
    if m:
        n1, n2 = int(m.group(1)), int(m.group(2))
        n = n1 * n2
        rng = np.random.default_rng(1000 + 97 * n1 + n2)
        # separable (hence PPT) weight with a safety ridge
        c = np.zeros((n, n))
        for _ in range(3):
            ga = rng.standard_normal((n1, n1))
            gb = rng.standard_normal((n2, n2))
            c += np.kron(symmetrize(ga @ ga.T), symmetrize(gb @ gb.T))
        c = c / np.trace(c) + 0.1 * np.eye(n)
        c = symmetrize(c / np.trace(c))
        cons = AffineConstraints([np.eye(n)], np.array([1.0]), n_ineq=0)
        return ProblemSpec(
            constraints=cons,
            terms=[TraceObjective(c, generator_from_name("neg_log"))],
            offset=float(np.sum(_entropy_weights(c))),
            constraint_map=PartialTranspose(n1, n2),
            start=np.eye(n) / n,
            name=name,
            seed=0,
        )

    m = re.fullmatch(r"fidelity-n(\d+)", name)
    if m:
        n = int(m.group(1))
        rng = np.random.default_rng(2000 + n)
        g = rng.standard_normal((n, n))
        y = g @ g.T + (np.trace(g @ g.T) / (2 * n)) * np.eye(n)
        y = symmetrize(y * n / np.trace(y))
        dec = spectral_decompose(y)
        y_half = symmetrize((dec.U * np.sqrt(dec.lam)) @ dec.U.T)
        lmap = KrausMap([y_half])
        cons = AffineConstraints([np.eye(n)], np.array([1.0]), n_ineq=0)
        return ProblemSpec(
            constraints=cons,
            terms=[TraceObjective(np.eye(n), generator_from_name("neg_sqrt"), map=lmap)],
            constraint_map=lmap,
            start=np.eye(n) / n,
            name=name,
            seed=0,
        )

    if name == "qkd-toy":
        n = 2
        cons = AffineConstraints([np.eye(n)], np.array([1.0]), n_ineq=0)
        return ProblemSpec(
            constraints=cons,
            terms=[QreObjective(identity_map(n), pinching_map([np.eye(n)]))],
            start=np.eye(n) / n,
            name=name,
            seed=0,
        )

    m = re.fullmatch(r"qkd-n(\d+)", name)
    if m:
        n = int(m.group(1))
        k = 2 * n
        rng = np.random.default_rng(3000 + n)
        l1 = _random_kraus(rng, k, n, 2)
        l2 = compose(_random_pinching(rng, k, 2), l1)
        x0 = _random_interior_density(rng, n)
        cons = _build_constraints(rng, n, x0, 0, max(0, n // 2 - 1))
        spec = ProblemSpec(
            constraints=cons,
            terms=[QreObjective(l1, l2)],
            start=x0,
            name=name,
            seed=0,
        )
        validate_problem(spec)
        return spec

    raise NotFound(f"unknown canonical problem name {name!r}")


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def _map_to_dict(lmap):
    if lmap is None:
        return None
    if isinstance(lmap, PartialTranspose):
        return {"kind": "partial_transpose", "n1": lmap.n1, "n2": lmap.n2}
    return {"kind": "kraus", "factors": [k.tolist() for k in lmap.factors]}


def _map_from_dict(d, where):
    if d is None:
        return None
    kind = _require(d, "kind", where)
    if kind == "partial_transpose":
        return PartialTranspose(*(_count(_require(d, key, where), f"{where}.{key}")
                                  for key in ("n1", "n2")))
    if kind == "kraus":
        return _kraus(_require(d, "factors", where), f"{where}.factors")
    raise ParseError(f"unknown map kind {kind!r}", where)


def to_dict(spec: ProblemSpec) -> dict:
    cons = spec.constraints
    doc = {
        "kind": spec.kind,
        "name": spec.name,
        "seed": spec.seed,
        "dims": spec.dims,
        "constraints": {
            "A": [a.tolist() for a in cons.mats],
            "b": cons.rhs.tolist(),
            "n_ineq": cons.n_ineq,
        },
        "start": None if spec.start is None else spec.start.tolist(),
    }
    if spec.kind == "qkd":
        qre = spec.terms[0]
        doc["objective"] = {"epsilon_perturb": qre.eps_pert, "offset": spec.offset}
        doc["kraus"] = {
            "L1": [k.tolist() for k in qre.l1.factors],
            "L2": [k.tolist() for k in qre.l2.factors],
        }
        doc["C"] = None
    else:
        if len(spec.terms) != 1:
            raise ValidationError("only single-term problems are serializable")
        term = spec.terms[0]
        doc["objective"] = {
            "generator": term.gen.kind,
            "alpha": term.gen.alpha,
            "offset": spec.offset,
            "term_map": _map_to_dict(term.map),
            "barrier_map": _map_to_dict(spec.constraint_map),
        }
        doc["kraus"] = None
        doc["C"] = term.C.tolist()
    return doc


def _require(doc, key, where):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}", where)
    return doc[key]


def _typed(value, kind, what):
    """``value``, or a ParseError naming the field ``what`` when it is not a ``kind``."""
    names = {dict: "a JSON object", list: "a JSON array", str: "a string"}
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {names[kind]}, not {type(value).__name__}")
    return value


def _section(doc, key):
    """The top-level field ``key``, which must hold a JSON object."""
    return _typed(_require(doc, key, "top level"), dict, key)


def _floats(entries):
    return np.asarray(entries, dtype=float)


def _parsed(cast, value, what):
    """``cast(value)``, or a ParseError that names the field ``what``."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} is malformed: {exc}") from exc


def _finite(cast, value, what):
    """``_parsed(cast, value, what)``, which must be finite: JSON readers take NaN and Infinity."""
    out = _parsed(cast, value, what)
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{what} has non-finite entries")
    return out


def _count(value, what):
    """A JSON integer, or a float with an integer value; a ParseError naming ``what`` otherwise."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return int(value)


def _kraus(factors, what):
    return KrausMap([_parsed(_floats, f, f"{what}[{i}]")
                     for i, f in enumerate(_typed(factors, list, what))])


def _load_sym(entries, what):
    a = _parsed(_floats, entries, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{what} is not a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} has non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise ValidationError(f"{what} is asymmetric beyond 1e-12")
    return symmetrize(a)


def from_dict(doc: dict) -> ProblemSpec:
    kind = _require(doc, "kind", "top level")
    cd = _section(doc, "constraints")
    mats = [_load_sym(a, f"constraints.A[{i}]")
            for i, a in enumerate(_typed(_require(cd, "A", "constraints"), list,
                                         "constraints.A"))]
    cons = AffineConstraints(mats, _finite(_floats, _require(cd, "b", "constraints"),
                                           "constraints.b"),
                             n_ineq=_count(cd.get("n_ineq", 0), "constraints.n_ineq"))
    obj = _section(doc, "objective")
    offset = _finite(float, obj.get("offset", 0.0), "objective.offset")
    start = doc.get("start")
    start_mat = None if start is None else _load_sym(start, "start")

    if kind == "qkd":
        kraus = _section(doc, "kraus")
        l1, l2 = (_kraus(_require(kraus, key, "kraus"), f"kraus.{key}") for key in ("L1", "L2"))
        eps = _finite(float, obj.get("epsilon_perturb", 1e-12), "objective.epsilon_perturb")
        spec = ProblemSpec(
            constraints=cons,
            terms=[QreObjective(l1, l2, eps_pert=eps)],
            offset=offset,
            start=start_mat,
            name=doc.get("name", ""),
            seed=doc.get("seed"),
        )
    elif kind in ("type1", "type2"):
        c = _load_sym(_require(doc, "C", "top level"), "weight C")
        alpha = obj.get("alpha")
        gen = generator_from_name(_typed(_require(obj, "generator", "objective"), str,
                                         "objective.generator"),
                                  None if alpha is None else _finite(float, alpha, "objective.alpha"))
        term_map = _map_from_dict(obj.get("term_map"), "objective.term_map")
        spec = ProblemSpec(
            constraints=cons,
            terms=[TraceObjective(c, gen, map=term_map)],
            offset=offset,
            constraint_map=_map_from_dict(obj.get("barrier_map"), "objective.barrier_map"),
            start=start_mat,
            name=doc.get("name", ""),
            seed=doc.get("seed"),
        )
    else:
        raise ParseError(f"unknown problem kind {kind!r}", "top level")
    if spec.kind != kind:
        raise ValidationError(f"file kind {kind!r} does not match its data, a {spec.kind} problem")
    validate_problem(spec)
    return spec


def save(spec: ProblemSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(spec), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path) -> ProblemSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), f"{path}:{exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("problem file must hold a JSON object", str(path))
    return from_dict(doc)

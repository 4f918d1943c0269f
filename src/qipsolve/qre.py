"""Quantum relative entropy objective for the key-distribution problem.

The objective is f(X) = Tr(Y1 ln Y1) - Tr(Y1 ln Y2) with Y1 = L1(X) + e I
and Y2 = L2(X) + e I for two Kraus maps L1, L2 and a small perturbation e
that keeps both logarithms computable when the map outputs are singular.
The perturbed f is what gets differentiated, so gradient and Hessian are
exact for the value actually returned (they differ from the unperturbed
formulas by O(e)).

Gradient:
    grad f1 = L1.T (I + ln Y1)
    grad f2 = -L1.T ln Y2 - L2.T O2 (Ctil o ln^[1](Lam2)) O2.T,
with Ctil = O2.T Y1 O2. Hessian on svec coordinates (M_i the map
matrices restricted to symmetric inputs, M_i P; see ``matfun``):
    H_f1  =  M1.T Dln(Y1) M1
    H_f2  = -M1.T Dln(Y2) M2 - M2.T Dln(Y2) M1 + M2.T (O2 (x) O2) S (O2 (x) O2).T M2,
where Dln(Y) = (O (x) O) diag(vec(ln^[1](Lam))) (O (x) O).T and S carries
Gamma_ijk = -ln^[2](lam_i, lam_j, lam_k) with weight Ctil. No M_i is
formed: each product is built from the congruence batches
V[c] = O.T L_i(E_c) O of the svec basis matrices E_c, which the Kraus
maps supply from their factors Ktil_t = O.T K_t (see ``linmap``):
    V[c] = (w_c/2) sum_t (ktil_{t,a} ktil_{t,b}.T + ktil_{t,b} ktil_{t,a}.T)
for c = (a, b), ktil_{t,a} the column a of Ktil_t. The sandwiches
contract over the k(k+1)/2 upper-triangle entries of each batch,
gathered once per batch. The cross block is assembled symmetrically
(the two mixed terms are transposes of each other), and the total is
symmetrized; ``qre_hessian_asymmetry`` measures the asymmetry before
that.

Like every term (``objectives``), ``qre_eval`` reads X, Y1 and Y2 and
their decompositions from one ``EvalPoint``, which checks each of the
three for positive definiteness and names the one that fails. Without
``want_hessian`` it returns the value alone, with no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .linmap import KrausMap
from .matfun import (
    LOG,
    divided_diff_1,
    inner,
    second_divided_diff_tensor,
    symmetrize,
    vec,
)
from .objectives import (
    DerivativeBundle,
    EvalPoint,
    congruence_batch,
    sandwich_core,
    sandwich_diag,
    triu_rows,
)

DEFAULT_PERTURBATION = 1e-12


@dataclass(frozen=True)
class QreObjective:
    """Two Kraus maps of equal shapes plus the log-domain perturbation."""

    l1: KrausMap
    l2: KrausMap
    eps_pert: float = DEFAULT_PERTURBATION

    def __post_init__(self):
        if self.l1.in_order != self.l2.in_order:
            raise ShapeError("the two maps must share the input order")
        if self.l1.out_order != self.l2.out_order:
            raise ShapeError("the two maps must share the output order")
        if not self.eps_pert > 0.0:
            raise ValidationError("perturbation must be strictly positive")

    @property
    def in_order(self) -> int:
        return self.l1.in_order

    @property
    def out_order(self) -> int:
        return self.l1.out_order

    def evaluate(self, x: np.ndarray, want_hessian: bool = True, *,
                 point: EvalPoint | None = None) -> DerivativeBundle:
        return qre_eval(self, x, want_hessian=want_hessian, point=point)


def qre_eval(obj: QreObjective, x: np.ndarray, want_hessian: bool = True, *,
             point: EvalPoint | None = None) -> DerivativeBundle:
    """Value, gradient and Hessian of the relative entropy, or its value alone.

    ``point`` and ``want_hessian`` act as in ``objectives.phi_eval``.
    """
    point = EvalPoint(x) if point is None else point
    bundle = _eval(obj, point, want_hessian)
    if bundle.hessian is not None:
        bundle.hessian = symmetrize(bundle.hessian)
    return bundle


def qre_hessian_asymmetry(obj: QreObjective, x: np.ndarray) -> float:
    """Relative Frobenius asymmetry of the assembled Hessian before symmetrization.

    A large value flags a sign or transpose mistake in the mixed block.
    """
    h = _eval(obj, EvalPoint(x), want_hessian=True).hessian
    # unit floor: identical maps cancel the Hessian to rounding noise
    norm = max(np.linalg.norm(h), 1.0)
    return float(np.linalg.norm(h - h.T) / norm)


def _eval(obj, point, want_hessian):
    """The bundle with the Hessian as assembled, before symmetrization.

    X's own decomposition serves as the domain check; with -ln det X among
    F_beta's terms, the barrier reads the same one.
    """
    point.pd_image("relative entropy argument X")
    eps = obj.eps_pert
    y1, dec1 = point.pd_image("L1(X) + eps*I", obj.l1, eps)
    _, dec2 = point.pd_image("L2(X) + eps*I", obj.l2, eps)
    o1, lam1 = dec1.U, dec1.lam
    o2, lam2 = dec2.U, dec2.lam

    ln_y2 = symmetrize((o2 * np.log(lam2)) @ o2.T)
    value = float(lam1 @ np.log(lam1) - inner(y1, ln_y2))
    if not want_hessian:
        return DerivativeBundle(value=value, gradient=None)

    ln_y1 = symmetrize((o1 * np.log(lam1)) @ o1.T)

    k = obj.out_order
    grad_f1 = obj.l1.adjoint_apply(np.eye(k) + ln_y1)
    phi2 = divided_diff_1(LOG, lam2)
    ctil = o2.T @ y1 @ o2
    grad_f2 = -obj.l1.adjoint_apply(ln_y2) - obj.l2.adjoint_apply(
        symmetrize(o2 @ (ctil * phi2) @ o2.T)
    )
    gradient = vec(grad_f1 + grad_f2)

    phi1 = divided_diff_1(LOG, lam1)
    s11 = triu_rows(congruence_batch(obj.l1, o1))
    hess = sandwich_diag(s11, s11, phi1)
    s12 = triu_rows(congruence_batch(obj.l1, o2))
    v22 = congruence_batch(obj.l2, o2)
    s22 = triu_rows(v22)
    cross = sandwich_diag(s12, s22, phi2)
    hess -= cross + cross.T
    gamma = -second_divided_diff_tensor(LOG, lam2, f1=phi2)
    hess += sandwich_core(v22, s22, ctil, gamma)
    return DerivativeBundle(value=value, gradient=gradient, hessian=hess)


"""Quantum relative entropy objective for the key-distribution problem.

The objective is f(X) = Tr(Y1 ln Y1) - Tr(Y1 ln Y2) with Y1 = L1(X) + e I
and Y2 = L2(X) + e I for two Kraus maps L1, L2 and a small perturbation e
that keeps both logarithms computable when the map outputs are singular.
The perturbed f is what gets differentiated, so gradient and Hessian are
exact for the value actually returned (they differ from the unperturbed
formulas by O(e)).

Gradient matrix, returned as svec(U.T (grad f1 + grad f2) U) in the
eigenbasis U of X (see ``objectives``):
    grad f1 = L1.T (I + ln Y1)
    grad f2 = -L1.T ln Y2 - L2.T O2 (Ctil o ln^[1](Lam2)) O2.T,
with Ctil = O2.T Y1 O2. Its entries are read off the congruence batches
below, <L.T(G), U E_c U.T> = <O.T G O, V[c]>, with no adjoint. Hessian
on the svec coordinates of U.T xi U (M_i the map matrices restricted to
symmetric inputs in that basis, M_i (U (x) U) P; see ``matfun``):
    H_f1  =  M1.T Dln(Y1) M1
    H_f2  = -M1.T Dln(Y2) M2 - M2.T Dln(Y2) M1 + M2.T (O2 (x) O2) S (O2 (x) O2).T M2,
where Dln(Y) = (O (x) O) Diag(ln^[1](Lam)) (O (x) O).T and S carries
Gamma_ijk = -ln^[2](lam_i, lam_j, lam_k) with weight Ctil. No M_i is
formed: each product is built from the congruence batches
V[c] = O.T L_i(U E_c U.T) O of the svec basis matrices E_c, which the
Kraus maps supply from their factors Ktil_t = O.T K_t U (see ``linmap``):
    V[c] = (w_c/2) sum_t (ktil_{t,a} ktil_{t,b}.T + ktil_{t,b} ktil_{t,a}.T)
for c = (a, b), ktil_{t,a} the column a of Ktil_t. Each product is one
BLAS call on contiguous data, and each is exactly symmetric as built,
so the Hessian is exactly symmetric with no symmetrization pass:
* the core term is 2 r, r = V_flat (S1 V)_flat.T, with S1 the first of
  the core's two terms: Ctil and Gamma are symmetric, so the second term
  acts as the transpose of the first on symmetric batches. One batched
  product forms S1 V, one GEMM forms r, and r + r.T is exactly
  symmetric (``objectives.sandwich_core``);
* the diagonal-core products run over the k(k+1)/2 upper-triangle
  entries of each batch (gathered once per batch). ln^[1] > 0, so H_f1
  is one rank-k update (``dsyrk``) of the batch rows scaled by
  sqrt(ln^[1]), and the two mixed terms of H_f2, transposes of each
  other, are one rank-2k update (``dsyr2k``). Both accumulate into one
  triangle of the core, which is mirrored once
  (``objectives.sandwich_diag``, ``mirror_lower``).
``oracle.dense_qre_hessian_reference`` builds the same Hessian from
dense matrices, sharing none of this assembly.

Like every term (``objectives``), ``qre_eval`` reads X, Y1 and Y2 and
their decompositions from the ``EvalPoint`` it is given, which checks
each of the three for positive definiteness and names the one that
fails. Without ``want_hessian`` it returns the value alone, with no
gradient.
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
    pair_table,
    second_divided_diff_tensor,
    symmetrize,
)
from .objectives import (
    DerivativeBundle,
    EvalPoint,
    batch_inner,
    congruence_batch,
    mirror_lower,
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

    def evaluate(self, point: EvalPoint, want_hessian: bool = True) -> DerivativeBundle:
        return qre_eval(self, point, want_hessian)


def qre_eval(obj: QreObjective, point: EvalPoint, want_hessian: bool = True) -> DerivativeBundle:
    """Value, gradient and Hessian of the relative entropy at ``point``, or its value alone.

    ``point`` and ``want_hessian`` act as in ``objectives.phi_eval``.
    X's own decomposition serves as the domain check and gives the basis
    U; with -ln det X among F_beta's terms, the barrier reads the same one.
    """
    _, dec_x = point.pd_image("relative entropy argument X")
    eps = obj.eps_pert
    y1, dec1 = point.pd_image("L1(X) + eps*I", obj.l1, eps)
    _, dec2 = point.pd_image("L2(X) + eps*I", obj.l2, eps)
    o1, lam1 = dec1.U, dec1.lam
    o2, lam2 = dec2.U, dec2.lam

    ln1, ln2 = np.log(lam1), np.log(lam2)
    ln_y2 = symmetrize((o2 * ln2) @ o2.T)
    value = float(lam1 @ ln1 - inner(y1, ln_y2))
    if not want_hessian:
        return DerivativeBundle(value=value, gradient=None)

    u = dec_x.U
    s11 = triu_rows(congruence_batch(obj.l1, o1, u))
    s12 = triu_rows(congruence_batch(obj.l1, o2, u))
    v22 = congruence_batch(obj.l2, o2, u)
    s22 = triu_rows(v22)
    # one pair table of lam2 serves both of its divided differences
    table2 = pair_table(lam2)
    phi2 = divided_diff_1(LOG, table2)
    gamma = -second_divided_diff_tensor(LOG, table2, f1=phi2)
    ctil = o2.T @ y1 @ o2
    # <I + ln Y1, L1(W_c)> - <ln Y2, L1(W_c)> - <O2 (Ctil o phi2) O2.T, L2(W_c)>
    # for W_c = U E_c U.T, each in the eigenbasis of its map output
    gradient = (batch_inner(s11, np.diag(1.0 + ln1))
                - batch_inner(s12, np.diag(ln2)) - batch_inner(s22, ctil * phi2))

    phi1 = divided_diff_1(LOG, pair_table(lam1))
    hess = sandwich_core(v22, ctil, gamma)
    sandwich_diag(hess, s11, phi1)
    sandwich_diag(hess, s12, phi2, s22, alpha=-1.0)
    mirror_lower(hess)
    return DerivativeBundle(value=value, gradient=gradient, hessian=hess, basis=u)


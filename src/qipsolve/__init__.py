"""Interior-point solver for matrix-monotone trace objectives and
quantum relative entropy problems, via long-step path following."""

from . import errors, kkt, linmap, matfun, objectives, oracle, pathfollow, probio, qre
from .kkt import AffineConstraints, NewtonStep, newton_step_type1, newton_step_type2
from .linmap import KrausMap, PartialTranspose, identity_map, pinching_map
from .matfun import (
    INVERSE,
    NEG_LOG,
    NEG_SQRT,
    ScalarGenerator,
    SpectralDecomp,
    divided_diff_1,
    divided_diff_2,
    neg_power,
    pair_table,
    spectral_decompose,
    vec,
)
from .objectives import DerivativeBundle, TraceObjective, barrier_eval, composite_eval, phi_eval
from .pathfollow import SolveReport, SolverConfig, iteration_bound, solve
from .probio import ProblemSpec, build_named, generate_random, load, save
from .qre import QreObjective, qre_eval

__version__ = "0.1.0"

__all__ = [
    "AffineConstraints",
    "DerivativeBundle",
    "INVERSE",
    "KrausMap",
    "NEG_LOG",
    "NEG_SQRT",
    "NewtonStep",
    "PartialTranspose",
    "ProblemSpec",
    "QreObjective",
    "ScalarGenerator",
    "SolveReport",
    "SolverConfig",
    "SpectralDecomp",
    "TraceObjective",
    "barrier_eval",
    "build_named",
    "composite_eval",
    "divided_diff_1",
    "divided_diff_2",
    "errors",
    "generate_random",
    "identity_map",
    "iteration_bound",
    "kkt",
    "linmap",
    "load",
    "matfun",
    "neg_power",
    "newton_step_type1",
    "newton_step_type2",
    "objectives",
    "oracle",
    "pair_table",
    "pathfollow",
    "phi_eval",
    "pinching_map",
    "probio",
    "qre",
    "qre_eval",
    "save",
    "solve",
    "spectral_decompose",
    "vec",
]

"""The benchmark's workloads: instance sets generated from the run's seed.

Instance ``i`` of a workload run with seed ``s`` is generated with seed
``1000 * s + i``, so the same seed always yields the same instances and
the solver only ever receives generated problems.
"""

from __future__ import annotations

from dataclasses import dataclass

from qipsolve import probio

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Shape:
    """``count`` random instances of one kind with fixed dimensions."""

    kind: str
    dims: dict
    count: int

    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in self.dims.items() if k != "n")
        return f"{self.kind}-n{self.dims['n']}" + (f"[{extra}]" if extra else "")


# The paper's headline application at the table-2 / criterion-9 shape.
# QRE Hessian assembly dominates, the KKT solve is small.
QKD_DESK = (Shape("qkd", {"n": 16, "k": 32, "m": 10, "r1": 2, "r2": 2}, 3),)

# Large trace-objective solves: the Cholesky of the 1024 x 1024 Hessian
# and phi_hessian_in_basis dominate and the QRE code is never reached.
# Three instances, not one: the Newton count of a single n=32 instance
# varies by about 9% from seed to seed (quartile spread over ten seeds).
TYPE1_LARGE = (Shape("type1", {"n": 32, "m": 16, "N": 32, "generator": "inverse"}, 3),)

# Many small mixed solves, as in a key-rate curve: per-call overhead,
# eigendecompositions, line-search value evaluations and the type2
# map-barrier / linmap path dominate instead of BLAS flops. Small QKD
# shapes are left out: about 3% of the n=3 and n=4 instances (and some at
# n=6) fail today with a singular Hessian (ROADMAP item 1), and a
# benchmark workload must be one on which no solve fails. The failure is
# kept in view by an expected-failure test in check_oracle.py, and the
# QRE path is measured by qkd-desk. The small type1 instances need
# either about 15 or about 45 Newton steps, so they carry most of the
# seed-to-seed spread of a pass's work; two per shape, beside 48 type2
# instances, keep that spread near 3% while every generator is solved.
_GENERATORS = (
    {"generator": "inverse"},
    {"generator": "neg_log"},
    {"generator": "neg_sqrt"},
    {"generator": "neg_power", "alpha": 0.37},
)
SWEEP_SMALL = (
    *(Shape("type1", {"n": n, **gen}, 2) for n in (3, 4) for gen in _GENERATORS),
    Shape("type2", {"n": 4, "n1": 2, "n2": 2}, 24),
    Shape("type2", {"n": 9, "n1": 3, "n2": 3}, 24),
)


@dataclass(frozen=True)
class Workload:
    shapes: tuple
    # Solves between two calibration kernel samples, whose times are then
    # reported at the reference machine speed (calibration.py); None for
    # measured seconds, where the kernel does not track the solves.
    kernel_every: int | None = None


WORKLOADS = {
    "qkd-desk": Workload(QKD_DESK),
    "type1-large": Workload(TYPE1_LARGE),
    "sweep-small": Workload(SWEEP_SMALL, kernel_every=4),
}


def build(workload: str, seed: int) -> list[tuple[str, probio.ProblemSpec]]:
    """Generate (and, inside generate_random, validate) a workload's instances."""
    out = []
    for shape in WORKLOADS[workload].shapes:
        for _ in range(shape.count):
            instance_seed = SEED_STRIDE * seed + len(out)
            spec = probio.generate_random(shape.kind, shape.dims, instance_seed)
            out.append((f"{shape.label()}#{instance_seed}", spec))
    return out

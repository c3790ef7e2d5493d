"""Benchmark workloads: one ghlin CLI command and config each.

Every workload is a ``ghlin.cli.run(command, config, prefix)`` call whose
only varying input is the sampling seed.  ``set_up`` makes the library calls
a CLI run makes before its first sample; it is what ``setup_s`` times and it
yields the reference values the output checks compare against.

This module imports nothing from ghlin at import time, so a set-up probe can
time the first ``import ghlin`` of a fresh process.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    samples: int
    config: dict

    def config_for(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["samples"] = self.samples
        cfg["seed"] = int(seed)
        return cfg


# The README shift config: sparse backend, forward map with K = 16, depth 4.
SHIFT_CONJUGATE = Workload(
    name="shift-conjugate",
    command="conjugate",
    samples=8,
    config={
        "operator": {"kind": "shift", "left_tail": 0.5, "right_tail": 2.0, "t": 0.55},
        "perturbation": {"kind": "sine", "amplitude": 0.05, "frequency": 1.0, "window": [-1, 1]},
        "gamma": 0.2,
        "tol": 1e-5,
        "picard_tol": 5e-4,
    },
)

# Non-normal 6x6 matrix: dense backend, Schur-sorted splitting, c ~ 3.83,
# t = 0.8, K = 50, depth 3.  tol / picard_tol equal the CLI defaults.
MATRIX_CONJUGATE = Workload(
    name="matrix-conjugate",
    command="conjugate",
    samples=3,
    config={
        "operator": {
            "kind": "matrix",
            "rows": [
                [0.5, 0.8, 0.0, 0.0, 0.1, 0.0],
                [0.0, 0.6, 0.7, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.4, 0.0, 0.0, 0.2],
                [0.0, 0.0, 0.0, 2.5, 0.9, 0.0],
                [0.0, 0.0, 0.0, 0.0, 3.0, 0.8],
                [0.0, 0.0, 0.0, 0.0, 0.0, 2.2],
            ],
        },
        "perturbation": {"kind": "saturating", "amplitude": 0.002, "scale": 1.0},
        "gamma": 0.2,
        "tol": 1e-6,
        "picard_tol": 1e-4,
    },
)

# quadratic_1d with a nonzero fixed point: translation path, backward map
# only; the acceptance-09 tolerances.
QUAD_LINEARIZE = Workload(
    name="quad-linearize",
    command="linearize",
    samples=60,
    config={
        "problem": {
            "kind": "quadratic_1d",
            "slope": 0.5,
            "quad": 1.0,
            "p": 0.3,
            "t": 0.6,
            "gamma": 0.5,
            "cutoff_r": 0.01,
        },
        "tol": 1e-10,
        "picard_tol": 1e-10,
    },
)

WORKLOADS = {w.name: w for w in (SHIFT_CONJUGATE, MATRIX_CONJUGATE, QUAD_LINEARIZE)}


def set_up(workload: Workload) -> dict:
    """Make the workload's library set-up calls; return its reference values.

    Mirrors what the CLI command builds before sampling, through the public
    API: the operator, the perturbation (or the linearization), both
    conjugacy solves and the Holder certificate.
    """
    import ghlin
    import ghlin.cli  # noqa: F401  -- the entry point every run goes through

    cfg = workload.config
    policy = ghlin.SeriesPolicy(tol=float(cfg["tol"]))
    picard_tol = float(cfg["picard_tol"])
    if workload.command == "conjugate":
        op = ghlin.operator_from_descriptor(cfg["operator"])
        beta = ghlin.perturbation_from_descriptor(cfg["perturbation"], op.norm_kind)
        gamma = float(cfg["gamma"])
        fwd = ghlin.solve_conjugacy(op, beta, gamma, policy, picard_tol)
        bwd = ghlin.solve_inverse_conjugacy(op, beta, policy)
        try:
            eps_eff = max(beta.sup_bound, beta.lip_bound)
            ghlin.make_holder_certificate(op, beta, ghlin.theta_bound(op) / 2.0, eps_eff, 0.999)
        except ValueError:
            pass  # the CLI also runs without a certificate
        residual_bound = None
    else:
        problem = _quadratic_problem(ghlin, cfg["problem"])
        result = ghlin.linearize(problem, policy, picard_tol)
        fwd, bwd = result.forward, result.backward
        residual_bound = result.certified_residual_bound
    return {
        "err_fwd": fwd.certified_error,
        "err_bwd": bwd.certified_error,
        "residual_bound": residual_bound,
    }


def _quadratic_problem(ghlin, desc: dict):
    """The CLI's ``quadratic_1d`` problem, x -> slope*u + quad*u^2 + p with u = x - p."""
    slope, quad, p = float(desc["slope"]), float(desc["quad"]), float(desc["p"])
    op = ghlin.make_matrix_operator([[slope]], t=desc["t"])

    def func(x):
        u = x.array[0] - p
        return ghlin.DenseVector([slope * u + quad * u * u + p])

    return ghlin.LinearizationProblem(
        func=func,
        fixed_point=ghlin.DenseVector([p]),
        derivative=op,
        gamma=float(desc["gamma"]),
        cutoff_r=float(desc["cutoff_r"]),
        nonlinearity_lip=lambda rho: 2.0 * abs(quad) * rho,
    )

"""Command-line front end.

Subcommands:

* ``gh-check``     -- weighted-shift splitting criterion report
* ``constants``    -- certified decay constants and the admissible
                      perturbation size
* ``conjugate``    -- build both conjugacies and verify the identities on
                      deterministic samples
* ``linearize``    -- full fixed-point linearization workflow
* ``holder-probe`` -- empirical Holder ratios against the certified constant

Each run reads one JSON config, writes ``<prefix>.report.json`` and, for the
sampling commands, ``<prefix>.samples.csv``.  Exit code 0 means every
certified check passed, 1 means a check ran but exceeded its certified
bound or could not be certified (its ``status`` is ``"uncertified"`` and its
bound is written as null), or an iterative solve hit its iteration cap, 2
means the configuration or preconditions were invalid.  Reports are strict
JSON: a non-finite number is never written.  A check whose residuals hold a
NaN fails, and its maximum is written as null.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from functools import partial

import numpy as np

from .conjugacy import SeriesPolicy, solve_conjugacy, solve_inverse_conjugacy
from .conjugacy import _conjugate_checks, _membership, _peak, _written
from .linearize import (
    LinearizationProblem,
    _default_certificate,
    empirical_holder,
    linearize,
)
from .operators import (
    WeightSpec,
    admissible_eps,
    check_shift_criterion,
    constants_report,
    make_matrix_operator,
    operator_from_descriptor,
)
from .perturbations import IterationLimitError, perturbation_from_descriptor
from .sampling import sample_pairs, sample_points
from .vectors import Batch, DenseVector, SparseVector, _at_point, _number, _object, pack

__all__ = ["main", "run"]

DEFAULTS = {"samples": 100, "seed": 0, "tol": 1e-6, "picard_tol": 1e-4}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} line {exc.lineno}: {exc.msg}") from exc


def _write_report(prefix: str, payload: dict) -> None:
    payload = dict(payload)
    payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(f"{prefix}.report.json", "w") as fh:
        fh.write(text + "\n")


def _write_samples(prefix: str, op, residuals: list[float], bound: float, values: Batch) -> None:
    # one row per sample; the last column is the distance of its displacement, a row of
    # values, from M + T^{-1}(N)
    membership = _membership(op, values).tolist()
    with open(f"{prefix}.samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_id", "residual", "certified_bound", "y_membership_residual"])
        writer.writerows([i, r, bound, m] for i, (r, m) in enumerate(zip(residuals, membership)))


def _integer(config: dict, key: str, least: int) -> int:
    n = config[key]
    if type(n) is not int or n < least:  # JSON true is a bool, 2.5 a float
        raise ConfigError(f"{key} must be an integer >= {least}, got {n!r}")
    return n


def _policy(config: dict) -> SeriesPolicy:
    return SeriesPolicy(tol=_number(config, "tol", DEFAULTS["tol"]))


def _cmd_gh_check(config: dict, prefix: str, rng) -> int:
    descriptor = _object(config, "operator")
    if descriptor.get("kind") != "shift":
        raise ConfigError("gh-check needs a shift operator descriptor")
    report = check_shift_criterion(WeightSpec.from_descriptor(descriptor))
    _write_report(
        prefix,
        {
            "command": "gh-check",
            "holds": report.holds,
            "left_margin": report.left_margin,
            "right_margin": report.right_margin,
        },
    )
    return 0 if report.holds else 1


def _cmd_constants(config: dict, prefix: str, rng) -> int:
    op = operator_from_descriptor(_object(config, "operator"))
    gamma = _number(config, "gamma", 0.5)
    payload = {"command": "constants", **constants_report(op), "gamma": gamma}
    payload["eps"] = admissible_eps(op, gamma)
    _write_report(prefix, payload)
    return 0


def _cmd_conjugate(config: dict, prefix: str, rng) -> int:
    op = operator_from_descriptor(_object(config, "operator"))
    beta = perturbation_from_descriptor(_object(config, "perturbation"), op.norm_kind)
    gamma = _number(config, "gamma")
    policy = _policy(config)
    picard_tol = _number(config, "picard_tol", DEFAULTS["picard_tol"])
    n = _integer(config, "samples", 1)
    fwd = solve_conjugacy(op, beta, gamma, policy, picard_tol)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    points = sample_points(rng, op, n, beta)
    try:
        holder = _default_certificate(op, beta, 0.999)
    except ValueError:  # no certificate: a perturbed inverse pair is uncertified
        holder = None
    reports = fwd_report, bwd_report, inverse_report = _conjugate_checks(fwd, bwd, points, holder)
    per_point = zip(fwd_report.per_point, bwd_report.per_point, inverse_report.per_point)
    residuals = [_peak([f, b, *pair]) for f, b, pair in per_point]
    bound = max(r.certified_bound for r in reports)
    _write_samples(prefix, op, residuals, bound, fwd_report.values)
    passed = all(r.passed for r in reports)
    _write_report(
        prefix,
        {
            "command": "conjugate",
            "constants": constants_report(op),
            "eps_admissible": admissible_eps(op, gamma),
            "forward": fwd_report.to_dict(),
            "backward": bwd_report.to_dict(),
            "inverse": inverse_report.to_dict(),
            "forward_map": fwd.report(),
            "backward_map": bwd.report(),
            "passed": passed,
        },
    )
    return 0 if passed else 1


def _problem_from_descriptor(obj: dict) -> LinearizationProblem:
    kind = obj.get("kind")
    gamma = _number(obj, "gamma", 0.5)
    cutoff_r = _number(obj, "cutoff_r", 0.01)
    theta = _number(obj, "theta", None)
    # each kind gives its map F as a row form; F at one point is a batch of one
    if kind == "quadratic_1d":
        slope, quad, p = _number(obj, "slope"), _number(obj, "quad"), _number(obj, "p", 0.0)
        op = make_matrix_operator([[slope]], t=_number(obj, "t", None))
        fixed_point, lip = DenseVector([p]), lambda rho: 2.0 * abs(quad) * rho

        def batch(b):
            u = b.rows - p
            return Batch(slope * u + quad * u * u + p)

    elif kind == "shift_plus_sine":
        op = operator_from_descriptor(_object(obj, "operator"))
        wave = perturbation_from_descriptor({**obj, "kind": "sine"}, op.norm_kind)
        fixed_point, lip = SparseVector({}), lambda rho: wave.lip_bound

        def batch(b):
            return op.step(b) + wave.batch(b)

    else:
        raise ConfigError(f"unknown problem kind {kind!r}")
    return LinearizationProblem(
        func=partial(_at_point, batch),
        fixed_point=fixed_point,
        derivative=op,
        gamma=gamma,
        cutoff_r=cutoff_r,
        nonlinearity_lip=lip,
        theta=theta,
        batch=batch,
    )


def _cmd_linearize(config: dict, prefix: str, rng) -> int:
    problem = _problem_from_descriptor(_object(config, "problem"))
    policy = _policy(config)
    picard_tol = _number(config, "picard_tol", DEFAULTS["picard_tol"])
    n = _integer(config, "samples", 1)
    result = linearize(problem, policy, picard_tol)
    op = problem.derivative
    offsets = sample_points(rng, op, n, result.beta, radius=result.u_radius)
    report = result.verify(offsets + pack([problem.fixed_point]))
    _write_samples(prefix, op, report.per_point, report.certified_bound, report.values)
    check = report.to_dict()
    payload = {
        "command": "linearize",
        **result.report(),
        "certified_residual_bound": check["certified_bound"],
        "status": report.status,
        "residual_stats": {
            "n_samples": check["n_samples"],
            "max": check["max_residual"],
            "mean": _written(float(np.mean(report.per_point))) if report.per_point else 0.0,
        },
        "forward_map": result.forward.report(),
        "backward_map": result.backward.report(),
        "passed": report.passed,
    }
    _write_report(prefix, payload)
    return 0 if report.passed else 1


def _cmd_holder_probe(config: dict, prefix: str, rng) -> int:
    op = operator_from_descriptor(_object(config, "operator"))
    beta = perturbation_from_descriptor(_object(config, "perturbation"), op.norm_kind)
    policy = _policy(config)
    n = _integer(config, "samples", 1)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    diameter = _number(config, "domain_diameter", 0.9)
    cert = _default_certificate(op, beta, diameter, _number(config, "theta", None))
    report = empirical_holder(bwd, cert, *sample_pairs(rng, op, n, diameter, beta))
    _write_samples(prefix, op, report.per_pair, report.bound, report.values)
    _write_report(prefix, {"command": "holder-probe", **report.to_dict()})
    return 0 if report.passed else 1


# each subcommand's handler and its line in ``ghlin --help``
_COMMANDS = {
    "gh-check": (_cmd_gh_check, "weighted-shift splitting criterion"),
    "constants": (_cmd_constants, "certified decay constants and admissible perturbation size"),
    "conjugate": (_cmd_conjugate, "build and verify both conjugacies"),
    "linearize": (_cmd_linearize, "fixed-point linearization workflow"),
    "holder-probe": (_cmd_holder_probe, "empirical Holder ratios against the certificate"),
}


def run(command: str, config: dict, prefix: str) -> int:
    """Validate the merged config and dispatch; returns the exit code."""
    if "gamma" in config and not 0.0 < _number(config, "gamma") < 1.0:
        raise ConfigError(f"gamma must lie in (0, 1), got {config['gamma']}")
    if "tol" in config and not _number(config, "tol") > 0.0:
        raise ConfigError(f"tol must be positive, got {config['tol']}")
    config.setdefault("samples", DEFAULTS["samples"])
    config.setdefault("seed", DEFAULTS["seed"])
    rng = np.random.default_rng(_integer(config, "seed", 0))
    return _COMMANDS[command][0](config, prefix, rng)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghlin",
        description=(
            "Certified conjugacies and local linearization for generalized "
            "hyperbolic operators"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default="ghlin-run", help="output path prefix")
        cmd.add_argument("--samples", type=int, default=None, help="sample count override")
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed override")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        if args.samples is not None:
            config["samples"] = args.samples
        if args.seed is not None:
            config["seed"] = args.seed
        return run(args.command, config, args.out)
    except IterationLimitError as exc:
        print(f"ghlin {args.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, RuntimeError, TypeError) as exc:
        print(f"ghlin {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

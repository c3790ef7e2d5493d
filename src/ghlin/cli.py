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
JSON: a non-finite number is never written.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from .conjugacy import (
    SeriesPolicy,
    displacement_space_residual,
    solve_conjugacy,
    solve_inverse_conjugacy,
    verify_conjugacy,
    verify_inverse_pair,
)
from .linearize import (
    LinearizationProblem,
    empirical_holder,
    linearize,
    make_holder_certificate,
    theta_bound,
)
from .operators import (
    WeightSpec,
    admissible_eps,
    check_shift_criterion,
    constants_report,
    make_matrix_operator,
    operator_from_descriptor,
)
from .perturbations import (
    IterationLimitError,
    perturbation_from_descriptor,
    sine_perturbation,
)
from .sampling import sample_pairs, sample_points
from .vectors import DenseVector, SparseVector

__all__ = ["main", "run"]

DEFAULTS = {"samples": 100, "seed": 0, "output": "ghlin-run", "tol": 1e-6, "picard_tol": 1e-4}


class ConfigError(ValueError):
    pass


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config key '{key}' is required for this command")
    return config[key]


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


def _write_samples(prefix: str, rows: list[tuple]) -> None:
    with open(f"{prefix}.samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_id", "residual", "certified_bound", "y_membership_residual"])
        writer.writerows(rows)


def _samples(config: dict) -> int:
    n = config["samples"]
    if type(n) is not int or n < 1:  # JSON true is a bool, 2.5 a float
        raise ConfigError(f"samples must be an integer >= 1, got {n!r}")
    return n


def _policy(config: dict) -> SeriesPolicy:
    return SeriesPolicy(tol=float(config.get("tol", DEFAULTS["tol"])))


def _cmd_gh_check(config: dict, prefix: str, rng) -> int:
    descriptor = _require(config, "operator")
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
    op = operator_from_descriptor(_require(config, "operator"))
    gamma = float(config.get("gamma", 0.5))
    payload = {"command": "constants", **constants_report(op), "gamma": gamma}
    payload["eps"] = admissible_eps(op, gamma)
    _write_report(prefix, payload)
    return 0


def _cmd_conjugate(config: dict, prefix: str, rng) -> int:
    op = operator_from_descriptor(_require(config, "operator"))
    beta = perturbation_from_descriptor(_require(config, "perturbation"), op.norm_kind)
    gamma = float(_require(config, "gamma"))
    policy = _policy(config)
    picard_tol = float(config.get("picard_tol", DEFAULTS["picard_tol"]))
    n = _samples(config)
    fwd = solve_conjugacy(op, beta, gamma, policy, picard_tol)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    points = sample_points(rng, op, n, beta)
    fwd_report = verify_conjugacy(fwd, points)
    bwd_report = verify_conjugacy(bwd, points)
    holder = None
    if not beta.is_zero:
        try:
            cap = theta_bound(op)
            eps_eff = max(beta.sup_bound, beta.lip_bound)
            holder = make_holder_certificate(op, beta, cap / 2.0, eps_eff, 0.999)
        except ValueError:
            holder = None
    inverse_report = verify_inverse_pair(fwd, bwd, points, holder)
    rows = []
    for i, value in enumerate(fwd.displacements(points)):
        residual = max(
            fwd_report.per_point[i],
            bwd_report.per_point[i],
            *inverse_report.per_point[i],
        )
        bound = max(
            fwd_report.certified_bound,
            bwd_report.certified_bound,
            inverse_report.certified_bound,
        )
        membership = displacement_space_residual(op, value)
        rows.append((i, residual, bound, membership))
    _write_samples(prefix, rows)
    passed = fwd_report.passed and bwd_report.passed and inverse_report.passed
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
    gamma = float(obj.get("gamma", 0.5))
    cutoff_r = float(obj.get("cutoff_r", 0.01))
    theta = obj.get("theta")
    if kind == "quadratic_1d":
        slope = float(obj["slope"])
        quad = float(obj["quad"])
        p = float(obj.get("p", 0.0))
        op = make_matrix_operator([[slope]], t=obj.get("t"))

        def func(x):
            u = x.array[0] - p
            return DenseVector([slope * u + quad * u * u + p])

        return LinearizationProblem(
            func=func,
            fixed_point=DenseVector([p]),
            derivative=op,
            gamma=gamma,
            cutoff_r=cutoff_r,
            nonlinearity_lip=lambda rho: 2.0 * abs(quad) * rho,
            theta=theta,
        )
    if kind == "shift_plus_sine":
        op = operator_from_descriptor(obj["operator"])
        lo, hi = obj["window"]
        amp, freq = float(obj["amplitude"]), float(obj["frequency"])
        wave = sine_perturbation(amp, freq, range(int(lo), int(hi) + 1), op.norm_kind)

        def func(x):
            return op.apply(x) + wave(x)

        return LinearizationProblem(
            func=func,
            fixed_point=SparseVector({}),
            derivative=op,
            gamma=gamma,
            cutoff_r=cutoff_r,
            nonlinearity_lip=lambda rho: amp * freq,
            theta=theta,
        )
    raise ConfigError(f"unknown problem kind {kind!r}")


def _cmd_linearize(config: dict, prefix: str, rng) -> int:
    descriptor = dict(_require(config, "problem"))
    for key in ("gamma", "theta", "cutoff_r"):
        if key in config and key not in descriptor:
            descriptor[key] = config[key]
    problem = _problem_from_descriptor(descriptor)
    policy = _policy(config)
    picard_tol = float(config.get("picard_tol", DEFAULTS["picard_tol"]))
    n = _samples(config)
    result = linearize(problem, policy, picard_tol)
    op = problem.derivative
    offsets = sample_points(rng, op, n, result.beta, radius=result.u_radius)
    bound = result.certified_residual_bound
    points = [u + problem.fixed_point for u in offsets]
    residuals = result.conjugacy_residuals(points)
    # the residuals evaluated the map at y - p, which may differ from u in
    # the last bits; those values are in the memo
    values = result.backward.displacements([y - problem.fixed_point for y in points])
    rows = [
        (i, res, bound, displacement_space_residual(op, value))
        for i, (res, value) in enumerate(zip(residuals, values))
    ]
    _write_samples(prefix, rows)
    max_residual = max(residuals, default=0.0)
    covered = all(result.covers(y) for y in points)
    passed = covered and max_residual <= bound
    payload = {
        "command": "linearize",
        **result.report(),
        "certified_residual_bound": bound if covered else None,
        "status": "certified" if covered else "uncertified",
        "residual_stats": {
            "n_samples": n,
            "max": max_residual,
            "mean": float(np.mean(residuals)) if residuals else 0.0,
        },
        "passed": passed,
    }
    _write_report(prefix, payload)
    return 0 if passed else 1


def _cmd_holder_probe(config: dict, prefix: str, rng) -> int:
    op = operator_from_descriptor(_require(config, "operator"))
    beta = perturbation_from_descriptor(_require(config, "perturbation"), op.norm_kind)
    policy = _policy(config)
    n = _samples(config)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    cap = theta_bound(op)
    theta = float(config.get("theta") or cap / 2.0)
    eps_eff = max(beta.sup_bound, beta.lip_bound)
    diameter = float(config.get("domain_diameter", 0.9))
    cert = make_holder_certificate(op, beta, theta, eps_eff, diameter)
    pairs = sample_pairs(rng, op, n, diameter, beta)
    report = empirical_holder(bwd, cert, pairs)
    values = bwd.displacements([x for x, _ in pairs])
    rows = [
        (i, ratio, report.bound, displacement_space_residual(op, value))
        for i, (ratio, value) in enumerate(zip(report.per_pair, values))
    ]
    _write_samples(prefix, rows)
    _write_report(prefix, {"command": "holder-probe", **report.to_dict()})
    return 0 if report.passed else 1


_COMMANDS = {
    "gh-check": _cmd_gh_check,
    "constants": _cmd_constants,
    "conjugate": _cmd_conjugate,
    "linearize": _cmd_linearize,
    "holder-probe": _cmd_holder_probe,
}


def run(command: str, config: dict, prefix: str) -> int:
    """Validate the merged config and dispatch; returns the exit code."""
    if "gamma" in config and not (0.0 < float(config["gamma"]) < 1.0):
        raise ConfigError(f"gamma must lie in (0, 1), got {config['gamma']}")
    if "tol" in config and not float(config["tol"]) > 0.0:
        raise ConfigError(f"tol must be positive, got {config['tol']}")
    config.setdefault("samples", DEFAULTS["samples"])
    config.setdefault("seed", DEFAULTS["seed"])
    rng = np.random.default_rng(int(config["seed"]))
    return _COMMANDS[command](config, prefix, rng)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghlin",
        description=(
            "Certified conjugacies and local linearization for generalized "
            "hyperbolic operators"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("gh-check", "weighted-shift splitting criterion"),
        ("constants", "certified decay constants and admissible perturbation size"),
        ("conjugate", "build and verify both conjugacies"),
        ("linearize", "fixed-point linearization workflow"),
        ("holder-probe", "empirical Holder ratios against the certificate"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output path prefix")
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
        prefix = args.out or config.get("output", DEFAULTS["output"])
        return run(args.command, config, prefix)
    except IterationLimitError as exc:
        print(f"ghlin {args.command}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"ghlin {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

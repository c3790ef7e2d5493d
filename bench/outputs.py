"""Reading and checking what one CLI run wrote.

The certified checks are read from ``<prefix>.report.json``, not from the
CSV: the CSV's ``certified_bound`` column is the largest of the three bounds
of a ``conjugate`` run, so one infinite bound would let every row pass.  The
report may hold the token ``Infinity``, which Python's ``json`` accepts.

A check *fails* when its observed residual exceeds its quoted bound (or the
run raised) and is *uncertified* when its bound is not a finite number or
its status says so.  Neither aborts the run: both are measured.  What makes
a run *incorrect* is output that contradicts itself or the reference values
of the set-up calls, or that differs between repetitions of the same input.
"""

from __future__ import annotations

import csv
import json
import math
import os

CONJUGATE_CHECKS = ("forward", "backward", "inverse")


def checks_per_run(command: str) -> int:
    return len(CONJUGATE_CHECKS) if command == "conjugate" else 1


def read(prefix: str) -> tuple[dict, list[list[str]], str]:
    """The parsed report, the CSV rows with header, and a canonical text of both."""
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    with open(f"{prefix}.samples.csv", newline="") as fh:
        csv_text = fh.read()
    rows = list(csv.reader(csv_text.splitlines()))
    stable = {k: v for k, v in report.items() if k != "generated_at"}
    canonical = json.dumps(stable, sort_keys=True) + "\n" + csv_text
    return report, rows, canonical


def output_bytes(prefix: str) -> int:
    return sum(os.path.getsize(f"{prefix}.{ext}") for ext in ("report.json", "samples.csv"))


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.inf  # null, a string, or a missing bound certifies nothing
    return float(value)


def _residual(check: dict) -> float:
    if "max_residual" in check:
        return _number(check["max_residual"])
    return max(_number(check["max_residual_left"]), _number(check["max_residual_right"]))


def certified_checks(command: str, report: dict) -> list[dict]:
    """Each certified check as residual, bound and the reported verdict."""
    if command == "conjugate":
        return [
            {
                "name": name,
                "residual": _residual(report[name]),
                "bound": _number(report[name].get("certified_bound")),
                "status": report[name].get("status"),
                "passed": report[name].get("passed"),
            }
            for name in CONJUGATE_CHECKS
        ]
    return [
        {
            "name": "residual",
            "residual": _number(report["residual_stats"]["max"]),
            "bound": _number(report.get("certified_residual_bound")),
            "status": report.get("status"),
            "passed": report.get("passed"),
        }
    ]


def outcome(check: dict) -> tuple[bool, bool]:
    """(failed, uncertified) for one check."""
    failed = not check["residual"] <= check["bound"]
    uncertified = not math.isfinite(check["bound"]) or check["status"] == "uncertified"
    return failed, uncertified


def problems(command: str, samples: int, rc: int, report: dict,
             rows: list[list[str]], ref: dict) -> list[str]:
    """Inconsistencies in one run's outputs; an empty list means correct."""
    out = []
    if rc not in (0, 1):
        out.append(f"exit code {rc}")
    if report.get("command") != command:
        out.append(f"report command {report.get('command')!r}")
    if (rc == 0) != (report.get("passed") is True):
        out.append(f"exit code {rc} disagrees with passed={report.get('passed')}")
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    if header[:2] != ["point_id", "residual"]:
        out.append(f"CSV header {header}")
        return out
    if [r[0] for r in body] != [str(i) for i in range(samples)]:
        out.append(f"CSV has {len(body)} rows, expected point ids 0..{samples - 1}")
        return out
    residuals = [float(r[1]) for r in body]
    if not all(math.isfinite(r) and r >= 0.0 for r in residuals):
        out.append("CSV residual column is not finite and nonnegative")
    checks = certified_checks(command, report)
    for check in checks:
        if math.isfinite(check["bound"]) and check["passed"] != (check["residual"] <= check["bound"]):
            out.append(f"{check['name']}: passed={check['passed']} but residual "
                       f"{check['residual']} vs bound {check['bound']}")
    if report.get("passed") is True and not all(c["passed"] for c in checks):
        out.append("report passed although a check did not")
    if max(residuals, default=0.0) != max(c["residual"] for c in checks):
        out.append("CSV residuals disagree with the report's maxima")
    if command == "conjugate":
        for name in CONJUGATE_CHECKS:
            if report[name].get("n_samples") != samples:
                out.append(f"{name}: n_samples {report[name].get('n_samples')}")
        for key, ref_key in (("forward_map", "err_fwd"), ("backward_map", "err_bwd")):
            if report[key]["certified_error"] != ref[ref_key]:
                out.append(f"{key} certified_error {report[key]['certified_error']} "
                           f"!= set-up value {ref[ref_key]}")
    else:
        if report["residual_stats"].get("n_samples") != samples:
            out.append(f"residual_stats n_samples {report['residual_stats'].get('n_samples')}")
        if report.get("certified_residual_bound") != ref["residual_bound"]:
            out.append(f"certified_residual_bound {report.get('certified_residual_bound')} "
                       f"!= set-up value {ref['residual_bound']}")
    return out

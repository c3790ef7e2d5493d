"""Command-line interface: configs, reports, CSV output and exit codes."""

import csv
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ghlin import (
    ConjugacyMap,
    IterationLimitError,
    MatrixOperator,
    Perturbation,
    ShiftOperator,
    cli,
    conjugacy,
    displacement_space_residual,
    linearize,
    operators,
    perturbations,
    vectors,
    verify_conjugacy,
    verify_inverse_pair,
)
from ghlin.cli import main
from conftest import lattice_calls

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def read_report(tmp_path, prefix):
    with open(tmp_path / f"{prefix}.report.json") as fh:
        return json.load(fh)


def read_samples(tmp_path, prefix):
    with open(tmp_path / f"{prefix}.samples.csv") as fh:
        return list(csv.reader(fh))


def count_lattice_rows(monkeypatch):
    """A list that receives the row count of every ConjugacyMap._values call."""
    rows, values = [], ConjugacyMap._values
    monkeypatch.setattr(ConjugacyMap, "_values", lambda m, xs: rows.append(len(xs)) or values(m, xs))
    return rows


SHIFT = {"kind": "shift", "left_tail": 0.5, "right_tail": 2.0, "t": 0.55}


def test_gh_check_accepts_standard_shift(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"operator": SHIFT})
    code = main(["gh-check", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    report = read_report(tmp_path, "run")
    assert report["holds"] is True
    assert report["left_margin"] == 0.5 and report["right_margin"] == 2.0


def test_gh_check_flags_failing_weights(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", {"operator": {"kind": "shift", "left_tail": 2.0, "right_tail": 2.0}}
    )
    code = main(["gh-check", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 1
    assert read_report(tmp_path, "run")["holds"] is False


def test_constants_report_fields(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"operator": SHIFT, "gamma": 0.2})
    code = main(["constants", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    report = read_report(tmp_path, "run")
    assert {"c", "t", "d", "n_max", "eps"} <= set(report)
    assert report["eps"] == pytest.approx(0.2 * 0.45 / 1.55)


def test_conjugate_zero_perturbation_all_residuals_zero(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "operator": SHIFT,
            "perturbation": {"kind": "zero"},
            "gamma": 0.5,
            "samples": 10,
            "seed": 4,
        },
    )
    code = main(["conjugate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    report = read_report(tmp_path, "run")
    assert report["forward"]["max_residual"] == 0.0
    assert report["backward"]["max_residual"] == 0.0
    assert report["inverse"]["max_residual_left"] == 0.0
    rows = read_samples(tmp_path, "run")
    assert rows[0] == ["point_id", "residual", "certified_bound", "y_membership_residual"]
    assert all(float(r[1]) == 0.0 and float(r[3]) == 0.0 for r in rows[1:])
    assert len(rows) == 11


def test_conjugate_sine_instance_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "operator": SHIFT,
            "perturbation": {"kind": "sine", "amplitude": 0.05, "frequency": 1.0, "window": [-1, 1]},
            "gamma": 0.2,
            "tol": 1e-5,
            "picard_tol": 5e-4,
            "samples": 5,
            "seed": 11,
        },
    )
    code = main(["conjugate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    report = read_report(tmp_path, "run")
    assert report["passed"] is True
    assert report["forward"]["max_residual"] <= report["forward"]["certified_bound"]


def test_conjugate_rejects_oversized_perturbation(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "operator": SHIFT,
            "perturbation": {"kind": "sine", "amplitude": 0.4, "frequency": 1.0, "window": [0, 0]},
            "gamma": 0.2,
            "samples": 5,
        },
    )
    code = main(["conjugate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "gamma*(1-t)/(c*d*(1+t))" in err


def test_constants_underflow_exits_2_without_traceback(tmp_path, capsys):
    # t^n underflows long before this Jordan block's power window at t = 0.5001
    operator = {"kind": "matrix", "rows": [[0.5, 1.0], [0.0, 0.5]], "t": 0.5001}
    cfg = write_config(tmp_path, "c.json", {"operator": operator})
    code = main(["constants", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ghlin constants: constants not certifiable") and err.count("\n") == 1


def test_constants_weight_product_underflow_exits_2_without_traceback(tmp_path, capsys):
    # w_2 * w_3 = 1e-400 underflows to zero in the norm of T^-2 on N
    operator = {"kind": "shift", "left_tail": 0.5, "right_tail": 2.0,
                "core": {"2": 1e-200, "3": 1e-200}}
    cfg = write_config(tmp_path, "c.json", {"operator": operator})
    code = main(["constants", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ghlin constants: the norm of T^-2 on N is not certifiable")
    assert err.count("\n") == 1


def test_conjugate_lp_norm_overflow_exits_2_without_traceback(tmp_path, capsys):
    # |b|_2 = 1e200 although 1e200 ** 2 overflows; far above the admissible size
    config = {
        "operator": {**SHIFT, "norm": {"kind": "lp", "p": 2}},
        "perturbation": {"kind": "constant", "vector": {"0": 1e200}},
        "gamma": 0.2,
        "samples": 2,
    }
    cfg = write_config(tmp_path, "c.json", config)
    code = main(["conjugate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ghlin conjugate: sup of beta = 1e+200 exceeds") and err.count("\n") == 1


@pytest.mark.parametrize("samples", [0, -3, True, 2.5])
def test_sample_count_must_be_a_positive_integer(tmp_path, capsys, samples):
    conjugate = {
        "operator": SHIFT,
        "perturbation": {"kind": "sine", "amplitude": 0.05, "frequency": 1.0, "window": [-1, 1]},
        "gamma": 0.2,
        "samples": samples,
    }
    problem = {"kind": "quadratic_1d", "slope": 0.5, "quad": 1.0, "t": 0.6}
    configs = {"conjugate": conjugate, "linearize": {"problem": problem, "samples": samples}}
    for command, config in configs.items():
        cfg = write_config(tmp_path, f"{command}.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err == f"ghlin {command}: samples must be an integer >= 1, got {samples!r}\n"
        assert not (tmp_path / f"{command}.report.json").exists()


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def test_conjugate_uncertified_inverse_pair_exits_1(tmp_path):
    # no Holder certificate exists at t = 0.6, so the inverse-pair bound is
    # infinite: that check is uncertified and cannot pass
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "operator": {"kind": "matrix", "rows": [[0.5, 4.0], [0.0, 3.0]], "t": 0.6},
            "perturbation": {"kind": "sine", "amplitude": 0.005, "frequency": 1.0, "window": [0, 1]},
            "gamma": 0.2,
            "samples": 5,
            "seed": 3,
        },
    )
    code = main(["conjugate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 1
    with open(tmp_path / "run.report.json") as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    inverse = report["inverse"]
    assert inverse["status"] == "uncertified" and inverse["passed"] is False
    assert inverse["certified_bound"] is None
    assert report["forward"]["status"] == "certified"
    assert report["passed"] is False
    assert all(row[2] == "inf" for row in read_samples(tmp_path, "run")[1:])


def test_backward_radius_covers_images_of_large_operator(tmp_path):
    # |T| + sup beta = 4.505: the backward map is evaluated at (T + beta) x
    # beyond 4, and its derived eval_radius still covers every such point
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "operator": {"kind": "matrix", "rows": [[0.5, 4.0], [0.0, 3.0]], "t": 0.6},
            "perturbation": {"kind": "sine", "amplitude": 0.005, "frequency": 1.0, "window": [0, 1]},
            "gamma": 0.2,
            "samples": 100,
            "seed": 0,
        },
    )
    code = main(["conjugate", "--config", cfg, "--out", str(tmp_path / "run")])
    report = read_report(tmp_path, "run")
    assert report["backward_map"]["eval_radius"] == 4.505
    backward = report["backward"]
    assert backward["status"] == "certified" and backward["passed"] is True
    assert backward["max_residual"] <= backward["certified_bound"]
    # no Holder certificate for this operator: the inverse pair stays uncertified
    assert report["inverse"]["status"] == "uncertified"
    assert code == 1


LINEARIZE_SHIFT = {
    "kind": "shift_plus_sine",
    "operator": SHIFT,
    "window": [-1, 1],
    "amplitude": 1e-4,
    "frequency": 1.0,
    "gamma": 0.2,
    "cutoff_r": 5,
}


def test_linearize_outside_eval_radius_is_uncertified(tmp_path):
    # the cutoff radius stays at 5, so sampled offsets reach beyond the
    # backward map's eval_radius of about 2 and its bound is not quoted there
    cfg = write_config(
        tmp_path, "c.json", {"problem": LINEARIZE_SHIFT, "samples": 20, "seed": 0}
    )
    code = main(["linearize", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 1
    report = read_report(tmp_path, "run")
    assert report["u_radius"] == 5.0
    assert report["status"] == "uncertified" and report["passed"] is False
    assert report["certified_residual_bound"] is None


@pytest.mark.parametrize("config", [
    {"problem": {"kind": "quadratic_1d", "slope": 0.5, "quad": 1.0, "p": 0.3, "t": 0.6,
                 "gamma": 0.5, "cutoff_r": 0.01},
     "tol": 1e-10, "picard_tol": 1e-10, "samples": 30, "seed": 2},
    {"problem": {"kind": "shift_plus_sine", "operator": {**SHIFT, "core": {"0": 0.3}},
                 "amplitude": 1e-4, "frequency": 1.0, "window": [-1, 1], "gamma": 0.2,
                 "cutoff_r": 0.01},
     "tol": 1e-5, "picard_tol": 5e-4, "samples": 20, "seed": 0},
], ids=["quadratic_1d", "shift_plus_sine"])
def test_linearize_inside_eval_radius_is_certified(tmp_path, config):
    # the benchmark compares the report's bound with the set-up bound bit for bit
    from ghlin.cli import _policy, _problem_from_descriptor

    code = main(["linearize", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")])
    assert code == 0
    report = read_report(tmp_path, "run")
    assert report["status"] == "certified" and report["passed"] is True
    problem = _problem_from_descriptor(config["problem"])
    result = linearize(problem, _policy(config), config["picard_tol"])
    assert report["certified_residual_bound"] == result.certified_residual_bound


def test_linearize_membership_reuses_the_residual_evaluation(tmp_path, monkeypatch):
    # the residual evaluates the backward map at (u + p) - p, which may
    # differ from the offset u in the last bits; the membership column must
    # describe that same displacement and so add no evaluation of its own
    captured = {}

    def capture(name, fn):
        def wrapper(*args, **kwargs):
            captured[name] = out = fn(*args, **kwargs)
            return out

        monkeypatch.setattr(cli, name, wrapper)

    capture("linearize", cli.linearize)
    capture("sample_points", cli.sample_points)
    rows_evaluated = count_lattice_rows(monkeypatch)
    problem = {
        "kind": "quadratic_1d", "slope": 0.5, "quad": 1.0, "p": 0.3,
        "t": 0.6, "gamma": 0.5, "cutoff_r": 0.01,
    }
    config = {"problem": problem, "tol": 1e-10, "picard_tol": 1e-10, "samples": 20, "seed": 0}
    code = main(["linearize", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")])
    assert code == 0
    result, offsets = captured["linearize"], captured["sample_points"].unpack()
    p = result.fixed_point
    assert len(offsets) == 20
    assert sum(rows_evaluated) == 2 * 20
    op = result.problem.derivative
    rows = read_samples(tmp_path, "run")[1:]
    for row, u in zip(rows, offsets):
        expected = displacement_space_residual(op, result.backward.displacement((u + p) - p))
        assert float(row[3]) == expected


def test_malformed_config_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "operator": {\n}')
    code = main(["gh-check", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"gamma": 0.5})
    code = main(["conjugate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert "operator" in capsys.readouterr().err


def test_iteration_limit_exits_with_check_failure(tmp_path, capsys, monkeypatch):
    def stalled(config, prefix, rng):
        raise IterationLimitError("perturbed inverse did not converge")

    monkeypatch.setitem(cli._COMMANDS, "constants", (stalled, "help"))
    cfg = write_config(tmp_path, "c.json", {"operator": SHIFT})
    code = main(["constants", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 1
    assert "did not converge" in capsys.readouterr().err


def test_perturbed_inverse_cap_exits_1(tmp_path, capsys, monkeypatch):
    # one iteration cannot reach the residual target of the backward orbit's inverse solves
    monkeypatch.setattr(perturbations, "INVERSE_MAX_ITER", 1)
    readme = {"operator": SHIFT, "gamma": 0.2, "tol": 1e-5, "picard_tol": 5e-4, "seed": 7,
              "perturbation": {"kind": "sine", "amplitude": 0.05, "frequency": 1.0,
                               "window": [-1, 1]}}
    cfg = write_config(tmp_path, "c.json", {**readme, "samples": 3})
    code = main(["conjugate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ghlin conjugate: ") and "did not reach residual" in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config"),
    ("[1, 2]", "config root must be a JSON object"),
], ids=["missing-file", "array-root"])
def test_unreadable_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text)
    code = main(["constants", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ghlin constants: ") and message in err


def test_linearize_quadratic_problem(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "problem": {
                "kind": "quadratic_1d",
                "slope": 0.5,
                "quad": 1.0,
                "p": 0.0,
                "gamma": 0.5,
                "cutoff_r": 0.01,
                "t": 0.6,
            },
            "tol": 1e-9,
            "picard_tol": 1e-9,
            "samples": 20,
            "seed": 3,
        },
    )
    code = main(["linearize", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    report = read_report(tmp_path, "run")
    assert report["passed"] is True
    assert report["u_radius"] > 0
    assert report["residual_stats"]["max"] <= report["certified_residual_bound"]


def test_holder_probe_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "operator": {"kind": "matrix", "rows": [[0.5, 0.0], [0.0, 3.0]], "t": 0.6},
            "perturbation": {"kind": "sine", "amplitude": 0.01, "frequency": 1.0, "window": [0, 1]},
            "tol": 1e-8,
            "samples": 20,
            "seed": 9,
        },
    )
    code = main(["holder-probe", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    report = read_report(tmp_path, "run")
    assert report["max_ratio"] <= report["bound"]


SINE = {"kind": "sine", "amplitude": 0.05, "frequency": 1.0, "window": [-1, 1]}
QUAD = {"kind": "quadratic_1d", "slope": 0.5, "quad": 1.0, "p": 0.3, "t": 0.6, "gamma": 0.5,
        "cutoff_r": 0.01}


@pytest.mark.parametrize("command, config, per_sample", [
    # both identity checks at each sample and its image, then one leg of the inverse pair each
    ("conjugate", {"operator": SHIFT, "perturbation": SINE, "gamma": 0.2, "tol": 1e-5,
                   "picard_tol": 5e-4}, 6),
    # the identity check at each sample and its image; the CSV reuses the check's values
    ("linearize", {"problem": QUAD, "tol": 1e-10, "picard_tol": 1e-10}, 2),
    # both ends of each pair; the CSV reuses the values at the first ends
    ("holder-probe", {"operator": SHIFT, "perturbation": SINE, "tol": 1e-5}, 2),
])
def test_each_command_evaluates_its_lattice_rows_once(tmp_path, monkeypatch, command, config,
                                                      per_sample):
    rows = count_lattice_rows(monkeypatch)
    cfg = write_config(tmp_path, "c.json", {**config, "samples": 5, "seed": 1})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert sum(rows) == per_sample * 5
    assert len(read_samples(tmp_path, "run")) == 1 + 5


def test_conjugate_runs_the_backward_map_once(tmp_path, monkeypatch):
    # forward at [T x, x]; backward once at [(T + beta) x, x, x + h_fwd(x)], which serves its
    # identity check and the H_back o H_fwd leg; forward at x + h_bwd(x)
    calls = lattice_calls(monkeypatch)
    config = {"operator": SHIFT, "perturbation": SINE, "gamma": 0.2, "tol": 1e-5,
              "picard_tol": 5e-4, "samples": 5, "seed": 1}
    assert main(["conjugate", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")]) == 0
    assert calls == [("forward", 10), ("backward", 15), ("forward", 5)]


def lattice_array_sizes(monkeypatch) -> list[int]:
    """A list that receives the byte size of every orbit array and sweep buffer.

    A stepped orbit is ``stack``'s array in ``operators``; the backward orbit
    kernel keeps its points apart and ``stack``s beta along them in
    ``conjugacy``, an array of the orbit's size.  The orbit kernels of T (the
    shift's accumulate buffer and its laid-out orbit, the dense backend's
    orbit) and both sweeps allocate theirs with ``np.empty`` or ``np.zeros``
    in ``operators``, whose numpy is swapped for one that records each array
    those two make.
    """
    sizes, stack = [], operators.stack

    def spy_stack(*args):
        out = stack(*args)
        sizes.append(out.rows.nbytes)
        return out

    def recorded(make):
        def spy(*args, **kwargs):
            out = make(*args, **kwargs)
            sizes.append(out.nbytes)
            return out

        return spy

    class RecordingNumpy:
        empty, zeros = staticmethod(recorded(np.empty)), staticmethod(recorded(np.zeros))

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(operators, "stack", spy_stack)
    monkeypatch.setattr(conjugacy, "stack", spy_stack)
    monkeypatch.setattr(operators, "np", RecordingNumpy())
    return sizes


@pytest.mark.parametrize("budget", [None, 1 << 20])
def test_readme_conjugate_chunks_fit_the_chunk_budget(tmp_path, monkeypatch, budget):
    # the chunk size counts the top sweep's buffer and the sine's window: at the shipped
    # budget 100 samples take one call per map evaluation, and no array outgrows the budget
    if budget is not None:
        monkeypatch.setattr(conjugacy, "CHUNK_BYTES", budget)
    calls, sizes = lattice_calls(monkeypatch), lattice_array_sizes(monkeypatch)
    config = {"operator": SHIFT, "perturbation": SINE, "gamma": 0.2, "tol": 1e-5,
              "picard_tol": 5e-4, "samples": 100, "seed": 7}
    assert main(["conjugate", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")]) == 0
    if budget is None:
        assert calls == [("forward", 200), ("backward", 300), ("forward", 100)]
    else:
        assert len(calls) > 3
    assert 0 < max(sizes) <= conjugacy.CHUNK_BYTES


@pytest.mark.parametrize("beta, tol, picard_tol, calls, backward_calls", [
    # one forward call: the orbit kernel builds chains only for the columns that reach the
    # sine's window
    (perturbations.sine_perturbation(0.05, 1.0, window=[-1, 1]), 1e-5, 5e-4, [100], [100]),
    # K 15, depth 3: a chunk's orbit spans the union of its rows' columns, each spread by the
    # lattice's reach, so the points run in chunks of 7; the backward map, depth 1, in 23
    (perturbations.saturating_perturbation(0.02, 1.0), 1e-6, 1e-4, [7] * 14 + [2],
     [23] * 4 + [8]),
], ids=["windowed", "windowless"])
def test_far_apart_points_fit_the_chunk_budget(monkeypatch, beta, tol, picard_tol, calls,
                                               backward_calls):
    # 100 points with disjoint 5-column supports over [-2000, 1964]
    op = operators.make_shift(operators.WeightSpec(0.5, 2.0), t=0.55)
    fwd = conjugacy.solve_conjugacy(op, beta, 0.2, conjugacy.SeriesPolicy(tol=tol),
                                    picard_tol=picard_tol)
    bwd = conjugacy.solve_inverse_conjugacy(op, beta, conjugacy.SeriesPolicy(tol=tol))
    rng = np.random.default_rng(5)
    points = [vectors.SparseVector(dict(zip(range(lo, lo + 5), rng.uniform(-0.5, 0.5, 5))))
              for lo in range(-2000, 1961, 40)]
    for cmap, counts in ((fwd, calls), (bwd, backward_calls)):
        got, sizes = lattice_calls(monkeypatch), lattice_array_sizes(monkeypatch)
        values = cmap.displacements(points)
        assert got == [(cmap.direction, n) for n in counts]
        assert 0 < max(sizes) <= conjugacy.CHUNK_BYTES
        assert [v.memo_key() for v in values] == [cmap.displacement(x).memo_key() for x in points]
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["shift-conjugate", "matrix-conjugate"])
def test_conjugate_blocks_equal_the_separate_library_checks(tmp_path, monkeypatch, name):
    # a row gets the same value in any batch: bit for bit on the shift, and within the
    # certified error on the dense backend, where gemm and gemv may round differently
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    captured = {}

    def capture(key):
        fn = getattr(cli, key)

        def wrapper(*args, **kwargs):
            captured[key] = None  # _default_certificate raises when there is no certificate
            captured[key] = out = fn(*args, **kwargs)
            return out

        monkeypatch.setattr(cli, key, wrapper)

    for key in ("solve_conjugacy", "solve_inverse_conjugacy", "sample_points",
                "_default_certificate"):
        capture(key)
    cli.run("conjugate", workload.config_for(61), str(tmp_path / "run"))
    report, rows = read_report(tmp_path, "run"), read_samples(tmp_path, "run")[1:]
    fwd, bwd = captured["solve_conjugacy"], captured["solve_inverse_conjugacy"]
    points, holder = captured["sample_points"], captured["_default_certificate"]
    separate = {
        "forward": verify_conjugacy(fwd, points),
        "backward": verify_conjugacy(bwd, points),
        "inverse": verify_inverse_pair(fwd, bwd, points, holder),
    }
    per_point = zip(*(check.per_point for check in separate.values()))
    residuals = [max(f, b, *pair) for f, b, pair in per_point]
    if name == "shift-conjugate":
        for key, check in separate.items():
            assert report[key] == json.loads(json.dumps(check.to_dict()))
        assert [float(row[1]) for row in rows] == residuals
        return
    tol = fwd.certified_error + bwd.certified_error
    for key, check in separate.items():
        for field, value in check.to_dict().items():
            if field.startswith("max_residual"):
                assert report[key][field] == pytest.approx(value, abs=tol)
            else:
                assert report[key][field] == value
    assert [float(row[1]) for row in rows] == pytest.approx(residuals, abs=tol)


@pytest.mark.parametrize("command, config", [
    ("conjugate", {"operator": SHIFT, "perturbation": SINE, "gamma": 0.2, "tol": 1e-5,
                   "picard_tol": 5e-4}),
    ("linearize", {"problem": QUAD, "tol": 1e-10, "picard_tol": 1e-10}),
], ids=["conjugate", "linearize"])
def test_checks_make_no_single_point_calls(tmp_path, monkeypatch, command, config):
    # the checks and the CSV membership column are batch expressions, so the
    # single-point forms of T, T^{-1}, beta, the norm and the membership residual go unused
    calls = []

    def spy(owner, name, fn):
        monkeypatch.setattr(owner, name, lambda *args: calls.append(fn.__qualname__) or fn(*args))

    for cls in (ShiftOperator, MatrixOperator):
        spy(cls, "apply", cls.apply)
        spy(cls, "apply_inverse", cls.apply_inverse)
    spy(Perturbation, "__call__", Perturbation.__call__)
    for fn in (vectors.norm, displacement_space_residual):  # at every import site
        for module in [m for name, m in sys.modules.items() if name.startswith("ghlin")]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    spy(module, attr, fn)
    cfg = write_config(tmp_path, "c.json", {**config, "samples": 10, "seed": 7})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert calls == []


@pytest.mark.parametrize("command, config, packs", [
    ("conjugate", {"operator": SHIFT, "perturbation": SINE, "gamma": 0.2, "tol": 1e-5,
                   "picard_tol": 5e-4}, 0),
    # the fixed point is packed by LinearizationProblem.__post_init__, linearize and verify,
    # the origin by cutoff, and the fixed point once more to translate the offsets
    ("linearize", {"problem": QUAD, "tol": 1e-10, "picard_tol": 1e-10}, 5),
    ("holder-probe", {"operator": SHIFT, "perturbation": SINE, "tol": 1e-5, "samples": 100}, 0),
], ids=["conjugate", "linearize", "holder-probe"])
def test_commands_pack_the_samples_once_and_unpack_once(tmp_path, monkeypatch, command, config,
                                                        packs):
    # the sampler draws a batch and every command checks it as it is: no sample is packed or
    # unpacked, and every batch after the draw, the check points and the displacements, stays
    # a batch up to the CSV's last column
    counts = {"pack": 0, "unpack": 0}
    pack, unpack = vectors.pack, vectors.Batch.unpack

    def counted(key, fn):
        return lambda *args: counts.__setitem__(key, counts[key] + 1) or fn(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("ghlin")]:
        for attr, value in list(vars(module).items()):
            if value is pack:
                monkeypatch.setattr(module, attr, counted("pack", pack))
    monkeypatch.setattr(vectors.Batch, "unpack", counted("unpack", unpack))
    cfg = write_config(tmp_path, "c.json", {"samples": 10, "seed": 7, **config})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert counts == {"pack": packs, "unpack": 0}


def test_reports_are_deterministic(tmp_path):
    payload = {
        "operator": SHIFT,
        "perturbation": {"kind": "sine", "amplitude": 0.05, "frequency": 1.0, "window": [-1, 1]},
        "gamma": 0.2,
        "tol": 1e-5,
        "picard_tol": 5e-4,
        "samples": 4,
        "seed": 123,
    }
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["conjugate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["conjugate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0

    def normalized(prefix):
        report = read_report(tmp_path, prefix)
        report.pop("generated_at")
        return json.dumps(report, sort_keys=True)

    assert normalized("a") == normalized("b")
    assert (tmp_path / "a.samples.csv").read_text() == (tmp_path / "b.samples.csv").read_text()


def test_cli_flag_overrides(tmp_path):
    payload = {
        "operator": SHIFT,
        "perturbation": {"kind": "zero"},
        "gamma": 0.5,
        "samples": 50,
        "seed": 1,
    }
    cfg = write_config(tmp_path, "c.json", payload)
    code = main(
        ["conjugate", "--config", cfg, "--out", str(tmp_path / "run"), "--samples", "3", "--seed", "2"]
    )
    assert code == 0
    assert len(read_samples(tmp_path, "run")) == 4


QUADRATIC = {
    "kind": "quadratic_1d", "slope": 0.5, "quad": 1.0, "p": 0.3,
    "t": 0.6, "gamma": 0.5, "cutoff_r": 0.01,
}


@pytest.mark.parametrize("cutoff_r", [math.nan, math.inf], ids=["NaN", "Infinity"])
def test_linearize_non_finite_cutoff_radius_exits_2(tmp_path, capsys, cutoff_r):
    # json writes and reads the tokens NaN and Infinity
    config = {"problem": {**QUADRATIC, "cutoff_r": cutoff_r}, "samples": 5}
    code = main(["linearize", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "cutoff_r" in capsys.readouterr().err


def test_conjugate_nan_picard_tol_exits_2_naming_it(tmp_path, capsys):
    config = {
        "operator": SHIFT,
        "perturbation": {"kind": "sine", "amplitude": 0.05, "frequency": 1.0, "window": [-1, 1]},
        "gamma": 0.2,
        "picard_tol": math.nan,
        "samples": 5,
    }
    code = main(["conjugate", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "picard_tol" in capsys.readouterr().err


def test_holder_probe_uses_the_configured_theta(tmp_path, capsys):
    # theta 0 is outside (0, 1], not a request for the default
    config = {
        "operator": {"kind": "matrix", "rows": [[0.5, 0.0], [0.0, 3.0]], "t": 0.6},
        "perturbation": {"kind": "sine", "amplitude": 0.01, "frequency": 1.0, "window": [0, 1]},
        "tol": 1e-8,
        "samples": 20,
        "seed": 9,
    }
    for theta, expected in ((0, 2), (0.1, 0)):
        cfg = write_config(tmp_path, "c.json", {**config, "theta": theta})
        assert main(["holder-probe", "--config", cfg, "--out", str(tmp_path / "run")]) == expected
    assert "theta must lie in (0, 1]" in capsys.readouterr().err
    assert read_report(tmp_path, "run")["theta"] == 0.1


def without(descriptor, key):
    return {k: v for k, v in descriptor.items() if k != key}


SINE = {"kind": "sine", "amplitude": 0.05, "frequency": 1.0, "window": [-1, 1]}
DIAGONAL = {"kind": "matrix", "rows": [[0.5, 0.0], [0.0, 3.0]], "t": 0.6}
SHIFT_PLUS_SINE = {
    "kind": "shift_plus_sine", "operator": SHIFT, "amplitude": 0.01, "frequency": 1.0,
    "window": [-1, 1], "gamma": 0.5, "cutoff_r": 0.01,
}


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("conjugate", {"operator": {**SHIFT, "t": "0.55"}, "perturbation": SINE}, "t"),
        ("conjugate", {"operator": SHIFT, "perturbation": {**SINE, "window": 5}}, "window"),
        ("conjugate", {"operator": SHIFT, "perturbation": {**SINE, "amplitude": "0.05"}},
         "amplitude"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "gamma": [0.2]}, "gamma"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "seed": None}, "seed"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "seed": True}, "seed"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "seed": 1.5}, "seed"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "seed": "7"}, "seed"),
        ("linearize", {"problem": {**QUADRATIC, "theta": "0.3"}}, "theta"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "gamma": "0.2"}, "gamma"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "tol": "1e-5"}, "tol"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "picard_tol": "5e-4"},
         "picard_tol"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "tol": True}, "tol"),
        ("conjugate", {"operator": SHIFT, "perturbation": {**SINE, "window": [-1.5, 1.7]}},
         "window"),
        ("conjugate", {"operator": {**SHIFT, "left_tail": "0.5"}, "perturbation": SINE},
         "left_tail"),
        ("constants", {"operator": {**DIAGONAL, "rows": [["0.5", 0.0], [0.0, 3.0]]}}, "rows"),
        ("linearize", {"problem": {**SHIFT_PLUS_SINE, "window": [-1.5, 1.5]}}, "window"),
        ("linearize", {"problem": {**QUADRATIC, "slope": "0.5"}}, "slope"),
        ("conjugate", {"operator": SHIFT, "perturbation": {**SINE, "frequency": "1.0"}},
         "frequency"),
        ("gh-check", {"operator": 5}, "operator"),
        ("conjugate", {"operator": SHIFT, "perturbation": 5}, "perturbation"),
        ("conjugate", {"operator": 5, "perturbation": SINE}, "operator"),
        ("linearize", {"problem": 5}, "problem"),
        ("linearize", {"problem": {**SHIFT_PLUS_SINE, "operator": [SHIFT]}}, "operator"),
        ("constants", {"operator": {**SHIFT, "norm": "sup"}}, "norm"),
        ("constants", {"operator": {**SHIFT, "core": [0.3]}}, "core"),
    ],
    ids=["t-string", "window-int", "amplitude-string", "gamma-list",
         "seed-null", "seed-true", "seed-float", "seed-string", "theta-string",
         "gamma-string", "tol-string", "picard_tol-string", "tol-true", "window-fractional",
         "left_tail-string", "rows-string", "problem-window-fractional", "slope-string",
         "frequency-string", "gh-check-operator-int", "perturbation-int", "operator-int",
         "problem-int", "problem-operator-list", "norm-string", "core-list"],
)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, command, config, key):
    # exit 1 means a bound was exceeded; a malformed value is a bad config
    config = {"gamma": 0.2, "samples": 3, **config}
    code = main([command, "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ghlin {command}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert key in err


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("gh-check", {"operator": DIAGONAL}, "gh-check needs a shift operator"),
        ("linearize", {"problem": {**QUADRATIC, "kind": "cubic_1d"}}, "unknown problem kind"),
        ("constants", {"operator": {**SHIFT, "kind": "rotation"}}, "unknown operator kind"),
        ("constants", {"operator": {**SHIFT, "norm": {"kind": "l3"}}}, "unknown norm"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "gamma": 1.5}, "gamma must lie"),
        ("conjugate", {"operator": SHIFT, "perturbation": SINE, "tol": 0}, "tol must be positive"),
        # "01" and "1" name one index, so one weight would be dropped
        ("constants", {"operator": {**SHIFT, "core": {"1": 3.0, "01": 1.0}}},
         "core index must be a decimal integer such as -3 or 12, got '01'"),
        ("conjugate", {"operator": SHIFT,
                       "perturbation": {"kind": "constant", "vector": {"1_0": 0.01}}},
         "vector index must be a decimal integer such as -3 or 12, got '1_0'"),
        # a window with no index makes beta identically zero, for either coordinatewise kind
        ("conjugate", {"operator": SHIFT, "perturbation": {
            "kind": "saturating", "amplitude": 0.01, "scale": 1.0, "window": [3, 1]}},
         "saturating perturbation needs a nonempty window"),
        ("conjugate", {"operator": SHIFT, "perturbation": {**SINE, "window": [3, 1]}},
         "sine perturbation needs a nonempty window"),
        ("constants", {"operator": {"kind": "matrix", "rows": [[1.0, 2.0]]}},
         "matrix must be square, got shape (1, 2)"),
        ("constants", {"operator": {**DIAGONAL, "norm": {"kind": "lp", "p": 3}}},
         "induced matrix norms are available for p in {1, 2} and sup, not p=3.0"),
        ("constants", {"operator": {**SHIFT, "t": 1.5}}, "t must lie in (0, 1), got 1.5"),
        ("conjugate", {"operator": SHIFT, "perturbation": {**SINE, "amplitude": -0.05}},
         "sine perturbation needs amplitude and rate >= 0"),
        ("holder-probe", {"operator": SHIFT, "perturbation": SINE, "domain_diameter": 1.5},
         "domain diameter must lie in (0, 1), got 1.5"),
        ("holder-probe", {"operator": SHIFT, "perturbation": SINE, "domain_diameter": 0.0005},
         "need max_distance > 0.001, got 0.0005"),
        # theta_bound of this shift is 0.152
        ("holder-probe", {"operator": {"kind": "shift", "left_tail": 0.5, "right_tail": 2.0,
                                       "core": {"0": 0.9}}, "perturbation": SINE, "theta": 0.5},
         "theta = 0.5 must stay below the exponent bound 0.152"),
        ("linearize", {"problem": {**QUADRATIC, "gamma": 1.5}}, "gamma must lie in (0, 1), got 1.5"),
        ("conjugate", {"operator": SHIFT, "perturbation": {"kind": "constant", "vector": 5}},
         "cannot read a vector from int"),
        # a missing nested key is named as required, not printed bare as Python's KeyError does
        ("linearize", {"problem": without(SHIFT_PLUS_SINE, "window")},
         "config key 'window' is required"),
        ("constants", {"operator": without(DIAGONAL, "rows")}, "config key 'rows' is required"),
        ("constants", {"operator": without(SHIFT, "left_tail")},
         "config key 'left_tail' is required"),
        ("conjugate", {"operator": SHIFT, "perturbation": {"kind": "constant"}},
         "config key 'vector' is required"),
        ("constants", {"operator": {**SHIFT, "norm": {"kind": "lp"}}},
         "config key 'p' is required"),
    ],
    ids=["gh-check-matrix", "problem-kind", "operator-kind", "norm-kind", "gamma-range",
         "tol-zero", "core-index-leading-zero", "vector-index-underscore",
         "saturating-empty-window", "sine-empty-window", "rows-not-square", "matrix-l3-norm",
         "t-above-1", "sine-amplitude-negative", "holder-diameter-above-1",
         "holder-diameter-below-pair-distance", "holder-theta-above-bound",
         "problem-gamma-range", "vector-int", "window-missing", "rows-missing",
         "left_tail-missing", "vector-missing", "lp-p-missing"],
)
def test_unsupported_config_exits_2(tmp_path, capsys, command, config, message):
    config = {"gamma": 0.2, "samples": 3, **config}
    code = main([command, "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ghlin {command}: ") and message in err


HUGE = 10**400  # a JSON integer beyond float range
FAR = 10**19  # an index beyond int64


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("constants", {"operator": SHIFT, "gamma": HUGE}, "gamma must be a number in float range"),
        ("constants", {"operator": {**SHIFT, "right_tail": HUGE}},
         "right_tail must be a number in float range"),
        ("conjugate", {"operator": SHIFT, "perturbation": {**SINE, "window": [FAR, FAR]}},
         "window indices must lie below 2^62"),
        # listing 10^9 indices and drawing samples over them would take tens of GB
        ("conjugate", {"operator": SHIFT, "perturbation": {**SINE, "window": [0, 10**9]}},
         "window may hold at most 2^16 indices"),
        ("conjugate", {"operator": SHIFT, "perturbation": {
            "kind": "saturating", "amplitude": 0.01, "scale": 1.0, "window": [-2**15, 2**15]}},
         "window may hold at most 2^16 indices"),
        ("conjugate", {"operator": SHIFT,
                       "perturbation": {"kind": "constant", "vector": {str(FAR): 0.01}}},
         "vector index must lie below 2^62"),
        # scanning the weights up to this core index would not finish
        ("constants", {"operator": {**SHIFT, "core": {str(FAR): 0.3}}},
         "core index must lie below 2^62"),
        # 1e10 ** 31 overflows in the norm of T^-31 on N
        ("constants", {"operator": {"kind": "shift", "left_tail": 0.5, "right_tail": 1e10,
                                    "core": {"40": 0.3}}},
         "the norm of T^-31 on N is not certifiable"),
    ],
    ids=["gamma-huge", "right_tail-huge", "window-beyond-int64", "sine-window-too-wide",
         "saturating-window-too-wide", "vector-index-beyond-int64",
         "core-index-beyond-int64", "right-tail-power-overflow"],
)
def test_out_of_range_config_exits_2(tmp_path, capsys, command, config, message):
    # an overflow is a bad config, not an exceeded bound: exit 2 with one line, no traceback
    config = {"gamma": 0.2, "samples": 3, **config}
    code = main([command, "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ghlin {command}: {message}") and err.count("\n") == 1


def test_sparse_and_one_sided_runs_do_not_import_scipy(tmp_path):
    # scipy splits a mixed matrix spectrum and nothing else; it is most of the start-up time
    conjugate = {"operator": SHIFT, "perturbation": SINE, "gamma": 0.2, "samples": 3}
    linearize_ = {"problem": QUADRATIC, "tol": 1e-10, "picard_tol": 1e-10, "samples": 3}
    script = (
        "import sys\n"
        "from ghlin import cli\n"
        f"codes = cli.run('conjugate', {conjugate!r}, {str(tmp_path / 'c')!r}), "
        f"cli.run('linearize', {linearize_!r}, {str(tmp_path / 'l')!r})\n"
        "assert codes == (0, 0), codes\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

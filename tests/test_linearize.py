"""Holder certification and the fixed-point linearization workflow."""

import dataclasses
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlin import (
    DenseVector,
    HolderCertificate,
    LinearizationProblem,
    NormKind,
    SeriesPolicy,
    empirical_holder,
    holder_constant,
    linearize,
    make_holder_certificate,
    make_matrix_operator,
    norm,
    sine_perturbation,
    solve_conjugacy,
    solve_inverse_conjugacy,
    theta_bound,
    zero_like,
    zero_perturbation,
)
from ghlin.cli import _problem_from_descriptor
from ghlin.sampling import sample_pairs, sample_points
from ghlin.vectors import Batch, _at_point, pack
from conftest import banded_points, cut_at_point, nan_far_out


def test_theta_bound_balanced_diagonal():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    # min(ln 3 / ln 3, ln 2 / ln 2) = 1
    assert theta_bound(op) == pytest.approx(1.0, abs=1e-12)


def test_theta_bound_three_dimensional():
    op = make_matrix_operator(np.diag([0.5, 0.25, 3.0]))
    # |T^{-1}| = 4 makes the stable-side term ln 2 / ln 4 = 1/2
    assert theta_bound(op) == pytest.approx(0.5, abs=1e-12)


def test_theta_bound_pure_dilation_uses_single_term():
    op = make_matrix_operator([[3.0]])
    assert op.m_is_trivial
    assert theta_bound(op) == pytest.approx(1.0, abs=1e-12)


def test_theta_bound_needs_contractive_restrictions():
    op = make_matrix_operator([[0.5, 1.0], [0.0, 0.5]])  # |T on M| = 1.5
    with pytest.raises(ValueError, match="adapted norm"):
        theta_bound(op)


def test_theta_bound_invariant_under_norm_rescaling(rng):
    # operator norms are ratios of vector norms, so scaling the ambient norm
    # by any positive factor leaves every ingredient of the bound unchanged
    op = make_matrix_operator(np.diag([0.5, 0.25, 3.0]))
    base = theta_bound(op)
    for scale in rng.uniform(0.1, 10.0, 5):
        ratios = []
        for _ in range(200):
            y = op.project_M(DenseVector(rng.uniform(-1, 1, 3)))
            if norm(y) > 1e-9:
                ratios.append((scale * norm(op.apply(y))) / (scale * norm(y)))
        scaled_norm_on_M = max(ratios)
        assert scaled_norm_on_M <= op.norm_T_on_M + 1e-12
        rebuilt = min(
            1.0,
            min(
                -math.log(op.norm_Tinv_on_N) / math.log(op.norm_T),
                -math.log(op.norm_T_on_M) / math.log(op.norm_Tinv),
            ),
        )
        assert rebuilt == pytest.approx(base, abs=1e-12)


def test_holder_constant_zero_eps():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    assert holder_constant(op, zero_perturbation(), 0.5, 0.0) == 0.0
    # eps = 0 certifies C = 0 only for a zero beta
    with pytest.raises(ValueError, match="does not dominate"):
        holder_constant(op, sine_perturbation(0.01, 1.0, [0]), 0.5, 0.0)


def test_holder_constant_matches_partial_sums():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    theta, eps = 0.5, 0.01
    closed = holder_constant(op, zero_perturbation(), theta, eps)
    s = op.norm_Tinv**2 / (1.0 - op.norm_Tinv * eps)
    total = 0.0
    for k in range(200):
        total += (
            2.0 * eps * op.norm_P_M * op.norm_T_on_M**k
            * (op.norm_Tinv + eps * s) ** ((k + 1) * theta)
        )
    for k in range(1, 200):
        total += (
            2.0 * eps * op.norm_P_N * op.norm_Tinv_on_N**k
            * (op.norm_T + eps) ** ((k - 1) * theta)
        )
    assert closed == pytest.approx(total, abs=1e-9)


def test_holder_constant_rejects_divergent_ratio():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    # at theta = 1 the stable ratio is |T|_M| * (|T^-1| + eps s) >= 1
    with pytest.raises(ValueError, match="ratio"):
        holder_constant(op, zero_perturbation(), 1.0, 0.05)


def test_holder_constant_rejects_eps_above_inverse_norm():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    with pytest.raises(ValueError, match="1/"):
        holder_constant(op, zero_perturbation(), 0.25, 0.6)


def test_certificate_validation():
    with pytest.raises(ValueError):
        HolderCertificate(theta=0.0, C=1.0, domain_diameter=0.5)
    with pytest.raises(ValueError):
        HolderCertificate(theta=0.5, C=1.0, domain_diameter=1.5)


def test_empirical_holder_zero_perturbation(rng):
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    bwd = solve_inverse_conjugacy(op, zero_perturbation(), SeriesPolicy(tol=1e-8))
    cert = HolderCertificate(theta=0.5, C=0.0, domain_diameter=0.9)
    pairs = sample_pairs(rng, op, 50, 0.9)
    report = empirical_holder(bwd, cert, *pairs)
    assert report.max_ratio == 0.0 and report.passed


def test_empirical_holder_constant_displacement(rng):
    from ghlin import constant_perturbation

    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.6)
    beta = constant_perturbation(DenseVector([0.01, 0.01]))
    bwd = solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-10))
    cert = make_holder_certificate(op, beta, 0.25, 0.01, 0.9)
    pairs = sample_pairs(rng, op, 50, 0.9)
    report = empirical_holder(bwd, cert, *pairs)
    # constant perturbation gives a constant displacement: ratios collapse
    assert report.max_ratio <= 1e-9
    assert report.passed


def test_empirical_holder_sine_instance(rng):
    op = make_matrix_operator(np.diag([0.5, 0.25, 3.0]), t=0.7)
    beta = sine_perturbation(0.01, 1.0, window=[0, 1, 2])
    bwd = solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-8))
    cert = make_holder_certificate(op, beta, 0.25, 0.01, 0.9)
    pairs = sample_pairs(rng, op, 100, 0.9)
    report = empirical_holder(bwd, cert, *pairs)
    assert report.passed
    assert report.max_ratio <= cert.C + report.inflation


def test_empirical_holder_values_line_up_with_the_kept_pairs(rng):
    # a zero-distance pair is dropped; values holds one displacement per kept
    # pair, at its first point, so a CSV row never takes a later pair's value
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.6)
    beta = sine_perturbation(0.01, 1.0, window=[0, 1])
    bwd = solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-8))
    cert = make_holder_certificate(op, beta, 0.25, 0.01, 0.9)
    xs, ys = (end.unpack() for end in sample_pairs(rng, op, 4, 0.9))
    report = empirical_holder(bwd, cert, xs[:1] + xs[1:2] + xs[1:], ys[:1] + xs[1:2] + ys[1:])
    assert report.n_pairs == len(report.values) == 4
    ends = xs + ys
    assert report.values.unpack() == bwd.displacements(ends)[:4]


def test_a_nan_ratio_fails_the_holder_probe():
    # the displacement at -0.1 is NaN; a maximum that skipped its ratio passed the probe
    op = make_matrix_operator([[0.5]])
    fwd = solve_conjugacy(op, nan_far_out(), 0.2, SeriesPolicy(tol=1e-10), picard_tol=1e-8)
    cert = HolderCertificate(theta=0.5, C=1.0, domain_diameter=0.5)
    xs, ys = [DenseVector([0.1]), DenseVector([-0.1])], [DenseVector([0.11]), DenseVector([-0.11])]
    report = empirical_holder(fwd, cert, xs, ys)
    assert report.per_pair[0] == pytest.approx(0.0049, abs=1e-4) and math.isnan(report.per_pair[1])
    assert report.n_pairs == 2 and math.isnan(report.max_ratio) and not report.passed
    written = report.to_dict()
    assert written["max_ratio"] is None and written["passed"] is False
    json.dumps(written, allow_nan=False)


@pytest.mark.parametrize("n_xs", [0, 1, 2])
def test_empirical_holder_rejects_ends_of_different_lengths(rng, n_xs):
    # a 1-row xs would otherwise broadcast against every row of ys, and the probe would fail,
    # if at all, on a check that names something else (the diameter, an index)
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    bwd = solve_inverse_conjugacy(op, zero_perturbation(), SeriesPolicy(tol=1e-8))
    cert = HolderCertificate(theta=0.5, C=0.0, domain_diameter=0.9)
    xs, ys = sample_pairs(rng, op, 3, 0.9)
    with pytest.raises(ValueError, match="differ in length"):
        empirical_holder(bwd, cert, xs[:n_xs], ys)
    with pytest.raises(ValueError, match="differ in length"):
        empirical_holder(bwd, cert, xs.unpack()[:n_xs], ys.unpack())


def test_empirical_holder_rejects_distant_pairs():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    bwd = solve_inverse_conjugacy(op, zero_perturbation(), SeriesPolicy(tol=1e-8))
    cert = HolderCertificate(theta=0.5, C=0.0, domain_diameter=0.1)
    with pytest.raises(ValueError, match="diameter"):
        empirical_holder(bwd, cert, [DenseVector([0.0, 0.0])], [DenseVector([1.0, 0.0])])


def test_empirical_holder_rejects_pairs_outside_eval_radius():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.6)
    beta = sine_perturbation(0.01, 1.0, window=[0, 1])
    bwd = solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-8))
    cert = make_holder_certificate(op, beta, 0.25, 0.01, 0.9)
    assert bwd.eval_radius == 3.01
    inside = [DenseVector([0.0, 2.9])], [DenseVector([0.0, 3.0])]
    assert empirical_holder(bwd, cert, *inside).n_pairs == 1
    outside = [DenseVector([0.0, 3.0])], [DenseVector([0.0, 3.1])]
    with pytest.raises(ValueError, match="eval_radius"):
        empirical_holder(bwd, cert, *outside)


# -- the linearization workflow ---------------------------------------------


def quadratic_problem(slope=0.5, quad=1.0, p=0.0, gamma=0.5, cutoff_r=0.01):
    op = make_matrix_operator([[slope]], t=0.6)

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
    )


def test_linear_map_linearizes_to_identity(rng):
    op = make_matrix_operator([[0.5]], t=0.6)
    problem = LinearizationProblem(
        func=lambda x: op.apply(x),
        fixed_point=DenseVector([0.0]),
        derivative=op,
        gamma=0.5,
        cutoff_r=0.5,
        nonlinearity_lip=lambda rho: 0.0,
    )
    result = linearize(problem, SeriesPolicy(tol=1e-10), picard_tol=1e-10)
    assert result.beta.is_zero
    for _ in range(20):
        y = DenseVector([rng.uniform(-0.5, 0.5)])
        assert result.linearized(y) == y
        assert result.conjugacy_residual(y) == 0.0


def test_quadratic_linearization_residuals(rng):
    problem = quadratic_problem()
    result = linearize(problem, SeriesPolicy(tol=1e-9), picard_tol=1e-9)
    assert result.u_radius <= problem.cutoff_r
    bound = result.certified_residual_bound
    for _ in range(50):
        y = DenseVector([rng.uniform(-result.u_radius, result.u_radius)])
        assert result.conjugacy_residual(y) <= bound


def test_quadratic_linearization_rejects_fake_fixed_point():
    op = make_matrix_operator([[0.5]], t=0.6)
    with pytest.raises(ValueError, match="fixed point"):
        LinearizationProblem(
            func=lambda x: DenseVector([0.5 * x.array[0] + 1.0]),
            fixed_point=DenseVector([0.0]),
            derivative=op,
            gamma=0.5,
            cutoff_r=0.01,
            nonlinearity_lip=lambda rho: 0.0,
        )


def test_translated_affine_problem_matches_origin_run(rng):
    # F(x) = x/2 + 1/2 fixes p = 1; translating reproduces the linear map at 0
    p = 1.0
    op = make_matrix_operator([[0.5]], t=0.6)
    problem = LinearizationProblem(
        func=lambda x: DenseVector([0.5 * x.array[0] + 0.5]),
        fixed_point=DenseVector([p]),
        derivative=op,
        gamma=0.5,
        cutoff_r=0.01,
        nonlinearity_lip=lambda rho: 1e-18,
    )
    result = linearize(problem, SeriesPolicy(tol=1e-10), picard_tol=1e-10)
    origin = LinearizationProblem(
        func=lambda x: DenseVector([0.5 * x.array[0]]),
        fixed_point=DenseVector([0.0]),
        derivative=op,
        gamma=0.5,
        cutoff_r=0.01,
        nonlinearity_lip=lambda rho: 1e-18,
    )
    origin_result = linearize(origin, SeriesPolicy(tol=1e-10), picard_tol=1e-10)
    for _ in range(30):
        y = DenseVector([p + rng.uniform(-0.01, 0.01)])
        shifted = origin_result.linearized(DenseVector([y.array[0] - p]))
        assert norm(result.linearized(y) - shifted) <= 1e-10


def test_steep_nonlinearity_exhausts_radius():
    # a Lipschitz bound that does not shrink with the radius never fits under eps
    problem = quadratic_problem(quad=1e9, cutoff_r=1.0)
    problem.nonlinearity_lip = lambda rho: 1e9
    with pytest.raises(ValueError, match="too steep"):
        linearize(problem, SeriesPolicy(tol=1e-9), picard_tol=1e-9)


@pytest.mark.parametrize("cutoff_r", [math.nan, math.inf])
def test_non_finite_cutoff_radius_is_rejected(cutoff_r):
    # halving NaN or inf never takes the radius below CUTOFF_R_MIN
    with pytest.raises(ValueError, match="cutoff_r"):
        quadratic_problem(cutoff_r=cutoff_r)


# -- the row form of the map ---------------------------------------------------


def quadratic_rows(p):
    # the CLI's quadratic_1d against this file's scalar form of the same map
    problem = _problem_from_descriptor({
        "kind": "quadratic_1d", "slope": 0.5, "quad": 1.3, "p": p, "t": 0.6,
        "gamma": 0.5, "cutoff_r": 0.01,
    })
    return problem, quadratic_problem(quad=1.3, p=p).func


def shift_plus_sine_rows(kind):
    # the CLI's shift_plus_sine against its map T x + sine(x) at one point
    operator = {"kind": "shift", "left_tail": 0.5, "right_tail": 2.0, "core": {"0": 0.3},
                "t": 0.55}
    if not kind.is_sup:
        operator["norm"] = {"kind": "lp", "p": kind.p}
    problem = _problem_from_descriptor({
        "kind": "shift_plus_sine", "operator": operator, "window": [-1, 1],
        "amplitude": 1e-4, "frequency": 1.0, "gamma": 0.2, "cutoff_r": 0.01,
    })
    op, wave = problem.derivative, sine_perturbation(1e-4, 1.0, range(-1, 2), kind)
    return problem, lambda x: op.apply(x) + wave(x)


def diagonal_rows():
    # F(p + u) = p + D u + (u_1^2, u_0 u_1) under l^2; D is diagonal, so the
    # batched product T u rounds as the one-row product does
    p, d = np.array([0.1, -0.2]), np.array([0.5, 3.0])

    def batch(b):
        u = b.rows - p
        return Batch(p + d * u + np.stack([u[:, 1] * u[:, 1], u[:, 0] * u[:, 1]], axis=-1))

    def func(x):
        u = x.array - p
        return DenseVector(p + d * u + np.array([u[1] * u[1], u[0] * u[1]]))

    problem = LinearizationProblem(
        func=partial(_at_point, batch),
        fixed_point=DenseVector(p),
        derivative=make_matrix_operator(np.diag(d), NormKind.lp(2), t=0.6),
        gamma=0.5,
        cutoff_r=0.01,
        nonlinearity_lip=lambda rho: 2.25 * rho,  # the Jacobian's Frobenius norm <= sqrt(5) rho
        batch=batch,
    )
    return problem, func


ROW_FORMS = [
    pytest.param(partial(quadratic_rows, 0.0), id="quadratic"),
    pytest.param(partial(quadratic_rows, 0.3), id="quadratic-translated"),
    pytest.param(partial(shift_plus_sine_rows, NormKind.sup()), id="shift_plus_sine-sup"),
    pytest.param(partial(shift_plus_sine_rows, NormKind.lp(2)), id="shift_plus_sine-l2"),
    pytest.param(diagonal_rows, id="diagonal-l2"),
]
ROW_POLICY = SeriesPolicy(tol=1e-8)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("build", ROW_FORMS)
def test_linearized_cutoff_rows_equal_single_points(data, build):
    # beta's rows are the bits of chi(|u|) * (F(u + p) - p - T u) worked out at each point
    problem, func = build()
    result = linearize(problem, ROW_POLICY, picard_tol=1e-6)
    op, p, r = problem.derivative, problem.fixed_point, result.u_radius
    offsets = data.draw(banded_points(zero_like(p), op.norm_kind, r))

    def nonlinearity(u):
        return func(u + p) - p - op.apply(u)

    expected = [cut_at_point(nonlinearity, u, op.norm_kind, r) for u in offsets]
    assert result.beta.batch(pack(offsets)).unpack() == expected


@pytest.mark.parametrize("build", ROW_FORMS)
def test_linearize_with_and_without_row_form(rng, build):
    problem, func = build()
    results = [
        linearize(pr, ROW_POLICY, picard_tol=1e-6)
        for pr in (problem, dataclasses.replace(problem, func=func, batch=None))
    ]
    assert results[0].u_radius == results[1].u_radius
    assert results[0].report() == results[1].report()
    op, p = problem.derivative, problem.fixed_point
    offsets = sample_points(rng, op, 12, results[0].beta, radius=results[0].u_radius).unpack()
    reports = [result.verify([u + p for u in offsets]) for result in results]
    assert reports[0].per_point == reports[1].per_point
    assert reports[0].passed and reports[1].passed


def test_replacing_func_derives_the_row_form_again():
    # with no row form given, F runs func on each row, so F(p) = p is checked
    # on a replaced func and linearize evaluates the new map
    problem = quadratic_problem(p=0.0)
    with pytest.raises(ValueError, match="fixed point"):
        dataclasses.replace(problem, func=lambda x: DenseVector([1.0]))
    halved = dataclasses.replace(problem, func=lambda x: 0.5 * x)
    assert problem.batch is None and halved.batch is None
    assert _at_point(halved._rows, DenseVector([0.25])) == DenseVector([0.125])


@pytest.mark.parametrize("build", ROW_FORMS)
def test_a_given_row_form_survives_replacing_another_field(build):
    problem, _ = build()
    assert dataclasses.replace(problem, gamma=0.4).batch is problem.batch


def test_row_form_that_misses_the_fixed_point_is_rejected():
    # F(p) = p is checked on the row form, which is what linearize evaluates
    problem = quadratic_problem(p=0.3)
    with pytest.raises(ValueError, match="fixed point"):
        dataclasses.replace(problem, batch=lambda b: Batch(0.5 * b.rows + 0.15 + 1e-6))

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all);
the assertions carry the same tolerances, so a plain ``pytest`` run enforces
identical conditions.
"""

import math

import numpy as np
import pytest

from ghlin import (
    DenseVector,
    SeriesPolicy,
    SparseVector,
    WeightSpec,
    admissible_eps,
    check_shift_criterion,
    constant_perturbation,
    displacement_space_residual,
    eval_H,
    eval_H_prime,
    holder_constant,
    intertwining_solution,
    LinearizationProblem,
    linearize,
    make_holder_certificate,
    make_matrix_operator,
    make_shift,
    norm,
    sine_perturbation,
    solve_conjugacy,
    solve_inverse_conjugacy,
    theta_bound,
    truncation_tail_bound,
    truncation_terms,
    verify_conjugacy,
    verify_inverse_pair,
    zero_perturbation,
    empirical_holder,
)
from ghlin.sampling import sample_pairs, sample_points
from conftest import brute_force_margins


def check(label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_acceptance_01_closed_form_1d_conjugacies(rng):
    policy = SeriesPolicy(tol=1e-12)
    contraction = make_matrix_operator([[0.5]], t=0.6)
    beta_c = constant_perturbation(DenseVector([0.1]))
    h_c = solve_conjugacy(contraction, beta_c, 0.9, policy, picard_tol=1e-12)
    dilation = make_matrix_operator([[2.0]], t=0.6)
    h_d = solve_conjugacy(dilation, beta_c, 0.9, policy, picard_tol=1e-12)
    worst = 0.0
    for _ in range(100):
        x = DenseVector([rng.uniform(-2, 2)])
        worst = max(worst, abs(eval_H(h_c, x).array[0] - (x.array[0] + 0.2)))
        worst = max(worst, abs(eval_H(h_d, x).array[0] - (x.array[0] - 0.1)))
    check(
        "01 closed-form 1-d conjugacies",
        worst <= 1e-10,
        f"max deviation {worst:.3e} <= 1e-10 at 100 points each",
    )


def test_acceptance_02_series_inversion_and_round_trip(rng):
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.6)
    policy = SeriesPolicy(tol=1e-8)
    const = lambda u: DenseVector([1.0, 1.0])

    def r_apply(u):
        return DenseVector([u.array[0] + 0.3, 2.0 * u.array[1] - 0.1])

    def r_invert(u):
        return DenseVector([u.array[0] - 0.3, (u.array[1] + 0.1) / 2.0])

    value = intertwining_solution(
        op, r_apply, r_invert, const, 1.0, DenseVector([0.4, -0.9]), policy
    )
    value_gap = norm(value - DenseVector([2.0, -0.5]))

    def solution(u):
        return intertwining_solution(op, op.apply, op.apply_inverse, const, 1.0, u, policy)

    worst = 0.0
    for _ in range(500):
        x = DenseVector(rng.uniform(-1, 1, 2))
        recovered = solution(op.apply(x)) - op.apply(solution(x))
        worst = max(worst, norm(recovered - const(x)))
    ok = value_gap <= policy.tol and worst <= 2.0 * policy.tol
    check(
        "02 series inversion",
        ok,
        f"constant-source value off by {value_gap:.3e} <= {policy.tol:.0e}, "
        f"round trip off by {worst:.3e} <= {2 * policy.tol:.0e} at 500 points",
    )


def _gamma_bound_instance():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    gamma = 0.2
    eps = admissible_eps(op, gamma)
    beta = sine_perturbation(eps, 1.0, window=range(-1, 2))
    policy = SeriesPolicy(tol=1e-5)
    fwd = solve_conjugacy(op, beta, gamma, policy, picard_tol=5e-4)
    return op, beta, policy, fwd


def test_acceptance_03_identity_distance_bound(rng):
    op, beta, policy, fwd = _gamma_bound_instance()
    points = sample_points(rng, op, 1000, beta)
    bound = 0.2 + fwd.certified_error
    worst = max(norm(h) for h in fwd.displacements(points))
    check(
        "03 identity-distance bound",
        worst <= bound,
        f"max |h| {worst:.6f} <= gamma + certified error {bound:.6f} at 1000 points",
    )


def test_acceptance_04_conjugacy_and_inverse_identities(rng):
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.6)
    beta = sine_perturbation(0.02, 1.0, window=[0, 1])
    policy = SeriesPolicy(tol=1e-4)
    fwd = solve_conjugacy(op, beta, 0.2, policy, picard_tol=1e-3)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    points = [DenseVector(v) for v in rng.uniform(-1, 1, (500, 2))]
    fwd_report = verify_conjugacy(fwd, points)
    bwd_report = verify_conjugacy(bwd, points)
    cert = make_holder_certificate(
        op, beta, 0.5, max(beta.sup_bound, beta.lip_bound), 0.999
    )
    inv_report = verify_inverse_pair(fwd, bwd, points, holder=cert)

    shift = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    nothing = zero_perturbation()
    zf = solve_conjugacy(shift, nothing, 0.5, policy, picard_tol=1e-3)
    zb = solve_inverse_conjugacy(shift, nothing, policy)
    zero_points = sample_points(rng, shift, 500)
    zero_worst = max(
        verify_conjugacy(zf, zero_points).max_residual,
        verify_conjugacy(zb, zero_points).max_residual,
        verify_inverse_pair(zf, zb, zero_points).max_residual,
    )
    ok = (
        fwd_report.passed
        and bwd_report.passed
        and inv_report.passed
        and zero_worst == 0.0
    )
    check(
        "04 conjugacy and inverse identities",
        ok,
        f"residuals fwd {fwd_report.max_residual:.2e} <= {fwd_report.certified_bound:.2e}, "
        f"bwd {bwd_report.max_residual:.2e} <= {bwd_report.certified_bound:.2e}, "
        f"inverse {inv_report.max_residual:.2e} <= {inv_report.certified_bound:.2e} "
        f"at 500 points; zero-perturbation residuals exactly {zero_worst}",
    )


def test_acceptance_05_displacement_codomain(rng):
    op, beta, policy, fwd = _gamma_bound_instance()
    points = sample_points(rng, op, 100, beta).unpack()
    cap = policy.tol * op.norm_T
    worst_coord = 0.0
    worst_residual = 0.0
    for x in points:
        value = fwd.displacement(x)
        worst_coord = max(worst_coord, abs(value[1]))
        worst_residual = max(worst_residual, displacement_space_residual(op, value))
    ok = worst_coord <= cap and worst_residual <= cap
    check(
        "05 displacement codomain",
        ok,
        f"|h(x)_1| max {worst_coord:.2e} and membership residual max "
        f"{worst_residual:.2e} <= tol*|T| = {cap:.2e} at 100 points",
    )


def test_acceptance_06_truncation_certificate(rng):
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.6)
    beta = sine_perturbation(0.3, 1.0, window=[0, 1])
    policy = SeriesPolicy(tol=1e-6)
    terms = truncation_terms(op, beta.sup_bound, policy)
    predicted = truncation_tail_bound(op, beta.sup_bound, terms)
    worst = 0.0
    for _ in range(100):
        x = DenseVector(rng.uniform(-1, 1, 2))
        coarse = intertwining_solution(
            op, op.apply, op.apply_inverse, beta, beta.sup_bound, x, policy, terms=terms
        )
        fine = intertwining_solution(
            op, op.apply, op.apply_inverse, beta, beta.sup_bound, x, policy, terms=2 * terms
        )
        worst = max(worst, norm(fine - coarse))
    check(
        "06 truncation certificate",
        worst <= predicted,
        f"doubling K={terms} moved values by {worst:.3e} <= tail bound {predicted:.3e} "
        "at 100 points",
    )


def test_acceptance_07_shift_criterion_corpus():
    corpus = [
        WeightSpec(0.5, 2.0),
        WeightSpec(1.0 / 3.0, 3.0),
        WeightSpec(1.0 / 3.0, 3.0, core={i: 1.0 / 3.0 for i in range(1, 5)}),
        WeightSpec(0.5, 2.0, core={0: 0.9}),
        WeightSpec(0.5, 2.0, core={-3: 5.0, -2: 0.1, -1: 1.7, 0: 0.2, 1: 3.0, 2: 0.4}),
        WeightSpec(0.9, 1.1),
        WeightSpec(-0.5, 2.0),
        WeightSpec(0.5, -2.0),
        WeightSpec(-0.7, -1.3, core={0: -2.0}),
        WeightSpec(0.25, 1.25),
        WeightSpec(0.5, 2.0, core={i: 4.0 for i in range(-5, 6)}),
        WeightSpec(0.5, 2.0, core={i: 0.01 for i in range(-10, -5)}),
        WeightSpec(0.5, 2.0, core={i: 100.0 for i in range(3, 8)}),
        WeightSpec(0.99, 1.01),
        WeightSpec(2.0, 2.0),
        WeightSpec(1.0, 1.0),
        WeightSpec(0.5, 0.9),
        WeightSpec(1.5, 3.0),
        WeightSpec(2.0, 0.5),
        WeightSpec(0.5, 1.0),
    ]
    assert len(corpus) == 20
    worst = 0.0
    for spec in corpus:
        report = check_shift_criterion(spec)
        left, right = brute_force_margins(spec, k_max=500, n=200)
        worst = max(worst, abs(report.left_margin - left), abs(report.right_margin - right))
        assert report.holds == (left < 1.0 and right > 1.0)
    check(
        "07 shift criterion corpus",
        worst <= 1e-6,
        f"margins match brute-force window products within {worst:.2e} <= 1e-6 "
        "on 20 weight specs",
    )


def test_acceptance_08_holder_certification(rng):
    op = make_matrix_operator(np.diag([0.5, 0.25, 3.0]), t=0.7)
    cap = theta_bound(op)
    oracle = min(
        1.0,
        min(
            -math.log(op.norm_Tinv_on_N) / math.log(op.norm_T),
            -math.log(op.norm_T_on_M) / math.log(op.norm_Tinv),
        ),
    )
    theta_ok = abs(cap - 0.5) <= 1e-12 and abs(cap - oracle) <= 1e-15

    theta, eps = 0.25, 0.01
    closed = holder_constant(op, zero_perturbation(), theta, eps)
    s = op.norm_Tinv**2 / (1.0 - op.norm_Tinv * eps)
    partial = sum(
        2.0 * eps * op.norm_P_M * op.norm_T_on_M**k * (op.norm_Tinv + eps * s) ** ((k + 1) * theta)
        for k in range(200)
    ) + sum(
        2.0 * eps * op.norm_P_N * op.norm_Tinv_on_N**k * (op.norm_T + eps) ** ((k - 1) * theta)
        for k in range(1, 200)
    )
    constant_ok = abs(closed - partial) <= 1e-9

    beta = sine_perturbation(eps, 1.0, window=[0, 1, 2])
    bwd = solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-8))
    cert = make_holder_certificate(op, beta, theta, eps, 0.9)
    pairs = sample_pairs(rng, op, 1000, 0.9, beta)
    probe = empirical_holder(bwd, cert, *pairs)
    ok = theta_ok and constant_ok and probe.passed
    check(
        "08 holder certification",
        ok,
        f"exponent bound {cap} (oracle {oracle}), constant matches 200-term sums "
        f"within {abs(closed - partial):.2e} <= 1e-9, empirical max ratio "
        f"{probe.max_ratio:.4f} <= {probe.bound:.4f} over 1000 pairs",
    )


def test_acceptance_09_linearization(rng):
    policy = SeriesPolicy(tol=1e-10)
    op = make_matrix_operator([[0.5]], t=0.6)
    quad = LinearizationProblem(
        func=lambda x: DenseVector([0.5 * x.array[0] + x.array[0] ** 2]),
        fixed_point=DenseVector([0.0]),
        derivative=op,
        gamma=0.5,
        cutoff_r=0.01,
        nonlinearity_lip=lambda rho: 2.0 * rho,
    )
    quad_result = linearize(quad, policy, picard_tol=1e-10)
    bound = quad_result.certified_residual_bound
    worst = 0.0
    for _ in range(200):
        y = DenseVector([rng.uniform(-quad_result.u_radius, quad_result.u_radius)])
        worst = max(worst, quad_result.conjugacy_residual(y))
    residual_ok = worst <= bound

    p = 1.0
    affine = LinearizationProblem(
        func=lambda x: DenseVector([0.5 * x.array[0] + 0.5]),
        fixed_point=DenseVector([p]),
        derivative=make_matrix_operator([[0.5]], t=0.6),
        gamma=0.5,
        cutoff_r=0.01,
        nonlinearity_lip=lambda rho: 1e-18,
    )
    affine_result = linearize(affine, policy, picard_tol=1e-10)
    origin = LinearizationProblem(
        func=lambda x: DenseVector([0.5 * x.array[0]]),
        fixed_point=DenseVector([0.0]),
        derivative=make_matrix_operator([[0.5]], t=0.6),
        gamma=0.5,
        cutoff_r=0.01,
        nonlinearity_lip=lambda rho: 1e-18,
    )
    origin_result = linearize(origin, policy, picard_tol=1e-10)
    shift_gap = 0.0
    worst_affine = 0.0
    for _ in range(200):
        u = rng.uniform(-affine_result.u_radius, affine_result.u_radius)
        y = DenseVector([p + u])
        worst_affine = max(worst_affine, affine_result.conjugacy_residual(y))
        shifted = origin_result.linearized(DenseVector([u]))
        shift_gap = max(shift_gap, norm(affine_result.linearized(y) - shifted))
    ok = residual_ok and worst_affine <= affine_result.certified_residual_bound and shift_gap <= 1e-10
    check(
        "09 linearization",
        ok,
        f"quadratic residual max {worst:.2e} <= {bound:.2e} on 200 samples in "
        f"radius {quad_result.u_radius}; translated run matches origin run "
        f"within {shift_gap:.2e} <= 1e-10",
    )


def test_acceptance_10_admissible_eps_formula(rng):
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.5)
    exact = admissible_eps(op, 0.9) == 0.3

    def formula(c, d, t, gamma):
        return gamma * (1 - t) / (c * d * (1 + t))

    monotone = True
    for _ in range(1000):
        c, d = rng.uniform(1, 10, 2)
        t = rng.uniform(0.01, 0.99)
        gamma = rng.uniform(0.01, 0.99)
        base = formula(c, d, t, gamma)
        bump = 1.0 + rng.uniform(0.001, 0.5)
        monotone &= formula(c, d, t, min(gamma * bump, 0.999999)) >= base
        monotone &= formula(c * bump, d, t, gamma) < base
        monotone &= formula(c, d * bump, t, gamma) < base
        monotone &= formula(c, d, min(t * bump, 0.999999), gamma) < base
    ok = exact and monotone
    check(
        "10 admissible perturbation size",
        ok,
        "formula value 0.3 exact at (c=1, d=1, t=1/2, gamma=0.9); monotone in "
        "every argument over 1000 random tuples",
    )

"""Series solves, conjugacy maps, verification and error certification."""

import dataclasses
import functools
import importlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghlin
from ghlin import (
    DenseVector,
    Perturbation,
    SeriesPolicy,
    SparseVector,
    WeightSpec,
    admissible_eps,
    constant_perturbation,
    displacement_space_residual,
    eval_H,
    eval_H_prime,
    intertwining_solution,
    make_matrix_operator,
    make_shift,
    norm,
    saturating_perturbation,
    sine_perturbation,
    solve_conjugacy,
    solve_inverse_conjugacy,
    truncation_tail_bound,
    truncation_terms,
    verify_conjugacy,
    verify_inverse_pair,
    zero_like,
    zero_perturbation,
)
from ghlin import cli, conjugacy, linearize, operator_from_descriptor, perturbation_from_descriptor
from ghlin import operators
from ghlin.conjugacy import InversePairReport
from ghlin.linearize import make_holder_certificate
from ghlin.perturbations import CutoffProfile, IterationLimitError, cutoff, perturbed_apply
from ghlin.perturbations import solve_perturbed_inverse
from ghlin.vectors import Batch, _row_wise, pack, stack
from conftest import lattice_calls, nan_far_out, random_sparse

POLICY = SeriesPolicy(tol=1e-10)


def diag_half_three():
    return make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.6)


def contraction_1d():
    return make_matrix_operator([[0.5]], t=0.6)


def dilation_1d():
    return make_matrix_operator([[2.0]], t=0.6)


# -- series policy and truncation -------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        SeriesPolicy(tol=0.0)


def test_truncation_meets_tolerance():
    op = diag_half_three()
    for sup in (1.0, 0.3, 1e-3):
        for tol in (1e-4, 1e-8, 1e-12):
            terms = truncation_terms(op, sup, SeriesPolicy(tol=tol))
            assert truncation_tail_bound(op, sup, terms) <= tol
            if terms > 0:
                assert truncation_tail_bound(op, sup, terms - 1) > tol


def test_depth_is_smallest_meeting_picard_tol():
    op = diag_half_three()
    k, eps = op.constants, admissible_eps(op, 0.5)
    gain = k.c * k.d * (1.0 + k.t) / (1.0 - k.t)
    betas = (zero_perturbation(), constant_perturbation(DenseVector([eps, 0.0])),
             saturating_perturbation(eps, 1.0), saturating_perturbation(eps / 7, 0.5))
    depths = set()
    for beta in betas:
        for picard_tol in (1.0, 1e-4, 1e-10):
            fwd = solve_conjugacy(op, beta, 0.5, POLICY, picard_tol)
            q, first_step = fwd.contraction, gain * beta.sup_bound

            def picard_err(depth):
                return q**depth * first_step / (1.0 - q)

            assert (fwd.depth == 0) == (beta.sup_bound == 0.0)
            assert picard_err(fwd.depth) <= picard_tol
            if fwd.depth > 1:
                assert picard_err(fwd.depth - 1) > picard_tol
            depths.add(fwd.depth)
    assert {0, 1} < depths and max(depths) > 2


def test_truncation_zero_source_needs_no_terms():
    assert truncation_terms(diag_half_three(), 0.0, POLICY) == 0


def test_truncation_cap_enforced():
    # the power table, not t, sets K: the tail of sum 0.9999^k falls below
    # 1e-300 only after about 7.0 million terms, above the cap of 10 000
    op = make_matrix_operator([[0.9999]])
    with pytest.raises(Exception, match="cap"):
        truncation_terms(op, 1.0, SeriesPolicy(tol=1e-300))


# -- the intertwining series -------------------------------------------------


def test_series_zero_source_is_zero(rng):
    op = diag_half_three()
    zero = lambda u: DenseVector([0.0, 0.0])
    for _ in range(10):
        x = DenseVector(rng.uniform(-1, 1, 2))
        out = intertwining_solution(op, op.apply, op.apply_inverse, zero, 0.0, x, POLICY)
        assert norm(out) == 0.0


def test_series_constant_source_closed_form(rng):
    # phi(Rx) - T phi(x) = (1,1) has the constant solution (2, -1/2),
    # independent of the orbit map R
    op = diag_half_three()
    const = lambda u: DenseVector([1.0, 1.0])

    def r_apply(u):  # an arbitrary invertible affine orbit map
        return DenseVector([u.array[0] + 0.3, 2.0 * u.array[1] - 0.1])

    def r_invert(u):
        return DenseVector([u.array[0] - 0.3, (u.array[1] + 0.1) / 2.0])

    for _ in range(10):
        x = DenseVector(rng.uniform(-1, 1, 2))
        out = intertwining_solution(op, r_apply, r_invert, const, 1.0, x, POLICY)
        assert norm(out - DenseVector([2.0, -0.5])) <= POLICY.tol


def test_series_contraction_1d_closed_form():
    op = contraction_1d()
    const = lambda u: DenseVector([1.0])
    out = intertwining_solution(op, op.apply, op.apply_inverse, const, 1.0, DenseVector([0.7]), POLICY)
    assert out.array[0] == pytest.approx(2.0, abs=POLICY.tol)


def _twisted_difference(op, phi, x):
    # phi(T x) - T(phi(x))
    return phi(op.apply(x)) - op.apply(phi(x))


def test_series_round_trip_recovers_source(rng):
    op = diag_half_three()
    beta = sine_perturbation(0.3, 1.0, window=[0, 1])
    policy = SeriesPolicy(tol=1e-8)

    def phi(u):
        return intertwining_solution(
            op, op.apply, op.apply_inverse, beta, beta.sup_bound, u, policy
        )

    for _ in range(25):
        x = DenseVector(rng.uniform(-1, 1, 2))
        recovered = _twisted_difference(op, phi, x)
        assert norm(recovered - beta(x)) <= 2.0 * policy.tol


def test_series_truncation_certificate(rng):
    op = diag_half_three()
    beta = sine_perturbation(0.3, 1.0, window=[0, 1])
    policy = SeriesPolicy(tol=1e-6)
    terms = truncation_terms(op, beta.sup_bound, policy)
    predicted = truncation_tail_bound(op, beta.sup_bound, terms)
    for _ in range(25):
        x = DenseVector(rng.uniform(-1, 1, 2))
        coarse = intertwining_solution(
            op, op.apply, op.apply_inverse, beta, beta.sup_bound, x, policy, terms=terms
        )
        fine = intertwining_solution(
            op, op.apply, op.apply_inverse, beta, beta.sup_bound, x, policy, terms=2 * terms
        )
        assert norm(fine - coarse) <= predicted


# -- forward and backward conjugacies ------------------------------------------


def test_zero_perturbation_gives_identity(rng):
    op = diag_half_three()
    fwd = solve_conjugacy(op, zero_perturbation(), 0.5, POLICY, picard_tol=1e-10)
    bwd = solve_inverse_conjugacy(op, zero_perturbation(), POLICY)
    for _ in range(10):
        x = DenseVector(rng.uniform(-1, 1, 2))
        assert eval_H(fwd, x) == x
        assert eval_H_prime(bwd, x) == x
    assert fwd.certified_error == 0.0


def test_contraction_closed_form_displacement(rng):
    op = contraction_1d()
    beta = constant_perturbation(DenseVector([0.1]))
    fwd = solve_conjugacy(op, beta, 0.9, POLICY, picard_tol=1e-12)
    for _ in range(20):
        x = DenseVector([rng.uniform(-3, 3)])
        assert abs(fwd.displacement(x).array[0] - 0.2) <= 1e-10
    assert eval_H(fwd, DenseVector([1.0])).array[0] == pytest.approx(1.2, abs=1e-10)


def test_dilation_closed_form_displacement(rng):
    op = dilation_1d()
    beta = constant_perturbation(DenseVector([0.1]))
    fwd = solve_conjugacy(op, beta, 0.9, POLICY, picard_tol=1e-12)
    for _ in range(20):
        x = DenseVector([rng.uniform(-3, 3)])
        assert abs(fwd.displacement(x).array[0] + 0.1) <= 1e-10


def test_backward_closed_form_inverts_forward(rng):
    op = contraction_1d()
    beta = constant_perturbation(DenseVector([0.1]))
    fwd = solve_conjugacy(op, beta, 0.9, POLICY, picard_tol=1e-12)
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    for _ in range(20):
        x = DenseVector([rng.uniform(-2, 2)])
        assert abs(bwd.displacement(x).array[0] + 0.2) <= 1e-10
        assert norm(eval_H_prime(bwd, eval_H(fwd, x)) - x) <= 1e-10
        assert norm(eval_H(fwd, eval_H_prime(bwd, x)) - x) <= 1e-10


def test_forward_preconditions():
    op = diag_half_three()
    eps = admissible_eps(op, 0.2)
    beta = sine_perturbation(2.0 * eps, 1.0, window=[0])
    with pytest.raises(ValueError, match=r"gamma\*\(1-t\)/\(c\*d\*\(1\+t\)\)"):
        solve_conjugacy(op, beta, 0.2, POLICY, picard_tol=1e-8)


def test_verify_conjugacy_zero_beta_exact(rng):
    op = diag_half_three()
    beta = zero_perturbation()
    fwd = solve_conjugacy(op, beta, 0.5, POLICY, picard_tol=1e-10)
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    points = [DenseVector(rng.uniform(-1, 1, 2)) for _ in range(50)]
    assert verify_conjugacy(fwd, points).max_residual == 0.0
    assert verify_conjugacy(bwd, points).max_residual == 0.0
    inverse = verify_inverse_pair(fwd, bwd, points)
    assert inverse.max_residual == 0.0 and inverse.certified_bound == 0.0


def test_verify_conjugacy_matrix_instance(rng):
    op = diag_half_three()
    beta = sine_perturbation(0.02, 1.0, window=[0, 1])
    policy = SeriesPolicy(tol=1e-6)
    fwd = solve_conjugacy(op, beta, 0.2, policy, picard_tol=1e-5)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    points = [DenseVector(rng.uniform(-1, 1, 2)) for _ in range(25)]
    fwd_report = verify_conjugacy(fwd, points)
    bwd_report = verify_conjugacy(bwd, points)
    assert fwd_report.passed and fwd_report.max_residual <= fwd_report.certified_bound
    assert bwd_report.passed
    eps_eff = max(beta.sup_bound, beta.lip_bound)
    cert = make_holder_certificate(op, beta, 0.25, eps_eff, 0.999)
    inverse = verify_inverse_pair(fwd, bwd, points, holder=cert)
    assert inverse.passed


def test_verify_conjugacy_non_normal_matrix(rng):
    # Schur-split 6x6 instance with a large M-N coupling: Horner steps must
    # stay in M and N, or rounding leaks across and T^k amplifies it
    op = make_matrix_operator(
        [
            [0.5, 0.8, 0.0, 0.0, 0.1, 0.0],
            [0.0, 0.6, 0.7, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.4, 0.0, 0.0, 0.2],
            [0.0, 0.0, 0.0, 2.5, 0.9, 0.0],
            [0.0, 0.0, 0.0, 0.0, 3.0, 0.8],
            [0.0, 0.0, 0.0, 0.0, 0.0, 2.2],
        ]
    )
    beta = saturating_perturbation(0.002, 1.0)
    policy = SeriesPolicy(tol=1e-6)
    fwd = solve_conjugacy(op, beta, 0.2, policy, picard_tol=1e-4)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    points = [DenseVector(rng.uniform(-1, 1, 6)) for _ in range(2)]
    assert verify_conjugacy(fwd, points).passed
    assert verify_conjugacy(bwd, points).passed


def test_backward_check_beyond_eval_radius_is_uncertified():
    op = diag_half_three()
    beta = sine_perturbation(0.02, 1.0, window=[0, 1])
    policy = SeriesPolicy(tol=1e-6)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    fwd = solve_conjugacy(op, beta, 0.2, policy, picard_tol=1e-5)
    assert bwd.report()["eval_radius"] == bwd.eval_radius == 3.02
    assert fwd.report()["eval_radius"] is None
    inside = verify_conjugacy(bwd, [DenseVector([0.5, 0.5])])
    assert inside.status == "certified" and inside.passed
    # (T + beta) x stays inside the radius, but x itself does not
    far = verify_conjugacy(bwd, [DenseVector([0.0, 2.0 * bwd.eval_radius])])
    assert far.status == "uncertified" and not far.passed
    assert far.to_dict()["certified_bound"] is None


def test_a_nan_residual_fails_its_check():
    # the residual at -0.1 is NaN; a maximum that skipped it passed this certified check
    op = make_matrix_operator([[0.5]])
    fwd = solve_conjugacy(op, nan_far_out(), 0.2, POLICY, picard_tol=1e-8)
    report = verify_conjugacy(fwd, [DenseVector([0.1]), DenseVector([-0.1])])
    assert report.per_point[0] <= report.certified_bound and math.isnan(report.per_point[1])
    assert report.status == "certified" and report.n_samples == 2
    assert math.isnan(report.max_residual) and not report.passed
    written = report.to_dict()
    assert written["max_residual"] is None and written["passed"] is False
    json.dumps(written, allow_nan=False)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_beta_stops_the_inverse_solve_at_once(value):
    # the backward orbit of -0.1 meets beta's NaN (or inf): the solver names the residual it
    # makes after a few beta calls instead of running its 10 000 iterations to "did not reach"
    op, calls = make_matrix_operator([[0.5]]), []
    bad_beta = nan_far_out(value=value)
    beta = dataclasses.replace(bad_beta, batch=lambda b: calls.append(len(b)) or bad_beta.batch(b))
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    with pytest.raises(IterationLimitError, match=f"a residual is not finite \\({value}\\)"):
        verify_conjugacy(bwd, [DenseVector([0.1]), DenseVector([-0.1])])
    assert 0 < len(calls) < 100


def test_an_inverse_pair_with_a_nan_residual_fails():
    report = InversePairReport(1.0, "certified", [(0.1, 0.2), (math.nan, 0.3)])
    assert report.n_samples == 2 and report.max_residual_right == 0.3
    assert math.isnan(report.max_residual_left) and math.isnan(report.max_residual)
    assert not report.passed
    written = report.to_dict()
    assert written["max_residual_left"] is None and written["max_residual_right"] == 0.3
    assert written["passed"] is False
    json.dumps(written, allow_nan=False)


@pytest.mark.parametrize("backend", ["shift", "dense"])
def test_the_forward_lattice_makes_no_per_index_step(rng, monkeypatch, backend):
    # the forward orbit is one kernel (an accumulate on the shift, stacked products on a
    # non-normal matrix); the backward orbit of T + beta takes one forward step per index and
    # one step_inverse per inverse solve, its first iterate (the solves' iterations run on
    # bare arrays), and T's orbit where beta vanishes
    if backend == "shift":
        op = make_shift(WeightSpec(0.5, 2.0, core={0: 0.3, 1: 2.5}), t=0.55)
        points = [random_sparse(rng) for _ in range(4)]
    else:
        op = make_matrix_operator([[0.5, 0.3, 0.0], [0.0, 2.0, 0.4], [0.0, 0.0, 3.0]])
        points = [DenseVector(rng.uniform(-1.0, 1.0, 3)) for _ in range(4)]
    beta = sine_perturbation(0.01, 1.0, window=range(-2, 3))
    fwd = solve_conjugacy(op, beta, 0.2, POLICY, picard_tol=1e-6)
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    calls = []

    def counted(name):
        method = getattr(type(op), name)

        def spy(self, b):
            calls.append(name)
            return method(self, b)

        return spy

    for name in ("step", "step_inverse"):
        monkeypatch.setattr(type(op), name, counted(name))
    fwd.displacements(points)
    assert calls == []
    solves, solve = [], conjugacy._solve_rows
    monkeypatch.setattr(conjugacy, "_solve_rows", lambda *args: solves.append(1) or solve(*args))
    bwd.displacements(points)
    assert calls.count("step") == bwd.terms and calls.count("step_inverse") == len(solves)
    assert 0 < len(solves) <= bwd.terms + 1


def stepped_backward(cmap, x: Batch) -> Batch:
    """The backward displacements at the rows of x from the orbit of T + beta stepped an index
    at a time: ``perturbed_apply`` forward, ``solve_perturbed_inverse`` to the map's residuals
    back, and beta on the whole orbit in one call."""
    op, beta, tols = cmap.op, cmap.beta, iter(cmap.inverse_tols)
    step = functools.partial(perturbed_apply, op, beta)
    orbit = functools.partial(operators._stepped_orbit, step,
                              lambda p: solve_perturbed_inverse(op, beta, p, next(tols)))
    return -conjugacy._picard_lattice(op, orbit, beta.batch, x, cmap.terms, 1, beta.window)


def square_rows(b: Batch) -> Batch:
    return Batch(b.rows * b.rows)


def square_cutoff(slope: float):
    """T = [[slope]] and the cutoff at radius 0.01 of x -> x^2: N = {0} at 0.5, M = {0} at 2.0."""
    beta = cutoff(square_rows, 0.04, CutoffProfile(0.01), zero=DenseVector([0.0]))
    return make_matrix_operator([[slope]], t=0.6), beta


BACKWARD_CASES = {
    # the inverse steps of points left of the window reach it only after zero-beta steps
    "resumed sine": (make_shift(WeightSpec(0.5, 2.0), t=0.55),
                     sine_perturbation(0.05, 1.0, [-2, -1, 0])),
    # every solve widens its layout by a column per iteration
    "windowless saturating": (make_shift(WeightSpec(0.5, 2.0), t=0.55),
                              saturating_perturbation(0.02, 1.0)),
    "negative core": (make_shift(WeightSpec(0.5, 2.0, core={0: -0.3, 1: -2.5})),
                      sine_perturbation(0.05, 1.0, [-2, -1, 0, 1, 2])),
    "non-normal 3x3": (make_matrix_operator([[0.5, 0.3, 0.0], [0.0, 2.0, 0.4], [0.0, 0.0, 3.0]]),
                       sine_perturbation(0.01, 1.0, [0, 1, 2])),
    "cutoff N = {0}": square_cutoff(0.5),
    "cutoff M = {0}": square_cutoff(2.0),
}


@st.composite
def backward_inputs(draw):
    """A case of ``BACKWARD_CASES`` and a batch of 1-4 rows of its backend, zeros of either sign
    included; sparse rows lie on up to 6 columns in [-8, 8], left of the window in [-14, -3]
    for the resumed sine."""
    name = draw(st.sampled_from(sorted(BACKWARD_CASES)))
    op = BACKWARD_CASES[name][0]
    scale = 0.03 if name.startswith("cutoff") else 2.0
    entry = st.sampled_from([0.0, -0.0]) | st.floats(-scale, scale)
    if op.__class__.__name__ == "MatrixOperator":
        cols, width = None, op.dim
    else:
        lo, hi = (-14, -3) if name == "resumed sine" else (-8, 8)
        cols = np.array(sorted(draw(st.sets(st.integers(lo, hi), min_size=1, max_size=6))))
        width = len(cols)
    n = draw(st.integers(1, 4))
    return name, Batch(np.array([[draw(entry) for _ in range(width)] for _ in range(n)]), cols)


def rows_at(cols, rows) -> Batch:
    return Batch(np.array(rows, dtype=float), None if cols is None else np.array(cols))


@settings(max_examples=40, deadline=None)
@example(inputs=("resumed sine", rows_at([-12, -9, -4], [[1.5, -0.0, 0.25], [0.0, 2.0, -1.0]])))
@example(inputs=("resumed sine", rows_at([2, 5], [[1.0, -2.0], [0.5, 0.0]])))  # never back in it
@example(inputs=("windowless saturating", rows_at([-3, 0, 4], [[1.0, -0.0, 2.0], [0.0, 0.5, 0.0]])))
@example(inputs=("negative core", rows_at([-2, 1, 3], [[-0.0, 1.0, 0.0], [2.0, -0.0, -1.5]])))
@example(inputs=("non-normal 3x3", rows_at(None, [[0.0, -0.0, 0.0], [1.5, -2.0, 0.25]])))
@example(inputs=("cutoff N = {0}", rows_at(None, [[0.004], [-0.0], [0.015], [0.0]])))
@example(inputs=("cutoff N = {0}", rows_at(None, [[0.5], [-0.03]])))  # outside the cutoff ball
@example(inputs=("cutoff M = {0}", rows_at(None, [[0.004], [-0.0], [0.03]])))
@given(inputs=backward_inputs())
def test_backward_orbit_kernel_equals_the_stepped_orbit_bitwise(inputs):
    # the kernel's masked solves, its zero-beta tail and the beta values it keeps give the
    # displacements of the stepped orbit with beta taken on it afresh, bit for bit
    name, x = inputs
    op, beta = BACKWARD_CASES[name]
    bwd = solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-8))
    got, want = bwd._values(x), stepped_backward(bwd, x)
    assert got.rows.shape == want.rows.shape and got.rows.tobytes() == want.rows.tobytes()
    assert (got.cols is None and want.cols is None) or np.array_equal(got.cols, want.cols)


NO_TERMS_CASES = {
    # the README example's shift and beta, and rows with zeros of either sign
    "README shift": (make_shift(WeightSpec(0.5, 2.0), t=0.55),
                     sine_perturbation(0.05, 1.0, range(-1, 2)),
                     rows_at([-2, 0, 3], [[1.5, -0.0, 0.25], [0.0, 2.0, -1.0], [-0.5, 0.5, 0.0]])),
    "non-normal 3x3": (*BACKWARD_CASES["non-normal 3x3"],
                       rows_at(None, [[0.0, -0.0, 0.0], [1.5, -2.0, 0.25]])),
}


@pytest.mark.parametrize("name", sorted(NO_TERMS_CASES))
def test_backward_orbit_kernel_at_no_terms_equals_the_stepped_orbit_bitwise(name):
    # at K = 0 the kernel makes no forward step, and beta at x is the N side's only source
    op, beta, x = NO_TERMS_CASES[name]
    bwd = solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1.0))
    got, want = bwd._values(x), stepped_backward(bwd, x)
    assert bwd.terms == 0 and got.rows.any()
    assert got.rows.shape == want.rows.shape and got.rows.tobytes() == want.rows.tobytes()
    assert (got.cols is None and want.cols is None) or np.array_equal(got.cols, want.cols)


def test_verify_inverse_pair_makes_three_lattice_calls(rng, monkeypatch):
    # h_fwd at x; the backward map once at x and at x + h_fwd(x); the forward map at x + h_bwd(x)
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    fwd = solve_conjugacy(op, beta, 0.2, SeriesPolicy(tol=1e-5), picard_tol=5e-4)
    bwd = solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-5))
    points = [random_sparse(rng, window=range(-3, 4)) for _ in range(5)]
    calls = lattice_calls(monkeypatch)
    inverse = verify_inverse_pair(fwd, bwd, points)
    assert calls == [("forward", 5), ("backward", 10), ("forward", 5)]
    assert inverse.n_samples == 5 and inverse.max_residual < 1e-3


def test_verify_inverse_pair_rejects_swapped_maps():
    op = diag_half_three()
    beta = sine_perturbation(0.02, 1.0, window=[0])
    fwd = solve_conjugacy(op, beta, 0.2, POLICY, picard_tol=1e-5)
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    with pytest.raises(ValueError, match=r"needs a \(forward, backward\) pair"):
        verify_inverse_pair(bwd, fwd, [DenseVector([0.0, 0.0])])


def test_verify_inverse_requires_shared_instance(rng):
    op = diag_half_three()
    beta = sine_perturbation(0.02, 1.0, window=[0])
    other = sine_perturbation(0.02, 1.0, window=[0])
    policy = SeriesPolicy(tol=1e-6)
    fwd = solve_conjugacy(op, beta, 0.2, policy, picard_tol=1e-5)
    bwd = solve_inverse_conjugacy(op, other, policy)
    with pytest.raises(ValueError, match="same operator and perturbation"):
        verify_inverse_pair(fwd, bwd, [DenseVector([0.0, 0.0])])


# -- displacement codomain ------------------------------------------------------


def test_membership_residual_vanishes_on_M():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    v = SparseVector({-2: 1.0, 0: -3.0})
    assert displacement_space_residual(op, v) == 0.0


def test_membership_residual_single_coordinate():
    # (T P_N v)_0 = w_1 v_1, and the projection onto M keeps exactly that
    op = make_shift(WeightSpec(0.5, 2.0, core={1: 3.0}), t=0.8)
    assert displacement_space_residual(op, SparseVector({1: 1.0})) == 3.0


def test_engine_values_stay_in_displacement_space(rng):
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    policy = SeriesPolicy(tol=1e-6)
    fwd = solve_conjugacy(op, beta, 0.2, policy, picard_tol=1e-3)
    bwd = solve_inverse_conjugacy(op, beta, policy)
    for _ in range(10):
        x = random_sparse(rng)
        for value in (fwd.displacement(x), bwd.displacement(x)):
            assert displacement_space_residual(op, value) <= policy.tol * op.norm_T
            # for this splitting, membership is exactly the vanishing of
            # the coordinate at index 1
            assert value[1] == 0.0


# -- error bookkeeping -----------------------------------------------------------


def test_series_value_norm_within_gain_bound(rng):
    # the solution norm never exceeds the summed gain |P_M| + sum |A_M^k| +
    # sum |A_N^k| (here 1 + 1 + 1/2, below c*d*(1+t)/(1-t) = 4) times the
    # source sup, up to the truncation tolerance
    op = diag_half_three()
    beta = sine_perturbation(0.3, 1.0, window=[0, 1])
    policy = SeriesPolicy(tol=1e-8)
    gain = op.constants.gain
    assert gain == pytest.approx(2.5, rel=1e-12)
    for _ in range(50):
        x = DenseVector(rng.uniform(-2, 2, 2))
        value = intertwining_solution(
            op, op.apply, op.apply_inverse, beta, beta.sup_bound, x, policy
        )
        assert norm(value) <= gain * beta.sup_bound + policy.tol


BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["shift-conjugate", "matrix-conjugate", "quad-linearize"])
def test_certified_error_is_the_sum_of_its_error_budget(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]
    cfg = workload.config
    policy = SeriesPolicy(tol=cfg["tol"])
    if workload.command == "conjugate":
        op = operator_from_descriptor(cfg["operator"])
        beta = perturbation_from_descriptor(cfg["perturbation"], op.norm_kind)
        fwd = solve_conjugacy(op, beta, cfg["gamma"], policy, cfg["picard_tol"])
        bwd = solve_inverse_conjugacy(op, beta, policy)
    else:
        problem = workloads._quadratic_problem(ghlin, cfg["problem"])
        result = linearize(problem, policy, cfg["picard_tol"])
        fwd, bwd = result.forward, result.backward
    for cmap, parts in ((fwd, ("picard", "series")), (bwd, ("truncation", "inverse_propagation"))):
        assert tuple(cmap.error_budget) == parts
        assert cmap.certified_error == sum(cmap.error_budget.values())
        assert cmap.report()["error_budget"] == cmap.error_budget
    prefix = str(tmp_path / "run")
    cli.run(workload.command, workload.config_for(0), prefix)
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    for key, cmap in (("forward_map", fwd), ("backward_map", bwd)):
        assert report[key] == json.loads(json.dumps(cmap.report()))
        assert report[key]["error_budget"] == cmap.error_budget
        assert report[key]["certified_error"] == sum(report[key]["error_budget"].values())


def test_admissible_lipschitz_gives_contraction_factor_gamma():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    gamma = 0.2
    eps = admissible_eps(op, gamma)
    beta = sine_perturbation(eps, 1.0, window=[0])
    fwd = solve_conjugacy(op, beta, gamma, SeriesPolicy(tol=1e-6), picard_tol=1e-3)
    # q = gain * Lip(beta), and the gain is at most the envelope c*d*(1+t)/(1-t)
    # that admissible_eps divides gamma by
    assert fwd.contraction == pytest.approx(op.constants.gain * eps, rel=1e-12)
    assert fwd.contraction <= gamma


def test_picard_increments_contract_pointwise(rng):
    from ghlin.conjugacy import ConjugacyMap

    op = diag_half_three()
    beta = sine_perturbation(0.02, 1.0, window=[0, 1])
    policy = SeriesPolicy(tol=1e-8)
    fwd = solve_conjugacy(op, beta, 0.2, policy, picard_tol=1e-6)
    q = fwd.contraction
    points = [DenseVector(rng.uniform(-1, 1, 2)) for _ in range(20)]

    def level_map(depth):
        return ConjugacyMap(
            op=op, beta=beta, direction="forward",
            terms=fwd.terms, depth=depth, contraction=q,
        )

    maps = [level_map(d) for d in range(fwd.depth + 1)]
    slack = 4.0 * policy.tol / (1.0 - q)
    prev_sup = None
    for d in range(1, fwd.depth + 1):
        sup_inc = max(
            norm(maps[d].displacement(x) - maps[d - 1].displacement(x)) for x in points
        )
        if prev_sup is not None:
            assert sup_inc <= q * prev_sup + slack
        prev_sup = sup_inc


def test_forward_certified_error_within_coarse_bound():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=[0])
    policy = SeriesPolicy(tol=1e-6)
    fwd = solve_conjugacy(op, beta, 0.2, policy, picard_tol=1e-4)
    assert fwd.certified_error <= 1e-4 + fwd.depth * policy.tol


def test_displacement_norm_bounded_by_gamma(rng):
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    gamma = 0.2
    eps = admissible_eps(op, gamma)
    beta = sine_perturbation(eps, 1.0, window=range(-1, 2))
    policy = SeriesPolicy(tol=1e-5)
    fwd = solve_conjugacy(op, beta, gamma, policy, picard_tol=5e-4)
    for _ in range(25):
        x = random_sparse(rng)
        assert norm(fwd.displacement(x)) <= gamma + fwd.certified_error


def test_maps_are_frozen():
    op = contraction_1d()
    beta = constant_perturbation(DenseVector([0.1]))
    fwd = solve_conjugacy(op, beta, 0.9, POLICY, picard_tol=1e-12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fwd.certified_error = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fwd.memo = {}


def test_direction_guards():
    op = contraction_1d()
    beta = constant_perturbation(DenseVector([0.1]))
    fwd = solve_conjugacy(op, beta, 0.9, POLICY, picard_tol=1e-10)
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    with pytest.raises(ValueError):
        eval_H(bwd, DenseVector([0.0]))
    with pytest.raises(ValueError):
        eval_H_prime(fwd, DenseVector([0.0]))


# -- the level sweep against the windowed tree ----------------------------------


def tree_displacement(fwd, x):
    """Forward displacement as the memoised window tree, from public calls only.

    Every lattice site (level, m) sums exactly K + 1 terms per side by
    Horner's rule, stepping with T P_M and T^{-1} P_N; the level sweep sums
    at least K + 1.
    """
    op, beta, terms = fwd.op, fwd.beta, fwd.terms

    @functools.cache
    def point(j):  # T^j x
        if j == 0:
            return x
        return op.apply(point(j - 1)) if j > 0 else op.apply_inverse(point(j + 1))

    @functools.cache
    def source(level, j):  # beta(T^j x + h_level(j))
        return beta(point(j) if level == 0 else point(j) + value(level, j))

    @functools.cache
    def value(level, m):
        acc_m = acc_n = zero_like(x)
        for k in reversed(range(terms + 1)):
            acc_m = op.project_M(source(level - 1, m - k - 1)) + op.apply(op.project_M(acc_m))
            acc_n = op.apply_inverse(op.project_N(op.project_N(source(level - 1, m + k)) + acc_n))
        return acc_m - acc_n

    return value(fwd.depth, 0)


def _shift_sweep_instance(beta):
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    return solve_conjugacy(op, beta, 0.2, SeriesPolicy(tol=1e-5), picard_tol=5e-4)


def mean_sine_perturbation(amplitude, frequency, window):
    """x -> a*sin(omega * mean of x over the window) on every window coordinate.

    Sup a and Lipschitz constant a*omega in the sup norm.  Unlike the
    coordinatewise sine it mixes coordinates: a change of its input far left
    of 0 moves its output at the indices near 0 too.
    """
    idx = list(window)

    def func(x):
        v = amplitude * math.sin(frequency * sum(x[i] for i in idx) / len(idx))
        return SparseVector({i: v for i in idx})

    return Perturbation(
        _row_wise(func),
        sup_bound=amplitude,
        lip_bound=amplitude * frequency,
        window=(idx[0], idx[-1]),
    )


def test_sweep_matches_tree_bitwise_when_extra_terms_miss_beta(rng):
    # README config: the sweep's extra terms land at indices <= -K - 1,
    # outside beta's window [-1, 1], so beta never sees them
    fwd = _shift_sweep_instance(sine_perturbation(0.05, 1.0, window=range(-1, 2)))
    assert fwd.terms == 13 and fwd.depth == 4
    for _ in range(3):
        x = random_sparse(rng)
        assert fwd.displacement(x) == tree_displacement(fwd, x)


def test_sweep_matches_tree_within_certified_error_on_matrix(rng):
    # the 6x6 instance of test_verify_conjugacy_non_normal_matrix; both
    # values lie within certified_error of the exact displacement
    op = make_matrix_operator(
        [
            [0.5, 0.8, 0.0, 0.0, 0.1, 0.0],
            [0.0, 0.6, 0.7, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.4, 0.0, 0.0, 0.2],
            [0.0, 0.0, 0.0, 2.5, 0.9, 0.0],
            [0.0, 0.0, 0.0, 0.0, 3.0, 0.8],
            [0.0, 0.0, 0.0, 0.0, 0.0, 2.2],
        ]
    )
    beta = saturating_perturbation(0.002, 1.0)
    fwd = solve_conjugacy(op, beta, 0.2, SeriesPolicy(tol=1e-6), picard_tol=1e-4)
    for _ in range(2):
        x = DenseVector(rng.uniform(-1, 1, 6))
        gap = norm(fwd.displacement(x) - tree_displacement(fwd, x))
        assert gap <= 2.0 * fwd.certified_error


def test_sweep_matches_tree_within_certified_error_when_beta_sees_extra_terms(rng):
    # beta's window reaches below -K - 1, so the extra terms change its input.
    # A coordinatewise beta would keep that change at indices <= -K - 1, which
    # the top level never reads; this one spreads it over the whole window.
    fwd = _shift_sweep_instance(mean_sine_perturbation(0.05, 1.0, range(-20, 6)))
    assert -20 < -fwd.terms - 1
    gaps = []
    for _ in range(3):
        x = random_sparse(rng)
        gaps.append(norm(fwd.displacement(x) - tree_displacement(fwd, x)))
    assert max(gaps) <= 2.0 * fwd.certified_error
    assert max(gaps) > 0.0


# -- the lower levels on beta's window ---------------------------------------------


def full_lattice(fwd, x: Batch) -> Batch:
    """The forward displacements at the rows of x from the lattice with K + 1 sources per side
    on every level, each orbit and sweep on every column it reaches."""
    op, beta, depth, count = fwd.op, fwd.beta, fwd.depth, fwd.terms + 1
    orbit = op.orbit(x, depth * count, depth * (count - 1))
    values = None
    for level in range(1, depth + 1):
        start = (level - 1) * count
        points = orbit[start : start + (depth - level + 1) * (2 * count - 1) + 1]
        if values is not None:
            points = points + values
        values = op.orbit_sweep(conjugacy._on_rows(beta.batch, points), count, count)
    return values[0]


WINDOW_CORES = [{}, {0: -0.3, 1: -2.5}, {-1: -0.4, 0: 0.3, 1: -2.5, 2: -1.5}]


@st.composite
def windowed_forward_inputs(draw):
    """A forward map of a shift (negative core weights among them) and a sine or saturating beta
    on a window left of, across or right of 0, a single index among them, at K 0-5 and depth
    1-4; and 1-5 rows on up to 6 columns within 12 of the window, zeros of either sign and a
    row of -0 among them."""
    op = make_shift(WeightSpec(0.5, 2.0, core=draw(st.sampled_from(WINDOW_CORES))), t=0.55)
    lo = draw(st.integers(-8, 8))
    hi = lo + draw(st.sampled_from([0, 1, 2, 3, 5, 9]))
    make = draw(st.sampled_from([sine_perturbation, saturating_perturbation]))
    beta = make(0.01, 1.0, range(lo, hi + 1))
    terms, depth = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    fwd = conjugacy.ConjugacyMap(op, beta, "forward", terms, depth)
    cols = np.array(sorted(draw(st.sets(st.integers(lo - 12, hi + 12), min_size=1, max_size=6))))
    entry = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
    rows = [[draw(entry) for _ in cols] for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        rows.append([-0.0] * len(cols))
    return fwd, Batch(np.array(rows), cols)


def readme_forward(window):
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(window[0], window[1] + 1))
    return solve_conjugacy(op, beta, 0.2, SeriesPolicy(tol=1e-5), picard_tol=5e-4)


@settings(max_examples=60, deadline=None)
@example(inputs=(readme_forward((-1, 1)), rows_at([-3, 0, 2], [[1.5, -0.0, 0.2], [0, 2, -1]])))
@example(inputs=(readme_forward((1, 3)), rows_at([-2, 1, 5], [[0.5, -0.0, 1.0], [-0.0, 0, -0.0]])))
@given(inputs=windowed_forward_inputs())
def test_lower_levels_on_the_window_give_the_full_lattice_bitwise(inputs):
    # below the top, a level sums only the terms that land in beta's window, on its columns:
    # every other term is an exact zero where the next level reads
    fwd, x = inputs
    got, want = fwd._rows(x), full_lattice(fwd, x)
    assert got.rows.shape == want.rows.shape and got.rows.tobytes() == want.rows.tobytes()
    assert np.array_equal(got.cols, want.cols)


def test_the_readme_lattice_builds_the_orbit_its_landing_terms_reach(monkeypatch):
    # K = 13 and depth 4 on [-1, 1]: the top takes 14 sources per side, each level below 2 on
    # M and none on N, so the orbit runs from -(14 + 3 * 2) to 13, 34 indices instead of 109
    fwd = readme_forward((-1, 1))
    lengths, orbit = [], fwd.op.orbit
    monkeypatch.setattr(fwd.op, "orbit", lambda *a: lengths.append(len(orbit(*a))) or orbit(*a))
    fwd.displacements([SparseVector({0: 0.5, 2: -1.0})])
    assert (fwd.terms, fwd.depth) == (13, 4) and lengths == [34]


# -- one-sided splittings ---------------------------------------------------------


def two_sided_sweep(op, sources, terms):
    """The dense sweep forced through K + 1 sources on both sides, whatever the splitting."""
    values = op.orbit_sweep(stack([pack([s]) for s in sources]), terms + 1, terms + 1)
    return Batch(values.rows[:, 0]).unpack()


def two_sided_displacement(cmap, x):
    """The map's displacement at x from the two-sided lattice.

    Both halves of the orbit are built and swept even when P_M or P_N is
    zero; on a trivial side the partial sums are exact zeros.
    """
    op, beta, terms, depth = cmap.op, cmap.beta, cmap.terms, cmap.depth
    if cmap.direction == "forward":
        r_apply, r_invert = op.apply, op.apply_inverse
    else:
        tols = iter(cmap.inverse_tols)
        r_apply = functools.partial(perturbed_apply, op, beta)
        r_invert = lambda p: solve_perturbed_inverse(op, beta, p, next(tols))
    orbit = [x]
    for _ in range(depth * (terms + 1)):
        orbit.append(r_invert(orbit[-1]))
    orbit.reverse()
    for _ in range(depth * terms):
        orbit.append(r_apply(orbit[-1]))
    values = None
    for level in range(1, depth + 1):
        points = orbit[(level - 1) * (terms + 1) : len(orbit) - (level - 1) * terms]
        if values is not None:
            points = [p + h for p, h in zip(points, values)]
        values = two_sided_sweep(op, [beta(u) for u in points], terms)
    return values[0] if cmap.direction == "forward" else -values[0]


def _one_sided_maps(rows):
    op = make_matrix_operator(rows, t=0.6)
    beta = saturating_perturbation(0.01, 1.0)
    fwd = solve_conjugacy(op, beta, 0.5, POLICY, picard_tol=1e-8)
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    return op, beta, fwd, bwd


@pytest.mark.parametrize(
    "rows",
    [[[0.5]], [[2.0]], [[0.5, 0.0], [0.0, 0.25]], [[2.0, 0.0], [0.0, 3.0]]],
)
def test_one_sided_lattice_equals_two_sided(rng, monkeypatch, rows):
    op, _, fwd, bwd = _one_sided_maps(rows)
    assert op.m_is_trivial or op.n_is_trivial
    assert fwd.depth > 1
    # the forward orbit is not stepped towards the trivial side
    unused_step = "apply" if op.n_is_trivial else "apply_inverse"

    def forbidden(y):
        raise AssertionError(f"{unused_step} called on a one-sided forward orbit")

    for _ in range(20):
        x = DenseVector(rng.uniform(-1, 1, op.dim))
        with monkeypatch.context() as m:
            m.setattr(op, unused_step, forbidden)
            got = fwd.displacement(x)
        assert got == two_sided_displacement(fwd, x)
        assert bwd.displacement(x) == two_sided_displacement(bwd, x)


def test_backward_map_with_trivial_M_never_inverts(monkeypatch):
    # no inverse solve and no orbit of T; beta is taken once per forward step and at the last
    # orbit point, a source of the N series
    op, beta, _, _ = _one_sided_maps([[2.0]])
    calls, beta_rows = [], []
    counting = Perturbation(lambda b: beta_rows.append(len(b)) or beta.batch(b), beta.sup_bound,
                            beta.lip_bound)
    bwd = solve_inverse_conjugacy(op, counting, POLICY)

    def forbidden(*args):
        calls.append(args)
        raise AssertionError("an inverse step with M = {0}")

    monkeypatch.setattr(conjugacy, "_solve_rows", forbidden)
    monkeypatch.setattr(op, "orbit", forbidden)
    monkeypatch.setattr(op, "step_inverse", forbidden)
    bwd.displacement(DenseVector([0.4]))
    assert op.m_is_trivial and bwd.terms > 0
    assert calls == [] and beta_rows == [1] * (bwd.terms + 1)


def test_backward_map_with_trivial_N_never_steps_forward(monkeypatch):
    # every source is beta at a point some inverse solve returned: no beta call outside the
    # solves (x itself, the last orbit point, is no source with N = {0}) and no forward step
    op, beta, _, _ = _one_sided_maps([[0.5]])
    inside_solver = []
    outside_calls = []

    def counted_beta(x):
        if not inside_solver:
            outside_calls.append(x)
        return beta(x)

    solve = conjugacy._solve_rows

    def solver(*args):
        inside_solver.append(True)
        try:
            return solve(*args)
        finally:
            inside_solver.pop()

    def forward_step(*args):
        raise AssertionError("a forward step with N = {0}")

    counting = Perturbation(_row_wise(counted_beta), beta.sup_bound, beta.lip_bound)
    bwd = solve_inverse_conjugacy(op, counting, POLICY)
    monkeypatch.setattr(conjugacy, "_solve_rows", solver)
    monkeypatch.setattr(op, "step", forward_step)
    bwd.displacement(DenseVector([0.4]))
    assert op.n_is_trivial and bwd.terms > 0
    assert outside_calls == []

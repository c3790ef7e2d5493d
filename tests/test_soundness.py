"""Soundness fuzzing: every certified check meets its bound on drawn instances.

Operators are weighted shifts with random cores and non-normal hyperbolic
2-4-dimensional matrices; each gets a sine or a windowless saturating beta of
amplitude u * min(eps, 0.9 / |T^-1|), u in [0.1, 0.9], where eps is the
admissible size at gamma.  Residuals are float residuals: a failure here is a
fault of the program, never a reason to widen a bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlin import (
    SeriesPolicy,
    admissible_eps,
    empirical_holder,
    make_matrix_operator,
    make_shift,
    perturbation_from_descriptor,
    solve_conjugacy,
    solve_inverse_conjugacy,
    verify_conjugacy,
)
from ghlin.conjugacy import _conjugate_checks
from ghlin.linearize import _default_certificate
from ghlin.sampling import sample_pairs, sample_points
from ghlin.vectors import row_norms
from conftest import hyperbolic_matrices, shifts

GAMMA = 0.2
POLICY = SeriesPolicy(tol=1e-6)
PICARD_TOL = 1e-4


@st.composite
def instances(draw):
    """An operator and an admissible sine or windowless saturating beta."""
    if draw(st.booleans()):
        op = make_shift(draw(shifts()))
        window = [-1, 1]
    else:
        op = make_matrix_operator(draw(hyperbolic_matrices()))
        window = [0, op.dim - 1]
    size = draw(st.floats(0.1, 0.9)) * min(admissible_eps(op, GAMMA), 0.9 / op.norm_Tinv)
    if draw(st.booleans()):
        descriptor = {"kind": "sine", "amplitude": size, "frequency": 1.0, "window": window}
    else:
        descriptor = {"kind": "saturating", "amplitude": size, "scale": 1.0}
    return op, perturbation_from_descriptor(descriptor, op.norm_kind)


def certificate(op, beta, diameter):
    try:
        return _default_certificate(op, beta, diameter)
    except ValueError:  # the one-step norms admit no Holder certificate
        return None


@settings(max_examples=25, deadline=None)
@given(instance=instances(), seed=st.integers(0, 2**32 - 1))
def test_certified_checks_meet_their_bounds(instance, seed):
    op, beta = instance
    rng = np.random.default_rng(seed)
    fwd = solve_conjugacy(op, beta, GAMMA, POLICY, PICARD_TOL)
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    points = sample_points(rng, op, 5, beta)
    reports = _conjugate_checks(fwd, bwd, points, certificate(op, beta, 0.999))
    for report in reports:
        if report.status == "certified":
            assert report.max_residual <= report.certified_bound
    h_fwd = row_norms(reports[0].values, op.norm_kind)
    assert (h_fwd <= GAMMA + fwd.certified_error).all()
    cert = certificate(op, beta, 0.9)
    if cert is not None:
        assert empirical_holder(bwd, cert, *sample_pairs(rng, op, 5, 0.9, beta)).passed


@pytest.mark.xfail(strict=True, reason="the forward certified error assumes an exact float orbit")
def test_forward_check_meets_its_bound_on_a_drawn_non_normal_matrix():
    # a draw of the fuzz above: K 30, depth 3, residual 2.76e-5 against the bound 2.30e-5
    op = make_matrix_operator([[-0.4375, 0.0, 0.0], [0.0, -0.125, 0.0], [1.0, 1.0, -0.6875]])
    descriptor = {"kind": "sine", "amplitude": 0.0037548416339312695, "frequency": 1.0,
                  "window": [0, 2]}
    beta = perturbation_from_descriptor(descriptor, op.norm_kind)
    fwd = solve_conjugacy(op, beta, GAMMA, POLICY, PICARD_TOL)
    report = verify_conjugacy(fwd, sample_points(np.random.default_rng(0), op, 5, beta))
    assert report.max_residual <= report.certified_bound

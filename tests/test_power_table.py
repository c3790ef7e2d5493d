"""The power table behind the gain, the series tails and the backward weights.

Each table bound must cover the brute-force norms |A^k| and their partial
sums well past the table's end W, and must never exceed the envelope
c*d*t^k of the decay constants that it replaces.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlin import (
    DenseVector,
    NormKind,
    SeriesPolicy,
    WeightSpec,
    intertwining_solution,
    make_matrix_operator,
    make_shift,
    norm,
    saturating_perturbation,
    sine_perturbation,
    truncation_tail_bound,
    truncation_terms,
)
from ghlin import conjugacy
from ghlin.conjugacy import TERMS_CAP
from ghlin.operators import POWER_TABLE_FLOOR, CertificationError
from conftest import hyperbolic_matrices, shifts

#: rounding room of a float table entry against the same norm computed another way
REL = 1e-9

MATRIX_CONJUGATE = [
    [0.5, 0.8, 0.0, 0.0, 0.1, 0.0],
    [0.0, 0.6, 0.7, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.4, 0.0, 0.0, 0.2],
    [0.0, 0.0, 0.0, 2.5, 0.9, 0.0],
    [0.0, 0.0, 0.0, 0.0, 3.0, 0.8],
    [0.0, 0.0, 0.0, 0.0, 0.0, 2.2],
]


def matrix_power_norms(op, count: int) -> np.ndarray:
    """|A_M^k| and |A_N^k| (two rows) for k = 0..count by repeated products, |P| at k = 0."""
    out = np.zeros((2, count + 1))
    for side, (a, p) in enumerate(((op.a_M, op.proj_M_matrix), (op.a_N, op.proj_N_matrix))):
        power = np.eye(op.dim)
        out[side, 0] = np.linalg.norm(p, np.inf)
        for k in range(1, count + 1):
            power = power @ a
            out[side, k] = np.linalg.norm(power, np.inf)
    return out


def shift_power_norms(spec: WeightSpec, count: int) -> np.ndarray:
    """|A_M^k| and |A_N^k| for k = 0..count from every window product of the weights.

    |A_M^k| is the largest |w_{j-k+1} ... w_j| over j <= 0 and |A_N^k| the
    reciprocal of the smallest |w_{j+1} ... w_{j+k}| over j >= 1, scanned
    far enough past the core that pure tail windows are included.
    """
    lo, hi = spec.window
    left = np.abs([spec.weight(i) for i in range(min(lo, 0) - count - 2, 1)])
    right = np.abs([spec.weight(i) for i in range(2, max(hi, 1) + count + 3)])
    out = np.ones((2, count + 1))
    for k in range(1, count + 1):
        view = np.lib.stride_tricks.sliding_window_view
        out[0, k] = view(left, k).prod(axis=1).max()
        out[1, k] = 1.0 / view(right, k).prod(axis=1).min()
    return out


def assert_table_sound(op, brute: np.ndarray) -> None:
    k = op.constants
    count = brute.shape[1] - 1
    for side in (0, 1):
        partial = np.cumsum(brute[side, :0:-1])[::-1]  # partial[r - 1] = sum_{r <= k <= count}
        for first in range(1, count + 1):
            assert k.tail(side, first) >= partial[first - 1] * (1.0 - REL)
        for j in range(count + 1):
            assert k.power(side, j) >= brute[side, j] * (1.0 - REL)


def assert_never_above_envelope(op) -> None:
    k = op.constants
    envelope = k.c * k.d * (1.0 + k.t) / (1.0 - k.t)
    assert k.gain <= envelope
    for terms in range(61):
        old_tail = k.c * k.d * 1.0 * k.t ** (terms + 1) * (1.0 + k.t) / (1.0 - k.t)
        assert truncation_tail_bound(op, 1.0, terms) <= old_tail
    for j in range(61):
        assert k.power(0, j) <= k.c * k.d * k.t**j


@settings(max_examples=12, deadline=None)
@given(a=hyperbolic_matrices())
def test_matrix_table_covers_brute_force_norms_and_never_exceeds_the_envelope(a):
    op = make_matrix_operator(a)
    width = op.constants.powers.shape[1] - 1
    assert width >= op.constants.n_max
    assert_table_sound(op, matrix_power_norms(op, 4 * width))
    assert_never_above_envelope(op)


@settings(max_examples=12, deadline=None)
@given(spec=shifts())
def test_shift_table_covers_brute_force_norms_and_never_exceeds_the_envelope(spec):
    op = make_shift(spec)
    width = op.constants.powers.shape[1] - 1
    assert width >= op.constants.n_max
    assert_table_sound(op, shift_power_norms(spec, 4 * width))
    assert_never_above_envelope(op)


def check_doubling_k(op, beta, points, policy) -> int:
    # acceptance 06: doubling K moves a series value by at most the tail bound at K
    terms = truncation_terms(op, beta.sup_bound, policy)
    predicted = truncation_tail_bound(op, beta.sup_bound, terms)
    for x in points:
        coarse, fine = (
            intertwining_solution(
                op, op.apply, op.apply_inverse, beta, beta.sup_bound, x, policy, terms=k
            )
            for k in (terms, 2 * terms)
        )
        assert norm(fine - coarse) <= predicted
    return terms


@settings(max_examples=8, deadline=None)
@given(a=hyperbolic_matrices(), data=st.data())
def test_doubling_k_stays_within_the_tail_bound_on_drawn_matrices(a, data):
    op = make_matrix_operator(a)
    beta = sine_perturbation(0.3, 1.0, window=range(op.dim))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=op.dim, max_size=op.dim)
    points = [DenseVector(data.draw(coords)) for _ in range(3)]
    check_doubling_k(op, beta, points, SeriesPolicy(tol=1e-6))


def test_doubling_k_stays_within_the_tail_bound_on_matrix_conjugate(rng):
    # the benchmark's 6x6 operator and perturbation: K fell from 50 to 23
    op = make_matrix_operator(MATRIX_CONJUGATE)
    points = [DenseVector(rng.uniform(-1, 1, 6)) for _ in range(20)]
    beta = saturating_perturbation(0.002, 1.0)
    assert check_doubling_k(op, beta, points, SeriesPolicy(tol=1e-6)) == 23


def counted_up_terms(op, source_sup, policy):
    """The smallest K meeting the policy, counted up from 0; None past ``TERMS_CAP``."""
    for terms in range(TERMS_CAP + 1):
        if truncation_tail_bound(op, source_sup, terms) <= policy.tol:
            return terms
    return None


NORMS = {"sup": NormKind.sup(), "l1": NormKind.lp(1), "l2": NormKind.lp(2)}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dense=st.booleans(), kind=st.sampled_from(sorted(NORMS)),
       sup=st.floats(0.0, 10.0), tol=st.floats(1e-14, 1.0))
def test_truncation_search_finds_the_counted_up_terms(data, dense, kind, sup, tol):
    # the tail bound does not increase with K, so doubling and bisection reach the same
    # smallest K as counting up, in O(log K) bound evaluations
    if dense:
        op = make_matrix_operator(data.draw(hyperbolic_matrices()), NORMS[kind])
    else:
        op = make_shift(data.draw(shifts()), NORMS[kind])
    policy = SeriesPolicy(tol=tol)
    want, calls = counted_up_terms(op, sup, policy), []
    bound = conjugacy.truncation_tail_bound
    with pytest.MonkeyPatch.context() as m:
        m.setattr(conjugacy, "truncation_tail_bound", lambda *a: calls.append(1) or bound(*a))
        if want is None:
            with pytest.raises(CertificationError, match="cap"):
                truncation_terms(op, sup, policy)
            return
        assert truncation_terms(op, sup, policy) == want
    assert len(calls) <= 2 * (want + 1).bit_length()


def test_table_ends_at_the_floor_past_the_window():
    # 0.5^20 is the first power of 0.5 at most 1e-6, and the window is 1 at t = 0.6
    k = make_matrix_operator([[0.5]], t=0.6).constants
    assert k.n_max == 1 and k.powers.shape == (2, 21)
    assert k.powers[0, 20] == 0.5**20 and not k.powers[1].any()
    assert k.gain == 2.0
    # past the end, |A^(mW + r)| <= |A^W|^m |A^r| is exact for a scalar
    assert k.power(0, 45) == 0.5**45
    assert k.tail(0, 30) == pytest.approx(0.5**29, rel=1e-12)


def test_table_ends_before_a_power_that_cannot_be_certified():
    # n_max is 1, and 1e10^31 overflows in |A_N^31|: the scan stops there, not at the floor,
    # and the table ends at W = 30, the last power with both norms below 1
    spec = WeightSpec(0.999, 1e10)
    op = make_shift(spec, t=0.9995)
    k = op.constants
    assert k.n_max == 1 and k.powers.shape == (2, 31)
    assert k.powers[0, 30] > POWER_TABLE_FLOOR and k.powers[1, 30] < 1.0
    assert_table_sound(op, shift_power_norms(spec, 30))


def test_matrix_conjugate_table_halves_the_series():
    op = make_matrix_operator(MATRIX_CONJUGATE)
    k = op.constants
    assert (k.n_max, k.powers.shape[1] - 1) == (13, 35)
    # the envelope c*d*(1+t)/(1-t) is 38.3, three times the summed gain
    assert k.gain == pytest.approx(12.7475, rel=1e-4)
    assert truncation_terms(op, 0.002, SeriesPolicy(tol=1e-6)) == 23


def test_far_core_certifies_with_a_window_past_it():
    # indices 1..199 carry the left tail 0.5, so |A_N^n| grows until n passes
    # the core; the table scans one weight column per power
    op = make_shift(WeightSpec(0.5, 2.0, core={200: 0.3}))
    assert op.constants.n_max == 682
    assert math.isfinite(op.constants.gain)

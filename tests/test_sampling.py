"""Deterministic sampling used by the CLI and the verification runs."""

import numpy as np
import pytest

from ghlin import (
    NormKind, SparseVector, WeightSpec, make_matrix_operator, make_shift, norm, sine_perturbation,
)
from ghlin.sampling import PAIR_MIN_DISTANCE, sample_pairs, sample_points, sample_window
from ghlin.vectors import Batch


def test_sparse_window_tracks_perturbation_support():
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    assert sample_window(beta) == (-11, 11)
    assert sample_window(None) == (-10, 10)


def test_samples_live_in_unit_ball(rng):
    shift = make_shift(WeightSpec(0.5, 2.0))
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    for x in sample_points(rng, shift, 50, beta).unpack():
        assert norm(x) <= 1.0
        assert all(-11 <= i <= 11 for i in x.support())
    mat = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], norm_kind=NormKind.lp(2))
    for x in sample_points(rng, mat, 50).unpack():
        assert norm(x, NormKind.lp(2)) <= 1.0 + 1e-12


def test_sampling_is_seed_deterministic():
    op = make_shift(WeightSpec(0.5, 2.0))
    a = sample_points(np.random.default_rng(42), op, 10).unpack()
    b = sample_points(np.random.default_rng(42), op, 10).unpack()
    assert all(x == y for x, y in zip(a, b))


def test_pairs_respect_distance_band(rng):
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    xs, ys = sample_pairs(rng, op, 50, 0.5)
    for x, y in zip(xs.unpack(), ys.unpack()):
        dist = norm(x - y)
        assert 1e-3 <= dist <= 0.5


def reference_pairs(rng, op, n, max_distance, beta=None):
    """The one-at-a-time pair draw: each pair redraws its step until it fits."""
    base = sample_points(rng, op, n, beta).unpack()
    pairs = []
    for x in base:
        for _ in range(64):
            (step,) = sample_points(rng, op, 1, beta, radius=max_distance / 2.0).unpack()
            y = x + step
            if PAIR_MIN_DISTANCE <= norm(x - y, op.norm_kind) <= max_distance:
                pairs.append((x, y))
                break
        else:
            raise RuntimeError("could not draw a pair within the distance band")
    return pairs


def bits(v):
    items = v.items() if isinstance(v, SparseVector) else enumerate(v.array)
    return [(i, float(x).hex()) for i, x in items]


@pytest.mark.parametrize("op", [
    make_shift(WeightSpec(0.5, 2.0)),
    make_matrix_operator([[0.5, 0.0], [0.0, 3.0]]),
    make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], norm_kind=NormKind.lp(2)),
], ids=["shift-sup", "matrix-sup", "matrix-l2"])
def test_batched_pairs_consume_the_generator_in_the_one_at_a_time_order(op):
    # a step radius just above PAIR_MIN_DISTANCE rejects many draws, each redrawn at once
    # (21, 317 and 31 of them); an l2 shift step of 23 cube coordinates is always scaled to
    # the radius, so it cannot be made to redraw
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    max_distance = 2.1 * PAIR_MIN_DISTANCE if op.norm_kind.is_sup else 2.6 * PAIR_MIN_DISTANCE
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    xs, ys = sample_pairs(got_rng, op, 40, max_distance, beta)
    want = reference_pairs(want_rng, op, 40, max_distance, beta)
    got = zip(xs.unpack(), ys.unpack())
    assert [(bits(x), bits(y)) for x, y in got] == [(bits(x), bits(y)) for x, y in want]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_pairs_give_up_after_64_draws_when_no_draw_fits():
    # the step radius is PAIR_MIN_DISTANCE and the sup norm of a cube draw is below 1
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    got_rng, want_rng = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="distance band"):
        sample_pairs(got_rng, op, 3, 2 * PAIR_MIN_DISTANCE)
    with pytest.raises(RuntimeError, match="distance band"):
        reference_pairs(want_rng, op, 3, 2 * PAIR_MIN_DISTANCE)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("op", [
    make_shift(WeightSpec(0.5, 2.0)),
    make_matrix_operator([[0.5, 0.0], [0.0, 3.0]]),
], ids=["shift", "matrix"])
def test_no_pairs_are_two_empty_batches(op, rng):
    xs, ys = sample_pairs(rng, op, 0, 0.5)
    assert isinstance(xs, Batch) and isinstance(ys, Batch)
    assert len(xs) == len(ys) == 0 and xs.unpack() == ys.unpack() == []
    assert xs.rows.shape == ys.rows.shape

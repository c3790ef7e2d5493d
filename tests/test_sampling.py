"""Deterministic sampling used by the CLI and the verification runs."""

import numpy as np

from ghlin import NormKind, WeightSpec, make_matrix_operator, make_shift, norm, sine_perturbation
from ghlin.sampling import sample_pairs, sample_points, sample_window


def test_sparse_window_tracks_perturbation_support():
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    assert sample_window(beta) == (-11, 11)
    assert sample_window(None) == (-10, 10)


def test_samples_live_in_unit_ball(rng):
    shift = make_shift(WeightSpec(0.5, 2.0))
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    for x in sample_points(rng, shift, 50, beta):
        assert norm(x) <= 1.0
        assert all(-11 <= i <= 11 for i in x.support())
    mat = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], norm_kind=NormKind.lp(2))
    for x in sample_points(rng, mat, 50):
        assert norm(x, NormKind.lp(2)) <= 1.0 + 1e-12


def test_sampling_is_seed_deterministic():
    op = make_shift(WeightSpec(0.5, 2.0))
    a = sample_points(np.random.default_rng(42), op, 10)
    b = sample_points(np.random.default_rng(42), op, 10)
    assert all(x == y for x, y in zip(a, b))


def test_pairs_respect_distance_band(rng):
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    for x, y in sample_pairs(rng, op, 50, 0.5):
        dist = norm(x - y)
        assert 1e-3 <= dist <= 0.5

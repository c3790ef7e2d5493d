"""Shared oracles and sample builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from ghlin import ConjugacyMap, DenseVector, Perturbation, SparseVector, WeightSpec, norm
from ghlin import zero_like
from ghlin.perturbations import INVERSE_MAX_ITER
from ghlin.vectors import Batch


def lattice_calls(monkeypatch) -> list[tuple[str, int]]:
    """A list that receives the direction and row count of every ConjugacyMap._values call."""
    calls, values = [], ConjugacyMap._values
    monkeypatch.setattr(
        ConjugacyMap, "_values", lambda m, xs: calls.append((m.direction, len(xs))) or values(m, xs)
    )
    return calls


def reference_inverse(op, beta, y, tol):
    """The contraction iteration for one point in vector arithmetic, with no column layout."""
    x = op.apply_inverse(y)
    for _ in range(INVERSE_MAX_ITER):
        x_next = op.apply_inverse(y - beta(x))
        if norm(op.apply(x - x_next), op.norm_kind) <= tol:
            return x
        x = x_next
    raise AssertionError("the reference iteration did not converge")


def nan_far_out(limit: float = -1000.0, value: float = math.nan) -> Perturbation:
    """beta = 0.01 tanh, but NaN (or ``value``) at every coordinate below ``limit``.

    With T = [[0.5]] the backward orbit of -0.1 passes the limit within the
    series' terms, so a check there meets a NaN residual, while the orbit of
    0.1 stays finite.
    """

    def rows(b: Batch) -> Batch:
        return Batch(np.where(b.rows < limit, value, 0.01 * np.tanh(b.rows)), b.cols)

    return Perturbation(rows, sup_bound=0.01, lip_bound=0.01)


def random_sparse(rng: np.random.Generator, window=range(-5, 6), density=0.7) -> SparseVector:
    coords = {}
    for i in window:
        if rng.uniform() < density:
            v = rng.uniform(-2.0, 2.0)
            if v != 0.0:
                coords[i] = v
    return SparseVector(coords)


def weight_array(spec: WeightSpec, lo: int, hi: int) -> np.ndarray:
    return np.array([spec.weight(i) for i in range(lo, hi + 1)])


def brute_force_margins(spec: WeightSpec, k_max: int = 500, n: int = 200) -> tuple[float, float]:
    """Limit of the two-sided weight-product geometric means, by extrapolation.

    For eventually constant weights the log of the windowed supremum /
    infimum at window length n equals the limit plus a constant over n, so
    evaluating at n and 2n and eliminating the 1/n term recovers the limit
    up to float rounding.  The windows sweep k in [0, k_max].
    """

    def log_sup_left(nn: int) -> float:
        logs = np.log(np.abs(weight_array(spec, -k_max - nn, 0)))
        csum = np.concatenate([[0.0], np.cumsum(logs)])
        # window sums of length nn+1 ending at index -k, k = 0..k_max
        sums = csum[nn + 1 :] - csum[: -(nn + 1)]
        return float(np.max(sums)) / nn

    def log_inf_right(nn: int) -> float:
        logs = np.log(np.abs(weight_array(spec, 0, k_max + nn)))
        csum = np.concatenate([[0.0], np.cumsum(logs)])
        sums = csum[nn + 1 :] - csum[: -(nn + 1)]
        return float(np.min(sums)) / nn

    left = 2.0 * log_sup_left(n) - log_sup_left(n // 2)
    right = 2.0 * log_inf_right(n) - log_inf_right(n // 2)
    return math.exp(left), math.exp(right)


@st.composite
def banded_points(draw, zero, kind, r: float) -> list:
    """Points of zero's backend with norms about 0.5r, 1.5r and 3r, then up to three in [0, 4r].

    Under a radial cutoff at r the first three have chi = 1, 0 < chi < 1 and
    chi = 0.  Sparse points have four coordinates on a drawn index run.
    """
    bands = [0.5, 1.5, 3.0] + draw(st.lists(st.floats(0.0, 4.0), max_size=3))
    points = []
    for band in bands:
        dim = zero.dim if isinstance(zero, DenseVector) else 4
        values = draw(st.lists(st.integers(-1000, 1000), min_size=dim, max_size=dim).filter(any))
        if isinstance(zero, DenseVector):
            x = DenseVector(values)
        else:
            x = SparseVector(zip(range(lo := draw(st.integers(-3, 3)), lo + dim), values))
        points.append(x * (band * r / norm(x, kind)))
    return points


@st.composite
def hyperbolic_matrices(draw):
    """Upper-triangular 2-4-dimensional matrices, spectrum at least 0.2 off the unit circle.

    The strictly upper entries make them non-normal; a permutation
    similarity, exact in floats, moves the triangular structure around.
    """
    n = draw(st.integers(2, 4))
    sign = st.sampled_from([-1.0, 1.0])
    diag = [draw(sign) * draw(st.one_of(st.floats(0.1, 0.8), st.floats(1.25, 4.0)))
            for _ in range(n)]
    a = np.diag(diag)
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = draw(st.floats(-2.0, 2.0))
    perm = draw(st.permutations(range(n)))
    return a[np.ix_(perm, perm)]


@st.composite
def shifts(draw):
    """Weighted shifts with tails 0.2-0.6 and 1.7-5 and a random core near 0."""
    lo, size = draw(st.integers(-4, 4)), draw(st.integers(0, 5))
    core = {i: draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 3.0))
            for i in range(lo, lo + size)}
    return WeightSpec(draw(st.floats(0.2, 0.6)), draw(st.floats(1.7, 5.0)), core=core)


def cut_at_point(alpha, x, kind, r: float):
    """chi(|x|) * alpha(x) at one point, with the radial cutoff chi written out per point."""
    s = norm(x, kind)
    if s >= 2.0 * r:
        return zero_like(x)
    return alpha(x) if s <= r else ((2.0 * r - s) / r) * alpha(x)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)

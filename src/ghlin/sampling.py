"""Deterministic sample generation for verification runs.

Points are drawn from the unit ball of the ambient norm; sparse samples live
on a finite index window (a perturbation's declared support plus slack, by
default).  Everything is driven by an explicit numpy generator so identical
seeds reproduce identical samples.
"""

from __future__ import annotations

import numpy as np

from .operators import GHOperator, MatrixOperator
from .perturbations import Perturbation
from .vectors import Batch, DenseVector, NormKind, SparseVector, StateVector, norm, row_norms

__all__ = ["sample_window", "sample_points", "sample_pairs"]

#: index slack added around a perturbation's support window
WINDOW_SLACK = 10

#: smallest ambient distance between the two points of a sampled pair
PAIR_MIN_DISTANCE = 1e-3


def sample_window(beta: Perturbation | None) -> tuple[int, int]:
    """Index window for sparse samples: the perturbation support plus slack."""
    if beta is not None and beta.support_window is not None:
        lo, hi = beta.support_window
        return lo - WINDOW_SLACK, hi + WINDOW_SLACK
    return -WINDOW_SLACK, WINDOW_SLACK


def _ball_points(rng: np.random.Generator, n: int, count: int, kind: NormKind) -> np.ndarray:
    # n uniform draws from the unit cube, each row scaled into the unit ball
    coords = rng.uniform(-1.0, 1.0, size=(n, count))
    return coords / np.maximum(row_norms(Batch(coords), kind), 1.0)[:, None]


def sample_points(
    rng: np.random.Generator,
    op: GHOperator,
    n: int,
    beta: Perturbation | None = None,
    radius: float = 1.0,
) -> list[StateVector]:
    """n points in the ambient ball of the given radius, backend-matched to op."""
    if isinstance(op, MatrixOperator):
        return [DenseVector(radius * row) for row in _ball_points(rng, n, op.dim, op.norm_kind)]
    lo, hi = sample_window(beta)
    idx = range(lo, hi + 1)
    rows = _ball_points(rng, n, len(idx), op.norm_kind)
    return [SparseVector(zip(idx, radius * row)) for row in rows]


def sample_pairs(
    rng: np.random.Generator,
    op: GHOperator,
    n: int,
    max_distance: float,
    beta: Perturbation | None = None,
) -> list[tuple[StateVector, StateVector]]:
    """Point pairs with ambient distance in [PAIR_MIN_DISTANCE, max_distance]."""
    if not PAIR_MIN_DISTANCE < max_distance:
        raise ValueError(f"need max_distance > {PAIR_MIN_DISTANCE}, got {max_distance}")
    kind = op.norm_kind
    base = sample_points(rng, op, n, beta)
    pairs = []
    for x in base:
        for _ in range(64):
            (step,) = sample_points(rng, op, 1, beta, radius=max_distance / 2.0)
            y = x + step
            dist = norm(x - y, kind)
            if PAIR_MIN_DISTANCE <= dist <= max_distance:
                pairs.append((x, y))
                break
        else:
            raise RuntimeError("could not draw a pair within the distance band")
    return pairs

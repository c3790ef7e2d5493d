"""Deterministic sample generation for verification runs.

Points are drawn from the unit ball of the ambient norm, as the rows of one
``Batch``; sparse samples live on a finite index window (a perturbation's
declared ``window`` plus slack, by default).  Everything is driven by an
explicit numpy generator so identical seeds reproduce identical samples.
"""

from __future__ import annotations

import numpy as np

from .operators import GHOperator, MatrixOperator
from .perturbations import Perturbation
from .vectors import Batch, row_norms

__all__ = ["sample_window", "sample_points", "sample_pairs"]

#: index slack added around a perturbation's window
WINDOW_SLACK = 10

#: smallest ambient distance between the two points of a sampled pair
PAIR_MIN_DISTANCE = 1e-3


def sample_window(beta: Perturbation | None) -> tuple[int, int]:
    """Index window for sparse samples: the perturbation's window (or index 0) plus slack."""
    lo, hi = (0, 0) if beta is None or beta.window is None else beta.window
    return lo - WINDOW_SLACK, hi + WINDOW_SLACK


def sample_points(
    rng: np.random.Generator,
    op: GHOperator,
    n: int,
    beta: Perturbation | None = None,
    radius: float = 1.0,
) -> Batch:
    """n points in the ambient ball of the given radius, the rows of one batch on op's backend."""
    # n uniform draws from the unit cube, each row scaled into the ball of the given radius
    lo, hi = sample_window(beta)
    cols = None if isinstance(op, MatrixOperator) else np.arange(lo, hi + 1)
    coords = rng.uniform(-1.0, 1.0, size=(n, op.dim if cols is None else len(cols)))
    scale = np.maximum(row_norms(Batch(coords), op.norm_kind), 1.0)[:, None]
    return Batch(radius * (coords / scale), cols)


def sample_pairs(
    rng: np.random.Generator,
    op: GHOperator,
    n: int,
    max_distance: float,
    beta: Perturbation | None = None,
) -> tuple[Batch, Batch]:
    """Point pairs with ambient distance in [PAIR_MIN_DISTANCE, max_distance].

    The pairs are the rows of two batches ``(xs, ys)``: row i of xs pairs with row i of ys.
    """
    if not PAIR_MIN_DISTANCE < max_distance:
        raise ValueError(f"need max_distance > {PAIR_MIN_DISTANCE}, got {max_distance}")
    kind, radius = op.norm_kind, max_distance / 2.0
    xs = sample_points(rng, op, n, beta)
    ys = Batch(np.empty_like(xs.rows), xs.cols)
    done, tries = 0, 0  # tries: rejected draws in a row of the first pair left
    while done < n:
        # one step for every pair left, as if none were rejected
        state = rng.bit_generator.state
        ys.rows[done:] = (xs[done:] + sample_points(rng, op, n - done, beta, radius)).rows
        dist = row_norms(xs[done:] - ys[done:], kind)
        bad = np.flatnonzero(~((PAIR_MIN_DISTANCE <= dist) & (dist <= max_distance)))
        kept = int(bad[0]) if len(bad) else len(dist)
        done += kept
        if done < n:
            # a rejected pair is redrawn next: rewind to just after its draw
            rng.bit_generator.state = state
            sample_points(rng, op, kept + 1, beta, radius)
            tries = tries + 1 if kept == 0 else 1
            if tries == 64:
                raise RuntimeError("could not draw a pair within the distance band")
    return xs, ys

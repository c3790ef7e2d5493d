"""Bounded Lipschitz perturbations with certified bounds.

A perturbation carries its evaluator together with certified bounds on the
sup norm and the Lipschitz constant, derived in closed form.  The sine and
saturating perturbations share one coordinatewise builder, x -> a*f(r*x_n)
on an index window or on every coordinate.

A perturbation is given in one form, as its map on a ``Batch`` of points
(``batch``); a single point is a batch of one.  It records the ambient norm
its bounds hold in, and the solvers reject it with an operator in another
norm.  On the sparse backend it may declare an index ``window``, which
holds both the coordinates it reads and the support of its values.  The
coordinatewise builder calls its scalar f on the nonzero window entries,
the constant and zero maps broadcast, and the cutoff takes the row norms, makes
one call of alpha (a row form too) on the rows inside its outer ball and
scales them by chi in one product.  A point map lifts to a row form with
``pack`` and ``unpack``.

The cutoff construction turns a locally Lipschitz nonlinearity vanishing at
the origin into a globally small bounded Lipschitz map that agrees with it
on an inner ball, and the perturbed-inverse solver inverts T + beta by
contraction iteration with an exact a-posteriori residual certificate, on
all rows of a batch at once and over one sparse column layout per solve.
On dense rows every second iterate from the third on is Aitken's
extrapolation of the two plain steps before it; sparse rows keep the plain
iteration, which on a windowed shift reaches its float fixed point within
the window's width, where an extrapolated iterate would only delay that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .operators import GHOperator
from .vectors import (
    SUP_NORM,
    Batch,
    NormKind,
    StateVector,
    merge_rows,
    norm,
    pack,
    row_norms,
    zero_rows,
)
from .vectors import _at_point, _number, _required, _same, _window, vector_from_json

__all__ = [
    "Perturbation",
    "CutoffProfile",
    "ContractionError",
    "IterationLimitError",
    "zero_perturbation",
    "constant_perturbation",
    "sine_perturbation",
    "saturating_perturbation",
    "cutoff",
    "perturbed_apply",
    "solve_perturbed_inverse",
    "perturbation_from_descriptor",
]


class ContractionError(ValueError):
    """The contraction condition for an iterative solve is violated."""


class IterationLimitError(RuntimeError):
    """An iterative solve stopped before it met its tolerance.

    It ran out of iterations, or met a residual that is not finite.
    """


#: iteration cap of ``solve_perturbed_inverse``
INVERSE_MAX_ITER = 10_000


@dataclass
class Perturbation:
    """Map from the space to itself with certified sup / Lipschitz bounds.

    ``batch`` is the map on a 2-d ``Batch``, row by row; a single point is a
    batch of one.  ``sup_bound`` and ``lip_bound`` hold in the ambient norm
    ``norm_kind``.  ``window`` = (lo, hi) declares, for sparse backends,
    that the map reads only the coordinates with index in [lo, hi] and that
    its values are supported there (None: it may read and write any index).
    The lattice then keeps its lower levels on that span, and the sampler
    places its points around it.
    """

    batch: Callable[[Batch], Batch]
    sup_bound: float
    lip_bound: float
    window: tuple[int, int] | None = None
    norm_kind: NormKind = SUP_NORM

    def __post_init__(self) -> None:
        for name, val in (("sup_bound", self.sup_bound), ("lip_bound", self.lip_bound)):
            if not math.isfinite(val) or val < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {val}")

    def __call__(self, x: StateVector) -> StateVector:
        return _at_point(self.batch, x)

    @property
    def is_zero(self) -> bool:
        return self.sup_bound == 0.0


def zero_perturbation() -> Perturbation:
    return Perturbation(zero_rows, sup_bound=0.0, lip_bound=0.0)


def constant_perturbation(b: StateVector, norm_kind: NormKind = SUP_NORM) -> Perturbation:
    """The constant map x -> b: sup bound |b|, Lipschitz bound 0, a sparse b's span as window."""
    value = pack([b])
    cols = value.cols  # None on the dense backend
    window = None if cols is None or not len(cols) else (int(cols[0]), int(cols[-1]))

    def batch(x: Batch) -> Batch:
        if (x.cols is None) != (value.cols is None):
            raise ValueError("constant perturbation backend does not match the input")
        shape = x.rows.shape[:-1] + value.rows.shape[-1:]
        return Batch(np.broadcast_to(value.rows[0], shape), value.cols)

    return Perturbation(batch, norm(b, norm_kind), 0.0, window, norm_kind)


def _coordinatewise(kind: str, f, a: float, r: float, window, norm_kind: NormKind) -> Perturbation:
    """x -> a*f(r*x_n) on the index window, or on every coordinate without one.

    For |f| <= 1 with Lip(f) <= 1 the certified bounds are sup a (times
    |W|^(1/p) for an l^p ambient norm, which needs a window) and Lipschitz
    constant a*r.  A window with no index is rejected for every kind.
    Without a window the row-batch form maps every column of either backend
    in place; since f(0) = 0, a sparse coordinate off its columns stays zero.
    """
    if a < 0 or r < 0:
        raise ValueError(f"{kind} perturbation needs amplitude and rate >= 0, got {a} and {r}")
    idx = None if window is None else tuple(sorted(set(int(i) for i in window)))
    if idx == ():
        raise ValueError(f"{kind} perturbation needs a nonempty window")
    cols = None if idx is None else np.array(idx, dtype=np.int64)

    def entrywise(v: np.ndarray) -> np.ndarray:
        """a * f(r * v) entry by entry, with the scalar f: numpy's sin and tanh round differently.

        f runs on the nonzero entries of r * v only (a NaN is nonzero): since
        f(+-0) = +-0, a zero entry already holds f's value, sign included.
        """
        u = r * v
        live = u != 0.0
        u[live] = np.fromiter(map(f, u[live].tolist()), float, np.count_nonzero(live))
        return a * u

    def batch(b: Batch) -> Batch:
        if idx is None:
            return Batch(entrywise(b.rows), b.cols)
        if b.cols is not None:
            return Batch(entrywise(b.on(cols).rows), cols)
        dim = b.rows.shape[-1]
        inside = cols[(cols >= 0) & (cols < dim)]
        out = np.zeros(b.rows.shape)
        out[..., inside] = entrywise(b.rows[..., inside])
        return Batch(out)

    sup = a if norm_kind.is_sup else a * float(len(idx)) ** (1.0 / norm_kind.p)
    window = None if idx is None else (idx[0], idx[-1])
    return Perturbation(batch, sup, a * r, window, norm_kind)


def sine_perturbation(
    amplitude: float,
    frequency: float,
    window: Iterable[int],
    norm_kind: NormKind = SUP_NORM,
) -> Perturbation:
    """Coordinatewise x -> a*sin(omega*x_n) on the given index window.

    ``window`` lists the indices: [-1, 1] is the two indices -1 and 1, while
    a config's "window": [lo, hi] is the range lo..hi (``range(lo, hi + 1)``
    here).  Certified bounds: sup a (times |W|^(1/p) for an l^p ambient
    norm) and Lipschitz constant a*omega.
    """
    return _coordinatewise("sine", math.sin, float(amplitude), float(frequency), window, norm_kind)


def saturating_perturbation(
    amplitude: float,
    scale: float,
    window: Iterable[int] | None = None,
    norm_kind: NormKind = SUP_NORM,
) -> Perturbation:
    """Coordinatewise saturating map x -> a*tanh(s*x_n), slope a*s at the origin.

    ``window`` lists the indices, as for ``sine_perturbation``, while a
    config's "window": [lo, hi] is a range.  Without a window the map acts
    on every coordinate, which is fine for the sup norm; an l^p ambient norm
    on the sparse backend needs a window for the sup bound to exist.
    """
    if window is None and not norm_kind.is_sup:
        raise ValueError(
            "saturating perturbation needs a finite window under an l^p ambient norm"
        )
    return _coordinatewise("saturating", math.tanh, float(amplitude), float(scale), window,
                           norm_kind)


@dataclass(frozen=True)
class CutoffProfile:
    """Radial cutoff: identically 1 inside radius r, 0 outside 2r, affine between."""

    r: float

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError(f"cutoff radius must be positive and finite, got {self.r}")

    @property
    def outer(self) -> float:
        return 2.0 * self.r

    def chi(self, s: np.ndarray) -> np.ndarray:
        """The profile at each radius in s: (2r - s) / r clipped to [0, 1], NaN at NaN."""
        return np.minimum((self.outer - np.minimum(s, self.outer)) / self.r, 1.0)


def cutoff(
    alpha: Callable[[Batch], Batch],
    alpha_lip_on_ball: float,
    profile: CutoffProfile,
    norm_kind: NormKind = SUP_NORM,
    *,
    zero: StateVector,
) -> Perturbation:
    """Globalize a local nonlinearity with alpha(0) = 0 by a radial cutoff.

    Returns beta(x) = chi(|x|) * alpha(x) where chi is the profile.  With L
    the certified Lipschitz constant of alpha on the ball of radius 2r,
    |alpha(x)| <= L |x| there, so the certified bounds are

        sup bound  = 2r * L      (plus any measured residue of alpha at 0),
        Lip bound  = 3 * L       (L from alpha, 2r*L*(1/r) from the profile).

    beta agrees with alpha exactly on the ball of radius r and vanishes
    outside radius 2r.  ``alpha`` is the nonlinearity on the rows of a 2-d
    ``Batch``; beta makes one ``alpha`` call per batch, on the rows inside
    radius 2r.  ``zero`` is the origin of alpha's backend, where
    alpha(0) = 0 is checked.
    """
    if alpha_lip_on_ball <= 0.0:
        raise ValueError(f"alpha_lip_on_ball must be > 0, got {alpha_lip_on_ball}")
    a0 = float(row_norms(alpha(pack([zero])), norm_kind)[0])
    if a0 > 1e-9:
        raise ValueError(f"alpha(0) must vanish; measured norm {a0}")
    r = profile.r
    lip = alpha_lip_on_ball

    def batch(b: Batch) -> Batch:
        chi = profile.chi(row_norms(b, norm_kind))
        live = np.flatnonzero(chi)  # rows inside the outer ball
        if not len(live):
            return zero_rows(b)
        if len(live) == len(b):
            values = alpha(b)
            return Batch(chi[:, None] * values.rows, values.cols)
        values = alpha(b[live])
        return merge_rows([(live, Batch(chi[live, None] * values.rows, values.cols))], len(b))

    return Perturbation(batch, 2.0 * r * lip + a0, 3.0 * lip + a0 / r, norm_kind=norm_kind)


def perturbed_apply(op: GHOperator, beta: Perturbation, x: StateVector | Batch):
    """Evaluate (T + beta)(x) at a point, or at every row of a batch."""
    if isinstance(x, Batch):
        return op.step(x) + beta.batch(x)
    return op.apply(x) + beta(x)


def _require_norm(op: GHOperator, beta: Perturbation) -> None:
    """Raise ``ValueError`` unless beta's bounds hold in op's norm (a zero beta's hold in all)."""
    if beta.norm_kind != op.norm_kind and not beta.is_zero:
        ours, theirs = ("sup" if k.is_sup else f"l^{k.p:g}" for k in (beta.norm_kind, op.norm_kind))
        raise ValueError(
            f"the perturbation's bounds hold in the {ours} norm, not in the operator's "
            f"ambient {theirs} norm"
        )


def _require_contraction(op: GHOperator, beta: Perturbation) -> None:
    """Raise ``ValueError`` unless beta's bounds hold in op's norm (``_require_norm``), and
    ``ContractionError`` unless q = Lip(beta) * |T^{-1}| < 1."""
    _require_norm(op, beta)
    q = beta.lip_bound * op.norm_Tinv
    if q >= 1.0:
        raise ContractionError(
            f"Lip(beta) * |T^{{-1}}| = {q} >= 1; the perturbed inverse is not "
            "a certified contraction"
        )


def solve_perturbed_inverse(
    op: GHOperator,
    beta: Perturbation,
    y: StateVector | Batch,
    tol: float,
) -> StateVector | Batch:
    """Solve (T + beta)(x) = y to residual |T x + beta(x) - y| <= tol.

    Runs the contraction iteration x <- g(x) = T^{-1}(y - beta(x)) from
    T^{-1} y.  Since T x + beta(x) - y = T(x - g(x)), the residual of the
    current point is exact and checked directly; the contraction factor is
    q = Lip(beta) * |T^{-1}|, required < 1.  When beta(T^{-1} y) is exactly
    +-0 on every row and T^{-1} y is finite, that residual is 0, and
    T^{-1} y is returned as ``step_inverse`` makes it, after one beta call.
    Otherwise a batch of points is solved as a masked batch: each row stops
    at its own residual test, so it takes the iterations it would take
    alone.  Sparse rows keep one column layout, y's columns and those of
    beta's first value, widened on an iteration whose beta value has a
    column off it; the steps' weights are read once per layout.  A sparse
    iterate passes beta only its entries in beta's window, at positions
    fixed once per layout.  When those entries equal the previous iterate's
    byte for byte on every row still iterating, beta at it is beta's
    previous value, so the next iterate is the same and the residual 0: the
    solve returns it with no further beta call.  (Every iterate that reaches
    this test is finite: a residual that is not finite stops the solve
    first.)  A batch of no rows is returned at once.

    The plain iteration needs about log(tol) / log(q) steps.  On dense rows
    each iterate that follows two plain steps (the third, fifth, seventh,
    ...) is Aitken's delta-squared extrapolation, entry by entry:
    g(x) - d2^2 / (d2 - d1) with d1 = x - x_prev and d2 = g(x) - x, where
    |d2| < |d1| and that value is finite, and g(x) elsewhere.  The residual
    test is unchanged, so every row still returns a point whose own residual
    meets ``tol``, and a solve that meets it within three beta calls is the
    plain one bit for bit.  Sparse rows keep the plain iteration: a shift's
    T^{-1} moves every coordinate one index, so on a windowed beta it
    reaches its float fixed point, and the exit above, within the window's
    width, which an extrapolated iterate would only delay.

    Raises ``IterationLimitError`` after ``INVERSE_MAX_ITER`` iterations, or
    at the first iteration where a row still iterating has a residual that
    is not finite (a NaN value of beta), which never meets ``tol``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    _require_contraction(op, beta)
    if not isinstance(y, Batch):
        return _at_point(lambda b: _solve_rows(op, beta, b, tol)[0], y)
    return _solve_rows(op, beta, y, tol)[0]


def _solve_rows(op: GHOperator, beta: Perturbation, y: Batch, tol: float) -> tuple[Batch, Batch]:
    # ``solve_perturbed_inverse`` at the rows of y, and beta at the point returned for each row
    x = op.step_inverse(y)
    if beta.is_zero or not len(y):
        return x, zero_rows(x)
    window = beta.window if y.cols is not None else None  # what beta reads of a sparse row
    span = _span(window, x.cols)
    b = beta.batch(_read(x, span))
    if not b.rows.any() and np.isfinite(x.rows).all():  # T^{-1} y has a zero residual
        return x, b
    pending, out = np.arange(len(y)), None  # original row of each row still iterating
    # y's rows lie over the layout cols, x's over cols + 1, beta's columns at ``at`` in cols;
    # ``last`` holds the previous iterate's window entries on the pending rows
    cols, rows, seen, at, last = y.cols, y.rows, None, None, None
    # dense rows: ``prev`` holds the previous iterate, for the Aitken step on odd iterations
    prev = x.rows if y.cols is None else None
    inverse, forward = op._steps_over(cols)
    for iteration in range(1, INVERSE_MAX_ITER + 1):
        if iteration > 1:  # beta at the new iterate; the first value is taken above
            if last is not None and x.rows[..., span].tobytes() == last.tobytes():
                break  # beta(x) is b, as beta reads only its window: x_next = x, residual 0
            b = beta.batch(_read(x, span))
        if b.cols is not seen:
            seen, wide = b.cols, np.union1d(cols, b.cols)
            if len(wide) > len(cols):
                cols, rows, x = wide, Batch(rows, cols).on(wide).rows, x.on(wide + 1)
                inverse, forward = op._steps_over(cols)
                span = _span(window, x.cols)
            at = np.searchsorted(cols, b.cols)
        if at is None:  # y - beta(x) entry by entry, as Batch.__sub__ computes it
            r = rows - b.rows
        else:
            r = rows.copy()
            r[..., at] -= b.rows
        x_next = inverse(r)
        residuals = row_norms(Batch(forward(x.rows - x_next)), op.norm_kind)
        peak = residuals.max()  # NaN if any residual is NaN
        if peak <= tol:  # every row: these, and the rows written to out before
            break
        if not peak < math.inf:  # it never meets tol: say so now, not after the cap
            raise IterationLimitError(f"perturbed inverse stopped at iteration {iteration}: a "
                                      f"residual is not finite ({peak})")
        (done,) = (residuals <= tol).nonzero()
        if len(done):  # write them into the result, every row while none was written
            out = out or (x, Batch(b.rows.copy(), b.cols))
            out = _put(out[0], pending[done], x[done]), _put(out[1], pending[done], b[done])
            (left,) = (residuals > tol).nonzero()
            pending, rows, x_next = pending[left], rows[left], x_next[left]
            if span is not None:  # the exit compares these rows of x and returns their beta
                x, b = x[left], b[left]
            elif prev is not None:  # the Aitken step reads these rows of x and prev
                x, prev = x[left], prev[left]
        if span is not None:
            last = x.rows[..., span]
        if prev is not None:
            if iteration % 2 and iteration > 1:  # two plain steps since the last Aitken step
                x_next = _aitken(prev, x.rows, x_next)
            prev = x.rows
        x = Batch(x_next, x.cols)
    else:
        raise IterationLimitError(
            f"perturbed inverse did not reach residual {tol} within {INVERSE_MAX_ITER} iterations"
        )
    return (x, b) if out is None else (_put(out[0], pending, x), _put(out[1], pending, b))


def _aitken(before: np.ndarray, x: np.ndarray, after: np.ndarray) -> np.ndarray:
    # Aitken's delta-squared step on the plain steps before -> x -> after, entry by entry:
    # after - d2^2 / (d2 - d1) with d1 = x - before and d2 = after - x where |d2| < |d1| (so
    # d2 != d1) and that value is finite, after everywhere else
    d1, d2 = x - before, after - x
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # entries not taken
        hat = after - d2 * d2 / (d2 - d1)
    return np.where((np.abs(d2) < np.abs(d1)) & np.isfinite(hat), hat, after)


def _span(window, cols) -> slice | None:
    # the positions of beta's window in the sorted sparse layout ``cols``; None without a window
    if window is None:
        return None
    return slice(*np.searchsorted(cols, [window[0], window[1] + 1]))


def _read(x: Batch, span: slice | None) -> Batch:
    # the entries of x that beta reads
    return x if span is None else Batch(x.rows[..., span], x.cols[span])


def _put(out: Batch, index: np.ndarray, part: Batch) -> Batch:
    # out with the rows of part written to its rows ``index``, in place unless part has a
    # column off out's layout; then both are laid out over the union of their columns
    if part.cols is not None and not _same(out.cols, part.cols):
        cols = np.union1d(out.cols, part.cols)
        out, part = out.on(cols), part.on(cols)
    out.rows[index] = part.rows
    return out


def perturbation_from_descriptor(obj: dict, norm_kind: NormKind = SUP_NORM) -> Perturbation:
    """Build a perturbation from its JSON descriptor.

    Supported kinds: ``zero``; ``constant`` with a ``vector`` entry;
    ``sine`` with amplitude / frequency / window [lo, hi]; ``saturating``
    with amplitude / scale and an optional window.
    """
    kind = obj.get("kind")
    if kind == "zero":
        return zero_perturbation()
    if kind == "constant":
        return constant_perturbation(vector_from_json(_required(obj, "vector")), norm_kind)
    if kind == "sine":
        amp, freq = _number(obj, "amplitude"), _number(obj, "frequency")
        return sine_perturbation(amp, freq, _window(obj), norm_kind)
    if kind == "saturating":
        amp, scale = _number(obj, "amplitude"), _number(obj, "scale")
        window = None if obj.get("window") is None else _window(obj)
        return saturating_perturbation(amp, scale, window, norm_kind)
    raise ValueError(f"unknown perturbation kind {kind!r}")

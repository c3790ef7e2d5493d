"""Invertible linear operators with a generalized hyperbolic splitting.

Two backends:

* ``MatrixOperator`` -- an invertible n x n real matrix whose spectrum avoids
  the unit circle.  The splitting projections are the spectral projections
  onto the eigenvalue groups inside / outside the unit disc.
* ``ShiftOperator`` -- a bilateral weighted backward shift acting on sparse
  sequences, (T x)_n = w_{n+1} x_{n+1}, with eventually constant weights.
  Its splitting is the coordinate splitting M = {support <= 0},
  N = {support >= 1}; the splitting criterion is that the asymptotic
  geometric means of the weight products are < 1 on the left and > 1 on
  the right.

Both carry certified decay constants (c, t, d): ``|T^n y| <= c t^n |y|`` on
M and ``|T^{-n} z| <= c t^n |z|`` on N, with d the larger projection norm.
The constants are certified on a finite window and extended to all powers by
submultiplicativity of operator norms.  They gate the perturbation size
(``admissible_eps``) and cap every series bound.  The bounds themselves come
from a table of the power norms |A_M^n| and |A_N^n|, built with the
constants and extended past its end by submultiplicativity: the gain of the
bounded-solution operator, the series tails and the backward orbit weights
(``_Constants.gain``, ``tail`` and ``power``), each never above its
``c d t^n`` envelope.

Both act on batches (``vectors.Batch``): ``step``, ``step_inverse``,
``project_M_rows`` and ``project_N_rows`` map every row, ``orbit`` builds
the orbit T^-a x, ..., T^b x of every row as one array, and
``orbit_sweep`` is the only orbit-series primitive.  Given sources
s_a, ..., s_b, one row block per orbit index (an array of shape (orbit
index, N, columns)), and a source count per side, k_M and k_N (K + 1 for a
nontrivial side, 0 for a trivial one), it sums the two-sided series at
every index m in [a + k_M, b - k_N + 1] from the partial sums of each
nontrivial side, S_j = P_M s_j + A_M S_{j-1} over indices left to right
and R_j = A_N (P_N s_j + R_{j+1}) right to left, then S_M - S_N.  A
trivial side's projection is zero, so it is not swept and contributes an
exact zero.  Stepping only with the restricted maps A_M = T P_M and
A_N = T^{-1} P_N keeps partial sums on their side of the splitting.  Each
value holds at least the K + 1 nearest terms of every nontrivial series, so
its omitted tail lies inside the (K + 1)-term tail.

The dense backend sums each side as a prefix scan, in ceil(log2 n) rounds
over its n sources instead of n steps, with one stacked product of both
sides per round, and builds an orbit with one stacked product of T^-1 and T
per index while both sides run, each slice rounding as a step.  On the
shift, T moves a row one column to the left, so ``step`` only relabels the
columns and multiplies by one weight array, and ``orbit`` is one
multiplying and one dividing accumulate along the orbit axis, rounding as
the steps do.  The sweep lays its rows over the
columns the sources can reach: a union of runs [i - steps, i] for each
source column i <= 0 and [i, i + steps] for each i >= 1.  Neighbouring runs
are joined by a seam, a zero weight, and no partial sum ever reaches one,
so a point with coordinates at -10^5 and 10^5 is swept over two short runs
and never over the span between them.  An entry of a partial sum depends
on one entry of the previous one, its diagonal neighbour in the (orbit
index, column) plane, so each side steps along the shorter axis of its
plane, a column or an index at a time, with the same floating-point
operations either way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .vectors import (
    SUP_NORM,
    Batch,
    DenseVector,
    NormKind,
    SparseVector,
    StateVector,
    stack,
)
from .vectors import _at_point, _dense_raw, _indexed, _number, _numbers, _object, _required
from .vectors import _sparse_raw

__all__ = [
    "CertificationError",
    "WeightSpec",
    "CriterionReport",
    "ShiftOperator",
    "MatrixOperator",
    "GHOperator",
    "check_shift_criterion",
    "make_shift",
    "make_matrix_operator",
    "admissible_eps",
    "operator_from_descriptor",
]

#: rejection tolerance for eigenvalues near the unit circle (and near 0)
UNIT_CIRCLE_TOL = 1e-8

#: projections and invariant-splitting residuals must validate below this
SPLITTING_TOL = 1e-10

#: most powers ``_certify`` tries before giving up on a window; the power table ends there too
DECAY_WINDOW_CAP = 10_000

#: the power table runs to the first W >= n_max with both |A_M^W| and |A_N^W| at most this
POWER_TABLE_FLOOR = 1e-6

#: byte budget of one block of the power table's products
POWER_BLOCK_BYTES = 1 << 20


class CertificationError(ValueError):
    """A certified bound or constant could not be established."""


@dataclass(frozen=True)
class WeightSpec:
    """Weight sequence with eventually constant tails.

    ``core`` gives the weights on a finite contiguous index window; outside
    it the weight is ``left_tail`` (below the window) or ``right_tail``
    (above it).  An empty core means the left tail covers n <= 0 and the
    right tail covers n >= 1.  All weights must be nonzero, which makes
    inf |w_n| > 0 automatic.
    """

    left_tail: float
    right_tail: float
    core: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, val in (("left_tail", self.left_tail), ("right_tail", self.right_tail)):
            if not math.isfinite(val) or val == 0.0:
                raise ValueError(f"{name} must be finite and nonzero, got {val}")
        if self.core:
            lo, hi = min(self.core), max(self.core)
            if len(self.core) != hi - lo + 1:
                raise ValueError("core window must be contiguous")
            for i, val in self.core.items():
                if not math.isfinite(val) or val == 0.0:
                    raise ValueError(f"core weight w_{i}={val} must be finite and nonzero")
        else:
            lo, hi = 1, 0
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    @property
    def window(self) -> tuple[int, int]:
        """Core window [lo, hi]; the canonical empty window is (1, 0)."""
        return (self._lo, self._hi)

    def weight(self, n: int) -> float:
        got = self.core.get(n)
        if got is not None:
            return got
        return self.left_tail if n < self._lo else self.right_tail

    @staticmethod
    def from_descriptor(obj: dict) -> "WeightSpec":
        core = _object(obj, "core", {})
        return WeightSpec(
            left_tail=_number(obj, "left_tail"),
            right_tail=_number(obj, "right_tail"),
            core=_indexed(core, "core", "core weight"),
        )


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the weighted-shift splitting criterion.

    ``left_margin`` is the limiting geometric mean of the left weight
    products, ``right_margin`` the limiting geometric mean of the right
    ones.  For eventually constant weights the finitely many core factors
    wash out in the n-th root, so the limits equal the tail magnitudes
    exactly.
    """

    holds: bool
    left_margin: float
    right_margin: float


def check_shift_criterion(weights: WeightSpec) -> CriterionReport:
    """Decide whether the shift has the required splitting decay on both sides."""
    left = abs(weights.left_tail)
    right = abs(weights.right_tail)
    return CriterionReport(holds=(left < 1.0 and right > 1.0), left_margin=left, right_margin=right)


@dataclass(frozen=True)
class _Constants:
    """Decay constants (c, t, d), the window n_max, and the power table.

    ``powers`` has rows (|P_M|, |A_M^1|, ..., |A_M^W|) and (|P_N|, |A_N^1|,
    ..., |A_N^W|), with |A^W| < 1.  Past W, |A^(mW + r)| <= |A^W|^m |A^r|
    for 1 <= r <= W.  Each bound read from the table is the smaller of the
    table's and its envelope's: c d t^k for one power, c d t^k / (1 - t)
    for a tail from k.
    """

    c: float
    t: float
    d: float
    n_max: int
    powers: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        # sums[s, r - 1] bounds sum_{k >= r} |A^k| for 1 <= r <= W: the table from r
        # on, then every block of W powers past W, |A^W|^m (|A^1| + ... + |A^W|)
        sums = np.cumsum(self.powers[:, :0:-1], axis=1)[:, ::-1]
        a_w = self.powers[:, -1:]
        object.__setattr__(self, "_sums", sums + a_w * sums[:, :1] / (1.0 - a_w))

    def power(self, side: int, k: int) -> float:
        """Bound on |A^k| on a side (0: A_M, 1: A_N), the projection norm at k = 0."""
        w = self.powers.shape[1] - 1
        if k <= w:
            table = self.powers[side, k]
        else:
            m, r = divmod(k - 1, w)
            table = self.powers[side, w] ** m * self.powers[side, r + 1]
        return min(float(table), self.c * self.d * self.t**k)

    def tail(self, side: int, first: int) -> float:
        """Bound on sum_{k >= first} |A^k| on a side (0: A_M, 1: A_N), first >= 1."""
        m, r = divmod(first - 1, self.powers.shape[1] - 1)
        table = self.powers[side, -1] ** m * self._sums[side, r]
        return min(float(table), self.c * self.d * self.t**first / (1.0 - self.t))

    @property
    def gain(self) -> float:
        """Bound on the bounded-solution operator, |P_M| + sum_{k >= 1} (|A_M^k| + |A_N^k|).

        A trivial side contributes 0; never above c d (1 + t) / (1 - t).
        """
        envelope = self.c * self.d * (1.0 + self.t) / (1.0 - self.t)
        return min(float(self.powers[0, 0]) + self.tail(0, 1) + self.tail(1, 1), envelope)


def _reach(cols: np.ndarray, left: int, right: int) -> np.ndarray:
    """Sorted indices lying in [i - left, i + right] for some i in sorted ``cols``."""
    if not len(cols):
        return cols
    starts, ends = cols - left, cols + right
    breaks = np.flatnonzero(starts[1:] > ends[:-1] + 1)  # a run ends at each entry named here
    lo = np.concatenate([starts[:1], starts[breaks + 1]])  # the merged runs
    hi = np.append(ends[breaks], ends[-1])
    sizes = hi - lo + 1
    # entry k of the result, in run r, is lo[r] plus k less the entries before run r
    return np.arange(sizes.sum()) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)


def _sparse_batch(b: Batch) -> Batch:
    if b.cols is None:
        raise ValueError("shift operators act on sparse vectors")
    return b


def _stepped_orbit(step, step_inverse, x: Batch, back: int, ahead: int, within=None) -> Batch:
    """R^-back x, ..., x, ..., R^ahead x as one (orbit index, N, columns) batch, a step at a time.

    ``step`` and ``step_inverse`` map batches to batches; the inverse steps
    run first, outward from x.  Sparse columns are kept only inside the
    index range ``within`` when one is given (``stack``).
    """
    points = [x]
    for _ in range(back):
        points.append(step_inverse(points[-1]))
    points.reverse()
    for _ in range(ahead):
        points.append(step(points[-1]))
    return stack(points, within)


def _sweep_diagonals(x: np.ndarray, first, second, f, g) -> None:
    """Fill x[a + 1, :, b + 1] = g(f(x[a, :, b], first[a, :, b]), second[a, :, b]) in place.

    x has shape (A + 1, N, B + 1), given on row 0 and column 0, and ``first``
    and ``second`` broadcast to (A, N, B).  A step fills a row of the (a, b)
    plane, or through transposed views a column, whichever axis is shorter.
    """
    shape = (x.shape[0] - 1, x.shape[1], x.shape[2] - 1)
    axes = (0, 2, 1) if shape[0] <= shape[2] else (2, 0, 1)
    x = x.transpose(axes)
    first, second = (np.broadcast_to(v, shape).transpose(axes) for v in (first, second))
    for k in range(len(first)):
        line = x[k + 1, 1:]
        f(x[k, :-1], first[k], out=line)
        g(line, second[k], out=line)


class ShiftOperator:
    """Bilateral weighted backward shift with the coordinate splitting.

    Acts on sparse vectors only: (T x)_n = w_{n+1} x_{n+1} and
    (T^{-1} y)_n = y_{n-1} / w_n, both exact on the stored support.
    Operator norms in the ambient norm are exact suprema / infima of weight
    products; they do not depend on p, so one formula serves every l^p and
    the sup norm.  The constructor certifies the decay constants at ``t``
    as its last step; ``make_shift`` checks the splitting criterion first.
    """

    def __init__(self, weights: WeightSpec, norm_kind: NormKind = SUP_NORM, t: float | None = None):
        self.weights = weights
        lo, hi = weights.window
        core = [weights.core[i] for i in range(lo, hi + 1)]
        # w_i is self._table[clip(i - lo + 1, 0, len(core) + 1)]
        self._table = np.array([weights.left_tail, *core, weights.right_tail])
        self.norm_kind = norm_kind
        magnitudes = [abs(weights.left_tail), abs(weights.right_tail)]
        magnitudes += [abs(v) for v in weights.core.values()]
        self.norm_T = max(magnitudes)
        self.norm_Tinv = 1.0 / min(magnitudes)
        self.norm_P_M = 1.0
        self.norm_P_N = 1.0
        self.m_is_trivial = False
        self.n_is_trivial = False
        self.constants = _certify(self, t)
        self.norm_T_on_M, self.norm_Tinv_on_N = map(float, self.constants.powers[:, 1])

    def _weight(self, idx: np.ndarray) -> np.ndarray:
        """The weights w_i at the indices ``idx``, read from one weight array."""
        return self._table.take(idx - (self.weights.window[0] - 1), mode="clip")

    # -- action ---------------------------------------------------------

    def apply(self, x: StateVector) -> SparseVector:
        return _at_point(self.step, x)

    def apply_inverse(self, y: StateVector) -> SparseVector:
        return _at_point(self.step_inverse, y)

    def step(self, b: Batch) -> Batch:
        """T on every row: (T x)_{i-1} = w_i x_i, a relabelling of the columns."""
        b = _sparse_batch(b)
        return Batch(b.rows * self._weight(b.cols), b.cols - 1)

    def step_inverse(self, b: Batch) -> Batch:
        """T^{-1} on every row: (T^{-1} y)_{i+1} = y_i / w_{i+1}."""
        b = _sparse_batch(b)
        return Batch(b.rows / self._weight(b.cols + 1), b.cols + 1)

    def _steps_over(self, cols: np.ndarray):
        """T^{-1} from rows over ``cols`` to rows over cols + 1 and T back, on bare arrays.

        Both round as ``step_inverse`` and ``step`` do; the weights are read once.
        """
        w = self._weight(cols + 1)
        return (lambda rows: rows / w), (lambda rows: rows * w)

    def orbit(self, x: Batch, back: int, ahead: int, within=None) -> Batch:
        """T^-back x, ..., x, ..., T^ahead x, bit for bit the ``_stepped_orbit`` of T.

        Column c of x lands on column c - i of T^i x as x_c w_c ... w_{c-i+1}
        for i > 0 and x_c / w_{c+1} / ... / w_{c-i} for i < 0.  Each side's
        chain is one accumulate along the orbit axis, multiplying or dividing
        in the order ``step`` and ``step_inverse`` do; the chains are then laid
        out over the columns they reach, those of ``within`` if it is given.
        Column c reaches (lo, hi) = ``within`` only if lo - back <= c <= hi +
        ahead, so the other columns get no chain, and no column is in it past
        hi - min c steps back or max c - lo ahead, so the chains stop there:
        a kept entry is the same prefix of its accumulate.
        """
        cols = _sparse_batch(x).cols
        reach_back, reach_ahead = back, ahead
        if within is not None:
            keep = (cols >= within[0] - back) & (cols <= within[1] + ahead)
            x, cols = Batch(x.rows[..., keep], cols[keep]), cols[keep]
            if len(cols):
                reach_back = min(back, max(within[1] - int(cols[0]), 0))
                reach_ahead = min(ahead, max(int(cols[-1]) - within[0], 0))
        chains = np.empty((reach_back + reach_ahead + 1,) + x.rows.shape)
        chains[reach_back] = x.rows
        chains[:reach_back] = self._weight(cols + np.arange(reach_back, 0, -1)[:, None])[:, None]
        chains[reach_back + 1 :] = self._weight(cols - np.arange(reach_ahead)[:, None])[:, None]
        np.divide.accumulate(chains[reach_back::-1], axis=0, out=chains[reach_back::-1])
        np.multiply.accumulate(chains[reach_back:], axis=0, out=chains[reach_back:])
        keys = cols - np.arange(-reach_back, reach_ahead + 1)[:, None]  # the columns of T^i x
        lo, hi = (-np.inf, np.inf) if within is None else within
        index, p = np.nonzero((keys >= lo) & (keys <= hi))
        out_cols = _reach(cols, ahead, back)
        out_cols = out_cols[(out_cols >= lo) & (out_cols <= hi)]
        out = np.zeros((back + ahead + 1, len(x)) + out_cols.shape)
        at = np.searchsorted(out_cols, keys[index, p])
        out[index + back - reach_back, :, at] = chains[index, :, p]
        return Batch(out, out_cols)

    def series_counts(self, terms: int, window: tuple[int, int] | None = None) -> tuple[int, int]:
        """The sources (k_M, k_N) of each series whose terms can land in ``window``, at most K + 1.

        For a source supported in [lo, hi], T^k P_M s lies in [lo - k, min(hi, 0) - k]
        and T^-(k+1) P_N s in [max(lo, 1) + k + 1, hi + k + 1], so only k <= min(hi, 0) - lo
        on M and k < hi - max(lo, 1) on N reach the window again.  Without a window every
        term may land.
        """
        if window is None:
            return terms + 1, terms + 1
        lo, hi = window
        return min(terms + 1, max(0, min(hi, 0) - lo + 1)), min(terms + 1, max(0, hi - max(lo, 1)))

    def project_M(self, x: SparseVector) -> SparseVector:
        return _sparse_raw({i: v for i, v in x.items() if i <= 0})

    def project_N(self, x: SparseVector) -> SparseVector:
        return _sparse_raw({i: v for i, v in x.items() if i >= 1})

    def project_M_rows(self, b: Batch) -> Batch:
        """P_M on every row: the columns with index <= 0."""
        return b.on(b.cols[_sparse_batch(b).cols <= 0])

    def project_N_rows(self, b: Batch) -> Batch:
        """P_N on every row: the columns with index >= 1."""
        return b.on(b.cols[_sparse_batch(b).cols >= 1])

    def orbit_sweep(
        self, sources: Batch, m_count: int, n_count: int, within: tuple[int, int] | None = None
    ) -> Batch:
        """Orbit series at each index with m_count sources left, n_count right.

        ``sources.rows`` has shape (orbit index, N, columns) and holds
        s_a, ..., s_b; row block m - a - m_count of the result is the value
        at index m, a + m_count <= m <= b - n_count + 1, which is
        sum_k T^k P_M s_{m-k-1} - sum_k T^{-(k+1)} P_N s_{m+k} over every
        source in range; a side with count 0 is not swept and adds nothing.
        T moves support {<= 0} into itself and T^{-1} moves {>= 1} into
        itself, so on these terms A_M and A_N are T and T^{-1} exactly.

        With ``within`` = (lo, hi) the sources lie in [lo, hi] and the
        values are those on its columns, the columns of the result: M-side
        sums only move left and N-side sums only right, so what leaves the
        window never comes back.

        Entry p of S_j is w_{c_p + 1} S_{j-1}[p + 1] + s_j[p] and entry
        p + 1 of R_j is (R_{j+1}[p] + s_j[p]) / w_{c_p + 1}: each side fills
        its (orbit index, column) plane along the diagonals, a row or a
        column per step, whichever axis is shorter.
        """
        s = _sparse_batch(sources).rows
        length, count = s.shape[0], s.shape[0] - m_count - n_count + 1
        m_steps, n_steps = length - n_count - 1, length - m_count
        if within is None:  # the runs the partial sums can reach from the live columns
            live = sources.cols[np.any(s != 0.0, axis=(0, 1))]
            cols = np.union1d(
                _reach(live[live <= 0], m_steps, 0) if m_count else live[:0],
                _reach(live[live >= 1], 0, n_steps) if n_count else live[:0],
            )
        else:
            cols = np.arange(within[0], within[1] + 1)
        s = sources.on(cols).rows
        z, width = int(np.searchsorted(cols, 1)), len(cols)  # columns [0, z) lie in M, [z, ..) in N
        # from column p to p + 1: weight w_{c_p + 1} on a run, a seam (0 on M, inf on N) off it
        weight = self._weight(cols + 1)
        joined = np.append(cols[1:] == cols[:-1] + 1, False)
        joined[z - 1 : z] = False  # M ends at column z - 1
        # buf[r] holds S_{r-1} on the M columns and R_r on the N columns; row 0, row
        # `length` and column z (N's first, R_j[0] = 0, or a spare) stay zero
        buf = np.zeros((length + 1, s.shape[1], width + 1))
        if z and m_count:  # S_j[p] = w S_{j-1}[p + 1] + s_j[p], columns counted from the right
            _sweep_diagonals(buf[: length - n_count + 1, :, z::-1],
                             np.where(joined, weight, 0.0)[z - 1 :: -1],
                             s[: length - n_count, :, z - 1 :: -1], np.multiply, np.add)
        if z < width and n_count:  # R_j[p + 1] = (R_{j+1}[p] + s_j[p]) / w, from the right
            _sweep_diagonals(buf[m_count:][::-1, :, z:width], s[m_count:][::-1, :, z : width - 1],
                             np.where(joined, weight, np.inf)[z : width - 1], np.add, np.divide)
        rows = buf[m_count : m_count + count]
        return Batch(np.concatenate([rows[..., :z], -rows[..., z:width]], axis=-1), cols)

    # -- exact norms ----------------------------------------------------

    def _power_norms(self, count: int):
        """Yield |A_M^n| and |A_N^n| (two rows) for n = 1, 2, ... in blocks, the first of count.

        T^n maps e_j to (w_j ... w_{j-n+1}) e_{j-n}, so |A_M^n| is the
        supremum of those products over j <= 0, and T^{-n} maps e_j to
        e_{j+n} / (w_{j+1} ... w_{j+n}), so |A_N^n| is the reciprocal of their
        infimum over j >= 1.  Windows that miss the core are pure tail
        powers, so each side scans one running product per j up to the core
        and multiplies in one weight column per power.  Before the first
        power whose |A_N^n| is not certifiable (a product that underflows
        leaves the reciprocal unreliable, and a tail power that overflows is
        not a float) it yields the powers that precede it, then raises
        ``CertificationError``.
        """
        lo, hi = self.weights.window
        j_m, j_n = np.arange(min(lo - 1, 0), 1), np.arange(1, max(hi + 1, 1) + 1)
        left, right = abs(self.weights.left_tail), abs(self.weights.right_tail)
        run_m, run_n = np.ones(len(j_m)), np.ones(len(j_n))
        limit = max(1, POWER_BLOCK_BYTES // (8 * max(len(j_m), len(j_n))))
        done = 0
        while True:
            n = np.arange(done + 1, done + min(count, limit) + 1)
            with np.errstate(over="ignore", under="ignore"):  # N's are checked below
                new_m = np.abs(self._weight(j_m - n[:, None] + 1))  # w_{j-n+1}: a row per power
                new_n = np.abs(self._weight(j_n + n[:, None]))  # w_{j+n}
                prod_m = np.cumprod(np.vstack([run_m, new_m]), axis=0)
                prod_n = np.cumprod(np.vstack([run_n, new_n]), axis=0)
                tail_n = np.power(right, n)
                norm_m = np.maximum(np.power(left, n), prod_m[1:].max(axis=1))
                best = np.minimum(tail_n, prod_n[1:].min(axis=1))
            overflow = np.isinf(tail_n)
            bad = overflow | (best < sys.float_info.min)  # subnormal or zero
            if bad.any():
                i = int(np.argmax(bad))
                what = (f"the tail power |w|^{n[i]} overflows" if overflow[i] else
                        f"a product of {n[i]} weights underflows (it must stay a normal float)")
                yield np.vstack([norm_m[:i], 1.0 / best[:i]])
                raise CertificationError(f"the norm of T^-{n[i]} on N is not certifiable: {what}")
            yield np.vstack([norm_m, 1.0 / best])
            run_m, run_n, done = prod_m[-1], prod_n[-1], n[-1]
            count = done

    def stable_spectral_radii(self) -> tuple[float, float]:
        """(spectral radius on M, spectral radius of the inverse on N)."""
        return abs(self.weights.left_tail), 1.0 / abs(self.weights.right_tail)


class MatrixOperator:
    """Invertible matrix with spectrum off the unit circle.

    M is the invariant subspace for eigenvalues inside the unit disc and N
    the one for eigenvalues outside; P_M, P_N are the spectral projections.
    Operator norms are induced matrix norms in the ambient norm (available
    for p in {1, 2} and sup).  The constructor certifies the decay constants
    at ``t`` as its last step; ``make_matrix_operator`` computes the splitting.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        matrix_inv: np.ndarray,
        proj_M: np.ndarray,
        eigenvalues: np.ndarray,
        norm_kind: NormKind = SUP_NORM,
        t: float | None = None,
    ):
        self.matrix = matrix
        self.matrix_inv = matrix_inv
        self.proj_M_matrix = proj_M
        self.proj_N_matrix = np.eye(matrix.shape[0]) - proj_M
        self.a_M = matrix @ proj_M
        self.a_N = matrix_inv @ self.proj_N_matrix
        self.eigenvalues = eigenvalues
        self.norm_kind = norm_kind
        self.m_dim = round(float(proj_M.trace()))
        self.n_dim = matrix.shape[0] - self.m_dim
        self.m_is_trivial = self.m_dim == 0
        self.n_is_trivial = self.n_dim == 0
        self._ord = _matrix_norm_order(norm_kind)
        self.norm_T, self.norm_Tinv, self.norm_P_M, self.norm_P_N = map(float, self._induced(
            np.array([matrix, matrix_inv, proj_M, self.proj_N_matrix])
        ))
        self.constants = _certify(self, t)
        self.norm_T_on_M, self.norm_Tinv_on_N = map(float, self.constants.powers[:, 1])

    def _induced(self, a: np.ndarray) -> np.ndarray:
        # the induced norm of each matrix in a stack
        return np.linalg.norm(a, ord=self._ord, axis=(-2, -1))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: StateVector) -> DenseVector:
        if not isinstance(x, DenseVector) or x.dim != self.dim:
            raise ValueError(f"matrix operator needs dense vectors of dimension {self.dim}")
        return _dense_raw(self.matrix @ x.array)

    def apply_inverse(self, y: StateVector) -> DenseVector:
        if not isinstance(y, DenseVector) or y.dim != self.dim:
            raise ValueError(f"matrix operator needs dense vectors of dimension {self.dim}")
        return _dense_raw(self.matrix_inv @ y.array)

    def step(self, b: Batch) -> Batch:
        """T on every row at once."""
        return Batch(self._dense_batch(b).rows @ self.matrix.T)

    def step_inverse(self, b: Batch) -> Batch:
        """T^{-1} on every row at once."""
        return Batch(self._dense_batch(b).rows @ self.matrix_inv.T)

    def _steps_over(self, cols=None):
        """T^{-1} and T on bare arrays of rows, rounding as ``step_inverse`` and ``step`` do.

        ``cols`` is a sparse layout and is ignored.
        """
        return (lambda rows: rows @ self.matrix_inv.T), (lambda rows: rows @ self.matrix.T)

    def orbit(self, x: Batch, back: int, ahead: int, within=None) -> Batch:
        """T^-back x, ..., x, ..., T^ahead x, bit for bit the ``_stepped_orbit`` of its steps.

        While both chains run, T^-j x and T^j x are one stacked product of
        T^-(j-1) x and T^(j-1) x with T^-1 and T, each slice the product
        ``step_inverse`` or ``step`` makes; the longer chain then goes on one
        product per index.  ``within`` is a sparse layout hint and is ignored.
        """
        rows = self._dense_batch(x).rows
        out = np.empty((back + ahead + 1,) + rows.shape)
        out[back] = rows
        both = min(back, ahead)
        maps = np.stack([self.matrix_inv.T, self.matrix.T])
        for j in range(1, both + 1):  # from back - j + 1 and back + j - 1 (both x at j = 1)
            np.matmul(out[back - j + 1 : back + j : max(2 * j - 2, 1)], maps,
                      out=out[back - j : back + j + 1 : 2 * j])
        for i in range(back - both - 1, -1, -1):
            np.matmul(out[i + 1], self.matrix_inv.T, out=out[i])
        for i in range(back + both + 1, back + ahead + 1):
            np.matmul(out[i - 1], self.matrix.T, out=out[i])
        return Batch(out)

    def _dense_batch(self, b: Batch) -> Batch:
        if b.cols is not None or b.rows.shape[-1] != self.dim:
            raise ValueError(f"matrix operator needs dense vectors of dimension {self.dim}")
        return b

    def series_counts(self, terms: int, window: tuple[int, int] | None = None) -> tuple[int, int]:
        """The sources (k_M, k_N) of each series: K + 1 on a nontrivial side, none on a trivial one.

        A trivial side's series is exactly zero.  T mixes coordinates, so no term misses a
        ``window`` and it is ignored.
        """
        return 0 if self.m_is_trivial else terms + 1, 0 if self.n_is_trivial else terms + 1

    def project_M(self, x: DenseVector) -> DenseVector:
        return _dense_raw(self.proj_M_matrix @ x.array)

    def project_N(self, x: DenseVector) -> DenseVector:
        return _dense_raw(self.proj_N_matrix @ x.array)

    def project_M_rows(self, b: Batch) -> Batch:
        """P_M on every row at once."""
        return Batch(self._dense_batch(b).rows @ self.proj_M_matrix.T)

    def project_N_rows(self, b: Batch) -> Batch:
        """P_N on every row at once."""
        return Batch(self._dense_batch(b).rows @ self.proj_N_matrix.T)

    def orbit_sweep(
        self, sources: Batch, m_count: int, n_count: int, within: tuple[int, int] | None = None
    ) -> Batch:
        """Orbit series at each index with m_count sources left, n_count right.

        Same contract as ``ShiftOperator.orbit_sweep`` (``within`` is a
        sparse layout hint and is ignored); an unswept side is an exact zero
        vector, so with M = {0} the value is 0 - S_N.

        Each side is a linear recurrence with one matrix, S_j = p_j + A S_{j-1}
        over its projected sources in sweep order (left to right on M with
        A = A_M, right to left on N with A = A_N), so its partial sums are a
        prefix scan: round r adds, at every position, the sum 2^r positions
        back times A^(2^r), and after ceil(log2 n) rounds on n positions
        position j holds sum_k A^k p_{j-k}, the finite series the step-by-step
        sweep sums.  Both sides run in one stacked product per round, each
        side's state a (coordinate, position * N) block, so a round is one
        BLAS product per side.  The N sums then take one trailing A_N.
        Stepping with A_M and A_N, never T and T^{-1}, keeps rounding in a
        partial sum from leaking into the other side, where the powers of T
        would amplify it.
        """
        s = self._dense_batch(sources).rows
        length, rows, dim = s.shape
        count = length - m_count - n_count + 1
        sides = [(s[: length - n_count], self.proj_M_matrix, self.a_M)] if m_count else []
        if n_count:
            sides.append((s[m_count:][::-1], self.proj_N_matrix, self.a_N))
        n = max((len(p) for p, _, _ in sides), default=0)
        sums = np.zeros((len(sides), dim, n * rows))  # (side, coordinate, position * N + row)
        for side, (p, proj, _) in zip(sums, sides):
            np.matmul(proj, p.reshape(-1, dim).T, out=side[:, : len(p) * rows])
        power, shift = np.array([a for _, _, a in sides]), 1
        while shift < n:
            sums[..., shift * rows :] += power @ sums[..., : (n - shift) * rows]
            power, shift = power @ power, 2 * shift
        out = np.empty((count, rows, dim))
        value = sums[0].reshape(dim, n, rows)[:, m_count - 1 : length - n_count] if m_count else 0.0
        if n_count:  # R_j = A_N S_{last-1-j}: N positions run from the right
            last = length - m_count
            tail = self.a_N @ sums[-1, :, (last - count) * rows : last * rows]
            value = value - tail.reshape(dim, count, rows)[:, ::-1]
        np.moveaxis(out, -1, 0)[...] = value
        return Batch(out)

    def _power_norms(self, count: int):
        """Yield |A_M^n| and |A_N^n| (two rows) for n = 1, 2, ... in blocks, the first of count.

        The first block doubles its run of powers, A^(k + j) = A^k A^j for
        k <= j.  After it, a block of powers A^(s+1), ..., A^(s+m) times A^m
        is the next block; the two are joined, and A^m squared, while the
        joined block fits ``POWER_BLOCK_BYTES``.  No power fails, and the
        blocks never end.
        """
        size = max(1, min(count, POWER_BLOCK_BYTES // (16 * self.matrix.size)))
        block = np.empty((2, size) + self.matrix.shape)  # (side, power, n, n)
        block[0, 0], block[1, 0] = self.a_M, self.a_N
        done = 1
        while done < size:
            more = min(done, size - done)
            block[:, done : done + more] = block[:, :more] @ block[:, done - 1 : done]
            done += more
        step = block[:, -1:]
        while True:
            yield self._induced(block)
            block = block @ step
            if 2 * block.nbytes <= POWER_BLOCK_BYTES:
                block, step = np.concatenate([block, block @ step], axis=1), step @ step

    def stable_spectral_radii(self) -> tuple[float, float]:
        mods = np.abs(self.eigenvalues)
        rho_n = 1.0 / mods.min(initial=np.inf, where=mods > 1.0)
        return float(mods[mods < 1.0].max(initial=0.0)), float(rho_n)


GHOperator = ShiftOperator | MatrixOperator


def _matrix_norm_order(kind: NormKind):
    if kind.is_sup:
        return np.inf
    if kind.p in (1.0, 2.0):
        return int(kind.p)
    raise ValueError(
        f"induced matrix norms are available for p in {{1, 2}} and sup, not p={kind.p}"
    )


def make_shift(
    weights: WeightSpec,
    norm_kind: NormKind = SUP_NORM,
    t: float | None = None,
) -> ShiftOperator:
    """Build a weighted backward shift, rejecting weights that fail the criterion."""
    report = check_shift_criterion(weights)
    if not report.holds:
        sides = []
        if report.left_margin >= 1.0:
            sides.append(f"left weight-product limit {report.left_margin} is not < 1")
        if report.right_margin <= 1.0:
            sides.append(f"right weight-product limit {report.right_margin} is not > 1")
        raise CertificationError("splitting criterion fails: " + "; ".join(sides))
    return ShiftOperator(weights, norm_kind, t)


def make_matrix_operator(
    matrix,
    norm_kind: NormKind = SUP_NORM,
    t: float | None = None,
) -> MatrixOperator:
    """Build a matrix operator with its spectral splitting.

    Eigenvalues inside the unit disc span M, outside span N.  Any eigenvalue
    with modulus within ``UNIT_CIRCLE_TOL`` of 1 is rejected, as is a
    singular matrix.  Mixed spectra are split through a sorted real Schur
    form; the projection is then recovered from a Sylvester solve, which
    also covers defective eigenvalue blocks.  Only this branch needs scipy.
    The operator comes with its decay constants certified at ``t``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not a.size:
        raise ValueError("matrix must have at least one row, got shape (0, 0)")
    n = a.shape[0]
    eigs = np.linalg.eigvals(a)
    mods = np.abs(eigs)
    if np.any(mods < UNIT_CIRCLE_TOL):
        raise ValueError("matrix is not invertible (eigenvalue at 0)")
    if np.any(np.abs(mods - 1.0) < UNIT_CIRCLE_TOL):
        bad = eigs[np.argmin(np.abs(mods - 1.0))]
        raise CertificationError(
            f"not hyperbolic (finite dimension): eigenvalue {bad} has modulus "
            f"within {UNIT_CIRCLE_TOL} of the unit circle"
        )
    a_inv = np.linalg.inv(a)

    if np.all(mods < 1.0):
        proj_M = np.eye(n)
    elif np.all(mods > 1.0):
        proj_M = np.zeros((n, n))
    else:
        proj_M = _schur_projection(a, a_inv)
    return MatrixOperator(a, a_inv, proj_M, eigs, norm_kind, t)


def _schur_projection(a: np.ndarray, a_inv: np.ndarray) -> np.ndarray:
    """Spectral projection onto the eigenvalues inside the unit disc of a mixed spectrum.

    Computed from a sorted real Schur form and a Sylvester solve, then
    validated: P^2 = P and both invariances within ``SPLITTING_TOL``.  The
    projections I and 0 of a one-sided spectrum are exact and need neither.
    """
    import scipy.linalg  # only a mixed spectrum needs it, and it is most of `import ghlin`

    n = a.shape[0]
    u, q, sdim = scipy.linalg.schur(a, output="real", sort=lambda re, im: re * re + im * im < 1.0)
    if sdim == 0 or sdim == n:  # pragma: no cover - guarded by the mods check
        raise CertificationError("Schur sorting failed to separate the spectrum")
    u11, u12, u22 = u[:sdim, :sdim], u[:sdim, sdim:], u[sdim:, sdim:]
    x = scipy.linalg.solve_sylvester(u11, -u22, u12)
    block = np.zeros((n, n))
    block[:sdim, :sdim] = np.eye(sdim)
    block[:sdim, sdim:] = x
    proj_M = q @ block @ q.T

    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(proj_M @ proj_M - proj_M).max()) > SPLITTING_TOL:
        raise CertificationError(
            "spectral projection failed to validate (matrix may be too close "
            "to a defective splitting); P^2 != P beyond tolerance"
        )
    proj_N = np.eye(n) - proj_M
    if float(np.abs(proj_N @ a @ proj_M).max()) > SPLITTING_TOL * scale:
        raise CertificationError("splitting is not forward invariant beyond tolerance")
    if float(np.abs(proj_M @ a_inv @ proj_N).max()) > SPLITTING_TOL * scale:
        raise CertificationError("splitting is not backward invariant beyond tolerance")
    return proj_M


def _certify(op: GHOperator, t: float | None = None) -> _Constants:
    """Certified decay constants (c, t, d) of the operator at t, with its power table.

    Both operator constructors store its result, a frozen record, as
    ``constants``: an operator keeps the constants it was built with.  With
    A_M = T P_M and A_N = T^{-1} P_N, the certification window is the first
    n_max at which both |A_M^n| <= t^n and |A_N^n| <= t^n; then c = max_{n <= n_max}
    max(|A_M^n|, |A_N^n|) / t^n works for every power by
    submultiplicativity, and d = max(|P_M|, |P_N|).  The search stops after
    ``DECAY_WINDOW_CAP`` steps or once t^n underflows.  (c, t, d) set the
    admissible perturbation size and the envelope of every bound read from
    the power table.
    """
    rho_m, rho_n = op.stable_spectral_radii()
    rho = max(rho_m, rho_n)
    if t is None:
        t = (rho + 1.0) / 2.0
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie in (0, 1), got {t}")
    if rho > t:
        raise CertificationError(
            f"t={t} does not dominate the stable spectral radii ({rho_m}, {rho_n})"
        )
    # powers the spectral radius needs to reach the floor: the first block's size
    count = math.ceil(math.log(POWER_TABLE_FLOOR) / math.log(rho)) if rho > 0.0 else 1
    powers, n_max, c = _decay_window(op, t, min(count, DECAY_WINDOW_CAP))
    return _Constants(c=c, t=t, d=max(op.norm_P_M, op.norm_P_N), n_max=n_max, powers=powers)


def _decay_window(op: GHOperator, t: float, count: int) -> tuple[np.ndarray, int, float]:
    """The power table (|P|, |A^1|, ..., |A^W|) of each side, the window n_max and c.

    n_max is the first n with |A_M^n| <= t^n and |A_N^n| <= t^n, and c the
    largest ratio |A^n| / t^n up to it.  The scan stops at the first power
    from n_max on with both norms at most ``POWER_TABLE_FLOOR``, after
    ``DECAY_WINDOW_CAP`` powers, or before a power that cannot be certified;
    W is the last scanned n >= n_max with both norms below 1.
    """
    blocks, n_max, c = [[[op.norm_P_M], [op.norm_P_N]]], 0, 1.0
    peaks = _peaks(op._power_norms(count), blocks)
    for n in range(1, DECAY_WINDOW_CAP + 1):
        if not n_max and (tn := t**n) < sys.float_info.min:  # subnormal or zero: ratios unreliable
            _uncertifiable(t, n)
        try:
            peak = next(peaks)
        except CertificationError:  # power n is not certifiable: fatal before n_max, the end after
            if n_max:
                break
            raise
        if not n_max:
            c = max(c, peak / tn)
            n_max = n if peak / tn <= 1.0 else 0
        if n_max and peak <= POWER_TABLE_FLOOR:
            break
    if not n_max:
        _uncertifiable(t, DECAY_WINDOW_CAP)
    table = np.hstack(blocks)[:, : n + 1]
    below = np.flatnonzero(table[:, n_max:].max(axis=0) < 1.0)
    return table[:, : n_max + below[-1] + 1], n_max, c


def _peaks(powers, blocks: list):
    # max(|A_M^n|, |A_N^n|) for n = 1, 2, ..., appending each block of powers to blocks
    for block in powers:
        blocks.append(block)
        yield from block.max(axis=0).tolist()


def _uncertifiable(t: float, n: int):
    raise CertificationError(
        f"constants not certifiable at this t={t}: the power-window search stopped at "
        f"step {n} (cap {DECAY_WINDOW_CAP}; t^n must stay a normal float)"
    )


def admissible_eps(op: GHOperator, gamma: float) -> float:
    """Largest certified perturbation size for a target identity distance gamma.

    Equals gamma * (1 - t) / (c * d * (1 + t)); increasing in gamma and
    decreasing in each of t, c, d.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    k = op.constants
    return gamma * (1.0 - k.t) / (k.c * k.d * (1.0 + k.t))


def constants_report(op: GHOperator) -> dict:
    """(c, t, d) and n_max; the power table is not reported."""
    return {key: getattr(op.constants, key) for key in ("c", "t", "d", "n_max")}


def operator_from_descriptor(obj: dict) -> GHOperator:
    """Build an operator from its JSON descriptor.

    ``{"kind": "shift", "left_tail": v, "right_tail": v, "core": {...}}`` or
    ``{"kind": "matrix", "rows": [[...], ...]}``; optional ``"norm"`` and
    ``"t"`` entries select the ambient norm and the decay rate.
    """
    norm_kind = NormKind.from_descriptor(_object(obj, "norm", {"kind": "sup"}))
    t = _number(obj, "t", None)
    kind = obj.get("kind")
    if kind == "shift":
        return make_shift(WeightSpec.from_descriptor(obj), norm_kind, t)
    if kind == "matrix":
        return make_matrix_operator(_numbers(_required(obj, "rows"), "rows entry"), norm_kind, t)
    raise ValueError(f"unknown operator kind {kind!r}")

"""Certified construction of conjugacies between T and its perturbation T + beta.

Everything rests on one linear solve: for an invertible orbit map R, the
bounded solution phi of

    phi(R x) - T(phi(x)) = source(x)

is given by two orbit series,

    phi(x) =   sum_{k>=0} T^k   P_M source(R^{-k-1} x)
             - sum_{k>=1} T^{-k} P_N source(R^{k-1} x),

which converge geometrically thanks to the splitting.  With A_M = T P_M and
A_N = T^{-1} P_N, the M series keeps k = 0..K and the N series k = 1..K + 1,
which leaves a certified tail of
|source|_inf * (sum_{k>K} |A_M^k| + sum_{k>K+1} |A_N^k|), read off the
operator's power table and never above the envelope
c * d * |source|_inf * t^(K+1) * (1 + t) / (1 - t) of its decay constants.

The series is summed in one place, the operator's ``orbit_sweep``: given
source values on a run of orbit indices, it returns the series at every
index with k_M sources on its left and k_N on its right.  On the shift it
sweeps each side that takes sources along the shorter axis of its (orbit
index, column) plane; on a matrix each side's partial sums are a prefix
scan, ceil(log2 n) rounds over its n sources with one stacked product of
both sides per round (on the matrix workload, 29 products for the five
sweeps of a run where stepping took 428).  A side takes k = K + 1 sources
when its projection is nontrivial and none when it is trivial (M = {0} or
N = {0}), whose series is exactly zero (the operator's ``series_counts``).

Every value comes from one Picard orbit lattice for the self-referential
equation phi = solution-of(source o (I + phi)) on the orbit of the
evaluation point x under R: level l holds phi_l on a range of orbit indices
and is one sweep over the sources source(R^j x + phi_{l-1}(j)), with
phi_0 = 0.  The top level needs index 0 only, and each level below needs
k_M more indices on the left and k_N - 1 more on the right, with its own
counts.  A level below the top is read only by the source, so when the
source declares a window [lo, hi] it takes only the sources whose terms
land there: on the shift min(K + 1, min(hi, 0) - lo + 1) on M and
min(K + 1, hi - max(lo, 1)) on N, at least 0 each, and every other term is
an exact zero on the window.  On [-1, 1] that is 2 and 0, so each level adds 2
orbit indices instead of 2K + 1; a matrix mixes coordinates and keeps
K + 1.  The orbit is built only as far as the sources reach: it is never
inverted when M = {0} and never stepped forward when N = {0}.  A value
inside a level's range sums more than its count of terms of each series,
but every value holds at least the K + 1 nearest ones where it is read,
so what it omits is part of the (K + 1)-term tail and the truncation
certificate still bounds it.  A single
series value (``intertwining_solution``) is the depth-1 lattice.  The
forward conjugacy H = I + h with H o T = (T + beta) o H is the depth-d
lattice with R = T and source beta.  The backward conjugacy H' = I + h' with
H' o (T + beta) = T o H' is no Picard iteration: it is minus one series,
one sweep of beta along the orbit of R = T + beta, which is the value of the
depth-1 lattice with that R and source beta.  Both displacements land in the
subspace M + T^{-1}(N) term by term.

The lattice runs on a batch of points at once (``vectors.Batch``).  The
orbit of T is one array of shape (orbit index, N, columns), the
operator's ``orbit`` (one accumulate per side on the shift, stacked
products of both sides on a matrix, with no step call per index), and
each level is one row-batch call of the source and one ``orbit_sweep``.
That stacked orbit is the lattice's one orbit contract.  The backward map
runs no lattice: one kernel (``_perturbed_orbit``) walks the orbit of
T + beta, with one masked inverse solve of every row per backward index,
T x + beta(x) per forward index, and the orbit of T, checked by one beta
call, over a run of backward indices where beta vanishes.  It keeps only
its current point and returns beta along the orbit, and one
``orbit_sweep`` of those values is the map.  Every entry is computed as
for a single point, so a point gets the same value in any batch: bit for
bit on the shift, and up to the rounding of a matrix
product (gemm against gemv) on the dense backend.  Sparse columns are the
union of the rows' supports, and the sweep adds the runs its partial sums
can reach, joined by zero-weight seams.
When the source declares an index window (``Perturbation.window``: it
reads only the coordinates in [lo, hi]), the orbit and every level below
the top keep only the columns in that window, and those levels sweep
exactly its columns: M-side sums move left and N-side sums move right, so a
column that leaves the window never returns.
``ConjugacyMap.displacements`` runs its points in chunks sized so that the
largest array of a call, the orbit or a sweep buffer, fits ``CHUNK_BYTES``;
it is estimated from the orbit length, the widest point and the source's
window, and on a matrix from the scan's buffer, which stacks both sides'
sources.  The checks are batch expressions too, with no loop over points.

Every map is immutable and keeps no values; it carries a certified
worst-case evaluation error, and verification routines compare observed
identity residuals against bounds derived from it.  A check report holds
the displacements it computed at its points as a batch (``values``), so a
later check on the same points takes them from the report instead of
evaluating again.
Both identity checks and the inverse pair (``_conjugate_checks``) take three
lattice calls: the forward map on the rows [T x, x], which gives h_fwd(x);
the backward map once on [(T + beta) x, x, x + h_fwd(x)], for its identity
check and the H_back o H_fwd leg of the pair; and the forward map on
x + h_bwd(x).  Each check still evaluates H at an image through that
image's own orbit: reading H(R x) off the orbit of x would make the identity
hold by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .operators import CertificationError, GHOperator, MatrixOperator, admissible_eps
from .operators import _reach, _stepped_orbit
from .perturbations import Perturbation, _require_contraction, _solve_rows, perturbed_apply
from .vectors import Batch, StateVector, merge_rows, pack, row_norms, stack, zero_rows
from .vectors import _at_point, _row_wise

__all__ = [
    "SeriesPolicy",
    "ConjugacyMap",
    "VerificationReport",
    "InversePairReport",
    "truncation_terms",
    "truncation_tail_bound",
    "intertwining_solution",
    "solve_conjugacy",
    "solve_inverse_conjugacy",
    "eval_H",
    "eval_H_prime",
    "verify_conjugacy",
    "verify_inverse_pair",
    "displacement_space_residual",
]

FORWARD = "forward"
BACKWARD = "backward"
CERTIFIED = "certified"
UNCERTIFIED = "uncertified"

#: residual target of each inverse solve on the backward orbit, relative to
#: the norm bound (at least 1) of the point being inverted
INVERSE_TOL_REL = 1e-12

#: most series terms per side that ``truncation_terms`` may ask for
TERMS_CAP = 10_000

#: byte budget of the largest array (the orbit or a sweep buffer) of one lattice call; more
#: points run in chunks.  A windowless shift map at K = 15 and depth 3 needs about 230 kB per
#: forward row, and a 100-sample ``conjugate`` of it makes 4 lattice calls at this budget
CHUNK_BYTES = 24 << 20


@dataclass(frozen=True)
class SeriesPolicy:
    """Per-evaluation truncation target; the term count is capped at ``TERMS_CAP``."""

    tol: float

    def __post_init__(self) -> None:
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


def truncation_tail_bound(op: GHOperator, source_sup: float, terms: int) -> float:
    """Certified bound on everything dropped after K + 1 terms of each series."""
    k = op.constants
    envelope = k.c * k.d * source_sup * k.t ** (terms + 1) * (1.0 + k.t) / (1.0 - k.t)
    return min(source_sup * (k.tail(0, terms + 1) + k.tail(1, terms + 2)), envelope)


def truncation_terms(op: GHOperator, source_sup: float, policy: SeriesPolicy) -> int:
    """Smallest K whose combined tail bound meets the policy tolerance, in O(log K) bounds.

    The bound does not increase with K: it is the smaller of suffix sums of
    the nonnegative power table and a decreasing envelope.  So K = 0, 1, 3,
    7, ... brackets the smallest K and a bisection of that bracket finds it.
    """
    def meets(terms: int) -> bool:
        return truncation_tail_bound(op, source_sup, terms) <= policy.tol

    low, high = 0, 0  # no K below low meets the tolerance; high is the next candidate
    while not meets(high):
        if high == TERMS_CAP:
            raise CertificationError(
                f"series needs more than the cap of {TERMS_CAP} terms to reach tol={policy.tol}"
            )
        low, high = high + 1, min(2 * high + 1, TERMS_CAP)
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if meets(mid) else (mid + 1, high)
    return high


def intertwining_solution(
    op: GHOperator,
    r_apply: Callable[[StateVector], StateVector],
    r_invert: Callable[[StateVector], StateVector],
    source: Callable[[StateVector], StateVector],
    source_sup: float,
    x: StateVector,
    policy: SeriesPolicy,
    terms: int | None = None,
) -> StateVector:
    """Value at x of the bounded solution of phi(R y) - T(phi(y)) = source(y).

    ``source_sup`` must certify the sup norm of the source; it drives the
    truncation depth unless ``terms`` overrides it.  The result norm is at
    most ``op.constants.gain`` * source_sup plus the policy tolerance.  ``r_invert``
    is called K + 1 times in orbit order, on x, R^{-1} x, ..., R^{-K} x, and
    ``r_apply`` K times, on x, R x, ..., R^{K-1} x; there are no ``r_invert``
    calls when M = {0} and no ``r_apply`` calls when N = {0}.
    """
    if terms is None:
        terms = truncation_terms(op, source_sup, policy)
    orbit = partial(_stepped_orbit, _row_wise(r_apply), _row_wise(r_invert))
    source, window = _row_wise(source), getattr(source, "window", None)
    return _at_point(lambda b: _picard_lattice(op, orbit, source, b, terms, 1, window), x)


def _picard_lattice(op, orbit, source, x: Batch, terms, depth, window=None) -> Batch:
    """Depth-``depth`` Picard iterate of phi = solution-of(source o (I + phi)) at the rows of x.

    ``source`` maps batches to batches, and ``orbit(x, back, ahead, within)``
    returns R^-back x, ..., R^ahead x as one (orbit index, N, columns) batch
    kept on the columns of ``within``: the operator's ``orbit`` for R = T, a
    ``_stepped_orbit`` of R and its inverse otherwise.  The top level takes
    ``series_counts`` sources per side and covers index 0.  ``window`` =
    (lo, hi), the source's declared window, is the only span of columns
    that the orbit and the levels below the top keep, and since those levels
    are read only there, each takes the counts of sources whose terms land
    in it (``op.series_counts(terms, window)``).  A level with counts
    (k_M, k_N) covering [a, b] uses the sources at [a - k_M, b + k_N - 1],
    which the level below covers; the bare orbit over the first level's
    sources is level 0.  Lower levels that take no source (a window of one
    index right of 0) would add an exact zero where the source reads, so
    they are not run.
    """
    counts, spans, (back, ahead) = _levels(op, terms, depth, window)
    orbit = orbit(x, back, ahead, window)  # none ahead if N = {0}
    values = None  # phi_{l-1} on the source range of level l
    for level, ((m_count, n_count), (a, b)) in enumerate(zip(counts, spans[:0:-1]), 1):
        points = orbit[a + back : b + back + 1]
        if values is not None:
            points = points + values
        values = op.orbit_sweep(
            _on_rows(source, points), m_count, n_count, window if level < len(counts) else None
        )
    return values[0]


def _levels(op, terms: int, depth: int, window=None) -> tuple[list, list, tuple[int, int]]:
    """The lattice's shape: its levels' counts from the first level up, the index range each
    level covers from the top level down to the first level's sources, and the orbit's reach
    (back, ahead) over them (``_picard_lattice``)."""
    low = op.series_counts(terms, window)
    counts = [low] * (depth - 1 if any(low) else 0) + [op.series_counts(terms)]
    spans = [(0, 0)]
    for m_count, n_count in reversed(counts):
        spans.append((spans[-1][0] - m_count, spans[-1][1] + n_count - 1))
    # as far ahead as any level reads: one with k_N = 0 reads less far than it covers
    return counts, spans, (-spans[-1][0], max(b for _, b in spans))


def _perturbed_orbit(op, beta, tols, x: Batch, terms: int) -> list:
    """beta along the orbit of S = T + beta: the sources of the backward map's one sweep.

    Returns beta(S^j x) for j = -k_M, ..., k_N - 1 in orbit order (``series_counts``),
    bit for bit beta on the ``_stepped_orbit`` of ``perturbed_apply`` forward
    and inverse solves to the residuals ``tols[j]`` back: the solve's beta at
    the point it returns, the forward step's beta at the point it maps, and
    one more call at the last point when N is nontrivial.  After a solve
    whose beta is exactly 0 on every row, the next points come from one
    ``op.orbit`` of its point and one beta call on them, while beta is +-0 on
    every row and the point is finite: the solve of each would return
    T^{-1} y at once.  The first point where beta lives resumes the solves.
    Only the current point of each direction is kept.
    """
    m_count, n_count = op.series_counts(terms)
    point, values = x, []
    while len(values) < m_count:
        point, b = _solve_rows(op, beta, point, tols[len(values)])
        values.append(b)
        if len(values) < m_count and not b.rows.any():  # beta vanished: go on with T's orbit
            steps = op.orbit(point, m_count - len(values), 0)[-2::-1]  # T^-1 p, T^-2 p, ...
            zeros = _on_rows(beta.batch, steps)
            dead = ~zeros.rows.any(axis=(1, 2)) & np.isfinite(steps.rows).all(axis=(1, 2))
            run = len(dead) if dead.all() else int(np.argmin(dead))
            values += [zeros[j] for j in range(run)]
            point = steps[run - 1] if run else point
    values.reverse()
    point = x
    for _ in range(max(n_count - 1, 0)):
        values.append(beta.batch(point))
        point = op.step(point) + values[-1]  # perturbed_apply
    return values + [beta.batch(point)] if n_count else values


def _on_rows(source, points: Batch) -> Batch:
    # the source on a (orbit index, N, columns) batch, as one 2-d call
    count, n, width = points.rows.shape
    out = source(Batch(points.rows.reshape(count * n, width), points.cols))
    return Batch(out.rows.reshape(count, n, out.rows.shape[-1]), out.cols)


@dataclass(frozen=True, eq=False)
class ConjugacyMap:
    """Evaluator for a conjugacy H = I + displacement with error control.

    Forward direction: H o T = S o H; backward: H o S = T o H, where
    S = T + beta and the j-th backward step of the orbit of S is an inverse
    solve to residual ``inverse_tols[j]``.  ``certified_error`` bounds the
    distance between returned displacement values and the exact ones, on
    evaluation points within ``eval_radius`` in the ambient norm (``None``:
    everywhere).  It is not stored: it is the sum, in their order, of the
    named parts in ``error_budget`` (``picard`` and ``series`` forward,
    ``truncation`` and ``inverse_propagation`` backward), 0.0 for none.

    Evaluation is pure and the map keeps no values.  On the shift every
    batch computes identical values; on the dense backend two batches may
    differ in the last bits, both within ``certified_error``.  The backward
    map is one ``orbit_sweep`` of the beta values that ``_perturbed_orbit``
    returns along the orbit of a batch: beta is taken row by row, so this
    holds as long as beta maps each row alone.
    """

    op: GHOperator
    beta: Perturbation
    direction: str
    terms: int
    depth: int = 0
    contraction: float = 0.0
    inverse_tols: tuple = ()
    eval_radius: float | None = None
    error_budget: dict = field(default_factory=dict)

    @property
    def certified_error(self) -> float:
        return sum(self.error_budget.values(), 0.0)

    def displacements(self, points: Sequence[StateVector]) -> list[StateVector]:
        """The offsets H(x) - x at the points, computed to the map's certified error.

        The points run through the lattice together, in chunks sized from
        ``CHUNK_BYTES``.
        """
        return self._rows(_pack(self.op, points)).unpack()

    def displacement(self, x: StateVector) -> StateVector:
        """The offset H(x) - x: ``displacements`` of one point."""
        return self.displacements([x])[0]

    def covers(self, *batches: Batch) -> bool:
        """Whether ``certified_error`` is quoted at every row of the batches."""
        radius, kind = self.eval_radius, self.op.norm_kind
        return radius is None or all((row_norms(b, kind) <= radius).all() for b in batches)

    def _rows(self, x: Batch) -> Batch:
        # the displacements at the rows of x, one lattice call per chunk on its points' columns
        size = self._chunk_size(x)
        if len(x) <= size:
            return self._values(x) if len(x) else x
        return _join(*(self._values(_own_columns(x[i : i + size])) for i in range(0, len(x), size)))

    def _chunk_size(self, x: Batch) -> int:
        # rows per lattice call, from a bound on the largest array of a call, the orbit or a
        # sweep buffer, of at most L + 1 indices (L the lattice's orbit length, ``_levels``;
        # the backward map's orbit is the depth-1 lattice's) by these columns: a
        # dense point's, where the sweep stacks both sides' sources, up to L - K - 1 each;
        # with a window, a sparse point's nonzeros and at least the window plus
        # the top sweep's reach of 2K + 1; without one, as a chunk's orbit spans the union of
        # its rows' columns, every column of x within 3L/2 of a nonzero (the orbit's spread
        # and the lower sweeps' reach)
        back, ahead = _levels(self.op, self.terms, max(self.depth, 1), self.beta.window)[2]
        length = back + ahead + 1
        if x.cols is None:
            length, span = max(length, 2 * (length - self.terms - 1)), x.rows.shape[-1]
        elif self.beta.window is None:
            reach = (3 * length + 1) // 2
            span = len(_reach(_own_columns(x).cols, reach, reach))
        else:
            span = int(np.count_nonzero(x.rows, -1).max(initial=0))
            span = max(span, self.beta.window[1] - self.beta.window[0] + 2 * self.terms + 2)
        return max(1, CHUNK_BYTES // (8 * (length + 1) * (span + 1)))

    def _values(self, x: Batch) -> Batch:
        op, beta = self.op, self.beta
        if self.depth == 0 or beta.is_zero:
            return zero_rows(x)
        if self.direction == FORWARD:  # source beta on the orbit of T
            return _picard_lattice(op, op.orbit, beta.batch, x, self.terms, self.depth,
                                   beta.window)
        # one sweep of -beta along the orbit of T + beta, its list of values gone once stacked;
        # negating the value is exact
        sources = stack(_perturbed_orbit(op, beta, self.inverse_tols, x, self.terms))
        return -op.orbit_sweep(sources, *op.series_counts(self.terms))[0]

    def report(self) -> dict:
        keys = ("direction", "terms", "depth", "contraction", "certified_error", "error_budget",
                "eval_radius")
        return {key: getattr(self, key) for key in keys}


def solve_conjugacy(
    op: GHOperator,
    beta: Perturbation,
    gamma: float,
    policy: SeriesPolicy,
    picard_tol: float,
) -> ConjugacyMap:
    """Forward conjugacy H = I + h with H o T = (T + beta) o H and |h| <= gamma.

    Requires Lip(beta) within the admissible bound for gamma and
    Lip(beta) * |T^{-1}| < 1.  The displacement solves a contraction with
    factor q = gain * Lip(beta), where gain = ``op.constants.gain`` bounds
    the bounded-solution operator; q <= gamma, since the gain is at most
    c*d*(1+t)/(1-t).  Unrolling depth n gives an error q^n * B / (1 - q)
    with B = gain * sup(beta) the certified first-step norm, and each series
    evaluation adds its truncation tolerance once per level.  The depth is
    the smallest n >= 1 whose error meets ``picard_tol`` (0 when beta is
    zero).
    """
    if not picard_tol > 0.0:
        raise ValueError(f"picard_tol must be positive, got {picard_tol}")
    eps = admissible_eps(op, gamma)
    if beta.lip_bound > eps:
        raise ValueError(
            f"Lip(beta) = {beta.lip_bound} exceeds the admissible bound "
            f"gamma*(1-t)/(c*d*(1+t)) = {eps} at gamma = {gamma}"
        )
    if beta.sup_bound > eps:
        raise ValueError(
            f"sup of beta = {beta.sup_bound} exceeds the admissible bound "
            f"gamma*(1-t)/(c*d*(1+t)) = {eps} at gamma = {gamma}; the identity "
            f"distance of the conjugacy could not be kept below gamma"
        )
    _require_contraction(op, beta)
    gain = op.constants.gain
    q = gain * beta.lip_bound
    first_step = gain * beta.sup_bound
    depth = 0 if beta.sup_bound == 0.0 else 1
    while (picard_err := (q**depth) * first_step / (1.0 - q)) > picard_tol:
        depth += 1
    terms = truncation_terms(op, beta.sup_bound, policy)
    budget = {"picard": picard_err, "series": policy.tol * (1.0 - q**depth) / (1.0 - q)}
    return ConjugacyMap(op, beta, FORWARD, terms, depth, contraction=q, error_budget=budget)


def solve_inverse_conjugacy(
    op: GHOperator,
    beta: Perturbation,
    policy: SeriesPolicy,
) -> ConjugacyMap:
    """Backward conjugacy H = I + h with H o (T + beta) = T o H.

    This is the direct, non-self-referential series along the perturbed
    orbit (one lattice level): forward points are exact applications of
    T + beta, backward points come from the certified perturbed-inverse
    solver.  The certified error is the truncation tolerance plus the
    accumulated inverse-solve residuals propagated through the series,
    quoted for evaluation points within eval_radius = max(2, |T| + sup beta).
    That radius holds the image of the unit ball under T + beta and under
    any forward conjugacy with |h| < 1 (``solve_conjugacy`` keeps
    |h| <= gamma < 1).
    """
    _require_contraction(op, beta)
    terms = truncation_terms(op, beta.sup_bound, policy)
    lip_inv = op.norm_Tinv / (1.0 - op.norm_Tinv * beta.lip_bound)
    radius = eval_radius = max(2.0, op.norm_T + beta.sup_bound)
    inverse_tols, err, propagated = [], 0.0, 0.0
    for j in range(terms + 1):
        tol_j = INVERSE_TOL_REL * max(1.0, radius)
        inverse_tols.append(tol_j)
        err = lip_inv * (err + tol_j)  # error of the j-th backward orbit point
        # A point error e enters a series term through beta, whose certified
        # modulus of continuity is |beta(u) - beta(v)| <= min(Lip * e, 2 * sup),
        # and the j-th term through T^j P_M, of norm at most ``power(0, j)``.
        # The 2 * sup cap keeps the sum bounded when t * Lip(S^{-1}) >= 1, and no
        # Holder modulus 2 * max(sup, Lip) * e^theta, theta in (0, 1], is smaller.
        propagated += op.constants.power(0, j) * min(beta.lip_bound * err, 2.0 * beta.sup_bound)
        radius = op.norm_Tinv * (radius + beta.sup_bound) + err
    budget = {"truncation": policy.tol, "inverse_propagation": propagated}
    return ConjugacyMap(op, beta, BACKWARD, terms, depth=1, inverse_tols=tuple(inverse_tols),
                        eval_radius=eval_radius, error_budget=budget)


def eval_H(cmap: ConjugacyMap, x: StateVector) -> StateVector:
    """Apply the forward conjugacy: x + displacement."""
    if cmap.direction != FORWARD:
        raise ValueError("eval_H needs a forward conjugacy map")
    return x + cmap.displacement(x)


def eval_H_prime(cmap: ConjugacyMap, x: StateVector) -> StateVector:
    """Apply the backward conjugacy: x + displacement."""
    if cmap.direction != BACKWARD:
        raise ValueError("eval_H_prime needs a backward conjugacy map")
    return x + cmap.displacement(x)


def _status(bound: float, covered: bool) -> str:
    # a bound certifies a check only if it is finite and quoted at every
    # point the check evaluated
    return CERTIFIED if math.isfinite(bound) and covered else UNCERTIFIED


def _peak(values) -> float:
    """The largest of the values, 0.0 for none and NaN if any is NaN: every report's maximum."""
    return float(np.max(values, initial=0.0))


def _written(value: float) -> float | None:
    # a report's maximum as strict JSON can hold it: a NaN or infinite one is null
    return value if math.isfinite(value) else None


class _CheckReport:
    """The count, the maximum, the pass rule and the JSON form of a check report.

    Count and maximum are read off ``per_point``; a NaN residual makes the
    maximum NaN, so the check fails.  ``to_dict`` writes the keys in
    ``_KEYS`` and ``passed``: a maximum that is not finite, and the bound of
    a check that is not certified, as null.
    """

    _KEYS = ("n_samples", "max_residual", "certified_bound", "status")

    @property
    def n_samples(self) -> int:
        return len(self.per_point)

    @property
    def max_residual(self) -> float:
        return _peak(self.per_point)

    @property
    def passed(self) -> bool:
        return self.status == CERTIFIED and self.max_residual <= self.certified_bound

    def to_dict(self) -> dict:
        out = {key: getattr(self, key) for key in self._KEYS}
        out.update({key: _written(out[key]) for key in out if key.startswith("max_")})
        if self.status != CERTIFIED:
            out["certified_bound"] = None
        return {**out, "passed": self.passed}


@dataclass
class VerificationReport(_CheckReport):
    """Observed identity residuals against the map's own certified bound.

    ``status`` is ``"uncertified"`` when the bound is not finite or a map was
    evaluated outside its ``eval_radius``; such a check never passes, and
    its bound is written as null.  ``values`` holds the map's displacements
    at the checked points, one row each.
    """

    _KEYS = ("kind",) + _CheckReport._KEYS

    kind: str
    certified_bound: float
    status: str
    per_point: list[float] = field(repr=False)
    values: Batch = field(repr=False)


def verify_conjugacy(cmap: ConjugacyMap, samples: Sequence[StateVector]) -> VerificationReport:
    """Residuals of the conjugacy identity over the samples: points, or the rows of a ``Batch``.

    Forward maps check H(T x) - (T + beta)(H(x)); backward maps check
    H((T + beta) x) - T(H(x)).  With E the map's certified error, the bound
    is E * (1 + Lip(outer)): Lip(T + beta) = |T| + Lip(beta), Lip(T) = |T|.
    """
    return _identity_check(cmap, *_identity_terms(cmap, _pack(cmap.op, samples)))


def _identity_terms(cmap, x: Batch, images: Batch | None = None) -> tuple:
    # the arguments (images, points, outer, bound) of ``_identity_check`` at the rows of x:
    # their images (under the inner map unless a caller gives them), the rows, the outer map
    # and the bound of the check; forward H o T = S o H with S = T + beta, backward H o S = T o H
    s_step = partial(perturbed_apply, cmap.op, cmap.beta)
    inner, outer = (cmap.op.step, s_step) if cmap.direction == FORWARD else (s_step, cmap.op.step)
    return inner(x) if images is None else images, x, outer, _identity_bound(cmap)


def _identity_bound(cmap) -> float:
    # E (1 + Lip(outer)) with E the map's certified error: Lip(T + beta) = |T| + Lip(beta)
    # forward, Lip(T) = |T| backward
    outer_beta_lip = cmap.beta.lip_bound if cmap.direction == FORWARD else 0.0
    return cmap.certified_error * (1.0 + cmap.op.norm_T + outer_beta_lip)


def _identity_check(cmap, images: Batch, points: Batch, outer, bound: float, values=None):
    # residuals |H(u) - outer(H(x))| over the rows u of images and x of points; ``values``,
    # the map's displacements at those rows when a caller already has them, or one lattice call
    both, n = _join(images, points), len(points)
    if values is None:
        values = cmap._rows(both)
    gaps = (images + values[:n]) - outer(points + values[n:])
    residuals = row_norms(gaps, cmap.op.norm_kind).tolist()
    status = _status(bound, cmap.covers(both))
    return VerificationReport(cmap.direction, bound, status, residuals, values[n:])


def _pack(op: GHOperator, points: Sequence[StateVector] | Batch) -> Batch:
    # the points as the rows of one batch, a batch as it is; with no points, a batch of no
    # rows on op's backend
    if isinstance(points, Batch):
        return points
    if points := list(points):
        return pack(points)
    dense = isinstance(op, MatrixOperator)
    return Batch(np.zeros((0, op.dim if dense else 0)), None if dense else np.zeros(0, np.int64))


def _own_columns(b: Batch) -> Batch:
    return b if b.cols is None else b.on(b.cols[(b.rows != 0.0).any(axis=0)])


def _join(*batches: Batch) -> Batch:
    # the rows of the 2-d batches, one batch after another
    ends = np.cumsum([0] + [len(b) for b in batches])
    return merge_rows([(np.arange(a, z), b) for a, z, b in zip(ends, ends[1:], batches)], ends[-1])


@dataclass
class InversePairReport(_CheckReport):
    """Residuals of H_back o H_fwd = I and H_fwd o H_back = I over samples.

    ``status`` has the meaning of ``VerificationReport.status``; ``per_point``
    holds the (left, right) residuals at each sample.
    """

    _KEYS = ("n_samples", "max_residual_left", "max_residual_right", "certified_bound", "status")

    certified_bound: float
    status: str
    per_point: list[tuple[float, float]] = field(repr=False)

    @property
    def max_residual_left(self) -> float:
        return _peak([left for left, _ in self.per_point])

    @property
    def max_residual_right(self) -> float:
        return _peak([right for _, right in self.per_point])


def verify_inverse_pair(
    fwd: ConjugacyMap,
    bwd: ConjugacyMap,
    samples: Sequence[StateVector],
    holder: "object | None" = None,
) -> InversePairReport:
    """Check that the two conjugacies invert each other on the samples.

    The certified bound needs a continuity modulus at the maps' error
    scale; a Holder certificate (theta, C) for the backward displacement
    supplies one.  The H_back o H_fwd residual is bounded directly by
    L = E_f + E_b + C * E_f^theta.  For H_fwd o H_back, applying the
    backward map to the residual vector gives the self-consistent
    inequality r <= C r^theta + (L + 2 E_b), whose positive fixed point is
    the certified bound.  With a zero perturbation the bound is exactly 0;
    without a certificate the bound is infinity and the check is
    uncertified (observed residuals only).
    """
    if fwd.direction != FORWARD or bwd.direction != BACKWARD:
        raise ValueError("verify_inverse_pair needs a (forward, backward) pair")
    if fwd.op is not bwd.op or fwd.beta is not bwd.beta:
        raise ValueError("the two maps must share the same operator and perturbation")
    x = _pack(fwd.op, samples)
    there, n = x + fwd._rows(x), len(x)
    values = bwd._rows(_join(x, there))
    return _inverse_pair(fwd, bwd, x, there, values[:n], values[n:], holder)


def _conjugate_checks(fwd, bwd, samples, holder) -> tuple:
    """``verify_conjugacy`` of both maps and ``verify_inverse_pair``, in three lattice calls.

    The backward map runs once, on the rows (T + beta) x, x and x + h_fwd(x):
    its identity check and the H_back o H_fwd leg of the pair share that call.
    A row gets the same value in any batch, so the reports are those of the
    separate checks: bit for bit on the shift, up to the rounding of a matrix
    product on the dense backend.
    """
    x = _pack(fwd.op, samples)
    n, fwd_report = len(x), verify_conjugacy(fwd, x)
    there = x + fwd_report.values
    terms = _identity_terms(bwd, x)
    values = bwd._rows(_join(terms[0], x, there))
    bwd_report = _identity_check(bwd, *terms, values[: 2 * n])
    inverse_report = _inverse_pair(fwd, bwd, x, there, values[n : 2 * n], values[2 * n :], holder)
    return fwd_report, bwd_report, inverse_report


def _inverse_pair(fwd, bwd, x: Batch, there: Batch, h_bwd: Batch, h_bwd_there: Batch,
                  holder) -> InversePairReport:
    # verify_inverse_pair at the rows of x, given there = x + h_fwd(x) and the backward
    # displacements at x and at there; the forward map runs once, at x + h_bwd(x)
    e_f, e_b = fwd.certified_error, bwd.certified_error
    if fwd.beta.is_zero:
        bound = 0.0
    elif holder is not None:
        left_bound = e_f + e_b + holder.C * e_f**holder.theta
        offset = left_bound + 2.0 * e_b
        r = offset
        for _ in range(256):
            r_next = holder.C * r**holder.theta + offset
            if r_next == r:
                break
            r = r_next
        right_bound = 1.000001 * r
        if holder.C * right_bound**holder.theta + offset > right_bound:
            right_bound = math.inf  # pragma: no cover - fixed point not bracketed
        bound = max(left_bound, right_bound)
    else:
        bound = math.inf
    kind, back = fwd.op.norm_kind, x + h_bwd
    left = row_norms((there + h_bwd_there) - x, kind).tolist()
    right = row_norms((back + fwd._rows(back)) - x, kind).tolist()
    covered = fwd.covers(x, back) and bwd.covers(x, there)
    return InversePairReport(bound, _status(bound, covered), list(zip(left, right)))


def displacement_space_residual(op: GHOperator, v: StateVector) -> float:
    """Distance of v from the displacement codomain M + T^{-1}(N).

    Equals |P_M(T(P_N v))|, which vanishes exactly when the N-component of v
    lies in T^{-1}(N): ``_membership`` of a batch of one.
    """
    return float(_membership(op, pack([v]))[0])


def _membership(op: GHOperator, b: Batch) -> np.ndarray:
    # |P_M(T(P_N v))| at every row v of b, from one row_norms call
    return row_norms(op.project_M_rows(op.step(op.project_N_rows(b))), op.norm_kind)

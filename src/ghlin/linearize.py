"""Local linearization of a nonlinear map near a generalized hyperbolic fixed point.

Workflow: translate the fixed point to the origin, split the map into its
derivative T plus a nonlinearity vanishing at 0, cut the nonlinearity off to
a globally small Lipschitz perturbation, and run the conjugacy engine.  The
result conjugates the map to its derivative on the inner cutoff ball, where
the cut perturbation agrees with the true nonlinearity.

Holder regularity: the backward displacement along the perturbed orbit is
theta-Holder whenever

    max(|T|_M| * |T^{-1}|^theta, |T^{-1}|_N| * |T|^theta) < 1,

and its Holder constant has a closed geometric form in the restriction
norms, the perturbation size and theta.  Certificates carry (theta, C) and
the domain diameter on which they are quoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .conjugacy import ConjugacyMap, SeriesPolicy, VerificationReport
from .conjugacy import eval_H_prime, solve_conjugacy, solve_inverse_conjugacy
from .conjugacy import _identity_bound, _identity_check, _identity_terms, _join, _pack, _peak
from .conjugacy import _written
from .operators import GHOperator, admissible_eps
from .perturbations import CutoffProfile, Perturbation, cutoff, zero_perturbation
from .perturbations import _require_norm
from .vectors import Batch, StateVector, pack, row_norms, zero_like
from .vectors import _row_wise

__all__ = [
    "HolderCertificate",
    "LinearizationProblem",
    "LinearizationResult",
    "HolderProbeReport",
    "theta_bound",
    "holder_constant",
    "make_holder_certificate",
    "empirical_holder",
    "linearize",
]

#: ``linearize`` stops halving the cutoff radius below this
CUTOFF_R_MIN = 1e-12


@dataclass(frozen=True)
class HolderCertificate:
    """Certified Holder data: exponent, constant, and quoted domain diameter."""

    theta: float
    C: float
    domain_diameter: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if self.C < 0.0 or not math.isfinite(self.C):
            raise ValueError(f"C must be finite and >= 0, got {self.C}")
        if not (0.0 < self.domain_diameter < 1.0):
            raise ValueError(
                f"domain diameter must lie in (0, 1), got {self.domain_diameter}"
            )


def theta_bound(op: GHOperator) -> float:
    """Largest certifiable Holder exponent scale for this operator, capped at 1.

    Equals min(-ln|T^{-1}|_N| / ln|T|, -ln|T|_M| / ln|T^{-1}|), each term
    present only when the corresponding splitting component is nontrivial.
    Requires |T|_M| < 1 and |T^{-1}|_N| < 1 in the ambient norm; no adapted
    norm is applied, so certified decay constants (c, t, d) do not suffice.
    """
    terms = []
    if not op.m_is_trivial:
        if op.norm_T_on_M >= 1.0:
            raise ValueError(
                f"|T restricted to M| = {op.norm_T_on_M} is not < 1 in the ambient "
                "norm; the Holder exponent needs it below 1 (no adapted norm)"
            )
        if op.norm_Tinv <= 1.0:
            raise ValueError("|T^{-1}| must exceed 1 when M is nontrivial")
        terms.append(-math.log(op.norm_T_on_M) / math.log(op.norm_Tinv))
    if not op.n_is_trivial:
        if op.norm_Tinv_on_N >= 1.0:
            raise ValueError(
                f"|T^{{-1}} restricted to N| = {op.norm_Tinv_on_N} is not < 1 in the "
                "ambient norm; the Holder exponent needs it below 1 (no adapted norm)"
            )
        if op.norm_T <= 1.0:
            raise ValueError("|T| must exceed 1 when N is nontrivial")
        terms.append(-math.log(op.norm_Tinv_on_N) / math.log(op.norm_T))
    if not terms:
        raise ValueError("operator has a trivial splitting on both sides")
    return min(1.0, min(terms))


def holder_constant(
    op: GHOperator,
    beta: Perturbation,
    theta: float,
    eps: float,
) -> float:
    """Closed-form Holder constant for the backward displacement.

    C sums two geometric series: the stable side with ratio
    |T|_M| * (|T^{-1}| + eps*s)^theta where s = |T^{-1}|^2 / (1 - |T^{-1}| eps)
    covers the perturbed backward orbit growth, and the unstable side with
    ratio |T^{-1}|_N| * (|T| + eps)^theta covers the forward one.  Both
    ratios must stay below 1; a trivial splitting component contributes
    nothing because its projection norm vanishes.  eps must dominate beta's
    bounds, which must hold in op's ambient norm.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if eps < 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    _require_norm(op, beta)
    if max(beta.sup_bound, beta.lip_bound) > eps:
        raise ValueError(
            f"eps = {eps} does not dominate the perturbation bounds "
            f"({beta.sup_bound}, {beta.lip_bound})"
        )
    if eps == 0.0:
        return 0.0
    if eps * op.norm_Tinv >= 1.0:
        raise ValueError(
            f"eps must stay below 1/|T^{{-1}}| = {1.0 / op.norm_Tinv}, got {eps}"
        )
    s = op.norm_Tinv**2 / (1.0 - op.norm_Tinv * eps)
    total = 0.0
    if not op.m_is_trivial:
        inflated = (op.norm_Tinv + eps * s) ** theta
        ratio = op.norm_T_on_M * inflated
        if ratio >= 1.0:
            raise ValueError(
                f"eps too large for this theta: stable-side ratio "
                f"|T|_M|*(|T^-1|+eps*s)^theta = {ratio} >= 1"
            )
        total += 2.0 * eps * op.norm_P_M * inflated / (1.0 - ratio)
    if not op.n_is_trivial:
        ratio = op.norm_Tinv_on_N * (op.norm_T + eps) ** theta
        if ratio >= 1.0:
            raise ValueError(
                f"eps too large for this theta: unstable-side ratio "
                f"|T^-1|_N|*(|T|+eps)^theta = {ratio} >= 1"
            )
        total += 2.0 * eps * op.norm_P_N * op.norm_Tinv_on_N / (1.0 - ratio)
    return total


def make_holder_certificate(
    op: GHOperator,
    beta: Perturbation,
    theta: float,
    eps: float,
    domain_diameter: float,
) -> HolderCertificate:
    """Bundle a validated (theta, C, diameter) certificate."""
    cap = theta_bound(op)
    if theta >= cap:
        raise ValueError(f"theta = {theta} must stay below the exponent bound {cap}")
    c = holder_constant(op, beta, theta, eps)
    return HolderCertificate(theta=theta, C=c, domain_diameter=domain_diameter)


def _default_certificate(op, beta: Perturbation, diameter: float, theta=None) -> HolderCertificate:
    """Certificate at theta (None: half of ``theta_bound``) with eps = max(sup, Lip) of beta."""
    if theta is None:
        theta = theta_bound(op) / 2.0
    return make_holder_certificate(op, beta, theta, max(beta.sup_bound, beta.lip_bound), diameter)


@dataclass
class HolderProbeReport:
    """Observed Holder ratios of a displacement against the certified constant.

    ``values`` holds the displacements at the first point of each kept pair,
    one row each.  Count and maximum are read off ``per_pair`` as in a
    conjugacy check report: a NaN ratio fails the probe and its maximum is
    written as null.
    """

    theta: float
    constant: float
    inflation: float
    per_pair: list[float]
    values: Batch = field(repr=False)

    @property
    def n_pairs(self) -> int:
        return len(self.per_pair)

    @property
    def max_ratio(self) -> float:
        return _peak(self.per_pair)

    @property
    def bound(self) -> float:
        return self.constant + self.inflation

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.bound

    def to_dict(self) -> dict:
        keys = ("theta", "constant", "inflation", "n_pairs", "max_ratio", "bound", "passed")
        return {key: getattr(self, key) for key in keys} | {"max_ratio": _written(self.max_ratio)}


def empirical_holder(
    cmap: ConjugacyMap,
    cert: HolderCertificate,
    xs: Sequence[StateVector] | Batch,
    ys: Sequence[StateVector] | Batch,
) -> HolderProbeReport:
    """Max displacement Holder ratio over point pairs within the quoted diameter.

    The pairs are (xs[i], ys[i]); each end is a sequence of points or a
    batch, and both ends hold the same number.  The reported bound is C plus
    an inflation term 2*E / min_distance^theta covering the maps' certified
    evaluation error E on both endpoints, so every pair point must lie where
    E is quoted (``cmap.covers``).
    """
    kind, xs, ys = cmap.op.norm_kind, _pack(cmap.op, xs), _pack(cmap.op, ys)
    if len(xs) != len(ys):
        raise ValueError(f"pair ends differ in length: {len(xs)} and {len(ys)} points")
    dists = row_norms(xs - ys, kind)
    far = dists > cert.domain_diameter * (1.0 + 1e-12)
    if far.any():
        raise ValueError(
            f"pair distance {float(dists[far][0])} exceeds the certificate diameter "
            f"{cert.domain_diameter}"
        )
    kept = dists.nonzero()[0]  # pairs of distinct points
    ends, k = _join(xs[kept], ys[kept]), len(kept)
    if not cmap.covers(ends):
        raise ValueError(f"pair point outside the map's eval_radius {cmap.eval_radius}")
    values = cmap._rows(ends)
    gaps = row_norms(values[:k] - values[k:], kind).tolist()
    kept_dists = dists[kept].tolist()
    ratios = [gap / dist**cert.theta for gap, dist in zip(gaps, kept_dists)]
    min_dist = min(kept_dists, default=math.inf)
    inflation = 2.0 * cmap.certified_error / min_dist**cert.theta if ratios else 0.0
    return HolderProbeReport(cert.theta, cert.C, inflation, ratios, values[:k])


@dataclass
class LinearizationProblem:
    """A nonlinear map with a generalized hyperbolic fixed point.

    ``func`` is the map F, ``fixed_point`` is p with F(p) = p, and
    ``derivative`` is the operator DF_p (validated generalized hyperbolic at
    construction of the operator).  ``nonlinearity_lip`` must return, for a
    radius rho, a certified Lipschitz constant of F(x + p) - p - DF_p x on
    the ball of radius rho.  ``batch``, if given, is F on the rows of a 2-d
    ``Batch``; without it F runs ``func`` on each row.  ``linearize``,
    ``verify`` and the check F(p) = p evaluate F only through ``_rows``,
    which reads the two fields when it is called.
    """

    func: Callable[[StateVector], StateVector]
    fixed_point: StateVector
    derivative: GHOperator
    gamma: float
    cutoff_r: float
    nonlinearity_lip: Callable[[float], float]
    theta: float | None = None
    batch: Callable[[Batch], Batch] | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (self.cutoff_r > 0.0 and math.isfinite(self.cutoff_r)):
            raise ValueError(f"cutoff_r must be positive and finite, got {self.cutoff_r}")
        p = pack([self.fixed_point])
        drift = row_norms(self._rows(p) - p, self.derivative.norm_kind)[0]
        if drift > 1e-10:
            raise ValueError(f"fixed point residual |F(p) - p| = {drift} exceeds 1e-10")

    def _rows(self, b: Batch) -> Batch:
        """F on the rows of b: the row form ``batch``, or ``func`` on each row without one."""
        return (_row_wise(self.func) if self.batch is None else self.batch)(b)


@dataclass
class LinearizationResult:
    """Output of the linearization workflow.

    ``backward`` conjugates the translated map into the derivative
    (H o G = T o H near 0) and is the production direction; ``forward`` is
    its inverse conjugacy.  The conjugacy with the original map holds on the
    ball of radius ``u_radius`` around the fixed point:
    linearized(F(y)) = T(linearized(y)) there, which ``verify`` checks on
    sample points against ``certified_residual_bound``.
    """

    problem: LinearizationProblem
    forward: ConjugacyMap
    backward: ConjugacyMap
    beta: Perturbation
    u_radius: float
    eps: float
    cert: HolderCertificate

    @property
    def fixed_point(self) -> StateVector:
        return self.problem.fixed_point

    def linearized(self, y: StateVector) -> StateVector:
        """Coordinates in which the map acts linearly: H(y - p) with H the backward map."""
        return eval_H_prime(self.backward, y - self.fixed_point)

    def verify(self, ys: Sequence[StateVector] | Batch) -> VerificationReport:
        """Residuals |H(F(y) - p) - DF_p(H(y - p))| with H the backward map, in one call.

        This is the backward map's identity check (``verify_conjugacy``) at
        the points y - p, with the images F(y) - p in place of
        (T + beta)(y - p); F is evaluated once, on all the points, through
        the problem's row form.  Checked against ``certified_residual_bound``;
        uncertified when F(y) - p or y - p leaves the map's ``eval_radius``.
        Meaningful inside ``u_radius``.
        """
        bwd, p = self.backward, pack([self.fixed_point])
        y = _pack(self.problem.derivative, ys)
        return _identity_check(bwd, *_identity_terms(bwd, y - p, self.problem._rows(y) - p))

    def conjugacy_residual(self, y: StateVector) -> float:
        """The residual of ``verify`` at one point y."""
        return self.verify([y]).per_point[0]

    @property
    def certified_residual_bound(self) -> float:
        """The bound of ``verify``: the backward map's identity bound."""
        return _identity_bound(self.backward)

    def report(self) -> dict:
        """The workflow's numbers; ``certified_residual_bound`` belongs to a check's report."""
        return {
            "u_radius": self.u_radius,
            "eps": self.eps,
            "gamma": self.problem.gamma,
            "theta": self.cert.theta,
            "C": self.cert.C,
        }


def linearize(
    problem: LinearizationProblem,
    policy: SeriesPolicy,
    picard_tol: float,
) -> LinearizationResult:
    """Conjugate a map to its derivative near a generalized hyperbolic fixed point.

    Chooses eps as the smaller of the admissible bound for gamma and
    0.9 / |T^{-1}|, then halves the cutoff radius until the cut
    nonlinearity fits under eps (both its Lipschitz constant, with the
    factor-3 cutoff inflation, and its sup bound), or stops once the radius
    falls below ``CUTOFF_R_MIN``.  The conjugacy with the original map is
    certified on the inner ball only, where the cutoff is the identity.
    """
    op = problem.derivative
    p = pack([problem.fixed_point])

    def nonlinearity(u: Batch) -> Batch:
        return problem._rows(u + p) - p - op.step(u)

    eps = min(admissible_eps(op, problem.gamma), 0.9 / op.norm_Tinv)
    r = problem.cutoff_r
    while True:
        lip_ball = problem.nonlinearity_lip(2.0 * r)
        if lip_ball < 0.0:
            raise ValueError("nonlinearity_lip must return nonnegative bounds")
        if 3.0 * lip_ball <= eps and 2.0 * r * lip_ball <= eps:
            break
        r *= 0.5
        if r < CUTOFF_R_MIN:
            raise ValueError(
                f"nonlinearity too steep: cutoff radius fell below {CUTOFF_R_MIN} "
                f"before its Lipschitz bound fit under eps = {eps}"
            )
    if lip_ball == 0.0:
        beta = zero_perturbation()
    else:
        zero = zero_like(problem.fixed_point)
        beta = cutoff(nonlinearity, lip_ball, CutoffProfile(r), op.norm_kind, zero=zero)
    forward = solve_conjugacy(op, beta, problem.gamma, policy, picard_tol)
    backward = solve_inverse_conjugacy(op, beta, policy)
    cert = _default_certificate(op, beta, min(2.0 * r, 0.999), problem.theta)
    return LinearizationResult(
        problem=problem,
        forward=forward,
        backward=backward,
        beta=beta,
        u_radius=r,
        eps=eps,
        cert=cert,
    )

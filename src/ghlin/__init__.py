"""Certified conjugacies and local linearization for generalized hyperbolic operators.

The library builds topological conjugacies between an invertible linear
operator with a generalized hyperbolic splitting and its small Lipschitz
perturbations, with certified per-evaluation error bounds, and applies the
construction to linearize nonlinear maps near generalized hyperbolic fixed
points, including Holder regularity certificates.
"""

from .vectors import (
    DenseVector,
    NormKind,
    SUP_NORM,
    SparseVector,
    StateVector,
    norm,
    vector_from_json,
    zero_like,
)
from .operators import (
    CertificationError,
    CriterionReport,
    GHOperator,
    MatrixOperator,
    ShiftOperator,
    WeightSpec,
    admissible_eps,
    check_shift_criterion,
    constants_report,
    make_matrix_operator,
    make_shift,
    operator_from_descriptor,
)
from .perturbations import (
    ContractionError,
    CutoffProfile,
    IterationLimitError,
    Perturbation,
    constant_perturbation,
    cutoff,
    perturbation_from_descriptor,
    perturbed_apply,
    saturating_perturbation,
    sine_perturbation,
    solve_perturbed_inverse,
    zero_perturbation,
)
from .conjugacy import (
    ConjugacyMap,
    InversePairReport,
    SeriesPolicy,
    VerificationReport,
    displacement_space_residual,
    eval_H,
    eval_H_prime,
    intertwining_solution,
    solve_conjugacy,
    solve_inverse_conjugacy,
    truncation_tail_bound,
    truncation_terms,
    verify_conjugacy,
    verify_inverse_pair,
)
from .linearize import (
    HolderCertificate,
    HolderProbeReport,
    LinearizationProblem,
    LinearizationResult,
    empirical_holder,
    holder_constant,
    linearize,
    make_holder_certificate,
    theta_bound,
)

__version__ = "0.1.0"

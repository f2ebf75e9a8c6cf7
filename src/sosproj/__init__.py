"""Weighted-l1 projections onto truncated SOS cones over semialgebraic sets.

Core pieces: sparse polynomial arithmetic, truncated moment sequences with
moment/localizing matrices, Gram parameterizations of truncated preorderings
and quadratic modules, a dense primal-dual interior-point SDP solver with
SDPA sparse export, canonical weighted-l1 projection, and certificate
searches for nonnegativity on the underlying set.
"""

from .polynomials import (
    Polynomial,
    WeightKind,
    WeightSequence,
    monomial_basis,
    parse_polynomial,
    weighted_norm,
)
from .moments import (
    BasisMatrixSet,
    MomentSequence,
    carleman_diagnostic,
    dual_norm,
    kmoment_condition_check,
    localizing_matrix,
    moment_matrix,
    riesz,
    support_nonnegativity_test,
)
from .cones import ConeKind, SemialgebraicSystem, build_truncation, gram_reconstruct
from .sdp import BlockKind, SdpProblem, SdpSolution, SdpStatus, SolverConfig, check_certificate, solve
from .sdpa_io import export_sdpa, parse_sdpa
from .projection import (
    ProjectionCertificate,
    ProjectionProblem,
    closure_probe,
    dual_moment_problem,
    project_general_form,
    project_lambda_form,
)
from .certificates import (
    MembershipResult,
    PerturbationKind,
    PsatzQuery,
    membership,
    psatz_search,
    seq_closure_probe,
)

__version__ = "0.1.0"

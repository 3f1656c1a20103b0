"""Numerical laboratory for the deformed Hermitian-Yang-Mills equation.

Modules: hermitian (small-matrix phase kernels), phase (supercritical
arithmetic and subsolution criteria), torus (spectral calculus on flat
tori), solver (Newton-Krylov continuity solver), surfaces (invariant
solvmanifold catalog), cli/fieldio/runconfig (batch interface).
"""

from . import errors
from .hermitian import (
    EigenSystem,
    SpectralDerivatives,
    dF,
    eig_pair,
    eigenvalue_derivatives,
    lagrangian_angle_det,
    spectral_function_derivatives,
    symmetrize,
    theta_arctan,
)
from .phase import (
    PhaseSpec,
    SubsolutionVerdict,
    csub_bounded_oracle,
    is_csub_pointwise,
    dichotomy_kappa_estimate,
)
from .solver import (
    DhymProblem,
    SolveReport,
    SolverConfig,
    continuity_solve,
    manufactured_problem,
    newton_solve,
    residual,
)
from .surfaces import (
    InvariantMetric,
    SurfaceModel,
    catalog,
    conformal_bound,
    csub_on_surface,
    trace_formula,
)
from .torus import (
    AngleResult,
    HermitianFormField,
    ScalarField,
    TorusGrid,
    constant_form_field,
    hat_theta,
    i_ddbar,
    identity_metric,
    isotropic_form_field,
    theta_field,
)

__version__ = "0.1.0"

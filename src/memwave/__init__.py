"""memwave: spectrum, gap and boundary-observability diagnostics for the
wave equation with an exponential memory kernel on the square (0, pi)^2.

The package computes closed-form characteristic roots per Fourier mode,
audits the spectral gap inequalities with the explicit constant gamma(beta),
evaluates weighted lower bounds for finite exponential sums, recovers mode
coefficients from initial data, and assembles the inverse observability
verdict (boundary-trace energy vs weighted coefficient sum) with the
proof-extracted constants c0, T0 and beta0.

Importing the package before numpy loads defaults OPENBLAS_THREAD_TIMEOUT to 4
in the environment, which child processes inherit: each idle thread of
numpy's bundled OpenBLAS then busy-waits 2^4 cycles before it sleeps, not
its default 2^28, which spent about a third of an import's CPU on a pool of
two.  A value already set is kept.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
del _os, _sys

from .errors import (
    AuditFailure,
    CertificationFailure,
    ComplexRegime,
    DegenerateExponents,
    DegenerateMode,
    GridTooCoarse,
    HypothesisError,
    InputError,
    MemwaveError,
    MonotonicityFailure,
    NegativeRadicand,
    NoUsableModes,
    NotPositiveWarning,
    OutOfRange,
    ParseError,
    PoleError,
    PreconditionViolated,
    RealityViolation,
    RegimeError,
    ThetaOutOfRange,
    ValidationError,
)
from .spectrum import (
    BETA_MAX,
    KernelParams,
    SpectralTriple,
    characteristic_roots,
    laplace_eigenvalue,
    mode_spectrum,
    phi_psi,
    vieta_residuals,
)
from .gap_analysis import (
    GapAudit,
    GapConstant,
    audit_gaps,
    freq_scale,
    freq_scale_parts,
    gap_constant,
    sqrt_gap_bound,
    verify_scale_decreasing,
)
from .ingham import (
    ExponentFamily,
    InghamBoundReport,
    Violation,
    check_hypotheses,
    constant_S,
    energy_integral,
    energy_lower_bound,
    exp_integral,
    kernel_decay_bound,
    pairwise_exponential_energy,
    sine_window,
    window_kernel,
    windowed_moment,
)
from .modes import (
    InitialData,
    ModeCoefficients,
    ModeExpansion,
    MuEstimate,
    estimate_mu,
    evaluate_solution,
    evaluate_solution_grid,
    expand,
    mu_from_expansion,
    sine_coefficients,
    solve_mode_coefficients,
)
from .observability import (
    ObservabilityConfig,
    ObservabilityReport,
    boundary_trace_energy,
    observability_constant,
    thresholds,
    verify_observability,
    weighted_coefficient_sum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MemwaveError", "InputError", "CertificationFailure", "NegativeRadicand",
    "ComplexRegime", "PreconditionViolated", "OutOfRange", "RegimeError",
    "AuditFailure", "MonotonicityFailure", "PoleError", "HypothesisError",
    "GridTooCoarse", "DegenerateExponents", "RealityViolation", "NoUsableModes",
    "DegenerateMode", "ThetaOutOfRange", "ParseError", "ValidationError",
    "NotPositiveWarning",
    # spectrum
    "BETA_MAX", "KernelParams", "SpectralTriple", "laplace_eigenvalue",
    "phi_psi", "characteristic_roots", "vieta_residuals",
    "mode_spectrum",
    # gap analysis
    "GapConstant", "GapAudit", "sqrt_gap_bound", "freq_scale_parts",
    "freq_scale", "gap_constant", "audit_gaps", "verify_scale_decreasing",
    # exponential-sum bounds
    "ExponentFamily", "InghamBoundReport", "Violation", "sine_window",
    "window_kernel", "windowed_moment", "kernel_decay_bound", "exp_integral",
    "pairwise_exponential_energy", "energy_integral", "constant_S",
    "check_hypotheses", "energy_lower_bound",
    # modes
    "InitialData", "ModeCoefficients", "ModeExpansion", "MuEstimate",
    "sine_coefficients", "solve_mode_coefficients", "expand",
    "evaluate_solution", "evaluate_solution_grid", "estimate_mu",
    "mu_from_expansion",
    # observability
    "ObservabilityConfig", "ObservabilityReport", "thresholds",
    "observability_constant", "boundary_trace_energy",
    "weighted_coefficient_sum", "verify_observability",
]

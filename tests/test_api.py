"""The public API: every exported name, pinned.

A name leaving `__all__` (or one that no longer resolves) fails here, so a
removal is a deliberate edit of this list, not a silent side effect.
"""

import pytest

import memwave
import memwave.cli

PACKAGE_API = {
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
    "phi_psi", "phi_psi_limiting", "characteristic_roots",
    "characteristic_roots_numeric", "vieta_residuals", "mode_spectrum",
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
}

CLI_API = {"load_config", "parse_and_dispatch", "main"}


@pytest.mark.parametrize("module,expected", [(memwave, PACKAGE_API), (memwave.cli, CLI_API)],
                         ids=["memwave", "memwave.cli"])
def test_public_names_are_pinned_and_resolve(module, expected):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == expected
    for name in module.__all__:
        getattr(module, name)

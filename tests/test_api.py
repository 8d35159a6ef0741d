"""The public API: every exported name, pinned.

A name leaving `__all__` (or one that no longer resolves) fails here, so a
removal is a deliberate edit of this list, not a silent side effect.  So does
a function whose spans the benchmark reads (`BENCHMARK.json`, per-layer
metrics named `<module>.<function>.<stat>`): its tracer wraps only public
module-level functions, and a metric of a function that is gone reads null.
"""

import importlib
import inspect
import json
from pathlib import Path

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
    "phi_psi", "phi_psi_limiting", "characteristic_roots", "vieta_residuals",
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
}

CLI_API = {"load_config", "parse_and_dispatch", "main"}


@pytest.mark.parametrize("module,expected", [(memwave, PACKAGE_API), (memwave.cli, CLI_API)],
                         ids=["memwave", "memwave.cli"])
def test_public_names_are_pinned_and_resolve(module, expected):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == expected
    for name in module.__all__:
        getattr(module, name)


def _traced_functions():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [metric["name"].split(".") for metric in spec["per_layer"]]
    return sorted({(parts[0], parts[1]) for parts in names if len(parts) == 3})


@pytest.mark.parametrize("module,function", _traced_functions(),
                         ids=lambda name: name)
def test_benchmark_traced_function_exists(module, function):
    mod = importlib.import_module(f"memwave.{module}")
    obj = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj), f"memwave.{module}.{function} is not a function"
    assert obj.__module__ == mod.__name__, f"{function} is defined in {obj.__module__}"

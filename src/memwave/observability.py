"""Boundary observability verdict: trace energy vs weighted coefficient sum.

For the limiting regime eta = 3*beta/2 the boundary trace over
Gamma = (0,pi)x{0} union {0}x(0,pi) reduces to one-dimensional exponential-sum
energies per mode row and column:

    integral_0^T integral_Gamma |du/dnu|^2
        = (pi/2) * sum_{k1} integral_0^T | sum_{k2} k2 * x_{k1 k2}(t) |^2 dt
        + (pi/2) * sum_{k2} integral_0^T | sum_{k1} k1 * x_{k1 k2}(t) |^2 dt,

with x_{k1 k2}(t) = C e^{i omega t} + conj(C) e^{-i conj(omega) t} + R e^{r t}.
Each row/column integral is evaluated exactly (no time quadrature in the
verdict path) as a quadratic form in the closed-form Gram entries
G_ab = integral_0^T e^{(s_a + s_b) t} dt = (e^{s_a T} e^{s_b T} - 1)/(s_a + s_b)
of its exponents, written in the Cauchy form K_ab = 1/(s_a + s_b) (see
ingham._real_signal_energies).  Row k and column k have the same exponents,
so both forms of an index share each tile of K, evaluated in tiles of at
most a fixed number of entries: O(kmax^2) memory, O(kmax^3) time in all.

The verdict compares this trace energy with

    c0 * sum_{k1,k2} (k1^2 + k2^2) |C|^2 (1 + e^{-2 Im omega T}),

using the proof-extracted constants

    S     = mu * max(zeta(2*theta), pi^2/6),
    c0    = (T*pi^2/2) * ( 1/(pi^2 + T^2*beta^2) - 4*(4 + 3*S)/(T^2*gamma^2) ),
    T0    = 2*pi*sqrt( (4 + 3*S) / (gamma^2 - 4*(4 + 3*S)*beta^2) ),
    beta0 = largest b in (0, 2/sqrt(3)] with gamma(b)^2 - 4*(4 + 3*S)*b^2 > 0.

These constants are extracted from a sufficiency proof and may be far from
sharp; runs with T <= T0 are permitted but flagged `below_threshold` rather
than read as counterexamples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotPositiveWarning, OutOfRange, ThetaOutOfRange
from .gap_analysis import _check_beta, gap_constant
from .ingham import _ENERGY_SLACK, _check_horizon, _real_signal_energies, constant_S
from .modes import InitialData, ModeExpansion, expand, mu_from_expansion
from .spectrum import BETA_MAX, KernelParams, _require_symmetric

__all__ = [
    "ObservabilityConfig",
    "ObservabilityReport",
    "constant_S",
    "thresholds",
    "observability_constant",
    "boundary_trace_energy",
    "weighted_coefficient_sum",
    "verify_observability",
]

PI = math.pi


@dataclass(frozen=True)
class ObservabilityConfig:
    """Inputs of an observability run (limiting regime, eta = 3*beta/2 implied)."""

    beta: float
    T: float
    kmax: int
    mu: Optional[float] = None
    theta: float = 1.0

    def __post_init__(self):
        _check_beta(self.beta)
        _check_horizon(self.T)
        if self.kmax < 1:
            raise OutOfRange(f"kmax must be >= 1, got {self.kmax}")
        if self.theta <= 0.5:
            raise ThetaOutOfRange(f"theta must be > 1/2, got {self.theta}")
        if self.mu is not None and not self.mu > 0.0:
            raise OutOfRange(f"mu must be > 0 when supplied, got {self.mu}")


@dataclass(frozen=True)
class ObservabilityReport:
    """Both sides of the trace-energy inequality, its constants, and the verdict.

    Field order is the key order of the `observe` CLI report.
    """

    beta: float
    T: float
    kmax: int
    theta: float
    mu: float
    gamma: float
    S: float
    c0: float
    T0: float
    beta0: float
    lhs: float
    rhs_sum: float
    margin: float
    verdict: bool
    below_threshold: bool
    infeasible: bool


def thresholds(beta: float, mu: float, theta: float = 1.0):
    """Proof-extracted (beta0, T0) for the given mu and theta.

    beta0 is the unique crossing of gamma(b)^2 - 4*(4+3*S)*b^2 on (0, 2/sqrt(3)]
    (bisection to 1e-10; the function is strictly decreasing).  T0 is evaluated
    at the given beta and is +inf when that beta is already infeasible; a
    feasible beta whose T0 overflows (huge mu) is rejected with OutOfRange.
    """
    _check_beta(beta)
    beta0, [t0], _ = _thresholds([beta], mu, constant_S(mu, theta))
    return beta0, t0


def _thresholds(betas, mu: float, S: float) -> tuple:
    """beta0, and the lists of T0 and of gamma at each of `betas`, for
    S = constant_S(mu, theta): one bisection, as beta0 depends on S alone (see
    `thresholds`)."""
    coeff = 4.0 * (4.0 + 3.0 * S)

    def height(b: float, gamma: float) -> float:
        return gamma ** 2 - coeff * b * b

    # height(2/sqrt(3)) <= (sqrt(2) - 1)^2 - 16*4/3 < 0, so (0, 2/sqrt(3)] brackets the root
    lo, hi = 0.0, BETA_MAX
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if height(mid, gap_constant(mid).gamma) > 0.0:
            lo = mid
        else:
            hi = mid
    t0, gammas = [], [gap_constant(beta).gamma for beta in betas]
    for beta, gamma in zip(betas, gammas):
        denom = height(beta, gamma)
        if denom <= 0.0:
            t0.append(math.inf)
            continue
        t0.append(2.0 * PI * math.sqrt((4.0 + 3.0 * S) / denom))
        if not math.isfinite(t0[-1]):
            raise OutOfRange(f"mu={mu} makes T0 overflow at beta={beta}")
    return 0.5 * (lo + hi), t0, gammas


def observability_constant(T: float, beta: float, S: float) -> float:
    """The explicit constant c0(T); positive exactly when T exceeds the threshold.

    The value is returned even when nonpositive, flagged with a
    NotPositiveWarning (time horizon at or below the threshold).  A horizon
    for which c0 is not finite is rejected with OutOfRange.
    """
    value = _observability_constant(T, beta, S, gap_constant(beta).gamma)
    if value <= 0.0:
        warnings.warn(
            f"observability constant is nonpositive ({value}); "
            f"T={T} is at or below the threshold for beta={beta}",
            NotPositiveWarning,
            stacklevel=2,
        )
    return value


def _observability_constant(T: float, beta: float, S: float, gamma: float) -> float:
    """c0(T) for the gamma of `beta`, unflagged; OutOfRange when it is not finite."""
    _check_horizon(T)
    value = (T * PI * PI / 2.0) * (
        1.0 / (PI * PI + T * T * beta * beta)
        - 4.0 * (4.0 + 3.0 * S) / (T * T * gamma * gamma)
    )
    _check_horizon(T, c0=value)
    return value


def boundary_trace_energy(expansion: ModeExpansion, T: float) -> float:
    """Exact integral_0^T integral_Gamma |du/dnu|^2 for the truncated series.

    One exponential-sum energy per mode row (side y = 0, weights k2) plus one
    per column (side x = 0, weights k1).  Row k and column k share their
    exponents, since `mode_spectrum` makes omega and r symmetric in (k1, k2):
    both signals of index k ride on one set of exponents in one call of
    ingham._real_signal_energies.  An asymmetric expansion is an AuditFailure
    naming the first asymmetric mode.  The parts are summed by math.fsum, so
    the result does not depend on their order.
    """
    _check_horizon(T)
    C, R, omega, r = expansion.C, expansion.R, expansion.omega, expansion.r
    _require_symmetric("omega or r", omega, r)
    k = np.arange(1, expansion.kmax + 1, dtype=float)
    # set i carries row i (weights k2) and column i (weights k1)
    parts = _real_signal_energies(omega, r, np.stack([C * k, (C * k[:, None]).T], axis=-1),
                                  np.stack([R * k, (R * k[:, None]).T], axis=-1), T)
    return (PI / 2.0) * math.fsum(parts.ravel())


def weighted_coefficient_sum(expansion: ModeExpansion, T: float) -> float:
    """sum over modes of (k1^2 + k2^2) |C|^2 (1 + e^{-2 Im omega T})."""
    weights = np.abs(expansion.C) ** 2 * (1.0 + np.exp(-2.0 * expansion.omega.imag * T))
    return float(np.sum(expansion.lam * weights))


def _sides(expansion: ModeExpansion, T: float, c0: float) -> tuple:
    """(lhs, rhs_sum, margin) of the inequality, overflowing to inf silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            lhs = boundary_trace_energy(expansion, T)
        except OverflowError:  # math.fsum of finite parts
            lhs = math.inf
        rhs_sum = weighted_coefficient_sum(expansion, T)
    return lhs, rhs_sum, lhs - c0 * rhs_sum


def verify_observability(config: ObservabilityConfig, data: InitialData) -> ObservabilityReport:
    """Assemble the full verdict for one configuration and data set.

    mu defaults to the empirical estimate from the expansion when not supplied.
    Verdict is True iff margin >= -1e-9*(1 + lhs), T > T0 and beta < beta0;
    an infeasible beta (beta >= beta0) still produces a report, with
    verdict False and T0 = +inf.
    """
    params = KernelParams.limiting_regime(config.beta)
    expansion = expand(params, data, config.kmax)
    mu = config.mu if config.mu is not None else mu_from_expansion(expansion).mu_hat
    S = constant_S(mu, config.theta)
    beta0, [t0], [gamma] = _thresholds([config.beta], mu, S)
    c0 = _observability_constant(config.T, config.beta, S, gamma)
    lhs, rhs_sum, margin = _sides(expansion, config.T, c0)
    if not all(map(math.isfinite, (lhs, rhs_sum, margin))):
        # Both sides are quadratic in the data: if the data scaled to a peak
        # of about 1 (by a power of 2) gives finite ones, its scale is the cause.
        peak = max(np.abs(data.a).max(), np.abs(data.b).max())
        scale = 2.0 ** -math.frexp(peak)[1]
        scaled = InitialData(a=data.a * scale, b=data.b * scale, kmax=data.kmax)
        if all(map(math.isfinite, _sides(expand(params, scaled, config.kmax), config.T, c0))):
            raise OutOfRange(
                f"initial data: lhs={lhs}, rhs_sum={rhs_sum}, margin={margin} overflow "
                f"float64; the data's scale (peak coefficient {peak}) is too large")
    below_threshold = not (config.T > t0)
    infeasible = config.beta >= beta0
    verdict = (
        margin >= -_ENERGY_SLACK * (1.0 + lhs) and not below_threshold and not infeasible
    )
    return ObservabilityReport(
        lhs=lhs,
        rhs_sum=rhs_sum,
        S=S,
        c0=c0,
        T0=t0,
        beta0=beta0,
        margin=margin,
        verdict=verdict,
        gamma=gamma,
        mu=mu,
        below_threshold=below_threshold,
        infeasible=infeasible,
        beta=config.beta,
        T=config.T,
        kmax=config.kmax,
        theta=config.theta,
    )

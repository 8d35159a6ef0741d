"""Per-mode exponents of the wave equation with an exponentially decaying memory kernel.

Each Fourier mode sin(k1*x)*sin(k2*y) on the square (0,pi)^2 evolves with three
exponents: a complex-conjugate pair parameterized by omega and a real decaying
root r.  They are the roots of the characteristic cubic

    z^3 + eta*z^2 + lam*z + (eta - beta)*lam = 0,      lam = k1^2 + k2^2,

obtained by differentiating the mode equation x'' + lam*x =
beta*lam * integral of exp(-eta*(t-s)) x(s) ds.  For eta >= 3*beta/2 the cubic
has closed-form roots built from two real cube roots:

    Lam_minus = cbrt(Phi - Psi) / 2,   Lam_plus = cbrt(Phi + Psi) / 2,
    Re omega = sqrt(lam) * (Lam_minus + Lam_plus),
    Im omega = sqrt(lam) * (Lam_minus - Lam_plus) / sqrt(3) + eta/3,
    r        = 2 * sqrt(lam) * (Lam_minus - Lam_plus) / sqrt(3) - eta/3,

with

    Phi = sqrt(1 + (2*eta^2 + 27*beta^2/4 - 9*eta*beta)/lam + eta^3*(eta-beta)/lam^2),
    Psi = eta^3 / (3*sqrt(3*lam^3)) + (eta - 3*beta/2) * sqrt(3)/sqrt(lam).

The module also carries Vieta residuals as a consistency certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AuditFailure, ComplexRegime, InputError, NegativeRadicand, OutOfRange

__all__ = [
    "KernelParams",
    "SpectralTriple",
    "laplace_eigenvalue",
    "phi_psi",
    "phi_psi_limiting",
    "characteristic_roots",
    "vieta_residuals",
    "mode_spectrum",
]

SQRT3 = math.sqrt(3.0)

#: Largest kernel amplitude for which the limiting-regime gap analysis applies.
BETA_MAX = 2.0 / SQRT3


@dataclass(frozen=True)
class KernelParams:
    """Memory-kernel parameters of k(t) = beta * exp(-eta*t).

    Requires beta >= 0 and eta >= 3*beta/2 (up to rounding slack); the
    `limiting` flag is True exactly when eta equals 3*beta/2 in floating point.
    """

    beta: float
    eta: float

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise InputError(f"beta must be finite and >= 0, got {self.beta}")
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise InputError(f"eta must be finite and >= 0, got {self.eta}")
        # rounding slack so decimal inputs like (0.1, 0.15) stay admissible
        if self.eta < 1.5 * self.beta - 1e-12 * max(1.0, self.eta):
            raise InputError(
                f"eta must be >= 3*beta/2, got eta={self.eta}, beta={self.beta}"
            )

    @property
    def limiting(self) -> bool:
        return self.eta == 1.5 * self.beta

    @classmethod
    def limiting_regime(cls, beta: float) -> "KernelParams":
        """Parameters on the line eta = 3*beta/2."""
        return cls(beta=beta, eta=1.5 * beta)


@dataclass(frozen=True)
class SpectralTriple:
    """Closed-form exponents of one mode: roots {i*omega, -i*conj(omega), r}."""

    omega: complex
    r: float
    phi: float
    psi: float
    lam_minus: float
    lam_plus: float

    def roots(self) -> tuple[complex, complex, complex]:
        """The three cubic roots, conjugate pair (positive imaginary part first) then r."""
        return 1j * self.omega, -1j * self.omega.conjugate(), complex(self.r)


def laplace_eigenvalue(k1: int, k2: int) -> float:
    """Dirichlet Laplacian eigenvalue k1^2 + k2^2 of the mode (k1, k2)."""
    if k1 < 1 or k2 < 1 or k1 != int(k1) or k2 != int(k2):
        raise InputError(f"mode indices must be integers >= 1, got ({k1}, {k2})")
    return float(k1 * k1 + k2 * k2)


def phi_psi(params: KernelParams, lam: float):
    """Cube-root arguments (Phi, Psi) of the closed-form roots at eigenvalue lam.

    Works for scalar or ndarray lam.  Raises NegativeRadicand if the Phi
    radicand is negative, which cannot happen for eta >= 3*beta/2 (the radicand
    is then bounded below by 1/4) but guards out-of-regime sweeps, and
    OutOfRange if a huge eta overflows Phi or Psi.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise InputError("lam must be > 0")
    beta, eta = params.beta, params.eta
    with np.errstate(over="ignore"):
        eta3 = np.float64(eta) ** 3  # inf, not OverflowError, past 5.6e102
        mid = 2.0 * eta * eta + 6.75 * beta * beta - 9.0 * eta * beta
        radicand = 1.0 + mid / lam + eta3 * (eta - beta) / lam**2
        psi = eta3 / (3.0 * np.sqrt(3.0 * lam**3)) + (eta - 1.5 * beta) * SQRT3 / np.sqrt(lam)
    if np.any(radicand < 0.0):
        bad = np.min(lam[np.asarray(radicand < 0.0)]) if radicand.ndim else float(lam)
        raise NegativeRadicand(f"Phi radicand negative at lam={bad}")
    if not (np.isfinite(radicand).all() and np.isfinite(psi).all()):
        raise OutOfRange(f"eta={eta} overflows Phi or Psi of the closed-form roots")
    phi = np.sqrt(radicand)
    if lam.ndim == 0:
        return float(phi), float(psi)
    return phi, psi


def phi_psi_limiting(beta: float, lam: float):
    """Specialized (Phi, Psi) on the line eta = 3*beta/2.

    Must agree with the general form to machine precision; kept as a separate
    evaluation path for consistency checks.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise InputError("lam must be > 0")
    radicand = 1.0 - 2.25 * beta * beta / lam + 1.6875 * beta**4 / lam**2
    if np.any(radicand < 0.0):
        raise NegativeRadicand(f"Phi radicand negative at beta={beta}")
    phi = np.sqrt(radicand)
    psi = 0.375 * SQRT3 * beta**3 / lam**1.5
    if lam.ndim == 0:
        return float(phi), float(psi)
    return phi, psi


def _closed_form_roots(params: KernelParams, lam):
    """Elementwise core of the closed-form roots at scalar or array lam:
    (omega, r, phi, psi, lam_minus, lam_plus), each shaped like lam.

    Real cube roots are taken with np.cbrt (sign-safe near phi = psi); phi < psi
    is rejected with ComplexRegime rather than switching to a complex branch.
    """
    phi, psi = phi_psi(params, lam)
    if np.any(phi < psi):
        worst = np.unravel_index(int(np.argmax(psi - phi)), np.shape(lam))
        raise ComplexRegime(f"phi < psi at lam={np.asarray(lam)[worst]}: "
                            "roots leave the real-cube-root configuration")
    lam_minus = 0.5 * np.cbrt(phi - psi)
    lam_plus = 0.5 * np.cbrt(phi + psi)
    sq = np.sqrt(lam)
    diff = lam_minus - lam_plus
    omega = sq * (lam_minus + lam_plus) + 1j * (sq * diff / SQRT3 + params.eta / 3.0)
    r = 2.0 * sq * diff / SQRT3 - params.eta / 3.0
    return omega, r, phi, psi, lam_minus, lam_plus


def characteristic_roots(params: KernelParams, lam: float) -> SpectralTriple:
    """Closed-form spectral triple of one mode: a scalar view of
    `_closed_form_roots`, the core of `mode_spectrum`, so it matches the
    lattice bit for bit (and also accepts a lam off the lattice)."""
    omega, r, phi, psi, lam_minus, lam_plus = _closed_form_roots(params, lam)
    return SpectralTriple(
        omega=complex(omega), r=float(r), phi=float(phi), psi=float(psi),
        lam_minus=float(lam_minus), lam_plus=float(lam_plus),
    )


def vieta_residuals(triple: SpectralTriple, params: KernelParams, lam: float):
    """Absolute residuals of the three Vieta identities for the triple's roots.

    Returns (|e1 + eta|, |e2 - lam|, |e3 + (eta-beta)*lam|) where e1, e2, e3
    are the elementary symmetric functions of {i*omega, -i*conj(omega), r}.
    """
    return _vieta_residuals(*triple.roots(), params, lam)


def _vieta_residuals(z1, z2, z3, params: KernelParams, lam):
    """Elementwise core of `vieta_residuals`: roots and lam may be scalars or arrays."""
    e1 = z1 + z2 + z3
    e2 = z1 * z2 + z1 * z3 + z2 * z3
    e3 = z1 * z2 * z3
    return (
        abs(e1 + params.eta),
        abs(e2 - lam),
        abs(e3 + (params.eta - params.beta) * lam),
    )


def mode_spectrum(params: KernelParams, kmax: int):
    """Vectorized closed-form spectrum of all modes with k1, k2 <= kmax.

    Returns (lam, omega, r) as (kmax, kmax) arrays indexed [k1-1, k2-1], from
    `_closed_form_roots` (also behind `characteristic_roots`).  lam is symmetric
    and the core elementwise, so omega and r are exactly symmetric in (k1, k2).
    """
    if kmax < 1:
        raise InputError("kmax must be >= 1")
    k = np.arange(1, kmax + 1, dtype=float)
    lam = k[:, None] ** 2 + k[None, :] ** 2
    omega, r = _closed_form_roots(params, lam)[:2]
    return lam, omega, r


def _require_symmetric(name: str, *grids) -> None:
    """Raise AuditFailure naming the first mode (k1, k2), row by row, at which
    one of the (kmax, kmax) grids differs from its transpose; `name` names
    the grids.  Grids from `mode_spectrum` always pass."""
    asymmetric = np.logical_or.reduce([grid != grid.T for grid in grids])
    if asymmetric.any():
        k1, k2 = np.unravel_index(int(np.argmax(asymmetric)), asymmetric.shape)
        raise AuditFailure(f"{name} is not symmetric in (k1, k2) at mode ({k1 + 1}, {k2 + 1})",
                           datum=(int(k1) + 1, int(k2) + 1))

"""Mode-coefficient recovery and truncated series evaluation.

The truncated solution is

    u(t,x,y) = sum_{k1,k2 <= kmax} ( C e^{i omega t} + conj(C) e^{-i conj(omega) t}
                                     + R e^{r t} ) sin(k1 x) sin(k2 y),

where per mode (C, R) are pinned by three initial conditions on the mode
amplitude x(t):

    x(0) = a,   x'(0) = b,   x''(0) = -lam * a,

the last one forced by the mode equation at t = 0 (the memory integral
vanishes there).  These pin the three coefficients of a 3x3 Vandermonde system
in the exponents {i*omega, -i*conj(omega), r}, whose inverse has a closed form
(Lagrange interpolation; Bjorck and Pereyra, Math. Comp. 24, 1970).  The
exponent pair is conjugate and r is real, so the solution is
conjugate-symmetric: C is the coefficient of e^{i omega t}, and R is real and
computed in real arithmetic.

Initial data enters as sine coefficients, extracted exactly from uniform-grid
samples by a type-I discrete sine transform, computed as two matrix products
with a cached table of sines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DegenerateExponents,
    DegenerateMode,
    GridTooCoarse,
    InputError,
    NoUsableModes,
    RealityViolation,
)
from .spectrum import KernelParams, SpectralTriple, mode_spectrum

__all__ = [
    "InitialData",
    "ModeCoefficients",
    "ModeExpansion",
    "MuEstimate",
    "sine_coefficients",
    "solve_mode_coefficients",
    "expand",
    "evaluate_solution",
    "evaluate_solution_grid",
    "estimate_mu",
    "mu_from_expansion",
]

#: Exponent-separation threshold below which the coefficient solve is rejected.
_DEGENERATE_TOL = 1e-10

#: |C| below this counts as a vanishing oscillatory coefficient.
_C_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class InitialData:
    """Sine coefficients (a, b) of the initial displacement and velocity."""

    a: np.ndarray
    b: np.ndarray
    kmax: int

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        expected = (self.kmax, self.kmax)
        if self.a.shape != expected or self.b.shape != expected:
            raise InputError(
                f"coefficient arrays must have shape {expected}, "
                f"got {self.a.shape} and {self.b.shape}"
            )
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise InputError("coefficient arrays must be finite")

    @classmethod
    def from_samples(cls, u0_values, u1_values, kmax: int) -> "InitialData":
        """Build initial data from uniform interior-grid samples of u0 and u1."""
        return cls(
            a=sine_coefficients(u0_values, kmax),
            b=sine_coefficients(u1_values, kmax),
            kmax=kmax,
        )


@dataclass(frozen=True)
class ModeCoefficients:
    """Recovered coefficients of one mode."""

    C: complex
    R: float


@dataclass(frozen=True)
class ModeExpansion:
    """Spectrum and coefficients of every mode k1, k2 <= kmax, indexed [k1-1, k2-1]."""

    params: KernelParams
    kmax: int
    lam: np.ndarray
    omega: np.ndarray
    r: np.ndarray
    C: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class MuEstimate:
    """Empirical amplitude-ratio constant: max over modes of |R|*sqrt(lam)/|C|."""

    mu_hat: float
    argmax_mode: Tuple[int, int]
    kmax: int


def sine_coefficients(values, kmax: int) -> np.ndarray:
    """Sine coefficients a[k1-1, k2-1] from samples on the uniform interior grid.

    `values[i, j]` holds the sample at (x_{i+1}, y_{j+1}) with x_i = i*pi/(M+1)
    on an M x M grid, M >= 2*kmax + 1.  The type-I DST quadrature is exact for
    sine polynomials of degree <= M, so coefficients of band-limited data come
    out to rounding error.  The transform is S @ values @ S.T / ((M+1)^2 / 4)
    with the kmax x M sine table S of `_sine_table`: two BLAS products and one
    correctly rounded division, whose rounding error is bounded by
    gamma_{2M+1} |S| |values| |S|^T (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3) plus the table's own error;
    `tests/conftest.py::sine_coefficient_bound` states the bound, and the
    tests hold the result to it.  The last bits depend on the BLAS kernel and
    its thread count; the command line pins one thread.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InputError(f"expected a square 2-D sample grid, got shape {values.shape}")
    m = values.shape[0]
    if kmax < 1:
        raise InputError("kmax must be >= 1")
    if m < 2 * kmax + 1:
        raise GridTooCoarse(
            f"grid of {m} points per direction cannot resolve kmax={kmax}; "
            f"need at least {2 * kmax + 1}"
        )
    sines = _sine_table(m, kmax)
    return sines @ values @ sines.T / ((m + 1) ** 2 / 4)  # an exact divisor


@lru_cache(maxsize=1)
def _sine_table(m: int, kmax: int) -> np.ndarray:
    """The read-only kmax x M table S[k-1, n-1] = sin(pi j / (M+1)), j = k*n mod
    2(M+1).  The last one made is kept, so both grids of an op and the later
    ops of the same sizes share it.  The argument is folded into [0, pi/2]
    exactly, in integers: sin(pi j/(M+1)) is odd about j = M+1 and even about
    j = (M+1)/2."""
    k = np.arange(1, kmax + 1)
    j = np.outer(k, np.arange(1, m + 1)) % (2 * (m + 1))
    folded = j % (m + 1)
    table = np.sin(np.pi * np.minimum(folded, m + 1 - folded) / (m + 1))
    np.negative(table, out=table, where=j > m + 1)
    table.flags.writeable = False
    return table


def _solve_coefficients(z1, r, a, b, lam):
    """Core of the coefficient solves: the closed-form inverse of the 3x3
    Vandermonde system in the exponents z1 = i*omega, z2 = conj(z1) and real r,
    batched.  x(t) = C e^{z1 t} + conj(C) e^{z2 t} + R e^{r t} meets
    x(0) = a, x'(0) = b, x''(0) = -lam*a when

        C = (-lam*a - (z2 + r) b + z2 r a) / ((z1 - z2)(z1 - r)),
        R = ((|z1|^2 - lam) a - 2 Re(z1) b) / |z1 - r|^2.

    z1, r, a, b and lam share one shape, a (kmax, kmax) grid or a scalar;
    (C, R) come back in it.  Exponents closer than _DEGENERATE_TOL, by the
    denominators' factors |z1 - z2| = 2|Im z1| and |z1 - r| = |z2 - r|, are
    rejected (DegenerateExponents).  So is a solution that does not reproduce
    the data (RealityViolation): the backward residuals of x(0), x'(0) and
    x''(0) must lie within 1e-10 max(1, |a|, |b|) times 1, sqrt(lam) and lam.
    """
    shape = np.shape(a)
    z1, r, a, b, lam = (np.reshape(x, -1) for x in (z1, r, a, b, lam))

    def at_mode(flat: int) -> str:
        if not shape:
            return ""
        k1, k2 = np.unravel_index(flat, shape)
        return f" at mode ({k1 + 1}, {k2 + 1})"

    x, y = z1.real, z1.imag
    dx = x - r
    square_gap = dx * dx + y * y  # |z1 - r|^2
    min_gap = np.minimum(2.0 * np.abs(y), np.sqrt(square_gap))
    if np.any(min_gap <= _DEGENERATE_TOL):
        worst = int(np.argmin(min_gap))
        raise DegenerateExponents(
            f"exponents too close{at_mode(worst)}: min gap {min_gap[worst]}"
        )

    z2 = z1.conj()
    C = ((z2 * r - lam) * a - (z2 + r) * b) / (2j * y * (z1 - r))
    R = ((x * x + y * y - lam) * a - 2.0 * x * b) / square_gap

    # the largest backward residual of x(0), x'(0)/sqrt(lam) and x''(0)/lam
    Cz1 = C * z1
    residual = np.maximum(np.maximum(
        np.abs(2.0 * C.real + R - a),
        np.abs(2.0 * Cz1.real + R * r - b) / np.sqrt(lam)),
        np.abs(2.0 * (Cz1 * z1).real + R * r * r + lam * a) / lam)
    tol = 1e-10 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    if np.any(residual > tol):
        worst = int(np.argmax(residual / tol))
        raise RealityViolation(
            f"solution does not reproduce the initial data{at_mode(worst)}: "
            f"scaled residual {residual[worst]} > {tol[worst]}"
        )
    return C.reshape(shape), R.real.reshape(shape)


def solve_mode_coefficients(
    a: float, b: float, triple: SpectralTriple, lam: float
) -> ModeCoefficients:
    """Recover (C, R) of one mode from x(0) = a, x'(0) = b, x''(0) = -lam*a:
    a scalar view of `_solve_coefficients`, the core of `expand`."""
    z1, _, r = triple.roots()
    C, R = _solve_coefficients(z1, r.real, a, b, lam)
    return ModeCoefficients(C=complex(C), R=float(R))


def expand(params: KernelParams, data: InitialData, kmax: Optional[int] = None) -> ModeExpansion:
    """Recover coefficients of every mode k1, k2 <= kmax: `mode_spectrum`, then
    the closed-form solves of `_solve_coefficients` (also behind
    `solve_mode_coefficients`)."""
    if kmax is None:
        kmax = data.kmax
    if kmax < 1 or kmax > data.kmax:
        raise InputError(f"kmax must lie in [1, {data.kmax}], got {kmax}")
    lam, omega, r = mode_spectrum(params, kmax)
    C, R = _solve_coefficients(1j * omega, r, data.a[:kmax, :kmax], data.b[:kmax, :kmax], lam)
    return ModeExpansion(params=params, kmax=kmax, lam=lam, omega=omega, r=r, C=C, R=R)


def _mode_amplitudes(expansion: ModeExpansion, t: float) -> np.ndarray:
    """Real per-mode amplitude 2*Re(C e^{i omega t}) + R e^{r t} at time t."""
    osc = 2.0 * (expansion.C * np.exp(1j * expansion.omega * t)).real
    return osc + expansion.R * np.exp(expansion.r * t)


def evaluate_solution_grid(expansion: ModeExpansion, t: float, xs, ys) -> np.ndarray:
    """Truncated solution u(t, x_i, y_j) on a grid of points in [0, pi]."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    k = np.arange(1, expansion.kmax + 1, dtype=float)
    sin_x = np.sin(np.outer(k, xs))
    sin_y = np.sin(np.outer(k, ys))
    amp = _mode_amplitudes(expansion, t)
    return sin_x.T @ amp @ sin_y


def evaluate_solution(expansion: ModeExpansion, t: float, x: float, y: float) -> float:
    """Truncated solution at a single point; zero on the boundary of the square."""
    if t < 0.0:
        raise InputError("t must be >= 0")
    return float(evaluate_solution_grid(expansion, t, [x], [y])[0, 0])


def mu_from_expansion(expansion: ModeExpansion) -> MuEstimate:
    """Empirical mu over an existing expansion: max |R|*sqrt(lam)/|C|.

    Modes with both coefficients zero are skipped; |C| = 0 with R != 0 flags a
    representation defect (DegenerateMode).
    """
    abs_c = np.abs(expansion.C.reshape(-1))
    abs_r = np.abs(expansion.R.reshape(-1))
    degenerate = (abs_c <= _C_ZERO_TOL) & (abs_r > 1e-10)
    if np.any(degenerate):
        worst = int(np.argmax(degenerate))
        k1, k2 = divmod(worst, expansion.kmax)
        raise DegenerateMode(
            f"mode ({k1 + 1}, {k2 + 1}) has |C|={abs_c[worst]} but |R|={abs_r[worst]}"
        )
    usable = abs_c > _C_ZERO_TOL
    if not np.any(usable):
        raise NoUsableModes("no mode with a nonzero oscillatory coefficient")
    ratios = np.zeros_like(abs_c)
    ratios[usable] = (
        abs_r[usable] * np.sqrt(expansion.lam.reshape(-1)[usable]) / abs_c[usable]
    )
    best = int(np.argmax(ratios))
    k1, k2 = divmod(best, expansion.kmax)
    return MuEstimate(
        mu_hat=float(ratios[best]),
        argmax_mode=(k1 + 1, k2 + 1),
        kmax=expansion.kmax,
    )


def estimate_mu(params: KernelParams, data: InitialData, kmax: Optional[int] = None) -> MuEstimate:
    """Empirical amplitude-ratio constant of the data's expansion."""
    return mu_from_expansion(expand(params, data, kmax))

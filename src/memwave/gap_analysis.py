"""Spectral-gap machinery for the limiting kernel regime eta = 3*beta/2.

The real frequencies satisfy Re omega = sqrt(lam) * F(x)/2 with
x = 3*beta / (2*sqrt(lam)), where

    F(x) = cbrt(f_plus(x)) + cbrt(f_minus(x)),
    f_pm(x) = sqrt(1 - x^2 + x^4/3) +- (sqrt(3)/9) * x^3.

F is positive everywhere and nonincreasing on [0, sqrt(3/2)], which combined
with the square-root gap lemma for integer lattices (the gap condition of
Ingham's inequality: Ingham, Math. Z. 41, 1936; Komornik and Loreti,
Fourier Series in Control Theory, 2005) yields the explicit gap constant

    gamma(beta) = (sqrt(2)-1)/2 * F(3*beta / (2*sqrt(2)))
                = (sqrt(2)-1)/2 * [ cbrt(sqrt(1 - 9/8 b^2 + 27/64 b^4) + 3*sqrt(3)/(16*sqrt(2)) b^3)
                                  + cbrt(sqrt(1 - 9/8 b^2 + 27/64 b^4) - 3*sqrt(3)/(16*sqrt(2)) b^3) ].

`gap_constant` evaluates the second, printed line only; the test suite
checks it against the first.  `audit_gaps` sweeps a finite mode range and
certifies the gap inequalities, the frequency growth bound
Re omega >= gamma * sqrt(lam), and the band 0 <= Im omega <= beta/2, all
against the computed gamma(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    AuditFailure,
    InputError,
    MonotonicityFailure,
    NegativeRadicand,
    OutOfRange,
    PreconditionViolated,
    RegimeError,
)
from .spectrum import BETA_MAX, KernelParams, _require_symmetric, mode_spectrum

__all__ = [
    "GapConstant",
    "GapAudit",
    "sqrt_gap_bound",
    "freq_scale_parts",
    "freq_scale",
    "gap_constant",
    "audit_gaps",
    "verify_scale_decreasing",
    "X_MAX",
]

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

#: Right end of the interval on which the scale function F is nonincreasing.
X_MAX = math.sqrt(1.5)

#: Default rounding slack for the audited inequalities (quantities are O(1)-O(1e3)).
AUDIT_SLACK = 1e-12


@dataclass(frozen=True)
class GapConstant:
    """Explicit gap constant gamma for a given kernel amplitude beta."""

    gamma: float
    beta: float


@dataclass(frozen=True)
class GapAudit:
    """Extrema recorded by a finite-range gap audit (all inequalities passed).

    Field order is the key order of the `gaps` CLI report.
    """

    beta: float
    kmax: int
    gamma: float
    min_ratio_k2: float
    min_ratio_k1: float
    min_re_over_norm: float
    im_min: float
    im_max: float


def sqrt_gap_bound(
    a: Union[float, Sequence[int]], n: int, n_prime: int, dim: int = 2
) -> float:
    """Gap |sqrt(a + n^2) - sqrt(a + n_prime^2)| of lattice norms.

    `a` is the squared norm of the remaining dim-1 integer coordinates; it may
    be given directly, or as the list of those integers, in which case the
    lemma precondition max(n, n_prime) >= max(list) is enforced and the lower
    bound (sqrt(dim) - sqrt(dim-1)) * |n - n_prime| is certified before
    returning.
    """
    if dim < 2:
        raise PreconditionViolated(f"dim must be >= 2, got {dim}")
    if n < 1 or n_prime < 1:
        raise PreconditionViolated("n and n_prime must be positive integers")
    list_form = not np.isscalar(a)
    if list_form:
        ks = [int(v) for v in a]
        if len(ks) != dim - 1:
            raise PreconditionViolated(
                f"expected {dim - 1} fixed coordinates for dim={dim}, got {len(ks)}"
            )
        if any(v < 1 for v in ks):
            raise PreconditionViolated("fixed coordinates must be positive integers")
        if max(n, n_prime) < max(ks):
            raise PreconditionViolated(
                f"max(n, n_prime)={max(n, n_prime)} < max coordinate {max(ks)}"
            )
        a_val = float(sum(v * v for v in ks))
    else:
        a_val = float(a)
        if a_val < 0.0:
            raise PreconditionViolated("a must be nonnegative")
    gap = abs(math.sqrt(a_val + n * n) - math.sqrt(a_val + n_prime * n_prime))
    if list_form:
        bound = (math.sqrt(dim) - math.sqrt(dim - 1)) * abs(n - n_prime)
        if gap < bound - AUDIT_SLACK:
            raise AuditFailure(
                f"sqrt gap {gap} fell below bound {bound}", datum=(a, n, n_prime)
            )
    return gap


def freq_scale_parts(x):
    """The pair (f_plus, f_minus) feeding the cube roots of the scale function.

    Accepts scalars or arrays.  The radicand 1 - x^2 + x^4/3 has minimum 1/4
    over the reals, so NegativeRadicand is purely defensive here.
    """
    x = np.asarray(x, dtype=float)
    radicand = 1.0 - x * x + x**4 / 3.0
    if np.any(radicand < 0.0):
        raise NegativeRadicand(f"radicand negative at x={x[radicand < 0.0]}")
    a = np.sqrt(radicand)
    s = (SQRT3 / 9.0) * x**3
    if x.ndim == 0:
        return float(a + s), float(a - s)
    return a + s, a - s


def freq_scale(x):
    """Scale function F(x): sum of the real cube roots of f_plus and f_minus.

    Positive for every real x, and nonincreasing on [0, sqrt(3/2)].
    """
    f_plus, f_minus = freq_scale_parts(x)
    out = np.cbrt(f_plus) + np.cbrt(f_minus)
    return float(out) if np.ndim(out) == 0 else out


def _check_beta(beta: float) -> None:
    """OutOfRange unless 0 <= beta <= 2/sqrt(3), up to 1e-12 of rounding."""
    if not (0.0 <= beta <= BETA_MAX + 1e-12):
        raise OutOfRange(f"beta must lie in [0, 2/sqrt(3)], got {beta}")


def gap_constant(beta: float) -> GapConstant:
    """Explicit gap constant gamma(beta) on [0, 2/sqrt(3)], from its printed
    closed form.  gamma(0) = sqrt(2) - 1.

    The closed form is (sqrt(2)-1)/2 * F(3*beta / (2*sqrt(2))), F at the
    lowest mode lam = 2; the test suite holds the two spellings to 1e-12.
    """
    _check_beta(beta)
    radicand = 1.0 - 1.125 * beta * beta + (27.0 / 64.0) * beta**4
    if radicand < 0.0:
        raise NegativeRadicand(f"gap-constant radicand negative at beta={beta}")
    odd = 3.0 * SQRT3 / (16.0 * SQRT2) * beta**3
    even = math.sqrt(radicand)
    gamma = 0.5 * (SQRT2 - 1.0) * (float(np.cbrt(even + odd)) + float(np.cbrt(even - odd)))
    return GapConstant(gamma=gamma, beta=beta)


def audit_gaps(params: KernelParams, kmax: int) -> GapAudit:
    """Sweep all modes k1, k2 <= kmax and certify the gap inequalities.

    Requires the limiting regime.  The gap ratio of row k1 is the least slope
    (Re omega_k' - Re omega_k) / (k' - k) over its admissible pairs k < k',
    those with k' >= k1.  Such a pair's slope is a weighted mean of the slopes
    of (k, k1), when k < k1, and of the steps (j, j+1), k1 <= j < k', so the
    row's least slope is among those kmax - 1 candidates.  The slopes are
    signed: a row that falls along an admissible pair fails (`mode_spectrum`'s
    rows rise, Re omega = sqrt(lam) * F/2 with F nonincreasing).  The worst
    pair is the first in row-major order of (k1, k, k').

    `mode_spectrum` makes Re omega exactly symmetric in (k1, k2), so the rows
    give both gap ratios: min_ratio_k1 (pairs in k1 at fixed k2) is
    min_ratio_k2 (pairs in k2 at fixed k1), with the worst pair mirrored.  The
    symmetry is checked, not assumed.  Raises AuditFailure naming the
    offending mode or mode pair if the symmetry or any inequality fails
    beyond the rounding slack.
    """
    if not params.limiting:
        raise RegimeError(
            f"gap audit requires eta = 3*beta/2, got eta={params.eta}, beta={params.beta}"
        )
    gamma = gap_constant(params.beta).gamma
    if kmax < 2:
        raise OutOfRange(f"kmax must be >= 2, got {kmax}")
    lam, omega, _ = mode_spectrum(params, kmax)
    re, im = omega.real, omega.imag

    _require_symmetric("Re omega", re)
    # row k1 - 1: the pairs (c + 1, k1) left of the diagonal, the steps
    # (c + 1, c + 2) from it on; the last column has no step
    row, col = np.ogrid[:kmax, :kmax]
    steps = np.full((kmax, kmax), math.inf)
    steps[:, :-1] = np.diff(re, axis=1)
    ratios = np.where(col < row, (re.diagonal()[:, None] - re) / np.maximum(row - col, 1), steps)
    k1, c = divmod(int(np.argmin(ratios)), kmax)
    min_ratio = float(ratios[k1, c])
    worst = (k1 + 1, (c + 1, k1 + 1) if c < k1 else (c + 1, c + 2))

    re_over_norm = re / np.sqrt(lam)
    min_re_over_norm = float(np.min(re_over_norm))
    im_min, im_max = float(np.min(im)), float(np.max(im))

    if min_ratio < gamma - AUDIT_SLACK:
        raise AuditFailure(
            f"gap ratio {min_ratio} < gamma {gamma} at (k1, (k2, k2'))={worst} "
            f"and, mirrored, at ((k1, k1'), k2)={worst[::-1]}",
            datum=worst,
        )
    if min_re_over_norm < gamma - AUDIT_SLACK:
        k1, k2 = divmod(int(np.argmin(re_over_norm)), kmax)
        raise AuditFailure(
            f"Re omega / sqrt(lam) = {min_re_over_norm} < gamma {gamma} at mode "
            f"({k1 + 1}, {k2 + 1})",
            datum=(k1 + 1, k2 + 1),
        )
    if im_min < -AUDIT_SLACK:
        k1, k2 = divmod(int(np.argmin(im)), kmax)
        raise AuditFailure(
            f"Im omega = {im_min} < 0 at mode ({k1 + 1}, {k2 + 1})",
            datum=(k1 + 1, k2 + 1),
        )
    if im_max > 0.5 * params.beta + AUDIT_SLACK:
        k1, k2 = divmod(int(np.argmax(im)), kmax)
        raise AuditFailure(
            f"Im omega = {im_max} > beta/2 at mode ({k1 + 1}, {k2 + 1})",
            datum=(k1 + 1, k2 + 1),
        )
    return GapAudit(
        min_ratio_k2=min_ratio,
        min_ratio_k1=min_ratio,
        min_re_over_norm=min_re_over_norm,
        im_min=im_min,
        im_max=im_max,
        kmax=kmax,
        beta=params.beta,
        gamma=gamma,
    )


def verify_scale_decreasing(samples: int) -> float:
    """Certify on a uniform grid that F is nonincreasing on [0, sqrt(3/2)].

    Also requires f_minus > 0 on the grid.  Returns the maximum forward
    difference (must be <= 1e-12); raises MonotonicityFailure with the
    offending abscissa otherwise.
    """
    if samples < 2:
        raise InputError("need at least 2 samples")
    xs = np.linspace(0.0, X_MAX, samples)
    _, f_minus = freq_scale_parts(xs)
    if np.any(f_minus <= 0.0):
        bad = float(xs[np.argmax(f_minus <= 0.0)])
        raise MonotonicityFailure(f"f_minus <= 0 at x={bad}", abscissa=bad)
    values = freq_scale(xs)
    diffs = np.diff(values)
    max_diff = float(np.max(diffs))
    if max_diff > 1e-12:
        bad = float(xs[int(np.argmax(diffs))])
        raise MonotonicityFailure(
            f"forward difference {max_diff} > 1e-12 at x={bad}", abscissa=bad
        )
    return max_diff

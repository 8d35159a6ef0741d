"""Weighted lower bounds for finite sums of complex exponentials.

The machinery rests on the half-sine window k(t) = sin(pi*t/T) on [0, T] and
its transform kernel

    K(u) = T*pi / (pi^2 - T^2*u^2),        u complex,

with the moment identity

    integral k(t) * Re(z * exp(i*u*t)) dt = Re(z * (1 + exp(i*u*T)) * K(u))

and the decay bound |K(u)| <= 4*pi / (T*gamma^2*(4*j^2 - 1)) valid whenever
gamma > 2*pi/T and |u| >= gamma*j.

For a family of exponents {omega_n, r_n} with coefficients {C_n, R_n}
satisfying the separation, growth, decay and amplitude hypotheses checked by
`check_hypotheses`, the time-average energy of

    F(t) = sum_n ( C_n e^{i omega_n t} + conj(C_n) e^{-i conj(omega_n) t} + R_n e^{r_n t} )

admits the explicit lower bound evaluated by `energy_lower_bound`:

    integral_0^T |F(t)|^2 dt
        >= 2*T*pi * sum_{n=tau} ( 1/(pi^2 + 4*T^2*(Im omega_n)^2) - 2*S/(T^2*gamma^2) )
                     * |C_n|^2 * (1 + e^{-2*Im omega_n*T})
         - (8*pi/(T*gamma^2)) * (1 + S/2) * sum_{n=1} |C_n|^2 * (1 + e^{-2*Im omega_n*T}),

    S = mu * max( sum_n n^{-2*theta}, pi^2/6 ).

The left side is computed exactly by expanding into pairwise products of
exponentials and integrating each in closed form.  For many signals on one
set of exponents (the boundary trace), `_real_signal_gram` builds the
closed-form Gram blocks of those exponents once and `_gram_energy` evaluates
each signal's energy as quadratic forms in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import (
    AuditFailure,
    HypothesisError,
    InputError,
    OutOfRange,
    PoleError,
    ThetaOutOfRange,
)

__all__ = [
    "ExponentFamily",
    "InghamBoundReport",
    "Violation",
    "sine_window",
    "window_kernel",
    "windowed_moment",
    "kernel_decay_bound",
    "exp_integral",
    "pairwise_exponential_energy",
    "energy_integral",
    "constant_S",
    "check_hypotheses",
    "energy_lower_bound",
]

PI = math.pi

#: |s|*T below which the exponential integral switches to its Taylor series.
_SERIES_CUTOFF = 1e-6

#: |(p + q)*T| below which a Gram entry falls back from (e^{pT} e^{qT} - 1)/(p + q)
#: to exp_integral.
_GRAM_CUTOFF = 1e-3

#: Rounding slack used when checking the exact family hypotheses.
_HYP_SLACK = 1e-12


@dataclass(frozen=True)
class ExponentFamily:
    """A finite family of exponents and coefficients, with its gap metadata.

    Plain container: the separation/growth/decay/amplitude hypotheses are NOT
    enforced at construction (so violating families can be diagnosed); use
    `check_hypotheses`.
    """

    omegas: np.ndarray
    rs: np.ndarray
    Cs: np.ndarray
    Rs: np.ndarray
    gamma: float
    tau: int
    theta: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=complex))
        object.__setattr__(self, "rs", np.asarray(self.rs, dtype=float))
        object.__setattr__(self, "Cs", np.asarray(self.Cs, dtype=complex))
        object.__setattr__(self, "Rs", np.asarray(self.Rs, dtype=float))
        for name in ("omegas", "rs", "Cs", "Rs"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise InputError(
                    f"{name} must be finite, got {getattr(self, name)[bad[0]]} at n={bad[0] + 1}")
        n = len(self.omegas)
        if not (len(self.rs) == len(self.Cs) == len(self.Rs) == n):
            raise InputError("omegas, rs, Cs, Rs must have equal lengths")
        if not 1 <= self.tau <= max(n, 1):
            raise InputError(f"tau must lie in [1, {n}], got {self.tau}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise InputError(f"gamma must be finite and > 0, got {self.gamma}")

    def __len__(self) -> int:
        return len(self.omegas)


@dataclass(frozen=True)
class InghamBoundReport:
    """Both sides of the energy lower bound and their margin."""

    lhs: float
    rhs: float
    S: float
    margin: float


@dataclass(frozen=True)
class Violation:
    """One failed family hypothesis, naming the hypothesis and the indices involved."""

    hypothesis: str
    indices: Tuple[int, ...]
    detail: str = field(default="")

    def __str__(self) -> str:
        where = f" at n={self.indices}" if self.indices else ""
        return f"{self.hypothesis}{where}: {self.detail}"


def _check_horizon(T: float, **derived: float) -> None:
    """Reject a horizon T that breaks the arithmetic of the T-dependent bounds.

    T must be > 0 with T*T a positive finite float, since the bounds divide
    by T^2; each constant passed by keyword (computed from T) must be finite.
    Raises OutOfRange otherwise.
    """
    if not (T > 0.0 and 0.0 < T * T < math.inf):
        raise OutOfRange(f"T must be > 0 with T^2 finite and nonzero, got {T}")
    for name, value in derived.items():
        if not math.isfinite(value):
            raise OutOfRange(f"{name}={value} is not finite at T={T}")


def sine_window(t, T: float):
    """Half-sine window sin(pi*t/T) on [0, T], zero elsewhere; values in [0, 1]."""
    _check_horizon(T)
    t = np.asarray(t, dtype=float)
    inside = (t >= 0.0) & (t <= T)
    out = np.where(inside, np.sin(PI * np.clip(t, 0.0, T) / T), 0.0)
    return float(out) if out.ndim == 0 else out


def window_kernel(u: complex, T: float) -> complex:
    """Window transform kernel K(u) = T*pi / (pi^2 - T^2*u^2).

    Satisfies conj(K(u)) = K(conj(u)) and |K(u)| = |K(conj(u))|.  Raises
    PoleError within 1e-14*pi^2 of the poles u = +-pi/T.
    """
    _check_horizon(T)
    u = complex(u)
    denom = PI * PI - T * T * u * u
    if abs(denom) < 1e-14 * PI * PI:
        raise PoleError(f"kernel pole at u={u} for T={T}")
    return T * PI / denom


def windowed_moment(z: complex, u: complex, T: float) -> float:
    """Closed form of the windowed moment: Re(z * (1 + exp(i*u*T)) * K(u))."""
    k = window_kernel(u, T)
    return (complex(z) * (1.0 + np.exp(1j * complex(u) * T)) * k).real


def kernel_decay_bound(u: complex, j: int, gamma: float, T: float) -> Tuple[float, float]:
    """(|K(u)|, 4*pi/(T*gamma^2*(4*j^2-1))), certifying the first <= the second.

    Requires gamma > 2*pi/T and |u| >= gamma*j.
    """
    if j < 1:
        raise InputError("j must be a positive integer")
    _check_horizon(T)
    if gamma <= 2.0 * PI / T:
        raise HypothesisError(
            [Violation("window", (), f"gamma={gamma} <= 2*pi/T={2.0 * PI / T}")]
        )
    if abs(complex(u)) < gamma * j:
        raise HypothesisError(
            [Violation("growth", (j,), f"|u|={abs(complex(u))} < gamma*j={gamma * j}")]
        )
    value = abs(window_kernel(u, T))
    bound = 4.0 * PI / (T * gamma * gamma * (4.0 * j * j - 1.0))
    if value > bound * (1.0 + 1e-12):
        raise AuditFailure(
            f"kernel decay bound failed: |K(u)|={value} > {bound}", datum=(u, j, gamma, T)
        )
    return value, bound


def exp_integral(s, T: float):
    """Exact primitive integral_0^T e^{s*t} dt = (e^{s*T} - 1)/s, with E(0) = T.

    Switches to a 6-term Taylor series for |s|*T < 1e-6 to avoid cancellation.
    Accepts scalars or arrays of s; real s gives a real result.
    """
    s_arr = np.asarray(s, dtype=complex if np.iscomplexobj(s) else float)
    flat = s_arr.reshape(-1)
    x = flat * T
    out = np.empty(flat.shape, dtype=flat.dtype)
    small = np.abs(x) < _SERIES_CUTOFF
    if np.any(~small):
        sb = flat[~small]
        out[~small] = np.expm1(sb * T) / sb
    if np.any(small):
        # products, not x**n: real x**3 and up would each call pow()
        xs = x[small]
        x2 = xs * xs
        x4 = x2 * x2
        out[small] = T * (
            1.0 + xs / 2.0 + x2 / 6.0 + xs * x2 / 24.0 + x4 / 120.0 + xs * x4 / 720.0
        )
    out = out.reshape(s_arr.shape)
    return out.item() if out.ndim == 0 else out


def _clamped_energy(total: float, budget) -> float:
    """An exact energy `total` evaluated in floating point, clamped at zero.

    `budget()` is the sum of the magnitudes of the terms summed into `total`;
    it is evaluated only when `total` is negative.  A negative residue within
    1e-9*(budget + 1) is rounding and gives 0.0; beyond that the energy
    certificate has failed (AuditFailure with datum (total, budget)).
    """
    if total < 0.0:
        scale = budget()
        if total < -1e-9 * (scale + 1.0):
            raise AuditFailure(
                f"energy integral came out negative beyond rounding: {total}",
                datum=(total, scale),
            )
        return 0.0
    return total


def pairwise_exponential_energy(coeffs, exps, T: float) -> float:
    """Exact integral_0^T |sum_a z_a e^{s_a t}|^2 dt by pairwise expansion.

    The result is real and nonnegative whenever the term list represents a
    real signal; tiny negative rounding residue is clamped to zero.  This is
    the general path and the slow oracle of the Gram kernel below.
    """
    coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
    exps = np.asarray(exps, dtype=complex).reshape(-1)
    if coeffs.shape != exps.shape:
        raise InputError("coeffs and exps must have matching lengths")
    if coeffs.size == 0:
        return 0.0
    products = coeffs[:, None] * coeffs.conj()[None, :]
    integrals = exp_integral(exps[:, None] + exps.conj()[None, :], T)
    total = complex(np.sum(products * integrals)).real
    return _clamped_energy(
        total, lambda: float(np.sum(np.abs(products) * np.abs(integrals))))


def _gram_block(p, u, q, v, T: float) -> np.ndarray:
    """G_ab = integral_0^T e^{(p_a + q_b) t} dt = (u_a v_b - 1)/(p_a + q_b),
    given u = e^{p T} and v = e^{q T}.

    Entries with |(p_a + q_b) T| < _GRAM_CUTOFF come from exp_integral, since
    u_a v_b - 1 loses digits as it nears zero.
    """
    s = np.add.outer(p, q)
    small = np.abs(s) < _GRAM_CUTOFF / T
    block = np.multiply.outer(u, v) - 1.0
    np.divide(block, s, out=block, where=~small)
    if small.any():
        block[small] = exp_integral(s[small], T)
    return block


def _real_signal_gram(omegas, rs, T: float) -> tuple:
    """The four Gram blocks of the real signal F = 2 Re X + Y over [0, T],

        X(t) = sum_a C_a e^{i omega_a t},    Y(t) = sum_a R_a e^{r_a t},

    for the exponents (omegas, rs) and any coefficients (C, R):
    (integral e^{(p_a + p_b) t}, integral e^{(p_a + conj p_b) t},
     integral e^{(p_a + r_b) t}, integral e^{(r_a + r_b) t}) with p = i*omega.
    Every exponent must have a nonpositive real part (Im omega >= 0, r <= 0),
    so that |e^{p T}| <= 1 and no entry overflows.
    """
    p = 1j * np.asarray(omegas, dtype=complex)
    r = np.asarray(rs, dtype=float)
    u, v = np.exp(p * T), np.exp(r * T)
    hermitian = _gram_block(p, u, p.conj(), u.conj(), T)
    # The diagonal carries the |C_a|^2 terms that dominate the energy, and
    # |u_a|^2 - 1 cancels when Im omega_a*T is small: take it from exp_integral,
    # on complex input (its real path rounds some entries differently).
    np.fill_diagonal(hermitian, exp_integral(p + p.conj(), T))
    return (_gram_block(p, u, p, u, T), hermitian,
            _gram_block(p, u, r, v, T), _gram_block(r, v, r, v, T))


def _gram_energy(gram, Cs, Rs) -> float:
    """Exact energy of the real signal with coefficients (Cs, Rs) on the
    exponents of `gram` (from _real_signal_gram):

        integral F^2 = 2 Re integral X^2 + 2 integral |X|^2
                       + 4 Re integral X Y + integral Y^2.

    Each quadratic form is an elementwise product summed by np.sum, not a
    BLAS matrix-vector product, so its cost and summation order do not
    depend on the BLAS thread count.
    """
    outer = np.multiply.outer
    terms = (outer(Cs, Cs), outer(Cs, Cs.conj()), outer(Cs, Rs), outer(Rs, Rs))
    weights = (2.0, 2.0, 4.0, 1.0)
    total = sum(w * np.sum(g * z).real for w, g, z in zip(weights, gram, terms))
    return _clamped_energy(
        float(total),
        lambda: float(sum(w * np.sum(np.abs(g) * np.abs(z))
                          for w, g, z in zip(weights, gram, terms))))


def energy_integral(family: ExponentFamily, T: float) -> float:
    """Exact integral_0^T |F(t)|^2 dt for the family's signal F."""
    if len(family) == 0:
        raise InputError("family must be nonempty")
    _check_horizon(T)
    coeffs = np.concatenate([family.Cs, family.Cs.conj(), family.Rs.astype(complex)])
    exps = np.concatenate([1j * family.omegas, -1j * family.omegas.conj(),
                           family.rs.astype(complex)])
    return pairwise_exponential_energy(coeffs, exps, T)


def constant_S(mu: float, theta: float) -> float:
    """S = mu * max( zeta(2*theta), pi^2/6 ); exactly mu*pi^2/6 when theta = 1.

    Requires theta > 1/2 and mu >= 0 (the mu -> 0 limit gives S = 0), and a
    mu small enough that the load 4*(4 + 3*S) of c0, T0 and beta0 is finite
    (OutOfRange otherwise).
    """
    if theta <= 0.5:
        raise ThetaOutOfRange(f"theta must be > 1/2, got {theta}")
    if mu < 0.0:
        raise InputError(f"mu must be >= 0, got {mu}")
    if theta == 1.0:
        tail_sum = PI * PI / 6.0
    else:
        from scipy.special import zeta  # only theta != 1 needs scipy

        tail_sum = float(zeta(2.0 * theta))
    S = mu * max(tail_sum, PI * PI / 6.0)
    if not math.isfinite(4.0 * (4.0 + 3.0 * S)):
        raise OutOfRange(f"mu={mu} makes S={S} or the load 4*(4 + 3*S) non-finite")
    return S


def check_hypotheses(family: ExponentFamily, T: float) -> list:
    """Diagnose the four family hypotheses plus the window condition gamma > 2*pi/T.

    Returns an empty list iff all hold (with 1e-12 rounding slack); otherwise
    one Violation per failure, naming the hypothesis and the indices involved.
    """
    violations = []
    n = len(family)
    gamma, tau = family.gamma, family.tau
    _check_horizon(T)
    if gamma <= 2.0 * PI / T:
        violations.append(
            Violation("window", (), f"gamma={gamma} <= 2*pi/T={2.0 * PI / T}")
        )
    if family.theta <= 0.5:
        violations.append(Violation("amplitude", (), f"theta={family.theta} <= 1/2"))
    if family.mu <= 0.0 and np.any(family.Rs != 0.0):
        violations.append(Violation("amplitude", (), f"mu={family.mu} <= 0"))

    re = family.omegas.real
    im = family.omegas.imag
    idx = np.arange(1, n + 1)

    # pairs n < m in row-major order; those with m < tau are exempt
    a, b = np.triu_indices(n, k=1)
    required = gamma * (b - a)
    got = np.abs(re[a] - re[b])
    bad = (b + 1 >= tau) & (got < required - _HYP_SLACK * np.maximum(1.0, required))
    for i, j, g, req in zip(*(x[bad].tolist() for x in (a + 1, b + 1, got, required))):
        violations.append(Violation(
            "separation", (i, j), f"|Re omega_{i} - Re omega_{j}|={g} < gamma*|n-m|={req}"))
    growth_bad = re < gamma * idx - _HYP_SLACK * np.maximum(1.0, gamma * idx)
    for a in np.nonzero(growth_bad)[0]:
        violations.append(
            Violation("growth", (int(a) + 1,), f"Re omega={re[a]} < gamma*n={gamma * (a + 1)}")
        )
    decay_bad = family.rs > -im + _HYP_SLACK * np.maximum(1.0, np.abs(im))
    for a in np.nonzero(decay_bad)[0]:
        violations.append(
            Violation("root-decay", (int(a) + 1,), f"r={family.rs[a]} > -Im omega={-im[a]}")
        )
    if family.theta > 0.5 and family.mu > 0.0:
        allowed = family.mu * np.abs(family.Cs) / idx**family.theta
        amp_bad = np.abs(family.Rs) > allowed + _HYP_SLACK * np.maximum(1.0, allowed)
        for a in np.nonzero(amp_bad)[0]:
            violations.append(
                Violation(
                    "amplitude",
                    (int(a) + 1,),
                    f"|R|={abs(family.Rs[a])} > mu*|C|/n^theta={allowed[a]}",
                )
            )
    return violations


def energy_lower_bound(family: ExponentFamily, T: float, check: bool = True) -> InghamBoundReport:
    """Evaluate the explicit lower bound and compare it with the exact energy.

    With check=True (default) the family hypotheses are verified first
    (HypothesisError listing every violation) and the inequality
    lhs >= rhs - 1e-9*(1 + |rhs|) is certified (AuditFailure otherwise).
    A horizon that makes rhs non-finite is rejected with OutOfRange.
    """
    _check_horizon(T)
    if check:
        violations = check_hypotheses(family, T)
        if violations:
            raise HypothesisError(violations)
    S = constant_S(family.mu, family.theta)
    gamma, tau = family.gamma, family.tau
    im = family.omegas.imag
    weights = np.abs(family.Cs) ** 2 * (1.0 + np.exp(-2.0 * im * T))
    head = weights[tau - 1:]
    im_head = im[tau - 1:]
    main = 2.0 * T * PI * float(
        np.sum((1.0 / (PI * PI + 4.0 * T * T * im_head**2) - 2.0 * S / (T * T * gamma * gamma)) * head)
    )
    sub = (8.0 * PI / (T * gamma * gamma)) * (1.0 + S / 2.0) * float(np.sum(weights))
    rhs = main - sub
    _check_horizon(T, rhs=rhs)
    lhs = energy_integral(family, T)
    margin = lhs - rhs
    if check and margin < -1e-9 * (1.0 + abs(rhs)):
        raise AuditFailure(
            f"energy lower bound failed: lhs={lhs} < rhs={rhs}", datum=(lhs, rhs)
        )
    return InghamBoundReport(lhs=lhs, rhs=rhs, S=S, margin=margin)

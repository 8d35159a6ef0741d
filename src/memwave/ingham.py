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

The left side, like every exact energy in memwave (the boundary trace's
rows and columns too), comes from one kernel, `_real_signal_energies`, which
integrates pairwise products of exponentials in the Cauchy form of the
closed-form Gram entry,

    integral_0^T e^{(p + q) t} dt = (e^{pT} e^{qT} - 1) / (p + q),

so that each quadratic form is two products of the Cauchy matrix
K = 1/(p_a + q_b) with coefficient vectors.  K is evaluated in tiles of a
fixed number of entries, several sets or a few rows at a time, so memory is
O(kmax^2) and no Gram matrix is ever built; each tile is multiplied by the
stacked coefficients of every signal on its exponents in one BLAS product,
small enough to run on one thread of a library caller's pool (the command
line pins its pool to one thread).  `pairwise_exponential_energy`, the dense
pairwise sum of the same integrals, is the test suite's slow oracle of the
kernel; no computation of the package uses it.
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

#: Complex Cauchy-matrix entries per tile of the trace-energy kernel: a 1 MiB
#: tile stays in a 2 MiB per-core L2 cache.  One set's part of a tile is at
#: most a quarter of it, 2**14 entries, so that its product with the set's
#: four coefficient columns stays on one BLAS thread: from about 2**15 entries
#: on, OpenBLAS splits it over the pool's threads, whose idle busy-wait cost
#: CPU for no gain in wall time (about double, under OpenBLAS's default
#: OPENBLAS_THREAD_TIMEOUT).  The command line pins its pool to one thread
#: (`cli._set_process_policy`); the rule remains for library callers with a
#: larger pool, where it also keeps the bits independent of the pool.
_TILE_ENTRIES = 2**16

#: Rounding slack used when checking the exact family hypotheses.
_HYP_SLACK = 1e-12

#: Relative rounding slack of the energy checks: a negative energy residue, the
#: Ingham bound and the observability verdict.
_ENERGY_SLACK = 1e-9


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
            values = getattr(self, name)
            if values.ndim != 1:
                raise InputError(f"{name} must be a 1-D array, got shape {values.shape}")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise InputError(f"{name} must be finite, got {values[bad[0]]} at n={bad[0] + 1}")
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


def _check_family_overflow(name: str, value: float, what: str, T: float) -> None:
    """Reject a non-finite `value` of a family's `what` at a valid horizon T: it
    overflows with the family's numbers (OutOfRange naming `name`)."""
    if not math.isfinite(value):
        raise OutOfRange(f"{name}={value} is not finite: the {what} overflows "
                         f"with this family's numbers at T={T}")


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
    if not x.any():
        out = np.full(flat.shape, T, dtype=flat.dtype)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.expm1(x) / flat
        small = np.abs(x) < _SERIES_CUTOFF
        if small.any():
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
        if total < -_ENERGY_SLACK * (scale + 1.0):
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
    the slow oracle of the Cauchy kernel `_real_signal_energies` in the test
    suite; no computation of the package calls it.
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


def _bound_sum(x, y) -> np.ndarray:
    """Lower bound on |x_a + y_b| over all pairs (a, b), per set: x (g, na) and
    y (g, nb) real, judged from their extremes alone."""
    return np.maximum(np.maximum(x.min(axis=1) + y.min(axis=1),
                                 -(x.max(axis=1) + y.max(axis=1))), 0.0)


def _bound_difference(x) -> np.ndarray:
    """Lower bound on |x_a - x_b| over the pairs a != b, per set: x (g, n) real."""
    if x.shape[1] < 2:
        return np.full(x.shape[0], np.inf)
    return np.diff(np.sort(x, axis=1), axis=1).min(axis=1)


def _tiles(m: int, n: int, cols: int) -> list:
    """(sets, rows) slices covering an (m, n, cols) stack of Cauchy matrices:
    as many whole sets as _TILE_ENTRIES entries hold when one set has at most
    a quarter of them, else even chunks of the rows of one set, each of at
    most max(_TILE_ENTRIES // 4, cols) entries."""
    part = _TILE_ENTRIES // 4
    if n * cols <= part:
        sets = _TILE_ENTRIES // (n * cols)
        return [(slice(j, j + sets), slice(0, n)) for j in range(0, m, sets)]
    chunks = -(-n // max(1, part // cols))
    rows = -(-n // chunks)
    return [(slice(j, j + 1), slice(a, a + rows)) for j in range(m) for a in range(0, n, rows)]


def _diagonal(tile, offset: int) -> np.ndarray:
    """View of the entries (a, offset + a) of each set's rows in a (g, rows, cols) tile."""
    g, rows, cols = tile.shape
    return tile.reshape(g, rows * cols)[:, offset::cols + 1][:, :rows]


def _cauchy_tile(P, Q, T: float, bounds=(0.0, math.inf), diagonal=None):
    """The Cauchy tile K = 1/(P_a + Q_b) of row exponents P (g, rows) and column
    exponents Q (g, cols), with its fallback tile E.

    Wherever |(P_a + Q_b) T| < _GRAM_CUTOFF, K is zero and E holds
    exp_integral(P_a + Q_b); E is None when no entry falls under the cutoff,
    and K is None when every entry does.  `bounds` holds a lower and an upper
    bound on |P_a + Q_b|: entries are tested one by one only when these do
    not decide.  With `diagonal`, the entries (a, diagonal + a) are zero in K
    and never in E: the caller adds them itself.
    """
    s = P[:, :, None] + Q[:, None, :]
    gap = _GRAM_CUTOFF / T
    if bounds[1] < gap and diagonal is None:
        return None, exp_integral(s, T)
    small = fallback = None
    if bounds[0] < gap:
        small = np.abs(s) < gap
        if diagonal is not None:
            _diagonal(small, diagonal)[...] = False
        if small.any():
            fallback = np.zeros_like(s)
            fallback[small] = exp_integral(s[small], T)
            s[small] = 1.0
        else:
            small = None
    if diagonal is not None:
        _diagonal(s, diagonal)[...] = 1.0
    # every entry left is at least `gap` away from zero
    tile = np.reciprocal(s, out=s)
    if small is not None:
        tile[small] = 0.0
    if diagonal is not None:
        _diagonal(tile, diagonal)[...] = 0.0
    return tile, fallback


def _cauchy_energy(P, Q, left, right, T: float, bounds, diagonal=None):
    """sum_ab z_a w_b integral_0^T e^{(P_a + Q_b) t} dt for each coefficient pair.

    `left` (g, rows, 2c) interleaves (u*z, -z) and `right` (g, cols, 2c)
    interleaves (v*w, w) for c coefficient pairs, with u = e^{P T} and
    v = e^{Q T}.  By the Cauchy form of the Gram entry,
    (u_a v_b - 1)/(P_a + Q_b) = (u_a v_b - 1) K_ab, the sum is
    (u*z)^T K (v*w) - z^T K w: one product of the tile K with the stack.
    Entries under the cutoff come from the fallback tile E as z^T E w.
    Returns the sums, shape (g, c).
    """
    tile, fallback = _cauchy_tile(P, Q, T, bounds, diagonal)
    if tile is None:
        products = np.zeros(left.shape, dtype=np.result_type(fallback, right))
    else:
        products = tile @ right
    if fallback is not None:
        products[..., 1::2] -= (fallback @ right)[..., 1::2]
    sums = np.einsum("gak,gak->gk", left, products)
    return sums[:, 0::2] + sums[:, 1::2]


def _interleave(a, b) -> np.ndarray:
    """Stack (..., n, c) arrays a and b into (..., n, 2c) as a0, b0, a1, b1, ..."""
    return np.stack([a, b], axis=-1).reshape(*a.shape[:-1], 2 * a.shape[-1])


def _chunk_energies(p, r, z, R, T: float) -> np.ndarray:
    """For one chunk of sets in _real_signal_energies, complex sums whose real
    parts are half the energies: exponents p = i*omega and r (g, n),
    coefficients z and R (g, n, c)."""
    g, n = p.shape
    u, v = np.exp(p * T), np.exp(r * T)
    vq = np.concatenate([u, u.conj(), v], axis=1)
    w = np.concatenate([z, z.conj(), 2.0 * R], axis=1)
    left_x = _interleave(u[:, :, None] * z, -z)
    right_x = _interleave(vq[:, :, None] * w, w)
    left_y = _interleave(v[:, :, None] * R, -R)
    right_y = _interleave(v[:, :, None] * R, R)
    # lower bounds on |s| >= |Re s|, |Im s| per set and part, from the
    # exponents' extremes (and, off the |X|^2 diagonal, from the gaps between
    # their Re omega); the Y^2 sums are real and bounded above as well
    re, im = p.real, p.imag
    lower_x = np.minimum.reduce([
        np.maximum(_bound_sum(re, re), _bound_sum(im, im)),  # X^2
        np.maximum(_bound_sum(re, re), _bound_difference(im)),  # |X|^2
        np.maximum(_bound_sum(re, r), _bound_sum(im, np.zeros_like(r)))])  # XY
    lower_y, upper_y = _bound_sum(r, r), 2.0 * np.abs(r).max(axis=1, initial=0.0)
    sums = np.einsum("gac,ga->gc", z * z.conj(), exp_integral(p + p.conj(), T))
    # The X^2 and |X|^2 forms are symmetric and Hermitian in (a, b), as is the
    # Y^2 form, and only their real parts count: a tile of rows a0 <= a < a1
    # takes their columns b >= a0 only, those with b >= a1 weighted twice.
    for J, A in _tiles(g, n, 3 * n):
        a0, a1 = A.start, min(A.stop, n)
        twice = np.where(np.arange(a0, n) < a1, 1.0, 2.0)[:, None]
        q = np.concatenate([p[J, a0:], p[J, a0:].conj(), r[J]], axis=1)
        right = np.concatenate([right_x[J, a0:n] * twice, right_x[J, n + a0:2 * n] * twice,
                                right_x[J, 2 * n:]], axis=1)
        sums[J] += _cauchy_energy(p[J, A], q, left_x[J, A], right, T,
                                  (lower_x[J].min(), math.inf), diagonal=n - a0)
    for J, A in _tiles(g, n, n):
        a0, a1 = A.start, min(A.stop, n)
        twice = np.where(np.arange(a0, n) < a1, 1.0, 2.0)[:, None]
        sums[J] += 0.5 * _cauchy_energy(r[J, A], r[J, a0:], left_y[J, A], right_y[J, a0:] * twice,
                                        T, (lower_y[J].min(), upper_y[J].max()))
    return sums


def _real_signal_energies(omegas, rs, Cs, Rs, T: float) -> np.ndarray:
    """Exact energies integral_0^T F^2 dt of real signals F = 2 Re X + Y,

        X(t) = sum_a C_a e^{i omega_a t},    Y(t) = sum_a R_a e^{r_a t},

    for m sets of n exponents, omegas and rs of shape (m, n), and c signals
    per set, Cs (complex) and Rs (real) of shape (m, n, c).  Returns the
    energies, shape (m, c), each passed through _clamped_energy.

    Writing p = i*omega, the energy is 2 Re sum_ab z_a w_b G(p_a, q_b)
    + sum_ab R_a R_b G(r_a, r_b), with G(p, q) = integral_0^T e^{(p + q) t} dt,
    q = (p, conj p, r) and w = (C, conj C, 2R): one complex Cauchy form of
    n x 3n entries and one real form of n x n entries per set.  The diagonal
    of the |X|^2 part, G(p_a, conj p_a), carries the |C_a|^2 terms that
    dominate the energy and cancels in the Cauchy form when Im omega_a*T is
    small: it comes from exp_integral, on complex input.  Other entries are
    screened for the cutoff one by one only where bounds from the extremes
    and gaps of the exponents cannot rule it out.

    The forms are evaluated in tiles of at most _TILE_ENTRIES entries (see
    _tiles), and the coefficient stacks for a chunk of _TILE_ENTRIES // 4
    entries' worth of sets at a time: memory stays O(m*n + _TILE_ENTRIES),
    and each matrix product is small enough to run on one BLAS thread.
    (Chunks of 4x as many sets raised the peak memory at kmax 512 from 82
    to 112 MB, for no CPU saving beyond the noise of paired timings.)  A
    tile of a few rows of a set evaluates the symmetric X^2 and Y^2 parts and the Hermitian
    |X|^2 part on and above the diagonal only.  The exponents' real parts
    may have either sign: the screening bounds hold for both, and e^{pT}
    overflows no earlier than the energy's own diagonal term e^{2 Re p T}.
    """
    p = 1j * np.asarray(omegas, dtype=complex)
    r = np.asarray(rs, dtype=float)
    z = np.asarray(Cs, dtype=complex)
    R = np.asarray(Rs, dtype=float)
    m, n = p.shape
    chunk = max(1, _TILE_ENTRIES // 4 // n)
    totals = np.empty(z.shape[::2], dtype=complex)
    for j in range(0, m, chunk):
        J = slice(j, j + chunk)
        totals[J] = _chunk_energies(p[J], r[J], z[J], R[J], T)
    return np.array([[_clamped_energy(float(2.0 * totals[j, c].real),
                                      lambda: _energy_budget(p[j], r[j], z[j, :, c], R[j, :, c], T))
                      for c in range(totals.shape[1])] for j in range(m)])


def _energy_budget(p, r, z, R, T: float) -> float:
    """sum_ab |G_ab| |z_a w_b| over the terms of one signal's energy in
    _real_signal_energies (exponents p = i*omega and r, coefficients z and R):
    the scale of its rounding residue."""

    def gram(P, Q, diagonal=None):
        tile, fallback = _cauchy_tile(P[None], Q[None], T, diagonal=diagonal)
        block = (np.multiply.outer(np.exp(P * T), np.exp(Q * T)) - 1.0) * tile[0]
        return block if fallback is None else block + fallback[0]

    n = p.size
    gram_x = gram(p, np.concatenate([p, p.conj(), r]), n)
    _diagonal(gram_x[None], n)[...] = exp_integral(p + p.conj(), T)
    w = np.concatenate([z, z.conj(), 2.0 * R])
    return float(2.0 * np.sum(np.abs(gram_x) * np.multiply.outer(np.abs(z), np.abs(w)))
                 + np.sum(np.abs(gram(r, r)) * np.multiply.outer(np.abs(R), np.abs(R))))


def energy_integral(family: ExponentFamily, T: float) -> float:
    """Exact integral_0^T |F(t)|^2 dt for the family's signal F: one set of
    exponents carrying one signal in _real_signal_energies.  An energy that
    overflows float64 is rejected with OutOfRange naming lhs."""
    if len(family) == 0:
        raise InputError("family must be nonempty")
    _check_horizon(T)
    with np.errstate(over="ignore", invalid="ignore"):
        [[energy]] = _real_signal_energies(family.omegas[None], family.rs[None],
                                           family.Cs[None, :, None], family.Rs[None, :, None], T)
    _check_family_overflow("lhs", energy, "energy", T)
    return float(energy)


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
        with np.errstate(over="ignore", invalid="ignore"):  # a huge theta allows no R
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
    A bound or energy that overflows float64 with the family's numbers is
    rejected with OutOfRange naming rhs or lhs.
    """
    _check_horizon(T)
    if check:
        violations = check_hypotheses(family, T)
        if violations:
            raise HypothesisError(violations)
    S = constant_S(family.mu, family.theta)
    # a numpy gamma: a denominator that underflows to 0 makes rhs infinite,
    # rejected below, not a ZeroDivisionError; sub is a float again, as is rhs
    gamma, tau = np.float64(family.gamma), family.tau
    im = family.omegas.imag
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weights = np.abs(family.Cs) ** 2 * (1.0 + np.exp(-2.0 * im * T))
        head = weights[tau - 1:]
        im_head = im[tau - 1:]
        main = 2.0 * T * PI * float(
            np.sum((1.0 / (PI * PI + 4.0 * T * T * im_head**2) - 2.0 * S / (T * T * gamma * gamma)) * head)
        )
        sub = float(8.0 * PI / (T * gamma * gamma)) * (1.0 + S / 2.0) * float(np.sum(weights))
    rhs = main - sub
    _check_family_overflow("rhs", rhs, "bound", T)
    lhs = energy_integral(family, T)
    report = InghamBoundReport(lhs=lhs, rhs=rhs, S=S, margin=lhs - rhs)
    if check:
        _certify_bound(report)
    return report


def _certify_bound(report: InghamBoundReport) -> None:
    """Certify lhs >= rhs - 1e-9*(1 + |rhs|); AuditFailure with datum (lhs, rhs)
    otherwise."""
    if report.margin < -_ENERGY_SLACK * (1.0 + abs(report.rhs)):
        raise AuditFailure(f"energy lower bound failed: lhs={report.lhs} < rhs={report.rhs}",
                           datum=(report.lhs, report.rhs))

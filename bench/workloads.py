"""Inputs, expected values and output checks of the benchmark's workloads.

A workload draws a small pool of inputs from a seed and turns each into a
`Slot`: the CLI arguments of one op and a check of that op's output.  Ops
cycle through the pool.  Expected values are derived here, at set-up, by
routes that share no code with memwave:

* roots of the mode cubic z^3 + eta z^2 + lam z + (eta - beta) lam come from
  companion-matrix eigenvalues polished by Newton steps, not from the closed
  form in memwave.spectrum;
* mode coefficients come from the explicit Lagrange form of the 3x3 system
  x(0) = a, x'(0) = b, x''(0) = -lam a;
* gamma(beta) comes from the lowest mode: F(3 beta / (2 sqrt 2)) is
  sqrt(2) Re omega_11, so gamma = (sqrt 2 - 1) Re omega_11 / sqrt 2;
* the boundary-trace energy comes from Gauss-Legendre quadrature in time of
  the squared boundary flux, not from pairwise exponential integration;
* gap-audit extrema come from a scan over every index pair.

The program sees only the files and flags; the sine coefficients behind each
grid are known exactly here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

#: Tolerances stated by the repository: energy checks, gap audits, and the
#: conjugacy of the 3x3 coefficient solve.
ENERGY_RTOL = 1e-9
AUDIT_TOL = 1e-12
REALITY_RTOL = 1e-10

#: Inputs per workload; ops cycle through them, so each input recurs and its
#: outputs can be compared byte for byte.
POOL = 3

BETA_MAX = 2.0 / math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)

OBSERVE_T = 50.0
OBSERVE_MU = 1.0

# Gauss-Legendre nodes per panel, and the largest phase (radians) of the
# fastest oscillation of the squared flux across one panel.  At 40 radians the
# 24-node rule is exact to rounding (checked against twice the panels).
_NODES_PER_PANEL = 24
_PHASE_PER_PANEL = 40.0


@dataclass(frozen=True)
class Slot:
    """One pool input: CLI arguments (without --output) and the check of its output."""

    args: tuple
    check: Callable[[bytes], Optional[str]]
    in_bytes: int

    def argv(self, output: Path) -> list:
        return [*self.args, "--output", str(output)]


# ---------------------------------------------------------------------------
# independent spectrum and coefficients


def mode_roots(beta: float, lam) -> tuple:
    """Per lam: the root z1 = i*omega (Im z1 > 0) and the real root r of the mode cubic."""
    eta = 1.5 * beta
    lam = np.asarray(lam, dtype=float)
    unique, inverse = np.unique(lam, return_inverse=True)
    companion = np.zeros((unique.size, 3, 3))
    companion[:, 0, 0] = -eta
    companion[:, 0, 1] = -unique
    companion[:, 0, 2] = -(eta - beta) * unique
    companion[:, 1, 0] = 1.0
    companion[:, 2, 1] = 1.0
    z = np.linalg.eigvals(companion).astype(complex)
    col = unique[:, None]
    for _ in range(3):
        z = z - (((z + eta) * z + col) * z + (eta - beta) * col) / ((3.0 * z + 2.0 * eta) * z + col)
    z = np.take_along_axis(z, np.argsort(-z.imag, axis=1), axis=1)
    z1, r = z[:, 0][inverse], z[:, 1].real[inverse]
    return z1.reshape(lam.shape), r.reshape(lam.shape)


def gamma_of(beta: float) -> float:
    """Gap constant gamma(beta) from the lowest mode (lam = 2)."""
    z1, _ = mode_roots(beta, [2.0])
    return float((SQRT2 - 1.0) * z1[0].imag / SQRT2)


def mode_coefficients(z1, r, a, b, lam) -> tuple:
    """C (of e^{z1 t}) and R (of e^{r t}) with x(0) = a, x'(0) = b, x''(0) = -lam a."""
    z2 = z1.conj()
    c = -lam * a
    C = (c - (z2 + r) * b + z2 * r * a) / ((z1 - z2) * (z1 - r))
    R = (c - (z1 + z2) * b + z1 * z2 * a) / ((r - z1) * (r - z2))
    return C, R.real


def trace_energy(C, R, z1, r, T: float) -> float:
    """integral_0^T integral_Gamma |du/dnu|^2 dt by composite Gauss-Legendre in t.

    Side y = 0 carries sum_k2 k2 x_{k1 k2}(t) per k1, side x = 0 carries
    sum_k1 k1 x_{k1 k2}(t) per k2; each side integrates to pi/2 times the
    sum of their squares.
    """
    kmax = C.shape[0]
    k = np.arange(1, kmax + 1, dtype=float)
    panels = math.ceil(2.0 * float(np.max(z1.imag)) * T / _PHASE_PER_PANEL)
    width = T / panels
    x, w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    offsets = (x + 1.0) * width / 2.0
    weights = w * width / 2.0
    osc_step = np.exp(z1[None] * offsets[:, None, None])
    dec_step = np.exp(r[None] * offsets[:, None, None])
    total = 0.0
    for p in range(panels):
        start = p * width
        x_t = (2.0 * ((C * np.exp(z1 * start))[None] * osc_step).real
               + (R * np.exp(r * start))[None] * dec_step)
        rows = x_t @ k
        cols = np.einsum("i,nij->nj", k, x_t)
        total += float(weights @ (np.sum(rows * rows, axis=1) + np.sum(cols * cols, axis=1)))
    return math.pi / 2.0 * total


# ---------------------------------------------------------------------------
# inputs


def band_limited(rng: np.random.Generator, kmax: int) -> tuple:
    """Sine coefficients N(0,1)/(k1^2 + k2^2) and their samples on the (2 kmax + 1)^2 interior grid."""
    k = np.arange(1, kmax + 1, dtype=float)
    coeffs = rng.standard_normal((kmax, kmax)) / (k[:, None] ** 2 + k[None, :] ** 2)
    m = 2 * kmax + 1
    sines = np.sin(np.outer(k, math.pi / (m + 1) * np.arange(1, m + 1)))
    return coeffs, sines.T @ coeffs @ sines


def _grid_pair(rng, kmax: int, workdir: Path, tag: str) -> tuple:
    a, u0 = band_limited(rng, kmax)
    b, u1 = band_limited(rng, kmax)
    paths = (workdir / f"{tag}-u0.csv", workdir / f"{tag}-u1.csv")
    np.savetxt(paths[0], u0, delimiter=",", fmt="%.17g")
    np.savetxt(paths[1], u1, delimiter=",", fmt="%.17g")
    return a, b, paths


# ---------------------------------------------------------------------------
# output checks: each returns None for a correct output, else the reason


def _parse(output: bytes):
    try:
        return json.loads(output), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def _mismatches(report: dict, want: dict, tolerances: dict) -> Optional[str]:
    for key, expected in want.items():
        if key not in report:
            return f"missing {key!r}"
        got, tol = report[key], tolerances.get(key)
        if tol is None:
            if got != expected or type(got) is not type(expected):
                return f"{key} = {got!r}, expected {expected!r}"
        elif not (isinstance(got, (int, float)) and abs(got - expected) <= tol):
            return f"{key} = {got!r}, expected {expected!r} within {tol:g}"
    return None


def check_observe(want: dict, tolerances: dict, output: bytes) -> Optional[str]:
    report, error = _parse(output)
    return error or _mismatches(report, want, tolerances)


def check_modes(want: dict, output: bytes) -> Optional[str]:
    records, error = _parse(output)
    if error:
        return error
    a, b, lam = want["a"], want["b"], want["lam"]
    kmax = a.shape[0]
    if not isinstance(records, list) or len(records) != kmax * kmax:
        return f"expected a list of {kmax * kmax} records"
    try:
        col = {key: np.array([rec[key] for rec in records], dtype=float).reshape(kmax, kmax)
               for key in ("k1", "k2", "C_re", "C_im", "R", "re_omega", "im_omega", "r")}
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed record: {exc!r}"
    k = np.arange(1, kmax + 1, dtype=float)
    if not (np.array_equal(col["k1"], np.repeat(k, kmax).reshape(kmax, kmax))
            and np.array_equal(col["k2"], np.tile(k, kmax).reshape(kmax, kmax))):
        return "records are not in (k1, k2) row-major order"

    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    sqrt_lam = np.sqrt(lam)
    z1, r = want["z1"], want["r"]
    root_tol = AUDIT_TOL * np.maximum(1.0, sqrt_lam)
    for name, got, expected in (("re_omega", col["re_omega"], z1.imag),
                                ("im_omega", col["im_omega"], -z1.real),
                                ("r", col["r"], r)):
        if np.any(np.abs(got - expected) > root_tol):
            return f"{name} differs from the companion-matrix roots"

    C = col["C_re"] + 1j * col["C_im"]
    zz, rr, R = 1j * (col["re_omega"] + 1j * col["im_omega"]), col["r"], col["R"]
    derivatives = (
        ("x(0) = a", 2.0 * C.real + R, a, 1.0),
        ("x'(0) = b", 2.0 * (C * zz).real + R * rr, b, sqrt_lam),
        ("x''(0) = -lam a", 2.0 * (C * zz * zz).real + R * rr * rr, -lam * a, lam),
    )
    for name, got, expected, order in derivatives:
        if np.any(np.abs(got - expected) > REALITY_RTOL * scale * order):
            return f"{name} fails against the generated coefficients"
    return None


def check_gaps(want: dict, output: bytes) -> Optional[str]:
    report, error = _parse(output)
    if error:
        return error
    tolerances = {key: AUDIT_TOL * max(1.0, abs(value)) for key, value in want.items()
                  if key not in ("beta", "kmax")}
    return _mismatches(report, want, tolerances)


# ---------------------------------------------------------------------------
# workloads


def _lambda(kmax: int) -> np.ndarray:
    k = np.arange(1, kmax + 1, dtype=float)
    return k[:, None] ** 2 + k[None, :] ** 2


def observe_expected(a, b, beta: float, T: float = OBSERVE_T, mu: float = OBSERVE_MU) -> dict:
    """Every field of the observe report, derived independently (theta = 1)."""
    lam = _lambda(a.shape[0])
    z1, r = mode_roots(beta, lam)
    C, R = mode_coefficients(z1, r, a, b, lam)
    lhs = trace_energy(C, R, z1, r, T)
    rhs_sum = float(np.sum(lam * np.abs(C) ** 2 * (1.0 + np.exp(2.0 * z1.real * T))))
    gamma = gamma_of(beta)
    S = mu * math.pi ** 2 / 6.0
    load = 4.0 * (4.0 + 3.0 * S)
    c0 = (T * math.pi ** 2 / 2.0) * (1.0 / (math.pi ** 2 + T * T * beta * beta)
                                     - load / (T * T * gamma * gamma))
    t0 = 2.0 * math.pi * math.sqrt((4.0 + 3.0 * S) / (gamma * gamma - load * beta * beta))
    beta0 = brentq(lambda x: gamma_of(x) ** 2 - load * x * x, 0.0, BETA_MAX, xtol=1e-14)
    margin = lhs - c0 * rhs_sum
    below, infeasible = not T > t0, beta >= beta0
    return {
        "beta": beta, "T": T, "kmax": a.shape[0], "theta": 1.0, "mu": mu,
        "gamma": gamma, "S": S, "c0": c0, "T0": t0, "beta0": beta0,
        "lhs": lhs, "rhs_sum": rhs_sum, "margin": margin,
        "verdict": margin >= -1e-9 * (1.0 + lhs) and not below and not infeasible,
        "below_threshold": below, "infeasible": infeasible,
    }


def observe_tolerances(want: dict) -> dict:
    """Per-field tolerance of the observe check; fields not listed must match exactly."""
    lhs = want["lhs"]
    return {
        "T": 0.0, "theta": 0.0, "mu": 0.0,
        "gamma": AUDIT_TOL, "S": AUDIT_TOL * want["S"],
        "c0": AUDIT_TOL * abs(want["c0"]), "T0": AUDIT_TOL * want["T0"],
        "beta0": 1e-9,  # the program bisects to 1e-10
        "lhs": ENERGY_RTOL * lhs, "rhs_sum": ENERGY_RTOL * want["rhs_sum"],
        "margin": ENERGY_RTOL * (1.0 + lhs),
    }


def observe_slots(rng, workdir: Path, kmax: int = 64, pool: int = POOL) -> list:
    """observe --T 50 --kmax 64 --mu 1, beta in [0.005, 0.02]: certified verdict true."""
    slots = []
    for index in range(pool):
        a, b, paths = _grid_pair(rng, kmax, workdir, f"observe{index}")
        beta = float(rng.uniform(0.005, 0.02))
        want = observe_expected(a, b, beta)
        if not want["verdict"]:
            raise RuntimeError(f"observe input {index} (beta={beta}) is not certified")
        args = ("observe", "--T", repr(OBSERVE_T), "--kmax", str(kmax), "--mu", repr(OBSERVE_MU),
                "--beta", repr(beta), "--u0", str(paths[0]), "--u1", str(paths[1]))
        check = partial(check_observe, want, observe_tolerances(want))
        slots.append(Slot(args, check, sum(p.stat().st_size for p in paths)))
    return slots


def modes_slots(rng, workdir: Path, kmax: int = 192, pool: int = POOL) -> list:
    """modes --kmax 192, beta in [0.05, 1.1]: one record per mode, written as JSON."""
    slots = []
    lam = _lambda(kmax)
    for index in range(pool):
        a, b, paths = _grid_pair(rng, kmax, workdir, f"modes{index}")
        beta = float(rng.uniform(0.05, 1.1))
        z1, r = mode_roots(beta, lam)
        want = {"a": a, "b": b, "lam": lam, "z1": z1, "r": r}
        args = ("modes", "--kmax", str(kmax), "--beta", repr(beta),
                "--u0", str(paths[0]), "--u1", str(paths[1]))
        slots.append(Slot(args, partial(check_modes, want),
                          sum(p.stat().st_size for p in paths)))
    return slots


def min_pair_ratio(re: np.ndarray) -> float:
    """min over rows i and index pairs k < k' with k' >= i + 1 of |re[i, k'-1] - re[i, k-1]| / (k' - k)."""
    rows, n = re.shape
    row_index = np.arange(1, rows + 1)[:, None]
    best = math.inf
    for d in range(1, n):
        upper = np.arange(d + 1, n + 1)[None, :]
        diff = np.where(upper >= row_index, np.abs(re[:, d:] - re[:, :-d]), math.inf)
        best = min(best, float(diff.min()) / d)
    return best


def gaps_expected(beta: float, kmax: int) -> dict:
    """Every field of the gap-audit report, derived independently."""
    lam = _lambda(kmax)
    z1, _ = mode_roots(beta, lam)
    re, im = z1.imag, -z1.real
    return {
        "beta": beta, "kmax": kmax, "gamma": gamma_of(beta),
        "min_ratio_k2": min_pair_ratio(re), "min_ratio_k1": min_pair_ratio(re.T),
        "min_re_over_norm": float(np.min(re / np.sqrt(lam))),
        "im_min": float(np.min(im)), "im_max": float(np.max(im)),
    }


def gaps_slots(rng, workdir: Path, kmax: int = 384, pool: int = POOL) -> list:
    """gaps --kmax 384, beta in [0.05, 2/sqrt(3)]: the audit extrema as JSON."""
    slots = []
    for _ in range(pool):
        beta = float(rng.uniform(0.05, BETA_MAX))
        args = ("gaps", "--kmax", str(kmax), "--beta", repr(beta))
        slots.append(Slot(args, partial(check_gaps, gaps_expected(beta, kmax)), 0))
    return slots


WORKLOADS = {"observe": observe_slots, "modes": modes_slots, "gaps": gaps_slots}

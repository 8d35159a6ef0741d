"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the closed forms under test:
quadrature oracles use adaptive Gauss-Kronrod refinement, the mode ODE oracle
is a high-order Runge-Kutta integration of the third-order amplitude equation,
and family generation enforces the exponential-sum hypotheses by construction.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from memwave import ExponentFamily, characteristic_roots_numeric, pairwise_exponential_energy


def random_admissible_family(rng, n=None, T=None, real_frequencies=False,
                             force_tau_one=False, window_factor=1.1):
    """Random family satisfying all separated-exponent hypotheses.

    Real frequencies advance by a fresh increment of at least gamma per index,
    which enforces both the pairwise separation and the linear growth bound
    (a naive per-index jitter of gamma*n does not).  Decay exponents sit below
    -Im omega, and the decaying amplitudes stay within mu*|C|/n.

    gamma sits window_factor..window_factor+1 times above the 2*pi/T window
    bound; the lower-bound right side is positive only once that multiple
    clears roughly sqrt(1 + S/2), so positive-rhs batches need a factor >= 2.5.
    """
    n = int(rng.integers(1, 13)) if n is None else n
    T = float(2.0 + 8.0 * rng.random()) if T is None else T
    gamma = 2.0 * math.pi / T * (window_factor + rng.random())
    steps = gamma * (1.0 + 0.2 * rng.random(n))
    re = np.cumsum(steps)
    im = np.zeros(n) if real_frequencies else 0.4 * rng.random(n)
    cs = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    mu = 0.5 + rng.random()
    theta = 1.0
    idx = np.arange(1, n + 1)
    amps = (2.0 * rng.random(n) - 1.0) * mu * np.abs(cs) / idx**theta
    rs = -im - 0.5 * rng.random(n)
    tau = 1 if force_tau_one else int(rng.integers(1, n + 1))
    family = ExponentFamily(
        omegas=re + 1j * im, rs=rs, Cs=cs, Rs=amps,
        gamma=gamma, tau=tau, theta=theta, mu=mu,
    )
    return family, T


def family_signal(family):
    """The real signal F(t) of a family, as a plain callable."""

    def f(t):
        osc = 2.0 * np.real(family.Cs * np.exp(1j * family.omegas * t))
        dec = family.Rs * np.exp(family.rs * t)
        return float(np.sum(osc) + np.sum(dec))

    return f


def pairwise_trace_energy(expansion, T):
    """Slow oracle of boundary_trace_energy: one pairwise_exponential_energy per
    mode row and per column, each over the 3*kmax terms of its real signal."""
    k = np.arange(1, expansion.kmax + 1, dtype=float)

    def side(C, R, omega, r):
        coeffs = np.concatenate([C * k, (C * k).conj(), R * k])
        exps = np.concatenate([1j * omega, -1j * omega.conj(), r])
        return pairwise_exponential_energy(coeffs, exps, T)

    e = expansion
    parts = [side(e.C[i, :], e.R[i, :], e.omega[i, :], e.r[i, :]) for i in range(e.kmax)]
    parts += [side(e.C[:, i], e.R[:, i], e.omega[:, i], e.r[:, i]) for i in range(e.kmax)]
    return math.pi / 2.0 * math.fsum(parts)


def lagrange_coefficients(params, lam, a, b):
    """Oracle of the per-mode coefficient solve, sharing no code with `modes`.

    With companion-matrix roots (z1, z2, z3) and x(0) = a, x'(0) = b,
    x''(0) = -lam*a, the Lagrange form of the Vandermonde inverse gives

        c_j = (x''(0) - (z_k + z_l) x'(0) + z_k z_l x(0)) / ((z_j - z_k)(z_j - z_l)).

    Returns (C, R) = (c_1, Re c_3).
    """
    z = characteristic_roots_numeric(params, lam)
    x0, x1, x2 = a, b, -lam * a

    def c(j):
        zj, zk, zl = z[j], z[(j + 1) % 3], z[(j + 2) % 3]
        return (x2 - (zk + zl) * x1 + zk * zl * x0) / ((zj - zk) * (zj - zl))

    return c(0), c(2).real


def brute_force_gap_ratios(re):
    """Oracle of the gap audit's ratios, scanning rows and columns separately.

    Returns (min_ratio_k2, min_ratio_k1): the least |Re omega difference| /
    |index difference| over pairs (k2, k2') in each row k1 with
    max(k2, k2') >= k1, and over pairs (k1, k1') in each column k2 with
    max(k1, k1') >= k2.  Every (fixed index, pair) triple is formed at once.
    """
    kmax = re.shape[0]
    k = np.arange(1, kmax + 1)
    fixed, i, j = np.meshgrid(k, k, k, indexing="ij")
    admissible = (i != j) & (np.maximum(i, j) >= fixed)
    den = np.abs(i - j).astype(float)

    def scan(rows):
        num = np.abs(rows[:, :, None] - rows[:, None, :])
        return float(np.min(num[admissible] / den[admissible]))

    return scan(re), scan(re.T)


def quad_energy(family, T, epsabs=1e-11):
    """Adaptive-quadrature oracle for the time-average energy of a family."""
    f = family_signal(family)
    value, _ = quad(lambda t: f(t) ** 2, 0.0, T,
                    epsabs=epsabs, epsrel=1e-11, limit=2000)
    return value


def quad_windowed_moment(z, u, T):
    """Adaptive-quadrature oracle for the half-sine windowed moment."""
    import warnings
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(
            lambda t: math.sin(math.pi * t / T) * (z * np.exp(1j * u * t)).real,
            0.0, T, epsabs=1e-12, epsrel=1e-12, limit=3000,
        )
    return value


def mode_ode_oracle(beta, eta, lam, a, b, ts):
    """High-accuracy integration of x''' + eta x'' + lam x' + lam(eta-beta) x = 0.

    Initial state (a, b, -lam*a); returns x at the requested times.
    """
    def rhs(_t, y):
        return [y[1], y[2], -(eta * y[2] + lam * y[1] + lam * (eta - beta) * y[0])]

    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    sol = solve_ivp(rhs, (0.0, float(np.max(ts))), [a, b, -lam * a],
                    t_eval=ts, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[0]


def sine_polynomial_on_grid(coeffs, m):
    """Evaluate sum_k coeffs[k1-1,k2-1] sin(k1 x) sin(k2 y) on the uniform interior grid."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = np.arange(1, coeffs.shape[0] + 1, dtype=float)
    x = np.pi / (m + 1) * np.arange(1, m + 1)
    sines = np.sin(np.outer(k, x))
    return sines.T @ coeffs @ sines

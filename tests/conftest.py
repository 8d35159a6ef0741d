"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the closed forms under test:
quadrature oracles use adaptive Gauss-Kronrod refinement, the mode ODE oracle
is a high-order Runge-Kutta integration of the third-order amplitude equation,
and family generation enforces the exponential-sum hypotheses by construction.
"""

import json
import math

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp

import memwave.gap_analysis as ga
from memwave import (
    AuditFailure,
    ExponentFamily,
    GapConstant,
    InputError,
    Violation,
    pairwise_exponential_energy,
)


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


def pairwise_signal_energy(C, R, omega, r, T):
    """Slow oracle of the Cauchy kernel: the energy of the real signal
    sum_a C_a e^{i omega_a t} + conj(C_a) e^{-i conj(omega_a) t} + R_a e^{r_a t}
    by one pairwise_exponential_energy over its 3n terms."""
    coeffs = np.concatenate([C, np.conj(C), R])
    exps = np.concatenate([1j * omega, -1j * np.conj(omega), r])
    return pairwise_exponential_energy(coeffs, exps, T)


def pairwise_trace_energy(expansion, T):
    """Slow oracle of boundary_trace_energy: one pairwise_signal_energy per
    mode row and per column."""
    k = np.arange(1, expansion.kmax + 1, dtype=float)
    e = expansion
    parts = [pairwise_signal_energy(e.C[i, :] * k, e.R[i, :] * k, e.omega[i, :], e.r[i, :], T)
             for i in range(e.kmax)]
    parts += [pairwise_signal_energy(e.C[:, i] * k, e.R[:, i] * k, e.omega[:, i], e.r[:, i], T)
              for i in range(e.kmax)]
    return math.pi / 2.0 * math.fsum(parts)


def characteristic_roots_numeric(params, lam):
    """Oracle of the closed-form roots: the three cubic roots from
    companion-matrix eigenvalues, sharing no code with `spectrum`.

    Canonical order: conjugate pair first (positive imaginary part leading),
    then the root closest to the real axis.
    """
    if lam <= 0.0:
        raise InputError("lam must be > 0")
    roots = np.roots([1.0, params.eta, lam, (params.eta - params.beta) * lam])
    real_idx = int(np.argmin(np.abs(roots.imag)))
    pair = sorted((roots[i] for i in range(3) if i != real_idx),
                  key=lambda z: -z.imag)
    return complex(pair[0]), complex(pair[1]), complex(roots[real_idx])


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


def lu_coefficients(z1, r, a, b, lam):
    """Oracle of the closed-form coefficient solve: one complex 3x3 Vandermonde
    system per mode in the exponents (z1, conj(z1), r), with right side
    (a, b, -lam*a), by a batched LU solve (`np.linalg.solve`).  Arrays of one
    shape in, (C, R) = (c_1, Re c_3) of that shape out."""
    shape = np.shape(a)
    z1, r, a, b, lam = (np.reshape(x, -1) for x in (z1, r, a, b, lam))
    z = np.stack([z1, z1.conj(), r.astype(complex)], axis=1)
    matrices = np.stack([np.ones_like(z), z, z * z], axis=1)
    rhs = np.stack([a, b, -lam * a], axis=1).astype(complex)
    coeffs = np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
    return coeffs[:, 0].reshape(shape), coeffs[:, 2].real.reshape(shape)


def exact_coefficients(z1, r, a, b, lam):
    """(C, R) of one mode to 50 digits: the same Vandermonde system as
    `lu_coefficients`, its float entries taken exactly, solved in mpmath."""
    with mpmath.workdps(50):
        z = [mpmath.mpc(z1.real, z1.imag), mpmath.mpc(z1.real, -z1.imag), mpmath.mpf(r)]
        a = mpmath.mpf(a)
        matrix = mpmath.matrix([[1, 1, 1], z, [x * x for x in z]])
        c = mpmath.lu_solve(matrix, mpmath.matrix([a, mpmath.mpf(b), -mpmath.mpf(lam) * a]))
        return c[0], c[2].real


def coefficient_errors(C, R, z1, r, a, b, lam):
    """Largest |C - C*| / |C*| and |R - R*| / max(|a|, |b|) over modes, with
    (C*, R*) from `exact_coefficients`."""
    worst_c = worst_r = 0.0
    for args in zip(*(np.ravel(x).tolist() for x in (C, R, z1, r, a, b, lam))):
        c, rr, z, root, a_k, b_k, lam_k = args
        exact_c, exact_r = exact_coefficients(z, root, a_k, b_k, lam_k)
        with mpmath.workdps(50):
            worst_c = max(worst_c, float(abs(mpmath.mpc(c) - exact_c) / abs(exact_c)))
            worst_r = max(worst_r, float(abs(mpmath.mpf(rr) - exact_r) / max(abs(a_k), abs(b_k))))
    return worst_c, worst_r


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


def _min_row_ratio(re_row, fixed_index, kmax):
    """Worst |Re omega difference| / |index difference| over admissible pairs in one row.

    Pairs (k, k') are admissible when max(k, k') >= fixed_index.
    """
    k = np.arange(1, kmax + 1)
    den = np.abs(k[:, None] - k[None, :]).astype(float)
    # never empty: kmax >= 2 makes (1, kmax) admissible in every row
    admissible = (den > 0) & (np.maximum(k[:, None], k[None, :]) >= fixed_index)
    num = np.abs(re_row[:, None] - re_row[None, :])
    ratios = np.where(admissible, num / np.where(den > 0, den, 1.0), math.inf)
    flat = int(np.argmin(ratios))
    i, j = np.unravel_index(flat, ratios.shape)
    return float(ratios[i, j]), (int(k[i]), int(k[j]))


def row_scan_gap_audit(re):
    """Oracle of the gap audit's ratio at scale: every admissible pair of every
    row, one row at a time, in O(kmax^3).

    Returns (min_ratio, worst) with worst = (k1, (k, k')), the first row
    reaching the minimum and its first such pair in row-major order, as the
    audit's AuditFailure datum names it.
    """
    kmax = re.shape[0]
    min_ratio = math.inf
    worst = None
    for k1 in range(1, kmax + 1):
        ratio, pair = _min_row_ratio(re[k1 - 1, :], k1, kmax)
        if ratio < min_ratio:
            min_ratio = ratio
            worst = (k1, pair)
    return min_ratio, worst


def audit_gap_ratio(params, kmax):
    """(min_ratio, worst) of `gap_analysis.audit_gaps`, in the form of
    `row_scan_gap_audit`: the ratio from a passing audit, the worst pair from
    the AuditFailure it raises while `gap_constant` returns gamma = inf.  The
    pair must be plain ints.  `gap_constant` is restored on return."""
    min_ratio = ga.audit_gaps(params, kmax).min_ratio_k2
    real = ga.gap_constant
    ga.gap_constant = lambda beta: GapConstant(gamma=math.inf, beta=beta)
    try:
        ga.audit_gaps(params, kmax)
    except AuditFailure as exc:
        worst = exc.datum
    else:
        raise AssertionError(f"kmax {kmax}: the audit passed gamma = inf")
    finally:
        ga.gap_constant = real
    assert all(type(k) is int for k in (worst[0], *worst[1]))
    return min_ratio, worst


def loop_check_hypotheses(family, T):
    """Oracle of check_hypotheses: one Python loop per hypothesis, pairs row-major.

    Same Violation list in the same order: window, theta and mu first, then
    separation over pairs (n, m) with n < m and m >= tau, then growth,
    root-decay and amplitude per index.
    """
    slack = 1e-12
    gamma, tau, n = family.gamma, family.tau, len(family)
    re, im = family.omegas.real, family.omegas.imag
    out = []
    if gamma <= 2.0 * math.pi / T:
        out.append(Violation("window", (), f"gamma={gamma} <= 2*pi/T={2.0 * math.pi / T}"))
    if family.theta <= 0.5:
        out.append(Violation("amplitude", (), f"theta={family.theta} <= 1/2"))
    if family.mu <= 0.0 and any(r != 0.0 for r in family.Rs):
        out.append(Violation("amplitude", (), f"mu={family.mu} <= 0"))
    for a in range(n):
        for b in range(a + 1, n):
            required, got = gamma * (b - a), abs(re[a] - re[b])
            if b + 1 >= tau and got < required - slack * max(1.0, required):
                out.append(Violation("separation", (a + 1, b + 1),
                                     f"|Re omega_{a + 1} - Re omega_{b + 1}|={got} "
                                     f"< gamma*|n-m|={required}"))
    for a in range(n):
        bound = gamma * (a + 1)
        if re[a] < bound - slack * max(1.0, bound):
            out.append(Violation("growth", (a + 1,), f"Re omega={re[a]} < gamma*n={bound}"))
    for a in range(n):
        if family.rs[a] > -im[a] + slack * max(1.0, abs(im[a])):
            out.append(Violation("root-decay", (a + 1,),
                                 f"r={family.rs[a]} > -Im omega={-im[a]}"))
    if family.theta > 0.5 and family.mu > 0.0:
        # the bound as the library forms it: numpy's complex abs may differ from
        # Python's in the last bit
        bounds = family.mu * np.abs(family.Cs) / np.arange(1, n + 1) ** family.theta
        for a, allowed in enumerate(bounds):
            if abs(family.Rs[a]) > allowed + slack * max(1.0, allowed):
                out.append(Violation("amplitude", (a + 1,),
                                     f"|R|={abs(family.Rs[a])} > mu*|C|/n^theta={allowed}"))
    return out


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def reference_json_dumps(obj, indent=0):
    """Reference JSON writer: a recursive walk over dicts, lists and scalars,
    insertion order, 17 significant digits, NaN/Infinity for non-finite floats."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {reference_json_dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{reference_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = format(float(obj), ".17g")
        return _JSON_NON_FINITE.get(text, text)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_csv_table(header, rows):
    """Reference CSV writer: `header`, then one line per row; integers by str,
    floats with 17 significant digits (nan, inf and -inf as Python spells them)."""
    def cell(x):
        return str(int(x)) if isinstance(x, (int, np.integer)) else format(float(x), ".17g")

    return "\n".join([header, *(",".join(map(cell, row)) for row in rows)]) + "\n"


def reference_mode_table(columns, fmt):
    """A per-mode table through the reference writers: k1, k2, then `columns`."""
    kmax = len(next(iter(columns.values())))
    k1, k2 = np.indices((kmax, kmax)) + 1
    names = ["k1", "k2", *columns]
    rows = list(zip(*(a.ravel().tolist() for a in (k1, k2, *columns.values()))))
    if fmt == "csv":
        return reference_csv_table(",".join(names), rows)
    return reference_json_dumps([dict(zip(names, row)) for row in rows]) + "\n"


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

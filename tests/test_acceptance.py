"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import json
import math
import time

import numpy as np

from conftest import quad_energy, quad_windowed_moment, random_admissible_family
from memwave import (
    BETA_MAX,
    InitialData,
    KernelParams,
    ObservabilityConfig,
    PoleError,
    characteristic_roots,
    energy_integral,
    energy_lower_bound,
    estimate_mu,
    evaluate_solution_grid,
    expand,
    freq_scale_parts,
    gap_constant,
    kernel_decay_bound,
    mode_spectrum,
    audit_gaps,
    solve_mode_coefficients,
    thresholds,
    verify_observability,
    verify_scale_decreasing,
    windowed_moment,
)
from memwave.cli import parse_and_dispatch
from conftest import mode_ode_oracle

SQRT2 = math.sqrt(2.0)

BETA_SWEEP = [round(0.1 * i, 10) for i in range(12)]  # 0.0 .. 1.1


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def batched_companion_roots(eta: float, beta: float, lam_flat: np.ndarray) -> np.ndarray:
    """Oracle roots of z^3 + eta z^2 + lam z + (eta-beta) lam, one cubic per entry."""
    n = lam_flat.size
    comp = np.zeros((n, 3, 3))
    comp[:, 0, 0] = -eta
    comp[:, 0, 1] = -lam_flat
    comp[:, 0, 2] = -(eta - beta) * lam_flat
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    return np.linalg.eigvals(comp)


def min_permutation_error(closed: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """Per-mode multiset distance, normalized by max(1, |root|), minimal over pairings."""
    best = np.full(closed.shape[0], np.inf)
    for perm in itertools.permutations(range(3)):
        paired = oracle[:, perm]
        scale = np.maximum(1.0, np.maximum(np.abs(closed), np.abs(paired)))
        err = np.max(np.abs(closed - paired) / scale, axis=1)
        best = np.minimum(best, err)
    return best


def test_criterion_1_spectrum_vs_oracle():
    start = time.perf_counter()
    worst = 0.0
    worst_vieta = 0.0
    for beta in BETA_SWEEP:
        params = KernelParams.limiting_regime(beta)
        lam, omega, r = mode_spectrum(params, 64)
        lam_flat = lam.reshape(-1)
        closed = np.stack(
            [1j * omega.reshape(-1), -1j * omega.conj().reshape(-1),
             r.reshape(-1).astype(complex)], axis=1)
        oracle = batched_companion_roots(params.eta, params.beta, lam_flat)
        worst = max(worst, float(np.max(min_permutation_error(closed, oracle))))

        z1, z2, z3 = closed[:, 0], closed[:, 1], closed[:, 2]
        res = np.maximum(
            np.abs(z1 + z2 + z3 + params.eta),
            np.maximum(np.abs(z1 * z2 + z1 * z3 + z2 * z3 - lam_flat),
                       np.abs(z1 * z2 * z3 + (params.eta - params.beta) * lam_flat)),
        )
        worst_vieta = max(worst_vieta, float(np.max(res / np.maximum(1.0, lam_flat))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and worst_vieta < 1e-9 and elapsed < 10.0
    report(1, ok, f"spectrum vs companion oracle, 12 beta values, kmax=64 "
                  f"(root err {worst:.2e} <= 1e-9, vieta {worst_vieta:.2e} <= 1e-9, "
                  f"{elapsed:.2f} s < 10 s)")
    assert worst < 1e-9
    assert worst_vieta < 1e-9
    assert elapsed < 10.0


def test_criterion_2_root_ordering_bands():
    worst_order = -np.inf
    worst_band = -np.inf
    for beta in BETA_SWEEP:
        params = KernelParams.limiting_regime(beta)
        _, omega, r = mode_spectrum(params, 64)
        im = omega.imag
        worst_order = max(worst_order, float(np.max(r + im)))          # r <= -Im
        worst_order = max(worst_order, float(np.max(im - params.eta / 3.0)))
        worst_band = max(worst_band, float(np.max(-im)))               # Im >= 0
        worst_band = max(worst_band, float(np.max(im - beta / 2.0)))   # Im <= beta/2
    ok = worst_order <= 1e-12 and worst_band <= 1e-12
    report(2, ok, f"root ordering and imaginary band over the sweep "
                  f"(excess {max(worst_order, worst_band):.2e} <= 1e-12)")
    assert worst_order <= 1e-12
    assert worst_band <= 1e-12


def test_criterion_3_gap_constant():
    gamma0_err = abs(gap_constant(0.0).gamma - (SQRT2 - 1.0))
    betas = np.arange(0.0, BETA_MAX + 1e-3, 1e-3)
    betas[-1] = BETA_MAX
    gammas = np.array([gap_constant(float(b)).gamma for b in betas])
    decreasing = bool(np.all(np.diff(gammas) < 0.0))
    # gap_constant certifies the two evaluation routes to 1e-12 on every call
    ok = gamma0_err < 1e-12 and decreasing
    report(3, ok, f"gap constant (|gamma(0)-(sqrt2-1)| = {gamma0_err:.2e} < 1e-12, "
                  f"strictly decreasing on a 1e-3 grid of {betas.size} points, "
                  f"both evaluation routes within 1e-12)")
    assert gamma0_err < 1e-12
    assert decreasing


def test_criterion_4_gap_audits_and_scale_function():
    audits = []
    for beta in (0.0, 0.3, 0.6, 0.9, BETA_MAX):
        audits.append(audit_gaps(KernelParams.limiting_regime(beta), 32))
    max_fwd = verify_scale_decreasing(10**4)
    xs = np.linspace(0.0, math.sqrt(3.0), 10**4, endpoint=False)
    _, f_minus = freq_scale_parts(xs)
    f_minus_positive = bool(np.all(f_minus > 0.0))
    _, f_minus_end = freq_scale_parts(math.sqrt(3.0))
    ok = (len(audits) == 5 and max_fwd <= 1e-12 and f_minus_positive
          and abs(f_minus_end) < 1e-12)
    report(4, ok, f"gap audits at 5 beta values (kmax=32, slack 1e-12); scale "
                  f"function nonincreasing on 1e4-point grid (max fwd diff "
                  f"{max_fwd:.2e}); f_minus > 0 before sqrt(3) and "
                  f"|f_minus(sqrt3)| = {abs(f_minus_end):.2e} < 1e-12")
    assert len(audits) == 5
    assert max_fwd <= 1e-12
    assert f_minus_positive
    assert abs(f_minus_end) < 1e-12


def test_criterion_5_window_kernel_identities():
    rng = np.random.default_rng(2024)
    worst_moment = 0.0
    draws = 0
    while draws < 500:
        z = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        magnitude = 10.0 ** rng.uniform(-1.0, 3.0)
        u = complex(math.copysign(magnitude, rng.uniform(-1.0, 1.0)),
                    rng.uniform(-2.0, 2.0))
        T = rng.uniform(0.5, 5.0)
        try:
            closed = windowed_moment(z, u, T)
        except PoleError:
            continue
        worst_moment = max(worst_moment, abs(closed - quad_windowed_moment(z, u, T)))
        draws += 1

    bound_checked = 0
    while bound_checked < 10**4:
        T = rng.uniform(1.0, 20.0)
        gamma = 2.0 * math.pi / T * (1.0 + rng.uniform(1e-3, 3.0))
        j = int(rng.integers(1, 21))
        radius = gamma * j * (1.0 + rng.uniform(0.0, 10.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        u = radius * np.exp(1j * angle)
        value, bound = kernel_decay_bound(u, j, gamma, T)  # raises on failure
        assert value <= bound
        bound_checked += 1

    n = 10**6
    js = np.arange(1, n + 1, dtype=float)
    partial = float(np.sum(1.0 / (4.0 * js * js - 1.0)))
    series_err = abs(partial + 0.5 / (2.0 * n + 1.0) - 0.5)

    ok = worst_moment < 1e-9 and series_err < 1e-12
    report(5, ok, f"window kernel: moment identity on 500 draws (worst abs err "
                  f"{worst_moment:.2e} < 1e-9); decay bound on 1e4 admissible draws; "
                  f"auxiliary series within {series_err:.2e} < 1e-12")
    assert worst_moment < 1e-9
    assert series_err < 1e-12


def test_criterion_6_energy_lower_bound_property():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    positive_rhs = 0
    checked = 0
    for k in range(110):
        if k < 35:
            family, T = random_admissible_family(
                rng, T=70.0, real_frequencies=True, force_tau_one=True,
                window_factor=2.5)
        else:
            family, T = random_admissible_family(rng)
        rep = energy_lower_bound(family, T)  # certifies margin internally
        assert rep.margin >= -1e-9 * (1.0 + abs(rep.rhs))
        if rep.rhs > 0.0:
            positive_rhs += 1
        checked += 1

    worst_quad = 0.0
    for _ in range(50):
        family, T = random_admissible_family(rng, n=int(rng.integers(1, 6)), T=4.0)
        exact = energy_integral(family, T)
        approx = quad_energy(family, T)
        worst_quad = max(worst_quad, abs(exact - approx) / max(1.0, abs(approx)))
    elapsed = time.perf_counter() - start
    ok = checked >= 100 and positive_rhs >= 30 and worst_quad <= 1e-8 and elapsed < 30.0
    report(6, ok, f"energy lower bound on {checked} random families "
                  f"({positive_rhs} with positive rhs >= 30); exact energy vs "
                  f"quadrature on 50 families (worst rel err {worst_quad:.2e} "
                  f"<= 1e-8); {elapsed:.2f} s < 30 s")
    assert checked >= 100
    assert positive_rhs >= 30
    assert worst_quad <= 1e-8
    assert elapsed < 30.0


def test_criterion_7_modes_round_trip():
    rng = np.random.default_rng(4242)
    kmax = 16
    a = rng.normal(size=(kmax, kmax))
    b = rng.normal(size=(kmax, kmax))
    data = InitialData(a=a, b=b, kmax=kmax)
    params = KernelParams.limiting_regime(0.4)
    expansion = expand(params, data)

    xs = np.pi / 66 * np.arange(1, 66)
    sines = np.sin(np.outer(np.arange(1, kmax + 1), xs))
    u0_err = float(np.max(np.abs(
        evaluate_solution_grid(expansion, 0.0, xs, xs) - sines.T @ a @ sines)))
    h = 1e-5
    du = (evaluate_solution_grid(expansion, h, xs, xs)
          - evaluate_solution_grid(expansion, -h, xs, xs)) / (2.0 * h)
    u1_err = float(np.max(np.abs(du - sines.T @ b @ sines)))

    ts = rng.uniform(0.0, 5.0, size=20)
    worst_resid = 0.0
    for k1 in range(kmax):
        for k2 in range(kmax):
            lam = float(expansion.lam[k1, k2])
            z = np.array([1j * expansion.omega[k1, k2],
                          -1j * expansion.omega[k1, k2].conjugate(),
                          complex(expansion.r[k1, k2])])
            c = np.array([expansion.C[k1, k2], expansion.C[k1, k2].conjugate(),
                          expansion.R[k1, k2]])
            poly = z**3 + params.eta * z**2 + lam * z + lam * (params.eta - params.beta)
            resid = np.max(np.abs(np.sum(c * poly * np.exp(np.outer(ts, z)), axis=1)))
            worst_resid = max(worst_resid, float(resid) / (1.0 + lam**1.5))

    worst_rk = 0.0
    check_ts = [0.1, 0.5, 1.0]
    for _ in range(20):
        beta = float(rng.uniform(0.0, 1.0))
        p = KernelParams.limiting_regime(beta)
        k1, k2 = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        lam = float(k1 * k1 + k2 * k2)
        av, bv = rng.normal(size=2)
        triple = characteristic_roots(p, lam)
        mc = solve_mode_coefficients(av, bv, triple, lam)
        oracle = mode_ode_oracle(p.beta, p.eta, lam, av, bv, check_ts)
        for t, x_ref in zip(check_ts, oracle):
            x = 2.0 * (mc.C * np.exp(1j * triple.omega * t)).real \
                + mc.R * math.exp(triple.r * t)
            worst_rk = max(worst_rk, abs(x - x_ref))

    ok = u0_err <= 1e-9 and u1_err <= 1e-4 and worst_resid <= 1e-8 and worst_rk <= 1e-8
    report(7, ok, f"mode round trip at kmax=16 (u0 sup err {u0_err:.2e} <= 1e-9, "
                  f"u1 diff err {u1_err:.2e} <= 1e-4, ODE residual "
                  f"{worst_resid:.2e} <= 1e-8, RK oracle {worst_rk:.2e} <= 1e-8)")
    assert u0_err <= 1e-9
    assert u1_err <= 1e-4
    assert worst_resid <= 1e-8
    assert worst_rk <= 1e-8


def test_criterion_8_observability_end_to_end():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    kmax = 8

    all_true = True
    min_margin = np.inf
    config0 = ObservabilityConfig(beta=0.0, T=50.0, kmax=kmax, mu=1.0)
    assert config0.T > thresholds(0.0, 1.0, 1.0)[1]  # 50 > ~45.34
    for _ in range(50):
        data = InitialData(a=rng.normal(size=(kmax, kmax)),
                           b=rng.normal(size=(kmax, kmax)), kmax=kmax)
        rep = verify_observability(config0, data)
        all_true &= rep.verdict
        min_margin = min(min_margin, rep.margin)

    beta = 0.01
    for _ in range(50):
        data = InitialData(a=rng.normal(size=(kmax, kmax)),
                           b=rng.normal(size=(kmax, kmax)), kmax=kmax)
        mu_hat = estimate_mu(KernelParams.limiting_regime(beta), data).mu_hat
        _, t0 = thresholds(beta, mu_hat, 1.0)
        config = ObservabilityConfig(beta=beta, T=1.1 * t0, kmax=kmax, mu=mu_hat)
        rep = verify_observability(config, data)
        all_true &= rep.verdict
        min_margin = min(min_margin, rep.margin)

    elapsed = time.perf_counter() - start
    ok = all_true and min_margin >= 0.0 and elapsed < 60.0
    report(8, ok, f"end-to-end observability, 50 runs at beta=0 (T=50) and 50 at "
                  f"beta=0.01 (T=1.1*T0), kmax=8: all verdicts true, min margin "
                  f"{min_margin:.3e} >= 0, {elapsed:.2f} s < 60 s")
    assert all_true
    assert min_margin >= 0.0
    assert elapsed < 60.0


def test_criterion_9_cli_determinism(tmp_path):
    samples = 13
    x = np.pi / (samples + 1) * np.arange(1, samples + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    u0 = tmp_path / "u0.csv"
    u1 = tmp_path / "u1.csv"
    np.savetxt(u0, np.sin(X) * np.sin(Y) + 0.2 * np.sin(2 * X) * np.sin(3 * Y),
               delimiter=",")
    np.savetxt(u1, 0.3 * np.sin(X) * np.sin(2 * Y), delimiter=",")
    family = tmp_path / "family.json"
    family.write_text(json.dumps({
        "omega_re": [3.0, 6.5], "omega_im": [0.05, 0.1], "r": [-0.1, -0.2],
        "C_re": [0.5, 0.25], "C_im": [0.0, 0.1], "R": [0.05, 0.02],
        "gamma": 3.0, "tau": 1, "theta": 1.0, "mu": 1.0,
    }))
    commands = [
        ["spectrum", "--beta", "0.5", "--eta", "0.75", "--kmax", "8", "--format", "csv"],
        ["spectrum", "--beta", "0.5", "--eta", "0.75", "--kmax", "4", "--format", "json"],
        ["gaps", "--beta", "0.4", "--kmax", "16"],
        ["thresholds", "--mu", "0.5", "--theta", "0.75", "--beta-steps", "32"],
        ["ingham-check", "--family", str(family), "--T", "4"],
        ["modes", "--beta", "0.1", "--kmax", "4", "--u0", str(u0), "--u1", str(u1)],
        ["observe", "--beta", "0.01", "--T", "50", "--kmax", "4", "--mu", "1",
         "--u0", str(u0), "--u1", str(u1)],
        ["thresholds", "--mu", "1", "--beta-steps", "16"],
    ]
    identical = True
    for i, argv in enumerate(commands):
        out_a = tmp_path / f"run_{i}_a.out"
        out_b = tmp_path / f"run_{i}_b.out"
        assert parse_and_dispatch(argv + ["--output", str(out_a)]) == 0
        assert parse_and_dispatch(argv + ["--output", str(out_b)]) == 0
        identical &= out_a.read_bytes() == out_b.read_bytes()
    report(9, identical, f"byte-identical repeated CLI runs across "
                         f"{len(commands)} subcommand invocations")
    assert identical

"""Coefficient recovery from initial data, series evaluation, and the mu estimate."""

import math

import mpmath
import numpy as np
import pytest
from scipy.fft import dstn

from conftest import (
    SINE_TABLE_ERROR,
    coefficient_errors,
    exact_sine_coefficients,
    fft_sine_coefficients,
    lagrange_coefficients,
    lu_coefficients,
    mode_ode_oracle,
    sine_coefficient_bound,
    sine_polynomial_on_grid,
)
from memwave import (
    BETA_MAX,
    DegenerateExponents,
    DegenerateMode,
    GridTooCoarse,
    InitialData,
    KernelParams,
    ModeExpansion,
    NoUsableModes,
    RealityViolation,
    SpectralTriple,
    characteristic_roots,
    estimate_mu,
    evaluate_solution,
    evaluate_solution_grid,
    expand,
    laplace_eigenvalue,
    mode_spectrum,
    mu_from_expansion,
    sine_coefficients,
    solve_mode_coefficients,
)
from memwave.modes import _sine_table


def within_the_bound(coefficients, values, kmax):
    """Whether every coefficient lies within `sine_coefficient_bound` of the
    50-digit DST of the samples, the difference taken in mpmath."""
    exact = exact_sine_coefficients(values, kmax)
    bound = sine_coefficient_bound(values, kmax)
    with mpmath.workdps(50):
        return all(abs(mpmath.mpf(c) - exact[i][j]) <= bound[i, j]
                   for (i, j), c in np.ndenumerate(coefficients))


def interior_grid(m):
    x = np.pi / (m + 1) * np.arange(1, m + 1)
    return np.meshgrid(x, x, indexing="ij")


class TestSineCoefficients:
    def test_single_mode_orthogonality(self):
        m = 129
        X, Y = interior_grid(m)
        coeffs = sine_coefficients(np.sin(X) * np.sin(2 * Y), kmax=8)
        assert abs(coeffs[0, 1] - 1.0) < 1e-12
        mask = np.ones_like(coeffs, dtype=bool)
        mask[0, 1] = False
        assert np.max(np.abs(coeffs[mask])) < 1e-12

    def test_zero_data(self):
        coeffs = sine_coefficients(np.zeros((33, 33)), kmax=8)
        assert np.all(coeffs == 0.0)

    def test_two_mode_polynomial(self):
        m = 65
        X, Y = interior_grid(m)
        values = 3.0 * np.sin(2 * X) * np.sin(2 * Y) - np.sin(5 * X) * np.sin(Y)
        coeffs = sine_coefficients(values, kmax=6)
        assert abs(coeffs[1, 1] - 3.0) < 1e-12
        assert abs(coeffs[4, 0] + 1.0) < 1e-12

    def test_exact_on_random_band_limited_data(self):
        rng = np.random.default_rng(23)
        kmax = 7
        target = rng.normal(size=(kmax, kmax))
        values = sine_polynomial_on_grid(target, 2 * kmax + 1)
        coeffs = sine_coefficients(values, kmax)
        assert np.max(np.abs(coeffs - target)) < 1e-12

    @pytest.mark.parametrize("m", [3, 5, 9, 13, 17, 129, 130, 321, 385, 1025])
    def test_sine_table_entries_within_their_error(self, m):
        # every entry of the widest table a grid of M points allows (a smaller
        # kmax takes its first rows, computed alike) against 50-digit sines:
        # entries of one j = k*n mod 2(M+1) are one float, within a relative
        # SINE_TABLE_ERROR of sin(pi j / (M+1)), and exactly 0 where that is
        kmax = (m - 1) // 2
        table = _sine_table(m, kmax)
        j = np.outer(np.arange(1, kmax + 1), np.arange(1, m + 1)) % (2 * (m + 1))
        distinct, first, where = np.unique(j, return_index=True, return_inverse=True)
        values = table.ravel()[first]
        assert np.array_equal(table, values[where.reshape(j.shape)])
        with mpmath.workdps(50):
            for jj, value in zip(distinct.tolist(), values.tolist()):
                exact = mpmath.sinpi(mpmath.mpf(jj) / (m + 1))
                assert abs(mpmath.mpf(value) - exact) <= SINE_TABLE_ERROR * abs(exact), (m, jj)

    def test_sine_table_is_made_once_and_read_only(self):
        first = _sine_table(65, 32)
        assert _sine_table(65, 32) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

    @pytest.mark.parametrize("m", [3, 5, 9, 17])
    def test_within_the_bound_of_a_50_digit_dst(self, m):
        values = np.random.default_rng(m).normal(size=(m, m))
        for kmax in (1, (m - 1) // 2):
            assert within_the_bound(sine_coefficients(values, kmax), values, kmax), kmax

    @pytest.mark.parametrize("m", [3, 5, 9, 129, 130, 385, 1025])
    def test_matches_scipy_dstn_bit_for_bit(self, m):
        # the FFT route, kept as the oracle `fft_sine_coefficients`, gives
        # scipy's bits; the products lie within their bound of them (each route
        # is within its own bound of the exact DST, so the two may differ by
        # the sum of both bounds: the products' bound alone is tighter)
        values = np.random.default_rng(m).normal(size=(m, m))
        full = dstn(values, type=1) / (m + 1) ** 2
        for kmax in (1, (m - 1) // 2):
            assert np.array_equal(fft_sine_coefficients(values, kmax), full[:kmax, :kmax]), kmax
            difference = np.abs(sine_coefficients(values, kmax) - full[:kmax, :kmax])
            assert np.all(difference <= sine_coefficient_bound(values, kmax)), kmax

    def test_planted_error_of_twice_the_bound_fails(self):
        m, kmax = 17, 8
        values = np.random.default_rng(m).normal(size=(m, m))
        coefficients = sine_coefficients(values, kmax)
        bound = sine_coefficient_bound(values, kmax)
        assert within_the_bound(coefficients, values, kmax)
        for i, j in ((0, 0), (3, 5), (7, 7)):
            planted = coefficients.copy()
            planted[i, j] += 2.0 * bound[i, j]
            assert not within_the_bound(planted, values, kmax), (i, j)
        full = dstn(values, type=1)[:kmax, :kmax] / (m + 1) ** 2
        assert not np.all(np.abs(coefficients - 2.0 * bound - full) <= bound)

    def test_no_fft(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft called")

        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, refuse)
        values = np.random.default_rng(7).normal(size=(33, 33))
        assert within_the_bound(sine_coefficients(values, 16), values, 16)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            sine_coefficients(np.zeros((16, 16)), kmax=8)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sine_coefficients(np.zeros((17, 16)), kmax=2)


class TestSolveModeCoefficients:
    def test_zero_data(self):
        triple = characteristic_roots(KernelParams(0.1, 0.15), 2.0)
        mc = solve_mode_coefficients(0.0, 0.0, triple, 2.0)
        assert mc.C == 0.0 and mc.R == 0.0

    def test_free_wave_closed_form(self):
        # beta = eta = 0, lam = 4, a = 1, b = 2: C = 1/2 - i/2, R = 0
        triple = characteristic_roots(KernelParams(0.0, 0.0), 4.0)
        mc = solve_mode_coefficients(1.0, 2.0, triple, 4.0)
        assert abs(mc.C - (0.5 - 0.5j)) < 1e-14
        assert abs(mc.R) < 1e-14

    def test_against_mode_ode_oracle(self):
        beta, eta, lam = 0.1, 0.15, 2.0
        triple = characteristic_roots(KernelParams(beta, eta), lam)
        mc = solve_mode_coefficients(1.0, 0.0, triple, lam)
        ts = [0.1, 0.5, 1.0]
        oracle = mode_ode_oracle(beta, eta, lam, 1.0, 0.0, ts)
        for t, x_ref in zip(ts, oracle):
            x = 2.0 * (mc.C * np.exp(1j * triple.omega * t)).real + mc.R * math.exp(triple.r * t)
            assert abs(x - x_ref) < 1e-8

    def test_initial_conditions_reproduced(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            beta = rng.uniform(0.0, 1.0)
            params = KernelParams.limiting_regime(beta)
            lam = laplace_eigenvalue(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            a, b = rng.normal(size=2)
            triple = characteristic_roots(params, lam)
            mc = solve_mode_coefficients(a, b, triple, lam)
            z = np.array(triple.roots())
            c = np.array([mc.C, mc.C.conjugate(), mc.R])
            assert abs(np.sum(c) - a) < 1e-10
            assert abs(np.sum(c * z) - b) < 1e-10
            assert abs(np.sum(c * z * z) + lam * a) < 1e-10

    def test_degenerate_exponents_rejected(self):
        # synthetic triple whose r collides with the lower conjugate root
        triple = SpectralTriple(omega=1e-12 + 0.5j, r=-0.5, phi=1.0, psi=0.0,
                                lam_minus=0.5, lam_plus=0.5)
        with pytest.raises(DegenerateExponents):
            solve_mode_coefficients(1.0, 0.0, triple, 2.0)

    def test_reality_guard(self):
        triple = characteristic_roots(KernelParams(0.1, 0.15), 2.0)
        with pytest.raises(RealityViolation):
            solve_mode_coefficients(1.0, 1.0j, triple, 2.0)


class TestExpand:
    @pytest.mark.parametrize("beta", [0.0, 1e-6, 0.4, BETA_MAX])
    def test_matches_lagrange_oracle(self, beta):
        rng = np.random.default_rng(37)
        kmax = 64
        data = InitialData(a=rng.normal(size=(kmax, kmax)),
                           b=rng.normal(size=(kmax, kmax)), kmax=kmax)
        params = KernelParams.limiting_regime(beta)
        expansion = expand(params, data)
        for k1 in range(1, kmax + 1):
            for k2 in range(1, kmax + 1):
                i, j = k1 - 1, k2 - 1
                C, R = lagrange_coefficients(params, laplace_eigenvalue(k1, k2),
                                             data.a[i, j], data.b[i, j])
                scale = abs(C) + abs(R)
                assert abs(expansion.C[i, j] - C) <= 1e-10 * scale
                assert abs(expansion.R[i, j] - R) <= 1e-10 * scale

    @pytest.mark.parametrize("kmax", [64, 192])
    @pytest.mark.parametrize("beta", [0.0, 1e-6, 0.4, BETA_MAX])
    def test_matches_lu_oracle(self, beta, kmax):
        # the closed form and the batched LU solve each lie within 1e-15 of
        # the exact solution (below), so within 2e-15 of each other
        rng = np.random.default_rng(kmax)
        data = InitialData(a=rng.normal(size=(kmax, kmax)),
                           b=rng.normal(size=(kmax, kmax)), kmax=kmax)
        e = expand(KernelParams.limiting_regime(beta), data)
        C, R = lu_coefficients(1j * e.omega, e.r, data.a, data.b, e.lam)
        assert np.all(np.abs(e.C - C) <= 2e-15 * np.abs(C))
        assert np.all(np.abs(e.R - R) <= 2e-15 * np.maximum(np.abs(data.a), np.abs(data.b)))

    @pytest.mark.parametrize("beta", [0.0, 1e-6, 0.4, BETA_MAX, 0.05, 0.9])
    def test_within_1e_15_of_50_digit_solve(self, beta):
        # the same system, its float roots and data taken exactly, solved to 50
        # digits: C to 1e-15 of itself, the small and cancelling R to 1e-15 of
        # the data
        rng = np.random.default_rng(73)
        for kmax in (1, 3, 8):
            data = InitialData(a=rng.normal(size=(kmax, kmax)),
                               b=rng.normal(size=(kmax, kmax)), kmax=kmax)
            e = expand(KernelParams.limiting_regime(beta), data)
            c_error, r_error = coefficient_errors(e.C, e.R, 1j * e.omega, e.r,
                                                  data.a, data.b, e.lam)
            assert c_error <= 1e-15 and r_error <= 1e-15, kmax

    def test_no_linear_algebra_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(79)
        data = InitialData(a=rng.normal(size=(16, 16)), b=rng.normal(size=(16, 16)), kmax=16)
        expand(KernelParams.limiting_regime(0.3), data)

    def test_planted_residual_defect_names_the_mode(self):
        # velocity data with an imaginary part at mode (2, 3): no real mode
        # reproduces it, and the backward residual of x'(0) shows it
        import memwave.modes as modes

        rng = np.random.default_rng(83)
        lam, omega, r = mode_spectrum(KernelParams.limiting_regime(0.2), 4)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)).astype(complex)
        b[1, 2] += 1e-6j
        with pytest.raises(RealityViolation, match=r"at mode \(2, 3\): scaled residual"):
            modes._solve_coefficients(1j * omega, r, a, b, lam)
        b[1, 2] = b[1, 2].real
        modes._solve_coefficients(1j * omega, r, a, b, lam)

    def test_degenerate_exponents_name_the_mode(self, monkeypatch):
        # at mode (2, 3), omega = -i*r makes i*omega collide with r
        import memwave.modes as modes

        def colliding(params, kmax):
            lam, omega, r = mode_spectrum(params, kmax)
            omega = omega.copy()
            omega[1, 2] = -1j * r[1, 2]
            return lam, omega, r

        monkeypatch.setattr(modes, "mode_spectrum", colliding)
        rng = np.random.default_rng(43)
        data = InitialData(a=rng.normal(size=(4, 4)), b=rng.normal(size=(4, 4)), kmax=4)
        with pytest.raises(DegenerateExponents, match=r"at mode \(2, 3\): min gap 0\.0$"):
            expand(KernelParams.limiting_regime(0.2), data)

    def test_truncation(self):
        rng = np.random.default_rng(41)
        data = InitialData(a=rng.normal(size=(8, 8)),
                           b=rng.normal(size=(8, 8)), kmax=8)
        expansion = expand(KernelParams.limiting_regime(0.2), data, kmax=3)
        assert expansion.kmax == 3
        assert expansion.C.shape == (3, 3)


class TestEvaluateSolution:
    def test_reproduces_initial_data(self):
        rng = np.random.default_rng(43)
        kmax = 8
        a = rng.normal(size=(kmax, kmax))
        data = InitialData(a=a, b=np.zeros((kmax, kmax)), kmax=kmax)
        expansion = expand(KernelParams.limiting_regime(0.3), data)
        xs = np.pi / 66 * np.arange(1, 66)
        u0_grid = evaluate_solution_grid(expansion, 0.0, xs, xs)
        k = np.arange(1, kmax + 1)
        sines = np.sin(np.outer(k, xs))
        expected = sines.T @ a @ sines
        assert np.max(np.abs(u0_grid - expected)) < 1e-9

    def test_boundary_values_vanish(self):
        rng = np.random.default_rng(47)
        data = InitialData(a=rng.normal(size=(4, 4)), b=rng.normal(size=(4, 4)), kmax=4)
        expansion = expand(KernelParams.limiting_regime(0.1), data)
        for point in ((0.0, 1.0), (np.pi, 0.5), (0.7, 0.0), (0.3, np.pi)):
            assert abs(evaluate_solution(expansion, 0.8, *point)) < 1e-12

    def test_free_wave_separated_solution(self):
        # beta = 0, u0 = sin x sin y, u1 = 0: u = cos(sqrt(2) t) sin x sin y
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        data = InitialData(a=a, b=np.zeros((2, 2)), kmax=2)
        expansion = expand(KernelParams.limiting_regime(0.0), data)
        for t in (0.0, 0.4, 2.7):
            for x, y in ((0.5, 1.2), (2.0, 2.8)):
                expected = math.cos(math.sqrt(2.0) * t) * math.sin(x) * math.sin(y)
                assert abs(evaluate_solution(expansion, t, x, y) - expected) < 1e-12

    def test_rejects_negative_time(self):
        data = InitialData(a=np.eye(2), b=np.zeros((2, 2)), kmax=2)
        expansion = expand(KernelParams.limiting_regime(0.0), data)
        with pytest.raises(ValueError):
            evaluate_solution(expansion, -0.1, 1.0, 1.0)


class TestRoundTrip:
    def test_velocity_by_centered_difference(self):
        rng = np.random.default_rng(53)
        kmax = 8
        a = rng.normal(size=(kmax, kmax))
        b = rng.normal(size=(kmax, kmax))
        data = InitialData(a=a, b=b, kmax=kmax)
        expansion = expand(KernelParams.limiting_regime(0.2), data)
        xs = np.pi / 34 * np.arange(1, 34)
        h = 1e-5
        du = (evaluate_solution_grid(expansion, h, xs, xs)
              - evaluate_solution_grid(expansion, -h, xs, xs)) / (2.0 * h)
        k = np.arange(1, kmax + 1)
        sines = np.sin(np.outer(k, xs))
        expected = sines.T @ b @ sines
        assert np.max(np.abs(du - expected)) < 1e-4

    def test_mode_ode_residuals(self):
        rng = np.random.default_rng(59)
        kmax = 8
        data = InitialData(a=rng.normal(size=(kmax, kmax)),
                           b=rng.normal(size=(kmax, kmax)), kmax=kmax)
        params = KernelParams.limiting_regime(0.4)
        expansion = expand(params, data)
        ts = rng.uniform(0.0, 5.0, size=20)
        lam, omega, r = mode_spectrum(params, kmax)
        beta, eta = params.beta, params.eta
        for k1 in range(kmax):
            for k2 in range(kmax):
                z = np.array([1j * omega[k1, k2], -1j * omega[k1, k2].conjugate(),
                              complex(r[k1, k2])])
                c = np.array([expansion.C[k1, k2], expansion.C[k1, k2].conjugate(),
                              expansion.R[k1, k2]])
                poly = z**3 + eta * z**2 + lam[k1, k2] * z + lam[k1, k2] * (eta - beta)
                residuals = np.abs(np.sum(c * poly * np.exp(np.outer(ts, z)), axis=1))
                assert np.max(residuals) < 1e-8 * (1.0 + lam[k1, k2] ** 1.5)


class TestEstimateMu:
    def test_memoryless_gives_zero(self):
        # all R vanish at beta = 0 up to solver rounding (~1e-15)
        rng = np.random.default_rng(61)
        data = InitialData(a=rng.normal(size=(6, 6)), b=rng.normal(size=(6, 6)), kmax=6)
        est = estimate_mu(KernelParams.limiting_regime(0.0), data)
        assert est.mu_hat <= 1e-12

    def test_single_mode_support(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[2, 1] = 1.5
        data = InitialData(a=a, b=b, kmax=4)
        params = KernelParams.limiting_regime(0.5)
        est = estimate_mu(params, data)
        assert est.argmax_mode == (3, 2)
        lam = laplace_eigenvalue(3, 2)
        triple = characteristic_roots(params, lam)
        mc = solve_mode_coefficients(1.5, 0.0, triple, lam)
        assert abs(est.mu_hat - abs(mc.R) * math.sqrt(lam) / abs(mc.C)) < 1e-12

    def test_stable_under_refinement(self):
        rng = np.random.default_rng(42)
        data = InitialData(a=rng.normal(size=(64, 64)),
                           b=rng.normal(size=(64, 64)), kmax=64)
        params = KernelParams.limiting_regime(0.1)
        mu32 = estimate_mu(params, data, kmax=32).mu_hat
        mu64 = estimate_mu(params, data, kmax=64).mu_hat
        assert mu32 > 0.0
        assert abs(mu64 - mu32) <= 0.1 * mu32

    def test_no_usable_modes(self):
        data = InitialData(a=np.zeros((3, 3)), b=np.zeros((3, 3)), kmax=3)
        with pytest.raises(NoUsableModes):
            estimate_mu(KernelParams.limiting_regime(0.2), data)

    def test_degenerate_mode_flagged(self):
        # synthetic expansion with C = 0 but R != 0 (cannot arise from the solver)
        params = KernelParams.limiting_regime(0.1)
        lam, omega, r = mode_spectrum(params, 2)
        bad = ModeExpansion(params=params, kmax=2, lam=lam, omega=omega, r=r,
                            C=np.zeros((2, 2), dtype=complex),
                            R=np.full((2, 2), 0.5))
        with pytest.raises(DegenerateMode):
            mu_from_expansion(bad)

    def test_amplitude_bound_holds_with_estimate(self):
        rng = np.random.default_rng(67)
        data = InitialData(a=rng.normal(size=(12, 12)),
                           b=rng.normal(size=(12, 12)), kmax=12)
        params = KernelParams.limiting_regime(0.6)
        expansion = expand(params, data)
        est = mu_from_expansion(expansion)
        bound = est.mu_hat * np.abs(expansion.C) / np.sqrt(expansion.lam)
        assert np.all(np.abs(expansion.R) <= bound + 1e-12)


class TestDecayOrdering:
    def test_decaying_root_dominated(self):
        # |e^{r t}| <= e^{-Im omega t} for t >= 0, i.e. r <= -Im omega
        for beta in (0.0, 0.3, 1.0):
            params = KernelParams.limiting_regime(beta)
            _, omega, r = mode_spectrum(params, 16)
            assert np.all(r <= -omega.imag + 1e-12)
            ts = np.linspace(0.0, 4.0, 9)
            for t in ts:
                assert np.all(np.exp(r * t) <= np.exp(-omega.imag * t) + 1e-12)

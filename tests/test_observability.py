"""Thresholds, the explicit constant c0, exact trace energies, and the verdict."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import fixed_quad, quad

from conftest import pairwise_trace_energy
from memwave import (
    AuditFailure,
    BETA_MAX,
    InitialData,
    KernelParams,
    NotPositiveWarning,
    ObservabilityConfig,
    OutOfRange,
    ThetaOutOfRange,
    boundary_trace_energy,
    constant_S,
    expand,
    observability_constant,
    thresholds,
    verify_observability,
    weighted_coefficient_sum,
)

PI = math.pi

# 50-digit offline evaluations (mpmath), frozen as binary64 constants.
T0_AT_ZERO_MU1 = 45.34172357540104501584519
C0_AT_T100_BETA0 = 39.72064051605960537437835
BETA0_MU1_THETA1 = 0.06922473120711106280218741


def random_data(rng, kmax):
    return InitialData(a=rng.normal(size=(kmax, kmax)),
                       b=rng.normal(size=(kmax, kmax)), kmax=kmax)


def skewed_expansion(field, mode):
    """An expansion made asymmetric by hand: `field` moved at one mode."""
    rng = np.random.default_rng(83)
    expansion = expand(KernelParams.limiting_regime(0.1), random_data(rng, 6))
    values = getattr(expansion, field).copy()
    values[mode] += 0.3
    return dataclasses.replace(expansion, **{field: values})


def boundary_energy_quadrature(expansion, T):
    """Independent oracle: Gauss-Legendre in space, adaptive quadrature in time."""
    kmax = expansion.kmax
    k = np.arange(1, kmax + 1, dtype=float)

    def amplitudes(t):
        osc = 2.0 * (expansion.C * np.exp(1j * expansion.omega * t)).real
        return osc + expansion.R * np.exp(expansion.r * t)

    def trace_at(t):
        amp = amplitudes(t)

        # normal derivative on y = 0: sum_k1 sum_k2 k2 * amp * sin(k1 x)
        def integrand_y0(x):
            x = np.asarray(x)
            sines = np.sin(np.outer(k, x))  # (kmax, nx)
            v = (amp * k[None, :]).sum(axis=1) @ sines
            return v * v

        def integrand_x0(y):
            y = np.asarray(y)
            sines = np.sin(np.outer(k, y))
            v = (amp * k[:, None]).sum(axis=0) @ sines
            return v * v

        a1, _ = fixed_quad(integrand_y0, 0.0, PI, n=64)
        a2, _ = fixed_quad(integrand_x0, 0.0, PI, n=64)
        return a1 + a2

    value, _ = quad(trace_at, 0.0, T, epsabs=1e-10, epsrel=1e-10, limit=400)
    return value


class TestConstantS:
    def test_theta_one(self):
        assert constant_S(1.0, 1.0) == PI * PI / 6.0
        assert constant_S(3.0, 1.0) == 3.0 * PI * PI / 6.0

    def test_theta_out_of_range(self):
        with pytest.raises(ThetaOutOfRange):
            constant_S(1.0, 0.3)


class TestThresholds:
    def test_horizon_at_zero_beta_pinned(self):
        beta0, t0 = thresholds(0.0, mu=1.0, theta=1.0)
        assert abs(t0 - T0_AT_ZERO_MU1) < 1e-9
        assert abs(beta0 - BETA0_MU1_THETA1) < 1e-9

    def test_infinite_horizon_at_crossing(self):
        beta0, _ = thresholds(0.0, mu=1.0, theta=1.0)
        _, t0 = thresholds(beta0, mu=1.0, theta=1.0)
        assert math.isinf(t0) or t0 > 1e4  # at the crossing the denominator vanishes

    def test_beyond_crossing_is_infeasible(self):
        beta0, _ = thresholds(0.0, mu=1.0, theta=1.0)
        _, t0 = thresholds(min(beta0 * 1.5, 1.0), mu=1.0, theta=1.0)
        assert math.isinf(t0)

    def test_crossing_brackets_sign_change(self):
        mu, theta = 1.0, 1.0
        beta0, _ = thresholds(0.0, mu, theta)
        S = constant_S(mu, theta)
        coeff = 4.0 * (4.0 + 3.0 * S)
        from memwave import gap_constant

        h = lambda b: gap_constant(b).gamma ** 2 - coeff * b * b
        assert h(beta0 - 1e-6) > 0.0 > h(beta0 + 1e-6)

    def test_out_of_range_beta(self):
        with pytest.raises(OutOfRange):
            thresholds(1.5, 1.0, 1.0)

    def test_huge_mu_rejected(self):
        # mu = 8e306 keeps the load 4*(4 + 3*S) finite, but T0 at beta = 0
        # (a feasible beta) overflows; mu = 1e307 overflows the load itself
        for mu in (8e306, 1e307):
            with pytest.raises(OutOfRange, match="mu"):
                thresholds(0.0, mu, 1.0)


class TestObservabilityConstant:
    def test_pinned_value(self):
        c0 = observability_constant(100.0, 0.0, PI * PI / 6.0)
        assert abs(c0 - C0_AT_T100_BETA0) < 1e-11 * C0_AT_T100_BETA0

    def test_vanishes_at_threshold(self):
        _, t0 = thresholds(0.02, mu=1.0, theta=1.0)
        S = constant_S(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotPositiveWarning)
            assert abs(observability_constant(t0, 0.02, S)) < 1e-9

    def test_positive_beyond_threshold(self):
        _, t0 = thresholds(0.05, mu=1.0, theta=1.0)
        S = constant_S(1.0, 1.0)
        assert observability_constant(2.0 * t0, 0.05, S) > 0.0

    def test_warns_below_threshold(self):
        _, t0 = thresholds(0.0, mu=1.0, theta=1.0)
        with pytest.warns(NotPositiveWarning):
            observability_constant(0.5 * t0, 0.0, constant_S(1.0, 1.0))

    @pytest.mark.parametrize("T", [1e-300, 1e-160, 1e300, math.inf, math.nan])
    def test_horizon_breaking_arithmetic_rejected(self, T):
        # T^2 of 0 or inf, or a non-finite c0, is an input error, not a value
        with pytest.raises(OutOfRange):
            observability_constant(T, 0.01, constant_S(1.0, 1.0))

    def test_increasing_in_horizon_memoryless(self):
        # at beta = 0 the constant is T/2 - K/T: strictly increasing everywhere
        S = constant_S(1.0, 1.0)
        _, t0 = thresholds(0.0, mu=1.0, theta=1.0)
        horizons = np.linspace(1.01 * t0, 10.0 * t0, 120)
        values = [observability_constant(float(T), 0.0, S) for T in horizons]
        assert np.all(np.diff(values) > 0.0)

    def test_increasing_near_threshold(self):
        # for beta > 0 the constant grows just past T0 (it vanishes there and
        # is positive after) but turns over at larger T, where the
        # 1/(pi^2 + T^2 beta^2) factor decays; only the near-threshold window
        # is monotone
        S = constant_S(1.0, 1.0)
        for beta in (0.01, 0.03, 0.05):
            _, t0 = thresholds(beta, mu=1.0, theta=1.0)
            horizons = np.linspace(1.01 * t0, 1.3 * t0, 40)
            values = [observability_constant(float(T), beta, S) for T in horizons]
            assert np.all(np.diff(values) > 0.0)


class TestWeightedCoefficientSum:
    def test_zero_data(self):
        data = InitialData(a=np.zeros((3, 3)), b=np.zeros((3, 3)), kmax=3)
        expansion = expand(KernelParams.limiting_regime(0.1), data)
        assert weighted_coefficient_sum(expansion, 4.0) == 0.0

    def test_single_mode_arithmetic(self):
        # (1,1) mode with C = 1/2 and Im omega = 0: 2 * 1/4 * 2 = 1
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        data = InitialData(a=a, b=np.zeros((2, 2)), kmax=2)
        expansion = expand(KernelParams.limiting_regime(0.0), data)
        assert abs(weighted_coefficient_sum(expansion, 5.0) - 1.0) < 1e-12

    def test_brute_force_recount(self):
        rng = np.random.default_rng(71)
        data = random_data(rng, 5)
        expansion = expand(KernelParams.limiting_regime(0.4), data)
        T = 3.0
        total = 0.0
        for k1 in range(5):
            for k2 in range(5):
                lam = (k1 + 1) ** 2 + (k2 + 1) ** 2
                w = abs(expansion.C[k1, k2]) ** 2
                total += lam * w * (1.0 + math.exp(-2.0 * expansion.omega[k1, k2].imag * T))
        assert abs(weighted_coefficient_sum(expansion, T) - total) < 1e-12 * max(1.0, total)

    def test_memoryless_weight_factor_is_two(self):
        rng = np.random.default_rng(73)
        data = random_data(rng, 4)
        expansion = expand(KernelParams.limiting_regime(0.0), data)
        assert np.all(expansion.omega.imag == 0.0)
        factors = 1.0 + np.exp(-2.0 * expansion.omega.imag * 9.0)
        assert np.all(factors == 2.0)


class TestBoundaryTraceEnergy:
    def test_zero_data(self):
        data = InitialData(a=np.zeros((3, 3)), b=np.zeros((3, 3)), kmax=3)
        expansion = expand(KernelParams.limiting_regime(0.2), data)
        assert boundary_trace_energy(expansion, 4.0) == 0.0

    def test_single_mode_closed_form(self):
        # u = cos(sqrt(2) t) sin x sin y: each side gives
        # (pi/2) * (T/2 + sin(2 sqrt(2) T)/(4 sqrt(2)))
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        data = InitialData(a=a, b=np.zeros((2, 2)), kmax=2)
        expansion = expand(KernelParams.limiting_regime(0.0), data)
        T = 3.0
        w = math.sqrt(2.0)
        one_side = (PI / 2.0) * (T / 2.0 + math.sin(2.0 * w * T) / (4.0 * w))
        assert abs(boundary_trace_energy(expansion, T) - 2.0 * one_side) < 1e-12

    def test_against_quadrature(self):
        rng = np.random.default_rng(79)
        data = random_data(rng, 4)
        expansion = expand(KernelParams.limiting_regime(0.3), data)
        T = 3.0
        exact = boundary_trace_energy(expansion, T)
        approx = boundary_energy_quadrature(expansion, T)
        assert abs(exact - approx) <= 1e-7 * max(1.0, abs(approx))

    @pytest.mark.parametrize("T", [5.0, 50.0])
    @pytest.mark.parametrize("beta", [0.0, 1e-6, 0.01, 1.0, BETA_MAX])
    @pytest.mark.parametrize("kmax", [8, 32, 64])
    def test_matches_pairwise_oracle_at_scale(self, kmax, beta, T):
        rng = np.random.default_rng(kmax)
        expansion = expand(KernelParams.limiting_regime(beta), random_data(rng, kmax))
        oracle = pairwise_trace_energy(expansion, T)
        assert abs(boundary_trace_energy(expansion, T) - oracle) <= 1e-12 * oracle

    @settings(max_examples=40, deadline=None)
    @given(kmax=st.integers(1, 16),
           log_beta=st.floats(-8.0, math.log10(BETA_MAX)),
           T=st.floats(0.5, 60.0),
           seed=st.integers(0, 2**32 - 1))
    def test_fuzz_small_beta_against_pairwise_oracle(self, kmax, log_beta, T, seed):
        # as beta -> 0, Im omega -> 0 and r -> 0: the Gram entries of the
        # |X|^2 diagonal and of the Y^2 block approach their cancellation limit
        beta = min(10.0 ** log_beta, BETA_MAX)
        data = random_data(np.random.default_rng(seed), kmax)
        expansion = expand(KernelParams.limiting_regime(beta), data)
        oracle = pairwise_trace_energy(expansion, T)
        assert abs(boundary_trace_energy(expansion, T) - oracle) <= 1e-12 * oracle

    def test_small_damping_diagonal_at_rounding_level(self):
        # 2*Im(omega)*T is 1.5e-3 here, just above the Gram fallback cutoff of
        # 1e-3: without taking the |X|^2 diagonal from exp_integral the
        # relative error was about 6e-14
        rng = np.random.default_rng(0)
        expansion = expand(KernelParams.limiting_regime(3e-5), random_data(rng, 8))
        oracle = pairwise_trace_energy(expansion, 50.0)
        assert abs(boundary_trace_energy(expansion, 50.0) - oracle) <= 2e-15 * oracle

    @pytest.mark.parametrize("field, mode, named", [("omega", (0, 1), (1, 2)),
                                                   ("r", (4, 2), (3, 5))])
    def test_asymmetric_expansion_is_audit_failure(self, field, mode, named):
        # row k and column k share one set of exponents only while omega and r
        # are symmetric, as mode_spectrum makes them
        with pytest.raises(AuditFailure, match=rf"^omega or r is not symmetric in \(k1, k2\) "
                                               rf"at mode \({named[0]}, {named[1]}\)$") as err:
            boundary_trace_energy(skewed_expansion(field, mode), 5.0)
        assert err.value.datum == named

    @pytest.mark.parametrize("tile", [1, 40, 200, 700])
    def test_tiles_cover_every_row_once(self, tile, monkeypatch):
        import memwave.ingham as ingham

        monkeypatch.setattr(ingham, "_TILE_ENTRIES", tile)
        for m, n in [(1, 1), (5, 2), (5, 4), (3, 13), (2, 16)]:
            for cols in (n, 3 * n):
                hits = np.zeros((m, n), dtype=int)
                for sets, rows in ingham._tiles(m, n, cols):
                    hits[sets, rows] += 1
                    size = len(range(m)[sets]) * len(range(n)[rows]) * cols
                    assert size <= max(tile, cols)
                assert np.all(hits == 1)

    @pytest.mark.parametrize("beta", [0.0, 1e-6, 0.01, BETA_MAX])
    @pytest.mark.parametrize("tile", [1, 40, 200, 700])
    def test_small_tiles_match_pairwise_oracle(self, tile, beta, monkeypatch):
        # tiles of a few entries: with kmax <= 16 the trace energy runs through
        # tiles of several sets, tiles of a few rows, and ragged last tiles
        import memwave.ingham as ingham

        monkeypatch.setattr(ingham, "_TILE_ENTRIES", tile)
        shapes = {(len(range(kmax)[sets]) > 1, len(range(kmax)[rows]) < kmax)
                  for kmax in (1, 2, 5, 13, 16)
                  for sets, rows in ingham._tiles(kmax, kmax, 3 * kmax)}
        if tile == 200:
            assert shapes == {(True, False), (False, False), (False, True)}
        for kmax in (1, 2, 5, 13, 16):
            rng = np.random.default_rng(kmax)
            expansion = expand(KernelParams.limiting_regime(beta), random_data(rng, kmax))
            oracle = pairwise_trace_energy(expansion, 50.0)
            assert abs(boundary_trace_energy(expansion, 50.0) - oracle) <= 1e-12 * oracle

    def test_additivity_on_disjoint_rows_and_columns(self):
        # supports {(1,1)} and {(2,2)} share no row and no column
        kmax = 3
        a1 = np.zeros((kmax, kmax)); a1[0, 0] = 1.3
        a2 = np.zeros((kmax, kmax)); a2[1, 1] = -0.7
        b1 = np.zeros((kmax, kmax)); b1[0, 0] = 0.4
        b2 = np.zeros((kmax, kmax)); b2[1, 1] = 0.9
        params = KernelParams.limiting_regime(0.5)
        T = 4.0
        e_sum = boundary_trace_energy(
            expand(params, InitialData(a=a1 + a2, b=b1 + b2, kmax=kmax)), T)
        e_1 = boundary_trace_energy(
            expand(params, InitialData(a=a1, b=b1, kmax=kmax)), T)
        e_2 = boundary_trace_energy(
            expand(params, InitialData(a=a2, b=b2, kmax=kmax)), T)
        assert abs(e_sum - (e_1 + e_2)) <= 1e-10 * max(1.0, e_sum)

    def test_cross_terms_in_shared_row(self):
        # modes (1,1) and (1,2) share a row: additivity must generally fail
        kmax = 2
        a1 = np.zeros((kmax, kmax)); a1[0, 0] = 1.0
        a2 = np.zeros((kmax, kmax)); a2[0, 1] = 1.0
        z = np.zeros((kmax, kmax))
        params = KernelParams.limiting_regime(0.0)
        T = 3.0
        e_sum = boundary_trace_energy(
            expand(params, InitialData(a=a1 + a2, b=z, kmax=kmax)), T)
        e_split = (boundary_trace_energy(expand(params, InitialData(a=a1, b=z, kmax=kmax)), T)
                   + boundary_trace_energy(expand(params, InitialData(a=a2, b=z, kmax=kmax)), T))
        assert abs(e_sum - e_split) > 1e-3


class TestExchangeInequality:
    def test_index_pair_bounds(self):
        # 2*k2^2 >= k1^2 + k2^2 when k2 >= k1, and k2^2 <= k1^2 + k2^2 always
        for k1 in range(1, 33):
            for k2 in range(1, 33):
                lam = k1 * k1 + k2 * k2
                assert k2 * k2 <= lam
                if k2 >= k1:
                    assert 2 * k2 * k2 >= lam


class TestVerifyObservability:
    def test_memoryless_verdict(self):
        rng = np.random.default_rng(89)
        config = ObservabilityConfig(beta=0.0, T=50.0, kmax=6, mu=1.0)
        for _ in range(5):
            report = verify_observability(config, random_data(rng, 6))
            assert report.verdict
            assert report.margin >= 0.0
            assert abs(report.T0 - T0_AT_ZERO_MU1) < 1e-9
            assert not report.below_threshold and not report.infeasible

    def test_scaling_invariance(self):
        rng = np.random.default_rng(97)
        data = random_data(rng, 5)
        config = ObservabilityConfig(beta=0.02, T=60.0, kmax=5, mu=1.0)
        base = verify_observability(config, data)
        for s in (2.0, 10.0):
            scaled = verify_observability(
                config, InitialData(a=s * data.a, b=s * data.b, kmax=5))
            assert abs(scaled.lhs - s * s * base.lhs) <= 1e-9 * scaled.lhs
            assert abs(scaled.rhs_sum - s * s * base.rhs_sum) <= 1e-9 * scaled.rhs_sum
            assert abs(scaled.margin - s * s * base.margin) <= 1e-8 * max(1.0, abs(scaled.margin))
            assert scaled.verdict == base.verdict

    def test_infeasible_beta_path(self):
        rng = np.random.default_rng(101)
        config = ObservabilityConfig(beta=0.5, T=100.0, kmax=4, mu=1.0)
        report = verify_observability(config, random_data(rng, 4))
        assert report.infeasible
        assert math.isinf(report.T0)
        assert not report.verdict

    def test_below_threshold_flagged(self):
        rng = np.random.default_rng(103)
        config = ObservabilityConfig(beta=0.0, T=10.0, kmax=4, mu=1.0)
        report = verify_observability(config, random_data(rng, 4))
        assert report.below_threshold
        assert not report.verdict

    def test_finite_trace_parts_whose_sum_overflows(self):
        # both trace parts are 9.12e307, finite, but math.fsum of them overflows:
        # the trace energy raises, and the verdict names the data's scale
        data = InitialData(a=np.array([[2**509.36180904522615]]), b=np.zeros((1, 1)), kmax=1)
        config = ObservabilityConfig(beta=0.01, T=50.0, kmax=1, mu=1.0)
        with pytest.raises(OverflowError):
            boundary_trace_energy(expand(KernelParams.limiting_regime(0.01), data), 50.0)
        with pytest.raises(OutOfRange, match=r"lhs=inf, .* the data's scale \(peak coefficient "
                                             r"2\.15\d*e\+153\) is too large"):
            verify_observability(config, data)

    def test_estimated_mu_used_when_not_supplied(self):
        rng = np.random.default_rng(107)
        data = random_data(rng, 5)
        config = ObservabilityConfig(beta=0.01, T=60.0, kmax=5)
        report = verify_observability(config, data)
        assert report.mu > 0.0
        assert report.verdict

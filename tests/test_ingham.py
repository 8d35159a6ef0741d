"""Window kernel identities, exact exponential energies, and the lower bound."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    loop_check_hypotheses,
    pairwise_signal_energy,
    quad_energy,
    quad_windowed_moment,
    random_admissible_family,
)
from memwave import (
    AuditFailure,
    ExponentFamily,
    HypothesisError,
    InputError,
    OutOfRange,
    PoleError,
    ThetaOutOfRange,
    check_hypotheses,
    constant_S,
    energy_integral,
    energy_lower_bound,
    exp_integral,
    kernel_decay_bound,
    sine_window,
    window_kernel,
    windowed_moment,
)

PI = math.pi

# 50-digit offline evaluation of 2*zeta(3/2) (mpmath).
TWO_ZETA_THREE_HALVES = 5.224750697370976686697135


def single_frequency_family(omega, C, gamma, tau=1, R=0.0, r=0.0, mu=1.0):
    return ExponentFamily(omegas=[omega], rs=[r], Cs=[C], Rs=[R],
                          gamma=gamma, tau=tau, theta=1.0, mu=mu)


class TestSineWindow:
    def test_peak(self):
        assert sine_window(1.5, 3.0) == 1.0

    def test_outside_support(self):
        assert sine_window(-1.0, 3.0) == 0.0
        assert sine_window(3.5, 3.0) == 0.0

    def test_quarter_point(self):
        assert abs(sine_window(0.75, 3.0) - math.sqrt(2.0) / 2.0) < 1e-15

    def test_range(self):
        ts = np.linspace(-1.0, 4.0, 1001)
        vals = sine_window(ts, 3.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestWindowKernel:
    def test_value_at_zero(self):
        assert abs(window_kernel(0.0, 2.0) - 2.0 / PI) < 1e-16

    def test_pure_imaginary_argument(self):
        # T = pi, u = 2i: K = pi^2/(pi^2 + 4 pi^2) = 1/5
        assert abs(window_kernel(2j, PI) - 0.2) < 1e-15

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            window_kernel(PI / 2.0, 2.0)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_conjugation_symmetry(self, re, im, T):
        u = complex(re, im)
        try:
            k_u = window_kernel(u, T)
            k_conj = window_kernel(u.conjugate(), T)
        except PoleError:
            return
        assert abs(k_u.conjugate() - k_conj) <= 1e-14 * max(1.0, abs(k_u))
        assert abs(abs(k_u) - abs(k_conj)) <= 1e-14 * max(1.0, abs(k_u))


class TestWindowedMoment:
    def test_constant_integrand(self):
        # z = 1, u = 0: the moment is the window area 2T/pi
        for T in (1.0, 2.0, 7.5):
            assert abs(windowed_moment(1.0, 0.0, T) - 2.0 * T / PI) < 1e-14

    def test_zero_coefficient(self):
        assert windowed_moment(0.0, 3.7 + 0.4j, 2.0) == 0.0

    def test_against_quadrature_single(self):
        closed = windowed_moment(1.0, 3.0 + 0.5j, 2.0)
        assert abs(closed - quad_windowed_moment(1.0, 3.0 + 0.5j, 2.0)) < 1e-9

    def test_against_quadrature_batch(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            u = complex(rng.uniform(-60.0, 60.0), rng.uniform(-2.0, 2.0))
            T = rng.uniform(0.5, 5.0)
            try:
                closed = windowed_moment(z, u, T)
            except PoleError:
                continue
            assert abs(closed - quad_windowed_moment(z, u, T)) < 1e-9


class TestKernelDecayBound:
    def test_pure_imaginary(self):
        gamma, T, j = 4.0, 3.0, 2
        value, bound = kernel_decay_bound(1j * gamma * j, j, gamma, T)
        assert value <= bound

    def test_real_boundary_stress(self):
        # gamma barely above 2*pi/T, u = gamma*j real, j = 1: the bound is
        # approached (both sides tend to 4*pi/(3*T*gamma^2) as T*gamma -> 2*pi)
        T = 4.0
        gamma = 2.0 * PI / T * 1.0001
        value, bound = kernel_decay_bound(gamma, 1, gamma, T)
        assert value <= bound
        assert value > 0.999 * bound

    def test_far_regime(self):
        # |K| ~ pi/(T u^2) at u = 10*gamma, so value/bound -> 99/400
        gamma, T, j = 3.0, 5.0, 5
        value, bound = kernel_decay_bound(10.0 * gamma, j, gamma, T)
        assert value < 0.3 * bound

    def test_window_hypothesis_enforced(self):
        with pytest.raises(HypothesisError):
            kernel_decay_bound(5.0, 1, 1.0, 2.0)  # gamma <= 2*pi/T

    def test_magnitude_hypothesis_enforced(self):
        with pytest.raises(HypothesisError):
            kernel_decay_bound(1.0, 2, 4.0, 4.0)  # |u| < gamma*j


class TestExpIntegral:
    def test_zero_exponent(self):
        assert exp_integral(0.0, 3.0) == 3.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [np.zeros(3), np.zeros(3, complex), np.array([-0.0, 0.0]),
                                   np.array([complex(-0.0, -0.0)]), -0.0, np.zeros(0),
                                   np.zeros(0, complex)])
    def test_zeros_give_exactly_T(self, s):
        # the series gives E(0) = T with no warning, whatever the zero's sign
        T = 2.75
        got = exp_integral(s, T)
        assert np.shape(got) == np.shape(s)
        assert np.all(got == T) and np.all(np.imag(got) == 0.0)

    def test_plain_value(self):
        s, T = 0.3 - 1.2j, 2.5
        assert abs(exp_integral(s, T) - (np.exp(s * T) - 1.0) / s) < 1e-14

    def test_kind_follows_input(self):
        assert isinstance(exp_integral(-0.5, 2.0), float)
        assert isinstance(exp_integral(-0.5 + 0j, 2.0), complex)
        s = np.array([0.0, -1e-9, -0.5, -3.0])
        real = exp_integral(s, 2.0)
        assert real.dtype == np.float64
        assert np.allclose(real, exp_integral(s.astype(complex), 2.0).real,
                           rtol=1e-15, atol=0.0)

    def test_series_branch_continuity(self):
        # compare both branches across the switch at |s|T = 1e-6
        T = 1.0
        for mag in (1e-8, 1e-7, 9e-7, 2e-6, 1e-5):
            for phase in (0.0, 0.7, 2.1):
                s = mag * np.exp(1j * phase)
                series = exp_integral(s, T)
                direct = (np.expm1(s * T)) / s
                assert abs(series - direct) <= 1e-12 * T


class TestEnergyIntegral:
    def test_single_cosine(self):
        # C = 1/2 at a real frequency: integral of cos^2(w t)
        for omega, T in ((3.0, 4.0), (1.0, 10.0), (25.0, 2.0)):
            family = single_frequency_family(omega, 0.5, gamma=omega)
            expected = T / 2.0 + math.sin(2.0 * omega * T) / (4.0 * omega)
            assert abs(energy_integral(family, T) - expected) < 1e-12

    def test_all_zero_coefficients(self):
        family = ExponentFamily(omegas=[3.0, 6.0], rs=[0.0, 0.0],
                                Cs=[0.0, 0.0], Rs=[0.0, 0.0],
                                gamma=3.0, tau=1)
        assert energy_integral(family, 4.0) == 0.0

    def test_empty_family_rejected(self):
        family = ExponentFamily(omegas=[], rs=[], Cs=[], Rs=[], gamma=1.0, tau=1)
        with pytest.raises(ValueError):
            energy_integral(family, 1.0)

    def test_negative_energy_is_audit_failure(self, monkeypatch):
        # a negative energy beyond rounding is a failed certified check
        import memwave.ingham as ingham

        monkeypatch.setattr(ingham, "exp_integral", lambda s, T: -T * np.ones_like(s))
        with pytest.raises(AuditFailure) as err:
            ingham.pairwise_exponential_energy([1.0, 1.0], [0.0, 0.0], 2.0)
        assert err.value.datum == (-8.0, 8.0)
        # the Cauchy kernel of the trace energy: zero exponents put every
        # entry under the cutoff, so each comes from exp_integral
        with pytest.raises(AuditFailure) as err:
            ingham._real_signal_energies(np.zeros((1, 2)), np.zeros((1, 2)),
                                         np.zeros((1, 2, 1)), np.ones((1, 2, 1)), 2.0)
        assert err.value.datum == (-8.0, 8.0)

    def test_rounding_residue_clamped_to_zero(self):
        import memwave.ingham as ingham

        assert ingham._clamped_energy(-1e-12, lambda: 1.0) == 0.0
        assert ingham._clamped_energy(3.0, lambda: pytest.fail("budget evaluated")) == 3.0

    def test_gram_form_matches_pairwise(self):
        # the Cauchy kernel against the dense pairwise oracle on families of
        # three kinds: admissible; growing (Im omega < 0, r > -Im omega > 0),
        # against the hypotheses; and with a repeated frequency
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 13))
            family, T = random_admissible_family(rng, n=n, T=float(rng.uniform(0.5, 20.0)))
            im = -0.4 * rng.random(n)
            growing = dataclasses.replace(family, omegas=family.omegas.real + 1j * im,
                                          rs=-im + 0.5 * rng.random(n) + 1e-3)
            omegas = family.omegas.copy()
            omegas[rng.integers(1, n)] = omegas[0]
            repeated = dataclasses.replace(family, omegas=omegas)
            assert check_hypotheses(family, T) == []
            assert "root-decay" in {v.hypothesis for v in check_hypotheses(growing, T)}
            for case in (family, growing, repeated):
                exact = pairwise_signal_energy(case.Cs, case.Rs, case.omegas, case.rs, T)
                assert abs(energy_integral(case, T) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("tile", [1, 5, 2**14])
    @pytest.mark.parametrize("omegas, rs", [
        ([3.0, -3.0 + 1e-9j, 7.0], [-0.5, -0.6, -0.7]),  # X^2: omega_1 + omega_2
        ([3.0, 3.0 + 2e-9, 7.0], [-0.5, -0.6, -0.7]),  # |X|^2: omega_1 - omega_2
        ([1e-9 + 2e-10j, 3.0, 7.0], [0.0, -0.6, -0.7]),  # XY: i omega_1 + r_1
        ([3.0, 5.0, 7.0], [0.0, -1e-9, -0.7]),  # Y^2: r_1 + r_2
    ], ids=["X^2", "|X|^2", "XY", "Y^2"])
    def test_cauchy_kernel_entries_under_the_cutoff(self, omegas, rs, tile, monkeypatch):
        # exponent sums of one part of the energy fall under the cutoff, each
        # with |s*T| ~ 1e-8: in the Cauchy form they would lose ~8 digits
        import memwave.ingham as ingham

        monkeypatch.setattr(ingham, "_TILE_ENTRIES", tile)
        omegas, rs = np.array(omegas, dtype=complex), np.array(rs)
        rng = np.random.default_rng(3)
        Cs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        Rs = rng.normal(size=(3, 2))
        T = 10.0
        energies = ingham._real_signal_energies(omegas[None], rs[None], Cs[None], Rs[None], T)
        for c in range(2):
            exact = pairwise_signal_energy(Cs[:, c], Rs[:, c], omegas, rs, T)
            assert abs(energies[0, c] - exact) <= 1e-12 * exact

    def test_cutoff_tiles_in_ragged_row_chunks(self):
        # every |r_a + r_b|*T is under the cutoff, so the whole Y^2 form comes
        # from fallback tiles, here in a full and a ragged chunk of rows: each
        # tile's square block must be weighted once, the columns right of it
        # twice; the Y^2 part is almost all of each energy
        import memwave.ingham as ingham

        n, T = 20, 10.0
        assert n % ingham._TILE_ROWS
        rng = np.random.default_rng(4)
        omegas = 1.0 + np.arange(n) + 0.1j
        rs = 1e-9 * rng.random(n)
        Cs = 0.1 * (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        Rs = rng.normal(size=(n, 2))
        energies = ingham._real_signal_energies(omegas[None], rs[None], Cs[None], Rs[None], T)
        for c in range(2):
            exact = pairwise_signal_energy(Cs[:, c], Rs[:, c], omegas, rs, T)
            assert abs(energies[0, c] - exact) <= 1e-12 * exact

    def test_against_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            family, T = random_admissible_family(rng, n=5, T=4.0)
            exact = energy_integral(family, T)
            approx = quad_energy(family, T)
            assert abs(exact - approx) <= 1e-8 * max(1.0, abs(approx))

    def test_reordering_invariance(self):
        rng = np.random.default_rng(9)
        family, T = random_admissible_family(rng, n=8, T=5.0)
        perm = rng.permutation(8)
        shuffled = ExponentFamily(
            omegas=family.omegas[perm], rs=family.rs[perm],
            Cs=family.Cs[perm], Rs=family.Rs[perm],
            gamma=family.gamma, tau=family.tau,
            theta=family.theta, mu=family.mu,
        )
        a = energy_integral(family, T)
        b = energy_integral(shuffled, T)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestHorizonGuard:
    @pytest.mark.parametrize("T", [0.0, -1.0, 1e-300, 1e300, math.inf, math.nan])
    def test_square_of_horizon_must_be_positive_and_finite(self, T):
        family = single_frequency_family(3.0, 0.5, gamma=3.0)
        with pytest.raises(OutOfRange):
            energy_integral(family, T)
        with pytest.raises(OutOfRange):
            check_hypotheses(family, T)
        with pytest.raises(OutOfRange):
            window_kernel(2.0, T)

    def test_non_finite_bound_rejected(self):
        # T^2 = 1e-320 is positive, but the bound's right side overflows
        family = single_frequency_family(3.0, 0.5, gamma=3.0)
        with pytest.raises(OutOfRange):
            energy_lower_bound(family, 1e-160, check=False)

    def test_gamma_whose_square_underflows_is_out_of_range(self):
        # T*gamma^2 underflows to 0: the bound's right side is infinite
        family = single_frequency_family(3.0, 0.5, gamma=1e-200)
        with pytest.raises(OutOfRange, match=r"^rhs=-inf is not finite: the bound overflows "
                                             r"with this family's numbers at T=4.0$"):
            energy_lower_bound(family, 4.0, check=False)

    @pytest.mark.parametrize("name", ["omegas", "rs", "Cs", "Rs"])
    def test_non_finite_entries_rejected(self, name):
        arrays = {"omegas": [3.0, 6.0], "rs": [-0.1, -0.2], "Cs": [0.5, 0.25],
                  "Rs": [0.05, 0.02]}
        for bad in (math.nan, math.inf):
            arrays[name] = [arrays[name][0], bad]
            with pytest.raises(InputError, match=f"^{name} must be finite"):
                ExponentFamily(**arrays, gamma=3.0, tau=1)

    def test_gamma_must_be_positive(self):
        for gamma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InputError):
                single_frequency_family(3.0, 0.5, gamma=gamma)

    @pytest.mark.parametrize("name", ["omegas", "rs", "Cs", "Rs"])
    def test_arrays_must_be_one_dimensional(self, name):
        # a nested or scalar array would broadcast in check_hypotheses
        arrays = {"omegas": [3.0, 6.0], "rs": [-0.1, -0.2], "Cs": [0.5, 0.25],
                  "Rs": [0.05, 0.02]}
        for bad, shape in (([arrays[name]], (1, 2)), (arrays[name][0], ())):
            with pytest.raises(InputError) as err:
                ExponentFamily(**{**arrays, name: bad}, gamma=3.0, tau=1)
            assert str(err.value) == f"{name} must be a 1-D array, got shape {shape}"


class TestConstantS:
    def test_theta_one_exact(self):
        assert constant_S(1.0, 1.0) == PI * PI / 6.0

    def test_vanishing_mu(self):
        assert constant_S(0.0, 1.0) == 0.0

    def test_theta_three_quarters_pinned(self):
        assert abs(constant_S(2.0, 0.75) - TWO_ZETA_THREE_HALVES) < 1e-12 * TWO_ZETA_THREE_HALVES

    def test_large_theta_floor(self):
        # zeta(2*theta) < pi^2/6 for theta > 1: the floor wins
        assert constant_S(1.0, 2.0) == PI * PI / 6.0

    def test_theta_out_of_range(self):
        with pytest.raises(ThetaOutOfRange):
            constant_S(1.0, 0.5)

    def test_load_overflow_rejected(self):
        # the load 4*(4 + 3*S) overflows from mu ~ 9.1e306 on (S = mu*pi^2/6)
        assert math.isfinite(4.0 * (4.0 + 3.0 * constant_S(9e306, 1.0)))
        for mu in (1e307, 1e308, math.inf, math.nan):
            with pytest.raises(OutOfRange, match="^mu="):
                constant_S(mu, 1.0)


class TestCheckHypotheses:
    def test_admissible_family(self):
        rng = np.random.default_rng(13)
        family, T = random_admissible_family(rng, n=10)
        assert check_hypotheses(family, T) == []

    @pytest.mark.filterwarnings("error")
    def test_huge_theta_allows_no_decaying_amplitude(self):
        # 2**theta overflows to inf without a warning: the bound mu*|C|/n^theta is 0
        family = ExponentFamily(omegas=[3.0, 6.0], rs=[0.0, 0.0], Cs=[0.5, 0.5],
                                Rs=[0.0, 0.01], gamma=3.0, tau=1, theta=1e300)
        [violation] = check_hypotheses(family, 4.0)
        assert str(violation) == "amplitude at n=(2,): |R|=0.01 > mu*|C|/n^theta=0.0"

    def test_separation_violation_located(self):
        family = ExponentFamily(
            omegas=[3.0, 6.0, 6.0], rs=[0.0, 0.0, 0.0],
            Cs=[0.1, 0.1, 0.1], Rs=[0.0, 0.0, 0.0],
            gamma=3.0, tau=1,
        )
        violations = check_hypotheses(family, 8.0)
        assert any(v.hypothesis == "separation" and v.indices == (2, 3)
                   for v in violations)

    def test_amplitude_violation_located(self):
        family = ExponentFamily(
            omegas=[3.0], rs=[0.0], Cs=[0.1], Rs=[1.0],
            gamma=3.0, tau=1, theta=1.0, mu=1.0,
        )
        violations = check_hypotheses(family, 8.0)
        assert any(v.hypothesis == "amplitude" and v.indices == (1,)
                   for v in violations)

    def test_window_violation(self):
        family = single_frequency_family(3.0, 0.5, gamma=1.0)
        violations = check_hypotheses(family, 2.0)
        assert any(v.hypothesis == "window" for v in violations)

    def test_decay_violation(self):
        family = ExponentFamily(
            omegas=[3.0 + 0.2j], rs=[0.1], Cs=[0.5], Rs=[0.0],
            gamma=3.0, tau=1,
        )
        violations = check_hypotheses(family, 8.0)
        assert any(v.hypothesis == "root-decay" and v.indices == (1,)
                   for v in violations)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop_oracle_on_crowded_family(self, seed):
        # 40 terms whose frequency steps are often below gamma: separation fails
        # at many pairs, pairs below tau are exempt, and growth, root-decay and
        # amplitude fail at some indices; the list must equal the loop's
        rng = np.random.default_rng(seed)
        n, gamma = 40, 1.5
        re = np.cumsum(gamma * rng.uniform(0.2, 1.6, n))
        im = 0.3 * rng.random(n)
        rs = -im + rng.choice([-0.5, 0.2], n, p=[0.8, 0.2])
        cs = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps = rng.uniform(-2.0, 2.0, n) * np.abs(cs)
        family = ExponentFamily(omegas=re + 1j * im, rs=rs, Cs=cs, Rs=amps, gamma=gamma,
                                tau=int(rng.integers(1, 8)), theta=1.0, mu=1.0)
        violations = check_hypotheses(family, 3.0)
        assert violations == loop_check_hypotheses(family, 3.0)
        hypotheses = [v.hypothesis for v in violations]
        assert hypotheses.count("separation") > 100
        assert {"window", "growth", "root-decay", "amplitude"} <= set(hypotheses)


class TestEnergyLowerBound:
    def test_zero_family(self):
        family = ExponentFamily(omegas=[3.0], rs=[0.0], Cs=[0.0], Rs=[0.0],
                                gamma=3.0, tau=1)
        report = energy_lower_bound(family, 4.0)
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.margin == 0.0

    def test_single_frequency(self):
        family = single_frequency_family(3.0, 0.5, gamma=3.0)
        report = energy_lower_bound(family, 4.0)
        assert report.margin >= 0.0
        assert report.S == PI * PI / 6.0

    def test_hypothesis_error_lists_violations(self):
        family = single_frequency_family(3.0, 0.5, gamma=1.0)  # window fails
        with pytest.raises(HypothesisError) as err:
            energy_lower_bound(family, 2.0)
        assert err.value.violations

    def test_unchecked_path_reports_anyway(self):
        family = single_frequency_family(3.0, 0.5, gamma=1.0)
        report = energy_lower_bound(family, 2.0, check=False)
        assert math.isfinite(report.rhs)

    def test_randomized_margins(self):
        rng = np.random.default_rng(17)
        positive_rhs = 0
        for k in range(40):
            if k < 12:
                family, T = random_admissible_family(
                    rng, T=60.0, real_frequencies=True, force_tau_one=True,
                    window_factor=2.5)
            else:
                family, T = random_admissible_family(rng)
            report = energy_lower_bound(family, T)  # raises AuditFailure on failure
            assert report.margin >= -1e-9 * (1.0 + abs(report.rhs))
            if report.rhs > 0.0:
                positive_rhs += 1
        assert positive_rhs >= 10

    def test_forced_failure_raises(self):
        # corrupt gamma downward after construction: rhs blows past lhs
        family = single_frequency_family(100.0, 0.5, gamma=100.0)
        bad = ExponentFamily(omegas=family.omegas, rs=family.rs, Cs=family.Cs,
                             Rs=family.Rs, gamma=0.9, tau=1)
        T = 7.5  # keeps gamma=0.9 > 2*pi/T
        violations = check_hypotheses(bad, T)
        if not violations and energy_lower_bound(bad, T, check=False).margin < 0:
            with pytest.raises(AuditFailure):
                energy_lower_bound(bad, T)


class TestAuxiliarySeries:
    def test_telescoping_partial_sums(self):
        # sum 1/(4j^2-1) telescopes to (1 - 1/(2N+1))/2
        n = 10**6
        js = np.arange(1, n + 1, dtype=float)
        partial = float(np.sum(1.0 / (4.0 * js * js - 1.0)))
        telescoped = 0.5 * (1.0 - 1.0 / (2.0 * n + 1.0))
        assert abs(partial - telescoped) < 1e-12
        assert abs(partial + 0.5 / (2.0 * n + 1.0) - 0.5) < 1e-12

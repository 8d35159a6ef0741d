"""Gap constant, scale function monotonicity, and the finite-range gap audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memwave.gap_analysis as ga
from conftest import audit_gap_ratio, brute_force_gap_ratios, row_scan_gap_audit
from memwave import (
    AuditFailure,
    BETA_MAX,
    GapAudit,
    KernelParams,
    OutOfRange,
    PreconditionViolated,
    RegimeError,
    audit_gaps,
    freq_scale,
    freq_scale_parts,
    gap_constant,
    mode_spectrum,
    phi_psi,
    sqrt_gap_bound,
    verify_scale_decreasing,
)

SQRT2 = math.sqrt(2.0)

# 50-digit offline evaluations (mpmath), frozen as binary64 constants.
F_AT_HALF = 1.914934121521904235615693
F_AT_ONE = 1.643902181980216003508044
F_AT_XMAX = 1.475686517795720716519047
GAMMA_AT_BETA_MAX = 0.3056246847410565998597675
F_PLUS_AT_ONE = 0.7698003589195010193455317
F_MINUS_AT_ONE = 0.3849001794597505096727659


class TestSqrtGapBound:
    def test_lemma_example(self):
        gap = sqrt_gap_bound([1], 2, 1, dim=2)
        assert abs(gap - (math.sqrt(5.0) - math.sqrt(2.0))) < 1e-14
        assert gap >= (SQRT2 - 1.0) * 1

    def test_identical_indices(self):
        assert sqrt_gap_bound([1], 3, 3, dim=2) == 0.0

    def test_direct_evaluation(self):
        gap = sqrt_gap_bound([3], 5, 3, dim=2)
        assert abs(gap - (math.sqrt(34.0) - math.sqrt(18.0))) < 1e-14
        assert gap >= (SQRT2 - 1.0) * 2

    def test_precondition_enforced_in_list_form(self):
        with pytest.raises(PreconditionViolated):
            sqrt_gap_bound([5], 2, 3, dim=2)

    def test_scalar_form_skips_precondition(self):
        # scalar a carries no integer structure to check
        assert sqrt_gap_bound(25.0, 2, 3, dim=2) > 0.0

    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_certified_on_random_lattice_points(self, ks, n, n_prime):
        if max(n, n_prime) < max(ks):
            with pytest.raises(PreconditionViolated):
                sqrt_gap_bound(ks, n, n_prime, dim=len(ks) + 1)
        else:
            gap = sqrt_gap_bound(ks, n, n_prime, dim=len(ks) + 1)
            dim = len(ks) + 1
            assert gap >= (math.sqrt(dim) - math.sqrt(dim - 1)) * abs(n - n_prime) - 1e-12


class TestFreqScaleParts:
    def test_origin(self):
        assert freq_scale_parts(0.0) == (1.0, 1.0)

    def test_exact_zero_of_f_minus(self):
        # a(sqrt(3)) = 1 and the odd part equals 1: x^6 - 9x^4 + 27x^2 - 27 = (x^2-3)^3
        f_plus, f_minus = freq_scale_parts(math.sqrt(3.0))
        assert abs(f_plus - 2.0) < 1e-12
        assert abs(f_minus) < 1e-12

    def test_pinned_at_one(self):
        f_plus, f_minus = freq_scale_parts(1.0)
        assert abs(f_plus - F_PLUS_AT_ONE) < 1e-14
        assert abs(f_minus - F_MINUS_AT_ONE) < 1e-14

    def test_radicand_never_negative(self):
        # 1 - x^2 + x^4/3 has global minimum 1/4 at x^2 = 3/2
        xs = np.linspace(0.0, 10.0, 100001)
        radicand = 1.0 - xs**2 + xs**4 / 3.0
        assert radicand.min() >= 0.25 - 1e-12

    def test_positive_before_sqrt3(self):
        xs = np.linspace(0.0, math.sqrt(3.0), 2001)[:-1]
        _, f_minus = freq_scale_parts(xs)
        assert np.all(f_minus > 0.0)


class TestFreqScale:
    def test_value_at_zero(self):
        assert freq_scale(0.0) == 2.0

    def test_value_at_sqrt3(self):
        # f_minus cancels to ~eps at x = sqrt(3); the cube root amplifies that
        # residue to ~eps^(1/3), so the comparison tolerance is 2e-5
        assert abs(freq_scale(math.sqrt(3.0)) - 2.0 ** (1.0 / 3.0)) < 2e-5

    @pytest.mark.parametrize("x,expected", [
        (0.5, F_AT_HALF), (1.0, F_AT_ONE), (math.sqrt(1.5), F_AT_XMAX),
    ])
    def test_pinned_values(self, x, expected):
        assert abs(freq_scale(x) - expected) < 1e-13

    def test_positive_everywhere_sampled(self):
        xs = np.linspace(0.0, 5.0, 4001)
        assert np.all(freq_scale(xs) > 0.0)


class TestGapConstant:
    def test_memoryless_value(self):
        assert abs(gap_constant(0.0).gamma - (SQRT2 - 1.0)) < 1e-12

    def test_small_beta_limit(self):
        assert abs(gap_constant(1e-8).gamma - (SQRT2 - 1.0)) < 1e-8

    def test_boundary_value_pinned(self):
        assert abs(gap_constant(BETA_MAX).gamma - GAMMA_AT_BETA_MAX) < 1e-13

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            gap_constant(1.2)
        with pytest.raises(OutOfRange):
            gap_constant(-0.1)

    def test_evaluation_paths_agree_on_grid(self):
        # the constructor certifies the two paths to 1e-12; also compare
        # against the scaled form explicitly
        for beta in np.linspace(0.0, BETA_MAX, 97):
            g = gap_constant(float(beta)).gamma
            alt = 0.5 * (SQRT2 - 1.0) * freq_scale(3.0 * beta / (2.0 * SQRT2))
            assert abs(g - alt) <= 1e-12

    def test_strictly_decreasing_at_fine_grid(self):
        betas = np.arange(0.0, BETA_MAX + 1e-3, 1e-3)
        betas[-1] = BETA_MAX
        gammas = np.array([gap_constant(float(b)).gamma for b in betas])
        assert np.all(np.diff(gammas) < 0.0)

    def test_matches_lowest_mode_scale_sum(self):
        # gamma/(sqrt(2)-1) equals Lam_plus + Lam_minus of the (1,1) mode
        for beta in (0.1, 0.5, 1.0):
            params = KernelParams.limiting_regime(beta)
            phi, psi = phi_psi(params, 2.0)
            lam_sum = 0.5 * (np.cbrt(phi - psi) + np.cbrt(phi + psi))
            assert abs(lam_sum - freq_scale(3.0 * beta / (2.0 * SQRT2)) / 2.0) <= 1e-13
            assert abs(gap_constant(beta).gamma - (SQRT2 - 1.0) * lam_sum) <= 1e-12


def shifted_spectrum(monkeypatch, shift):
    """Patch `mode_spectrum` to the beta = 0, kmax = 8 spectrum with Re omega
    of each mode (i + 1, j + 1) in `shift` and of its mirror moved by the
    given amount; return that Re omega."""
    lam, omega, r = mode_spectrum(KernelParams.limiting_regime(0.0), 8)
    omega = omega.copy()
    for (i, j), delta in shift.items():
        omega[i, j] += delta
        omega[j, i] += delta
    monkeypatch.setattr(ga, "mode_spectrum", lambda params, kmax: (lam, omega, r))
    return omega.real


class TestAuditGaps:
    def test_memoryless_audit(self):
        audit = audit_gaps(KernelParams.limiting_regime(0.0), 16)
        assert isinstance(audit, GapAudit)
        assert audit.min_ratio_k2 >= SQRT2 - 1.0 - 1e-12
        assert audit.min_ratio_k1 >= SQRT2 - 1.0 - 1e-12
        assert audit.im_min == audit.im_max == 0.0

    def test_midrange_audit(self):
        audit = audit_gaps(KernelParams.limiting_regime(0.3), 32)
        assert audit.min_ratio_k2 >= audit.gamma - 1e-12
        assert audit.min_ratio_k1 >= audit.gamma - 1e-12
        assert audit.min_re_over_norm >= audit.gamma - 1e-12

    def test_boundary_beta_audit(self):
        audit = audit_gaps(KernelParams.limiting_regime(BETA_MAX), 16)
        assert audit.im_max <= 1.0 / math.sqrt(3.0) + 1e-12

    def test_im_band(self):
        for beta in (0.2, 0.8):
            audit = audit_gaps(KernelParams.limiting_regime(beta), 12)
            assert audit.im_min >= -1e-12
            assert audit.im_max <= beta / 2.0 + 1e-12

    def test_full_amplitude_sweep(self):
        betas = [round(0.1 * i, 10) for i in range(12)] + [BETA_MAX]
        for beta in betas:
            audit = audit_gaps(KernelParams.limiting_regime(beta), 32)
            assert audit.min_ratio_k2 >= audit.gamma - 1e-12

    def test_requires_limiting_regime(self):
        with pytest.raises(RegimeError):
            audit_gaps(KernelParams(0.1, 0.2), 8)

    def test_failure_carries_offending_pair(self, monkeypatch):
        # inflate gamma so the audit must fail, and check the datum is a mode pair
        real_gamma = gap_constant

        def inflated(beta):
            g = real_gamma(beta)
            return type(g)(gamma=g.gamma * 1.5, beta=g.beta)

        monkeypatch.setattr(ga, "gap_constant", inflated)
        with pytest.raises(AuditFailure) as err:
            ga.audit_gaps(KernelParams.limiting_regime(0.0), 8)
        _, omega, _ = mode_spectrum(KernelParams.limiting_regime(0.0), 8)
        assert err.value.datum == row_scan_gap_audit(omega.real)[1]

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 1.0, BETA_MAX])
    def test_ratios_match_brute_force_scan(self, beta):
        params = KernelParams.limiting_regime(beta)
        _, omega, _ = mode_spectrum(params, 64)
        audit = audit_gaps(params, 64)
        assert (audit.min_ratio_k2, audit.min_ratio_k1) == brute_force_gap_ratios(omega.real)

    @pytest.mark.parametrize("kmax", [256, 384])
    @pytest.mark.parametrize("beta", [0.0, 0.7, BETA_MAX])
    def test_candidates_match_row_scan_at_scale(self, kmax, beta):
        params = KernelParams.limiting_regime(beta)
        _, omega, _ = mode_spectrum(params, kmax)
        assert audit_gap_ratio(params, kmax) == row_scan_gap_audit(omega.real)

    @pytest.mark.parametrize("shift,worst", [
        # Re omega of modes (5, 7) and (7, 5) lowered: the step (6, 7) of row 5
        ({(4, 6): -0.352}, (5, (6, 7))),
        # Re omega of modes (8, 6) and (6, 8) raised: the pair (6, 8) of row 8
        ({(7, 5): 0.434}, (8, (6, 8))),
    ], ids=["step", "pair"])
    def test_least_slope_away_from_the_first_column(self, monkeypatch, shift, worst):
        # every row still rises; the least slope is at a candidate that is not
        # the pair (1, k1) of the unperturbed spectrum
        re = shifted_spectrum(monkeypatch, shift)
        assert np.all(np.diff(re, axis=1) > 0.0)
        expected = row_scan_gap_audit(re)
        assert expected[1] == worst
        assert audit_gap_ratio(KernelParams.limiting_regime(0.0), 8) == expected

    def test_falling_row_is_audit_failure(self, monkeypatch):
        # row 2 falls by 1 along its step (7, 8): |difference| / 1 would pass
        _, omega, _ = mode_spectrum(KernelParams.limiting_regime(0.0), 8)
        shifted_spectrum(monkeypatch, {(1, 7): omega.real[1, 6] - omega.real[1, 7] - 1.0})
        with pytest.raises(AuditFailure) as err:
            ga.audit_gaps(KernelParams.limiting_regime(0.0), 8)
        assert err.value.datum == (2, (7, 8))
        assert "gap ratio -1.0" in str(err.value)

    @pytest.mark.parametrize("index,change,message,datum", [
        (np.s_[:, :], lambda w: w - 1.0, "Re omega / sqrt(lam)", (1, 1)),
        (np.s_[0, 0], lambda w: w.real - 1e-9j, "< 0 at mode (1, 1)", (1, 1)),
        (np.s_[1, 1], lambda w: w + 1j, "> beta/2 at mode (2, 2)", (2, 2)),
    ], ids=["growth", "im below 0", "im above beta/2"])
    def test_mode_failure_names_plain_ints(self, monkeypatch, index, change, message, datum):
        def patched(params, kmax):
            lam, omega, r = mode_spectrum(params, kmax)
            omega = omega.copy()
            omega[index] = change(omega[index])
            return lam, omega, r

        monkeypatch.setattr(ga, "mode_spectrum", patched)
        with pytest.raises(AuditFailure) as err:
            ga.audit_gaps(KernelParams.limiting_regime(0.3), 8)
        assert message in str(err.value)
        assert err.value.datum == datum
        assert all(type(k) is int for k in err.value.datum)

    def test_asymmetric_spectrum_is_audit_failure(self, monkeypatch):
        # the rows' ratio stands for the columns' only while Re omega is
        # symmetric in (k1, k2)
        def skewed(params, kmax):
            lam, omega, r = mode_spectrum(params, kmax)
            omega = omega.copy()
            omega[2, 0] += 1e-9
            return lam, omega, r

        monkeypatch.setattr(ga, "mode_spectrum", skewed)
        with pytest.raises(AuditFailure) as err:
            ga.audit_gaps(KernelParams.limiting_regime(0.3), 8)
        assert err.value.datum in ((1, 3), (3, 1))


class TestScaleMonotonicity:
    def test_endpoints_decrease(self):
        assert verify_scale_decreasing(2) < 0.0

    def test_dense_grid(self):
        assert verify_scale_decreasing(10**4) <= 1e-12

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            verify_scale_decreasing(1)


class TestImaginaryPartBound:
    def test_scaled_difference_below_half_beta(self):
        # (1/sqrt(3)) * sqrt(lam) * (Lam_plus - Lam_minus) <= beta/2, audited per mode
        for beta in (0.2, 0.7, BETA_MAX):
            params = KernelParams.limiting_regime(beta)
            for lam in (2.0, 13.0, 128.0, 8192.0):
                phi, psi = phi_psi(params, lam)
                lam_minus = 0.5 * np.cbrt(phi - psi)
                lam_plus = 0.5 * np.cbrt(phi + psi)
                scaled = math.sqrt(lam) * (lam_plus - lam_minus) / math.sqrt(3.0)
                assert scaled <= beta / 2.0 + 1e-12
                assert scaled >= -1e-15

"""Closed-form roots vs the companion-matrix cross-check and algebraic certificates."""

import math

import numpy as np
import pytest

from conftest import characteristic_roots_numeric
from memwave import (
    BETA_MAX,
    ComplexRegime,
    KernelParams,
    NegativeRadicand,
    characteristic_roots,
    freq_scale_parts,
    laplace_eigenvalue,
    mode_spectrum,
    phi_psi,
    vieta_residuals,
)
from memwave.spectrum import _closed_form_roots, _lattice

# 50-digit offline evaluations (mpmath), frozen as binary64 constants.
PHI_GENERAL_01_015_2 = 0.9943803032542428633239734
PSI_GENERAL_01_015_2 = 0.0002296396633859229467059954
RE_OMEGA_01_015_2 = 1.411559425531613000093389
IM_OMEGA_01_015_2 = 0.04993726474328112006026205
R_01_015_2 = -0.05012547051343775987947589


def paired_root_error(closed, numeric):
    """Greedy minimal-distance pairing error, normalized by max(1, |root|)."""
    closed = list(closed)
    numeric = list(numeric)
    worst = 0.0
    for z in closed:
        dist = [abs(z - w) for w in numeric]
        i = int(np.argmin(dist))
        w = numeric.pop(i)
        worst = max(worst, abs(z - w) / max(1.0, abs(z), abs(w)))
    return worst


class TestKernelParams:
    def test_limiting_flag(self):
        assert KernelParams.limiting_regime(0.4).limiting
        assert not KernelParams(beta=0.1, eta=0.2).limiting

    def test_decimal_limiting_pair_accepted(self):
        # 0.15 < 1.5*0.1 by one ulp; the constructor must not reject it
        KernelParams(beta=0.1, eta=0.15)

    @pytest.mark.parametrize("beta,eta", [(-0.1, 0.0), (1.0, 1.0), (0.0, -1.0)])
    def test_invalid_rejected(self, beta, eta):
        with pytest.raises(ValueError):
            KernelParams(beta=beta, eta=eta)


class TestLaplaceEigenvalue:
    @pytest.mark.parametrize("k1,k2,expected", [(1, 1, 2), (3, 4, 25), (1, 2, 5)])
    def test_values(self, k1, k2, expected):
        assert laplace_eigenvalue(k1, k2) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            laplace_eigenvalue(0, 1)


class TestPhiPsi:
    def test_memoryless(self):
        phi, psi = phi_psi(KernelParams(0.0, 0.0), 2.0)
        assert phi == 1.0 and psi == 0.0

    def test_limiting_corner_exact(self):
        # beta = 2/sqrt(3), eta = sqrt(3), lam = 2: Phi = 1/2, Psi = 2^(-3/2)
        phi, psi = phi_psi(KernelParams(2.0 / math.sqrt(3.0), math.sqrt(3.0)), 2.0)
        assert abs(phi - 0.5) < 1e-14
        assert abs(psi - 2.0**-1.5) < 1e-14

    def test_general_values_pinned(self):
        phi, psi = phi_psi(KernelParams(0.1, 0.15), 2.0)
        assert abs(phi - PHI_GENERAL_01_015_2) < 1e-12 * PHI_GENERAL_01_015_2
        assert abs(psi - PSI_GENERAL_01_015_2) < 1e-12 * PSI_GENERAL_01_015_2

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.9, 2.0 / math.sqrt(3.0)])
    @pytest.mark.parametrize("lam", [2.0, 5.0, 1e4])
    def test_limiting_specialization_agrees(self, beta, lam):
        # on eta = 3*beta/2, Phi +- Psi = f_pm(3*beta / (2*sqrt(lam)))
        phi_g, psi_g = phi_psi(KernelParams.limiting_regime(beta), lam)
        f_plus, f_minus = freq_scale_parts(3.0 * beta / (2.0 * math.sqrt(lam)))
        phi_s, psi_s = (f_plus + f_minus) / 2.0, (f_plus - f_minus) / 2.0
        assert abs(phi_g - phi_s) <= 1e-13 * max(1.0, abs(phi_s))
        assert abs(psi_g - psi_s) <= 1e-13 * max(1.0, abs(psi_s))

    def test_negative_radicand_guard(self):
        # unreachable through the validated constructor; force eta = beta = 3,
        # where the radicand is 1 - 2.25*beta^2/lam < 0 at lam = 1
        params = KernelParams(0.0, 3.0)
        object.__setattr__(params, "beta", 3.0)
        with pytest.raises(NegativeRadicand):
            phi_psi(params, 1.0)


class TestCharacteristicRoots:
    def test_memoryless_reduces_to_free_wave(self):
        triple = characteristic_roots(KernelParams(0.0, 0.0), 2.0)
        assert abs(triple.omega - math.sqrt(2.0)) < 1e-15
        assert triple.r == 0.0

    def test_pinned_roots(self):
        triple = characteristic_roots(KernelParams(0.1, 0.15), 2.0)
        assert abs(triple.omega.real - RE_OMEGA_01_015_2) < 1e-13
        assert abs(triple.omega.imag - IM_OMEGA_01_015_2) < 1e-13
        assert abs(triple.r - R_01_015_2) < 1e-13

    @pytest.mark.parametrize("beta,eta,lam", [(0.1, 0.15, 2.0), (0.5, 1.0, 25.0)])
    def test_matches_numeric_roots(self, beta, eta, lam):
        params = KernelParams(beta, eta)
        closed = characteristic_roots(params, lam).roots()
        numeric = characteristic_roots_numeric(params, lam)
        assert paired_root_error(closed, numeric) < 1e-10

    def test_complex_regime_rejected(self):
        # beta = 0, large eta: Phi - Psi = (1 - eta/sqrt(3*lam))^3 < 0
        with pytest.raises(ComplexRegime):
            characteristic_roots(KernelParams(0.0, 10.0), 2.0)

    def test_beta_zero_degeneration(self):
        # cubic factors as (z^2 + lam)(z + eta): omega = sqrt(lam), r = -eta
        for lam in (2.0, 10.0, 4096.0):
            triple = characteristic_roots(KernelParams(0.0, 0.7), lam)
            assert abs(triple.omega - math.sqrt(lam)) <= 1e-13 * math.sqrt(lam)
            assert abs(triple.r + 0.7) <= 1e-13


class TestNumericRoots:
    def test_pure_oscillation(self):
        roots = characteristic_roots_numeric(KernelParams(0.0, 0.0), 4.0)
        assert abs(roots[0] - 2j) < 1e-14
        assert abs(roots[1] + 2j) < 1e-14
        assert abs(roots[2]) < 1e-14

    def test_factorable_cubic(self):
        # z^3 + z^2 + z + 1 = (z^2 + 1)(z + 1)
        roots = characteristic_roots_numeric(KernelParams(0.0, 1.0), 1.0)
        assert abs(roots[0] - 1j) < 1e-12
        assert abs(roots[1] + 1j) < 1e-12
        assert abs(roots[2] + 1.0) < 1e-12

    def test_vieta_certificate(self):
        params = KernelParams(0.1, 0.15)
        lam = 2.0
        z1, z2, z3 = characteristic_roots_numeric(params, lam)
        assert abs(z1 + z2 + z3 + params.eta) < 1e-12
        assert abs(z1 * z2 + z1 * z3 + z2 * z3 - lam) < 1e-12
        assert abs(z1 * z2 * z3 + (params.eta - params.beta) * lam) < 1e-12


class TestVietaResiduals:
    def test_exact_at_memoryless(self):
        params = KernelParams(0.0, 0.0)
        triple = characteristic_roots(params, 2.0)
        assert max(vieta_residuals(triple, params, 2.0)) < 1e-14

    def test_small_in_regime(self):
        params = KernelParams(0.1, 0.15)
        triple = characteristic_roots(params, 2.0)
        assert max(vieta_residuals(triple, params, 2.0)) < 1e-10 * max(1.0, 2.0)

    def test_sensitive_to_perturbation(self):
        import dataclasses

        params = KernelParams(0.1, 0.15)
        triple = characteristic_roots(params, 2.0)
        bumped = dataclasses.replace(triple, omega=triple.omega + 1e-3)
        assert max(vieta_residuals(bumped, params, 2.0)) > 1e-4


def random_regime_draw(rng):
    """(params, lam) with eta >= 3*beta/2 and real cube roots (phi >= psi)."""
    while True:
        beta = rng.uniform(0.0, 2.0 / math.sqrt(3.0))
        eta = 1.5 * beta * (1.0 + rng.uniform(0.0, 1.0))
        lam = 10.0 ** rng.uniform(math.log10(2.0), 6.0)
        params = KernelParams(beta, eta)
        phi, psi = phi_psi(params, lam)
        if phi >= psi:
            return params, lam


class TestRegimeSweep:
    def test_random_sweep_residuals_and_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            params, lam = random_regime_draw(rng)
            triple = characteristic_roots(params, lam)
            assert max(vieta_residuals(triple, params, lam)) < 1e-9 * max(1.0, lam)
            # root ordering: r below -Im omega, Im omega below eta/3
            assert triple.r <= -triple.omega.imag + 1e-12
            assert triple.omega.imag <= params.eta / 3.0 + 1e-12
            assert triple.psi >= 0.0
            assert triple.phi >= triple.psi

    def test_grid_sweep_matches_numeric(self):
        # moderate version of the full acceptance sweep
        rng = np.random.default_rng(11)
        for beta in (0.0, 0.4, 1.0):
            params = KernelParams.limiting_regime(beta)
            for _ in range(25):
                k1 = int(rng.integers(1, 65))
                k2 = int(rng.integers(1, 65))
                lam = laplace_eigenvalue(k1, k2)
                closed = characteristic_roots(params, lam).roots()
                numeric = characteristic_roots_numeric(params, lam)
                assert paired_root_error(closed, numeric) < 1e-9


class TestModeSpectrumGrid:
    def test_matches_scalar_path(self):
        params = KernelParams.limiting_regime(0.5)
        lam, omega, r = mode_spectrum(params, 6)
        for k1 in (1, 3, 6):
            for k2 in (2, 5):
                triple = characteristic_roots(params, laplace_eigenvalue(k1, k2))
                assert lam[k1 - 1, k2 - 1] == laplace_eigenvalue(k1, k2)
                assert abs(omega[k1 - 1, k2 - 1] - triple.omega) < 1e-14
                assert abs(r[k1 - 1, k2 - 1] - triple.r) < 1e-14

    @pytest.mark.parametrize("beta", [0.0, 1e-6, 0.4, BETA_MAX])
    def test_scalar_roots_are_a_view_of_the_lattice(self, beta):
        params = KernelParams.limiting_regime(beta)
        lam, omega, r = mode_spectrum(params, 24)
        for k1 in range(1, 25):
            for k2 in range(1, 25):
                triple = characteristic_roots(params, laplace_eigenvalue(k1, k2))
                assert triple.omega == omega[k1 - 1, k2 - 1]
                assert triple.r == r[k1 - 1, k2 - 1]
        # lam = 3 lies off the lattice k1^2 + k2^2
        closed = characteristic_roots(params, 3.0).roots()
        numeric = characteristic_roots_numeric(params, 3.0)
        assert paired_root_error(closed, numeric) < 1e-12


class TestLattice:
    """The eigenvalue lattice against `np.unique`, and the spectrum built on it
    against the closed-form roots of every mode."""

    @pytest.mark.parametrize("kmax", [*range(1, 65), 512])
    def test_matches_unique(self, kmax):
        k = np.arange(1, kmax + 1)
        lam = k[:, None] ** 2 + k[None, :] ** 2
        distinct, first, index = np.unique(lam, return_index=True, return_inverse=True)
        lattice = _lattice(kmax)
        for got, want in zip(lattice, (distinct, index.ravel(), first)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert lattice[0].dtype == np.float64
        assert _lattice(kmax) is lattice

    @pytest.mark.parametrize("beta, eta", [(0.0, 0.0), (0.01, 0.015), (0.4, 0.6), (0.3, 1.0),
                                           (2 / math.sqrt(3), math.sqrt(3))])
    @pytest.mark.parametrize("kmax", [1, 2, 63, 192, 512])
    def test_spectrum_is_the_roots_of_every_mode(self, beta, eta, kmax):
        # the oracle evaluates the closed form at each of the kmax^2 modes
        params = KernelParams(beta=beta, eta=eta)
        k = np.arange(1, kmax + 1, dtype=float)
        lam = k[:, None] ** 2 + k[None, :] ** 2
        want = (lam, *_closed_form_roots(params, lam)[:2])
        for got, oracle in zip(mode_spectrum(params, kmax), want):
            assert got.shape == (kmax, kmax) and got.dtype == oracle.dtype
            assert got.tobytes() == oracle.tobytes()

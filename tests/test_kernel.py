"""Tests for the split Coulomb kernel and derived quantities."""

import numpy as np
import pytest
from scipy.integrate import quad

from prolate_ewald.kernel import (KernelError, SplitKernel,
                                  background_correction, background_integral,
                                  far_field, fn_weight, mode_kernel,
                                  near_field, self_energy)
from prolate_ewald.pswf import DomainError, eval_phi0
from conftest import basis_for, kernel_for

R_C = 0.9


@pytest.fixture(scope="module")
def kern():
    return SplitKernel(basis=basis_for(c=12.0), r_c=R_C)


def fhat(kern, k):
    """Far-field transform at wavenumber k, 0 < k <= kmax."""
    return float(mode_kernel(kern, np.array([k * k]))[0][0])


def pressure_kernel(kern, kvec):
    """3x3 pressure kernel of one in-band mode, as mode_kernel documents it."""
    kv = np.asarray(kvec, dtype=float)
    k2 = float(kv @ kv)
    (f,), (dterm,) = mode_kernel(kern, np.array([k2]))
    kk = np.outer(kv, kv)
    return f * (np.eye(3) - 2.0 * kk / k2) + dterm * kk


class TestSplitIdentity:
    @pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_identity_on_log_grid(self, delta):
        k = kernel_for(delta, R_C)
        r = np.logspace(np.log10(1e-6 * R_C), np.log10(R_C), 10_000)
        resid = (near_field(k, r) + far_field(k, r) - 1.0 / r) * r
        assert np.max(np.abs(resid)) <= 1e-12

    def test_kmax(self, kern):
        assert kern.kmax == pytest.approx(12.0 / R_C)

    def test_bad_cutoff(self):
        for r_c in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(KernelError, match="finite and positive"):
                SplitKernel(basis=basis_for(c=12.0), r_c=r_c)


class TestNearField:
    def test_zero_at_cutoff(self, kern):
        assert near_field(kern, R_C) == pytest.approx(0.0, abs=1e-12)

    def test_zero_beyond_cutoff(self, kern):
        assert near_field(kern, 2 * R_C) == 0.0

    def test_splitting_identity_pointwise(self, kern):
        r = 0.3 * R_C
        assert near_field(kern, r) == pytest.approx(1.0 / r - far_field(kern, r),
                                                    rel=1e-12)

    def test_singularity_error(self, kern):
        with pytest.raises(DomainError):
            near_field(kern, 0.0)


class TestFarField:
    def test_origin_value(self, kern):
        b = kern.basis
        assert far_field(kern, 0.0) == pytest.approx(
            b.psi0_at_zero / (b.C0 * R_C), rel=1e-13)

    def test_coulomb_beyond_cutoff(self, kern):
        assert far_field(kern, 3 * R_C) == pytest.approx(1.0 / (3 * R_C), rel=1e-13)

    def test_against_quadrature(self, kern):
        b = kern.basis
        r = 0.5 * R_C
        ref, _ = quad(lambda t: b.psi_series(t) / b.C0, 0.0, r / R_C,
                      epsabs=1e-13, epsrel=1e-13)
        assert abs(far_field(kern, r) - ref / r) <= 1e-11

    def test_c1_continuity_at_cutoff(self, kern):
        delta = kern.basis.psi_series(1.0)
        eps = 1e-7 * R_C
        inside, outside = R_C - eps, R_C + eps
        assert abs(far_field(kern, inside) - 1.0 / inside) <= 10 * delta
        fd = (far_field(kern, R_C) - far_field(kern, R_C - eps)) / eps
        assert abs(fd + 1.0 / R_C**2) <= 10 * delta / eps * 1e-7 + 1e-4


class TestFarFieldHat:
    def test_small_k_limit(self, kern):
        k = 1e-4 * kern.kmax
        assert fhat(kern, k) * k**2 / (4 * np.pi) == pytest.approx(
            1.0, abs=1e-6)

    def test_against_radial_fourier_transform(self, kern):
        # fhat(k) = (4 pi / k) [ int_0^{r_c} sin(kr) phi0(r) dr
        #                        + cos(k r_c)/k ]   (Abel-regularized tail)
        k = 0.6 * kern.kmax
        inner, _ = quad(lambda r: np.sin(k * r)
                        * eval_phi0(kern.basis, r, R_C),
                        0.0, R_C, epsabs=1e-13, epsrel=1e-13, limit=200)
        ref = 4 * np.pi / k * (inner + np.cos(k * R_C) / k)
        assert fhat(kern, k) == pytest.approx(ref, rel=1e-8)


class TestFnWeight:
    def test_limit_at_origin(self, kern):
        assert fn_weight(kern, 1e-9 * R_C) == pytest.approx(1.0, abs=1e-10)

    def test_residual_at_cutoff(self, kern):
        b = kern.basis
        assert fn_weight(kern, R_C) == pytest.approx(b.psi_series(1.0) / b.C0,
                                                     rel=1e-10)

    def test_zero_beyond_cutoff(self, kern):
        assert fn_weight(kern, 1.1 * R_C) == 0.0

    def test_is_radial_force_weight(self, kern):
        r = 0.7 * R_C
        eps = 1e-6 * R_C
        fd = -(near_field(kern, r + eps) - near_field(kern, r - eps)) / (2 * eps)
        assert fn_weight(kern, r) == pytest.approx(r**2 * fd, rel=1e-7)

    def test_domain_error(self, kern):
        with pytest.raises(DomainError):
            fn_weight(kern, 0.0)


class TestPressureKernelHat:
    def test_axis_aligned_is_diagonal(self, kern):
        t = pressure_kernel(kern, [0.5 * kern.kmax, 0.0, 0.0])
        off = t - np.diag(np.diag(t))
        assert np.max(np.abs(off)) == 0.0

    def test_trace_recomposition(self, kern):
        kv = np.array([0.4, 0.3, 0.2]) * kern.kmax
        k = np.linalg.norm(kv)
        b = kern.basis
        x = k * R_C / b.c
        expected = (fhat(kern, k)
                    + 2 * np.pi * b.lambda0 / b.C0 * x
                    * b.psi_series(x, derivative=1) / k**2)
        assert np.trace(pressure_kernel(kern, kv)) == pytest.approx(
            expected, rel=1e-12)

    def test_symmetry_and_reflection(self, kern):
        kv = np.array([0.3, -0.2, 0.45]) * kern.kmax
        t = pressure_kernel(kern, kv)
        np.testing.assert_allclose(t, t.T, atol=0)
        np.testing.assert_allclose(t, pressure_kernel(kern, -kv), atol=0)

    def test_trace_isotropy(self, kern):
        k = 0.55 * kern.kmax
        rng = np.random.default_rng(3)
        traces = []
        for _ in range(5):
            v = rng.standard_normal(3)
            v *= k / np.linalg.norm(v)
            traces.append(np.trace(pressure_kernel(kern, v)))
        assert np.max(traces) - np.min(traces) <= 1e-12 * abs(np.mean(traces))


class TestSelfEnergy:
    def test_empty(self, kern):
        assert self_energy(kern, []) == 0.0

    def test_pair(self, kern):
        b = kern.basis
        assert self_energy(kern, [1.0, -1.0]) == pytest.approx(
            -b.psi0_at_zero / (b.C0 * R_C), rel=1e-13)

    def test_definitional_identity(self, kern):
        rng = np.random.default_rng(5)
        q = rng.normal(size=10)
        assert self_energy(kern, q) == pytest.approx(
            -0.5 * np.sum(q**2) * far_field(kern, 0.0), rel=1e-13)


class TestBackgroundCorrection:
    def test_neutral(self, kern):
        u_cb, u_bb, p = background_correction(kern, 0.0, 100.0)
        assert u_cb == 0.0 and u_bb == 0.0 and np.all(p == 0.0)

    def test_energy_ratio(self, kern):
        u_cb, u_bb, _ = background_correction(kern, 2.5, 64.0)
        assert u_bb == pytest.approx(-u_cb / 2.0, rel=1e-15)

    def test_j_integral_against_quadrature(self, kern):
        ref, _ = quad(lambda r: r * eval_phi0(kern.basis, r, R_C), 0.0, R_C,
                      epsabs=1e-13, epsrel=1e-13)
        assert background_integral(kern) == pytest.approx(
            0.5 * R_C**2 - ref, abs=1e-11)

    def test_pressure_correction_structure(self, kern):
        _, _, p = background_correction(kern, 1.5, 27.0)
        j = background_integral(kern)
        np.testing.assert_allclose(
            p, -2 * np.pi * 1.5**2 * j / 27.0**2 * np.eye(3), rtol=1e-14)

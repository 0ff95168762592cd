"""Particle-mesh pipeline: planning, spreading, spectral reductions."""

import dataclasses
import re
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prolate_ewald import mesh
from prolate_ewald.evaluate import CoulombSolver, EwaldParameters
from prolate_ewald.kernel import SplitKernel
from prolate_ewald.mesh import (MeshError, ModeWorkspace,
                                PlanningError, TransformProvider,
                                forward_density, local_pressure,
                                long_range_energy, long_range_forces,
                                long_range_pressure, plan_grid)
from prolate_ewald.oracle import direct_ksum
from prolate_ewald.system import (Cell, ParticleSystem, build_cell_list,
                                  chunk_length)

from conftest import kernel_for, random_neutral_system, window_for


def make_plan(delta, r_c, lengths, P=None, oversampling=2.0):
    kern = kernel_for(delta, r_c)
    cell = Cell.orthorhombic(lengths)
    spec = plan_grid(cell, kern, window_for(delta, P), oversampling=oversampling)
    return cell, kern, spec


def spread(sys, spec):
    """The real charge grid that forward_density transforms."""
    order, first, factors, _ = mesh._window_weights(sys, spec)
    return mesh._deposit(first, factors, sys.charges[order], spec)


def window_widths(cell, spec):
    """Half-width omega_d = P L_d / 2 M_d of the window in an orthorhombic cell."""
    return spec.P * np.diag(cell.h) / (2.0 * np.asarray(spec.M))


def full_spectrum(cell, kern, spec):
    """Retained modes of the full M_1 x M_2 x M_3 spectrum of an orthorhombic
    cell, and at each its wavevector, k^2, fhat, dterm and w_inv2, straight
    from psi_series."""
    lengths = np.diag(cell.h)
    m = np.meshgrid(*[np.fft.fftfreq(M, d=1.0 / M) for M in spec.M],
                    indexing="ij")
    k = np.stack([2.0 * np.pi * m[d] / lengths[d] for d in range(3)], axis=-1)
    k2 = np.sum(k * k, axis=-1)
    keep = (np.sqrt(k2) <= kern.kmax) & (k2 > 0.0)
    k, k2 = k[keep], k2[keep]
    b, sb = kern.basis, spec.window.basis
    x = np.minimum(np.sqrt(k2) * kern.r_c / b.c, 1.0)
    pref = 2.0 * np.pi * b.lambda0 / b.C0
    fhat = pref * b.psi_series(x) / k2
    dterm = pref * x * b.psi_series(x, derivative=1) / k2**2
    omega = window_widths(cell, spec)
    what = np.prod([w * sb.lambda0 * sb.psi_series(np.clip(w * k[:, d] / sb.c, -1, 1))
                    for d, w in enumerate(omega)], axis=0)
    return keep, k, k2, fhat, dterm, 1.0 / what**2


class TestPlanGrid:
    def test_published_spacing_moderate(self):
        cell, kern, spec = make_plan(4e-4, 0.9, [3.0, 3.0, 3.0], P=5,
                                     oversampling=1.0)
        L = cell.h[0, 0]
        increment = L / spec.M[0] - L / (spec.M[0] + 2)
        assert abs(spec.spacing[0] - 0.26) <= increment

    def test_published_spacing_tight(self):
        cell, kern, spec = make_plan(2e-5, 0.9, [3.0, 3.0, 3.0], P=6,
                                     oversampling=1.0)
        L = cell.h[0, 0]
        increment = L / spec.M[0] - L / (spec.M[0] + 2)
        assert abs(spec.spacing[0] - 0.2) <= increment

    def test_unit_oversampling_is_near_nyquist(self):
        cell, kern, spec = make_plan(1e-4, 1.1, [5.0, 6.0, 7.0],
                                     oversampling=1.0)
        for d in range(3):
            h = spec.spacing[d]
            assert np.pi / h >= kern.kmax
            # One fewer grid pair would violate Nyquist.
            h_coarser = cell.h[d, d] / (spec.M[d] - 2)
            assert np.pi / h_coarser < kern.kmax or spec.M[d] <= 2

    def test_counts_even(self):
        cell, kern, spec = make_plan(1e-5, 0.8, [4.0, 5.1, 6.3])
        assert all(m % 2 == 0 for m in spec.M)

    def test_fixed_counts_pin_grid(self):
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0])
        bigger = tuple(m + 4 for m in spec.M)
        pinned = plan_grid(cell, kern, spec.window, fixed_M=bigger)
        assert pinned.M == bigger

    def test_window_reuse(self):
        # The plan is a function of the cell: the same cell and window give
        # the same plan, holding the window itself.
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0])
        again = plan_grid(cell, kern, spec.window, oversampling=2.0)
        assert again.window is spec.window
        assert (again.M, again.spacing, again.P) == (spec.M, spec.spacing, spec.P)

    def test_invalid_inputs(self):
        kern = kernel_for(1e-4, 1.0)
        cell = Cell.orthorhombic([6.0, 6.0, 6.0])
        for bad in (0.5, np.nan, np.inf):
            with pytest.raises(PlanningError, match="oversampling"):
                plan_grid(cell, kern, window_for(1e-4, 5), oversampling=bad)

    @pytest.mark.parametrize("r_c", [1e-20, 1e-300])
    def test_count_beyond_int64_named(self, r_c):
        # The counts are planned in floats and raise before the int cast,
        # which would wrap them and warn.
        kern = kernel_for(1e-4, r_c)
        cell = Cell.orthorhombic([5.0, 5.0, 5.0])
        want = re.escape(f"grid counts {np.ceil(kern.kmax * 5.0 / np.pi):.4g} ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PlanningError, match=want + ".*int64"):
                plan_grid(cell, kern, window_for(1e-4))

    def test_window_support_guard(self):
        # A tiny box cannot hold the spreading window.
        kern = kernel_for(1e-4, 0.4)
        cell = Cell.orthorhombic([0.9, 0.9, 0.9])
        with pytest.raises(PlanningError, match="support|band|Nyquist"):
            plan_grid(cell, kern, window_for(1e-4, 12))


class TestSpreadCharges:
    def one_particle(self, pos, q=1.0, L=6.0):
        cell = Cell.orthorhombic([L, L, L])
        return ParticleSystem(cell=cell, positions=np.array([pos]),
                              charges=np.array([q]))

    def test_support_size(self):
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0])
        sys = self.one_particle([1.234, 2.345, 3.456])
        rho = spread(sys, spec)
        assert np.count_nonzero(rho) == spec.P ** 3

    def test_odd_order_symmetry(self):
        # A particle sitting on a grid point gets a symmetric odd stencil.
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0], P=5)
        h = spec.spacing[0]
        sys = self.one_particle([4 * h, 4 * spec.spacing[1], 4 * spec.spacing[2]])
        rho = spread(sys, spec)
        line = rho[2:7, 4, 4]
        np.testing.assert_allclose(line, line[::-1], rtol=1e-13)
        assert rho[4, 4, 4] == np.max(rho)

    def test_linearity(self):
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0])
        sys1 = self.one_particle([1.1, 2.2, 3.3], q=0.7)
        sys2 = self.one_particle([4.4, 0.5, 5.1], q=-1.3)
        both = ParticleSystem(
            cell=sys1.cell,
            positions=np.vstack([sys1.positions, sys2.positions]),
            charges=np.concatenate([sys1.charges, sys2.charges]))
        r1 = spread(sys1, spec)
        r2 = spread(sys2, spec)
        r12 = spread(both, spec)
        np.testing.assert_allclose(r12, r1 + r2, atol=1e-15)

    def test_periodic_wraparound(self):
        # Charge near a face must deposit weight on both sides of the seam.
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0])
        sys = self.one_particle([0.01, 3.0, 3.0])
        rho = spread(sys, spec)
        assert np.any(rho[-2:, :, :] != 0.0)
        assert np.any(rho[:2, :, :] != 0.0)

    def test_total_weight_matches_window_integral(self):
        # The trapezoid sum of a nearly band-limited window equals its
        # Fourier transform at k = 0, up to the spreading tolerance.
        cell, kern, spec = make_plan(1e-8, 1.0, [6.0, 6.0, 6.0])
        sys = self.one_particle([1.234, 2.345, 3.456])
        rho = spread(sys, spec)
        total = float(rho.sum()) * cell.volume / spec.n_grid
        sb = spec.window.basis
        w0 = np.prod([w * sb.lambda0 * sb.psi0_at_zero
                      for w in window_widths(cell, spec)])
        assert total == pytest.approx(w0, rel=1e-8)


class TestTransforms:
    def test_forward_density_zero_mode(self):
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0])
        sys = random_neutral_system(32, [6.0, 6.0, 6.0], seed=0)
        provider = TransformProvider()
        rho = spread(sys, spec)
        rho_hat = forward_density(sys, spec, provider)
        assert rho_hat.values[0, 0, 0] == pytest.approx(
            rho.sum() * cell.volume / spec.n_grid, rel=1e-12)

    def test_pressure_path_transform_count(self):
        # Energy and the full pressure tensor ride on one forward FFT.
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0])
        sys = random_neutral_system(32, [6.0, 6.0, 6.0], seed=1)
        provider = TransformProvider()
        rho_hat = forward_density(sys, spec, provider)
        long_range_energy(rho_hat, kern, spec, cell)
        long_range_pressure(rho_hat, kern, spec, cell)
        assert provider.forward_count == 1
        assert provider.inverse_count == 0

    def test_half_spectrum_sums_equal_full_spectrum(self):
        # Energy and pressure reduced over the half spectrum, weighted for
        # the left-out mirror modes, equal the sums over the full spectrum
        # of fftn of the same spread grid.  L_3 puts the Nyquist mode
        # (0, 0, -M_3/2) just inside kmax, so the Nyquist plane holds a
        # retained mode, which has no mirror to weigh.
        cell, kern, spec = make_plan(1e-5, 1.2, [5.0, 6.0, 6.0])
        M3 = 20
        lengths = [5.0, 6.0, np.pi * M3 / (kern.kmax * (1.0 - 1e-13))]
        cell = Cell.orthorhombic(lengths)
        spec = plan_grid(cell, kern, spec.window, fixed_M=(*spec.M[:2], M3))
        half = (*spec.M[:2], M3 // 2 + 1)
        assert np.any(np.unravel_index(ModeWorkspace(spec, kern, cell).flat, half)[2]
                      == M3 // 2)
        sys = random_neutral_system(32, lengths, seed=2)
        rho_hat = forward_density(sys, spec, TransformProvider())
        keep, k, k2, fhat, dterm, w_inv2 = full_spectrum(cell, kern, spec)
        full = np.fft.fftn(spread(sys, spec)) * (cell.volume / spec.n_grid)
        amp2 = np.abs(full[keep]) ** 2
        energy = np.sum(fhat * w_inv2 * amp2) / (2.0 * cell.volume)
        kernel = ((dterm - 2.0 * fhat / k2)[:, None, None] * k[:, :, None] * k[:, None, :]
                  + fhat[:, None, None] * np.eye(3))
        pressure = np.einsum("m,mab->ab", w_inv2 * amp2, kernel) / (2.0 * cell.volume**2)
        got = long_range_pressure(rho_hat, kern, spec, cell)
        assert long_range_energy(rho_hat, kern, spec, cell) == pytest.approx(
            energy, rel=1e-12)
        assert np.max(np.abs(got - pressure)) <= 1e-12 * np.max(np.abs(pressure))


# Plans for the pruned inverse: retained modes inside |m_d| <= M_d / 4 at
# oversampling 2, nearly the whole half spectrum at 1, a sheared cell, and
# odd counts.  (24, 46, 67) is also a grid where 1 / (M_1 M_2 M_3) rounded
# in double differs from irfftn's factor, rounded through long double.
INVERSE_PLANS = {
    "oversampled": (np.diag([6.0, 6.0, 6.0]), 2.0, None),
    "unit": (np.diag([6.0, 6.0, 6.0]), 1.0, None),
    "sheared": ([[6.0, 0.8, -0.5], [0.0, 6.2, 0.6], [0.0, 0.0, 5.8]], 2.0, None),
    "odd": (np.diag([6.0, 6.0, 6.0]), 1.0, (24, 46, 67)),
}


def inverse_plan(name):
    h, oversampling, fixed_M = INVERSE_PLANS[name]
    kern = kernel_for(1e-5, 1.2)
    cell = Cell(h=np.asarray(h, dtype=float))
    spec = plan_grid(cell, kern, window_for(1e-5), oversampling, fixed_M)
    return spec, ModeWorkspace(spec, kern, cell)


def half_spectra(coefficients, modes):
    """Stacked zero-filled half spectra holding the retained-mode coefficients."""
    M1, M2, M3 = modes.M
    half = np.zeros((len(coefficients), M1, M2, M3 // 2 + 1), dtype=complex)
    half.reshape(len(half), -1)[:, modes.flat] = coefficients
    return half


class TestPrunedInverse:
    @pytest.mark.parametrize("fields", [1, 3, 6])
    @pytest.mark.parametrize("plan", list(INVERSE_PLANS))
    def test_equals_irfftn(self, plan, fields):
        spec, modes = inverse_plan(plan)
        M1, M2, M3 = spec.M
        _, b2, b3 = modes.band
        if plan == "oversampled":    # the band leaves most lines empty
            assert 2 * b2 + 1 < M2 / 1.8 and b3 + 1 < (M3 // 2 + 1) / 1.8
        rng = np.random.default_rng(fields)
        shape = (fields, modes.flat.size)
        coefficients = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        provider = TransformProvider()
        got = provider.inverse(coefficients, modes)
        want = scipy.fft.irfftn(half_spectra(coefficients, modes), s=spec.M,
                                axes=(-3, -2, -1))
        assert provider.inverse_count == 1
        assert got.shape == (fields,) + spec.M
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_peak_memory_one_half_spectrum(self):
        # At oversampling 1 the band covers nearly the whole half spectrum.
        # The passes run in place on the one stacked half spectrum, which
        # lives with the real fields it becomes; a second copy of it, or of
        # its lines inside the band, adds about the whole stack.
        spec, modes = inverse_plan("unit")
        rng = np.random.default_rng(7)
        coefficients = (rng.standard_normal((6, modes.flat.size))
                        + 1j * rng.standard_normal((6, modes.flat.size)))
        provider = TransformProvider()
        provider.inverse(coefficients, modes)
        tracemalloc.start()
        try:
            fields = provider.inverse(coefficients, modes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        half = half_spectra(coefficients, modes).nbytes
        assert peak < half + fields.nbytes + half // 6


class TestLongRange:
    def setup_case(self, delta=1e-5, seed=0, lengths=(6.0, 6.0, 6.0), n=32):
        cell, kern, spec = make_plan(delta, 1.2, list(lengths))
        sys = random_neutral_system(n, list(lengths), seed=seed)
        provider = TransformProvider()
        rho_hat = forward_density(sys, spec, provider)
        return cell, kern, spec, sys, provider, rho_hat

    def test_energy_matches_mode_sum(self):
        cell, kern, spec, sys, provider, rho_hat = self.setup_case()
        e_ref, _, _ = direct_ksum(sys, kern)
        e = long_range_energy(rho_hat, kern, spec, cell)
        assert e == pytest.approx(e_ref, rel=1e-5)

    def test_forces_match_mode_sum(self):
        cell, kern, spec, sys, provider, rho_hat = self.setup_case(seed=3)
        _, f_ref, _ = direct_ksum(sys, kern)
        f = long_range_forces(rho_hat, sys, kern, spec, cell,
                              provider=provider)
        scale = np.linalg.norm(f_ref)
        assert np.linalg.norm(f - f_ref) / scale < 1e-5

    def test_pressure_matches_mode_sum(self):
        cell, kern, spec, sys, provider, rho_hat = self.setup_case(
            seed=4, lengths=(5.0, 6.0, 7.0))
        _, _, p_ref = direct_ksum(sys, kern)
        p = long_range_pressure(rho_hat, kern, spec, cell)
        assert np.linalg.norm(p - p_ref) / np.linalg.norm(p_ref) < 1e-4

    def test_ik_forces_conserve_momentum(self):
        cell, kern, spec, sys, provider, rho_hat = self.setup_case(seed=5)
        f = long_range_forces(rho_hat, sys, kern, spec, cell, mode="ik",
                              provider=provider)
        per_particle = np.linalg.norm(f, axis=1).max()
        assert np.linalg.norm(f.sum(axis=0)) < 1e-10 * per_particle

    def test_analytic_forces_differentiate_energy(self):
        # The gradient gather must match finite differences of the mesh
        # energy itself, not of the continuum limit.
        cell, kern, spec, sys, provider, rho_hat = self.setup_case(
            delta=1e-6, seed=6, n=8)
        f = long_range_forces(rho_hat, sys, kern, spec, cell,
                              mode="analytic", provider=provider)
        modes = ModeWorkspace(spec, kern, cell)

        def energy(positions):
            probe = ParticleSystem(cell=cell, positions=positions,
                                   charges=sys.charges)
            rh = forward_density(probe, spec, provider)
            return long_range_energy(rh, kern, spec, cell, modes=modes)

        step = 1e-6
        rng = np.random.default_rng(1)
        for idx in rng.choice(sys.n, size=3, replace=False):
            for axis in range(3):
                num = 0.0
                for sign, coef in ((1, 8.0), (-1, -8.0), (2, -1.0), (-2, 1.0)):
                    pos = sys.positions.copy()
                    pos[idx, axis] += sign * step
                    num += coef * energy(pos)
                num /= 12.0 * step
                assert f[idx, axis] == pytest.approx(-num, abs=1e-5)

    def test_unknown_force_mode(self):
        cell, kern, spec, sys, provider, rho_hat = self.setup_case(n=8)
        with pytest.raises(MeshError):
            long_range_forces(rho_hat, sys, kern, spec, cell, mode="spline")

    def test_virial_trace_identity(self):
        # tr(P_F) V relates to the energy through the radial kernel
        # derivative; cross-check against the scalar mode sum over the half
        # spectrum, each mode weighted for its left-out mirror.
        cell, kern, spec, sys, provider, rho_hat = self.setup_case(seed=7)
        m = ModeWorkspace(spec, kern, cell)
        p = long_range_pressure(rho_hat, kern, spec, cell, modes=m)
        amp2 = np.abs(rho_hat.values.ravel()[m.flat]) ** 2
        scaled = m.weight * m.w_inv2 * amp2 / (2.0 * m.volume**2)
        trace_ref = float(np.sum((m.fhat + m.dterm * m.k2) * scaled))
        assert np.trace(p) == pytest.approx(trace_ref, rel=1e-12)


class TestModeWorkspace:
    @staticmethod
    def reference(solver):
        """mask, fhat, dterm and w_inv2 on the half spectrum, m_3 <= M_3 / 2."""
        keep, _, _, fhat, dterm, w_inv2 = full_spectrum(solver.cell, solver.kern,
                                                        solver.spec)
        half = solver.spec.M[2] // 2 + 1
        in_half = np.nonzero(keep)[2] < half
        return keep[..., :half], fhat[in_half], dterm[in_half], w_inv2[in_half]

    @pytest.mark.parametrize("scale", [(1.01, 1.01, 1.01), (1.01, 0.995, 1.003)])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_rebind_matches_series(self, scale, pinned):
        cell = Cell.orthorhombic((7.5, 7.5, 7.5))
        solver = CoulombSolver(cell, EwaldParameters(r_c=2.2, delta_split=1e-4))
        M0 = solver.spec.M
        solver.rebind_cell(Cell.orthorhombic(7.5 * np.asarray(scale)),
                           fixed_M=M0 if pinned else None)
        if pinned:
            assert solver.spec.M == M0
        keep, fhat, dterm, w_inv2 = self.reference(solver)
        m = solver.modes
        np.testing.assert_array_equal(m.flat, np.flatnonzero(keep))
        for got, ref in ((m.fhat, fhat), (m.dterm, dterm), (m.w_inv2, w_inv2)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("h", [
        np.diag([7.575, 7.575, 7.575]), np.diag([7.575, 7.4625, 7.5225]),
        [[7.5, 0.2, -0.1], [0.0, 7.45, 0.15], [0.0, 0.0, 7.55]],
        np.diag([9.0, 7.5, 7.5])])
    def test_rebind_keeps_axis_tables_per_grid(self, h):
        # A rebind at unchanged grid counts reuses the per-axis tables and
        # gives arrays equal to a fresh build's; a new grid rebuilds them.
        solver = CoulombSolver(Cell.orthorhombic((7.5, 7.5, 7.5)),
                               EwaldParameters(r_c=2.2, delta_split=1e-4))
        M0, axes = solver.spec.M, solver.mode_axes
        cell = Cell(h=np.asarray(h, dtype=float))
        solver.rebind_cell(cell)
        assert (solver.mode_axes is axes) == (solver.spec.M == M0)
        assert (solver.spec.M == M0) == (cell.h[0, 0] < 9.0)
        fresh = ModeWorkspace(solver.spec, solver.kern, cell)
        for name in ("flat", "band", "kvec", "k2", "weight", "w_inv2", "fhat", "dterm"):
            np.testing.assert_array_equal(getattr(solver.modes, name),
                                          getattr(fresh, name))

    def test_rebind_sequence_keeps_index_tables_while_modes_hold(self):
        # Rescales as a barostat makes them: the index tables pass from one
        # workspace to the next while M and the retained set hold (7.5075,
        # 7.58, 8.1081), and are rebuilt when the retained set changes at
        # the same M (7.575), also at the same number of modes (the
        # stretched cell and the cube after it keep 662), or when M changes
        # (8.1: 14 -> 16).  Every rebind equals a fresh workspace bit for
        # bit.
        solver = CoulombSolver(Cell.orthorhombic((7.5, 7.5, 7.5)),
                               EwaldParameters(r_c=2.2, delta_split=1e-4))
        kept = []
        for lengths in ((7.5 * 1.015, 7.5 / 1.015, 7.5), (7.5,) * 3,
                        (7.5075,) * 3, (7.575,) * 3, (7.58,) * 3, (8.1,) * 3,
                        (8.1081,) * 3):
            before = solver.modes
            cell = Cell.orthorhombic(lengths)
            solver.rebind_cell(cell)
            m = solver.modes
            kept.append(m.retained is before.retained)
            assert kept[-1] == (m.M == before.M
                                and np.array_equal(m.flat, before.flat))
            fresh = ModeWorkspace(solver.spec, solver.kern, cell)
            for name in ("flat", "retained", "band", "kvec", "k2", "weight",
                         "psi3", "w_inv2", "fhat", "dterm"):
                np.testing.assert_array_equal(getattr(m, name),
                                              getattr(fresh, name))
        assert kept == [False, False, True, False, True, False, True]
        assert solver.spec.M == (16, 16, 16)


class TestLocalPressure:
    def test_zero_charges(self):
        cell, kern, spec = make_plan(1e-4, 1.0, [6.0, 6.0, 6.0])
        rng = np.random.default_rng(0)
        sys = ParticleSystem(cell=cell,
                             positions=rng.uniform(0, 6, (16, 3)),
                             charges=np.zeros(16))
        rho_hat = forward_density(sys, spec, TransformProvider())
        tensors = local_pressure(rho_hat, sys, kern, spec, cell)
        assert np.all(tensors == 0.0)

    def test_sums_to_global(self):
        cell, kern, spec = make_plan(1e-5, 1.2, [6.0, 7.0, 8.0])
        sys = random_neutral_system(48, [6.0, 7.0, 8.0], seed=9)
        rho_hat = forward_density(sys, spec, TransformProvider())
        tensors = local_pressure(rho_hat, sys, kern, spec, cell)
        total = tensors.sum(axis=0)
        global_p = long_range_pressure(rho_hat, kern, spec, cell)
        assert (np.linalg.norm(total - global_p)
                < 1e-8 * max(np.linalg.norm(global_p), 1e-30))

    def test_symmetric_pair_shares_equally(self):
        # Two identical charges mirrored through the box center carry
        # identical local tensors.
        cell, kern, spec = make_plan(1e-5, 1.2, [6.0, 6.0, 6.0])
        pos = np.array([[2.25, 3.0, 3.0], [3.75, 3.0, 3.0]])
        sys = ParticleSystem(cell=cell, positions=pos,
                             charges=np.array([1.0, 1.0]))
        rho_hat = forward_density(sys, spec, TransformProvider())
        tensors = local_pressure(rho_hat, sys, kern, spec, cell)
        np.testing.assert_allclose(tensors[0], tensors[1], rtol=1e-10,
                                   atol=1e-14)

    def test_tensors_symmetric(self):
        cell, kern, spec = make_plan(1e-4, 1.1, [6.0, 6.0, 6.0])
        sys = random_neutral_system(16, [6.0, 6.0, 6.0], seed=10)
        rho_hat = forward_density(sys, spec, TransformProvider())
        tensors = local_pressure(rho_hat, sys, kern, spec, cell)
        np.testing.assert_array_equal(tensors,
                                      np.swapaxes(tensors, 1, 2))


# A dyadic grid: L = 8 and M = 32 make h = 0.25, so x / h is exact and so
# is x -+ h whenever the hypothesis below accepts it.
DYADIC_L = 8.0
DYADIC_M = 32
DYADIC_H = DYADIC_L / DYADIC_M
coordinates = st.one_of(
    st.floats(0.0, DYADIC_L, exclude_max=True),
    st.sampled_from([0.0, np.nextafter(DYADIC_L, 0.0)]),
    st.integers(0, DYADIC_M - 1).map(lambda k: k * DYADIC_H),
    st.integers(0, DYADIC_M - 1).map(lambda k: (k + 0.5) * DYADIC_H))
positions = st.tuples(coordinates, coordinates, coordinates)
DETERMINISTIC = settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)


def spread_unit_charge(position, P):
    cell = Cell.orthorhombic([DYADIC_L] * 3)
    spec = plan_grid(cell, kernel_for(1e-8, 3.0), window_for(1e-8, P),
                     fixed_M=(DYADIC_M,) * 3)
    sys = ParticleSystem(cell=cell, positions=np.array([position]),
                         charges=np.array([1.0]))
    return spread(sys, spec), spec


class TestSpreadProperties:
    @DETERMINISTIC
    @given(position=positions, P=st.integers(2, 12), axis=st.integers(0, 2))
    def test_support_and_shift(self, position, P, axis):
        grid, _ = spread_unit_charge(position, P)
        assert np.count_nonzero(grid) == P ** 3
        x = position[axis]
        step = -DYADIC_H if x >= DYADIC_H else DYADIC_H
        assume(Fraction(x) + Fraction(step) == Fraction(x + step))
        moved = list(position)
        moved[axis] = x + step
        shifted, _ = spread_unit_charge(tuple(moved), P)
        np.testing.assert_allclose(shifted, np.roll(grid, int(np.sign(step)), axis),
                                   rtol=0.0, atol=1e-15 * grid.max())

    @DETERMINISTIC
    @given(position=positions, P=st.sampled_from([8, 9]))
    def test_total_weight(self, position, P):
        # The trapezoid sum of the window misses its integral by aliasing,
        # of order delta; at P = 8 and 9 (delta 1e-8) the worst case over
        # positions is 8.9e-9 and 5.2e-9.
        grid, spec = spread_unit_charge(position, P)
        sb = spec.window.basis
        w0 = (P * DYADIC_H / 2.0 * sb.lambda0 * sb.psi0_at_zero) ** 3
        assert grid.sum() * DYADIC_H ** 3 == pytest.approx(w0, rel=1e-8)


# Integer matrices U with entries in {-1, 0, 1} and det U = 1: h U spans the
# lattice of h, so it describes the same periodic system in a skewed basis.
# Those whose cell keeps SKEW_R_C below 0.45 of every width are kept.
SKEW_H = np.diag([6.0, 6.5, 7.0])
SKEW_R_C = 1.5
_U = np.array(list(product((-1, 0, 1), repeat=9)), dtype=float).reshape(-1, 3, 3)
_U = _U[np.round(np.linalg.det(_U)) == 1]
_WIDTHS = 1.0 / np.linalg.norm(np.linalg.inv(SKEW_H @ _U), axis=2)
UNIMODULAR = _U[np.min(_WIDTHS, axis=1) > SKEW_R_C / 0.45]


class TestCellBasis:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(index=st.integers(0, len(UNIMODULAR) - 1))
    def test_skewed_basis_same_results(self, index):
        # One lattice, two bases: the mesh grids differ, so energy, forces
        # and pressure agree to the accuracy each has against the exact sum
        # (test_mesh_agrees_with_exact), not to roundoff.
        base = random_neutral_system(12, np.diag(SKEW_H), seed=5)
        skewed = ParticleSystem(cell=Cell(h=SKEW_H @ UNIMODULAR[index]),
                                positions=base.positions, charges=base.charges)
        params = EwaldParameters(r_c=SKEW_R_C, delta_split=1e-6,
                                 oversampling=2.0)
        ref = CoulombSolver(base.cell, params).evaluate(base)
        out = CoulombSolver(skewed.cell, params).evaluate(skewed)
        assert abs(out.energy - ref.energy) <= 1e-6 * abs(ref.u_self)
        np.testing.assert_allclose(out.forces, ref.forces,
                                   atol=1e-5 * np.abs(ref.forces).max())
        np.testing.assert_allclose(out.pressure, ref.pressure,
                                   atol=1e-5 * np.abs(ref.pressure).max())


class TestOneStencil:
    @pytest.fixture
    def stencil_calls(self, monkeypatch):
        calls = []
        build = mesh._window_weights

        def counted(sys, spec):
            calls.append(sys.n)
            return build(sys, spec)

        monkeypatch.setattr(mesh, "_window_weights", counted)
        return calls

    @pytest.mark.parametrize("force_mode", ["ik", "analytic"])
    def test_one_stencil_per_evaluate(self, stencil_calls, force_mode):
        sys = random_neutral_system(24, [6.0, 6.0, 6.0], seed=11)
        solver = CoulombSolver(sys.cell, EwaldParameters(
            r_c=1.2, delta_split=1e-5, force_mode=force_mode))
        solver.evaluate(sys)
        assert len(stencil_calls) == 1

    def test_one_stencil_per_local_pressure(self, stencil_calls):
        sys = random_neutral_system(24, [6.0, 6.0, 6.0], seed=12)
        solver = CoulombSolver(sys.cell, EwaldParameters(r_c=1.2,
                                                         delta_split=1e-5))
        solver.local_pressure(sys)
        assert len(stencil_calls) == 1

    @pytest.mark.parametrize("op", ["ik", "analytic", "local_pressure"])
    def test_one_transform_each_way(self, op):
        # One forward FFT, and one stacked inverse FFT for all the fields:
        # three for ik forces, one for analytic, six for local pressure.
        sys = random_neutral_system(24, [6.0, 6.0, 6.0], seed=11)
        solver = CoulombSolver(sys.cell, EwaldParameters(
            r_c=1.2, delta_split=1e-5,
            force_mode="analytic" if op == "analytic" else "ik"))
        if op == "local_pressure":
            solver.local_pressure(sys)
        else:
            solver.evaluate(sys)
        assert solver.provider.forward_count == 1
        assert solver.provider.inverse_count == 1

    def test_local_pressure_peak_memory(self):
        # The stencil is expanded in chunks of CHUNK_NODES nodes, and one
        # stacked inverse gives the six fields.  A stencil materialized for
        # all particles, or a gather of all particles at once, adds at least
        # one N P^3 array of doubles on top of the fields.
        n = 2000
        length = (n / 4.0) ** (1.0 / 3.0)
        sys = random_neutral_system(n, [length] * 3, seed=14)
        solver = CoulombSolver(sys.cell, EwaldParameters(r_c=2.0,
                                                         delta_split=1e-6))
        assert solver.spec.P == 7
        solver.local_pressure(sys)
        tracemalloc.start()
        try:
            solver.local_pressure(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stencil = n * solver.spec.P ** 3 * 8
        fields = 6 * solver.spec.n_grid * 8
        assert peak < stencil + fields

    def test_evaluate_peak_memory(self):
        # The near-field pass and the mesh run one after the other.  The
        # near field holds one chunk of chunk_length(N) pairs at a time, at
        # about 23 doubles a pair (the gathered positions, the image, r, r^2,
        # the charge products, the table index and rows); 26 leave room.
        # The mesh holds four grids, the O(N P) stencil with the Chebyshev
        # matrix of the window (under 6 x 3 N P doubles) and one chunk of
        # CHUNK_NODES expanded nodes (four arrays).  A stencil materialized
        # for all N P^3 nodes adds two 5.5 MB arrays and crosses the bound.
        n = 2000
        length = (n / 4.0) ** (1.0 / 3.0)
        sys = random_neutral_system(n, [length] * 3, seed=13)
        solver = CoulombSolver(sys.cell, EwaldParameters(r_c=2.0,
                                                         delta_split=1e-6))
        neighbors = build_cell_list(sys, 2.0)
        solver.evaluate(sys, neighbors=neighbors)
        tracemalloc.start()
        try:
            solver.evaluate(sys, neighbors=neighbors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        near = chunk_length(n) * 26 * 8
        far = (4 * solver.spec.n_grid * 16 + 6 * 3 * n * solver.spec.P * 8
               + 4 * mesh.CHUNK_NODES * 8)
        assert peak < max(near, far)


def input_order(rho):
    """The stencil of rho in input order and in the same C layout, as one
    with no sort (einsum's rounding depends on the operands' strides)."""
    back = np.argsort(rho.order)
    return dataclasses.replace(
        rho, order=np.arange(rho.order.size, dtype=rho.order.dtype),
        first=np.take(rho.first, back, axis=1),
        factors=np.take(rho.factors, back, axis=2),
        offsets=np.take(rho.offsets, back, axis=1))


class TestOrderedStencil:
    # The stencil is sorted by base node once per configuration; spread and
    # gathers run in that order, and every result comes back in input order.
    def system(self, n=3000, seed=60):
        length = (n / 4.0) ** (1.0 / 3.0)
        return random_neutral_system(n, [length] * 3, seed=seed)

    def test_sorted_by_base_node(self):
        sys = self.system()
        spec = plan_grid(sys.cell, kernel_for(1e-5, 2.0), window_for(1e-5))
        order, first, _, _ = mesh._window_weights(sys, spec)
        assert order.dtype == first.dtype == np.int32
        assert np.array_equal(np.sort(order), np.arange(sys.n))
        assert not np.array_equal(order, np.arange(sys.n))
        key = np.ravel_multi_index(first, spec.M)
        assert np.all(np.diff(key) >= 0)
        assert np.all(order[1:][np.diff(key) == 0] > order[:-1][np.diff(key) == 0])

    def test_gathers_equal_input_order_reference(self):
        # Several chunks: the sorted stencil's chunks hold other particles
        # than the input-order ones, and each particle's sum is unchanged.
        sys = self.system()
        spec = plan_grid(sys.cell, kernel_for(1e-5, 2.0), window_for(1e-5))
        rho = forward_density(sys, spec, TransformProvider())
        assert sys.n > 2 * mesh.CHUNK_NODES // spec.P**3
        fields = np.random.default_rng(4).standard_normal((3,) + spec.M)
        ref = input_order(rho)
        for got, want in ((rho.gather(fields), ref.gather(fields)),
                          (rho.gather_gradient(fields[0]),
                           ref.gather_gradient(fields[0]))):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("force_mode", ["ik", "analytic"])
    def test_permuted_input_permutes_outputs(self, force_mode):
        sys = self.system(n=1500, seed=61)
        perm = np.random.default_rng(5).permutation(sys.n)
        shuffled = ParticleSystem(cell=sys.cell, positions=sys.positions[perm],
                                  charges=sys.charges[perm])
        solver = CoulombSolver(sys.cell, EwaldParameters(
            r_c=2.0, delta_split=1e-5, oversampling=2.0, force_mode=force_mode))
        for out in ("forces", "local_pressure"):
            if out == "forces":
                want, got = (solver.evaluate(s).forces for s in (sys, shuffled))
            else:
                want, got = (solver.local_pressure(s) for s in (sys, shuffled))
            assert np.max(np.abs(got - want[perm])) <= 1e-14 * np.max(np.abs(want))


def one_shot_factors(window, offsets, derivative=0):
    """The window at all offsets from one Chebyshev-Vandermonde matrix."""
    return np.ascontiguousarray(np.swapaxes(window(offsets, derivative), 1, 2))


class TestWindowBlocks:
    # The window factors are evaluated a block of particles at a time; the
    # blocked stencil equals the one-shot evaluation bit for bit.
    delta, r_c = 1e-4, 2.0

    def block(self):
        return mesh.CHUNK_NODES // len(window_for(self.delta).value)

    def system(self, n, seed):
        length = (n / 4.0) ** (1.0 / 3.0)
        return random_neutral_system(n, [length] * 3, seed=seed)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_blocked_factors_equal_one_shot(self, extra):
        n = self.block() + extra
        sys = self.system(n, seed=20 + extra)
        spec = plan_grid(sys.cell, kernel_for(self.delta, self.r_c),
                         window_for(self.delta))
        _, _, factors, offsets = mesh._window_weights(sys, spec)
        assert factors.shape == (3, spec.P, n)
        for derivative, blocked in ((0, factors),
                                    (1, mesh._window_factors(spec.window, offsets, 1))):
            want = one_shot_factors(spec.window, offsets, derivative)
            np.testing.assert_array_equal(blocked.view(np.uint64),
                                          want.view(np.uint64))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_gather_gradient_and_evaluate_equal_one_shot(self, extra, monkeypatch):
        sys = self.system(self.block() + extra, seed=30 + extra)
        spec = plan_grid(sys.cell, kernel_for(self.delta, self.r_c),
                         window_for(self.delta))
        field = np.random.default_rng(extra + 2).standard_normal(spec.M)

        def outputs():
            rho = forward_density(sys, spec, TransformProvider())
            out = [rho.gather_gradient(field)]
            for mode in ("ik", "analytic"):
                e = CoulombSolver(sys.cell, EwaldParameters(
                    r_c=self.r_c, delta_split=self.delta,
                    force_mode=mode)).evaluate(sys)
                out += [np.array(e.energy), e.forces, e.pressure]
            return out

        blocked = outputs()
        monkeypatch.setattr(mesh, "_window_factors", one_shot_factors)
        for got, want in zip(blocked, outputs()):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("op", ["ik", "analytic", "local_pressure"])
    def test_no_vandermonde_spans_all_particles(self, op, monkeypatch):
        # Every Chebyshev-Vandermonde matrix built in one evaluation, the
        # window's value or derivative, covers at most one block of offsets.
        n = 4 * self.block() + 3
        sys = self.system(n, seed=40)
        solver = CoulombSolver(sys.cell, EwaldParameters(
            r_c=self.r_c, delta_split=self.delta,
            force_mode="ik" if op == "local_pressure" else op))
        rows = []
        chebvander = np.polynomial.chebyshev.chebvander

        def spy(x, deg):
            rows.append(np.size(x))
            return chebvander(x, deg)

        monkeypatch.setattr(np.polynomial.chebyshev, "chebvander", spy)
        if op == "local_pressure":
            solver.local_pressure(sys)
        else:
            solver.evaluate(sys)
        passes = 2 if op == "analytic" else 1     # value, and the derivative
        assert len(rows) >= passes * n // self.block()
        assert max(rows) <= 3 * self.block()

    def test_gather_memory_independent_of_n(self):
        # A gather pass builds its index terms, flat indices, taken values
        # and weight products for one chunk of at most CHUNK_NODES nodes at
        # a time: 4.3 arrays of CHUNK_NODES doubles at its peak, whatever
        # N.  Index terms built for all N particles up front (two arrays of
        # 3 x P x N integers, 4.8 MB here) cross the bound of eight.
        sys = self.system(20000, seed=50)
        spec = plan_grid(sys.cell, kernel_for(self.delta, self.r_c),
                         window_for(self.delta))
        rho = forward_density(sys, spec, TransformProvider())
        fields = np.random.default_rng(3).standard_normal((3,) + spec.M)
        rho.gather(fields)
        tracemalloc.start()
        try:
            out = rho.gather(fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 8 * mesh.CHUNK_NODES * 8

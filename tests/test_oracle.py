"""Independent reference implementations: mode sums, classical Ewald, FD."""

import numpy as np
import pytest

from prolate_ewald.evaluate import CoulombSolver, EwaldParameters
from prolate_ewald.oracle import (OracleError, OracleReport, classical_ewald,
                                  direct_ksum, make_report,
                                  relative_deviation, virial_audit)
from prolate_ewald.system import Cell, ParticleSystem

from conftest import kernel_for, random_neutral_system, window_for
from fd_checks import fd_force_check, fd_pressure_check

# Madelung constant of rock salt from this module's classical Ewald path,
# frozen so regressions cannot hide behind a moving reference.  Two
# independent (alpha, k_cut) choices agree on this value to 2.5e-13.
MADELUNG_NACL = -1.7475645946345164


def rock_salt(a=2.0):
    """Eight-ion NaCl conventional cell with unit charges."""
    frac = np.array([[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5],
                     [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5], [0.5, 0.5, 0.5]],
                    dtype=float)
    q = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float)
    cell = Cell.orthorhombic([a, a, a])
    return ParticleSystem(cell=cell, positions=frac * a, charges=q)


def triclinic_system(n, seed, skew=0.08):
    rng = np.random.default_rng(seed)
    h = np.diag(rng.uniform(5.0, 8.0, 3))
    h[0, 1] = skew * h[1, 1]
    h[0, 2] = skew * h[2, 2]
    h[1, 2] = -skew * h[2, 2]
    cell = Cell(h=h)
    frac = rng.uniform(0.0, 1.0, (n, 3))
    q = rng.uniform(0.5, 1.5, n) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    q -= q.mean()
    return ParticleSystem(cell=cell, positions=frac @ h.T, charges=q)


class TestReporting:
    def test_relative_deviation(self):
        assert relative_deviation(2.0, 2.0) == 0.0
        assert relative_deviation([3.0, 4.0], [0.0, 0.0]) == 1.0
        assert relative_deviation(0.0, 0.0) == 0.0

    def test_make_report(self):
        rep = make_report("x", 1.0, 1.0 + 1e-7, 1e-6)
        assert isinstance(rep, OracleReport)
        assert rep.passed
        assert not make_report("x", 1.0, 1.1, 1e-6).passed
        assert "x" in str(rep)


class TestDirectKsum:
    def test_zero_charges(self):
        sys = random_neutral_system(8, [6.0, 6.0, 6.0], seed=0)
        sys = ParticleSystem(cell=sys.cell, positions=sys.positions,
                             charges=np.zeros(8))
        e, f, p = direct_ksum(sys, kernel_for(1e-4, 1.2))
        assert e == 0.0
        assert np.all(f == 0.0)
        assert np.all(p == 0.0)

    def test_pair_pressure_symmetric(self):
        kern = kernel_for(1e-5, 1.5)
        cell = Cell.orthorhombic([8.0, 8.0, 8.0])
        sys = ParticleSystem(cell=cell,
                             positions=np.array([[2.0, 4.0, 4.0],
                                                 [5.0, 4.0, 4.0]]),
                             charges=np.array([1.0, -1.0]))
        e, f, p = direct_ksum(sys, kern)
        np.testing.assert_allclose(p, p.T, atol=1e-14)
        # Opposite forces along the pair axis only.
        np.testing.assert_allclose(f[0], -f[1], atol=1e-12)
        assert abs(f[0, 1]) < 1e-12 and abs(f[0, 2]) < 1e-12

    def test_translation_invariance(self):
        kern = kernel_for(1e-5, 1.4)
        for seed in range(4):
            sys = triclinic_system(32, seed)
            e0, f0, p0 = direct_ksum(sys, kern)
            shift = np.array([0.7, -1.1, 0.4])
            moved = ParticleSystem(cell=sys.cell,
                                   positions=sys.positions + shift,
                                   charges=sys.charges)
            e1, f1, p1 = direct_ksum(moved, kern)
            assert relative_deviation(e0, e1) < 1e-11
            assert relative_deviation(f0, f1) < 1e-11
            assert relative_deviation(p0, p1) < 1e-11

    def test_relabel_invariance(self):
        kern = kernel_for(1e-5, 1.4)
        sys = triclinic_system(32, 7)
        e0, f0, p0 = direct_ksum(sys, kern)
        perm = np.random.default_rng(2).permutation(32)
        relabeled = ParticleSystem(cell=sys.cell,
                                   positions=sys.positions[perm],
                                   charges=sys.charges[perm])
        e1, f1, p1 = direct_ksum(relabeled, kern)
        assert relative_deviation(e0, e1) < 1e-11
        assert relative_deviation(f0[perm], f1) < 1e-11

    def test_forces_differentiate_energy(self):
        kern = kernel_for(1e-6, 1.3)
        sys = triclinic_system(8, 3)
        _, f, _ = direct_ksum(sys, kern)
        rep = fd_force_check(
            sys, lambda pos: direct_ksum(
                ParticleSystem(cell=sys.cell, positions=pos,
                               charges=sys.charges), kern)[0],
            f, tolerance=1e-6)
        assert rep.passed, rep


class TestClassicalEwald:
    def test_isolated_pair_limit(self):
        # Unit charges 1 apart in a huge box: energy -> -1 from below.
        cell = Cell.orthorhombic([40.0, 40.0, 40.0])
        sys = ParticleSystem(cell=cell,
                             positions=np.array([[20.0, 20.0, 20.0],
                                                 [21.0, 20.0, 20.0]]),
                             charges=np.array([1.0, -1.0]))
        e, f, p = classical_ewald(sys)
        assert e == pytest.approx(-1.0, abs=2e-3)
        # Attraction pulls the positive charge toward its partner at +x.
        assert f[0, 0] == pytest.approx(1.0, abs=2e-3)

    def test_mode_set_converged(self):
        sys = random_neutral_system(16, [5.0, 5.0, 5.0], seed=5)
        e, _, _ = classical_ewald(sys, check=True)
        e2, _, _ = classical_ewald(sys, k_cut=None, check=False)
        assert e == pytest.approx(e2, rel=1e-12)

    def test_parameter_independence(self):
        # Physics must not depend on the splitting parameter.
        sys = random_neutral_system(24, [5.0, 6.0, 7.0], seed=6)
        e1, f1, p1 = classical_ewald(sys, r_cut=2.2)
        e2, f2, p2 = classical_ewald(sys, r_cut=1.6)
        assert relative_deviation(e1, e2) < 1e-9
        assert relative_deviation(f1, f2) < 1e-9
        assert relative_deviation(p1, p2) < 1e-8

    def test_rock_salt_madelung(self):
        a = 2.0
        sys = rock_salt(a)
        e, _, _ = classical_ewald(sys)
        madelung = e / 4.0 * (a / 2.0) / 1.0  # 4 ion pairs, spacing a/2
        assert madelung == pytest.approx(MADELUNG_NACL, abs=1e-8)

    def test_matches_prolate_split(self):
        # Two unrelated kernel splittings, one answer.
        sys = random_neutral_system(32, [6.0, 6.0, 6.0], seed=8)
        e_ref, f_ref, p_ref = classical_ewald(sys)
        params = EwaldParameters(r_c=1.3, delta_split=1e-7, oversampling=2.0)
        out = CoulombSolver(sys.cell, params).evaluate(sys)
        assert relative_deviation(e_ref, out.energy) < 1e-6
        assert relative_deviation(f_ref, out.forces) < 1e-6
        assert relative_deviation(p_ref, out.pressure) < 1e-5

    def test_non_neutral_background(self):
        # A single charge has finite energy only through the background.
        cell = Cell.orthorhombic([5.0, 5.0, 5.0])
        sys = ParticleSystem(cell=cell, positions=np.array([[1.0, 2.0, 3.0]]),
                             charges=np.array([1.0]))
        e1, _, _ = classical_ewald(sys, r_cut=2.2)
        e2, _, _ = classical_ewald(sys, r_cut=1.7)
        assert e1 < 0.0
        assert relative_deviation(e1, e2) < 1e-9


class TestFdForceCheck:
    def test_single_charge_zero_force(self):
        cell = Cell.orthorhombic([5.0, 5.0, 5.0])
        sys = ParticleSystem(cell=cell, positions=np.array([[2.0, 2.0, 2.0]]),
                             charges=np.array([1.0]))
        rep = fd_force_check(sys, lambda pos: 0.0, np.zeros((1, 3)),
                             tolerance=1e-10)
        assert rep.passed

    @staticmethod
    def solver_energy(sys, params):
        # Analytic differentiation is the exact gradient of the mesh energy,
        # which is the quantity finite differences probe.  One shared solver
        # keeps the FD loop cheap and bitwise consistent.
        solver = CoulombSolver(sys.cell, params)

        def energy(pos):
            probe = ParticleSystem(cell=sys.cell, positions=pos,
                                   charges=sys.charges)
            return solver.evaluate(probe).energy

        return solver, energy

    def test_pair_forces(self):
        sys = random_neutral_system(2, [6.0, 6.0, 6.0], seed=9)
        params = EwaldParameters(r_c=1.5, delta_split=1e-6,
                                 force_mode="analytic")
        solver, energy = self.solver_energy(sys, params)
        out = solver.evaluate(sys)
        rep = fd_force_check(sys, energy, out.forces, tolerance=1e-6)
        assert rep.passed, rep

    def test_random_systems(self):
        params = EwaldParameters(r_c=1.2, delta_split=1e-6, oversampling=2.0,
                                 force_mode="analytic")
        sys = random_neutral_system(16, [5.0, 5.0, 5.0], seed=10)
        solver, energy = self.solver_energy(sys, params)
        out = solver.evaluate(sys)
        rep = fd_force_check(sys, energy, out.forces, tolerance=1e-5)
        assert rep.passed, rep

    def test_wrong_forces_fail(self):
        cell = Cell.orthorhombic([5.0, 5.0, 5.0])
        sys = ParticleSystem(cell=cell, positions=np.array([[2.0, 2.0, 2.0]]),
                             charges=np.array([1.0]))
        rep = fd_force_check(sys, lambda pos: float(pos[0, 0]),
                             np.zeros((1, 3)), tolerance=1e-6)
        assert not rep.passed


class TestFdPressureCheck:
    def make_energy_of_cell(self, sys, params):
        # Isotropic and anisotropic couplings keep the cell orthorhombic,
        # so the mesh path applies throughout the stencil.
        frac = sys.cell.fractional(sys.positions)

        def energy_of_cell(h):
            cell = Cell(h=h)
            probe = ParticleSystem(cell=cell, positions=frac @ h.T,
                                   charges=sys.charges)
            return CoulombSolver(cell, params).evaluate(probe).energy

        return energy_of_cell

    def test_zero_charges(self):
        sys = random_neutral_system(8, [6.0, 6.0, 6.0], seed=11)
        sys = ParticleSystem(cell=sys.cell, positions=sys.positions,
                             charges=np.zeros(8))
        rep = fd_pressure_check(sys, lambda h: 0.0, np.zeros((3, 3)),
                                coupling="isotropic", tolerance=1e-10)
        assert rep.passed

    def test_isotropic(self):
        params = EwaldParameters(r_c=1.2, delta_split=1e-6, oversampling=2.0)
        sys = random_neutral_system(16, [5.0, 5.5, 6.0], seed=12)
        out = CoulombSolver(sys.cell, params).evaluate(sys)
        rep = fd_pressure_check(sys, self.make_energy_of_cell(sys, params),
                                out.pressure, coupling="isotropic",
                                tolerance=1e-5)
        assert rep.passed, rep

    def test_anisotropic(self):
        params = EwaldParameters(r_c=1.2, delta_split=1e-6, oversampling=2.0)
        sys = random_neutral_system(16, [5.0, 5.5, 6.0], seed=13)
        out = CoulombSolver(sys.cell, params).evaluate(sys)
        rep = fd_pressure_check(sys, self.make_energy_of_cell(sys, params),
                                out.pressure, coupling="anisotropic",
                                tolerance=1e-5)
        assert rep.passed, rep

    def test_flexible_triclinic_far_field(self):
        # Sheared-cell derivative of the far-field mode sum against the
        # analytic far-field pressure.
        kern = kernel_for(1e-6, 1.3)
        sys = triclinic_system(12, 14, skew=0.05)
        _, _, p_far = direct_ksum(sys, kern)
        frac = sys.cell.fractional(sys.positions)

        def energy_of_cell(h):
            probe = ParticleSystem(cell=Cell(h=h), positions=frac @ h.T,
                                   charges=sys.charges)
            return direct_ksum(probe, kern)[0]

        rep = fd_pressure_check(sys, energy_of_cell, p_far,
                                coupling="flexible", tolerance=1e-5)
        assert rep.passed, rep

    def test_unknown_coupling(self):
        sys = random_neutral_system(4, [5.0, 5.0, 5.0], seed=15)
        with pytest.raises(OracleError):
            fd_pressure_check(sys, lambda h: 0.0, np.zeros((3, 3)),
                              coupling="conformal")


class TestVirialAudit:
    @staticmethod
    def split_terms(sys, delta, r_c, oversampling=2.0):
        """Near/far pressure tensors and energies from the pipeline pieces."""
        from prolate_ewald.kernel import SplitKernel, self_energy
        from prolate_ewald.mesh import (TransformProvider, forward_density,
                                        long_range_energy,
                                        long_range_pressure, plan_grid)
        from prolate_ewald.realspace import short_range
        from prolate_ewald.system import build_cell_list

        kern = kernel_for(delta, r_c)
        spec = plan_grid(sys.cell, kern, window_for(delta),
                         oversampling=oversampling)
        sr = short_range(sys, kern, build_cell_list(sys, r_c))
        rho = forward_density(sys, spec, TransformProvider())
        u_far = long_range_energy(rho, kern, spec, sys.cell)
        p_far = long_range_pressure(rho, kern, spec, sys.cell)
        u_self = self_energy(kern, sys.charges)
        return sr.pressure, p_far, sr.energy, u_far, u_self

    def test_zero_charges(self):
        sys = random_neutral_system(8, [6.0, 6.0, 6.0], seed=16)
        rep = virial_audit(sys, np.zeros((3, 3)), np.zeros((3, 3)),
                           0.0, 0.0, 0.0, delta=1e-6)
        assert rep.passed

    def test_pair(self):
        # The identity has an O(Delta) residual from the inhomogeneous tail
        # of the far field beyond r_c; a cutoff at 0.4 L keeps its prefactor
        # comfortably inside the audit tolerance.
        sys = random_neutral_system(2, [6.0, 6.0, 6.0], seed=17)
        p_n, p_f, u_n, u_f, u_s = self.split_terms(sys, 1e-6, 2.4)
        rep = virial_audit(sys, p_n, p_f, u_n, u_f, u_s, delta=1e-6)
        assert rep.passed, rep

    def test_random_population(self):
        for delta, seed in [(1e-3, 18), (1e-4, 19), (1e-5, 20), (1e-6, 21)]:
            sys = random_neutral_system(128, [6.0, 6.0, 6.0], seed=seed)
            p_n, p_f, u_n, u_f, u_s = self.split_terms(sys, delta, 2.4)
            rep = virial_audit(sys, p_n, p_f, u_n, u_f, u_s, delta=delta)
            assert rep.passed, rep

    def test_broken_virial_fails(self):
        sys = random_neutral_system(2, [6.0, 6.0, 6.0], seed=22)
        rep = virial_audit(sys, np.eye(3), np.zeros((3, 3)),
                           1.0, 0.0, 0.0, delta=1e-6)
        assert not rep.passed

"""Evaluation paths: the mesh solver and the exact reference path."""

import numpy as np
import pytest

from prolate_ewald import (Cell, CoulombSolver, EwaldParameters,
                           ParticleSystem, evaluate_exact)
from prolate_ewald import evaluate
from prolate_ewald.evaluate import ParameterError
from prolate_ewald.system import build_cell_list

from conftest import random_neutral_system


def triclinic_system():
    rng = np.random.default_rng(21)
    h = np.diag([6.0, 6.2, 6.4])
    h[0, 1], h[0, 2], h[1, 2] = 0.3, 0.2, -0.25
    q = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
    q[0] += 0.5                          # non-neutral: background terms on
    return ParticleSystem(cell=Cell(h=h),
                          positions=rng.uniform(0, 1, (16, 3)) @ h.T,
                          charges=q)


class TestCellCheck:
    def test_rescaled_cell_rejected(self):
        sys = random_neutral_system(16, (6.0, 6.0, 6.0), seed=1)
        solver = CoulombSolver(sys.cell, EwaldParameters(r_c=2.0,
                                                         delta_split=1e-4))
        moved = Cell(h=sys.cell.h * (1.0 + 5e-6))
        probe = ParticleSystem(cell=moved, positions=sys.positions,
                               charges=sys.charges)
        with pytest.raises(ParameterError, match="rebind_cell"):
            solver.evaluate(probe)
        solver.rebind_cell(moved)
        assert np.isfinite(solver.evaluate(probe).energy)

    def test_equal_cell_accepted(self):
        sys = random_neutral_system(16, (6.0, 6.0, 6.0), seed=1)
        solver = CoulombSolver(Cell.orthorhombic((6.0, 6.0, 6.0)),
                               EwaldParameters(r_c=2.0, delta_split=1e-4))
        assert np.isfinite(solver.evaluate(sys).energy)


class TestNeighborCutoff:
    def system_and_solver(self):
        rng = np.random.default_rng(5)
        sys = ParticleSystem(cell=Cell.orthorhombic((8.0,) * 3),
                             positions=rng.uniform(0.0, 8.0, (200, 3)),
                             charges=rng.permutation(np.repeat([1.0, -1.0], 100)))
        return sys, CoulombSolver(sys.cell, EwaldParameters(r_c=2.0,
                                                            delta_split=1e-4))

    def test_short_list_rejected(self):
        # A list built at 1.0 would drop most pairs within r_c = 2.0.
        sys, solver = self.system_and_solver()
        with pytest.raises(ParameterError, match="r_c=1.0"):
            solver.evaluate(sys, neighbors=build_cell_list(sys, 1.0))

    def test_longer_list_masked_to_cutoff(self):
        # Pairs listed beyond r_c are dropped: a list with a skin, or built
        # at a larger cutoff, gives the numbers of the default list.
        sys, solver = self.system_and_solver()
        want = solver.evaluate(sys)
        for nl in (build_cell_list(sys, 2.0, skin=0.5),
                   build_cell_list(sys, 3.0)):
            got = solver.evaluate(sys, neighbors=nl)
            assert got.pair_count == want.pair_count
            assert got.energy == pytest.approx(want.energy, rel=1e-12)
            np.testing.assert_allclose(got.forces, want.forces, rtol=0,
                                       atol=1e-12)


class TestRebind:
    def test_window_built_once(self, monkeypatch):
        calls = []
        tabulate = evaluate.tabulate_window
        monkeypatch.setattr(evaluate, "tabulate_window",
                            lambda *a: calls.append(a) or tabulate(*a))
        solver = CoulombSolver(Cell.orthorhombic((6.0, 6.0, 6.0)),
                               EwaldParameters(r_c=2.0, delta_split=1e-4))
        window, M0 = solver.window, solver.spec.M
        for scale in (1.01, 0.9, 1.2):
            solver.rebind_cell(Cell.orthorhombic((6.0 * scale,) * 3))
            assert solver.spec.window is window
        assert solver.spec.M != M0
        assert len(calls) == 1


class TestExactPath:
    def test_mesh_agrees_with_exact(self):
        sys = random_neutral_system(32, (6.0, 6.2, 6.4), seed=4)
        q = sys.charges.copy()
        q[0] += 0.7
        sys = ParticleSystem(cell=sys.cell, positions=sys.positions,
                             charges=q)
        params = EwaldParameters(r_c=2.5, delta_split=1e-6, oversampling=2.0,
                                 prefactor=1.7)
        mesh = CoulombSolver(sys.cell, params).evaluate(sys)
        exact = evaluate_exact(sys, params)
        assert exact.u_self == mesh.u_self
        assert exact.u_background == mesh.u_background != 0.0
        assert exact.energy == pytest.approx(mesh.energy, rel=1e-6)
        np.testing.assert_allclose(exact.forces, mesh.forces,
                                   atol=1e-5 * np.abs(exact.forces).max())
        np.testing.assert_allclose(exact.pressure, mesh.pressure,
                                   atol=1e-5 * np.abs(exact.pressure).max())

    def test_odd_grid_agrees_with_exact(self):
        # An odd M_3 has no Nyquist plane in the half spectrum; pinned by
        # rebind_cell, it meets the tolerances of test_mesh_agrees_with_exact
        # on the same system.
        sys = random_neutral_system(32, (6.0, 6.2, 6.4), seed=4)
        q = sys.charges.copy()
        q[0] += 0.7
        sys = ParticleSystem(cell=sys.cell, positions=sys.positions,
                             charges=q)
        params = EwaldParameters(r_c=2.5, delta_split=1e-6, oversampling=2.0,
                                 prefactor=1.7)
        solver = CoulombSolver(sys.cell, params)
        M = solver.spec.M
        solver.rebind_cell(sys.cell, fixed_M=(M[0], M[1], M[2] + 1))
        assert solver.spec.M[2] % 2 == 1
        mesh = solver.evaluate(sys)
        exact = evaluate_exact(sys, params)
        assert exact.energy == pytest.approx(mesh.energy, rel=1e-6)
        np.testing.assert_allclose(exact.forces, mesh.forces,
                                   atol=1e-5 * np.abs(exact.forces).max())
        np.testing.assert_allclose(exact.pressure, mesh.pressure,
                                   atol=1e-5 * np.abs(exact.pressure).max())

    @pytest.mark.parametrize("force_mode", ["ik", "analytic"])
    def test_triclinic_mesh_agrees_with_exact(self, force_mode):
        # The tolerances of test_mesh_agrees_with_exact, with two measured
        # exceptions.  E of these 16 ions cancels to 0.11 |U_self|, so the
        # energy error is scaled by |U_self| (1.3e-7 here, and in the
        # orthorhombic cell of the same fractional positions).  Analytic
        # differentiation gathers the window gradient, whose aliasing puts
        # its forces 1.5e-5 of max|F| off here (1.4e-5 orthorhombic, 4e-5
        # on the system of test_mesh_agrees_with_exact), against 2e-7 for ik.
        sys = triclinic_system()
        params = EwaldParameters(r_c=2.5, delta_split=1e-6, oversampling=2.0,
                                 prefactor=1.7, force_mode=force_mode)
        mesh = CoulombSolver(sys.cell, params).evaluate(sys)
        exact = evaluate_exact(sys, params)
        assert exact.u_self == mesh.u_self
        assert exact.u_background == mesh.u_background != 0.0
        assert abs(exact.energy - mesh.energy) <= 1e-6 * abs(exact.u_self)
        force_tol = 1e-5 if force_mode == "ik" else 1e-4
        np.testing.assert_allclose(exact.forces, mesh.forces,
                                   atol=force_tol * np.abs(exact.forces).max())
        np.testing.assert_allclose(exact.pressure, mesh.pressure,
                                   atol=1e-5 * np.abs(exact.pressure).max())

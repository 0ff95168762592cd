"""Toy NPT integrator: config, softcore, barostat, conservation laws."""

import numpy as np
import pytest

from prolate_ewald.evaluate import CoulombSolver, EwaldParameters
from prolate_ewald.npt import (NptConfig, NptState, SimulationError,
                               ThermoRecord, barostat_step, integrate,
                               kinetic_temperature, maxwell_boltzmann_momenta,
                               softcore_interactions)
from prolate_ewald.system import Cell, ParticleSystem, minimum_image


def toy_system(n=32, L=8.0, seed=0, spacing=1.0):
    """Neutral alternating charges on a jittered lattice, unit masses."""
    rng = np.random.default_rng(seed)
    per_side = int(np.ceil(n ** (1 / 3)))
    grid = np.stack(np.meshgrid(*[np.arange(per_side)] * 3,
                                indexing="ij"), axis=-1).reshape(-1, 3)[:n]
    pos = (grid + 0.5) * (L / per_side)
    pos += 0.05 * spacing * rng.standard_normal((n, 3))
    q = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    q = q - q.mean()
    cell = Cell.orthorhombic([L, L, L])
    return ParticleSystem(cell=cell, positions=pos, charges=q,
                          masses=np.ones(n), momenta=np.zeros((n, 3)))


def toy_config(**overrides):
    base = dict(dt=1e-3, n_steps=20, target_T=0.5,
                ewald=EwaldParameters(r_c=1.5, delta_split=1e-4),
                record_every=1, thermostat_period=0)
    base.update(overrides)
    return NptConfig(**base)


class TestConfig:
    def test_validation(self):
        for bad in (dict(dt=0.0), dict(dt=-1e-3), dict(tau_P=0.0),
                    dict(beta_T=-0.1), dict(n_steps=-1)):
            with pytest.raises(SimulationError):
                toy_config(**bad)

    def test_zero_steps_initial_record_only(self):
        stats = integrate(toy_config(n_steps=0), toy_system())
        assert len(stats.records) == 1
        assert stats.records[0].step == 0
        assert stats.records[0].volume == pytest.approx(8.0 ** 3)


class TestSoftcore:
    def pair(self, d, L=10.0):
        cell = Cell.orthorhombic([L, L, L])
        pos = np.array([[2.0, 2.0, 2.0], [2.0 + d, 2.0, 2.0]])
        return ParticleSystem(cell=cell, positions=pos,
                              charges=np.zeros(2), masses=np.ones(2))

    def test_pair_energy_and_shift(self):
        d, c, A = 0.8, 1.5, 2.0
        e, f, p = softcore_interactions(self.pair(d), A, c)
        assert e == pytest.approx(A / d**12 - A / c**12, rel=1e-12)
        # Exactly at the cutoff the shifted potential vanishes.
        e_c, _, _ = softcore_interactions(self.pair(c * (1 - 1e-12)), A, c)
        assert abs(e_c) < 1e-10

    def test_repulsive_force(self):
        d, c, A = 0.8, 1.5, 2.0
        _, f, _ = softcore_interactions(self.pair(d), A, c)
        assert f[0, 0] == pytest.approx(-12.0 * A / d**13, rel=1e-12)
        np.testing.assert_allclose(f[0], -f[1], atol=1e-15)

    def test_beyond_cutoff(self):
        e, f, p = softcore_interactions(self.pair(3.0), 1.0, 1.5)
        assert e == 0.0
        assert np.all(f == 0.0) and np.all(p == 0.0)

    def test_force_is_energy_gradient(self):
        d, c, A = 0.9, 1.5, 2.0
        _, f, _ = softcore_interactions(self.pair(d), A, c)
        step = 1e-7
        num = (softcore_interactions(self.pair(d + step), A, c)[0]
               - softcore_interactions(self.pair(d - step), A, c)[0]) / (2 * step)
        assert f[1, 0] == pytest.approx(-num, rel=1e-6)

    def test_positive_pressure(self):
        sys = toy_system(n=27, L=4.0, seed=1)
        _, _, p = softcore_interactions(sys, 1.0, 1.4)
        assert np.trace(p) > 0.0

    def test_many_particles_match_all_pairs(self):
        # Each particle has several neighbours, so forces accumulate over
        # repeated indices; the reference adds them one pair at a time.
        A, c = 1.5, 1.6
        sys = toy_system(n=216, L=7.5, seed=2)
        e, f, p = softcore_interactions(sys, A, c)
        e_ref, f_ref, virial = 0.0, np.zeros((sys.n, 3)), np.zeros((3, 3))
        for a in range(sys.n - 1):
            for b in range(a + 1, sys.n):
                dr = minimum_image(sys.cell, sys.positions[a] - sys.positions[b])
                r2 = float(dr @ dr)
                if r2 > c * c:
                    continue
                e_ref += A / r2**6 - A / c**12
                pair = 12.0 * A / r2**7 * dr
                f_ref[a] += pair
                f_ref[b] -= pair
                virial += np.outer(dr, pair)
        scale = np.abs(f_ref).max()
        assert e == pytest.approx(e_ref, rel=1e-12)
        np.testing.assert_allclose(f, f_ref, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(p, virial / sys.cell.volume, rtol=1e-12)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-12 * scale)


class TestMomenta:
    def test_center_of_mass_at_rest(self):
        rng = np.random.default_rng(3)
        masses = rng.uniform(0.5, 2.0, 64)
        p = maxwell_boltzmann_momenta(masses, 0.7, rng)
        np.testing.assert_allclose(p.sum(axis=0), 0.0, atol=1e-13)

    def test_temperature_scale(self):
        rng = np.random.default_rng(4)
        masses = np.ones(4000)
        p = maxwell_boltzmann_momenta(masses, 0.7, rng)
        sys = ParticleSystem(cell=Cell.orthorhombic([50.0] * 3),
                             positions=rng.uniform(0, 50, (4000, 3)),
                             charges=np.zeros(4000), masses=masses, momenta=p)
        assert kinetic_temperature(sys) == pytest.approx(0.7, rel=0.05)


class TestBarostatStep:
    def make_state(self, cfg):
        sys = toy_system(n=16, L=8.0, seed=5)
        solver = CoulombSolver(sys.cell, cfg.ewald)
        return NptState(system=sys, solver=solver,
                        log_volume_reference=float(np.log(sys.cell.volume)))

    def test_equilibrium_leaves_volume(self):
        cfg = toy_config(barostat=True, barostat_noise=False, target_P0=0.3)
        state = self.make_state(cfg)
        v0 = state.system.cell.volume
        state = barostat_step(state, cfg, cfg.target_P0,
                              np.random.default_rng(0))
        assert state.system.cell.volume == pytest.approx(v0, rel=1e-15)

    def test_compression_direction(self):
        # P_ins above target expands the box, below target compresses it.
        cfg = toy_config(barostat=True, barostat_noise=False, target_P0=0.0)
        state = self.make_state(cfg)
        v0 = state.system.cell.volume
        state = barostat_step(state, cfg, 1.0, np.random.default_rng(0))
        assert state.system.cell.volume > v0
        state2 = self.make_state(cfg)
        state2 = barostat_step(state2, cfg, -1.0, np.random.default_rng(0))
        assert state2.system.cell.volume < v0

    def test_fractional_coordinates_fixed(self):
        cfg = toy_config(barostat=True, barostat_noise=False)
        state = self.make_state(cfg)
        frac0 = state.system.cell.fractional(state.system.positions)
        state = barostat_step(state, cfg, 5.0, np.random.default_rng(0))
        frac1 = state.system.cell.fractional(state.system.positions)
        np.testing.assert_allclose(frac1, frac0, atol=1e-13)

    def test_volume_floor(self):
        cfg = toy_config(barostat=True, barostat_noise=False, beta_T=1.0,
                         tau_P=1e-3, dt=1.0)
        state = self.make_state(cfg)
        with pytest.raises(SimulationError, match="volume"):
            barostat_step(state, cfg, -1e9, np.random.default_rng(0))

    def test_small_moves_keep_grid_pinned(self):
        cfg = toy_config(barostat=True, barostat_noise=False)
        state = self.make_state(cfg)
        M0 = state.solver.spec.M
        state = barostat_step(state, cfg, cfg.target_P0 + 1e-4,
                              np.random.default_rng(0))
        assert state.solver.spec.M == M0


class TestIntegrate:
    def test_seed_reproducibility(self):
        cfg = toy_config(n_steps=15, barostat=True, thermostat_period=5,
                         seed=42)
        sys = toy_system(seed=7)
        a = integrate(cfg, sys)
        b = integrate(cfg, sys)
        assert a.mean_pressure == b.mean_pressure
        assert a.mean_volume == b.mean_volume
        for ra, rb in zip(a.records, b.records):
            assert ra.volume == rb.volume
            np.testing.assert_array_equal(ra.pressure, rb.pressure)

    def test_different_seeds_differ(self):
        sys = toy_system(seed=7)
        a = integrate(toy_config(n_steps=10, barostat=True, seed=1), sys)
        b = integrate(toy_config(n_steps=10, barostat=True, seed=2), sys)
        assert a.records[-1].volume != b.records[-1].volume

    def test_frozen_barostat_conserves_volume(self):
        cfg = toy_config(n_steps=10, barostat=True, barostat_noise=False,
                         beta_T=0.0)
        stats = integrate(cfg, toy_system(seed=8))
        vols = [r.volume for r in stats.records]
        assert max(vols) == min(vols)

    def test_thermostat_holds_temperature(self):
        cfg = toy_config(n_steps=10, thermostat_period=1, target_T=0.8)
        stats = integrate(cfg, toy_system(seed=9))
        for rec in stats.records[1:]:
            assert rec.temperature == pytest.approx(0.8, rel=1e-10)

    def test_momentum_conservation_ik(self):
        # Verlet changes total momentum by dt * sum(F) per step, so the
        # per-step drift bound reduces to a net-force bound on the combined
        # Coulomb + softcore force field.
        from prolate_ewald.npt import _evaluate_all
        cfg = toy_config(ewald=EwaldParameters(r_c=1.5, delta_split=1e-4,
                                               force_mode="ik"))
        sys = toy_system(seed=10)
        solver = CoulombSolver(sys.cell, cfg.ewald)
        state = NptState(system=sys, solver=solver)
        _, _, forces, _ = _evaluate_all(state, cfg)
        scale = np.linalg.norm(forces, axis=1).max()
        assert np.linalg.norm(forces.sum(axis=0)) <= 1e-10 * scale

    def test_force_ceiling_trips(self):
        cell = Cell.orthorhombic([8.0, 8.0, 8.0])
        pos = np.array([[4.0, 4.0, 4.0], [4.02, 4.0, 4.0]])
        sys = ParticleSystem(cell=cell, positions=pos,
                             charges=np.array([1.0, -1.0]),
                             masses=np.ones(2), momenta=np.zeros((2, 3)))
        cfg = toy_config(n_steps=5, force_ceiling=1.0)
        with pytest.raises(SimulationError, match="force"):
            integrate(cfg, sys)

    def test_nve_short_drift(self):
        # Symplectic Verlet with analytic (energy-conserving) forces: the
        # total energy oscillates but does not drift.
        cfg = toy_config(
            dt=5e-4, n_steps=200, target_T=0.3, target_P0=0.0,
            ewald=EwaldParameters(r_c=1.6, delta_split=1e-5,
                                  oversampling=2.0, force_mode="analytic"))
        stats = integrate(cfg, toy_system(n=16, L=8.0, seed=11))
        # target_P0 = 0 makes the recorded enthalpy the total energy.
        e = np.array([r.enthalpy for r in stats.records])
        assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-4

    def test_replan_fallback_counted(self):
        # M = kmax L / pi to roundoff leaves the plan no spare resolution,
        # so the first expansion breaks Nyquist on the pinned grid;
        # replan_fraction 1.0 rules out a drift replan.
        cfg = toy_config(n_steps=3, barostat=True, barostat_noise=False,
                         target_P0=-100.0, replan_fraction=1.0)
        kmax = CoulombSolver(Cell.orthorhombic([8.0] * 3), cfg.ewald).kern.kmax
        L = 12 * np.pi / kmax * (1 - 1e-13)
        stats = integrate(cfg, toy_system(n=8, L=L, seed=3))
        assert stats.records[-1].volume > stats.records[0].volume
        assert stats.replan_fallbacks >= 1
        assert stats.full_replans >= stats.replan_fallbacks

    def test_statistics_shape(self):
        cfg = toy_config(n_steps=30, thermostat_period=5, barostat=True,
                         target_P0=0.1)
        stats = integrate(cfg, toy_system(seed=12))
        assert stats.n_samples > 0
        assert stats.stderr_pressure >= 0.0
        assert stats.mean_volume > 0.0
        assert isinstance(stats.records[0], ThermoRecord)

"""Toy NPT integrator: config, softcore, barostat, conservation laws."""

import numpy as np
import pytest

from prolate_ewald import npt, realspace
from prolate_ewald.evaluate import CoulombSolver, EwaldParameters
from prolate_ewald.npt import (NptConfig, NptState, SimulationError,
                               ThermoRecord, barostat_step, integrate,
                               kinetic_temperature, maxwell_boltzmann_momenta,
                               softcore_pairs)
from prolate_ewald.system import (Cell, ParticleSystem, build_cell_list,
                                  minimum_image)

from conftest import pair_set


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


def softcore(sys, coeff, cutoff, neighbors=None):
    """(energy, forces, pressure) of the soft core alone, in one pair pass."""
    if neighbors is None:
        neighbors = build_cell_list(sys, cutoff)
    sc = realspace.pair_sums(sys, neighbors, cutoff,
                             [softcore_pairs(coeff, cutoff)])
    return sc.energy, sc.forces, sc.pressure


class TestConfig:
    def test_validation(self):
        for bad in (dict(dt=0.0), dict(dt=-1e-3), dict(tau_P=0.0),
                    dict(beta_T=-0.1), dict(n_steps=-1), dict(record_every=0),
                    dict(record_every=-5), dict(thermostat_period=-1),
                    dict(burn_in_fraction=1.5), dict(burn_in_fraction=1.0),
                    dict(burn_in_fraction=-0.1), dict(target_T=-0.5)):
            with pytest.raises(SimulationError):
                toy_config(**bad)

    @pytest.mark.parametrize("name", ["dt", "tau_P", "beta_T", "target_T",
                                      "target_P0", "softcore_coeff"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(SimulationError, match=f"^{name}="):
            toy_config(**{name: value})

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
        e, f, p = softcore(self.pair(d), A, c)
        assert e == pytest.approx(A / d**12 - A / c**12, rel=1e-12)
        # Exactly at the cutoff the shifted potential vanishes.
        e_c, _, _ = softcore(self.pair(c * (1 - 1e-12)), A, c)
        assert abs(e_c) < 1e-10

    def test_repulsive_force(self):
        d, c, A = 0.8, 1.5, 2.0
        _, f, _ = softcore(self.pair(d), A, c)
        assert f[0, 0] == pytest.approx(-12.0 * A / d**13, rel=1e-12)
        np.testing.assert_allclose(f[0], -f[1], atol=1e-15)

    def test_beyond_cutoff(self):
        e, f, p = softcore(self.pair(3.0), 1.0, 1.5)
        assert e == 0.0
        assert np.all(f == 0.0) and np.all(p == 0.0)
        # A list with a skin holds the pair at 1.8 > 1.5, which is dropped.
        far = self.pair(1.8)
        e, f, p = softcore(far, 1.0, 1.5, build_cell_list(far, 1.5, 0.5))
        assert e == 0.0 and np.all(f == 0.0) and np.all(p == 0.0)

    def test_force_is_energy_gradient(self):
        d, c, A = 0.9, 1.5, 2.0
        _, f, _ = softcore(self.pair(d), A, c)
        step = 1e-7
        num = (softcore(self.pair(d + step), A, c)[0]
               - softcore(self.pair(d - step), A, c)[0]) / (2 * step)
        assert f[1, 0] == pytest.approx(-num, rel=1e-6)

    def test_positive_pressure(self):
        sys = toy_system(n=27, L=4.0, seed=1)
        _, _, p = softcore(sys, 1.0, 1.4)
        assert np.trace(p) > 0.0

    def test_many_particles_match_all_pairs(self):
        # Each particle has several neighbours, so forces accumulate over
        # repeated indices; the reference adds them one pair at a time.
        A, c = 1.5, 1.6
        sys = toy_system(n=216, L=7.5, seed=2)
        e, f, p = softcore(sys, A, c)
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
        assert kinetic_temperature(sys.momenta, sys.masses) == pytest.approx(
            0.7, rel=0.05)


class TestBarostatStep:
    # target_T = 0 zeroes the noise amplitude sqrt(2 T beta_T / (V tau_P)),
    # which makes a barostat step deterministic.
    def make_state(self, cfg):
        sys = toy_system(n=16, L=8.0, seed=5)
        solver = CoulombSolver(sys.cell, cfg.ewald)
        return NptState(system=sys, solver=solver)

    def test_equilibrium_leaves_volume(self):
        cfg = toy_config(barostat=True, target_T=0.0, target_P0=0.3)
        state = self.make_state(cfg)
        v0 = state.system.cell.volume
        state = barostat_step(state, cfg, cfg.target_P0,
                              np.random.default_rng(0))
        assert state.system.cell.volume == pytest.approx(v0, rel=1e-15)

    def test_compression_direction(self):
        # P_ins above target expands the box, below target compresses it.
        cfg = toy_config(barostat=True, target_T=0.0, target_P0=0.0)
        state = self.make_state(cfg)
        v0 = state.system.cell.volume
        state = barostat_step(state, cfg, 1.0, np.random.default_rng(0))
        assert state.system.cell.volume > v0
        state2 = self.make_state(cfg)
        state2 = barostat_step(state2, cfg, -1.0, np.random.default_rng(0))
        assert state2.system.cell.volume < v0

    def test_fractional_coordinates_fixed(self):
        cfg = toy_config(barostat=True, target_T=0.0)
        state = self.make_state(cfg)
        frac0 = state.system.cell.fractional(state.system.positions)
        state = barostat_step(state, cfg, 5.0, np.random.default_rng(0))
        frac1 = state.system.cell.fractional(state.system.positions)
        np.testing.assert_allclose(frac1, frac0, atol=1e-13)

    def test_volume_floor(self):
        cfg = toy_config(barostat=True, target_T=0.0, beta_T=1.0,
                         tau_P=1e-3, dt=1.0)
        state = self.make_state(cfg)
        with pytest.raises(SimulationError, match="volume"):
            barostat_step(state, cfg, -1e9, np.random.default_rng(0))

    def test_small_moves_keep_grid_pinned(self):
        cfg = toy_config(barostat=True, target_T=0.0)
        state = self.make_state(cfg)
        M0 = state.solver.spec.M
        state = barostat_step(state, cfg, cfg.target_P0 + 1e-4,
                              np.random.default_rng(0))
        assert state.solver.spec.M == M0

    def test_rebind_matches_fresh_solver(self):
        # The plan is a function of the cell: after every barostat step the
        # solver holds what a new solver on that cell would, bit for bit.
        # The start cell sits just above a grid boundary (M 12 -> 14), so
        # the compressing steps cross it.
        cfg = toy_config(barostat=True, target_P0=100.0, beta_T=0.5)
        kmax = CoulombSolver(Cell.orthorhombic([8.0] * 3), cfg.ewald).kern.kmax
        sys = toy_system(n=8, L=12 * np.pi / kmax * (1 + 1e-4), seed=3)
        state = NptState(system=sys, solver=CoulombSolver(sys.cell, cfg.ewald))
        rng = np.random.default_rng(1)
        grids = {state.solver.spec.M}
        for _ in range(6):
            state = barostat_step(state, cfg, 0.0, rng)
            s, solver = state.system, state.solver
            fresh = CoulombSolver(s.cell, cfg.ewald)
            assert solver.spec.M == fresh.spec.M
            assert solver.spec.spacing == fresh.spec.spacing
            a, b = solver.evaluate(s), fresh.evaluate(s)
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.forces, b.forces)
            np.testing.assert_array_equal(a.pressure, b.pressure)
            grids.add(solver.spec.M)
        assert len(grids) == 2
        assert state.grid_changes == 1


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
        cfg = toy_config(n_steps=10, barostat=True, beta_T=0.0)
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

    def test_one_particle_rejected(self):
        # 3N - 3 degrees of freedom leave no temperature for N = 1.
        cell = Cell.orthorhombic([6.0, 6.0, 6.0])
        sys = ParticleSystem(cell=cell, positions=[[2.0, 3.0, 3.0]],
                             charges=[1.0])
        with pytest.raises(SimulationError, match="at least 2 particles"):
            integrate(toy_config(n_steps=2), sys)

    @pytest.mark.parametrize("barostat", [False, True])
    def test_one_particle_system_per_step(self, monkeypatch, barostat):
        built = []
        inner = ParticleSystem.__post_init__

        def counted(self):
            built.append(1)
            inner(self)

        sys = toy_system(seed=7)
        cfg = toy_config(n_steps=12, barostat=barostat, thermostat_period=5,
                         record_every=5)
        monkeypatch.setattr(ParticleSystem, "__post_init__", counted)
        stats = integrate(cfg, sys)
        assert len(stats.records) == 4
        assert len(built) <= cfg.n_steps + 1

    def test_force_ceiling_trips(self):
        # The pair 0.02 apart feels about 1.5e23 from the soft core, far
        # above npt.FORCE_CEILING.
        cell = Cell.orthorhombic([8.0, 8.0, 8.0])
        pos = np.array([[4.0, 4.0, 4.0], [4.02, 4.0, 4.0]])
        sys = ParticleSystem(cell=cell, positions=pos,
                             charges=np.array([1.0, -1.0]),
                             masses=np.ones(2), momenta=np.zeros((2, 3)))
        cfg = toy_config(n_steps=5)
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

    @pytest.mark.parametrize("target_P0, margin", [(-100.0, -1e-13),
                                                   (100.0, 1e-13)],
                             ids=["expand", "compress"])
    def test_grid_change_counted(self, target_P0, margin):
        # M = kmax L / pi to roundoff puts the cell on a grid boundary
        # (M 12 below it, 14 above), so the first step that expands
        # (target_P0 -100) raises M, and the first that compresses lowers it.
        cfg = toy_config(n_steps=3, barostat=True, target_T=0.0,
                         target_P0=target_P0)
        kmax = CoulombSolver(Cell.orthorhombic([8.0] * 3), cfg.ewald).kern.kmax
        sys = toy_system(n=8, L=12 * np.pi / kmax * (1 + margin), seed=3)
        solver = CoulombSolver(sys.cell, cfg.ewald)
        M0 = solver.spec.M
        stats = integrate(cfg, sys, solver=solver)
        grew = stats.records[-1].volume > stats.records[0].volume
        assert grew == (target_P0 < 0)
        assert solver.spec.M == tuple(m + (2 if grew else -2) for m in M0)
        assert stats.grid_changes >= 1

    def test_statistics_shape(self):
        cfg = toy_config(n_steps=30, thermostat_period=5, barostat=True,
                         target_P0=0.1)
        stats = integrate(cfg, toy_system(seed=12))
        assert stats.n_samples > 0
        assert stats.stderr_pressure >= 0.0
        assert stats.mean_volume > 0.0
        assert isinstance(stats.records[0], ThermoRecord)


class TestVerletList:
    def watch(self, monkeypatch):
        """Wrap npt._neighbors: record the pairs the list in use misses."""
        seen = {"calls": 0, "missing": 0}
        inner = npt._neighbors

        def checked(state, reach):
            nl = inner(state, reach)
            fresh = build_cell_list(state.system, reach)
            seen["missing"] += len(pair_set(fresh) - pair_set(nl))
            seen["calls"] += 1
            return nl

        monkeypatch.setattr(npt, "_neighbors", checked)
        return seen

    def test_reused_list_holds_every_pair_in_reach(self, monkeypatch):
        seen = self.watch(monkeypatch)
        cfg = toy_config(dt=2e-3, n_steps=300, target_T=0.5, target_P0=1.1,
                         tau_P=0.5, beta_T=0.2, thermostat_period=10,
                         barostat=True, seed=5,
                         ewald=EwaldParameters(r_c=2.2, delta_split=1e-4))
        stats = integrate(cfg, toy_system(n=216, L=7.5, seed=7, spacing=2.0))
        volumes = [r.volume for r in stats.records]
        # The run must both expand and compress the box.
        assert max(volumes) > volumes[0] > min(volumes)
        assert seen["calls"] == cfg.n_steps + 1
        assert seen["missing"] == 0
        assert 1 <= stats.neighbor_rebuilds <= cfg.n_steps + 1
        assert stats.neighbor_rebuilds < cfg.n_steps // 2

    def test_cell_too_narrow_for_skin_rebuilds_every_step(self, monkeypatch):
        # 0.49 L < r_c < 0.5 L: the cutoff fits the cell but no skin does.
        seen = self.watch(monkeypatch)
        cfg = toy_config(n_steps=5, ewald=EwaldParameters(r_c=1.5,
                                                          delta_split=1e-4))
        stats = integrate(cfg, toy_system(n=8, L=3.03, seed=4))
        assert stats.neighbor_rebuilds == cfg.n_steps + 1
        assert seen["missing"] == 0

    def test_rescale_alone_triggers_rebuild(self):
        # With the particles fixed in fractional coordinates only the
        # barostat's rescale moves pairs: compressing by more than
        # reach / (reach + skin) can bring a pair from outside the list
        # into reach, so the list must be rebuilt there.
        base = toy_system(n=216, L=7.5, seed=7, spacing=2.0)
        state = NptState(system=base, solver=None)
        reach = 2.2
        npt._neighbors(state, reach)
        for f in np.arange(0.99, 0.845, -0.01):
            state.system = ParticleSystem(cell=Cell(h=f * base.cell.h),
                                          positions=f * base.positions,
                                          charges=base.charges)
            nl = npt._neighbors(state, reach)
            fresh = build_cell_list(state.system, reach)
            missing = pair_set(fresh) - pair_set(nl)
            assert not missing, (f, missing)
        # 0.99 to 0.85 crosses reach / (reach + skin) = 1 / 1.1 once.
        assert state.neighbor_rebuilds == 2


class TestFusedPairPass:
    @staticmethod
    def sheared(sys, shear):
        h = sys.cell.h.copy()
        h[0, 1], h[1, 2] = shear * h[0, 0], -0.5 * shear * h[1, 1]
        return ParticleSystem(cell=Cell(h=h), positions=sys.positions,
                              charges=sys.charges, masses=sys.masses,
                              momenta=sys.momenta)

    @pytest.mark.parametrize("shear", [0.0, 0.25])
    @pytest.mark.parametrize("prefactor", [1.0, 1.7, 0.0])
    def test_matches_passes_run_apart(self, shear, prefactor):
        # The NPT step sums the soft core inside the Coulomb near-field pass
        # over its Verlet list (built with a skin, so it holds pairs beyond
        # r_c); run apart over a list without a skin, short_range (inside
        # evaluate) and a soft-core-only pair_sums give the same sums up to
        # the order of summation.  The prefactor scales the Coulomb terms only.
        sys = self.sheared(toy_system(n=64, L=5.0, seed=12), shear)
        cfg = toy_config(softcore_coeff=0.7, ewald=EwaldParameters(
            r_c=1.5, delta_split=1e-4, prefactor=prefactor))
        solver = CoulombSolver(sys.cell, cfg.ewald)
        state = NptState(system=sys, solver=solver)
        u_coul, u_sc, forces, p_pot = npt._evaluate_all(state, cfg)
        assert state.neighbors.skin > 0.0
        assert sys.cell.is_orthorhombic == (shear == 0.0)

        bare = build_cell_list(sys, cfg.ewald.r_c)
        assert bare.n_pairs < state.neighbors.n_pairs
        coul = solver.evaluate(sys, neighbors=bare)
        e_sc, f_sc, p_sc = softcore(sys, cfg.softcore_coeff, cfg.ewald.r_c,
                                    neighbors=bare)
        assert e_sc > 0.0 and np.all(np.isfinite(f_sc))
        for got, want in ((u_coul, coul.energy), (u_sc, e_sc),
                          (forces, coul.forces + f_sc),
                          (p_pot, coul.pressure + p_sc)):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if prefactor == 0.0:
            assert u_coul == 0.0
            np.testing.assert_allclose(forces, f_sc, rtol=1e-12,
                                       atol=1e-12 * np.abs(f_sc).max())

    def test_one_pair_pass_per_step(self, monkeypatch):
        # One pair_sums call takes both terms, and its one chunk of pairs
        # accumulates the forces once: one bincount per axis for each end
        # of a pair, not one set per term.
        calls, bincounts = [], []
        inner, bincount = realspace.pair_sums, np.bincount

        def counted(sys, neighbors, cutoff, terms):
            calls.append(len(terms))
            return inner(sys, neighbors, cutoff, terms)

        def counted_bincount(*args, **kwargs):
            bincounts.append(1)
            return bincount(*args, **kwargs)

        sys = toy_system(n=64, L=5.0, seed=12)
        cfg = toy_config()
        state = NptState(system=sys, solver=CoulombSolver(sys.cell, cfg.ewald))
        monkeypatch.setattr(realspace, "pair_sums", counted)
        monkeypatch.setattr(realspace.np, "bincount", counted_bincount)
        npt._evaluate_all(state, cfg)
        assert 0 < state.neighbors.n_pairs <= realspace.chunk_length(sys.n)
        assert calls == [2]
        assert len(bincounts) == 6

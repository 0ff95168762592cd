"""The three workloads: inputs from a seed, the operation, and its checks.

Every call into the library goes through a module attribute looked up at
call time (``pe.build_cell_list``, ``pe.integrate``) or through a method,
so the tracer's wrappers see the benchmark's own calls as well as the
library's internal ones.
"""

from __future__ import annotations

import numpy as np

import prolate_ewald as pe
import reference

SAMPLE = 64          # particles whose tensors are checked
FORCE_SAMPLE = 512   # particles whose forces are checked
DENSITY = 4.0
# Mesh results are checked against 2 delta_split: across 12-16 seeds the
# measured errors reached 0.45-0.86 delta (README.md), so delta itself leaves
# no margin for an unseen seed, while a 2.5x loss of accuracy still fails.
MESH_MARGIN = 2.0


def fixed_sample(n, size=SAMPLE):
    return np.linspace(0, n - 1, size).astype(int)


def check(name, value, bound):
    """One correctness check: passes when ``value`` <= ``bound``."""
    value = float(value)
    return {"name": name, "value": value, "bound": float(bound),
            "ok": bool(np.isfinite(value) and value <= bound)}


class Workload:
    """A cubic cell of side ``length``, a solver for it, and seeded inputs.

    ``steps`` is the number of operations in one ``op`` call, and
    ``fresh_solver`` says whether each call gets a newly built solver
    (built outside the timed region).
    """

    steps = 1
    fresh_solver = False
    params: dict

    def __init__(self):
        self.cell = pe.Cell.orthorhombic((self.length,) * 3)
        self.solver = self.new_solver()

    def new_solver(self):
        return pe.CoulombSolver(self.cell, pe.EwaldParameters(**self.params))


class RandomIons(Workload):
    """n ions of charge +-1 (half each, shuffled) uniform in a cube at DENSITY."""

    n: int

    @property
    def length(self):
        return (self.n / DENSITY) ** (1.0 / 3.0)

    def prepare(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, self.length, (self.n, 3))
        charges = rng.permutation(np.repeat([1.0, -1.0], self.n // 2))
        self.system = pe.ParticleSystem(cell=self.cell, positions=positions,
                                        charges=charges)


class Bulk(RandomIons):
    """Fresh neighbor list plus energy, ik forces, and pressure at 16k ions."""

    name = "bulk16k"
    n = 16000
    params = dict(r_c=2.0, delta_split=1e-4, force_mode="ik")
    ewald_r_cut = 3.0

    def op(self):
        neighbors = pe.build_cell_list(self.system, self.params["r_c"])
        return self.solver.evaluate(self.system, neighbors=neighbors)

    @staticmethod
    def same(a, b):
        return (a.energy == b.energy and np.array_equal(a.forces, b.forces)
                and np.array_equal(a.pressure, b.pressure))

    def checks(self, out):
        s = self.system
        delta = self.params["delta_split"]
        sample = fixed_sample(s.n, FORCE_SAMPLE)
        e_ref, _, f_ref = reference.ewald(s.positions, s.charges, np.diag(s.cell.h),
                                          self.ewald_r_cut, sample)
        # The energy of random ions cancels (one seed gives E = +204 against
        # |U_self| = 1.1e4), so its error is scaled by the self energy, the
        # size of the far-field energy that the split hands to the mesh.
        scale = abs(reference.prolate_self_energy(self.solver.kern.basis,
                                                  self.params["r_c"], s.charges))
        net = np.linalg.norm(out.forces.sum(axis=0))
        # Pair forces cancel pairwise and ik forces conserve momentum, so the
        # net force is a sum of roundoff: N terms of size |F| * eps each.
        roundoff = 64.0 * np.finfo(float).eps * np.abs(out.forces).sum()
        return [
            check("energy vs Ewald (relative to |U_self|)", abs(out.energy - e_ref) / scale,
                  delta),
            check("sampled forces vs Ewald (relative)",
                  reference.relative_deviation(out.forces[sample], f_ref),
                  MESH_MARGIN * delta),
            check("net force (absolute)", net, roundoff),
        ]


class Stress(RandomIons):
    """Per-particle far-field pressure tensors at 8k ions (mesh work only)."""

    name = "stress8k"
    n = 8000
    params = dict(r_c=2.0, delta_split=1e-6, oversampling=2.0)
    global_tolerance = 1e-8

    def op(self):
        return self.solver.local_pressure(self.system)

    @staticmethod
    def same(a, b):
        return np.array_equal(a, b)

    def checks(self, out):
        s, solver = self.system, self.solver
        delta = self.params["delta_split"]
        sample = fixed_sample(s.n)
        local_ref, global_ref = reference.prolate_local_stress(
            s.positions, s.charges, np.diag(s.cell.h), solver.kern.basis,
            self.params["r_c"], sample)
        rho = pe.forward_density(s, solver.spec, solver.provider)
        global_mesh = pe.long_range_pressure(rho, solver.kern, solver.spec, s.cell,
                                             modes=solver.modes)
        total = out.sum(axis=0)
        return [
            check("sampled tensors vs exact mode sum (relative)",
                  reference.relative_deviation(out[sample], local_ref), MESH_MARGIN * delta),
            check("summed tensors vs exact mode sum (relative)",
                  reference.relative_deviation(total, global_ref), MESH_MARGIN * delta),
            check("summed tensors vs long_range_pressure (relative)",
                  reference.relative_deviation(total, global_mesh),
                  self.global_tolerance),
        ]


class Npt(Workload):
    """Steps of the 216-ion rock-salt melt under thermostat and barostat."""

    name = "npt216"
    fresh_solver = True
    length = 7.5
    steps = 100          # steps per block; op_s is a block's time / steps
    params = dict(r_c=2.2, delta_split=1e-4, oversampling=1.0, force_mode="ik")
    ewald_r_cut = 3.6

    def prepare(self, seed):
        rng = np.random.default_rng(seed)
        side = 6
        axis = (np.arange(side) + 0.5) * (self.length / side)
        pos = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
        charges = np.where(np.indices((side,) * 3).sum(axis=0).ravel() % 2 == 0, 1.0, -1.0)
        pos = pos + 0.1 * rng.standard_normal(pos.shape)
        masses = np.ones(len(charges))
        self.config = pe.NptConfig(
            dt=2e-3, n_steps=self.steps, target_T=0.5, target_P0=1.1, tau_P=0.5,
            beta_T=0.2, thermostat_period=10, barostat=True, seed=seed,
            record_every=10, ewald=pe.EwaldParameters(**self.params))
        momenta = np.sqrt(self.config.target_T * masses)[:, None] * rng.standard_normal(pos.shape)
        momenta -= momenta.mean(axis=0)
        self.system = pe.ParticleSystem(cell=self.cell, positions=pos, charges=charges,
                                        masses=masses, momenta=momenta)

    def op(self):
        """One block from the same start; the caller supplies a fresh solver."""
        return pe.integrate(self.config, self.system, solver=self.solver,
                            initialize_momenta=False)

    @staticmethod
    def same(a, b):
        fields = ("step", "temperature", "volume", "u_coulomb", "u_softcore", "kinetic",
                  "enthalpy")
        return len(a.records) == len(b.records) and all(
            all(getattr(ra, f) == getattr(rb, f) for f in fields)
            and np.array_equal(ra.pressure, rb.pressure)
            for ra, rb in zip(a.records, b.records))

    def checks(self, out):
        s, cfg = self.system, self.config
        delta = self.params["delta_split"]
        lengths = np.diag(s.cell.h)
        volume = float(np.prod(lengths))
        e_ref, p_ref, _ = reference.ewald(s.positions, s.charges, lengths,
                                          self.ewald_r_cut, np.empty(0, int))
        u_sc, p_sc = reference.softcore(s.positions, lengths, cfg.softcore_coeff,
                                        self.params["r_c"])
        kinetic = 0.5 * float(np.sum(s.momenta**2 / s.masses[:, None]))
        p_kin = (s.momenta / s.masses[:, None]).T @ s.momenta / volume
        temperature = 2.0 * kinetic / (3 * s.n - 3)
        first = out.records[0]
        # Sums of a few hundred terms in another order: roundoff well below 1e-12.
        exact = 1e-12
        thermostat = [r for r in out.records[1:] if r.step % cfg.thermostat_period == 0]
        finite = all(np.isfinite([r.volume, r.u_coulomb, r.u_softcore, r.kinetic,
                                  r.enthalpy]).all() for r in out.records)
        return [
            check("step 0 Coulomb energy vs Ewald (relative)",
                  abs(first.u_coulomb - e_ref) / abs(e_ref), delta),
            check("step 0 Coulomb pressure vs Ewald (relative)",
                  reference.relative_deviation(first.pressure - p_kin - p_sc, p_ref),
                  MESH_MARGIN * delta),
            check("step 0 soft-core energy (relative)",
                  abs(first.u_softcore - u_sc) / abs(u_sc), exact),
            check("step 0 kinetic energy (relative)",
                  abs(first.kinetic - kinetic) / kinetic, exact),
            check("step 0 temperature (relative)",
                  abs(first.temperature - temperature) / temperature, exact),
            check("step 0 volume (relative)", abs(first.volume - volume) / volume, exact),
            check("thermostat records at target T (max relative)",
                  max(abs(r.temperature - cfg.target_T) / cfg.target_T for r in thermostat),
                  exact),
            check("records finite (0 = all finite)", 0.0 if finite else 1.0, 0.0),
        ]


WORKLOADS = {w.name: w for w in (Bulk, Stress, Npt)}

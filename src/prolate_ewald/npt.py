"""Desk-scale NPT dynamics for a toy charged system.

Velocity Verlet with soft-core r^-12 repulsion plus periodic Coulomb
forces, a periodic velocity-rescaling thermostat, and an isotropic
stochastic cell-rescaling barostat acting on the log volume.  The barostat
rescales the cell and positions affinely (fixed fractional coordinates)
and leaves momenta untouched.  Every rescale re-plans the mesh for the new
cell; the steps where that changes the grid counts are counted.

The soft core shares the cutoff r_c and rides along the Coulomb
near-field pass: one pass per step over one Verlet neighbor list (Verlet,
Phys. Rev. 1967) built at r_c plus a skin derived from the cell, with one
accumulation of the forces and the virial for both terms.  The list is
reused from step to step, across barostat rescales too, for as long as no
pair outside it can have come within the cutoff, and rebuilt otherwise.

Each step does its work once.  integrate keeps the momenta in an array of
its own, which the kicks, the thermostat, the barostat and the records
read and write, and builds one ParticleSystem per step, from the drifted
positions after the barostat has rescaled them; a rebind of the solver to
the rescaled cell keeps the mode index tables while the retained modes
stay the same (mesh.ModeWorkspace).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .evaluate import CoulombSolver, EwaldParameters, kinetic_pressure
from .system import (Cell, NeighborList, ParticleSystem, build_cell_list,
                     check_cutoff, minimum_image)

# The barostat stops a run whose volume falls below this, and integrate a
# run whose largest force component exceeds FORCE_CEILING (reduced units).
VOLUME_FLOOR = 1e-6
FORCE_CEILING = 1e8


class SimulationError(Exception):
    pass


@dataclass(frozen=True)
class NptConfig:
    dt: float
    n_steps: int
    target_T: float
    target_P0: float = 0.0
    tau_P: float = 10.0
    beta_T: float = 0.05
    thermostat_period: int = 0        # 0 disables velocity rescaling
    barostat: bool = False
    seed: int = 0
    ewald: EwaldParameters = field(default_factory=lambda: EwaldParameters(r_c=1.0))
    softcore_coeff: float = 1.0
    record_every: int = 10
    burn_in_fraction: float = 0.2

    def __post_init__(self):
        finite = np.isfinite
        for name, need, ok in (
                ("dt", "finite and > 0", finite(self.dt) and self.dt > 0),
                ("n_steps", ">= 0", self.n_steps >= 0),
                ("target_T", "finite and >= 0",
                 finite(self.target_T) and self.target_T >= 0),
                ("target_P0", "finite", finite(self.target_P0)),
                ("tau_P", "finite and > 0",
                 finite(self.tau_P) and self.tau_P > 0),
                ("beta_T", "finite and >= 0",
                 finite(self.beta_T) and self.beta_T >= 0),
                ("thermostat_period", ">= 0", self.thermostat_period >= 0),
                ("softcore_coeff", "finite", finite(self.softcore_coeff)),
                ("record_every", ">= 1", self.record_every >= 1),
                ("burn_in_fraction", "in [0, 1)",
                 0.0 <= self.burn_in_fraction < 1.0)):
            if not ok:
                raise SimulationError(f"{name}={getattr(self, name)!r} must be {need}")


@dataclass
class ThermoRecord:
    step: int
    temperature: float
    pressure: np.ndarray         # full 3x3 instantaneous tensor
    volume: float
    u_coulomb: float
    u_softcore: float
    kinetic: float
    enthalpy: float              # E + P0 V

    @property
    def pressure_scalar(self) -> float:
        return float(np.trace(self.pressure)) / 3.0


@dataclass
class NptState:
    """What a step changes besides the momenta.

    ``system`` holds the positions and the cell of the last force
    evaluation; integrate keeps the momenta in an array of its own, so the
    momenta of ``system`` are not those of the step.
    """

    system: ParticleSystem
    solver: CoulombSolver
    grid_changes: int = 0        # barostat steps that changed the grid counts
    neighbors: NeighborList | None = None     # the Verlet list in use
    neighbor_origin: ParticleSystem | None = None  # configuration it was built from
    neighbor_rebuilds: int = 0


def softcore_pairs(coeff: float, cutoff: float):
    """Pair term (realspace.pair_sums) of A/r^12, shifted to zero at the cutoff."""
    shift = coeff / cutoff**12

    def term(i, j, r2):
        inv12 = coeff / r2**6
        return inv12 - shift, 12.0 * inv12 / r2
    return term


def maxwell_boltzmann_momenta(masses: np.ndarray, target_T: float,
                              rng: np.random.Generator) -> np.ndarray:
    """Thermal momenta with the center-of-mass drift removed (k_B = 1)."""
    sigma = np.sqrt(target_T * masses)[:, None]
    p = sigma * rng.standard_normal((masses.size, 3))
    p -= masses[:, None] * (p.sum(axis=0) / masses.sum())
    return p


def kinetic_energy(momenta: np.ndarray, masses: np.ndarray) -> float:
    """sum_i p_i^2 / 2 m_i."""
    return 0.5 * float(np.sum(momenta**2 / masses[:, None]))


def kinetic_temperature(momenta: np.ndarray, masses: np.ndarray) -> float:
    """2 KE / (k_B dof) with k_B = 1 and the center of mass removed, which
    leaves 3N - 3 degrees of freedom: N >= 2 (integrate checks it)."""
    return 2.0 * kinetic_energy(momenta, masses) / (3 * len(masses) - 3)


def _neighbors(state: NptState, reach: float) -> NeighborList:
    """A list holding every pair of the current configuration within ``reach``.

    Positions are mapped back to the build cell, which removes the
    barostat's affine rescale.  A pair outside the list was farther than
    reach + skin at the build; with every particle moved by at most d_max
    since, and sigma the smallest singular value of h h_b^-1, it is now
    farther than sigma (reach + skin - 2 d_max).  The list is kept while
    that is at least ``reach`` and rebuilt otherwise, on every step when the
    cell leaves no room for a skin.
    """
    sys = state.system
    check_cutoff(sys.cell, reach)
    nl, origin = state.neighbors, state.neighbor_origin
    if nl is not None and nl.skin > 0.0:
        mapped = origin.cell.cartesian(sys.cell.fractional(sys.positions))
        moved = minimum_image(origin.cell, mapped - origin.positions)
        d_max = np.sqrt(np.max(np.einsum("ij,ij->i", moved, moved)))
        sigma = np.linalg.svd(sys.cell.h @ origin.cell.inverse,
                              compute_uv=False)[-1]
        if sigma * (reach + nl.skin - 2.0 * d_max) >= reach:
            return nl
    width = np.min(sys.cell.perpendicular_widths())
    skin = max(min(0.1 * reach, 0.49 * width - reach), 0.0)
    state.neighbors = build_cell_list(sys, reach, skin)
    state.neighbor_origin = sys
    state.neighbor_rebuilds += 1
    return state.neighbors


def _evaluate_all(state: NptState, cfg: NptConfig):
    sys = state.system
    coul = state.solver.evaluate(
        sys, neighbors=_neighbors(state, cfg.ewald.r_c),
        extra=softcore_pairs(cfg.softcore_coeff, cfg.ewald.r_c))
    return coul.energy, coul.extra, coul.forces, coul.pressure


def barostat_step(state: NptState, cfg: NptConfig, p_ins_scalar: float,
                  rng: np.random.Generator,
                  positions: np.ndarray | None = None) -> NptState:
    """Euler-Maruyama step of the stochastic cell-rescaling SDE.

    d(eps) = -(beta_T/tau_P)(P0 - P_ins) dt + sqrt(2 T beta_T/(V tau_P)) dW
    followed by V <- V e^{eps} with an affine rescale of ``positions``
    (those of the state's system when None) into the new system of the
    state.  The noise vanishes at target_T = 0 and is not drawn at
    beta_T = 0.
    """
    sys = state.system
    V = sys.cell.volume
    drift = -(cfg.beta_T / cfg.tau_P) * (cfg.target_P0 - p_ins_scalar) * cfg.dt
    noise = 0.0
    if cfg.beta_T > 0:
        amp = np.sqrt(2.0 * cfg.target_T * cfg.beta_T / (V * cfg.tau_P))
        noise = amp * np.sqrt(cfg.dt) * rng.standard_normal()
    deps = drift + noise

    new_volume = V * np.exp(deps)
    if new_volume < VOLUME_FLOOR:
        raise SimulationError(f"volume collapsed below floor: {new_volume:.3e}")
    scale = np.exp(deps / 3.0)
    new_cell = Cell(h=scale * sys.cell.h)
    if positions is None:
        positions = sys.positions
    state.system = replace(sys, cell=new_cell, positions=scale * positions)
    grid = state.solver.spec.M
    state.solver.rebind_cell(new_cell)
    state.grid_changes += int(state.solver.spec.M != grid)
    return state


@dataclass
class TrajectoryStatistics:
    records: list
    mean_pressure: float
    stderr_pressure: float
    mean_volume: float
    stderr_volume: float
    mean_temperature: float
    n_samples: int
    grid_changes: int
    neighbor_rebuilds: int


def _mean_stderr(values: np.ndarray):
    """Mean and standard error of the means of up to 20 blocks (samples
    are autocorrelated)."""
    m = float(np.mean(values))
    if values.size < 4:
        return m, 0.0
    nb = min(20, values.size // 2)
    blocks = np.array_split(values, nb)
    means = np.array([b.mean() for b in blocks])
    return m, float(np.std(means, ddof=1) / np.sqrt(nb))


def integrate(cfg: NptConfig, sys: ParticleSystem,
              solver: CoulombSolver | None = None,
              initialize_momenta: bool = True) -> TrajectoryStatistics:
    """Velocity Verlet with optional thermostat and barostat.

    Same seed, same thread count, same inputs: bitwise-identical trajectory
    (all randomness flows through one PCG64 generator).  The temperature
    counts 3N - 3 degrees of freedom, so fewer than 2 particles raise
    SimulationError.
    """
    if sys.n < 2:
        raise SimulationError(f"integrate needs at least 2 particles "
                              f"(3N - 3 degrees of freedom), got {sys.n}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    masses = sys.masses
    if initialize_momenta:
        p = maxwell_boltzmann_momenta(masses, cfg.target_T, rng)
    else:
        p = sys.momenta.copy()
    solver = solver or CoulombSolver(sys.cell, cfg.ewald)
    state = NptState(system=sys, solver=solver)

    u_coul, u_sc, forces, p_pot = _evaluate_all(state, cfg)
    records = []

    def record(step):
        V = state.system.cell.volume
        ke = kinetic_energy(p, masses)
        e_tot = u_coul + u_sc + ke
        records.append(ThermoRecord(
            step=step, temperature=kinetic_temperature(p, masses),
            pressure=p_pot + kinetic_pressure(p, masses, V), volume=V,
            u_coulomb=u_coul, u_softcore=u_sc, kinetic=ke,
            enthalpy=e_tot + cfg.target_P0 * V))

    record(0)
    for step in range(1, cfg.n_steps + 1):
        s = state.system
        if np.max(np.abs(forces)) > FORCE_CEILING:
            raise SimulationError(f"force blowup at step {step}")
        p += 0.5 * cfg.dt * forces
        positions = s.positions + cfg.dt * p / masses[:, None]

        if cfg.barostat:
            # The barostat consumes the most recent pressure evaluation;
            # rescaling before the force computation keeps the cost at one
            # evaluation per step.
            p_ins = p_pot + kinetic_pressure(p, masses, s.cell.volume)
            state = barostat_step(state, cfg, float(np.trace(p_ins)) / 3.0, rng,
                                  positions=positions)
        else:
            state.system = replace(s, positions=positions)

        u_coul, u_sc, forces, p_pot = _evaluate_all(state, cfg)
        p += 0.5 * cfg.dt * forces

        if cfg.thermostat_period and step % cfg.thermostat_period == 0:
            t_now = kinetic_temperature(p, masses)
            if t_now > 0:
                p *= np.sqrt(cfg.target_T / t_now)

        if step % cfg.record_every == 0 or step == cfg.n_steps:
            record(step)

    burn = int(np.floor(cfg.burn_in_fraction * len(records)))
    kept = records[burn:] if len(records) > burn else records[-1:]
    p_scalar = np.array([r.pressure_scalar for r in kept])
    vols = np.array([r.volume for r in kept])
    temps = np.array([r.temperature for r in kept])
    mp, sp = _mean_stderr(p_scalar)
    mv, sv = _mean_stderr(vols)
    mt, _ = _mean_stderr(temps)
    return TrajectoryStatistics(records=records, mean_pressure=mp,
                                stderr_pressure=sp, mean_volume=mv,
                                stderr_volume=sv, mean_temperature=mt,
                                n_samples=len(kept),
                                grid_changes=state.grid_changes,
                                neighbor_rebuilds=state.neighbor_rebuilds)

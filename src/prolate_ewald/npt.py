"""Desk-scale NPT dynamics for a toy charged system.

Velocity Verlet with soft-core r^-12 repulsion plus periodic Coulomb
forces, a periodic velocity-rescaling thermostat, and an isotropic
stochastic cell-rescaling barostat acting on the log volume.  The barostat
rescales the cell and positions affinely (fixed fractional coordinates)
and leaves momenta untouched; the mesh is re-planned once the accumulated
volume change exceeds a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evaluate import CoulombSolver, EwaldParameters, kinetic_pressure
from .mesh import PlanningError
from .realspace import _add_pair_forces
from .system import Cell, ParticleSystem, build_cell_list, minimum_image

KB_DEFAULT = 1.0


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
    barostat_noise: bool = True
    seed: int = 0
    kB: float = KB_DEFAULT
    ewald: EwaldParameters = field(default_factory=lambda: EwaldParameters(r_c=1.0))
    softcore_coeff: float = 1.0
    softcore_cutoff: float | None = None   # defaults to the Coulomb cutoff
    volume_floor: float = 1e-6
    replan_fraction: float = 0.02
    force_ceiling: float = 1e8
    record_every: int = 10
    burn_in_fraction: float = 0.2

    def __post_init__(self):
        if self.dt <= 0:
            raise SimulationError("dt must be positive")
        if self.tau_P <= 0:
            raise SimulationError("tau_P must be positive")
        if self.beta_T < 0:
            raise SimulationError("beta_T must be nonnegative")
        if self.n_steps < 0:
            raise SimulationError("n_steps must be nonnegative")


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
    system: ParticleSystem
    solver: CoulombSolver
    log_volume_reference: float = 0.0
    full_replans: int = 0        # barostat rebinds that re-planned grid counts
    replan_fallbacks: int = 0    # of those, taken after the pinned grid failed


def softcore_interactions(sys: ParticleSystem, coeff: float, cutoff: float,
                          neighbors=None):
    """Purely repulsive A/r^12, shifted to zero at the cutoff.

    Returns (energy, forces, potential pressure tensor).
    """
    if neighbors is None:
        neighbors = build_cell_list(sys, cutoff)
    n = sys.n
    if neighbors.i.size == 0:
        return 0.0, np.zeros((n, 3)), np.zeros((3, 3))
    dr = minimum_image(sys.cell,
                       sys.positions[neighbors.i] - sys.positions[neighbors.j])
    r2 = np.einsum("ij,ij->i", dr, dr)
    keep = r2 <= cutoff * cutoff
    dr, r2 = dr[keep], r2[keep]
    ii, jj = neighbors.i[keep], neighbors.j[keep]
    inv12 = coeff / r2**6
    shift = coeff / cutoff**12
    energy = float(np.sum(inv12 - shift))
    fmag = 12.0 * inv12 / r2
    forces = np.zeros((n, 3))
    _add_pair_forces(forces, ii, jj, fmag, dr)
    pressure = (dr.T * fmag) @ dr / sys.cell.volume
    return energy, forces, 0.5 * (pressure + pressure.T)


def maxwell_boltzmann_momenta(masses: np.ndarray, target_T: float,
                              rng: np.random.Generator,
                              kB: float = KB_DEFAULT) -> np.ndarray:
    """Thermal momenta with the center-of-mass drift removed."""
    sigma = np.sqrt(kB * target_T * masses)[:, None]
    p = sigma * rng.standard_normal((masses.size, 3))
    p -= masses[:, None] * (p.sum(axis=0) / masses.sum())
    return p


def kinetic_temperature(sys: ParticleSystem, kB: float = KB_DEFAULT) -> float:
    ke = 0.5 * float(np.sum(sys.momenta**2 / sys.masses[:, None]))
    dof = 3 * sys.n - 3
    return 2.0 * ke / (dof * kB)


def _evaluate_all(state: NptState, cfg: NptConfig):
    sys = state.system
    cutoff = cfg.softcore_cutoff or cfg.ewald.r_c
    neighbors = build_cell_list(sys, max(cutoff, cfg.ewald.r_c))
    coul = state.solver.evaluate(sys, neighbors=neighbors)
    u_sc, f_sc, p_sc = softcore_interactions(sys, cfg.softcore_coeff, cutoff,
                                             neighbors=neighbors)
    forces = coul.forces + f_sc
    p_pot = coul.pressure + p_sc
    return coul.energy, u_sc, forces, p_pot


def barostat_step(state: NptState, cfg: NptConfig, p_ins_scalar: float,
                  rng: np.random.Generator) -> NptState:
    """Euler-Maruyama step of the stochastic cell-rescaling SDE.

    d(eps) = -(beta_T/tau_P)(P0 - P_ins) dt + sqrt(2 kB T beta_T/(V tau_P)) dW
    followed by V <- V e^{eps} with an affine position rescale.
    """
    sys = state.system
    V = sys.cell.volume
    drift = -(cfg.beta_T / cfg.tau_P) * (cfg.target_P0 - p_ins_scalar) * cfg.dt
    noise = 0.0
    if cfg.barostat_noise and cfg.beta_T > 0:
        amp = np.sqrt(2.0 * cfg.kB * cfg.target_T * cfg.beta_T / (V * cfg.tau_P))
        noise = amp * np.sqrt(cfg.dt) * rng.standard_normal()
    deps = drift + noise

    new_volume = V * np.exp(deps)
    if new_volume < cfg.volume_floor:
        raise SimulationError(f"volume collapsed below floor: {new_volume:.3e}")
    scale = np.exp(deps / 3.0)
    new_cell = Cell(h=scale * sys.cell.h)
    new_sys = ParticleSystem(cell=new_cell, positions=scale * sys.positions,
                             charges=sys.charges, masses=sys.masses,
                             momenta=sys.momenta)
    state.system = new_sys
    # Grid counts are replanned only after the volume drifts past the
    # threshold; in between the counts stay pinned and only the spacings
    # and mode workspace track the cell.
    drifted = abs(np.log(new_volume) - state.log_volume_reference)
    if drifted <= cfg.replan_fraction:
        try:
            state.solver.rebind_cell(new_cell, fixed_M=state.solver.spec.M)
            return state
        except PlanningError:
            # Expansion can push the pinned grid below the Nyquist bound
            # when the plan started with no spare resolution; fall back to a
            # full replan instead of aborting the trajectory.
            state.replan_fallbacks += 1
    state.solver.rebind_cell(new_cell)
    state.log_volume_reference = float(np.log(new_volume))
    state.full_replans += 1
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
    full_replans: int
    replan_fallbacks: int


def _mean_stderr(values: np.ndarray, n_blocks: int = 20):
    """Mean and block-averaged standard error (samples are autocorrelated)."""
    m = float(np.mean(values))
    if values.size < 4:
        return m, 0.0
    nb = min(n_blocks, values.size // 2)
    blocks = np.array_split(values, nb)
    means = np.array([b.mean() for b in blocks])
    return m, float(np.std(means, ddof=1) / np.sqrt(nb))


def integrate(cfg: NptConfig, sys: ParticleSystem,
              solver: CoulombSolver | None = None,
              initialize_momenta: bool = True) -> TrajectoryStatistics:
    """Velocity Verlet with optional thermostat and barostat.

    Same seed, same thread count, same inputs: bitwise-identical trajectory
    (all randomness flows through one PCG64 generator).
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if initialize_momenta:
        p0 = maxwell_boltzmann_momenta(sys.masses, cfg.target_T, rng, cfg.kB)
        sys = ParticleSystem(cell=sys.cell, positions=sys.positions,
                             charges=sys.charges, masses=sys.masses,
                             momenta=p0)
    solver = solver or CoulombSolver(sys.cell, cfg.ewald)
    state = NptState(system=sys, solver=solver,
                     log_volume_reference=float(np.log(sys.cell.volume)))

    u_coul, u_sc, forces, p_pot = _evaluate_all(state, cfg)
    records = []

    def record(step):
        s = state.system
        p_ins = p_pot + kinetic_pressure(s)
        ke = 0.5 * float(np.sum(s.momenta**2 / s.masses[:, None]))
        V = s.cell.volume
        e_tot = u_coul + u_sc + ke
        records.append(ThermoRecord(
            step=step, temperature=kinetic_temperature(s, cfg.kB),
            pressure=p_ins, volume=V, u_coulomb=u_coul, u_softcore=u_sc,
            kinetic=ke, enthalpy=e_tot + cfg.target_P0 * V))

    record(0)
    for step in range(1, cfg.n_steps + 1):
        s = state.system
        if np.max(np.abs(forces)) > cfg.force_ceiling:
            raise SimulationError(f"force blowup at step {step}")
        p_half = s.momenta + 0.5 * cfg.dt * forces
        new_pos = s.positions + cfg.dt * p_half / s.masses[:, None]
        state.system = ParticleSystem(cell=s.cell, positions=new_pos,
                                      charges=s.charges, masses=s.masses,
                                      momenta=p_half)

        if cfg.barostat:
            # The barostat consumes the most recent pressure evaluation;
            # rescaling before the force computation keeps the cost at one
            # evaluation per step.
            p_ins = p_pot + kinetic_pressure(state.system)
            state = barostat_step(state, cfg, float(np.trace(p_ins)) / 3.0, rng)

        u_coul, u_sc, forces, p_pot = _evaluate_all(state, cfg)
        s = state.system
        state.system = ParticleSystem(
            cell=s.cell, positions=s.positions, charges=s.charges,
            masses=s.masses, momenta=s.momenta + 0.5 * cfg.dt * forces)

        if cfg.thermostat_period and step % cfg.thermostat_period == 0:
            s = state.system
            t_now = kinetic_temperature(s, cfg.kB)
            if t_now > 0:
                lam = np.sqrt(cfg.target_T / t_now)
                state.system = ParticleSystem(
                    cell=s.cell, positions=s.positions, charges=s.charges,
                    masses=s.masses, momenta=lam * s.momenta)

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
                                full_replans=state.full_replans,
                                replan_fallbacks=state.replan_fallbacks)

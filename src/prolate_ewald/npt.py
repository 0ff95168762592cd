"""Desk-scale NPT dynamics for a toy charged system.

Velocity Verlet with soft-core r^-12 repulsion plus periodic Coulomb
forces, a periodic velocity-rescaling thermostat, and an isotropic
stochastic cell-rescaling barostat acting on the log volume (Bernetti &
Bussi, JCP 2020).  barostat_step is the draw alone: it returns the
rescaled cell and the positions rescaled with it (fixed fractional
coordinates), and leaves momenta untouched.

integrate owns the step.  It keeps the momenta in an array of its own,
which the kicks, the thermostat, the barostat and the records read and
write, and builds one ParticleSystem per step, from the drifted positions
after the barostat has rescaled them.  It rebinds the solver to every
rescaled cell, which re-plans the mesh (keeping the mode index tables
while the retained modes stay the same, mesh.ModeWorkspace), and counts
the steps where that changes the grid counts.

The soft core shares the cutoff r_c and rides along the Coulomb
near-field pass: one pass per step over one Verlet neighbor list built at
r_c plus a skin derived from the cell, with one accumulation of the forces
and the virial for both terms.  integrate reuses the list from step to
step, across barostat rescales too, while NeighborList.covers says that it
still holds every pair within r_c, and rebuilds it otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .evaluate import CoulombSolver, EwaldParameters, kinetic_pressure
from .system import Cell, ParticleSystem, build_cell_list

# The barostat stops a run whose volume falls below this, and integrate a
# run whose largest force component exceeds FORCE_CEILING (reduced units).
VOLUME_FLOOR = 1e-6
FORCE_CEILING = 1e8
# The share of the records, from the start, that the statistics leave out.
BURN_IN_FRACTION = 0.2


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
                ("seed", ">= 0", self.seed >= 0),
                ("softcore_coeff", "finite", finite(self.softcore_coeff)),
                ("record_every", ">= 1", self.record_every >= 1)):
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


def barostat_step(cell: Cell, positions: np.ndarray, cfg: NptConfig,
                  p_ins_scalar: float,
                  rng: np.random.Generator) -> tuple[Cell, np.ndarray]:
    """Euler-Maruyama step of the stochastic cell-rescaling SDE.

    d(eps) = -(beta_T/tau_P)(P0 - P_ins) dt + sqrt(2 T beta_T/(V tau_P)) dW
    followed by V <- V e^{eps}: returns the rescaled cell and ``positions``
    rescaled affinely with it.  The noise vanishes at target_T = 0 and is
    not drawn at beta_T = 0.
    """
    V = cell.volume
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
    return Cell(h=scale * cell.h), scale * positions


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
    SimulationError, and so does a ``solver`` built for other parameters
    than cfg.ewald.
    """
    if sys.n < 2:
        raise SimulationError(f"integrate needs at least 2 particles "
                              f"(3N - 3 degrees of freedom), got {sys.n}")
    if solver is None:
        solver = CoulombSolver(sys.cell, cfg.ewald)
    elif solver.params != cfg.ewald:
        raise SimulationError(f"solver parameters {solver.params} differ from "
                              f"cfg.ewald {cfg.ewald}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    masses = sys.masses
    if initialize_momenta:
        p = maxwell_boltzmann_momenta(masses, cfg.target_T, rng)
    else:
        p = sys.momenta.copy()
    r_c = cfg.ewald.r_c
    softcore = softcore_pairs(cfg.softcore_coeff, r_c)
    neighbors, neighbor_rebuilds, grid_changes = None, 0, 0

    def evaluate(sys):
        """Coulomb plus soft core in one pass over the Verlet list, which is
        rebuilt, with a skin that the cell leaves room for, when it no
        longer covers ``sys``."""
        nonlocal neighbors, neighbor_rebuilds
        if neighbors is None or not neighbors.covers(sys):
            width = np.min(sys.cell.perpendicular_widths())
            skin = max(min(0.1 * r_c, 0.49 * width - r_c), 0.0)
            neighbors = build_cell_list(sys, r_c, skin)
            neighbor_rebuilds += 1
        return solver.evaluate(sys, neighbors=neighbors, extra=softcore)

    records = []

    def record(step):
        V = sys.cell.volume
        ke = kinetic_energy(p, masses)
        e_tot = out.energy + out.extra + ke
        records.append(ThermoRecord(
            step=step, temperature=kinetic_temperature(p, masses),
            pressure=out.pressure + kinetic_pressure(p, masses, V), volume=V,
            u_coulomb=out.energy, u_softcore=out.extra, kinetic=ke,
            enthalpy=e_tot + cfg.target_P0 * V))

    out = evaluate(sys)
    record(0)
    for step in range(1, cfg.n_steps + 1):
        if np.max(np.abs(out.forces)) > FORCE_CEILING:
            raise SimulationError(f"force blowup at step {step}")
        p += 0.5 * cfg.dt * out.forces
        positions = sys.positions + cfg.dt * p / masses[:, None]
        cell = sys.cell

        if cfg.barostat:
            # The barostat consumes the most recent pressure evaluation;
            # rescaling before the force computation keeps the cost at one
            # evaluation per step.
            p_ins = out.pressure + kinetic_pressure(p, masses, cell.volume)
            cell, positions = barostat_step(cell, positions, cfg,
                                            float(np.trace(p_ins)) / 3.0, rng)
            grid = solver.spec.M
            solver.rebind_cell(cell)
            grid_changes += int(solver.spec.M != grid)
        sys = replace(sys, cell=cell, positions=positions)

        out = evaluate(sys)
        p += 0.5 * cfg.dt * out.forces

        if cfg.thermostat_period and step % cfg.thermostat_period == 0:
            t_now = kinetic_temperature(p, masses)
            if t_now > 0:
                p *= np.sqrt(cfg.target_T / t_now)

        if step % cfg.record_every == 0 or step == cfg.n_steps:
            record(step)

    burn = int(np.floor(BURN_IN_FRACTION * len(records)))
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
                                n_samples=len(kept), grid_changes=grid_changes,
                                neighbor_rebuilds=neighbor_rebuilds)

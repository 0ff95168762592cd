"""One-stop periodic Coulomb evaluation combining the pipeline stages.

CoulombSolver binds a parameter set to a cell: it builds the splitting
basis, the real-space pair table and the spreading window once, plans the
mesh and the mode workspace for the cell, then evaluates energy, forces,
and pressure tensors for any particle configuration in that cell, triclinic
or orthorhombic.  Rebinding to a rescaled or sheared cell (NPT) re-plans
the mesh, a function of the cell alone, and reuses everything else, since
the cutoff, bandwidth and order do not change.  evaluate_exact, the
reference, replaces the mesh by the exact mode sum and the pair table by
the closed-form near field.  Both paths share one final assembly of the near,
far, self, and background terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import SplitKernel, background_correction, self_energy
from .mesh import (ModeWorkspace, TransformProvider, axis_modes,
                   forward_density, local_pressure, long_range_energy,
                   long_range_forces, long_range_pressure, plan_grid)
from .oracle import direct_ksum
from .pswf import (DELTA_MAX, DELTA_MIN, build_pswf, solve_bandwidth,
                   tabulate_window)
from .realspace import ShortRangeResult, build_pair_table, short_range
from .system import Cell, ParticleSystem, build_cell_list, check_cutoff


class ParameterError(Exception):
    pass


_TOLERANCE = f"in [{DELTA_MIN}, {DELTA_MAX}]"   # the deltas solve_bandwidth accepts


def default_order(delta: float) -> int:
    """Spreading order P: one more than the digits of the tolerance delta."""
    if not DELTA_MIN <= delta <= DELTA_MAX:
        raise ParameterError(f"delta_split={delta!r} must be {_TOLERANCE}")
    return int(np.ceil(-np.log10(delta))) + 1


@dataclass(frozen=True)
class EwaldParameters:
    """User-facing accuracy knobs; out-of-range values raise ParameterError.

    One tolerance, delta_split, sets the splitting bandwidth; the spreading
    window is tabulated from the same basis at order P, which defaults to
    default_order(delta_split).  prefactor scales every electrostatic
    output, so unit systems with q^2/(4 pi eps_0) absorbed into it come
    for free.  force_mode "analytic" is the exact gradient of the mesh
    energy but not delta-accurate: at delta_split 1e-6 and oversampling 2
    its forces are off by 4.0e-5 of max|F|, against 2.7e-7 for "ik".
    """

    r_c: float
    delta_split: float = 1e-6
    P: int | None = None
    oversampling: float = 1.0
    prefactor: float = 1.0
    force_mode: str = "ik"

    def __post_init__(self):
        finite = np.isfinite
        for name, need, ok in (
                ("r_c", "finite and > 0", finite(self.r_c) and self.r_c > 0),
                ("delta_split", _TOLERANCE,
                 DELTA_MIN <= self.delta_split <= DELTA_MAX),
                ("P", ">= 2", self.P is None or self.P >= 2),
                ("oversampling", "finite and >= 1",
                 finite(self.oversampling) and self.oversampling >= 1.0),
                ("prefactor", "finite", finite(self.prefactor)),
                ("force_mode", "'ik' or 'analytic'",
                 self.force_mode in ("ik", "analytic"))):
            if not ok:
                raise ParameterError(f"{name}={getattr(self, name)!r} must be {need}")


@dataclass
class EnergyBreakdown:
    """Electrostatic outputs with per-term energies.

    ``pressure`` is the potential part only; add kinetic_pressure() for the
    instantaneous tensor.  The energy terms include the Coulomb prefactor.
    ``extra`` is the energy of the pair term given to CoulombSolver.evaluate,
    which takes no prefactor; its forces and pressure are in ``forces`` and
    ``pressure``, summed in the same pair pass as the near field's.
    """

    u_near: float
    u_far: float
    u_self: float
    u_background: float
    forces: np.ndarray
    pressure: np.ndarray
    pair_count: int = 0
    extra: float = 0.0

    @property
    def energy(self) -> float:
        return self.u_near + self.u_far + self.u_self + self.u_background


class CoulombSolver:
    def __init__(self, cell: Cell, params: EwaldParameters):
        self.params = params
        P = default_order(params.delta_split) if params.P is None else int(params.P)
        basis = build_pswf(solve_bandwidth(params.delta_split))
        self.kern = SplitKernel(basis=basis, r_c=params.r_c)
        self.window = tabulate_window(basis, P)
        self.provider = TransformProvider()
        self.spec = self.modes = None
        # Plan before tabulating: a cutoff too small to mesh raises
        # PlanningError there rather than failing inside the spline fit.
        self.rebind_cell(cell)
        self.pair_table = build_pair_table(self.kern)

    def rebind_cell(self, cell: Cell, fixed_M: tuple | None = None) -> None:
        """Plan the mesh for a new cell; bases, tables and window persist.

        The plan depends only on the parameters and the cell.  ``fixed_M``
        pins the grid counts (finite-difference checks of the cell
        derivative; the invariants are still verified).  mesh.axis_modes
        is kept while the grid counts are unchanged, and the mode index
        tables while the retained modes are too (mesh.ModeWorkspace).
        """
        check_cutoff(cell, self.params.r_c)
        spec = plan_grid(cell, self.kern, self.window,
                         self.params.oversampling, fixed_M)
        if self.spec is None or spec.M != self.spec.M:
            self.mode_axes = axis_modes(spec)
        self.cell, self.spec = cell, spec
        self.modes = ModeWorkspace(spec, self.kern, cell, self.mode_axes,
                                   previous=self.modes)

    def evaluate(self, sys: ParticleSystem, neighbors=None,
                 extra=None) -> EnergyBreakdown:
        """Energy, forces and pressure; ``extra``, a realspace.pair_sums
        term (npt's soft core), rides along the near-field pass and adds its
        forces and pressure to the Coulomb ones (EnergyBreakdown.extra)."""
        if not np.array_equal(sys.cell.h, self.cell.h):
            raise ParameterError("system cell differs from the solver's cell; "
                                 "call rebind_cell first")
        if neighbors is None:
            neighbors = build_cell_list(sys, self.params.r_c)
        elif neighbors.r_c < self.params.r_c:
            raise ParameterError(f"neighbor list built for r_c={neighbors.r_c} "
                                 f"misses pairs within r_c={self.params.r_c}")
        sr = short_range(sys, self.kern, neighbors, table=self.pair_table,
                         extra=extra, prefactor=self.params.prefactor)

        rho = forward_density(sys, self.spec, self.provider)
        u_far = long_range_energy(rho, self.kern, self.spec, sys.cell,
                                  modes=self.modes)
        f_far = long_range_forces(rho, sys, self.kern, self.spec, sys.cell,
                                  mode=self.params.force_mode,
                                  provider=self.provider, modes=self.modes)
        p_far = long_range_pressure(rho, self.kern, self.spec, sys.cell,
                                    modes=self.modes)
        return _assemble(sys, self.kern, self.params.prefactor, sr,
                         u_far, f_far, p_far)

    def local_pressure(self, sys: ParticleSystem) -> np.ndarray:
        """Per-particle far-field pressure tensors (N x 3 x 3), prefactored."""
        rho = forward_density(sys, self.spec, self.provider)
        tensors = local_pressure(rho, sys, self.kern, self.spec, sys.cell,
                                 provider=self.provider, modes=self.modes)
        return self.params.prefactor * tensors


def _assemble(sys: ParticleSystem, kern: SplitKernel, pref: float,
              sr: ShortRangeResult, u_far: float, f_far: np.ndarray,
              p_far: np.ndarray) -> EnergyBreakdown:
    """Add the self and background terms; apply the Coulomb prefactor to the
    far, self and background terms (the near field, ``sr``, carries it)."""
    u_self = self_energy(kern, sys.charges)
    u_cb, u_bb, p_corr = background_correction(kern, sys.total_charge,
                                               sys.cell.volume)
    # Summed left to right, so that at prefactor 1 the pressure rounds as
    # pref * (near + far + corr) does.
    return EnergyBreakdown(u_near=sr.energy, u_far=pref * u_far,
                           u_self=pref * u_self,
                           u_background=pref * (u_cb + u_bb),
                           forces=sr.forces + pref * f_far,
                           pressure=sr.pressure + pref * p_far + pref * p_corr,
                           pair_count=sr.pair_count,
                           extra=sum(sr.energies[1:], 0.0))


def evaluate_exact(sys: ParticleSystem,
                   params: EwaldParameters) -> EnergyBreakdown:
    """Reference evaluation on any cell: no mesh and no tables.

    The far field is the exact mode sum (``direct_ksum``) and the near field
    the closed-form kernel; ``delta_split``, ``r_c`` and ``prefactor`` are
    used, the mesh knobs are not.  Costs O(N * modes).
    """
    kern = SplitKernel(basis=build_pswf(solve_bandwidth(params.delta_split)),
                       r_c=params.r_c)
    sr = short_range(sys, kern, build_cell_list(sys, params.r_c),
                     prefactor=params.prefactor)
    u_far, f_far, p_far = direct_ksum(sys, kern)
    return _assemble(sys, kern, params.prefactor, sr, u_far, f_far, p_far)


def kinetic_pressure(momenta: np.ndarray, masses: np.ndarray,
                     volume: float) -> np.ndarray:
    """(1/V) sum_i p_i p_i^T / m_i."""
    return np.einsum("ia,ib->ab", momenta / masses[:, None], momenta) / volume

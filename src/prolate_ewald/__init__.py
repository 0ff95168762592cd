"""Spectrally accurate periodic electrostatics via prolate kernel splitting.

Energy, forces, and instantaneous pressure tensors (global and
per-particle) for point charges under periodic boundary conditions, with a
compactly supported near field summed in real space and a band-limited far
field handled on an FFT mesh.  Includes brute-force oracles and a
desk-scale NPT integrator.
"""

from .evaluate import (CoulombSolver, EnergyBreakdown, EwaldParameters,
                       evaluate_exact, kinetic_pressure)
from .kernel import (SplitKernel, background_correction, far_field,
                     fn_weight, near_field, self_energy)
from .mesh import (GridSpec, ModeWorkspace, TransformProvider,
                   forward_density, local_pressure, long_range_energy,
                   long_range_forces, long_range_pressure, plan_grid)
from .npt import (NptConfig, ThermoRecord, TrajectoryStatistics,
                  barostat_step, integrate, maxwell_boltzmann_momenta)
from .oracle import (OracleReport, classical_ewald, direct_ksum,
                     make_report, relative_deviation, virial_audit)
from .pswf import (PswfBasis, WindowTable, build_pswf, eval_phi0,
                   solve_bandwidth, tabulate_window)
from .realspace import PairTable, ShortRangeResult, build_pair_table, short_range
from .system import (Cell, NeighborList, ParticleSystem, build_cell_list,
                     check_cutoff, minimum_image)

__version__ = "0.1.0"

__all__ = [
    "Cell", "CoulombSolver", "EnergyBreakdown", "EwaldParameters",
    "GridSpec", "ModeWorkspace", "NeighborList", "NptConfig", "OracleReport",
    "PairTable", "ParticleSystem", "PswfBasis", "ShortRangeResult",
    "SplitKernel", "ThermoRecord", "TrajectoryStatistics",
    "TransformProvider", "WindowTable", "background_correction",
    "barostat_step", "build_cell_list", "build_pair_table", "build_pswf",
    "check_cutoff", "classical_ewald", "direct_ksum", "eval_phi0",
    "evaluate_exact", "far_field", "fn_weight", "forward_density",
    "integrate", "kinetic_pressure", "local_pressure", "long_range_energy",
    "long_range_forces", "long_range_pressure", "make_report",
    "maxwell_boltzmann_momenta", "minimum_image", "near_field", "plan_grid",
    "relative_deviation", "self_energy", "short_range", "solve_bandwidth",
    "tabulate_window", "virial_audit",
]

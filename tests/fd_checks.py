"""Finite-difference checks of forces and pressure tensors against the energy.

Test tooling: the pressure tensor must be the cell derivative of the
energy, and the forces its position gradient.  Each check differentiates
a caller-supplied energy function numerically and compares it with the
analytic value through oracle.make_report.
"""

from __future__ import annotations

import numpy as np

from prolate_ewald.oracle import OracleError, OracleReport, make_report
from prolate_ewald.system import ParticleSystem


def fd_force_check(sys: ParticleSystem, energy_fn, analytic_forces,
                   step: float | None = None, tolerance: float = 1e-5) -> OracleReport:
    """Central-difference gradient of ``energy_fn`` against analytic forces.

    ``energy_fn`` maps a positions array to a total energy.  Falls back to a
    5-point stencil with step halving when the 3-point form misses tolerance.
    """
    L = np.min(sys.cell.perpendicular_widths())
    step = 1e-6 * L if step is None else step
    base = np.asarray(sys.positions, dtype=float)
    n = base.shape[0]

    def gradient(hstep, five_point):
        g = np.zeros((n, 3))
        for i in range(n):
            for d in range(3):
                delta = np.zeros_like(base)
                delta[i, d] = hstep
                if five_point:
                    g[i, d] = (
                        -energy_fn(base + 2 * delta) + 8 * energy_fn(base + delta)
                        - 8 * energy_fn(base - delta) + energy_fn(base - 2 * delta)
                    ) / (12 * hstep)
                else:
                    g[i, d] = (energy_fn(base + delta)
                               - energy_fn(base - delta)) / (2 * hstep)
        return g

    fd = -gradient(step, five_point=False)
    report = make_report("force vs finite difference", fd, analytic_forces,
                         tolerance)
    attempts = 0
    while not report.passed and attempts < 3:
        fd = -gradient(step, five_point=True)
        report = make_report("force vs finite difference", fd, analytic_forces,
                             tolerance)
        step *= 0.5
        attempts += 1
    return report


def _fd_second_order(fn, x0: float, step: float) -> float:
    return (fn(x0 + step) - fn(x0 - step)) / (2.0 * step)


def fd_pressure_check(sys: ParticleSystem, energy_of_cell, analytic_pressure,
                      coupling: str = "isotropic", step: float = 1e-6,
                      tolerance: float = 1e-5) -> OracleReport:
    """Potential pressure against cell-derivative finite differences.

    ``energy_of_cell(h)`` must return the total potential energy of the
    system with cell matrix ``h`` and fixed fractional coordinates.  The
    kinetic term is excluded from both sides.  An unknown ``coupling``
    raises OracleError.
    """
    h0 = sys.cell.h
    V = sys.cell.volume
    P = np.asarray(analytic_pressure, dtype=float)

    if coupling == "isotropic":
        # P = -dE/dV at fixed fractional coordinates.
        fn = lambda lam: energy_of_cell(h0 * (1.0 + lam) ** (1.0 / 3.0))
        dE_dV = _fd_second_order(fn, 0.0, step) / V
        fd_val = np.array([-dE_dV])
        test_val = np.array([np.trace(P) / 3.0])
        name = "isotropic pressure vs -dE/dV"
    elif coupling == "anisotropic":
        fd_val = np.empty(3)
        for a in range(3):
            def fn(lam, a=a):
                scale = np.ones(3)
                scale[a] = 1.0 + lam
                return energy_of_cell(np.diag(scale) @ h0)
            fd_val[a] = -_fd_second_order(fn, 0.0, step) / V
        test_val = np.diag(P)
        name = "diagonal pressure vs per-axis dE/dL"
    elif coupling == "flexible":
        # P_ab = -(1/V) sum_g dE/dh_ag h_bg.
        dE_dh = np.empty((3, 3))
        for a in range(3):
            for g in range(3):
                def fn(lam, a=a, g=g):
                    h = h0.copy()
                    h[a, g] += lam * np.abs(h0).max()
                    return energy_of_cell(h)
                dE_dh[a, g] = _fd_second_order(fn, 0.0, step) / np.abs(h0).max()
        fd_val = -(dE_dh @ h0.T) / V
        fd_val = 0.5 * (fd_val + fd_val.T)
        test_val = 0.5 * (P + P.T)
        name = "pressure tensor vs cell-matrix derivative"
    else:
        raise OracleError(f"unknown coupling {coupling!r}")

    return make_report(name, fd_val, test_val, tolerance)

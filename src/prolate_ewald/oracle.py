"""Slow, independent reference implementations used to audit the fast paths.

direct_ksum evaluates the far-field sums with exact exponentials on a
general triclinic cell; classical_ewald is a Gaussian-split Ewald sharing
no kernel code with the prolate pipeline; the finite-difference checks and
the virial audit validate forces and pressure tensors against energy
derivatives.  Everything here may be O(N^2) or O(N K^3) by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .kernel import SplitKernel, mode_kernel
from .system import Cell, ParticleSystem, chunk_length, minimum_image

RELATIVE_FLOOR = 1e-300


class OracleError(Exception):
    pass


@dataclass
class OracleReport:
    quantity: str
    oracle_value: np.ndarray
    test_value: np.ndarray
    abs_deviation: float
    rel_deviation: float
    tolerance: float
    passed: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.quantity}: rel={self.rel_deviation:.3e} "
                f"abs={self.abs_deviation:.3e} tol={self.tolerance:.3e}")


def relative_deviation(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    num = np.linalg.norm((a - b).ravel())
    den = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), RELATIVE_FLOOR)
    return float(num / den)


def make_report(quantity, oracle_value, test_value, tolerance) -> OracleReport:
    rel = relative_deviation(oracle_value, test_value)
    ab = float(np.max(np.abs(np.asarray(oracle_value) - np.asarray(test_value))))
    return OracleReport(quantity=quantity, oracle_value=np.asarray(oracle_value),
                        test_value=np.asarray(test_value), abs_deviation=ab,
                        rel_deviation=rel, tolerance=float(tolerance),
                        passed=bool(rel <= tolerance))


def _mode_vectors(cell: Cell, kmax: float) -> np.ndarray:
    """All nonzero reciprocal vectors with |k| <= kmax (triclinic allowed)."""
    h = cell.h
    mmax = np.ceil(kmax * np.linalg.norm(h, axis=0) / (2.0 * np.pi)).astype(int)
    ranges = [np.arange(-m, m + 1) for m in mmax]
    grids = np.meshgrid(*ranges, indexing="ij")
    m = np.stack([g.ravel() for g in grids], axis=1)
    m = m[np.any(m != 0, axis=1)]
    k = m @ cell.reciprocal.T
    keep = np.einsum("ij,ij->i", k, k) <= kmax * kmax
    return k[keep]


def direct_ksum(sys: ParticleSystem, kern: SplitKernel):
    """Far-field energy, forces, and pressure with exact exponentials.

    O(N * modes); no grids, no windows.  The splitting basis is shared with
    the fast path by necessity (it defines the kernel being summed).
    """
    kvecs = _mode_vectors(sys.cell, kern.kmax)
    V = sys.cell.volume
    if kvecs.size == 0:
        return 0.0, np.zeros((sys.n, 3)), np.zeros((3, 3))
    k2 = np.einsum("ij,ij->i", kvecs, kvecs)
    fhat, dterm = mode_kernel(kern, k2)

    # Modes go through in chunks so the (modes x N) arrays stay
    # O(chunk_length(N)) elements.
    amp2 = np.empty(k2.size)
    force_sum = np.zeros((sys.n, 3))
    step = max(1, chunk_length(sys.n) // sys.n)
    for s in range(0, k2.size, step):
        k = kvecs[s:s + step]
        ekr = np.exp(1j * (k @ sys.positions.T))   # (chunk, N)
        rho = (sys.charges[None, :] * ekr).sum(axis=1)
        amp2[s:s + step] = np.abs(rho) ** 2
        # F_i = -(q_i / V) sum_k fhat k Im[exp(-i k r_i) rho(k)]
        im = np.imag(np.conj(ekr) * rho[:, None])
        force_sum += (fhat[s:s + step, None] * im).T @ k
    energy = float(np.sum(fhat * amp2) / (2.0 * V))
    forces = -force_sum * sys.charges[:, None] / V

    w = amp2 / (2.0 * V**2)
    pressure = np.zeros((3, 3))
    kk_scale = (dterm - 2.0 * fhat / k2) * w
    pressure += np.einsum("k,ka,kb->ab", kk_scale, kvecs, kvecs)
    pressure += np.sum(fhat * w) * np.eye(3)
    pressure = 0.5 * (pressure + pressure.T)
    return energy, forces, pressure


def _ewald_parameters(cell: Cell, r_cut: float | None):
    widths = cell.perpendicular_widths()
    if r_cut is None:
        r_cut = 0.45 * float(np.min(widths))
    if r_cut >= 0.5 * np.min(widths):
        raise OracleError("classical Ewald real-space cutoff too large for cell")
    sqrt_alpha = 5.2 / r_cut            # erfc(5.2) ~ 2e-13
    alpha = sqrt_alpha**2
    k_cut = 2.0 * 5.2 * sqrt_alpha      # exp(-(k/2 sqrt(alpha))^2) ~ 2e-13
    return float(alpha), float(r_cut), float(k_cut)


def classical_ewald(sys: ParticleSystem, alpha: float | None = None,
                    r_cut: float | None = None, k_cut: float | None = None,
                    check: bool = False):
    """Gaussian-split Ewald: total energy, forces, pressure tensor.

    Fully independent code path (erfc split, conducting boundary, uniform
    background for non-neutral systems).  ``check=True`` re-runs with an
    enlarged mode set and raises if the result moves by more than 1e-10.
    """
    a_def, r_def, k_def = _ewald_parameters(sys.cell, r_cut)
    alpha = a_def if alpha is None else alpha
    r_cut = r_def if r_cut is None else r_cut
    k_cut = k_def if k_cut is None else k_cut

    out = _classical_ewald_once(sys, alpha, r_cut, k_cut)
    if check:
        ref = _classical_ewald_once(sys, alpha, r_cut, 1.25 * k_cut)
        if relative_deviation(out[0], ref[0]) > 1e-10:
            raise OracleError("classical Ewald mode set not converged")
    return out


def _classical_ewald_once(sys: ParticleSystem, alpha, r_cut, k_cut):
    n = sys.n
    V = sys.cell.volume
    q = sys.charges
    sqrt_a = np.sqrt(alpha)

    # Real-space part over minimum images (r_cut below half-width).
    ii, jj = np.triu_indices(n, k=1)
    dr = minimum_image(sys.cell, sys.positions[ii] - sys.positions[jj])
    r = np.linalg.norm(dr, axis=1)
    keep = r <= r_cut
    ii, jj, dr, r = ii[keep], jj[keep], dr[keep], r[keep]
    qq = q[ii] * q[jj]
    e_real = float(np.sum(qq * erfc(sqrt_a * r) / r))
    fw = qq * (erfc(sqrt_a * r) / r
               + 2.0 * sqrt_a / np.sqrt(np.pi) * np.exp(-alpha * r * r)) / r**2
    forces = np.zeros((n, 3))
    pair_force = fw[:, None] * dr
    np.add.at(forces, ii, pair_force)
    np.add.at(forces, jj, -pair_force)
    pressure = (dr.T * fw) @ dr / V

    # Fourier part.
    kvecs = _mode_vectors(sys.cell, k_cut)
    phase = kvecs @ sys.positions.T
    ekr = np.exp(1j * phase)
    rho = (q[None, :] * ekr).sum(axis=1)
    k2 = np.einsum("ij,ij->i", kvecs, kvecs)
    green = 4.0 * np.pi * np.exp(-k2 / (4.0 * alpha)) / k2
    amp2 = np.abs(rho) ** 2
    e_four = float(np.sum(green * amp2) / (2.0 * V))
    im = np.imag(np.conj(ekr) * rho[:, None])
    forces += -((green[:, None] * im).T @ kvecs) * q[:, None] / V
    wk = amp2 / (2.0 * V**2)
    coef = -2.0 * (1.0 / k2 + 1.0 / (4.0 * alpha)) * green * wk
    pressure += np.einsum("k,ka,kb->ab", coef, kvecs, kvecs)
    pressure += np.sum(green * wk) * np.eye(3)

    # Self-energy and uniform-background correction for non-neutral systems.
    e_self = -sqrt_a / np.sqrt(np.pi) * float(np.sum(q * q))
    q_tot = float(np.sum(q))
    e_bg = -np.pi * q_tot**2 / (2.0 * alpha * V)
    pressure += (e_bg / V) * np.eye(3)

    energy = e_real + e_four + e_self + e_bg
    pressure = 0.5 * (pressure + pressure.T)
    return energy, forces, pressure


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
    kinetic term is excluded from both sides.
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


def virial_audit(sys: ParticleSystem, p_near: np.ndarray, p_far: np.ndarray,
                 u_near: float, u_far: float, u_self: float,
                 delta: float) -> OracleReport:
    """tr[P_N + P_F] V must equal U_N + U_F + U_self for a -1 homogeneous kernel."""
    V = sys.cell.volume
    lhs = float(np.trace(p_near + p_far)) * V
    rhs = u_near + u_far + u_self
    tol_abs = 10.0 * delta * max(abs(rhs), RELATIVE_FLOOR)
    dev = abs(lhs - rhs)
    return OracleReport(quantity="virial identity", oracle_value=np.asarray(rhs),
                        test_value=np.asarray(lhs), abs_deviation=dev,
                        rel_deviation=dev / max(abs(rhs), RELATIVE_FLOOR),
                        tolerance=tol_abs, passed=bool(dev <= tol_abs))

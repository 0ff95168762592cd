"""Prolate splitting of the Coulomb kernel and all derived kernels.

1/r = near_field(r) + far_field(r), where the near field is compactly
supported on (0, r_c] and vanishes at the cutoff, and the far field is
smooth at the origin and band-limited in Fourier space to |k| <= c/r_c.
Also provides the scalar radial force weight, the mode-space kernel shared
by the mesh and the exact mode sum, the self-energy, and uniform-background
corrections for non-neutral systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pswf import DomainError, PswfBasis, eval_phi0


class KernelError(Exception):
    pass


@dataclass(frozen=True)
class SplitKernel:
    """Coulomb splitting at cutoff ``r_c`` using splitting bandwidth ``basis.c``."""

    basis: PswfBasis
    r_c: float
    kmax: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.r_c) and self.r_c > 0.0):
            raise KernelError(f"cutoff r_c={self.r_c!r} must be finite and positive")
        object.__setattr__(self, "kmax", self.basis.c / self.r_c)


def near_field(kern: SplitKernel, r):
    """(1 - phi_0^c(r)) / r on (0, r_c]; zero beyond the cutoff."""
    scalar = np.isscalar(r) or np.ndim(r) == 0
    ra = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(ra <= 0.0):
        raise DomainError("near_field requires r > 0 (self-pairs are excluded)")
    out = np.zeros_like(ra)
    inside = ra < kern.r_c
    out[inside] = (1.0 - eval_phi0(kern.basis, ra[inside], kern.r_c)) / ra[inside]
    return float(out[0]) if scalar else out


def far_field(kern: SplitKernel, r):
    """phi_0^c(r) / r, extended smoothly to psi_0^c(0)/(C0 r_c) at r = 0."""
    scalar = np.isscalar(r) or np.ndim(r) == 0
    ra = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(ra < 0.0):
        raise DomainError("far_field requires r >= 0")
    b = kern.basis
    out = np.empty_like(ra)
    zero = ra == 0.0
    out[~zero] = eval_phi0(b, ra[~zero], kern.r_c) / ra[~zero]
    out[zero] = b.psi0_at_zero / (b.C0 * kern.r_c)
    return float(out[0]) if scalar else out


def mode_kernel(kern: SplitKernel, k2):
    """Far-field transform and pressure-kernel derivative term per mode.

    ``k2`` holds squared wavenumbers of in-band modes, 0 < |k| <= kmax; the
    argument x = |k| r_c / c is clipped to 1 against roundoff at the band
    edge.  Returns (fhat, dterm) with

        fhat  = 2 pi lambda0/C0 * psi_0^c(x) / k^2
        dterm = 2 pi lambda0/C0 * x psi_0^c'(x) / k^4,

    so that the 3x3 pressure kernel of mode k is
    fhat (delta_ab - 2 k_a k_b / k^2) + dterm k_a k_b.
    """
    b = kern.basis
    x = np.clip(np.sqrt(k2) * kern.r_c / b.c, 0.0, 1.0)
    pref = 2.0 * np.pi * b.lambda0 / b.C0
    psi, slope = b.psi_and_slope(x)
    return pref * psi / k2, pref * slope / k2**2


def fn_weight(kern: SplitKernel, r):
    """Radial force weight of the near field: F_N(r) = -r^2 d/dr near_field(r).

    Closed form 1 - phi_0^c(r) + (r/(C0 r_c)) psi_0^c(r/r_c) on (0, r_c];
    zero beyond the cutoff (truncation semantics of the pair sum).
    """
    ra = np.asarray(r, dtype=float)
    if np.any(ra <= 0.0):
        raise DomainError("fn_weight requires r > 0")
    b = kern.basis
    x = np.minimum(ra / kern.r_c, 1.0)
    val = 1.0 - eval_phi0(b, ra, kern.r_c) + (ra / (b.C0 * kern.r_c)) * b.psi_series(x)
    out = np.where(ra > kern.r_c, 0.0, val)
    return out if out.ndim else float(out)


def self_energy(kern: SplitKernel, charges) -> float:
    """-(psi_0^c(0) / (2 C0 r_c)) * sum q_i^2."""
    q = np.asarray(charges, dtype=float)
    if q.size == 0:
        return 0.0
    b = kern.basis
    return float(-(b.psi0_at_zero / (2.0 * b.C0 * kern.r_c)) * np.sum(q * q))


def background_integral(kern: SplitKernel) -> float:
    """J = r_c^2/2 - int_0^{r_c} r phi_0^c(r) dr, by 128-node Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(128)
    r = 0.5 * kern.r_c * (nodes + 1.0)
    w = 0.5 * kern.r_c * weights
    integral = float(np.sum(w * r * eval_phi0(kern.basis, r, kern.r_c)))
    return 0.5 * kern.r_c**2 - integral


def background_correction(kern: SplitKernel, q_total: float, volume: float):
    """Uniform-background energy terms and pressure correction.

    Returns (U_cb, U_bb, P_corr) where U_cb is the charge-background energy,
    U_bb the background self-energy, and P_corr the 3x3 (isotropic) pressure
    correction.  All are zero for a neutral system; none contribute forces.
    """
    if q_total == 0.0:
        return 0.0, 0.0, np.zeros((3, 3))
    j = background_integral(kern)
    u_cb = -4.0 * np.pi * q_total**2 / volume * j
    u_bb = 2.0 * np.pi * q_total**2 / volume * j
    p_corr = -2.0 * np.pi * q_total**2 * j / volume**2 * np.eye(3)
    return u_cb, u_bb, p_corr

"""FFT particle-mesh pipeline for the long-range (far-field) contribution.

The pipeline is: build the stencil of the configuration once (for every
particle the P^3 grid nodes that its separable prolate window covers, and
the window weights there), spread charges through it onto a uniform mesh,
take one forward FFT, apply diagonal (mode-by-mode) scaling, and either
reduce over modes (energy, global pressure: no inverse transform) or
inverse-transform and gather through the same stencil (forces, per-particle
pressure).  forward_density returns the Fourier coefficients together with
the stencil, so each configuration builds it exactly once.

Any cell, triclinic or orthorhombic, takes the same path, as in smooth PME
(Essmann et al., JCP 1995): the mesh is uniform in the fractional
coordinates s = h^-1 r, node g sits at s = g / M, and the window is
separable in s.  Grid index m is the wavevector k = 2 pi h^-T m.

Conventions.  Continuum Fourier pair on the periodic cell:
f_hat(k) = int f(r) exp(-i k r) dr,  f(r) = (1/V) sum_k f_hat(k) exp(i k r).
Grid arrays relate by f_hat(k_m) = (V / prod M) * fftn(f)[m] (trapezoidal,
exact for band-limited fields up to aliasing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import SplitKernel, mode_kernel
from .pswf import WindowTable
from .system import Cell, ParticleSystem


class PlanningError(Exception):
    """A grid invariant cannot be satisfied; the message names it."""


class MeshError(Exception):
    pass


class TransformProvider:
    """Pluggable 3D periodic FFT contract with call counters.

    ``forward`` maps a real-space array to (unnormalized) DFT coefficients;
    ``inverse`` is its exact inverse.  Counters make transform economy
    claims testable.
    """

    def __init__(self):
        self.forward_count = 0
        self.inverse_count = 0

    def forward(self, values: np.ndarray) -> np.ndarray:
        self.forward_count += 1
        return np.fft.fftn(values)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        self.inverse_count += 1
        return np.fft.ifftn(values)


@dataclass(frozen=True)
class GridSpec:
    """Mesh counts plus the spreading window for one cell.

    ``spacing`` is |a_d| / M_d, the node spacing along each cell vector a_d.
    """

    M: tuple
    spacing: tuple
    window: WindowTable

    @property
    def P(self) -> int:
        return self.window.P

    @property
    def n_grid(self) -> int:
        return int(np.prod(self.M))


def plan_grid(cell: Cell, kern: SplitKernel, window: WindowTable,
              oversampling: float = 1.0,
              fixed_M: tuple | None = None) -> GridSpec:
    """Choose mesh sizes for one cell and a spreading window built once.

    M_d is the smallest even integer >= oversampling * kmax * |a_d| / pi,
    with |a_d| the length of cell vector d, unless ``fixed_M`` pins the
    counts (finite-difference checks of the cell derivative hold the grid).
    A mode |k| <= kmax has |m_d| = |a_d . k| / 2 pi <= kmax |a_d| / 2 pi, so
    the Nyquist, band and support invariants read as in an orthorhombic
    cell with L_d -> |a_d|.  Raises PlanningError naming the violated
    invariant if they cannot hold.
    """
    if not (np.isfinite(oversampling) and oversampling >= 1.0):
        raise PlanningError("oversampling factor must be finite and >= 1")

    lengths = np.linalg.norm(cell.h, axis=0)
    kmax = kern.kmax
    if fixed_M is not None:
        M = np.asarray(fixed_M, dtype=int)
    else:
        M = np.ceil(oversampling * kmax * lengths / np.pi).astype(int)
        M += M % 2
        M = np.maximum(M, 2)
    spacing = lengths / M
    omega = window.P * spacing / 2.0
    c_spread = window.basis.c

    for d in range(3):
        if np.pi / spacing[d] < kmax * (1.0 - 1e-12):
            raise PlanningError(
                f"Nyquist coverage violated in dimension {d}: "
                f"pi/h={np.pi / spacing[d]:.4g} < kmax={kmax:.4g}")
        if c_spread / omega[d] < kmax * (1.0 - 1e-12):
            raise PlanningError(
                f"window band coverage violated in dimension {d}: "
                f"c_spread/omega={c_spread / omega[d]:.4g} < kmax={kmax:.4g}; "
                f"decrease P or increase oversampling")
        if 2.0 * omega[d] >= lengths[d]:
            raise PlanningError(
                f"window support 2*omega={2 * omega[d]:.4g} not below cell "
                f"vector length {lengths[d]:.4g} in dimension {d}")

    return GridSpec(M=tuple(int(m) for m in M),
                    spacing=tuple(float(s) for s in spacing), window=window)


@dataclass(frozen=True)
class SpectralDensity:
    """Fourier coefficients of the spread charge and the stencil that spread it.

    ``values`` holds rho_hat(k_m) with continuum normalization.  ``flat`` and
    ``weights`` (N x P^3) are every particle's stencil nodes as flat grid
    indices and their window products W(t_1) W(t_2) W(t_3); ``offsets``
    (N x 3) are the fractional offsets that set the window at the nodes.
    ``cell`` is the cell of the configuration.  Every gather of the
    configuration goes through this one stencil.
    """

    values: np.ndarray
    flat: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    cell: Cell

    def gather(self, field: np.ndarray) -> np.ndarray:
        """sum over the stencil of field(r_g) W(r_g - r_j), per particle."""
        return np.einsum("np,np->n", field.reshape(-1)[self.flat], self.weights)

    def gather_gradient(self, field: np.ndarray, spec: GridSpec) -> np.ndarray:
        """sum over the stencil of field(r_g) grad_j W(r_j - r_g) (N x 3).

        The window and its gradient come from the offsets; the P^3 weight
        products are never formed for the gradient.  The gradient in grid
        units u = M s maps to Cartesian through du/dr = diag(M) h^-1.
        """
        w = spec.window(self.offsets)
        dw = spec.window(self.offsets, derivative=1)
        P = spec.P
        vals = field.reshape(-1)[self.flat].reshape(-1, P, P, P)
        out = np.empty((vals.shape[0], 3))
        for d in range(3):
            factors = [dw[:, e] if e == d else w[:, e] for e in range(3)]
            out[:, d] = np.einsum("nabc,na,nb,nc->n", vals, *factors,
                                  optimize=True)
        return out @ (np.asarray(spec.M)[:, None] * self.cell.inverse)


def _window_weights(sys: ParticleSystem, spec: GridSpec):
    """The stencil of one configuration, for spreading and every gather.

    Along each axis a particle at u = M s (grid units, s its fractional
    coordinate) covers the P nodes first, ..., first + P - 1 with
    first = floor(u - P/2) + 1: odd P centres the stencil on the nearest
    node, even P on the midpoint of the two nearest.  Node j sits at t_j = P/2 - 1 - j + f from the particle, with
    f = frac(u - P/2), so the window table gives all P weights from f.
    Returns the flat node indices and the weight products, both N x P^3 and
    C-contiguous, and the offsets f (N x 3).
    """
    P, M = spec.P, spec.M
    a = sys.cell.fractional(sys.positions) * M - P / 2.0
    below = np.floor(a)
    offsets = a - below
    w = spec.window(offsets)
    weights = (w[:, 0, :, None, None] * w[:, 1, None, :, None]
               * w[:, 2, None, None, :]).reshape(sys.n, -1)
    first = below.astype(np.int64) + 1
    ix, iy, iz = (np.mod(first[:, d, None] + np.arange(P), M[d]) for d in range(3))
    flat = ((ix[:, :, None, None] * M[1] + iy[:, None, :, None]) * M[2]
            + iz[:, None, None, :]).reshape(sys.n, -1)
    return flat, weights, offsets


def _deposit(flat: np.ndarray, weights: np.ndarray, charges: np.ndarray,
             M: tuple) -> np.ndarray:
    """Grid of sum_j q_j W(r_g - r_j), periodized across boundaries."""
    w = weights * charges[:, None]
    return np.bincount(flat.ravel(), weights=w.ravel(),
                       minlength=int(np.prod(M))).reshape(M)


def spread_charges(sys: ParticleSystem, spec: GridSpec) -> np.ndarray:
    """Deposit q_j W(r_g - r_j) on the mesh, periodized across boundaries."""
    flat, weights, _ = _window_weights(sys, spec)
    return _deposit(flat, weights, sys.charges, spec.M)


def forward_density(sys: ParticleSystem, spec: GridSpec,
                    provider: TransformProvider) -> SpectralDensity:
    """Build the stencil, spread and forward-transform (continuum normalized)."""
    flat, weights, offsets = _window_weights(sys, spec)
    rho = _deposit(flat, weights, sys.charges, spec.M)
    rho_hat = provider.forward(rho) * (sys.cell.volume / spec.n_grid)
    return SpectralDensity(values=rho_hat, flat=flat, weights=weights,
                           offsets=offsets, cell=sys.cell)


class ModeWorkspace:
    """Per-(spec, cell) mode arrays: wavevectors, kernel, window deconvolution.

    Modes outside |k| <= kmax are zeroed; the k = 0 mode is always excluded.
    A guard rejects retained modes where the window transform underflows,
    which indicates a planning failure rather than a numerical accident.
    """

    def __init__(self, spec: GridSpec, kern: SplitKernel, cell: Cell):
        self.volume = cell.volume
        # k = B m with B = 2 pi h^-T, so k^2 = m^T G m with the metric
        # G = B^T B, summed on the grid from the per-axis indices m_d.
        B = cell.reciprocal
        G = B.T @ B
        ms = [np.fft.fftfreq(M, d=1.0 / M) for M in spec.M]
        axes = [m.reshape([-1 if e == d else 1 for e in range(3)])
                for d, m in enumerate(ms)]
        k2 = sum(G[d, e] * (1.0 if d == e else 2.0) * axes[d] * axes[e]
                 for d in range(3) for e in range(d, 3))
        mask = (np.sqrt(k2) <= kern.kmax) & (k2 > 0.0)
        self.mask = mask
        index = np.nonzero(mask)
        self.kvec = list(B @ np.stack([m[i] for m, i in zip(ms, index)]))
        self.k2 = k2[mask]

        # The window is separable in s, so its transform at k = B m is
        # V prod_d (P/2M_d) lambda0 psi_0(pi P m_d / (M_d c)), whatever the
        # cell shape: psi_0 is read once per axis index (sum of M_d
        # arguments, one call), not three times per retained mode.
        sb = spec.window.basis
        arg = np.concatenate([np.pi * spec.P * m / M
                              for m, M in zip(ms, spec.M)]) / sb.c
        psi, _ = sb.psi_and_slope(np.clip(arg, -1.0, 1.0))
        tables = np.split(psi, np.cumsum(spec.M)[:2])
        px, py, pz = (t[i] for t, i in zip(tables, index))
        psi3 = px * py * pz
        if np.any(np.abs(psi3) < 1e-13 * sb.psi0_at_zero**3):
            raise PlanningError(
                "window transform underflow on a retained mode; the plan does "
                "not cover the kernel band")
        width = cell.volume * np.prod(spec.P / (2.0 * np.asarray(spec.M)))
        self.w_inv2 = 1.0 / (width * sb.lambda0**3 * psi3) ** 2
        self.fhat, self.dterm = mode_kernel(kern, self.k2)

    def pressure_kernel_component(self, a: int, b: int) -> np.ndarray:
        kk = self.kvec[a] * self.kvec[b]
        out = self.dterm * kk - 2.0 * self.fhat * kk / self.k2
        if a == b:
            out = out + self.fhat
        return out


def long_range_energy(rho_hat: SpectralDensity, kern: SplitKernel,
                      spec: GridSpec, cell: Cell,
                      modes: ModeWorkspace | None = None) -> float:
    """U_F = (1/2V) sum_{k != 0} Fhat(k) What(k)^-2 |rho_hat(k)|^2."""
    m = modes or ModeWorkspace(spec, kern, cell)
    amp2 = np.abs(rho_hat.values[m.mask]) ** 2
    return float(np.sum(m.fhat * m.w_inv2 * amp2) / (2.0 * m.volume))


def long_range_pressure(rho_hat: SpectralDensity, kern: SplitKernel,
                        spec: GridSpec, cell: Cell,
                        modes: ModeWorkspace | None = None) -> np.ndarray:
    """Global far-field pressure tensor by diagonal scaling and reduction.

    No inverse transform: one forward FFT (already performed to obtain
    rho_hat) suffices.
    """
    m = modes or ModeWorkspace(spec, kern, cell)
    amp2 = np.abs(rho_hat.values[m.mask]) ** 2
    scaled = m.w_inv2 * amp2 / (2.0 * m.volume**2)
    out = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            val = float(np.sum(m.pressure_kernel_component(a, b) * scaled))
            out[a, b] = out[b, a] = val
    return out


def _inverse_field(coefficients: np.ndarray, m: ModeWorkspace, spec: GridSpec,
                   provider: TransformProvider) -> np.ndarray:
    """Real grid field of retained-mode coefficients, times V / prod M.

    The field itself is the inverse transform over V / prod M (1/V
    convention); the trapezoidal gather weighs it by V / prod M, so neither
    factor is applied.  Only the real part is kept, so the complex grids
    are freed before the gather.
    """
    spec_arr = np.zeros(spec.M, dtype=complex)
    spec_arr[m.mask] = coefficients
    return np.ascontiguousarray(provider.inverse(spec_arr).real)


def long_range_forces(rho_hat: SpectralDensity, sys: ParticleSystem,
                      kern: SplitKernel, spec: GridSpec, cell: Cell, mode: str = "ik",
                      provider: TransformProvider | None = None,
                      modes: ModeWorkspace | None = None) -> np.ndarray:
    """Far-field forces by spectral differentiation and window gathering.

    ``ik``: three inverse transforms of i k_d Fhat What^-2 rho_hat, gathered
    with the window (momentum-conserving).  ``analytic``: one inverse
    transform of Fhat What^-2 rho_hat, gathered with the window gradient
    (energy-conserving for small steps).
    """
    if mode not in ("ik", "analytic"):
        raise MeshError(f"unknown differentiation mode {mode!r}")
    provider = provider or TransformProvider()
    m = modes or ModeWorkspace(spec, kern, cell)
    scale = m.fhat * m.w_inv2 * rho_hat.values[m.mask]

    if mode == "analytic":
        fld = _inverse_field(scale, m, spec, provider)
        return -sys.charges[:, None] * rho_hat.gather_gradient(fld, spec)
    forces = np.empty((sys.n, 3))
    for d in range(3):
        fld = _inverse_field(1j * m.kvec[d] * scale, m, spec, provider)
        forces[:, d] = -sys.charges * rho_hat.gather(fld)
    return forces


def local_pressure(rho_hat: SpectralDensity, sys: ParticleSystem,
                   kern: SplitKernel, spec: GridSpec, cell: Cell,
                   provider: TransformProvider | None = None,
                   modes: ModeWorkspace | None = None) -> np.ndarray:
    """Per-particle far-field pressure tensors (N x 3 x 3).

    Six inverse transforms (one per independent tensor component) followed
    by a trapezoidal window gather; the sum over particles reproduces the
    global far-field pressure up to gather aliasing.
    """
    provider = provider or TransformProvider()
    m = modes or ModeWorkspace(spec, kern, cell)
    base = m.w_inv2 * rho_hat.values[m.mask] / (2.0 * m.volume)

    out = np.empty((sys.n, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            fld = _inverse_field(m.pressure_kernel_component(a, b) * base,
                                 m, spec, provider)
            out[:, a, b] = out[:, b, a] = sys.charges * rho_hat.gather(fld)
    return out

"""FFT particle-mesh pipeline for the long-range (far-field) contribution.

The pipeline is: build the stencil of the configuration once (for every
particle the base node and the separable prolate window factors along each
axis, with the particles ordered by base node), spread charges through it
onto a uniform mesh, take one real-to-complex forward FFT, apply diagonal
(mode-by-mode) scaling to the retained modes of the half spectrum, and
either reduce over modes (energy, global pressure: no inverse transform) or
run one stacked inverse FFT of all the fields needed, pruned to the lines
the retained modes reach, and gather through the same stencil (forces,
per-particle pressure).  forward_density returns the Fourier coefficients
together with the stencil, so each configuration builds it exactly once
and sorts it once: neighbouring particles in the stencil read neighbouring
grid nodes in the spread and in every gather.  Only the O(N P) stencil is
stored; a pass allocates one block of the window's Chebyshev-Vandermonde
matrix (at most 3 CHUNK_NODES values) and one chunk of index terms, flat
indices and weight products (at most CHUNK_NODES nodes), so memory stays
bounded as N and P grow.

Any cell, triclinic or orthorhombic, takes the same path, as in smooth PME
(Essmann et al., JCP 1995): the mesh is uniform in the fractional
coordinates s = h^-1 r, node g sits at s = g / M, and the window is
separable in s.  Grid index m is the wavevector k = 2 pi h^-T m.

Conventions.  Continuum Fourier pair on the periodic cell:
f_hat(k) = int f(r) exp(-i k r) dr,  f(r) = (1/V) sum_k f_hat(k) exp(i k r).
Grid arrays relate by f_hat(k_m) = (V / prod M) * fftn(f)[m] (trapezoidal,
exact for band-limited fields up to aliasing); a real f keeps the modes
0 <= m_3 <= M_3/2 of rfftn, the others being their complex conjugates.
An inverse-transformed field, times V / prod M, is the inverse transform
over V / prod M (1/V convention); the trapezoidal gather weighs it by
V / prod M, so neither factor is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .kernel import SplitKernel, mode_kernel
from .pswf import WindowTable
from .system import Cell, ParticleSystem


class PlanningError(Exception):
    """A grid invariant cannot be satisfied; the message names it."""


class MeshError(Exception):
    pass


class TransformProvider:
    """Pluggable 3D periodic real FFT contract with call counters.

    ``forward`` maps a real grid to its (unnormalized) DFT coefficients on
    the half spectrum M_1 x M_2 x (M_3/2 + 1); ``inverse`` is its exact
    inverse, applied in one call to a stack of coefficients of the retained
    modes of a ModeWorkspace, zero elsewhere.  Counters make transform
    economy claims testable.
    """

    def __init__(self):
        self.forward_count = 0
        self.inverse_count = 0

    def forward(self, values: np.ndarray) -> np.ndarray:
        self.forward_count += 1
        return scipy.fft.rfftn(values)

    def inverse(self, coefficients: np.ndarray, modes: ModeWorkspace) -> np.ndarray:
        """Real grids (F x M) of stacked retained-mode coefficients (F x modes).

        The passes of irfftn run in its own order, each in place on the lines
        the retained modes |m_d| <= modes.band[d] reach (FFT pruning): along
        the first grid axis the (m_2, m_3) lines inside the band, along the
        second the m_3 inside it, then the real transform of every line
        along the third.  The result is irfftn of the zero-filled half
        spectrum bit for bit.
        """
        self.inverse_count += 1
        (M1, M2, M3), (_, b2, b3) = modes.M, modes.band
        half = np.zeros((len(coefficients), M1, M2, M3 // 2 + 1), dtype=complex)
        half.reshape(len(half), -1)[:, modes.flat] = coefficients
        rows = ([slice(None)] if 2 * b2 + 1 >= M2
                else [slice(0, b2 + 1), slice(M2 - b2, None)])
        for r in rows:
            scipy.fft.ifft(half[:, :, r, :b3 + 1], axis=1, norm="forward",
                           overwrite_x=True)
        scipy.fft.ifft(half[..., :b3 + 1], axis=2, norm="forward", overwrite_x=True)
        fields = scipy.fft.irfft(half, n=M3, norm="forward")
        # irfftn's own factor: 1 / (M_1 M_2 M_3) rounded through long double.
        fields *= float(1 / np.longdouble(M1 * M2 * M3))
        return fields


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
        M = np.ceil(oversampling * kmax * lengths / np.pi)
        if not np.all(M < 2.0**63):    # also catches inf and nan
            raise PlanningError(
                f"grid counts {' x '.join(f'{m:.4g}' for m in M)} requested "
                f"by kmax={kmax:.4g} do not fit in an int64; raise r_c")
        M = M.astype(int)
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


# Stencil nodes expanded at a time: the flat indices and weight products of
# one chunk of particles, whatever N and P.  It also sets the block of
# particles whose window factors are evaluated together (_window_factors).
CHUNK_NODES = 2**14


@dataclass(frozen=True)
class SpectralDensity:
    """Fourier coefficients of the spread charge and the stencil that spread it.

    ``values`` holds rho_hat(k_m) with continuum normalization on the half
    spectrum M_1 x M_2 x (M_3/2 + 1) of the real charge grid.  The stencil is
    kept separable, ordered by base node and laid out with particles running
    fastest: stencil column n is particle ``order[n]``, ``first`` (3 x N) its
    base node, reduced mod M, ``factors`` (3 x P x N) the window at its P
    nodes along each axis, and ``offsets`` (3 x N) the fractional offsets
    that set the window.  ``cell`` and ``spec`` are the configuration's cell
    and plan.  Every gather of the configuration goes through this one
    stencil, expanded a chunk at a time (_chunks), and writes each chunk's
    results to its particles in input order.
    """

    values: np.ndarray
    order: np.ndarray
    first: np.ndarray
    factors: np.ndarray
    offsets: np.ndarray
    cell: Cell
    spec: GridSpec

    def gather(self, fields: np.ndarray) -> np.ndarray:
        """sum over the stencil of fields[f](r_g) W(r_g - r_j) (F x N).

        ``fields`` stacks F real grids (F x M_1 x M_2 x M_3); one pass over
        the stencil chunks gathers all of them.
        """
        values = fields.reshape(len(fields), -1)
        out = np.empty((len(fields), self.first.shape[1]))
        for part, flat, w in _chunks(self.first, self.factors, self.spec):
            weights = _products(w)
            rows = self.order[part].astype(np.intp)
            for f, field in enumerate(values):
                out[f, rows] = np.einsum("pn,pn->n", np.take(field, flat), weights)
        return out

    def gather_gradient(self, field: np.ndarray) -> np.ndarray:
        """sum over the stencil of field(r_g) grad_j W(r_j - r_g) (N x 3).

        The window comes from the stored factors and its gradient from the
        offsets, evaluated a block at a time (_window_factors); the P^3
        weight products are never formed for the gradient.
        The gradient in grid units u = M s maps to Cartesian through
        du/dr = diag(M) h^-1.
        """
        spec, P = self.spec, self.spec.P
        dw = _window_factors(spec.window, self.offsets, derivative=1)
        values = field.reshape(-1)
        out = np.empty((3, self.first.shape[1]))
        for part, flat, (wx, wy, wz) in _chunks(self.first, self.factors, spec):
            dx, dy, dz = dw[:, :, part]
            rows = self.order[part].astype(np.intp)
            vals = np.take(values, flat).reshape(P, P, P, -1)
            # Contract the z nodes first: with W for the x and y components,
            # with W' for the z component.
            z = np.einsum("abcn,cn->abn", vals, wz)
            z_dz = np.einsum("abcn,cn->abn", vals, dz)
            out[0, rows] = np.einsum("abn,an,bn->n", z, dx, wy)
            out[1, rows] = np.einsum("abn,an,bn->n", z, wx, dy)
            out[2, rows] = np.einsum("abn,an,bn->n", z_dz, wx, wy)
        return out.T @ (np.asarray(spec.M)[:, None] * self.cell.inverse)


def _window_weights(sys: ParticleSystem, spec: GridSpec):
    """The stencil of one configuration, for spreading and every gather.

    Along each axis a particle at u = M s (grid units, s its fractional
    coordinate) covers the P nodes first, ..., first + P - 1 (mod M) with
    first = floor(u - P/2) + 1: odd P centres the stencil on the nearest
    node, even P on the midpoint of the two nearest.  Node j sits at
    t_j = P/2 - 1 - j + f from the particle, with f = frac(u - P/2), so the
    window table gives all P weights from f.  The particles are sorted once,
    stably, by the flat index of their base node.  Returns that order (N),
    and in it the base nodes first mod M (3 x N), the window factors W(t_j)
    (3 x P x N) and the offsets f (3 x N), particles running fastest; the
    factors are filled a block at a time (_window_factors).  The order and
    the base nodes are int32, so together they take less memory than int64
    base nodes alone.
    """
    P, M = spec.P, np.asarray(spec.M)[:, None]
    a = sys.cell.fractional(sys.positions).T * M - P / 2.0
    below = np.floor(a)
    first = np.mod(below.astype(np.int64) + 1, M).astype(np.int32)
    order = np.argsort(np.ravel_multi_index(first, spec.M), kind="stable")
    offsets = np.take(a - below, order, axis=1)
    return (order.astype(np.int32), first.take(order, axis=1),
            _window_factors(spec.window, offsets), offsets)


def _window_factors(window: WindowTable, offsets: np.ndarray,
                    derivative: int = 0) -> np.ndarray:
    """W (or dW/dt) at the P nodes of offsets f (3 x N) as 3 x P x N.

    The window is evaluated one block of particles at a time and written
    into place.  A block's Chebyshev-Vandermonde matrix, one row of terms
    per offset, holds at most 3 CHUNK_NODES values whatever N, P and the
    bandwidth.
    """
    P, n = window.P, offsets.shape[1]
    out = np.empty((3, P, n))
    step = CHUNK_NODES // len(window.value)
    for start in range(0, n, step):
        part = slice(start, start + step)
        out[:, :, part] = np.swapaxes(window(offsets[:, part], derivative), 1, 2)
    return out


def _chunks(first: np.ndarray, factors: np.ndarray, spec: GridSpec):
    """Per chunk of particles: their slice, the flat indices of their stencil
    nodes (P^3 x n) and their window factors (3 x P x n).

    Particles run along the last axis, so the broadcasts that expand the
    stencil run over whole chunks rather than over P nodes at a time.  A
    chunk holds at most CHUNK_NODES stencil nodes (at least one particle),
    and its per-axis index terms (3 x P x n) are built with it, so the
    expanded stencil stays bounded as N and P grow.
    """
    P, M = spec.P, np.asarray(spec.M)[:, None, None]
    strides = np.array([spec.M[1] * spec.M[2], spec.M[2], 1])[:, None, None]
    nodes = np.arange(P)[:, None]
    step = max(1, CHUNK_NODES // P**3)
    for start in range(0, first.shape[1], step):
        part = slice(start, start + step)
        # Node j along axis d of each particle, as its term of the flat index.
        a = np.mod(first[:, None, part] + nodes, M) * strides
        flat = a[0, :, None, None] + a[1, None, :, None] + a[2, None, None, :]
        yield part, flat.reshape(P**3, -1), factors[:, :, part]


def _products(w: np.ndarray) -> np.ndarray:
    """Weights W(t_1) W(t_2) W(t_3) at the P^3 nodes (P^3 x n) of factors w."""
    P = w.shape[1]
    return (w[0, :, None, None] * w[1, None, :, None]
            * w[2, None, None, :]).reshape(P**3, -1)


def _deposit(first: np.ndarray, factors: np.ndarray, charges: np.ndarray,
             spec: GridSpec) -> np.ndarray:
    """Grid of sum_j q_j W(r_g - r_j), periodized across boundaries."""
    grid = np.zeros(spec.n_grid)
    for part, flat, w in _chunks(first, factors, spec):
        weights = _products(w)
        weights *= charges[part]
        np.add.at(grid, flat.ravel(), weights.ravel())
    return grid.reshape(spec.M)


def forward_density(sys: ParticleSystem, spec: GridSpec,
                    provider: TransformProvider) -> SpectralDensity:
    """Build the stencil, spread and forward-transform (continuum normalized)."""
    order, first, factors, offsets = _window_weights(sys, spec)
    rho = _deposit(first, factors, sys.charges[order], spec)
    rho_hat = provider.forward(rho) * (sys.cell.volume / spec.n_grid)
    return SpectralDensity(values=rho_hat, order=order, first=first,
                           factors=factors, offsets=offsets, cell=sys.cell,
                           spec=spec)


def axis_modes(spec: GridSpec):
    """Per-axis mode indices m_d of the half spectrum and, read in one call,
    the window transform factors psi_0(pi P m_d / (M_d c)): both independent
    of the cell, so a solver keeps them while its grid and window stay."""
    ms = [np.fft.fftfreq(M, d=1.0 / M) for M in spec.M]
    ms[2] = ms[2][:spec.M[2] // 2 + 1]
    sb = spec.window.basis
    arg = np.concatenate([np.pi * spec.P * m / M
                          for m, M in zip(ms, spec.M)]) / sb.c
    psi, _ = sb.psi_and_slope(np.clip(arg, -1.0, 1.0))
    return ms, np.split(psi, np.cumsum([len(m) for m in ms])[:2])


# The six independent components (a, b), a <= b, of a symmetric tensor.
PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]


class ModeWorkspace:
    """Per-(spec, cell) mode arrays: wavevectors, kernel, window deconvolution.

    The modes are those of the half spectrum M_1 x M_2 x (M_3/2 + 1) that a
    real transform keeps; ``weight`` counts each retained mode once on the
    m_3 = 0 and Nyquist (2 m_3 = M_3) planes, which hold their own mirror
    images, and twice elsewhere, for the mirror mode -m left out.  Modes
    outside |k| <= kmax are zeroed; the k = 0 mode is always excluded.
    ``flat`` holds the flat indices of the retained modes in the half
    spectrum, through which every reduction reads rho_hat, and ``band`` the
    largest |m_d| among them along each axis, which bounds the lines the
    inverse transform works on.  A guard rejects retained modes where the
    window transform underflows, which indicates a planning failure rather
    than a numerical accident.  ``axes`` is axis_modes(spec), computed here
    when not given.

    ``previous``, a workspace of the same kernel and window, lends its index
    tables (the retained m, ``band``, ``weight`` and the checked window
    transform product) when it has the same M and ``flat``: a rescaled cell
    usually keeps its retained modes, and then only the wavevectors, k^2,
    the deconvolution and the mode kernel are computed anew.
    """

    def __init__(self, spec: GridSpec, kern: SplitKernel, cell: Cell,
                 axes=None, previous: ModeWorkspace | None = None):
        self.volume = cell.volume
        ms, tables = axis_modes(spec) if axes is None else axes
        # k = B m with B = 2 pi h^-T, so k^2 = m^T G m with the metric
        # G = B^T B, summed on the grid from the per-axis indices m_d.
        B = cell.reciprocal
        G = B.T @ B
        grid = [m.reshape([-1 if e == d else 1 for e in range(3)])
                for d, m in enumerate(ms)]
        k2 = sum(G[d, e] * (1.0 if d == e else 2.0) * grid[d] * grid[e]
                 for d in range(3) for e in range(d, 3) if G[d, e] != 0.0)
        mask = (np.sqrt(k2) <= kern.kmax) & (k2 > 0.0)
        self.M, self.flat = spec.M, np.flatnonzero(mask)
        self.k2 = k2[mask]
        if (previous is not None and previous.M == self.M
                and np.array_equal(previous.flat, self.flat)):
            self.retained, self.band = previous.retained, previous.band
            self.weight, self.psi3 = previous.weight, previous.psi3
        else:
            self._index_tables(spec, ms, tables, mask.shape)
        self.kvec = list(B @ self.retained)
        # The window is separable in s, so its transform at k = B m is
        # V prod_d (P/2M_d) lambda0 psi_0(pi P m_d / (M_d c)), whatever the
        # cell shape.
        width = cell.volume * np.prod(spec.P / (2.0 * np.asarray(spec.M)))
        self.w_inv2 = 1.0 / (width * spec.window.basis.lambda0**3 * self.psi3) ** 2
        self.fhat, self.dterm = mode_kernel(kern, self.k2)

    def _index_tables(self, spec, ms, tables, shape):
        """The retained m (3 x modes), ``band``, ``weight`` and the product
        psi3 of the three axis tables of the window transform at each mode."""
        index = np.unravel_index(self.flat, shape)
        self.retained = np.stack([m[i] for m, i in zip(ms, index)])
        self.band = np.abs(self.retained).max(axis=1, initial=0).astype(int)
        self.weight = np.where((index[2] == 0) | (2 * index[2] == spec.M[2]),
                               1.0, 2.0)
        px, py, pz = (t[i] for t, i in zip(tables, index))
        self.psi3 = px * py * pz
        if np.any(np.abs(self.psi3) < 1e-13 * spec.window.basis.psi0_at_zero**3):
            raise PlanningError(
                "window transform underflow on a retained mode; the plan does "
                "not cover the kernel band")

    def pressure_kernel(self, scale: np.ndarray) -> np.ndarray:
        """The PAIRS components of each mode's 3x3 pressure kernel
        fhat (delta_ab - 2 k_a k_b / k^2) + dterm k_a k_b, times ``scale``."""
        coef = (self.dterm - 2.0 * self.fhat / self.k2) * scale
        diag, k = self.fhat * scale, self.kvec
        return np.stack([coef * k[a] * k[b] + (diag if a == b else 0.0)
                         for a, b in PAIRS])


def long_range_energy(rho_hat: SpectralDensity, kern: SplitKernel,
                      spec: GridSpec, cell: Cell,
                      modes: ModeWorkspace | None = None) -> float:
    """U_F = (1/2V) sum_{k != 0} Fhat(k) What(k)^-2 |rho_hat(k)|^2.

    The sum over the full spectrum is the half-spectrum sum times
    ``modes.weight``.
    """
    m = modes or ModeWorkspace(spec, kern, cell)
    amp2 = np.abs(np.take(rho_hat.values, m.flat)) ** 2
    return float(np.sum(m.weight * m.fhat * m.w_inv2 * amp2) / (2.0 * m.volume))


def long_range_pressure(rho_hat: SpectralDensity, kern: SplitKernel,
                        spec: GridSpec, cell: Cell,
                        modes: ModeWorkspace | None = None) -> np.ndarray:
    """Global far-field pressure tensor by diagonal scaling and reduction.

    No inverse transform: one forward FFT (already performed to obtain
    rho_hat) suffices.
    """
    m = modes or ModeWorkspace(spec, kern, cell)
    amp2 = np.abs(np.take(rho_hat.values, m.flat)) ** 2
    scaled = m.weight * m.w_inv2 * amp2 / (2.0 * m.volume**2)
    out = np.empty((3, 3))
    for (a, b), val in zip(PAIRS, m.pressure_kernel(scaled).sum(axis=1)):
        out[a, b] = out[b, a] = val
    return out


def long_range_forces(rho_hat: SpectralDensity, sys: ParticleSystem,
                      kern: SplitKernel, spec: GridSpec, cell: Cell, mode: str = "ik",
                      provider: TransformProvider | None = None,
                      modes: ModeWorkspace | None = None) -> np.ndarray:
    """Far-field forces by spectral differentiation and window gathering.

    ``ik``: the three fields of i k_d Fhat What^-2 rho_hat, from one stacked
    inverse transform, gathered with the window (momentum-conserving).
    ``analytic``: one inverse transform of Fhat What^-2 rho_hat, gathered
    with the window gradient (energy-conserving for small steps).
    """
    if mode not in ("ik", "analytic"):
        raise MeshError(f"unknown differentiation mode {mode!r}")
    provider = provider or TransformProvider()
    m = modes or ModeWorkspace(spec, kern, cell)
    scale = m.fhat * m.w_inv2 * np.take(rho_hat.values, m.flat)

    if mode == "analytic":
        fld = provider.inverse(scale[None], m)[0]
        return -sys.charges[:, None] * rho_hat.gather_gradient(fld)
    fields = provider.inverse(np.stack([1j * k * scale for k in m.kvec]), m)
    return -(sys.charges * rho_hat.gather(fields)).T


def local_pressure(rho_hat: SpectralDensity, sys: ParticleSystem,
                   kern: SplitKernel, spec: GridSpec, cell: Cell,
                   provider: TransformProvider | None = None,
                   modes: ModeWorkspace | None = None) -> np.ndarray:
    """Per-particle far-field pressure tensors (N x 3 x 3).

    One stacked inverse transform gives the six fields (one per independent
    tensor component), and one trapezoidal window gather reads them all;
    the sum over particles reproduces the global far-field pressure up to
    gather aliasing.
    """
    provider = provider or TransformProvider()
    m = modes or ModeWorkspace(spec, kern, cell)
    base = m.w_inv2 * np.take(rho_hat.values, m.flat) / (2.0 * m.volume)
    fields = provider.inverse(m.pressure_kernel(base), m)
    gathered = sys.charges * rho_hat.gather(fields)

    out = np.empty((sys.n, 3, 3))
    for (a, b), g in zip(PAIRS, gathered):
        out[:, a, b] = out[:, b, a] = g
    return out

"""Short-range (near-field) energy, forces, and pressure in one fused pass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .kernel import SplitKernel, far_field, fn_weight, near_field
from .system import NeighborList, ParticleSystem, chunk_length, minimum_image


class RealspaceError(Exception):
    pass


class SingularPairError(RealspaceError):
    """Coincident particles; physical configurations never need them."""


@dataclass(frozen=True)
class ShortRangeResult:
    energy: float
    forces: np.ndarray
    pressure: np.ndarray
    pair_count: int


@dataclass(frozen=True)
class PairTable:
    """Near-field kernel and force weight from one uniform cubic table on [0, r_c].

    Row k of ``coeffs`` holds the cubic pieces of far_field and fn_weight on
    [k h, (k + 1) h], h = r_c / resolution, highest power first.  Both are
    smooth, so only they are tabulated; the 1/r singularity of the near
    field N(r) = 1/r - far_field(r) is added back exactly.
    """

    r_c: float
    coeffs: np.ndarray  # (resolution, 8): far_field then fn_weight
    resolution: int

    def eval(self, r):
        """N(r) and F_N(r) for float arrays 0 < r <= r_c; row k = int(r/h)."""
        k = np.minimum((r * (self.resolution / self.r_c)).astype(np.intp),
                       self.resolution - 1)
        t = (r - k * (self.r_c / self.resolution))[..., None]
        c = self.coeffs.reshape(-1, 2, 4).take(k, axis=0)
        p = ((c[..., 0] * t + c[..., 1]) * t + c[..., 2]) * t + c[..., 3]
        return 1.0 / r - p[..., 0], p[..., 1]

    def near_field(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= self.r_c, 0.0, self.eval(np.minimum(r, self.r_c))[0])

    def fn_weight(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r > self.r_c, 0.0, self.eval(np.minimum(r, self.r_c))[1])


def build_pair_table(kern: SplitKernel, resolution: int = 4096) -> PairTable:
    """Tabulate far_field and fn_weight as cubic splines on a uniform grid.

    With 4096 intervals, N(r) stays within 3e-13 of the closed form relative
    to max(|N(r)|, |N(r_c/2)|), and F_N(r) within 3e-14, for delta_split
    from 1e-3 to 1e-12.
    """
    knots = np.linspace(0.0, kern.r_c, resolution + 1)
    far = CubicSpline(knots, far_field(kern, knots)).c
    # F_N(0) = 1 is a limit; fn_weight takes r > 0 only.
    fn = CubicSpline(knots, fn_weight(kern, np.maximum(knots, 1e-300))).c
    return PairTable(r_c=kern.r_c,
                     coeffs=np.ascontiguousarray(np.vstack([far, fn]).T),
                     resolution=int(resolution))


def _add_pair_forces(forces: np.ndarray, i, j, fmag, dr) -> None:
    """forces[i] += fmag dr and forces[j] -= fmag dr, summed per axis."""
    n = forces.shape[0]
    for a in range(3):
        w = fmag * dr[:, a]
        forces[:, a] += np.bincount(i, w, minlength=n) - np.bincount(j, w, minlength=n)


def short_range(sys: ParticleSystem, kern: SplitKernel, neighbors: NeighborList,
                table: PairTable | None = None) -> ShortRangeResult:
    """Fused near-field pass: energy, forces, and pressure tensor.

    energy  = sum_{pairs} q_i q_j N^c(r)
    force_i = sum_j q_i q_j F_N(r) dr_ij / r^3          (repulsive for qq > 0)
    P_N     = (1/V) sum_{pairs} q_i q_j F_N(r) dr (x) dr / r^3

    Pairs go through in chunks of chunk_length(N), so temporaries stay
    bounded.  ``table=None`` evaluates the closed-form kernel instead.
    """
    n = sys.n
    forces = np.zeros((n, 3))
    virial = np.zeros((3, 3))
    energy = 0.0
    count = 0
    step = chunk_length(n)
    for start in range(0, neighbors.n_pairs, step):
        i = neighbors.i[start:start + step]
        j = neighbors.j[start:start + step]
        dr = minimum_image(sys.cell, sys.positions.take(i, axis=0)
                           - sys.positions.take(j, axis=0))
        r2 = np.einsum("ij,ij->i", dr, dr)
        r = np.sqrt(r2)
        if np.any(r < 1e-12 * kern.r_c):
            bad = int(np.argmin(r))
            raise SingularPairError(
                f"coincident particles {i[bad]} and {j[bad]} (r={r[bad]:.3e})")

        within = r <= kern.r_c
        if not within.all():
            i, j, dr, r, r2 = i[within], j[within], dr[within], r[within], r2[within]
        qq = sys.charges.take(i) * sys.charges.take(j)
        if table is not None:
            nvals, fvals = table.eval(r)
        else:
            nvals, fvals = near_field(kern, r), fn_weight(kern, r)

        energy += float(np.sum(qq * nvals))
        fmag = qq * fvals / (r2 * r)
        _add_pair_forces(forces, i, j, fmag, dr)
        virial += (dr.T * fmag) @ dr
        count += r.size

    pressure = virial / sys.cell.volume
    pressure = 0.5 * (pressure + pressure.T)  # exact symmetry against roundoff
    return ShortRangeResult(energy=energy, forces=forces, pressure=pressure,
                            pair_count=count)

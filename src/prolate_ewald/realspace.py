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


# Uniform intervals of the pair table on [0, r_c].
PAIR_TABLE_INTERVALS = 4096


@dataclass(frozen=True)
class ShortRangeResult:
    """Sums of one pass over the pairs (pair_sums).

    ``energies`` holds one energy per pair term, in the order the terms
    were given; ``forces`` and ``pressure`` are those of all the terms
    together.  ``energy`` is the first term's, the near field in
    short_range.
    """

    energies: tuple
    forces: np.ndarray
    pressure: np.ndarray
    pair_count: int

    @property
    def energy(self) -> float:
        return self.energies[0]


@dataclass(frozen=True)
class PairTable:
    """Near-field kernel and force weight from one uniform cubic table on [0, r_c].

    Column k of ``coeffs`` holds the cubic pieces of far_field (rows 0-3)
    and fn_weight (rows 4-7) on [k h, (k + 1) h], h = r_c /
    PAIR_TABLE_INTERVALS, highest power first.  Both are smooth, so only
    they are tabulated; the 1/r singularity of the near field
    N(r) = 1/r - far_field(r) is added back exactly.
    """

    r_c: float
    coeffs: np.ndarray  # (8, PAIR_TABLE_INTERVALS): far_field then fn_weight

    def eval(self, r):
        """N(r) and F_N(r) for float arrays 0 < r <= r_c; column k = int(r/h).

        Horner's rule runs in place on one contiguous take of a coefficient
        row at a time: a call holds a few arrays the size of r, never the
        eight coefficients of every pair.
        """
        n = PAIR_TABLE_INTERVALS
        k = np.minimum((r * (n / self.r_c)).astype(np.intp), n - 1)
        t = r - k * (self.r_c / n)

        def horner(rows):
            p = rows[0].take(k)
            for row in rows[1:]:
                p *= t
                p += row.take(k)
            return p

        near = 1.0 / r
        near -= horner(self.coeffs[:4])
        return near, horner(self.coeffs[4:])


def build_pair_table(kern: SplitKernel) -> PairTable:
    """Tabulate far_field and fn_weight as cubic splines on a uniform grid.

    With PAIR_TABLE_INTERVALS = 4096, N(r) stays within 3e-13 of the closed
    form relative to max(|N(r)|, |N(r_c/2)|), and F_N(r) within 3e-14, for
    delta_split from 1e-3 to 1e-12.
    """
    knots = np.linspace(0.0, kern.r_c, PAIR_TABLE_INTERVALS + 1)
    far = CubicSpline(knots, far_field(kern, knots)).c
    # F_N(0) = 1 is a limit; fn_weight takes r > 0 only.
    fn = CubicSpline(knots, fn_weight(kern, np.maximum(knots, 1e-300))).c
    return PairTable(r_c=kern.r_c, coeffs=np.vstack([far, fn]))


def pair_sums(sys: ParticleSystem, neighbors: NeighborList, cutoff: float,
              terms) -> ShortRangeResult:
    """Energy of each pair term, and the forces and pressure of all of them,
    from one pass over the pairs.

    A term maps (i, j, r^2) of listed pairs within ``cutoff`` to energies u
    and force weights f: force_i = sum_j f dr_ij, P = (1/V) sum f dr (x) dr,
    with dr = r_i - r_j (minimum image).  Pairs come from neighbors.pairs in
    chunks of at most chunk_length(N), so temporaries stay bounded; each
    chunk is gathered, imaged and masked once for all terms, and the terms'
    force weights are added up before one accumulation of the forces and
    the virial, whatever the number of terms.  The pass is coordinate-major:
    dr is 3 x n, gathered from the rows of positions^T, and forces add up
    3 x N, one bincount per axis for each end of a pair.
    """
    n = sys.n
    pos = np.ascontiguousarray(sys.positions.T)
    energies = [0.0] * len(terms)
    forces, virial = np.zeros((3, n)), np.zeros((3, 3))
    count = 0
    for i, j in neighbors.pairs(chunk_length(n)):
        count += _add_chunk(energies, forces, virial, terms, sys.cell, pos,
                            cutoff, i, j)
    return ShortRangeResult(energies=tuple(energies), forces=forces.T,
                            pressure=0.5 * (virial + virial.T) / sys.cell.volume,
                            pair_count=count)


def _add_chunk(energies, forces, virial, terms, cell, pos, cutoff, i, j) -> int:
    """Add one chunk of pairs to the sums; return how many were within cutoff.

    A function of its own, so that its temporaries are freed before the
    next chunk is read.
    """
    dr = pos.take(i, axis=1)
    dr -= pos.take(j, axis=1)
    # The orthorhombic image keeps the 3 x n layout; the general one is copied.
    dr = np.ascontiguousarray(minimum_image(cell, dr.T).T)
    r2 = np.einsum("aj,aj->j", dr, dr)
    if np.any(r2 < (1e-12 * cutoff) ** 2):
        bad = int(np.argmin(r2))
        raise SingularPairError(f"coincident particles {i[bad]} and {j[bad]} "
                                f"(r={np.sqrt(r2[bad]):.3e})")
    within = r2 <= cutoff * cutoff
    if not within.all():
        i, j, dr, r2 = i[within], j[within], dr[:, within], r2[within]
    fmag = None
    for k, term in enumerate(terms):
        u, f = term(i, j, r2)
        energies[k] += float(np.sum(u))
        fmag = f if fmag is None else fmag + f
    fdr = dr * fmag
    n = pos.shape[1]
    for a in range(3):
        forces[a] += np.bincount(i, fdr[a], minlength=n)
        forces[a] -= np.bincount(j, fdr[a], minlength=n)
    virial += fdr @ dr.T
    return r2.size


def short_range(sys: ParticleSystem, kern: SplitKernel, neighbors: NeighborList,
                table: PairTable | None = None, extra=None,
                prefactor: float = 1.0) -> ShortRangeResult:
    """Fused near-field pass: energy, forces, and pressure tensor.

    energy  = A sum_{pairs} q_i q_j N^c(r)
    force_i = A sum_j q_i q_j F_N(r) dr_ij / r^3          (repulsive for A qq > 0)
    P_N     = (A/V) sum_{pairs} q_i q_j F_N(r) dr (x) dr / r^3

    with A the Coulomb ``prefactor``, applied to the pair weights.
    ``table=None`` evaluates the closed-form kernel instead.  ``extra``, a
    pair_sums term that takes no prefactor, rides along the same pass: its
    energy is the second of ``energies``, and its forces and pressure are
    added to the near field's.
    """
    scaled, charges = prefactor * sys.charges, sys.charges

    def coulomb(i, j, r2):
        r = np.sqrt(r2)
        qq = scaled.take(i) * charges.take(j)
        if table is not None:
            nvals, fvals = table.eval(r)
        else:
            nvals, fvals = near_field(kern, r), fn_weight(kern, r)
        return qq * nvals, qq * fvals / (r2 * r)

    return pair_sums(sys, neighbors, kern.r_c,
                     [coulomb] if extra is None else [coulomb, extra])

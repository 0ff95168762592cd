"""Particle and cell data model: triclinic cells, wrapping, neighbor search."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.spatial import cKDTree


class CellError(Exception):
    pass


class GeometryError(CellError):
    """Cutoff too large for the cell, or other geometric safety violation."""


def reciprocal_basis(h: np.ndarray) -> np.ndarray:
    """Columns b_1, b_2, b_3 with h_a . b_b = 2 pi delta_ab."""
    h = np.asarray(h, dtype=float)
    det = np.linalg.det(h)
    if det <= 0.0:
        raise CellError("cell matrix must be right-handed with positive volume")
    return 2.0 * np.pi * np.linalg.inv(h).T


@dataclass(frozen=True)
class Cell:
    """Triclinic cell; columns of ``h`` are the cell vectors."""

    h: np.ndarray
    volume: float = field(init=False)
    reciprocal: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).reshape(3, 3)
        object.__setattr__(self, "h", h)
        det = np.linalg.det(h)
        if det <= 0.0:
            raise CellError("cell matrix must be right-handed with positive volume")
        object.__setattr__(self, "volume", float(det))
        object.__setattr__(self, "reciprocal", reciprocal_basis(h))

    @classmethod
    def orthorhombic(cls, lengths) -> "Cell":
        return cls(np.diag(np.asarray(lengths, dtype=float)))

    @property
    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.h, axis=0)

    @property
    def is_orthorhombic(self) -> bool:
        off = self.h - np.diag(np.diag(self.h))
        return bool(np.all(np.abs(off) <= 1e-12 * np.max(np.abs(self.h))))

    def perpendicular_widths(self) -> np.ndarray:
        """Distance between opposite cell faces, per direction."""
        b = self.reciprocal  # |b_a| = 2 pi / width_a
        return 2.0 * np.pi / np.linalg.norm(b, axis=0)

    def fractional(self, positions: np.ndarray) -> np.ndarray:
        return np.asarray(positions) @ np.linalg.inv(self.h).T

    def cartesian(self, fractional: np.ndarray) -> np.ndarray:
        return np.asarray(fractional) @ self.h.T

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        s = self.fractional(positions)
        return self.cartesian(s - np.floor(s))


def minimum_image(cell: Cell, dr: np.ndarray) -> np.ndarray:
    """Image of dr with fractional components in [-1/2, 1/2)."""
    s = cell.fractional(np.asarray(dr, dtype=float))
    s -= np.floor(s + 0.5)
    return cell.cartesian(s)


@dataclass(frozen=True)
class ParticleSystem:
    """Immutable snapshot: wrapped positions, charges, masses, momenta, cell."""

    positions: np.ndarray
    charges: np.ndarray
    cell: Cell
    masses: np.ndarray = None
    momenta: np.ndarray = None

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.shape[0] < 1 or pos.shape[1] != 3:
            raise CellError("positions must be an N x 3 array with N >= 1")
        n = pos.shape[0]
        q = np.asarray(self.charges, dtype=float).reshape(-1)
        if q.size != n:
            raise CellError("charges length must match particle count")
        m = self.masses
        m = np.ones(n) if m is None else np.asarray(m, dtype=float).reshape(-1)
        if m.size != n:
            raise CellError("masses length must match particle count")
        if np.any(m <= 0.0):
            raise CellError("masses must be strictly positive")
        p = self.momenta
        p = np.zeros_like(pos) if p is None else np.asarray(p, dtype=float)
        if p.size != 3 * n:
            raise CellError("momenta must be an N x 3 array")
        p = p.reshape(n, 3)
        for name, arr in (("positions", pos), ("charges", q), ("masses", m),
                          ("momenta", p)):
            if not np.isfinite(arr).all():
                raise CellError(f"{name} must be finite")
        object.__setattr__(self, "positions", self.cell.wrap(pos))
        object.__setattr__(self, "charges", q)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "momenta", p)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def total_charge(self) -> float:
        return float(np.sum(self.charges))

    def with_positions(self, positions, cell: Cell = None) -> "ParticleSystem":
        return ParticleSystem(positions, self.charges, cell or self.cell,
                              self.masses, self.momenta)


@dataclass(frozen=True)
class NeighborList:
    """Pairs with minimum-image distance <= r_c + skin.

    Each unordered pair appears once, with i < j, in an order that is
    deterministic for a given input but not sorted.
    """

    i: np.ndarray
    j: np.ndarray
    r_c: float
    skin: float

    @property
    def n_pairs(self) -> int:
        return self.i.size


def chunk_length(n: int) -> int:
    """Items per chunk of a pass over the pairs or modes of N particles.

    At least N, so that O(N) work per chunk (a bincount over particles)
    stays O(chunk), and at least 2**15, so that per-chunk overhead stays small.
    """
    return max(2**15, n)


def check_cutoff(cell: Cell, r_c: float) -> None:
    if r_c >= 0.5 * np.min(cell.perpendicular_widths()):
        raise GeometryError(
            f"cutoff {r_c} not below half the minimum perpendicular width "
            f"{0.5 * np.min(cell.perpendicular_widths())}")


def build_cell_list(sys: ParticleSystem, r_c: float, skin: float = 0.0) -> NeighborList:
    """Cell-list pair enumeration under the minimum-image convention.

    Each unordered pair within r_c + skin appears exactly once; no pair
    beyond r_c + skin is kept.
    """
    check_cutoff(sys.cell, r_c)
    reach = r_c + skin
    if sys.cell.is_orthorhombic:
        # Periodic k-d tree is exact for the minimum image once the reach is
        # below half the box (guaranteed by check_cutoff above).
        lengths = np.diag(sys.cell.h)
        pos = np.minimum(sys.positions, np.nextafter(lengths, 0.0))
        tree = cKDTree(np.maximum(pos, 0.0), boxsize=lengths)
        pairs = tree.query_pairs(reach, output_type="ndarray")
        return NeighborList(i=pairs[:, 0], j=pairs[:, 1], r_c=float(r_c),
                            skin=float(skin))

    widths = sys.cell.perpendicular_widths()
    nbins = np.maximum(np.floor(widths / reach).astype(int), 1)
    nbins = np.minimum(nbins, 8)  # marginal benefit beyond this at desk scale

    frac = sys.cell.fractional(sys.positions)
    frac -= np.floor(frac)
    bins = np.minimum((frac * nbins).astype(int), nbins - 1)
    flat = (bins[:, 0] * nbins[1] + bins[:, 1]) * nbins[2] + bins[:, 2]

    members: dict[int, np.ndarray] = {}
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    starts = np.searchsorted(sorted_flat, np.arange(nbins.prod() + 1))
    for b in range(nbins.prod()):
        if starts[b + 1] > starts[b]:
            members[b] = order[starts[b]:starts[b + 1]]

    pairs_i, pairs_j = [], []
    seen = set()
    hinv = np.linalg.inv(sys.cell.h)
    for b, idx_a in members.items():
        bx, rem = divmod(b, nbins[1] * nbins[2])
        by, bz = divmod(rem, nbins[2])
        for ox, oy, oz in product((-1, 0, 1), repeat=3):
            nb = ((bx + ox) % nbins[0] * nbins[1] + (by + oy) % nbins[1]) * nbins[2] \
                + (bz + oz) % nbins[2]
            if nb not in members:
                continue
            key = (min(b, nb), max(b, nb))
            if key in seen:
                continue
            seen.add(key)
            idx_b = members[nb]
            if b == nb:
                ii, jj = np.triu_indices(idx_a.size, k=1)
                ci, cj = idx_a[ii], idx_a[jj]
            else:
                ci = np.repeat(idx_a, idx_b.size)
                cj = np.tile(idx_b, idx_a.size)
            dr = sys.positions[ci] - sys.positions[cj]
            s = dr @ hinv.T
            s -= np.floor(s + 0.5)
            dr = s @ sys.cell.h.T
            keep = np.einsum("ij,ij->i", dr, dr) <= reach * reach
            pairs_i.append(np.minimum(ci[keep], cj[keep]))
            pairs_j.append(np.maximum(ci[keep], cj[keep]))

    if pairs_i:
        i = np.concatenate(pairs_i)
        j = np.concatenate(pairs_j)
    else:
        i = j = np.empty(0, dtype=int)
    return NeighborList(i=i, j=j, r_c=float(r_c), skin=float(skin))

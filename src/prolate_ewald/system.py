"""Particle and cell data model: triclinic cells, wrapping, neighbor search.

Every cell is triclinic in general; orthorhombic cells are the diagonal
special case and differ only in how minimum_image is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.spatial import cKDTree


class CellError(Exception):
    pass


class GeometryError(CellError):
    """Cutoff too large for the cell, or other geometric safety violation."""


@dataclass(frozen=True)
class Cell:
    """Triclinic cell; columns of ``h`` are the cell vectors."""

    h: np.ndarray
    volume: float = field(init=False)
    inverse: np.ndarray = field(init=False)
    reciprocal: np.ndarray = field(init=False)   # 2 pi h^-T: h^T b = 2 pi I
    is_orthorhombic: bool = field(init=False)    # off-diagonals within 1e-12 max|h|

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).reshape(3, 3)
        object.__setattr__(self, "h", h)
        if not np.isfinite(h).all():
            raise CellError("cell matrix must be finite")
        det = np.linalg.det(h)
        if det <= 0.0:
            raise CellError("cell matrix must be right-handed with positive volume")
        inverse = np.linalg.inv(h)
        object.__setattr__(self, "volume", float(det))
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "reciprocal", 2.0 * np.pi * inverse.T)
        off = np.abs(h - np.diag(np.diag(h)))
        object.__setattr__(self, "is_orthorhombic",
                           bool(np.all(off <= 1e-12 * np.max(np.abs(h)))))

    @classmethod
    def orthorhombic(cls, lengths) -> "Cell":
        return cls(np.diag(np.asarray(lengths, dtype=float)))

    def perpendicular_widths(self) -> np.ndarray:
        """Distance between opposite cell faces, per direction."""
        b = self.reciprocal  # |b_a| = 2 pi / width_a
        return 2.0 * np.pi / np.linalg.norm(b, axis=0)

    def fractional(self, positions: np.ndarray) -> np.ndarray:
        return np.asarray(positions) @ self.inverse.T

    def cartesian(self, fractional: np.ndarray) -> np.ndarray:
        return np.asarray(fractional) @ self.h.T

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """A copy with the rows outside the cell mapped into it.

        Rows whose fractional coordinates already lie in [0, 1) are left
        bit for bit.  The others map to s - floor(s), with a coordinate that
        rounds up to 1 (s a tiny negative number) set to 0.  h^-1 h is the
        identity only to roundoff, so a row mapped onto a face can still
        read just outside it; such a row is stepped into the cell along
        that face's cell vector, which moves no other fractional coordinate.
        Mapped rows then lie in [0, 1) too, and wrapping again moves nothing.
        """
        pos = np.array(positions, dtype=float)
        s = self.fractional(pos)
        out = np.any((s < 0.0) | (s >= 1.0), axis=1)
        if out.any():
            inside = s[out]
            inside -= np.floor(inside)
            inside[inside == 1.0] = 0.0
            moved = self.cartesian(inside)
            step = 4.0 * np.finfo(float).eps    # doubled until the row moves
            for _ in range(8):
                f = self.fractional(moved)
                shift = (f < 0.0).astype(float) - (f >= 1.0)
                if not shift.any():
                    break
                moved += (step * shift) @ self.h.T
                step *= 2.0
            pos[out] = moved
        return pos


def minimum_image(cell: Cell, dr: np.ndarray) -> np.ndarray:
    """Image of dr with fractional components in [-1/2, 1/2); taken per
    axis in an orthorhombic cell, where the result keeps the memory layout
    of dr (the transpose of a 3 x n array comes back as one)."""
    dr = np.asarray(dr, dtype=float)
    if cell.is_orthorhombic:
        lengths = cell.h.diagonal()
        shift = dr / lengths
        shift += 0.5
        np.floor(shift, out=shift)
        shift *= lengths
        return dr - shift
    s = cell.fractional(dr)
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


@dataclass(frozen=True)
class NeighborList:
    """Pairs with minimum-image distance <= r_c + skin, as the trees found them.

    ``inner`` holds the (i, j) rows of pairs inside the cell, ``cross`` the
    (particle, ghost) pairs across faces (fields i and j, with the distance
    v), and ``owner`` the particle of each ghost.  pairs(step) reads them as
    one list: each unordered pair once, with i < j, in an order that is
    deterministic for a given input but not sorted.  The skin lets a list
    outlive its configuration: npt.integrate reuses one list from step to
    step, across cell rescales too, until a pair outside it could have come
    within r_c.  The pair passes mask every pair to their own cutoff and
    reject a list whose r_c is below it.
    """

    inner: np.ndarray
    cross: np.ndarray
    owner: np.ndarray
    r_c: float
    skin: float

    @property
    def n_pairs(self) -> int:
        return len(self.inner) + len(self.cross)

    def pairs(self, step: int):
        """Yield (i, j) index arrays of at most ``step`` pairs, i < j.

        Ghosts map to their owners one chunk at a time, and a chunk may
        take the last in-cell pairs and the first cross-face pairs, so a
        list of at most ``step`` pairs comes as one chunk.
        """
        for start in range(0, self.n_pairs, step):
            yield self._chunk(start, start + step)

    def _chunk(self, start: int, stop: int):
        k = len(self.inner)
        parts = []
        if start < k:
            parts.append(self.inner[start:stop].T.copy())   # contiguous i, j
        if stop > k:
            rows = self.cross[max(start - k, 0):stop - k]
            ci, cj = rows["i"], self.owner.take(rows["j"])
            parts.append((np.minimum(ci, cj), np.maximum(ci, cj)))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(side) for side in zip(*parts))


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


# One of each pair of opposite lattice shifts n != 0 in {-1, 0, 1}^3: the
# first nonzero component is positive.
_HALF_SHELL = np.array([n for n in product((-1, 0, 1), repeat=3)
                        if n > (0, 0, 0)])


def build_cell_list(sys: ParticleSystem, r_c: float, skin: float = 0.0) -> NeighborList:
    """Pairs within reach = r_c + skin under the minimum-image convention.

    Each unordered pair within reach appears exactly once; no pair beyond
    reach is kept.  check_cutoff holds reach below half of every
    perpendicular width w_d, so at most one image of a pair lies within
    reach, and its fractional components lie in (-1/2, 1/2): the image is
    r_j - r_i + h n with n in {-1, 0, 1}^3 for wrapped positions.
    """
    reach = r_c + skin
    check_cutoff(sys.cell, reach)
    # Pairs inside the cell (n = 0) come from one tree of the positions.
    # A pair across faces pairs r_i with the ghost r_j + h n of one of the
    # 13 half-shell shifts n (the opposite shift gives the same pair with
    # i and j swapped).  A ghost within reach of the cell lies within
    # reach / w_d of each face that n crosses, so only those particles get
    # ghosts, and one tree of all ghosts finds every cross-face pair.
    cell = sys.cell
    tree = cKDTree(sys.positions)
    inner = tree.query_pairs(reach, output_type="ndarray")
    frac = cell.fractional(sys.positions).T
    band = (reach / cell.perpendicular_widths())[:, None]
    # side[d, n_d + 1, p]: whether a shift n_d along axis d keeps the
    # ghost of particle p within reach; n_d = 1 needs p near the low face,
    # n_d = -1 near the high one.  Ghosts come in the order of (shift, p).
    side = np.stack([frac >= 1.0 - band, np.ones_like(frac, dtype=bool),
                     frac <= band], axis=1)
    row = _HALF_SHELL + 1
    shift, owner = np.divmod(np.flatnonzero(side[0, row[:, 0]] & side[1, row[:, 1]]
                                            & side[2, row[:, 2]]), sys.n)
    ghosts = sys.positions[owner] + (_HALF_SHELL @ cell.h.T)[shift]
    cross = tree.sparse_distance_matrix(cKDTree(ghosts), reach,
                                        output_type="ndarray")
    return NeighborList(inner=inner, cross=cross, owner=owner, r_c=float(r_c),
                        skin=float(skin))

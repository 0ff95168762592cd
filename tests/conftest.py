import numpy as np
import pytest

from prolate_ewald import (Cell, ParticleSystem, SplitKernel, build_pswf,
                           solve_bandwidth, tabulate_window)
from prolate_ewald.evaluate import default_order

_BASIS_CACHE = {}


def basis_for(delta=None, c=None):
    """Session-wide cache of PSWF bases keyed by bandwidth."""
    if c is None:
        c = solve_bandwidth(delta)
    key = round(c, 12)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = build_pswf(c)
    return _BASIS_CACHE[key]


def kernel_for(delta, r_c):
    return SplitKernel(basis=basis_for(delta=delta), r_c=r_c)


def window_for(delta, P=None):
    """Spreading window for tolerance delta, of order P or the default."""
    return tabulate_window(basis_for(delta=delta), P or default_order(delta))


def listed_pairs(nl, step=1024):
    """The (i, j) index arrays of a neighbor list, its pairs(step) joined."""
    chunks = list(nl.pairs(step)) or [(np.zeros(0, int), np.zeros(0, int))]
    i, j = (np.concatenate(side) for side in zip(*chunks))
    return i, j


def pair_set(nl):
    """The pairs of a neighbor list as a set of (i, j) tuples."""
    return set(zip(*(side.tolist() for side in listed_pairs(nl))))


def random_neutral_system(n, lengths, seed, charge_style="alternating"):
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths, dtype=float)
    cell = Cell.orthorhombic(lengths)
    pos = rng.uniform(0.0, 1.0, (n, 3)) * lengths
    if charge_style == "alternating":
        q = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        if n % 2:
            q = q - q.sum() / n
    else:
        q = rng.normal(size=n)
        q -= q.mean()
    return ParticleSystem(cell=cell, positions=pos, charges=q)


@pytest.fixture(scope="session")
def basis_c10():
    return basis_for(c=10.0)


@pytest.fixture(scope="session")
def basis_c12():
    return basis_for(c=12.0)

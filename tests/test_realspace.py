"""Short-range pair sum: tables, energies, forces, pressure."""

import itertools

import numpy as np
import pytest

from prolate_ewald.kernel import SplitKernel, fn_weight, near_field
from prolate_ewald.realspace import (SingularPairError, build_pair_table,
                                     short_range)
from prolate_ewald.system import (Cell, NeighborList, ParticleSystem,
                                  build_cell_list, chunk_length,
                                  minimum_image)

from conftest import basis_for, kernel_for, random_neutral_system


def pair_system(d, L=20.0, q=(1.0, -1.0)):
    cell = Cell.orthorhombic([L, L, L])
    pos = np.array([[1.0, 1.0, 1.0], [1.0 + d, 1.0, 1.0]])
    return ParticleSystem(cell=cell, positions=pos,
                          charges=np.array(q, dtype=float))


def images_reference(sys, kern):
    """Direct near-field sum over all images in n in {-1,0,1}^3.

    Valid whenever r_c is below half the smallest box width, so no pair
    interacts through more than one image.
    """
    n = sys.n
    energy = 0.0
    forces = np.zeros((n, 3))
    pressure = np.zeros((3, 3))
    shifts = [sys.cell.h @ np.array(m, dtype=float)
              for m in itertools.product((-1, 0, 1), repeat=3)]
    for a in range(n):
        for b in range(a + 1, n):
            for shift in shifts:
                dr = sys.positions[a] - sys.positions[b] + shift
                r = np.linalg.norm(dr)
                if r >= kern.r_c or r == 0.0:
                    continue
                qq = sys.charges[a] * sys.charges[b]
                energy += qq * near_field(kern, r)
                f = qq * fn_weight(kern, r) / r**3 * dr
                forces[a] += f
                forces[b] -= f
                pressure += np.outer(dr, f)
    return energy, forces, pressure / sys.cell.volume


def dense_reference(sys, kern):
    """All-pairs minimum-image near-field sum with the closed-form kernel."""
    energy = 0.0
    forces = np.zeros((sys.n, 3))
    virial = np.zeros((3, 3))
    for a in range(sys.n - 1):
        dr = minimum_image(sys.cell, sys.positions[a] - sys.positions[a + 1:])
        r = np.linalg.norm(dr, axis=1)
        near = np.flatnonzero(r <= kern.r_c)
        dr, r = dr[near], r[near]
        qq = sys.charges[a] * sys.charges[a + 1 + near]
        energy += np.sum(qq * near_field(kern, r))
        f = (qq * fn_weight(kern, r) / r**3)[:, None] * dr
        forces[a] += f.sum(axis=0)
        forces[a + 1 + near] -= f
        virial += dr.T @ f
    return energy, forces, virial / sys.cell.volume


def table_cases():
    """Kernels over the supported accuracy range, with log-spaced radii."""
    for delta in (1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        for r_c in (0.9, 2.0):
            kern = kernel_for(delta, r_c)
            r = np.geomspace(1e-5 * r_c, r_c, 4000)
            yield kern, build_pair_table(kern), r


class TestBuildPairTable:
    def test_near_field_matches_direct(self, basis_c12):
        kern = SplitKernel(basis=basis_c12, r_c=1.3)
        table = build_pair_table(kern)
        r = np.exp(np.linspace(np.log(1e-5 * kern.r_c), np.log(kern.r_c),
                               10_000))
        got = table.near_field(r)
        want = near_field(kern, r)
        scale = np.maximum(np.abs(want), np.abs(near_field(kern, kern.r_c / 2)))
        assert np.max(np.abs(got - want) / scale) < 1e-10
        for kern, table, r in table_cases():
            want = near_field(kern, r)
            scale = np.maximum(np.abs(want),
                               np.abs(near_field(kern, kern.r_c / 2)))
            assert np.max(np.abs(table.near_field(r) - want) / scale) < 1e-12

    def test_fn_weight_matches_direct(self, basis_c12):
        kern = SplitKernel(basis=basis_c12, r_c=1.3)
        table = build_pair_table(kern)
        r = np.linspace(1e-4, kern.r_c, 10_000)
        assert np.max(np.abs(table.fn_weight(r) - fn_weight(kern, r))) < 1e-10
        for kern, table, r in table_cases():
            assert np.max(np.abs(table.fn_weight(r) - fn_weight(kern, r))) < 1e-12

    def test_zero_beyond_cutoff(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=0.9)
        table = build_pair_table(kern)
        r = np.array([kern.r_c, 1.1 * kern.r_c, 5.0 * kern.r_c])
        assert np.all(table.near_field(r) == 0.0)
        assert np.all(table.fn_weight(r)[1:] == 0.0)


class TestShortRangePair:
    def test_single_pair_energy(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=2.0)
        d = 0.7
        sys = pair_system(d)
        nb = build_cell_list(sys, kern.r_c)
        res = short_range(sys, kern, nb)
        assert res.pair_count == 1
        assert res.energy == pytest.approx(-near_field(kern, d), rel=1e-12)

    def test_single_pair_force_direction(self, basis_c10):
        # Opposite charges attract: force on particle 0 points toward 1.
        kern = SplitKernel(basis=basis_c10, r_c=2.0)
        d = 0.7
        sys = pair_system(d)
        res = short_range(sys, kern, build_cell_list(sys, kern.r_c))
        expected = fn_weight(kern, d) / d**2
        assert res.forces[0] == pytest.approx([expected, 0.0, 0.0], abs=1e-14)
        np.testing.assert_allclose(res.forces[0], -res.forces[1], atol=1e-15)

    def test_beyond_cutoff_is_zero(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=1.5)
        sys = pair_system(3.0)
        res = short_range(sys, kern, build_cell_list(sys, kern.r_c))
        assert res.energy == 0.0
        assert np.all(res.forces == 0.0)
        assert np.all(res.pressure == 0.0)

    def test_coincident_particles_raise(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=1.5)
        cell = Cell.orthorhombic([10.0, 10.0, 10.0])
        pos = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        sys = ParticleSystem(cell=cell, positions=pos,
                             charges=np.array([1.0, -1.0]))
        nb = NeighborList(i=np.array([0]), j=np.array([1]),
                          r_c=kern.r_c, skin=0.0)
        with pytest.raises(SingularPairError):
            short_range(sys, kern, nb)

    def test_table_matches_direct_path(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=1.2)
        table = build_pair_table(kern)
        sys = random_neutral_system(64, [6.0, 6.0, 6.0], seed=4)
        nb = build_cell_list(sys, kern.r_c)
        direct = short_range(sys, kern, nb)
        tabled = short_range(sys, kern, nb, table=table)
        assert tabled.energy == pytest.approx(direct.energy, rel=1e-9)
        np.testing.assert_allclose(tabled.forces, direct.forces,
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(tabled.pressure, direct.pressure,
                                   rtol=1e-8, atol=1e-12)


class TestShortRangeBulk:
    def test_matches_image_sum(self):
        kern = kernel_for(1e-5, 1.4)
        for seed in range(8):
            sys = random_neutral_system(64, [5.0, 6.0, 7.0], seed=seed)
            nb = build_cell_list(sys, kern.r_c)
            res = short_range(sys, kern, nb)
            e_ref, f_ref, p_ref = images_reference(sys, kern)
            assert res.energy == pytest.approx(e_ref, abs=1e-12 * max(1, abs(e_ref)))
            np.testing.assert_allclose(res.forces, f_ref, atol=1e-12)
            np.testing.assert_allclose(res.pressure, p_ref, atol=1e-14)

    def test_chunk_boundaries(self):
        # Enough pairs for at least three chunks; tolerances as above.
        kern = kernel_for(1e-5, 2.5)
        sys = random_neutral_system(1200, [8.0, 8.0, 8.0], seed=21)
        nb = build_cell_list(sys, kern.r_c)
        assert nb.n_pairs > 2 * chunk_length(sys.n)
        res = short_range(sys, kern, nb)
        e_ref, f_ref, p_ref = dense_reference(sys, kern)
        assert res.energy == pytest.approx(e_ref, abs=1e-12 * max(1, abs(e_ref)))
        np.testing.assert_allclose(res.forces, f_ref, atol=1e-12)
        np.testing.assert_allclose(res.pressure, p_ref, atol=1e-14)

    def test_newtons_third_law(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=1.5)
        sys = random_neutral_system(128, [7.0, 7.0, 7.0], seed=11)
        res = short_range(sys, kern, build_cell_list(sys, kern.r_c))
        np.testing.assert_allclose(res.forces.sum(axis=0), 0.0, atol=1e-12)

    def test_pressure_symmetric(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=1.5)
        sys = random_neutral_system(128, [7.0, 8.0, 9.0], seed=12)
        res = short_range(sys, kern, build_cell_list(sys, kern.r_c))
        np.testing.assert_array_equal(res.pressure, res.pressure.T)

    def test_translation_invariance(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=1.5)
        sys = random_neutral_system(64, [6.0, 6.0, 6.0], seed=13)
        base = short_range(sys, kern, build_cell_list(sys, kern.r_c))
        shifted = ParticleSystem(cell=sys.cell,
                                 positions=sys.positions + [1.7, -2.3, 0.9],
                                 charges=sys.charges)
        moved = short_range(shifted, kern, build_cell_list(shifted, kern.r_c))
        assert moved.energy == pytest.approx(base.energy, rel=1e-11)
        np.testing.assert_allclose(moved.forces, base.forces, atol=1e-11)
        np.testing.assert_allclose(moved.pressure, base.pressure, atol=1e-13)

    def test_permutation_invariance(self, basis_c10):
        kern = SplitKernel(basis=basis_c10, r_c=1.5)
        sys = random_neutral_system(64, [6.0, 6.0, 6.0], seed=14)
        base = short_range(sys, kern, build_cell_list(sys, kern.r_c))
        perm = np.random.default_rng(0).permutation(sys.n)
        shuffled = ParticleSystem(cell=sys.cell, positions=sys.positions[perm],
                                  charges=sys.charges[perm])
        res = short_range(shuffled, kern, build_cell_list(shuffled, kern.r_c))
        assert res.energy == pytest.approx(base.energy, rel=1e-11)
        np.testing.assert_allclose(res.forces, base.forces[perm], atol=1e-11)

    def test_forces_are_energy_gradient(self):
        kern = kernel_for(1e-6, 1.3)
        sys = random_neutral_system(16, [5.0, 5.0, 5.0], seed=15)
        nb = build_cell_list(sys, kern.r_c, skin=0.1)
        res = short_range(sys, kern, nb)
        rng = np.random.default_rng(3)
        step = 1e-6
        for idx in rng.choice(sys.n, size=4, replace=False):
            for axis in range(3):
                num = 0.0
                for sign, coef in ((1, 8.0), (-1, -8.0), (2, -1.0), (-2, 1.0)):
                    pos = sys.positions.copy()
                    pos[idx, axis] += sign * step
                    probe = ParticleSystem(cell=sys.cell, positions=pos,
                                           charges=sys.charges)
                    num += coef * short_range(probe, kern, nb).energy
                num /= 12.0 * step
                assert res.forces[idx, axis] == pytest.approx(-num, abs=1e-6)

    def test_pressure_from_box_scaling(self):
        # Diagonal pressure components against dE/dL_a at fixed fractional
        # coordinates, P_aa = -(L_a / V) dE/dL_a.
        kern = kernel_for(1e-6, 1.2)
        lengths = np.array([5.0, 5.5, 6.0])
        sys = random_neutral_system(32, lengths, seed=16)
        frac = sys.positions / lengths
        res = short_range(sys, kern, build_cell_list(sys, kern.r_c))
        step = 1e-6
        for axis in range(3):
            num = 0.0
            for sign, coef in ((1, 8.0), (-1, -8.0), (2, -1.0), (-2, 1.0)):
                L = lengths.copy()
                L[axis] += sign * step
                probe = ParticleSystem(cell=Cell.orthorhombic(L),
                                       positions=frac * L, charges=sys.charges)
                nb = build_cell_list(probe, kern.r_c)
                num += coef * short_range(probe, kern, nb).energy
            num /= 12.0 * step
            want = -lengths[axis] / sys.cell.volume * num
            assert res.pressure[axis, axis] == pytest.approx(want, abs=1e-6)

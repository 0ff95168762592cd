"""Tests for cells, minimum image, particle snapshots, and neighbor search."""

import itertools

import numpy as np
import pytest

from prolate_ewald.system import (Cell, CellError, GeometryError,
                                  ParticleSystem, build_cell_list,
                                  check_cutoff, minimum_image,
                                  reciprocal_basis)


def brute_force_pairs(sys, r_c):
    n = sys.n
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            dr = minimum_image(sys.cell, sys.positions[i] - sys.positions[j])
            if np.linalg.norm(dr) <= r_c:
                pairs.add((i, j))
    return pairs


class TestReciprocalBasis:
    def test_cubic(self):
        b = reciprocal_basis(5.0 * np.eye(3))
        np.testing.assert_allclose(b, 2 * np.pi / 5.0 * np.eye(3), atol=1e-15)

    def test_orthorhombic(self):
        h = np.diag([2.0, 3.0, 4.0])
        b = reciprocal_basis(h)
        np.testing.assert_allclose(b, np.diag(2 * np.pi / np.diag(h)), atol=1e-15)

    def test_random_triclinic_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            h = np.eye(3) * 4.0 + 0.5 * rng.standard_normal((3, 3))
            if np.linalg.det(h) <= 1.0:
                continue
            b = reciprocal_basis(h)
            np.testing.assert_allclose(b.T @ h, 2 * np.pi * np.eye(3),
                                       atol=1e-12)

    def test_singular_cell(self):
        with pytest.raises(CellError):
            Cell(h=np.zeros((3, 3)))

    def test_left_handed_cell(self):
        h = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(CellError):
            Cell(h=h)


class TestMinimumImage:
    def test_zero(self):
        cell = Cell.orthorhombic([10.0, 10.0, 10.0])
        np.testing.assert_array_equal(minimum_image(cell, np.zeros(3)),
                                      np.zeros(3))

    def test_wrap(self):
        cell = Cell.orthorhombic([10.0, 10.0, 10.0])
        np.testing.assert_allclose(minimum_image(cell, [9.5, 0.0, 0.0]),
                                   [-0.5, 0.0, 0.0], atol=1e-14)

    def test_brute_force_images(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            h = np.diag(rng.uniform(4.0, 8.0, 3))
            h += 0.15 * rng.standard_normal((3, 3)) * np.diag(h).mean()
            h = np.triu(h)  # keep det positive and skew moderate
            cell = Cell(h=h)
            dr = rng.uniform(-12.0, 12.0, 3)
            got = minimum_image(cell, dr)
            candidates = [dr + h @ np.array(n)
                          for n in itertools.product(range(-2, 3), repeat=3)]
            best = min(np.linalg.norm(c) for c in candidates)
            # The fractional-rounding image is the unique minimum whenever
            # the minimum lies within half the smallest perpendicular width
            # (the geometric safety precondition); beyond that only the
            # fractional range is guaranteed.
            if best < 0.5 * np.min(cell.perpendicular_widths()):
                assert np.linalg.norm(got) <= best + 1e-12
            s = cell.fractional(got)
            assert np.all(s >= -0.5) and np.all(s < 0.5)

    def test_fractional_component_range(self):
        cell = Cell.orthorhombic([3.0, 5.0, 7.0])
        rng = np.random.default_rng(2)
        dr = rng.uniform(-20, 20, (100, 3))
        s = cell.fractional(minimum_image(cell, dr))
        assert np.all(s >= -0.5) and np.all(s < 0.5)


class TestParticleSystem:
    def test_positions_wrapped(self):
        cell = Cell.orthorhombic([4.0, 4.0, 4.0])
        sys = ParticleSystem(cell=cell, positions=[[5.0, -1.0, 3.0]],
                             charges=[1.0])
        s = cell.fractional(sys.positions)
        assert np.all(s >= 0.0) and np.all(s < 1.0)

    def test_wrapping_idempotent(self):
        cell = Cell.orthorhombic([4.0, 4.0, 4.0])
        rng = np.random.default_rng(3)
        pos = rng.uniform(-9, 9, (20, 3))
        once = cell.wrap(pos)
        np.testing.assert_allclose(cell.wrap(once), once, atol=1e-12)

    def test_mass_validation(self):
        cell = Cell.orthorhombic([4.0, 4.0, 4.0])
        with pytest.raises(CellError):
            ParticleSystem(cell=cell, positions=[[1, 1, 1]], charges=[1.0],
                           masses=[0.0])

    @pytest.mark.parametrize("field, value", [
        ("masses", np.ones(3)),
        ("momenta", np.zeros((3, 3))),
        ("momenta", np.zeros(25)),
    ])
    def test_length_validation(self, field, value):
        cell = Cell.orthorhombic([4.0, 4.0, 4.0])
        pos = np.random.default_rng(0).uniform(0, 4, (8, 3))
        with pytest.raises(CellError, match=field):
            ParticleSystem(cell=cell, positions=pos, charges=np.ones(8),
                           **{field: value})

    @pytest.mark.parametrize("field", ["positions", "charges", "masses",
                                       "momenta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        cell = Cell.orthorhombic([4.0, 4.0, 4.0])
        arrays = {"positions": np.full((4, 3), 1.0), "charges": np.ones(4),
                  "masses": np.ones(4), "momenta": np.zeros((4, 3))}
        arrays[field].reshape(-1)[1] = bad
        with pytest.raises(CellError, match=field):
            ParticleSystem(cell=cell, **arrays)

    def test_single_particle_allowed(self):
        cell = Cell.orthorhombic([4.0, 4.0, 4.0])
        sys = ParticleSystem(cell=cell, positions=[[1, 1, 1]], charges=[0.5])
        assert sys.n == 1
        assert build_cell_list(sys, 1.0).n_pairs == 0


class TestBuildCellList:
    def test_one_pair(self):
        cell = Cell.orthorhombic([10.0, 10.0, 10.0])
        sys = ParticleSystem(cell=cell,
                             positions=[[1.0, 1.0, 1.0], [1.5, 1.0, 1.0]],
                             charges=[1.0, -1.0])
        nl = build_cell_list(sys, 1.0)
        assert nl.i.tolist() == [0] and nl.j.tolist() == [1]

    def test_no_pair_beyond_cutoff(self):
        cell = Cell.orthorhombic([10.0, 10.0, 10.0])
        sys = ParticleSystem(cell=cell,
                             positions=[[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]],
                             charges=[1.0, -1.0])
        assert build_cell_list(sys, 1.0).n_pairs == 0

    def test_against_all_pairs_cubic(self):
        rng = np.random.default_rng(4)
        sys = ParticleSystem(cell=Cell.orthorhombic([8.0, 8.0, 8.0]),
                             positions=rng.uniform(0, 8, (200, 3)),
                             charges=np.ones(200))
        nl = build_cell_list(sys, 2.0)
        got = set(zip(nl.i.tolist(), nl.j.tolist()))
        assert got == brute_force_pairs(sys, 2.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_against_all_pairs_random_cells(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 300))
        lengths = rng.uniform(5.0, 9.0, 3)
        sys = ParticleSystem(cell=Cell.orthorhombic(lengths),
                             positions=rng.uniform(0, 1, (n, 3)) * lengths,
                             charges=np.ones(n))
        r_c = rng.uniform(1.0, 2.2)
        nl = build_cell_list(sys, r_c)
        got = set(zip(nl.i.tolist(), nl.j.tolist()))
        assert got == brute_force_pairs(sys, r_c)

    def test_triclinic_fallback_against_all_pairs(self):
        rng = np.random.default_rng(11)
        h = np.diag([7.0, 8.0, 7.5])
        h[0, 1] = 1.0
        cell = Cell(h=h)
        pos = (rng.uniform(0, 1, (60, 3)) @ h.T)
        sys = ParticleSystem(cell=cell, positions=pos, charges=np.ones(60))
        nl = build_cell_list(sys, 1.8)
        got = set(zip(nl.i.tolist(), nl.j.tolist()))
        assert got == brute_force_pairs(sys, 1.8)

    @pytest.mark.parametrize("h", [np.diag([7.0, 8.0, 7.5]),
                                   [[7.0, 1.0, 0.0], [0.0, 8.0, 0.5],
                                    [0.0, 0.0, 7.5]]],
                             ids=["orthorhombic", "triclinic"])
    def test_pair_order_contract(self, h):
        # Each pair once with i < j, in an order that repeats exactly.
        rng = np.random.default_rng(12)
        cell = Cell(h=np.asarray(h, dtype=float))
        pos = rng.uniform(0, 1, (150, 3)) @ cell.h.T
        sys = ParticleSystem(cell=cell, positions=pos, charges=np.ones(150))
        nl = build_cell_list(sys, 1.8)
        assert nl.n_pairs > 0 and np.all(nl.i < nl.j)
        got = set(zip(nl.i.tolist(), nl.j.tolist()))
        assert len(got) == nl.n_pairs
        assert got == brute_force_pairs(sys, 1.8)
        again = build_cell_list(sys, 1.8)
        np.testing.assert_array_equal(again.i, nl.i)
        np.testing.assert_array_equal(again.j, nl.j)

    def test_cutoff_too_large(self):
        cell = Cell.orthorhombic([4.0, 10.0, 10.0])
        sys = ParticleSystem(cell=cell, positions=[[1, 1, 1]], charges=[1.0])
        with pytest.raises(GeometryError):
            build_cell_list(sys, 2.0)
        with pytest.raises(GeometryError):
            check_cutoff(cell, 2.0)

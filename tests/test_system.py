"""Tests for cells, minimum image, particle snapshots, and neighbor search."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prolate_ewald.system import (Cell, CellError, GeometryError,
                                  ParticleSystem, build_cell_list,
                                  check_cutoff, minimum_image)

from conftest import listed_pairs, pair_set


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
        b = Cell(5.0 * np.eye(3)).reciprocal
        np.testing.assert_allclose(b, 2 * np.pi / 5.0 * np.eye(3), atol=1e-15)

    def test_orthorhombic(self):
        h = np.diag([2.0, 3.0, 4.0])
        b = Cell(h).reciprocal
        np.testing.assert_allclose(b, np.diag(2 * np.pi / np.diag(h)), atol=1e-15)

    def test_random_triclinic_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            h = np.eye(3) * 4.0 + 0.5 * rng.standard_normal((3, 3))
            if np.linalg.det(h) <= 1.0:
                continue
            b = Cell(h).reciprocal
            np.testing.assert_allclose(b.T @ h, 2 * np.pi * np.eye(3),
                                       atol=1e-12)

    def test_singular_cell(self):
        with pytest.raises(CellError):
            Cell(h=np.zeros((3, 3)))

    def test_left_handed_cell(self):
        h = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(CellError):
            Cell(h=h)

    def test_non_finite_cell(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # no numpy RuntimeWarning either
            with pytest.raises(CellError, match="finite"):
                Cell(h=np.eye(3) * np.nan)
            with pytest.raises(CellError, match="finite"):
                Cell.orthorhombic([np.inf, 1.0, 1.0])


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

    def test_orthorhombic_matches_fractional_path(self):
        # An orthorhombic cell takes the image per axis.  It agrees with the
        # fractional-coordinate image of a general cell on random
        # separations, and exact half-box separations map to -L/2.
        rng = np.random.default_rng(5)
        for _ in range(50):
            lengths = rng.uniform(1.0, 20.0, 3)
            cell = Cell.orthorhombic(lengths)
            assert cell.is_orthorhombic
            half = 0.5 * lengths * rng.choice([-1.0, 1.0], (64, 3))
            dr = np.vstack([rng.uniform(-1.5, 1.5, (2000, 3)) * lengths, half])
            got = minimum_image(cell, dr)
            s = cell.fractional(dr)
            s -= np.floor(s + 0.5)
            assert np.all(np.abs(got - cell.cartesian(s)) <= 1e-15 * lengths)
            assert np.all(got >= -0.5 * lengths) and np.all(got < 0.5 * lengths)
            np.testing.assert_array_equal(got[-64:], np.tile(-0.5 * lengths, (64, 1)))

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

    # Fractional coordinates on the cell faces: a tiny negative number, whose
    # s - floor(s) rounds up to 1, negative zero, 1 - 1e-17 (which rounds to
    # 1) and 1, each combined with the others and with interior values.
    FACES = np.array(list(itertools.product(
        (-1e-17, -0.0, 1 - 1e-17, 1.0, 0.3, 0.5), repeat=3)))

    @pytest.mark.parametrize("h", [
        np.diag([7.5, 7.5, 7.5]),
        np.array([[7.5, 1.9, 0.3], [0.0, 7.1, 0.8], [0.0, 0.0, 6.9]])],
        ids=["cubic", "sheared"])
    def test_wrap_on_faces(self, h):
        cell = Cell(h=h)
        for pos in (cell.cartesian(self.FACES), 7.5 * self.FACES):
            once = cell.wrap(pos)
            s = cell.fractional(once)
            assert np.all(s >= 0.0) and np.all(s < 1.0)
            np.testing.assert_array_equal(cell.wrap(once), once)
        # A tiny negative coordinate maps to the low face, not the high one.
        s = cell.fractional(cell.wrap(cell.cartesian([[-1e-17, 0.5, 0.5]])))
        assert s[0, 0] < 1e-15
        if cell.is_orthorhombic:
            np.testing.assert_array_equal(cell.wrap([[-1e-17, 1.0, 1.0]]),
                                          [[0.0, 1.0, 1.0]])

    def test_wrap_near_faces_random_cells(self):
        # Rows within a few roundoffs of a face, where the round trip
        # h (h^-1 r) lands just outside the cell, in random cells.
        rng = np.random.default_rng(8)
        near = (-1e-17, -1.3e-16, -2**-54, -0.0, 1 - 2**-53, 1.0, 1 + 2**-52)
        for trial in range(40):
            h = np.diag(rng.uniform(1.0, 20.0, 3))
            if trial % 2:
                h += np.triu(rng.uniform(-2.0, 2.0, (3, 3)), 1)
            cell = Cell(h=h)
            s = rng.uniform(0.0, 1.0, (500, 3))
            for d in range(3):
                pick = rng.random(500) < 0.5
                s[pick, d] = rng.choice(near, pick.sum())
            pos = cell.cartesian(s)
            once = cell.wrap(pos)
            f = cell.fractional(once)
            assert np.all(f >= 0.0) and np.all(f < 1.0)
            np.testing.assert_array_equal(cell.wrap(once), once)
            kept = np.all((cell.fractional(pos) >= 0.0)
                          & (cell.fractional(pos) < 1.0), axis=1)
            np.testing.assert_array_equal(once[kept], pos[kept])

    @pytest.mark.parametrize("h", [
        np.diag([7.5, 7.5, 7.5]),
        np.array([[7.5, 1.9, 0.3], [0.0, 7.1, 0.8], [0.0, 0.0, 6.9]])],
        ids=["cubic", "sheared"])
    def test_momentum_updates_leave_positions(self, h):
        # integrate replaces the momenta of its snapshot several times a
        # step; re-wrapping positions already in the cell must not move them.
        rng = np.random.default_rng(0)
        sys = ParticleSystem(cell=Cell(h=h), charges=np.zeros(216),
                             positions=rng.uniform(-10, 20, (216, 3)))
        start = sys.positions.copy()
        for _ in range(1000):
            sys = dataclasses.replace(sys, momenta=rng.standard_normal((216, 3)))
        np.testing.assert_array_equal(sys.positions, start)

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
        i, j = listed_pairs(build_cell_list(sys, 1.0))
        assert i.tolist() == [0] and j.tolist() == [1]

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
        got = pair_set(nl)
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
        got = pair_set(nl)
        assert got == brute_force_pairs(sys, r_c)

    def test_triclinic_fallback_against_all_pairs(self):
        rng = np.random.default_rng(11)
        h = np.diag([7.0, 8.0, 7.5])
        h[0, 1] = 1.0
        cell = Cell(h=h)
        pos = (rng.uniform(0, 1, (60, 3)) @ h.T)
        sys = ParticleSystem(cell=cell, positions=pos, charges=np.ones(60))
        nl = build_cell_list(sys, 1.8)
        got = pair_set(nl)
        assert got == brute_force_pairs(sys, 1.8)

    @pytest.mark.parametrize("h, reach_of_width", [
        pytest.param(np.diag([7.0, 8.0, 7.5]), None, id="orthorhombic"),
        pytest.param([[7.0, 1.0, 0.0], [0.0, 8.0, 0.5], [0.0, 0.0, 7.5]], None,
                     id="triclinic"),
        pytest.param([[7.0, 3.15, -3.15], [0.0, 7.0, 3.15], [0.0, 0.0, 7.0]],
                     0.499, id="skewed-upper"),
        pytest.param([[7.0, 0.0, 0.0], [-3.15, 7.0, 0.0], [3.15, 3.15, 7.0]],
                     0.499, id="skewed-lower"),
        pytest.param([[7.0, 3.15, 3.15], [3.15, 7.0, 3.15], [3.15, 3.15, 7.0]],
                     0.35, id="skewed-full"),
    ])
    def test_pair_order_contract(self, h, reach_of_width):
        # Each pair once with i < j, in an order that repeats exactly.  The
        # skewed cells have off-diagonals of 0.45 L and a reach (r_c plus
        # a skin of r_c / 4) close to half the minimum width.
        rng = np.random.default_rng(12)
        cell = Cell(h=np.asarray(h, dtype=float))
        pos = rng.uniform(0, 1, (150, 3)) @ cell.h.T
        sys = ParticleSystem(cell=cell, positions=pos, charges=np.ones(150))
        r_c, skin = 1.8, 0.0
        if reach_of_width is not None:
            reach = reach_of_width * np.min(cell.perpendicular_widths())
            r_c, skin = 0.8 * reach, 0.2 * reach
        nl = build_cell_list(sys, r_c, skin)
        i, j = listed_pairs(nl)
        assert nl.n_pairs > 0 and np.all(i < j)
        got = pair_set(nl)
        assert len(got) == nl.n_pairs
        assert got == brute_force_pairs(sys, r_c + skin)
        again = listed_pairs(build_cell_list(sys, r_c, skin))
        np.testing.assert_array_equal(again[0], i)
        np.testing.assert_array_equal(again[1], j)

    def test_cutoff_too_large(self):
        cell = Cell.orthorhombic([4.0, 10.0, 10.0])
        sys = ParticleSystem(cell=cell, positions=[[1, 1, 1]], charges=[1.0])
        with pytest.raises(GeometryError):
            build_cell_list(sys, 2.0)
        with pytest.raises(GeometryError):
            check_cutoff(cell, 2.0)

    @pytest.mark.parametrize("h", [np.diag([4.0, 10.0, 10.0]),
                                   [[4.0, 1.0, 0.5], [0.0, 10.0, 2.0],
                                    [0.0, 0.0, 10.0]]],
                             ids=["orthorhombic", "triclinic"])
    def test_skin_counts_toward_cutoff(self, h):
        # r_c alone is below half the width; r_c + skin is not.
        cell = Cell(h=np.asarray(h, dtype=float))
        half = 0.5 * np.min(cell.perpendicular_widths())
        sys = ParticleSystem(cell=cell, positions=[[1, 1, 1]], charges=[1.0])
        build_cell_list(sys, 0.9 * half, skin=0.09 * half)
        with pytest.raises(GeometryError):
            build_cell_list(sys, 0.9 * half, skin=0.15 * half)


class TestNeighborListPairs:
    @staticmethod
    def system(h, n, seed):
        cell = Cell(h=np.asarray(h, dtype=float))
        pos = np.random.default_rng(seed).uniform(0, 1, (n, 3)) @ cell.h.T
        return ParticleSystem(cell=cell, positions=pos, charges=np.ones(n))

    @pytest.mark.parametrize("h", [np.diag([6.0, 6.0, 6.0]),
                                   [[6.0, 2.0, -1.5], [0.0, 6.5, 1.0],
                                    [0.0, 0.0, 7.0]]],
                             ids=["cubic", "sheared"])
    def test_chunk_boundaries(self, h):
        # Steps k - 1, k and k + 1 put a chunk boundary just before, on and
        # just after the join of the k in-cell pairs and the cross-face
        # pairs; steps 1 and 7 put many on either side of it.  A list of at
        # most step pairs comes as one chunk.
        sys = self.system(h, 60, seed=30)
        nl = build_cell_list(sys, 1.9)
        k = len(nl.inner)
        assert 2 <= k < nl.n_pairs
        expected = brute_force_pairs(sys, 1.9)
        whole = listed_pairs(nl, nl.n_pairs)
        for step in (1, 7, k - 1, k, k + 1, nl.n_pairs, nl.n_pairs + 5):
            chunks = list(nl.pairs(step))
            assert all(0 < i.size == j.size <= step for i, j in chunks)
            assert len(chunks) == -(-nl.n_pairs // step)   # ceil(n_pairs / step)
            i, j = (np.concatenate(side) for side in zip(*chunks))
            assert np.all(i < j)
            assert i.size == nl.n_pairs == len(expected)
            assert set(zip(i.tolist(), j.tolist())) == expected
            np.testing.assert_array_equal(i, whole[0])
            np.testing.assert_array_equal(j, whole[1])
            again = listed_pairs(build_cell_list(sys, 1.9), step)
            np.testing.assert_array_equal(again[0], i)
            np.testing.assert_array_equal(again[1], j)


# Cells for the search property: diagonal lengths in [5, 8] and, per shape,
# no off-diagonals, upper ones up to 0.2 of the mean length, or all six up
# to 0.45 of it.
SHAPES = {"orthorhombic": 0.0, "triclinic": 0.2, "skewed": 0.45}
FACE = np.nextafter(1.0, 0.0)    # the last fractional coordinate below 1
fractions = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                      st.sampled_from([0.0, FACE]))


class TestSearchProperty:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(shape=st.sampled_from(sorted(SHAPES)),
           lengths=st.lists(st.floats(5.0, 8.0), min_size=3, max_size=3),
           off=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           frac=st.integers(1, 60).flatmap(lambda n: st.lists(
               st.tuples(fractions, fractions, fractions), min_size=n, max_size=n)),
           reach_of_width=st.one_of(st.floats(0.01, 0.499), st.just(0.499)),
           skin_share=st.sampled_from([0.0, 0.25]))
    def test_matches_brute_force(self, shape, lengths, off, frac,
                                 reach_of_width, skin_share):
        # Every pair within reach once, with i < j, and nothing beyond it:
        # from 1 to 60 particles, some on the faces (fractional 0 or FACE),
        # and a reach up to 0.499 of the narrowest width.
        h = np.diag(lengths)
        upper = np.triu_indices(3, 1)
        skew = SHAPES[shape] * np.mean(lengths) * np.asarray(off)
        h[upper] = skew[:3]
        if shape == "skewed":
            h[upper[::-1]] = skew[3:]
        assume(np.linalg.det(h) > 0.1 * np.prod(lengths))
        cell = Cell(h=h)
        sys = ParticleSystem(cell=cell, positions=cell.cartesian(np.array(frac)),
                             charges=np.ones(len(frac)))
        reach = reach_of_width * np.min(cell.perpendicular_widths())
        r_c, skin = (1.0 - skin_share) * reach, skin_share * reach
        nl = build_cell_list(sys, r_c, skin)
        i, j = listed_pairs(nl, 16)
        assert np.all(i < j) and i.size == nl.n_pairs
        got = set(zip(i.tolist(), j.tolist()))
        assert len(got) == nl.n_pairs
        assert got == brute_force_pairs(sys, r_c + skin)

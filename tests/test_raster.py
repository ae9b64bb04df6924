"""Betti and classification rasters, wall extraction, batched against single solves."""

import numpy as np
import pytest

from amoebas import (
    Raster,
    amoeba_grids,
    cell_walls,
    classify,
    lopsided,
    parse_poly,
)
import amoebas.fiber
from amoebas.raster import SENTINEL

HARNACK = parse_poly("z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1", 2)
CUBIC13 = parse_poly("z1^3 + z2^3 + 1.3*z1*z2 + 1", 2)
WINDOW = ((-2.0, -2.0), (2.0, 2.0))


@pytest.fixture(scope="module")
def harnack_grids():
    return amoeba_grids(HARNACK, WINDOW, (27, 27))


def test_raster_validation():
    with pytest.raises(ValueError):
        Raster(WINDOW, (1, 5), np.zeros((1, 5), dtype=int))
    with pytest.raises(ValueError):
        Raster(((0.0, 0.0), (0.0, 1.0)), (4, 4), np.zeros((4, 4), dtype=int))
    with pytest.raises(ValueError):
        Raster(WINDOW, (4, 4), np.zeros((4, 5), dtype=int))


def test_raster_centers_and_cell_size():
    r = Raster(((0.0, -1.0), (1.0, 1.0)), (4, 2), np.zeros((4, 2), dtype=int))
    xs, ys = r.centers()
    assert np.allclose(xs, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(ys, [-0.5, 0.5])
    assert r.cell_size() == (0.25, 1.0)


def test_harnack_counts_are_zero_or_two(harnack_grids):
    betti, tags = harnack_grids
    assert set(np.unique(betti.cells)) == {0, 2}
    assert "ContourInterior" not in set(tags.cells.ravel())


def test_betti_and_tags_are_cellwise_consistent(harnack_grids):
    betti, tags = harnack_grids
    assert np.array_equal(betti.cells == 0, tags.cells == "Complement")
    assert np.all((betti.cells > 0) | (tags.cells == "Complement"))


def test_harnack_raster_inherits_the_swap_symmetry(harnack_grids):
    # the curve is invariant under z1 <-> z2 and the window is symmetric
    betti, _ = harnack_grids
    assert np.array_equal(betti.cells, betti.cells.T)


def test_counts_respect_the_intersection_bound(harnack_grids):
    betti, _ = harnack_grids
    deg = max(sum(a) for a in HARNACK.terms)
    assert betti.cells.max() <= 4 * deg * deg
    small = amoeba_grids(CUBIC13, WINDOW, (9, 9))[0]
    deg = max(sum(a) for a in CUBIC13.terms)
    assert small.cells[small.cells >= 0].max() <= 4 * deg * deg


def test_degenerate_cells_carry_the_sentinel():
    # the amoeba of z1 z2 - 1 is the line w1 + w2 = 0 and every fiber on
    # it is a full circle
    f = parse_poly("z1*z2 - 1", 2)
    betti, tags = amoeba_grids(f, ((-1.0, -1.0), (1.0, 1.0)), (5, 5))
    for i in range(5):
        for j in range(5):
            if i + j == 4:
                assert betti.cells[i, j] == -1
                assert tags.cells[i, j] == "Degenerate"
            else:
                assert betti.cells[i, j] == 0
                assert tags.cells[i, j] == "Complement"


def test_lopsided_grid_never_contradicts_membership():
    betti = amoeba_grids(CUBIC13, WINDOW, (9, 9))[0]
    xs, ys = betti.centers()
    lop = Raster(WINDOW, (9, 9), np.array(
        [[lopsided(CUBIC13, (float(x), float(y))) is not None for y in ys] for x in xs]))
    assert lop.cells.dtype == bool
    assert np.all(betti.cells[lop.cells] == 0)
    assert lop.cells.any()


def test_cell_walls_by_hand():
    cells = np.array([[0, 0, 2], [0, 2, 2], [2, 2, 2]])
    r = Raster(((0.0, 0.0), (3.0, 3.0)), (3, 3), cells)
    walls, zero_walls = cell_walls(r)
    assert walls == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert zero_walls == [(0, 2), (1, 1), (2, 0)]


def test_cell_walls_skip_sentinel_cells():
    cells = np.array([[-1, 0], [2, 2]])
    r = Raster(((0.0, 0.0), (1.0, 1.0)), (2, 2), cells)
    walls, zero_walls = cell_walls(r)
    assert walls == [(0, 1), (1, 1)]
    assert zero_walls == [(1, 1)]


def loop_cell_walls(cells):
    """The neighbor loop cell_walls replaced, kept as its reference."""
    nx, ny = cells.shape
    walls, zero_walls = set(), set()
    for i in range(nx):
        for j in range(ny):
            a = cells[i, j]
            if a < 0:
                continue
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if not (0 <= ii < nx and 0 <= jj < ny):
                    continue
                b = cells[ii, jj]
                if b < 0 or b == a:
                    continue
                walls.add((i, j))
                if a > 0 and b == 0:
                    zero_walls.add((i, j))
    return sorted(walls), sorted(zero_walls)


def test_cell_walls_match_the_neighbor_loop():
    rng = np.random.default_rng(8)
    for _ in range(300):
        nx, ny = (int(v) for v in rng.integers(2, 9, 2))
        # small counts, so that equal neighbors, zero cells and sentinel
        # cells all occur
        cells = rng.integers(SENTINEL, 4, (nx, ny))
        walls, zero_walls = cell_walls(Raster(WINDOW, (nx, ny), cells))
        assert (walls, zero_walls) == loop_cell_walls(cells)
        assert all(type(v) is int for ij in walls + zero_walls for v in ij)
    # an unsigned raster has no sentinel cells, and none along its border
    cells = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    assert cell_walls(Raster(WINDOW, (2, 2), cells)) == loop_cell_walls(cells)


def test_cell_walls_reject_tag_rasters():
    tags = amoeba_grids(CUBIC13, WINDOW, (3, 3))[1]
    with pytest.raises(ValueError):
        cell_walls(tags)


# the acceptance polynomials; a product with the line z1 z2 = 1 whose
# anti-diagonal cells are degenerate among ordinary ones; and a window so
# far down in w2 that pruning leaves the lower rows a restriction in t1
# alone, univariate, with full circles at w1 = 0
STAGED = [
    ("z1^3 + z2^3 + z1*z2 + 1", None, (9, 9)),
    ("z1^3 + z2^3 + 1.3*z1*z2 + 1", None, (9, 9)),
    ("z1^3 + z2^3 - 4*z1*z2 + 1", None, (9, 9)),
    ("z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1", None, (9, 9)),
    ("-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 1.2", None, (9, 9)),
    ("-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 4.9", None, (9, 9)),
    ("(z1*z2 - 1)*(1 + z1 + z2)", ((-1.0, -1.0), (1.0, 1.0)), (9, 9)),
    ("z1^2 + z1 + 1 + z2", ((-1.0, -40.0), (1.0, -30.0)), (5, 3)),
]


@pytest.mark.parametrize("k", range(len(STAGED)))
def test_batched_raster_matches_single_classify(k, monkeypatch):
    text, window, (nx, ny) = STAGED[k]
    if window is None:
        rng = np.random.default_rng(900 + k)
        lo = rng.uniform(-2.5, 0.0, 2)
        window = (tuple(lo), tuple(lo + rng.uniform(1.0, 3.0, 2)))
    f = parse_poly(text, 2)
    # blocks of 10 cells, so that the 81 cells span several blocks
    monkeypatch.setattr(amoebas.fiber, "_BATCH", 10)
    betti, tags = amoeba_grids(f, window, (nx, ny))
    xs, ys = betti.centers()
    seen = set()
    for i in range(nx):
        for j in range(ny):
            pc = classify(f, (float(xs[i]), float(ys[j])))
            count = SENTINEL if pc.tag == "Degenerate" else len(pc.solutions)
            assert (betti.cells[i, j], tags.cells[i, j]) == (count, pc.tag), (i, j)
            seen.add(pc.tag)
    if text.startswith("(z1*z2 - 1)"):
        assert {"Degenerate", "Complement", "Interior"} <= seen
    if text == "z1^2 + z1 + 1 + z2":
        # Degenerate at w1 = 0 (the middle column) in the two pruned rows only
        assert [tags.cells[i, j] == "Degenerate" for i in range(nx) for j in range(ny)] == [
            i == nx // 2 and j < ny - 1 for i in range(nx) for j in range(ny)]

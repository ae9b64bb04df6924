"""Betti, membership, and classification rasters over a log window.

Every cell value is one exact fiber computation at the cell center, so
the resolution is the only accuracy knob.  The cells of a grid are
solved together, in one process, with their root finding batched, and
each cell gets the answer a single ``classify`` call gives.
"""

from __future__ import annotations

import numpy as np

from .fiber import _fibers, _tag

# value stored in Betti cells whose fiber intersection is not finite
SENTINEL = -1


class Raster:
    """A rectangular grid of per-cell values over a log window.

    ``window`` is ((w1_min, w2_min), (w1_max, w2_max)), ``resolution``
    is (nx, ny), and ``cells[i, j]`` holds the value computed at the
    center of cell (i, j), with i indexing w1 upward from the minimum
    and j indexing w2.
    """

    __slots__ = ("window", "resolution", "cells")

    def __init__(self, window, resolution, cells):
        (x0, y0), (x1, y1) = window
        nx, ny = int(resolution[0]), int(resolution[1])
        if nx < 2 or ny < 2:
            raise ValueError("resolution must be at least 2 x 2")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("window must have positive extent")
        cells = np.asarray(cells)
        if cells.shape != (nx, ny):
            raise ValueError(f"cells must have shape {(nx, ny)}, got {cells.shape}")
        self.window = ((float(x0), float(y0)), (float(x1), float(y1)))
        self.resolution = (nx, ny)
        self.cells = cells

    def centers(self):
        """Arrays (xs, ys) of the cell-center coordinates along each axis."""
        (x0, y0), (x1, y1) = self.window
        nx, ny = self.resolution
        xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
        ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
        return xs, ys

    def cell_size(self):
        (x0, y0), (x1, y1) = self.window
        nx, ny = self.resolution
        return ((x1 - x0) / nx, (y1 - y0) / ny)

    def __repr__(self):
        nx, ny = self.resolution
        return f"Raster({nx}x{ny}, window={self.window}, dtype={self.cells.dtype})"


def amoeba_grids(f, window, resolution):
    """One classification pass, two rasters.

    Returns (betti, tags): the Betti raster counts distinct fiber
    solutions per cell (0 exactly on the complement, -1 on degenerate
    cells) and the tag raster stores the four-way classification of the
    same fiber computations, so the two are cell-wise consistent.  A zero
    or monomial f raises DegenerateFiber, as in ``classify``.
    """
    shape = (int(resolution[0]), int(resolution[1]))
    betti = Raster(window, resolution, np.empty(shape, dtype=int))
    tags = Raster(window, resolution, np.empty(shape, dtype="<U15"))
    xs, ys = betti.centers()
    nx, ny = betti.resolution
    points = [(float(xs[i]), float(ys[j])) for i in range(nx) for j in range(ny)]
    for idx, pc in enumerate(map(_tag, _fibers(f, points))):
        i, j = divmod(idx, ny)
        betti.cells[i, j] = SENTINEL if pc.tag == "Degenerate" else len(pc.solutions)
        tags.cells[i, j] = pc.tag
    return betti, tags


def cell_walls(r):
    """Interface cells of a Betti raster.

    Returns
    -------
    (walls, zero_walls)
        ``walls`` lists the cells whose value differs from that of some
        4-neighbor, both values finite; sentinel cells never contribute.
        This is the raster picture of the contour.  ``zero_walls`` keeps
        only the cells with positive count adjacent to a zero cell, the
        raster picture of the amoeba boundary.  Both lists are sorted.
    """
    cells = np.asarray(r.cells)
    if not np.issubdtype(cells.dtype, np.integer):
        raise ValueError("cell walls are defined for Betti rasters")
    # signed, so that the padding reads as sentinel cells for any int dtype
    pad = np.pad(cells.astype(np.int64), 1, constant_values=SENTINEL)
    walls = np.zeros(cells.shape, dtype=bool)
    zero_walls = np.zeros(cells.shape, dtype=bool)
    for b in (pad[2:, 1:-1], pad[:-2, 1:-1], pad[1:-1, 2:], pad[1:-1, :-2]):
        differs = (cells >= 0) & (b >= 0) & (b != cells)
        walls |= differs
        zero_walls |= differs & (cells > 0) & (b == 0)
    return ([tuple(ij) for ij in np.argwhere(walls).tolist()],
            [tuple(ij) for ij in np.argwhere(zero_walls).tolist()])

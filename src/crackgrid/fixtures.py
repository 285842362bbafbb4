"""Desk-scale fixtures: the two-piece runaway plate and the staircase strip."""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, GridGeometry


def _plate(spacing: float, nx: int, ny: int) -> GridGeometry:
    """The (-1,1)x(0,1) plate grid, refused past 50M cells before any array exists."""
    if nx * ny > 50_000_000:
        raise ValueError(f"fixture shape {(nx, ny)} is too large")
    return GridGeometry(origin=(-1.0, 0.0), spacing=spacing, shape=(nx, ny))


def fixture_runaway(n: float, resolution: int = 16) -> GridFunction:
    """Two-piece plate on (-1,1)x(0,1): value 0 left of x=0, n right, crack at x=0.

    The crack line has measure exactly 1, so the energy is (bulk, jump) = (0, 1)
    for every n != 0 regardless of how far the right piece has run.
    """
    if resolution < 2 or resolution % 2:
        raise ValueError(f"resolution must be even and >= 2, got {resolution}")
    nx, ny = resolution, resolution // 2
    geom = _plate(2.0 / resolution, nx, ny)
    values = np.zeros((nx, ny))
    values[nx // 2 :, :] = float(n)
    masks = [np.zeros(geom.face_shape(k), dtype=bool) for k in range(2)]
    masks[0][nx // 2 - 1, :] = True
    return GridFunction(geom, values, masks)


def fixture_staircase(n: int, cells_per_step: int = 1) -> GridFunction:
    """Staircase strip on (-1,1)x(0,1) with n unit-height stairs in (0, 1/n).

    Value 0 for x < 0, i on the i-th stair block (0,1/n) x ((i-1)/n, i/n),
    and n+1 for x > 1/n, with cracks on every inter-region face.  The jump
    measure is exactly 3 - 1/n.  ``cells_per_step`` refines the grid without
    changing the function, so staircases with different n can share one grid.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if cells_per_step < 1:
        raise ValueError(f"cells_per_step must be positive, got {cells_per_step}")
    c = cells_per_step
    m = n * c  # cells per unit length
    nx, ny = 2 * m, m
    geom = _plate(1.0 / m, nx, ny)
    values = np.zeros((nx, ny))
    strip = slice(m, m + c)
    values[strip, :] = np.arange(ny) // c + 1
    values[m + c :, :] = float(n + 1)
    masks = [np.zeros(geom.face_shape(k), dtype=bool) for k in range(2)]
    masks[0][m - 1, :] = True  # x = 0
    masks[0][m + c - 1, :] = True  # x = 1/n
    masks[1][strip, c - 1 : (n - 1) * c : c] = True  # between stairs k and k+1
    return GridFunction(geom, values, masks)

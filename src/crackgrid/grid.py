"""Cell-valued functions on uniform grids with explicit crack faces.

Conventions used throughout the package:

* A grid in dimension d (1 or 2) has ``shape[k]`` cells along axis k, cell
  width ``spacing`` (isotropic), and physical low corner ``origin``.  Cell
  values are stored row-major (C order), one finite float per cell.
* A face is identified by the cell on its lower side: ``FaceId(axis, cell)``
  sits between ``cell`` and ``cell + e_axis``.  Interior faces have both
  cells in the grid; box-boundary faces have exactly one.
* Cracks are a set of interior faces.  The jump set ``J_u`` consists of the
  crack faces whose two adjacent values differ; a crack face with equal
  traces is "healed" and carries no jump measure.
* Measures are the anisotropic face-count ones: a cell has volume
  ``spacing**dim`` and a face has area ``spacing**(dim-1)``.  The perimeter
  of a cell set counts all faces separating inside from outside, including
  faces on the grid box (the ambient-space reduced boundary); the relative
  boundary drops the box faces.
* Traces across an interior face are the two adjacent cell values; across a
  boundary face, the single interior value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

FORMAT_VERSION = 1


class GeometryMismatchError(ValueError):
    """Two objects that must share a grid geometry do not."""


@dataclass(frozen=True)
class GridGeometry:
    """Uniform axis-aligned grid: low corner, isotropic spacing, cells per axis."""

    origin: tuple[float, ...]
    spacing: float
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.shape) not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got shape {self.shape}")
        if len(self.origin) != len(self.shape):
            raise ValueError("origin and shape must have equal length")
        if not (self.spacing > 0) or not math.isfinite(self.spacing):
            raise ValueError(f"spacing must be a positive finite real, got {self.spacing}")
        if any(n < 1 for n in self.shape):
            raise ValueError(f"every axis needs at least one cell, got {self.shape}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def face_area(self) -> float:
        return self.spacing ** (self.dim - 1)

    @property
    def num_cells(self) -> int:
        return math.prod(self.shape)

    def face_shape(self, axis: int) -> tuple[int, ...]:
        """Shape of the array over the interior faces normal to ``axis``."""
        return tuple(n - (k == axis) for k, n in enumerate(self.shape))


@dataclass(frozen=True)
class FaceId:
    """Face between ``cell`` and ``cell + e_axis``; ``cell`` is the lower side."""

    axis: int
    cell: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cell", tuple(int(i) for i in self.cell))

    def upper_cell(self) -> tuple[int, ...]:
        return tuple(c + (1 if k == self.axis else 0) for k, c in enumerate(self.cell))


def face_pairs(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a cell array on the lower and the upper cell of every
    interior face normal to ``axis``."""
    lower = [slice(None)] * arr.ndim
    upper = list(lower)
    lower[axis] = slice(None, -1)
    upper[axis] = slice(1, None)
    return arr[tuple(lower)], arr[tuple(upper)]


def pad_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Copy of ``arr`` with one layer of zeros (False) added at both ends of
    ``axis``: padding a cell mask adds the outside beyond the box, padding
    an interior-face mask adds the two box faces."""
    zeros = np.zeros(arr.shape[:axis] + (1,) + arr.shape[axis + 1:], dtype=arr.dtype)
    return np.concatenate([zeros, arr, zeros], axis=axis)


def crack_masks_from_rows(geom: GridGeometry, rows) -> tuple[np.ndarray, ...]:
    """Per-axis crack masks from ``[axis, i]`` (1D) or ``[axis, i, j]`` (2D)
    rows, each naming an interior face by its lower cell.

    Rows that are not integer rows of that length, name an axis or a face
    outside the grid's interior, or repeat a face raise ValueError.
    """
    masks = tuple(np.zeros(geom.face_shape(k), dtype=bool) for k in range(geom.dim))
    rows = list(rows)
    if rows:
        try:
            arr = np.array(rows)
        except OverflowError as exc:
            raise ValueError(f"crack entry out of range: {exc}") from exc
        if arr.dtype.kind != "i" or arr.shape != (len(rows), geom.dim + 1):
            raise ValueError(f"crack entries must be rows of {geom.dim + 1} integers "
                             f"[axis, cell index per axis]")
        axis, cells = arr[:, 0], arr[:, 1:]
        if np.any((axis < 0) | (axis >= geom.dim)):
            raise ValueError(f"crack axis out of range for dim {geom.dim}")
        # along its own axis the lower cell of an interior face stops one short
        top = np.array(geom.shape) - 1 - (axis[:, None] == np.arange(geom.dim))
        outside = np.any((cells < 0) | (cells > top), axis=1)
        if np.any(outside):
            raise ValueError(f"crack {arr[np.argmax(outside)].tolist()} is not an "
                             f"interior face of shape {geom.shape}")
        for k, mask in enumerate(masks):
            mask[tuple(cells[axis == k].T)] = True
        if sum(int(np.count_nonzero(m)) for m in masks) != len(rows):
            raise ValueError("duplicate crack entries")
    return masks


class GridFunction:
    """Scalar function on a grid plus per-axis masks of its interior crack faces.

    The masks are the stored form of the cracks (see :meth:`crack_mask`);
    the constructor also accepts the cracks as ``FaceId`` objects, and
    :attr:`cracks` derives them back.
    """

    def __init__(self, geom: GridGeometry, values, cracks: Iterable[FaceId] = ()):
        self._init(geom, values, cracks=cracks)

    @classmethod
    def from_masks(cls, geom: GridGeometry, values, masks) -> GridFunction:
        """Function whose cracks are given as one boolean mask per axis over
        the interior faces.  The masks are made read-only and kept, not copied."""
        u = cls.__new__(cls)
        u._init(geom, values, masks=masks)
        return u

    def _init(self, geom: GridGeometry, values, cracks: Iterable[FaceId] = (),
              masks=None) -> None:
        self.geom = geom
        arr = np.asarray(values, dtype=float)
        if arr.size != geom.num_cells:
            raise ValueError(f"expected {geom.num_cells} values, got {arr.size}")
        arr = arr.reshape(geom.shape).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("all values must be finite")
        arr.flags.writeable = False
        self.values = arr
        if masks is None:  # only now that the values fit the geometry
            masks = crack_masks_from_rows(geom, ([f.axis, *f.cell] for f in cracks))
        masks = tuple(np.asarray(m, dtype=bool) for m in masks)
        if [m.shape for m in masks] != [geom.face_shape(k) for k in range(geom.dim)]:
            raise ValueError("crack masks must cover the interior faces of every axis")
        for m in masks:
            m.flags.writeable = False
        self._masks = masks

    @cached_property
    def cracks(self) -> frozenset[FaceId]:
        """The crack faces as ``FaceId`` objects, derived from the masks once."""
        return frozenset(FaceId(axis, idx) for axis, mask in enumerate(self._masks)
                         for idx in np.argwhere(mask).tolist())

    def crack_mask(self, axis: int) -> np.ndarray:
        """Read-only boolean array over interior faces of ``axis`` (True where cracked)."""
        return self._masks[axis]

    def face_delta(self, axis: int) -> np.ndarray:
        """Value difference (upper minus lower) across interior faces of ``axis``."""
        return np.diff(self.values, axis=axis)

    @cached_property
    def _jump_masks(self) -> tuple[np.ndarray, ...]:
        masks = tuple(m & (self.face_delta(k) != 0) for k, m in enumerate(self._masks))
        for m in masks:
            m.flags.writeable = False
        return masks

    def jump_mask(self, axis: int) -> np.ndarray:
        """Read-only mask of the crack faces of ``axis`` whose two traces differ:
        the discrete jump set J_u, computed once per function."""
        return self._jump_masks[axis]

    def jump_measure(self) -> float:
        count = sum(int(np.count_nonzero(self.jump_mask(k))) for k in range(self.geom.dim))
        return count * self.geom.face_area

    def with_values(self, values) -> GridFunction:
        return GridFunction.from_masks(self.geom, values, self._masks)

    def subtract(self, other: GridFunction) -> GridFunction:
        """Pointwise u - other; cracks are the union of both crack sets."""
        require_same_geometry(self.geom, other.geom)
        masks = [a | b for a, b in zip(self._masks, other._masks)]
        return GridFunction.from_masks(self.geom, self.values - other.values, masks)

    def add_on(self, mask: np.ndarray, c: float) -> GridFunction:
        """Add the constant c on the masked cells (a piecewise-constant translation)."""
        vals = self.values.copy()
        vals[np.asarray(mask, dtype=bool)] += c
        return self.with_values(vals)


class CellSet:
    """Subset of grid cells (a discrete set of finite perimeter)."""

    def __init__(self, geom: GridGeometry, mask):
        self.geom = geom
        arr = np.asarray(mask)
        if arr.size != geom.num_cells:
            raise ValueError(f"expected {geom.num_cells} mask entries, got {arr.size}")
        arr = arr.reshape(geom.shape).astype(bool)
        arr.flags.writeable = False
        self.mask = arr

    def volume(self) -> float:
        return int(np.count_nonzero(self.mask)) * self.geom.cell_volume

    def perimeter(self) -> float:
        """Ambient perimeter: faces separating inside from outside or from beyond the box."""
        count = sum(int(np.count_nonzero(self.boundary_faces(k))) for k in range(self.geom.dim))
        return count * self.geom.face_area

    def relative_perimeter(self) -> float:
        """Perimeter relative to the box: interior separating faces only."""
        count = sum(int(np.count_nonzero(self.interior_boundary(k)))
                    for k in range(self.geom.dim))
        return count * self.geom.face_area

    def interior_boundary(self, axis: int) -> np.ndarray:
        """Mask over the interior faces of ``axis`` separating the set from its complement."""
        lower, upper = face_pairs(self.mask, axis)
        return lower ^ upper

    def boundary_faces(self, axis: int) -> np.ndarray:
        """Mask over all faces of ``axis``, box faces included, separating the
        set from its complement or from beyond the box: entry i lies between
        cells i-1 and i, so entries 0 and n are the two box faces."""
        lower, upper = face_pairs(pad_axis(self.mask, axis), axis)
        return lower ^ upper


def require_same_geometry(a: GridGeometry, b: GridGeometry) -> None:
    if a != b:
        raise GeometryMismatchError(f"geometry mismatch: {a} vs {b}")


@dataclass(frozen=True)
class EnergyReport:
    """Bulk p-gradient energy plus jump-set measure."""

    bulk: float
    jump: float
    p: float

    @property
    def total(self) -> float:
        return self.bulk + self.jump

    def as_dict(self) -> dict:
        return {"bulk": self.bulk, "jump": self.jump, "p": self.p, "total": self.total}


def energy(u: GridFunction, p: float = 2.0) -> EnergyReport:
    """Fracture-type energy of u.

    Bulk: every non-crack interior face contributes ``|dv/h|**p * h**dim``
    (the per-axis difference quotient sampled on the face).  Jump: crack
    faces with differing traces count ``h**(dim-1)`` each; healed cracks and
    crack faces never contribute bulk.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    h = u.geom.spacing
    bulk = 0.0
    for k in range(u.geom.dim):
        grad = u.face_delta(k)[~u.crack_mask(k)] / h
        if grad.size:
            bulk += float(np.sum(np.abs(grad) ** p)) * u.geom.cell_volume
    return EnergyReport(bulk=bulk, jump=u.jump_measure(), p=float(p))


def level_set(u: GridFunction, t: float) -> CellSet:
    """Strict superlevel set {u > t} as a cell set."""
    if not math.isfinite(t):
        raise ValueError("level must be finite")
    return CellSet(u.geom, u.values > t)


def boundary_outside_jump(S: CellSet, u: GridFunction) -> float:
    """Measure of the relative reduced boundary of S not lying on the jump set.

    Box-boundary faces are excluded (boundary relative to the grid box), and
    so are crack faces with differing traces.
    """
    require_same_geometry(S.geom, u.geom)
    count = sum(int(np.count_nonzero(S.interior_boundary(k) & ~u.jump_mask(k)))
                for k in range(u.geom.dim))
    return count * u.geom.face_area


def kyfan_distance(u: GridFunction, v: GridFunction) -> float:
    """Ky Fan metric inf{d > 0 : vol(|u - v| > d) <= d} for convergence in measure.

    Computed exactly by scanning the sorted distinct values of |u - v|
    against the cumulative cell volume.
    """
    require_same_geometry(u.geom, v.geom)
    diff = np.abs(u.values - v.values).ravel()
    cell_vol = u.geom.cell_volume
    levels, counts = np.unique(diff, return_counts=True)  # ascending
    # Volume strictly above each candidate threshold.
    above = (diff.size - np.cumsum(counts)) * cell_vol
    # Segment [0, levels[0]): vol above is everything >= levels[0] unless level 0.
    prev = 0.0
    vol_above_prev = diff.size * cell_vol if levels[0] > 0 else above[0]
    for lev, vol in zip(levels, above):
        # On [prev, lev) the exceedance volume is vol_above_prev.
        if vol_above_prev <= prev:
            return prev
        if vol_above_prev < lev:
            return vol_above_prev
        prev = float(lev)
        vol_above_prev = float(vol)
    # Beyond the largest value the exceedance volume is 0.
    return prev


# --- file format -----------------------------------------------------------


def _header(geom: GridGeometry) -> dict:
    return {"version": FORMAT_VERSION, "dim": geom.dim, "origin": list(geom.origin),
            "spacing": geom.spacing, "shape": list(geom.shape)}


def grid_function_to_dict(u: GridFunction) -> dict:
    # axis by axis in C order: the rows come out sorted
    cracks = [[axis, *idx] for axis in range(u.geom.dim)
              for idx in np.argwhere(u.crack_mask(axis)).tolist()]
    return {**_header(u.geom), "values": [float(x) for x in u.values.ravel()],
            "cracks": cracks}


def _geometry_from_header(doc: dict) -> GridGeometry:
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {doc.get('version')!r}")
    geom = GridGeometry(tuple(doc["origin"]), float(doc["spacing"]), tuple(doc["shape"]))
    if doc["dim"] != geom.dim:
        raise ValueError(f"dim field {doc['dim']} disagrees with shape {geom.shape}")
    return geom


def grid_function_from_dict(doc: dict) -> GridFunction:
    geom = _geometry_from_header(doc)
    values = np.asarray(doc["values"], dtype=float)
    # before the masks, which take the header's shape on trust
    if values.size != geom.num_cells:
        raise ValueError(f"expected {geom.num_cells} values, got {values.size}")
    masks = crack_masks_from_rows(geom, doc.get("cracks", []))
    return GridFunction.from_masks(geom, values, masks)


def cell_set_to_dict(S: CellSet) -> dict:
    return {**_header(S.geom), "mask": [int(x) for x in S.mask.ravel()]}


def cell_set_from_dict(doc: dict) -> CellSet:
    geom = _geometry_from_header(doc)
    mask = [int(x) for x in doc["mask"]]
    if any(x not in (0, 1) for x in mask):
        raise ValueError("mask entries must be 0 or 1")
    return CellSet(geom, mask)


def write_json(obj: dict, path) -> None:
    text = json.dumps(obj, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")

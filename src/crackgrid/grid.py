"""Cell-valued functions on uniform grids with explicit crack faces.

Conventions used throughout the package:

* A grid in dimension d (1 or 2) has ``shape[k]`` cells along axis k, cell
  width ``spacing`` (isotropic), and physical low corner ``origin``.  Cell
  values are stored row-major (C order), one finite float per cell.
* A face is identified by the cell on its lower side: the row ``(axis,
  *cell)`` names the face between ``cell`` and ``cell + e_axis``.  Interior
  faces have both cells in the grid; box-boundary faces have exactly one.
* Cracks are a set of interior faces, one boolean mask per axis.  The jump
  set ``J_u`` consists of the crack faces whose two adjacent values differ;
  a crack face with equal traces is "healed" and carries no jump measure.
* Measures are the anisotropic face-count ones: a cell has volume
  ``spacing**dim`` and a face has area ``spacing**(dim-1)``.  The perimeter
  of a cell set counts all faces separating inside from outside, including
  faces on the grid box (the ambient-space reduced boundary); the relative
  boundary drops the box faces.
* Traces across an interior face are the two adjacent cell values; across a
  boundary face, the single interior value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np

FORMAT_VERSION = 1


class GeometryMismatchError(ValueError):
    """Two objects that must share a grid geometry do not."""


class InvariantError(ValueError):
    """A conclusion the package promises failed on valid input.

    Every other ``ValueError`` the package raises is an unmet precondition:
    a bad argument or input file."""


def check_real(name: str, x: float, low: float = 0) -> None:
    """The one range check of a real parameter: ``low < x < inf``."""
    if not low < x < math.inf:
        bound = "positive" if low == 0 else f"above {low}"
        raise ValueError(f"{name} must be {bound} and finite, got {x!r}")


def check_step(step: str, value: float, base: str, base_value: float) -> None:
    """The one check of a step: two lengths, and adding ``value`` moves ``base_value``."""
    check_real(step, value)
    check_real(base, base_value)
    if not base_value + value > base_value:
        raise ValueError(f"{step} {value!r} vanishes next to {base} {base_value!r}")


class Record:
    """Mixin for result dataclasses whose JSON form is their fields.

    ``as_dict`` returns every dataclass field, in order; tuples come out as
    lists and nested records as dicts.
    """

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(x):
    if isinstance(x, Record):
        return x.as_dict()
    if isinstance(x, tuple):  # of one kind of entry: scalars convert in one call
        return [_plain(y) for y in x] if x and isinstance(x[0], tuple) else list(x)
    return x


@dataclass(frozen=True)
class GridGeometry:
    """Uniform axis-aligned grid: low corner, isotropic spacing, cells per axis."""

    origin: tuple[float, ...]
    spacing: float
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        # an integer shape entry, not a truncated float: index() raises TypeError
        object.__setattr__(self, "shape", tuple(operator.index(n) for n in self.shape))
        if len(self.shape) not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got shape {self.shape}")
        if len(self.origin) != len(self.shape):
            raise ValueError("origin and shape must have equal length")
        if not all(math.isfinite(x) for x in self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        check_real("spacing", self.spacing)
        object.__setattr__(self, "spacing", float(self.spacing))  # only a real got here
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


def face_pairs(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a cell array on the lower and the upper cell of every
    interior face normal to ``axis``."""
    lower = [slice(None)] * arr.ndim
    upper = list(lower)
    lower[axis] = slice(None, -1)
    upper[axis] = slice(1, None)
    return arr[tuple(lower)], arr[tuple(upper)]


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only: every array a result holds or hands out goes through here."""
    arr.flags.writeable = False
    return arr


def face_count(masks) -> int:
    """Number of True entries over an iterable of face masks."""
    return sum(int(np.count_nonzero(m)) for m in masks)


def json_numbers(entries, kinds=(int, float)) -> bool:
    """Whether every entry is of ``kinds`` and none a bool, by distinct entry type:
    float() and np.asarray would read ``"1"`` or ``True`` among numbers as numbers."""
    return all(issubclass(t, kinds) and t is not bool for t in set(map(type, entries)))


def crack_masks_from_rows(geom: GridGeometry, rows) -> tuple[np.ndarray, ...]:
    """Per-axis crack masks from ``[axis, i]`` (1D) or ``[axis, i, j]`` (2D)
    rows, each naming an interior face by its lower cell.

    Rows that are not that many integers (a bool is not one), name an axis or a face outside
    the grid's interior, or repeat a face raise ValueError.
    """
    masks = tuple(np.zeros(geom.face_shape(k), dtype=bool) for k in range(geom.dim))
    rows, width = list(rows), geom.dim + 1
    try:
        flat = list(chain.from_iterable(rows))
        ok = set(map(len, rows)) <= {width} and json_numbers(flat, (int, np.integer))
    except TypeError:  # a row that is not a list
        ok = False
    if not ok:
        raise ValueError(f"crack entries must be rows of {width} integers [axis, *cell]")
    try:
        arr = np.fromiter(flat, np.int64, len(flat)).reshape(len(rows), width)
    except OverflowError as exc:
        raise ValueError(f"crack entry out of range: {exc}") from exc
    axis, cells = arr[:, 0], arr[:, 1:]
    if np.any((axis < 0) | (axis >= geom.dim)):
        raise ValueError(f"crack axis out of range for dim {geom.dim}")
    try:  # each face's flat index in its axis's mask, which checks the range
        for k, mask in enumerate(masks):
            faces = np.ravel_multi_index(tuple(cells[axis == k].T), mask.shape)
            mask.reshape(-1)[faces] = True  # a view: the mask is contiguous
    except ValueError:
        # along its own axis the lower cell of an interior face stops one short
        top = np.array(geom.shape) - 1 - (axis[:, None] == np.arange(geom.dim))
        outside = np.any((cells < 0) | (cells > top), axis=1)
        raise ValueError(f"crack {arr[np.argmax(outside)].tolist()} is not an "
                         f"interior face of shape {geom.shape}") from None
    if face_count(masks) != len(rows):
        raise ValueError("duplicate crack entries")
    return masks


class GridFunction:
    """Scalar function on a grid plus per-axis masks of its interior crack faces.

    ``masks`` holds one boolean array per axis over that axis's interior
    faces (see :meth:`crack_mask`); ``None`` means no cracks.  The masks are
    made read-only and kept, not copied.  Crack rows from a file go through
    :func:`crack_masks_from_rows`.
    """

    def __init__(self, geom: GridGeometry, values, masks=None):
        self.geom = geom
        arr = np.array(values, dtype=float, order="C")  # a copy of its own
        if arr.size != geom.num_cells:
            raise ValueError(f"expected {geom.num_cells} values, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("all values must be finite")
        self.values = read_only(arr.reshape(geom.shape))
        if masks is None:  # only now that the values fit the geometry
            masks = [np.zeros(geom.face_shape(k), dtype=bool) for k in range(geom.dim)]
        masks = tuple(np.asarray(m) for m in masks)
        if [(m.dtype, m.shape) for m in masks] != [(np.dtype(bool), geom.face_shape(k))
                                                   for k in range(geom.dim)]:
            raise ValueError("cracks must be one boolean mask per axis over its interior faces")
        self._masks = tuple(map(read_only, masks))

    @cached_property
    def cracks(self) -> frozenset[tuple[int, ...]]:
        """The crack faces as ``(axis, *lower cell)`` rows, derived from the masks once."""
        return frozenset(map(tuple, _crack_rows(self)))

    def crack_mask(self, axis: int) -> np.ndarray:
        """Read-only boolean array over interior faces of ``axis`` (True where cracked)."""
        return self._masks[axis]

    def face_delta(self, axis: int) -> np.ndarray:
        """Value difference (upper minus lower) across interior faces of ``axis``."""
        return np.diff(self.values, axis=axis)

    @cached_property
    def _jump_masks(self) -> tuple[np.ndarray, ...]:
        return tuple(read_only(m & (self.face_delta(k) != 0)) for k, m in enumerate(self._masks))

    def jump_mask(self, axis: int) -> np.ndarray:
        """Read-only mask of the crack faces of ``axis`` whose two traces differ:
        the discrete jump set J_u, computed once per function."""
        return self._jump_masks[axis]

    def jump_faces(self) -> int:
        return face_count(self._jump_masks)

    def jump_measure(self) -> float:
        return self.jump_faces() * self.geom.face_area

    def with_values(self, values) -> GridFunction:
        return GridFunction(self.geom, values, self._masks)

    def subtract(self, other: GridFunction) -> GridFunction:
        """Pointwise u - other; cracks are the union of both crack sets."""
        require_same_geometry(self.geom, other.geom)
        masks = [a | b for a, b in zip(self._masks, other._masks)]
        return GridFunction(self.geom, self.values - other.values, masks)


class CellSet:
    """Subset of grid cells (a discrete set of finite perimeter)."""

    def __init__(self, geom: GridGeometry, mask):
        self.geom = geom
        arr = np.asarray(mask)
        if arr.size != geom.num_cells:
            raise ValueError(f"expected {geom.num_cells} mask entries, got {arr.size}")
        self.mask = read_only(arr.reshape(geom.shape).astype(bool))

    def volume(self) -> float:
        return int(np.count_nonzero(self.mask)) * self.geom.cell_volume


def require_same_geometry(a: GridGeometry, b: GridGeometry) -> None:
    if a != b:
        raise GeometryMismatchError(f"geometry mismatch: {a} vs {b}")


@dataclass(frozen=True)
class EnergyReport(Record):
    """Bulk p-gradient energy plus jump-set measure."""

    bulk: float
    jump: float
    p: float
    total: float  # bulk + jump


def energy(u: GridFunction, p: float = 2.0) -> EnergyReport:
    """Fracture-type energy of u.

    Bulk: every non-crack interior face contributes ``|dv/h|**p * h**dim``
    (the per-axis difference quotient sampled on the face).  Jump: crack
    faces with differing traces count ``h**(dim-1)`` each; healed cracks and
    crack faces never contribute bulk.
    """
    check_real("p", p, low=1)
    h = u.geom.spacing
    bulk = 0.0
    for k in range(u.geom.dim):
        grad = u.face_delta(k)[~u.crack_mask(k)] / h
        bulk += float(np.sum(np.abs(grad) ** p)) * u.geom.cell_volume
    jump = u.jump_measure()
    return EnergyReport(bulk=bulk, jump=jump, p=float(p), total=bulk + jump)


def kyfan_distance(u: GridFunction, v: GridFunction) -> float:
    """Ky Fan metric inf{d > 0 : vol(|u - v| > d) <= d} for convergence in measure.

    Computed exactly from the sorted distinct values of |u - v| and the
    cumulative cell volume: from each distinct level up to the next one the
    volume above is the constant ``above``, so the least admissible d there
    is max(level, above); below the first level the volume above is
    everything.  The distance is the least of these candidates: one that lies
    past its own segment is never less than the next segment's.
    """
    require_same_geometry(u.geom, v.geom)
    diff = np.abs(u.values - v.values).ravel()
    cell_vol = u.geom.cell_volume
    levels, counts = np.unique(diff, return_counts=True)  # ascending
    above = (diff.size - np.cumsum(counts)) * cell_vol  # volume strictly above each level
    return float(np.minimum(diff.size * cell_vol, np.maximum(levels, above)).min())


# --- file format -----------------------------------------------------------


def _header(geom: GridGeometry) -> dict:
    return {"version": FORMAT_VERSION, "dim": geom.dim, "origin": list(geom.origin),
            "spacing": geom.spacing, "shape": list(geom.shape)}


def _crack_rows(u: GridFunction) -> list[list[int]]:
    # axis by axis in C order: the rows come out sorted
    return [[axis, *idx] for axis in range(u.geom.dim)
            for idx in np.argwhere(u.crack_mask(axis)).tolist()]


def grid_function_to_dict(u: GridFunction) -> dict:
    return {**_header(u.geom), "values": u.values.ravel().tolist(),
            "cracks": _crack_rows(u)}


def _geometry_from_header(doc: dict) -> GridGeometry:
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {doc.get('version')!r}")
    origin, spacing, shape = tuple(doc["origin"]), doc["spacing"], tuple(doc["shape"])
    for key, entries in (("origin", origin), ("spacing", (spacing,)), ("shape", shape),
                         ("dim", (doc["dim"],))):
        if not json_numbers(entries):
            raise ValueError(f"{key} must hold JSON numbers, got {doc[key]!r}")
    geom = GridGeometry(origin, float(spacing), shape)
    if doc["dim"] != geom.dim:
        raise ValueError(f"dim field {doc['dim']} disagrees with shape {geom.shape}")
    return geom


def grid_function_from_dict(doc: dict) -> GridFunction:
    geom = _geometry_from_header(doc)
    values = doc["values"]
    if not isinstance(values, list) or not json_numbers(values):
        raise ValueError("values must be a list of JSON numbers")
    # before the masks, which take the header's shape on trust
    if len(values) != geom.num_cells:
        raise ValueError(f"expected {geom.num_cells} values, got {len(values)}")
    masks = crack_masks_from_rows(geom, doc.get("cracks", []))
    return GridFunction(geom, values, masks)


def cell_set_to_dict(S: CellSet) -> dict:
    return {**_header(S.geom), "mask": [int(x) for x in S.mask.ravel()]}


def cell_set_from_dict(doc: dict) -> CellSet:
    geom = _geometry_from_header(doc)
    mask = doc["mask"]
    if not json_numbers(mask, int) or any(x not in (0, 1) for x in mask):
        raise ValueError("mask entries must be the integers 0 or 1")
    return CellSet(geom, mask)

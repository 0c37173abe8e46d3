"""Tessellated geo-referenced map grid and the local metric frame.

The map is a regular lattice of cells in a local east/north frame anchored
at a geographic origin. Geographic coordinates are projected with an
equirectangular approximation about the origin, which is exact to well
under the grid interval for maps up to a few kilometres across.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .world import MapTiles

EARTH_RADIUS_M = 6371008.8  # WGS-84 mean radius

# Relative slack when counting lattice points, so that an extent computed as
# 99.999999999 m at a 10 m interval still yields 11 columns.
_COUNT_EPS = 1e-9

# Most cells :func:`tessellate` lays out (a 2,048 x 2,048 lattice). Memory
# grows with the cell count: the float32 map holds R floats a cell, about
# 537 MB at R = 32 for this many cells, and a built field adds 8 bytes a cell
# (34 MB). Both are computed, not measured. A map is resident only where it
# is built, so a ``simulate`` without heatmaps holds its route corridor's
# cells, not the whole map. The 1 m cells of the default map are 194,481.
MAX_CELLS = 2048 * 2048


class OutOfMapError(ValueError):
    """A point falls outside the lattice hull of the grid."""


class LocalPoint(NamedTuple):
    x: float
    y: float


class GeoRect(NamedTuple):
    """Geographic bounding rectangle in degrees."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float


@dataclass(frozen=True)
class GridMap:
    """Immutable lattice of width x height cells, ``cell_interval`` metres apart.

    Cells are stored row-major: index = row * width + col, col increasing
    east, row increasing north. Cell (0, 0) sits at the geographic origin.
    Descriptor and probability payloads are kept as dense arrays aligned
    with the cell index. A map with ``tiles`` builds its descriptors on
    demand: a cell not yet built holds zero, and ``tiles.built`` alone says
    which are built, so its descriptors are read through
    :meth:`built_descriptors`.
    """

    origin: tuple[float, float]  # (lat, lon) degrees of cell index 0
    cell_interval: float
    width: int
    height: int
    descriptors: np.ndarray | None = None  # (num_cells, R) float32
    probabilities: np.ndarray | None = None  # (num_cells,) float64
    tiles: MapTiles | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.width}x{self.height}")
        if not (math.isfinite(self.cell_interval) and self.cell_interval > 0):
            raise ValueError(f"cell_interval must be positive, got {self.cell_interval}")
        n = self.num_cells
        if self.descriptors is not None:
            if self.descriptors.ndim != 2 or self.descriptors.shape[0] != n:
                raise ValueError("descriptor array must be (num_cells, R)")
        if self.probabilities is not None:
            p = self.probabilities
            if p.shape != (n,):
                raise ValueError("probability array must be (num_cells,)")
            if not np.all(np.isfinite(p)) or np.any(p < 0):
                raise ValueError("probabilities must be finite and non-negative")

    @property
    def num_cells(self) -> int:
        return self.width * self.height

    def __len__(self) -> int:
        return self.num_cells

    def cell_location(self, index: int) -> LocalPoint:
        if not 0 <= index < self.num_cells:
            raise IndexError(f"cell index {index} out of range")
        row, col = divmod(index, self.width)
        return LocalPoint(*self.locations(slice(row, row + 1))[col].tolist())

    def locations(self, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
        """Locations of the cells in grid rows ``rows`` and columns ``cols``
        (default: every row and column) as a (cells, 2) array of
        (x, y) = (col, row) · cell_interval, row-major."""
        col_ids, row_ids = np.meshgrid(np.arange(self.width)[cols], np.arange(self.height)[rows])
        return np.stack([col_ids, row_ids], axis=-1).reshape(-1, 2) * self.cell_interval

    @property
    def extent(self) -> tuple[float, float]:
        """Metric size of the lattice hull (east, north)."""
        return ((self.width - 1) * self.cell_interval, (self.height - 1) * self.cell_interval)

    def contains(self, p: LocalPoint) -> bool:
        ex, ey = self.extent
        return 0.0 <= p.x <= ex and 0.0 <= p.y <= ey

    def built_descriptors(self, rows: slice | None = None, cols: slice | None = None,
                          cells: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """``descriptors`` once the ``cells`` ((row, column) index arrays) in
        grid rows ``rows`` and columns ``cols`` are built, or every cell when
        no window is given: a map whose tiles over the window are not all
        built first builds the missing ones that hold a cell read
        (``MapTiles.ensure``)."""
        if self.tiles is not None:
            self.tiles.ensure(rows, cols, cells)
        return self.descriptors

    def with_descriptors(self, descriptors: np.ndarray) -> "GridMap":
        return replace(self, descriptors=descriptors, tiles=None)

    def with_probabilities(self, probabilities: np.ndarray) -> "GridMap":
        return replace(self, probabilities=probabilities)


def _check_geo(lat: float, lon: float) -> None:
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"non-finite geographic coordinate ({lat}, {lon})")
    if abs(lat) > 90.0 or abs(lon) > 180.0:
        raise ValueError(f"geographic coordinate out of range ({lat}, {lon})")


def geo_to_local(grid: GridMap, lat: float, lon: float) -> LocalPoint:
    """Project (lat, lon) into the map's local east/north frame in metres."""
    _check_geo(lat, lon)
    lat0, lon0 = grid.origin
    x = math.radians(lon - lon0) * EARTH_RADIUS_M * math.cos(math.radians(lat0))
    y = math.radians(lat - lat0) * EARTH_RADIUS_M
    return LocalPoint(x, y)


def local_to_geo(grid: GridMap, p: LocalPoint) -> tuple:
    """Inverse of :func:`geo_to_local`. ``p`` holds scalars or same-shape
    arrays; ``(lat, lon)`` come back in the same form."""
    x = np.asarray(p.x, dtype=np.float64)
    y = np.asarray(p.y, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"non-finite local point {p}")
    lat0, lon0 = grid.origin
    lat = lat0 + np.degrees(np.divide(y, EARTH_RADIUS_M))
    lon = lon0 + np.degrees(np.divide(x, EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon


def geo_distance_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres (haversine, mean Earth radius)."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def corner_cells(
    grid: GridMap, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lattice cell under each point: ``(inside, i, j, tx, ty)``.

    ``inside`` masks points within the hull (non-finite ones are outside).
    For the inside points, in order, ``i``, ``j`` are the column and row of
    the cell's SW corner (index ``j * width + i``) and ``tx``, ``ty`` the
    offsets within it. The column is ``int(x / s)``; far east/north edge
    points belong to the last interior cell.
    """
    ex, ey = grid.extent
    inside = (xs >= 0) & (xs <= ex) & (ys >= 0) & (ys <= ey)
    if not inside.all():  # masking copies, so only mask when a point is off the map
        xs, ys = xs[inside], ys[inside]
    gx = xs / grid.cell_interval
    gy = ys / grid.cell_interval
    i = np.minimum(gx.astype(np.int64), grid.width - 2)
    j = np.minimum(gy.astype(np.int64), grid.height - 2)
    return inside, i, j, gx - i, gy - j


def nearest_cells(grid: GridMap, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Index of the lattice point nearest each point, clamped to the grid;
    halves round to even, as ``round`` does."""
    col = np.clip(np.rint(np.divide(xs, grid.cell_interval)), 0, grid.width - 1).astype(np.int64)
    row = np.clip(np.rint(np.divide(ys, grid.cell_interval)), 0, grid.height - 1).astype(np.int64)
    return row * grid.width + col


def tessellate(bounds: GeoRect, interval: float) -> GridMap:
    """Lay a lattice of cells over ``bounds`` at ``interval`` metres.

    Cell (0, 0) sits on the south-west corner; counts per axis are
    floor(extent / interval) + 1, covering both edges. A lattice of more
    than ``MAX_CELLS`` cells is a ValueError, raised before anything is
    allocated.
    """
    _check_geo(bounds.lat_min, bounds.lon_min)
    _check_geo(bounds.lat_max, bounds.lon_max)
    if not (math.isfinite(interval) and interval > 0):
        raise ValueError(f"interval must be positive, got {interval}")
    if bounds.lat_max <= bounds.lat_min or bounds.lon_max <= bounds.lon_min:
        raise ValueError(f"degenerate bounds {bounds}")
    probe = GridMap((bounds.lat_min, bounds.lon_min), interval, 2, 2)
    ext = geo_to_local(probe, bounds.lat_max, bounds.lon_max)
    cols, rows = ext.x / interval + _COUNT_EPS, ext.y / interval + _COUNT_EPS
    # the first test also rejects an overflowed (or NaN) count before int()
    if not (cols < MAX_CELLS and rows < MAX_CELLS) or (int(cols) + 1) * (int(rows) + 1) > MAX_CELLS:
        raise ValueError(
            f"interval {interval} lays out {(cols + 1) * (rows + 1):.3g} cells over "
            f"{ext.x:.1f}x{ext.y:.1f} m, more than the {MAX_CELLS:,} a map may have"
        )
    width, height = int(cols) + 1, int(rows) + 1
    if width < 2 or height < 2:
        raise ValueError(
            f"bounds span {ext.x:.1f}x{ext.y:.1f} m: fewer than 2x2 cells at interval {interval}"
        )
    return GridMap((bounds.lat_min, bounds.lon_min), interval, width, height)

"""Descriptor-distance measurement model over the map grid.

A ground-view query descriptor is turned into a probability field by a
softmax of negated Euclidean distances to every cell's stored descriptor.
Per-state measurement probabilities are then read off the four lattice
corners around the state, either as their literal sum (``corner-sum``,
the default) or as their bilinearly interpolated value (``bilinear``).
The two modes differ by a state-dependent factor that resampling
normalises away; both are kept selectable because the published model is
stated both ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descriptor import GlobalDescriptor
from .mapgrid import GridMap, corner_cells

MODES = ("corner-sum", "bilinear")

DEFAULT_FLOOR = 1e-12

# Expanded squared distances at or below this share of max ||x||^2 + ||q||^2
# may have cancelled and are recomputed by direct difference. The largest row
# norm keeps the test one scalar compare and only widens the recomputed set.
_CANCEL_RATIO = 1e-4


@dataclass(frozen=True)
class ProbabilityField:
    """Normalised location probabilities over a grid, plus the off-map floor."""

    grid: GridMap
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        p = self.grid.probabilities
        if p is None:
            raise ValueError("field grid must carry probabilities")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()}")
        if not (math.isfinite(self.floor) and self.floor > 0):
            raise ValueError("floor must be a small positive real")

    @property
    def probabilities(self) -> np.ndarray:
        return self.grid.probabilities


def uniform_field(grid: GridMap, floor: float = DEFAULT_FLOOR) -> ProbabilityField:
    p = np.full(grid.num_cells, 1.0 / grid.num_cells)
    return ProbabilityField(grid.with_probabilities(p), floor)


def location_probabilities(
    db_map: GridMap, q: GlobalDescriptor | np.ndarray, floor: float = DEFAULT_FLOOR
) -> ProbabilityField:
    """Softmax of negated descriptor distances over all cells.

    Squared distances are taken in expansion form, ||x||^2 - 2 x.q + ||q||^2,
    over the map's float64 descriptor basis (built once per map), so a query
    costs one matrix-vector product. Rows where the expansion may cancel, at
    or below ``_CANCEL_RATIO`` (max ||x||^2 + ||q||^2), are recomputed by
    direct difference. The softmax uses max-subtraction, so the normalisation
    is stable for any distance scale; smaller distance always means strictly
    larger probability.
    """
    if db_map.descriptors is None:
        raise ValueError("map has no stored descriptors")
    values = q.values if isinstance(q, GlobalDescriptor) else np.asarray(q)
    values = values.astype(np.float64)
    if values.shape != (db_map.descriptors.shape[1],):
        raise ValueError(
            f"query dimension {values.shape} != map descriptor dimension {db_map.descriptors.shape[1]}"
        )
    basis, sq_norms = db_map.descriptor_basis
    qq = float(values @ values)
    d = basis @ values
    d *= -2.0
    d += sq_norms
    d += qq
    near = np.flatnonzero(d <= _CANCEL_RATIO * (float(sq_norms.max()) + qq))
    if near.size:
        diff = basis[near] - values
        d[near] = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(d, out=d)
    np.subtract(d.min(), d, out=d)
    np.exp(d, out=d)
    d /= d.sum()
    return ProbabilityField(db_map.with_probabilities(d), floor)


def measurement_probability(field: ProbabilityField, state, mode: str = "corner-sum") -> float:
    """Measurement probability of one state (Pose or LocalPoint)."""
    x = float(state.x)
    y = float(state.y)
    return float(measurement_probabilities(field, np.array([[x, y]]), mode)[0])


def measurement_probabilities(
    field: ProbabilityField, states: np.ndarray, mode: str = "corner-sum"
) -> np.ndarray:
    """Vectorised measurement probabilities for an (M, >=2) state array.

    Off-map states get the configured floor instead of an error, so the
    filter stays well-defined when particles drift past the map edge.
    """
    if mode not in MODES:
        raise ValueError(f"unknown measurement mode {mode!r}; expected one of {MODES}")
    p = field.probabilities
    states = np.asarray(states, dtype=np.float64)
    inside, sw, tx, ty = corner_cells(field.grid, states[:, 0], states[:, 1])
    out = np.full(inside.shape, field.floor)
    if not inside.any():
        return out
    width = field.grid.width
    corners = np.stack([p[sw], p[sw + 1], p[sw + width], p[sw + width + 1]])
    if mode == "corner-sum":
        out[inside] = corners.sum(axis=0)
    else:
        w = np.stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty])
        out[inside] = (w * corners).sum(axis=0)
    return out


def _contrast_grid(field: ProbabilityField, contrast: str) -> np.ndarray:
    values = field.probabilities.reshape(field.grid.height, field.grid.width)
    if contrast == "exponential":
        values = np.exp(values)
    elif contrast != "linear":
        raise ValueError(f"unknown contrast {contrast!r}")
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-300:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def emit_heatmap(
    field: ProbabilityField,
    contrast: str = "linear",
    csv_path: str | None = None,
    pgm_path: str | None = None,
) -> np.ndarray:
    """Render the field to [0, 1] and optionally write CSV / 16-bit PGM.

    The CSV carries one ``x,y,p`` row per cell in local metres. The PGM is
    binary (P5, maxval 65535) with the northernmost row first so the image
    reads like a map.
    """
    grid = _contrast_grid(field, contrast)
    g = field.grid
    if csv_path is not None:
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write("x,y,p\n")
            for row in range(g.height):
                for col in range(g.width):
                    x = col * g.cell_interval
                    y = row * g.cell_interval
                    fh.write(f"{x:.9g},{y:.9g},{grid[row, col]:.9g}\n")
    if pgm_path is not None:
        samples = np.rint(grid[::-1, :] * 65535).astype(">u2")
        with open(pgm_path, "wb") as fh:
            fh.write(f"P5\n{g.width} {g.height}\n65535\n".encode("ascii"))
            fh.write(samples.tobytes())
    return grid


def read_heatmap_csv(path: str) -> np.ndarray:
    """Parse a heatmap CSV back into its (height, width) value grid."""
    xs, ys, ps = [], [], []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "x,y,p":
            raise ValueError(f"unexpected heatmap header {header!r}")
        for line in fh:
            a, b, c = line.strip().split(",")
            xs.append(float(a))
            ys.append(float(b))
            ps.append(float(c))
    width = len(set(xs))
    height = len(set(ys))
    if width * height != len(ps):
        raise ValueError("heatmap CSV is not a full grid")
    return np.array(ps).reshape(height, width)

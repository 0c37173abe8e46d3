"""Descriptor-distance measurement model over the map grid.

A ground-view query descriptor defines a probability field over the map:
the softmax of negated Euclidean distances to every cell's stored
descriptor. Per-state measurement probabilities are read off the four
lattice corners around the state, either as their literal sum
(``corner-sum``, the default) or as their bilinearly interpolated value
(``bilinear``). The two modes differ by a state-dependent factor that
resampling normalises away; both are kept selectable because the published
model is stated both ways.

The field is lazy. :func:`location_probabilities` only checks the query;
the normalised probabilities over every cell are computed on the first
read of ``ProbabilityField.probabilities``. The particle filter needs only
ratios of them, so :func:`measurement_probabilities` scores just the
distinct corner cells the states touch, as exp(m - d) with m the least of
their distances, and the softmax normaliser Z cancels. The full field, and
with it Z, is built only when a state is off the map (the floor is on the
normalised scale), when a heatmap or ``localize`` reads it, or when a cheap
bound cannot prove that some state scores above the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .config import write_lines, write_records
from .descriptor import GlobalDescriptor
from .mapgrid import GridMap, corner_cells
from .retrieval import distances

MODES = ("corner-sum", "bilinear")

DEFAULT_FLOOR = 1e-12


def _checked(p: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("probabilities must be finite and non-negative")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()}")
    return p


@dataclass(frozen=True)
class ProbabilityField:
    """Normalised location probabilities over a grid, plus the off-map floor.

    Explicit when ``grid`` carries the probabilities. Lazy when ``query``
    is set: ``grid`` is the descriptor map, and ``probabilities`` is the
    softmax field of ``query``, computed and checked on first read.
    """

    grid: GridMap
    floor: float = DEFAULT_FLOOR
    query: np.ndarray | None = None  # (R,) float64, read-only

    def __post_init__(self):
        if not (math.isfinite(self.floor) and self.floor > 0):
            raise ValueError("floor must be a small positive real")
        if self.query is None:
            if self.grid.probabilities is None:
                raise ValueError("field grid must carry probabilities")
            _checked(self.grid.probabilities)

    @cached_property
    def probabilities(self) -> np.ndarray:
        if self.query is None:
            return self.grid.probabilities
        return _checked(_softmax_field(self.grid, self.query))

    @property
    def lazy(self) -> bool:
        """True while the probabilities of a query field are not yet built."""
        return self.query is not None and "probabilities" not in vars(self)


def location_probabilities(
    db_map: GridMap, q: GlobalDescriptor | np.ndarray, floor: float = DEFAULT_FLOOR
) -> ProbabilityField:
    """The lazy softmax field of negated distances from ``q`` to every cell.

    Checks the map and the query (dimension, finite values) and computes
    nothing over the cells; see :class:`ProbabilityField`.
    """
    if db_map.descriptors is None:
        raise ValueError("map has no stored descriptors")
    values = q.values if isinstance(q, GlobalDescriptor) else np.asarray(q)
    values = values.astype(np.float64)  # a private copy
    if values.shape != (db_map.descriptors.shape[1],):
        raise ValueError(
            f"query dimension {values.shape} != map descriptor dimension {db_map.descriptors.shape[1]}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("query descriptor must be finite")
    values.flags.writeable = False
    return ProbabilityField(db_map, floor, values)


def _softmax_field(db_map: GridMap, values: np.ndarray) -> np.ndarray:
    """Softmax of negated descriptor distances (:func:`distances`) over all
    cells. The softmax uses max-subtraction, so the normalisation is stable
    for any distance scale; smaller distance always means strictly larger
    probability.
    """
    d = distances(db_map.built_descriptors(), values)
    np.subtract(d.min(), d, out=d)
    np.exp(d, out=d)
    d /= d.sum()
    return d


def _corner_scores(
    field: ProbabilityField, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Scores exp(m - d) at the four corner cells of each SW corner (i, j),
    over the window of rows and columns the SW corners span plus one of each;
    d is the query distance of a cell, the same bits as in the full field,
    and m the least d among those cells. Each distinct cell is scored once,
    in ascending map order: the SW corners are marked first, and the other
    three corners of each distinct one after. Returns the window's scores
    (flat, row-major), each SW corner's index in them, the window width and
    m; the window, not the map, sets the cost. The map is asked for the
    window's cells (``GridMap.built_descriptors``), which builds the whole
    map first only when a tile under the window is not yet built."""
    grid = field.grid
    i0, j0 = int(i.min()), int(j.min())
    w = int(i.max()) - i0 + 2
    h = int(j.max()) - j0 + 2
    sw = j * w
    sw += i
    sw -= j0 * w + i0
    mark = np.zeros(h * w, dtype=bool)
    mark[sw] = True
    distinct = np.flatnonzero(mark)
    for offset in (1, w, w + 1):
        mark[distinct + offset] = True
    rows, cols = np.nonzero(mark.reshape(-1, w))
    descriptors = grid.built_descriptors(slice(j0, j0 + h), slice(i0, i0 + w))
    d = distances(descriptors[(rows + j0) * grid.width + (cols + i0)], field.query)
    m = float(d.min())
    scores = np.empty(mark.size)
    scores[rows * w + cols] = np.exp(m - d)
    return scores, sw, w, m


def _corner_values(table: np.ndarray, sw: np.ndarray, width: int) -> np.ndarray:
    """(SW, SE, NW, NE) values, (4, M), at SW corners ``sw`` of a row-major
    ``table`` ``width`` wide. Gathered one corner at a time, so no (4, M)
    index array is made. Every index is in the table by construction, so
    ``clip`` changes none and spares ``take`` its buffered bounds check."""
    values = np.empty((4, len(sw)))
    for row, offset in zip(values, (0, 1, width, width + 1)):
        np.take(table, sw + offset, out=row, mode="clip")
    return values


def _combine(corners: np.ndarray, tx: np.ndarray, ty: np.ndarray, mode: str) -> np.ndarray:
    """Per-state value from the (SW, SE, NW, NE) corner values, (4, M).
    The bilinear terms are added one corner at a time, in corner order, so
    no (4, M) weight or product array is made."""
    if mode == "corner-sum":
        return corners.sum(axis=0)
    sx, sy = 1 - tx, 1 - ty
    out = sx * sy * corners[0]
    out += tx * sy * corners[1]
    out += sx * ty * corners[2]
    out += tx * ty * corners[3]
    return out


def measurement_probability(field: ProbabilityField, state, mode: str = "corner-sum") -> float:
    """Measurement probability of one state (Pose or LocalPoint), on the
    normalised scale: the field is built first. The four corners are
    distinct cells, so their sum is at most 1 but may round above it (on a
    2 x 2 map they are every cell); it is capped there."""
    field.probabilities  # builds a lazy field, so the batch path returns probabilities
    meas, _ = measurement_probabilities(field, np.array([[float(state.x), float(state.y)]]), mode)
    return min(float(meas[0]), 1.0)


def measurement_probabilities(
    field: ProbabilityField, states: np.ndarray, mode: str = "corner-sum"
) -> tuple[np.ndarray, bool]:
    """Measurement likelihoods for an (M, >=2) state array, and whether the
    step is degenerate: no state scores above the field's floor.

    The likelihoods are the measurement probabilities times one positive
    factor shared by every state, which weight normalisation removes. The
    factor is exactly 1 whenever the field's probabilities are built (an
    explicit field, one already read, or a fallback below). On a lazy field
    with every state on the map, only the touched corner cells are scored,
    and the factor is Z·e^m (see :func:`_corner_scores`). Every distance is
    at least 0, so Z, the sum of e^-d over the N cells, is at most N, and a
    likelihood above floor·N·e^m proves a probability above the floor. When
    that bound, compared in logs, fails, the full field decides instead.

    Off-map states get the floor instead of an error, so the filter stays
    well-defined when particles drift past the map edge.
    """
    if mode not in MODES:
        raise ValueError(f"unknown measurement mode {mode!r}; expected one of {MODES}")
    states = np.asarray(states, dtype=np.float64)
    grid = field.grid
    inside, i, j, tx, ty = corner_cells(grid, states[:, 0], states[:, 1])
    if field.lazy and inside.size and inside.all():
        scores, sw, w, m = _corner_scores(field, i, j)
        meas = _combine(_corner_values(scores, sw, w), tx, ty, mode)
        top = float(meas.max())
        if top > 0 and math.log(top) > math.log(field.floor) + math.log(grid.num_cells) + m:
            return meas, False
    out = np.full(inside.shape, field.floor)
    if inside.any():
        corners = _corner_values(field.probabilities, j * grid.width + i, grid.width)
        out[inside] = _combine(corners, tx, ty, mode)
    return out, not bool(np.any(out > field.floor))


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
        # the cells lie on a lattice: x strings are formatted once per column, y once per row,
        # and each grid row's cells are written as one string
        xs, ys = ([f"{v:.9g}," for v in (np.arange(n) * g.cell_interval).tolist()]
                  for n in (g.width, g.height))
        rows = ("\n".join([f"{x}{y}{p:.9g}" for x, p in zip(xs, row)]) for y, row in zip(ys, grid.tolist()))
        write_lines(csv_path, chain(["x,y,p"], rows))
    if pgm_path is not None:
        samples = np.rint(grid[::-1, :] * 65535).astype(">u2")
        write_records(pgm_path, f"P5\n{g.width} {g.height}\n65535\n".encode("ascii"), samples)
    return grid

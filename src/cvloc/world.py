"""Synthetic worlds: deterministic local-feature fields over the map.

A world stands in for real imagery. Its feature field is a bank of random
sinusoids of the local position, so features vary smoothly and descriptors
at nearby places stay close while distant places decorrelate. Ground-view
feature sets are the satellite set at the same location with the feature
order rotated by heading (the aggregation is order-invariant, so a correct
pipeline is unaffected) plus a small view-specific offset field that keeps
cross-view matching realistic rather than exact.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .blas import one_thread
from .descriptor import GROUND, SATELLITE, LocalFeatureSet, Pipeline, forward_batch
from .mapgrid import GridMap, OutOfMapError, corner_cells
from .motion import Pose

TWO_PI = 2.0 * math.pi

# A map-build block is whole grid rows (at least one) whose float64 features fit
# MAP_BLOCK_BYTES, ~512 cells at 24 × 16; lattice features go in chunks of
# FEATURE_CHUNK_COLUMNS columns. Blocks, chunks and their temporaries stay in cache.
# Fixed, not derived from the worker count, so the map's bits never depend on the machine.
MAP_BLOCK_BYTES = 3 << 19
FEATURE_CHUNK_COLUMNS = 128
# A map built on demand builds tiles of TILE x TILE cells (see MapTiles).
TILE = 16


@dataclass(frozen=True)
class AliasRegion:
    """Positions within ``radius`` of (dst_x, dst_y) take their features
    from the same offset around (src_x, src_y), producing two distinct
    places with identical descriptors."""

    src_x: float
    src_y: float
    dst_x: float
    dst_y: float
    radius: float


@dataclass(frozen=True)
class Corridor:
    """Ring-shaped feature bias emulating road-like appearance: cells near
    the corridor share a channel with on-road queries, so similarity
    heatmaps light up along it."""

    center_x: float
    center_y: float
    radius: float
    width: float
    gain: float


@dataclass(frozen=True)
class SyntheticWorld:
    """A world's grid and field settings; the ``rng_seed`` of each call picks the realisation."""

    grid: GridMap
    n_features: int = 24
    feature_dim: int = 16
    length_scale: float = 25.0
    view_noise: float = 0.05
    flat: bool = False
    corridor: Corridor | None = None
    aliases: tuple[AliasRegion, ...] = ()

    def __post_init__(self):
        if self.n_features < 1 or self.feature_dim < 1:
            raise ValueError("need at least one feature and one dimension")
        if self.length_scale <= 0:
            raise ValueError("length scale must be positive")


@lru_cache(maxsize=32)
def _field_params(seed: int, n: int, d: int, scale: float, spawn: int, flat: bool):
    """Sinusoid bank parameters: wavevectors, phases. Cached per seed. A flat
    world draws the same numbers and zeroes the wavevectors: every place then
    has the features cos φ."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(spawn,))
    rng = np.random.Generator(np.random.Philox(ss))
    angles = rng.uniform(0.0, TWO_PI, (n, d))
    wavelength = scale * rng.uniform(0.5, 2.0, (n, d))
    mag = TWO_PI / wavelength
    wave = np.stack([mag * np.cos(angles), mag * np.sin(angles)], axis=-1)  # (n, d, 2)
    phase = rng.uniform(0.0, TWO_PI, (n, d))
    return np.zeros_like(wave) if flat else wave, phase


@lru_cache(maxsize=2)
def _column_factors(seed: int, n: int, d: int, scale: float, flat: bool, width: int, interval: float):
    """cos a and sin a of a = kx·x + φ at every lattice column x = col·interval:
    the row-independent half of the map's separable field, (W, n, d) each.
    Cached so that the blocks of one map build share them."""
    wave, phase = _field_params(seed, n, d, scale, 0, flat)
    a = (np.arange(width) * interval)[:, None, None] * wave[..., 0] + phase
    cos_a, sin_a = np.cos(a), np.sin(a)
    cos_a.flags.writeable = sin_a.flags.writeable = False  # shared by every block
    return cos_a, sin_a


def _eval_field(world: SyntheticWorld, positions: np.ndarray, seed: int, spawn: int) -> np.ndarray:
    """(P, 2) positions -> (P, n_features, feature_dim) sinusoid features."""
    wave, phase = _field_params(seed, world.n_features, world.feature_dim, world.length_scale, spawn, world.flat)
    arg = np.einsum("pc,ndc->pnd", positions, wave)
    arg += phase
    return np.cos(arg, out=arg)


def _remap_aliases(world: SyntheticWorld, positions: np.ndarray) -> np.ndarray:
    if not world.aliases:
        return positions
    out = positions.copy()
    for region in world.aliases:
        delta = out - np.array([region.dst_x, region.dst_y])
        with np.errstate(over="ignore"):  # a radius past ~1e154 squares to inf: all inside
            r2 = np.float64(region.radius) ** 2
        mask = np.einsum("ij,ij->i", delta, delta) <= r2
        out[mask] = np.array([region.src_x, region.src_y]) + delta[mask]
    return out


def _apply_corridor(world: SyntheticWorld, feats: np.ndarray, positions: np.ndarray) -> None:
    c = world.corridor
    if c is None:
        return
    r = np.hypot(positions[:, 0] - c.center_x, positions[:, 1] - c.center_y)
    with np.errstate(over="ignore"):  # a width past ~1e154 squares to inf: the full gain everywhere
        w2 = np.float64(c.width) ** 2
    bias = c.gain * np.exp(-((r - c.radius) ** 2) / (2.0 * w2))
    feats[:, :, 0] += bias[:, None]


def _features_at(world: SyntheticWorld, positions: np.ndarray, seed: int, view: str) -> np.ndarray:
    positions = _remap_aliases(world, np.asarray(positions, dtype=np.float64))
    feats = _eval_field(world, positions, seed, spawn=0)
    if view == GROUND and world.view_noise > 0:
        noise = _eval_field(world, positions, seed, spawn=1)
        noise *= world.view_noise
        feats += noise
    _apply_corridor(world, feats, positions)
    return feats


def pose_features(world: SyntheticWorld, poses: np.ndarray, rng_seed: int, view: str = GROUND) -> np.ndarray:
    """(P, 3) poses (x, y, theta) -> (P, N, D) local features, one set per pose.

    The seed selects the field realisation; the same (pose, seed) always
    produces the same output, whatever the other poses of the batch. Ground-view
    sets are additionally rolled by heading, exercising the order-invariance
    of the aggregation stage. Every pose must lie on the map.
    """
    poses = np.asarray(poses, dtype=np.float64).reshape(-1, 3)
    xy = np.ascontiguousarray(poses[:, :2])
    on_map = (xy >= 0.0) & (xy <= world.grid.extent)
    if not on_map.all():
        x, y = xy[np.argmin(on_map.all(axis=1))]
        raise OutOfMapError(f"pose ({x}, {y}) outside world bounds")
    feats = _features_at(world, xy, rng_seed, view)
    if view == GROUND:
        theta, n = poses[:, 2], world.n_features
        if not np.isfinite(theta).all():
            raise ValueError(f"pose heading {theta[~np.isfinite(theta)][0]} is not finite")
        shift = np.rint(theta % TWO_PI / TWO_PI * n).astype(np.int64)
        # np.roll of each set by its shift, as one gather
        feats = feats[np.arange(len(feats))[:, None], (np.arange(n) - shift[:, None]) % n]
    if not np.isfinite(feats).all():
        raise ValueError("features must be finite")
    return feats


def synth_features(world: SyntheticWorld, pose: Pose, rng_seed: int, view: str = GROUND) -> LocalFeatureSet:
    """Deterministic local features for one pose: :func:`pose_features` of one."""
    return LocalFeatureSet(pose_features(world, np.array([pose.x, pose.y, pose.theta]), rng_seed, view)[0], view)


def satellite_cell_features(world: SyntheticWorld, rng_seed: int, rows: slice = slice(None),
                            cols: slice = slice(None)) -> np.ndarray:
    """Features of the cells in grid rows ``rows`` and columns ``cols``
    (default: every row and column): (cells, N, D), row-major like
    ``GridMap.locations``.

    Cells sit on a lattice, x = col·s and y = row·s, so each sinusoid splits
    as cos(a + b) = cos a·cos b − sin a·sin b with a = kx·x + φ per column and
    b = ky·y per row: (W + H)·N·D trig calls instead of W·H·N·D. Each cell is
    the same elementwise formula whatever the slices, so it has the same
    bits. Cells that an alias region remaps off the lattice take the direct
    path; the corridor is additive and applied per cell either way. A flat
    world's zero wavevectors give cos φ on this path too.
    """
    grid = world.grid
    positions = grid.locations(rows, cols)
    wave, _ = _field_params(rng_seed, world.n_features, world.feature_dim, world.length_scale, 0, world.flat)
    cos_a, sin_a = (f[cols] for f in _column_factors(rng_seed, world.n_features, world.feature_dim,
                                                      world.length_scale, world.flat, grid.width,
                                                      grid.cell_interval))
    width = len(cos_a)
    b = positions[::width, 1, None, None] * wave[..., 1]  # (rows, N, D)
    tmp = np.empty_like(cos_a[:FEATURE_CHUNK_COLUMNS])
    feats = np.empty((len(b),) + cos_a.shape)
    for c in range(0, width, FEATURE_CHUNK_COLUMNS):
        chunk = slice(c, c + FEATURE_CHUNK_COLUMNS)
        for out, cos_b, sin_b in zip(feats[:, chunk], np.cos(b), np.sin(b)):
            np.multiply(cos_a[chunk], cos_b, out=out)
            out -= np.multiply(sin_a[chunk], sin_b, out=tmp[: len(out)])
    feats = feats.reshape((-1,) + wave.shape[:2])
    _apply_corridor(world, feats, positions)
    if world.aliases:
        moved = np.any(_remap_aliases(world, positions) != positions, axis=1)
        if moved.any():
            feats[moved] = _features_at(world, positions[moved], rng_seed, SATELLITE)
    return feats


def sets_per_block(world: SyntheticWorld) -> int:
    """Feature sets whose float64 features fit MAP_BLOCK_BYTES, at least one."""
    return max(1, MAP_BLOCK_BYTES // (world.n_features * world.feature_dim * 8))


def _blocks(world: SyntheticWorld, rows: slice, cols: slice | None = None) -> list[tuple[slice, ...]]:
    """The map-build blocks of grid rows ``rows`` over columns ``cols``
    (default: every column): whole rows of that span whose float64 features
    fit ``MAP_BLOCK_BYTES``, at least one row each. A block is the trailing
    arguments of :func:`satellite_cell_features`: its rows, then its columns
    unless it spans the map."""
    span = () if cols is None else (cols,)
    step = max(1, sets_per_block(world) // (world.grid.width if cols is None else cols.stop - cols.start))
    return [(slice(r, min(r + step, rows.stop)), *span) for r in range(rows.start, rows.stop, step)]


def _build(world: SyntheticWorld, pipeline: Pipeline, rng_seed: int, out: np.ndarray,
           blocks: list[tuple[slice, ...]]) -> None:
    """Run the :func:`_blocks` ``blocks`` through the pipeline into their
    cells of the (num_cells, R) float32 array ``out``.

    Block i goes to worker i mod workers, one per CPU and the calling thread
    first, with OpenBLAS on one thread; each block writes only its own cells
    and is checked finite as it is stored. A ValueError names the first
    non-finite block in list order.
    """
    grid = world.grid
    cells = out.reshape(grid.height, grid.width, -1)
    bad = []

    def build(share: list[tuple[int, tuple[slice, ...]]]) -> None:
        for index, block in share:
            stored = cells[block]
            # the block's float64 descriptors are freed once stored, before the next block's features
            stored[:] = forward_batch(pipeline, satellite_cell_features(world, rng_seed, *block),
                                      SATELLITE).reshape(stored.shape)
            # checked as stored: a finite float64 value can still overflow float32
            if not np.all(np.isfinite(stored)):
                bad.append(index)

    with one_thread() as pinned:
        workers = max(1, min(len(os.sched_getaffinity(0)), len(blocks))) if pinned else 1
        indexed = list(enumerate(blocks))
        shares = [indexed[i::workers] for i in range(workers)]
        build(shares[0][:1])  # alone: caches the lattice factors
        with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # threads start on submit only
            futures = [pool.submit(build, share) for share in shares[1:]]
            build(shares[0][1:])
            for f in futures:
                f.result()
    if bad:
        rows, *cols = blocks[min(bad)]
        where = "".join(f", columns {c.start}..{c.stop - 1}" for c in cols)
        raise ValueError(f"non-finite map descriptors in grid rows {rows.start}..{rows.stop - 1}{where}")


class MapTiles:
    """The build state of a descriptor map whose cells are built on demand,
    in tiles of ``TILE`` × ``TILE`` cells (narrower at the north and east
    edges): ``built`` marks the tiles whose cells are built into
    ``descriptors``, which holds NaN everywhere else.

    :meth:`build_route` builds the tiles around a route. Any other read goes
    through ``GridMap.built_descriptors``, which calls :meth:`ensure`: that
    is a lookup in ``built`` while the cells read lie in built tiles, and
    otherwise builds the whole map, once, in the row blocks of
    :func:`build_descriptor_map`. Only the cells built are checked finite.
    """

    def __init__(self, world: SyntheticWorld, pipeline: Pipeline, rng_seed: int, descriptors: np.ndarray):
        grid = world.grid
        self.world, self.pipeline, self.rng_seed, self.descriptors = world, pipeline, rng_seed, descriptors
        self.built = np.zeros((-(-grid.height // TILE), -(-grid.width // TILE)), dtype=bool)

    def ensure(self, rows: slice | None = None, cols: slice | None = None) -> None:
        """Build the whole map unless every tile over grid rows ``rows`` and
        columns ``cols`` (default: every cell) is built."""
        tiles = self.built if rows is None else self.built[
            rows.start // TILE : (rows.stop - 1) // TILE + 1, cols.start // TILE : (cols.stop - 1) // TILE + 1]
        if not tiles.all():
            _build(self.world, self.pipeline, self.rng_seed, self.descriptors,
                   _blocks(self.world, slice(0, self.world.grid.height)))
            self.built[:] = True

    def build_route(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Build the corridor of the route through the points (xs, ys), each
        on the map: every tile that holds one of a point's four corner cells
        (``corner_cells``), and one ring of tiles around them."""
        grid = self.world.grid
        _, i, j, _, _ = corner_cells(grid, np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
        corners = np.zeros_like(self.built)
        for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
            corners[(j + dj) // TILE, (i + di) // TILE] = True
        padded, (h, w) = np.pad(corners, 1), corners.shape
        todo = np.zeros_like(corners)
        for dy in range(3):
            for dx in range(3):
                todo |= padded[dy : dy + h, dx : dx + w]
        todo &= ~self.built
        blocks = []
        for r, row in enumerate(todo):
            rows = slice(r * TILE, min((r + 1) * TILE, grid.height))
            edges = np.flatnonzero(np.diff(row, prepend=False, append=False))  # each run's start and stop
            for c0, c1 in edges.reshape(-1, 2) * TILE:  # a run of adjacent tiles is one column span
                blocks += _blocks(self.world, rows, slice(c0, min(c1, grid.width)))
        _build(self.world, self.pipeline, self.rng_seed, self.descriptors, blocks)
        self.built |= todo


def tiled_descriptor_map(world: SyntheticWorld, pipeline: Pipeline, rng_seed: int) -> GridMap:
    """The world's satellite descriptor map with no cell built yet: float32
    NaN descriptors whose :class:`MapTiles` build them on demand."""
    grid = world.grid
    # filled here, in the calling thread: map pages first touched by a worker slowed later reads
    out = np.full((grid.num_cells, pipeline.satellite.reduction.out_dim), np.nan, dtype=np.float32)
    return replace(grid, descriptors=out, tiles=MapTiles(world, pipeline, rng_seed, out))


def build_descriptor_map(world: SyntheticWorld, pipeline: Pipeline, rng_seed: int) -> GridMap:
    """Run every cell's satellite features through the pipeline and store
    the descriptors on the grid (float32, matching the database format).

    The map is built in blocks of whole grid rows whose float64 features fit
    ``MAP_BLOCK_BYTES`` (one row if larger), so a block stays in cache and peak
    memory does not grow with the map beyond the float32 output itself; see
    :func:`_build` for the workers.
    """
    db_map = tiled_descriptor_map(world, pipeline, rng_seed)
    db_map.built_descriptors()
    return db_map

"""Small helpers shared by several test files: a seeded generator, a uniform
field, the corner indices of one point, a trajectory writer, the per-pose
ground-view oracle, numpy's OpenBLAS thread-count functions, the golden
assertion that names the library versions and a reader whose header or
body read stops short."""

from __future__ import annotations

import ctypes
import io
import math
import platform

import numpy as np

from cvloc.descriptor import GROUND, Pipeline, forward_batch
from cvloc.mapgrid import GridMap, LocalPoint, OutOfMapError, corner_cells
from cvloc.measurement import DEFAULT_FLOOR, ProbabilityField
from cvloc.motion import Pose
from cvloc.world import TWO_PI, SyntheticWorld, _features_at

# numpy's bundled OpenBLAS; the map build and a batch kNN pin it to one
# thread, and the map build runs on one worker where it lacks these functions
OPENBLAS = ctypes.CDLL(np.linalg._umath_linalg.__file__)
POOLED = hasattr(OPENBLAS, "scipy_openblas_get_num_threads64_")
if POOLED:
    OPENBLAS.scipy_openblas_get_num_threads64_.argtypes = []
    OPENBLAS.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    OPENBLAS.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    OPENBLAS.scipy_openblas_set_num_threads64_.restype = None

# The versions with which every golden hash in tests/test_world.py,
# tests/test_retrieval.py and tests/test_simulate.py was last checked. A hash
# rests on numpy's summation orders and its bundled OpenBLAS, so a mismatch
# under other versions points at the library before the program.
GOLDEN_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}


def library_versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def assert_golden(got, want, what: str) -> None:
    """Assert an output's recorded hash (or table of hashes) is unchanged;
    a mismatch names the versions the hash was checked with and those in use."""
    assert got == want, (
        f"{what} changed: got {got}, recorded {want}; "
        f"recorded with {GOLDEN_VERSIONS}, running {library_versions()}"
    )


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical seeds yield identical streams."""
    return np.random.Generator(np.random.Philox(seed))


def uniform_field(grid: GridMap, floor: float = DEFAULT_FLOOR) -> ProbabilityField:
    p = np.full(grid.num_cells, 1.0 / grid.num_cells)
    return ProbabilityField(grid.with_probabilities(p), floor)


def surrounding_corners(grid: GridMap, p: LocalPoint) -> tuple[int, int, int, int]:
    """Indices of the four lattice corners of the cell containing ``p``.

    Returned in (SW, SE, NW, NE) order, by :func:`corner_cells`. Raises
    OutOfMapError outside the hull.
    """
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise ValueError(f"non-finite local point {p}")
    inside, i, j, _, _ = corner_cells(grid, np.array([p.x]), np.array([p.y]))
    if not inside[0]:
        raise OutOfMapError(f"point {p} outside grid hull {grid.extent}")
    sw = int(j[0] * grid.width + i[0])
    return (sw, sw + 1, sw + grid.width, sw + grid.width + 1)


def save_trajectory(poses: list[Pose], path: str) -> None:
    """Write ``poses`` in the trajectory CSV format that
    :func:`cvloc.simulate.load_trajectory` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,theta\n")
        for t, p in enumerate(poses):
            fh.write(f"{t},{p.x:.17g},{p.y:.17g},{p.theta:.17g}\n")


def ground_view_oracle(world: SyntheticWorld, pipeline: Pipeline, pose: Pose, rng_seed: int) -> np.ndarray:
    """The (R,) ground-view descriptor at ``pose`` as computed one pose at a
    time before the batch path: the features of one position, rolled by the
    heading with ``np.roll``, through a one-set ``forward_batch``."""
    if not world.grid.contains(LocalPoint(pose.x, pose.y)):
        raise OutOfMapError(f"pose ({pose.x}, {pose.y}) outside world bounds")
    feats = _features_at(world, np.array([[pose.x, pose.y]]), rng_seed, GROUND)[0]
    shift = int(round((pose.theta % TWO_PI) / TWO_PI * world.n_features)) % world.n_features
    return forward_batch(pipeline, np.roll(feats, shift, axis=0)[None, :, :], GROUND)[0]


class ShortRead(io.BufferedReader):
    """A reader whose ``cut``-th ``readinto`` (0: a binary container's header,
    1: its body) stops one byte short, as when the file shrinks while it is read."""

    def __init__(self, raw, cut: int):
        super().__init__(raw)
        self.cut, self.calls = cut, 0

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")
        self.calls += 1
        return super().readinto(view[:-1] if self.calls == self.cut + 1 else view)

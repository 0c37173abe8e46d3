"""Global descriptors from sets of local features.

Local features are aggregated into a fixed-length vector by summing their
soft-assigned residuals to a bank of cluster centroids. Because the sum
runs over an unordered set, the descriptor is invariant to any reordering
of the input features, which is what makes ground and overhead views
comparable after the branches are aligned.

Two pipeline shapes are provided:

* ``DualPipeline``   - one independent aggregator (and reduction) per view.
* ``SharedPipeline`` - a per-view affine layer, a shared affine layer, then
  one aggregator shared by both views.

Parameters are plain arrays loaded from a binary container or randomly
initialised from a seed; there is no training here.
"""

from __future__ import annotations

import math
import operator
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

SATELLITE = "satellite"
GROUND = "ground"
VIEWS = (SATELLITE, GROUND)

DEFAULT_FEATURE_DIM = 16
DEFAULT_CLUSTERS = 8
DEFAULT_REDUCED_DIM = 32

_MAGIC = b"CVLDESC1"
_VERSION = 1


@dataclass(frozen=True)
class LocalFeatureSet:
    """An unordered set of N local feature vectors of dimension D."""

    features: np.ndarray  # (N, D)
    view: str

    def __post_init__(self):
        f = self.features
        if f.ndim != 2 or f.shape[0] < 1:
            raise ValueError(f"features must be (N, D) with N >= 1, got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        if self.view not in VIEWS:
            raise ValueError(f"unknown view {self.view!r}")


@dataclass(frozen=True)
class GlobalDescriptor:
    values: np.ndarray
    view: str


@dataclass(frozen=True)
class VladParams:
    """Centroids plus the affine soft-assignment parameters, one row per cluster."""

    centroids: np.ndarray  # (K, D)
    assign_weights: np.ndarray  # (K, D)
    assign_bias: np.ndarray  # (K,)

    def __post_init__(self):
        k, d = self.centroids.shape
        if k < 1:
            raise ValueError("need at least one cluster")
        if self.assign_weights.shape != (k, d) or self.assign_bias.shape != (k,):
            raise ValueError("assignment parameter shapes must match centroids")
        for a in (self.centroids, self.assign_weights, self.assign_bias):
            if not np.all(np.isfinite(a)):
                raise ValueError("parameters must be finite")

    @property
    def clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class AffineMap:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("affine map shapes inconsistent")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.astype(np.float64).T
        out += self.bias  # cast to float64 by the add, exactly; in place saves a block-sized copy
        return out


@dataclass(frozen=True)
class TransformParams:
    """Per-view first layer plus the shared second layer of the shared pipeline."""

    satellite: AffineMap
    ground: AffineMap
    shared: AffineMap

    def __post_init__(self):
        if self.satellite.in_dim != self.ground.in_dim:
            raise ValueError("per-view transforms must share the input dimension")
        if not (self.satellite.out_dim == self.ground.out_dim == self.shared.in_dim):
            raise ValueError("transform dimensions must chain")

    def for_view(self, view: str) -> AffineMap:
        return self.satellite if view == SATELLITE else self.ground


@dataclass(frozen=True)
class BranchParams:
    vlad: VladParams
    reduction: AffineMap  # (R, K*D)


@dataclass(frozen=True)
class DualPipeline:
    """Independent aggregator and reduction per view, of the same shapes."""

    satellite: BranchParams
    ground: BranchParams
    normalize_output: bool = True

    def __post_init__(self):
        # the parameter container's header holds one set of dimensions for both
        sat, grd = self.satellite, self.ground
        if (sat.vlad.centroids.shape, sat.reduction.weight.shape) != (grd.vlad.centroids.shape,
                                                                       grd.reduction.weight.shape):
            raise ValueError("both branches must have the same cluster count, feature dimension "
                             "and reduction shape")

    def branch(self, view: str) -> BranchParams:
        return self.satellite if view == SATELLITE else self.ground


@dataclass(frozen=True)
class SharedPipeline:
    """Per-view transform into a common space, then one shared aggregator."""

    transform: TransformParams
    vlad: VladParams
    reduction: AffineMap  # (R, K*H2)
    normalize_output: bool = True

    def __post_init__(self):
        if self.transform.shared.out_dim != self.vlad.dim:
            raise ValueError("shared transform output must match aggregator dimension")


PipelineConfig = DualPipeline | SharedPipeline


def _assign_batch(params: VladParams, feats: np.ndarray) -> np.ndarray:
    """(M, D) features -> (K, M) softmax columns, cluster-leading so that
    every step runs over K contiguous rows rather than M rows of length K."""
    a = np.dot(params.assign_weights.astype(np.float64), feats.T)
    a += params.assign_bias[:, None]  # cast to float64 by the add, exactly
    a -= a.max(axis=0)
    np.exp(a, out=a)
    a /= _cluster_sum(a)
    return a


def _cluster_sum(x: np.ndarray) -> np.ndarray:
    """Sum of the K rows of ``x`` in numpy's pairwise order for K contiguous
    values, so it rounds as a sum over a last axis of length K does."""
    n, m = len(x), len(x) - len(x) % 8
    if n > 128:  # halves, split at a multiple of 8
        half = n // 2 - n // 2 % 8
        return _cluster_sum(x[:half]) + _cluster_sum(x[half:])
    if n < 8:  # one by one
        total, m = x[0].copy(), 1
    else:  # eight partial sums, added as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
        r = x[:8]
        for i in range(8, m, 8):
            r = r + x[i : i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        total = r[0] + r[1]
    for i in range(m, n):  # the tail, one by one
        total += x[i]
    return total


def _vlad_batch(params: VladParams, feats: np.ndarray) -> np.ndarray:
    """(B, N, D) feature batches -> (B, K*D) aggregated residuals."""
    b, n, d = feats.shape
    a = _assign_batch(params, feats.reshape(-1, d)).reshape(-1, b, n)  # (K, B, N)
    # adds over N one by one, as the former middle-axis sum did. A block takes N − 1
    # adds of (K, B) slices, skipping a block-sized strided copy; a single set, where
    # those calls would cost ~35 µs, sums an N-leading copy of its few values.
    if b == 1:
        totals = np.ascontiguousarray(a.transpose(2, 1, 0)).sum(axis=0)  # (B, K)
    else:
        t = a[:, :, 0].copy()  # (K, B)
        for i in range(1, n):
            t += a[:, :, i]
        totals = t.T
    weighted = np.matmul(a.transpose(1, 0, 2), feats)  # (B, K, D)
    del a  # freed before the (B, K, D) product below
    weighted -= totals[:, :, None] * params.centroids
    return weighted.reshape(b, -1)


def _finish(values: np.ndarray, reduction: AffineMap, normalize: bool) -> np.ndarray:
    out = reduction.apply(values)
    if normalize:
        norms = np.sqrt(np.add.reduce(out * out, axis=-1, keepdims=True))  # np.linalg.norm, less overhead
        if np.any(norms == 0):
            raise ValueError("cannot normalise a zero descriptor")
        out = out / norms
    return out


def forward(config: PipelineConfig, feats: LocalFeatureSet) -> GlobalDescriptor:
    """Full descriptor pipeline for one feature set."""
    values = forward_batch(config, feats.features.astype(np.float64)[None, :, :], feats.view)[0]
    return GlobalDescriptor(values, feats.view)


def forward_batch(config: PipelineConfig, feats: np.ndarray, view: str) -> np.ndarray:
    """Pipeline over a (B, N, D) batch of feature sets, returning (B, R)."""
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}")
    feats = np.asarray(feats, dtype=np.float64)
    if isinstance(config, DualPipeline):
        branch = config.branch(view)
        v = _vlad_batch(branch.vlad, feats)
        return _finish(v, branch.reduction, config.normalize_output)
    first = config.transform.for_view(view)
    transformed = config.transform.shared.apply(first.apply(feats))
    v = _vlad_batch(config.vlad, transformed)
    return _finish(v, config.reduction, config.normalize_output)


# ---------------------------------------------------------------------------
# Seeded initialisation and the binary parameter container.
# ---------------------------------------------------------------------------


def _uniform(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, shape).astype(np.float32)


def _random_vlad(rng, k: int, d: int) -> VladParams:
    return VladParams(_uniform(rng, k, d), _uniform(rng, k, d), _uniform(rng, k))


def _random_affine(rng, out_dim: int, in_dim: int) -> AffineMap:
    return AffineMap(_uniform(rng, out_dim, in_dim), _uniform(rng, out_dim))


def random_dual_pipeline(
    seed: int,
    dim: int = DEFAULT_FEATURE_DIM,
    clusters: int = DEFAULT_CLUSTERS,
    reduced_dim: int = DEFAULT_REDUCED_DIM,
    normalize_output: bool = True,
    tie_views: bool = False,
) -> DualPipeline:
    """Seeded random dual pipeline. ``tie_views`` reuses the satellite branch
    for the ground view, emulating a converged, aligned pair of branches."""
    rng = np.random.Generator(np.random.Philox(seed))
    sat = BranchParams(_random_vlad(rng, clusters, dim), _random_affine(rng, reduced_dim, clusters * dim))
    grd = sat if tie_views else BranchParams(
        _random_vlad(rng, clusters, dim), _random_affine(rng, reduced_dim, clusters * dim)
    )
    return DualPipeline(sat, grd, normalize_output)


def random_shared_pipeline(
    seed: int,
    dim: int = DEFAULT_FEATURE_DIM,
    clusters: int = DEFAULT_CLUSTERS,
    reduced_dim: int = DEFAULT_REDUCED_DIM,
    hidden_dim: int | None = None,
    normalize_output: bool = True,
    tie_views: bool = False,
) -> SharedPipeline:
    rng = np.random.Generator(np.random.Philox(seed))
    h = dim if hidden_dim is None else hidden_dim
    sat = _random_affine(rng, h, dim)
    grd = sat if tie_views else _random_affine(rng, h, dim)
    shared = _random_affine(rng, h, h)
    vlad = _random_vlad(rng, clusters, h)
    red = _random_affine(rng, reduced_dim, clusters * h)
    return SharedPipeline(TransformParams(sat, grd, shared), vlad, red, normalize_output)


def _layout(variant: int, k: int, d: int, r: int, h1: int, h2: int) -> list[tuple[str, type, tuple[int, int]]]:
    """The container body in file order, one (attribute path, class, (rows, cols))
    per component, sized from the header dimensions. A component is stored as its
    array fields in order: (rows, cols) matrices, then a (rows,) vector."""
    if variant == 1:
        return [("satellite.vlad", VladParams, (k, d)), ("ground.vlad", VladParams, (k, d)),
                ("satellite.reduction", AffineMap, (r, k * d)), ("ground.reduction", AffineMap, (r, k * d))]
    if variant == 2:
        return [("vlad", VladParams, (k, h2)), ("transform.satellite", AffineMap, (h1, d)),
                ("transform.ground", AffineMap, (h1, d)), ("transform.shared", AffineMap, (h2, h1)),
                ("reduction", AffineMap, (r, k * h2))]
    raise ValueError(f"unknown pipeline variant {variant}")


def _field_shapes(cls: type, rows: int, cols: int) -> list[tuple[int, ...]]:
    return [(rows, cols)] * (len(fields(cls)) - 1) + [(rows,)]


def save_pipeline(config: PipelineConfig, path: str) -> None:
    """Write the parameter container; see README for the exact byte layout."""
    if isinstance(config, DualPipeline):
        variant, vlad = 1, config.satellite.vlad
        dims = (vlad.clusters, vlad.dim, config.satellite.reduction.out_dim, 0, 0)
    else:
        variant, t = 2, config.transform
        dims = (config.vlad.clusters, t.satellite.in_dim, config.reduction.out_dim,
                t.satellite.out_dim, t.shared.out_dim)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II6I", _VERSION, variant, *dims, int(config.normalize_output)))
        for name, cls, _ in _layout(variant, *dims):
            component = operator.attrgetter(name)(config)
            for f in fields(cls):
                fh.write(np.ascontiguousarray(getattr(component, f.name), dtype="<f4").tobytes())


def load_pipeline(path: str) -> PipelineConfig:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"not a descriptor parameter file: bad magic {magic!r}")
        version, variant = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise ValueError(f"unsupported parameter file version {version}")
        *dims, norm = struct.unpack("<IIIIII", fh.read(24))
        layout = _layout(variant, *dims)
        shapes = [s for _, cls, (rows, cols) in layout for s in _field_shapes(cls, rows, cols)]
        sizes = [math.prod(s) for s in shapes]
        # checked before reading, in Python ints: fh.read(body) allocates ``body`` bytes up front
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if 4 * sum(sizes) != body:
            raise ValueError(f"parameter file truncated or overlong: the header declares "
                             f"{4 * sum(sizes)} body bytes, but {body} follow")
        flat = np.frombuffer(fh.read(body), dtype="<f4")
    arrays = iter([a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)])
    part = {name: cls(*(next(arrays) for _ in fields(cls))) for name, cls, _ in layout}
    if variant == 1:
        return DualPipeline(BranchParams(part["satellite.vlad"], part["satellite.reduction"]),
                            BranchParams(part["ground.vlad"], part["ground.reduction"]), bool(norm))
    transform = TransformParams(part["transform.satellite"], part["transform.ground"], part["transform.shared"])
    return SharedPipeline(transform, part["vlad"], part["reduction"], bool(norm))

"""Global descriptors from sets of local features.

Local features are aggregated into a fixed-length vector by summing their
soft-assigned residuals to a bank of cluster centroids. Because the sum
runs over an unordered set, the descriptor is invariant to any reordering
of the input features, which is what makes ground and overhead views
comparable after the branches are aligned.

A :class:`Pipeline` holds one :class:`Branch` per view: affine layers
applied in order, then an aggregator and a reduction. The two published
shapes differ only in which parts a view owns and which it shares:

* dual (CVM-Net-I)   - no layers; each view has its own aggregator and
  reduction.
* shared (CVM-Net-II) - each view has its own first layer; both branches
  hold the same second layer, aggregator and reduction objects.

Parameters are plain arrays loaded from a binary container or randomly
initialised from a seed; there is no training here.

Every batch runs one aggregation body, and map cells and ground views differ
only in its two products. :func:`forward_batch` runs a block of map cells
with one assignment GEMM and one reduction GEMM over the whole block.
:func:`forward_sets` runs ground views with a GEMM per set for the
assignment and a GEMV per set for the reduction, the products numpy picks
for a lone set. The two round differently, by a few 1e-16 at most: the map
goldens lock the block products, and the step-log goldens lock the per-set
ones, so a batch of ground views must equal each view computed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .config import pack_header, read_container, write_records

SATELLITE = "satellite"
GROUND = "ground"
VIEWS = (SATELLITE, GROUND)

DEFAULT_FEATURE_DIM = 16
DEFAULT_CLUSTERS = 8
DEFAULT_REDUCED_DIM = 32

_MAGIC = b"CVLDESC1"
_HEADER = [(name, "<u4") for name in ("variant", "k", "d", "r", "h1", "h2", "norm")]  # after magic and version


@dataclass(frozen=True)
class LocalFeatureSet:
    """An unordered set of N local feature vectors of dimension D."""

    features: np.ndarray  # (N, D)
    view: str

    def __post_init__(self):
        f = self.features
        if f.ndim != 2 or f.shape[0] < 1:
            raise ValueError(f"features must be (N, D) with N >= 1, got {f.shape}")
        if not np.isfinite(f).all():
            raise ValueError("features must be finite")
        if self.view not in VIEWS:
            raise ValueError(f"unknown view {self.view!r}")


@dataclass(frozen=True)
class GlobalDescriptor:
    values: np.ndarray
    view: str


def _float64(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only float64 copies of parameter arrays, made once per parameter object."""
    out = tuple(np.array(a, dtype=np.float64) for a in arrays)
    for a in out:
        a.flags.writeable = False
    return out


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

    @cached_property
    def exact64(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centroids, assign_weights, assign_bias) cast to float64, exactly."""
        return _float64(self.centroids, self.assign_weights, self.assign_bias)

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

    @cached_property
    def exact64(self) -> tuple[np.ndarray, np.ndarray]:
        """(weight, bias) cast to float64, exactly."""
        return _float64(self.weight, self.bias)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        weight, bias = self.exact64
        out = x @ weight.T
        out += bias  # in place saves a block-sized copy
        return out


@dataclass(frozen=True)
class Branch:
    """One view's path: ``layers`` applied in order, then the aggregator and
    the reduction. Two branches share a part by holding the same object."""

    layers: tuple[AffineMap, ...]
    vlad: VladParams
    reduction: AffineMap  # (R, K*H), H the aggregator's input dimension

    def __post_init__(self):
        vlad = self.vlad
        stages = [(a.in_dim, a.out_dim) for a in self.layers]
        stages += [(vlad.dim, vlad.clusters * vlad.dim), (self.reduction.in_dim, self.reduction.out_dim)]
        if any(out != nxt for (_, out), (nxt, _) in zip(stages, stages[1:])):
            raise ValueError("branch dimensions must chain: each layer's output into the next layer, "
                             "the last into the aggregator, and its K*D into the reduction")
        if any(0 in stage for stage in stages):
            raise ValueError(f"every stage of a branch needs a nonzero width, got (in, out) {stages}")


@dataclass(frozen=True)
class Pipeline:
    """The satellite and the ground branch of one descriptor pipeline."""

    satellite: Branch
    ground: Branch
    normalize_output: bool = True

    def branch(self, view: str) -> Branch:
        return self.satellite if view == SATELLITE else self.ground


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


def _finish(values: np.ndarray, reduction: AffineMap, normalize: bool) -> np.ndarray:
    out = reduction.apply(values)
    if normalize:
        norms = np.sqrt(np.add.reduce(out * out, axis=-1, keepdims=True))  # np.linalg.norm, less overhead
        if not norms.all():
            raise ValueError("cannot normalise a zero descriptor")
        out = out / norms
    return out


def forward(pipeline: Pipeline, feats: LocalFeatureSet) -> GlobalDescriptor:
    """Full descriptor pipeline for one feature set: :func:`forward_sets` of one."""
    return GlobalDescriptor(forward_sets(pipeline, feats.features[None, :, :], feats.view)[0], feats.view)


def _forward(pipeline: Pipeline, feats: np.ndarray, view: str, per_set: bool) -> np.ndarray:
    """The one aggregation body under :func:`forward_batch` (``per_set`` false)
    and :func:`forward_sets` (true): (B, N, D) features -> (B, R). Only the
    assignment and the reduction products differ between the two."""
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}")
    branch = pipeline.branch(view)
    x = np.asarray(feats, dtype=np.float64)
    for layer in branch.layers:
        x = layer.apply(x)
    centroids, weights, bias = branch.vlad.exact64
    b, n, d = x.shape
    if per_set:  # a GEMM per set
        a = np.matmul(weights, x.transpose(0, 2, 1)).transpose(1, 0, 2)  # (K, B, N)
    else:  # one GEMM over the block
        a = np.dot(weights, x.reshape(-1, d).T).reshape(-1, b, n)  # (K, B, N)
    # cluster-leading, so that the softmax steps run over K rows of B*N values
    a += bias[:, None, None]
    a -= a.max(axis=0)
    np.exp(a, out=a)
    a /= _cluster_sum(a)
    # adds over N one by one: a lone set sums an N-leading copy (~2 µs), a batch N − 1
    # (K, B) slices (~25 µs at N = 24) without a block-sized copy. The two add in one
    # order wherever B*K > 1, and at K = 1 every assignment is 1.0: only speed differs.
    if b == 1:
        totals = np.ascontiguousarray(a.transpose(2, 1, 0)).sum(axis=0)  # (B, K)
    else:
        t = a[:, :, 0].copy()  # (K, B)
        for i in range(1, n):
            t += a[:, :, i]
        totals = t.T
    weighted = np.matmul(a.transpose(1, 0, 2), x)  # (B, K, D)
    del a  # freed before the (B, K, D) product below
    weighted -= totals[:, :, None] * centroids
    # (B, 1, K*D): numpy takes a GEMV per row; (B, K*D): one GEMM
    values = weighted.reshape(b, 1, -1) if per_set else weighted.reshape(b, -1)
    return _finish(values, branch.reduction, pipeline.normalize_output).reshape(b, -1)


def forward_batch(pipeline: Pipeline, feats: np.ndarray, view: str) -> np.ndarray:
    """Pipeline over a (B, N, D) block of map cells, returning (B, R), with one
    GEMM over the block for the assignment and one for the reduction. The map
    goldens lock these; ground views take :func:`forward_sets`, which rounds as a lone set."""
    return _forward(pipeline, feats, view, per_set=False)


def forward_sets(pipeline: Pipeline, feats: np.ndarray, view: str) -> np.ndarray:
    """Pipeline over a (B, N, D) batch of ground views, returning (B, R), with
    every product on one set, so that each row is bit for bit the set's own."""
    return _forward(pipeline, feats, view, per_set=True)


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
) -> Pipeline:
    """Seeded random dual pipeline. ``tie_views`` reuses the satellite branch
    for the ground view, emulating a converged, aligned pair of branches."""
    rng = np.random.Generator(np.random.Philox(seed))
    sat = Branch((), _random_vlad(rng, clusters, dim), _random_affine(rng, reduced_dim, clusters * dim))
    grd = sat if tie_views else Branch(
        (), _random_vlad(rng, clusters, dim), _random_affine(rng, reduced_dim, clusters * dim)
    )
    return Pipeline(sat, grd, normalize_output)


def random_shared_pipeline(
    seed: int,
    dim: int = DEFAULT_FEATURE_DIM,
    clusters: int = DEFAULT_CLUSTERS,
    reduced_dim: int = DEFAULT_REDUCED_DIM,
    hidden_dim: int | None = None,
    normalize_output: bool = True,
    tie_views: bool = False,
) -> Pipeline:
    """Seeded random shared pipeline; ``tie_views`` reuses the satellite
    first layer for the ground view."""
    rng = np.random.Generator(np.random.Philox(seed))
    h = dim if hidden_dim is None else hidden_dim
    sat = _random_affine(rng, h, dim)
    grd = sat if tie_views else _random_affine(rng, h, dim)
    shared = _random_affine(rng, h, h)
    vlad = _random_vlad(rng, clusters, h)
    red = _random_affine(rng, reduced_dim, clusters * h)
    return Pipeline(Branch((sat, shared), vlad, red), Branch((grd, shared), vlad, red), normalize_output)


def _layout(variant: int, k: int, d: int, r: int, h1: int, h2: int) -> list[tuple[str, type, tuple[int, int]]]:
    """The container body in file order, one (attribute path, class, (rows, cols))
    per component, sized from the header dimensions. A component is stored as its
    array fields in order: (rows, cols) matrices, then a (rows,) vector."""
    if variant == 1:
        return [("satellite.vlad", VladParams, (k, d)), ("ground.vlad", VladParams, (k, d)),
                ("satellite.reduction", AffineMap, (r, k * d)), ("ground.reduction", AffineMap, (r, k * d))]
    if variant == 2:  # the second layer, aggregator and reduction are stored once, from the satellite
        return [("satellite.vlad", VladParams, (k, h2)), ("satellite.layers.0", AffineMap, (h1, d)),
                ("ground.layers.0", AffineMap, (h1, d)), ("satellite.layers.1", AffineMap, (h2, h1)),
                ("satellite.reduction", AffineMap, (r, k * h2))]
    raise ValueError(f"unknown pipeline variant {variant}")


def _record(layout: list[tuple[str, type, tuple[int, int]]]) -> list[tuple[str, str, tuple[int, ...]]]:
    """The container body as one record: a float32 field ``path.field`` per
    array of each component, in layout order."""
    return [(f"{path}.{f.name}", "<f4", (rows, cols) if i < len(fields(cls)) - 1 else (rows,))
            for path, cls, (rows, cols) in layout for i, f in enumerate(fields(cls))]


def _component(pipeline: Pipeline, path: str):
    """The part at a layout path such as ``satellite.layers.0``."""
    part = pipeline
    for name in path.split("."):
        part = part[int(name)] if name.isdigit() else getattr(part, name)
    return part


def _header(branch: Branch) -> tuple[int, ...]:
    """(variant, K, D, R, H1, H2) of a branch, which set all its shapes."""
    k, r = branch.vlad.clusters, branch.reduction.out_dim
    if not branch.layers:
        return 1, k, branch.vlad.dim, r, 0, 0
    if len(branch.layers) != 2:
        raise ValueError(f"a parameter file holds branches of 0 or 2 layers, not {len(branch.layers)}")
    first, second = branch.layers
    return 2, k, first.in_dim, r, first.out_dim, second.out_dim


def save_pipeline(pipeline: Pipeline, path: str) -> None:
    """Write the parameter container; see README for the exact byte layout.

    The container holds what its header can state, checked before the file
    is opened: both branches have the same shapes, and either no layers
    (variant 1) or two, the second of which, with the aggregator and the
    reduction, is one object for both views (variant 2). Any other
    pipeline is a ValueError."""
    sat, grd = pipeline.satellite, pipeline.ground
    variant, *dims = _header(sat)
    if _header(grd) != (variant, *dims):
        raise ValueError("both branches must have the same layer, cluster, feature and reduction shapes")
    if sat.layers and not (sat.layers[1] is grd.layers[1] and sat.vlad is grd.vlad
                           and sat.reduction is grd.reduction):
        raise ValueError("a two-layer pipeline must share its second layer, aggregator and reduction "
                         "between the views")
    layout = _layout(variant, *dims)
    record = np.empty(1, dtype=_record(layout))
    for name, cls, _ in layout:
        component = _component(pipeline, name)
        for f in fields(cls):
            record[f"{name}.{f.name}"] = getattr(component, f.name)
    write_records(path, pack_header(_MAGIC, _HEADER, variant, *dims, int(pipeline.normalize_output)), record)


def load_pipeline(path: str) -> Pipeline:
    (variant, *dims, norm), (record,) = read_container(
        path, _MAGIC, _HEADER, "parameter", lambda *header: (_record(_layout(*header[:-1])), 1))
    layout = _layout(variant, *dims)
    part = {name: cls(*(record[f"{name}.{f.name}"] for f in fields(cls))) for name, cls, _ in layout}
    if variant == 1:
        branches = [Branch((), part[f"{view}.vlad"], part[f"{view}.reduction"]) for view in VIEWS]
    else:  # both branches hold the one second layer, aggregator and reduction read
        shared = part["satellite.layers.1"], part["satellite.vlad"], part["satellite.reduction"]
        branches = [Branch((part[f"{view}.layers.0"], shared[0]), *shared[1:]) for view in VIEWS]
    return Pipeline(*branches, bool(norm))

"""Geo-tagged descriptor database: exact nearest-neighbour search and the
retrieval metrics (top-K / top-percent recall, distance-threshold recall).

Search is exact and runs in two stages, for one query or a batch. A
float32 pre-filter scores every entry by the expansion form of its squared
distance, from squared norms computed at construction and one GEMM per
score block of queries (at most ``_SCORE_FLOATS`` scores, one query at
least). For each query it keeps each entry that a proven bound on that
form's rounding cannot rule out of the top k (every entry when the
query's bound or one of its scores is not finite). Only those entries go
through :func:`distances`, the float64 kernel, and the (distance, id)
sort, so a result is the full sort's, bit for bit, at any BLAS thread
count and in any batch. The metrics rank all their queries in one
:func:`query` call, to the largest K they need, and read every recall
from that rank table.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .blas import one_thread
from .config import open_output
from .mapgrid import geo_distance_m

_MAGIC = b"CVLOCDB1"
_VERSION = 1
_BLOCK_FLOATS = 1 << 15  # float64 difference scratch per row block of distances(): 256 KB
_SCORE_FLOATS = 1 << 18  # float32 pre-filter scores per query block of query(): 1 MiB
_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoff of float32 and of float64
_TINY32 = 2.0**-149  # smallest float32 subnormal


@dataclass(frozen=True)
class DescriptorDatabase:
    ids: np.ndarray  # (N,) uint64
    geos: np.ndarray  # (N, 2) float64 (lat, lon) degrees
    descriptors: np.ndarray  # (N, R) float32

    def __post_init__(self):
        n = self.ids.shape[0]
        if self.geos.shape != (n, 2) or self.descriptors.shape[0] != n or self.descriptors.ndim != 2:
            raise ValueError("inconsistent database arrays")
        # the id index: none for strictly increasing ids, which are unique; else their argsort
        order = None if np.all(self.ids[1:] > self.ids[:-1]) else np.argsort(self.ids)
        if order is not None and np.any((ids := self.ids[order])[1:] == ids[:-1]):
            raise ValueError("duplicate ids in database")
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.einsum("ij,ij->i", self.descriptors, self.descriptors)
            top = float(sq.max(initial=0.0))
            sums = [a.sum() for a in self.geos.T]
        # a NaN or ±inf carries into the norms and the geo sums, so finite ones prove every value
        # finite; min and max, which carry them with no (N, R) mask, settle a square or sum past range
        if not all(map(math.isfinite, (top, *sums))) and not np.all(np.isfinite(
                [f(initial=0.0) for a in (self.descriptors, *self.geos.T) for f in (a.min, a.max)])):
            raise ValueError("database descriptors and geos must be finite")
        object.__setattr__(self, "_id_order", order)
        # float32 squared norm of each descriptor, the pre-filter's ‖s‖² term, and the largest
        object.__setattr__(self, "_sq_norms", (sq, top))

    @property
    def dimension(self) -> int:
        return self.descriptors.shape[1]

    def __len__(self) -> int:
        return self.ids.shape[0]

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        """Row of each of the uint64 ``ids``: a binary search through the id index."""
        order = self._id_order
        pos = np.minimum(np.searchsorted(self.ids, ids, sorter=order), len(self) - 1)
        rows = pos if order is None else order[pos]
        if not ((self.ids[rows] == ids).all() if len(self) else np.size(ids) == 0):
            raise KeyError("an id is not in the database")
        return rows

    def entry(self, id_: int) -> tuple[tuple[float, float], np.ndarray]:
        if not 0 <= id_ < 2**64:
            raise KeyError("an id is not in the database")
        i = int(self._rows(np.uint64(id_)))
        return (float(self.geos[i, 0]), float(self.geos[i, 1])), self.descriptors[i]


@dataclass(frozen=True)
class RetrievalResult:
    ids: np.ndarray
    distances: np.ndarray  # ascending Euclidean distances


def build_db(items: Iterable[tuple[int, tuple[float, float], np.ndarray]]) -> DescriptorDatabase:
    """Assemble a database from (id, (lat, lon), descriptor) entries.

    Each column is converted in one call; descriptors of differing shapes
    are a ValueError, as are the checks of :class:`DescriptorDatabase`."""
    items = list(items)
    if not items:
        return DescriptorDatabase(
            np.empty(0, dtype=np.uint64), np.empty((0, 2)), np.empty((0, 0), dtype=np.float32)
        )
    return DescriptorDatabase(
        np.array([it[0] for it in items], dtype=np.uint64),
        np.array([it[1] for it in items], dtype=np.float64),
        np.array([it[2] for it in items], dtype=np.float32),
    )


def distances(stored: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Float64 Euclidean distances from ``q`` to each row of ``stored``, the
    one distance kernel of retrieval and the measurement field. Rows are
    differenced in blocks of about ``_BLOCK_FLOATS`` floats and never alone
    (einsum sums a lone row longer than 8,192 in chunks): a block holds two
    rows at least, and a one-row input is summed as a pair. So
    ``distances(stored[cells], q)`` equals ``distances(stored, q)[cells]``
    bit for bit."""
    n = len(stored)
    if n == 1:
        return distances(np.concatenate([stored, stored]), q)[:1]
    step = max(2, _BLOCK_FLOATS // max(1, stored.shape[1]))
    dists = np.empty(n)
    for start in range(0, n, step):
        block = slice(max(0, min(start, n - 2)), start + step)
        diff = stored[block] - q
        dists[block] = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(dists, out=dists)
    return dists


def _gamma(n: int, u: float) -> float:
    """γ_n = n·u / (1 − n·u), the relative error bound of n roundings to unit
    roundoff u in any order; inf once n·u ≥ 1."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


def _candidates(db: DescriptorDatabase, qs: np.ndarray, k: int) -> list[np.ndarray]:
    """For each query q, a row of the block ``qs``, the ascending rows of
    ``db`` that may lie at or inside the k-th distance :func:`distances`
    gives q: a superset of every such row.

    A row s scores a = fl32(ñ + p̃), its squared distance less the ‖q‖²
    that every row shares, from its float32 squared norm ñ
    (``_sq_norms``) and p̃ ≈ s·q'₃₂, its entry of one float32 GEMM of the
    stored descriptors with the block's queries scaled by −2 and rounded to
    float32 (q' = −2q, rounded q'₃₂). Let u = 2⁻²⁴, η = 2⁻¹⁴⁹ (the smallest
    float32 subnormal), R the dimension, γ_n = n·u/(1 − n·u) and γ⁶⁴_n the
    same with 2⁻⁵³, S ≥ every ‖s‖ and Q' ≥ both ‖q‖ and ‖q'₃₂‖/2. A sum of R
    products rounds by at most γ_R times the sum of their magnitudes, in any
    order and with or without FMA, plus η for each underflowing product. A
    GEMM entry is such a sum, whatever kernel, blocking or BLAS thread count
    computes it, just as a GEMV entry is. Hence

    - |ñ − ‖s‖²| ≤ γ_R·‖s‖² + Rη;
    - |p̃ − s·q'₃₂| ≤ 2·γ_R·‖s‖·Q' + Rη (Cauchy–Schwarz);
    - |s·q'₃₂ − s·q'| ≤ 2·u·‖s‖·Q' + √R·η·‖s‖/2, as |q'₃₂ⱼ − q'ⱼ| ≤ u·|q'ⱼ| + η/2;
    - the addition rounds by at most u·(ñ + |p̃|);

    so |a − (d² − ‖q‖²)| ≤ γ_{R+2}·(S² + 2·S·Q') + √R·η·S + 4Rη for the
    exact distance d. The kernel's float64 d̂ (difference, square, R − 1
    sums, sqrt) adds |d̂² − d²| ≤ γ⁶⁴_{R+4}·(S + Q')² + Rη. B is the sum of
    both bounds, times 1 + 2⁻²⁰, which covers the float64 rounding of S, Q'
    and B and of τ + 2B below. S² = (max ñ + Rη)·(1 + γ_{2R}) inverts the
    first bound, and Q' = (1 + 2⁻²⁰)·‖q‖ + √R·η, with ‖q‖ in float64, covers
    the rounding to q'₃₂ and the float64 norm's own, underflow included.
    B is one bound per query, as ‖q‖ is.

    So |a − (d̂² − ‖q‖²)| ≤ B for every row (a finite a keeps ‖s‖ and every
    |qⱼ| below 2¹²⁸, so d̂ cannot overflow). Let τ be q's k-th smallest a:
    the k rows with a ≤ τ have d̂² − ‖q‖² ≤ τ + B, so the k-th smallest
    d̂² − ‖q‖² is at most τ + B, and every row at or inside it has
    a ≤ τ + 2B. Those rows are kept. If one of q's a, or its B, is not
    finite (a float32 square or product overflowed, a query past the
    float32 range, or R·u ≥ 1), every row is q's candidate; the other
    queries of the block keep their own.
    """
    sq_norms, top = db._sq_norms
    r = db.dimension
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        approx = (-2.0 * qs).astype(np.float32) @ db.descriptors.T
        approx += sq_norms
        q_norms = [math.sqrt(float(q @ q)) for q in qs]
    finite = np.isfinite(approx).all(axis=1).tolist()
    kths = np.partition(approx, k - 1, axis=1)[:, k - 1].tolist()
    s = math.sqrt((top + r * _TINY32) * (1.0 + _gamma(2 * r, _U32)))
    g32, g64, tiny = _gamma(r + 2, _U32), _gamma(r + 4, _U64), math.sqrt(r) * _TINY32
    out = []
    for scores, q_norm, kth, ok in zip(approx, q_norms, kths, finite):
        q_top = (1.0 + 2.0**-20) * q_norm + tiny
        bound = (1.0 + 2.0**-20) * (
            g32 * (s * s + 2.0 * s * q_top) + g64 * (s + q_top) * (s + q_top) + tiny * s + 5 * r * _TINY32
        )
        # a float64 limit: against a Python float, numpy would round it to float32
        limit = np.float64(kth + 2.0 * bound)
        out.append((scores <= limit).nonzero()[0] if ok and math.isfinite(bound) else np.arange(len(db)))
    return out


def _nearest(db: DescriptorDatabase, q: np.ndarray, rows: np.ndarray, k: int) -> RetrievalResult:
    """The exact stage: the k nearest of ``rows`` (k at least) to ``q`` by
    their :func:`distances`, ties broken by id. Of more than k rows, only
    those at or inside the k-th distance are sorted, and keeping every row
    tied with it leaves the id tie-break exact."""
    dists = distances(db.descriptors[rows], q)
    if len(rows) > k:
        inside = dists <= np.partition(dists, k - 1)[k - 1]
        rows, dists = rows[inside], dists[inside]
    order = np.lexsort((db.ids[rows], dists))[:k]
    return RetrievalResult(db.ids[rows[order]], dists[order])


def query(db: DescriptorDatabase, q: np.ndarray, k: int) -> RetrievalResult:
    """Exact k nearest entries by Euclidean distance (:func:`distances`),
    ties broken by id, of one query (R,), or of each row of a batch (Q, R)
    as (Q, k) ids and distances.

    The :func:`_candidates` pre-filter scores a batch in blocks of at most
    ``_SCORE_FLOATS`` float32 scores, one query at least, so its memory does
    not grow with Q. Only a query's candidates are measured, and
    :func:`distances` gives a row the same bits whichever rows it is taken
    with, so each row of a batch is the result of that query alone.
    """
    if len(db) == 0:
        raise ValueError("cannot query an empty database")
    if not 1 <= k <= len(db):
        raise ValueError(f"k must be in [1, {len(db)}], got {k}")
    q = np.asarray(q, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != db.dimension:
        raise ValueError(f"query dimension {q.shape} != database dimension {db.dimension}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query descriptor must be finite")
    if q.ndim == 1:
        return _nearest(db, q, _candidates(db, q[None], k)[0], k)
    ids, dists = np.empty((len(q), k), dtype=np.uint64), np.empty((len(q), k))
    step = max(1, _SCORE_FLOATS // len(db))
    with one_thread():  # a block's GEMM is too small to repay waking OpenBLAS threads
        for start in range(0, len(q), step):
            for i, rows in enumerate(_candidates(db, q[start:start + step], k), start):
                result = _nearest(db, q[i], rows, k)
                ids[i], dists[i] = result.ids, result.distances
    return RetrievalResult(ids, dists)


def top_percent_k(size: int, percent: float) -> int:
    """Set size of the closest ``percent`` of a database, rounded up, at least 1."""
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    return max(1, math.ceil(percent / 100.0 * size))


def rank_table(db: DescriptorDatabase, descs: Sequence[np.ndarray], k: int) -> np.ndarray:
    """(Q, k) ids of each query's k nearest entries: one :func:`query` call
    on the whole batch."""
    return query(db, np.reshape(descs, (len(descs), db.dimension)), k).ids


def recall_in_table(table: np.ndarray, true_ids: Sequence[int], k: int) -> float:
    """Fraction of queries whose true id is among the first k ids of its
    :func:`rank_table` row."""
    hits = np.any(table[:, :k] == np.asarray(true_ids, dtype=np.uint64)[:, None], axis=1)
    return int(np.count_nonzero(hits)) / len(table)


def threshold_recall(
    db: DescriptorDatabase,
    top_ids: np.ndarray,
    true_geos: Sequence[tuple[float, float]],
    thresholds: Sequence[float],
) -> list[tuple[float, float]]:
    """Recall curve over metric thresholds: a query counts as localized at
    threshold T when its top-1 entry lies within T metres of the true geo.
    The top-1 geos are gathered by row, through the database's id index."""
    rows = db._rows(np.asarray(top_ids, dtype=np.uint64))
    truth = np.asarray(true_geos, dtype=np.float64).tolist()
    errors = np.array([geo_distance_m(lat, lon, glat, glon)
                       for (lat, lon), (glat, glon) in zip(truth, db.geos[rows].tolist())])
    return [(float(t), float(np.mean(errors <= t))) for t in thresholds]


def recall_at_top_percent(
    db: DescriptorDatabase,
    queries: Sequence[tuple[int, np.ndarray]],
    percent: float,
) -> float:
    """Fraction of queries whose true id lands in the closest ``percent``
    of the database (set size rounded up, so at least 1)."""
    return recall_at_k(db, queries, top_percent_k(len(db), percent))


def recall_at_k(db: DescriptorDatabase, queries: Sequence[tuple[int, np.ndarray]], k: int) -> float:
    table = rank_table(db, [desc for _, desc in queries], k)
    return recall_in_table(table, [true_id for true_id, _ in queries], k)


def add_distractors(
    db: DescriptorDatabase, distractors: Iterable[tuple[int, tuple[float, float], np.ndarray]]
) -> DescriptorDatabase:
    """New database with extra entries merged in; id collisions are errors."""
    extra = build_db(distractors)
    if len(extra) == 0:
        return db
    if extra.dimension != db.dimension:
        raise ValueError("distractor dimension mismatch")
    if np.intersect1d(db.ids, extra.ids).size:
        raise ValueError("distractor ids collide with existing entries")
    return DescriptorDatabase(
        np.concatenate([db.ids, extra.ids]),
        np.concatenate([db.geos, extra.geos]),
        np.concatenate([db.descriptors, extra.descriptors]),
    )


def _record(dim: int) -> np.dtype:
    """One packed little-endian database entry: 24 + 4*dim bytes."""
    return np.dtype([("id", "<u8"), ("geo", "<f8", (2,)), ("desc", "<f4", (dim,))])


def save_db(db: DescriptorDatabase, path: str) -> None:
    """Binary layout: magic, u32 version, u64 count, u32 dimension, then one
    :func:`_record` per entry (u64 id, f64 lat, f64 lon, f32 descriptor)."""
    records = np.empty(len(db), dtype=_record(db.dimension))
    records["id"], records["geo"], records["desc"] = db.ids, db.geos, db.descriptors
    with open_output(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQI", _VERSION, len(db), db.dimension))
        fh.write(records)


def load_db(path: str) -> DescriptorDatabase:
    """Read a :func:`save_db` file; its columns are fields of one record array."""
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError("not a descriptor database file")
        version, count, dim = struct.unpack("<IQI", fh.read(16))
        if version != _VERSION:
            raise ValueError(f"unsupported database version {version}")
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if count * (24 + 4 * dim) != body:
            raise ValueError(
                f"database header declares {count} entries of dimension {dim}, "
                f"which does not match the {body} bytes that follow"
            )
        records = np.empty(count, dtype=_record(dim))
        if (read := fh.readinto(records)) != body:
            raise ValueError(f"database file ended after {read} of its {body} declared bytes")
    return DescriptorDatabase(records["id"], records["geo"], records["desc"])

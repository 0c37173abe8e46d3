"""Geo-tagged descriptor database: exact nearest-neighbour search and the
retrieval metrics (top-K / top-percent recall, distance-threshold recall).

Search is a brute-force linear scan over plain Euclidean distances, which
keeps results exact and oracle-comparable at the database sizes this
package targets (<= 1e5 entries). The metrics rank each query once, to
the largest K they need, and read every recall from that rank table.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import open_output
from .mapgrid import geo_distance_m

_MAGIC = b"CVLOCDB1"
_VERSION = 1
_BLOCK_FLOATS = 1 << 15  # float64 difference scratch per row block of distances(): 256 KB


@dataclass(frozen=True)
class DescriptorDatabase:
    ids: np.ndarray  # (N,) uint64
    geos: np.ndarray  # (N, 2) float64 (lat, lon) degrees
    descriptors: np.ndarray  # (N, R) float32

    def __post_init__(self):
        n = self.ids.shape[0]
        if self.geos.shape != (n, 2) or self.descriptors.shape[0] != n or self.descriptors.ndim != 2:
            raise ValueError("inconsistent database arrays")
        ids = np.sort(self.ids)
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("duplicate ids in database")
        if not (np.all(np.isfinite(self.descriptors)) and np.all(np.isfinite(self.geos))):
            raise ValueError("database descriptors and geos must be finite")

    @property
    def dimension(self) -> int:
        return self.descriptors.shape[1]

    def __len__(self) -> int:
        return self.ids.shape[0]

    def entry(self, id_: int) -> tuple[tuple[float, float], np.ndarray]:
        idx = np.nonzero(self.ids == id_)[0]
        if idx.size == 0:
            raise KeyError(f"id {id_} not in database")
        i = int(idx[0])
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


def query(db: DescriptorDatabase, q: np.ndarray, k: int) -> RetrievalResult:
    """Exact k nearest entries by Euclidean distance (:func:`distances`),
    ties broken by id. Only the rows at or inside the k-th distance are
    sorted; keeping every row tied with it leaves the id tie-break exact.
    """
    if len(db) == 0:
        raise ValueError("cannot query an empty database")
    if not 1 <= k <= len(db):
        raise ValueError(f"k must be in [1, {len(db)}], got {k}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (db.dimension,):
        raise ValueError(f"query dimension {q.shape} != database dimension {db.dimension}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query descriptor must be finite")
    dists = distances(db.descriptors, q)
    rows = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    order = rows[np.lexsort((db.ids[rows], dists[rows]))[:k]]
    return RetrievalResult(db.ids[order], dists[order])


def top_percent_k(size: int, percent: float) -> int:
    """Set size of the closest ``percent`` of a database, rounded up, at least 1."""
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    return max(1, math.ceil(percent / 100.0 * size))


def rank_table(db: DescriptorDatabase, descs: Sequence[np.ndarray], k: int) -> np.ndarray:
    """(Q, k) ids of each query's k nearest entries, one :func:`query` each."""
    return np.array([query(db, q, k).ids for q in descs], dtype=np.uint64).reshape(len(descs), k)


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
    threshold T when its top-1 entry lies within T metres of the true geo."""
    errors = []
    for id_, (lat, lon) in zip(top_ids, true_geos):
        (glat, glon), _ = db.entry(int(id_))
        errors.append(geo_distance_m(lat, lon, glat, glon))
    errors_arr = np.array(errors)
    return [(float(t), float(np.mean(errors_arr <= t))) for t in thresholds]


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


def recall_vs_distance(
    db: DescriptorDatabase,
    queries: Sequence[tuple[tuple[float, float], np.ndarray]],
    thresholds: Sequence[float],
) -> list[tuple[float, float]]:
    """:func:`threshold_recall` with each query ranked to its top 1."""
    table = rank_table(db, [desc for _, desc in queries], 1)
    return threshold_recall(db, table[:, 0], [geo for geo, _ in queries], thresholds)


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
    return np.dtype([("id", "<u8"), ("lat", "<f8"), ("lon", "<f8"), ("desc", "<f4", (dim,))])


def save_db(db: DescriptorDatabase, path: str) -> None:
    """Binary layout: magic, u32 version, u64 count, u32 dimension, then one
    :func:`_record` per entry (u64 id, f64 lat, f64 lon, f32 descriptor)."""
    records = np.empty(len(db), dtype=_record(db.dimension))
    records["id"], records["lat"], records["lon"] = db.ids, db.geos[:, 0], db.geos[:, 1]
    records["desc"] = db.descriptors
    with open_output(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQI", _VERSION, len(db), db.dimension))
        fh.write(records.tobytes())


def load_db(path: str) -> DescriptorDatabase:
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
        records = np.frombuffer(fh.read(body), dtype=_record(dim), count=count)
    return DescriptorDatabase(
        records["id"].astype(np.uint64),
        np.stack([records["lat"], records["lon"]], axis=1),
        records["desc"].astype(np.float32),
    )

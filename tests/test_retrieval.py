import contextlib
import hashlib
import io
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import OPENBLAS, POOLED, assert_golden

import cvloc.retrieval
from cvloc.cli import main
from cvloc.config import ScenarioConfig
from cvloc.descriptor import save_pipeline
from cvloc.mapgrid import geo_distance_m
from cvloc.retrieval import (
    DescriptorDatabase,
    RetrievalResult,
    add_distractors,
    build_db,
    distances,
    load_db,
    query,
    rank_table,
    recall_at_k,
    recall_at_top_percent,
    recall_in_table,
    save_db,
    threshold_recall,
)
from cvloc.motion import Pose
from cvloc.simulate import build_pipeline, build_scenario, database_from_map


def random_db(n, dim, seed=0, geo_jitter=0.001):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        geo = (40.0 + geo_jitter * i, -105.0)
        items.append((i, geo, rng.normal(size=dim).astype(np.float32)))
    return build_db(items), items


def brute_force_ranking(items, q):
    """Full sort oracle: (distance, id) ascending over all entries."""
    scored = []
    for id_, _, desc in items:
        d = float(np.linalg.norm(desc.astype(np.float64) - q))
        scored.append((d, id_))
    scored.sort()
    return scored


def oracle_query(db, q, k):
    """Full-sort reference for :func:`query`: every distance, one lexsort."""
    q = np.asarray(q, dtype=np.float64)
    diff = db.descriptors.astype(np.float64) - q[None, :]
    # the lone row of a one-entry database summed as a pair, as every row of a
    # larger one is: einsum sums a lone row longer than 8,192 in chunks
    rows = np.concatenate([diff, diff]) if len(db) == 1 else diff
    dists = np.sqrt(np.einsum("ij,ij->i", rows, rows))[: len(db)]
    order = np.lexsort((db.ids, dists))[:k]
    return RetrievalResult(db.ids[order].copy(), dists[order].copy())


def oracle_recall_at_k(db, queries, k):
    """Reference recall@K: one full ranking per query and per K."""
    hits = 0
    for true_id, desc in queries:
        if np.uint64(true_id) in oracle_query(db, desc, k).ids:
            hits += 1
    return hits / len(queries)


def oracle_recall_at_top_percent(db, queries, percent):
    return oracle_recall_at_k(db, queries, max(1, math.ceil(percent / 100.0 * len(db))))


def oracle_recall_vs_distance(db, queries, thresholds):
    """Reference threshold curve: one top-1 ranking per query."""
    errors = []
    for (lat, lon), desc in queries:
        (glat, glon), _ = db.entry(int(oracle_query(db, desc, 1).ids[0]))
        errors.append(geo_distance_m(lat, lon, glat, glon))
    errors_arr = np.array(errors)
    return [(float(t), float(np.mean(errors_arr <= t))) for t in thresholds]


@st.composite
def tied_databases(draw, max_size=30):
    """Databases built to tie: integer-valued descriptors drawn from a few
    distinct rows (so rows repeat), unique ids in arbitrary order and far
    apart, and geos spread over the globe. Returns (db, vector strategy)."""
    dim = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    distinct = draw(st.lists(vec, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=max_size))
    n = len(picks)
    ids = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n, unique=True))
    geo = st.tuples(st.floats(-80, 80), st.floats(-180, 180))
    geos = draw(st.lists(geo, min_size=n, max_size=n))
    db = DescriptorDatabase(np.array(ids, dtype=np.uint64), np.array(geos, dtype=np.float64),
                            np.array([distinct[i] for i in picks], dtype=np.float32))
    return db, vec | st.sampled_from(distinct)


class TestQueryAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_k_equals_full_sort(self, data):
        db, vectors = data.draw(tied_databases())
        q = np.array(data.draw(vectors), dtype=np.float64)
        for k in range(1, len(db) + 1):
            got, want = query(db, q, k), oracle_query(db, q, k)
            assert got.ids.dtype == want.ids.dtype and got.distances.dtype == want.distances.dtype
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_array_equal(got.distances, want.distances)

    @pytest.mark.parametrize("n,dim,seed", [(500, 6, 1), (7921, 32, 2)])
    def test_random_float_database(self, n, dim, seed):
        db, _ = random_db(n, dim, seed=seed)
        rng = np.random.default_rng(seed + 50)
        for q in [rng.normal(size=dim), db.descriptors[n // 2].astype(np.float64)]:
            for k in (1, 2, 20, 80, n):
                got, want = query(db, q, k), oracle_query(db, q, k)
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(got.distances, want.distances)


class TestQueryRowBlocks:
    """:func:`query` takes distances over row blocks; the oracle takes them in
    one shot. Exact ties straddle each block boundary, with ids falling along
    the rows so the id tie-break reorders rows across blocks."""

    # 1,024, 10, 3 and 2 rows per block; past 8,192 a lone-row einsum would sum differently
    @pytest.mark.parametrize("dim", [32, 3000, 10_000, 40_000])
    def test_block_edges_equal_full_sort(self, dim):
        block = max(2, cvloc.retrieval._BLOCK_FLOATS // dim)
        for n in sorted({max(1, m) for m in (1, block - 1, block, block + 1, 2 * block + 1)}):
            rng = np.random.default_rng(n)
            descs = rng.normal(size=(n, dim)).astype(np.float32)
            tied = sorted({0, block - 1, block, 2 * block, n - 1} & set(range(n)))
            descs[tied] = descs[tied[0]]
            ids = (n - np.arange(n, dtype=np.uint64)) * np.uint64(2**40 + 1)
            db = DescriptorDatabase(ids, np.zeros((n, 2)), descs)
            for q in (descs[tied[0]].astype(np.float64), rng.normal(size=dim)):
                full = oracle_query(db, q, n)
                first_tie = int(np.flatnonzero(np.isin(full.ids, ids[tied]))[0])
                for k in sorted({1, 2, len(tied), first_tie + 1, first_tie + 2, n} & set(range(1, n + 1))):
                    got, want = query(db, q, k), oracle_query(db, q, k)
                    assert got.ids.dtype == want.ids.dtype and got.distances.dtype == want.distances.dtype
                    np.testing.assert_array_equal(got.ids, want.ids)
                    np.testing.assert_array_equal(got.distances, want.distances)


@st.composite
def scaled_databases(draw):
    """(db, q) for the two-stage kNN. N is 1, 2, a few, or past 1,024 rows
    (two or more :func:`distances` blocks once R ≥ 32). Descriptors and query
    are drawn at scales from 1e-30 to 1e30 each, so past ~1e19 a float32
    square overflows; rows may be unnormalised over six decades; some rows
    are exact copies of others or one float32 ulp from them; ids are
    unique, far apart and in arbitrary order. The query is a stored row,
    one ulp from one, between two, random (also past the float32 range) or
    zero."""
    n = draw(st.sampled_from([1, 2]) | st.integers(3, 40) | st.integers(1025, 1100))
    dim = draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    descs = rng.normal(size=(n, dim)) * 10.0 ** draw(st.integers(-30, 30))
    if draw(st.booleans()):
        descs *= 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    descs = descs.astype(np.float32)
    rows = st.integers(0, n - 1)
    for src, dst, nudge in draw(st.lists(st.tuples(rows, rows, st.booleans()), max_size=4)):
        descs[dst] = descs[src]
        if nudge:
            j = int(rng.integers(dim))
            descs[dst, j] = np.nextafter(descs[src, j], np.float32(np.inf))
    ids = rng.permutation(n).astype(np.uint64) * np.uint64(2**40 + 1)
    db = DescriptorDatabase(ids, np.zeros((n, 2)), descs)

    a, b = descs[draw(rows)].astype(np.float64), descs[draw(rows)].astype(np.float64)
    kind = draw(st.sampled_from(["row", "ulp", "between", "random", "zero"]))
    if kind == "row":
        q = a
    elif kind == "ulp":
        q = np.nextafter(a.astype(np.float32), np.float32(np.inf)).astype(np.float64)
    elif kind == "between":
        q = (a + b) / 2
    elif kind == "random":
        q = rng.normal(size=dim) * 10.0 ** draw(st.integers(-30, 30) | st.sampled_from([39, 154, 200]))
    else:
        q = np.zeros(dim)
    return db, q


class TestTwoStageKnn:
    """:func:`query` measures only the pre-filter's candidates; the full sort
    (``oracle_query``) is its oracle with zero tolerance: ids equal and
    distances equal as bits, at any BLAS thread count."""

    @staticmethod
    def assert_bits_equal(got, want):
        assert got.ids.dtype == want.ids.dtype and got.distances.dtype == want.distances.dtype
        assert got.ids.tobytes() == want.ids.tobytes(), (got.ids, want.ids)
        assert got.distances.tobytes() == want.distances.tobytes(), (got.distances, want.distances)

    @settings(max_examples=60, deadline=None)
    @given(case=scaled_databases())
    def test_knn_oracle_every_k_at_any_scale(self, case):
        db, q = case
        # oracle_query(db, q, k) is the first k of the full sort
        full = oracle_query(db, q, len(db))
        for k in range(1, len(db) + 1):
            want = RetrievalResult(full.ids[:k], full.distances[:k])
            self.assert_bits_equal(query(db, q, k), want)

    @staticmethod
    def measured_rows(monkeypatch):
        """Row count of each :func:`distances` call that :func:`query` makes;
        the call a one-row input makes on itself, as a pair, is not counted."""
        counts, inner, real = [], [], cvloc.retrieval.distances

        def counted(stored, q):
            if not inner:
                counts.append(len(stored))
            inner.append(True)
            try:
                return real(stored, q)
            finally:
                inner.pop()

        monkeypatch.setattr(cvloc.retrieval, "distances", counted)
        return counts

    def test_knn_oracle_default_map_measures_at_most_2k_rows(self, monkeypatch):
        scenario = build_scenario(ScenarioConfig())
        db = database_from_map(scenario.db_map)
        rng = np.random.default_rng(20)
        ex, ey = scenario.world.grid.extent
        views = [scenario.ground_view(Pose(rng.uniform(0, ex), rng.uniform(0, ey), rng.uniform(-math.pi, math.pi)))
                 for _ in range(200)]
        counts = self.measured_rows(monkeypatch)
        for view in views:
            self.assert_bits_equal(query(db, view.values, 80), oracle_query(db, view.values, 80))
        assert len(counts) == 200 and max(counts) <= 2 * 80, max(counts)

    def test_knn_oracle_query_norm_at_the_float64_limit(self):
        # ‖q‖² rounds to the float64 maximum, so the bound overflows to inf: every row
        db, _ = random_db(50, 4, seed=22)
        q = np.array([math.sqrt(np.finfo(np.float64).max), 0.0, 0.0, 0.0])
        self.assert_bits_equal(query(db, q, 3), oracle_query(db, q, 3))

    @pytest.mark.parametrize("db_scale,q_scale", [(1e20, 1.0), (1.0, 1e39), (1e-30, 1.0)])
    def test_knn_oracle_measures_every_row_at_extreme_scales(self, monkeypatch, db_scale, q_scale):
        # a float32 square past ~3.4e38 or a query past the float32 range leaves
        # no finite bound: every row is measured. Descriptors at 1e-30 against a
        # unit query all round to the same float64 distance, and B's float64
        # term keeps every such tie.
        rng = np.random.default_rng(21)
        descs = (rng.normal(size=(1500, 8)) * db_scale).astype(np.float32)
        db = DescriptorDatabase(rng.permutation(1500).astype(np.uint64), np.zeros((1500, 2)), descs)
        q = rng.normal(size=8) * q_scale
        counts = self.measured_rows(monkeypatch)
        for k in (1, 80, 1500):
            self.assert_bits_equal(query(db, q, k), oracle_query(db, q, k))
        assert counts == [1500] * 3


class TestBatchKnn:
    """:func:`query` on a (Q, R) batch: each row is ``oracle_query`` of that
    query alone, ids and distance bits, with the pre-filter's GEMM over
    blocks of at most ``_SCORE_FLOATS`` scores."""

    assert_bits_equal = staticmethod(TestTwoStageKnn.assert_bits_equal)
    measured_rows = staticmethod(TestTwoStageKnn.measured_rows)

    def assert_rows_equal_oracle(self, db, qs, k):
        got = query(db, qs, k)
        assert got.ids.shape == got.distances.shape == (len(qs), k)
        for i, q in enumerate(qs):
            self.assert_bits_equal(RetrievalResult(got.ids[i], got.distances[i]), oracle_query(db, q, k))

    @staticmethod
    def block_queries(db):
        return max(1, cvloc.retrieval._SCORE_FLOATS // len(db))

    @pytest.fixture(scope="class")
    def default_map(self):
        scenario = build_scenario(ScenarioConfig())
        db = database_from_map(scenario.db_map)
        rng = np.random.default_rng(23)
        ex, ey = scenario.world.grid.extent
        poses = rng.uniform((0.0, 0.0, -math.pi), (ex, ey, math.pi), (80, 3))
        return db, scenario.ground_views(poses)

    def test_knn_oracle_batch_at_block_edges_of_the_default_map(self, default_map):
        db, views = default_map
        b = self.block_queries(db)
        assert b == 33  # 2**18 scores over 7,921 rows
        for n in (1, b - 1, b, b + 1, 2 * b + 1):
            for k in (1, 80):
                self.assert_rows_equal_oracle(db, views[:n], k)
        self.assert_rows_equal_oracle(db, views[:b + 1], len(db))

    def test_knn_oracle_batch_past_the_block_budget_one_query_a_block(self, monkeypatch):
        n = cvloc.retrieval._SCORE_FLOATS + 5
        rng = np.random.default_rng(24)
        descs = rng.normal(size=(n, 3)).astype(np.float32)
        db = DescriptorDatabase(rng.permutation(n).astype(np.uint64), np.zeros((n, 2)), descs)
        assert self.block_queries(db) == 1
        blocks, real = [], cvloc.retrieval._candidates
        monkeypatch.setattr(cvloc.retrieval, "_candidates",
                            lambda db, qs, k: blocks.append(len(qs)) or real(db, qs, k))
        qs = np.concatenate([descs[:2].astype(np.float64), rng.normal(size=(1, 3))])
        for q_count in (0, 1, 2, 3):  # b − 1, b, b + 1 and 2·b + 1 at b = 1
            for k in (1, 7):
                self.assert_rows_equal_oracle(db, qs[:q_count], k)
        self.assert_rows_equal_oracle(db, qs[1:3], n)
        assert set(blocks) == {1}

    # 87 queries a block at 3,000 rows
    @pytest.mark.parametrize("q_count", [1, 87, 88, 200])
    def test_knn_oracle_score_blocks_stay_within_the_budget(self, monkeypatch, q_count):
        db, _ = random_db(3000, 6, seed=25)
        scores, real = [], cvloc.retrieval._candidates
        monkeypatch.setattr(cvloc.retrieval, "_candidates",
                            lambda db, qs, k: scores.append(len(qs) * len(db)) or real(db, qs, k))
        query(db, np.random.default_rng(26).normal(size=(q_count, 6)), 4)
        assert max(scores) <= cvloc.retrieval._SCORE_FLOATS
        assert sum(scores) == q_count * len(db)

    def test_knn_oracle_batch_ties_straddle_the_kth_distance(self):
        # rows 100-109 are one descriptor, with ids falling along them, so the
        # id tie-break reorders them; each query's k cuts through the tie
        rng = np.random.default_rng(27)
        n = 2000
        descs = rng.normal(size=(n, 8)).astype(np.float32)
        descs[100:110] = descs[100]
        ids = (n - np.arange(n, dtype=np.uint64)) * np.uint64(2**40 + 1)
        db = DescriptorDatabase(ids, np.zeros((n, 2)), descs)
        qs = np.stack([descs[100].astype(np.float64), descs[100] + 0.01, rng.normal(size=8),
                       descs[100] * 0.5, descs[3].astype(np.float64)])
        ks = {1, n}
        for q in qs:
            full = oracle_query(db, q, n)
            first_tie = int(np.flatnonzero(np.isin(full.ids, ids[100:110]))[0])
            ks |= {first_tie + 1, first_tie + 3, first_tie + 10}
        for k in sorted(ks):
            self.assert_rows_equal_oracle(db, qs, k)

    def test_knn_oracle_one_query_past_float32_measures_every_row_alone(self, monkeypatch):
        db, _ = random_db(1500, 8, seed=28)
        rng = np.random.default_rng(29)
        qs = rng.normal(size=(6, 8))
        qs[2] *= 1e39  # beyond the float32 range: its scores are not finite
        counts = self.measured_rows(monkeypatch)
        for k in (1, 80):
            counts.clear()
            self.assert_rows_equal_oracle(db, qs, k)
            assert len(counts) == 6 and counts[2] == len(db)
            assert max(counts[:2] + counts[3:]) <= 2 * k, counts

    @pytest.mark.skipif(not POOLED, reason="numpy's OpenBLAS has no thread-count functions")
    def test_batch_runs_on_one_blas_thread_and_restores_the_count(self, monkeypatch):
        get, set_ = OPENBLAS.scipy_openblas_get_num_threads64_, OPENBLAS.scipy_openblas_set_num_threads64_
        db, _ = random_db(3000, 6, seed=31)
        seen, fail, real = [], [], cvloc.retrieval._candidates

        def candidates(db, qs, k):
            seen.append(get())
            if fail and len(seen) > 4:
                raise MemoryError("second block")
            return real(db, qs, k)

        monkeypatch.setattr(cvloc.retrieval, "_candidates", candidates)
        qs = np.random.default_rng(32).normal(size=(100, 6))  # two blocks of 87 and 13
        former = get()
        try:
            set_(3)
            query(db, qs, 4)
            assert get() == 3 and seen == [1, 1]
            query(db, qs[0], 4)  # one query: OpenBLAS keeps its count
            assert seen == [1, 1, 3]
            fail.append(True)
            with pytest.raises(MemoryError):
                query(db, qs, 4)
            assert get() == 3 and seen == [1, 1, 3, 1, 1]
        finally:
            set_(former)

    def test_one_row_and_one_query_batch_give_the_same_bits(self, default_map):
        db, views = default_map
        for k in (1, 5, 80):
            one, batch = query(db, views[3], k), query(db, views[3:4], k)
            assert one.ids.shape == one.distances.shape == (k,)
            self.assert_bits_equal(RetrievalResult(batch.ids[0], batch.distances[0]), one)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_batch_with_one_non_finite_query_is_rejected(self, value):
        db, _ = random_db(20, 3)
        qs = np.random.default_rng(30).normal(size=(4, 3))
        qs[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            query(db, qs, 2)

    @pytest.mark.parametrize("shape", [(2, 4), (2, 3, 3), (0, 2)])
    def test_batch_of_the_wrong_shape_is_rejected(self, shape):
        db, _ = random_db(20, 3)
        with pytest.raises(ValueError, match="dimension"):
            query(db, np.zeros(shape), 2)

    def test_empty_batch_gives_empty_results(self):
        db, _ = random_db(20, 3)
        got = query(db, np.zeros((0, 3)), 2)
        assert got.ids.shape == got.distances.shape == (0, 2) and got.ids.dtype == np.uint64


class TestDistanceKernel:
    """:func:`distances` gives a row the same bits whichever rows it is taken
    with, so kNN, the full field and the corner cells of the lazy field all
    score a row from one distance."""

    def test_gathered_rows_equal_the_same_rows_of_the_whole(self):
        # 1,024 rows per block: 5 blocks, the last part-filled
        rng = np.random.default_rng(0)
        stored = rng.normal(size=(5000, 32)).astype(np.float32)
        q = rng.normal(size=32)
        whole = distances(stored, q)
        assert whole.dtype == np.float64 and whole.shape == (5000,)
        for size in (1, 2, 150, 5000):
            for _ in range(3):
                cells = np.sort(rng.choice(5000, size, replace=False))
                np.testing.assert_array_equal(distances(stored[cells], q), whole[cells])
        # a stored row at the query is at distance 0 exactly
        assert distances(stored, stored[4].astype(np.float64))[4] == 0.0

    # 3 and 2 rows per block; 7 rows leave a last block of one row, and a
    # gather of one row is a database of one row, either of which a lone-row
    # einsum would sum differently
    @pytest.mark.parametrize("dim", [10_000, 40_000])
    def test_long_rows_in_every_pair_and_triple(self, dim):
        rng = np.random.default_rng(dim)
        stored = rng.normal(size=(7, dim)).astype(np.float32)
        q = rng.normal(size=dim)
        whole = distances(stored, q)
        for size in (1, 2, 3):
            for cells in itertools.combinations(range(7), size):
                cells = list(cells)
                np.testing.assert_array_equal(distances(stored[cells], q), whole[cells])


class TestRankTableAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_metrics_equal_per_k_loops(self, data):
        db, vectors = data.draw(tied_databases(max_size=20))
        n = len(db)
        rows = st.integers(0, n - 1)
        picks = data.draw(st.lists(st.tuples(rows, vectors), min_size=1, max_size=8))
        descs = [np.array(v, dtype=np.float64) for _, v in picks]
        # true ids and geos of arbitrary entries; the first may lack an entry
        true_ids = [int(db.ids[r]) for r, _ in picks]
        absent = next(i for i in range(n + 1) if i not in db.ids)
        true_ids[0] = data.draw(st.sampled_from([true_ids[0], absent]))
        true_geos = [tuple(db.geos[(r + 1) % n]) for r, _ in picks]
        id_queries = list(zip(true_ids, descs))
        geo_queries = list(zip(true_geos, descs))
        thresholds = [0.0, 1.0, 1e5, 1e6, 2e7, float("inf")]
        percents = [1.0, 12.5, 50.0, 99.9, 100.0]

        table = rank_table(db, descs, n)
        assert table.shape == (len(descs), n) and table.dtype == np.uint64
        for k in range(1, n + 1):
            want = oracle_recall_at_k(db, id_queries, k)
            assert recall_at_k(db, id_queries, k) == want
            assert recall_in_table(table, true_ids, k) == want
        for p in percents:
            assert recall_at_top_percent(db, id_queries, p) == oracle_recall_at_top_percent(db, id_queries, p)
        want = oracle_recall_vs_distance(db, geo_queries, thresholds)
        assert threshold_recall(db, rank_table(db, descs, 1)[:, 0], true_geos, thresholds) == want
        assert threshold_recall(db, table[:, 0], true_geos, thresholds) == want

    def test_one_query_call_per_table(self, monkeypatch):
        db, items = random_db(50, 4, seed=30)
        descs = [items[i][2] for i in range(7)]
        calls = []
        real = cvloc.retrieval.query
        monkeypatch.setattr(cvloc.retrieval, "query", lambda *a: calls.append(a) or real(*a))
        table = rank_table(db, descs, 12)
        assert table.shape == (7, 12) and len(calls) == 1 and calls[0][1].shape == (7, 4)
        np.testing.assert_array_equal(table, [real(db, d, 12).ids for d in descs])

    def test_no_queries_gives_empty_table(self):
        db, _ = random_db(5, 3)
        assert rank_table(db, [], 3).shape == (0, 3)


class TestBuildDb:
    def test_empty_database(self):
        db = build_db([])
        assert len(db) == 0

    def test_three_entries_retrievable(self):
        db, items = random_db(3, 4)
        assert len(db) == 3
        for id_, geo, desc in items:
            got_geo, got_desc = db.entry(id_)
            assert got_geo == pytest.approx(geo)
            np.testing.assert_array_equal(got_desc, desc)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build_db([(1, (0, 0), np.zeros(2)), (1, (0, 0), np.ones(2))])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_db([(1, (0, 0), np.zeros(2)), (2, (0, 0), np.zeros(3))])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["descriptors", "lat", "lon"])
    def test_non_finite_entries_rejected(self, field, value):
        db, _ = random_db(4, 3)
        descs, geos = db.descriptors.copy(), db.geos.copy()
        if field == "descriptors":
            descs[2, 1] = value
        else:
            geos[2, ("lat", "lon").index(field)] = value
        with pytest.raises(ValueError, match="finite"):
            DescriptorDatabase(db.ids, geos, descs)


UINT64_IDS = st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@st.composite
def id_arrays(draw):
    """uint64 id arrays of 0..50 entries, with copies of some ids written over
    others, next to them or far away."""
    ids = draw(st.lists(UINT64_IDS, max_size=50))
    if ids:
        positions = st.integers(0, len(ids) - 1)
        for src, dst in draw(st.lists(st.tuples(positions, positions), max_size=3)):
            ids[dst] = ids[src]
    return np.array(ids, dtype=np.uint64)


class TestDuplicateIds:
    """The id check rejects exactly the arrays that ``np.unique`` finds short."""

    @settings(max_examples=150, deadline=None)
    @example(ids=np.array([], dtype=np.uint64))
    @example(ids=np.array([2**64 - 1], dtype=np.uint64))
    @example(ids=np.array([7, 7], dtype=np.uint64))
    @example(ids=np.array([0, 5, 9, 0], dtype=np.uint64))
    @example(ids=np.array([2**64 - 1, 0, 1, 2**64 - 1], dtype=np.uint64))
    @example(ids=np.array([2**64 - 1, 2**64 - 2, 0, 1], dtype=np.uint64))
    @given(ids=id_arrays())
    def test_rejects_exactly_what_unique_rejects(self, ids, tmp_path_factory):
        n = len(ids)
        duplicated = len(np.unique(ids)) != n
        geos, descs = np.zeros((n, 2)), np.ones((n, 1), dtype=np.float32)
        if duplicated:
            with pytest.raises(ValueError, match="duplicate ids"):
                DescriptorDatabase(ids, geos, descs)
        else:
            assert len(DescriptorDatabase(ids, geos, descs)) == n

        # the same ids in a database file: 24 header bytes, then 28-byte entries led by the id
        path = tmp_path_factory.mktemp("ids") / "ids.db"
        save_db(DescriptorDatabase(np.arange(n, dtype=np.uint64), geos, descs), str(path))
        raw = bytearray(path.read_bytes())
        for i, id_ in enumerate(ids):
            struct.pack_into("<Q", raw, 24 + 28 * i, int(id_))
        path.write_bytes(bytes(raw))
        if not duplicated:
            np.testing.assert_array_equal(load_db(str(path)).ids, ids)
            return
        with pytest.raises(ValueError, match="duplicate ids"):
            load_db(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["query", "--set", "lat_max=40.00135", "--set", "lon_max=-104.99824",
                         "--db", str(path), "--pose", "60,60,0"])
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error[input]: duplicate ids")


def former_database_check(ids, geos, descriptors):
    """The former rule of ``DescriptorDatabase``, kept as the oracle of its
    checks: duplicates by sorting the ids and comparing neighbours, then
    finiteness by the min and max of the descriptors and of each geo column.
    Returns the ValueError message, or None where the database is accepted."""
    ids = np.sort(ids)
    if np.any(ids[1:] == ids[:-1]):
        return "duplicate ids in database"
    extremes = [f(initial=0.0) for a in (descriptors, *geos.T) for f in (a.min, a.max)]
    if not np.all(np.isfinite(extremes)):
        return "database descriptors and geos must be finite"
    return None


# finite scales of each descriptor dtype: ordinary, squares past float32's range in a
# long enough row, and the largest float32; squares past float64's range, and ±1e308
DESCRIPTOR_SCALES = {np.float32: [1.0, 1e19, 3.4e38], np.float64: [1.0, 1e154, 1e308]}


@st.composite
def checked_columns(draw):
    """(ids, geos, descriptors) of 0-300 entries and dimension 1-64: sorted,
    shuffled or one-duplicate uint64 ids up to 2^64 - 1, float32 or float64
    descriptors and float64 geos at finite scales up to their dtype's edge
    (random values, or every value at ±scale), with NaN and ±inf at a few
    random cells of either."""
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 300))
    r = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.array(sorted(draw(st.sets(st.sampled_from([0, 1, 2**63, 2**64 - 1])))), dtype=np.uint64)
    ids = np.unique(np.concatenate([edges, rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)]))
    ids = ids[rng.permutation(len(ids))[:n]]
    layout = draw(st.sampled_from(["sorted", "shuffled", "one duplicate"] if n > 1 else ["sorted"]))
    if layout == "one duplicate":
        src, dst = rng.choice(n, 2, replace=False)
        ids[dst] = ids[src]
    if layout == "sorted":
        ids.sort()

    def column(shape, dtype, scale):
        signs = rng.uniform(-1.0, 1.0, shape) if draw(st.booleans()) else rng.choice([-1.0, 1.0], shape)
        return (signs * scale).astype(dtype)

    dtype = draw(st.sampled_from([np.float32, np.float64]))
    descs = column((len(ids), r), dtype, draw(st.sampled_from(DESCRIPTOR_SCALES[dtype])))
    geos = column((len(ids), 2), np.float64, draw(st.sampled_from([90.0, 1e308])))
    for array, most in ((descs, 3), (geos, 2)):
        for _ in range(draw(st.integers(0, most)) if len(ids) else 0):
            cell = tuple(rng.integers(0, array.shape))
            array[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return ids, geos, descs


class TestDatabaseChecksAgainstTheFormerRule:
    """The squared norms and geo sums prove most databases finite, and one
    scan of the ids proves sorted ids unique: a database is accepted exactly
    when the former sort-and-min/max rule accepts it, else it raises that
    rule's message, and the norms are the pre-filter's einsum, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @example(cols=(np.array([5, 5], dtype=np.uint64), np.full((2, 2), np.nan), np.full((2, 3), np.inf)))
    @example(cols=(np.array([9, 2], dtype=np.uint64), np.zeros((2, 2)),
                   np.array([[3.4e38, -3.4e38], [np.nan, 0.0]], dtype=np.float32)))
    @given(cols=checked_columns())
    def test_accepts_exactly_what_the_former_rule_accepts(self, cols):
        ids, geos, descs = cols
        want = former_database_check(ids, geos, descs)
        event(want or "accepted")
        if want is not None:
            with pytest.raises(ValueError, match=f"^{want}$"):
                DescriptorDatabase(ids, geos, descs)
            return
        db = DescriptorDatabase(ids, geos, descs)
        sq, top = db._sq_norms
        want_sq = np.einsum("ij,ij->i", descs, descs)
        assert sq.dtype == want_sq.dtype and sq.tobytes() == want_sq.tobytes()
        assert top == float(want_sq.max(initial=0.0))
        event(f"accepted with {'finite' if math.isfinite(top) else 'overflowing'} norms")
        order = db._id_order
        if np.all(ids[1:] > ids[:-1]):
            assert order is None
        else:
            assert sorted(order.tolist()) == list(range(len(ids))) and np.all(np.diff(ids[order]) > 0)

    @pytest.mark.parametrize("dtype, scale", [(np.float32, 3.4e38), (np.float64, 1e308)])
    def test_finite_extremes_load(self, dtype, scale, tmp_path):
        signs = np.resize([1.0, -1.0], (6, 4))
        db = DescriptorDatabase(np.arange(6, dtype=np.uint64)[::-1].copy(), signs[:, :2] * 1e308,
                                (signs * scale).astype(dtype))
        assert db._sq_norms[1] == math.inf  # every square overflowed: min and max ruled
        if dtype is np.float32:
            save_db(db, str(tmp_path / "edge.db"))
            assert len(load_db(str(tmp_path / "edge.db"))) == 6


def linear_scan_entry(db, id_):
    """The former ``entry``: the first row whose id equals ``id_``."""
    rows = [i for i, stored in enumerate(db.ids.tolist()) if stored == id_]
    if not rows:
        raise KeyError(id_)
    return (float(db.geos[rows[0], 0]), float(db.geos[rows[0], 1])), db.descriptors[rows[0]]


def former_threshold_recall(db, top_ids, true_geos, thresholds):
    """The former ``threshold_recall``: top-1 geos through an argsort of the ids
    made on every call."""
    top_ids = np.asarray(top_ids, dtype=np.uint64)
    order = np.argsort(db.ids)
    pos = np.searchsorted(db.ids, top_ids, sorter=order)
    if np.any(pos == len(order)) or not np.array_equal(db.ids[order[pos]], top_ids):
        raise KeyError("a top-1 id is not in the database")
    errors = np.array([geo_distance_m(lat, lon, glat, glon)
                       for (lat, lon), (glat, glon) in zip(true_geos, db.geos[order[pos]].tolist())])
    return [(float(t), float(np.mean(errors <= t))) for t in thresholds]


@st.composite
def indexed_databases(draw):
    """Databases of 1-60 unique uint64 ids, with 0 and 2^64 - 1 among them or
    not, stored sorted or shuffled, as loaded (fields of a record array)."""
    ids = draw(st.sets(UINT64_IDS, min_size=1, max_size=60))
    ids |= draw(st.sets(st.sampled_from([0, 2**64 - 1])))
    ids = sorted(ids)
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))
    rng = np.random.default_rng(len(ids))
    records = np.empty(len(ids), dtype=cvloc.retrieval._record(3))
    records["id"], records["geo"] = ids, rng.uniform(-90, 90, (len(ids), 2))
    records["desc"] = rng.normal(size=(len(ids), 3))
    return DescriptorDatabase(records["id"], records["geo"], records["desc"])


def absent_ids(db):
    """Ids below, between and above the stored ones, and Python ints outside uint64."""
    stored = sorted(db.ids.tolist())
    between = [a + (b - a) // 2 for a, b in zip(stored, stored[1:]) if b - a > 1]
    outside = [stored[0] - 1, stored[-1] + 1, -1, -(2**64), 2**64, 2**64 + stored[0], 2**70]
    return [i for i in between + outside if i not in set(stored)]


class TestIdIndex:
    """``entry`` and ``threshold_recall`` find rows by a binary search through
    the id index (no order for sorted ids, an argsort otherwise)."""

    @settings(max_examples=150, deadline=None)
    @example(db=DescriptorDatabase(np.array([2**64 - 1, 0], dtype=np.uint64), np.zeros((2, 2)),
                                   np.eye(2, dtype=np.float32)))
    @given(db=indexed_databases())
    def test_entry_equals_a_linear_scan(self, db):
        for id_ in db.ids.tolist():
            (lat, lon), desc = db.entry(id_)
            (want_lat, want_lon), want_desc = linear_scan_entry(db, id_)
            assert (lat, lon) == (want_lat, want_lon)
            assert desc.tobytes() == want_desc.tobytes()
        for id_ in absent_ids(db):
            with pytest.raises(KeyError):
                linear_scan_entry(db, id_)
            with pytest.raises(KeyError):
                db.entry(id_)

    def test_empty_database_has_no_entries(self):
        db = build_db([])
        for id_ in (0, 2**64 - 1, -1):
            with pytest.raises(KeyError):
                db.entry(id_)

    @settings(max_examples=100, deadline=None)
    @given(db=indexed_databases(), picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=20))
    def test_threshold_recall_equals_the_former_argsort(self, db, picks):
        stored = db.ids.tolist()
        top = np.array([stored[p % len(stored)] for p in picks], dtype=np.uint64)
        truth = [(float(40 + p % 7 * 1e-4), -105.0) for p in picks]
        thresholds = [0.0, 10.0, 1e3, 1e7, math.inf]
        assert threshold_recall(db, top, truth, thresholds) == former_threshold_recall(db, top, truth, thresholds)
        for absent in absent_ids(db):
            if 0 <= absent < 2**64:
                bad = np.concatenate([top, np.array([absent], dtype=np.uint64)])
                with pytest.raises(KeyError):
                    former_threshold_recall(db, bad, truth + [(40.0, -105.0)], thresholds)
                with pytest.raises(KeyError):
                    threshold_recall(db, bad, truth + [(40.0, -105.0)], thresholds)


class TestQuery:
    def test_exact_match_ranks_first(self):
        db, items = random_db(10, 8)
        result = query(db, items[4][2], 3)
        assert result.ids[0] == 4
        assert result.distances[0] == 0.0

    def test_k_equals_size_returns_sorted(self):
        db, items = random_db(7, 5, seed=2)
        q = np.random.default_rng(3).normal(size=5)
        result = query(db, q, 7)
        assert np.all(np.diff(result.distances) >= 0)
        assert set(result.ids.tolist()) == set(range(7))

    @pytest.mark.parametrize("n,k,seed", [(5, 2, 1), (100, 7, 2), (500, 11, 3), (10_000, 13, 4)])
    def test_matches_brute_force_sort(self, n, k, seed):
        db, items = random_db(n, 6, seed=seed)
        q = np.random.default_rng(seed + 100).normal(size=6)
        oracle = brute_force_ranking(items, q)[:k]
        result = query(db, q, k)
        assert result.ids.tolist() == [id_ for _, id_ in oracle]
        assert result.distances == pytest.approx([d for d, _ in oracle])

    def test_distance_ties_break_by_id(self):
        desc = np.ones(3, dtype=np.float32)
        db = build_db([(9, (0, 0), desc), (2, (0, 0), desc.copy())])
        result = query(db, np.zeros(3), 2)
        assert result.ids.tolist() == [2, 9]

    def test_empty_db_rejected(self):
        with pytest.raises(ValueError):
            query(build_db([]), np.zeros(2), 1)

    def test_bad_k_rejected(self):
        db, _ = random_db(3, 2)
        with pytest.raises(ValueError):
            query(db, np.zeros(2), 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, value):
        db, _ = random_db(3, 2)
        with pytest.raises(ValueError, match="finite"):
            query(db, np.array([0.0, value]), 1)


class TestRecallTopPercent:
    def test_perfect_queries(self):
        db, items = random_db(50, 8)
        queries = [(id_, desc) for id_, _, desc in items[:10]]
        assert recall_at_top_percent(db, queries, 1.0) == 1.0

    def test_adversarial_zero(self):
        # ground truth is always the farthest entry
        descs = [np.zeros(2, dtype=np.float32)] * 9 + [np.full(2, 100.0, dtype=np.float32)]
        db = build_db([(i, (0, 0), d) for i, d in enumerate(descs)])
        queries = [(9, np.zeros(2))]
        assert recall_at_top_percent(db, queries, 50.0) == 0.0

    def test_one_percent_of_hundred_is_top1(self):
        db, items = random_db(100, 6, seed=5)
        rng = np.random.default_rng(6)
        queries = [(i, items[i][2] + rng.normal(0, 0.05, 6)) for i in range(10)]
        expect = sum(
            brute_force_ranking(items, q)[0][1] == true_id for true_id, q in queries
        ) / len(queries)
        assert recall_at_top_percent(db, queries, 1.0) == expect

    def test_larger_k_never_decreases_recall(self):
        db, items = random_db(40, 4, seed=7)
        rng = np.random.default_rng(8)
        queries = [(i, items[i][2] + rng.normal(0, 0.8, 4)) for i in range(20)]
        recalls = [recall_at_k(db, queries, k) for k in range(1, 11)]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))


class TestRecallVsDistance:
    """The top-1 distance-threshold curve as ``eval`` computes it: one
    :func:`rank_table` to k = 1, then :func:`threshold_recall`."""

    @staticmethod
    def curve(db, geos, descs, thresholds):
        got = threshold_recall(db, rank_table(db, descs, 1)[:, 0], geos, thresholds)
        assert got == oracle_recall_vs_distance(db, list(zip(geos, descs)), thresholds)
        return got

    def test_infinite_threshold(self):
        db, items = random_db(10, 3)
        assert self.curve(db, [(40.0, -105.0)], [items[0][2]], [float("inf")]) == [(float("inf"), 1.0)]

    def test_perfect_retrieval_zero_distance(self):
        db, items = random_db(10, 3)
        geos, descs = [it[1] for it in items[:5]], [it[2] for it in items[:5]]
        assert self.curve(db, geos, descs, [0.1]) == [(0.1, 1.0)]

    def test_matches_per_query_recomputation(self):
        db, items = random_db(60, 5, seed=9, geo_jitter=0.0005)
        rng = np.random.default_rng(10)
        geos = [items[i][1] for i in range(50)]
        descs = [items[i][2] + rng.normal(0, 0.7, 5) for i in range(50)]
        thresholds = [10.0, 50.0, 200.0, 1000.0]
        for thr, recall in self.curve(db, geos, descs, thresholds):
            hits = 0
            for (lat, lon), q in zip(geos, descs):
                best_id = brute_force_ranking(items, q)[0][1]
                g = items[best_id][1]
                if geo_distance_m(lat, lon, g[0], g[1]) <= thr:
                    hits += 1
            assert recall == pytest.approx(hits / len(descs))

    def test_curve_nondecreasing(self):
        db, items = random_db(30, 4, seed=11)
        rng = np.random.default_rng(12)
        geos = [items[i][1] for i in range(30)]
        descs = [items[i][2] + rng.normal(0, 1.0, 4) for i in range(30)]
        values = [r for _, r in self.curve(db, geos, descs, [1, 10, 100, 10000])]
        assert values == sorted(values)

    def test_unknown_top_id_rejected(self):
        db, _ = random_db(10, 3)
        for top in ([3, 10], [2**63]):
            with pytest.raises(KeyError):
                threshold_recall(db, np.array(top, dtype=np.uint64), [(40.0, -105.0)] * len(top), [1.0])


class TestDistractors:
    def test_zero_distractors_change_nothing(self):
        db, items = random_db(20, 4)
        queries = [(i, items[i][2]) for i in range(20)]
        before = recall_at_k(db, queries, 1)
        after = recall_at_k(add_distractors(db, []), queries, 1)
        assert before == after == 1.0

    def test_far_distractors_leave_top1_unchanged(self):
        db, items = random_db(20, 4, seed=13)
        rng = np.random.default_rng(14)
        queries = [(i, items[i][2] + rng.normal(0, 0.1, 4)) for i in range(20)]
        far = [(1000 + i, (50.0, -100.0), (rng.normal(size=4) + 50.0).astype(np.float32))
               for i in range(40)]
        before = recall_at_k(db, queries, 1)
        after = recall_at_k(add_distractors(db, far), queries, 1)
        assert after == before

    def test_duplicate_descriptors_degrade_recall(self):
        db, items = random_db(20, 4, seed=15)
        queries = [(i, items[i][2]) for i in range(20)]
        clones = [(1000 + i, (50.0, -100.0), desc.copy()) for i, (_, _, desc) in enumerate(items)]
        # clones tie at distance 0 but carry lower... higher ids, so the
        # originals still win ties; displace the true entry to rank > 1 by
        # querying at the clone of a *different* entry
        shifted_queries = [(i, items[(i + 1) % 20][2]) for i in range(20)]
        before = recall_at_k(db, shifted_queries, 1)
        after = recall_at_k(add_distractors(db, clones), shifted_queries, 1)
        assert after <= before

    def test_id_collision_rejected(self):
        db, items = random_db(5, 4)
        with pytest.raises(ValueError):
            add_distractors(db, [(2, (0, 0), np.zeros(4, dtype=np.float32))])

    def test_dimension_mismatch_rejected(self):
        db, _ = random_db(5, 4)
        with pytest.raises(ValueError):
            add_distractors(db, [(100, (0, 0), np.zeros(5, dtype=np.float32))])


def struct_save_db(db, path):
    """Per-entry reference writer for the database format."""
    with open(path, "wb") as fh:
        fh.write(b"CVLOCDB1")
        fh.write(struct.pack("<IQI", 1, len(db), db.dimension))
        for i in range(len(db)):
            fh.write(struct.pack("<Qdd", int(db.ids[i]), db.geos[i, 0], db.geos[i, 1]))
            fh.write(np.ascontiguousarray(db.descriptors[i], dtype="<f4").tobytes())


def struct_load_db(path):
    """Per-entry reference reader for the database format."""
    with open(path, "rb") as fh:
        assert fh.read(8) == b"CVLOCDB1"
        version, count, dim = struct.unpack("<IQI", fh.read(16))
        assert version == 1
        ids = np.empty(count, dtype=np.uint64)
        geos = np.empty((count, 2), dtype=np.float64)
        descs = np.empty((count, dim), dtype=np.float32)
        for i in range(count):
            ids[i], geos[i, 0], geos[i, 1] = struct.unpack("<Qdd", fh.read(24))
            descs[i] = np.frombuffer(fh.read(4 * dim), dtype="<f4")
        assert fh.read() == b""
        return DescriptorDatabase(ids, geos, descs)


def random_records(count, dim, seed):
    """Random database with full-range ids, signed geos and non-unit descriptors."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 2**64 - 1, size=count, dtype=np.uint64, endpoint=True)
    geos = rng.uniform(-180, 180, size=(count, 2))
    descs = (rng.normal(size=(count, dim)) * 1e3).astype(np.float32)
    return DescriptorDatabase(ids, geos, descs)


# Golden hashes, checked with helpers.GOLDEN_VERSIONS.
# sha256 of `cvloc build-db` at the default scenario config
BUILD_DB_DEFAULT_SHA256 = "09e6addb2b4321a18cee713d8112336cc683690f808daeb58a5bd4f843968c3f"


# sha256 of each `cvloc eval --out-dir` file at the default scenario config
EVAL_DEFAULT_SHA256 = {
    "recall_percent.csv": "edbf3ae2b4e98e558aede27ad3a1b35599ad0ca6727ea297c4921e5895af7af7",
    "recall_threshold.csv": "1c60e158135aaac36efa77cf6429d1f3da7368cd82f4229ed3c80f9779d0c308",
    "recall_topk.csv": "c16f13c255bee9b8f7761580646763322ba732210a70d09ffc81c61a31effda5",
    "retrieval_summary.json": "32fba85bd530057b25105471758dfae7357c187831b0e192166a1ebbe3a3a492",
}


class TestEvalOutputs:
    def test_default_files_unchanged(self, tmp_path, capsys):
        assert main(["eval", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert_golden(got, EVAL_DEFAULT_SHA256, "eval --out-dir file sha256s")


class TestPersistence:
    @pytest.mark.parametrize("count", [0, 1, 17])
    @pytest.mark.parametrize("dim", [1, 9, 32])
    def test_matches_per_entry_reference_format(self, tmp_path, count, dim):
        db = random_records(count, dim, seed=100 * count + dim)
        ours, ref = tmp_path / "ours.bin", tmp_path / "ref.bin"
        save_db(db, str(ours))
        struct_save_db(db, str(ref))
        assert ours.read_bytes() == ref.read_bytes()
        loaded, expected = load_db(str(ref)), struct_load_db(str(ref))
        for attr in ("ids", "geos", "descriptors"):
            got, want = getattr(loaded, attr), getattr(expected, attr)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_build_db_default_bytes_unchanged(self, tmp_path, capsys):
        path = tmp_path / "map.db"
        assert main(["build-db", "--out", str(path)]) == 0
        capsys.readouterr()
        assert_golden(hashlib.sha256(path.read_bytes()).hexdigest(), BUILD_DB_DEFAULT_SHA256, "build-db file")

    def test_build_db_from_saved_default_params_bytes_unchanged(self, tmp_path, capsys):
        params, path = tmp_path / "default.params", tmp_path / "map.db"
        save_pipeline(build_pipeline(ScenarioConfig(out_dir="")), str(params))
        assert main(["build-db", "--set", f"params_file={params}", "--out", str(path)]) == 0
        capsys.readouterr()
        assert_golden(hashlib.sha256(path.read_bytes()).hexdigest(), BUILD_DB_DEFAULT_SHA256, "build-db file")

    def test_round_trip_identical(self, tmp_path):
        db, _ = random_db(17, 9, seed=21)
        path = tmp_path / "db.bin"
        save_db(db, str(path))
        loaded = load_db(str(path))
        np.testing.assert_array_equal(loaded.ids, db.ids)
        np.testing.assert_array_equal(loaded.geos, db.geos)
        np.testing.assert_array_equal(loaded.descriptors, db.descriptors)

    def test_save_load_save_bytes_identical(self, tmp_path):
        db, _ = random_db(8, 5, seed=22)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_db(db, str(a))
        save_db(load_db(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_db(str(p))


def database_arrays(max_count=300):
    """Databases of 0, 1 or up to ``max_count`` entries and dimension 1-64:
    unsorted, sparse uint64 ids up to 2^64 - 1 and finite extremes, descriptors
    to ±3.4e38 and geos to ±1e308."""
    edge = float(np.float32(3.4e38))

    def build(count, dim):
        return st.tuples(
            st.lists(st.integers(0, 2**64 - 1), min_size=count, max_size=count, unique=True),
            hnp.arrays(np.float64, (count, 2), elements=st.floats(-1e308, 1e308)),
            hnp.arrays(np.float32, (count, dim), elements=st.floats(-edge, edge, width=32)),
        ).map(lambda cols: DescriptorDatabase(np.array(cols[0], dtype=np.uint64), cols[1], cols[2]))

    counts = st.sampled_from([0, 1]) | st.integers(2, max_count)
    return st.tuples(counts, st.integers(1, 64)).flatmap(lambda shape: build(*shape))


def extreme_db(count, dim):
    """Every value at the edge of database_arrays' ranges, ids descending from 2^64 - 1."""
    signs = np.where(np.arange(count * dim) % 2, -1.0, 1.0)
    return DescriptorDatabase(
        np.uint64(2**64 - 1) - np.arange(count, dtype=np.uint64) * np.uint64(2**40 + 7),
        np.resize(signs, (count, 2)) * 1e308,
        (np.resize(signs, (count, dim)) * 3.4e38).astype(np.float32),
    )


class ShortRead(io.BufferedReader):
    """A reader whose body read stops one byte short, as when the file
    shrinks between its size check and the read."""

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")
        return super().readinto(view[:-1])


# a query on the 31 x 31 map of a small scenario
SMALL_QUERY = ["--set", "lat_max=40.00135", "--set", "lon_max=-104.99824", "--pose", "60,60,0"]


@pytest.fixture(scope="module")
def db_2m():
    return database_from_map(build_scenario(ScenarioConfig(cell_interval=2.0, out_dir="")).db_map)


class TestRecordArrayPersistence:
    @settings(max_examples=60, deadline=None)
    @example(db=extreme_db(0, 1))
    @example(db=extreme_db(1, 64))
    @example(db=extreme_db(300, 7))
    @given(db=database_arrays())
    def test_save_load_round_trip_fuzz(self, db, tmp_path_factory):
        a = tmp_path_factory.mktemp("fuzz") / "a.db"
        save_db(db, str(a))
        loaded = load_db(str(a))
        for attr, dtype in (("ids", np.uint64), ("geos", np.float64), ("descriptors", np.float32)):
            got, want = getattr(loaded, attr), getattr(db, attr)
            assert got.dtype == dtype and got.shape == want.shape, attr
            assert got.tobytes() == want.tobytes(), attr
        b = a.with_name("b.db")
        save_db(loaded, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_columns_are_fields_of_one_record_array(self, tmp_path):
        path = tmp_path / "db.bin"
        save_db(random_records(17, 9, seed=3), str(path))
        db = load_db(str(path))
        records = db.ids.base
        assert records is not None and records.dtype.names == ("id", "geo", "desc")
        assert db.geos.base is records and db.descriptors.base is records

    def test_short_read_is_a_value_error_and_exits_2(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "map.db"
        save_db(random_records(17, 9, seed=4), str(path))
        monkeypatch.setattr(cvloc.retrieval, "open", lambda p, mode: ShortRead(io.FileIO(p, mode[0])),
                            raising=False)
        body = path.stat().st_size - 24
        with pytest.raises(ValueError, match=f"ended after {body - 1} of its {body} declared bytes"):
            load_db(str(path))
        code = main(["query", *SMALL_QUERY, "--db", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error[input]: database file ended after")

    def test_empty_database_loads_and_query_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.db"
        save_db(extreme_db(0, 32), str(path))
        db = load_db(str(path))
        assert len(db) == 0 and db.dimension == 32
        code = main(["query", *SMALL_QUERY, "--db", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error[input]: cannot query an empty database")

    def test_load_db_peak_is_the_body_and_a_sorted_id_copy(self, db_2m, tmp_path):
        path = tmp_path / "map.db"
        save_db(db_2m, str(path))
        body = path.stat().st_size - 24
        tracemalloc.start()
        try:
            load_db(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= body + 8 * len(db_2m) + 2**20, (peak, body)

    def test_save_db_peak_is_the_record_array(self, db_2m, tmp_path):
        path = tmp_path / "map.db"
        records = len(db_2m) * (24 + 4 * db_2m.dimension)
        tracemalloc.start()
        try:
            save_db(db_2m, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= records + 2**20, (peak, records)
        assert path.stat().st_size == 24 + records

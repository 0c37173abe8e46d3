import hashlib
import math
import mmap
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OPENBLAS, POOLED, assert_golden, ground_view_oracle

import cvloc.world
from cvloc.cli import main
from cvloc.config import ScenarioConfig, load_config
from cvloc.descriptor import (
    SATELLITE,
    AffineMap,
    Branch,
    Pipeline,
    forward,
    forward_batch,
    random_dual_pipeline,
    random_shared_pipeline,
    save_pipeline,
)
from cvloc.mapgrid import GridMap, OutOfMapError
from cvloc.motion import Pose
from cvloc.simulate import build_pipeline, build_scenario, build_world, scenario_trajectory
from cvloc.world import (
    FEATURE_CHUNK_COLUMNS,
    MAP_BLOCK_BYTES,
    TILE,
    TWO_PI,
    AliasRegion,
    Corridor,
    SyntheticWorld,
    _features_at,
    _field_params,
    build_descriptor_map,
    satellite_cell_features,
    sets_per_block,
    synth_features,
    tiled_descriptor_map,
)


def world_fingerprint(world: SyntheticWorld, rng_seed: int) -> str:
    """Hash of the realised field parameters and grid geometry, for
    asserting reproducibility across processes."""
    wave, phase = _field_params(rng_seed, world.n_features, world.feature_dim, world.length_scale, 0,
                                world.flat)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(wave).tobytes())
    h.update(np.ascontiguousarray(phase).tobytes())
    g = world.grid
    h.update(f"{g.origin}|{g.cell_interval}|{g.width}x{g.height}|{world.flat}".encode())
    return h.hexdigest()


def flat_oracle(world: SyntheticWorld, rng_seed: int, cells: int, spawn: int = 0) -> np.ndarray:
    """A flat world's features, cos φ at every place, in the broadcast form
    of the former flat-only feature path."""
    _, phase = _field_params(rng_seed, world.n_features, world.feature_dim, world.length_scale, spawn, False)
    return np.broadcast_to(np.cos(phase), (cells,) + phase.shape)


def make_world(interval=5.0, cells=41, **kw):
    grid = GridMap((40.0, -105.0), interval, cells, cells)
    return SyntheticWorld(grid=grid, **kw)


def ground_descriptor(world, pipeline, pose, seed):
    return forward(pipeline, synth_features(world, pose, seed)).values


class TestDeterminism:
    def test_same_pose_same_seed_identical(self):
        w = make_world()
        a = synth_features(w, Pose(30.0, 40.0, 0.5), 7)
        b = synth_features(w, Pose(30.0, 40.0, 0.5), 7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_distinct_seeds_distinct_worlds(self):
        w = make_world()
        a = synth_features(w, Pose(30.0, 40.0, 0.5), 7)
        b = synth_features(w, Pose(30.0, 40.0, 0.5), 8)
        assert not np.array_equal(a.features, b.features)

    def test_fingerprint_reproducible(self):
        assert world_fingerprint(make_world(), 7) == world_fingerprint(make_world(), 7)
        assert world_fingerprint(make_world(), 7) != world_fingerprint(make_world(), 9)


class TestSmoothness:
    def test_near_pose_pairs_closer_than_far_pairs(self):
        # brute-force oracle: sample 100 pose pairs at 1 m and 100 m
        w = make_world(cells=61)
        pipeline = random_dual_pipeline(11, tie_views=True)
        rng = np.random.default_rng(0)
        wins = 0
        for _ in range(100):
            x, y = rng.uniform(60, 200, 2)
            theta = rng.uniform(-math.pi, math.pi)
            base = ground_descriptor(w, pipeline, Pose(x, y, theta), 7)
            near = ground_descriptor(w, pipeline, Pose(x + 1.0, y, theta), 7)
            far = ground_descriptor(w, pipeline, Pose(x + 100.0, y, theta), 7)
            if np.linalg.norm(base - near) < np.linalg.norm(base - far):
                wins += 1
        assert wins >= 95

    def test_adjacent_cells_closer_than_distant_cells(self):
        w = make_world()
        pipeline = random_dual_pipeline(11, tie_views=True)
        db = build_descriptor_map(w, pipeline, 7)
        descs = db.descriptors.astype(np.float64)
        rng = np.random.default_rng(1)
        wins = 0
        trials = 200
        for _ in range(trials):
            col = rng.integers(0, w.grid.width - 1)
            row = rng.integers(0, w.grid.height)
            a = row * w.grid.width + col
            adjacent = a + 1
            # a far cell: at least half the map away
            far_col = int((col + w.grid.width // 2) % w.grid.width)
            far_row = int((row + w.grid.height // 2) % w.grid.height)
            far = far_row * w.grid.width + far_col
            d_adj = np.linalg.norm(descs[a] - descs[adjacent])
            d_far = np.linalg.norm(descs[a] - descs[far])
            if d_adj < d_far:
                wins += 1
        assert wins / trials >= 0.95


class TestViews:
    def test_heading_only_rolls_feature_order(self):
        w = make_world()
        pipeline = random_dual_pipeline(11, tie_views=True)
        a = ground_descriptor(w, pipeline, Pose(50.0, 50.0, 0.0), 7)
        b = ground_descriptor(w, pipeline, Pose(50.0, 50.0, 2.0), 7)
        # the aggregated descriptor ignores the roll entirely
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_ground_and_satellite_views_differ_but_match_closely(self):
        w = make_world(view_noise=0.05)
        sat = synth_features(w, Pose(50.0, 50.0, 0.0), 7, view="satellite")
        grd = synth_features(w, Pose(50.0, 50.0, 0.0), 7, view="ground")
        assert not np.array_equal(sat.features, grd.features)
        assert np.abs(sat.features - grd.features).max() < 0.2

    def test_out_of_bounds_pose_rejected(self):
        w = make_world()
        with pytest.raises(OutOfMapError):
            synth_features(w, Pose(-10.0, 0.0, 0.0), 7)


class TestAliasing:
    def test_aliased_regions_share_descriptors(self):
        alias = AliasRegion(src_x=50.0, src_y=50.0, dst_x=150.0, dst_y=150.0, radius=8.0)
        w = make_world(aliases=(alias,))
        pipeline = random_dual_pipeline(11, tie_views=True)
        db = build_descriptor_map(w, pipeline, 7)
        # cells at the two centres (on-lattice at interval 5) carry
        # identical descriptors; a control cell elsewhere does not
        def cell_index(x, y):
            return int(y / 5) * w.grid.width + int(x / 5)

        src = db.descriptors[cell_index(50, 50)]
        dst = db.descriptors[cell_index(150, 150)]
        other = db.descriptors[cell_index(100, 60)]
        np.testing.assert_array_equal(src, dst)
        assert not np.array_equal(src, other)


class TestCorridor:
    def test_ring_cells_score_higher_for_on_ring_queries(self):
        from cvloc.measurement import location_probabilities
        from cvloc.simulate import _loop_radius, build_scenario

        cfg = ScenarioConfig(corridor=True, corridor_gain=1.0, corridor_width=10.0, out_dir="")
        scenario = build_scenario(cfg)
        grid = scenario.world.grid
        r = _loop_radius(cfg)
        ex, ey = grid.extent
        cx, cy = ex / 2, ey / 2
        pose = Pose(cx + r, cy, math.pi / 2)
        p = location_probabilities(scenario.db_map, scenario.ground_view(pose)).probabilities
        locs = grid.locations()
        ring_dist = np.abs(np.hypot(locs[:, 0] - cx, locs[:, 1] - cy) - r)
        on_ring = p[ring_dist < 10.0].mean()
        off_ring = p[ring_dist > 40.0].mean()
        assert on_ring > 1.3 * off_ring


class TestConfigWiring:
    def test_alias_regions_flow_from_config(self):
        from cvloc.config import ScenarioConfig
        from cvloc.simulate import build_world

        cfg = ScenarioConfig(alias_regions="50,50,150,150,8", out_dir="")
        world = build_world(cfg)
        assert world.aliases == (AliasRegion(50.0, 50.0, 150.0, 150.0, 8.0),)

    def test_flat_world_kind(self):
        from cvloc.config import ScenarioConfig
        from cvloc.simulate import build_world

        assert build_world(ScenarioConfig(world_kind="flat", out_dir="")).flat


# non-square, more than one block of rows (5 rows of 97 cells at 24 x 16
# features), and a height that is not a multiple of it
ODD_GRID = GridMap((40.0, -105.0), 2.5, 97, 131)
# wider than one feature chunk and not a multiple of it
WIDE_GRID = GridMap((40.0, -105.0), 1.5, 2 * FEATURE_CHUNK_COLUMNS + 37, 9)


class TestFlatWorld:
    def test_every_cell_identical(self):
        w = make_world(flat=True)
        feats = satellite_cell_features(w, 7)
        assert np.all(feats == feats[0])

    @pytest.mark.parametrize("grid", [ODD_GRID, WIDE_GRID], ids=["odd", "wide"])
    def test_cell_features_equal_the_broadcast_form_bit_for_bit(self, grid):
        w = SyntheticWorld(grid=grid, flat=True)
        np.testing.assert_array_equal(satellite_cell_features(w, 7), flat_oracle(w, 7, grid.num_cells))

    def test_pose_features_equal_the_broadcast_form_bit_for_bit(self):
        w = make_world(flat=True, view_noise=0.05)
        sat, noise = flat_oracle(w, 7, 1)[0], flat_oracle(w, 7, 1, spawn=1)[0]
        for x, y in ((30.0, 40.0), (200.0, 10.0)):
            np.testing.assert_array_equal(synth_features(w, Pose(x, y, 0.0), 7, SATELLITE).features, sat)
            # heading 0 rolls nothing
            np.testing.assert_array_equal(synth_features(w, Pose(x, y, 0.0), 7).features,
                                          sat + w.view_noise * noise)

    def test_descriptor_map_shapes(self):
        w = make_world(cells=11)
        pipeline = random_dual_pipeline(11, tie_views=True)
        db = build_descriptor_map(w, pipeline, 7)
        assert db.descriptors.shape == (121, 32)
        assert db.descriptors.dtype == np.float32


def oneshot_descriptor_map(world, pipeline, seed):
    """Reference map build: every cell's features on the direct path, then
    one forward pass over the whole map, then float32."""
    feats = _features_at(world, world.grid.locations(), seed, SATELLITE)
    return forward_batch(pipeline, feats, SATELLITE).astype(np.float32)


def block_rows(world):
    """Grid rows per map-build block: as many whole rows as fit the float64
    feature budget, at least one."""
    row_bytes = world.grid.width * world.n_features * world.feature_dim * 8
    return max(1, MAP_BLOCK_BYTES // row_bytes)


def forward_block_sizes(monkeypatch):
    """Record the cell count of every forward pass the map build makes."""
    sizes = []

    def counting_forward(config, feats, view):
        sizes.append(len(feats))
        return forward_batch(config, feats, view)

    monkeypatch.setattr(cvloc.world, "forward_batch", counting_forward)
    return sizes


def with_workers(monkeypatch, workers):
    """Give the map build ``workers`` CPUs; returns the set of threads its
    forward passes run on."""
    monkeypatch.setattr(cvloc.world.os, "sched_getaffinity", lambda pid: set(range(workers)))
    threads = set()

    def recording_forward(config, feats, view):
        threads.add(threading.get_ident())
        return forward_batch(config, feats, view)

    monkeypatch.setattr(cvloc.world, "forward_batch", recording_forward)
    return threads


def ran_pooled(threads, workers):
    """Whether a build given ``workers`` CPUs ran on the calling thread alone
    (one worker) or on it and pool threads. A pool thread that finishes its
    share before the next is submitted may be handed that one too, so more
    than one thread, not ``workers`` threads, is what a pooled build ensures."""
    return len(threads) == 1 if workers == 1 else 1 < len(threads) <= workers


WORLD_KINDS = {
    "default": {},
    "corridor": {"corridor": Corridor(120.0, 160.0, 70.0, 10.0, 1.0)},
    "alias": {"aliases": (AliasRegion(50.0, 50.0, 150.0, 150.0, 30.0),
                          AliasRegion(200.0, 20.0, 60.0, 250.0, 12.0))},
    "corridor+alias": {"corridor": Corridor(120.0, 160.0, 70.0, 10.0, 1.0),
                       "aliases": (AliasRegion(50.0, 50.0, 150.0, 150.0, 30.0),)},
    "flat": {"flat": True},
}


class TestLatticeFeatures:
    @pytest.mark.parametrize("kind", WORLD_KINDS)
    def test_matches_direct_path(self, kind):
        w = SyntheticWorld(grid=ODD_GRID, **WORLD_KINDS[kind])
        want = _features_at(w, ODD_GRID.locations(), 7, SATELLITE)
        got = satellite_cell_features(w, 7)
        assert got.shape == (ODD_GRID.num_cells, w.n_features, w.feature_dim)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        step = block_rows(w)
        assert 1 < step < ODD_GRID.height
        blocks = [satellite_cell_features(w, 7, slice(r, r + step)) for r in range(0, ODD_GRID.height, step)]
        np.testing.assert_array_equal(np.concatenate(blocks), got)

    @pytest.mark.parametrize("kind", ["default", "corridor+alias"])
    def test_column_chunks_match_one_chunk_bit_for_bit(self, kind, monkeypatch):
        # the same elementwise formula per chunk: the same bits as a whole row at once
        w = SyntheticWorld(grid=WIDE_GRID, **WORLD_KINDS[kind])
        got = satellite_cell_features(w, 7)
        np.testing.assert_allclose(got, _features_at(w, WIDE_GRID.locations(), 7, SATELLITE), rtol=0, atol=1e-12)
        monkeypatch.setattr(cvloc.world, "FEATURE_CHUNK_COLUMNS", WIDE_GRID.width)
        np.testing.assert_array_equal(satellite_cell_features(w, 7), got)

    def test_aliased_cells_take_the_direct_path_exactly(self):
        w = SyntheticWorld(grid=ODD_GRID, **WORLD_KINDS["corridor+alias"])
        locs = ODD_GRID.locations()
        inside = np.hypot(locs[:, 0] - 150.0, locs[:, 1] - 150.0) <= 30.0
        assert inside.sum() > 100
        got = satellite_cell_features(w, 7)[inside]
        np.testing.assert_array_equal(got, _features_at(w, locs[inside], 7, SATELLITE))


# Golden hashes, checked with helpers.GOLDEN_VERSIONS.
# sha256 of the 2 m map's float32 descriptor bytes at the default scenario
# config: 48,841 cells in many blocks. Recorded on the former last-axis
# soft-assignment path, in blocks of up to 8,192 cells.
MAP_2M_SHA256 = {
    "dual": "6bf4150076677671e2c738b53806fa9dde0cf2bb6d81eafeb8163cefb24e9437",
    "shared": "674a1e9d88b08e9c5223adb8d5acfe1704386cc52463e22b7ccf79456144ecf7",
}
# sha256 of the 1 m map (194,481 cells, the benchmark's fine map) at the
# default scenario config, recorded on the build with a prefix-sum array,
# 8,192-cell blocks and whole-row lattice features.
MAP_1M_SHA256 = {
    "dual": "b4c4e3586192f525b49feccb33c66a8fd5f22bc930d1f54dea237ea3b8a71436",
    "shared": "5eb4cd92c7734dd1ab35e18b32ccc958383d065acf841ec4d5f282a563bf8330",
}


# sha256 of the 2 m flat map (world_kind=flat), plain and with a corridor
# and an alias region (corridor=true, alias_regions=FLAT_ALIAS), recorded on
# the former flat-only feature path. The plain map is one descriptor repeated.
FLAT_ALIAS = "50,50,150,150,8"
FLAT_2M_SHA256 = {
    ("dual", "plain"): "a5b54b09cced2022d3ac02990263b1e2b593b8e5309ae56433c98486f616943d",
    ("shared", "plain"): "88ba63d3e4b326b73e11adecb028474c0ba09e8745ae4dc7f63bffadcb704691",
    ("dual", "corridor+alias"): "c0dfd7cca6a844ef6edde28b128aab2ae33db2bd47bd8805f22f7894fae1042b",
    ("shared", "corridor+alias"): "435e22bbf63ee6424689c405879fb6f2440ab8b9f1ddf042dc09157be83577e6",
}
# sha256 of the 5 m map at world_features=7, clusters=16: the shape at which a
# bare forward_batch rounds differently at one OpenBLAS thread than at two or
# four. The map build pins OpenBLAS to one thread, so these bytes do not move.
OFF_DEFAULT_5M_SHA256 = {
    "dual": "f27cb3957c70a09a98536e382ab32ce91edd5cc8dfecaab92f5e97979b1c448e",
    "shared": "20cc0c56a5b052758a5e4d753351fdd8782728859ebe5a738d4ab06e1ab3982e",
}


def default_map(cell_interval, variant="dual"):
    cfg = ScenarioConfig(cell_interval=cell_interval, pipeline_variant=variant, out_dir="")
    return build_world(cfg), build_pipeline(cfg), cfg.world_seed


class TestBlockedMapBuild:
    @pytest.mark.parametrize("variant", sorted(MAP_2M_SHA256))
    def test_multi_block_2m_map_bytes_unchanged(self, variant, monkeypatch):
        world, pipeline, seed = default_map(2.0, variant)
        blocks = forward_block_sizes(monkeypatch)
        descriptors = build_descriptor_map(world, pipeline, seed).descriptors
        assert len(blocks) == -(-world.grid.height // block_rows(world)) > 1
        assert descriptors.shape == (48841, 32)
        assert_golden(hashlib.sha256(descriptors.tobytes()).hexdigest(), MAP_2M_SHA256[variant], "map sha256")

    @pytest.mark.parametrize("variant", sorted(MAP_2M_SHA256))
    def test_2m_map_from_saved_params_bytes_unchanged(self, variant, tmp_path):
        cfg = ScenarioConfig(cell_interval=2.0, pipeline_variant=variant, out_dir="")
        params = tmp_path / "default.params"
        save_pipeline(build_pipeline(cfg), str(params))
        cfg.params_file = str(params)
        descriptors = build_descriptor_map(build_world(cfg), build_pipeline(cfg), cfg.world_seed).descriptors
        assert_golden(hashlib.sha256(descriptors.tobytes()).hexdigest(), MAP_2M_SHA256[variant], "map sha256")

    @pytest.mark.parametrize("variant", sorted(MAP_1M_SHA256))
    def test_fine_1m_map_bytes_unchanged(self, variant):
        world, pipeline, seed = default_map(1.0, variant)
        descriptors = build_descriptor_map(world, pipeline, seed).descriptors
        assert descriptors.shape == (194481, 32)
        assert_golden(hashlib.sha256(descriptors.tobytes()).hexdigest(), MAP_1M_SHA256[variant], "map sha256")

    @pytest.mark.parametrize("variant, kind", sorted(FLAT_2M_SHA256))
    def test_flat_2m_map_bytes_unchanged(self, variant, kind):
        extra = {"corridor": True, "alias_regions": FLAT_ALIAS} if kind != "plain" else {}
        cfg = ScenarioConfig(cell_interval=2.0, world_kind="flat", pipeline_variant=variant, out_dir="", **extra)
        descriptors = build_scenario(cfg).db_map.descriptors
        assert descriptors.shape == (48841, 32)
        assert_golden(hashlib.sha256(descriptors.tobytes()).hexdigest(), FLAT_2M_SHA256[variant, kind], "map sha256")

    @pytest.mark.parametrize("variant", sorted(OFF_DEFAULT_5M_SHA256))
    def test_off_default_5m_map_bytes_unchanged(self, variant):
        cfg = ScenarioConfig(world_features=7, clusters=16, pipeline_variant=variant, out_dir="")
        descriptors = build_scenario(cfg).db_map.descriptors
        assert_golden(hashlib.sha256(descriptors.tobytes()).hexdigest(), OFF_DEFAULT_5M_SHA256[variant], "map sha256")

    @pytest.mark.parametrize("order", [("smooth", "flat"), ("flat", "smooth")])
    def test_smooth_and_flat_maps_in_one_process_share_no_cached_field(self, order):
        # same seed, grid and feature shape: only the world kind tells the cache keys apart
        def build(kind):
            return build_scenario(ScenarioConfig(world_kind=kind, out_dir="")).db_map.descriptors

        def clear_caches():
            cvloc.world._field_params.cache_clear()
            cvloc.world._column_factors.cache_clear()

        alone = {}
        for kind in order:
            clear_caches()
            alone[kind] = build(kind)
        clear_caches()
        together = {kind: build(kind) for kind in order}
        for kind in order:
            np.testing.assert_array_equal(together[kind], alone[kind])
        assert np.all(together["flat"] == together["flat"][0])
        assert not np.all(together["smooth"] == together["smooth"][0])

    def test_row_over_the_budget_builds_one_row_per_block(self, monkeypatch):
        grid = GridMap((40.0, -105.0), 1.0, MAP_BLOCK_BYTES // (24 * 16 * 8) + 7, 3)
        world = SyntheticWorld(grid=grid)
        assert grid.width * 24 * 16 * 8 > MAP_BLOCK_BYTES
        blocks = forward_block_sizes(monkeypatch)
        build_descriptor_map(world, random_dual_pipeline(11, tie_views=True), 7)
        assert blocks == [grid.width] * grid.height

    def test_larger_feature_sets_take_proportionally_fewer_rows(self, monkeypatch):
        grid = GridMap((40.0, -105.0), 2.0, 64, 40)
        pipeline = random_dual_pipeline(11, tie_views=True)
        rows = {}
        for n in (24, 48, 96):
            blocks = forward_block_sizes(monkeypatch)
            build_descriptor_map(SyntheticWorld(grid=grid, n_features=n), pipeline, 7)
            assert sum(blocks) == grid.num_cells
            rows[n] = blocks[0] // grid.width
        # 64 cells x N x 16 float64 features: at 1.5 MiB, 8, 4 and 2 rows fit
        assert rows == {n: MAP_BLOCK_BYTES // (64 * n * 16 * 8) for n in rows}
        assert rows[24] == 2 * rows[48] == 4 * rows[96] > 1

    # the shared pipeline also holds two layer outputs of a block
    @pytest.mark.parametrize("variant, budgets", [("dual", 2), ("shared", 3)])
    def test_traced_peak_stays_within_the_block_budgets(self, variant, budgets, monkeypatch):
        # The per-map lattice factors (one row of cos and sin, cached) are
        # computed first; the float32 output is an mmap, which tracemalloc does
        # not trace, so the traced peak is, per worker, one block's features,
        # assignments and temporaries. The build with 8,192-cell blocks and a
        # prefix-sum array peaked ~58 MB over the output.
        world, pipeline, seed = default_map(2.0, variant)
        satellite_cell_features(world, seed, slice(0, 1))
        for workers in (1, 2):
            with_workers(monkeypatch, workers)
            tracemalloc.start()
            try:
                build_descriptor_map(world, pipeline, seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= workers * budgets * MAP_BLOCK_BYTES, workers

    def test_default_5m_map_equals_oneshot_build_exactly(self, monkeypatch):
        world, pipeline, seed = default_map(5.0)
        want = oneshot_descriptor_map(world, pipeline, seed)
        np.testing.assert_array_equal(build_descriptor_map(world, pipeline, seed).descriptors, want)
        # the same map one row per block
        monkeypatch.setattr(cvloc.world, "MAP_BLOCK_BYTES", 1)
        np.testing.assert_array_equal(build_descriptor_map(world, pipeline, seed).descriptors, want)

    @pytest.mark.parametrize("kind", ["default", "corridor+alias"])
    def test_within_one_float32_ulp_of_oneshot_build(self, kind):
        w = SyntheticWorld(grid=ODD_GRID, **WORLD_KINDS[kind])
        pipeline = random_dual_pipeline(11, tie_views=True)
        got = build_descriptor_map(w, pipeline, 7).descriptors
        assert got.dtype == np.float32
        np.testing.assert_array_max_ulp(got, oneshot_descriptor_map(w, pipeline, 7), maxulp=1)

    def test_forward_pass_sees_bounded_blocks(self, monkeypatch):
        world, pipeline, seed = default_map(2.0)
        blocks = forward_block_sizes(monkeypatch)
        db = build_descriptor_map(world, pipeline, seed)
        assert len(blocks) > 1
        assert all(b % world.grid.width == 0 for b in blocks)  # whole grid rows
        assert max(blocks) * world.n_features * world.feature_dim * 8 <= MAP_BLOCK_BYTES
        assert sum(blocks) == db.num_cells == world.grid.num_cells

    def test_overflowing_field_rejected(self):
        # wavelengths this short overflow the wavenumbers to inf: NaN features
        w = make_world(cells=11, length_scale=1e-308)
        with pytest.raises(ValueError, match="non-finite"):
            build_descriptor_map(w, random_dual_pipeline(11, tie_views=True), 7)

    def test_float32_overflow_rejected(self):
        # finite in float64, beyond float32 range once stored
        p = random_dual_pipeline(11, tie_views=True, normalize_output=False)
        big = AffineMap(np.full((32, 128), 1e38, dtype=np.float32), np.zeros(32, dtype=np.float32))
        branch = Branch((), p.satellite.vlad, big)
        with pytest.raises(ValueError, match="non-finite"):
            build_descriptor_map(make_world(cells=11), Pipeline(branch, branch, False), 7)


@pytest.mark.skipif(not POOLED, reason="numpy's OpenBLAS has no thread-count functions: one worker")
class TestPooledMapBuild:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("variant", sorted(MAP_2M_SHA256))
    def test_2m_map_bytes_unchanged_at_any_worker_count(self, variant, workers, monkeypatch):
        world, pipeline, seed = default_map(2.0, variant)
        threads = with_workers(monkeypatch, workers)
        descriptors = build_descriptor_map(world, pipeline, seed).descriptors
        assert ran_pooled(threads, workers)
        assert_golden(hashlib.sha256(descriptors.tobytes()).hexdigest(), MAP_2M_SHA256[variant], "map sha256")

    def test_odd_grid_identical_at_any_worker_count(self, monkeypatch):
        w = SyntheticWorld(grid=ODD_GRID, **WORLD_KINDS["corridor+alias"])
        pipeline = random_dual_pipeline(11, tie_views=True)
        maps = []
        for workers in (1, 2, 4):
            threads = with_workers(monkeypatch, workers)
            maps.append(build_descriptor_map(w, pipeline, 7).descriptors)
            assert ran_pooled(threads, workers)
        assert maps[0].tobytes() == maps[1].tobytes() == maps[2].tobytes()

    # blocks first and first + 1: one in each worker's share at two workers;
    # block 0 is the one the calling thread builds alone before the pool starts
    @pytest.mark.parametrize("workers, first", [(1, 3), (2, 3), (2, 0)])
    def test_first_non_finite_block_in_row_order_is_named(self, workers, first, monkeypatch):
        w = SyntheticWorld(grid=ODD_GRID)
        step = block_rows(w)
        bad = (first * step, (first + 1) * step)
        with_workers(monkeypatch, workers)

        def poisoned(world, seed, rows):
            feats = satellite_cell_features(world, seed, rows)
            if rows.start in bad:
                feats[:] = np.nan
            return feats

        monkeypatch.setattr(cvloc.world, "satellite_cell_features", poisoned)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
            build_descriptor_map(w, random_dual_pipeline(11, tie_views=True), 7)
        assert str(err.value).endswith(f"grid rows {bad[0]}..{bad[0] + step - 1}")

    def test_worker_exception_exits_2(self, tmp_path, monkeypatch, capsys):
        with_workers(monkeypatch, 2)

        def failing_in_a_worker(config, feats, view):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("block failed in a worker")
            return forward_batch(config, feats, view)

        monkeypatch.setattr(cvloc.world, "forward_batch", failing_in_a_worker)
        out = tmp_path / "map.db"
        assert main(["build-db", "--out", str(out)]) == 2
        assert "block failed in a worker" in capsys.readouterr().err
        assert not out.exists()

    def test_blas_thread_count_restored_after_the_build(self, monkeypatch):
        get, set_ = OPENBLAS.scipy_openblas_get_num_threads64_, OPENBLAS.scipy_openblas_set_num_threads64_
        with_workers(monkeypatch, 2)
        world, pipeline, seed = default_map(5.0)
        seen, threads, fail = [], set(), []

        def forward_on_one_blas_thread(config, feats, view):
            seen.append(get())
            threads.add(threading.get_ident())
            if fail and threading.current_thread() is not threading.main_thread():
                raise ValueError("block failed in a worker")
            return forward_batch(config, feats, view)

        monkeypatch.setattr(cvloc.world, "forward_batch", forward_on_one_blas_thread)
        former = get()
        try:
            set_(3)
            build_descriptor_map(world, pipeline, seed)
            assert get() == 3 and len(threads) == 2
            fail.append(True)
            with pytest.raises(ValueError, match="in a worker"):
                build_descriptor_map(world, pipeline, seed)
            assert get() == 3
        finally:
            set_(former)
        assert set(seen) == {1}


def route_map(world, pipeline, seed, xs, ys):
    """The map with the route corridor of the points (xs, ys) built, and
    nothing else."""
    db_map = tiled_descriptor_map(world, pipeline, seed)
    db_map.tiles.build_route(xs, ys)
    return db_map


def built_cells(db_map):
    """Mask over the map's cells: those in its built tiles."""
    tiles = np.repeat(np.repeat(db_map.tiles.built, TILE, axis=0), TILE, axis=1)
    return tiles[: db_map.height, : db_map.width].ravel()


def corridor_oracle(grid, xs, ys):
    """The route corridor's tiles, point by point: the tile of each of a
    point's four corner cells and the tiles around it."""
    want = np.zeros((-(-grid.height // TILE), -(-grid.width // TILE)), dtype=bool)
    for x, y in zip(xs, ys):
        i = min(int(x / grid.cell_interval), grid.width - 2)
        j = min(int(y / grid.cell_interval), grid.height - 2)
        for col, row in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)):
            r, c = row // TILE, col // TILE
            want[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2] = True
    return want


def edge_route(grid):
    """Points along the map's four edges, corners included."""
    ex, ey = grid.extent
    t = np.linspace(0.0, 1.0, 9)
    xs = np.concatenate([t * ex, np.full(9, ex), t[::-1] * ex, np.zeros(9)])
    ys = np.concatenate([np.zeros(9), t * ey, np.full(9, ey), t[::-1] * ey])
    return xs, ys


def backed_bytes(array):
    """The bytes the kernel backs (Rss plus Swap) of the memory mapping that
    holds ``array`` in /proc/self/smaps, and that mapping's size."""
    address, fields = array.ctypes.data, None
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            span = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
            if span:
                if fields is not None:
                    break
                start, stop = (int(a, 16) for a in span.groups())
                fields = {} if start <= address < stop else None
            elif fields is not None and line.endswith(" kB\n"):
                key, value = line.split(":")
                fields[key] = int(value.split()[0]) * 1024
    return fields["Rss"] + fields["Swap"], fields["Size"]


PIPELINES = {"dual": random_dual_pipeline(11, tie_views=True),
             "shared": random_shared_pipeline(11, hidden_dim=16, tie_views=True)}


class TestRouteCorridor:
    @pytest.mark.parametrize("variant", ["dual", "shared"])
    @pytest.mark.parametrize("cell_interval", [1.0, 2.0])
    def test_corridor_cells_equal_the_whole_map_bit_for_bit(self, cell_interval, variant):
        cfg = ScenarioConfig(cell_interval=cell_interval, pipeline_variant=variant, out_dir="")
        world, pipeline, seed = build_world(cfg), build_pipeline(cfg), cfg.world_seed
        poses = scenario_trajectory(cfg, world.grid)
        xs, ys = [p.x for p in poses], [p.y for p in poses]
        db_map = route_map(world, pipeline, seed, xs, ys)
        np.testing.assert_array_equal(db_map.tiles.built, corridor_oracle(world.grid, xs, ys))
        built = built_cells(db_map)
        assert 0 < built.sum() < built.size
        want = build_descriptor_map(world, pipeline, seed).descriptors  # the golden-hashed map
        assert db_map.descriptors[built].tobytes() == want[built].tobytes()
        assert not db_map.descriptors[~built].any()  # untouched: the zero pages of a fresh map

    @pytest.mark.parametrize("variant", sorted(PIPELINES))
    @pytest.mark.parametrize("kind", ["default", "corridor+alias"])
    def test_edge_tiles_of_an_odd_grid_equal_the_whole_map(self, kind, variant):
        # 97 x 131 cells: the east tile column is 1 cell wide, the north tile row 3 cells high
        w, pipeline = SyntheticWorld(grid=ODD_GRID, **WORLD_KINDS[kind]), PIPELINES[variant]
        xs, ys = edge_route(ODD_GRID)
        db_map = route_map(w, pipeline, 7, xs, ys)
        np.testing.assert_array_equal(db_map.tiles.built, corridor_oracle(ODD_GRID, xs, ys))
        built = built_cells(db_map)
        assert built[-1] and built[0] and not built.all()
        want = build_descriptor_map(w, pipeline, 7).descriptors
        assert db_map.descriptors[built].tobytes() == want[built].tobytes()

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads /proc/self/smaps")
    def test_a_corridor_map_is_resident_only_where_it_is_built(self):
        cfg = ScenarioConfig(cell_interval=1.0, out_dir="")
        world = build_world(cfg)
        poses = scenario_trajectory(cfg, world.grid)
        db_map = route_map(world, build_pipeline(cfg), cfg.world_seed, [p.x for p in poses], [p.y for p in poses])
        descriptors = db_map.descriptors
        # a page is backed once a built cell's bytes are written to it; a 128-byte cell lies in one page,
        # so a run of built cells in a grid row backs at most one page more at each end than it fills
        cells, cell_bytes, page = np.flatnonzero(built_cells(db_map)), descriptors[0].nbytes, mmap.PAGESIZE
        ends = descriptors.ctypes.data + np.concatenate([cells * cell_bytes, (cells + 1) * cell_bytes - 1])
        pages = len(np.unique(ends // page))
        backed, size = backed_bytes(descriptors)
        assert len(cells) * cell_bytes <= backed <= pages * page < size / 2
        db_map.built_descriptors()
        assert backed_bytes(descriptors) == (size, size) and size >= descriptors.nbytes

    def test_aliased_and_corridor_cells_equal_the_whole_map(self):
        w = SyntheticWorld(grid=ODD_GRID, **WORLD_KINDS["corridor+alias"])
        # through the alias region around (150, 150) and across the corridor ring around (120, 160)
        xs, ys = np.linspace(100.0, 200.0, 21), np.linspace(120.0, 190.0, 21)
        db_map = route_map(w, PIPELINES["dual"], 7, xs, ys)
        locs = ODD_GRID.locations()
        aliased = np.hypot(locs[:, 0] - 150.0, locs[:, 1] - 150.0) <= 30.0
        built = built_cells(db_map)
        assert (built & aliased).sum() > 100 and not built.all()
        want = build_descriptor_map(w, PIPELINES["dual"], 7).descriptors
        assert db_map.descriptors[built].tobytes() == want[built].tobytes()

    def test_a_route_built_twice_builds_no_tile_twice(self, monkeypatch):
        w = SyntheticWorld(grid=ODD_GRID)
        db_map = route_map(w, PIPELINES["dual"], 7, [100.0], [100.0])
        blocks = forward_block_sizes(monkeypatch)
        db_map.tiles.build_route([100.0, 110.0], [100.0, 100.0])
        assert sum(blocks) == 0
        db_map.tiles.build_route([160.0], [100.0])
        first = corridor_oracle(ODD_GRID, [100.0], [100.0])
        new_tiles = corridor_oracle(ODD_GRID, [160.0], [100.0]) & ~first
        assert sum(blocks) == new_tiles.sum() * TILE * TILE > 0  # no edge tile among them

    def test_a_read_outside_the_built_tiles_builds_only_its_missing_tiles(self, monkeypatch):
        w = SyntheticWorld(grid=ODD_GRID)
        want = build_descriptor_map(w, PIPELINES["dual"], 7).descriptors
        db_map = route_map(w, PIPELINES["dual"], 7, [100.0], [100.0])  # tile rows and columns 4..6
        blocks = forward_block_sizes(monkeypatch)
        db_map.built_descriptors(slice(40, 41), slice(40, 42), (np.array([40, 40]), np.array([40, 41])))
        corridor, before = db_map.tiles.built.copy(), built_cells(db_map)
        assert sum(blocks) == 0 and not corridor.all()
        # every cell of grid rows 20..130 and columns 50..96: tile rows 2..16 and columns 6..12, with the
        # north tile row 3 cells high and the east tile column 1 cell wide; tile column 6 of rows 4..6 is built
        rows, cols, every = slice(20, 131), slice(50, 97), tuple(np.mgrid[20:131, 50:97].reshape(2, -1))
        got = db_map.built_descriptors(rows, cols, every)
        window = np.zeros_like(corridor)
        window[2:17, 6:13] = True
        np.testing.assert_array_equal(db_map.tiles.built, corridor | window)
        built = built_cells(db_map)
        missing = (built & ~before).sum()
        assert sum(blocks) == missing == (14 * TILE + 3) * (6 * TILE + 1) - 3 * TILE * TILE
        assert got[built].tobytes() == want[built].tobytes() and not got[~built].any()
        db_map.built_descriptors(rows, cols, every)
        assert sum(blocks) == missing  # no tile twice
        # a whole-map read builds the map once more in its row blocks, and then nothing
        whole = db_map.built_descriptors()
        assert db_map.tiles.built.all() and whole.tobytes() == want.tobytes()
        assert sum(blocks) == missing + ODD_GRID.num_cells
        db_map.built_descriptors()
        assert sum(blocks) == missing + ODD_GRID.num_cells

    def test_a_read_of_a_window_s_cells_builds_only_the_tiles_that_hold_them(self, monkeypatch):
        w = SyntheticWorld(grid=ODD_GRID)
        want = build_descriptor_map(w, PIPELINES["dual"], 7).descriptors
        db_map = route_map(w, PIPELINES["dual"], 7, [100.0], [100.0])  # tile rows and columns 4..6
        corridor = db_map.tiles.built.copy()
        blocks, builds = forward_block_sizes(monkeypatch), []
        build = cvloc.world._build
        monkeypatch.setattr(cvloc.world, "_build", lambda *args: (builds.append(args[-1]), build(*args)))
        # the window of grid rows 20..130 and columns 50..96 (tile rows 2..16, columns 6..12), of which
        # the read takes cell (21, 51) in tile (2, 6), cell (130, 96) in the 3 x 1 north-east edge tile
        # (16, 12) and cell (40, 50) in the built tile (5, 6)
        cells = (np.array([21, 130, 40]), np.array([51, 96, 50]))
        got = db_map.built_descriptors(slice(20, 131), slice(50, 97), cells)
        new = np.zeros_like(corridor)
        new[2, 6] = new[16, 12] = True
        np.testing.assert_array_equal(db_map.tiles.built, corridor | new)
        assert sum(blocks) == TILE * TILE + 3 and len(builds) == 1
        built = built_cells(db_map)
        assert built[cells[0] * ODD_GRID.width + cells[1]].all()
        assert got[built].tobytes() == want[built].tobytes() and not got[~built].any()
        # the window still has tiles not built, but every cell read is built: no build is started
        db_map.built_descriptors(slice(20, 131), slice(50, 97), (cells[0][::-1], cells[1][::-1]))
        assert sum(blocks) == TILE * TILE + 3 and len(builds) == 1

    @pytest.mark.parametrize("cell_interval, tiles, cells", [(1.0, 474, 30_336), (2.0, 244, 15_616),
                                                               (5.0, 96, 6_144)])
    def test_the_default_route_corridor_keeps_its_size(self, cell_interval, tiles, cells, monkeypatch):
        # the one-ring margin is 8..15 cells; no cell a step of the fine-map benchmark (master seeds
        # 1..10) reads lies more than 12 cells from a route corner cell
        cfg = ScenarioConfig(cell_interval=cell_interval, out_dir="")
        world = build_world(cfg)
        poses = scenario_trajectory(cfg, world.grid)
        blocks = forward_block_sizes(monkeypatch)
        db_map = route_map(world, build_pipeline(cfg), cfg.world_seed, [p.x for p in poses], [p.y for p in poses])
        assert db_map.tiles.built.sum() == tiles and built_cells(db_map).sum() == sum(blocks) == cells

    def test_the_first_non_finite_tile_block_is_named_by_rows_and_columns(self, monkeypatch):
        # points in cells (8, 40), (16, 40) .. (80, 40): tiles 1..10 of tile row 5 and the ring around
        # them, grid rows 32..55 of columns 0..95; 96 columns fit 512 // 96 = 5 rows a block, so each
        # tile row takes two blocks
        w = SyntheticWorld(grid=ODD_GRID)
        assert sets_per_block(w) == 512

        def poisoned(world, seed, rows, cols):
            feats = satellite_cell_features(world, seed, rows, cols)
            if rows.start in (37, 45):
                feats[:] = np.nan
            return feats

        monkeypatch.setattr(cvloc.world, "satellite_cell_features", poisoned)
        xs = np.arange(8, 81, 8) * ODD_GRID.cell_interval + 1.0
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
            route_map(w, PIPELINES["dual"], 7, xs, np.full(len(xs), xs[4]))
        assert str(err.value) == "non-finite map descriptors in grid rows 37..39, columns 0..95"

    # A corridor block's features may fill the whole budget (8 rows of an eight-tile run: 512 cells;
    # the 2 m corridor's largest is 5 rows of 96 columns, 480 cells), where a 2 m row block holds 442
    # cells. The shared pipeline then holds the features and both layer outputs of the block at once,
    # ~3.05 budgets for a full block, plus small temporaries; the dual pipeline holds the features,
    # the assignments and the weighted sums, under two.
    @pytest.mark.parametrize("variant, budgets", [("dual", 2), ("shared", 3.25)])
    def test_traced_peak_of_a_2m_simulate_setup_stays_within_the_block_budgets(self, variant, budgets,
                                                                                monkeypatch):
        # the set-up run_simulation does before its clock starts: the scenario, the trajectory,
        # the map's float32 array (an mmap, untraced) and the route corridor, once the lattice
        # factors are cached
        cfg = ScenarioConfig(cell_interval=2.0, pipeline_variant=variant, out_dir="")
        world, _, seed = default_map(2.0, variant)
        satellite_cell_features(world, seed, slice(0, 1))
        for workers in (1, 2):
            with_workers(monkeypatch, workers)
            tracemalloc.start()
            try:
                scenario = build_scenario(cfg)
                poses = scenario_trajectory(cfg, scenario.world.grid)
                db_map = scenario.tiled_map
                db_map.tiles.build_route([p.x for p in poses], [p.y for p in poses])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not db_map.tiles.built.all()
            assert peak <= workers * budgets * MAP_BLOCK_BYTES, workers


# The shapes the batched ground views are held to, as config entries.
GROUND_VIEW_SHAPES = {
    "default": [],
    "shared": ["pipeline_variant=shared"],
    "dual-K16-N7": ["clusters=16", "world_features=7"],
    "shared-K16-N7": ["pipeline_variant=shared", "clusters=16", "world_features=7"],
    "corridor+alias": ["corridor=true", "alias_regions=100,100,300,300,40;50,400,380,60,25"],
    "flat": ["world_kind=flat"],
    "K1": ["clusters=1"],
    "N1": ["world_features=1"],
    "R100-K20": ["reduced_dim=100", "clusters=20"],
    "K200-D3": ["clusters=200", "world_feature_dim=3"],
}


def scenario_of(entries):
    return build_scenario(load_config(None, entries))


def random_poses(scenario, count, seed):
    ex, ey = scenario.world.grid.extent
    return np.random.default_rng(seed).uniform((0.0, 0.0, -math.pi), (ex, ey, math.pi), (count, 3))


def assert_ground_views_equal_oracle(scenario, poses):
    """Every row of ``ground_views`` and every ``ground_view`` equals the
    per-pose oracle bit for bit."""
    want = np.array([ground_view_oracle(scenario.world, scenario.pipeline, Pose(*p), scenario.cfg.world_seed)
                     for p in poses.tolist()]).reshape(len(poses), -1)
    got = scenario.ground_views(poses)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    for p, row in zip(poses.tolist()[:20], want):
        np.testing.assert_array_equal(scenario.ground_view(Pose(*p)).values.view(np.int64), row.view(np.int64))


def half_way_headings(n: int) -> list[float]:
    """Headings in (-π, π], as a Pose holds them, whose roll bin (θ mod 2π)/2π·n
    lands exactly on k + 1/2, where rounding goes to the even neighbour; found
    within a few ulps of (k + 1/2)·2π/n."""
    found = []
    for k in range(-n // 2, n // 2):
        theta = (k + 0.5) * TWO_PI / n
        for _ in range(4):
            if theta % TWO_PI / TWO_PI * n % 1.0 == 0.5:
                found.append(theta)
                break
            theta = math.nextafter(theta, math.inf)
    return found


DEFAULT_SCENARIO = build_scenario(ScenarioConfig())
EX, EY = DEFAULT_SCENARIO.world.grid.extent
EDGE_HEADINGS = [math.pi, -math.pi, 0.0, -0.0, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
                 *half_way_headings(DEFAULT_SCENARIO.world.n_features)]


def edge_coordinate(extent):
    return st.one_of(st.sampled_from([0.0, extent, math.nextafter(extent, 0.0), 5e-324]),
                     st.floats(0.0, extent))


class TestGroundViewBatch:
    """``Scenario.ground_views`` against the per-pose oracle, with zero tolerance."""

    @pytest.mark.parametrize("shape", GROUND_VIEW_SHAPES)
    def test_ground_view_oracle_at_every_shape(self, shape):
        scenario = scenario_of(GROUND_VIEW_SHAPES[shape])
        poses = random_poses(scenario, 60, 5)
        poses[:6, 2] = [math.pi, -math.pi, 0.0, -0.0, 3 * math.pi, -1e300]
        poses[6:9, :2] = [(300.0, 300.0), (320.0, 285.0), (385.0, 55.0)]  # inside the alias regions
        ring = scenario.world.corridor
        if ring is not None:
            poses[9, :2] = (ring.center_x + ring.radius, ring.center_y)
        assert_ground_views_equal_oracle(scenario, poses)

    def test_ground_view_oracle_finds_half_way_headings(self):
        assert len(half_way_headings(DEFAULT_SCENARIO.world.n_features)) >= 4

    @settings(max_examples=60, deadline=None)
    @given(poses=st.lists(st.tuples(edge_coordinate(EX), edge_coordinate(EY),
                                    st.one_of(st.sampled_from(EDGE_HEADINGS), st.floats(-1e3, 1e3))),
                          min_size=1, max_size=6))
    def test_ground_view_oracle_on_the_map_edges(self, poses):
        assert_ground_views_equal_oracle(DEFAULT_SCENARIO, np.array(poses))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_ground_view_oracle_around_one_block(self, extra):
        step = sets_per_block(DEFAULT_SCENARIO.world)
        assert step == MAP_BLOCK_BYTES // (24 * 16 * 8)
        assert_ground_views_equal_oracle(DEFAULT_SCENARIO, random_poses(DEFAULT_SCENARIO, step + extra, extra + 9))

    @pytest.mark.parametrize("bad", [(-1.0, 10.0), (10.0, EY + 1e-9), (math.nan, 10.0), (10.0, math.inf)])
    def test_ground_view_oracle_rejects_an_off_map_pose(self, bad):
        poses = random_poses(DEFAULT_SCENARIO, 700, 3)
        poses[600, :2] = bad  # in the second block
        with pytest.raises(OutOfMapError, match="outside world bounds"):
            DEFAULT_SCENARIO.ground_views(poses)
        with pytest.raises(ValueError):  # OutOfMapError, or Pose's own check of a non-finite value
            ground_view_oracle(DEFAULT_SCENARIO.world, DEFAULT_SCENARIO.pipeline, Pose(*poses[600]), 7)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_ground_view_oracle_rejects_a_non_finite_heading(self, theta):
        poses = random_poses(DEFAULT_SCENARIO, 5, 3)
        poses[2, 2] = theta
        with pytest.raises(ValueError, match="not finite"):
            DEFAULT_SCENARIO.ground_views(poses)
        with pytest.raises(ValueError):
            ground_view_oracle(DEFAULT_SCENARIO.world, DEFAULT_SCENARIO.pipeline, Pose(*poses[2]), 7)

    def test_ground_view_oracle_non_finite_features_rejected(self):
        # a length scale this small makes the wavevectors infinite, so the field is NaN
        scenario = scenario_of(["world_length_scale=1e-308"])
        with pytest.raises(ValueError, match="features must be finite"):
            scenario.ground_views(np.array([[10.0, 20.0, 0.0]]))
        with pytest.raises(ValueError, match="features must be finite"):
            scenario.ground_view(Pose(10.0, 20.0, 0.0))

    @pytest.mark.parametrize("variant", ["dual", "shared"])
    def test_ground_view_oracle_memory_stays_within_a_few_blocks(self, variant):
        # 20,000 poses are 40 blocks; the traced peak is the output plus one
        # block's features, assignments and temporaries (~3.2 blocks), not 40 blocks' worth
        scenario = scenario_of([f"pipeline_variant={variant}"])
        poses = random_poses(scenario, 20_000, 4)
        scenario.ground_views(poses[:1])
        tracemalloc.start()
        try:
            out = scenario.ground_views(poses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 4 * MAP_BLOCK_BYTES, peak - out.nbytes

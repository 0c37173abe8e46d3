import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from helpers import make_rng, surrounding_corners, uniform_field

from cvloc.config import ScenarioConfig
from cvloc.mapgrid import GridMap, LocalPoint, corner_cells
from cvloc.measurement import (
    MODES,
    ProbabilityField,
    _combine,
    _corner_scores,
    _corner_values,
    emit_heatmap,
    location_probabilities,
    measurement_probabilities,
    measurement_probability,
)
from cvloc.motion import MotionNoise, Pose
from cvloc.pfilter import init_particles, localize_step
from cvloc.retrieval import distances
from cvloc.simulate import build_scenario, filter_noise, scenario_trajectory

mp.dps = 50


def oracle_location_probabilities(db_map, q, floor=1e-12):
    """Direct-difference field: a float64 difference against every map row
    per query, then the max-shifted softmax of negated distances."""
    values = np.asarray(q, dtype=np.float64)
    diff = db_map.descriptors.astype(np.float64) - values[None, :]
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    logits = -dists
    logits -= logits.max()
    e = np.exp(logits)
    return ProbabilityField(db_map.with_probabilities(e / e.sum()), floor)


def map_with_descriptor_distances(dists, width=None):
    """Grid whose cell descriptors sit at the given Euclidean distances
    from the zero query vector."""
    n = len(dists)
    width = width or n
    height = n // width
    # float64 so the stored coordinates carry the distances exactly
    descs = np.zeros((n, 2))
    descs[:, 0] = dists
    grid = GridMap((40.0, -105.0), 1.0, width, height)
    return grid.with_descriptors(descs)


def field_from_probs(probs, width, height, interval=1.0):
    grid = GridMap((40.0, -105.0), interval, width, height)
    return ProbabilityField(grid.with_probabilities(np.asarray(probs, dtype=np.float64)))


class TestLocationProbabilities:
    def test_equal_distances_get_equal_probability(self):
        m = map_with_descriptor_distances([3.0, 3.0, 3.0, 3.0], width=2)
        f = location_probabilities(m, np.zeros(2))
        assert f.probabilities == pytest.approx([0.25] * 4)
        # two equal-distance groups split within themselves
        m = map_with_descriptor_distances([1.0, 1.0, 9.0, 9.0], width=2)
        p = location_probabilities(m, np.zeros(2)).probabilities
        assert p[0] == p[1] and p[2] == p[3] and p[0] > p[2]

    def test_n_equal_cells_uniform(self):
        m = map_with_descriptor_distances([1.5] * 12, width=4)
        f = location_probabilities(m, np.zeros(2))
        assert f.probabilities == pytest.approx([1.0 / 12] * 12, abs=1e-15)

    def test_three_distance_softmax(self):
        # distances (0, 1, 2) + one far cell; oracle in high precision
        m = map_with_descriptor_distances([0.0, 1.0, 2.0, 50.0], width=2)
        f = location_probabilities(m, np.zeros(2))
        z = mp.e**0 + mp.e**-1 + mp.e**-2 + mp.e**-50
        expect = [float(mp.e**-d / z) for d in (0.0, 1.0, 2.0, 50.0)]
        assert f.probabilities == pytest.approx(expect, rel=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        m = map_with_descriptor_distances(rng.uniform(0, 5, 100), width=10)
        f = location_probabilities(m, np.zeros(2))
        assert abs(f.probabilities.sum() - 1.0) <= 1e-9

    def test_smaller_distance_strictly_larger_probability(self):
        rng = np.random.default_rng(1)
        dists = rng.uniform(0, 3, 30)
        m = map_with_descriptor_distances(dists, width=6)
        p = location_probabilities(m, np.zeros(2)).probabilities
        order = np.argsort(dists)
        assert np.all(np.diff(p[order]) < 0)

    def test_distance_shift_invariance(self):
        rng = np.random.default_rng(2)
        dists = rng.uniform(0, 4, 16)
        a = location_probabilities(map_with_descriptor_distances(dists, 4), np.zeros(2))
        b = location_probabilities(map_with_descriptor_distances(dists + 7.5, 4), np.zeros(2))
        np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-9)

    def test_missing_descriptors_rejected(self):
        grid = GridMap((40.0, -105.0), 1.0, 2, 2)
        with pytest.raises(ValueError):
            location_probabilities(grid, np.zeros(2))

    def test_dimension_mismatch_rejected(self):
        m = map_with_descriptor_distances([1.0] * 4, width=2)
        with pytest.raises(ValueError):
            location_probabilities(m, np.zeros(3))


def unit_descriptor_map(seed, scale, width=40, height=30, dim=32):
    """float32 map of random unit-norm descriptors times ``scale``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(width * height, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    grid = GridMap((40.0, -105.0), 1.0, width, height)
    return grid.with_descriptors((x * scale).astype(np.float32))


def oracle_queries(db_map, seed):
    """Random, exact-hit and near-hit queries (a map row plus noise of
    1e-9 to 1e-1 of its norm)."""
    rng = np.random.default_rng(seed + 100)
    descs = db_map.descriptors.astype(np.float64)
    dim = descs.shape[1]
    scale = float(np.linalg.norm(descs[0]))
    random = rng.normal(size=dim)
    queries = [("random", random / np.linalg.norm(random) * scale)]
    row = descs[int(rng.integers(len(descs)))]
    queries.append(("exact-hit", row.copy()))
    for rel in 10.0 ** np.arange(-9, 0):
        noise = rng.normal(size=dim)
        queries.append((f"near-hit {rel:g}", row + noise / np.linalg.norm(noise) * rel * scale))
    return queries


class TestFieldAgainstOracle:
    """The field against the direct-difference oracle."""

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle(self, seed, scale):
        db_map = unit_descriptor_map(seed, scale)
        for kind, q in oracle_queries(db_map, seed):
            want = oracle_location_probabilities(db_map, q).probabilities
            got = location_probabilities(db_map, q).probabilities
            np.testing.assert_array_equal(got, want, err_msg=kind)

    def test_full_field_adds_nothing_to_the_map(self):
        # the field keeps no per-map copy of the descriptors
        db_map = unit_descriptor_map(4, 1.0)
        before = set(vars(db_map))
        for row in (0, 1):
            location_probabilities(db_map, db_map.descriptors[row]).probabilities
        assert set(vars(db_map)) == before

    def test_c7_scenario_weights_match_oracle(self):
        scenario = build_scenario(ScenarioConfig())
        cfg, db_map = scenario.cfg, scenario.db_map
        poses = scenario_trajectory(cfg, scenario.world.grid)
        rng = make_rng(cfg.master_seed)
        spread = MotionNoise(cfg.init_spread_xy, math.radians(cfg.init_spread_theta_deg), 0.0, 0.0)
        pset = init_particles(poses[0], spread, cfg.particles, rng)
        for t in range(1, 21):
            desc = scenario.ground_view(poses[t])
            field = location_probabilities(db_map, desc, cfg.probability_floor)
            oracle = oracle_location_probabilities(db_map, desc.values, cfg.probability_floor)
            _, pset = localize_step(field, poses[t - 1], poses[t], pset, filter_noise(cfg), rng)
            assert field.lazy  # the filter step scored only the corner cells
            for mode in MODES:
                want, want_degenerate = measurement_probabilities(oracle, pset.states, mode)
                # the corner-only likelihoods, up to their common factor
                lazy = location_probabilities(db_map, desc, cfg.probability_floor)
                got, degenerate = measurement_probabilities(lazy, pset.states, mode)
                assert lazy.lazy and degenerate == want_degenerate
                np.testing.assert_allclose(got / got.sum(), want / want.sum(), rtol=1e-12, atol=0)
                # the probabilities themselves, once the field is built
                full = location_probabilities(db_map, desc, cfg.probability_floor)
                full.probabilities
                got, _ = measurement_probabilities(full, pset.states, mode)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def built_field(db_map, q, floor=1e-12):
    """The explicit field of the full-field path: the oracle of the
    corner-only weighting."""
    probs = location_probabilities(db_map, q, floor).probabilities
    return ProbabilityField(db_map.with_probabilities(probs), floor)


def states_on_map(db_map, seed, m=300):
    rng = np.random.default_rng(seed)
    ex, ey = db_map.extent
    return np.column_stack([rng.uniform(0, ex, m), rng.uniform(0, ey, m)])


class TestSparseWeighting:
    """The corner-only likelihoods of a lazy field against the full field."""

    @pytest.mark.parametrize("mode", MODES)
    def test_fast_path_matches_full_field(self, mode):
        db_map = unit_descriptor_map(0, 1.0)
        states = states_on_map(db_map, 6)
        for kind, q in oracle_queries(db_map, 0):
            field = location_probabilities(db_map, q)
            got, degenerate = measurement_probabilities(field, states, mode)
            want, want_degenerate = measurement_probabilities(built_field(db_map, q), states, mode)
            assert field.lazy and not degenerate and not want_degenerate, kind
            np.testing.assert_allclose(got / got.sum(), want / want.sum(), rtol=1e-12, atol=0)

    def test_fast_path_builds_neither_field_nor_basis(self):
        db_map = unit_descriptor_map(1, 1.0)
        field = location_probabilities(db_map, db_map.descriptors[3])
        before = set(vars(db_map))
        measurement_probabilities(field, states_on_map(db_map, 7))
        assert "probabilities" not in vars(field)
        assert set(vars(db_map)) == before

    @pytest.mark.parametrize("mode", MODES)
    def test_off_map_state_takes_the_full_path(self, mode):
        db_map = unit_descriptor_map(2, 1.0)
        q = db_map.descriptors[5]
        states = states_on_map(db_map, 8)
        states[0] = (-1.0, 3.0)
        field = location_probabilities(db_map, q)
        got, degenerate = measurement_probabilities(field, states, mode)
        assert not field.lazy and not degenerate
        assert got[0] == field.floor
        want, _ = measurement_probabilities(built_field(db_map, q), states, mode)
        np.testing.assert_array_equal(got, want)

    def test_all_states_off_map_need_no_field(self):
        db_map = unit_descriptor_map(2, 1.0)
        field = location_probabilities(db_map, db_map.descriptors[5])
        got, degenerate = measurement_probabilities(field, np.full((4, 2), -50.0))
        assert degenerate and field.lazy
        assert np.all(got == field.floor)

    def test_degenerate_flat_world_takes_the_full_path(self):
        # every cell alike: the field is uniform, 1/12 per cell, and a floor
        # of 0.5 leaves every corner-sum (4/12) below it
        db_map = map_with_descriptor_distances([2.0] * 12, width=4)
        field = location_probabilities(db_map, np.zeros(2), floor=0.5)
        got, degenerate = measurement_probabilities(field, states_on_map(db_map, 9, m=20))
        assert degenerate and not field.lazy
        assert got == pytest.approx([4.0 / 12] * 20, rel=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_large_scale_map_falls_back_without_overflow(self, mode):
        db_map = unit_descriptor_map(3, 1e3)
        q = oracle_queries(db_map, 3)[0][1]
        dists = np.linalg.norm(db_map.descriptors.astype(np.float64) - q, axis=1)
        assert dists.min() > math.log(np.finfo(np.float64).max)  # exp(m) overflows
        states = states_on_map(db_map, 10)
        field = location_probabilities(db_map, q)
        with np.errstate(over="raise"):
            got, degenerate = measurement_probabilities(field, states, mode)
        assert not field.lazy
        want, want_degenerate = measurement_probabilities(built_field(db_map, q), states, mode)
        assert degenerate == want_degenerate
        np.testing.assert_array_equal(got, want)

    def test_non_finite_query_rejected(self):
        m = map_with_descriptor_distances([1.0] * 4, width=2)
        for bad in (np.array([np.nan, 0.0]), np.array([0.0, np.inf])):
            with pytest.raises(ValueError, match="finite"):
                location_probabilities(m, bad)

    def test_query_is_copied(self):
        db_map = unit_descriptor_map(4, 1.0)
        q = db_map.descriptors[0].astype(np.float64)
        field = location_probabilities(db_map, q)
        q[:] = 0.0
        assert int(np.argmax(field.probabilities)) == 0


def whole_grid_corner_scores(field, states):
    """Oracle of the windowed corner scores: a mark array and a score table
    over every cell of the map. Returns the (4, M) corner scores of the
    states, in (SW, SE, NW, NE) order, and m."""
    grid = field.grid
    _, i, j, _, _ = corner_cells(grid, states[:, 0], states[:, 1])
    sw = j * grid.width + i
    mark = np.zeros(grid.num_cells, dtype=bool)
    mark[sw] = True
    distinct = np.flatnonzero(mark)
    for offset in (1, grid.width, grid.width + 1):
        mark[distinct + offset] = True
    cells = np.flatnonzero(mark)
    d = distances(grid.descriptors[cells], field.query)
    m = float(d.min())
    scores = np.empty(grid.num_cells)
    scores[cells] = np.exp(m - d)
    return scores[sw + np.array([[0], [1], [grid.width], [grid.width + 1]])], m


def stacked_combine(corners, tx, ty, mode):
    """The per-state value with the weights stacked into a (4, M) array: the
    oracle of the corner-at-a-time accumulation in :func:`_combine`."""
    if mode == "corner-sum":
        return corners.sum(axis=0)
    w = np.stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty])
    return (w * corners).sum(axis=0)


def corner_cloud(db_map, kind, seed, m=200):
    """States on the map: a tight cluster, a cluster against the east and
    north edges (with points exactly on them), one state, or a cloud over
    the whole map that reaches both of its far corners."""
    rng = np.random.default_rng(seed)
    ex, ey = db_map.extent
    if kind == "cluster":
        centre = rng.uniform(3, [ex - 3, ey - 3])
        return np.clip(centre + rng.normal(scale=1.5, size=(m, 2)), 0, [ex, ey])
    if kind == "east-north-edges":
        states = np.column_stack([rng.uniform(ex - 4, ex, m), rng.uniform(ey - 4, ey, m)])
        states[: m // 4, 0] = ex
        states[m // 4 : m // 2, 1] = ey
        return states
    if kind == "one-state":
        return rng.uniform(0, [ex, ey], (1, 2))
    states = states_on_map(db_map, seed, m)
    states[0], states[1] = (0.0, 0.0), (ex, ey)
    return states


class TestWindowedCornerScores:
    """The weighting's corner scores over the SW corners' window against the
    whole-grid oracle: the same cells in the same order, so the same bits."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["cluster", "east-north-edges", "one-state", "whole-map"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_whole_grid_oracle(self, seed, kind, mode):
        db_map = unit_descriptor_map(seed, 1.0)
        states = corner_cloud(db_map, kind, seed)
        inside, i, j, tx, ty = corner_cells(db_map, states[:, 0], states[:, 1])
        assert inside.all()
        for name, q in oracle_queries(db_map, seed)[:3]:
            field = location_probabilities(db_map, q)
            want, want_m = whole_grid_corner_scores(field, states)
            scores, sw, w, m = _corner_scores(field, i, j)
            assert m == want_m, name
            np.testing.assert_array_equal(_corner_values(scores, sw, w), want, err_msg=name)
            got, degenerate = measurement_probabilities(field, states, mode)
            assert field.lazy and not degenerate, name
            np.testing.assert_array_equal(got, stacked_combine(want, tx, ty, mode), err_msg=name)

    def test_window_spans_the_corners_plus_one_row_and_column(self):
        db_map = unit_descriptor_map(0, 1.0)
        field = location_probabilities(db_map, db_map.descriptors[0])
        i, j = np.array([7, 3, 5]), np.array([2, 9, 4])
        scores, sw, w, _ = _corner_scores(field, i, j)
        assert w == 7 - 3 + 2 and scores.size == w * (9 - 2 + 2)
        np.testing.assert_array_equal(sw, (j - 2) * w + (i - 3))

    @pytest.mark.parametrize("m", [1, 2, 7, 1_000, 100_000])
    def test_clipped_take_into_a_row_equals_fancy_indexing(self, m):
        # the _corner_values gather rests on this: for in-range indices,
        # np.take(..., out=row, mode="clip") gives table[idx], bit for bit
        rng = np.random.default_rng(m)
        table = rng.random(5_000) * rng.choice([-1e300, -1.0, 0.0, 5e-324, 1e300], 5_000)
        idx = rng.integers(0, len(table), m)
        idx[0], idx[-1] = 0, len(table) - 1
        rows = np.empty((4, m))
        np.take(table, idx, out=rows[2], mode="clip")
        assert rows[2].tobytes() == table[idx].tobytes()


class TestCombine:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("m", [1, 7, 1_000, 100_000])
    def test_matches_stacked_oracle_bit_for_bit(self, m, mode):
        rng = np.random.default_rng(m)
        corners = rng.random((4, m)) * rng.choice([1e-300, 1e-8, 1.0, 1e8], (4, m))
        tx, ty = rng.random(m), rng.random(m)
        tx[::5], ty[::3] = 0.0, 1.0  # states on cell edges
        np.testing.assert_array_equal(_combine(corners, tx, ty, mode),
                                      stacked_combine(corners, tx, ty, mode))


class TestMeasurementProbability:
    def test_corner_sum_is_literal_four_corner_sum(self):
        # 3x3 grid; state on lattice point (1,1): cell corners are indices
        # 4 (SW), 5, 7, 8 with hand-assigned probabilities
        p = np.array([0.05, 0.05, 0.05, 0.05, 0.1, 0.2, 0.05, 0.3, 0.15])
        f = field_from_probs(p, 3, 3)
        got = measurement_probability(f, Pose(1.0, 1.0), "corner-sum")
        assert got == pytest.approx(0.1 + 0.2 + 0.3 + 0.15)

    def test_corner_sum_over_a_whole_2x2_map_is_at_most_1(self):
        # the four corners are every cell; their float sum rounds above 1
        p = np.array([0.26558727489063405, 0.29807590973548614, 0.19810726468437218, 0.2382295506895077])
        assert ((p[0] + p[1]) + p[2]) + p[3] > 1
        assert measurement_probability(field_from_probs(p, 2, 2), Pose(0.0, 0.0), "corner-sum") == 1.0

    def test_bilinear_constant_corners(self):
        f = field_from_probs([0.125] * 8 + [0.0], 3, 3)
        assert measurement_probability(f, Pose(0.3, 0.7), "bilinear") == pytest.approx(0.125)

    def test_bilinear_centroid_averages_corners(self):
        p = np.array([0.1, 0.2, 0.0, 0.3, 0.4, 0.0, 0.0, 0.0, 0.0])
        f = field_from_probs(p, 3, 3)
        got = measurement_probability(f, Pose(0.5, 0.5), "bilinear")
        assert got == pytest.approx(0.25)

    def test_bilinear_exact_at_corners_and_bounded(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, 9)
        p /= p.sum()
        f = field_from_probs(p, 3, 3)
        assert measurement_probability(f, Pose(1.0, 0.0), "bilinear") == pytest.approx(p[1])
        corner_vals = [p[0], p[1], p[3], p[4]]
        for _ in range(50):
            x, y = rng.uniform(0, 1, 2)
            v = measurement_probability(f, Pose(x, y), "bilinear")
            assert min(corner_vals) - 1e-12 <= v <= max(corner_vals) + 1e-12

    def test_corner_sum_is_four_times_bilinear_for_equal_corners(self):
        f = field_from_probs([1.0 / 9] * 9, 3, 3)
        s = measurement_probability(f, Pose(0.4, 0.6), "corner-sum")
        b = measurement_probability(f, Pose(0.4, 0.6), "bilinear")
        assert s == pytest.approx(4.0 * b)

    def test_off_map_gets_floor(self):
        f = field_from_probs([1.0 / 9] * 9, 3, 3)
        assert measurement_probability(f, Pose(-5.0, 0.0)) == f.floor
        assert measurement_probability(f, Pose(1.0, 99.0)) == f.floor

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, 9)
        p /= p.sum()
        f = field_from_probs(p, 3, 3)
        states = rng.uniform(-0.5, 2.5, size=(40, 2))
        for mode in ("corner-sum", "bilinear"):
            batch, _ = measurement_probabilities(f, states, mode)
            single = [measurement_probability(f, LocalPoint(*s), mode) for s in states]
            assert batch == pytest.approx(single)

    def test_unknown_mode_rejected(self):
        f = field_from_probs([1.0 / 9] * 9, 3, 3)
        with pytest.raises(ValueError):
            measurement_probability(f, Pose(0, 0), "cubic")

    @settings(max_examples=300, deadline=None)
    @example(s=0.1, kx=10, ky=10, frac=None)
    @given(
        s=st.sampled_from([0.1, 0.3, 1 / 3, 5.0]),
        kx=st.integers(0, 11),
        ky=st.integers(0, 11),
        frac=st.none() | st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    def test_filter_reads_the_corners_surrounding_corners_names(self, s, kx, ky, frac):
        # exact lattice multiples k*s (frac None) are where a floor-division
        # lookup and the filter's int(x / s) lookup used to pick different cells
        n = 12
        ex, ey = (n - 1) * s, (n - 1) * s
        p = LocalPoint(kx * s, ky * s) if frac is None else LocalPoint(frac[0] * ex, frac[1] * ey)
        for c in surrounding_corners(GridMap((40.0, -105.0), s, n, n), p):
            one_hot = np.zeros(n * n)
            one_hot[c] = 1.0
            f = field_from_probs(one_hot, n, n, interval=s)
            meas, _ = measurement_probabilities(f, np.array([[p.x, p.y]]), "corner-sum")
            assert meas[0] == 1.0


class TestProbabilityField:
    def test_rejects_unnormalised(self):
        grid = GridMap((40.0, -105.0), 1.0, 2, 2)
        with pytest.raises(ValueError):
            ProbabilityField(grid.with_probabilities(np.full(4, 0.3)))

    def test_uniform_field_helper(self):
        f = uniform_field(GridMap((40.0, -105.0), 1.0, 3, 3))
        assert f.probabilities == pytest.approx([1.0 / 9] * 9)


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


class TestHeatmap:
    def test_uniform_field_is_constant_gray(self, tmp_path):
        f = uniform_field(GridMap((40.0, -105.0), 1.0, 3, 3))
        grid = emit_heatmap(f, "linear")
        assert np.all(grid == 0.5)

    def test_spike_is_brightest(self, tmp_path):
        p = np.full(9, 0.05)
        p[7] = 1.0 - 8 * 0.05
        f = field_from_probs(p, 3, 3)
        for contrast in ("linear", "exponential"):
            grid = emit_heatmap(f, contrast)
            assert np.unravel_index(np.argmax(grid), grid.shape) == (2, 1)
            assert grid.max() == 1.0 and grid.min() == 0.0

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, 9)
        p /= p.sum()
        f = field_from_probs(p, 3, 3)
        path = tmp_path / "heat.csv"
        grid = emit_heatmap(f, "exponential", csv_path=str(path))
        back = read_heatmap_csv(str(path))
        np.testing.assert_allclose(back, grid, atol=1e-6)

    def test_pgm_format(self, tmp_path):
        p = np.full(12, 0.5 / 11)
        p[5] = 0.5
        f = field_from_probs(p, 4, 3)
        path = tmp_path / "heat.pgm"
        emit_heatmap(f, "linear", pgm_path=str(path))
        raw = path.read_bytes()
        header = b"P5\n4 3\n65535\n"
        assert raw.startswith(header)
        samples = np.frombuffer(raw[len(header):], dtype=">u2").reshape(3, 4)
        assert samples.shape == (3, 4)
        # spike at cell index 5 = (row 1, col 1); rows are flipped north-up
        assert samples[1, 1] == 65535


def former_heatmap_csv(field: ProbabilityField, contrast: str, path: str) -> None:
    """The per-cell writer the lattice one replaced, kept as its byte oracle:
    x, y and p formatted for every cell from ``GridMap.locations``."""
    grid = emit_heatmap(field, contrast)
    cells = zip(*field.grid.locations().T.tolist(), grid.ravel().tolist())
    with open(path, "w") as fh:
        fh.write("x,y,p\n")
        fh.writelines(f"{x:.9g},{y:.9g},{p:.9g}\n" for x, y, p in cells)


def random_field(width, height, interval, seed):
    p = np.random.default_rng(seed).uniform(0, 1, width * height)
    p[seed % p.size] = 0.0  # a cell at 0 and, under the linear contrast, one at 1
    return field_from_probs(p / p.sum(), width, height, interval)


class TestHeatmapCsvFormerWriter:
    """``emit_heatmap`` formats x once per column and y once per row; its CSV
    equals the per-cell writer's byte for byte."""

    @staticmethod
    def assert_same_bytes(field, tmp_path):
        for contrast in ("linear", "exponential"):
            got, want = tmp_path / f"{contrast}.csv", tmp_path / f"{contrast}.former.csv"
            emit_heatmap(field, contrast, csv_path=str(got))
            former_heatmap_csv(field, contrast, str(want))
            assert got.read_bytes() == want.read_bytes(), contrast

    def test_default_5m_field(self, tmp_path):
        scenario = build_scenario(ScenarioConfig(out_dir=""))
        field = location_probabilities(scenario.db_map, scenario.ground_view(Pose(60.0, 60.0, 0.3)).values)
        assert (field.grid.width, field.grid.height, field.grid.cell_interval) == (89, 89, 5.0)
        self.assert_same_bytes(field, tmp_path)

    def test_1m_field(self, tmp_path):
        self.assert_same_bytes(random_field(441, 441, 1.0, seed=1), tmp_path)

    @pytest.mark.parametrize("shape", [(2, 2, 1.0), (7, 3, 2.5), (3, 11, 1 / 3), (50, 2, 1e-3)])
    def test_small_and_non_square_maps(self, shape, tmp_path):
        self.assert_same_bytes(random_field(*shape, seed=shape[0] * shape[1]), tmp_path)

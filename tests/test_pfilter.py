import math

import numpy as np
import pytest

from gridworld import run_comparison
from helpers import make_rng, uniform_field

from cvloc.config import ScenarioConfig
from cvloc.mapgrid import GridMap
from cvloc.measurement import MODES, ProbabilityField, location_probabilities
from cvloc.motion import ControlAction, MotionNoise, Pose, ZERO_NOISE, simulate_odometry
from cvloc.pfilter import (
    ParticleSet,
    effective_sample_size,
    estimate_pose,
    init_particles,
    pf_step,
    resample_systematic,
    systematic_indices,
)
from cvloc.simulate import build_scenario, filter_noise, scenario_trajectory


def particle_set(states, weights):
    return ParticleSet(np.asarray(states, dtype=float), np.asarray(weights, dtype=float))


class TestInitParticles:
    def test_zero_spread_collapses_to_pose(self):
        pose = Pose(4.0, -1.0, 0.7)
        ps = init_particles(pose, ZERO_NOISE, 50, make_rng(0))
        assert np.all(ps.states == [4.0, -1.0, 0.7])

    def test_uniform_weights(self):
        ps = init_particles(Pose(0, 0, 0), MotionNoise(1.0, 0.1, 0, 0), 64, make_rng(1))
        assert ps.weights == pytest.approx([1.0 / 64] * 64)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            init_particles(Pose(0, 0, 0), ZERO_NOISE, 0, make_rng(0))

    def test_sample_mean_near_pose(self):
        # 3*sigma/sqrt(M) statistical oracle at M = 10000
        spread = MotionNoise(2.0, 0.05, 0, 0)
        ps = init_particles(Pose(10.0, -5.0, 0.3), spread, 10_000, make_rng(2))
        assert ps.states[:, 0].mean() == pytest.approx(10.0, abs=3 * 2.0 / 100)
        assert ps.states[:, 1].mean() == pytest.approx(-5.0, abs=3 * 2.0 / 100)
        assert ps.states[:, 2].mean() == pytest.approx(0.3, abs=3 * 0.05 / 100)


class TestSystematicResampling:
    def test_equal_weights_reproduce_input_exactly(self):
        for u0 in (0.0, 0.37, 0.999):
            idx = systematic_indices(np.full(6, 1.0 / 6), 6, u0)
            assert idx.tolist() == [0, 1, 2, 3, 4, 5]

    def test_half_half_two_particles(self):
        idx = systematic_indices(np.array([0.5, 0.5]), 2, 0.42)
        assert sorted(idx.tolist()) == [0, 1]

    def test_three_quarters_split_for_every_draw(self):
        # enumerate the single uniform draw: counts are (3, 1) always
        for u0 in np.linspace(0.0, 0.999, 1000):
            idx = systematic_indices(np.array([0.75, 0.25]), 4, float(u0))
            counts = np.bincount(idx, minlength=2)
            assert counts.tolist() == [3, 1]

    def test_expected_copy_counts_within_two_percent(self):
        # fractional expectations: M*w = (5.5, 2.5, 2.0)
        w = np.array([0.55, 0.25, 0.20])
        m = 10
        totals = np.zeros(3)
        rng = make_rng(3)
        runs = 1000
        for _ in range(runs):
            idx = systematic_indices(w, m, float(rng.random()))
            totals += np.bincount(idx, minlength=3)
        means = totals / runs
        assert np.all(np.abs(means - m * w) <= 0.02 * m * w)

    def test_dead_particle_never_drawn(self):
        ps = particle_set([[0, 0, 0], [5, 5, 0]], [1.0, 0.0])
        out = resample_systematic(ps, make_rng(4))
        assert np.all(out.states == [0, 0, 0])
        assert out.weights == pytest.approx([0.5, 0.5])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            systematic_indices(np.zeros(3), 3, 0.5)

    def test_count_preserved(self):
        ps = particle_set(np.random.default_rng(5).normal(size=(33, 3)), np.full(33, 1 / 33))
        assert len(resample_systematic(ps, make_rng(6))) == 33

    @pytest.mark.parametrize("m", [1, 7, 1000, 100_000])
    def test_equals_the_former_indexing_gather(self, m):
        rng = np.random.default_rng(m)
        ps = particle_set(rng.normal(size=(m, 3)), rng.uniform(0.0, 1.0, m))
        out = resample_systematic(ps, make_rng(8))
        idx = systematic_indices(ps.weights, m, float(make_rng(8).random()))
        np.testing.assert_array_equal(out.states.view(np.int64), ps.states[idx].view(np.int64))
        assert out.states.flags.c_contiguous

    def test_survivors_share_no_memory_with_the_input(self):
        ps = particle_set(np.random.default_rng(5).normal(size=(33, 3)), np.full(33, 1 / 33))
        before = ps.states.copy()
        out = resample_systematic(ps, make_rng(6))
        assert not np.shares_memory(out.states, ps.states)
        out.states[:] = 0.0
        np.testing.assert_array_equal(ps.states, before)


class TestEstimatePose:
    def test_single_particle(self):
        ps = particle_set([[2.0, 3.0, 0.5]], [1.0])
        pose, ok = estimate_pose(ps)
        assert ok
        assert (pose.x, pose.y, pose.theta) == pytest.approx((2.0, 3.0, 0.5))

    def test_circular_mean_wraps_correctly(self):
        # +170 and -170 degrees average to 180, not 0
        t = math.radians(170.0)
        ps = particle_set([[0, 0, t], [0, 0, -t]], [0.5, 0.5])
        pose, ok = estimate_pose(ps)
        assert ok
        assert abs(pose.theta) == pytest.approx(math.pi)

    def test_symmetric_positions_average_to_centroid(self):
        ps = particle_set([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], [0.25] * 4)
        pose, _ = estimate_pose(ps)
        assert (pose.x, pose.y) == pytest.approx((0.0, 0.0))

    def test_weighted_mean(self):
        ps = particle_set([[0, 0, 0], [4, 0, 0]], [0.75, 0.25])
        pose, _ = estimate_pose(ps)
        assert pose.x == pytest.approx(1.0)

    def test_undefined_heading_falls_back(self):
        ps = particle_set([[0, 0, 0], [0, 0, math.pi]], [0.5, 0.5])
        pose, ok = estimate_pose(ps, fallback_heading=0.42)
        assert not ok
        assert pose.theta == pytest.approx(0.42)


def small_field(width=3, height=3, probs=None, interval=1.0):
    grid = GridMap((40.0, -105.0), interval, width, height)
    if probs is None:
        return uniform_field(grid)
    return ProbabilityField(grid.with_probabilities(np.asarray(probs, dtype=float)))


class TestPfStep:
    def test_uniform_field_null_motion_preserves_positions(self):
        rng = make_rng(7)
        states = np.column_stack([rng.uniform(0, 2, 20), rng.uniform(0, 2, 20), np.zeros(20)])
        ps = ParticleSet(states.copy(), np.full(20, 0.05))
        out = pf_step(ps, ControlAction(0, 0), small_field(), ZERO_NOISE, make_rng(8))
        np.testing.assert_array_equal(out.states, states)
        assert out.weights == pytest.approx([0.05] * 20)

    def test_peaked_field_concentrates_particles(self):
        # 5x5 grid, all mass at the centre cell (2, 2); particles sitting on
        # the peak out-weigh particles in the far corner by ~1000x
        probs = np.full(25, 0.001)
        probs[12] = 1.0 - 0.024
        field = small_field(5, 5, probs=probs)
        states = np.array([[2.0, 2.0, 0.0], [0.0, 0.0, 0.0]] * 10)
        ps = ParticleSet(states.copy(), np.full(20, 0.05))
        out = pf_step(ps, ControlAction(0, 0), field, ZERO_NOISE, make_rng(9))
        assert np.all(out.states[:, 0] == 2.0)

    def test_all_floor_weights_flag_degenerate(self):
        field = small_field()
        states = np.full((10, 3), -50.0)  # far off-map
        ps = ParticleSet(states, np.full(10, 0.1))
        out = pf_step(ps, ControlAction(0, 0), field, ZERO_NOISE, make_rng(10))
        assert out.degenerate
        assert out.weights == pytest.approx([0.1] * 10)

    def test_particle_count_invariant(self):
        ps = init_particles(Pose(1, 1, 0), MotionNoise(0.2, 0.1, 0, 0), 77, make_rng(11))
        out = pf_step(ps, ControlAction(0.1, 0.0), small_field(), MotionNoise(), make_rng(12))
        assert len(out) == 77

    def test_ess_reported(self):
        ps = init_particles(Pose(1, 1, 0), ZERO_NOISE, 10, make_rng(13))
        out = pf_step(ps, ControlAction(0, 0), small_field(), ZERO_NOISE, make_rng(14))
        assert out.ess == pytest.approx(10.0)

    def test_ess_gate_skips_resampling(self):
        probs = np.full(9, 0.01)
        probs[0] = 1.0 - 0.08
        field = small_field(probs=probs)
        states = np.column_stack([np.linspace(0, 1.5, 12), np.zeros(12), np.zeros(12)])
        ps = ParticleSet(states.copy(), np.full(12, 1 / 12))
        out = pf_step(ps, ControlAction(0, 0), field, ZERO_NOISE, make_rng(15), ess_threshold=0.01)
        # gate passes (threshold tiny): no resampling, weights stay non-uniform
        np.testing.assert_array_equal(out.states, states)
        assert np.unique(out.weights).size > 1


@pytest.fixture(scope="module")
def c7_scenario():
    scenario = build_scenario(ScenarioConfig())
    poses = scenario_trajectory(scenario.cfg, scenario.world.grid)
    descs = [scenario.ground_view(poses[t]) for t in range(21)]
    return scenario.cfg, scenario.db_map, poses, descs


def built_field(db_map, desc, floor):
    """The explicit field of the full-field path, the oracle of a lazy one."""
    probs = location_probabilities(db_map, desc, floor).probabilities
    return ProbabilityField(db_map.with_probabilities(probs), floor)


class TestSparseWeighting:
    """pf_step on lazy fields, which weight only the corner cells, against
    the same steps on the built full field."""

    @pytest.mark.parametrize("ess_threshold", [None, 0.99])
    @pytest.mark.parametrize("mode", MODES)
    def test_weights_match_full_field_on_c7(self, c7_scenario, mode, ess_threshold):
        cfg, db_map, poses, descs = c7_scenario
        noise = filter_noise(cfg)
        spread = MotionNoise(cfg.init_spread_xy, math.radians(cfg.init_spread_theta_deg), 0.0, 0.0)
        pset = init_particles(poses[0], spread, cfg.particles, make_rng(cfg.master_seed))
        rng = make_rng(cfg.master_seed + 1)
        # the gate holds resampling back on some steps and not on others
        held = 0
        for t in range(1, 21):
            u = simulate_odometry(poses[t - 1], poses[t])
            lazy = location_probabilities(db_map, descs[t], cfg.probability_floor)
            full = built_field(db_map, descs[t], cfg.probability_floor)
            oracle_rng = make_rng(0)
            oracle_rng.bit_generator.state = rng.bit_generator.state
            want = pf_step(pset, u, full, noise, oracle_rng, mode, ess_threshold)
            got = pf_step(pset, u, lazy, noise, rng, mode, ess_threshold)
            assert "probabilities" not in vars(lazy)  # the fast path built no field
            assert got.degenerate == want.degenerate is False
            assert got.ess == pytest.approx(want.ess, rel=1e-12, abs=0)
            np.testing.assert_array_equal(got.states, want.states)
            np.testing.assert_allclose(got.weights, want.weights, rtol=1e-12, atol=0)
            held += np.unique(got.weights).size > 1
            pset = got
        assert (held > 0) == (ess_threshold is not None) and held < 20

    def test_off_map_particles_take_the_full_path(self, c7_scenario):
        cfg, db_map, poses, descs = c7_scenario
        states = np.tile([poses[1].x, poses[1].y, 0.0], (50, 1))
        states[:25, 0] += np.linspace(-3.0, 3.0, 25)
        states[0, 0] = -1.0  # off the map
        pset = ParticleSet(states, np.full(50, 1 / 50))
        lazy = location_probabilities(db_map, descs[1], cfg.probability_floor)
        full = built_field(db_map, descs[1], cfg.probability_floor)
        want = pf_step(pset, ControlAction(0, 0), full, ZERO_NOISE, make_rng(30), ess_threshold=0.0)
        got = pf_step(pset, ControlAction(0, 0), lazy, ZERO_NOISE, make_rng(30), ess_threshold=0.0)
        assert "probabilities" in vars(lazy)
        np.testing.assert_array_equal(got.weights, want.weights)
        assert got.weights[0] < got.weights[1:].min()

    def test_degenerate_flat_world_flags_the_step(self):
        # equal descriptors make the field uniform (1/25 a cell); a floor of
        # 0.5 is above every corner-sum, so the step is degenerate
        grid = GridMap((40.0, -105.0), 1.0, 5, 5)
        db_map = grid.with_descriptors(np.ones((25, 4)))
        field = location_probabilities(db_map, np.zeros(4), floor=0.5)
        states = np.column_stack([np.linspace(0.5, 3.5, 10), np.full(10, 2.0), np.zeros(10)])
        out = pf_step(ParticleSet(states, np.full(10, 0.1)), ControlAction(0, 0), field,
                      ZERO_NOISE, make_rng(31))
        assert out.degenerate and "probabilities" in vars(field)
        assert out.ess == pytest.approx(10.0)


class TestLocalizeStep:
    def _world_db(self, peak_cell=None):
        """5x5 map at interval 2 whose cell descriptors are one-hot-ish:
        the query descriptor matches ``peak_cell`` exactly."""
        grid = GridMap((40.0, -105.0), 2.0, 5, 5)
        descs = np.arange(25, dtype=np.float64)[:, None] * np.ones((25, 2))
        return grid.with_descriptors(descs)

    def test_peaked_measurement_snaps_to_truth(self):
        from cvloc.measurement import location_probabilities
        from cvloc.pfilter import localize_step

        db_map = self._world_db()
        truth = Pose(4.0, 6.0, 0.0)  # cell (2, 3) = index 17
        query = np.array([17.0, 17.0])
        prev = init_particles(Pose(3.0, 5.0, 0.0), MotionNoise(2.0, 0.2, 0, 0), 500, make_rng(20))
        est, new_set = localize_step(
            location_probabilities(db_map, query), Pose(3.0, 5.0, 0.0), truth, prev, ZERO_NOISE,
            make_rng(21),
        )
        assert len(new_set) == 500
        assert math.hypot(est.x - truth.x, est.y - truth.y) < db_map.cell_interval

    def test_uniform_field_follows_dead_reckoning(self):
        from cvloc.pfilter import localize_step

        grid = GridMap((40.0, -105.0), 2.0, 5, 5)
        field = uniform_field(grid)
        start = Pose(4.0, 4.0, 0.0)
        target = Pose(6.0, 4.0, 0.0)
        prev = init_particles(start, ZERO_NOISE, 100, make_rng(22))
        est, _ = localize_step(field, start, target, prev, ZERO_NOISE, make_rng(23))
        assert (est.x, est.y) == pytest.approx((6.0, 4.0))


class TestDiscreteWorldOracle:
    """Package update machinery vs an exact Bayes filter on table worlds."""

    def test_three_cell_line_world(self):
        tv = run_comparison(3, 2, steps=10, m=10_000, seed=0,
                            measurement_centers=[(t % 3, 0) for t in range(10)])
        assert tv < 0.02

    def test_five_by_five_world(self):
        for seed in range(3):
            assert run_comparison(5, 5, steps=10, m=10_000, seed=seed) < 0.02


class TestEffectiveSampleSize:
    def test_uniform_weights_full_size(self):
        assert effective_sample_size(np.full(8, 0.125)) == pytest.approx(8.0)

    def test_single_survivor(self):
        assert effective_sample_size(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)


class TestParticleSet:
    def test_particle_accessor(self):
        ps = particle_set([[1.0, 2.0, 0.3], [4.0, 5.0, -0.1]], [0.7, 0.3])
        assert tuple(ps.states[1]) == (4.0, 5.0, -0.1)
        assert ps.weights[1] == 0.3

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            particle_set([[0, 0, 0]], [-0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            particle_set(np.empty((0, 3)), np.empty(0))

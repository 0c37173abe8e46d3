import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_rng

from cvloc.motion import (
    ControlAction,
    MotionNoise,
    Pose,
    ZERO_NOISE,
    perturb_control,
    sample_motion_batch,
    simulate_odometry,
    wrap_angle,
    wrap_angles,
)


def sample_motion(prev: Pose, u: ControlAction, noise: MotionNoise, rng: np.random.Generator) -> Pose:
    """Scalar reference for :func:`sample_motion_batch`: one successor pose,
    with the same draws in the same order as a one-row batch."""
    s_trans, s_rot = noise.effective(u)
    d_trans = u.delta_trans - (rng.normal(0.0, s_trans) if s_trans > 0 else 0.0)
    d_rot = u.delta_rot - (rng.normal(0.0, s_rot) if s_rot > 0 else 0.0)
    heading = prev.theta + d_rot
    return Pose(
        prev.x + d_trans * math.cos(heading),
        prev.y + d_trans * math.sin(heading),
        wrap_angle(heading),
    )


def sample_one(prev: Pose, u: ControlAction, noise: MotionNoise, rng: np.random.Generator) -> Pose:
    """The program's motion step on a single state."""
    state = np.array([[prev.x, prev.y, prev.theta]], dtype=np.float64)
    return Pose(*sample_motion_batch(state, u, noise, rng)[0])


def wrap_angle_oracle(a: float) -> float:
    """The scalar wrap that :func:`wrap_angle` replaced by delegation."""
    if -math.pi < a <= math.pi:
        return a
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def wrap_angles_oracle(a) -> np.ndarray:
    """The array wrap before it ran the modulo on out-of-range elements only."""
    a = np.asarray(a)
    return np.where((a > -np.pi) & (a <= np.pi), a, np.pi - (np.pi - a) % (2.0 * np.pi))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestWrapAngle:
    def test_bit_identical_to_scalar_oracle(self):
        # random angles, the branch edges and their neighbours, signed zeros
        # and huge magnitudes: scalar call, array call and oracle agree bit for bit
        rng = np.random.default_rng(13)
        edges = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 1e300, -1e300]
        near = [math.nextafter(e, t) for e in (math.pi, -math.pi) for t in (math.inf, -math.inf)]
        angles = np.concatenate([rng.uniform(-50, 50, 20_000), rng.uniform(-1e9, 1e9, 5_000),
                                 np.array(edges + near)])
        expected = _bits([wrap_angle_oracle(float(a)) for a in angles])
        np.testing.assert_array_equal(_bits([wrap_angle(float(a)) for a in angles]), expected)
        np.testing.assert_array_equal(_bits(wrap_angles(angles)), expected)

    @pytest.mark.parametrize("special", [math.pi, -math.pi, 0.0, -0.0, math.inf, -math.inf, math.nan,
                                         1e300, -1e300, 3 * math.pi, -3 * math.pi])
    def test_bit_identical_to_the_former_array_wrap(self, special):
        rng = np.random.default_rng(17)
        angles = np.concatenate([rng.uniform(-4.0, 4.0, 1_000), [special], rng.uniform(-1e6, 1e6, 10)])
        np.testing.assert_array_equal(_bits(wrap_angles(angles)), _bits(wrap_angles_oracle(angles)))
        inside = angles[np.abs(angles) < 3.0]  # every element in range: the modulo never runs
        np.testing.assert_array_equal(_bits(wrap_angles(inside)), _bits(wrap_angles_oracle(inside)))
        zero_d = wrap_angles(np.float64(special))
        assert zero_d.shape == () and _bits(zero_d) == _bits(wrap_angles_oracle(np.float64(special)))

    def test_returns_a_copy(self):
        angles = np.array([0.5, -0.5])
        out = wrap_angles(angles)
        out[:] = 9.0
        np.testing.assert_array_equal(angles, [0.5, -0.5])

    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_pi(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_negative_three_and_a_half_pi(self):
        # -3.5*pi = -4*pi + 0.5*pi, congruent to +0.5*pi
        assert wrap_angle(-3.5 * math.pi) == pytest.approx(0.5 * math.pi)

    def test_negative_pi_maps_to_positive_pi(self):
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    @given(st.floats(-1e6, 1e6))
    def test_range_and_congruence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-12
        # congruent mod 2*pi
        assert math.remainder(w - a, 2 * math.pi) == pytest.approx(0.0, abs=1e-6)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(float("inf"))


class TestPose:
    def test_theta_wrapped_on_construction(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Pose(float("nan"), 0, 0)


class TestSampleMotion:
    def test_straight_ahead(self):
        p = sample_one(Pose(0, 0, 0), ControlAction(1.0, 0.0), ZERO_NOISE, make_rng(0))
        assert (p.x, p.y, p.theta) == pytest.approx((1.0, 0.0, 0.0))

    def test_quarter_turn_then_translate(self):
        # rotation applies before the trig terms: cos(pi/2)=0, sin(pi/2)=1
        p = sample_one(Pose(0, 0, 0), ControlAction(1.0, math.pi / 2), ZERO_NOISE, make_rng(0))
        assert p.x == pytest.approx(0.0, abs=1e-15)
        assert p.y == pytest.approx(1.0)
        assert p.theta == pytest.approx(math.pi / 2)

    def test_null_action_is_identity(self):
        prev = Pose(3.0, -2.0, 0.4)
        p = sample_one(prev, ControlAction(0.0, 0.0), ZERO_NOISE, make_rng(0))
        assert (p.x, p.y, p.theta) == (prev.x, prev.y, prev.theta)

    def test_sampled_mean_converges_to_noiseless_pose(self):
        # statistical oracle: mean of 10k samples within 3*sigma/sqrt(10k)
        noise = MotionNoise()  # defaults
        u = ControlAction(1.0, 0.2)
        target = sample_one(Pose(0, 0, 0), u, ZERO_NOISE, make_rng(0))
        states = sample_motion_batch(np.zeros((10_000, 3)), u, noise, make_rng(99))
        s_trans, s_rot = noise.effective(u)
        tol_xy = 3 * s_trans / 100.0 + 3 * s_rot / 100.0  # rot noise couples into xy
        assert states[:, 0].mean() == pytest.approx(target.x, abs=tol_xy)
        assert states[:, 1].mean() == pytest.approx(target.y, abs=tol_xy)
        assert states[:, 2].mean() == pytest.approx(target.theta, abs=3 * s_rot / 100.0)

    def test_batch_matches_scalar_distribution_determinism(self):
        noise = MotionNoise()
        u = ControlAction(2.0, -0.1)
        a = sample_motion_batch(np.zeros((5, 3)), u, noise, make_rng(7))
        b = sample_motion_batch(np.zeros((5, 3)), u, noise, make_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("noise", [MotionNoise(), MotionNoise(0.5, 0.3, 0.1, 0.2), ZERO_NOISE])
    def test_one_row_matches_scalar_oracle_bit_for_bit(self, noise):
        rng = np.random.default_rng(5)
        for seed in range(200):
            prev = Pose(*rng.uniform(-50, 50, 2), rng.uniform(-math.pi, math.pi))
            u = ControlAction(rng.uniform(0, 5), rng.uniform(-3, 3))
            want = sample_motion(prev, u, noise, make_rng(seed))
            got = sample_one(prev, u, noise, make_rng(seed))
            assert (got.x, got.y, got.theta) == (want.x, want.y, want.theta)

    @pytest.mark.parametrize("noise", [MotionNoise(), ZERO_NOISE])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_non_float64_states_match_float64(self, dtype, noise):
        states = np.array([[0, 0, 0], [3, -2, 1], [10, 7, -3]], dtype=dtype)
        u = ControlAction(1.0, math.pi / 2)
        got = sample_motion_batch(states, u, noise, make_rng(3))
        want = sample_motion_batch(states.astype(np.float64), u, noise, make_rng(3))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        if noise is ZERO_NOISE:
            assert got[0, 2] == pytest.approx(math.pi / 2)

    def test_theta_always_wrapped(self):
        states = np.zeros((100, 3))
        states[:, 2] = 3.0
        out = sample_motion_batch(states, ControlAction(0.0, 3.0), MotionNoise(0, 1.0, 0, 0), make_rng(1))
        assert np.all(out[:, 2] > -math.pi) and np.all(out[:, 2] <= math.pi)


class TestSimulateOdometry:
    def test_identical_poses(self):
        p = Pose(1.0, 2.0, 0.3)
        u = simulate_odometry(p, Pose(1.0, 2.0, 0.3))
        assert (u.delta_trans, u.delta_rot) == (0.0, 0.0)

    def test_pythagorean_translation(self):
        u = simulate_odometry(Pose(0, 0, 0), Pose(3.0, 4.0, 0.0))
        assert u.delta_trans == pytest.approx(5.0)
        assert u.delta_rot == 0.0

    def test_heading_wraps_the_short_way(self):
        # 350 deg -> 10 deg is +20 deg, not -340
        u = simulate_odometry(Pose(0, 0, math.radians(350)), Pose(0, 0, math.radians(10)))
        assert u.delta_rot == pytest.approx(math.radians(20.0))

    def test_inverse_property(self):
        # when the target lies along theta_prev + delta_rot, replaying the
        # odometry under zero noise reproduces the target position
        prev = Pose(1.0, -2.0, 0.5)
        d_rot, d_trans = 0.3, 2.5
        heading = prev.theta + d_rot
        target = Pose(prev.x + d_trans * math.cos(heading), prev.y + d_trans * math.sin(heading), heading)
        u = simulate_odometry(prev, target)
        replay = sample_one(prev, u, ZERO_NOISE, make_rng(0))
        assert replay.x == pytest.approx(target.x, abs=1e-9)
        assert replay.y == pytest.approx(target.y, abs=1e-9)
        assert replay.theta == pytest.approx(target.theta, abs=1e-12)


class TestPerturbControl:
    def test_zero_noise_is_identity(self):
        u = ControlAction(1.0, 0.5)
        assert perturb_control(u, ZERO_NOISE, make_rng(0)) == u

    def test_deterministic_per_seed(self):
        u = ControlAction(1.0, 0.5)
        noise = MotionNoise()
        a = perturb_control(u, noise, make_rng(3))
        b = perturb_control(u, noise, make_rng(3))
        assert a == b


class TestMotionNoise:
    def test_effective_sigma_scales_with_action(self):
        noise = MotionNoise(0.1, 0.01, 0.02, 0.01)
        s_trans, s_rot = noise.effective(ControlAction(5.0, -2.0))
        assert s_trans == pytest.approx(0.1 + 0.02 * 5.0)
        assert s_rot == pytest.approx(0.01 + 0.01 * 2.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            MotionNoise(-0.1, 0.0, 0.0, 0.0)

    def test_identical_seeds_identical_streams(self):
        a, b = make_rng(12345), make_rng(12345)
        assert np.array_equal(a.normal(size=10), b.normal(size=10))

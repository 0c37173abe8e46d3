"""Odometry-driven planar motion model.

Control actions are (translation, rotation) increments corrupted by
zero-mean Gaussian noise. Propagation first applies the sampled rotation,
then translates along the new heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]; in-range values pass through unchanged."""
    if not math.isfinite(a):
        raise ValueError(f"non-finite angle {a}")
    return float(wrap_angles(a))


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` wrapped into (-pi, pi]; the modulo runs only on the
    elements outside it (NaN among them), which are mostly none."""
    out = np.array(a, dtype=np.float64)
    inside = (out > -np.pi) & (out <= np.pi)
    if not inside.all():
        outside = ~inside
        out[outside] = np.pi - (np.pi - out[outside]) % TWO_PI
    return out


@dataclass
class Pose:
    """Planar pose: metres east/north plus heading in radians, CCW from east."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError(f"non-finite pose ({self.x}, {self.y}, {self.theta})")
        self.theta = wrap_angle(self.theta)


@dataclass(frozen=True)
class ControlAction:
    """One odometry increment: metres travelled and radians turned."""

    delta_trans: float
    delta_rot: float

    def __post_init__(self):
        if not (math.isfinite(self.delta_trans) and math.isfinite(self.delta_rot)):
            raise ValueError("non-finite control action")


@dataclass(frozen=True)
class MotionNoise:
    """Gaussian odometry noise: fixed floor plus a per-unit rate.

    Effective sigmas are sigma_trans + trans_rate * |delta_trans| and
    sigma_rot + rot_rate * |delta_rot|. Defaults approximate typical
    visual-odometry drift; set everything to 0 for noise-free propagation.
    """

    sigma_trans: float = 0.1  # metres
    sigma_rot: float = math.radians(0.5)
    trans_rate: float = 0.02
    rot_rate: float = 0.01

    def __post_init__(self):
        for v in (self.sigma_trans, self.sigma_rot, self.trans_rate, self.rot_rate):
            if not (math.isfinite(v) and v >= 0):
                raise ValueError("noise parameters must be finite and non-negative")

    def effective(self, u: ControlAction) -> tuple[float, float]:
        return (
            self.sigma_trans + self.trans_rate * abs(u.delta_trans),
            self.sigma_rot + self.rot_rate * abs(u.delta_rot),
        )


ZERO_NOISE = MotionNoise(0.0, 0.0, 0.0, 0.0)


def sample_motion_batch(
    states: np.ndarray, u: ControlAction, noise: MotionNoise, rng: np.random.Generator
) -> np.ndarray:
    """Draw one successor per row of an (M, 3) state array. The sampled
    increments subtract zero-mean Gaussian noise from the commanded ones,
    and the translation follows the already-rotated heading."""
    m = states.shape[0]
    s_trans, s_rot = noise.effective(u)
    d_trans = u.delta_trans - (rng.normal(0.0, s_trans, m) if s_trans > 0 else np.zeros(m))
    d_rot = u.delta_rot - (rng.normal(0.0, s_rot, m) if s_rot > 0 else np.zeros(m))
    heading = states[:, 2] + d_rot
    out = np.empty(states.shape, dtype=np.float64)
    out[:, 0] = states[:, 0] + d_trans * np.cos(heading)
    out[:, 1] = states[:, 1] + d_trans * np.sin(heading)
    out[:, 2] = wrap_angles(heading)
    return out


def simulate_odometry(gt_prev: Pose, gt_curr: Pose) -> ControlAction:
    """Noise-free odometry increment between two ground-truth poses.

    Stands in for a visual-odometry front end: translation is the chord
    length between the positions, rotation the wrapped heading change.
    """
    d_trans = math.hypot(gt_curr.x - gt_prev.x, gt_curr.y - gt_prev.y)
    d_rot = wrap_angle(gt_curr.theta - gt_prev.theta)
    return ControlAction(d_trans, d_rot)


def perturb_control(u: ControlAction, noise: MotionNoise, rng: np.random.Generator) -> ControlAction:
    """Corrupt a control action the way a real odometer would report it."""
    s_trans, s_rot = noise.effective(u)
    return ControlAction(
        u.delta_trans + (rng.normal(0.0, s_trans) if s_trans > 0 else 0.0),
        u.delta_rot + (rng.normal(0.0, s_rot) if s_rot > 0 else 0.0),
    )

"""Bootstrap particle filter over the map-grid measurement model.

Each step propagates every particle through the motion model, replaces its
weight with the measurement probability of the new state, and draws the
next generation by systematic resampling, leaving uniform weights. The
reported pose is the weighted mean position with a circular mean heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measurement import ProbabilityField, measurement_probabilities
from .motion import (
    ControlAction,
    MotionNoise,
    Pose,
    perturb_control,
    sample_motion_batch,
    simulate_odometry,
    wrap_angles,
)


@dataclass(frozen=True)
class ParticleSet:
    """M hypotheses with importance weights, stored as dense arrays.

    ``ess`` and ``degenerate`` describe the weighting stage of the step that
    produced this set: the effective sample size before resampling, and
    whether the measurement failed to differentiate any particle.
    """

    states: np.ndarray  # (M, 3): x, y, theta
    weights: np.ndarray  # (M,) non-negative, summing to 1
    ess: float | None = None
    degenerate: bool = False

    def __post_init__(self):
        if self.states.ndim != 2 or self.states.shape[1] != 3 or self.states.shape[0] < 1:
            raise ValueError("states must be a non-empty (M, 3) array")
        if self.weights.shape != (self.states.shape[0],):
            raise ValueError("weights must match particle count")
        if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and non-negative")

    def __len__(self) -> int:
        return self.states.shape[0]


def init_particles(
    init_pose: Pose, spread: MotionNoise, m: int, rng: np.random.Generator
) -> ParticleSet:
    """Gaussian cloud around an externally provided initial pose."""
    if m < 1:
        raise ValueError(f"need at least one particle, got {m}")
    states = np.empty((m, 3))
    states[:, 0] = init_pose.x + (rng.normal(0.0, spread.sigma_trans, m) if spread.sigma_trans > 0 else 0.0)
    states[:, 1] = init_pose.y + (rng.normal(0.0, spread.sigma_trans, m) if spread.sigma_trans > 0 else 0.0)
    states[:, 2] = wrap_angles(
        init_pose.theta + (rng.normal(0.0, spread.sigma_rot, m) if spread.sigma_rot > 0 else 0.0)
    )
    return ParticleSet(states, np.full(m, 1.0 / m))


def systematic_indices(weights: np.ndarray, m: int, u0: float) -> np.ndarray:
    """Low-variance resampling positions (u0 + k)/m over the weight CDF.

    A single uniform draw fixes all m positions, so the copy count of
    particle i is always floor or ceil of m * w_i. Exactly equal weights
    take a dedicated path with division-exact bin boundaries, which keeps
    the identity mapping bit-exact for every u0 (running float cumsums can
    otherwise put a boundary one ulp past a position sitting right on it).
    """
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if not (total > 0 and np.isfinite(total)):
        raise ValueError("weights must have positive finite sum")
    if not 0.0 <= u0 < 1.0:
        raise ValueError(f"u0 must be in [0, 1), got {u0}")
    n = w.shape[0]
    positions = (u0 + np.arange(m)) / m
    if np.all(w == w[0]):
        cdf = np.arange(1, n + 1) / n
    else:
        cdf = np.cumsum(w / total)
    cdf[-1] = 1.0  # guard against rounding shortfall in the last bin
    return np.minimum(np.searchsorted(cdf, positions, side="right"), n - 1)


def resample_systematic(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Draw M particles with replacement; output weights are uniform 1/M."""
    m = len(pset)
    idx = systematic_indices(pset.weights, m, float(rng.random()))
    return replace(pset, states=np.take(pset.states, idx, axis=0), weights=np.full(m, 1.0 / m))  # a copy


def effective_sample_size(weights: np.ndarray) -> float:
    w = weights / weights.sum()
    return float(1.0 / np.sum(w * w))


def pf_step(
    prev: ParticleSet,
    u: ControlAction,
    field: ProbabilityField,
    noise: MotionNoise,
    rng: np.random.Generator,
    mode: str = "corner-sum",
    ess_threshold: float | None = None,
) -> ParticleSet:
    """One predict/weight/resample cycle.

    Weights are replaced (not multiplied) by the measurement probability,
    which is correct for this bootstrap form because resampling equalises
    them every step; only the ratios matter, so the measurement's common
    scale factor cancels. If the measurement leaves every particle at or
    below the field floor, weights fall back to uniform and the returned set
    is flagged degenerate. ``ess_threshold`` (fraction of M) optionally
    gates resampling; the default resamples unconditionally, with
    accumulating weights only while the gate holds them back.
    """
    states = sample_motion_batch(prev.states, u, noise, rng)
    meas, degenerate = measurement_probabilities(field, states, mode)
    raw = meas if ess_threshold is None else prev.weights * meas
    total = raw.sum()
    degenerate = degenerate or not (np.isfinite(total) and total > 0)
    if degenerate:
        weights = np.full(len(prev), 1.0 / len(prev))
    else:
        weights = raw / total
    ess = effective_sample_size(weights)
    out = ParticleSet(states, weights, ess=ess, degenerate=degenerate)
    if ess_threshold is not None and ess >= ess_threshold * len(prev):
        return out
    return resample_systematic(out, rng)


def _dot(w: np.ndarray, v: np.ndarray) -> float:
    """``w @ v`` as dots over 8,192-element chunks added in order: OpenBLAS
    threads a longer dot, and its bits then follow the thread count."""
    return sum(float(w[i : i + 8192] @ v[i : i + 8192]) for i in range(0, len(w), 8192))


def estimate_pose(pset: ParticleSet, fallback_heading: float = 0.0) -> tuple[Pose, bool]:
    """Weighted mean position and circular mean heading.

    Returns (pose, heading_defined). When the heading vectors cancel the
    circular mean is undefined; the fallback (typically the previous
    estimate) is substituted and the flag comes back False.
    """
    total = pset.weights.sum()
    if not total > 0:
        raise ValueError("cannot estimate a pose from all-zero weights")
    w = pset.weights / total
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum fails the Pose check below
        x = _dot(w, pset.states[:, 0])
        y = _dot(w, pset.states[:, 1])
        sin_sum = _dot(w, np.sin(pset.states[:, 2]))
        cos_sum = _dot(w, np.cos(pset.states[:, 2]))
    if math.hypot(sin_sum, cos_sum) < 1e-12:
        return Pose(x, y, fallback_heading), False
    return Pose(x, y, math.atan2(sin_sum, cos_sum)), True


def localize_step(
    field: ProbabilityField,
    frame_prev: Pose,
    frame_curr: Pose,
    prev_set: ParticleSet,
    noise: MotionNoise,
    rng: np.random.Generator,
    sensor_noise: MotionNoise | None = None,
    sensor_rng: np.random.Generator | None = None,
    mode: str = "corner-sum",
    prev_heading: float = 0.0,
    ess_threshold: float | None = None,
) -> tuple[Pose, ParticleSet]:
    """One full localization frame against the current measurement field:
    odometry from the two frame poses (optionally corrupted by sensor noise,
    drawn from ``sensor_rng``, which it then requires, so odometry streams
    stay comparable across scenarios), then the particle filter step and
    the averaged pose."""
    u = simulate_odometry(frame_prev, frame_curr)
    if sensor_noise is not None:
        u = perturb_control(u, sensor_noise, sensor_rng)
    new_set = pf_step(prev_set, u, field, noise, rng, mode=mode, ess_threshold=ess_threshold)
    pose, _ = estimate_pose(new_set, fallback_heading=prev_heading)
    return pose, new_set

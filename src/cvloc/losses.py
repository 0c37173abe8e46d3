"""Ranking losses over descriptor distances, with analytic gradients.

All loss functions take squared Euclidean distances and return
``(value, gradient)``, the gradient being the partials with respect to the
distance fields in declaration order. Batch construction follows the
exhaustive strategy (every in-batch cross-view negative for both anchors
of every positive pair) or hardest-negative mining. The weighted soft
margin has one elementwise kernel, :func:`_soft_margin`: the single-item
losses, :func:`batch_loss`, which works on the whole cross-distance
matrix at once, and the loss surface ``eval`` writes
(``simulate.dump_loss_surface``) all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class TripletDistances:
    d_pos: float
    d_neg: float

    def __post_init__(self):
        if not (math.isfinite(self.d_pos) and math.isfinite(self.d_neg)):
            raise ValueError("distances must be finite")
        if self.d_pos < 0 or self.d_neg < 0:
            raise ValueError("distances must be non-negative")


@dataclass(frozen=True)
class QuadrupletDistances:
    d_pos: float
    d_neg: float
    d_neg_star: float

    def __post_init__(self):
        for v in (self.d_pos, self.d_neg, self.d_neg_star):
            if not math.isfinite(v) or v < 0:
                raise ValueError("distances must be finite and non-negative")


def _soft_margin(gap, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ln(1 + e^{alpha gap}) and its derivative in ``gap``.

    Both are logaddexp forms, overflow-free on either side: the derivative
    alpha / (1 + e^{-alpha gap}) is alpha e^{-ln(1 + e^{-alpha gap})}.
    """
    z = alpha * np.asarray(gap, dtype=np.float64)
    return np.logaddexp(0.0, z), alpha * np.exp(-np.logaddexp(0.0, -z))


def max_margin_triplet(t: TripletDistances, m: float) -> tuple[float, np.ndarray]:
    """max(0, m + d_pos - d_neg) and its subgradient wrt (d_pos, d_neg)."""
    arg = m + t.d_pos - t.d_neg
    if arg > 0:
        return arg, np.array([1.0, -1.0])
    return 0.0, np.array([0.0, 0.0])


def weighted_soft_margin(t: TripletDistances, alpha: float) -> tuple[float, np.ndarray]:
    """ln(1 + e^{alpha (d_pos - d_neg)}); alpha = 1 is the plain soft margin."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    value, g = _soft_margin(t.d_pos - t.d_neg, alpha)
    return float(value), np.array([g, -g])


def max_margin_quadruplet(q: QuadrupletDistances, m1: float, m2: float) -> tuple[float, np.ndarray]:
    """Two hinge terms sharing d_pos; gradient wrt (d_pos, d_neg, d_neg_star)."""
    a1 = m1 + q.d_pos - q.d_neg
    a2 = m2 + q.d_pos - q.d_neg_star
    g1 = 1.0 if a1 > 0 else 0.0
    g2 = 1.0 if a2 > 0 else 0.0
    value = max(a1, 0.0) + max(a2, 0.0)
    return value, np.array([g1 + g2, -g1, -g2])


def weighted_quadruplet(q: QuadrupletDistances, alpha: float) -> tuple[float, np.ndarray]:
    """Sum of two weighted soft-margin terms sharing the positive distance."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    values, (g1, g2) = _soft_margin([q.d_pos - q.d_neg, q.d_pos - q.d_neg_star], alpha)
    return float(values.sum()), np.array([g1 + g2, -g1, -g2])


class TripletIndex(NamedTuple):
    """One enumerated triplet: the anchor's view, its pair index (which is
    also the positive's pair index) and the negative's pair index."""

    anchor_view: str
    anchor: int
    negative: int


def enumerate_triplets(batch_size_m: int) -> list[TripletIndex]:
    """Exhaustive in-batch triplets: M * 2(M-1) of them for M positive pairs.

    Both members of every pair serve as anchor once per cross-view negative.
    """
    m = batch_size_m
    if m < 2:
        raise ValueError(f"need at least 2 pairs, got {m}")
    out = []
    for i in range(m):
        for view in ("ground", "satellite"):
            for j in range(m):
                if j != i:
                    out.append(TripletIndex(view, i, j))
    return out


def batch_loss(
    ground: np.ndarray,
    satellite: np.ndarray,
    alpha: float = 10.0,
    mode: str = "exhaustive",
    loss: str = "triplet",
) -> float:
    """Mean weighted ranking loss over a batch of M aligned positive pairs.

    ``ground[i]`` and ``satellite[i]`` form positive pair i; distances are
    squared Euclidean. ``exhaustive`` averages over every enumerated
    triplet; ``hard_mining`` keeps only the closest negative per anchor.
    For the quadruplet loss the extra example is the anchor's distance to
    the lowest-indexed pair outside the triplet (exhaustive) or the
    second-closest negative (hard mining); both need M >= 3. Non-finite
    descriptors or cross distances, and an ``alpha`` that is not positive,
    are a ValueError.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if mode not in ("exhaustive", "hard_mining"):
        raise ValueError(f"unknown mode {mode!r}")
    if loss not in ("triplet", "quadruplet"):
        raise ValueError(f"unknown loss {loss!r}")
    g = np.asarray(ground, dtype=np.float64)
    s = np.asarray(satellite, dtype=np.float64)
    if g.shape != s.shape or g.ndim != 2:
        raise ValueError("ground and satellite batches must be equal (M, R) arrays")
    m = g.shape[0]
    if m < 2:
        raise ValueError(f"need at least 2 pairs, got {m}")
    if loss == "quadruplet" and m < 3:
        raise ValueError("quadruplet batches need at least 3 pairs")

    # cross[i, j] = squared distance between ground i and satellite j
    cross = np.square(g[:, None, :] - s[None, :, :]).sum(axis=2)
    if not np.all(np.isfinite(cross)):
        raise ValueError("ground, satellite and their cross distances must be finite")
    d_pos = np.diag(cross)[:, None]
    rows = np.arange(m)[:, None]
    cols = np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)  # every j != i, ascending
    # (2, M, M-1) negatives: ground anchor i vs satellite j, satellite anchor i vs ground j
    negs = np.stack([cross[rows, cols], cross[cols, rows]])
    if mode == "exhaustive":
        first = negs
        if loss == "quadruplet":
            extra = np.where((rows != 0) & (cols != 0), 0, np.where((rows != 1) & (cols != 1), 1, 2))
            second = np.stack([cross[rows, extra], cross[extra, rows]])
    else:
        hardest = np.sort(negs, axis=-1)
        first, second = hardest[..., :1], hardest[..., 1:2]
    value = _soft_margin(d_pos - first, alpha)[0]
    if loss == "quadruplet":
        value = value + _soft_margin(d_pos - second, alpha)[0]
    return float(np.mean(value))

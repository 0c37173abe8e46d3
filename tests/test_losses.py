import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cvloc.losses import (
    QuadrupletDistances,
    TripletDistances,
    batch_loss,
    enumerate_triplets,
    max_margin_quadruplet,
    max_margin_triplet,
    weighted_quadruplet,
    weighted_soft_margin,
)
from cvloc.simulate import _fmt, dump_loss_surface

mp.dps = 50


def hard_negative(anchor_desc: np.ndarray, negatives: list[np.ndarray] | np.ndarray) -> int:
    """Index of the smallest squared-distance negative; ties go to the lowest index."""
    negs = np.asarray(negatives, dtype=np.float64)
    if negs.ndim != 2 or negs.shape[0] < 1:
        raise ValueError("negatives must be a non-empty list of vectors")
    diff = negs - np.asarray(anchor_desc, dtype=np.float64)[None, :]
    return int(np.argmin(np.einsum("ij,ij->i", diff, diff)))


def softplus_oracle(x: float) -> float:
    return float(mp.log(1 + mp.e**x))


class TestMaxMarginTriplet:
    def test_clamps_negative_argument(self):
        value, grad = max_margin_triplet(TripletDistances(0.0, 1.0), 0.5)
        assert value == 0.0
        assert grad == pytest.approx([0.0, 0.0])

    def test_zero_margin_at_equal_distances(self):
        value, _ = max_margin_triplet(TripletDistances(0.7, 0.7), 0.0)
        assert value == 0.0

    def test_active_margin(self):
        value, grad = max_margin_triplet(TripletDistances(2.0, 1.0), 0.5)
        assert value == pytest.approx(1.5)
        assert grad == pytest.approx([1.0, -1.0])


class TestWeightedSoftMargin:
    def test_equal_distances_give_ln2(self):
        for alpha in (0.5, 1.0, 10.0, 37.0):
            value, _ = weighted_soft_margin(TripletDistances(3.0, 3.0), alpha)
            assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_alpha_one_is_plain_soft_margin(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d_pos, d_neg = rng.uniform(0, 20, 2)
            value, _ = weighted_soft_margin(TripletDistances(d_pos, d_neg), 1.0)
            assert value == pytest.approx(softplus_oracle(d_pos - d_neg), rel=1e-12, abs=1e-12)

    def test_strong_scale_small_gap(self):
        # alpha=10, d = -1: high-precision ln(1 + e^-10)
        value, _ = weighted_soft_margin(TripletDistances(0.0, 1.0), 10.0)
        assert value == pytest.approx(softplus_oracle(-10.0), rel=1e-14)
        assert value == pytest.approx(4.5399e-5, rel=1e-4)

    def test_large_arguments_do_not_overflow(self):
        value, _ = weighted_soft_margin(TripletDistances(400.0, 0.0), 10.0)
        assert value == pytest.approx(4000.0)

    @given(st.floats(0, 17), st.floats(0, 17), st.floats(0.1, 20))
    def test_strictly_positive(self, d_pos, d_neg, alpha):
        # strictly positive wherever float64 can represent it: ln(1+e^x)
        # underflows to exactly 0 once x < -745, so keep |alpha*d| < ~700
        value, _ = weighted_soft_margin(TripletDistances(d_pos, d_neg), alpha)
        assert value > 0.0


class TestWeightedQuadruplet:
    def test_all_equal_gives_two_ln2(self):
        value, _ = weighted_quadruplet(QuadrupletDistances(1.0, 1.0, 1.0), 5.0)
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_collapses_to_double_soft_margin(self):
        q = QuadrupletDistances(0.4, 0.9, 0.9)
        qv, _ = weighted_quadruplet(q, 3.0)
        tv, _ = weighted_soft_margin(TripletDistances(0.4, 0.9), 3.0)
        assert qv == pytest.approx(2.0 * tv, rel=1e-15)

    def test_high_precision_example(self):
        # alpha=10, (0.1, 0.2, 0.5): softplus(-1) + softplus(-4)
        value, _ = weighted_quadruplet(QuadrupletDistances(0.1, 0.2, 0.5), 10.0)
        assert value == pytest.approx(softplus_oracle(-1.0) + softplus_oracle(-4.0), rel=1e-12)


def finite_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.size):
        hi = np.zeros_like(x)
        hi[i] = h
        grad[i] = (fn(x + hi) - fn(x - hi)) / (2 * h)
    return grad


def _clear_of_kinks(kinks: list[float], h: float = 1e-5) -> bool:
    return all(abs(k) > 10 * h for k in kinks)


class TestGradients:
    """Analytic gradients vs central finite differences, h = 1e-5."""

    def test_all_four_variants(self):
        rng = np.random.default_rng(7)
        alpha, m, m1, m2 = 10.0, 1.0, 1.0, 0.5
        checked = 0
        while checked < 100:
            d = rng.uniform(0.0, 2.0, 3)  # keeps |alpha * gap| <= 20
            t = TripletDistances(d[0], d[1])
            q = QuadrupletDistances(d[0], d[1], d[2])
            # skip draws within finite-difference reach of a hinge kink
            if not _clear_of_kinks([m + d[0] - d[1], m1 + d[0] - d[1], m2 + d[0] - d[2]]):
                continue
            cases = [
                (lambda x: max_margin_triplet(TripletDistances(*x), m)[0],
                 max_margin_triplet(t, m)[1], d[:2]),
                (lambda x: weighted_soft_margin(TripletDistances(*x), alpha)[0],
                 weighted_soft_margin(t, alpha)[1], d[:2]),
                (lambda x: max_margin_quadruplet(QuadrupletDistances(*x), m1, m2)[0],
                 max_margin_quadruplet(q, m1, m2)[1], d),
                (lambda x: weighted_quadruplet(QuadrupletDistances(*x), alpha)[0],
                 weighted_quadruplet(q, alpha)[1], d),
            ]
            for fn, analytic, x in cases:
                numeric = finite_difference(fn, x)
                scale = np.maximum(np.abs(numeric), 1e-6)
                assert np.all(np.abs(analytic - numeric) / scale < 1e-4)
            checked += 1


class TestMonotonicity:
    @given(st.floats(0, 5), st.floats(0, 5), st.floats(0.01, 2))
    def test_nondecreasing_in_d_pos(self, d_pos, d_neg, bump):
        lo, _ = weighted_soft_margin(TripletDistances(d_pos, d_neg), 10.0)
        hi, _ = weighted_soft_margin(TripletDistances(d_pos + bump, d_neg), 10.0)
        assert hi >= lo

    @given(st.floats(0, 5), st.floats(0, 5), st.floats(0.01, 2))
    def test_nonincreasing_in_d_neg(self, d_pos, d_neg, bump):
        lo, _ = max_margin_triplet(TripletDistances(d_pos, d_neg + bump), 1.0)
        hi, _ = max_margin_triplet(TripletDistances(d_pos, d_neg), 1.0)
        assert hi >= lo


class TestEnumerateTriplets:
    @pytest.mark.parametrize("m", range(2, 17))
    def test_count_formula(self, m):
        triplets = enumerate_triplets(m)
        assert len(triplets) == m * 2 * (m - 1)

    def test_no_anchor_equals_negative(self):
        for view, anchor, negative in enumerate_triplets(6):
            assert anchor != negative
            assert view in ("ground", "satellite")

    def test_exhaustive_coverage(self):
        # every (view, i, j != i) combination appears exactly once
        triplets = enumerate_triplets(4)
        assert len(set(triplets)) == len(triplets)

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError):
            enumerate_triplets(1)


class TestHardNegative:
    def test_single_candidate(self):
        assert hard_negative(np.zeros(3), [np.ones(3)]) == 0

    def test_linear_scan_oracle(self):
        anchor = np.zeros(2)
        negs = [np.array([3.0, 0.0]), np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        dists = [np.sum((n - anchor) ** 2) for n in negs]
        assert hard_negative(anchor, negs) == int(np.argmin(dists)) == 1

    def test_tie_breaks_to_lower_index(self):
        negs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        assert hard_negative(np.zeros(2), negs) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hard_negative(np.zeros(2), np.empty((0, 2)))


def oracle_batch_loss(g: np.ndarray, s: np.ndarray, alpha: float, mode: str, loss: str) -> float:
    """The per-triplet loop :func:`batch_loss` replaced: one distance record
    and one single-item loss call per term, one argsort per anchor."""
    m = g.shape[0]
    cross = np.square(g[:, None, :] - s[None, :, :]).sum(axis=2)
    d_pos = np.diag(cross)

    def neg_dist(view: str, i: int, j: int) -> float:
        return cross[i, j] if view == "ground" else cross[j, i]

    def extra_negative_index(i: int, j: int) -> int:
        return next(k for k in range(m) if k != i and k != j)

    terms: list[float] = []
    if mode == "exhaustive":
        for view, i, j in enumerate_triplets(m):
            t_pos, t_neg = d_pos[i], neg_dist(view, i, j)
            if loss == "triplet":
                value, _ = weighted_soft_margin(TripletDistances(t_pos, t_neg), alpha)
            else:
                k = extra_negative_index(i, j)
                q = QuadrupletDistances(t_pos, t_neg, neg_dist(view, i, k))
                value, _ = weighted_quadruplet(q, alpha)
            terms.append(value)
    else:
        for i in range(m):
            for view in ("ground", "satellite"):
                negs = np.array([neg_dist(view, i, j) for j in range(m) if j != i])
                order = np.argsort(negs, kind="stable")
                if loss == "triplet":
                    t = TripletDistances(d_pos[i], negs[order[0]])
                    value, _ = weighted_soft_margin(t, alpha)
                else:
                    q = QuadrupletDistances(d_pos[i], negs[order[0]], negs[order[1]])
                    value, _ = weighted_quadruplet(q, alpha)
                terms.append(value)
    return float(np.mean(terms))


MODES_AND_LOSSES = [(mode, loss) for mode in ("exhaustive", "hard_mining")
                    for loss in ("triplet", "quadruplet")]


@st.composite
def loss_batches(draw):
    """(mode, loss, ground, satellite, alpha): M = 2..12 (3..12 for
    quadruplets), optionally with tied rows so that negatives tie."""
    mode, loss = draw(st.sampled_from(MODES_AND_LOSSES))
    m = draw(st.integers(2 if loss == "triplet" else 3, 12))
    r = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, s = rng.normal(size=(m, r)), rng.normal(size=(m, r))
    ties = draw(st.sampled_from(["none", "ground", "satellite", "aligned"]))
    if ties == "ground":
        g[1:] = g[0]
    elif ties == "satellite":
        s[m // 2:] = s[0]
    elif ties == "aligned":
        s[:] = g
    alpha = draw(st.floats(0.01, 50.0))
    return mode, loss, g, s, alpha


class TestBatchLossOracle:
    @settings(max_examples=300, deadline=None)
    @given(loss_batches())
    def test_matches_per_triplet_loop(self, batch):
        mode, loss, g, s, alpha = batch
        got = batch_loss(g, s, alpha, mode, loss)
        assert got == pytest.approx(oracle_batch_loss(g, s, alpha, mode, loss), rel=1e-12, abs=0)

    @pytest.mark.parametrize("mode, loss", MODES_AND_LOSSES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["ground", "satellite"])
    def test_non_finite_input_rejected(self, mode, loss, bad, side):
        rng = np.random.default_rng(4)
        batches = {"ground": rng.normal(size=(5, 3)), "satellite": rng.normal(size=(5, 3))}
        batches[side][3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            batch_loss(batches["ground"], batches["satellite"], mode=mode, loss=loss)

    def test_overflowing_cross_distance_rejected(self):
        # finite descriptors whose squared distance overflows to inf
        g = np.array([[0.0], [1e200], [2.0]])
        with pytest.raises(ValueError, match="finite"):
            batch_loss(g, g.copy(), mode="hard_mining")


class TestBatchLoss:
    def test_two_orthonormal_pairs(self):
        # ground == satellite partner, all cross distances 2:
        # every triplet has d_pos = 0, d_neg = 2 -> mean ln(1 + e^(-2a))
        g = np.eye(2)
        value = batch_loss(g, g.copy(), alpha=1.0)
        assert value == pytest.approx(softplus_oracle(-2.0), rel=1e-12)

    def test_coincident_pairs_give_ln2(self):
        g = np.zeros((2, 4))
        value = batch_loss(g, g.copy(), alpha=10.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hard_mining_equals_exhaustive_for_two_pairs(self):
        rng = np.random.default_rng(5)
        g, s = rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
        assert batch_loss(g, s, 10.0, "exhaustive") == pytest.approx(
            batch_loss(g, s, 10.0, "hard_mining"), rel=1e-12
        )

    def test_quadruplet_orthonormal_triple(self):
        # d_pos = 0, every negative distance 2: each quadruplet term doubles
        g = np.eye(3)
        value = batch_loss(g, g.copy(), alpha=1.0, loss="quadruplet")
        assert value == pytest.approx(2.0 * softplus_oracle(-2.0), rel=1e-12)

    def test_quadruplet_needs_three_pairs(self):
        g = np.eye(2)
        with pytest.raises(ValueError):
            batch_loss(g, g.copy(), loss="quadruplet")

    def test_result_finite_and_positive(self):
        rng = np.random.default_rng(9)
        g, s = rng.normal(size=(6, 16)), rng.normal(size=(6, 16))
        for mode in ("exhaustive", "hard_mining"):
            for loss in ("triplet", "quadruplet"):
                value = batch_loss(g, s, 10.0, mode, loss)
                assert math.isfinite(value) and value > 0

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError):
            batch_loss(np.ones((1, 3)), np.ones((1, 3)))

    def test_exhaustive_matches_plain_loop_oracle(self):
        # independent recomputation: explicit loops, no shared index math
        def oracle(g, s, alpha):
            m = g.shape[0]
            sq = lambda a, b: float(np.sum((a - b) ** 2))
            terms = []
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    # ground anchor vs satellite negative, then the reverse
                    terms.append(math.log1p(math.exp(alpha * (sq(g[i], s[i]) - sq(g[i], s[j])))))
                    terms.append(math.log1p(math.exp(alpha * (sq(s[i], g[i]) - sq(s[i], g[j])))))
            return sum(terms) / len(terms)

        rng = np.random.default_rng(77)
        for m in (2, 3, 5):
            g, s = rng.normal(size=(m, 6)), rng.normal(size=(m, 6))
            got = batch_loss(g, s, alpha=2.0)
            assert got == pytest.approx(oracle(g, s, 2.0), rel=1e-12)

    def test_hard_mining_matches_plain_loop_oracle(self):
        def oracle(g, s, alpha):
            m = g.shape[0]
            sq = lambda a, b: float(np.sum((a - b) ** 2))
            terms = []
            for i in range(m):
                d_pos = sq(g[i], s[i])
                hardest_sat = min(sq(g[i], s[j]) for j in range(m) if j != i)
                hardest_grd = min(sq(s[i], g[j]) for j in range(m) if j != i)
                terms.append(math.log1p(math.exp(alpha * (d_pos - hardest_sat))))
                terms.append(math.log1p(math.exp(alpha * (d_pos - hardest_grd))))
            return sum(terms) / len(terms)

        rng = np.random.default_rng(78)
        g, s = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
        got = batch_loss(g, s, alpha=2.0, mode="hard_mining")
        assert got == pytest.approx(oracle(g, s, 2.0), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_rejects_alpha_not_positive(self, alpha):
        g = np.eye(2)
        with pytest.raises(ValueError, match="alpha"):
            batch_loss(g, g.copy(), alpha=alpha)


def per_row_loss_surface(path: str, alpha: float = 10.0, margin: float = 1.0) -> None:
    """Reference for :func:`dump_loss_surface`: one triplet and three scalar
    loss calls per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d,max_margin,soft_margin,weighted\n")
        for d in np.linspace(-3.0, 3.0, 121):
            pos, neg = (d, 0.0) if d >= 0 else (0.0, -d)
            t = TripletDistances(pos, neg)
            mm, _ = max_margin_triplet(t, margin)
            sm, _ = weighted_soft_margin(t, 1.0)
            wm, _ = weighted_soft_margin(t, alpha)
            fh.write(f"{_fmt(float(d))},{_fmt(mm)},{_fmt(sm)},{_fmt(wm)}\n")


class TestLossSurface:
    @pytest.mark.parametrize("alpha", [10.0, 1.0, 0.5])
    def test_bytes_equal_the_per_row_oracle(self, alpha, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        dump_loss_surface(str(got), alpha=alpha)
        per_row_loss_surface(str(want), alpha=alpha)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == 122

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_alpha_not_positive_is_rejected_before_writing(self, alpha, tmp_path):
        path = tmp_path / "loss.csv"
        with pytest.raises(ValueError, match="alpha"):
            dump_loss_surface(str(path), alpha=alpha)
        assert not path.exists()

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cvloc.descriptor import (
    AffineMap,
    Branch,
    GlobalDescriptor,
    LocalFeatureSet,
    Pipeline,
    VladParams,
    _cluster_sum,
    forward,
    forward_batch,
    forward_sets,
    load_pipeline,
    random_dual_pipeline,
    random_shared_pipeline,
    save_pipeline,
)

mp.dps = 50


def one_branch(params: VladParams, reduction: AffineMap) -> Pipeline:
    branch = Branch((), params, reduction)
    return Pipeline(branch, branch, normalize_output=False)


def kernel_vlad(params: VladParams, feats: np.ndarray, per_set: bool = False) -> np.ndarray:
    """The shared kernel's (B, K*D) aggregation of a (B, N, D) batch, on the map's
    products or, with ``per_set``, on the ground views'. The reduction is the
    identity, which is exact: each output adds one value times 1 to zeros."""
    pipeline = one_branch(params, identity_reduction(params.clusters * params.dim))
    return (forward_sets if per_set else forward_batch)(pipeline, feats, "ground")


def kernel_assign(params: VladParams, feats: np.ndarray, per_set: bool = False) -> np.ndarray:
    """The shared kernel's (K, B, N) soft assignments of a (B, N, D) batch, read
    where it divides by their cluster sums (the outermost call, which returns last)."""
    seen = []

    def spy(x):
        total = _cluster_sum(x)
        seen.append(x / total)
        return total

    kd = params.clusters * params.dim
    pipeline = one_branch(params, AffineMap(np.zeros((1, kd), np.float32), np.zeros(1, np.float32)))
    with mock.patch("cvloc.descriptor._cluster_sum", spy):
        (forward_sets if per_set else forward_batch)(pipeline, feats, "ground")
    return seen[-1]


def soft_assign(params: VladParams, u: np.ndarray) -> np.ndarray:
    """Soft cluster assignment of one feature: softmax over w_k . u + b_k."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (params.dim,):
        raise ValueError(f"feature dim {u.shape} does not match clusters of dim {params.dim}")
    return kernel_assign(params, u[None, None, :])[:, 0, 0]


def vlad_aggregate(params: VladParams, feats: LocalFeatureSet) -> GlobalDescriptor:
    """Sum of soft-assigned residuals to each centroid, concatenated per cluster.

    Block k of the output is sum_j a_k(u_j) * (u_j - c_k), so the result has
    dimension K*D and does not depend on the order of the features.
    """
    u = feats.features.astype(np.float64)
    if u.shape[1] != params.dim:
        raise ValueError(f"feature dim {u.shape[1]} != aggregator dim {params.dim}")
    return GlobalDescriptor(kernel_vlad(params, u[None, :, :])[0], feats.view)


def identity_reduction(dim: int) -> AffineMap:
    return AffineMap(np.eye(dim, dtype=np.float32), np.zeros(dim, dtype=np.float32))


class TestSoftAssign:
    def test_single_cluster_is_certain(self):
        p = VladParams(np.array([[1.0, 2.0]]), np.array([[0.3, -0.1]]), np.array([0.7]))
        assert soft_assign(p, np.array([5.0, -3.0])) == pytest.approx([1.0])

    def test_identical_clusters_split_evenly(self):
        w = np.array([[0.2, 0.4], [0.2, 0.4]])
        p = VladParams(np.array([[0.0, 0.0], [1.0, 1.0]]), w, np.array([0.5, 0.5]))
        assert soft_assign(p, np.array([1.0, -1.0])) == pytest.approx([0.5, 0.5])

    def test_unit_logit_gap(self):
        # logits (1, 0): weights (e/(e+1), 1/(e+1)), high-precision oracle
        p = VladParams(
            np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]), np.array([0.0, 0.0])
        )
        expect = [float(mp.e / (mp.e + 1)), float(1 / (mp.e + 1))]
        assert soft_assign(p, np.array([1.0])) == pytest.approx(expect, abs=1e-15)

    def test_dimension_mismatch_raises(self):
        p = VladParams(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            soft_assign(p, np.zeros(4))

    @settings(max_examples=100)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_weights_form_a_simplex(self, k, d, seed):
        rng = np.random.default_rng(seed)
        p = VladParams(rng.normal(size=(k, d)), rng.normal(size=(k, d)), rng.normal(size=k))
        a = soft_assign(p, rng.normal(size=d))
        assert np.all(a >= 0) and np.all(a <= 1)
        assert a.sum() == pytest.approx(1.0, abs=1e-9)


class TestVladAggregate:
    def test_single_cluster_sums_residuals(self):
        p = VladParams(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1))
        feats = LocalFeatureSet(np.array([[1.0, 0.0], [0.0, 1.0]]), "ground")
        assert vlad_aggregate(p, feats).values == pytest.approx([1.0, 1.0])

    def test_features_on_centroid_give_zero(self):
        p = VladParams(np.array([[2.0, -1.0]]), np.zeros((1, 2)), np.zeros(1))
        feats = LocalFeatureSet(np.array([[2.0, -1.0]] * 5), "satellite")
        assert vlad_aggregate(p, feats).values == pytest.approx([0.0, 0.0])

    def test_two_cluster_hand_computation(self):
        # K=2, D=1, c={0,10}, w={1,-1}, b=0, one feature u=2:
        # sigma = e^2/(e^2+e^-2); V = [sigma*2, (1-sigma)*(2-10)]
        p = VladParams(
            np.array([[0.0], [10.0]]), np.array([[1.0], [-1.0]]), np.zeros(2)
        )
        sigma = mp.e**2 / (mp.e**2 + mp.e**-2)
        expect = [float(sigma * 2), float((1 - sigma) * (2 - 10))]
        feats = LocalFeatureSet(np.array([[2.0]]), "ground")
        assert vlad_aggregate(p, feats).values == pytest.approx(expect, abs=1e-14)

    def test_empty_feature_set_rejected(self):
        with pytest.raises(ValueError):
            LocalFeatureSet(np.empty((0, 2)), "ground")

    def test_scaling_linearity_single_cluster(self):
        # with one cluster the assignment is constant, so scaling features
        # and centroid by s scales the aggregate by s
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(7, 4))
        c = rng.normal(size=(1, 4))
        p1 = VladParams(c, np.zeros((1, 4)), np.zeros(1))
        p5 = VladParams(5.0 * c, np.zeros((1, 4)) / 5.0, np.zeros(1))
        v1 = vlad_aggregate(p1, LocalFeatureSet(feats, "ground")).values
        v5 = vlad_aggregate(p5, LocalFeatureSet(5.0 * feats, "ground")).values
        assert v5 == pytest.approx(5.0 * v1, rel=1e-12)


def oracle_assign_batch(params: VladParams, feats: np.ndarray) -> np.ndarray:
    """Reference soft assignment, the program's former path: (..., D) features
    -> (..., K) simplex rows, with the softmax reduced over the last axis."""
    logits = feats @ params.assign_weights.astype(np.float64).T + params.assign_bias.astype(np.float64)
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_vlad_batch(params: VladParams, feats: np.ndarray) -> np.ndarray:
    """Reference aggregation, the program's former path: (B, N, D) -> (B, K*D)."""
    c = params.centroids.astype(np.float64)
    a = oracle_assign_batch(params, feats)  # (B, N, K)
    weighted = np.matmul(a.transpose(0, 2, 1), feats)  # (B, K, D)
    v = weighted - a.sum(axis=1)[:, :, None] * c[None, :, :]
    return v.reshape(feats.shape[0], -1)


def oracle_affine(layer: AffineMap, x: np.ndarray) -> np.ndarray:
    return x @ layer.weight.astype(np.float64).T + layer.bias.astype(np.float64)


def oracle_forward(pipeline: Pipeline, feats: np.ndarray, view: str) -> np.ndarray:
    """``forward_batch`` on the reference aggregation, out-of-place affine
    maps and ``np.linalg.norm``."""
    branch = pipeline.satellite if view == "satellite" else pipeline.ground
    for layer in branch.layers:
        feats = oracle_affine(layer, feats)
    out = oracle_affine(branch.reduction, oracle_vlad_batch(branch.vlad, feats))
    return out / np.linalg.norm(out, axis=-1, keepdims=True) if pipeline.normalize_output else out


def einsum_vlad_batch(params: VladParams, feats: np.ndarray, per_set: bool = False) -> np.ndarray:
    """Reference for the shared kernel: the weighted sums as one einsum over the
    kernel's own cluster-leading assignments (the kernel uses a batched matmul,
    which sums in another order)."""
    b = len(feats)
    a = kernel_assign(params, feats, per_set)  # (K, B, N)
    weighted = np.einsum("kbn,bnd->bkd", a, feats)
    v = weighted - a.sum(axis=2).T[:, :, None] * params.centroids.astype(np.float64)[None, :, :]
    return v.reshape(b, -1)


def gamma(m: int) -> float:
    """Higham's gamma_m = m*u / (1 - m*u) with u = eps/2 for float64."""
    u = np.finfo(np.float64).eps / 2
    return m * u / (1 - m * u)


def vlad_order_bound(params: VladParams, feats: np.ndarray, per_set: bool = False) -> np.ndarray:
    """Largest difference, per output element, between two float64
    evaluations of v = sum_j a_j*u_j - (sum_j a_j)*c over the same
    assignments a >= 0 that add the n features in different orders.

    A dot product of length n, summed in any order (fused or not), is within
    gamma_n * sum_j |a_j*u_j| of the exact value (Higham, Theorem 3.1). The
    totals sum_j a_j (n - 1 additions), the product with c and the final
    subtraction each add at most one rounding, so each evaluation is within
    gamma_(n+1) * M of the exact v, with M = sum_j a_j*(|u_j| + |c|), and two
    evaluations are within twice that of each other.
    """
    b, n, _ = feats.shape
    a = kernel_assign(params, feats, per_set)  # (K, B, N)
    c = np.abs(params.centroids.astype(np.float64))
    magnitude = np.einsum("kbn,bnd->bkd", a, np.abs(feats)) + a.sum(axis=2).T[:, :, None] * c
    return 2 * gamma(n + 1) * magnitude.reshape(b, -1)


class TestVladBatchAgainstOracle:
    @pytest.mark.parametrize("per_set", [False, True], ids=["block", "per-set"])
    @settings(max_examples=200)
    @given(b=st.integers(1, 40), n=st.integers(1, 32), k=st.integers(1, 10), d=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1))
    @example(b=5, n=27, k=2, d=19, seed=42)  # off by 1.07e-14, beyond a fixed atol of 1e-14
    def test_matches_einsum_form(self, per_set, b, n, k, d, seed):
        # features in [-1, 1] like the world's sinusoids
        rng = np.random.default_rng(seed)
        p = VladParams(rng.uniform(-1, 1, (k, d)), rng.uniform(-1, 1, (k, d)), rng.uniform(-1, 1, k))
        feats = rng.uniform(-1, 1, (b, n, d))
        got, bound = kernel_vlad(p, feats, per_set), vlad_order_bound(p, feats, per_set)
        assert np.all(np.abs(got - einsum_vlad_batch(p, feats, per_set)) <= bound)
        if n > 1:  # tight enough to catch one feature's term going missing
            assert np.any(np.abs(got - einsum_vlad_batch(p, feats[:, 1:], per_set)) > bound)


PIPELINE_MAKERS = {"dual": random_dual_pipeline, "shared": random_shared_pipeline}
# Stated tolerance where the logits' GEMM rounds differently from the former
# path's (see TestFormerPathOracle); outputs are unit vectors.
GEMM_ORDER_ATOL = 1e-12


class TestFormerPathOracle:
    """The cluster-leading path against the former last-axis path.

    The softmax, the weighted sums and the per-cluster totals reproduce the
    former summation orders exactly. The logits are one (K, D) x (D, B*N) GEMM
    instead of B GEMMs of (N, D) x (D, K): that rounds identically for a
    single feature set and for N = 24 (the world's default), and may differ
    in the last bits for other N, where the former path ran B small
    products (a GEMV per set when N = 1). Beyond K = 256 the BLAS blocking
    changes, so larger K are held to the same stated tolerance.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 2, 7, 8, 9, 16, 129, 256]), st.sampled_from([1, 40]),
           st.sampled_from([1, 7, 24]), st.sampled_from(sorted(PIPELINE_MAKERS)),
           st.sampled_from(["satellite", "ground"]), st.integers(0, 2**32 - 1))
    def test_matches_former_path(self, k, b, n, variant, view, seed):
        config = PIPELINE_MAKERS[variant](seed % 2**16, clusters=k)
        feats = np.random.default_rng(seed).uniform(-1, 1, (b, n, 16))
        got, want = forward_batch(config, feats, view), oracle_forward(config, feats, view)
        if b == 1 or n == 24:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=GEMM_ORDER_ATOL)
        vlad = config.branch(view).vlad
        u = feats[0, 0]  # the shared aggregator's input dimension is 16 as well
        np.testing.assert_array_equal(soft_assign(vlad, u), oracle_assign_batch(vlad, u[None, :])[0])

    @pytest.mark.parametrize("k", [257, 300])
    @pytest.mark.parametrize("variant", sorted(PIPELINE_MAKERS))
    def test_beyond_256_clusters_within_stated_tolerance(self, k, variant):
        config = PIPELINE_MAKERS[variant](5, clusters=k)
        feats = np.random.default_rng(k).uniform(-1, 1, (30, 24, 16))
        np.testing.assert_allclose(forward_batch(config, feats, "satellite"),
                                   oracle_forward(config, feats, "satellite"), rtol=0, atol=GEMM_ORDER_ATOL)

    @pytest.mark.parametrize("k", [*range(1, 18), 24, 127, 128, 129, 136, 255, 256, 257, 300, 1000])
    def test_cluster_sum_adds_in_numpy_pairwise_order(self, k):
        # a contiguous last-axis sum is numpy's pairwise summation over K values
        x = np.exp(np.random.default_rng(k).normal(0, 3, (k, 64)))
        np.testing.assert_array_equal(_cluster_sum(x), np.ascontiguousarray(x.T).sum(axis=1))
        if k >= 8:  # adding the rows one by one rounds differently
            assert not np.array_equal(_cluster_sum(x), x.sum(axis=0))


class TestGroundViewBatches:
    """forward_sets over B ground views against each view alone. A batch sums
    its totals over N in N − 1 adds of (K, B) slices, a lone set in an N-leading
    copy; the per-set assignment GEMMs and reduction GEMVs are the same."""

    @settings(max_examples=150, deadline=None)
    @given(b=st.integers(1, 6), n=st.integers(1, 30),
           k=st.one_of(st.sampled_from([1, 8, 9]), st.integers(1, 16), st.integers(257, 300)),
           d=st.integers(1, 20), r=st.integers(1, 40), variant=st.sampled_from(sorted(PIPELINE_MAKERS)),
           view=st.sampled_from(["satellite", "ground"]), seed=st.integers(0, 2**32 - 1))
    @example(b=4, n=24, k=8, d=16, r=32, variant="dual", view="ground", seed=7)  # the world's default shape
    def test_batch_invariance_each_row_is_the_set_alone(self, b, n, k, d, r, variant, view, seed):
        config = PIPELINE_MAKERS[variant](seed % 2**16, dim=d, clusters=k, reduced_dim=r)
        feats = np.random.default_rng(seed).uniform(-1, 1, (b, n, d))
        rows = forward_sets(config, feats, view)
        for i in range(b):
            np.testing.assert_array_equal(rows[i], forward_batch(config, feats[i : i + 1], view)[0])

    @settings(max_examples=200, deadline=None)
    @given(b=st.integers(1, 6), k=st.integers(1, 12), n=st.integers(1, 40), per_set=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(b=1, k=1, n=40, per_set=True, seed=0)  # one value a set: numpy sums it pairwise, but of 1.0s
    def test_batch_invariance_totals_in_either_form(self, b, k, n, per_set, seed):
        rng = np.random.default_rng(seed)
        p = VladParams(rng.uniform(-1, 1, (k, 3)), rng.uniform(-1, 1, (k, 3)), rng.uniform(-1, 1, k))
        a = kernel_assign(p, rng.uniform(-1, 1, (b, n, 3)), per_set)  # (K, B, N)
        slices = a[:, :, 0].copy()
        for i in range(1, n):
            slices += a[:, :, i]
        copied = np.ascontiguousarray(a.transpose(2, 1, 0)).sum(axis=0)  # (B, K)
        np.testing.assert_array_equal(copied, slices.T)
        for i in range(b):  # and each set's own N-leading copy
            np.testing.assert_array_equal(np.ascontiguousarray(a[:, i, :].T).sum(axis=0), slices[:, i])


def dual_with_identity(k=2, d=3, normalize=False) -> Pipeline:
    rng = np.random.default_rng(11)
    vlad = VladParams(rng.normal(size=(k, d)), rng.normal(size=(k, d)), rng.normal(size=k))
    branch = Branch((), vlad, identity_reduction(k * d))
    return Pipeline(branch, branch, normalize_output=normalize)


class TestForward:
    def test_identity_reduction_equals_vlad(self):
        cfg = dual_with_identity()
        feats = LocalFeatureSet(np.random.default_rng(0).normal(size=(6, 3)), "ground")
        out = forward(cfg, feats)
        ref = vlad_aggregate(cfg.ground.vlad, feats)
        np.testing.assert_allclose(out.values, ref.values, rtol=0, atol=0)

    def test_normalized_output_has_unit_norm(self):
        cfg = random_dual_pipeline(5)
        feats = LocalFeatureSet(np.random.default_rng(1).normal(size=(10, 16)), "satellite")
        assert np.linalg.norm(forward(cfg, feats).values) == pytest.approx(1.0, abs=1e-6)

    def test_shared_identity_transforms_equal_raw_aggregation(self):
        rng = np.random.default_rng(4)
        d = 3
        vlad = VladParams(rng.normal(size=(2, d)), rng.normal(size=(2, d)), rng.normal(size=2))
        eye = AffineMap(np.eye(d, dtype=np.float32), np.zeros(d, dtype=np.float32))
        branch = Branch((eye, eye), vlad, identity_reduction(2 * d))
        cfg = Pipeline(branch, branch, False)
        feats = LocalFeatureSet(rng.normal(size=(5, d)), "ground")
        out = forward(cfg, feats)
        ref = vlad_aggregate(vlad, feats)
        np.testing.assert_allclose(out.values, ref.values, atol=1e-12)

    @pytest.mark.parametrize("maker", [random_dual_pipeline, random_shared_pipeline])
    def test_permutation_invariance(self, maker):
        cfg = maker(9)
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(50, 16))
        base = forward(cfg, LocalFeatureSet(feats, "ground")).values
        for _ in range(20):
            perm = rng.permutation(50)
            shuffled = forward(cfg, LocalFeatureSet(feats[perm], "ground")).values
            np.testing.assert_allclose(shuffled, base, atol=1e-9)

    def test_views_select_branches(self):
        cfg = random_dual_pipeline(7, tie_views=False)
        feats = np.random.default_rng(0).normal(size=(5, 16))
        sat = forward(cfg, LocalFeatureSet(feats, "satellite")).values
        grd = forward(cfg, LocalFeatureSet(feats, "ground")).values
        assert not np.allclose(sat, grd)

    def test_tied_views_agree(self):
        cfg = random_dual_pipeline(7, tie_views=True)
        feats = np.random.default_rng(0).normal(size=(5, 16))
        sat = forward(cfg, LocalFeatureSet(feats, "satellite")).values
        grd = forward(cfg, LocalFeatureSet(feats, "ground")).values
        np.testing.assert_array_equal(sat, grd)


class TestParameterFile:
    def test_dual_round_trip(self, tmp_path):
        cfg = random_dual_pipeline(123)
        path = tmp_path / "params.bin"
        save_pipeline(cfg, str(path))
        loaded = load_pipeline(str(path))
        assert loaded.satellite.layers == loaded.ground.layers == ()
        np.testing.assert_array_equal(loaded.satellite.vlad.centroids, cfg.satellite.vlad.centroids)
        np.testing.assert_array_equal(loaded.ground.reduction.weight, cfg.ground.reduction.weight)
        assert loaded.normalize_output == cfg.normalize_output

    def test_shared_round_trip_bytes_identical(self, tmp_path):
        cfg = random_shared_pipeline(99, hidden_dim=12)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_pipeline(cfg, str(a))
        save_pipeline(load_pipeline(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_shared_round_trip_shares_one_second_layer_aggregator_and_reduction(self, tmp_path):
        path = tmp_path / "params.bin"
        save_pipeline(random_shared_pipeline(99, hidden_dim=12), str(path))
        loaded = load_pipeline(str(path))
        sat, grd = loaded.satellite, loaded.ground
        assert sat.layers[1] is grd.layers[1] and sat.vlad is grd.vlad and sat.reduction is grd.reduction
        assert sat.layers[0] is not grd.layers[0]

    @pytest.mark.parametrize("maker", [random_dual_pipeline, random_shared_pipeline])
    @pytest.mark.parametrize("ground", [{"clusters": 4}, {"dim": 12}, {"reduced_dim": 16}])
    def test_mismatched_ground_branch_rejected_when_saved(self, maker, ground, tmp_path):
        # the header holds one set of dimensions for both branches
        pipeline = Pipeline(maker(1).satellite, maker(2, **ground).ground)
        with pytest.raises(ValueError, match="both branches"):
            save_pipeline(pipeline, str(tmp_path / "params.bin"))
        assert not (tmp_path / "params.bin").exists()

    @pytest.mark.parametrize("count", [1, 3])
    def test_layer_count_other_than_0_or_2_rejected_when_saved(self, count, tmp_path):
        eye = identity_reduction(16)
        p = random_dual_pipeline(1, tie_views=True)
        branch = Branch((eye,) * count, p.satellite.vlad, p.satellite.reduction)
        with pytest.raises(ValueError, match="0 or 2 layers"):
            save_pipeline(Pipeline(branch, branch), str(tmp_path / "params.bin"))
        assert not (tmp_path / "params.bin").exists()

    @pytest.mark.parametrize("part", ["second layer", "vlad", "reduction"])
    def test_unshared_second_layer_aggregator_or_reduction_rejected_when_saved(self, part, tmp_path):
        pipeline, other = random_shared_pipeline(1), random_shared_pipeline(2).ground
        a = pipeline.ground
        ground = Branch((a.layers[0], (other if part == "second layer" else a).layers[1]),
                        (other if part == "vlad" else a).vlad, (other if part == "reduction" else a).reduction)
        save_pipeline(Pipeline(pipeline.satellite, a), str(tmp_path / "ok.bin"))
        with pytest.raises(ValueError, match="share"):
            save_pipeline(Pipeline(pipeline.satellite, ground), str(tmp_path / "params.bin"))
        assert not (tmp_path / "params.bin").exists()

    @pytest.mark.parametrize("layers, reduction_in", [((4, 5), 8), ((3,), 8), ((), 7), ((4, 4), 7)])
    def test_unchained_branch_rejected_when_built(self, layers, reduction_in):
        # layers of these output sizes from 3 inputs, an aggregator of 2 clusters of dimension 4,
        # a reduction taking reduction_in values: each case breaks the chain once
        maps = [AffineMap(np.zeros((o, i), np.float32), np.zeros(o, np.float32))
                for i, o in zip((3, *layers), layers)]
        vlad = VladParams(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ValueError, match="chain"):
            Branch(tuple(maps), vlad, AffineMap(np.zeros((2, reduction_in), np.float32), np.zeros(2, np.float32)))

    @pytest.mark.parametrize("maker, dims", [
        (random_dual_pipeline, {"reduced_dim": 0}), (random_dual_pipeline, {"dim": 0}),
        (random_shared_pipeline, {"reduced_dim": 0}), (random_shared_pipeline, {"hidden_dim": 0}),
        (random_shared_pipeline, {"dim": 0}),
    ])
    def test_zero_width_stage_rejected_when_built(self, maker, dims):
        with pytest.raises(ValueError, match="nonzero width"):
            maker(1, **dims)

    @pytest.mark.parametrize("variant, dims", [(1, (8, 16, 0, 0, 0)), (1, (8, 0, 32, 0, 0)),
                                               (2, (8, 16, 0, 16, 16)), (2, (8, 16, 32, 0, 16)),
                                               (2, (8, 16, 32, 16, 0))])
    def test_zero_width_stage_rejected_when_loaded(self, variant, dims, tmp_path):
        # a header naming a zero width, with the body it then declares
        k, d, r, h1, h2 = dims
        floats = (2 * (2 * k * d + k) + 2 * (r * k * d + r) if variant == 1
                  else 2 * k * h2 + k + 2 * (h1 * d + h1) + h2 * h1 + h2 + r * k * h2 + r)
        path = tmp_path / "zero.params"
        path.write_bytes(b"CVLDESC1" + struct.pack("<II6I", 1, variant, *dims, 1) + bytes(4 * floats))
        with pytest.raises(ValueError, match="nonzero width"):
            load_pipeline(str(path))

    @pytest.mark.parametrize("tie_views", [False, True])
    @pytest.mark.parametrize("maker", [random_dual_pipeline, random_shared_pipeline])
    @pytest.mark.parametrize("dims", [{}, {"clusters": 1}, {"dim": 12},
                                      {"clusters": 3, "dim": 5, "reduced_dim": 7}])
    def test_every_valid_pipeline_loads_and_saves_the_same_bytes(self, maker, dims, tie_views, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_pipeline(maker(5, tie_views=tie_views, **dims), str(a))
        save_pipeline(load_pipeline(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTAPRM0" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_pipeline(str(p))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_non_finite_affine_parameters_rejected(self, bad, part):
        weight, bias = np.ones((2, 3), dtype=np.float32), np.zeros(2, dtype=np.float32)
        (weight if part == "weight" else bias)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            AffineMap(weight, bias)

    def test_seeded_init_is_deterministic(self):
        a = random_dual_pipeline(42)
        b = random_dual_pipeline(42)
        np.testing.assert_array_equal(a.satellite.vlad.assign_weights, b.satellite.vlad.assign_weights)

import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import oracles
from oracles import pose_matrix
from trajcouple import metrics
from trajcouple.errors import DegenerateConfiguration, EmptyValidMask
from trajcouple.metrics import (
    DepthResult,
    MetricReport,
    TrajectoryPair,
    _plane_normals,
    ate,
    depth_metrics,
    pointmap_metrics,
    rel_pose_accuracy,
    rpe,
    tapvid3d_metrics,
)
from trajcouple.pose import Pose, Similarity, _icp, compose, exp_map, so3_exp, umeyama


def random_trajectory(rng, n, rot=0.3, trans=1.0):
    """(n,) poses, each from rot * N(0, 1) rotation and trans * N(0, 1) translation parts."""
    return exp_map(rng.standard_normal((n, 6)) * np.repeat([rot, trans], 3))


def random_pose(rng, rot=0.5, trans=1.0):
    return random_trajectory(rng, 1, rot, trans)[0]


def on_x_axis(n, rotations=np.eye(3)):
    """(n,) poses at (k, 0, 0) for k = 0..n-1."""
    return Pose(np.broadcast_to(rotations, (n, 3, 3)), np.outer(np.arange(float(n)), [1, 0, 0]))


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestAte:
    def test_identical_zero(self):
        rng = np.random.default_rng(0)
        traj = random_trajectory(rng, 6)
        assert ate(TrajectoryPair(traj, traj)) < 1e-12

    def test_similarity_absorbed(self):
        rng = np.random.default_rng(1)
        gt = random_trajectory(rng, 8)
        sim = Similarity(2.7, rot_z(0.8), np.array([3.0, -1.0, 0.5]))
        est = Pose(gt.rotation, sim.apply(gt.translation))
        assert ate(TrajectoryPair(est, gt)) < 1e-9

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            gt = random_trajectory(rng, 12)
            est = compose(random_trajectory(rng, 12, 0.02, 0.05), gt)
            naive = oracles.naive_ate([pose_matrix(p) for p in est], [pose_matrix(p) for p in gt])
            assert ate(TrajectoryPair(est, gt)) == pytest.approx(naive, abs=1e-9)

    def test_too_few_poses(self):
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng, 2)
        with pytest.raises(DegenerateConfiguration):
            ate(TrajectoryPair(traj, traj))


class TestRpe:
    def test_identical_zero(self):
        rng = np.random.default_rng(4)
        traj = random_trajectory(rng, 6)
        res = rpe(TrajectoryPair(traj, traj))
        assert res.trans < 1e-12 and res.rot_deg < 1e-9

    def test_constant_rotation_offset(self):
        # estimate rotates an extra theta per step
        theta = np.radians(5.0)
        gt = on_x_axis(6)
        est = on_x_axis(6, np.stack([rot_z(k * theta) for k in range(6)]))
        res = rpe(TrajectoryPair(est, gt), step=1)
        assert res.rot_deg == pytest.approx(5.0, rel=1e-9)

    def test_translation_drift(self):
        drift = np.array([0.0, 0.25, 0.0])
        gt = on_x_axis(5)
        est = Pose(gt.rotation, gt.translation + np.arange(5.0)[:, None] * drift)
        res = rpe(TrajectoryPair(est, gt), step=1)
        assert res.trans == pytest.approx(0.25, rel=1e-12)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(5)
        gt = random_trajectory(rng, 10)
        est = compose(random_trajectory(rng, 10, 0.05, 0.1), gt)
        pair = TrajectoryPair(est, gt)
        for step in (1, 2, 4):
            ours = rpe(pair, step=step)
            nt, nr = oracles.naive_rpe(
                [pose_matrix(p) for p in est], [pose_matrix(p) for p in gt], step
            )
            assert ours.trans == pytest.approx(nt, abs=1e-9)
            assert ours.rot_deg == pytest.approx(nr, abs=1e-9)

    def test_step_validation(self):
        rng = np.random.default_rng(6)
        traj = random_trajectory(rng, 4)
        with pytest.raises(ValueError):
            rpe(TrajectoryPair(traj, traj), step=4)


class TestRelPoseAccuracy:
    def test_perfect(self):
        rng = np.random.default_rng(7)
        traj = random_trajectory(rng, 6)
        res = rel_pose_accuracy(TrajectoryPair(traj, traj))
        assert res.rra == 100.0 and res.rta == 100.0 and res.auc == 100.0

    def test_rotations_off_by_45_deg(self):
        # every relative rotation error is a multiple of 45 degrees (>= 45)
        rng = np.random.default_rng(8)
        trans = rng.standard_normal((5, 3))
        gt = Pose(np.broadcast_to(np.eye(3), (5, 3, 3)), trans)
        est = Pose(np.stack([rot_z(np.radians(45.0) * k) for k in range(5)]), trans)
        res = rel_pose_accuracy(TrajectoryPair(est, gt))
        assert res.rra == 0.0
        assert res.auc == 0.0  # min curve pinned to zero by rotation errors

    def test_global_rigid_invariance(self):
        rng = np.random.default_rng(9)
        gt = random_trajectory(rng, 7)
        est = compose(random_trajectory(rng, 7, 0.05, 0.1), gt)
        base = rel_pose_accuracy(TrajectoryPair(est, gt))
        moved = compose(random_pose(rng), est)
        out = rel_pose_accuracy(TrajectoryPair(moved, gt))
        assert (out.rra, out.rta, out.auc) == (base.rra, base.rta, base.auc)

    def test_zero_baseline_skipped_and_counted(self):
        rng = np.random.default_rng(10)
        gt = random_trajectory(rng, 3, 0.5)
        gt[1] = gt[0]
        est = compose(random_trajectory(rng, 3, 0.01, 0.01), gt)
        res = rel_pose_accuracy(TrajectoryPair(est, gt))
        assert res.n_skipped == 1
        assert res.n_pairs == 2

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            gt = random_trajectory(rng, 8)
            est = compose(random_trajectory(rng, 8, 0.2, 0.4), gt)
            res = rel_pose_accuracy(TrajectoryPair(est, gt))
            rra, rta, auc, skipped = oracles.naive_rel_pose_accuracy(
                [pose_matrix(p) for p in est], [pose_matrix(p) for p in gt]
            )
            assert res.rra == pytest.approx(rra, abs=1e-9)
            assert res.rta == pytest.approx(rta, abs=1e-9)
            assert res.auc == pytest.approx(auc, abs=1e-9)
            assert res.n_skipped == skipped


def trajectory_case(kind, n, seed):
    """(est, gt) of n frames; kind shapes them for one branch of the pose metrics.

    random: a perturbed random trajectory; repeats: some ground-truth frames
    repeat their predecessor's translation (zero baselines, skipped pairs);
    static: a rotating camera that never moves (every pair skipped);
    coincident: some estimated frames repeat their predecessor's
    translation (the 180 degree rule).
    """
    rng = np.random.default_rng(seed)
    gt = random_trajectory(rng, n, rot=rng.uniform(0.0, 1.0))
    est = compose(random_trajectory(rng, n, rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.5)), gt)
    if kind == "static":
        gt.translation[:] = gt.translation[0]
    elif kind in ("repeats", "coincident"):
        moved = gt if kind == "repeats" else est
        for k in np.flatnonzero(rng.random(n) < 0.4):
            moved.translation[k] = moved.translation[k - 1]
    return est, gt


class TestStackedPoseMetrics:
    """rpe and rel_pose_accuracy over whole stacks equal the per-pair loops field for field.

    Compared bit for bit, as the reported fields: single angles may differ by
    an ulp, since np.arccos and math.acos round differently.
    """

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(("random", "repeats", "static", "coincident")),
           n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    @example(kind="random", n=2, seed=0)
    @example(kind="static", n=2, seed=1)
    @example(kind="coincident", n=2, seed=2)
    def test_fields_equal_loop_oracle(self, kind, n, seed):
        pair = TrajectoryPair(*trajectory_case(kind, n, seed))
        got = rel_pose_accuracy(pair)
        assert astuple(got) == astuple(oracles.rel_pose_accuracy(pair))
        if kind == "static":
            assert astuple(got) == (0.0, 0.0, 0.0, 0, n * (n - 1) // 2)
        for step in range(1, n):
            assert astuple(rpe(pair, step)) == astuple(oracles.rpe(pair, step))

    def test_coincident_estimate_scores_180_degrees(self):
        gt = on_x_axis(4)
        est = Pose(gt.rotation, np.zeros((4, 3)))
        res = rel_pose_accuracy(TrajectoryPair(est, gt))
        assert (res.rra, res.rta, res.auc, res.n_pairs, res.n_skipped) == (100.0, 0.0, 0.0, 6, 0)


class TestTapvid3D:
    def test_perfect(self):
        rng = np.random.default_rng(12)
        tracks = rng.uniform(-1, 1, size=(4, 6, 3)) + np.array([0, 0, 2.0])
        vis = (rng.random((4, 6)) > 0.3).astype(float)
        res = tapvid3d_metrics(tracks, vis, tracks, vis)
        assert (res.aj, res.apd, res.oa) == (100.0, 100.0, 100.0)

    def test_all_beyond_largest_threshold(self):
        rng = np.random.default_rng(13)
        gt = rng.uniform(-1, 1, size=(3, 4, 3)) + np.array([0, 0, 2.0])
        vis = np.ones((3, 4))
        est = gt + 10.0
        res = tapvid3d_metrics(est, vis, gt, vis)
        assert res.apd == 0.0 and res.aj == 0.0 and res.oa == 100.0

    def test_small_brute_force(self):
        # 3 tracks x 4 frames, every cell hand-enumerable by the oracle
        rng = np.random.default_rng(14)
        gt = rng.uniform(-1, 1, size=(3, 4, 3)) + np.array([0, 0, 2.0])
        est = gt + 0.05 * rng.standard_normal((3, 4, 3))
        gv = (rng.random((3, 4)) > 0.25).astype(float)
        ev = np.clip(gv + 0.4 * rng.standard_normal((3, 4)), 0, 1)
        res = tapvid3d_metrics(est, ev, gt, gv)
        aj, apd, oa = oracles.naive_tapvid3d(est, ev, gt, gv, (0.01, 0.02, 0.04, 0.08, 0.16))
        assert res.aj == pytest.approx(aj, abs=1e-9)
        assert res.apd == pytest.approx(apd, abs=1e-9)
        assert res.oa == pytest.approx(oa, abs=1e-9)


class TestPointmapMetrics:
    def cloud(self, rng, n=40):
        pts = rng.uniform(-1, 1, size=(n, 2))
        z = 0.3 * np.sin(2 * pts[:, 0]) * np.cos(pts[:, 1])
        return np.column_stack([pts, z])

    def test_identical_clouds(self):
        rng = np.random.default_rng(15)
        cloud = self.cloud(rng)
        res = pointmap_metrics(cloud, cloud)
        assert res.acc_mean < 1e-12 and res.comp_mean < 1e-12
        assert res.nc_mean == pytest.approx(1.0, abs=1e-12)

    def test_scale_absorbed_by_alignment(self):
        rng = np.random.default_rng(16)
        cloud = self.cloud(rng)
        res = pointmap_metrics(3.0 * cloud, cloud)
        assert res.acc_mean < 1e-9 and res.comp_mean < 1e-9

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            gt = self.cloud(rng, n=30)
            pred = gt + 0.02 * rng.standard_normal(gt.shape)
            res = pointmap_metrics(pred, gt)
            naive = oracles.naive_pointmap(pred, gt)
            got = (res.acc_mean, res.acc_median, res.comp_mean, res.comp_median,
                   res.nc_mean, res.nc_median)
            for a, b in zip(got, naive):
                assert a == pytest.approx(b, abs=1e-9)

    def test_tiny_clouds_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            pointmap_metrics(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_normals_on_plane(self):
        rng = np.random.default_rng(20)
        pts = np.column_stack([rng.uniform(-1, 1, (50, 2)), np.zeros(50)])
        normals = _plane_normals(pts, cKDTree(pts), 16)
        assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)


# neighborhoods whose smallest eigenvalue is (near-)repeated and must take the eigh fallback
FALLBACK_KINDS = ("collinear", "coincident", "isotropic")


def neighborhood(kind, seed, m, scale, offset):
    """m points (6 for the octahedra) of one local shape, rotated, scaled and offset."""
    rng = np.random.default_rng(seed)
    uv = rng.uniform(-1.0, 1.0, (m, 2))
    if kind == "exact_plane":  # axis-aligned: the covariance has an exact zero row
        return np.column_stack([uv, np.zeros(m)]) * scale + np.round(offset)
    if kind == "coincident":  # integer coordinates: the mean and the covariance are exact
        return np.tile(np.round(rng.uniform(-1.0, 1.0, 3) * offset), (m, 1))
    if kind == "plane":
        local = np.column_stack([uv, np.zeros(m)])
    elif kind == "curved":
        local = np.column_stack([uv, rng.uniform(-2.0, 2.0) * (uv**2).sum(axis=1)])
    elif kind == "noisy":
        local = np.column_stack([uv, 10.0 ** rng.uniform(-6.0, -0.5) * rng.standard_normal(m)])
    elif kind == "collinear":
        local = np.column_stack([uv[:, 0], np.zeros((m, 2))])
    elif kind in ("isotropic", "near_isotropic"):  # jittered octahedron
        jitter = 1e-7 if kind == "isotropic" else 10.0 ** rng.uniform(-5.0, -0.5)
        local = np.vstack([np.eye(3), -np.eye(3)]) + jitter * rng.standard_normal((6, 3))
    else:
        raise ValueError(kind)
    return local @ so3_exp(rng.standard_normal(3)).T * scale + offset


class TestNormals:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(
            ("plane", "exact_plane", "curved", "noisy", "near_isotropic") + FALLBACK_KINDS),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 17),
        scale=st.floats(1e-3, 1e3),
        offset=st.floats(-1e3, 1e3),
    )
    def test_closed_form_matches_eigh_oracle(self, kind, seed, m, scale, offset):
        pts = neighborhood(kind, seed, m, scale, offset)
        # at most 17 points: every point's 16-neighborhood is the whole cloud
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            normals = _plane_normals(pts, cKDTree(pts), 16)
        ref = oracles.naive_normals(pts, 16)
        assert np.all(np.isfinite(normals))
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0, atol=1e-12)
        if kind in FALLBACK_KINDS:
            assert eigh.called
        centered = pts - pts.mean(axis=0)
        w = np.linalg.eigvalsh(centered.T @ centered)
        if w[1] - w[0] >= 1e-3 * w[2] > 0:  # well-conditioned smallest eigenvector
            assert np.all(np.abs(np.sum(normals * ref, axis=1)) >= 1.0 - 1e-9)

    def test_fallback_rows_equal_eigh(self):
        rng = np.random.default_rng(30)
        cov = np.stack([
            np.zeros((3, 3)),  # coincident
            np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),  # collinear
            2.0 * np.eye(3),  # isotropic
            np.diag([1.0, 1.0, 1.0 + 1e-9]),  # near-isotropic
        ])
        plane = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 3))
        cov = np.concatenate([cov, (plane.T @ plane)[None]])
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            got = metrics._smallest_eigenvectors(cov)
        (fallback,), _ = eigh.call_args
        assert fallback.shape == (4, 3, 3)
        assert np.array_equal(got[:4], np.linalg.eigh(cov[:4])[1][:, :, 0])
        assert abs(got[4] @ np.linalg.eigh(cov[4])[1][:, 0]) >= 1.0 - 1e-12


BLOCK = metrics._NORMAL_BLOCK


class TestBlockNormals:
    """Normal fits in blocks of query points equal one fit over every point."""

    def cloud(self, n, seed=40):
        rng = np.random.default_rng(seed)
        uv = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts = np.column_stack([uv, 0.3 * np.sin(2 * uv[:, 0]) * np.cos(uv[:, 1])])
        pts += 1e-3 * rng.standard_normal(pts.shape)
        pts[n // 2:n // 2 + 20] = pts[n // 2]  # coincident rows take the eigh fallback
        return pts

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_equals_one_batch(self, n):
        big = self.cloud(3 * BLOCK + 40)
        tree = cKDTree(big)
        at = np.random.default_rng(n).integers(0, len(big), size=n)
        got = metrics._plane_normals(big, tree, 16, at=at)
        assert got.shape == (n, 3)
        assert np.array_equal(got, oracles.plane_normals(big, tree, 16, at=at))
        if n < 3:  # too few points to fit a plane
            with pytest.raises(DegenerateConfiguration):
                metrics._plane_normals(big[:n], cKDTree(big[:n]), 16)
            return
        cloud = self.cloud(n)
        tree = cKDTree(cloud)
        assert np.array_equal(metrics._plane_normals(cloud, tree, 16),
                              oracles.plane_normals(cloud, tree, 16))

    def test_frame_peak_memory(self):
        # a 64x64 frame with ICP; its (n, k+1, 3) neighborhoods in one batch take ~5.7 MiB
        rng = np.random.default_rng(41)
        v, u = np.mgrid[0:64, 0:64] / 63.0
        gt = np.stack([u, v, 1.0 + 0.2 * np.sin(3 * u) * np.cos(2 * v)], axis=-1).reshape(-1, 3)
        pred = 1.1 * gt + 0.01 * rng.standard_normal(gt.shape)
        pointmap_metrics(pred, gt, use_icp=True)
        tracemalloc.start()
        try:
            pointmap_metrics(pred, gt, use_icp=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20


class CountingTree(cKDTree):
    """cKDTree that logs every build and every query (query points, k)."""

    built = []

    def __init__(self, data, *args, **kwargs):
        super().__init__(data, *args, **kwargs)
        self.queries = []
        CountingTree.built.append(self)

    def query(self, x, k=1, **kwargs):
        self.queries.append((len(x), k))
        return super().query(x, k=k, **kwargs)


class TestPointmapSharedTrees:
    def clouds(self, seed, angle, shift, n=300, shuffle=False, noise=0.01):
        rng = np.random.default_rng(seed)
        uv = rng.uniform(-1, 1, size=(n, 2))
        gt = np.column_stack([uv, 0.3 * np.sin(2 * uv[:, 0]) * np.cos(uv[:, 1])])
        offset = exp_map(np.array([0.0, 0.1, angle, shift, 0.0, 0.05]))
        pred = 1.3 * offset.apply(gt) + noise * rng.standard_normal(gt.shape)
        if shuffle:
            rng.shuffle(pred)
        return pred, gt

    @pytest.mark.parametrize("use_icp", [True, False])
    @pytest.mark.parametrize("case", ["paired", "shuffled", "icp_max_iter"])
    def test_matches_five_tree_reference(self, use_icp, case):
        if case == "icp_max_iter":  # noisy enough that ICP runs out of iterations
            pred, gt = self.clouds(0, 0.5, 0.4, noise=0.4)
            assert _icp(pred, cKDTree(gt), umeyama(pred, gt))[1] is None
        else:
            pred, gt = self.clouds(1, 0.05, 0.02, shuffle=case == "shuffled")
        got = pointmap_metrics(pred, gt, use_icp=use_icp)
        ref = oracles.pointmap_metrics(pred, gt, use_icp=use_icp)
        assert (got.acc_mean, got.acc_median, got.comp_mean, got.comp_median) == (
            ref.acc_mean, ref.acc_median, ref.comp_mean, ref.comp_median)
        assert got.nc_mean == pytest.approx(ref.nc_mean, rel=0, abs=1e-12)
        assert got.nc_median == pytest.approx(ref.nc_median, rel=0, abs=1e-12)

    @pytest.mark.parametrize("noise,converges", [(0.01, True), (0.4, False)])
    def test_one_tree_per_cloud(self, monkeypatch, noise, converges):
        pred, gt = self.clouds(0, 0.05, 0.02, noise=noise)
        icp_tree = CountingTree(gt)
        sim, matches = _icp(pred, icp_tree, umeyama(pred, gt))
        assert (matches is not None) == converges
        n = len(pred)
        matched = np.unique(cKDTree(gt).query(sim.apply(pred))[1]).size
        expected_gt = icp_tree.queries + ([] if converges else [(n, 1)]) + [(matched, 17)]
        CountingTree.built = []
        monkeypatch.setattr(metrics, "_kdtree", CountingTree)
        pointmap_metrics(pred, gt, use_icp=True)
        gt_tree, pred_tree = CountingTree.built
        assert gt_tree.queries == expected_gt  # re-queried only after max_iter
        assert pred_tree.queries == [(len(gt), 1), (n, 17)]


class TestDepthMetrics:
    def test_perfect(self):
        rng = np.random.default_rng(21)
        gt = rng.uniform(1.0, 5.0, size=(4, 6))
        res = depth_metrics([gt], [gt])
        assert res.abs_rel == 0.0 and res.delta_125 == 1.0

    def test_scale_alignment_recovers_half_depth(self):
        rng = np.random.default_rng(22)
        gt = rng.uniform(1.0, 5.0, size=(4, 6))
        res = depth_metrics([0.5 * gt], [gt], mode="scale")
        assert res.abs_rel < 1e-12 and res.delta_125 == 1.0

    def test_shift_needs_scale_and_shift_mode(self):
        rng = np.random.default_rng(23)
        gt = rng.uniform(1.0, 5.0, size=(5, 5))
        pred = gt + 0.75
        res = depth_metrics([pred], [gt], mode="scale_and_shift")
        assert res.abs_rel < 1e-9 and res.delta_125 == 1.0
        res_scale = depth_metrics([pred], [gt], mode="scale")
        naive = oracles.naive_depth([pred], [gt], mode="scale", per="sequence")
        assert res_scale.abs_rel == pytest.approx(naive[0], abs=1e-9)
        assert res_scale.abs_rel > 1e-3

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(24)
        preds = [rng.uniform(0.5, 4.0, size=(5, 5)) for _ in range(3)]
        gts = [p * rng.uniform(0.8, 1.2, size=(5, 5)) + 0.1 for p in preds]
        for mode in ("scale", "scale_and_shift"):
            for per in ("sequence", "image"):
                res = depth_metrics(preds, gts, mode=mode, per=per)
                nr, nd = oracles.naive_depth(preds, gts, mode=mode, per=per)
                assert res.abs_rel == pytest.approx(nr, abs=1e-9)
                assert res.delta_125 == pytest.approx(nd, abs=1e-9)

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyValidMask):
            depth_metrics([np.ones((2, 2))], [np.zeros((2, 2))])

    def test_nonpositive_gt_excluded(self):
        gt = np.array([[1.0, -1.0], [2.0, 0.0]])
        pred = np.array([[1.0, 50.0], [2.0, 50.0]])
        res = depth_metrics([pred], [gt])
        assert res.abs_rel == 0.0


class TestMetricReport:
    def test_rejects_non_finite(self):
        report = MetricReport()
        with pytest.raises(ValueError):
            report.add("bad", float("nan"))

    def test_json_and_csv_stable(self):
        report = MetricReport(metadata={"mode": "test"})
        report.add("ate", 0.125)
        report.add("rra_30", 100.0)
        assert report.to_json() == report.to_json()
        assert "ate,0.125" in report.to_csv()


class TestConventionInvariants:
    def test_percent_ranges(self):
        rng = np.random.default_rng(25)
        gt = random_trajectory(rng, 6)
        est = oracles.stack([compose(random_pose(rng, 0.3, 0.5), p) for p in gt])
        res = rel_pose_accuracy(TrajectoryPair(est, gt))
        assert 0.0 <= res.rta <= 100.0
        assert 0.0 <= res.rra <= 100.0
        assert 0.0 <= res.auc <= 100.0

    def test_tracking_percent_ranges(self):
        rng = np.random.default_rng(26)
        gt = rng.uniform(-1, 1, size=(5, 5, 3)) + np.array([0, 0, 2.0])
        est = gt + 0.1 * rng.standard_normal(gt.shape)
        vis = np.ones((5, 5))
        res = tapvid3d_metrics(est, vis, gt, vis)
        for v in (res.aj, res.apd, res.oa):
            assert 0.0 <= v <= 100.0

import json
from itertools import islice

import numpy as np
import pytest

from oracles import pose_matrix
from trajcouple import tracks
from trajcouple.errors import ConfigInvalid
from trajcouple.grad import Tape
from trajcouple.losses import LossConfig
from trajcouple.pointmap import BilinearSampler
from trajcouple.pose import compose, inverse, log_map
from trajcouple.synthetic import (
    SceneConfig,
    _frame_names,
    build_problem,
    generate,
    initial_store,
    load_scene,
    perturb,
    save_scene,
)
from trajcouple.tracks import write_tracks


def small_config(**kw):
    base = dict(seed=0, n_static=16, n_dynamic=4, n_frames=5, height=12, width=12,
                motion_speed=0.3)
    base.update(kw)
    return SceneConfig(**base)


class TestConfigValidation:
    def test_zero_frames_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            SceneConfig(n_frames=0).validate()
        assert err.value.field == "n_frames"

    def test_no_tracks_rejected(self):
        with pytest.raises(ConfigInvalid):
            SceneConfig(n_static=0, n_dynamic=0).validate()

    def test_bad_path_rejected(self):
        with pytest.raises(ConfigInvalid):
            SceneConfig(camera_path="spiral").validate()

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigInvalid):
            SceneConfig(sigma_track=-0.1).validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigInvalid):
            SceneConfig.from_dict({"n_frames": 3, "wat": 1})


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = generate(small_config(sigma_pointmap=0.01, sigma_pose=0.03))
        b = generate(small_config(sigma_pointmap=0.01, sigma_pose=0.03))
        assert np.array_equal(a.gt_grids, b.gt_grids)
        assert np.array_equal(a.gt_tracks, b.gt_tracks)
        assert np.array_equal(a.est_grids, b.est_grids)
        for pa, pb in zip(a.est_rel_poses, b.est_rel_poses):
            assert np.array_equal(pa.rotation, pb.rotation)
            assert np.array_equal(pa.translation, pb.translation)

    def test_different_seeds_differ(self):
        a = generate(small_config(seed=0))
        b = generate(small_config(seed=1))
        assert not np.array_equal(a.query_pixels, b.query_pixels)


class TestGroundTruthConsistency:
    def test_noiseless_scene_is_global_optimum(self):
        scene = generate(small_config())
        problem = build_problem(scene)
        store = initial_store(scene)
        tape = Tape(store)
        bd = problem.evaluate(store, tape)
        assert bd.total == 0.0
        assert tape.max_abs() == 0.0

    def test_anchor_term_fp_zero_at_ground_truth(self):
        scene = generate(small_config(n_dynamic=0))
        problem = build_problem(scene, LossConfig(use_cam=False, use_anchor=True))
        store = initial_store(scene)
        problem.refresh_static_mask(store)
        bd = problem.evaluate(store)
        assert bd.terms["cons"].value == 0.0
        assert bd.terms["anchor"].value < 1e-24

    def test_camera_tracks_match_camera_frame_positions(self):
        scene = generate(small_config())
        for t, cam in enumerate(scene.cam_poses):
            expected = inverse(cam).apply(scene.world_tracks[:, t, :])
            assert np.allclose(scene.gt_tracks[:, t, :], expected, atol=1e-12)

    def test_static_world_tracks_exactly_constant(self):
        scene = generate(small_config())
        n_static = scene.config.n_static
        static_part = scene.world_tracks[:n_static]
        assert np.array_equal(static_part, np.repeat(static_part[:, :1], scene.n_frames, axis=1))

    def test_dynamic_tracks_actually_move(self):
        scene = generate(small_config())
        dyn = scene.world_tracks[scene.config.n_static:]
        moves = np.linalg.norm(dyn - dyn[:, :1], axis=2).max(axis=1)
        assert np.all(moves > scene.config.tau_scale)

    def test_pseudo_tracks_recover_camera_positions(self):
        scene = generate(small_config())
        n, t = scene.visibility.shape
        ii = np.repeat(np.arange(n), t)
        tt = np.tile(np.arange(t), n)
        vals = BilinearSampler(
            scene.gt_grids.shape, tt,
            scene.query_pixels[ii, tt, 0], scene.query_pixels[ii, tt, 1],
        ).gather(scene.gt_grids)
        err = np.linalg.norm(vals.reshape(n, t, 3) - scene.gt_tracks, axis=2)
        assert err.max() < 1e-3

    def test_targets_match_anchor_transform_oracle(self):
        scene = generate(small_config())
        anchor_cam = scene.cam_poses[scene.config.anchor]
        expected = inverse(anchor_cam).apply(
            scene.world_tracks.reshape(-1, 3)
        ).reshape(scene.world_tracks.shape)
        assert np.allclose(scene.targets, expected, atol=1e-12)

    def test_anchor_rel_pose_is_identity(self):
        scene = generate(small_config(anchor=2))
        rel = scene.rel_poses[2]
        assert np.array_equal(rel.rotation, np.eye(3))
        assert np.array_equal(rel.translation, np.zeros(3))

    def test_depths_positive(self):
        for path in ("orbit", "line", "random-walk"):
            scene = generate(small_config(camera_path=path))
            assert scene.gt_grids[..., 2].min() > 0

    def test_static_mask_file_semantics(self):
        scene = generate(small_config(n_dynamic=0))
        assert scene.static_mask.all()
        scene = generate(small_config())
        assert not scene.static_mask[scene.config.n_static:].all()

    def test_unit_diagonal_normalization(self):
        # tau_scale is the static threshold in scene units because the
        # frame-0 world lattice has a unit bounding-box diagonal
        scene = generate(small_config())
        lattice = scene.cam_poses[0].apply(scene.gt_grids[0].reshape(-1, 3))
        diagonal = np.linalg.norm(lattice.max(axis=0) - lattice.min(axis=0))
        assert diagonal == pytest.approx(1.0, abs=1e-12)


class TestOcclusion:
    def test_occlusion_window_applied(self):
        scene = generate(small_config(occlusion_span=2, n_frames=6))
        vis = scene.visibility
        assert np.all(vis[:, 0] == 1.0)  # first frame never occluded
        for i in range(vis.shape[0]):
            invisible = np.nonzero(vis[i] == 0.0)[0]
            assert invisible.size == 2
            assert invisible[1] - invisible[0] == 1  # contiguous

    def test_occluded_samples_do_not_contribute(self):
        cfg_a = small_config(occlusion_span=2, n_frames=6, sigma_track=0.05)
        scene = generate(cfg_a)
        problem = build_problem(scene)
        store = initial_store(scene)
        # corrupt the occluded samples arbitrarily: loss must not change
        bd1 = problem.evaluate(store).total
        tracks = store.view("tracks")
        tracks[scene.visibility == 0.0] += 1e6
        bd2 = problem.evaluate(store).total
        assert bd1 == bd2


class TestPerturb:
    def test_zero_sigma_identity(self):
        scene = generate(small_config())
        grids, tracks, poses = perturb(scene, 0.0, 0.0, 0.0, seed=9)
        assert np.array_equal(grids, scene.gt_grids)
        assert np.array_equal(tracks, scene.gt_tracks)
        for a, b in zip(poses, scene.rel_poses):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)

    def test_anchor_pose_unperturbed(self):
        scene = generate(small_config())
        _, _, poses = perturb(scene, 0.0, 0.0, 0.5, seed=3)
        anchor = scene.config.anchor
        est, gt = map(pose_matrix, (poses[anchor], scene.rel_poses[anchor]))
        assert np.array_equal(est, gt)
        est, gt = map(pose_matrix, (poses[anchor + 1], scene.rel_poses[anchor + 1]))
        assert not np.allclose(est, gt)

    def test_rotation_error_statistics(self):
        # each omega component is N(0, sigma^2): E||omega|| = sigma*2*sqrt(2/pi)
        scene = generate(small_config(n_frames=6))
        sigma = 0.1
        angles = []
        for seed in range(100):
            _, _, poses = perturb(scene, 0.0, 0.0, sigma, seed=seed)
            for t, (est, gt) in enumerate(zip(poses, scene.rel_poses)):
                if t == scene.config.anchor:
                    continue
                tangent = log_map(compose(est, inverse(gt)))
                angles.append(np.linalg.norm(tangent[:3]))
        expected = sigma * 2.0 * np.sqrt(2.0 / np.pi)
        assert np.mean(angles) == pytest.approx(expected, rel=0.1)

    def test_noise_independent_across_seeds(self):
        scene = generate(small_config())
        g1, _, _ = perturb(scene, 0.05, 0.0, 0.0, seed=1)
        g2, _, _ = perturb(scene, 0.05, 0.0, 0.0, seed=2)
        n1 = (g1 - scene.gt_grids).ravel()
        n2 = (g2 - scene.gt_grids).ravel()
        corr = float(np.corrcoef(n1, n2)[0, 1])
        assert abs(corr) < 0.1


class TestSceneIo:
    def test_save_load_roundtrip(self, tmp_path):
        scene = generate(small_config(sigma_pointmap=0.01, sigma_pose=0.02,
                                      occlusion_span=1, n_frames=6))
        save_scene(scene, tmp_path / "s")
        back = load_scene(tmp_path / "s")
        assert np.array_equal(back.gt_grids, scene.gt_grids)
        assert np.array_equal(back.gt_tracks, scene.gt_tracks)
        assert np.array_equal(back.visibility, scene.visibility)
        assert np.array_equal(back.query_pixels, scene.query_pixels)
        assert np.array_equal(back.static_mask, scene.static_mask)
        assert np.array_equal(back.targets, scene.targets)
        assert np.array_equal(back.est_grids, scene.est_grids)
        assert np.array_equal(back.est_tracks, scene.est_tracks)
        for a, b in zip(back.est_rel_poses, scene.est_rel_poses):
            assert np.array_equal(pose_matrix(a), pose_matrix(b))

    def test_save_load_save_same_bytes(self, tmp_path):
        scene = generate(small_config(sigma_pointmap=0.01, sigma_pose=0.02,
                                      occlusion_span=2, n_frames=6))
        save_scene(scene, tmp_path / "a")
        save_scene(load_scene(tmp_path / "a"), tmp_path / "b")
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                       if p.is_file())
        assert len(files) == 20  # config, 2 x 6 pointmaps, 3 track, 3 pose, 1 mask file
        for rel in files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_old_scene_directory_loads(self, tmp_path):
        # earlier versions also wrote gt/world_tracks.txt, gt/targets.txt and a
        # 'derived' object (tau_static, diagonal); all of them are ignored
        scene = generate(small_config(sigma_pose=0.02))
        save_scene(scene, tmp_path / "s")
        n, t = scene.visibility.shape
        write_tracks(tmp_path / "s" / "gt" / "world_tracks.txt", scene.world_tracks,
                     np.ones((n, t)), np.full((n, t, 2), np.nan))
        tracks._write_rows(tmp_path / "s" / "gt" / "targets.txt", scene.targets + 1.0)
        path = tmp_path / "s" / "scene_config.json"
        doc = json.loads(path.read_text())
        doc["derived"] = {"tau_static": 0.5, "diagonal": 1.0}
        path.write_text(json.dumps(doc))
        back = load_scene(tmp_path / "s")
        assert back.world_tracks is None and not hasattr(back, "diagonal")
        assert np.array_equal(back.targets, scene.targets)
        assert np.array_equal(back.gt_tracks, scene.gt_tracks)
        v1 = build_problem(scene).evaluate(initial_store(scene)).total
        assert build_problem(back).evaluate(initial_store(back)).total == v1

    @pytest.mark.parametrize("t", [1, 7, 100, 101, 999, 1000, 1001, 1010, 1100, 12345])
    def test_frame_names_in_sorted_order(self, t):
        assert list(_frame_names(t)) == sorted(f"frame_{k:03d}.pm" for k in range(t))

    def test_frame_names_of_a_huge_scene_are_lazy(self):
        names = _frame_names(2**62)
        assert list(islice(names, 100, 103)) == ["frame_100.pm", "frame_1000.pm", "frame_10000.pm"]

    def test_loaded_scene_reproduces_loss(self, tmp_path):
        scene = generate(small_config(sigma_pointmap=0.02, sigma_pose=0.03))
        save_scene(scene, tmp_path / "s")
        back = load_scene(tmp_path / "s")
        v1 = build_problem(scene).evaluate(initial_store(scene)).total
        v2 = build_problem(back).evaluate(initial_store(back)).total
        assert v1 == v2


class TestBuildProblem:
    def test_supervision_follows_camera_term(self):
        scene = generate(small_config())
        scene.pseudo_visibility = 0.5 * scene.visibility  # tell the two apart
        supervised = build_problem(scene, LossConfig(use_anchor=True))
        assert supervised.targets is scene.targets
        assert supervised.static_mask is scene.static_mask
        assert supervised.visibility is scene.visibility
        for toggles in ({"use_anchor": True}, {"use_anchor": False}):
            selfsup = build_problem(scene, LossConfig(use_cam=False, **toggles))
            assert selfsup.targets is None
            assert selfsup.static_mask.all() and selfsup.static_mask.shape == scene.visibility.shape
            assert selfsup.visibility is scene.pseudo_visibility

    def test_gate_static_off_uses_all_samples(self):
        scene = generate(small_config(sigma_pose=0.05))
        cfg = LossConfig(gate_static=False)
        problem = build_problem(scene, cfg)
        store = initial_store(scene)
        tape_all = Tape(store)
        problem.evaluate(store, tape_all)
        gated = build_problem(scene, LossConfig())
        tape_gated = Tape(store)
        gated.evaluate(store, tape_gated)
        # ungated admits strictly more pose gradient mass on a 20%-dynamic scene
        assert np.abs(tape_all.grad("poses")).sum() > np.abs(tape_gated.grad("poses")).sum()

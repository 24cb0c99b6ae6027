import dataclasses
import json
import tempfile
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles
from oracles import pose_matrix
from test_pose import assert_poses_equal
from trajcouple import synthetic, tracks
from trajcouple.errors import ConfigInvalid
from trajcouple.grad import Tape
from trajcouple.losses import LossConfig
from trajcouple.optimize import OptimConfig, ablation_config, optimize
from trajcouple.pointmap import BilinearSampler
from trajcouple.pose import REORTHO_PERIOD, Pose, compose, inverse, log_map
from trajcouple.synthetic import (
    CAMERA_PATHS,
    MOTIONS,
    SceneConfig,
    SyntheticScene,
    _frame_names,
    _world,
    anchor_targets,
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


def sample_tracks(scene, grids):
    """(N, T, 3) bilinear samples of the (T, H, W, 3) grids at the scene's query pixels."""
    n, t = scene.visibility.shape
    ii, tt = np.repeat(np.arange(n), t), np.tile(np.arange(t), n)
    return BilinearSampler(
        grids.shape, tt, scene.query_pixels[ii, tt, 0], scene.query_pixels[ii, tt, 1],
    ).gather(grids).reshape(n, t, 3)


def world_tracks(scene):
    """The generator's world tracks: the scene's pixels sampled from its world lattice."""
    return sample_tracks(scene, _world(scene.config)[0])


@st.composite
def small_scene_configs(draw):
    """Small scenes on every camera path and motion, each sigma 0 or the benchmark's noise."""
    n_frames = draw(st.integers(2, 6))
    return SceneConfig(
        n_frames=n_frames, n_static=8, n_dynamic=draw(st.sampled_from([0, 4])),
        height=draw(st.integers(6, 12)), width=draw(st.integers(6, 12)),
        camera_path=draw(st.sampled_from(CAMERA_PATHS)), motion=draw(st.sampled_from(MOTIONS)),
        occlusion_span=draw(st.sampled_from([0, 1])), anchor=draw(st.integers(0, n_frames - 1)),
        sigma_pointmap=draw(st.sampled_from([0.0, 0.01])),
        sigma_track=draw(st.sampled_from([0.0, 0.01])),
        sigma_pose=draw(st.sampled_from([0.0, 0.05])), seed=draw(st.integers(0, 1000)))


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

    @pytest.mark.parametrize("config, name", [
        (SceneConfig, "tau_scale"), (SceneConfig, "sigma_pose"), (SceneConfig, "sigma_pointmap"),
        (SceneConfig, "sigma_track"), (SceneConfig, "camera_magnitude"),
        (SceneConfig, "motion_speed"), (LossConfig, "delta"), (OptimConfig, "step_grids"),
        (OptimConfig, "step_tracks"), (OptimConfig, "step_poses"), (OptimConfig, "tol"),
    ])
    def test_nan_rejected(self, config, name):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigInvalid) as err:
                config(**{name: value}).validate()
            assert err.value.field == name

    @pytest.mark.parametrize("doc, name", [
        ({"n_frames": 2.5}, "n_frames"), ({"camera_path": 3}, "camera_path"),
        ({"seed": True}, "seed"), ({"camera_magnitude": "0.6"}, "camera_magnitude"),
        ({"motion_speed": 10**400}, "motion_speed"),  # an int no float holds
    ])
    def test_built_in_code_checked_like_a_file(self, doc, name):
        for build in (SceneConfig.from_dict, lambda d: SceneConfig(**d).validate()):
            with pytest.raises(ConfigInvalid) as err:
                build(doc)
            assert err.value.field == name

    def test_generate_rejects_infinite_camera_magnitude(self):
        with pytest.raises(ConfigInvalid) as err:
            generate(SceneConfig(camera_magnitude=float("inf")))
        assert err.value.field == "camera_magnitude"

    @pytest.mark.parametrize("tol", [-1, -1e-300])
    def test_negative_tol_rejected(self, tol):
        with pytest.raises(ConfigInvalid) as err:
            OptimConfig.from_dict({"tol": tol})
        assert err.value.field == "tol"
        assert OptimConfig.from_dict({"tol": 0}).tol == 0

    def test_nested_document_checked(self):
        with pytest.raises(ConfigInvalid) as err:
            OptimConfig(loss=LossConfig(delta=float("inf"))).validate()
        assert err.value.field == "delta"
        with pytest.raises(ConfigInvalid) as err:
            OptimConfig.from_dict({"loss": 3})
        assert err.value.field == "loss"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigInvalid):
            SceneConfig.from_dict({"n_frames": 3, "wat": 1})


class TestLookAt:
    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(4)
        target = rng.standard_normal(3)
        eyes = target + rng.standard_normal((64, 3)) * 10.0 ** rng.integers(-3, 3, (64, 1))
        eyes[:8, :2] = target[:2] + rng.uniform(-1e-4, 1e-4, (8, 2))  # looking along z
        expected = np.stack([oracles.lookat(e, target) for e in eyes])
        assert synthetic._lookat(eyes, target).tobytes() == expected.tobytes()


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

    def test_random_walk_is_the_oracle_chain(self):
        # the walk is re-projected onto SO(3) at steps 64 and 128 only, and the
        # relative poses are the bare products of its poses
        config = small_config(camera_path="random-walk", n_frames=130)
        scene = generate(config)
        rng = np.random.default_rng(config.seed)
        step = config.camera_magnitude / config.n_frames
        walk = [scene.cam_poses[0]]
        for k in range(1, config.n_frames):
            p = oracles.compose(walk[-1], oracles.exp_map(step * rng.standard_normal(6)))
            if k % REORTHO_PERIOD == 0:
                p = Pose(oracles.project_rotation(p.rotation), p.translation)
            walk.append(p)
        assert_poses_equal(scene.cam_poses, walk)
        rel = [oracles.compose(oracles.inverse(walk[config.anchor]), p) for p in walk]
        rel[config.anchor] = Pose()
        assert_poses_equal(scene.rel_poses, rel)

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
            expected = inverse(cam).apply(world_tracks(scene)[:, t, :])
            assert np.allclose(scene.gt_tracks[:, t, :], expected, atol=1e-12)

    def test_static_world_tracks_exactly_constant(self):
        scene = generate(small_config())
        n_static = scene.config.n_static
        static_part = world_tracks(scene)[:n_static]
        assert np.array_equal(static_part, np.repeat(static_part[:, :1], scene.n_frames, axis=1))

    def test_dynamic_tracks_actually_move(self):
        scene = generate(small_config())
        dyn = world_tracks(scene)[scene.config.n_static:]
        moves = np.linalg.norm(dyn - dyn[:, :1], axis=2).max(axis=1)
        assert np.all(moves > scene.config.tau_scale)

    def test_static_tracks_static_at_any_positive_tau(self):
        # motionless tracks sit at distance 0 from their median
        scene = generate(SceneConfig(n_frames=32, n_static=64, n_dynamic=8, height=32, width=32,
                                     tau_scale=1e-300, seed=1))
        assert scene.static_mask[:64].all()

    def test_median_iteration_gets_only_moving_tracks(self, monkeypatch):
        # the large benchmark shape: its static tracks skip the Weiszfeld loop
        config = SceneConfig(n_frames=32, n_static=1024, n_dynamic=128, height=64, width=64)
        pts = world_tracks(generate(config))
        rows = []
        norm = np.linalg.norm

        def spy(x, *args, **kw):
            rows.append(x.shape[0])
            return norm(x, *args, **kw)

        monkeypatch.setattr(np.linalg, "norm", spy)
        tracks._geometric_medians(pts, np.ones(pts.shape[:2], dtype=bool))
        assert rows[0] == config.n_dynamic

    def test_pseudo_tracks_recover_camera_positions(self):
        scene = generate(small_config())
        err = np.linalg.norm(sample_tracks(scene, scene.gt_grids) - scene.gt_tracks, axis=2)
        assert err.max() < 1e-3

    def test_targets_match_anchor_transform_oracle(self):
        scene = generate(small_config())
        anchor_cam = scene.cam_poses[scene.config.anchor]
        world = world_tracks(scene)
        expected = inverse(anchor_cam).apply(world.reshape(-1, 3)).reshape(world.shape)
        assert np.allclose(build_problem(scene).targets, expected, atol=1e-12)

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
        assert np.array_equal(build_problem(back).targets, build_problem(scene).targets)
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

    @settings(max_examples=40, deadline=None)
    @given(small_scene_configs())
    def test_loaded_scene_equals_generated(self, config):
        try:
            scene = generate(config)
        except ConfigInvalid:
            reject()  # the grid has no cell for a dynamic track
        with tempfile.TemporaryDirectory() as root:
            save_scene(scene, root)
            back = load_scene(root)
        for field in dataclasses.fields(SyntheticScene):
            a, b = getattr(scene, field.name), getattr(back, field.name)
            assert type(a) is type(b), field.name
            if isinstance(a, np.ndarray):
                a, b = [a], [b]
            elif isinstance(a, Pose):
                a, b = [a.rotation, a.translation], [b.rotation, b.translation]
            else:
                assert a == b, field.name
                continue
            for x, y in zip(a, b):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name

    def test_old_scene_directory_loads(self, tmp_path):
        # earlier versions also wrote gt/world_tracks.txt, gt/targets.txt and a
        # 'derived' object (tau_static, diagonal); all of them are ignored
        scene = generate(small_config(sigma_pose=0.02))
        save_scene(scene, tmp_path / "s")
        n, t = scene.visibility.shape
        write_tracks(tmp_path / "s" / "gt" / "world_tracks.txt", scene.gt_tracks,
                     np.ones((n, t)), np.full((n, t, 2), np.nan))
        tracks.write_rows(tmp_path / "s" / "gt" / "targets.txt", scene.gt_tracks + 1.0)
        path = tmp_path / "s" / "scene_config.json"
        doc = json.loads(path.read_text())
        doc["derived"] = {"tau_static": 0.5, "diagonal": 1.0}
        path.write_text(json.dumps(doc))
        back = load_scene(tmp_path / "s")
        assert not any(hasattr(back, name) for name in ("world_tracks", "targets", "diagonal"))
        assert np.array_equal(build_problem(back).targets, build_problem(scene).targets)
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

    @pytest.mark.parametrize("ablation", ["cons_cam", "full"])
    def test_loaded_scene_refines_like_generated(self, tmp_path, ablation):
        # 130 epochs fold the pose tangents past REORTHO_PERIOD twice
        scene = generate(small_config(sigma_pointmap=0.02, sigma_pose=0.03))
        save_scene(scene, tmp_path / "s")
        cfg = ablation_config(ablation, OptimConfig(max_epochs=130, tol=0.0))
        reports = [json.dumps(optimize(initial_store(s), s, cfg).to_dict())
                   for s in (scene, load_scene(tmp_path / "s"))]
        assert reports[0] == reports[1]


class TestBuildProblem:
    def test_supervision_follows_camera_term(self):
        scene = generate(small_config())
        scene.pseudo_visibility = 0.5 * scene.visibility  # tell the two apart
        supervised = build_problem(scene, LossConfig(use_anchor=True))
        assert np.array_equal(supervised.targets, anchor_targets(scene.gt_tracks, scene.rel_poses))
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

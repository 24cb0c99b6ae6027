import warnings

import numpy as np
import pytest

import oracles
from trajcouple.errors import ConfigInvalid, Diverged
from trajcouple.grad import GRIDS, POSES, TRACKS
from trajcouple.losses import CouplingProblem, LossConfig
from trajcouple.optimize import (
    ABLATIONS,
    OptimConfig,
    ablation_config,
    optimize,
    pose_tangent_rms,
)
from trajcouple.pose import exp_map
from trajcouple.synthetic import SceneConfig, build_problem, generate, initial_store


def quick_optim(**kw):
    base = dict(step_poses=0.01, step_tracks=0.02, step_grids=0.01, max_epochs=150)
    base.update(kw)
    return OptimConfig(**base)


def noisy_scene(seed=0, **kw):
    base = dict(seed=seed, n_static=32, n_dynamic=0, n_frames=5, height=12, width=12,
                sigma_pointmap=0.01, sigma_pose=0.05)
    base.update(kw)
    return generate(SceneConfig(**base))


class TestStationaryStart:
    def test_ground_truth_terminates_epoch_one(self):
        scene = generate(SceneConfig(seed=1, n_static=16, n_frames=4, height=10, width=10))
        store = initial_store(scene)
        before = store.copy()
        report = optimize(store, scene, quick_optim())
        assert report.termination == "stationary"
        assert report.n_epochs == 1
        for block in (GRIDS, TRACKS, POSES):
            assert np.array_equal(store[block], before[block])
        assert report.final_metrics["loss"] == 0.0

    def test_ablation_none_changes_nothing(self):
        scene = noisy_scene()
        store = initial_store(scene)
        before = store.copy()
        report = optimize(store, scene, ablation_config("none", quick_optim()))
        assert report.n_epochs == 1
        assert report.termination == "stationary"
        for block in (GRIDS, TRACKS, POSES):
            assert np.array_equal(store[block], before[block])
        assert (
            report.final_metrics["pose_tangent_rms"]
            == report.initial_metrics["pose_tangent_rms"]
        )


class TestSceneUntouched:
    def test_refining_initial_store_leaves_scene_and_repeats(self):
        scene = noisy_scene(seed=3)
        before = [a.copy() for a in (scene.est_grids, scene.est_tracks,
                                     scene.est_rel_poses.rotation, scene.est_rel_poses.translation)]
        first = optimize(initial_store(scene), scene, quick_optim(max_epochs=20))
        assert sum(e.accepted for e in first.epochs) > 0
        after = (scene.est_grids, scene.est_tracks,
                 scene.est_rel_poses.rotation, scene.est_rel_poses.translation)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        second = optimize(initial_store(scene), scene, quick_optim(max_epochs=20))
        assert second.to_dict() == first.to_dict()


class TestPoseRecovery:
    def test_pose_only_perturbation_recovers(self):
        scene = noisy_scene(seed=2, sigma_pointmap=0.0, sigma_pose=0.05)
        store = initial_store(scene)
        # poses must out-pace the coupled drift of tracks/grids to win the gauge
        cfg = quick_optim(step_poses=0.05, step_tracks=0.005, step_grids=0.005,
                          max_epochs=400)
        report = optimize(store, scene, ablation_config("cons_cam", cfg))
        init = report.initial_metrics["pose_tangent_rms"]
        final = report.final_metrics["pose_tangent_rms"]
        assert final < 0.1 * init

    def test_cam_disabled_leaves_poses_untouched(self):
        scene = noisy_scene(seed=3, sigma_pointmap=0.02, sigma_pose=0.05)
        store = initial_store(scene)
        report = optimize(store, scene, ablation_config("cons", quick_optim()))
        assert (
            report.final_metrics["pose_tangent_rms"]
            == report.initial_metrics["pose_tangent_rms"]
        )
        # but the coupled blocks did move
        assert report.final_metrics["loss"] < report.initial_metrics["loss"]


class TestLossSequence:
    def test_monotone_non_increasing(self):
        scene = noisy_scene(seed=4, sigma_track=0.02)
        store = initial_store(scene)
        report = optimize(store, scene, ablation_config("cons_cam", quick_optim()))
        totals = [e.total for e in report.epochs]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        assert report.n_epochs == len(report.epochs)

    def test_epoch_breakdown_recorded(self):
        scene = noisy_scene(seed=5)
        store = initial_store(scene)
        report = optimize(store, scene, ablation_config("cons_cam", quick_optim(max_epochs=20)))
        for rec in report.epochs[:-1]:
            assert rec.accepted
            assert rec.total == pytest.approx(rec.cons + rec.cam + rec.selfsup)


class TestDivergenceContract:
    def test_diverged_raised_on_hopeless_step(self):
        scene = noisy_scene(seed=6)
        store = initial_store(scene)
        cfg = quick_optim(step_poses=1e8, step_tracks=1e8, step_grids=1e8,
                          max_backtracks=0, max_epochs=5)
        with pytest.raises(Diverged):
            optimize(store, scene, cfg)

    def test_non_finite_initial_loss_diverges(self):
        scene = noisy_scene(seed=6)
        store = initial_store(scene)
        store[TRACKS][7] = np.nan
        with pytest.raises(Diverged, match="not finite"):
            optimize(store, scene, quick_optim(max_epochs=3))

    def test_non_finite_candidate_loss_diverges(self):
        # steps overflow the parameters to +-inf, so every candidate loss is nan
        scene = noisy_scene(seed=6)
        store = initial_store(scene)
        cfg = quick_optim(step_poses=1e308, step_tracks=1e308, step_grids=1e308,
                          max_backtracks=0, max_epochs=3)
        with np.errstate(all="ignore"), pytest.raises(Diverged, match="nan"):
            optimize(store, scene, cfg)

    def test_stalls_gracefully_when_step_cannot_decrease(self):
        scene = noisy_scene(seed=7)
        store = initial_store(scene)
        # steps 20x too long but non-divergent: backtracking exhausts, loss < 10x initial
        cfg = quick_optim(step_poses=0.2, step_tracks=0.2, step_grids=0.2,
                          max_backtracks=1, max_epochs=3)
        report = optimize(store, scene, cfg)
        assert report.termination == "stalled"
        assert [e.accepted for e in report.epochs] == [False]


class TestMiniAblationOrdering:
    def test_full_coupling_beats_cam_only_beats_none(self):
        for seed in range(3):
            scene = noisy_scene(seed=seed, n_static=48, n_frames=6, height=16, width=16)
            finals = {}
            for name in ("none", "cam", "cons_cam"):
                store = initial_store(scene)
                rep = optimize(store, scene, ablation_config(name, quick_optim(max_epochs=300)))
                finals[name] = rep.final_metrics["pose_tangent_rms"]
                init = rep.initial_metrics["pose_tangent_rms"]
            assert finals["cons_cam"] <= finals["cam"] <= finals["none"]
            assert finals["none"] == init


class TestFullAblation:
    def test_all_three_terms_reduce_pose_error(self):
        scene = noisy_scene(seed=9, n_frames=6)
        store = initial_store(scene)
        report = optimize(store, scene, ablation_config("full", quick_optim(max_epochs=200)))
        assert (
            report.final_metrics["pose_tangent_rms"]
            < 0.5 * report.initial_metrics["pose_tangent_rms"]
        )
        last = report.epochs[0]
        assert last.cons > 0 and last.cam > 0 and last.selfsup > 0


class TestSelfSupMode:
    def test_selfsup_reduces_pose_error_without_targets(self, monkeypatch):
        oracles.forbid_anchor_targets(monkeypatch)
        scene = noisy_scene(seed=8, sigma_pointmap=0.0, sigma_pose=0.05, n_frames=6)
        store = initial_store(scene)
        report = optimize(store, scene, ablation_config("selfsup", quick_optim(max_epochs=200)))
        assert (
            report.final_metrics["pose_tangent_rms"]
            < 0.7 * report.initial_metrics["pose_tangent_rms"]
        )


class TestConfigHandling:
    def test_ablation_names_cover_registry(self):
        toggles = {"use_cons", "use_cam", "use_anchor", "gate_static"}
        for name in ABLATIONS:
            assert set(ABLATIONS[name]) == toggles  # each ablation sets every toggle
            cfg = ablation_config(name)
            cfg.validate()

    def test_unknown_ablation(self):
        with pytest.raises(ConfigInvalid):
            ablation_config("everything")

    @pytest.mark.parametrize("toggle", ["use_cons", "use_cam", "use_anchor", "gate_static"])
    def test_base_toggle_conflict_names_field(self, toggle):
        flipped = not getattr(LossConfig(), toggle)
        base = OptimConfig(loss=LossConfig(**{toggle: flipped}))
        with pytest.raises(ConfigInvalid) as err:
            ablation_config("cons_cam", base)
        assert err.value.field == toggle
        # a toggle left at its default value is not a conflict
        assert ablation_config("cons_cam", OptimConfig(loss=LossConfig(**{toggle: not flipped})))

    def test_roundtrip_via_dict(self):
        cfg = ablation_config("selfsup", quick_optim())
        back = OptimConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()

    def test_invalid_step_rejected(self):
        with pytest.raises(ConfigInvalid):
            OptimConfig(step_poses=0.0).validate()


class TestPoseTangentRms:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(0)
        poses = exp_map(rng.standard_normal((4, 6)))
        assert pose_tangent_rms(poses, poses) < 1e-12

    def test_known_offset(self):
        base = exp_map(np.zeros((3, 6)))
        moved = exp_map(np.tile([0.1, 0.0, 0.0, 0.0, 0.2, 0.0], (3, 1)))
        expected = np.sqrt(0.1**2 + 0.2**2)
        assert pose_tangent_rms(moved, base) == pytest.approx(expected, rel=1e-9)


class TestStaticMaskRefresh:
    def test_only_selfsup_refreshes(self, monkeypatch):
        # the mask is refreshed for a problem without targets whose anchor term is gated
        refreshed, original = set(), CouplingProblem.refresh_static_mask

        def counting(problem, store):
            refreshed.add(name)
            original(problem, store)

        monkeypatch.setattr(CouplingProblem, "refresh_static_mask", counting)
        scene = noisy_scene(seed=2)
        for name in ABLATIONS:
            optimize(initial_store(scene), scene, ablation_config(name, quick_optim(max_epochs=2)))
        assert refreshed == {"selfsup"}

    def test_refresh_threshold_is_scene_tau_scale(self):
        # the self-supervised gate reads the threshold the ground-truth mask reads
        reports = []
        for tau_scale in (0.02, 0.2):
            scene = noisy_scene(seed=6, n_dynamic=8, n_frames=6, tau_scale=tau_scale)
            assert build_problem(scene).tau_static == scene.config.tau_scale
            report = optimize(initial_store(scene), scene,
                              ablation_config("selfsup", quick_optim(max_epochs=40)))
            reports.append(report.to_dict())
        assert reports[0] != reports[1]

    @pytest.mark.parametrize("hidden", ["track", "frame"])
    def test_hidden_pseudo_track_or_frame_warns_nothing(self, hidden):
        scene = noisy_scene(seed=4, n_dynamic=4, n_frames=6)
        if hidden == "track":
            scene.pseudo_visibility[3] = 0.0
        else:
            scene.pseudo_visibility[:, 2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = optimize(initial_store(scene), scene,
                              ablation_config("selfsup", quick_optim(max_epochs=3)))
        assert report.n_epochs == 3

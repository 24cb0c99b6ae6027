import os
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import huber, huber_gradient
from test_pose import assert_poses_equal, tangent_stacks
from trajcouple import losses, parallel
from trajcouple.errors import MissingTargets, OutOfDomain
from trajcouple.fixtures import random_coupling_fixture
from trajcouple.grad import GRIDS, POSES, TRACKS, ParamStore, Tape
from trajcouple.losses import (
    CouplingProblem,
    LossBreakdown,
    LossConfig,
    TermStats,
    _compile,
    _Pass,
    _reprojection_mask,
    _stats,
    transform_samples,
)
from trajcouple.optimize import ABLATIONS
from trajcouple.pose import (
    REORTHO_PERIOD,
    Pose,
    compose,
    exp_map,
    inverse,
    log_map,
    so3_left_jacobian,
)
from trajcouple.synthetic import SceneConfig, build_problem, generate, initial_store


def single_sample_problem(delta=0.5, **config):
    """One track, one frame, 2x2 grid, query at the cell center, identity pose.

    Returns (problem, store, p_tilde, p_hat): p_tilde is the grid sampled at
    the query, p_hat the track point; the sample is static and its camera
    target sits off p_hat.  config holds further LossConfig fields.
    """
    grid = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 1.2]], [[0.0, 1.0, 0.8], [1.0, 1.0, 1.0]]])
    p_tilde = grid.reshape(4, 3).mean(axis=0)
    p_hat = p_tilde + np.array([0.03, -0.02, 0.05])
    store = ParamStore.zeros(1, 1, 2, 2)
    store.view(GRIDS)[:] = grid
    store.view(TRACKS)[:] = p_hat
    targets = (p_hat + np.array([-0.04, 0.01, 0.02])).reshape(1, 1, 3)
    problem = CouplingProblem(
        exp_map(np.zeros((1, 6))), np.full((1, 1, 2), 0.5), np.ones((1, 1)),
        np.ones((1, 1), dtype=bool), targets, LossConfig(delta=delta, **config), tau_static=0.02,
    )
    return problem, store, p_tilde, p_hat


def track_point(problem, store):
    """The single sample's track point, as a writable view of the store."""
    return store.view(TRACKS)[0, 0]


class TestHuber:
    def test_zero_residual(self):
        assert huber(np.zeros(3), 0.1) == 0.0
        assert np.array_equal(huber_gradient(np.zeros(3), 0.1), np.zeros(3))

    def test_branch_continuity_at_delta(self):
        delta = 0.3
        r = np.array([delta, 0.0, 0.0])
        inside = 0.5 * delta**2
        outside = delta * (delta - 0.5 * delta)
        assert huber(r, delta) == pytest.approx(inside, abs=1e-15)
        assert inside == pytest.approx(outside, abs=1e-15)
        # gradient continuous too: r vs delta*r/||r|| coincide at the kink
        assert np.allclose(huber_gradient(r, delta), r, atol=1e-15)

    def test_quadratic_and_linear_values(self):
        delta = 0.2
        small = np.array([0.03, 0.04, 0.0])  # norm 0.05
        assert huber(small, delta) == pytest.approx(0.5 * 0.05**2, abs=1e-15)
        big = np.array([3.0, 4.0, 0.0])  # norm 5
        assert huber(big, delta) == pytest.approx(delta * (5 - 0.5 * delta), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        delta = 0.3
        h = 1e-7
        for _ in range(30):
            r = rng.standard_normal(3)
            if abs(np.linalg.norm(r) - delta) < 1e-3:
                continue
            g = huber_gradient(r, delta)
            for k in range(3):
                dr = np.zeros(3)
                dr[k] = h
                num = (huber(r + dr, delta) - huber(r - dr, delta)) / (2 * h)
                assert num == pytest.approx(g[k], rel=1e-6, abs=1e-9)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            huber(np.ones(3), 0.0)

    def test_batch_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        delta = 0.3
        res = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-3, 1, size=(200, 1))
        res[:4] = [[0.0, 0.0, 0.0], [delta, 0.0, 0.0], [0.0, -delta, 0.0], [1e-200, 0.0, 0.0]]
        vals, grads, norms = oracles.pass_huber(res, delta)
        for k, r in enumerate(res):
            assert vals[k] == pytest.approx(huber(r, delta), rel=1e-14, abs=1e-300)
            assert np.allclose(grads[k], huber_gradient(r, delta), rtol=1e-14, atol=0)
            assert norms[k] == pytest.approx(np.linalg.norm(r), rel=1e-15)
        value_only, no_grad, _ = oracles.pass_huber(res, delta, grad=False)
        assert no_grad is None and np.array_equal(value_only, vals)


def special_residuals(rng, m=300):
    """(M, 3) rows over magnitudes 1e-150..1e150, with zero, -0.0, 1e+-150 and NaN rows."""
    res = rng.standard_normal((m, 3)) * 10.0 ** rng.uniform(-150, 150, size=(m, 1))
    res[:7] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 2.0, -0.0],
               [1e150, -1e150, 1e150], [-1e-150, 1e-150, 1e-150], [1e150, 1e-150, -0.0],
               [np.nan, 1.0, 0.0]]
    return res


class TestPassKernels:
    """The pass's kernels equal their library formulations (tests/oracles.py) bit for bit."""

    @pytest.mark.parametrize("grad", [True, False])
    def test_norms_match_linalg_norm(self, grad):
        res = special_residuals(np.random.default_rng(30))
        _, _, norms = oracles.pass_huber(res, 0.3, grad)
        assert np.array_equal(norms, oracles.residual_norms(res), equal_nan=True)
        assert norms[1] == 0.0 and not np.signbit(norms[1]) and np.isnan(norms[6])

    def test_cross_matches_np_cross(self):
        rng = np.random.default_rng(31)
        a, b = special_residuals(rng), special_residuals(rng)
        b[7:14] = -0.0
        for x, y in ((a, b), (b, a), (a, a[::-1])):
            got, ref = oracles.pass_cross(x, y), oracles.cross(x, y)
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("m", [1, 3, 8, 9, 200, 5000])
    def test_term_figures_match_mean_and_max(self, m):
        # sizes below, at and above numpy's pairwise-summation blocks
        rng = np.random.default_rng(32 + m)
        for norms in (np.abs(rng.standard_normal(m)) * 10.0 ** rng.uniform(-150, 150, m),
                      rng.uniform(0.0, 1.0, m),
                      oracles.residual_norms(special_residuals(rng, max(m, 7))[-m:])):
            stats = _stats("cons", 1.0, norms, 0)
            assert np.array_equal([stats.residual_mean, stats.residual_max],
                                  oracles.residual_figures(norms), equal_nan=True)


class TestLossCons:
    def make_problem(self):
        return single_sample_problem(use_cam=False)

    def test_consistent_state_zero(self):
        problem, store, p_tilde, _ = self.make_problem()
        track_point(problem, store)[:] = p_tilde
        tape = Tape(store)
        stats = problem.evaluate(store, tape).terms["cons"]
        assert stats.value == 0.0
        assert tape.max_abs() == 0.0

    def test_fully_occluded_zero(self):
        problem, store, _, _ = self.make_problem()
        problem.visibility[:] = 0.0
        stats = problem.evaluate(store).terms["cons"]
        assert stats.value == 0.0
        assert stats.n_samples == 0
        assert stats.n_skipped == 1

    def test_hand_derivation_single_sample(self):
        problem, store, p_tilde, p_hat = self.make_problem()
        tape = Tape(store)
        stats = problem.evaluate(store, tape).terms["cons"]

        r = p_hat - p_tilde
        assert stats.value == pytest.approx(2 * 0.5 * float(r @ r), abs=1e-15)
        # track side: d/dp_hat of 0.5||p_hat - sg||^2 = r
        assert np.allclose(tape.grad(TRACKS), r, atol=1e-15)
        # pointmap side: each corner gets -w_corner * r = -0.25 r
        expected = np.tile(-0.25 * r, 4)
        assert np.allclose(tape.grad(GRIDS), expected, atol=1e-15)
        assert tape.max_abs() > 0
        assert np.array_equal(tape.grad(POSES), np.zeros(6))

    def test_out_of_domain_propagates(self):
        problem, store, _, _ = self.make_problem()
        problem.query_pixels[0, 0] = (5.0, 0.5)
        with pytest.raises(OutOfDomain):
            problem.evaluate(store)

    def test_low_weight_samples_skipped(self):
        problem, store, _, _ = self.make_problem()
        problem.visibility[0, 0] = 1e-4  # below the 1e-3 cutoff
        stats = problem.evaluate(store).terms["cons"]
        assert stats.value == 0.0 and stats.n_skipped == 1


class TestLossCam:
    def make_problem(self, **config):
        return single_sample_problem(use_cons=False, **config)

    def test_perfect_state_zero(self):
        problem, store, _, p_hat = self.make_problem()
        problem.targets = p_hat.reshape(1, 1, 3).copy()
        tape = Tape(store)
        stats = problem.evaluate(store, tape).terms["cam"]
        assert stats.value == 0.0
        assert tape.max_abs() == 0.0

    def test_hand_derivation_identity_pose(self):
        problem, store, _, p_hat = self.make_problem()
        tape = Tape(store)
        stats = problem.evaluate(store, tape).terms["cam"]

        r = p_hat - problem.targets[0, 0]
        # static sample: pose half + track half, both quadratic
        assert stats.value == pytest.approx(2 * 0.5 * float(r @ r), abs=1e-15)
        # track side: R^T r with R = I
        assert np.allclose(tape.grad(TRACKS), r, atol=1e-15)
        # pose side at identity: d/d_upsilon = r, d/d_omega = p_hat x r
        assert np.allclose(tape.grad(POSES)[3:], r, atol=1e-15)
        assert np.allclose(tape.grad(POSES)[:3], np.cross(p_hat, r), atol=1e-15)
        assert np.array_equal(tape.grad(GRIDS), np.zeros(12))

    def test_all_dynamic_gates_pose_gradient_exactly(self):
        problem, store, _, p_hat = self.make_problem()
        problem.static_mask = np.zeros((1, 1), dtype=bool)
        tape = Tape(store)
        stats = problem.evaluate(store, tape).terms["cam"]
        assert np.array_equal(tape.grad(POSES), np.zeros(6))  # bitwise zero
        assert tape.grad(TRACKS).any()  # track side still live
        # only the (ungated) track half contributes value
        r = p_hat - problem.targets[0, 0]
        assert stats.value == pytest.approx(0.5 * float(r @ r), abs=1e-15)

    def test_missing_targets(self):
        problem, store, _, _ = self.make_problem()
        problem.targets = None
        with pytest.raises(MissingTargets):
            problem.evaluate(store)
        # pose-only half against anchor samples needs no targets
        problem.config.pose_target = "anchor_sample"
        assert problem.evaluate_term(store, "cam_pose") >= 0.0

    def test_anchor_sample_target_matches_manual(self):
        problem, store, p_tilde, p_hat = self.make_problem(pose_target="anchor_sample")
        r = p_hat - p_tilde
        assert problem.evaluate_term(store, "cam_pose") == pytest.approx(
            0.5 * float(r @ r), abs=1e-15
        )


class TestRoutingZeroTests:
    off_route = {
        "cons_pointmap": (TRACKS, POSES),
        "cons_track": (GRIDS, POSES),
        "cam_pose": (TRACKS, GRIDS),
        "cam_track": (GRIDS, POSES),
        "anchor": (TRACKS,),
    }

    def assert_off_route_zero(self, problem, store):
        for term in problem.active_terms():
            tape = Tape(store)
            problem.evaluate_term(store, term, tape)
            for block in self.off_route[term]:
                assert not tape.grad(block).any(), (term, block)
            live = sum(tape.grad(b).any() for b in (GRIDS, TRACKS, POSES))
            assert live >= 1

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("selfsup", [False, True])
    def test_off_route_blocks_bitwise_zero(self, seed, selfsup):
        problem, store = random_coupling_fixture(seed, selfsup=selfsup)
        self.assert_off_route_zero(problem, store)

    @pytest.mark.parametrize("pose_target", ["gt", "anchor_sample"])
    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    def test_generated_scenes_every_ablation(self, ablation, pose_target):
        # noisy scenes with dynamic tracks and occlusions, in the state the
        # optimizer sees: nonzero tangents and, when unsupervised, a refreshed mask
        loss = LossConfig(**ABLATIONS[ablation], pose_target=pose_target)
        for seed in range(2):
            scene = generate(SceneConfig(
                seed=seed, n_frames=5, n_static=20, n_dynamic=6, height=12, width=12,
                occlusion_span=2, sigma_pointmap=0.01, sigma_track=0.01, sigma_pose=0.05,
            ))
            assert not scene.pseudo_visibility.all() and not scene.static_mask.all()
            problem = build_problem(scene, loss)
            store = initial_store(scene)
            store[POSES][:] = 0.01 * np.random.default_rng(seed).standard_normal(store[POSES].size)
            if problem.targets is None:
                problem.refresh_static_mask(store)
            self.assert_off_route_zero(problem, store)


class TestSelfSupervised:
    def make_scene(self, seed=0, sigma_pose=0.04):
        scene = generate(
            SceneConfig(seed=seed, n_static=24, n_dynamic=0, n_frames=5,
                        height=10, width=10, sigma_pose=sigma_pose)
        )
        problem = build_problem(scene, LossConfig(use_cam=False, use_anchor=True))
        store = initial_store(scene)
        problem.refresh_static_mask(store)
        return scene, problem, store

    def test_self_consistent_state_near_zero(self):
        scene, problem, store = self.make_scene(sigma_pose=0.0)
        bd = problem.evaluate(store)
        assert bd.terms["cons"].value == 0.0  # shared sampling path: bitwise
        assert bd.terms["anchor"].value < 1e-24  # anchor chain: fp roundoff only

    def test_no_targets_consumed(self, monkeypatch):
        oracles.forbid_anchor_targets(monkeypatch)  # generating, building, evaluating
        scene, problem, store = self.make_scene()
        assert problem.targets is None
        tape = Tape(store)
        bd = problem.evaluate(store, tape)
        assert bd.total > 0.0
        assert tape.grad(POSES).any()

    def test_supervised_term_unreachable(self):
        scene, problem, store = self.make_scene()
        assert not problem.config.use_cam
        assert "cam_pose" not in problem.active_terms()

    def test_pose_gradient_points_toward_truth(self):
        scene, problem, store = self.make_scene(sigma_pose=0.05)
        tape = Tape(store)
        problem.evaluate(store, tape)
        g = tape.grad(POSES).reshape(-1, 6)
        assert np.abs(g).max() > 0
        correction = log_map(compose(scene.rel_poses, inverse(problem.base)))
        assert float(np.sum(-g * correction)) > 0.0

    def test_adaptive_mask_admits_majority_under_pose_noise(self):
        scene, problem, store = self.make_scene(sigma_pose=0.05)
        assert problem.static_mask.mean() > 0.5

    def test_mask_rejects_moving_tracks_near_convergence(self):
        scene = generate(
            SceneConfig(seed=3, n_static=20, n_dynamic=20, n_frames=6,
                        height=16, width=16, motion_speed=0.4)
        )
        problem = build_problem(scene, LossConfig(use_cam=False, use_anchor=True))
        store = initial_store(scene)
        problem.refresh_static_mask(store)  # ground-truth state
        mask = problem.static_mask
        dyn = ~scene.static_mask
        # dynamic samples are overwhelmingly rejected, static ones admitted
        assert mask[~dyn].mean() > 0.9
        assert mask[dyn].mean() < 0.1


class TestTotalLoss:
    def evaluate_with(self, problem, store, config):
        problem.config = config
        return problem.evaluate(store)

    def test_all_zero_components(self):
        problem, store, p_tilde, _ = single_sample_problem(use_cam=False)
        track_point(problem, store)[:] = p_tilde
        assert problem.evaluate(store).total == 0.0

    def test_toggles_select_components(self):
        problem, store = random_coupling_fixture(0)
        delta = problem.config.delta
        cons_only = self.evaluate_with(problem, store, LossConfig(use_cam=False, delta=delta))
        cam_only = self.evaluate_with(problem, store, LossConfig(use_cons=False, delta=delta))
        both = self.evaluate_with(problem, store, LossConfig(delta=delta))
        assert list(cons_only.terms) == ["cons"] and list(cam_only.terms) == ["cam"]
        assert cons_only.total == cons_only.terms["cons"].value
        assert cam_only.total == cam_only.terms["cam"].value
        assert both.total == pytest.approx(
            cons_only.terms["cons"].value + cam_only.terms["cam"].value, rel=1e-12
        )

    def test_quadratic_scale_behavior(self):
        # scaling geometry and delta by s multiplies small-residual losses by s^2
        s = 2.0
        problem, store = random_coupling_fixture(7)
        tracks, grids, tangents = (store.view(b) for b in (TRACKS, GRIDS, POSES))
        # shrink residuals into the quadratic zone
        x, y = problem.query_pixels[..., 0], problem.query_pixels[..., 1]
        from trajcouple.pointmap import BilinearSampler

        n, t = problem.visibility.shape
        ii = np.repeat(np.arange(n), t)
        tt = np.tile(np.arange(t), n)
        vals = BilinearSampler(grids.shape, tt, x[ii, tt], y[ii, tt]).gather(grids)
        tracks[:] = vals.reshape(n, t, 3) + 1e-3 * np.random.default_rng(0).standard_normal((n, t, 3))
        problem.config.delta = 0.5
        problem.targets[:] = tracks + 1e-3 * np.random.default_rng(1).standard_normal((n, t, 3))
        tangents[:] *= 1e-3

        base = problem.evaluate(store).total

        store[GRIDS][:] *= s
        store[TRACKS][:] *= s
        tangents[:, 3:] *= s
        problem.targets[:] *= s
        problem.base = Pose(problem.base.rotation, s * problem.base.translation)
        problem.config.delta *= s
        scaled = problem.evaluate(store).total
        assert scaled == pytest.approx(s * s * base, rel=1e-9)

    def test_breakdown_stats_present(self):
        problem, store = random_coupling_fixture(2)
        bd = problem.evaluate(store)
        assert list(bd.terms) == ["cons", "cam"]
        assert bd.total == pytest.approx(sum(stats.value for stats in bd.terms.values()))
        cons = bd.terms["cons"]
        assert cons.name == "cons" and cons.n_samples > 0
        assert cons.residual_max >= cons.residual_mean >= 0


class TestPoseChainJacobian:
    def test_left_jacobian_consistency(self):
        # exp(omega + d) ~= exp(J_l(omega) d) exp(omega)
        rng = np.random.default_rng(3)
        from trajcouple.pose import so3_exp

        for _ in range(20):
            omega = rng.standard_normal(3)
            d = 1e-6 * rng.standard_normal(3)
            left = so3_exp(omega + d)
            right = so3_exp(so3_left_jacobian(omega) @ d) @ so3_exp(omega)
            assert np.allclose(left, right, atol=1e-11)


class TestCompiledProblem:
    def test_static_mask_reassignment_changes_gated_terms(self):
        for selfsup, term in ((False, "cam_pose"), (True, "anchor")):
            problem, store = random_coupling_fixture(3, selfsup=selfsup)
            before = problem.evaluate_term(store, term)
            total = problem.evaluate(store).total
            problem.static_mask = np.zeros_like(problem.static_mask)
            assert problem.evaluate_term(store, term) == 0.0 != before
            assert problem.evaluate(store).total < total
            problem.static_mask = np.ones_like(problem.static_mask)
            assert problem.evaluate_term(store, term) > before

    def test_out_of_domain_pixel_raises_at_first_evaluation(self):
        problem, store = random_coupling_fixture(4)
        problem.query_pixels = problem.query_pixels.copy()
        problem.query_pixels[1, 2] = (store.view(GRIDS).shape[2] + 0.5, 1.0)
        problem.visibility[1, 2] = 1.0
        with pytest.raises(OutOfDomain):
            problem.evaluate(store)

    @pytest.mark.parametrize("selfsup", [False, True])
    def test_tapeless_pass_matches_taped_breakdown(self, selfsup):
        problem, store = random_coupling_fixture(5, selfsup=selfsup)
        taped = problem.evaluate(store, Tape(store))
        assert problem.evaluate(store) == taped

    @pytest.mark.parametrize("anchor", [-1, 4])
    def test_anchor_outside_frames_raises(self, anchor):
        problem, store = random_coupling_fixture(6, n_frames=4)
        problem.anchor = anchor
        with pytest.raises(ValueError, match="anchor frame"):
            problem.evaluate(store)
        with pytest.raises(ValueError, match="anchor frame"):
            problem.refresh_static_mask(store)


class TestShapeChecks:
    """A problem compiled for one store rejects a store, mask or targets of other shapes."""

    def test_grid_block_of_another_shape_raises(self):
        problem, store = random_coupling_fixture(7, n_frames=4, height=12, width=12)
        problem.evaluate(store)
        reshaped = ParamStore({GRIDS: store.view(GRIDS).reshape(4, 8, 18, 3),
                               TRACKS: store.view(TRACKS), POSES: store.view(POSES)})
        message = r"'grids' has shape \(4, 8, 18, 3\).*\(4, 12, 12, 3\)"
        for call in (problem.evaluate, problem.refresh_static_mask,
                     lambda s: problem.evaluate(s, Tape(s))):
            with pytest.raises(ValueError, match=message):
                call(reshaped)
        with pytest.raises(OutOfDomain):  # a fresh problem compiles for it, and rejects its pixels
            replace(problem).evaluate(reshaped)

    @pytest.mark.parametrize("block", [TRACKS, POSES])
    def test_track_or_pose_block_of_another_shape_raises(self, block):
        problem, store = random_coupling_fixture(8)
        blocks = dict(store.blocks)
        shape = blocks[block].shape
        blocks[block] = blocks[block].reshape(shape[::-1])  # same size, axes swapped
        with pytest.raises(ValueError, match=rf"'{block}' has shape {re.escape(str(shape[::-1]))}"):
            problem.evaluate(ParamStore(blocks))

    @pytest.mark.parametrize("selfsup", [False, True])
    def test_transposed_static_mask_raises(self, selfsup):
        problem, store = random_coupling_fixture(9, selfsup=selfsup)  # 5 tracks, 4 frames
        problem.static_mask = problem.static_mask.T
        with pytest.raises(ValueError, match=r"static_mask has shape \(4, 5\).*\(5, 4\)"):
            problem.evaluate(store)

    def test_targets_of_another_shape_raise(self):
        problem, store = random_coupling_fixture(10)
        problem.targets = problem.targets.reshape(4, 5, 3)
        with pytest.raises(ValueError, match=r"targets have shape \(4, 5, 3\).*\(5, 4, 3\)"):
            problem.evaluate(store)


def random_base_poses(rng, t):
    """(T,) random base poses."""
    return oracles.stack([exp_map(rng.standard_normal(6)) for _ in range(t)])


class TestBatchedPoseWork:
    """A pass's pose work, current_poses and the fold equal the per-frame oracles bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(tangent_stacks(), st.integers(0, 2**32 - 1))
    def test_matches_per_frame_oracle(self, tangents, seed):
        problem, store = random_coupling_fixture(0, n_frames=len(tangents))
        problem.base = base = random_base_poses(np.random.default_rng(seed), len(tangents))
        store.view(POSES)[:] = tangents
        ps = _Pass(problem, store, Tape(store))
        expected = oracles.current_stack(base, tangents)
        assert_poses_equal(ps.current, expected)
        assert np.array_equal(ps.left_jac, oracles.step_stacks(tangents)[1])
        assert_poses_equal(problem.current_poses(store), expected)
        assert problem.base is base

    def test_fold_reorthonormalizes_like_oracle(self):
        # 130 folds cross REORTHO_PERIOD twice; folding a zero block is no fold
        problem, store = random_coupling_fixture(7, n_frames=5)
        tangents = store.view(POSES)
        expected = problem.base
        rng = np.random.default_rng(8)
        projected = 0
        for fold in range(1, 131):
            tangents[:] = 0.1 * rng.standard_normal(tangents.shape)
            expected = oracles.current_stack(expected, tangents)
            assert_poses_equal(problem.current_poses(store), expected)
            if fold % REORTHO_PERIOD == 0:
                rotations = [oracles.project_rotation(r) for r in expected.rotation]
                projected += not np.array_equal(rotations, expected.rotation)
                expected = Pose(np.stack(rotations), expected.translation)
            problem.fold_pose_tangents(store)
            assert not np.any(tangents)
            problem.fold_pose_tangents(store)
            assert_poses_equal(problem.base, expected)
        assert projected == 2

    @pytest.mark.parametrize("selfsup", [False, True])
    def test_only_frame_stacks_two_per_pass(self, selfsup, monkeypatch):
        problem, store = random_coupling_fixture(9, n_frames=5, selfsup=selfsup)
        assert problem.base.shape == (5,)
        made = []
        init = Pose.__init__
        monkeypatch.setattr(Pose, "__init__", lambda p, *a, **k: made.append(p) or init(p, *a, **k))
        problem.evaluate(store, Tape(store))
        problem.evaluate(store)
        problem.refresh_static_mask(store)
        # exp(omega) and exp(omega) * base per pass, no per-frame poses
        assert [p.shape for p in made] == [(5,)] * 6
        problem.fold_pose_tangents(store)
        assert problem.base.shape == (5,) and all(p.shape == (5,) for p in made)


def with_signed_zeros(rng, arr, share):
    """Set about share of arr's entries to exact zeros, half of them -0.0."""
    hit = rng.random(arr.shape) < share
    arr[hit] = np.where(rng.random(np.count_nonzero(hit)) < 0.5, -0.0, 0.0)


@st.composite
def composed_stack_cases(draw):
    """A full-ablation (problem, store) with random bases and points, tangents left to the test.

    With zeros: exact +-0.0 in base rotations and translations (whole
    translations of some frames -0.0), in whole track points and in grid
    values, so that transformed points and their rotated parts hit zero.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    t = draw(st.integers(2, 8))
    problem, store = random_coupling_fixture(seed, n_tracks=draw(st.integers(1, 8)), n_frames=t)
    target = draw(st.sampled_from(["gt", "anchor_sample"]))
    problem.config = replace(problem.config, pose_target=target, **ABLATIONS["full"])
    problem.base = base = random_base_poses(rng, t)
    if draw(st.booleans()):
        with_signed_zeros(rng, base.rotation, 0.3)
        with_signed_zeros(rng, base.translation, 0.5)
        base.translation[rng.random(t) < 0.3] = -0.0
        tracks = store.view(TRACKS)
        tracks[rng.random(tracks.shape[:2]) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
        with_signed_zeros(rng, store.view(GRIDS), 0.3)
    return problem, store


def two_stage(ps, pts):
    """The oracle's (y, a) of pts at the pass's samples: through base, then exp(omega)."""
    exp_rot, _, upsilon = oracles.step_stacks(ps.tangents)
    return oracles.two_stage_transform(ps.problem.base, Pose(exp_rot, upsilon), ps.geo.tt, pts)


class UfuncSpy:
    """A numpy ufunc that records the array each of its at() calls writes."""

    def __init__(self, ufunc, targets):
        self.ufunc, self.targets = ufunc, targets

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def at(self, arr, *args):
        self.targets.append(arr)
        return self.ufunc.at(arr, *args)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestComposedStack:
    """One composed stack per pass and J_l per frame against the two-stage, per-sample oracle."""

    @settings(max_examples=150, deadline=None)
    @given(composed_stack_cases(), st.sampled_from([0.0, -0.0]))
    def test_zero_tangents_match_oracle_bit_for_bit(self, case, zero):
        # the optimizer's taped passes and mask refreshes all run here, after a fold
        problem, store = case
        store.view(POSES)[:] = zero
        bk = oracles.one_block(problem, store, Tape(store))
        for pts in (bk.tracked, bk.samples):
            y, a = two_stage(bk.ps, pts)
            got = transform_samples(bk.ps.current, bk.geo.tt, pts)
            assert np.array_equal(bits(got), bits(y))
            assert np.array_equal(bits(got - bk.ps.tangents[bk.geo.tt, 3:]), bits(a))
        tape = Tape(store)
        problem.evaluate(store, tape)
        assert np.array_equal(bits(tape.grad(POSES)), bits(oracles.pose_gradient(problem, store)))

    @settings(max_examples=150, deadline=None)
    @given(composed_stack_cases(), tangent_stacks(max_frames=8), st.sampled_from([1.0, 10.0]))
    def test_nonzero_tangents_agree_to_rounding(self, case, tangents, translation_scale):
        # Both orders compute R_f p + t_f through 3-term products of rows of
        # norm 1: the oracle rounds z = B p + t_b, exp(w) z and the sum with
        # upsilon; the pass rounds exp(w) B, exp(w) t_b + upsilon and R_f p + t_f.
        # Bounding each 3-term dot product by 3 eps times its absolute terms
        # bounds the difference by about 16 eps times |p| + |t_b| + |upsilon|
        # per component; 800 scratch cases (angles up to pi - 1e-3) reached 1.4.
        problem, store = case
        t = store.view(POSES).shape[0]
        tangents = np.resize(tangents, (t, 6))
        tangents[:, 3:] *= translation_scale
        store.view(POSES)[:] = tangents
        bk = oracles.one_block(problem, store, Tape(store))
        eps = np.finfo(np.float64).eps

        def scale(frames, pts):
            return (np.linalg.norm(pts, axis=1)
                    + np.linalg.norm(problem.base.translation, axis=1)[frames]
                    + np.linalg.norm(tangents[frames, 3:], axis=1))

        for pts in (bk.tracked, bk.samples):
            y, _ = two_stage(bk.ps, pts)
            got = transform_samples(bk.ps.current, bk.geo.tt, pts)
            assert np.all(np.abs(got - y) <= 16 * eps * scale(bk.geo.tt, pts)[:, None])
        # The pose block: |dy| above moves each a x g and, the Huber gradient
        # being 1-Lipschitz, each g; ||J_l|| <= 1, and summing a frame's
        # partials before J_l^T rounds within eps of their absolute sum.  The
        # bound per frame is 16 eps sum_m s_m (w_m + |g_m| + w_m |a_m|) + |a_m| |g_m|,
        # with s_m the scale above; the same cases reached 0.008 of it.
        bound = np.zeros(t)
        for term in ("cam_pose", "anchor"):
            if term == "cam_pose":
                _, pos, gvec, _ = bk.cam_pose
                pts, w = bk.tracked, bk.geo.w.take(pos)
            else:
                _, pos, candidates, _, gvec, _ = bk.anchor
                pts, w = bk.samples, bk.geo.a_w.take(candidates)
            if pos.size:
                frames, p = bk.geo.tt.take(pos), pts.take(pos, axis=0)
                s = scale(frames, p)
                a = np.linalg.norm(two_stage(bk.ps, pts)[1].take(pos, axis=0), axis=1)
                g = np.linalg.norm(gvec, axis=1)
                np.add.at(bound, frames, s * (w + g + w * a) + a * g)
        tape = Tape(store)
        problem.evaluate(store, tape)
        diff = np.abs(tape.grad(POSES) - oracles.pose_gradient(problem, store)).reshape(t, 6)
        assert np.all(diff <= 16 * eps * bound[:, None])


class TestPassSharing:
    """An evaluation forms each intermediate once, and only those it reads."""

    def test_camera_halves_share_one_huber_pass(self, monkeypatch):
        problem, store = random_coupling_fixture(11)
        assert problem.config.pose_target == "gt" and not problem.config.use_anchor
        sizes = []
        real = losses._huber_batch
        monkeypatch.setattr(losses, "_huber_batch",
                            lambda res, *args: sizes.append(len(res)) or real(res, *args))
        problem.evaluate(store, Tape(store))
        n_valid = problem.geometry(store).flat.size
        assert sizes == [n_valid, n_valid]  # cons, then cam; the pose half indexes cam's

    def test_per_sample_contractions(self, monkeypatch):
        # one rotation per sample: the moved track points and the anchor
        # reprojections, plus cam_track's R^T g on a taped pass; J_l and the
        # composition act on (T, 3, 3) stacks
        problem, store = random_coupling_fixture(13, n_tracks=8, n_frames=4)
        problem.config = replace(problem.config, **ABLATIONS["full"])
        t = store.view(POSES).shape[0]
        shapes = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum", lambda spec, *ops, **kw: shapes.append(
            [np.shape(op) for op in ops]) or real(spec, *ops, **kw))
        for tape in (Tape(store), None):
            shapes.clear()
            problem.evaluate(store, tape)
            per_sample = [s for s in shapes if len(s[0]) == 3 and s[0][0] != t]
            assert len(per_sample) == (3 if tape is not None else 2)
            assert all(s[0][1:] == (3, 3) and s[0][0] > t for s in per_sample)

    def test_block_writes(self, monkeypatch):
        # tracks by one 1-D np.add.at per track term at the samples' entries,
        # poses and grids by one Tape.add each; the per-frame pose sums take
        # 1-D np.add.at only
        problem, store = random_coupling_fixture(13, n_tracks=8, n_frames=4)
        problem.config = replace(problem.config, **ABLATIONS["full"])
        tape, targets, added = Tape(store), [], []
        monkeypatch.setattr(np, "add", UfuncSpy(np.add, targets))
        real_add = Tape.add
        monkeypatch.setattr(Tape, "add", lambda tp, block, values: added.append(block)
                            or real_add(tp, block, values))
        problem.evaluate(store, tape)
        assert [arr.ndim for arr in targets] == [1] * 6  # 2 per pose term, 1 per track term
        blocks = (GRIDS, TRACKS, POSES)
        written = [b for arr in targets for b in blocks if np.shares_memory(arr, tape.grad(b))]
        assert written == [TRACKS, TRACKS] and added == [POSES, GRIDS]

    def test_unreset_tape_sums_passes(self):
        # a pass adds its pose and grid blocks once each, so one tape over
        # two passes holds the sum of two fresh tapes there, bit for bit; the
        # track terms of the second pass add to the first's one after another
        problem, store = random_coupling_fixture(14)
        problem.config = replace(problem.config, **ABLATIONS["full"])
        other = store.copy()
        for name in (GRIDS, TRACKS, POSES):
            other[name][:] += np.random.default_rng(3).normal(0.0, 0.01, other[name].size)
        both, fresh = Tape(store), []
        for s in (store, other):
            problem.evaluate(s, both)
            fresh.append(Tape(s))
            problem.evaluate(s, fresh[-1])
        for block in (GRIDS, POSES):
            summed = fresh[0].grad(block) + fresh[1].grad(block)
            assert np.array_equal(bits(both.grad(block)), bits(summed)), block
        tracks = oracles.track_gradient(problem, other, oracles.TRACK_TERMS,
                                        fresh[0].grad(TRACKS).copy())
        assert np.array_equal(bits(both.grad(TRACKS)), bits(tracks))

    def test_jacobians_only_for_gradients(self, monkeypatch):
        problem, store = random_coupling_fixture(12, selfsup=True)
        calls = []
        monkeypatch.setattr(losses, "so3_left_jacobian",
                            lambda omega: calls.append(omega) or so3_left_jacobian(omega))
        problem.refresh_static_mask(store)
        problem.evaluate(store)
        assert calls == []
        problem.evaluate(store, Tape(store))
        assert len(calls) == 1


class TestGridGradientOrder:
    """The grid block of a pass equals the earlier per-term np.add.at scatter, bit for bit."""

    @pytest.mark.parametrize("pose_target", ["gt", "anchor_sample"])
    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    def test_pass_grid_block_matches_per_term_scatter(self, ablation, pose_target):
        for seed in range(3):
            problem, store = random_coupling_fixture(20 + seed)
            problem.config = replace(problem.config, pose_target=pose_target,
                                     **ABLATIONS[ablation])
            tape = Tape(store)
            problem.evaluate(store, tape)
            active = [t for t in oracles.GRID_TERMS if t in problem.active_terms()]
            ref = oracles.grid_gradient(problem, store, active)
            assert np.array_equal(tape.grad(GRIDS), ref)
            for term in oracles.GRID_TERMS:
                tape = Tape(store)
                problem.evaluate_term(store, term, tape)
                ref = oracles.grid_gradient(problem, store, [term])
                assert np.array_equal(tape.grad(GRIDS), ref)

    @pytest.mark.parametrize("state", ["gated", "slack", "zero_residuals"])
    def test_compiled_anchor_operator_matches_per_term_scatter(self, state):
        # gated-out candidates and anchor references repeated along each track
        # in every state; corner weights below zero within the domain slack;
        # exactly zero residuals, whose queued coefficients are -0.0
        for seed in range(3):
            problem, store = random_coupling_fixture(40 + seed)
            t = problem.visibility.shape[1]
            if state == "slack":
                h = store.view(GRIDS).shape[1]
                problem.query_pixels = problem.query_pixels.copy()
                problem.query_pixels[:, 1::2, 0] = -5e-10
                problem.query_pixels[:, 2::2, 1] = h - 1 + 5e-10
            elif state == "zero_residuals":
                # identity poses, equal frames and, on even tracks, one pixel
                # throughout and track points on their samples
                problem.base = exp_map(np.zeros((t, 6)))
                store.view(POSES)[:] = 0.0
                grids = store.view(GRIDS)
                grids[:] = grids[problem.anchor]
                problem.query_pixels = problem.query_pixels.copy()
                problem.query_pixels[::2] = problem.query_pixels[::2, problem.anchor, None]
            geo = problem.geometry(store)
            if state == "zero_residuals":
                even = geo.flat // t % 2 == 0
                samples = oracles.one_block(problem, store).samples
                store.view(TRACKS).reshape(-1, 3)[geo.flat[even]] = samples[even]
            for ablation in ("selfsup", "full"):
                problem.config = replace(problem.config, **ABLATIONS[ablation])
                bk = oracles.one_block(problem, store, Tape(store))
                _, pos, _, _, gvec, _ = bk.anchor
                assert not np.asarray(problem.static_mask).reshape(-1)[geo.a_flat].all()
                assert np.unique(geo.anchor_ref[pos]).size < pos.size
                if state == "slack":
                    assert geo.sampler.weights.min() < 0.0
                if state == "zero_residuals":
                    for coeff in (-gvec, -bk.cons[1]):
                        assert np.any((coeff == 0.0) & np.signbit(coeff))
                tape = Tape(store)
                problem.evaluate(store, tape)
                ref = oracles.grid_gradient(problem, store, oracles.GRID_TERMS)
                assert np.array_equal(tape.grad(GRIDS), ref)
                assert np.array_equal(np.signbit(tape.grad(GRIDS)), np.signbit(ref))
                tape = Tape(store)
                problem.evaluate_term(store, "anchor", tape)
                ref = oracles.grid_gradient(problem, store, ["anchor"])
                assert np.array_equal(tape.grad(GRIDS), ref)
                assert np.array_equal(np.signbit(tape.grad(GRIDS)), np.signbit(ref))


class TestTrackGradientOrder:
    """The tracks block of a pass equals the earlier per-term np.add.at, bit for bit."""

    @pytest.mark.parametrize("pose_target", ["gt", "anchor_sample"])
    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    def test_pass_track_block_matches_per_term_scatter(self, ablation, pose_target):
        for seed in range(3):
            problem, store = random_coupling_fixture(20 + seed)
            problem.config = replace(problem.config, pose_target=pose_target,
                                     **ABLATIONS[ablation])
            tape = Tape(store)
            problem.evaluate(store, tape)
            active = [t for t in oracles.TRACK_TERMS if t in problem.active_terms()]
            ref = oracles.track_gradient(problem, store, active)
            assert np.array_equal(bits(tape.grad(TRACKS)), bits(ref))
            for term in oracles.TRACK_TERMS:
                tape = Tape(store)
                problem.evaluate_term(store, term, tape)
                ref = oracles.track_gradient(problem, store, [term])
                assert np.array_equal(bits(tape.grad(TRACKS)), bits(ref))


@st.composite
def mask_cases(draw):
    """Geometry and state for the reprojection mask, with hidden tracks and frames."""
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, 40))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    visibility = (rng.uniform(size=(n, t)) < draw(st.floats(0.0, 1.0))).astype(np.float64)
    visibility[draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = 0.0
    visibility[:, draw(st.lists(st.integers(0, t - 1), max_size=t))] = 0.0
    grids = rng.standard_normal((t, h, w, 3))
    if draw(st.booleans()):
        grids = np.round(grids, 1)  # ties among the sorted values
    query = rng.uniform(0.0, 1.0, (n, t, 2)) * [w - 1, h - 1]
    tangents = 0.1 * rng.standard_normal((t, 6)) if draw(st.booleans()) else np.zeros((t, 6))
    # tau far above every deviation keeps tau; far below takes the quantile branch
    tau = draw(st.one_of(st.sampled_from([1e-9, 1e3]), st.floats(1e-6, 2.0)))
    geo = _compile((t, h, w, 3), query, visibility, draw(st.integers(0, t - 1)))
    return geo, (n, t), grids, random_base_poses(rng, t), tangents, tau


class TestReprojectionMask:
    @settings(max_examples=200, deadline=None)
    @given(mask_cases(), st.sampled_from([0.0, 0.25, 0.4, 1.0]))
    def test_matches_loop_oracle(self, case, quantile):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the oracle warns on all-hidden tracks
            expected = oracles.reprojection_mask(*case, scale_quantile=quantile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo, _, grids, base, tangents, tau = case
            got = _reprojection_mask(geo, grids, compose(exp_map(tangents), base), tau,
                                     scale_quantile=quantile)
        assert got.dtype == bool
        assert np.array_equal(got, expected)


def on_cpus(monkeypatch, n_cpus, min_block_samples):
    """Patch the affinity mask to n_cpus CPUs and the block threshold; returns started threads."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    monkeypatch.setattr(losses, "MIN_BLOCK_SAMPLES", min_block_samples)
    monkeypatch.setattr(parallel.threading, "Thread", Thread)
    return started


def block_fixture(seed, ablation, pose_target):
    problem, store = random_coupling_fixture(seed, n_tracks=12, n_frames=6)
    problem.config = replace(problem.config, pose_target=pose_target, **ABLATIONS[ablation])
    return problem, store


def pass_bits(problem, store):
    """Bits of a taped and a value-only evaluate, then of each sub-term alone."""
    out = []
    for tape in (Tape(store), None):
        out.append(repr(problem.evaluate(store, tape)))
        if tape is not None:
            out += [bits(tape.grad(b)).tobytes() for b in (GRIDS, TRACKS, POSES)]
    for term in losses.TERMS:
        tape = Tape(store)
        out.append(bits(problem.evaluate_term(store, term, tape)).tobytes())
        out += [bits(tape.grad(b)).tobytes() for b in (GRIDS, TRACKS, POSES)]
    return out


class TestTrackBlocks:
    """A pass in blocks of tracks on several threads equals the one-block pass bit for bit."""

    @pytest.mark.parametrize("pose_target", ["gt", "anchor_sample"])
    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    def test_any_block_count_matches_one_block(self, monkeypatch, ablation, pose_target):
        for seed in range(3):
            expected = None
            for n_blocks in (1, 2, 3, 5):
                with monkeypatch.context() as patch:
                    on_cpus(patch, n_blocks, 1)
                    problem, store = block_fixture(seed, ablation, pose_target)
                    got = pass_bits(problem, store)
                    assert len(problem.geometry(store).bounds) - 1 == n_blocks
                expected = expected or got
                assert got == expected, (seed, n_blocks)

    @pytest.mark.parametrize("ablation", ["full", "selfsup"])
    def test_more_blocks_than_cores_under_switching(self, monkeypatch, ablation):
        # eight threads on a short switch interval: a block that wrote another
        # block's rows, or a sum taken before every block had joined, shows
        # up as a difference from the one-block pass
        with monkeypatch.context() as patch:
            on_cpus(patch, 1, 1)
            expected = pass_bits(*block_fixture(6, ablation, "anchor_sample"))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                with monkeypatch.context() as patch:
                    started = on_cpus(patch, 8, 1)
                    problem, store = block_fixture(6, ablation, "anchor_sample")
                    assert pass_bits(problem, store) == expected
                    assert len(problem.geometry(store).bounds) - 1 == 8
                    assert started and not any(t.is_alive() for t in started)
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("case", ["mask_shape", "missing_targets"])
    def test_errors_match_one_block(self, monkeypatch, case):
        messages = []
        for n_blocks in (1, 3):
            with monkeypatch.context() as patch:
                on_cpus(patch, n_blocks, 1)
                problem, store = block_fixture(4, "full", "gt")
                if case == "mask_shape":
                    problem.static_mask = np.ones(problem.visibility.shape[::-1], dtype=bool)
                else:
                    problem.targets = None
                with pytest.raises((ValueError, MissingTargets)) as err:
                    problem.evaluate(store, Tape(store))
                messages.append((type(err.value), str(err.value)))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("n_cpus,min_block_samples,threads", [
        (1, 1, 0),  # one CPU: one block
        (4, losses.MIN_BLOCK_SAMPLES, 0),  # under the threshold: one block
        (3, 1, 2),  # three blocks, the calling thread runs one
    ])
    def test_threads_only_for_several_blocks(self, monkeypatch, n_cpus, min_block_samples,
                                             threads):
        started = on_cpus(monkeypatch, n_cpus, min_block_samples)
        problem, store = block_fixture(5, "full", "gt")
        problem.evaluate(store, Tape(store))
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_second_taped_pass_allocates_no_block_sized_arrays(self, monkeypatch, n_cpus):
        # after the first pass has compiled the geometry and its workspace, a
        # taped pass allocates less than the (M, 3) samples plus the grid
        # gradient (a pass without a workspace allocates each of them) plus a
        # tenth of (M, 3)
        scene = generate(SceneConfig(n_frames=16, n_static=960, n_dynamic=64, height=32,
                                     width=32, seed=3, sigma_pointmap=0.01, sigma_track=0.01,
                                     sigma_pose=0.05))
        on_cpus(monkeypatch, n_cpus, losses.MIN_BLOCK_SAMPLES)
        problem = build_problem(scene, LossConfig(**ABLATIONS["full"]))
        store = initial_store(scene)
        tape = Tape(store)
        problem.evaluate(store, tape)
        m = problem.geometry(store).tt.size
        assert m >= 2 * losses.MIN_BLOCK_SAMPLES
        assert len(problem.geometry(store).bounds) - 1 == n_cpus
        tracemalloc.start()
        try:
            problem.evaluate(store, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = m * 3 * 8
        assert peak <= samples + store[GRIDS].nbytes + samples / 10

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

import oracles
from oracles import pose_matrix
from trajcouple.cli import main as cli_main
from trajcouple.fixtures import gradcheck_sweep, random_coupling_fixture
from trajcouple.grad import GRIDS, POSES, TRACKS, Tape
from trajcouple.losses import TERMS, LossConfig
from trajcouple.metrics import (
    TrajectoryPair,
    ate,
    depth_metrics,
    pointmap_metrics,
    rel_pose_accuracy,
    rpe,
    tapvid3d_metrics,
)
from trajcouple.optimize import OptimConfig, ablation_config, optimize
from trajcouple.pose import compose, exp_map, rotation_angle, umeyama
from trajcouple.synthetic import SceneConfig, build_problem, generate, initial_store

# step profile tuned for the default desk-scale scenes (unit diagonal,
# ~64 tracks, 16x16 grids); poses must out-pace track/grid drift
ACCEPT_OPTIM = dict(step_poses=0.01, step_tracks=0.02, step_grids=0.01, max_epochs=300)


def report(num, ok, text):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num} failed: {text}"


def scene_cfg(seed, **kw):
    base = dict(seed=seed, n_static=64, n_dynamic=0, n_frames=6, height=16, width=16)
    base.update(kw)
    return SceneConfig(**base)


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    worst = {}
    for k in range(50):
        problem, store = random_coupling_fixture(k, selfsup=bool(k % 2))
        for row in gradcheck_sweep(problem, store, h=1e-5, tol=1e-4,
                                   n_indices=6, seed=k):
            key = (row["term"], row["block"])
            worst[key] = max(worst.get(key, 0.0), row["max_rel_err"])
    elapsed = time.monotonic() - t0
    covered = set(worst)
    expected = {(t, b) for t, term in TERMS.items() for b in term.writes}
    ok = covered == expected and all(v < 1e-4 for v in worst.values()) and elapsed < 60
    detail = ", ".join(f"{t}/{b}:{v:.1e}" for (t, b), v in sorted(worst.items()))
    report(1, ok, f"analytic vs central differences on 50 fixtures "
                  f"({detail}; {elapsed:.1f}s)")


def test_criterion_2_routing_zero_tests():
    off_route = {
        "cons_pointmap": (TRACKS, POSES),
        "cons_track": (GRIDS, POSES),
        "cam_pose": (TRACKS, GRIDS),
        "cam_track": (GRIDS, POSES),
        "anchor": (TRACKS,),
    }
    ok = True
    for k in range(20):
        problem, store = random_coupling_fixture(500 + k, selfsup=bool(k % 2))
        for term in problem.active_terms():
            tape = Tape(store)
            problem.evaluate_term(store, term, tape)
            for block in off_route[term]:
                grad = tape.grad(block)
                ok &= not grad.any()  # bitwise zero through every sg boundary
    report(2, ok, "stop-gradient boundaries leak no gradient (bitwise, 20 fixtures)")


def test_criterion_3_static_gating():
    ok = True
    for k in range(10):
        problem, store = random_coupling_fixture(900 + k, selfsup=False)
        problem.static_mask = np.zeros_like(problem.static_mask)
        tape = Tape(store)
        value = problem.evaluate_term(store, "cam_pose", tape)
        ok &= value == 0.0
        ok &= not tape.grad(POSES).any()
    report(3, ok, "all-dynamic mask silences the camera term's pose gradient exactly")


def test_criterion_4_noiseless_fixed_point():
    scene = generate(scene_cfg(11, n_dynamic=16, motion_speed=0.3))
    problem = build_problem(scene)
    store = initial_store(scene)
    tape = Tape(store)
    bd = problem.evaluate(store, tape)
    zero_state = bd.total == 0.0 and tape.max_abs() == 0.0

    rep = optimize(store, scene, OptimConfig(**ACCEPT_OPTIM))
    ok = zero_state and rep.n_epochs == 1 and rep.termination == "stationary"
    report(4, ok, f"unperturbed scene: loss {bd.total}, max |grad| {tape.max_abs()}, "
                  f"optimizer stops at epoch {rep.n_epochs}")


def test_criterion_5_ablation_ordering():
    t0 = time.monotonic()
    reductions, orderings = [], []
    for seed in range(10):
        scene = generate(scene_cfg(seed, sigma_pointmap=0.01, sigma_pose=0.05))
        finals = {}
        init = None
        for name in ("none", "cam", "cons_cam"):
            store = initial_store(scene)
            rep = optimize(store, scene, ablation_config(name, OptimConfig(**ACCEPT_OPTIM)))
            finals[name] = rep.final_metrics["pose_tangent_rms"]
            init = rep.initial_metrics["pose_tangent_rms"]
        orderings.append(finals["cons_cam"] <= finals["cam"] <= finals["none"] == init)
        reductions.append(1.0 - finals["cons_cam"] / init)
    elapsed = time.monotonic() - t0
    n_red = sum(r >= 0.5 for r in reductions)
    ok = all(orderings) and n_red >= 8 and elapsed < 300
    report(5, ok, f"full <= cam-only <= none on {sum(orderings)}/10 seeds; "
                  f">=50% pose-error reduction on {n_red}/10 "
                  f"(mean {100 * np.mean(reductions):.0f}%; {elapsed:.0f}s)")


def test_criterion_6_dynamic_robustness():
    wins = 0
    for seed in range(10):
        scene = generate(scene_cfg(seed, n_static=32, n_dynamic=32,
                                   sigma_pointmap=0.01, sigma_pose=0.05,
                                   motion_speed=0.35))
        finals = {}
        for name in ("cons_cam", "cons_cam_ungated"):
            cfg = ablation_config(name, OptimConfig(**ACCEPT_OPTIM))
            # the anchor-consistency pose target is where gating has teeth:
            # dynamic points violate its time-invariance assumption
            cfg.loss.pose_target = "anchor_sample"
            store = initial_store(scene)
            rep = optimize(store, scene, cfg)
            finals[name] = rep.final_metrics["pose_tangent_rms"]
        wins += finals["cons_cam"] <= finals["cons_cam_ungated"]
    ok = wins >= 8
    report(6, ok, f"static gating beats ungated on {wins}/10 half-dynamic scenes")


def test_criterion_7_selfsup_direction(monkeypatch):
    oracles.forbid_anchor_targets(monkeypatch)  # the self-supervised path must never need them
    wins = 0
    reductions = []
    for seed in range(10):
        scene = generate(scene_cfg(seed, sigma_pose=0.05))
        store = initial_store(scene)
        rep = optimize(store, scene, ablation_config("selfsup", OptimConfig(**ACCEPT_OPTIM)))
        red = 1.0 - rep.final_metrics["pose_tangent_rms"] / rep.initial_metrics["pose_tangent_rms"]
        reductions.append(red)
        wins += red >= 0.3
    ok = wins >= 8
    report(7, ok, f"self-supervised objective cuts pose error >=30% on {wins}/10 "
                  f"seeds without 3D targets (mean {100 * np.mean(reductions):.0f}%)")


def test_criterion_8_metric_oracle_equivalence():
    rng = np.random.default_rng(0)
    tol = 1e-9
    failures = []

    def close(a, b):
        return abs(a - b) <= tol

    def rand_poses(n, rot=0.3, trans=0.8):
        return exp_map(rng.standard_normal((n, 6)) * np.repeat([rot, trans], 3))

    for _ in range(5):
        gt = rand_poses(9)
        est = compose(rand_poses(9, 0.05, 0.1), gt)
        pair = TrajectoryPair(est, gt)
        mats = ([pose_matrix(p) for p in est], [pose_matrix(p) for p in gt])

        if not close(ate(pair), oracles.naive_ate(*mats)):
            failures.append("ate")
        ours = rpe(pair, step=2)
        nt, nr = oracles.naive_rpe(*mats, 2)
        if not (close(ours.trans, nt) and close(ours.rot_deg, nr)):
            failures.append("rpe")
        acc = rel_pose_accuracy(pair)
        rra, rta, auc, _ = oracles.naive_rel_pose_accuracy(*mats)
        if not (close(acc.rra, rra) and close(acc.rta, rta) and close(acc.auc, auc)):
            failures.append("relpose")

        tracks_gt = rng.uniform(-1, 1, (4, 5, 3)) + np.array([0, 0, 2.0])
        tracks_est = tracks_gt + 0.05 * rng.standard_normal((4, 5, 3))
        gv = (rng.random((4, 5)) > 0.2).astype(float)
        ev = np.clip(gv + 0.3 * rng.standard_normal((4, 5)), 0, 1)
        res = tapvid3d_metrics(tracks_est, ev, tracks_gt, gv)
        aj, apd, oa = oracles.naive_tapvid3d(
            tracks_est, ev, tracks_gt, gv, (0.01, 0.02, 0.04, 0.08, 0.16)
        )
        if not (close(res.aj, aj) and close(res.apd, apd) and close(res.oa, oa)):
            failures.append("tapvid3d")

        cloud_gt = np.column_stack(
            [rng.uniform(-1, 1, (30, 2)), rng.uniform(0, 0.3, 30)]
        )
        cloud_pred = cloud_gt + 0.02 * rng.standard_normal((30, 3))
        res = pointmap_metrics(cloud_pred, cloud_gt)
        naive = oracles.naive_pointmap(cloud_pred, cloud_gt)
        got = (res.acc_mean, res.acc_median, res.comp_mean, res.comp_median,
               res.nc_mean, res.nc_median)
        if not all(close(a, b) for a, b in zip(got, naive)):
            failures.append("pointmap")

        preds = [rng.uniform(0.5, 4.0, (6, 7)) for _ in range(2)]
        gts = [p * rng.uniform(0.9, 1.1, (6, 7)) + 0.05 for p in preds]
        for mode in ("scale", "scale_and_shift"):
            res = depth_metrics(preds, gts, mode=mode)
            nr_, nd_ = oracles.naive_depth(preds, gts, mode=mode)
            if not (close(res.abs_rel, nr_) and close(res.delta_125, nd_)):
                failures.append(f"depth_{mode}")

    # perfect-input fixtures hit the exact optima
    traj = rand_poses(5)
    perfect_pair = TrajectoryPair(traj, traj)
    acc = rel_pose_accuracy(perfect_pair)
    exact = (
        ate(perfect_pair) < 1e-12
        and rpe(perfect_pair).trans < 1e-12
        and (acc.rra, acc.rta, acc.auc) == (100.0, 100.0, 100.0)
    )
    cloud = np.column_stack([rng.uniform(-1, 1, (20, 2)), rng.uniform(0, 0.2, 20)])
    pm = pointmap_metrics(cloud, cloud)
    exact &= pm.acc_mean < 1e-12 and pm.comp_mean < 1e-12 and pm.nc_mean == 1.0
    g = rng.uniform(1, 3, (4, 4))
    d = depth_metrics([g], [g])
    exact &= d.abs_rel == 0.0 and d.delta_125 == 1.0
    vis = np.ones((3, 4))
    tv = tapvid3d_metrics(
        np.ones((3, 4, 3)), vis, np.ones((3, 4, 3)), vis
    )
    exact &= (tv.aj, tv.apd, tv.oa) == (100.0, 100.0, 100.0)

    ok = not failures and exact
    report(8, ok, "every metric matches its naive oracle to 1e-9 and perfect "
                  f"inputs hit exact optima{'' if ok else ' (failed: ' + str(failures) + ')'}")


def test_criterion_9_umeyama_exactness():
    rng = np.random.default_rng(1)
    worst_s = worst_r = worst_t = 0.0
    for _ in range(100):
        src = rng.standard_normal((15, 3))
        s_true = rng.uniform(0.2, 5.0)
        r_true = exp_map(np.concatenate([rng.standard_normal(3), np.zeros(3)])).rotation
        t_true = rng.standard_normal(3) * 2.0
        dst = s_true * src @ r_true.T + t_true
        sim = umeyama(src, dst)
        worst_s = max(worst_s, abs(sim.scale - s_true) / max(1.0, s_true))
        worst_r = max(worst_r, rotation_angle(sim.rotation.T @ r_true))
        worst_t = max(worst_t, float(np.max(np.abs(sim.translation - t_true))))
    ok = worst_s < 1e-9 and worst_r < 1e-9 and worst_t < 1e-9 * 10
    report(9, ok, f"noiseless similarity recovery over 100 cases "
                  f"(scale {worst_s:.1e}, angle {worst_r:.1e}, translation {worst_t:.1e})")


def test_criterion_10_reproducibility(tmp_path):
    scene_doc = {"n_frames": 5, "n_static": 20, "n_dynamic": 4, "height": 12,
                 "width": 12, "sigma_pointmap": 0.01, "sigma_pose": 0.04,
                 "motion_speed": 0.3}
    optim_doc = {**ACCEPT_OPTIM, "max_epochs": 30}
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(scene_doc))
    ocfg = tmp_path / "optim.json"
    ocfg.write_text(json.dumps(optim_doc))

    def run(root):
        assert cli_main(["gen", "--config", str(cfg), "--out", f"{root}/scenes",
                         "--seeds", "3,4"]) == 0
        assert cli_main(["optimize", "--scenes", f"{root}/scenes", "--config",
                         str(ocfg), "--ablation", "cons_cam", "--out", f"{root}/opt"]) == 0
        assert cli_main(["eval", "--pred", f"{root}/scenes/seed_0003/est",
                         "--gt", f"{root}/scenes/seed_0003/gt",
                         "--out", f"{root}/eval"]) == 0
        digests = {}
        manifests = {}
        for dirpath, _, files in os.walk(root):
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                if name == "manifest.json":
                    with open(path) as fh:
                        doc = json.load(fh)
                    doc.pop("timestamp")  # wall-clock metadata, documented
                    doc.pop("out_dir")
                    doc.pop("config_path", None)
                    doc.pop("pred", None)
                    doc.pop("gt", None)
                    doc.pop("scenes", None)
                    manifests[rel] = doc
                else:
                    with open(path, "rb") as fh:
                        digests[rel] = hashlib.sha256(fh.read()).hexdigest()
        return digests, manifests

    d1, m1 = run(tmp_path / "run1")
    d2, m2 = run(tmp_path / "run2")
    same_files = d1 == d2
    # manifests identical apart from timestamp/path metadata
    same_manifests = {k: _strip_paths(v) for k, v in m1.items()} == {
        k: _strip_paths(v) for k, v in m2.items()
    }
    ok = same_files and same_manifests
    n = len(d1)
    report(10, ok, f"two pipeline runs produce byte-identical trees ({n} files; "
                   "manifest differs only in timestamp/path metadata)")


def _strip_paths(doc):
    doc = dict(doc)
    cfg = doc.get("config")
    if isinstance(cfg, dict):
        cfg = {k: v for k, v in cfg.items() if k not in ("scenes", "pred", "gt")}
        doc["config"] = cfg
    return doc

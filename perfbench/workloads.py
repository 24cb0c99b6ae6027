"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Each workload owns a fixed list of inputs built in ``setup`` and runs one
operation per input.  ``run`` is the timed part; ``check`` turns its output
into an ``Outcome`` (failure reason, quality figures, epochs, and a digest
that must repeat byte for byte whenever the same input runs again).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from statistics import median
from time import perf_counter

import numpy as np

# the program is called through its modules so that the tracer's wrappers,
# which rebind module attributes, see every call
from trajcouple import cli, optimize, synthetic
from trajcouple.grad import Tape
from trajcouple.losses import LossConfig
from trajcouple.optimize import OptimConfig, ablation_config, pose_tangent_rms
from trajcouple.synthetic import SceneConfig

NOISE = dict(sigma_pointmap=0.01, sigma_track=0.01, sigma_pose=0.05)
# gt-vs-gt evaluation must be exact up to float64 round-off at unit scene diagonal
ROUND_OFF = 1e-12
TERM_REPS = 3
# Quality figures are deterministic per input but vary between inputs; these
# many inputs per run keep their spread across seeds well inside the bounds.
LARGE_VARIANTS = 6
SMALL_ROUNDS = 8


@dataclass
class Outcome:
    failure: str = None
    quality: dict = field(default_factory=dict)
    epochs: int = 0
    accepted: int = 0
    digest: str = ""


class Refine:
    """Refine each scene of a fixed list with its ablation for a fixed epoch budget."""

    def __init__(self, make_scenes, ablations, max_epochs, round_size):
        self.make_scenes = make_scenes
        self.optim = [ablation_config(a, OptimConfig(max_epochs=max_epochs)) for a in ablations]
        self.n_inputs = len(ablations)
        self.round_size = round_size

    def setup(self):
        self.scenes = self.make_scenes()

    def run(self, idx):
        scene = self.scenes[idx]
        return optimize.optimize(synthetic.initial_store(scene), scene, self.optim[idx])

    def check(self, idx, report):
        ini, fin = report.initial_metrics, report.final_metrics
        out = Outcome(
            epochs=report.n_epochs,
            accepted=sum(e.accepted for e in report.epochs),
            digest=json.dumps(report.to_dict(), sort_keys=True),
        )
        losses = [e.total for e in report.epochs] + [ini["loss"], fin["loss"]]
        if not all(math.isfinite(v) for v in losses):
            out.failure = "non-finite loss"
        elif not fin["loss"] < ini["loss"]:
            out.failure = f"final loss {fin['loss']!r} not below initial {ini['loss']!r}"
        elif not fin["pose_tangent_rms"] < ini["pose_tangent_rms"]:
            out.failure = "final pose error not below initial"
        out.quality = {
            "pose_rms_final": fin["pose_tangent_rms"],
            "track_err_final": fin["track_err"],
            "grid_err_final": fin["grid_err"],
            "loss_ratio_final": fin["loss"] / ini["loss"],
        }
        return out

    def term_ms(self):
        """Per-scene ms of one taped evaluation of each term alone, at the initial state."""
        out = {}
        for term in ("cons", "cam", "anchor"):
            loss = LossConfig(use_cons=term == "cons", use_cam=term == "cam",
                              use_anchor=term == "anchor")
            total = 0.0
            for scene in self.scenes:
                problem = synthetic.build_problem(scene, loss)
                store = synthetic.initial_store(scene)
                tape = Tape(store)
                times = []
                for _ in range(TERM_REPS):
                    tape.reset()
                    t0 = perf_counter()
                    problem.evaluate(store, tape)
                    times.append(perf_counter() - t0)
                total += median(times)
            out[term] = 1000.0 * total / len(self.scenes)
        return out


def refine_large_full(seed, workdir):
    """One large scene; its estimates redrawn LARGE_VARIANTS times at the same noise."""

    def make_scenes():
        scene = synthetic.generate(SceneConfig(n_frames=32, n_static=1024, n_dynamic=128,
                                               height=64, width=64, seed=seed, **NOISE))
        variants = [scene]
        for v in range(1, LARGE_VARIANTS):
            grids, tracks, poses = synthetic.perturb(
                scene, NOISE["sigma_pointmap"], NOISE["sigma_track"], NOISE["sigma_pose"],
                seed=[seed, v])
            variants.append(replace(scene, est_grids=grids, est_tracks=tracks,
                                    est_rel_poses=poses))
        return variants

    return Refine(make_scenes, ["full"] * LARGE_VARIANTS, max_epochs=10, round_size=1)


def refine_small_mix(seed, workdir):
    """SMALL_ROUNDS rounds of 16 small scenes, alternating cons_cam and selfsup."""
    n = 16 * SMALL_ROUNDS

    def make_scenes():
        return [
            synthetic.generate(SceneConfig(n_frames=6, n_static=48, n_dynamic=16, height=16,
                                           width=16, occlusion_span=2, seed=n * seed + k,
                                           **NOISE))
            for k in range(n)
        ]

    # whole rounds of 16 keep the mix of ablations, and so the median, fixed
    return Refine(make_scenes, ["cons_cam", "selfsup"] * (n // 2), max_epochs=50, round_size=16)


class SceneIoEval:
    """Write a scene with ``trajcouple gen``, read it back, evaluate est vs gt."""

    n_inputs = 4
    round_size = 1

    def __init__(self, seed, workdir):
        self.seeds = [self.n_inputs * seed + k for k in range(self.n_inputs)]
        self.checked = set()
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "scene.json")
        self.scenes_dir = os.path.join(workdir, "scenes")

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.config_path, "w") as fh:
            json.dump(dict(n_frames=16, n_static=512, n_dynamic=64, height=64, width=64,
                           **NOISE), fh)

    def _eval(self, scene_dir, pred, out):
        argv = ["eval", "--pred", os.path.join(scene_dir, pred),
                "--gt", os.path.join(scene_dir, "gt"), "--out", out, "--icp"]
        if cli.main(argv) != 0:
            raise RuntimeError(f"eval of {pred} exited non-zero")
        with open(os.path.join(out, "metrics.json")) as fh:
            return fh.read()

    def run(self, idx):
        seed = self.seeds[idx]
        scene_dir = os.path.join(self.scenes_dir, f"seed_{seed:04d}")
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["gen", "--config", self.config_path, "--out", self.scenes_dir,
                    "--seeds", str(seed)]
            if cli.main(argv) != 0:
                raise RuntimeError("gen exited non-zero")
            scene = synthetic.load_scene(scene_dir)
            metrics = self._eval(scene_dir, "est", os.path.join(self.workdir, "eval_est"))
        return scene_dir, scene, metrics

    def check(self, idx, result):
        scene_dir, scene, metrics = result
        out = Outcome(epochs=2, digest=metrics)  # epochs: CLI commands run
        est = json.loads(metrics)["values"]
        if not all(math.isfinite(v) for v in est.values()):
            out.failure = "non-finite est-vs-gt metric"
        elif idx not in self.checked:
            # later runs of this input must repeat its est-vs-gt output byte for
            # byte, so the gt-vs-gt identity is checked once per input
            self.checked.add(idx)
            with contextlib.redirect_stdout(io.StringIO()):
                same = json.loads(self._eval(scene_dir, "gt", os.path.join(self.workdir,
                                                                           "eval_gt")))
            same = same["values"]
            if not (abs(same["ate"]) <= ROUND_OFF and abs(same["pointmap_acc_mean"]) <= ROUND_OFF
                    and same["aj_3d"] == 100.0):
                out.failure = (f"gt vs gt: ate {same['ate']!r}, accuracy "
                               f"{same['pointmap_acc_mean']!r}, AJ {same['aj_3d']!r}")
        vis = scene.visibility >= 1e-3
        grid_err = float(np.mean(np.linalg.norm(scene.est_grids - scene.gt_grids, axis=-1)))
        out.quality = {
            "pose_rms_final": pose_tangent_rms(scene.est_rel_poses, scene.rel_poses),
            "track_err_final": float(np.mean(
                np.linalg.norm((scene.est_tracks - scene.gt_tracks)[vis], axis=-1))),
            "grid_err_final": grid_err,
            "loss_ratio_final": est["pointmap_acc_mean"] / grid_err,
        }
        return out


WORKLOADS = {
    "refine_large_full": refine_large_full,
    "refine_small_mix": refine_small_mix,
    "scene_io_eval": SceneIoEval,
}

"""Write the reference results that tests/test_reference.py recomputes.

Run from the repository root, with the package to record on the path:

    PYTHONPATH=src python tests/make_reference.py

It writes three files under tests/reference/, with sorted keys and floats as
their repr:

* evaluate.json: CouplingProblem.evaluate with a tape, for every ablation and
  both pose targets on random_coupling_fixture seeds 0-4: the total, each
  slot's statistics, and the sum, sum of squares and largest magnitude of
  each gradient block;
* optimize.json: OPTIM_EPOCHS epochs of optimize on the two OPTIM_SCENES for
  every ablation: termination, the accepted steps and their step scales, the
  epoch losses, and the initial and final metrics;
* eval.json: the values and metadata of ``eval --metrics all --icp`` on the
  EVAL_SCENE that ``gen`` writes.

A change that alters any of these regenerates the files in the same commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict, replace

import numpy as np

from trajcouple.cli import main as cli_main
from trajcouple.fixtures import random_coupling_fixture
from trajcouple.grad import Tape
from trajcouple.optimize import ABLATIONS, OptimConfig, ablation_config, optimize
from trajcouple.synthetic import SceneConfig, generate, initial_store

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

FIXTURE_SEEDS = range(5)
POSE_TARGETS = ("gt", "anchor_sample")

OPTIM_EPOCHS = 20
OPTIM_SCENES = {
    "orbit_dynamic": dict(n_frames=5, n_static=24, n_dynamic=6, height=12, width=12,
                          sigma_pointmap=0.01, sigma_track=0.01, sigma_pose=0.04, seed=0),
    "walk_occluded": dict(n_frames=6, n_static=20, n_dynamic=4, height=10, width=10,
                          camera_path="random-walk", motion="sinusoidal", occlusion_span=2,
                          sigma_pointmap=0.02, sigma_pose=0.03, seed=1),
}

EVAL_SCENE = dict(n_frames=8, n_static=48, n_dynamic=8, height=16, width=16,
                  sigma_pointmap=0.01, sigma_track=0.01, sigma_pose=0.05)
EVAL_SEED = 4


def evaluate_case(seed, ablation, pose_target):
    """One taped evaluation of the supervised fixture under an ablation's toggles."""
    problem, store = random_coupling_fixture(seed)
    problem.config = replace(problem.config, **ABLATIONS[ablation], pose_target=pose_target)
    tape = Tape(store)
    bd = problem.evaluate(store, tape)
    grads = {block: {"sum": float(np.sum(g)), "sumsq": float(g @ g),
                     "maxabs": float(np.max(np.abs(g)))} for block, g in tape.grads.items()}
    slots = {slot: {k: v for k, v in asdict(stats).items() if k != "name"}
             for slot, stats in bd.terms.items()}
    return {"total": bd.total, "slots": slots, "grads": grads}


def evaluate_reference():
    return {f"seed{seed}/{ablation}/{target}": evaluate_case(seed, ablation, target)
            for seed in FIXTURE_SEEDS for ablation in ABLATIONS for target in POSE_TARGETS}


def optimize_case(scene_name, ablation):
    """OPTIM_EPOCHS epochs of one ablation on one scene, as plain lists and dicts."""
    scene = generate(SceneConfig(**OPTIM_SCENES[scene_name]))
    cfg = ablation_config(ablation, OptimConfig(max_epochs=OPTIM_EPOCHS))
    report = optimize(initial_store(scene), scene, cfg)
    out = {"termination": report.termination, "n_epochs": report.n_epochs,
           "initial_metrics": report.initial_metrics, "final_metrics": report.final_metrics}
    for name in ("accepted", "step_scale", "total", "cons", "cam", "anchor"):
        out[name] = [e.to_dict()[name] for e in report.epochs]
    return out


def optimize_reference():
    return {f"{scene}/{ablation}": optimize_case(scene, ablation)
            for scene in OPTIM_SCENES for ablation in ABLATIONS}


def eval_reference(work_dir):
    """metrics.json of eval --metrics all --icp on the EVAL_SCENE written under work_dir."""
    config = os.path.join(work_dir, "scene.json")
    with open(config, "w") as fh:
        json.dump(EVAL_SCENE, fh)
    scenes, out = os.path.join(work_dir, "scenes"), os.path.join(work_dir, "eval")
    scene = os.path.join(scenes, f"seed_{EVAL_SEED:04d}")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (cli_main(["gen", "--config", config, "--out", scenes, "--seeds", str(EVAL_SEED)]),
                 cli_main(["eval", "--pred", os.path.join(scene, "est"),
                           "--gt", os.path.join(scene, "gt"), "--metrics", "all", "--icp",
                           "--out", out]))
    if codes != (0, 0):
        raise RuntimeError(f"gen and eval exited {codes}")
    with open(os.path.join(out, "metrics.json")) as fh:
        return json.load(fh)


def write_reference(name, doc):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def main():
    with tempfile.TemporaryDirectory() as work_dir:
        docs = {"evaluate": evaluate_reference(), "optimize": optimize_reference(),
                "eval": eval_reference(work_dir)}
    for name, doc in docs.items():
        print(write_reference(name, doc), file=sys.stderr)


if __name__ == "__main__":
    main()

"""Joint first-order refinement of grids, tracks, and pose tangents.

Plain gradient descent with per-block step sizes and a backtracking line
search: the shared step scale doubles after every accepted step and halves
on increase, up to a bounded number of halvings.  Pose updates are applied
by exponentiating the tangent block onto the base poses after every
accepted step, so gradients are always taken at a freshly centered chart.

A problem without 3D targets whose anchor term is gated recomputes its
provisional static mask from the current state at the start of every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigDocument, ConfigInvalid, DegenerateConfiguration, Diverged
from .grad import GRIDS, POSES, TRACKS, ParamStore, Tape
from .losses import GROUPS, CouplingProblem, LossConfig
from .pose import Pose, compose, inverse, log_map
from .synthetic import SyntheticScene, build_problem
from .tracks import MIN_VISIBLE_WEIGHT
from . import metrics as _metrics

_BLOCK_STEP_FIELDS = {GRIDS: "step_grids", TRACKS: "step_tracks", POSES: "step_poses"}
STEP_GROWTH = 2.0  # factor of the shared step scale after an accepted step
TOL_WINDOW = 5  # accepted epochs over which the relative loss drop is compared with tol
MAX_STEP_SCALE = 1024.0  # cap of the shared step scale
GRAD_TOL = 1e-12  # a largest gradient entry below this is stationary
# Leading slices _point_errors forms its norms in: a refinement's workspace is
# still alive when its last errors are taken, and the one-shot expression's
# grid-sized temporaries raised the benchmark's refine_large_full peak RSS from
# 118.8 to 125.1 MiB (2-core machine).
_POINT_ERROR_SLICES = 8


@dataclass
class OptimConfig(ConfigDocument):
    # per-block steps tuned for unit-diagonal scenes with tens of tracks;
    # poses run faster than the coupled drift of tracks and grids
    step_grids: float = 0.01
    step_tracks: float = 0.02
    step_poses: float = 0.01
    max_epochs: int = 200
    tol: float = 1e-8
    max_backtracks: int = 20
    loss: LossConfig = field(default_factory=LossConfig)

    def _check_rules(self):
        for name in ("step_grids", "step_tracks", "step_poses"):
            if not getattr(self, name) > 0:
                raise ConfigInvalid(name, "must be positive")
        if self.max_epochs < 1:
            raise ConfigInvalid("max_epochs", "must be >= 1")
        if not self.tol >= 0:
            raise ConfigInvalid("tol", "must be >= 0")
        if self.max_backtracks < 0:
            raise ConfigInvalid("max_backtracks", "must be >= 0")


@dataclass
class EpochRecord:
    """One epoch: its loss, each GROUPS slot's value (0.0 for a slot that is off), the
    step scale, and whether the step was accepted."""

    epoch: int
    total: float
    terms: dict
    step_scale: float
    accepted: bool

    def to_dict(self):
        """Flat dict: epoch, total, one key per GROUPS slot in GROUPS order, step_scale, accepted."""
        return {"epoch": self.epoch, "total": self.total,
                **{g.slot: self.terms[g.slot] for g in GROUPS},
                "step_scale": self.step_scale, "accepted": self.accepted}


@dataclass
class OptimReport:
    epochs: list
    termination: str
    initial_metrics: dict
    final_metrics: dict

    @property
    def n_epochs(self):
        return len(self.epochs)

    def metric_deltas(self):
        return {
            k: self.final_metrics[k] - self.initial_metrics[k]
            for k in self.initial_metrics
            if k in self.final_metrics
        }

    def to_dict(self):
        return {
            "termination": self.termination,
            "n_epochs": self.n_epochs,
            "initial_metrics": self.initial_metrics,
            "final_metrics": self.final_metrics,
            "metric_deltas": self.metric_deltas(),
            "epochs": [e.to_dict() for e in self.epochs],
        }


def pose_tangent_rms(est_poses: Pose, gt_poses: Pose):
    """RMS norm of the left-residual tangents log(est * inv(gt)) over frames."""
    tangents = log_map(compose(est_poses, inverse(gt_poses)))
    # matmul rounds like the one-vector norm; the sum runs in frame order
    norms = np.sqrt(tangents[:, None, :] @ tangents[:, :, None])[:, 0, 0]
    sq = 0.0
    for norm in norms.tolist():
        sq += norm**2
    return float(np.sqrt(sq / max(len(est_poses), 1)))


def _point_errors(est, ref):
    """np.linalg.norm(est - ref, axis=-1), formed _POINT_ERROR_SLICES leading slices at a time.

    Each norm reads only its own point, so the result is the one-shot
    expression's bit for bit, without its grid-sized temporaries.
    """
    norms = np.empty(est.shape[:-1])
    step = max(1, -(-len(est) // _POINT_ERROR_SLICES))
    for k in range(0, len(est), step):
        norms[k:k + step] = np.linalg.norm(est[k:k + step] - ref[k:k + step], axis=-1)
    return norms


def scene_error_metrics(scene: SyntheticScene, problem: CouplingProblem, store: ParamStore) -> dict:
    """Errors of the current state against the scene's ground truth."""
    est_grids = store.view(GRIDS)
    est_tracks = store.view(TRACKS)
    rel_est = problem.current_poses(store)

    out = {
        "pose_tangent_rms": pose_tangent_rms(rel_est, scene.rel_poses),
        "grid_err": float(np.mean(_point_errors(est_grids, scene.gt_grids))),
    }
    vis = scene.visibility >= MIN_VISIBLE_WEIGHT
    if np.any(vis):
        out["track_err"] = float(
            np.mean(np.linalg.norm((est_tracks - scene.gt_tracks)[vis], axis=-1))
        )
    else:
        out["track_err"] = 0.0
    # gauge-fix the relative poses at the ground-truth anchor to get a trajectory
    est_traj = compose(scene.cam_poses[scene.config.anchor], rel_est)
    try:
        pair = _metrics.TrajectoryPair(est_traj, scene.cam_poses)
        out["ate"] = _metrics.ate(pair)
    except (DegenerateConfiguration, ValueError):
        pass
    return out


def optimize(store: ParamStore, scene: SyntheticScene, cfg: OptimConfig) -> OptimReport:
    """Refine the store in place under the coupled objective.

    Raises Diverged when the initial loss is not finite, or when, after
    exhausting the backtracking halvings, the last candidate loss is not
    finite or still exceeds ten times the initial loss.
    """
    cfg.validate()
    problem = build_problem(scene, cfg.loss)
    refresh_mask = problem.targets is None and cfg.loss.use_anchor and cfg.loss.gate_static

    initial_metrics = scene_error_metrics(scene, problem, store)
    tape = Tape(store)
    candidate = store.copy()
    steps = {b: getattr(cfg, f) for b, f in _BLOCK_STEP_FIELDS.items()}

    epochs = []
    termination = "max_epochs"
    initial_loss = None
    step_scale = 1.0
    window = []

    for epoch in range(1, cfg.max_epochs + 1):
        if refresh_mask:
            problem.refresh_static_mask(store)
        tape.reset()
        bd = problem.evaluate(store, tape)
        loss = bd.total
        if initial_loss is None:
            if not np.isfinite(loss):
                raise Diverged(f"initial loss {loss!r} is not finite")
            initial_loss = loss
            initial_metrics["loss"] = loss

        terms = {g.slot: bd.terms[g.slot].value if g.slot in bd.terms else 0.0 for g in GROUPS}
        record = EpochRecord(epoch, loss, terms, step_scale, False)
        epochs.append(record)

        if loss == 0.0 or tape.max_abs() < GRAD_TOL:
            termination = "stationary"
            break

        # the tape's own blocks: no evaluation touches the tape until the next epoch
        grads = {block: tape.grad(block) for block in steps}
        trial = min(step_scale * STEP_GROWTH, MAX_STEP_SCALE)
        accepted = False
        cand_loss = np.inf
        for _ in range(cfg.max_backtracks + 1):
            for block, g in grads.items():
                # store - trial * step * g, written into the candidate block in place
                out = candidate[block]
                np.multiply(trial * steps[block], g, out=out)
                np.subtract(store[block], out, out=out)
            cand_loss = problem.evaluate(candidate).total
            if cand_loss < loss:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            if not np.isfinite(cand_loss) or cand_loss > 10.0 * initial_loss:
                raise Diverged(
                    f"loss {cand_loss:.6g} not finite or above 10x initial {initial_loss:.6g} "
                    f"after {cfg.max_backtracks} halvings"
                )
            termination = "stalled"
            break

        candidate.copy_into(store)
        problem.fold_pose_tangents(store)
        record.step_scale = trial
        record.accepted = True
        step_scale = trial

        window.append(loss)
        if len(window) > TOL_WINDOW:
            window.pop(0)
            drop = (window[0] - loss) / max(abs(window[0]), 1e-300)
            if drop < cfg.tol:
                termination = "converged"
                break

    final_metrics = scene_error_metrics(scene, problem, store)
    final_metrics["loss"] = problem.evaluate(store).total
    return OptimReport(epochs, termination, initial_metrics, final_metrics)


# Ablation configurations: the four term toggles of each named run.  The
# camera term is the only one that reads 3D labels, so the runs without it
# are self-supervised (see build_problem).
ABLATIONS = {
    "none": dict(use_cons=False, use_cam=False, use_anchor=False, gate_static=True),
    "cons": dict(use_cons=True, use_cam=False, use_anchor=False, gate_static=True),
    "cam": dict(use_cons=False, use_cam=True, use_anchor=False, gate_static=True),
    "cam_ungated": dict(use_cons=False, use_cam=True, use_anchor=False, gate_static=False),
    "cons_cam": dict(use_cons=True, use_cam=True, use_anchor=False, gate_static=True),
    "cons_cam_ungated": dict(use_cons=True, use_cam=True, use_anchor=False, gate_static=False),
    "selfsup": dict(use_cons=True, use_cam=False, use_anchor=True, gate_static=True),
    "full": dict(use_cons=True, use_cam=True, use_anchor=True, gate_static=True),
}


def ablation_config(name: str, base: Optional[OptimConfig] = None) -> OptimConfig:
    """Optimizer config for a named ablation, on top of an optional base.

    The ablation sets all four toggles, so a base that gives one of them a
    non-default value conflicts with it and is rejected.
    """
    if name not in ABLATIONS:
        raise ConfigInvalid("ablation", f"unknown ablation {name!r}; have {sorted(ABLATIONS)}")
    base = base if base is not None else OptimConfig()
    default = LossConfig()
    for toggle in ABLATIONS[name]:
        if getattr(base.loss, toggle) != getattr(default, toggle):
            raise ConfigInvalid(toggle, f"set by ablation {name!r}; leave it out of the config")
    loss = {**base.loss.to_dict(), **ABLATIONS[name]}
    return OptimConfig.from_dict({**base.to_dict(), "loss": loss})

"""Coupling objectives linking tracks, pointmaps, and relative camera poses.

Three terms, each a weighted Huber sum over (track, frame) samples:

* bidirectional track-pointmap consistency: the tracked 3D point and the
  pointmap sampled at the track's pixel must agree; one half updates only
  the pointmaps (tracks detached), the mirror half updates only the tracks;
* camera consistency: track points mapped through the per-frame relative
  pose must land on anchor-frame targets; the first half updates only the
  pose (gated to static samples), the second only the track points;
* anchor consistency (the self-supervised camera term): pointmap samples
  reprojected into the anchor frame must agree with the anchor-frame
  samples; updates poses through the reprojection and the anchor grid
  through the comparison side.  No 3D ground truth is consumed.

Detachment is structural: each sub-term forms partials only for the
blocks TERM_BLOCKS lists for it; acceptance criterion 2 and
TestRoutingZeroTests check that every other block stays bitwise zero.

Pose gradients are taken w.r.t. per-frame tangents ``(omega, upsilon)``
around held base poses, with the transform acting as
``x -> exp_so3(omega) @ (base @ x) + upsilon``; the chain rule through
``omega`` uses the SO(3) left Jacobian and is exact at any tangent value.

A CouplingProblem compiles its sample geometry (valid samples, their
bilinear sampling operator S, anchor references) from the grid shape of
the first store it evaluates; every term then runs through one shared
pass per evaluation, driven by one term table.  The grid-writing terms
queue their sample coefficients, and the pass applies S^T once, over all
of them in term order, at its end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigDocument, ConfigInvalid, MissingTargets
from .grad import GRIDS, POSES, TRACKS, ParamStore, Tape
from .pointmap import BilinearSampler
from .pose import Pose, compose, exp_map, so3_left_jacobian
from .tracks import MIN_VISIBLE_WEIGHT

DEFAULT_DELTA = 0.05


def _huber_batch(res, delta, grad=True):
    """Vectorized Huber values, gradients (None unless grad) and norms of (M, 3) residuals."""
    norms = np.linalg.norm(res, axis=1)
    quad = norms <= delta
    vals = np.where(quad, 0.5 * norms * norms, delta * (norms - 0.5 * delta))
    if not grad:
        return vals, None, norms
    scale = np.where(quad, 1.0, delta / np.maximum(norms, 1e-300))
    return vals, res * scale[:, None], norms


def transform_samples(base: Pose, step: Pose, frames, pts):
    """Apply each sample's frame of step * base; returns (y, a).

    y = step.rotation @ (base @ p) + step.translation is the transformed
    point and a = y - step.translation is the rotated part needed by the
    omega chain rule.  This is the single code path for pose application
    inside the losses, shared with the synthetic generator for bitwise
    reproducibility.
    """
    frames = np.asarray(frames, dtype=np.int64)
    pts = np.asarray(pts, dtype=np.float64)
    z = np.einsum("mij,mj->mi", np.take(base.rotation, frames, axis=0), pts)
    z += np.take(base.translation, frames, axis=0)
    a = np.einsum("mij,mj->mi", np.take(step.rotation, frames, axis=0), z)
    return a + np.take(step.translation, frames, axis=0), a


@dataclass
class TermStats:
    """Value and residual statistics of one loss term (value is unweighted)."""

    name: str
    value: float
    n_samples: int
    n_skipped: int
    residual_mean: float
    residual_max: float


def _stats(name, value, norms, n_skipped):
    if norms is None or norms.size == 0:
        return TermStats(name, 0.0, 0, int(n_skipped), 0.0, 0.0)
    return TermStats(
        name, float(value), int(norms.size), int(n_skipped),
        float(norms.mean()), float(norms.max()),
    )


# ---------------------------------------------------------------------------
# Compiled sample geometry and the per-evaluation pass.

@dataclass
class _Geometry:
    """Sample geometry of a problem: pixels, visibility and anchor."""

    tt: np.ndarray  # (M,) frame of each valid sample, row-major over (i, t)
    flat: np.ndarray  # (M,) i * T + t, the sample's row in (N*T, 3) views
    w: np.ndarray  # (M,) visibility weights
    sampler: BilinearSampler  # footprints of the valid samples
    n_skipped: int
    anchor_ref: np.ndarray  # (M,) position of the track's anchor sample, -1 if not valid
    a_pos: np.ndarray  # (Ma,) positions the anchor term may use (before static gating)
    a_w: np.ndarray  # (Ma,) their weights vis[i, t] * vis[i, anchor]


def _compile(grid_shape, query_pixels, visibility, anchor):
    visibility = np.asarray(visibility, dtype=np.float64)
    n, t = visibility.shape
    if not 0 <= anchor < t:
        raise ValueError(f"anchor frame {anchor} outside [0, {t})")
    ii, tt = np.nonzero(visibility >= MIN_VISIBLE_WEIGHT)
    flat = ii * t + tt
    q = np.take(np.asarray(query_pixels, dtype=np.float64).reshape(-1, 2), flat, axis=0)
    sampler = BilinearSampler(grid_shape, tt, q[:, 0], q[:, 1])
    position = np.full(n * t, -1, dtype=np.int64)
    position[flat] = np.arange(flat.size)
    anchor_ref = position[ii * t + anchor]
    w = visibility[ii, tt]
    # visibility lies in [0, 1], so an admitted pair has both samples valid
    w_eff = w * visibility[ii, anchor]
    a_pos = np.flatnonzero((w_eff >= MIN_VISIBLE_WEIGHT) & (tt != anchor) & (anchor_ref >= 0))
    return _Geometry(
        tt, flat, w, sampler, int(visibility.size - flat.size),
        anchor_ref, a_pos, w_eff[a_pos],
    )


def _rows(arr, flat):
    """Per-sample 3-vectors of an (N, T, 3) array at flat (i * T + t) rows."""
    return np.take(np.asarray(arr, dtype=np.float64).reshape(-1, 3), flat, axis=0)


class _Pass:
    """One evaluation: parameter views, the tape, and intermediates shared by terms."""

    def __init__(self, problem, store, tape):
        self.problem = problem
        self.cfg = problem.config
        self.track_pts = store.view(TRACKS)
        self.grid_stack = store.view(GRIDS)
        self.tangents = store.view(POSES)
        self.geo = problem.geometry(self.grid_stack.shape)
        self.tape = tape
        self.grad = tape is not None  # value-only passes skip the Huber gradients
        self.grid_coeffs = []  # (coeff, index) of the grid-writing terms, in term order

    def scatter_poses(self, frames, a_sel, gvec):
        """Accumulate d(loss)/d(omega, upsilon) for selected samples.

        For y = exp(omega) z + upsilon and downstream gradient g:
        d/d upsilon = g and d/d omega = J_l(omega)^T (a x g) with a = exp(omega) z.
        """
        pose_base = frames * 6
        ups_idx = (pose_base[:, None] + np.arange(3, 6)).reshape(-1)
        self.tape.scatter(POSES, ups_idx, gvec.reshape(-1))
        cross = np.cross(a_sel, gvec)
        gw = np.einsum("mji,mj->mi", np.take(self.left_jac, frames, axis=0), cross)
        om_idx = (pose_base[:, None] + np.arange(3)).reshape(-1)
        self.tape.scatter(POSES, om_idx, gw.reshape(-1))

    def scatter_tracks(self, coeff):
        """Accumulate (M, 3) per-sample partials into the tracks block."""
        idx = (self.geo.flat[:, None] * 3 + np.arange(3)).reshape(-1)
        self.tape.scatter(TRACKS, idx, coeff.reshape(-1))

    def add_grids(self, coeff, index):
        """Queue S[index]^T @ coeff for the grid block."""
        self.grid_coeffs.append((coeff, index))

    def flush_grids(self):
        """Add the queued grid gradients to the tape with one S^T product.

        The coefficients are concatenated in term order, so each grid value
        accumulates term by term and, within a term, sample by sample; a
        product per term, summed, would associate the additions differently.
        """
        if not self.grid_coeffs:
            return
        if len(self.grid_coeffs) == 1:
            coeff, index = self.grid_coeffs[0]  # a lone None index keeps the cached S^T
        else:
            n = len(self.geo.tt)
            coeff = np.concatenate([c for c, _ in self.grid_coeffs])
            index = np.concatenate([np.arange(n) if i is None else i for _, i in self.grid_coeffs])
        self.tape.add(GRIDS, self.geo.sampler.adjoint(coeff, index))

    def huber(self, res):
        return _huber_batch(res, self.cfg.delta, self.grad)

    def gate(self, flat, what):
        """Static mask at flat (i * T + t) sample rows; all admitted when ungated.

        Read on every pass, so a reassigned static_mask takes effect at once.
        """
        if not self.cfg.gate_static:
            return np.ones(flat.shape, dtype=bool)
        mask = self.problem.static_mask
        if mask is None:
            raise ValueError(f"{what} needs a static mask (use all-ones to disable gating)")
        return np.take(np.asarray(mask, dtype=bool).reshape(-1), flat)

    @cached_property
    def targets(self):
        if self.problem.targets is None:
            raise MissingTargets("camera consistency needs anchor targets")
        return _rows(self.problem.targets, self.geo.flat)

    @cached_property
    def step(self):
        """exp_map of the pose tangents: the transforms left of the base poses."""
        return exp_map(self.tangents)

    @cached_property
    def left_jac(self):  # (T, 3, 3)
        return so3_left_jacobian(self.tangents[:, :3])

    @cached_property
    def r_cur(self):  # (T, 3, 3)  the current rotations step.rotation @ base.rotation
        return np.einsum("tij,tjk->tik", self.step.rotation, self.problem.base.rotation)

    @cached_property
    def samples(self):
        """The pointmaps sampled at every valid sample (S @ grids)."""
        return self.geo.sampler.gather(self.grid_stack)

    @cached_property
    def tracked(self):
        return _rows(self.track_pts, self.geo.flat)

    @cached_property
    def cons(self):
        vals, g, norms = self.huber(self.tracked - self.samples)
        coeff = (self.cfg.weight_cons * self.geo.w)[:, None] * g if self.grad else None
        return float(np.sum(self.geo.w * vals)), coeff, norms

    @cached_property
    def moved(self):
        """Track points through the current relative poses: (y, a)."""
        return transform_samples(self.problem.base, self.step, self.geo.tt, self.tracked)

    @cached_property
    def cam_residual(self):
        """Huber (values, gradients, norms) of every moved track point against its target."""
        return self.huber(self.moved[0] - self.targets)

    @cached_property
    def cam_track(self):
        vals, g, norms = self.cam_residual
        return float(np.sum(self.geo.w * vals)), g, norms

    @cached_property
    def cam_pose(self):
        """Pose half: (value, gated positions, gvec, norms)."""
        target = self.cfg.pose_target
        if target not in ("gt", "anchor_sample"):
            raise ValueError(f"unknown pose_target {target!r}")
        sel = self.gate(self.geo.flat, "camera consistency")
        if target == "anchor_sample":
            sel &= self.geo.anchor_ref >= 0
        pos = np.flatnonzero(sel)
        if pos.size == 0:
            return 0.0, pos, None, None
        if target == "gt":
            # the gated subset of cam_track's residual; Huber acts per sample
            vals, g, norms = (None if x is None else x[sel] for x in self.cam_residual)
        else:
            tgt = self.samples[self.geo.anchor_ref[pos]]
            vals, g, norms = self.huber(self.moved[0][sel] - tgt)
        w = self.geo.w[sel]
        gvec = (self.cfg.weight_cam * w)[:, None] * g if self.grad else None
        return float(np.sum(w * vals)), pos, gvec, norms

    @cached_property
    def anchor(self):
        """Anchor term: (value, positions, a, gvec, norms)."""
        geo = self.geo
        sel = self.gate(geo.flat[geo.a_pos], "anchor consistency")
        pos = geo.a_pos[sel]
        yv, a = transform_samples(self.problem.base, self.step, geo.tt[pos], self.samples[pos])
        vals, g, norms = self.huber(yv - self.samples[geo.anchor_ref[pos]])
        w = geo.a_w[sel]
        gvec = (self.cfg.weight_anchor * w)[:, None] * g if self.grad else None
        return float(np.sum(w * vals)), pos, a, gvec, norms


# Sub-terms: each returns its unweighted value and, with a tape, adds its
# partials to the blocks TERM_BLOCKS lists for it.

def _cons_pointmap(ps: _Pass):
    value, coeff, _ = ps.cons
    if ps.tape is not None:
        ps.add_grids(-coeff, None)
    return value


def _cons_track(ps: _Pass):
    value, coeff, _ = ps.cons
    if ps.tape is not None:
        ps.scatter_tracks(coeff)
    return value


def _cam_track(ps: _Pass):
    value, g, _ = ps.cam_track
    if ps.tape is not None:
        coeff = (ps.cfg.weight_cam * ps.geo.w)[:, None] * g
        gp = np.einsum("mji,mj->mi", np.take(ps.r_cur, ps.geo.tt, axis=0), coeff)
        ps.scatter_tracks(gp)
    return value


def _cam_pose(ps: _Pass):
    value, pos, gvec, _ = ps.cam_pose
    if ps.tape is not None and pos.size:
        ps.scatter_poses(ps.geo.tt[pos], ps.moved[1][pos], gvec)
    return value


def _anchor(ps: _Pass):
    value, pos, a, gvec, _ = ps.anchor
    if ps.tape is not None and pos.size:
        ps.scatter_poses(ps.geo.tt[pos], a, gvec)
        ps.add_grids(-gvec, ps.geo.anchor_ref[pos])
    return value


def _cons_stats(ps: _Pass):
    return ps.cons[2], ps.geo.n_skipped


def _cam_stats(ps: _Pass):
    return ps.cam_track[2], ps.geo.n_skipped


def _anchor_stats(ps: _Pass):
    n, t = ps.problem.visibility.shape
    return ps.anchor[4], n * (t - 1) - ps.anchor[1].size


TERMS = {
    "cons_pointmap": _cons_pointmap,
    "cons_track": _cons_track,
    "cam_pose": _cam_pose,
    "cam_track": _cam_track,
    "anchor": _anchor,
}

# The blocks each sub-term differentiates and writes, its non-detached factors.
TERM_BLOCKS = {
    "cons_pointmap": (GRIDS,),
    "cons_track": (TRACKS,),
    "cam_pose": (POSES,),
    "cam_track": (TRACKS,),
    "anchor": (POSES, GRIDS),
}


class _Group(NamedTuple):
    """One LossBreakdown slot: its config toggle and weight, sub-terms, statistics."""

    slot: str
    toggle: str
    weight: str
    terms: tuple
    stats: Callable


# The term table that drives every evaluation.
GROUPS = (
    _Group("cons", "use_cons", "weight_cons", ("cons_pointmap", "cons_track"), _cons_stats),
    _Group("cam", "use_cam", "weight_cam", ("cam_pose", "cam_track"), _cam_stats),
    _Group("anchor", "use_anchor", "weight_anchor", ("anchor",), _anchor_stats),
)


def _run_group(ps: _Pass, group: _Group) -> TermStats:
    value = 0.0
    for term in group.terms:
        value += TERMS[term](ps)
    return _stats(group.slot, value, *group.stats(ps))


def _reprojection_mask(geo, shape, grid_stack, base, step, tau, scale_quantile=0.4,
                       scale_factor=3.0):
    """Provisional static mask from reprojection stability under current poses.

    Visible samples are reprojected into the anchor frame through
    step * base; a sample counts as static when it stays within tau_eff of
    its track's temporal median.
    tau_eff is per frame: tau inflated to scale_factor times a low quantile
    of that frame's deviations.  Early in an optimization, pose error alone
    moves every reprojection of a frame coherently, so a per-frame scale
    keeps the consistent majority admitted (no frame starves of gradient),
    while genuinely dynamic samples sit far above their frame's quantile
    and are rejected; as the poses converge the threshold tightens to tau.
    """
    n, t = shape
    if geo.flat.size == 0:
        return np.zeros((n, t), dtype=bool)
    repro, _ = transform_samples(base, step, geo.tt, geo.sampler.gather(grid_stack))

    repro_full = np.full((n, t, 3), np.nan)
    repro_full.reshape(n * t, 3)[geo.flat] = repro
    # np.nanmedian over frames without its all-NaN warning: NaN sorts last,
    # so take the middle of each slice's `count` values (mean of the two when even)
    count = np.sum(~np.isnan(repro_full), axis=1, keepdims=True)
    ordered = np.sort(repro_full, axis=1)
    low, high = (np.take_along_axis(ordered, k, axis=1) for k in ((count - 1) // 2, count // 2))
    with np.errstate(all="ignore"):
        dev = np.linalg.norm(repro_full - (low + high) / 2.0, axis=2)

    # np.quantile of each frame's finite deviations: its linear index rule
    # (clamped to the last value) and its _lerp
    finite = np.isfinite(dev)
    last = np.sum(finite, axis=0) - 1
    ordered = np.sort(np.where(finite, dev, np.nan), axis=0)
    index = last * scale_quantile
    below = np.floor(index)
    gamma = index - below
    a, b = (ordered[np.minimum(k, last).astype(np.intp), np.arange(t)] for k in (below, below + 1))
    diff = b - a
    scale = scale_factor * np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    return finite & (dev < np.where(scale > tau, scale, tau))


@dataclass
class LossConfig(ConfigDocument):
    """Term toggles, weights, Huber delta and pose target of the coupled objective."""

    delta: float = DEFAULT_DELTA
    use_cons: bool = True
    use_cam: bool = True
    use_anchor: bool = False
    weight_cons: float = 1.0
    weight_cam: float = 1.0
    weight_anchor: float = 1.0
    pose_target: str = "gt"  # or "anchor_sample"
    gate_static: bool = True

    def validate(self):
        if self.delta <= 0.0:
            raise ConfigInvalid("delta", "must be positive")
        for name in ("weight_cons", "weight_cam", "weight_anchor"):
            if getattr(self, name) <= 0.0:
                raise ConfigInvalid(name, "must be positive")
        if self.pose_target not in ("gt", "anchor_sample"):
            raise ConfigInvalid("pose_target", "must be 'gt' or 'anchor_sample'")
        return self


@dataclass
class LossBreakdown:
    """Statistics of the enabled term groups, keyed by GROUPS slot, and the weighted total."""

    terms: dict
    total: float


@dataclass
class CouplingProblem:
    """Static data of a coupled objective over a ParamStore.

    The store carries the free parameters (grids, tracks, pose tangents);
    everything else (pixels, weights, gating, targets, base poses) lives
    here; the base poses as one (T,) Pose stack.  targets is None when the
    problem has no 3D labels.  tau_static is the threshold of the provisional
    static mask that refresh_static_mask computes.  query_pixels, visibility
    and anchor are fixed for the problem's lifetime (their geometry is
    compiled once, for the grid shape of the first store evaluated, which
    every later store shares); static_mask, targets, base poses, config
    and tau_static may be reassigned between evaluations.
    """

    base: Pose
    query_pixels: np.ndarray
    visibility: np.ndarray
    static_mask: np.ndarray
    targets: Optional[np.ndarray]
    config: LossConfig
    tau_static: float
    anchor: int = 0
    _geometry: Optional[_Geometry] = field(default=None, init=False, repr=False, compare=False)

    def geometry(self, grid_shape) -> _Geometry:
        """The sample geometry, compiled for the grid shape of the first store evaluated."""
        if self._geometry is None:
            self._geometry = _compile(grid_shape, self.query_pixels, self.visibility, self.anchor)
        return self._geometry

    def evaluate(self, store: ParamStore, tape: Optional[Tape] = None) -> LossBreakdown:
        """Enabled terms as a breakdown; without a tape no gradients are formed."""
        ps = _Pass(self, store, tape)
        terms, total = {}, 0.0
        for group in GROUPS:
            if getattr(self.config, group.toggle):
                terms[group.slot] = _run_group(ps, group)
                total += getattr(self.config, group.weight) * terms[group.slot].value
        ps.flush_grids()
        return LossBreakdown(terms, total)

    def evaluate_term(self, store: ParamStore, term: str, tape: Optional[Tape] = None) -> float:
        """One sub-term in isolation, weighted (for gradient verification)."""
        group = next((g for g in GROUPS if term in g.terms), None)
        if group is None:
            raise ValueError(f"unknown term {term!r}")
        ps = _Pass(self, store, tape)
        value = TERMS[term](ps)
        ps.flush_grids()
        return getattr(self.config, group.weight) * value

    def active_terms(self):
        return [t for g in GROUPS if getattr(self.config, g.toggle) for t in g.terms]

    def refresh_static_mask(self, store: ParamStore):
        """Recompute the provisional static mask from the current state."""
        grid_stack = store.view(GRIDS)
        self.static_mask = _reprojection_mask(
            self.geometry(grid_stack.shape), self.visibility.shape, grid_stack, self.base,
            exp_map(store.view(POSES)), self.tau_static,
        )

    def current_poses(self, store: ParamStore) -> Pose:
        """The relative poses of the current state, exp(tangents) * base."""
        return compose(exp_map(store.view(POSES)), self.base)

    def fold_pose_tangents(self, store: ParamStore):
        """Fold the tangent block into the base poses and zero the block."""
        tangents = store.view(POSES)
        if not np.any(tangents):
            return
        self.base = self.current_poses(store)
        tangents.fill(0.0)

"""Coupling objectives linking tracks, pointmaps, and relative camera poses.

Three terms, each a visibility-weighted Huber sum over (track, frame) samples:

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
Each pass composes ``exp(omega) * base`` once per frame, as ``current_poses``
does, so every sample is mapped by one rotation, and ``J_l(omega)^T`` is
applied once per frame to that frame's summed per-sample partials.  The
optimizer folds the tangents after every accepted step (every
``REORTHO_PERIOD``-th fold re-projects the base rotations onto SO(3)), so
its taped passes and mask refreshes run at zero tangents, where ``exp`` and
``J_l`` are exactly the identity: there the outputs are byte-identical to
mapping each sample through base and then ``exp(omega)``, with ``J_l``
applied per sample.  Away from the chart origin (line-search trials,
gradient checks) the two orders agree to rounding.

A CouplingProblem compiles its sample geometry (valid samples, their
bilinear sampling operator S, anchor references, and S^T over the samples
followed by the anchor samples) from the grid shape of the first store it
evaluates, and rejects a later store of other shapes; every term then runs
through one shared pass per evaluation, driven by one term table.  The
track terms add their partials to the tape at once; the pose and grid
terms queue theirs, and at its end the pass adds each of those blocks to
the tape once, the grids as one S^T product over all queued coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigDocument, ConfigInvalid, MissingTargets
from .grad import GRIDS, POSES, TRACKS, ParamStore, Tape
from .pointmap import BilinearSampler
from .pose import REORTHO_PERIOD, Pose, compose, exp_map, project_rotation, so3_left_jacobian
from .tracks import MIN_VISIBLE_WEIGHT

DEFAULT_DELTA = 0.05


def _huber_batch(res, delta, grad=True):
    """Vectorized Huber values, gradients (None unless grad) and norms of (M, 3) residuals."""
    sq = res * res
    # np.linalg.norm(res, axis=1) sums each row as (x^2 + y^2) + z^2 too
    norms = np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])
    quad = norms <= delta
    vals = np.where(quad, 0.5 * norms * norms, delta * (norms - 0.5 * delta))
    if not grad:
        return vals, None, norms
    scale = np.where(quad, 1.0, delta / np.maximum(norms, 1e-300))
    return vals, res * scale[:, None], norms


def _cross(a, b):
    """Row-wise a x b of (M, 3) arrays: np.cross's component products, in its order."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    out = np.empty(a.shape)
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def transform_samples(pose: Pose, frames, pts):
    """R_f p + t_f: each sample p mapped by its frame f's transform of the (T,) stack pose.

    Inside the losses pose is a pass's composed stack exp(omega) * base, so
    each sample gets one rotation.  This is the single code path for pose
    application inside the losses, shared with the synthetic generator for
    bitwise reproducibility.
    """
    frames = np.asarray(frames, dtype=np.int64)
    pts = np.asarray(pts, dtype=np.float64)
    y = np.einsum("mij,mj->mi", pose.rotation.take(frames, axis=0), pts)
    y += pose.translation.take(frames, axis=0)
    return y


class _once:
    """cached_property without its lock: the first access stores the value on the instance.

    A non-data descriptor, so the instance attribute then shadows it.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass
class TermStats:
    """Value and residual statistics of one loss term."""

    name: str
    value: float
    n_samples: int
    n_skipped: int
    residual_mean: float
    residual_max: float


def _stats(name, value, norms, n_skipped):
    if norms is None or norms.size == 0:
        return TermStats(name, 0.0, 0, int(n_skipped), 0.0, 0.0)
    # the sum over the count is np.mean's own formula, without its wrapper
    return TermStats(
        name, float(value), int(norms.size), int(n_skipped),
        float(np.add.reduce(norms)) / norms.size, float(np.maximum.reduce(norms)),
    )


# ---------------------------------------------------------------------------
# Compiled sample geometry and the per-evaluation pass.

@dataclass
class _Geometry:
    """Sample geometry of a problem: pixels, visibility and anchor, for one grid shape."""

    shape: tuple  # (N, T) of the visibility
    grid_shape: tuple  # (T, H, W, 3) of the grids it was compiled for
    tt: np.ndarray  # (M,) frame of each valid sample, row-major over (i, t)
    flat: np.ndarray  # (M,) i * T + t, the sample's row in (N*T, 3) views
    track_idx: np.ndarray  # (3M,) flat * 3 + (0, 1, 2), the samples' entries of the tracks block
    w: np.ndarray  # (M,) visibility weights
    sampler: BilinearSampler  # footprints of the valid samples, then of anchor_ref[a_pos]
    n_skipped: int
    anchor_ref: np.ndarray  # (M,) position of the track's anchor sample, -1 if not valid
    a_pos: np.ndarray  # (Ma,) positions the anchor term may use (before static gating)
    a_flat: np.ndarray  # (Ma,) their flat rows
    a_w: np.ndarray  # (Ma,) their weights vis[i, t] * vis[i, anchor]

    def check(self, store):
        """Raise ValueError unless the store's blocks have the shapes compiled for."""
        n, t = self.shape
        for name, shape in ((GRIDS, self.grid_shape), (TRACKS, (n, t, 3)), (POSES, (t, 6))):
            got = store.view(name).shape
            if got != shape:
                raise ValueError(f"store block {name!r} has shape {got}; "
                                 f"the problem's geometry was compiled for {shape}")


def _compile(grid_shape, query_pixels, visibility, anchor):
    visibility = np.asarray(visibility, dtype=np.float64)
    n, t = visibility.shape
    if not 0 <= anchor < t:
        raise ValueError(f"anchor frame {anchor} outside [0, {t})")
    ii, tt = np.nonzero(visibility >= MIN_VISIBLE_WEIGHT)
    flat = ii * t + tt
    position = np.full(n * t, -1, dtype=np.int64)
    position[flat] = np.arange(flat.size)
    anchor_ref = position[ii * t + anchor]
    w = visibility[ii, tt]
    # visibility lies in [0, 1], so an admitted pair has both samples valid
    w_eff = w * visibility[ii, anchor]
    a_pos = np.flatnonzero((w_eff >= MIN_VISIBLE_WEIGHT) & (tt != anchor) & (anchor_ref >= 0))
    q = np.take(np.asarray(query_pixels, dtype=np.float64).reshape(-1, 2), flat, axis=0)
    # S^T over the samples, then over the anchor sample of each candidate, compiled once
    sampler = BilinearSampler(grid_shape, tt, q[:, 0], q[:, 1], columns=anchor_ref[a_pos])
    return _Geometry(
        (n, t), tuple(grid_shape), tt, flat, (flat[:, None] * 3 + np.arange(3)).reshape(-1),
        w, sampler, int(visibility.size - flat.size), anchor_ref, a_pos, flat[a_pos], w_eff[a_pos],
    )


class _Pass:
    """One evaluation: parameter views, the tape, and intermediates shared by terms."""

    def __init__(self, problem, store, tape):
        self.problem = problem
        self.cfg = problem.config
        self.geo = problem.geometry(store)
        self.track_pts = store.view(TRACKS)
        self.grid_stack = store.view(GRIDS)
        self.tangents = store.view(POSES)
        self.tape = tape
        self.grad = tape is not None  # value-only passes skip the Huber gradients
        self.grid_samples = None  # (M, 3) grid coefficients queued by cons_pointmap
        self.grid_anchors = None  # (candidates k into a_pos, (K, 3) coefficients) of anchor
        self.pose_sums = None  # (T, 6) per-frame sums of (a x g, g) queued by add_poses

    def add_poses(self, frames, y_sel, gvec):
        """Queue d(loss)/d(omega, upsilon) of selected samples as per-frame sums.

        For y = exp(omega) z + upsilon and downstream gradient g, d/d upsilon = g
        and d/d omega = J_l(omega)^T (a x g), a = exp(omega) z = y - upsilon.  J_l
        depends only on the frame, so (a x g, g) is summed per frame here, sample
        by sample from +0.0 and term after term; flush applies J_l^T per frame.
        """
        if self.pose_sums is None:
            self.pose_sums = np.zeros(self.tangents.shape)
        sums = self.pose_sums.reshape(-1)
        idx = (frames[:, None] * 6 + np.arange(3)).reshape(-1)
        a = y_sel - self.tangents[:, 3:].take(frames, axis=0)
        np.add.at(sums, idx, _cross(a, gvec).reshape(-1))
        np.add.at(sums[3:], idx, gvec.reshape(-1))  # upsilon: the same indices, offset by 3

    def add_tracks(self, coeff):
        """Add (M, 3) per-sample partials at the samples' distinct entries of the tracks block."""
        np.add.at(self.tape.grad(TRACKS), self.geo.track_idx, coeff.reshape(-1))

    def add_grids(self, coeff, candidates=None):
        """Queue grid coefficients: a row per sample, or per entry of candidates (into a_pos)."""
        if candidates is None:
            self.grid_samples = coeff
        else:
            self.grid_anchors = (candidates, coeff)

    def flush(self):
        """Add the queued pose and grid gradients to the tape, one Tape.add per block.

        The omega sums become J_l(omega_f)^T times each frame's sum.  At
        zero tangents J_l is exactly the identity, and a tape that starts at
        zero then holds the per-sample sums bit for bit.

        The grid gradients are one S^T product.  It runs over the samples,
        then the anchor candidates: the term order, so each grid value
        accumulates term by term and, within a term, sample by sample; a
        product per term, summed, would associate the additions differently.
        With the anchor term queued, the sampler's compiled S^T acts on one
        zero-filled (M + Ma, 3) array, whose rows of an absent term or of a
        gated-out candidate stay zero.  A zero
        coefficient adds +-0.0, which leaves every accumulator unchanged: a
        CSC product starts from +0.0, and a round-to-nearest sum is -0.0
        only when both addends are, so no accumulator ever holds -0.0.
        """
        sums = self.pose_sums
        if sums is not None:
            sums[:, :3] = np.einsum("tji,tj->ti", self.left_jac, sums[:, :3])
            self.tape.add(POSES, sums)
        coeff = self.grid_samples
        if self.grid_anchors is not None:
            m = self.geo.tt.size
            full = np.zeros((m + self.geo.a_pos.size, 3))
            if coeff is not None:
                full[:m] = coeff
            candidates, anchor_coeff = self.grid_anchors
            full[m + candidates] = anchor_coeff
            coeff = full
        if coeff is not None:
            self.tape.add(GRIDS, self.geo.sampler.adjoint(coeff))

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
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.geo.shape:
            raise ValueError(f"static_mask has shape {mask.shape}; "
                             f"the visibility is {self.geo.shape}")
        return mask.reshape(-1).take(flat)

    @_once
    def targets(self):
        if self.problem.targets is None:
            raise MissingTargets("camera consistency needs anchor targets")
        targets = np.asarray(self.problem.targets, dtype=np.float64)
        if targets.shape != self.geo.shape + (3,):
            raise ValueError(f"targets have shape {targets.shape}; "
                             f"the visibility needs {self.geo.shape + (3,)}")
        return targets.reshape(-1, 3).take(self.geo.flat, axis=0)

    @_once
    def current(self):
        """exp(omega) * base, one (T,) stack per pass; base's values at zero tangents.

        exp and the products are then exact, so only a zero may change sign.
        """
        return compose(exp_map(self.tangents), self.problem.base)

    @_once
    def left_jac(self):  # (T, 3, 3)
        return so3_left_jacobian(self.tangents[:, :3])

    @_once
    def samples(self):
        """The pointmaps sampled at every valid sample (S @ grids)."""
        return self.geo.sampler.gather(self.grid_stack)

    @_once
    def tracked(self):
        return self.track_pts.reshape(-1, 3).take(self.geo.flat, axis=0)

    @_once
    def cons(self):
        vals, g, norms = self.huber(self.tracked - self.samples)
        coeff = self.geo.w[:, None] * g if self.grad else None
        return float(np.add.reduce(self.geo.w * vals)), coeff, norms

    @_once
    def moved(self):
        """Track points through the current relative poses."""
        return transform_samples(self.current, self.geo.tt, self.tracked)

    @_once
    def cam_residual(self):
        """Huber (values, gradients, norms) of every moved track point against its target."""
        return self.huber(self.moved - self.targets)

    @_once
    def cam_track(self):
        vals, g, norms = self.cam_residual
        return float(np.add.reduce(self.geo.w * vals)), g, norms

    @_once
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
            vals, g, norms = (None if x is None else x.take(pos, axis=0) for x in self.cam_residual)
        else:
            tgt = self.samples.take(self.geo.anchor_ref.take(pos), axis=0)
            vals, g, norms = self.huber(self.moved.take(pos, axis=0) - tgt)
        w = self.geo.w.take(pos)
        gvec = w[:, None] * g if self.grad else None
        return float(np.add.reduce(w * vals)), pos, gvec, norms

    @_once
    def anchor(self):
        """Anchor term: (value, positions, candidates, reprojections, gvec, norms).

        candidates are the gated entries of a_pos, positions their samples.
        """
        geo = self.geo
        candidates = np.flatnonzero(self.gate(geo.a_flat, "anchor consistency"))
        pos = geo.a_pos.take(candidates)
        samples = self.samples
        yv = transform_samples(self.current, geo.tt.take(pos), samples.take(pos, axis=0))
        vals, g, norms = self.huber(yv - samples.take(geo.anchor_ref.take(pos), axis=0))
        w = geo.a_w.take(candidates)
        gvec = w[:, None] * g if self.grad else None
        return float(np.add.reduce(w * vals)), pos, candidates, yv, gvec, norms


# Sub-terms: each returns its value and, with a tape, adds its
# partials to the blocks TERM_BLOCKS lists for it.

def _cons_pointmap(ps: _Pass):
    value, coeff, _ = ps.cons
    if ps.tape is not None:
        ps.add_grids(-coeff)
    return value


def _cons_track(ps: _Pass):
    value, coeff, _ = ps.cons
    if ps.tape is not None:
        ps.add_tracks(coeff)
    return value


def _cam_track(ps: _Pass):
    value, g, _ = ps.cam_track
    if ps.tape is not None:
        gp = np.einsum("mji,mj->mi", ps.current.rotation.take(ps.geo.tt, axis=0),
                       ps.geo.w[:, None] * g)
        ps.add_tracks(gp)
    return value


def _cam_pose(ps: _Pass):
    value, pos, gvec, _ = ps.cam_pose
    if ps.tape is not None and pos.size:
        ps.add_poses(ps.geo.tt.take(pos), ps.moved.take(pos, axis=0), gvec)
    return value


def _anchor(ps: _Pass):
    value, pos, candidates, yv, gvec, _ = ps.anchor
    if ps.tape is not None and pos.size:
        ps.add_poses(ps.geo.tt.take(pos), yv, gvec)
        ps.add_grids(-gvec, candidates)
    return value


def _cons_stats(ps: _Pass):
    return ps.cons[2], ps.geo.n_skipped


def _cam_stats(ps: _Pass):
    return ps.cam_track[2], ps.geo.n_skipped


def _anchor_stats(ps: _Pass):
    n, t = ps.geo.shape
    return ps.anchor[-1], n * (t - 1) - ps.anchor[1].size


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
    """One LossBreakdown slot: its config toggle, sub-terms, statistics."""

    slot: str
    toggle: str
    terms: tuple
    stats: Callable


# The term table that drives every evaluation.
GROUPS = (
    _Group("cons", "use_cons", ("cons_pointmap", "cons_track"), _cons_stats),
    _Group("cam", "use_cam", ("cam_pose", "cam_track"), _cam_stats),
    _Group("anchor", "use_anchor", ("anchor",), _anchor_stats),
)


def _run_group(ps: _Pass, group: _Group) -> TermStats:
    value = 0.0
    for term in group.terms:
        value += TERMS[term](ps)
    return _stats(group.slot, value, *group.stats(ps))


def _reprojection_mask(geo, grid_stack, pose, tau, scale_quantile=0.4, scale_factor=3.0):
    """Provisional static mask from reprojection stability under current poses.

    Visible samples are reprojected into the anchor frame through the
    (T,) stack pose, the current relative poses; a sample counts as static
    when it stays within tau_eff of its track's temporal median.
    tau_eff is per frame: tau inflated to scale_factor times a low quantile
    of that frame's deviations.  Early in an optimization, pose error alone
    moves every reprojection of a frame coherently, so a per-frame scale
    keeps the consistent majority admitted (no frame starves of gradient),
    while genuinely dynamic samples sit far above their frame's quantile
    and are rejected; as the poses converge the threshold tightens to tau.
    """
    n, t = geo.shape
    if geo.flat.size == 0:
        return np.zeros((n, t), dtype=bool)
    repro = transform_samples(pose, geo.tt, geo.sampler.gather(grid_stack))

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
    """Term toggles, Huber delta and pose target of the coupled objective."""

    delta: float = DEFAULT_DELTA
    use_cons: bool = True
    use_cam: bool = True
    use_anchor: bool = False
    pose_target: str = "gt"  # or "anchor_sample"
    gate_static: bool = True

    def _check_rules(self):
        if not self.delta > 0.0:
            raise ConfigInvalid("delta", "must be positive")
        if self.pose_target not in ("gt", "anchor_sample"):
            raise ConfigInvalid("pose_target", "must be 'gt' or 'anchor_sample'")


@dataclass
class LossBreakdown:
    """Statistics of the enabled term groups, keyed by GROUPS slot, and their total."""

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
    every later store must share); static_mask, targets, base poses, config
    and tau_static may be reassigned between evaluations.  A store, static
    mask or targets of another shape raises ValueError.
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
    _folds: int = field(default=0, init=False, repr=False, compare=False)

    def geometry(self, store: ParamStore) -> _Geometry:
        """The sample geometry, compiled for the grid shape of the first store evaluated.

        A store whose blocks have other shapes than those raises ValueError.
        """
        if self._geometry is None:
            self._geometry = _compile(store.view(GRIDS).shape, self.query_pixels,
                                      self.visibility, self.anchor)
        self._geometry.check(store)
        return self._geometry

    def evaluate(self, store: ParamStore, tape: Optional[Tape] = None) -> LossBreakdown:
        """Enabled terms as a breakdown; without a tape no gradients are formed."""
        ps = _Pass(self, store, tape)
        terms, total = {}, 0.0
        for group in GROUPS:
            if getattr(self.config, group.toggle):
                terms[group.slot] = _run_group(ps, group)
                total += terms[group.slot].value
        ps.flush()
        return LossBreakdown(terms, total)

    def evaluate_term(self, store: ParamStore, term: str, tape: Optional[Tape] = None) -> float:
        """One sub-term in isolation (for gradient verification)."""
        if term not in TERMS:
            raise ValueError(f"unknown term {term!r}")
        ps = _Pass(self, store, tape)
        value = TERMS[term](ps)
        ps.flush()
        return value

    def active_terms(self):
        return [t for g in GROUPS if getattr(self.config, g.toggle) for t in g.terms]

    def refresh_static_mask(self, store: ParamStore):
        """Recompute the provisional static mask from the current state."""
        self.static_mask = _reprojection_mask(
            self.geometry(store), store.view(GRIDS), self.current_poses(store), self.tau_static,
        )

    def current_poses(self, store: ParamStore) -> Pose:
        """The relative poses of the current state, exp(tangents) * base."""
        return compose(exp_map(store.view(POSES)), self.base)

    def fold_pose_tangents(self, store: ParamStore):
        """Fold a nonzero tangent block into the base poses and zero the block.

        Every REORTHO_PERIOD-th such fold re-projects the base rotations onto SO(3).
        """
        tangents = store.view(POSES)
        if not np.any(tangents):
            return
        self.base = self.current_poses(store)
        self._folds += 1
        if self._folds % REORTHO_PERIOD == 0:
            self.base.rotation = project_rotation(self.base.rotation)
        tangents.fill(0.0)

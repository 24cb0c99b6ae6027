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
blocks its record in TERMS writes; acceptance criterion 2 and
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
through one shared pass per evaluation, driven by the one table TERMS.  The
geometry also compiles the pass's workspace and splits the samples into
blocks of whole tracks, one per CPU on a large problem (MIN_BLOCK_SAMPLES):
the blocks run on concurrent threads and write disjoint rows.  The track
terms add their partials to the tape at once, each block at its own
tracks; the pose and grid terms queue theirs, and after the blocks have
joined the pass adds each of those blocks of the tape once, in sample
order, the grids as one S^T product over all queued coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import parallel
from .errors import ConfigDocument, ConfigInvalid, MissingTargets
from .grad import GRIDS, POSES, TRACKS, ParamStore, Tape
from .pointmap import BilinearSampler
from .pose import REORTHO_PERIOD, Pose, compose, exp_map, project_rotation, so3_left_jacobian
from .tracks import MIN_VISIBLE_WEIGHT

DEFAULT_DELTA = 0.05
# Fewest samples per block of tracks: a pass over fewer than twice this many
# samples runs as one block, in the calling thread.  On two CPUs, two blocks
# were slower than one at 8,192 samples and faster from about 16,384.
MIN_BLOCK_SAMPLES = 8192
_XYZ = np.arange(3)


def _huber_batch(res, delta, grad, out):
    """Vectorized Huber values, gradients (None unless grad) and norms of (M, 3) residuals.

    out holds the arrays (vals, g, norms) that receive the results, then
    (M,) float, (M, 3) float and (M,) bool scratch; g may be res itself.
    """
    vals, g, norms, scale, sq, quad = out
    np.multiply(res, res, out=sq)
    # np.linalg.norm(res, axis=1) sums each row as (x^2 + y^2) + z^2 too
    np.add(sq[:, 0], sq[:, 1], out=norms)
    np.add(norms, sq[:, 2], out=norms)
    np.sqrt(norms, out=norms)
    np.less_equal(norms, delta, out=quad)
    # vals = where(quad, 0.5 * norms * norms, delta * (norms - 0.5 * delta))
    np.multiply(0.5, norms, out=scale)
    np.multiply(scale, norms, out=scale)
    np.subtract(norms, 0.5 * delta, out=vals)
    np.multiply(delta, vals, out=vals)
    np.copyto(vals, scale, where=quad)
    if not grad:
        return vals, None, norms
    # g = res * where(quad, 1.0, delta / max(norms, 1e-300))
    np.maximum(norms, 1e-300, out=scale)
    np.divide(delta, scale, out=scale)
    np.copyto(scale, 1.0, where=quad)
    return vals, np.multiply(res, scale[:, None], out=g), norms


def _cross(a, b, out, scratch):
    """Row-wise a x b of (M, 3) arrays: np.cross's component products, in its order.

    out and scratch receive the result and an (M,) product.
    """
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    for o, x, y, u, v in zip(out.T, (a1, a2, a0), (b2, b0, b1), (a2, a0, a1), (b1, b2, b0)):
        np.multiply(x, y, out=o)
        np.multiply(u, v, out=scratch)
        np.subtract(o, scratch, out=o)
    return out


def transform_samples(pose: Pose, frames, pts):
    """R_f p + t_f: each sample p mapped by its frame f's transform of the (T,) stack pose.

    Inside the losses pose is a pass's composed stack exp(omega) * base, so
    each sample gets one rotation; a pass applies these same operations to
    its blocks of samples (``_Block.transform``).  The synthetic generator
    maps its points through this function, so equal inputs map bit for bit
    alike.
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
# Compiled sample geometry, its workspace, and the per-evaluation pass.

class _Workspace:
    """Every array a pass writes, allocated once with the geometry.

    The sample rows (M of them) are split among the blocks by sample range.
    The compact rows of a selection (the camera term's gated samples, the
    anchor term's candidates) hold each block's selected samples after the
    earlier blocks', so the values and norms summed after the join are in
    sample order.  A block uses the head of its own sample rows of the
    scratch for its selected samples, and leaves its pose partials in rows
    that it no longer reads: the camera term's in its tracked points and
    camera gradients, the anchor term's in its rotations.  Once the blocks
    have joined, the pose sums take their entry indices from the sampled
    points' rows, and the S^T product then writes its result over the
    rotations and the two vector scratch rows.  No array is larger than the
    rotations or the grid gradient, the largest temporaries of a pass
    without a workspace.
    """

    def __init__(self, m, ma, t, n_points):
        self.samples, self.tracked, self.cam_g, self.s3, self.t3, self.u3 = (
            np.empty((m, 3)) for _ in range(6))
        arena = np.empty(max(11 * m, 3 * n_points))
        self.rot = arena[:9 * m].reshape(m, 3, 3)
        self.v1, self.v2 = arena[9 * m:10 * m], arena[10 * m:11 * m]
        self.grid_grad = arena[:3 * n_points]
        self.pose_idx = self.samples.view(np.int64)  # entries of the pose sums, after the join
        self.quad = np.empty(m, dtype=bool)
        # read after the join: the sample rows' weighted values and norms
        self.cons_wv, self.cons_norms, self.cam_wv, self.cam_norms = (
            np.empty(m) for _ in range(4))
        # compact rows: selections, their weighted values and norms, the partials' frames
        self.c_sel, self.a_sel = np.empty(m, dtype=bool), np.empty(ma, dtype=bool)
        self.c_frames, self.a_frames = np.empty(m, dtype=np.int64), np.empty(ma, dtype=np.int64)
        self.c_wv, self.a_wv, self.a_norms = np.empty(m), np.empty(ma), np.empty(ma)
        # S^T's coefficient rows: the samples', then the anchor candidates'
        self.grid_coeff = np.empty((m + ma, 3))
        self.pose_sums = np.empty((t, 6))
        self.pose_flat = self.pose_sums.reshape(-1)


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
    bounds: tuple  # (P + 1,) first sample of each of the P blocks of tracks, then M
    a_bounds: tuple  # (P + 1,) the blocks' bounds in a_pos
    has_anchor: np.ndarray  # (M,) anchor_ref >= 0
    positions: np.ndarray  # (M,) 0, 1, ..., M - 1
    ws: _Workspace

    def check(self, store):
        """Raise ValueError unless the store's blocks have the shapes compiled for."""
        n, t = self.shape
        for name, shape in ((GRIDS, self.grid_shape), (TRACKS, (n, t, 3)), (POSES, (t, 6))):
            got = store.view(name).shape
            if got != shape:
                raise ValueError(f"store block {name!r} has shape {got}; "
                                 f"the problem's geometry was compiled for {shape}")


def _block_bounds(ii, n, m):
    """Sample bounds of P blocks of whole tracks, about M / P samples each.

    P = max(1, min(CPUs, N, M // MIN_BLOCK_SAMPLES)).  Samples are ordered
    track-major (ii is each sample's track), so a block of tracks is a slice
    of the samples, and a track's anchor sample lies in its own block.
    Tracks are not split, so a block may come out empty; it is dropped.
    """
    p = max(1, min(parallel.cpu_count(), n, m // MIN_BLOCK_SAMPLES))
    starts = np.searchsorted(ii, np.arange(n + 1))  # each track's first sample, then M
    cuts = starts[np.searchsorted(starts, m * np.arange(1, p) / p)]
    return np.concatenate(([0], np.unique(cuts[(cuts > 0) & (cuts < m)]), [m]))


def _compile(grid_shape, query_pixels, visibility, anchor):
    visibility = np.asarray(visibility, dtype=np.float64)
    n, t = visibility.shape
    if not 0 <= anchor < t:
        raise ValueError(f"anchor frame {anchor} outside [0, {t})")
    ii, tt = np.nonzero(visibility >= MIN_VISIBLE_WEIGHT)
    flat = ii * t + tt
    m = flat.size
    position = np.full(n * t, -1, dtype=np.int64)
    position[flat] = np.arange(m)
    anchor_ref = position[ii * t + anchor]
    w = visibility[ii, tt]
    # visibility lies in [0, 1], so an admitted pair has both samples valid
    w_eff = w * visibility[ii, anchor]
    a_pos = np.flatnonzero((w_eff >= MIN_VISIBLE_WEIGHT) & (tt != anchor) & (anchor_ref >= 0))
    q = np.take(np.asarray(query_pixels, dtype=np.float64).reshape(-1, 2), flat, axis=0)
    # S^T over the samples, then over the anchor sample of each candidate, compiled once
    sampler = BilinearSampler(grid_shape, tt, q[:, 0], q[:, 1], columns=anchor_ref[a_pos])
    bounds = tuple(_block_bounds(ii, n, m).tolist())
    track_idx = (flat[:, None] * 3 + np.arange(3)).reshape(-1)
    ws = _Workspace(m, a_pos.size, t, sampler.n_points)
    return _Geometry(
        (n, t), tuple(grid_shape), tt, flat, track_idx,
        w, sampler, int(visibility.size - m), anchor_ref, a_pos, flat[a_pos], w_eff[a_pos],
        bounds, tuple(np.searchsorted(a_pos, bounds).tolist()), anchor_ref >= 0, np.arange(m),
        ws,
    )


class _Block:
    """Samples [lo, hi) of one block of tracks in the pass ps.

    A block writes what it forms into the workspace: its rows of the sample
    arrays, and its span of the compact rows.  What the calling thread
    prepared for the whole pass it reads through ps, so the blocks of a pass
    run on concurrent threads.  Scratch rows are reused term after term
    (cons, cam, anchor): the moved track points, for one, do not outlive the
    anchor term.
    """

    def __init__(self, ps, b):
        self.ps, self.b = ps, b
        self.geo, self.ws, self.grad, self.delta = ps.geo, ps.ws, ps.grad, ps.cfg.delta
        self.lo, self.hi = self.geo.bounds[b:b + 2]
        self.s = slice(self.lo, self.hi)  # the block's rows of every per-sample array

    def run(self, terms):
        """The block's share of the given sub-terms (in TERMS order), then its grid rows."""
        for term in terms:
            TERMS[term].block(self)
        if self.ps.queue_grids:
            rows = self.ws.grid_coeff[self.s]
            if "cons_pointmap" in terms:
                np.negative(rows, out=rows)  # the cons partials, formed in these rows
            else:
                rows.fill(0.0)

    def span(self, entries, bounds):
        """(entries, compact rows, head rows): the block's share of increasing entries.

        bounds split the rows the entries index among the blocks; the head
        rows are as many of the block's own sample rows.
        """
        c = slice(0, entries.size)
        if len(bounds) > 2:
            c = slice(*np.searchsorted(entries, bounds[self.b:self.b + 2]).tolist())
        return entries[c], c, slice(self.lo, self.lo + c.stop - c.start)

    @_once
    def cam_span(self):
        """The span of the camera term's pose-half samples."""
        return self.span(self.ps.cam_positions, self.geo.bounds)

    @_once
    def anchor_span(self):
        """The span of the anchor term's candidates."""
        return self.span(self.ps.anchor_candidates, self.geo.a_bounds)

    def add_tracks(self, coeff):
        """Add the block's (k, 3) per-sample partials at their entries of the tracks block."""
        np.add.at(self.ps.tape.grad(TRACKS), self.geo.track_idx[3 * self.lo:3 * self.hi],
                  coeff.reshape(-1))

    @_once
    def samples(self):
        """The pointmaps sampled at the block's samples: its rows of S @ grids."""
        return self.geo.sampler.gather(self.ps.grid_stack, self.ws.samples[self.s], self.lo)

    @_once
    def tracked(self):
        return self.ps.track_pts.reshape(-1, 3).take(
            self.geo.flat[self.s], axis=0, out=self.ws.tracked[self.s], mode="clip")

    @_once
    def rot(self):
        """The rotation of each of the block's samples' frame in the current poses."""
        return self.ps.current.rotation.take(self.geo.tt[self.s], axis=0,
                                             out=self.ws.rot[self.s], mode="clip")

    def transform(self, frames, rot, pts, out, shift):
        """transform_samples(current, frames, pts), written into out.

        rot holds the frames' rotations, and shift receives the translations.
        """
        np.einsum("mij,mj->mi", rot, pts, out=out)
        self.ps.current.translation.take(frames, axis=0, out=shift, mode="clip")
        return np.add(out, shift, out=out)

    @_once
    def cons(self):
        """(w * values, w * gradients, norms); the gradients in the block's grid rows."""
        ws, s = self.ws, self.s
        res = np.subtract(self.tracked, self.samples, out=ws.grid_coeff[s])
        vals, g, norms = _huber_batch(res, self.delta, self.grad, (
            ws.cons_wv[s], res, ws.cons_norms[s], ws.v1[s], ws.s3[s], ws.quad[s]))
        w = self.geo.w[s]
        np.multiply(w, vals, out=vals)
        if g is not None:
            np.multiply(w[:, None], g, out=g)
        return vals, g, norms

    @_once
    def moved(self):
        """Track points through the current relative poses."""
        s = self.s
        return self.transform(self.geo.tt[s], self.rot, self.tracked, self.ws.t3[s], self.ws.s3[s])

    @_once
    def cam_residual(self):
        """(w * values, gradients, norms) of every moved track point against its target."""
        ws, s = self.ws, self.s
        res = self.ps.targets.take(self.geo.flat[s], axis=0, out=ws.cam_g[s], mode="clip")
        np.subtract(self.moved, res, out=res)
        vals, g, norms = _huber_batch(res, self.delta, self.grad, (
            ws.cam_wv[s], res, ws.cam_norms[s], ws.v1[s], ws.s3[s], ws.quad[s]))
        np.multiply(self.geo.w[s], vals, out=vals)
        return vals, g, norms

    @_once
    def cam_wg(self):
        """w * cam_residual's gradients, written in their place."""
        g = self.cam_residual[1]
        return np.multiply(self.geo.w[self.s, None], g, out=g)

    @_once
    def cam_pose(self):
        """Pose half: (w * values, positions, gvec, norms) of the block's gated samples.

        The values are compact rows, gvec the head of the block's u3 rows;
        norms is None for the gt target, whose norms are cam_residual's.
        """
        ws, geo = self.ws, self.geo
        pos, c, head = self.cam_span
        gvec = ws.u3[head] if self.grad else None
        if not pos.size:
            return ws.c_wv[c], pos, gvec, None
        if self.ps.cfg.pose_target == "gt":
            # the gated subset of cam_residual's; Huber acts per sample
            self.cam_residual
            vals = ws.cam_wv.take(pos, out=ws.c_wv[c], mode="clip")
            if gvec is not None:
                self.cam_wg
                ws.cam_g.take(pos, axis=0, out=gvec, mode="clip")
            return vals, pos, gvec, None
        self.samples, self.moved
        y = ws.t3.take(pos, axis=0, out=ws.s3[head], mode="clip")
        ref = geo.anchor_ref.take(pos, out=ws.c_frames[c], mode="clip")
        res = ws.samples.take(ref, axis=0, out=ws.u3[head], mode="clip")
        np.subtract(y, res, out=res)
        vals, g, norms = _huber_batch(res, self.delta, self.grad, (
            ws.c_wv[c], res, ws.v2[head], ws.v1[head], ws.t3[head], ws.quad[head]))
        w = geo.w.take(pos, out=ws.v1[head], mode="clip")
        np.multiply(w, vals, out=vals)
        if g is not None:
            np.multiply(w[:, None], g, out=g)
        return vals, pos, g, norms

    @_once
    def anchor(self):
        """Anchor term: (w * values, positions, candidates, reprojections, gvec, norms).

        candidates are the block's gated entries of a_pos, positions their
        samples; values and norms are compact rows, gvec follows in the
        block's rotation rows once the reprojections have read them.
        """
        ws, geo = self.ws, self.geo
        cand, a, head = self.anchor_span
        pos = geo.a_pos.take(cand, out=ws.v2[head].view(np.int64), mode="clip")
        yv = ws.t3[head]
        if pos.size:
            frames = geo.tt.take(pos, out=ws.a_frames[a], mode="clip")
            rot = self.ps.current.rotation.take(frames, axis=0, out=ws.rot[head], mode="clip")
            self.samples
            pts = ws.samples.take(pos, axis=0, out=ws.u3[head], mode="clip")
            self.transform(frames, rot, pts, yv, ws.s3[head])
        ref = geo.anchor_ref.take(pos, out=ws.a_frames[a], mode="clip")
        res = ws.samples.take(ref, axis=0, out=ws.s3[head], mode="clip")
        np.subtract(yv, res, out=res)
        vals, g, norms = _huber_batch(res, self.delta, self.grad, (
            ws.a_wv[a], res, ws.a_norms[a], ws.v1[head], ws.u3[head], ws.quad[head]))
        w = geo.a_w.take(cand, out=ws.v1[head], mode="clip")
        np.multiply(w, vals, out=vals)
        gvec = None
        if g is not None:
            # the block's rotations are read: its gvec and a x g follow in their rows
            gvec = self.rot_rows(0, pos.size)
            np.multiply(w[:, None], g, out=gvec)
        return vals, pos, cand, yv, gvec, norms

    def rot_rows(self, k, n):
        """The k-th (n, 3) slab of the block's rotation rows."""
        start = 9 * self.lo + 3 * k * n
        return self.ws.rot.reshape(-1)[start:start + 3 * n].reshape(n, 3)

    def pose_partials(self, y, pos, gvec, frames, cross, upsilon):
        """(frames, a x g, g) of selected samples, for the per-frame sums after the join.

        For y = exp(omega) z + upsilon and downstream gradient g, d/d upsilon = g
        and d/d omega = J_l(omega)^T (a x g), a = exp(omega) z = y - upsilon.
        y turns into a, and upsilon receives the samples' upsilon.
        """
        self.geo.tt.take(pos, out=frames, mode="clip")
        self.ps.tangents[:, 3:].take(frames, axis=0, out=upsilon, mode="clip")
        np.subtract(y, upsilon, out=y)
        return frames, _cross(y, gvec, cross, self.ws.v1[self.lo:self.lo + pos.size]), gvec


class _Pass:
    """One evaluation: parameter views, the tape, quantities shared by its blocks.

    The calling thread prepares the pass (current poses, targets, gated
    positions), runs the blocks, and then does what depends on the order
    of the samples: each term's sum, the per-frame pose sums, and the one
    S^T product.
    """

    def __init__(self, problem, store, tape):
        self.problem = problem
        self.cfg = problem.config
        self.geo = problem.geometry(store)
        self.ws = self.geo.ws
        self.track_pts = store.view(TRACKS)
        self.grid_stack = store.view(GRIDS)
        self.tangents = store.view(POSES)
        self.tape = tape
        self.grad = tape is not None  # value-only passes skip the Huber gradients
        self.queue_grids = self.queue_anchor = False
        self.pose_parts = {}  # per pose-writing term, each block's (frames, a x g, g) rows

    def gate(self, flat, what, out):
        """Static mask at flat (i * T + t) sample rows, into out; None when ungated.

        Read on every pass, so a reassigned static_mask takes effect at once.
        """
        if not self.cfg.gate_static:
            return None
        mask = self.problem.static_mask
        if mask is None:
            raise ValueError(f"{what} needs a static mask (use all-ones to disable gating)")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.geo.shape:
            raise ValueError(f"static_mask has shape {mask.shape}; "
                             f"the visibility is {self.geo.shape}")
        return mask.reshape(-1).take(flat, out=out, mode="clip")

    @_once
    def cam_positions(self):
        """The samples of the camera term's pose half."""
        target = self.cfg.pose_target
        if target not in ("gt", "anchor_sample"):
            raise ValueError(f"unknown pose_target {target!r}")
        geo = self.geo
        sel = self.gate(geo.flat, "camera consistency", self.ws.c_sel)
        if target == "anchor_sample":
            sel = geo.has_anchor if sel is None else np.logical_and(sel, geo.has_anchor, out=sel)
        return geo.positions if sel is None else np.flatnonzero(sel)

    @_once
    def anchor_candidates(self):
        """The gated entries of a_pos."""
        geo = self.geo
        sel = self.gate(geo.a_flat, "anchor consistency", self.ws.a_sel)
        return geo.positions[:geo.a_pos.size] if sel is None else np.flatnonzero(sel)

    @_once
    def targets(self):
        """The anchor targets as (N * T, 3) rows."""
        if self.problem.targets is None:
            raise MissingTargets("camera consistency needs anchor targets")
        targets = np.asarray(self.problem.targets, dtype=np.float64)
        if targets.shape != self.geo.shape + (3,):
            raise ValueError(f"targets have shape {targets.shape}; "
                             f"the visibility needs {self.geo.shape + (3,)}")
        return targets.reshape(-1, 3)

    @_once
    def current(self):
        """exp(omega) * base, one (T,) stack per pass; base's values at zero tangents.

        exp and the products are then exact, so only a zero may change sign.
        """
        return compose(exp_map(self.tangents), self.problem.base)

    @_once
    def cons_value(self):  # both halves' value
        return _value(self.ws.cons_wv)

    @_once
    def left_jac(self):  # (T, 3, 3)
        return so3_left_jacobian(self.tangents[:, :3])

    def run(self, terms):
        """The sub-terms' values, in order, with their partials added to the tape."""
        for term in terms:
            TERMS[term].prepare(self)
        order = [term for term in TERMS if term in terms]
        blocks = [_Block(self, b) for b in range(len(self.geo.bounds) - 1)]
        if len(blocks) == 1:
            blocks[0].run(order)
        elif terms:
            parallel.map_ordered(lambda bk: bk.run(order), blocks)
        values = [TERMS[term].value(self) for term in terms]
        self.flush()
        return values

    def flush(self):
        """Add the queued pose and grid gradients to the tape, one Tape.add per block.

        The pose partials are summed per frame from +0.0, term after term and,
        within a term, block after block and sample by sample; the omega
        sums then become J_l(omega_f)^T times each frame's sum.  At zero
        tangents J_l is exactly the identity, and a tape that starts at zero
        then holds the per-sample sums bit for bit.

        The grid gradients are one S^T product.  It runs over the samples,
        then the anchor candidates: the term order, so each grid value
        accumulates term by term and, within a term, sample by sample; a
        product per term, summed, would associate the additions differently.
        With the anchor term queued, the sampler's compiled S^T acts on the
        (M + Ma, 3) coefficient rows, whose rows of an absent term or of a
        gated-out candidate are zero.  A zero
        coefficient adds +-0.0, which leaves every accumulator unchanged: a
        CSC product starts from +0.0, and a round-to-nearest sum is -0.0
        only when both addends are, so no accumulator ever holds -0.0.
        """
        ws = self.ws
        if self.pose_parts:
            sums, flat = ws.pose_sums, ws.pose_flat
            sums.fill(0.0)
            for parts in self.pose_parts.values():
                for frames, cross, g in filter(None, parts):
                    # each sample's entries frames * 6 + (0, 1, 2)
                    idx = ws.pose_idx[:frames.size]
                    np.multiply(frames[:, None], 6, out=idx)
                    np.add(idx, _XYZ, out=idx)
                    idx = idx.reshape(-1)
                    np.add.at(flat, idx, cross.reshape(-1))
                    np.add.at(flat[3:], idx, g.reshape(-1))  # upsilon: offset by 3
            sums[:, :3] = np.einsum("tji,tj->ti", self.left_jac, sums[:, :3])
            self.tape.add(POSES, sums)
        if self.queue_grids:
            coeff = ws.grid_coeff if self.queue_anchor else ws.grid_coeff[:self.geo.tt.size]
            self.tape.add(GRIDS, self.geo.sampler.adjoint(coeff, ws.grid_grad))


# The parts of each sub-term (see _Term).

def _prepare_cons_pointmap(ps: _Pass):
    ps.queue_grids |= ps.grad


def _prepare_cam_pose(ps: _Pass):
    if ps.cam_positions.size:
        if ps.cfg.pose_target == "gt":
            ps.targets
        ps.current
        if ps.grad:
            ps.pose_parts["cam_pose"] = [None] * (len(ps.geo.bounds) - 1)


def _prepare_cam_track(ps: _Pass):
    ps.targets
    ps.current


def _prepare_anchor(ps: _Pass):
    k = ps.anchor_candidates.size
    ps.current
    if ps.grad and k:
        ps.pose_parts["anchor"] = [None] * (len(ps.geo.bounds) - 1)
        ps.queue_grids = ps.queue_anchor = True


def _cons_pointmap(bk: _Block):
    bk.cons  # its partials are the block's grid coefficient rows, negated at the block's end


def _cons_track(bk: _Block):
    _, coeff, _ = bk.cons
    if coeff is not None:
        bk.add_tracks(coeff)


def _cam_track(bk: _Block):
    bk.cam_residual
    if bk.grad:
        bk.add_tracks(np.einsum("mji,mj->mi", bk.rot, bk.cam_wg, out=bk.ws.s3[bk.s]))


def _cam_pose(bk: _Block):
    _, pos, gvec, _ = bk.cam_pose
    if gvec is not None and pos.size:
        ws = bk.ws
        _, c, head = bk.cam_span
        y = ws.s3[head]
        if bk.ps.cfg.pose_target == "gt":
            ws.t3.take(pos, axis=0, out=y, mode="clip")  # the moved points
        # gvec and a x g go to rows that the block no longer reads
        g = ws.tracked[head]
        np.copyto(g, gvec)
        bk.ps.pose_parts["cam_pose"][bk.b] = bk.pose_partials(
            y, pos, g, ws.c_frames[c], ws.cam_g[head], ws.u3[head])


def _anchor(bk: _Block):
    _, pos, cand, yv, gvec, _ = bk.anchor
    ws = bk.ws
    if bk.ps.queue_anchor:
        _, a, head = bk.anchor_span
        bk.ps.pose_parts["anchor"][bk.b] = bk.pose_partials(
            yv, pos, gvec, ws.a_frames[a], bk.rot_rows(1, pos.size), ws.u3[head])
        rows = ws.grid_coeff[bk.geo.tt.size:]
        rows[bk.geo.a_bounds[bk.b]:bk.geo.a_bounds[bk.b + 1]].fill(0.0)
        rows[cand] = np.negative(gvec, out=ws.s3[head])


def _value(wv):
    return float(np.add.reduce(wv))


def _cons_value(ps: _Pass):
    return ps.cons_value


def _cam_pose_value(ps: _Pass):
    return _value(ps.ws.c_wv[:ps.cam_positions.size])


def _cam_track_value(ps: _Pass):
    return _value(ps.ws.cam_wv)


def _anchor_value(ps: _Pass):
    return _value(ps.ws.a_wv[:ps.anchor_candidates.size])


class _Term(NamedTuple):
    """One sub-term: the blocks it writes, and the three parts a pass runs it in.

    writes are the blocks the sub-term differentiates, its non-detached
    factors.  prepare runs in the calling thread: the checks, gating and
    queueing that involve the whole pass.  block runs on each block of
    tracks and adds the track partials to the tape at once.  value reads
    the sub-term's value after the blocks have joined.
    """

    writes: tuple
    prepare: Callable
    block: Callable
    value: Callable


# The sub-term table, in the order a block forms the sub-terms: the pose
# half of the camera term after the track half, whose gradients it then
# writes over.  The pose partials are summed after the join, so the tape's
# writes keep the terms' order.
TERMS = {
    "cons_pointmap": _Term((GRIDS,), _prepare_cons_pointmap, _cons_pointmap, _cons_value),
    "cons_track": _Term((TRACKS,), lambda ps: None, _cons_track, _cons_value),
    "cam_track": _Term((TRACKS,), _prepare_cam_track, _cam_track, _cam_track_value),
    "cam_pose": _Term((POSES,), _prepare_cam_pose, _cam_pose, _cam_pose_value),
    "anchor": _Term((POSES, GRIDS), _prepare_anchor, _anchor, _anchor_value),
}


def _cons_stats(ps: _Pass):
    return ps.ws.cons_norms, ps.geo.n_skipped


def _cam_stats(ps: _Pass):
    return ps.ws.cam_norms, ps.geo.n_skipped


def _anchor_stats(ps: _Pass):
    n, t = ps.geo.shape
    k = ps.anchor_candidates.size
    return ps.ws.a_norms[:k], n * (t - 1) - k


class _Group(NamedTuple):
    """One LossBreakdown slot: its config toggle, sub-terms, statistics."""

    slot: str
    toggle: str
    terms: tuple
    stats: Callable


# The breakdown's slots, each a group of sub-terms; a slot's value sums its
# sub-terms' in this order.
GROUPS = (
    _Group("cons", "use_cons", ("cons_pointmap", "cons_track"), _cons_stats),
    _Group("cam", "use_cam", ("cam_pose", "cam_track"), _cam_stats),
    _Group("anchor", "use_anchor", ("anchor",), _anchor_stats),
)


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

    The pass workspace belongs to the problem, so a problem runs one
    evaluation at a time; a pass's intermediates hold only until its flush,
    which reuses the samples rows for the pose sums' indices.
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
        groups = [g for g in GROUPS if getattr(self.config, g.toggle)]
        values = iter(ps.run([term for g in groups for term in g.terms]))
        terms, total = {}, 0.0
        for group in groups:
            value = 0.0
            for _ in group.terms:
                value += next(values)
            stats = terms[group.slot] = _stats(group.slot, value, *group.stats(ps))
            total += stats.value
        return LossBreakdown(terms, total)

    def evaluate_term(self, store: ParamStore, term: str, tape: Optional[Tape] = None) -> float:
        """One sub-term in isolation (for gradient verification)."""
        if term not in TERMS:
            raise ValueError(f"unknown term {term!r}")
        return _Pass(self, store, tape).run([term])[0]

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

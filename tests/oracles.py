"""Reference implementations used as test oracles.

The metric oracles are straightforward loops over 4x4 matrices and raw
arrays, sharing no code with the package beyond numpy/scipy primitives.
The sampling, pose-application, pose- and grid-gradient, Huber,
pass-kernel, tape, geometric-median, look-at, SO(3), single-pose,
reprojection-mask, row-file, relative-pose-metric and point-cloud references
below are the package's earlier per-call formulations, kept to pin the
compiled and batched paths bit for bit.  forbid_anchor_targets guards the
tests that must run without 3D labels.  pass_huber, pass_cross and
one_block give tests the pass's kernels on fresh arrays and its per-sample
intermediates; sampling_matrix gives them a sampler's S as a public scipy
matrix.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from trajcouple import synthetic
from trajcouple.errors import DegenerateConfiguration, LogNearPi
from trajcouple.grad import GRIDS, POSES, TRACKS, Tape
from trajcouple.losses import _Block, _cross, _huber_batch, _Pass, transform_samples
from trajcouple.metrics import (POSE_MAX_THRESHOLD, PointmapResult, RelPoseAccuracy, RpeResult,
                                _smallest_eigenvectors)
from trajcouple.pointmap import BilinearSampler, check_domain
from trajcouple.pose import _SMALL_ANGLE, Pose, Similarity, _so3_parts, umeyama
from trajcouple.pose import compose as compose_stack
from trajcouple.pose import inverse as inverse_stack
from trajcouple.tracks import MIN_VISIBLE_WEIGHT


# ---------------------------------------------------------------------------
# Bilinear sampling.

@dataclass
class PixelLocation:
    """Continuous pixel coordinates (x right, y down)."""

    x: float
    y: float


def _as_xy(u):
    if isinstance(u, PixelLocation):
        return float(u.x), float(u.y)
    u = np.asarray(u, dtype=np.float64).reshape(2)
    return float(u[0]), float(u[1])


def corner_data(height, width, x, y):
    """Bilinear corner rows/cols/weights, trailing axis of 4 corners
    ordered (y0,x0), (y0,x1), (y1,x0), (y1,x1)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_domain(height, width, x, y)
    if width > 1:
        x0 = np.clip(np.floor(x), 0, width - 2).astype(np.int64)
        fx = x - x0
    else:
        x0 = np.zeros(x.shape, dtype=np.int64)
        fx = np.zeros_like(x)
    if height > 1:
        y0 = np.clip(np.floor(y), 0, height - 2).astype(np.int64)
        fy = y - y0
    else:
        y0 = np.zeros(y.shape, dtype=np.int64)
        fy = np.zeros_like(y)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    rows = np.stack([y0, y0, y1, y1], axis=-1)
    cols = np.stack([x0, x1, x0, x1], axis=-1)
    weights = np.stack(
        [(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx], axis=-1
    )
    return rows, cols, weights


def bilinear_gather(stack, frames, x, y):
    """Per-call sampling of a (T, H, W, 3) stack by 4-D fancy indexing.

    Returns (values (M, 3), rows (M, 4), cols (M, 4), weights (M, 4)).
    """
    stack = np.asarray(stack, dtype=np.float64)
    frames = np.asarray(frames, dtype=np.int64)
    rows, cols, weights = corner_data(stack.shape[1], stack.shape[2], x, y)
    corners = stack[frames[:, None], rows, cols, :]
    return np.einsum("mk,mkc->mc", weights, corners), rows, cols, weights


def sampling_matrix(op):
    """S of a BilinearSampler as a public scipy CSR matrix over its corner arrays.

    Built from data, indices and indptr as they are, four entries per row in
    corner order; a COO pass would sum a sample's repeated corners.
    """
    m = len(op.rows)
    indptr = np.arange(0, 4 * m + 1, 4)
    return csr_matrix((op.weights.reshape(-1), op.rows.reshape(-1), indptr),
                      shape=(m, op.n_points))


def sample(grid, u):
    """One bilinear sample of a PointMapGrid through the package's operator."""
    x, y = _as_xy(u)
    sampler = BilinearSampler((1,) + grid.points.shape, [0], [x], [y])
    return sampler.gather(grid.points)[0]


@dataclass
class GridSample:
    """Sample value with the corner footprint and pixel-location Jacobian."""

    value: np.ndarray
    rows: np.ndarray  # (4,) corner row indices
    cols: np.ndarray  # (4,) corner column indices
    weights: np.ndarray  # (4,) corner weights, sum to 1
    d_du: np.ndarray  # (3, 2) d value / d (x, y)


def sample_with_grad(grid, u):
    """Reference sample plus its corner weights and d value / d (x, y)."""
    x, y = _as_xy(u)
    values, rows, cols, weights = bilinear_gather(grid.points[None], [0], [x], [y])
    r, c, w = rows[0], cols[0], weights[0]
    p00, p01, p10, p11 = (grid.points[r[k], c[k]] for k in range(4))
    fy = w[2] + w[3]
    fx = w[1] + w[3]
    d_dx = (1 - fy) * (p01 - p00) + fy * (p11 - p10)
    d_dy = (1 - fx) * (p10 - p00) + fx * (p11 - p01)
    return GridSample(values[0], r, c, w, np.stack([d_dx, d_dy], axis=1))


def init_query(grid0, q):
    """3D query initialization: sample the first-frame pointmap at q."""
    if grid0.frame_index != 0:
        raise ValueError(f"query initialization needs frame 0, got {grid0.frame_index}")
    return sample(grid0, q)


# ---------------------------------------------------------------------------
# Scalar Huber penalty and single-entry tape accumulation.

def huber(residual, delta):
    """Huber penalty of a 3-vector residual: 0.5||r||^2 inside delta, linear outside."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    nrm = float(np.linalg.norm(np.asarray(residual, dtype=np.float64).reshape(-1)))
    if nrm <= delta:
        return 0.5 * nrm * nrm
    return delta * (nrm - 0.5 * delta)


def huber_gradient(residual, delta):
    """Gradient of the Huber penalty w.r.t. the residual vector."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    r = np.asarray(residual, dtype=np.float64).reshape(-1)
    nrm = float(np.linalg.norm(r))
    if nrm <= delta:
        return r.copy()
    return (delta / nrm) * r


def accumulate(grad, indices, partials):
    """Add partials at flat indices one entry at a time, in order."""
    for index, partial in zip(indices, partials):
        grad[index] += partial
    return grad


# ---------------------------------------------------------------------------
# The kernels of a coupled-objective pass, in their library formulations.

def residual_norms(res):
    """Row lengths of (M, 3) residuals."""
    return np.linalg.norm(res, axis=1)


def cross(a, b):
    """Row-wise cross products of (M, 3) arrays."""
    return np.cross(a, b)


def pass_huber(res, delta, grad=True):
    """The pass's Huber kernel (losses._huber_batch) into fresh arrays."""
    m = len(res)
    return _huber_batch(res, delta, grad, (np.empty(m), np.empty((m, 3)), np.empty(m),
                                           np.empty(m), np.empty((m, 3)), np.empty(m, dtype=bool)))


def pass_cross(a, b):
    """The pass's cross product (losses._cross) into fresh arrays."""
    return _cross(a, b, np.empty(a.shape), np.empty(len(a)))


def one_block(problem, store, tape=None):
    """Block 0 of a pass over a problem whose samples form one block.

    Its per-sample intermediates are then the whole pass's.
    """
    bk = _Block(_Pass(problem, store, tape), 0)
    assert bk.hi == bk.geo.tt.size
    return bk


def residual_figures(norms):
    """(residual_mean, residual_max) of a term's residual norms."""
    return float(np.mean(norms)), float(np.max(norms))


def so3_exp_two_branch(omega):
    """Batched Rodrigues with both branches built in full and selected per angle."""
    theta, small, S, S2 = _so3_parts(omega)
    c1 = np.sin(theta) / theta
    c2 = (1.0 - np.cos(theta)) / np.float_power(theta, 2)
    return np.where(small, np.eye(3) + S + 0.5 * S2, np.eye(3) + c1 * S + c2 * S2)


# ---------------------------------------------------------------------------
# Pose application and the pose-block gradient: the earlier two-stage
# transform and per-sample omega chain rule.

def two_stage_transform(base, step, frames, pts):
    """(y, a) of each sample's frame of step * base, applied as base, then step.

    y = step.rotation @ (base @ p) + step.translation and a = y minus the
    step's translation: two (M, 3, 3) gathers and contractions per call.
    """
    frames = np.asarray(frames, dtype=np.int64)
    pts = np.asarray(pts, dtype=np.float64)
    z = np.einsum("mij,mj->mi", base.rotation.take(frames, axis=0), pts)
    z += base.translation.take(frames, axis=0)
    a = np.einsum("mij,mj->mi", step.rotation.take(frames, axis=0), z)
    return a + step.translation.take(frames, axis=0), a


def scatter_poses_per_sample(tape, left_jac, frames, a, gvec):
    """d/d upsilon = g and d/d omega = J_l(omega)^T (a x g), each added per sample (np.add.at)."""
    pose_base = frames * 6
    ups_idx = (pose_base[:, None] + np.arange(3, 6)).reshape(-1)
    np.add.at(tape.grad(POSES), ups_idx, gvec.reshape(-1))
    gw = np.einsum("mji,mj->mi", left_jac.take(frames, axis=0), pass_cross(a, gvec))
    om_idx = (pose_base[:, None] + np.arange(3)).reshape(-1)
    np.add.at(tape.grad(POSES), om_idx, gw.reshape(-1))


def pose_gradient(problem, store):
    """The pose block a fresh tape holds after the enabled pose-writing terms.

    Each term's a comes from the two-stage transform and its omega partials
    go through each sample's own J_l, scattered sample by sample in term
    order.  The downstream gradients are the pass's own intermediates.
    """
    bk = one_block(problem, store, Tape(store))
    exp_rot, left_jac, upsilon = step_stacks(store.view(POSES))
    step = Pose(exp_rot, upsilon)
    tape = Tape(store)
    for term in problem.active_terms():
        if term == "cam_pose":
            _, pos, gvec, _ = bk.cam_pose
            pts = bk.tracked
        elif term == "anchor":
            _, pos, _, _, gvec, _ = bk.anchor
            pts = bk.samples
        else:
            continue
        if pos.size:
            frames = bk.geo.tt.take(pos)
            _, a = two_stage_transform(problem.base, step, frames, pts.take(pos, axis=0))
            scatter_poses_per_sample(tape, left_jac, frames, a, gvec)
    return tape.grad(POSES)


# ---------------------------------------------------------------------------
# Tracks-block gradient: the earlier per-term scatter of the track-writing terms.

TRACK_TERMS = ("cons_track", "cam_track")


def track_gradient(problem, store, terms, grad=None):
    """The tracks block a tape holds after the given track-writing terms: fresh, or grad.

    Each term's (M, 3) per-sample partials are added with a 1-D np.add.at
    at the samples' entries, in term order, as the tape's scatter did.  The
    partials are the pass's own intermediates.
    """
    bk = one_block(problem, store, Tape(store))
    grad = np.zeros(store[TRACKS].size) if grad is None else grad
    for term in terms:
        if term == "cons_track":
            coeff = bk.cons[1]
        else:
            g = bk.cam_residual[1]
            coeff = np.einsum("mji,mj->mi", bk.ps.current.rotation.take(bk.geo.tt, axis=0),
                              bk.geo.w[:, None] * g)
        np.add.at(grad, bk.geo.track_idx, coeff.reshape(-1))
    return grad


# ---------------------------------------------------------------------------
# Grid-block gradient: the earlier per-term scatter of the grid-writing terms.

GRID_TERMS = ("cons_pointmap", "anchor")


def grid_gradient(problem, store, terms):
    """The grid block a fresh tape holds after the given grid-writing terms.

    Each term's (flat indices, partials), sample-major, then corner, then
    component, is added with np.add.at in term order, as the tape's grid
    scatter did before S^T became one product per pass.  The coefficients
    are the pass's own intermediates.
    """
    bk = one_block(problem, store, Tape(store))
    sampler = bk.geo.sampler
    grad = np.zeros(store[GRIDS].size)
    for term in terms:
        if term == "cons_pointmap":
            coeff, index = -bk.cons[1], None
        else:
            _, pos, _, _, gvec, _ = bk.anchor
            if not pos.size:
                continue
            coeff, index = -gvec, bk.geo.anchor_ref[pos]
        rows, weights = sampler.rows, sampler.weights
        if index is not None:
            rows, weights = rows[index], weights[index]
        np.add.at(grad, (rows[:, :, None] * 3 + np.arange(3)).reshape(-1),
                  (weights[:, :, None] * coeff[:, None, :]).reshape(-1))
    return grad


# ---------------------------------------------------------------------------
# Static gating: one Weiszfeld loop per track.

def geometric_median(points, max_iter=100, tol=1e-14):
    """Weiszfeld iteration for the geometric median of a small point set."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if np.all(pts == pts[0]):  # identical points are their own median
        return pts[0].copy()
    y = pts.mean(axis=0)
    scale = float(np.max(np.abs(pts - y)))
    for _ in range(max_iter):
        d = np.linalg.norm(pts - y, axis=1)
        d = np.maximum(d, 1e-15 * scale)
        w = 1.0 / d
        y_new = (pts * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(y_new - y) <= tol * scale:
            return y_new
        y = y_new
    return y


def track_medians(pts, visibility=None):
    """Per-track geometric median over visible frames (all frames if none is)."""
    ref = np.empty((pts.shape[0], 3))
    for i in range(pts.shape[0]):
        vis = (np.ones(pts.shape[1], dtype=bool) if visibility is None
               else np.asarray(visibility[i], dtype=np.float64) >= MIN_VISIBLE_WEIGHT)
        ref[i] = geometric_median(pts[i, vis] if np.any(vis) else pts[i])
    return ref


def static_mask(world_points, tau, visibility=None):
    """Samples within tau of their track's geometric median (median reference)."""
    pts = np.asarray(world_points, dtype=np.float64)
    ref = track_medians(pts, visibility)
    return np.linalg.norm(pts - ref[:, None, :], axis=2) < tau


# ---------------------------------------------------------------------------
# The generator's look-at, one frame at a time.

def lookat(eye, target):
    """Camera-to-world rotation of a camera at eye looking at target, +z up (+y if along z)."""
    f = np.asarray(target, dtype=np.float64) - eye
    f = f / np.linalg.norm(f)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(f @ up)) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(up, f)
    x = x / np.linalg.norm(x)
    y = np.cross(f, x)
    return np.stack([x, y, f], axis=1)


# ---------------------------------------------------------------------------
# SO(3), pose arithmetic and the optimizer's pose work, one frame at a time.

def pose_matrix(pose):
    """4x4 homogeneous matrix of a Pose."""
    T = np.eye(4)
    T[:3, :3] = pose.rotation
    T[:3, 3] = pose.translation
    return T


def so3_hat(w):
    wx, wy, wz = w
    return np.array(
        [[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]], dtype=np.float64
    )


def so3_exp(omega):
    omega = np.asarray(omega, dtype=np.float64)
    theta = float(np.linalg.norm(omega))
    S = so3_hat(omega)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + S + 0.5 * (S @ S)
    return (
        np.eye(3)
        + (np.sin(theta) / theta) * S
        + ((1.0 - np.cos(theta)) / theta**2) * (S @ S)
    )


def so3_left_jacobian(omega):
    omega = np.asarray(omega, dtype=np.float64)
    theta = float(np.linalg.norm(omega))
    S = so3_hat(omega)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + 0.5 * S + (S @ S) / 6.0
    t2 = theta * theta
    return (
        np.eye(3)
        + ((1.0 - np.cos(theta)) / t2) * S
        + ((theta - np.sin(theta)) / (t2 * theta)) * (S @ S)
    )


def stack(poses):
    """One (T,) Pose of a list of single poses."""
    return Pose(np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses]))


def project_rotation(M):
    """Polar projection of one 3x3 matrix."""
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0.0:
        U = U.copy()
        U[:, -1] = -U[:, -1]
        R = U @ Vt
    return R


def compose(a, b):
    """One pose a * b."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(p):
    Rt = p.rotation.T
    return Pose(Rt, -(Rt @ p.translation))


def apply(p, pts):
    """One pose applied to (3,) or (M, 3) points."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        return p.rotation @ pts + p.translation
    return pts @ p.rotation.T + p.translation


def exp_map(tangent):
    return Pose(so3_exp(tangent[:3]), tangent[3:].copy())


def log_map(p):
    """The (6,) tangent of one pose, through the scalar axis-angle formula."""
    R = p.rotation
    tr = float(np.trace(R))
    if tr <= -1.0 + 1e-6:
        raise LogNearPi(f"trace {tr}")
    theta = float(np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0)))
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    omega = 0.5 * v if theta < _SMALL_ANGLE else (0.5 * theta / np.sin(theta)) * v
    return np.concatenate([omega, p.translation])


def step_stacks(tangents):
    """(exp rotations, left Jacobians, upsilon) of (T, 6) tangents, one frame at a time."""
    tangents = np.asarray(tangents, dtype=np.float64)
    exp_rot = np.stack([so3_exp(w) for w in tangents[:, :3]])
    left_jac = np.stack([so3_left_jacobian(w) for w in tangents[:, :3]])
    return exp_rot, left_jac, tangents[:, 3:].copy()


def current_stack(base_poses, tangents):
    """compose(exp_map(tangent), base) one frame at a time, as one (T,) stack."""
    tangents = np.asarray(tangents, dtype=np.float64).reshape(len(base_poses), 6)
    return stack([compose(exp_map(tangents[t]), base) for t, base in enumerate(base_poses)])


def reprojection_mask(
    geo, shape, grid_stack, base_poses, tangents, tau, scale_quantile=0.4, scale_factor=3.0
):
    """np.nanmedian per track, then np.quantile per frame."""
    n, t = shape
    if geo.flat.size == 0:
        return np.zeros((n, t), dtype=bool)
    repro = transform_samples(current_stack(base_poses, tangents), geo.tt,
                              geo.sampler.gather(grid_stack))

    repro_full = np.full((n * t, 3), np.nan)
    repro_full[geo.flat] = repro
    repro_full = repro_full.reshape(n, t, 3)
    with np.errstate(all="ignore"):
        ref = np.nanmedian(repro_full, axis=1)
        dev = np.linalg.norm(repro_full - ref[:, None, :], axis=2)

    mask = np.zeros((n, t), dtype=bool)
    for frame in range(t):
        col = dev[:, frame]
        finite = np.isfinite(col)
        if not np.any(finite):
            continue
        scale = float(np.quantile(col[finite], scale_quantile))
        tau_eff = max(tau, scale_factor * scale)
        mask[finite, frame] = col[finite] < tau_eff
    return mask


# ---------------------------------------------------------------------------
# Row files written one formatted line per sample.

def write_tracks(path, points, visibility, query_pixels):
    points = np.asarray(points, dtype=np.float64)
    visibility = np.asarray(visibility, dtype=np.float64)
    query_pixels = np.asarray(query_pixels, dtype=np.float64)
    n, t = visibility.shape
    lines = [f"{n} {t}"]
    for i in range(n):
        for f in range(t):
            x, y, z = (float(v) for v in points[i, f])
            px, py = (float(v) for v in query_pixels[i, f])
            lines.append(
                f"{i} {f} {x!r} {y!r} {z!r} {float(visibility[i, f])!r} {px!r} {py!r}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_static_mask(path, mask):
    mask = np.asarray(mask).astype(int)
    n, t = mask.shape
    lines = [f"{n} {t}"]
    for i in range(n):
        for f in range(t):
            lines.append(f"{i} {f} {mask[i, f]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rows(path, values, fmt):
    """(N, T, k) values as one "%d %d" + k * " fmt" formatted line per sample."""
    n, t, k = values.shape
    row = "%d %d" + f" {fmt}" * k + "\n"
    samples = product(range(n), range(t))
    with open(path, "w") as fh:
        fh.write(f"{n} {t}\n")
        fh.writelines(row % (*it, *v.tolist()) for it, v in zip(samples, values.reshape(n * t, k)))


def write_poses(path, poses):
    """A (T,) pose stack as a count line, then per pose one 'k r00 ... r22 tx ty tz' line."""
    rows = np.concatenate([poses.rotation.reshape(-1, 9), poses.translation], axis=1)
    lines = [str(len(rows))]
    for k, vals in enumerate(rows.tolist()):
        lines.append(" ".join([str(k)] + [repr(v) for v in vals]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def naive_umeyama(src, dst, with_scale=True):
    """Textbook closed-form similarity fit; returns (s, R, t)."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    n = len(src)
    mu_s = sum(src[i] for i in range(n)) / n
    mu_d = sum(dst[i] for i in range(n)) / n
    cov = np.zeros((3, 3))
    var = 0.0
    for i in range(n):
        cov += np.outer(dst[i] - mu_d, src[i] - mu_s)
        var += float((src[i] - mu_s) @ (src[i] - mu_s))
    cov /= n
    var /= n
    U, D, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    s = float(np.trace(np.diag(D) @ S) / var) if with_scale else 1.0
    t = mu_d - s * R @ mu_s
    return s, R, t


def naive_ate(est_mats, gt_mats, align="similarity"):
    est = np.array([m[:3, 3] for m in est_mats])
    gt = np.array([m[:3, 3] for m in gt_mats])
    if align == "similarity":
        s, R, t = naive_umeyama(est, gt, with_scale=True)
        est = np.array([s * R @ p + t for p in est])
    elif align == "rigid":
        s, R, t = naive_umeyama(est, gt, with_scale=False)
        est = np.array([R @ p + t for p in est])
    total = 0.0
    for i in range(len(est)):
        d = est[i] - gt[i]
        total += float(d @ d)
    return math.sqrt(total / len(est))


def _angle_of(R):
    return math.acos(min(1.0, max(-1.0, (np.trace(R) - 1.0) / 2.0)))


def naive_rpe(est_mats, gt_mats, step):
    dts, drs = [], []
    for i in range(len(est_mats) - step):
        rel_gt = np.linalg.inv(gt_mats[i]) @ gt_mats[i + step]
        rel_est = np.linalg.inv(est_mats[i]) @ est_mats[i + step]
        d = rel_est[:3, 3] - rel_gt[:3, 3]
        dts.append(float(d @ d))
        ang = _angle_of(rel_gt[:3, :3].T @ rel_est[:3, :3])
        drs.append(ang * ang)
    return math.sqrt(np.mean(dts)), math.degrees(math.sqrt(np.mean(drs)))


def naive_rel_pose_accuracy(est_mats, gt_mats, max_threshold=30):
    rot_err, trans_err = [], []
    skipped = 0
    n = len(est_mats)
    for i in range(n):
        for j in range(i + 1, n):
            rel_gt = np.linalg.inv(gt_mats[i]) @ gt_mats[j]
            rel_est = np.linalg.inv(est_mats[i]) @ est_mats[j]
            tg = rel_gt[:3, 3]
            if np.linalg.norm(tg) < 1e-9:
                skipped += 1
                continue
            rot_err.append(math.degrees(_angle_of(rel_gt[:3, :3].T @ rel_est[:3, :3])))
            te = rel_est[:3, 3]
            if np.linalg.norm(te) < 1e-9:
                trans_err.append(180.0)
            else:
                c = float(tg @ te / (np.linalg.norm(tg) * np.linalg.norm(te)))
                trans_err.append(math.degrees(math.acos(min(1.0, max(-1.0, c)))))
    if not rot_err:
        return 0.0, 0.0, 0.0, skipped
    rra = 100.0 * np.mean([e < max_threshold for e in rot_err])
    rta = 100.0 * np.mean([e < max_threshold for e in trans_err])
    curve = []
    for th in range(1, max_threshold + 1):
        ar = np.mean([e < th for e in rot_err])
        at = np.mean([e < th for e in trans_err])
        curve.append(min(ar, at))
    area = 0.0
    for k in range(len(curve) - 1):
        area += 0.5 * (curve[k] + curve[k + 1])
    auc = 100.0 * area / (max_threshold - 1)
    return rra, rta, auc, skipped


# ---------------------------------------------------------------------------
# Relative pose error and accuracy, one frame pair at a time: the package's
# earlier loops over Pose pairs, kept to pin the stacked metrics bit for bit.

def rotation_angle(R):
    """Rotation angle in radians of one rotation matrix."""
    R = np.asarray(R, dtype=np.float64)
    v = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    s = float(np.linalg.norm(v))
    c = float(np.clip(0.5 * (np.trace(R) - 1.0), -1.0, 1.0))
    return float(np.arctan2(s, c))


def rpe(pair, step=1):
    d_trans = []
    d_rot = []
    for i in range(len(pair) - step):
        rel_gt = compose_stack(inverse_stack(pair.gt[i]), pair.gt[i + step])
        rel_est = compose_stack(inverse_stack(pair.est[i]), pair.est[i + step])
        d_trans.append(np.sum((rel_est.translation - rel_gt.translation) ** 2))
        ang = rotation_angle(rel_gt.rotation.T @ rel_est.rotation)
        d_rot.append(ang * ang)
    return RpeResult(
        float(np.sqrt(np.mean(d_trans))),
        float(np.degrees(np.sqrt(np.mean(d_rot)))),
    )


def rel_pose_accuracy(pair):
    rot_err = []
    trans_err = []
    n_skipped = 0
    for i in range(len(pair)):
        for j in range(i + 1, len(pair)):
            rel_gt = compose_stack(inverse_stack(pair.gt[i]), pair.gt[j])
            rel_est = compose_stack(inverse_stack(pair.est[i]), pair.est[j])
            t_gt = rel_gt.translation
            nrm_gt = float(np.linalg.norm(t_gt))
            if nrm_gt < 1e-9:
                n_skipped += 1
                continue
            rot_err.append(
                math.degrees(rotation_angle(rel_gt.rotation.T @ rel_est.rotation))
            )
            t_est = rel_est.translation
            nrm_est = float(np.linalg.norm(t_est))
            if nrm_est < 1e-9:
                trans_err.append(180.0)
            else:
                cosv = float(np.clip(t_gt @ t_est / (nrm_gt * nrm_est), -1.0, 1.0))
                trans_err.append(math.degrees(math.acos(cosv)))
    rot_err = np.asarray(rot_err)
    trans_err = np.asarray(trans_err)
    n_pairs = rot_err.size
    if n_pairs == 0:
        return RelPoseAccuracy(0.0, 0.0, 0.0, 0, n_skipped)

    thresholds = np.arange(1, POSE_MAX_THRESHOLD + 1, dtype=np.float64)
    acc_r = np.array([np.mean(rot_err < th) for th in thresholds])
    acc_t = np.array([np.mean(trans_err < th) for th in thresholds])
    curve = np.minimum(acc_r, acc_t)
    auc = float(np.trapezoid(curve, thresholds) / (thresholds[-1] - thresholds[0]))
    return RelPoseAccuracy(
        100.0 * float(np.mean(rot_err < POSE_MAX_THRESHOLD)),
        100.0 * float(np.mean(trans_err < POSE_MAX_THRESHOLD)),
        100.0 * auc,
        int(n_pairs),
        int(n_skipped),
    )


def naive_tapvid3d(est, est_vis, gt, gt_vis, thresholds, depth_scaled=True):
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    ev = np.asarray(est_vis, dtype=float) > 0.5
    gv = np.asarray(gt_vis, dtype=float) > 0.5
    n, t = ev.shape
    jaccards, fracs = [], []
    for th in thresholds:
        tp = fp = fn = 0
        hit = miss = 0
        for i in range(n):
            for f in range(t):
                d = float(np.linalg.norm(est[i, f] - gt[i, f]))
                lim = th * (abs(gt[i, f, 2]) if depth_scaled else 1.0)
                within = d < lim
                if gv[i, f] and ev[i, f] and within:
                    tp += 1
                if ev[i, f] and not (gv[i, f] and within):
                    fp += 1
                if gv[i, f] and not (ev[i, f] and within):
                    fn += 1
                if gv[i, f]:
                    hit += 1 if within else 0
                    miss += 0 if within else 1
        denom = tp + fp + fn
        jaccards.append(tp / denom if denom else 1.0)
        fracs.append(hit / (hit + miss) if (hit + miss) else 0.0)
    correct = sum(
        1 for i in range(n) for f in range(t) if bool(ev[i, f]) == bool(gv[i, f])
    )
    return (
        100.0 * float(np.mean(jaccards)),
        100.0 * float(np.mean(fracs)),
        100.0 * correct / (n * t),
    )


def naive_normals(cloud, k):
    cloud = np.asarray(cloud, dtype=float)
    n = len(cloud)
    k = min(k, n - 1)
    normals = np.zeros((n, 3))
    for i in range(n):
        d = [float(np.linalg.norm(cloud[j] - cloud[i])) for j in range(n)]
        order = np.argsort(d, kind="stable")[: k + 1]
        pts = cloud[order]
        mu = pts.mean(axis=0)
        cov = np.zeros((3, 3))
        for p in pts:
            cov += np.outer(p - mu, p - mu)
        vals, vecs = np.linalg.eigh(cov)
        normals[i] = vecs[:, 0]
    return normals


def naive_pointmap(pred, gt, align=True, k_normals=16):
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if align:
        s, R, t = naive_umeyama(pred, gt, with_scale=True)
        pred = np.array([s * R @ p + t for p in pred])
    acc, match = [], []
    for p in pred:
        ds = [float(np.linalg.norm(p - g)) for g in gt]
        j = int(np.argmin(ds))
        acc.append(ds[j])
        match.append(j)
    comp = []
    for g in gt:
        comp.append(min(float(np.linalg.norm(g - p)) for p in pred))
    np_pred = naive_normals(pred, k_normals)
    np_gt = naive_normals(gt, k_normals)
    cos = [abs(float(np_pred[i] @ np_gt[match[i]])) for i in range(len(pred))]
    return (
        float(np.mean(acc)), float(np.median(acc)),
        float(np.mean(comp)), float(np.median(comp)),
        float(np.mean(cos)), float(np.median(cos)),
    )


def naive_depth(preds, gts, mode="scale", per="sequence"):
    preds = [np.asarray(p, dtype=float) for p in preds]
    gts = [np.asarray(g, dtype=float) for g in gts]

    def fit(p, g):
        if mode == "scale":
            ratios = sorted(
                g.ravel()[k] / p.ravel()[k]
                for k in range(g.size)
                if p.ravel()[k] > 0
            )
            m = len(ratios)
            s = ratios[m // 2] if m % 2 else 0.5 * (ratios[m // 2 - 1] + ratios[m // 2])
            return s, 0.0
        sp = sg = spp = spg = 0.0
        n = 0
        for k in range(p.size):
            sp += p.ravel()[k]
            sg += g.ravel()[k]
            spp += p.ravel()[k] ** 2
            spg += p.ravel()[k] * g.ravel()[k]
            n += 1
        det = n * spp - sp * sp
        s = (n * spg - sp * sg) / det
        b = (sg * spp - sp * spg) / det
        return s, b

    aligned_p, aligned_g = [], []
    if per == "sequence":
        pv = np.concatenate([p.ravel() for p in preds])
        gv = np.concatenate([g.ravel() for g in gts])
        s, b = fit(pv, gv)
        aligned_p.append(s * pv + b)
        aligned_g.append(gv)
    else:
        for p, g in zip(preds, gts):
            s, b = fit(p.ravel(), g.ravel())
            aligned_p.append(s * p.ravel() + b)
            aligned_g.append(g.ravel())
    pa = np.concatenate(aligned_p)
    ga = np.concatenate(aligned_g)
    abs_rel = float(np.mean([abs(pa[k] - ga[k]) / ga[k] for k in range(pa.size)]))
    inliers = 0
    for k in range(pa.size):
        if pa[k] > 0 and max(pa[k] / ga[k], ga[k] / pa[k]) < 1.25:
            inliers += 1
    return abs_rel, inliers / pa.size


# ---------------------------------------------------------------------------
# Point-cloud metrics: five KD-trees per call, eigh on every covariance.

def estimate_normals(cloud, k=16):
    cloud = np.asarray(cloud, dtype=np.float64)
    n = cloud.shape[0]
    k = min(k, n - 1)
    if k < 2:
        raise DegenerateConfiguration("too few points for normal estimation")
    tree = cKDTree(cloud)
    _, idx = tree.query(cloud, k=k + 1)
    neigh = cloud[idx]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    _, vecs = np.linalg.eigh(cov)
    return vecs[:, :, 0]


def plane_normals(cloud, tree, k, at=None):
    """metrics._plane_normals in one batch over every query point."""
    k = min(k, cloud.shape[0] - 1)
    if k < 2:
        raise DegenerateConfiguration("too few points for normal estimation")
    _, idx = tree.query(cloud if at is None else cloud[at], k=k + 1)
    centered = cloud[idx]  # (n, k+1, 3)
    centered -= centered.mean(axis=1, keepdims=True)
    return _smallest_eigenvectors(centered.transpose(0, 2, 1) @ centered)


def identity_similarity():
    return Similarity(1.0, np.eye(3), np.zeros(3))


def icp_refine(src, dst, init, max_iter=20, tol=1e-6):
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    tree = cKDTree(dst)
    sim = Similarity(init.scale, init.rotation.copy(), init.translation.copy())
    prev = None
    for _ in range(max_iter):
        cur = sim.apply(src)
        dists, idx = tree.query(cur)
        mean_res = float(np.mean(dists))
        if prev is not None and abs(prev - mean_res) < tol:
            break
        prev = mean_res
        matched = dst[idx]
        mu_c = cur.mean(axis=0)
        mu_m = matched.mean(axis=0)
        H = (matched - mu_m).T @ (cur - mu_c)
        U, _, Vt = np.linalg.svd(H)
        Sfix = np.eye(3)
        if np.linalg.det(U) * np.linalg.det(Vt) < 0.0:
            Sfix[2, 2] = -1.0
        R = U @ Sfix @ Vt
        t = mu_m - R @ mu_c
        sim = Similarity(1.0, R, t).compose(sim)
    return sim


def pointmap_metrics(pred, gt, align=True, use_icp=False, k_normals=16):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if pred.shape[0] < 3 or gt.shape[0] < 3:
        raise DegenerateConfiguration("point clouds need at least 3 points")
    if align:
        if pred.shape[0] != gt.shape[0]:
            raise DegenerateConfiguration("similarity alignment needs equal sizes")
        sim = umeyama(pred, gt)
        if use_icp:
            sim = icp_refine(pred, gt, sim)
        pred = sim.apply(pred)
    elif use_icp:
        pred = icp_refine(pred, gt, identity_similarity()).apply(pred)
    acc_d, acc_idx = cKDTree(gt).query(pred)
    comp_d, _ = cKDTree(pred).query(gt)
    normals_pred = estimate_normals(pred, k_normals)
    normals_gt = estimate_normals(gt, k_normals)
    cosines = np.abs(np.sum(normals_pred * normals_gt[acc_idx], axis=1))
    return PointmapResult(
        float(np.mean(acc_d)), float(np.median(acc_d)),
        float(np.mean(comp_d)), float(np.median(comp_d)),
        float(np.mean(cosines)), float(np.median(cosines)),
    )


# ---------------------------------------------------------------------------
# Self-supervision guard.

def forbid_anchor_targets(monkeypatch):
    """Make synthetic.anchor_targets, the one way 3D labels enter a problem, raise."""
    def refuse(*args):
        raise AssertionError("3D anchor targets derived on a self-supervised path")

    monkeypatch.setattr(synthetic, "anchor_targets", refuse)

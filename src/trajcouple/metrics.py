"""Evaluation protocols for trajectories, relative poses, 3D tracks, point clouds, and depth.

Conventions (one per metric family, fixed across the package):

* ATE / RPE-translation are in scene length units, RPE-rotation in degrees;
* RRA@30 / RTA@30 / AUC@30 and AJ / APD / OA are percentages in [0, 100];
* depth AbsRel and the delta < 1.25 inlier rate are plain fractions;
* accuracy thresholds are strict ("error < threshold").

ATE aligns the estimated trajectory with a similarity (scale included);
point-cloud metrics align index-paired clouds with a similarity, optionally
refined by rigid ICP; depth is aligned by a median-ratio scale or a
least-squares scale-and-shift, per image or per sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfiguration, EmptyValidMask
from .pose import Pose, _icp, compose, inverse, rotation_angle, umeyama

# TAPVid-3D distance thresholds, each scaled per sample by the ground-truth |z|
TRACK_THRESHOLDS = (0.01, 0.02, 0.04, 0.08, 0.16)

# Largest threshold in degrees of RRA / RTA, and the range of the AUC
POSE_MAX_THRESHOLD = 30

# Neighbors of each plane fit behind the normal consistency
K_NORMALS = 16


@dataclass
class TrajectoryPair:
    """Matched estimated / ground-truth camera-to-world (T,) pose stacks."""

    est: Pose
    gt: Pose

    def __post_init__(self):
        if len(self.est) != len(self.gt):
            raise ValueError(f"length mismatch: {len(self.est)} vs {len(self.gt)}")
        if len(self.est) == 0:
            raise ValueError("empty trajectory")

    def __len__(self):
        return len(self.est)


def ate(pair: TrajectoryPair) -> float:
    """RMS translation error after a similarity (Umeyama, scale included) aligns the estimate."""
    if len(pair) < 3:
        raise DegenerateConfiguration("ATE alignment needs at least 3 poses")
    est, gt = pair.est.translation, pair.gt.translation
    est = umeyama(est, gt).apply(est)
    return float(np.sqrt(np.mean(np.sum((est - gt) ** 2, axis=1))))


@dataclass
class RpeResult:
    trans: float
    rot_deg: float


def rpe(pair: TrajectoryPair, step=1) -> RpeResult:
    """Relative pose error over a fixed frame delta (RMS translation / rotation)."""
    if not 1 <= step < len(pair):
        raise ValueError(f"step {step} must be in [1, {len(pair)})")
    d_trans = []
    d_rot = []
    for i in range(len(pair) - step):
        rel_gt = compose(inverse(pair.gt[i]), pair.gt[i + step])
        rel_est = compose(inverse(pair.est[i]), pair.est[i + step])
        d_trans.append(np.sum((rel_est.translation - rel_gt.translation) ** 2))
        ang = rotation_angle(rel_gt.rotation.T @ rel_est.rotation)
        d_rot.append(ang * ang)
    return RpeResult(
        float(np.sqrt(np.mean(d_trans))),
        float(np.degrees(np.sqrt(np.mean(d_rot)))),
    )


@dataclass
class RelPoseAccuracy:
    rra: float
    rta: float
    auc: float
    n_pairs: int
    n_skipped: int


def rel_pose_accuracy(pair: TrajectoryPair) -> RelPoseAccuracy:
    """Relative rotation / translation-direction accuracy over all frame pairs.

    Rotation error is the relative-rotation angle between estimate and
    ground truth; translation error is the angle between the relative
    translation directions.  Pairs whose ground-truth relative translation
    is shorter than 1e-9 have no direction and are skipped (counted).  An
    estimate with a near-zero relative translation against a valid ground
    truth scores the maximum error of 180 degrees.  AUC integrates the
    pointwise min of the two accuracy curves over integer thresholds
    1..POSE_MAX_THRESHOLD with trapezoidal weights.
    """
    if len(pair) < 2:
        raise DegenerateConfiguration("relative pose accuracy needs at least 2 frames")
    rot_err = []
    trans_err = []
    n_skipped = 0
    for i in range(len(pair)):
        for j in range(i + 1, len(pair)):
            rel_gt = compose(inverse(pair.gt[i]), pair.gt[j])
            rel_est = compose(inverse(pair.est[i]), pair.est[j])
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


@dataclass
class Tapvid3DResult:
    aj: float
    apd: float
    oa: float


def tapvid3d_metrics(est_tracks, est_visibility, gt_tracks, gt_visibility) -> Tapvid3DResult:
    """3D tracking scores: threshold-averaged Jaccard, position accuracy, occlusion accuracy.

    Visibilities are binarized at 0.5.  Each of TRACK_THRESHOLDS is scaled
    per sample by the ground-truth |z| (a metric tolerance proportional to
    depth).  Results are percentages.
    """
    est_tracks = np.asarray(est_tracks, dtype=np.float64)
    gt_tracks = np.asarray(gt_tracks, dtype=np.float64)
    est_vis = np.asarray(est_visibility, dtype=np.float64) > 0.5
    gt_vis = np.asarray(gt_visibility, dtype=np.float64) > 0.5
    if est_tracks.shape != gt_tracks.shape:
        raise ValueError(f"track shapes differ: {est_tracks.shape} vs {gt_tracks.shape}")

    dist = np.linalg.norm(est_tracks - gt_tracks, axis=-1)
    depth = np.abs(gt_tracks[..., 2])

    jaccards = []
    fractions = []
    n_gt_visible = int(np.sum(gt_vis))
    for th in TRACK_THRESHOLDS:
        within = dist < th * depth
        tp = float(np.sum(gt_vis & est_vis & within))
        fn = float(np.sum(gt_vis & ~(est_vis & within)))
        fp = float(np.sum(est_vis & ~(gt_vis & within)))
        denom = tp + fn + fp
        jaccards.append(tp / denom if denom > 0 else 1.0)
        fractions.append(
            float(np.sum(gt_vis & within)) / n_gt_visible if n_gt_visible else 0.0
        )
    oa = float(np.mean(est_vis == gt_vis))
    return Tapvid3DResult(
        100.0 * float(np.mean(jaccards)),
        100.0 * float(np.mean(fractions)),
        100.0 * oa,
    )


@dataclass
class PointmapResult:
    acc_mean: float
    acc_median: float
    comp_mean: float
    comp_median: float
    nc_mean: float
    nc_median: float


# A closed-form normal whose longest cross product is below this, with C
# scaled to unit trace, has a near-repeated smallest eigenvalue (collinear,
# coincident or isotropic neighbors) and is recomputed with eigh.
_ILL_CONDITIONED = 1e-4

# Query points per normal-fit block: large enough to amortize the per-call
# overhead, small enough that the neighborhoods of a 64x64 frame take a few
# hundred KiB instead of several MiB.
_NORMAL_BLOCK = 512


def _plane_normals(cloud, tree, k, at=None):
    """Plane-fit normals of cloud (indexed by tree) at the points cloud[at], or all.

    Query points are fitted in blocks of _NORMAL_BLOCK: a point's neighbors,
    covariance and eigenvector do not depend on the rest of its block, so the
    result equals one pass over all points while the (block, k+1, 3)
    neighborhoods stay small.
    """
    k = min(k, cloud.shape[0] - 1)
    if k < 2:
        raise DegenerateConfiguration("too few points for normal estimation")
    query = cloud if at is None else cloud[at]
    normals = np.empty_like(query)
    for lo in range(0, len(query), _NORMAL_BLOCK):
        _, idx = tree.query(query[lo:lo + _NORMAL_BLOCK], k=k + 1)
        centered = cloud[idx]  # (block, k+1, 3)
        centered -= centered.mean(axis=1, keepdims=True)
        normals[lo:lo + _NORMAL_BLOCK] = _smallest_eigenvectors(
            centered.transpose(0, 2, 1) @ centered
        )
    return normals


def _smallest_eigenvectors(cov):
    """Unit eigenvectors of the smallest eigenvalues of symmetric PSD (n, 3, 3) matrices.

    The smallest eigenvalue comes from the trigonometric solution of the
    characteristic cubic (Smith, CACM 1961); its eigenvector is the longest
    cross product of two rows of C - lambda I.  Rows whose longest cross
    product is tiny go through np.linalg.eigh.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = cov / np.trace(cov, axis1=1, axis2=2)[:, None, None]  # nan where trace == 0
        a, b, c = unit[:, 0, 0], unit[:, 1, 1], unit[:, 2, 2]
        d, e, f = unit[:, 0, 1], unit[:, 0, 2], unit[:, 1, 2]
        aq, bq, cq = a - 1.0 / 3.0, b - 1.0 / 3.0, c - 1.0 / 3.0
        p2 = (aq * aq + bq * bq + cq * cq + 2.0 * (d * d + e * e + f * f)) / 6.0
        p = np.sqrt(p2)
        det = aq * (bq * cq - f * f) - d * (d * cq - f * e) + e * (d * f - bq * e)
        r = np.clip(det / (2.0 * p2 * p), -1.0, 1.0)  # nan where p == 0
    lam = 1.0 / 3.0 + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)
    rows = unit - lam[:, None, None] * np.eye(3)
    cross = np.cross(rows[:, [0, 0, 1]], rows[:, [1, 2, 2]])  # (n, 3 pairs, 3)
    norm2 = np.einsum("npi,npi->np", cross, cross)
    row, pick = np.arange(len(cov)), np.argmax(norm2, axis=1)
    best, best_norm2 = cross[row, pick], norm2[row, pick]
    good = best_norm2 > _ILL_CONDITIONED**2  # false on nan
    normals = np.empty_like(best)
    normals[good] = best[good] / np.sqrt(best_norm2[good])[:, None]
    bad = ~good
    if bad.any():
        normals[bad] = np.linalg.eigh(cov[bad])[1][:, :, 0]
    return normals


def _kdtree(points):
    """KD-tree over (n, 3) points; scipy.spatial loads with the first tree, not with the package."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def pointmap_metrics(pred, gt, use_icp=False) -> PointmapResult:
    """Accuracy / completion / normal consistency between index-paired point clouds.

    The prediction is first fit to the ground truth by a similarity
    transform over index-paired points (the pixel-aligned protocol; umeyama
    raises ValueError on clouds of unequal size), optionally refined with
    point-to-point ICP.  Accuracy is the nearest-neighbor distance
    pred -> gt, completion the reverse, and normal consistency the absolute
    cosine between local plane-fit normals (K_NORMALS neighbors) of matched
    pred -> gt pairs.

    Each cloud gets one KD-tree, shared by ICP, the nearest-neighbor
    queries and the normal fits; ICP's final matches serve as the accuracy
    matches when it stops on its residual test, and ground-truth normals are
    fitted only at matched points.
    """
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if pred.shape[0] < 3 or gt.shape[0] < 3:
        raise DegenerateConfiguration("point clouds need at least 3 points")
    gt_tree = _kdtree(gt)
    sim, matches = umeyama(pred, gt), None
    if use_icp:
        sim, matches = _icp(pred, gt_tree, sim)
    pred = sim.apply(pred)

    acc_d, acc_idx = gt_tree.query(pred) if matches is None else matches
    pred_tree = _kdtree(pred)
    comp_d, _ = pred_tree.query(gt)

    normals_pred = _plane_normals(pred, pred_tree, K_NORMALS)
    matched, slot = np.unique(acc_idx, return_inverse=True)
    normals_gt = _plane_normals(gt, gt_tree, K_NORMALS, at=matched)
    cosines = np.abs(np.sum(normals_pred * normals_gt[slot], axis=1))

    return PointmapResult(
        float(np.mean(acc_d)), float(np.median(acc_d)),
        float(np.mean(comp_d)), float(np.median(comp_d)),
        float(np.mean(cosines)), float(np.median(cosines)),
    )


@dataclass
class DepthResult:
    abs_rel: float
    delta_125: float


def _as_image_list(x):
    out = [np.asarray(v, dtype=np.float64) for v in x]
    for v in out:
        if v.ndim != 2:
            raise ValueError(f"depth maps must be 2D, got shape {v.shape}")
    return out


def _fit_scale(pred, gt):
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = gt / pred
    ok = np.isfinite(ratio) & (pred > 0)
    if not np.any(ok):
        raise EmptyValidMask("no usable pixels for scale alignment")
    return float(np.median(ratio[ok])), 0.0


def _fit_scale_shift(pred, gt):
    A = np.stack([pred, np.ones_like(pred)], axis=1)
    sol, _, _, _ = np.linalg.lstsq(A, gt, rcond=None)
    return float(sol[0]), float(sol[1])


def depth_metrics(pred, gt, mode="scale", per="sequence") -> DepthResult:
    """AbsRel and the delta < 1.25 inlier rate after depth alignment.

    pred and gt are per-frame lists of 2-D depth maps.  mode "scale" aligns
    with the median ratio gt/pred; "scale_and_shift" with a least-squares
    affine fit.  per "sequence" fits one alignment over all frames, per
    "image" fits each frame independently.  Valid pixels have positive
    finite ground truth and a finite prediction; metrics pool all valid
    pixels after alignment.
    """
    if mode not in ("scale", "scale_and_shift"):
        raise ValueError(f"unknown mode {mode!r}")
    if per not in ("sequence", "image"):
        raise ValueError(f"unknown per {per!r}")
    preds = _as_image_list(pred)
    gts = _as_image_list(gt)
    if len(preds) != len(gts):
        raise ValueError(f"frame counts differ: {len(preds)} vs {len(gts)}")
    valids = [np.isfinite(g) & (g > 0) & np.isfinite(p) for p, g in zip(preds, gts)]

    fit = _fit_scale if mode == "scale" else _fit_scale_shift

    pred_all = []
    gt_all = []
    if per == "sequence":
        pv = np.concatenate([p[ok] for p, ok in zip(preds, valids)])
        gv = np.concatenate([g[ok] for g, ok in zip(gts, valids)])
        if pv.size == 0:
            raise EmptyValidMask("no valid pixels in sequence")
        s, b = fit(pv, gv)
        pred_all.append(s * pv + b)
        gt_all.append(gv)
    else:
        for k, (p, g, ok) in enumerate(zip(preds, gts, valids)):
            if not np.any(ok):
                raise EmptyValidMask(f"no valid pixels in image {k}")
            s, b = fit(p[ok], g[ok])
            pred_all.append(s * p[ok] + b)
            gt_all.append(g[ok])
    pa = np.concatenate(pred_all)
    ga = np.concatenate(gt_all)

    abs_rel = float(np.mean(np.abs(pa - ga) / ga))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(pa / ga, ga / pa)
    ratio = np.where(pa > 0, ratio, np.inf)
    delta = float(np.mean(ratio < 1.25))
    return DepthResult(abs_rel, delta)


@dataclass
class MetricReport:
    """Named scalar results plus the conventions under which they were computed."""

    values: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def add(self, name, value):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        self.values[name] = value

    def to_json(self, indent=2):
        return json.dumps(
            {"values": self.values, "metadata": self.metadata},
            indent=indent, sort_keys=True,
        )

    def to_csv(self):
        lines = ["metric,value"]
        for name in sorted(self.values):
            lines.append(f"{name},{self.values[name]!r}")
        return "\n".join(lines) + "\n"

"""Rigid-transform arithmetic, tangent parameterization, and similarity alignment.

A Pose is a stack of transforms, each a full 3x3 rotation matrix plus a
translation vector mapping points as ``R @ x + t``; per-frame poses are one
(T,) stack.  Camera poses are camera-to-world; world-to-camera is
``inverse(pose)``.  A Pose is a plain value: ``compose`` and ``inverse`` are
the bare products.  Code that builds a long chain of compositions (the
optimizer's fold, the random-walk camera path) re-projects it onto SO(3)
with ``project_rotation`` every ``REORTHO_PERIOD`` steps.

The tangent parameterization is deliberately decoupled: ``exp_map`` maps a
tangent ``(omega, upsilon)`` to ``(exp_so3(omega), upsilon)``, so a
left perturbation of a pose acts as ``x -> exp_so3(omega) @ (pose @ x) + upsilon``.
This keeps pose-gradient chain rules closed-form through the SO(3) left
Jacobian alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, FileFormatError, LogNearPi, open_text

# Steps of a composition chain between orthonormality re-projections.
REORTHO_PERIOD = 64

# Below this angle the Rodrigues terms switch to their Taylor expansions.
_SMALL_ANGLE = 1e-8

# The identity that the Rodrigues formulas add to, shared read-only.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

# ICP stops after this many iterations or when the mean residual changes by less than ICP_TOL.
ICP_MAX_ITER = 20
ICP_TOL = 1e-6


def so3_hat(w):
    """Skew-symmetric matrices of 3-vectors: (..., 3) -> (..., 3, 3)."""
    w = np.asarray(w, dtype=np.float64)
    S = np.zeros(w.shape + (3,))
    S[..., 0, 1], S[..., 0, 2], S[..., 1, 2] = -w[..., 2], w[..., 1], -w[..., 0]
    S[..., 1, 0], S[..., 2, 0], S[..., 2, 1] = w[..., 2], -w[..., 1], w[..., 0]
    return S


def _so3_parts(omega):
    """Angles (..., 1, 1) (1 where small, keeping the unused branch finite), flags, S, S @ S.

    The angle is a row matmul: it rounds like the BLAS dot in np.linalg.norm of one vector.
    """
    omega = np.asarray(omega, dtype=np.float64)
    theta = np.sqrt(omega[..., None, :] @ omega[..., :, None])
    small = theta < _SMALL_ANGLE
    S = so3_hat(omega)
    return np.where(small, 1.0, theta), small, S, S @ S


def so3_exp(omega):
    """Rodrigues' formula over (..., 3) tangents, exact identity at omega == 0."""
    theta, small, S, S2 = _so3_parts(omega)
    # I + S + S^2/2 below the small angle, error O(theta^3); 1.0 * S is S bit for bit
    c1 = np.where(small, 1.0, np.sin(theta) / theta)
    # float_power is C pow per element, like ** on a Python float in the scalar formula
    # (tests/oracles.py); ** on an array squares, which rounds differently ~1 time in 1000
    c2 = np.where(small, 0.5, (1.0 - np.cos(theta)) / np.float_power(theta, 2))
    return _EYE3 + c1 * S + c2 * S2


def so3_log(rotation):
    """Axis-angle vectors (..., 3) of rotation matrices (..., 3, 3).

    Raises LogNearPi when some trace(R) <= -1 + 1e-6, i.e. the angle is
    within roughly a milliradian of pi where the axis is ill-conditioned.
    """
    R = np.asarray(rotation, dtype=np.float64)
    tr = np.trace(R, axis1=-2, axis2=-1)
    if np.any(tr <= -1.0 + 1e-6):
        raise LogNearPi(f"rotation angle too close to pi (trace={np.min(tr):.9f})")
    theta = np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))
    v = np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                  R[..., 1, 0] - R[..., 0, 1]], axis=-1)
    small = theta < _SMALL_ANGLE
    return np.where(small, 0.5, 0.5 * theta / np.sin(np.where(small, 1.0, theta)))[..., None] * v


def so3_left_jacobian(omega):
    """Left Jacobian of SO(3) over (..., 3): exp(omega + d) ~= exp(J_l(omega) d) exp(omega)."""
    theta, small, S, S2 = _so3_parts(omega)
    t2 = theta * theta
    c1, c2 = (1.0 - np.cos(theta)) / t2, (theta - np.sin(theta)) / (t2 * theta)
    return np.where(small, _EYE3 + 0.5 * S + S2 / 6.0, _EYE3 + c1 * S + c2 * S2)


def project_rotation(M):
    """Nearest rotation matrices in Frobenius norm (polar projection) of (..., 3, 3) matrices."""
    U, _, Vt = np.linalg.svd(M)
    flip = np.linalg.det(U @ Vt) < 0.0
    U[flip, :, -1] *= -1.0
    return U @ Vt


class Pose:
    """A stack of rigid transforms: rotation (..., 3, 3), translation (..., 3).

    A single pose is the () case.  len, indexing and iteration run over the
    leading axis and give Poses that view the stack's arrays.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation=None, translation=None):
        self.rotation = np.eye(3) if rotation is None else np.asarray(rotation, dtype=np.float64)
        shape = self.rotation.shape[:-2]
        self.translation = (
            np.zeros(shape + (3,)) if translation is None
            else np.asarray(translation, dtype=np.float64)
        )
        if self.rotation.shape[-2:] != (3, 3):
            raise ValueError(f"rotation must be (..., 3, 3), got {self.rotation.shape}")
        if self.translation.shape != shape + (3,):
            raise ValueError(f"translation must be {shape + (3,)}, got {self.translation.shape}")

    @property
    def shape(self):
        return self.rotation.shape[:-2]

    def __len__(self):
        if not self.shape:
            raise TypeError("a single Pose has no length")
        return self.shape[0]

    def __getitem__(self, index):
        if not self.shape:
            raise TypeError("a single Pose cannot be indexed")
        return Pose(self.rotation[index], self.translation[index])

    def __setitem__(self, index, pose):
        if not self.shape:
            raise TypeError("a single Pose cannot be indexed")
        self.rotation[index], self.translation[index] = pose.rotation, pose.translation

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def apply(self, pts):
        """Map points: (3,) or (..., 3) by a single pose, S + (M, 3) by a stack of shape S."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ np.swapaxes(self.rotation, -1, -2) + self.translation[..., None, :]

    def copy(self):
        return Pose(self.rotation.copy(), self.translation.copy())

    def is_orthonormal(self):
        """(...) bools: R^T R within 1e-6 of I (Frobenius norm) and det R > 0.

        An entry above 1 + 1e-6 in magnitude (none of an orthonormal R is)
        fails first, before the products, which could overflow.
        """
        bounded = np.all(np.abs(self.rotation) <= 1.0 + 1e-6, axis=(-2, -1))
        r = np.where(bounded[..., None, None], self.rotation, 0.0)
        gram = np.swapaxes(r, -1, -2) @ r - np.eye(3)
        return bounded & (np.linalg.norm(gram, axis=(-2, -1)) < 1e-6) & (np.linalg.det(r) > 0.0)

    def __repr__(self):
        return f"Pose(R={self.rotation.tolist()}, t={self.translation.tolist()})"


def compose(a: Pose, b: Pose) -> Pose:
    """Composition a * b: apply b first, then a; a single pose broadcasts against a stack."""
    return Pose(a.rotation @ b.rotation,
                (a.rotation @ b.translation[..., None])[..., 0] + a.translation)


def inverse(p: Pose) -> Pose:
    Rt = np.swapaxes(p.rotation, -1, -2)
    return Pose(Rt, -(Rt @ p.translation[..., None])[..., 0])


def relative_pose(c_t: Pose, c_x: Pose) -> Pose:
    """Transform taking frame-t camera coordinates into frame-x camera coordinates.

    Both arguments are camera-to-world poses; the result is inv(c_x) * c_t.
    """
    return compose(inverse(c_x), c_t)


def exp_map(tangent) -> Pose:
    """Poses with rotation exp_so3(omega) and translation upsilon of (..., 6) tangents.

    exp_map(0) is the identity exactly, bit for bit.
    """
    tangent = np.asarray(tangent, dtype=np.float64)
    return Pose(so3_exp(tangent[..., :3]), tangent[..., 3:].copy())


def log_map(p: Pose):
    """(..., 6) tangents (omega, upsilon), the inverse of exp_map; requires angles < pi."""
    return np.concatenate([so3_log(p.rotation), p.translation], axis=-1)


def rotation_angle(R):
    """Rotation angles in radians of (..., 3, 3) rotation matrices.

    Uses atan2 of the skew part against the trace, which keeps full
    precision for tiny angles where arccos of the trace saturates.  The
    skew part's norm is a row matmul, which rounds like np.linalg.norm of
    one vector.
    """
    R = np.asarray(R, dtype=np.float64)
    v = 0.5 * np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                        R[..., 1, 0] - R[..., 0, 1]], axis=-1)
    s = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]
    c = np.clip(0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0), -1.0, 1.0)
    return np.arctan2(s, c)


@dataclass
class Similarity:
    """Scaled rigid transform x -> scale * R @ x + t with scale > 0."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.scale = float(self.scale)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def apply(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            return self.scale * (self.rotation @ pts) + self.translation
        return self.scale * (pts @ self.rotation.T) + self.translation

    def compose(self, other: "Similarity") -> "Similarity":
        """self * other: apply other first."""
        return Similarity(
            self.scale * other.scale,
            self.rotation @ other.rotation,
            self.scale * (self.rotation @ other.translation) + self.translation,
        )


def umeyama(src, dst) -> Similarity:
    """Least-squares similarity aligning src onto dst (paired points).

    Minimizes sum ||dst_i - s R src_i - t||^2 over rotation R, scale s > 0
    and translation t.  Closed-form via SVD of the cross-covariance.
    Raises DegenerateConfiguration for fewer than 3 pairs or
    (near-)collinear/coincident source or target points, where the rotation
    is not determined.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if src.shape != dst.shape:
        raise ValueError(f"point counts differ: {src.shape} vs {dst.shape}")
    n = src.shape[0]
    if n < 3:
        raise DegenerateConfiguration(f"need at least 3 point pairs, got {n}")

    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    X = src - mu_s
    Y = dst - mu_d

    for name, M in (("source", X), ("target", Y)):
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[0] < 1e-12 or sv[1] < 1e-9 * sv[0]:
            raise DegenerateConfiguration(
                f"{name} points are coincident or collinear (singular values {sv})"
            )

    cov = (Y.T @ X) / n
    U, D, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0.0:
        S[2, 2] = -1.0
    R = U @ S @ Vt

    var_src = float(np.mean(np.sum(X * X, axis=1)))
    s = float(np.trace(np.diag(D) @ S)) / var_src
    if s <= 0.0:
        raise DegenerateConfiguration(f"non-positive scale {s} from alignment")
    t = mu_d - s * (R @ mu_s)
    return Similarity(s, R, t)


def _icp(src, tree, init: Similarity, max_iter=ICP_MAX_ITER, tol=ICP_TOL):
    """Point-to-point ICP refinement of a similarity alignment onto tree's points.

    Keeps the scale from the initial alignment fixed and refines the rigid
    part: each iteration matches transformed src points to their nearest
    tree points and solves the rigid Kabsch update.  Stops after max_iter
    iterations or when the mean residual changes by less than tol.

    Returns (sim, matches).  matches is the nearest-neighbor query
    (dists, idx) of sim.apply(src) when the loop stopped on the residual
    test, and None when it ran out of iterations.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    sim = Similarity(init.scale, init.rotation.copy(), init.translation.copy())
    prev = None
    for _ in range(max_iter):
        cur = sim.apply(src)
        dists, idx = tree.query(cur)
        mean_res = float(np.mean(dists))
        if prev is not None and abs(prev - mean_res) < tol:
            return sim, (dists, idx)
        prev = mean_res
        matched = tree.data[idx]
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
    return sim, None


def write_poses(path, poses: Pose):
    """Write a pose stack as text: count line, then per line 'index r00..r22 tx ty tz'."""
    rows = np.concatenate([poses.rotation.reshape(-1, 9), poses.translation], axis=1)
    lines = [str(len(rows))]
    for k, vals in enumerate(rows.tolist()):
        lines.append(" ".join([str(k)] + [repr(v) for v in vals]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_poses(path) -> Pose:
    """Read the pose stack written by write_poses.

    A line that is not its index k (the k-th pose line, from 0) plus 12
    finite numbers, or whose rotation is not orthonormal, raises
    FileFormatError naming that line; a file that is not text raises it
    naming the file.
    """
    with open_text(path) as fh:
        raw = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not raw:
        raise FileFormatError(path, "empty pose file")
    try:
        count = int(raw[0][1])
    except ValueError:
        raise FileFormatError(path, f"bad count line {raw[0][1]!r}", line=raw[0][0])
    if len(raw) - 1 != count:
        raise FileFormatError(path, f"expected {count} pose lines, got {len(raw) - 1}")
    vals = np.empty((count, 12))
    for k, (ln_no, ln) in enumerate(raw[1:]):
        parts = ln.split()
        if len(parts) != 13:
            raise FileFormatError(path, f"expected 13 fields, got {len(parts)}", line=ln_no)
        try:
            index = int(parts[0])
            vals[k] = [float(v) for v in parts[1:]]
        except ValueError:
            raise FileFormatError(path, f"bad pose row {ln!r}", line=ln_no) from None
        if index != k:
            raise FileFormatError(path, f"pose index {index}, expected {k}", line=ln_no)
        if not np.all(np.isfinite(vals[k])):
            raise FileFormatError(path, "pose values must be finite", line=ln_no)
    poses = Pose(vals[:, :9].reshape(-1, 3, 3), np.ascontiguousarray(vals[:, 9:]))
    bad = np.flatnonzero(~poses.is_orthonormal())
    if bad.size:
        raise FileFormatError(path, "rotation not orthonormal", line=raw[1 + bad[0]][0])
    return poses

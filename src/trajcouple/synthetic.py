"""Deterministic synthetic dynamic scenes with ground truth and noisy estimates.

A scene is a smooth height-field surface observed by a moving camera.  The
pixel lattice is glued to the surface (a material parameterization), so a
track's query pixel is constant over time while its camera-coordinate
position moves with the camera — which is exactly what makes camera-frame
trajectories informative for pose recovery.  A tapered sub-region of the
surface can translate or oscillate over time to provide dynamic tracks.

Construction rules that the coupling losses rely on:

* ground-truth camera tracks are defined as bilinear samples of the
  ground-truth grids (the same sampling code path the losses use), so the
  consistency residuals of an unperturbed scene are exactly zero;
* anchor targets are defined by pushing those camera tracks through the
  ground-truth relative poses with the losses' own transform chain, so the
  camera-consistency residuals of an unperturbed scene are exactly zero;
  build_problem derives them for the supervised problem, so a scene, like
  its directory, holds none;
* world tracks are bilinear samples of the world lattice, so static tracks
  are bit-for-bit constant over time; of them, a scene keeps the static mask.

Scale is normalized so the surface bounding-box diagonal is 1.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigDocument, ConfigInvalid, FileFormatError, OutOfDomain,
                     read_json_object)
from .grad import GRIDS, POSES, TRACKS, ParamStore
from .losses import CouplingProblem, LossConfig, transform_samples
from .pointmap import BilinearSampler, PointMapGrid, check_domain, read_pointmap, write_pointmap
from .pose import (REORTHO_PERIOD, Pose, compose, exp_map, inverse, project_rotation,
                   read_poses, relative_pose, write_poses)
from .tracks import read_static_mask, read_tracks, write_static_mask, write_tracks
from .tracks import static_mask as tracks_static_mask

CAMERA_PATHS = ("orbit", "line", "random-walk")
MOTIONS = ("linear", "sinusoidal")

# Dynamic sub-region of the pixel domain, as fractions of [0, W-1] x [0, H-1].
_DYN_X = (0.50, 0.95)
_DYN_Y = (0.20, 0.80)


@dataclass
class SceneConfig(ConfigDocument):
    n_frames: int = 6
    n_static: int = 48
    n_dynamic: int = 0
    camera_path: str = "orbit"
    camera_magnitude: float = 0.6
    motion: str = "linear"
    motion_speed: float = 0.3
    height: int = 16
    width: int = 16
    sigma_pointmap: float = 0.0
    sigma_track: float = 0.0
    sigma_pose: float = 0.0
    occlusion_span: int = 0
    anchor: int = 0
    tau_scale: float = 0.02
    seed: int = 0

    def _check_rules(self):
        if self.n_frames < 1:
            raise ConfigInvalid("n_frames", "must be >= 1")
        if self.height < 2 or self.width < 2:
            raise ConfigInvalid("height" if self.height < 2 else "width", "must be >= 2")
        for name in ("n_static", "n_dynamic"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(name, "track counts must be >= 0")
        if self.n_static + self.n_dynamic < 1:
            raise ConfigInvalid("n_static", "need at least one track")
        if self.camera_path not in CAMERA_PATHS:
            raise ConfigInvalid("camera_path", f"must be one of {CAMERA_PATHS}")
        if self.motion not in MOTIONS:
            raise ConfigInvalid("motion", f"must be one of {MOTIONS}")
        if not self.camera_magnitude >= 0:
            raise ConfigInvalid("camera_magnitude", "must be >= 0")
        if not self.motion_speed >= 0:
            raise ConfigInvalid("motion_speed", "must be >= 0")
        for name in ("sigma_pointmap", "sigma_track", "sigma_pose"):
            if not getattr(self, name) >= 0:
                raise ConfigInvalid(name, "must be >= 0")
        if not 0 <= self.occlusion_span < self.n_frames:
            raise ConfigInvalid("occlusion_span", "must be in [0, n_frames)")
        if not 0 <= self.anchor < self.n_frames:
            raise ConfigInvalid("anchor", "must be a valid frame index")
        if not self.tau_scale > 0:
            raise ConfigInvalid("tau_scale", "must be positive")


@dataclass
class SyntheticScene:
    config: SceneConfig
    cam_poses: Pose  # (T,) camera-to-world
    rel_poses: Pose  # (T,) frame -> anchor-frame transforms
    gt_grids: np.ndarray  # (T, H, W, 3)
    gt_tracks: np.ndarray  # (N, T, 3) camera-frame
    query_pixels: np.ndarray  # (N, T, 2)
    visibility: np.ndarray  # (N, T)
    static_mask: np.ndarray  # (N, T) bool
    pseudo_visibility: np.ndarray  # (N, T)
    est_grids: np.ndarray = None
    est_tracks: np.ndarray = None
    est_rel_poses: Pose = None

    @property
    def n_tracks(self):
        return self.gt_tracks.shape[0]

    @property
    def n_frames(self):
        return self.gt_tracks.shape[1]


def _lookat(eyes, target):
    """(T, 3, 3) camera-to-world rotations of cameras at (T, 3) eyes looking at target.

    +z is up, or +y where a camera looks along z.  Row norms are matmuls,
    which round like the BLAS dot in np.linalg.norm of one vector.
    """
    f = np.asarray(target, dtype=np.float64) - eyes
    f = f / np.sqrt(f[:, None, :] @ f[:, :, None])[:, 0]
    up = np.where(np.abs(f[:, 2:]) > 0.999, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    x = np.cross(up, f)
    x = x / np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    return np.stack([x, np.cross(f, x), f], axis=2)


def _surface_height(u, v):
    # sum of low-frequency sinusoids; smooth and gently curved
    return (
        0.12 * np.sin(2 * np.pi * (1.1 * u + 0.35)) * np.cos(2 * np.pi * (0.8 * v + 0.1))
        + 0.08 * np.sin(2 * np.pi * (0.6 * u - 0.9 * v + 0.45))
    )


def _taper(config):
    h, w = config.height, config.width
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    x0, x1 = _DYN_X[0] * (w - 1), _DYN_X[1] * (w - 1)
    y0, y1 = _DYN_Y[0] * (h - 1), _DYN_Y[1] * (h - 1)

    def bump(v, lo, hi):
        u = (v - lo) / (hi - lo)
        out = np.zeros_like(v)
        inside = (u > 0.0) & (u < 1.0)
        out[inside] = np.sin(np.pi * u[inside]) ** 2
        return out

    return bump(ys, y0, y1)[:, None] * bump(xs, x0, x1)[None, :]


def _displacements(config, direction, t_axis):
    speed = config.motion_speed
    denom = max(config.n_frames - 1, 1)
    if config.motion == "linear":
        mags = speed * (t_axis / denom)
    else:
        mags = speed * np.sin(2.0 * np.pi * t_axis / max(config.n_frames, 1))
    return mags[:, None] * direction[None, :]


def _camera_eyes(config, center, rng):
    """(T,) camera-to-world poses along the configured path."""
    t_axis = np.arange(config.n_frames, dtype=np.float64)
    denom = max(config.n_frames - 1, 1)
    radius = 1.2
    elevation = 0.5
    if config.camera_path == "orbit":
        az = config.camera_magnitude * (t_axis / denom)
        eyes = center + radius * np.stack(
            [np.cos(az) * np.cos(elevation), np.sin(az) * np.cos(elevation),
             np.full_like(az, np.sin(elevation))],
            axis=1,
        )
        return Pose(_lookat(eyes, center), eyes)
    start = center + radius * np.array([np.cos(elevation), 0.0, np.sin(elevation)])
    if config.camera_path == "line":
        direction = np.array([0.0, 1.0, 0.15])
        direction /= np.linalg.norm(direction)
        rotation = _lookat((start + 0.5 * config.camera_magnitude * direction)[None], center)
        return Pose(np.repeat(rotation, config.n_frames, axis=0),
                    start + (config.camera_magnitude * (t_axis / denom))[:, None] * direction)
    # random-walk: small pose increments composed onto an initial look-at, the
    # chain re-projected onto SO(3) every REORTHO_PERIOD steps
    poses = Pose(np.empty((config.n_frames, 3, 3)), np.empty((config.n_frames, 3)))
    poses[0] = Pose(_lookat(start[None], center)[0], start)
    step = config.camera_magnitude / max(config.n_frames, 1)
    for k in range(1, config.n_frames):
        poses[k] = compose(poses[k - 1], exp_map(step * rng.standard_normal(6)))
        if k % REORTHO_PERIOD == 0:
            poses.rotation[k] = project_rotation(poses.rotation[k])
    return poses


def _sample_queries(rng, count, cell_ok, field, cells):
    """Rejection-sample continuous pixels inside cells flagged by cell_ok.

    With no such cell, the config field asking for the tracks is invalid;
    cells says which corners a cell needs.
    """
    if count == 0:
        return np.zeros((0, 2))
    rows, cols = np.nonzero(cell_ok)
    if rows.size == 0:
        h, w = cell_ok.shape
        raise ConfigInvalid(field, f"grid too small for the requested track layout: no cell of "
                                   f"the {h + 1}x{w + 1} grid has {cells}")
    out = np.empty((count, 2))
    for k in range(count):
        c = rng.integers(0, rows.size)
        out[k, 0] = cols[c] + rng.uniform(0.15, 0.85)
        out[k, 1] = rows[c] + rng.uniform(0.15, 0.85)
    return out


def _world(config):
    """The (T, H, W, 3) world lattice per frame, the (H, W) taper and the center; no RNG."""
    h, w, t_frames = config.height, config.width, config.n_frames
    # world lattice, normalized to unit bounding-box diagonal
    xs = np.linspace(-0.5, 0.5, w)
    ys = np.linspace(-0.5, 0.5, h)
    u = np.linspace(0.0, 1.0, w)
    v = np.linspace(0.0, 1.0, h)
    zz = _surface_height(u[None, :], v[:, None])
    lattice = np.stack(
        [np.broadcast_to(xs[None, :], (h, w)), np.broadcast_to(ys[:, None], (h, w)), zz],
        axis=-1,
    ).astype(np.float64)
    span = lattice.reshape(-1, 3).max(axis=0) - lattice.reshape(-1, 3).min(axis=0)
    lattice = lattice / float(np.linalg.norm(span))
    mins = lattice.reshape(-1, 3).min(axis=0)
    maxs = lattice.reshape(-1, 3).max(axis=0)
    diagonal = float(np.linalg.norm(maxs - mins))
    center = 0.5 * (mins + maxs)

    taper = _taper(config)
    direction = np.array([1.0, 0.4, 0.25])
    direction /= np.linalg.norm(direction)
    disp = _displacements(config, direction * diagonal, np.arange(t_frames, dtype=np.float64))
    return lattice[None] + taper[None, :, :, None] * disp[:, None, None, :], taper, center


def generate(config: SceneConfig) -> SyntheticScene:
    """Deterministically build a scene plus noisy estimates from config.seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    h, w, t_frames = config.height, config.width, config.n_frames
    world_stack, taper, center = _world(config)

    cam_poses = _camera_eyes(config, center, rng)
    rel_poses = relative_pose(cam_poses, cam_poses[config.anchor])
    # the anchor's own relative pose is the identity by definition
    rel_poses[config.anchor] = Pose()

    # frame by frame: a batched product here frees two grid-sized temporaries,
    # after which refining the large benchmark scene page-faults some 400x more
    # (ROADMAP item 13)
    gt_grids = np.empty((t_frames, h, w, 3))
    for t in range(t_frames):
        gt_grids[t] = inverse(cam_poses[t]).apply(world_stack[t].reshape(-1, 3)).reshape(h, w, 3)

    # query pixels: constant per track (material pixel parameterization)
    cell_taper = np.stack(
        [taper[:-1, :-1], taper[:-1, 1:], taper[1:, :-1], taper[1:, 1:]]
    )
    static_cells = np.all(cell_taper == 0.0, axis=0)
    dynamic_cells = np.all(cell_taper >= 0.5, axis=0)
    q_static = _sample_queries(rng, config.n_static, static_cells, "n_static",
                               "all four corners at taper 0, outside the dynamic region")
    q_dynamic = _sample_queries(
        rng, config.n_dynamic, dynamic_cells, "n_dynamic",
        f"all four corners at taper >= 0.5, inside the dynamic region x in [{_DYN_X[0]}, "
        f"{_DYN_X[1]}] * (W - 1), y in [{_DYN_Y[0]}, {_DYN_Y[1]}] * (H - 1)")
    q0 = np.concatenate([q_static, q_dynamic], axis=0)
    n = q0.shape[0]
    query_pixels = np.repeat(q0[:, None, :], t_frames, axis=1)

    # visibility with one deterministic occlusion window per track
    visibility = np.ones((n, t_frames))
    if config.occlusion_span > 0 and t_frames - config.occlusion_span >= 1:
        for i in range(n):
            start = int(rng.integers(1, t_frames - config.occlusion_span + 1))
            visibility[i, start : start + config.occlusion_span] = 0.0

    # tracks via the shared sampling path
    ii = np.repeat(np.arange(n), t_frames)
    tt = np.tile(np.arange(t_frames), n)
    sampler = BilinearSampler(gt_grids.shape, tt, query_pixels[ii, tt, 0], query_pixels[ii, tt, 1])
    gt_tracks = sampler.gather(gt_grids).reshape(n, t_frames, 3)

    # the diagonal is 1, so tau_scale is the static threshold in scene units
    static = tracks_static_mask(sampler.gather(world_stack).reshape(n, t_frames, 3),
                                config.tau_scale, visibility)

    scene = SyntheticScene(
        config=config,
        cam_poses=cam_poses,
        rel_poses=rel_poses,
        gt_grids=gt_grids,
        gt_tracks=gt_tracks,
        query_pixels=query_pixels,
        visibility=visibility,
        static_mask=static,
        pseudo_visibility=visibility.copy(),
    )
    est_grids, est_tracks, est_rel = perturb(
        scene, config.sigma_pointmap, config.sigma_track, config.sigma_pose,
        seed=config.seed + 1,
    )
    scene.est_grids = est_grids
    scene.est_tracks = est_tracks
    scene.est_rel_poses = est_rel
    return scene


def anchor_targets(gt_tracks, rel_poses: Pose):
    """(N, T, 3) camera tracks pushed through the relative poses by the losses' transform chain."""
    n, t, _ = gt_tracks.shape
    frames = np.tile(np.arange(t), n)
    return transform_samples(rel_poses, frames, gt_tracks.reshape(-1, 3)).reshape(n, t, 3)


def perturb(scene: SyntheticScene, sigma_pointmap, sigma_track, sigma_pose, seed):
    """Noisy copies of grids, tracks, and relative poses.

    Grid and track points get i.i.d. Gaussian noise.  Each non-anchor
    relative pose is left-composed with exp of a random tangent whose six
    components are N(0, sigma_pose^2); the anchor's relative pose is the
    identity by definition and stays exact.  Zero sigmas return exact copies.
    """
    rng = np.random.default_rng(seed)
    est_grids = scene.gt_grids.copy()
    if sigma_pointmap > 0:
        est_grids += sigma_pointmap * rng.standard_normal(est_grids.shape)
    est_tracks = scene.gt_tracks.copy()
    if sigma_track > 0:
        est_tracks += sigma_track * rng.standard_normal(est_tracks.shape)
    est_rel = scene.rel_poses.copy()
    if sigma_pose > 0:
        moved = np.flatnonzero(np.arange(len(est_rel)) != scene.config.anchor)
        tangents = sigma_pose * rng.standard_normal((moved.size, 6))
        est_rel[moved] = compose(exp_map(tangents), est_rel[moved])
    return est_grids, est_tracks, est_rel


def initial_store(scene: SyntheticScene) -> ParamStore:
    """ParamStore holding the scene's noisy estimates (pose tangents zero)."""
    return ParamStore({
        GRIDS: scene.est_grids,
        TRACKS: scene.est_tracks,
        POSES: np.zeros((scene.n_frames, 6)),
    })


def build_problem(scene: SyntheticScene, loss_cfg: LossConfig = None) -> CouplingProblem:
    """Coupled objective over the scene, supervised exactly when the camera term is on.

    The camera term is the only consumer of 3D ground truth: with it the
    problem takes the anchor targets derived here, the ground-truth static
    mask and the track visibility; without it, the pseudo 2D track
    visibility, no targets and an all-static mask (which optimize refreshes
    when the anchor term is gated).  Both masks use the scene's tau_scale as
    their threshold.
    """
    if loss_cfg is None:
        loss_cfg = LossConfig()
    loss_cfg.validate()
    if loss_cfg.use_cam:
        visibility, mask = scene.visibility, scene.static_mask
        targets = anchor_targets(scene.gt_tracks, scene.rel_poses)
    else:
        visibility, targets = scene.pseudo_visibility, None
        mask = np.ones_like(scene.visibility, dtype=bool)
    return CouplingProblem(
        scene.est_rel_poses,
        query_pixels=scene.query_pixels,
        visibility=visibility,
        static_mask=mask,
        targets=targets,
        config=loss_cfg,
        tau_static=scene.config.tau_scale,
        anchor=scene.config.anchor,
    )


# ---------------------------------------------------------------------------
# Directory layout (file formats in the owning modules).  A scene root holds
# one seed_NNNN directory per seed (four digits or more), which holds
# scene_config.json and the frame directories gt/ and est/.  A frame directory
# holds pointmaps/frame_XXX.pm per frame (XXX = t, three digits or more),
# tracks.txt and rel_poses.txt; gt/ adds pseudo_tracks.txt, poses.txt, static_mask.txt.

_SEED_DIR = re.compile(r"seed_([0-9]{4,})")


def scene_dir(root, seed):
    """The directory of the scene with this seed under a scene root."""
    return os.path.join(root, f"seed_{seed:04d}")


def scene_dirs(root):
    """(seed, directory) of each scene under root, in name order; any other seed_* raises."""
    if not os.path.isdir(root):
        raise FileFormatError(root, "scene directory does not exist")
    found = []
    for name in sorted(entry for entry in os.listdir(root) if entry.startswith("seed_")):
        path, match = os.path.join(root, name), _SEED_DIR.fullmatch(name)
        # only the name scene_dir writes: seed_00005 would be a second scene of seed 5
        if not (match and os.path.isdir(path) and scene_dir(root, int(match[1])) == path):
            raise FileFormatError(path, "not a seed_NNNN scene directory")
        found.append((int(match[1]), path))
    if not found:
        raise FileFormatError(root, "no seed_* scene directories found")
    return found


def _frame_path(frame_dir, t):
    return os.path.join(frame_dir, "pointmaps", f"frame_{t:03d}.pm")


_FRAME_FILE = re.compile(r"frame_([0-9]+)\.pm")


def _frame_names(t):
    """The names frame_000.pm ... of a t-frame scene, lazily and in name (sorted) order.

    A name sorts before its own extensions ('.' < '0'), so after each
    k >= 100 come the k' < t whose digits extend k's: a depth-first walk.
    """
    stack = [f"{k:03d}" for k in reversed(range(min(t, 1000)))]
    while stack:
        digits = stack.pop()
        yield f"frame_{digits}.pm"
        if digits[0] != "0":
            stack.extend(digits + d for d in "9876543210" if int(digits + d) < t)


def _check_frame_names(frame_dir, frames, t):
    """Raise FileFormatError unless frames (path -> grid, in name order) are exactly t's frames.

    The error names the first path, in name order, that is missing or not a
    frame of the scene.  The work grows with the frames found, not with t,
    which comes from a file and can be any size.
    """
    def foreign(path):
        match = _FRAME_FILE.fullmatch(os.path.basename(path))
        return not (match and f"{int(match[1]):03d}" == match[1] and int(match[1]) < t)

    extra = next((path for path in frames if foreign(path)), None)
    if extra is None and len(frames) == t:
        return
    names = (os.path.join(frame_dir, "pointmaps", name) for name in _frame_names(t))
    missing = next((path for path in names if path not in frames), None)
    path = min(p for p in (extra, missing) if p is not None)
    raise FileFormatError(path, "missing pointmap frame" if path == missing
                          else f"not a frame of a {t}-frame scene")


def write_frames(frame_dir, grids, points, visibility, query_pixels, rel_poses):
    """Write a frame directory: each of the (T, H, W, 3) grids, the tracks, the relative poses."""
    os.makedirs(os.path.join(frame_dir, "pointmaps"), exist_ok=True)
    for t, grid in enumerate(grids):
        write_pointmap(_frame_path(frame_dir, t), PointMapGrid(grid, frame_index=t))
    write_tracks(os.path.join(frame_dir, "tracks.txt"), points, visibility, query_pixels)
    write_poses(os.path.join(frame_dir, "rel_poses.txt"), rel_poses)


def read_frames(frame_dir):
    """{path: PointMapGrid} of every .pm file in frame_dir/pointmaps, in name order."""
    pm_dir = os.path.join(frame_dir, "pointmaps")
    if not os.path.isdir(pm_dir):
        raise FileFormatError(pm_dir, "missing, or not a directory")
    paths = sorted(os.path.join(pm_dir, f) for f in os.listdir(pm_dir) if f.endswith(".pm"))
    if not paths:
        raise FileFormatError(pm_dir, "no .pm frames")
    return {path: read_pointmap(path) for path in paths}


def read_track_file(frame_dir):
    """(path, (points, visibility, query_pixels)) of a frame directory's tracks."""
    path = os.path.join(frame_dir, "tracks.txt")
    return path, read_tracks(path)


def read_pose_file(frame_dir):
    """(path, poses) of a frame directory's relative poses, else its camera poses (gt/ only).

    Every pose metric is invariant to the global transform between the two.
    """
    for name in ("rel_poses.txt", "poses.txt"):
        path = os.path.join(frame_dir, name)
        if os.path.exists(path):
            return path, read_poses(path)
    raise FileFormatError(
        os.path.join(frame_dir, "rel_poses.txt"), "missing input file (or poses.txt)"
    )


def save_scene(scene: SyntheticScene, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "scene_config.json"), "w") as fh:
        json.dump({"config": scene.config.to_dict()}, fh, indent=2, sort_keys=True)
    gt = os.path.join(out_dir, "gt")
    write_frames(gt, scene.gt_grids, scene.gt_tracks, scene.visibility, scene.query_pixels,
                 scene.rel_poses)
    write_frames(os.path.join(out_dir, "est"), scene.est_grids, scene.est_tracks,
                 scene.visibility, scene.query_pixels, scene.est_rel_poses)
    write_tracks(os.path.join(gt, "pseudo_tracks.txt"), np.full(scene.gt_tracks.shape, np.nan),
                 scene.pseudo_visibility, scene.query_pixels)
    write_poses(os.path.join(gt, "poses.txt"), scene.cam_poses)
    write_static_mask(os.path.join(gt, "static_mask.txt"), scene.static_mask)


def _fits(path, what, got, want):
    """Raise FileFormatError naming path unless got, read from it, is the scene's want."""
    if got != want:
        raise FileFormatError(path, f"{what} is {got}, expected {want}")


def load_scene(scene_dir) -> SyntheticScene:
    """Read a scene written by save_scene, equal to the saved one field by field.

    Each file must fit scene_config.json: N x T samples in the track,
    pseudo-track and static-mask files, gt/tracks.txt's query pixels inside
    the H x W domain and the other two track files' equal to them, T poses
    in each pose file, and in each pointmaps/ exactly the frames
    frame_000 ... frame_{T-1}, each H x W with header frame index t.  Files
    and keys that earlier versions also wrote (gt/world_tracks.txt,
    gt/targets.txt, the 'derived' object of scene_config.json) are ignored.
    """
    cfg_path = os.path.join(scene_dir, "scene_config.json")
    doc = read_json_object(cfg_path)
    if not isinstance(doc.get("config"), dict):
        raise FileFormatError(cfg_path, "needs a 'config' object")
    config = SceneConfig.from_file_doc(doc["config"], cfg_path)
    n, t = config.n_static + config.n_dynamic, config.n_frames

    gt, est = (os.path.join(scene_dir, sub) for sub in ("gt", "est"))
    grids = []
    for frame_dir in (gt, est):
        frames = read_frames(frame_dir)
        _check_frame_names(frame_dir, frames, t)
        paths = [_frame_path(frame_dir, k) for k in range(t)]
        for k, path in enumerate(paths):
            _fits(path, "H x W", frames[path].points.shape[:2], (config.height, config.width))
            _fits(path, "the header frame index", frames[path].frame_index, k)
        grids.append(np.stack([frames[path].points for path in paths]))

    def tracks(path, pseudo=False, gt_pixels=None):
        points, visibility, pixels = read_tracks(path, pseudo=pseudo)
        _fits(path, "N x T", visibility.shape, (n, t))
        if gt_pixels is None:
            try:
                check_domain(config.height, config.width, pixels[..., 0], pixels[..., 1])
            except OutOfDomain as exc:
                raise FileFormatError(path, str(exc)) from None
        elif not np.array_equal(pixels, gt_pixels):
            raise FileFormatError(path, "query pixels differ from those of gt/tracks.txt")
        return points, visibility, pixels

    def poses(path):
        value = read_poses(path)
        _fits(path, "the pose count", len(value), t)
        return value

    gt_pts, visibility, pixels = tracks(os.path.join(gt, "tracks.txt"))
    _, pseudo_vis, _ = tracks(os.path.join(gt, "pseudo_tracks.txt"), True, pixels)
    est_pts, _, _ = tracks(os.path.join(est, "tracks.txt"), False, pixels)
    cam_poses = poses(os.path.join(gt, "poses.txt"))
    rel_poses = poses(os.path.join(gt, "rel_poses.txt"))
    est_rel = poses(os.path.join(est, "rel_poses.txt"))
    mask_path = os.path.join(gt, "static_mask.txt")
    static = read_static_mask(mask_path)
    _fits(mask_path, "N x T", static.shape, (n, t))

    return SyntheticScene(
        config=config, cam_poses=cam_poses, rel_poses=rel_poses, gt_grids=grids[0],
        gt_tracks=gt_pts, query_pixels=pixels, visibility=visibility, static_mask=static,
        pseudo_visibility=pseudo_vis, est_grids=grids[1], est_tracks=est_pts,
        est_rel_poses=est_rel,
    )

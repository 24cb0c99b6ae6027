"""Seeded random fixtures for gradient verification sweeps.

Each fixture is a small coupled problem with random grids, tracks, pose
tangents (deliberately nonzero, so the left-Jacobian chain is exercised),
targets, gating, and a mix of visible/occluded samples.  The Huber delta
is chosen away from every residual norm so central differences stay in a
smooth region.  The sweep checks each sub-term only against the blocks it
writes (``losses.TERMS``): a detached factor has no derivative to check.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .grad import GRIDS, POSES, TRACKS, ParamStore, finite_diff_check
from .losses import TERMS, CouplingProblem, LossConfig, _Block, _Pass
from .pose import exp_map


def _pick_safe_delta(norms, guard=1e-3):
    """Pick a Huber delta at least `guard` away from every residual norm."""
    norms = np.sort(np.unique(np.round(norms, 12)))
    for delta in np.linspace(0.03, 1.5, 197):
        if norms.size == 0 or np.min(np.abs(norms - delta)) > guard:
            return float(delta)
    return float(np.max(norms) + 10 * guard if norms.size else 0.05)


def random_coupling_fixture(
    seed, n_tracks=5, n_frames=4, height=6, width=7, selfsup=False
):
    """Build a (problem, store) pair with fully random smooth-regime state."""
    rng = np.random.default_rng(seed)
    store = ParamStore.zeros(n_tracks, n_frames, height, width)

    grids = store.view(GRIDS)
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    base_surface = np.stack(
        [0.1 * xx, 0.1 * yy, 1.0 + 0.05 * np.sin(xx + 0.7 * yy)], axis=-1
    )
    grids[:] = base_surface[None] + 0.1 * rng.standard_normal(grids.shape)

    q = np.empty((n_tracks, n_frames, 2))
    q[..., 0] = rng.uniform(0.3, width - 1.3, size=(n_tracks, n_frames))
    q[..., 1] = rng.uniform(0.3, height - 1.3, size=(n_tracks, n_frames))

    tracks = store.view(TRACKS)
    tracks[:] = rng.standard_normal((n_tracks, n_frames, 3)) * 0.5 + np.array([0, 0, 1.0])

    visibility = rng.uniform(0.2, 1.0, size=(n_tracks, n_frames))
    occluded = rng.random((n_tracks, n_frames)) < 0.15
    visibility[occluded] = 0.0
    visibility[0, :] = np.maximum(visibility[0, :], 0.5)

    static_mask = rng.random((n_tracks, n_frames)) < 0.7
    # keep one fully visible, fully gated track so the pose path has signal
    static_mask[0, :] = True

    base_poses = exp_map(rng.standard_normal((n_frames, 6)) * np.repeat([0.4, 0.5], 3))
    tangents = store.view(POSES)
    tangents[:] = 0.3 * rng.standard_normal((n_frames, 6))

    targets = rng.standard_normal((n_tracks, n_frames, 3)) * 0.5

    config = LossConfig(use_cons=True, use_cam=not selfsup, use_anchor=selfsup)
    problem = CouplingProblem(
        base_poses,
        query_pixels=q,
        visibility=visibility,
        static_mask=static_mask,
        targets=None if selfsup else targets,
        config=config,
        tau_static=0.05,
        anchor=0,
    )

    # Residual norms of every active term's Huber, for the delta kink guard,
    # from a copy: the returned problem compiles its geometry on first use.
    # The fixture's samples are far fewer than a block's, so block 0 holds them all.
    bk = _Block(_Pass(replace(problem), store, None), 0)
    live = bk.anchor if selfsup else bk.cam_residual
    norms = np.concatenate([bk.cons[-1], live[-1]])
    problem.config = replace(config, delta=_pick_safe_delta(norms))
    return problem, store


def pick_indices(problem, store, term, block, rng, count=6):
    """Sample indices of `block` that the given term may legitimately touch.

    The anchor term's grid indices lie in the anchor frame, the live side of
    the term.
    """
    if term == "anchor" and block == GRIDS:
        frame_size = store.view(GRIDS)[0].size
        lo = problem.anchor * frame_size
        return rng.integers(lo, lo + frame_size, size=count)
    return rng.integers(0, store[block].size, size=count)


def gradcheck_sweep(problem, store, h=1e-5, tol=1e-4, n_indices=6, seed=0):
    """Finite-difference verification rows for every active (term, block) pair.

    Returns a list of dicts with keys term, block, max_rel_err, passed.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for term in problem.active_terms():
        for block in TERMS[term].writes:
            indices = pick_indices(problem, store, term, block, rng, n_indices)

            def loss_fn(s, tape=None, _term=term):
                return problem.evaluate_term(s, _term, tape)

            err = finite_diff_check(loss_fn, store, block, indices, h)
            rows.append(
                {
                    "term": term,
                    "block": block,
                    "max_rel_err": err,
                    "passed": bool(err < tol),
                }
            )
    return rows

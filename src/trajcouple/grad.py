"""Parameter blocks, a gradient tape, and a finite-difference checker.

The optimization state lives in three named blocks:

* ``grids``  — the pointmaps, ``(T, H, W, 3)``
* ``tracks`` — the camera-frame trajectory points, ``(N, T, 3)``
* ``poses``  — per-frame 6-vector tangents ``(omega, upsilon)`` relative to
  held base poses, ``(T, 6)``

The tape holds one flat gradient per block, indexed like the block's flat
(C-order) view: ``add`` adds a dense block-sized gradient, and
``grad(name)`` is the block's own array.  A taped loss pass adds the pose
and grid blocks once each, and the tracks block once per track term, so a
tape that sums passes without ``reset`` sums their per-pass pose and grid
gradients.  A detached factor gets no gradient because no sub-term forms
partials for it (see the ``writes`` of each sub-term in ``losses.TERMS``).
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange, UnknownBlock

GRIDS = "grids"
TRACKS = "tracks"
POSES = "poses"


class ParamStore:
    """Named float64 parameter blocks, each held in its own shape.

    ``view(name)`` is the shaped block and ``store[name]`` its flat view;
    both share memory with the block.  The store copies its inputs, so
    refining it in place leaves them untouched.
    """

    def __init__(self, blocks: dict):
        self.blocks = {name: np.array(arr, dtype=np.float64, order="C")
                       for name, arr in blocks.items()}

    @classmethod
    def zeros(cls, n_tracks, n_frames, height, width):
        """The three blocks of n_tracks tracks over n_frames height x width frames, all zero."""
        return cls({
            GRIDS: np.zeros((n_frames, height, width, 3)),
            TRACKS: np.zeros((n_tracks, n_frames, 3)),
            POSES: np.zeros((n_frames, 6)),
        })

    def view(self, name):
        try:
            return self.blocks[name]
        except KeyError:
            raise UnknownBlock(f"unknown block {name!r}")

    def __getitem__(self, name):
        return self.view(name).reshape(-1)

    def copy(self):
        return ParamStore(self.blocks)

    def copy_into(self, other: "ParamStore"):
        for name, arr in self.blocks.items():
            np.copyto(other.view(name), arr)


class Tape:
    """Per-block flat gradient accumulator aligned with a ParamStore's flat views."""

    def __init__(self, store: ParamStore):
        self.grads = {name: np.zeros(arr.size) for name, arr in store.blocks.items()}

    def reset(self):
        for g in self.grads.values():
            g.fill(0.0)

    def grad(self, name):
        try:
            return self.grads[name]
        except KeyError:
            raise UnknownBlock(f"unknown block {name!r}")

    def add(self, block, values):
        """Add a dense block-sized gradient."""
        g = self.grad(block)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size != g.size:
            raise ValueError(f"size mismatch for block {block!r}")
        g += values

    def max_abs(self):
        """Largest |entry| over all blocks: NaN if any block holds NaN, 0 if all are empty."""
        # np.max propagates NaN across blocks, where Python's max would drop it
        return float(np.max([
            (max(float(g.max()), -float(g.min())) if g.size else 0.0)
            for g in self.grads.values()
        ]))


# Floor of the relative error's denominator in finite_diff_check
REL_FLOOR = 1e-6


def finite_diff_check(loss_fn, store: ParamStore, block, sample_indices, h):
    """Max relative error between tape gradients and central differences.

    ``loss_fn(store, tape=None) -> float`` must be deterministic.  The
    analytic gradient is taken from one taped evaluation; each sampled
    index is then perturbed by ``+/- h * max(1, |theta|)`` and compared.
    The relative error uses ``|a - n| / max(|a|, |n|, REL_FLOOR)`` so that
    zero-gradient entries whose numeric difference is pure roundoff do not
    explode.
    """
    tape = Tape(store)
    loss_fn(store, tape)
    analytic = tape.grad(block)
    arr = store[block]
    worst = 0.0
    for idx in np.asarray(sample_indices, dtype=np.int64).reshape(-1):
        if not 0 <= idx < arr.size:
            raise IndexOutOfRange(f"index {idx} outside block {block!r}")
        theta = arr[idx]
        step = h * max(1.0, abs(theta))
        arr[idx] = theta + step
        up = loss_fn(store, None)
        arr[idx] = theta - step
        down = loss_fn(store, None)
        arr[idx] = theta
        numeric = (up - down) / (2.0 * step)
        a = analytic[idx]
        err = abs(a - numeric) / max(abs(a), abs(numeric), REL_FLOOR)
        worst = max(worst, err)
    return worst

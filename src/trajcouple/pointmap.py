"""Pixel-aligned pointmap grids and the bilinear sampling operator.

A grid stores one 3D point per pixel, expressed in the owning frame's
camera coordinates.  The sampling domain is [0, W-1] x [0, H-1] in
(x, y) pixel coordinates; locations on the boundary use clamped corner
indices, and anything farther than 1e-9 outside raises OutOfDomain.
The operator S of a sample set is one CSR matrix from samples to grid
pixels; sampling is S @ grids and the grid gradient is S^T @ coeff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, OutOfDomain

_DOMAIN_TOL = 1e-9


@dataclass
class PointMapGrid:
    """H x W grid of 3D points in one frame's camera coordinates."""

    points: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 3 or self.points.shape[2] != 3:
            raise ValueError(f"points must be (H, W, 3), got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("pointmap contains non-finite values")

    @property
    def height(self):
        return self.points.shape[0]

    @property
    def width(self):
        return self.points.shape[1]


def check_domain(height, width, x, y):
    """Raise OutOfDomain unless (x, y) lies in the grid domain (with 1e-9 slack).

    A non-finite pixel lies outside: every comparison with NaN is false.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    bad = ~(
        (x >= -_DOMAIN_TOL)
        & (x <= width - 1 + _DOMAIN_TOL)
        & (y >= -_DOMAIN_TOL)
        & (y <= height - 1 + _DOMAIN_TOL)
    )
    if np.any(bad):
        k = int(np.argmax(bad))
        bx = float(np.ravel(x)[k]) if x.ndim else float(x)
        by = float(np.ravel(y)[k]) if y.ndim else float(y)
        raise OutOfDomain(
            f"pixel ({bx}, {by}) outside domain [0, {width - 1}] x [0, {height - 1}]"
        )


def _corner(coord, size):
    """Lower corner index and fractional offset along one axis."""
    if size > 1:
        lo = np.clip(np.floor(coord), 0, size - 2).astype(np.int64)
        return lo, coord - lo
    return np.zeros(coord.shape, dtype=np.int64), np.zeros_like(coord)


class BilinearSampler:
    """The bilinear sampling operator S of fixed samples on a (T, H, W, 3) stack.

    Built once from the stack shape ``(T, H, W[, 3])``, per-sample frames
    and pixel locations (x, y); the domain check runs here.  Each sample
    keeps the rows of its four corners, ordered (y0,x0), (y0,x1), (y1,x0),
    (y1,x1), in the ``(T*H*W, 3)`` view of the stack, and their weights
    (non-negative up to the domain slack, summing to 1).  ``matrix`` is S
    as an (M, T*H*W) CSR matrix over those arrays, four entries per row in
    corner order; a grid 1 pixel wide or high repeats a corner within a
    row, and S keeps both entries unsummed.  ``gather`` applies S and
    ``adjoint`` S^T, over the samples or over the samples followed by a
    column list compiled with them, whose corner arrays begin with the
    samples' own; either writes into a given array, so a caller that
    holds its buffers allocates nothing.  This is the single sampling path of the package
    (generator, losses and static masks), so equal inputs give bitwise
    equal samples.
    """

    def __init__(self, shape, frames, x, y, columns=None):
        """columns optionally lists samples (repeats allowed) whose corners follow the samples'."""
        n_frames, height, width = shape[:3]
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        check_domain(height, width, x, y)
        x0, fx = _corner(x, width)
        y0, fy = _corner(y, height)
        x1 = np.minimum(x0 + 1, width - 1)
        y1 = np.minimum(y0 + 1, height - 1)
        base = np.asarray(frames, dtype=np.int64).reshape(-1) * height
        top = (base + y0) * width
        bottom = (base + y1) * width
        index = np.int32 if n_frames * height * width * 3 < 2**31 else np.int64
        self.n_points = n_frames * height * width
        rows = np.stack([top + x0, top + x1, bottom + x0, bottom + x1], axis=-1).astype(index)
        weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx], axis=-1)
        m = len(rows)
        if columns is not None:
            rows = np.concatenate([rows, rows[columns]])
            weights = np.concatenate([weights, weights[columns]])
        # the samples' own corners are the head of the arrays of every column
        self.rows, self.weights = rows[:m], weights[:m]
        self._transpose = self._transposed(self.rows, self.weights)
        self._columns_transpose = (self._transpose if columns is None
                                   else self._transposed(rows, weights))
        self.matrix = self._transpose.T  # CSR over the same three arrays
        from scipy.sparse import _sparsetools

        self._kernels = _sparsetools.csr_matvecs, _sparsetools.csc_matvecs

    def _transposed(self, rows, weights):
        """S^T of the columns with these corner rows and weights, as a CSC matrix.

        Built from data, indices and indptr as they are, sharing memory with
        rows and weights; a COO pass would sum a sample's repeated corners.
        gather takes a block's entries at four per sample, so the matrix must
        keep them so.  scipy.sparse loads with the first sampler, not with
        the package.
        """
        from scipy.sparse import csc_matrix

        indptr = np.arange(0, rows.size + 1, 4, dtype=rows.dtype)
        op = csc_matrix(
            (weights.reshape(-1), rows.reshape(-1), indptr), shape=(self.n_points, len(rows))
        )
        if not np.array_equal(op.indptr, indptr):
            raise RuntimeError("scipy.sparse did not keep four entries per sample of S")
        return op

    def gather(self, grids, out=None, start=0):
        """S @ grids: the (M, 3) samples of a (T, H, W, 3) stack.

        With out (C-contiguous), rows [start, start + len(out)) of it are
        written there instead.  The product is scipy's own for ``matrix @
        grids``: its csr_matvecs kernel over S's arrays, accumulating into
        zeros.  A row's sum reads only that row's entries, so a block of
        rows equals those rows of the whole product bit for bit.
        """
        if out is None:
            out = np.empty((len(self.rows), 3))
        _check_out(out)
        m, csr = len(out), self.matrix
        entries = slice(4 * start, 4 * (start + m))
        out.fill(0.0)
        self._kernels[0](m, self.n_points, 3, csr.indptr[:m + 1], csr.indices[entries],
                         csr.data[entries], np.asarray(grids, dtype=np.float64).ravel(),
                         out.reshape(-1))
        return out

    def adjoint(self, coeff, out=None):
        """S^T @ coeff as the dense (T*H*W*3,) grid-block gradient, in out if given.

        coeff is (M, 3), one row per sample, or (M + C, 3), followed by one
        row per entry of the C compiled ``columns``.  S^T is a CSC matrix,
        whose product adds column by column, then corner, then component:
        each grid value accumulates in column order, as a per-sample
        ``np.add.at`` scatter would.  The product is scipy's csc_matvecs
        kernel, accumulating into zeros, as ``S^T @ coeff`` computes it.
        """
        coeff = np.asarray(coeff, dtype=np.float64)
        op = self._transpose if len(coeff) == len(self.rows) else self._columns_transpose
        if out is None:
            out = np.empty(self.n_points * 3)
        _check_out(out)
        out.fill(0.0)
        self._kernels[1](self.n_points, op.shape[1], 3, op.indptr, op.indices, op.data,
                         coeff.ravel(), out.reshape(-1))
        return out


def _check_out(out):
    """The kernels write through out's buffer, so it must be one C-contiguous block."""
    if not out.flags.c_contiguous:
        raise ValueError("the output of a sampling product must be C-contiguous")


# ---------------------------------------------------------------------------
# File format: 3 little-endian int64 header (H, W, frame_index) followed by
# H*W*3 little-endian float64 values in row-major (y, x, component) order.

def write_pointmap(path, grid: PointMapGrid):
    header = np.array([grid.height, grid.width, grid.frame_index], dtype="<i8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(grid.points.astype("<f8").tobytes())


def read_pointmap(path) -> PointMapGrid:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24:
        raise FileFormatError(path, "truncated header")
    h, w, frame = (int(v) for v in np.frombuffer(raw[:24], dtype="<i8"))
    expected = 24 + h * w * 3 * 8
    if h <= 0 or w <= 0 or len(raw) != expected:
        raise FileFormatError(
            path, f"expected {expected} bytes for {h}x{w}x3 grid, got {len(raw)}"
        )
    pts = np.frombuffer(raw[24:], dtype="<f8").reshape(h, w, 3).copy()
    if not np.all(np.isfinite(pts)):
        raise FileFormatError(path, "pointmap contains non-finite values")
    return PointMapGrid(pts, frame_index=frame)


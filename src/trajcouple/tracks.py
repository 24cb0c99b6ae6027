"""Camera-coordinate 3D trajectories, visibility weights, and static gating.

N tracks over T frames are (N, T) arrays: per-sample 3D points expressed
in the frame's own camera coordinates, a visibility weight in [0, 1] (which
is also the loss weight), the 2D query pixel per sample, and a binary static
mask, which static_mask derives from world-coordinate ground-truth tracks.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import FileFormatError, open_text

MIN_VISIBLE_WEIGHT = 1e-3


def _geometric_medians(pts, visible, max_iter=100, tol=1e-14):
    """Weiszfeld geometric median of each (N, T, 3) track's visible frames.

    A track with no visible frame uses all of its frames.  Unlike the
    coordinate-wise median, the geometric median commutes with rigid
    transforms, so displacement norms measured against it are frame
    independent.  Tracks are batched by visible-frame count k, compacted to
    (m, k, 3): numpy then reduces each track in the order it reduces a lone
    (k, 3) subset.  A zero-padded (N, T) batch would round differently,
    because numpy's pairwise sum groups the weights by position.
    """
    visible = visible | ~visible.any(axis=1, keepdims=True)
    counts = visible.sum(axis=1)
    ref = np.empty((pts.shape[0], 3))
    for k in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == k)
        group = pts[rows][visible[rows]].reshape(rows.size, k, 3)
        ref[rows] = _weiszfeld(group, max_iter, tol)
    return ref


def _weiszfeld(pts, max_iter, tol):
    """Geometric medians of (m, k, 3) point sets; each set stops at its own step test."""
    y = pts.mean(axis=1)
    scale = np.abs(pts - y[:, None]).max(axis=(1, 2))
    live = np.flatnonzero(scale > 0.0)  # coincident points keep their mean
    pts, scale = pts[live], scale[live]
    for _ in range(max_iter):
        if live.size == 0:
            break
        d = np.linalg.norm(pts - y[live, None], axis=2)
        w = 1.0 / np.maximum(d, 1e-15 * scale[:, None])
        y_new = (pts * w[:, :, None]).sum(axis=1) / w.sum(axis=1)[:, None]
        step = y_new - y[live]
        y[live] = y_new
        # matmul rounds like the BLAS dot in np.linalg.norm of one vector; einsum does not
        moving = ~(np.sqrt((step[:, None, :] @ step[:, :, None])[:, 0, 0]) <= tol * scale)
        live, pts, scale = live[moving], pts[moving], scale[moving]
    return y


def static_mask(world_points, tau: float, visibility):
    """Binary mask of samples whose world displacement stays below tau.

    A sample (i, t) of the (N, T, 3) world points is static when its
    distance to the track's geometric median over its visible frames is
    below tau; the median is robust to outliers and equivariant under
    rigid motion.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    pts = np.asarray(world_points, dtype=np.float64)
    ref = _geometric_medians(pts, np.asarray(visibility, dtype=np.float64) >= MIN_VISIBLE_WEIGHT)
    return np.linalg.norm(pts - ref[:, None, :], axis=2) < tau


# ---------------------------------------------------------------------------
# Row files (text): a header line "N T", then one line "i t v1 ... vk" per
# sample; each (i, t) appears exactly once, in any order.  Tracks hold
# "x y z visibility px py" (visibility in [0, 1], px py finite, x y z finite
# except in pseudo 2D track files, which hold x = y = z = nan) and static
# masks one 0 or 1.

# rows formatted per write, so that one block's strings, not the file's, are alive at once
_ROWS_PER_WRITE = 256


def _write_rows(path, values):
    """Write (N, T, k) values as one "i t v1 ... vk" row per sample, each number as its repr.

    The repr of a float round-trips, and that of an int is its "%d".  Each
    block of tracks is one join over cells: i, t and the k values, each
    followed by a space, or by the newline that ends the row.
    """
    n, t, k = values.shape
    width = 2 * k + 4
    frames = list(map(repr, range(t)))
    per_write = max(1, _ROWS_PER_WRITE // max(t, 1))
    with open(path, "w") as fh:
        fh.write(f"{n} {t}\n")
        for i0 in range(0, n, per_write):
            block = values[i0:i0 + per_write]
            m = block.shape[0]
            cells = [" "] * (m * t * width)
            cells[0::width] = [i for i in map(repr, range(i0, i0 + m)) for _ in frames]
            cells[2::width] = frames * m
            numbers = list(map(repr, block.reshape(-1).tolist()))
            for c in range(k):
                cells[4 + 2 * c::width] = numbers[c::k]
            cells[width - 1::width] = ["\n"] * (m * t)
            fh.write("".join(cells))


def _read_rows(path, k, dtype=np.float64, rules=()):
    """Read a row file with k values per sample; returns (N, T, k) values.

    Each rule is (ok, message): ok maps the (rows, k) values in file order to
    one bool per row; the first row the first failing rule rejects raises
    FileFormatError, as does a file that is not text.
    """
    with open_text(path) as fh:
        for line, head in enumerate(iter(fh.readline, ""), start=1):
            if head.strip():
                break
        else:
            raise FileFormatError(path, "empty file")
        try:
            n, t = map(int, head.split())
            if n < 0 or t < 0:
                raise ValueError
        except ValueError:
            raise FileFormatError(path, f"bad header {head.strip()!r}", line=line) from None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: counted below
                body = np.loadtxt(fh, dtype=[("it", np.int64, 2), ("v", dtype, k)],
                                  comments=None, ndmin=1)
        except ValueError as exc:
            raise _bad_row(path, k, dtype, exc) from None
    if body.shape[0] != n * t:
        raise FileFormatError(path, f"expected {n * t} rows, got {body.shape[0]}")
    i, f = body["it"].T
    flat = np.where((0 <= i) & (i < n) & (0 <= f) & (f < t), i * t + f, n * t)
    seen = np.zeros(n * t + 1, dtype=bool)
    seen[flat] = True
    if not seen[:-1].all():  # as many rows as samples, so a row is outside or repeats
        first = np.zeros(flat.size, dtype=bool)
        first[np.unique(flat, return_index=True)[1]] = True
        r = int(np.argmin(first & (flat < n * t)))
        raise FileFormatError(path, f"sample ({i[r]}, {f[r]}) out of range or repeated",
                              line=_body_rows(path)[r][0])
    for ok, message in rules:
        if not (good := ok(body["v"])).all():
            raise FileFormatError(path, message, line=_body_rows(path)[np.argmin(good)][0])
    values = np.empty((n * t, k), dtype=dtype)
    values[flat] = body["v"]
    return values.reshape(n, t, k)


def _body_rows(path):
    """(line number, fields) of each non-blank line after the header.

    Called only inside _read_rows's open_text block or after the file
    decoded in full, so a byte that does not decode is reported there.
    """
    with open(path) as fh:
        return [(no, ln.split()) for no, ln in enumerate(fh, start=1) if ln.strip()][1:]


def _bad_row(path, k, dtype, exc):
    """FileFormatError naming the first line that is not "i t" plus k values."""
    cast = int if np.dtype(dtype).kind == "i" else float
    for no, fields in _body_rows(path):
        try:
            if len(fields) != 2 + k:
                raise ValueError
            int(fields[0]), int(fields[1]), [cast(v) for v in fields[2:]]
        except ValueError:
            return FileFormatError(path, f"bad row {' '.join(fields)!r}", line=no)
    return FileFormatError(path, f"bad rows: {exc}")


def write_tracks(path, points, visibility, query_pixels):
    visibility = np.asarray(visibility, dtype=np.float64)
    columns = (np.asarray(points, dtype=np.float64), visibility[..., None],
               np.asarray(query_pixels, dtype=np.float64))
    _write_rows(path, np.concatenate(columns, axis=2))


_TRACK_RULES = (
    (lambda v: (v[:, 3] >= 0.0) & (v[:, 3] <= 1.0), "visibility must be finite and in [0, 1]"),
    (lambda v: np.isfinite(v[:, 4:]).all(axis=1), "pixel px py must be finite"),
)
_POINT_RULE = (lambda v: np.isfinite(v[:, :3]).all(axis=1), "point x y z must be finite")


def read_tracks(path, pseudo=False):
    """Read a track file; returns (points, visibility, query_pixels).

    Points must be finite unless pseudo is set: a pseudo 2D track file holds
    no 3D points (x = y = z = nan).
    """
    rules = _TRACK_RULES if pseudo else _TRACK_RULES + (_POINT_RULE,)
    rows = _read_rows(path, 6, rules=rules)
    return tuple(map(np.ascontiguousarray, (rows[..., :3], rows[..., 3], rows[..., 4:])))


def write_static_mask(path, mask):
    _write_rows(path, np.asarray(mask).astype(int)[..., None])


def read_static_mask(path):
    rule = (lambda v: (v[:, 0] == 0) | (v[:, 0] == 1), "mask values must be 0 or 1")
    rows = _read_rows(path, 1, dtype=np.int64, rules=(rule,))
    return rows[..., 0] == 1

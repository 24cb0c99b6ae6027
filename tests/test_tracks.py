import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from trajcouple import tracks
from trajcouple.errors import FileFormatError
from trajcouple.pose import Pose, exp_map, inverse, read_poses, write_poses
from trajcouple.synthetic import anchor_targets
from trajcouple.tracks import (
    read_static_mask,
    read_tracks,
    static_mask,
    write_static_mask,
    write_tracks,
)


def random_pose(rng):
    return exp_map(np.concatenate([rng.standard_normal(3), rng.standard_normal(3)]))


def all_visible(pts):
    return np.ones(pts.shape[:2])


class TestStaticMask:
    def test_static_point_all_ones(self):
        pts = np.tile(np.array([0.3, -0.1, 2.0]), (1, 7, 1))
        for tau in (1e-6, 0.5, 100.0):
            mask = static_mask(pts, tau, all_visible(pts))
            assert mask.all()

    def test_translating_point_median_reference(self):
        # one unit per frame over T=5; median reference sits at frame 2
        pts = np.zeros((1, 5, 3))
        pts[0, :, 0] = np.arange(5.0)
        mask = static_mask(pts, 0.5, all_visible(pts))
        assert mask.tolist() == [[False, False, True, False, False]]

    def test_huge_tau_all_ones(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((4, 6, 3))
        mask = static_mask(pts, 1e9, all_visible(pts))
        assert mask.all()

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((6, 8, 3))
        taus = [0.1, 0.5, 1.0, 2.0]
        masks = [static_mask(pts, tau, all_visible(pts)) for tau in taus]
        for small, big in zip(masks, masks[1:]):
            assert np.all(big[small])  # tau1 <= tau2 => mask1 subset of mask2

    def test_rigid_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((5, 6, 3))
        g = random_pose(rng)
        moved = g.apply(pts.reshape(-1, 3)).reshape(5, 6, 3)
        vis = all_visible(pts)
        assert np.array_equal(static_mask(pts, 0.7, vis), static_mask(moved, 0.7, vis))

    def test_median_respects_visibility(self):
        # the outlier frame is invisible, so the median ignores it
        pts = np.zeros((1, 5, 3))
        pts[0, 4, 0] = 100.0
        vis = np.ones((1, 5))
        vis[0, 4] = 0.0
        mask = static_mask(pts, 0.5, vis)
        assert mask[0, :4].all() and not mask[0, 4]

    def test_bad_args(self):
        pts = np.zeros((1, 3, 3))
        with pytest.raises(ValueError):
            static_mask(pts, 0.0, all_visible(pts))

    def test_nan_tau_rejected(self):
        pts = np.zeros((1, 3, 3))
        with pytest.raises(ValueError):
            static_mask(pts, np.nan, all_visible(pts))


KINDS = ("no_visible", "one_visible", "coincident", "round_off", "dynamic", "cloud")


def make_track(rng, kind, t):
    """One (T, 3) track and its (T,) visibility for a named input kind."""
    base = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4)
    vis = (rng.random(t) < 0.7).astype(float) * rng.uniform(0.5, 1.0, t)
    if kind == "no_visible":
        vis[:] = rng.uniform(0.0, 1e-4, t) * (rng.random(t) < 0.5)
    elif kind == "one_visible":
        vis[:] = 0.0
        vis[rng.integers(t)] = 1.0
    if kind == "coincident":
        pts = np.tile(base, (t, 1))
    elif kind == "round_off":
        # a static point seen through round-off: a few ulps of spread
        ulps = rng.integers(-3, 4, size=(t, 3))
        pts = base + ulps * np.spacing(base)
    elif kind == "dynamic":
        pts = base + np.outer(np.arange(t), rng.standard_normal(3) * 0.1)
    else:
        pts = base + rng.standard_normal((t, 3)) * 10.0 ** rng.integers(-8, 1)
    return pts, vis


@st.composite
def track_sets(draw):
    t = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    made = [make_track(rng, kind, t) for kind in kinds]
    return np.stack([p for p, _ in made]), np.stack([v for _, v in made]), rng


class TestBatchedMedian:
    """The batched Weiszfeld pass equals the per-track loop bit for bit."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(track_sets(), st.booleans())
    def test_matches_per_track_oracle(self, case, with_visibility):
        pts, vis, rng = case
        visibility = vis if with_visibility else None
        visible = (np.ones(vis.shape, dtype=bool) if visibility is None
                   else visibility >= tracks.MIN_VISIBLE_WEIGHT)
        assert np.array_equal(tracks._geometric_medians(pts, visible),
                              oracles.track_medians(pts, visibility))
        tau = float(rng.uniform(1e-6, 1.0))
        assert np.array_equal(
            static_mask(pts, tau, all_visible(pts) if visibility is None else visibility),
            oracles.static_mask(pts, tau, visibility=visibility),
        )

    def test_identical_points_are_their_own_median(self):
        # their mean is (0.10000000000000006, 0.20000000000000012, 0.30000000000000016)
        point = np.array([0.1, 0.2, 0.3])
        pts = np.tile(point, (1, 32, 1))
        visible = np.ones((1, 32), dtype=bool)
        assert tracks._geometric_medians(pts, visible)[0].tobytes() == point.tobytes()
        assert oracles.geometric_median(pts[0]).tobytes() == point.tobytes()

    def test_long_tracks_match(self):
        # more than 128 visible frames: numpy splits the weight sum recursively
        rng = np.random.default_rng(12)
        made = [make_track(rng, kind, 150) for kind in KINDS * 2]
        pts = np.stack([p for p, _ in made])
        vis = np.stack([v for _, v in made])
        visible = vis >= tracks.MIN_VISIBLE_WEIGHT
        assert np.array_equal(tracks._geometric_medians(pts, visible),
                              oracles.track_medians(pts, vis))


class TestCameraFramePosition:
    """A world point in camera coordinates is inverse(camera).apply(point)."""

    def test_identity_camera(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(inverse(Pose()).apply(x), x)

    def test_sign_convention(self):
        # camera 5 units behind the origin on -z, axes aligned: origin is 5 ahead
        cam = Pose(np.eye(3), np.array([0.0, 0.0, -5.0]))
        assert np.allclose(inverse(cam).apply(np.zeros(3)), [0, 0, 5], atol=1e-12)

    def test_static_point_varies_iff_camera_moves(self):
        # moving camera: camera-frame position of a fixed world point varies;
        # static camera: it is constant
        rng = np.random.default_rng(6)
        x = np.array([0.2, -0.4, 1.0])
        moving = [random_pose(rng) for _ in range(4)]
        tracks = np.stack([inverse(c).apply(x) for c in moving])
        assert np.std(tracks, axis=0).max() > 1e-3
        frozen = [moving[0]] * 4
        tracks = np.stack([inverse(c).apply(x) for c in frozen])
        assert np.std(tracks, axis=0).max() == 0.0


class TestAnchorTargets:
    """Anchor targets: world tracks through the inverse anchor camera, in one batch."""

    def test_identity_anchor(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((3, 4, 3))
        out = inverse(Pose()).apply(pts.reshape(-1, 3)).reshape(pts.shape)
        assert np.array_equal(out, pts)

    def test_static_point_constant_targets(self):
        rng = np.random.default_rng(8)
        point = rng.standard_normal(3)
        pts = np.tile(point, (2, 6, 1))
        out = inverse(random_pose(rng)).apply(pts.reshape(-1, 3)).reshape(pts.shape)
        assert np.allclose(out, out[:, :1, :], atol=1e-12)

    def test_per_frame_transform_oracle(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((4, 5, 3))
        cam = random_pose(rng)
        inv = inverse(cam)
        out = inv.apply(pts.reshape(-1, 3)).reshape(pts.shape)
        for i in range(4):
            for t in range(5):
                assert np.allclose(out[i, t], inv.apply(pts[i, t]), atol=1e-12)


class TestTrackFileIo:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((3, 4, 3))
        vis = rng.uniform(0, 1, size=(3, 4))
        q = rng.uniform(0, 10, size=(3, 4, 2))
        path = tmp_path / "tracks.txt"
        write_tracks(path, pts, vis, q)
        p2, v2, q2 = read_tracks(path)
        assert np.array_equal(p2, pts)
        assert np.array_equal(v2, vis)
        assert np.array_equal(q2, q)

    def test_pseudo_tracks_nan_roundtrip(self, tmp_path):
        vis = np.ones((2, 3))
        q = np.zeros((2, 3, 2))
        path = tmp_path / "pseudo.txt"
        write_tracks(path, np.full((2, 3, 3), np.nan), vis, q)
        p2, v2, _ = read_tracks(path, pseudo=True)
        assert np.all(np.isnan(p2))
        assert np.array_equal(v2, vis)
        with pytest.raises(FileFormatError, match="point x y z must be finite"):
            read_tracks(path)  # a 3D track file must hold its points

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n0 0 1.0\n")
        with pytest.raises(FileFormatError) as err:
            read_tracks(path)
        assert "bad.txt" in str(err.value)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 2\n0 0 1.0 2.0 3.0 1.0 0.0 0.0\n")
        with pytest.raises(FileFormatError):
            read_tracks(path)

    def test_mask_and_targets_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        mask = rng.random((3, 4)) < 0.5
        write_static_mask(tmp_path / "m.txt", mask)
        assert np.array_equal(read_static_mask(tmp_path / "m.txt"), mask)
        # targets are not stored: both of their inputs round-trip exactly,
        # so the targets derived from the files equal the originals bitwise
        pts = rng.standard_normal((3, 4, 3))
        poses = oracles.stack([random_pose(rng) for _ in range(4)])
        write_tracks(tmp_path / "t.txt", pts, np.ones((3, 4)), np.zeros((3, 4, 2)))
        write_poses(tmp_path / "p.txt", poses)
        back = anchor_targets(read_tracks(tmp_path / "t.txt")[0], read_poses(tmp_path / "p.txt"))
        assert np.array_equal(back, anchor_targets(pts, poses))


def write_track_values(path, values):
    write_tracks(path, values[..., :3], values[..., 3], values[..., 4:])


def oracle_track_values(path, values):
    oracles.write_tracks(path, values[..., :3], values[..., 3], values[..., 4:])


ROW_FILES = {
    # name: (writer, reader, values per row, oracle writer)
    "tracks": (write_track_values, read_tracks, 6, oracle_track_values),
    "pseudo": (write_track_values, lambda p: read_tracks(p, pseudo=True), 6,
               oracle_track_values),
    "mask": (lambda p, v: write_static_mask(p, v[..., 0]), read_static_mask, 1,
             lambda p, v: oracles.write_static_mask(p, v[..., 0])),
}


def row_values(name, n=2, t=3, seed=14):
    rng = np.random.default_rng(seed)
    if name == "mask":
        return (rng.random((n, t, 1)) < 0.5).astype(float)
    values = rng.standard_normal((n, t, ROW_FILES[name][2]))
    values[..., 3] = rng.uniform(0.0, 1.0, (n, t))
    if name == "pseudo":
        values[..., :3] = np.nan  # a pseudo 2D track has no 3D point
    return values


def row_lines(tmp_path, name):
    writer = ROW_FILES[name][0]
    path = tmp_path / f"{name}.txt"
    writer(path, row_values(name))
    return path, path.read_text().splitlines()


def read_as_arrays(name, path):
    out = ROW_FILES[name][1](path)
    if name == "mask":
        return out[..., None].astype(float)
    return np.concatenate([out[0], out[1][..., None], out[2]], axis=2)


def replace_field(line, index, value):
    fields = line.split()
    fields[index] = value
    return " ".join(fields)


# each case edits the lines of a valid 2 x 3 file; expected line number or None
BAD_ROWS = {
    "bad_header": (lambda ls: ["2 x"] + ls[1:], 1),
    "short_header": (lambda ls: ["2"] + ls[1:], 1),
    "negative_header": (lambda ls: ["-2 -3"] + ls[1:], 1),
    "negative_index": (lambda ls: ls[:3] + [replace_field(ls[3], 1, "-1")] + ls[4:], 4),
    "frame_index_high": (lambda ls: ls[:3] + [replace_field(ls[3], 1, "3")] + ls[4:], 4),
    "track_index_high": (lambda ls: ls[:5] + [replace_field(ls[5], 0, "2")] + ls[6:], 6),
    "non_integer_index": (lambda ls: ls[:2] + [replace_field(ls[2], 0, "0.0")] + ls[3:], 3),
    "duplicate": (lambda ls: ls[:4] + [ls[2]] + ls[5:], 5),
    "missing_row": (lambda ls: ls[:-1], None),
    "extra_row": (lambda ls: ls + [ls[1]], None),
    "field_count": (lambda ls: ls[:2] + [ls[2] + " 1"] + ls[3:], 3),
    "bad_token": (lambda ls: ls[:6] + [replace_field(ls[6], 2, "x")], 7),
    "empty": (lambda ls: [], None),
    # no rows, but an extent no array holds
    "huge_empty_first": (lambda ls: ["123456789012345678901234567890 0"], 1),
    "huge_empty_second": (lambda ls: ["0 123456789012345678901234567890"], 1),
}


class TestRowFiles:
    @pytest.mark.parametrize("name", ROW_FILES)
    def test_writers_match_per_line_oracle_bytes(self, tmp_path, name):
        values = row_values(name, n=3, t=4)
        if name != "mask":
            special = [np.nan, -0.0, 1e-300, -1.7976931348623157e308, 1e300, 5e-324, 1e16,
                       -123456789.123456789, np.inf]
            flat = values.reshape(-1)
            flat[: len(special)] = special
        writer, _, _, oracle = ROW_FILES[name]
        writer(tmp_path / "new.txt", values)
        oracle(tmp_path / "old.txt", values)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    @pytest.mark.parametrize("shape", [(3, 4, 6), (0, 4, 6), (3, 0, 6), (5, 2, 1), (0, 0, 1),
                                       (300, 7, 6), (2, 1500, 1)])  # several blocks per file
    @pytest.mark.parametrize("kind", ["float", "int"])
    def test_row_writer_matches_per_row_formatter_bytes(self, tmp_path, shape, kind):
        rng = np.random.default_rng(15)
        if kind == "int":  # k = 1 holds a static mask
            values, fmt = rng.integers(0, 2 if shape[2] == 1 else 1000, size=shape), "%d"
        else:
            values, fmt = rng.standard_normal(shape), "%r"
            special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e308]
            flat = values.reshape(-1)
            flat[: len(special)] = special[: flat.size]
        tracks.write_rows(tmp_path / "new.txt", values)
        oracles.write_rows(tmp_path / "old.txt", values, fmt)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    @pytest.mark.parametrize("name", ROW_FILES)
    def test_rows_in_any_order_with_blank_lines(self, tmp_path, name):
        path, lines = row_lines(tmp_path, name)
        expected = read_as_arrays(name, path)
        body = lines[1:][::-1]
        path.write_text("\n" + lines[0] + "\n\n" + "\n  \n".join(body) + "\n\n")
        assert np.array_equal(read_as_arrays(name, path), expected, equal_nan=True)

    @pytest.mark.parametrize("case", BAD_ROWS)
    @pytest.mark.parametrize("name", ROW_FILES)
    def test_malformed_file_raises_file_format_error(self, tmp_path, name, case):
        edit, line = BAD_ROWS[case]
        path, lines = row_lines(tmp_path, name)
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(FileFormatError) as err:
            ROW_FILES[name][1](path)
        assert err.value.path == str(path)
        assert err.value.line == line

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5", "1.5"])
    def test_track_visibility_outside_unit_interval_rejected(self, tmp_path, value):
        path, lines = row_lines(tmp_path, "tracks")
        lines[4] = replace_field(lines[4], 5, value)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="visibility") as err:
            read_tracks(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("value", ["2", "-1", "0.5"])
    def test_mask_values_other_than_0_1_rejected(self, tmp_path, value):
        path, lines = row_lines(tmp_path, "mask")
        lines[2] = replace_field(lines[2], 2, value)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as err:
            read_static_mask(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_targets_rejected(self, tmp_path, value):
        # anchor targets are derived from the 3D track points, which must be finite
        path, lines = row_lines(tmp_path, "tracks")
        lines[3] = replace_field(lines[3], 4, value)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="point x y z must be finite") as err:
            read_tracks(path)
        assert err.value.line == 4
        assert not np.isfinite(read_tracks(path, pseudo=True)[0][0, 2, 2])  # z of sample (0, 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [6, 7])  # px, py
    @pytest.mark.parametrize("name", ["tracks", "pseudo"])
    def test_non_finite_pixel_rejected(self, tmp_path, name, field, value):
        path, lines = row_lines(tmp_path, name)
        lines[5] = replace_field(lines[5], field, value)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="pixel px py must be finite") as err:
            ROW_FILES[name][1](path)
        assert err.value.path == str(path) and err.value.line == 6

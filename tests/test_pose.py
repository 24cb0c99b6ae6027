import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import oracles
from oracles import pose_matrix
from trajcouple.errors import DegenerateConfiguration, FileFormatError, LogNearPi
from trajcouple.pose import (
    _SMALL_ANGLE,
    REORTHO_PERIOD,
    Pose,
    Similarity,
    _icp,
    compose,
    exp_map,
    inverse,
    log_map,
    read_poses,
    relative_pose,
    rotation_angle,
    so3_exp,
    so3_hat,
    so3_left_jacobian,
    umeyama,
    write_poses,
)


def random_pose(rng, rot=1.0, trans=1.0):
    return exp_map(np.concatenate([rot * rng.standard_normal(3), trans * rng.standard_normal(3)]))


# angles on both sides of the 1e-8 small-angle switch and up to near pi
ANGLES = (
    0.0, 1e-300, 1e-12, 5e-9, np.nextafter(1e-8, 0.0), 1e-8, np.nextafter(1e-8, 1.0),
    2e-8, 1e-4, 0.3, 1.0, 2.5, np.pi - 1e-3,
)
# a coordinate axis makes the angle exact, so 1e-8 itself hits the switch
AXES = ("random", (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0))


@st.composite
def tangent_stacks(draw, max_frames=40):
    """(T, 6) tangents whose rotation parts cover the angle cases above."""
    t = draw(st.integers(1, max_frames))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angle = st.one_of(st.sampled_from(ANGLES), st.floats(0.0, np.pi - 1e-3))
    rows = draw(st.lists(st.tuples(angle, st.sampled_from(AXES)), min_size=t, max_size=t))
    tangents = rng.standard_normal((t, 6))
    for k, (theta, axis) in enumerate(rows):
        if axis == "random":
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
        tangents[k, :3] = theta * np.asarray(axis)
    return tangents


@st.composite
def pose_pairs(draw):
    """Two (T,) pose stacks, the first from tangent_stacks."""
    tangents = draw(tangent_stacks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = np.repeat([0.5, 1.0], 3)  # angles well below pi
    return exp_map(tangents), exp_map(rng.standard_normal((len(tangents), 6)) * scales)


def assert_poses_equal(got, expected):
    """A pose stack equals a list of single poses bit for bit."""
    want = oracles.stack(expected)
    assert got.shape == want.shape
    assert np.array_equal(got.rotation, want.rotation)
    assert np.array_equal(got.translation, want.translation)


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestCompose:
    def test_identity(self):
        out = compose(Pose(), Pose())
        assert np.array_equal(out.rotation, np.eye(3))
        assert np.array_equal(out.translation, np.zeros(3))

    def test_inverse_cancels(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_pose(rng)
            out = compose(p, inverse(p))
            assert np.allclose(out.rotation, np.eye(3), atol=1e-9)
            assert np.allclose(out.translation, 0.0, atol=1e-9)

    def test_matches_homogeneous_matrix_oracle(self):
        a = Pose(rot_z(np.pi / 2), np.array([1.0, 0.0, 0.0]))
        b = Pose(rot_z(np.pi / 2), np.array([0.0, 1.0, 0.0]))
        out = compose(a, b)
        expected = pose_matrix(a) @ pose_matrix(b)
        assert np.allclose(pose_matrix(out), expected, atol=1e-12)
        assert np.allclose(out.rotation, rot_z(np.pi), atol=1e-12)

        rng = np.random.default_rng(1)
        for _ in range(50):
            p, q = random_pose(rng), random_pose(rng)
            assert np.allclose(
                pose_matrix(compose(p, q)), pose_matrix(p) @ pose_matrix(q), atol=1e-12
            )

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = pose_matrix(compose(compose(a, b), c))
            right = pose_matrix(compose(a, compose(b, c)))
            assert np.max(np.abs(left - right)) < 1e-9

    def test_long_chain_stays_orthonormal(self):
        rng = np.random.default_rng(3)
        p = Pose()
        q = random_pose(rng, rot=0.02, trans=0.01)
        for _ in range(10_000):
            p = compose(p, q)
        err = np.linalg.norm(p.rotation.T @ p.rotation - np.eye(3))
        assert err < 1e-9
        assert np.linalg.det(p.rotation) > 0

    def test_result_depends_only_on_values(self):
        # a pose rebuilt from its arrays, as read_poses rebuilds one, composes like the original
        rng = np.random.default_rng(7)
        p, q = Pose(), random_pose(rng, rot=0.02, trans=0.01)
        for _ in range(2 * REORTHO_PERIOD + 1):
            p = compose(p, q)
            got, want = compose(p, q), compose(Pose(p.rotation.copy(), p.translation.copy()), q)
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)


class TestStackedPose:
    """Stacked pose arithmetic equals the per-pose formulas of tests/oracles.py bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(pose_pairs())
    def test_matches_per_frame_oracle(self, pair):
        a, b = pair
        t = len(a)
        assert_poses_equal(compose(a, b), [oracles.compose(a[k], b[k]) for k in range(t)])
        # a single pose broadcasts against a stack, on either side
        assert_poses_equal(compose(a[0], b), [oracles.compose(a[0], q) for q in b])
        assert_poses_equal(compose(a, b[-1]), [oracles.compose(p, b[-1]) for p in a])
        assert_poses_equal(compose(a[:1], b[-1]), [oracles.compose(a[0], b[-1])])
        assert_poses_equal(inverse(a), [oracles.inverse(p) for p in a])
        tangents = log_map(b)
        assert np.array_equal(tangents, np.stack([oracles.log_map(q) for q in b]))
        assert_poses_equal(exp_map(tangents), [oracles.exp_map(v) for v in tangents])
        try:
            expected = np.stack([oracles.log_map(p) for p in a])
        except LogNearPi:
            with pytest.raises(LogNearPi):
                log_map(a)
        else:
            assert np.array_equal(log_map(a), expected)
        pts = np.random.default_rng(t).standard_normal((t, 5, 3))
        moved = a.apply(pts)
        for k, p in enumerate(a):
            assert np.array_equal(moved[k], oracles.apply(p, pts[k]))
            assert np.array_equal(p.apply(pts[k]), moved[k])
            assert np.array_equal(p.apply(pts[k, 0]), oracles.apply(p, pts[k, 0]))

    def test_single_pose_is_the_empty_shape(self):
        p = Pose()
        assert p.shape == ()
        with pytest.raises(TypeError):
            len(p)
        with pytest.raises(TypeError):
            p[0]
        with pytest.raises(ValueError):
            Pose(np.eye(3)[None], np.zeros(3))

    def test_indexing_views_and_assigns_frames(self):
        rng = np.random.default_rng(23)
        stack = exp_map(rng.standard_normal((4, 6)))
        frames = list(stack)
        assert len(frames) == 4 and all(f.shape == () for f in frames)
        assert np.shares_memory(frames[2].rotation, stack.rotation)
        expected = [oracles.compose(f, frames[0]) for f in frames[1:3]]
        stack[1:3] = compose(stack[1:3], stack[0])
        assert_poses_equal(stack[1:3], expected)


class TestRelativePose:
    def test_same_frame_is_identity(self):
        rng = np.random.default_rng(4)
        p = random_pose(rng)
        rel = relative_pose(p, p)
        assert np.allclose(pose_matrix(rel), np.eye(4), atol=1e-12)

    def test_identity_source(self):
        rng = np.random.default_rng(5)
        p = random_pose(rng)
        rel = relative_pose(Pose(), p)
        assert np.allclose(pose_matrix(rel), pose_matrix(inverse(p)), atol=1e-12)

    def test_matrix_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p_t, p_x = random_pose(rng), random_pose(rng)
            rel = relative_pose(p_t, p_x)
            expected = np.linalg.inv(pose_matrix(p_x)) @ pose_matrix(p_t)
            assert np.allclose(pose_matrix(rel), expected, atol=1e-12)

    def test_chain_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p_t, p_x = random_pose(rng), random_pose(rng)
            roundtrip = compose(relative_pose(p_t, p_x), relative_pose(p_x, p_t))
            assert np.allclose(pose_matrix(roundtrip), np.eye(4), atol=1e-9)


class TestBatchedSO3:
    """The (..., 3) SO(3) functions equal the one-vector oracles bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(tangent_stacks())
    def test_matches_per_frame_oracle(self, tangents):
        omega = tangents[:, :3]  # strided, as the optimizer passes it
        for fn, oracle in ((so3_hat, oracles.so3_hat), (so3_exp, oracles.so3_exp),
                           (so3_left_jacobian, oracles.so3_left_jacobian)):
            expected = np.stack([oracle(w) for w in omega])
            assert np.array_equal(fn(omega), expected)
            assert np.array_equal(fn(omega.copy()), expected)
            single = fn(omega[0])
            assert single.shape == (3, 3)
            assert np.array_equal(single, expected[0])

    def test_many_random_angles(self):
        # ** on an array and ** on a float round differently for about one
        # angle in a thousand; thousands of angles from 1e-20 to pi meet some
        rng = np.random.default_rng(4)
        axes = rng.standard_normal((5000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        omega = axes * np.concatenate([10.0 ** rng.uniform(-20, -8, 1000),
                                       rng.uniform(0.0, np.pi, 4000)])[:, None]
        for fn, oracle in ((so3_exp, oracles.so3_exp),
                           (so3_left_jacobian, oracles.so3_left_jacobian)):
            assert np.array_equal(fn(omega), np.stack([oracle(w) for w in omega]))

    def test_exp_matches_two_branch_formula(self):
        # one sum with the branch coefficients selected equals both branches
        # built and selected: 1.0 * S is S, for angles on either side of and
        # at the small-angle switch, zero and -0.0 components included
        rng = np.random.default_rng(6)
        axes = rng.standard_normal((20000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        edge = [_SMALL_ANGLE, np.nextafter(_SMALL_ANGLE, 0.0), np.nextafter(_SMALL_ANGLE, 1.0)]
        angles = np.concatenate([10.0 ** rng.uniform(-12, np.log10(3.0), 19000),
                                 np.repeat(edge, 300), np.zeros(100)])
        omega = axes * angles[:, None]
        omega[::11, rng.integers(0, 3)] = -0.0
        omega[-50:] = -0.0
        got, ref = so3_exp(omega), oracles.so3_exp_two_branch(omega)
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
        assert np.array_equal(so3_exp(omega[7]), ref[7])

    def test_leading_axes(self):
        rng = np.random.default_rng(5)
        omega = rng.standard_normal((2, 5, 3))
        for fn in (so3_hat, so3_exp, so3_left_jacobian):
            out = fn(omega)
            assert out.shape == (2, 5, 3, 3)
            assert np.array_equal(out.reshape(10, 3, 3), fn(omega.reshape(10, 3)))

    def test_zero_is_exact_identity(self):
        assert np.array_equal(so3_exp(np.zeros((4, 3))), np.broadcast_to(np.eye(3), (4, 3, 3)))
        assert np.array_equal(so3_left_jacobian(np.zeros(3)), np.eye(3))


class TestTransformPoint:
    def test_identity(self):
        assert np.array_equal(
            Pose().apply(np.array([1.0, 2.0, 3.0])),
            np.array([1.0, 2.0, 3.0]),
        )

    def test_pure_translation(self):
        p = Pose(np.eye(3), np.array([0.0, 0.0, 5.0]))
        assert np.array_equal(p.apply(np.zeros(3)), np.array([0.0, 0.0, 5.0]))

    def test_matrix_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = random_pose(rng)
            x = rng.standard_normal(3)
            expected = (pose_matrix(p) @ np.append(x, 1.0))[:3]
            assert np.allclose(p.apply(x), expected, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        p = random_pose(rng)
        pts = rng.standard_normal((11, 3))
        batch = p.apply(pts)
        for k in range(11):
            assert np.allclose(batch[k], p.apply(pts[k]), atol=1e-14)


class TestExpLog:
    def test_exp_zero_is_identity(self):
        p = exp_map(np.zeros(6))
        assert np.array_equal(p.rotation, np.eye(3))
        assert np.array_equal(p.translation, np.zeros(3))

    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            omega = rng.standard_normal(3)
            omega *= rng.uniform(0.0, 2.9) / max(np.linalg.norm(omega), 1e-12)
            tangent = np.concatenate([omega, rng.standard_normal(3)])
            back = log_map(exp_map(tangent))
            assert np.allclose(back, tangent, atol=1e-9)

    def test_small_angle_taylor(self):
        # 4x4 of exp(tangent) must match I + hat(tangent) to second order
        rng = np.random.default_rng(11)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        for eps in (1e-3, 1e-4):
            scaled = eps * direction
            hat = np.zeros((4, 4))
            hat[:3, :3] = so3_hat(scaled[:3])
            hat[:3, 3] = scaled[3:]
            err = np.max(np.abs(pose_matrix(exp_map(scaled)) - (np.eye(4) + hat)))
            assert err < 2.0 * eps**2

    def test_log_near_pi_raises(self):
        with pytest.raises(LogNearPi):
            log_map(Pose(rot_z(np.pi), np.zeros(3)))
        with pytest.raises(LogNearPi):  # one frame of a stack is enough
            log_map(Pose(np.stack([np.eye(3), rot_z(np.pi)]), np.zeros((2, 3))))
        # angle 3.0 rad is fine
        out = log_map(Pose(rot_z(3.0), np.zeros(3)))
        assert np.allclose(out[:3], [0, 0, 3.0], atol=1e-9)

    def test_rotation_angle(self):
        assert rotation_angle(rot_z(0.7)) == pytest.approx(0.7, abs=1e-12)

    def test_rotation_angle_of_a_stack_equals_per_matrix_oracle(self):
        rng = np.random.default_rng(13)
        axes = rng.standard_normal((len(ANGLES), 3))
        axes *= np.array(ANGLES)[:, None] / np.linalg.norm(axes, axis=1, keepdims=True)
        rotations = so3_exp(np.concatenate([axes, rng.standard_normal((50, 3))]))
        got = rotation_angle(rotations.reshape(9, 7, 3, 3))
        assert got.shape == (9, 7)
        assert got.reshape(-1).tolist() == [oracles.rotation_angle(R) for R in rotations]


class TestUmeyama:
    def test_identity_case(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((10, 3))
        sim = umeyama(pts, pts)
        assert sim.scale == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sim.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(sim.translation, 0.0, atol=1e-12)

    def test_exact_recovery(self):
        rng = np.random.default_rng(13)
        src = rng.standard_normal((25, 3))
        dst = 2.0 * src @ rot_z(np.pi / 4).T + np.array([1.0, 1.0, 1.0])
        sim = umeyama(src, dst)
        assert sim.scale == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(sim.rotation, rot_z(np.pi / 4), atol=1e-9)
        assert np.allclose(sim.translation, [1.0, 1.0, 1.0], atol=1e-9)

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(14)
        src = rng.standard_normal((30, 3))
        true = Similarity(1.7, rot_z(0.9), np.array([0.3, -0.2, 0.5]))
        dst = true.apply(src) + 0.02 * rng.standard_normal((30, 3))
        sim = umeyama(src, dst)
        best = float(np.sum((sim.apply(src) - dst) ** 2))

        scales = rng.uniform(0.5, 3.0, size=100_000)
        angles = rng.uniform(-np.pi, np.pi, size=100_000)
        axes = rng.standard_normal((100_000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        shifts = rng.uniform(-1.0, 1.0, size=(100_000, 3))
        for k in range(0, 100_000, 5000):
            R = so3_exp(axes[k] * angles[k])
            cand = float(
                np.sum((scales[k] * src @ R.T + shifts[k] - dst) ** 2)
            )
            assert best <= cand + 1e-12
        # dense check on a subsample of candidates
        for k in rng.integers(0, 100_000, size=500):
            R = so3_exp(axes[k] * angles[k])
            cand = float(np.sum((scales[k] * src @ R.T + shifts[k] - dst) ** 2))
            assert best <= cand + 1e-12

    def test_left_invariance_of_scale(self):
        rng = np.random.default_rng(15)
        src = rng.standard_normal((20, 3))
        dst = 1.4 * src @ rot_z(0.3).T + 0.1 * rng.standard_normal((20, 3))
        base = umeyama(src, dst).scale
        g = random_pose(rng)
        moved = umeyama(g.apply(src), g.apply(dst)).scale
        assert moved == pytest.approx(base, abs=1e-9)

    def test_degenerate_configurations(self):
        line = np.outer(np.linspace(0, 1, 8), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateConfiguration):
            umeyama(line, line + 1.0)
        same = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
        with pytest.raises(DegenerateConfiguration):
            umeyama(same, same)
        with pytest.raises(DegenerateConfiguration):
            umeyama(np.eye(3)[:2], np.eye(3)[:2])

    def test_exactness_100_random_cases(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            src = rng.standard_normal((12, 3))
            true_scale = rng.uniform(0.2, 5.0)
            true_rot = random_pose(rng).rotation
            true_t = rng.standard_normal(3)
            dst = true_scale * src @ true_rot.T + true_t
            sim = umeyama(src, dst)
            assert abs(sim.scale - true_scale) < 1e-9 * max(1.0, true_scale)
            assert rotation_angle(sim.rotation.T @ true_rot) < 1e-9
            assert np.max(np.abs(sim.translation - true_t)) < 1e-8


class TestSimilarity:
    def test_positive_scale_enforced(self):
        with pytest.raises(ValueError):
            Similarity(-1.0, np.eye(3), np.zeros(3))


class TestIcp:
    def test_refines_rigid_offset_without_correspondence(self):
        rng = np.random.default_rng(18)
        src = rng.uniform(-1, 1, size=(300, 3))
        true = Similarity(1.0, so3_exp(np.array([0.0, 0.0, 0.05])), np.array([0.03, -0.02, 0.01]))
        dst = true.apply(src)
        rng.shuffle(dst)  # destroy index correspondence
        refined = _icp(src, cKDTree(dst), oracles.identity_similarity())[0]
        res = np.mean(np.linalg.norm(refined.apply(src)[:, None] - dst[None], axis=2).min(axis=1))
        assert res < 1e-6

    @pytest.mark.parametrize("angle,max_iter", [(0.05, 20), (0.5, 20), (0.5, 3), (0.05, 0)])
    def test_matches_reference_bitwise(self, angle, max_iter):
        rng = np.random.default_rng(21)
        src = rng.uniform(-1, 1, size=(200, 3)) * [1.0, 1.0, 0.2]
        true = Similarity(1.0, so3_exp(np.array([0.0, 0.1, angle])), np.array([0.4, 0.0, 0.05]))
        dst = true.apply(src)
        init = Similarity(1.5, so3_exp(np.array([0.01, 0.0, 0.0])), np.zeros(3))
        got = _icp(src, cKDTree(dst), init, max_iter=max_iter)[0]
        ref = oracles.icp_refine(src, dst, init, max_iter=max_iter)
        assert got.scale == ref.scale == 1.5
        assert np.array_equal(got.rotation, ref.rotation)
        assert np.array_equal(got.translation, ref.translation)

    def test_returns_last_matches_only_when_converged(self):
        rng = np.random.default_rng(22)
        src = rng.uniform(-1, 1, size=(200, 3)) * [1.0, 1.0, 0.2]
        tree = cKDTree(src + [0.01, 0.0, 0.0])
        sim, matches = _icp(src, tree, oracles.identity_similarity())
        dists, idx = tree.query(sim.apply(src))
        assert np.array_equal(matches[0], dists) and np.array_equal(matches[1], idx)
        assert _icp(src, tree, oracles.identity_similarity(), max_iter=1)[1] is None


class TestPoseFileIo:
    @pytest.mark.parametrize("field,value,message", [
        (4, "x", "bad row"),
        (0, "one", "bad row"),
        (11, "nan", "finite"),
        (12, "inf", "finite"),
        (2, "nan", "finite"),
        (0, "7", "sample (7) out of range or repeated"),  # 3 poses: indices 0, 1, 2
        (0, "0", "sample (0) out of range or repeated"),  # index 0 is on line 3 already
        (5, "1e200", "rotation not orthonormal"),  # rejected before its Gram product overflows
        (5, "-1e200", "rotation not orthonormal"),
        (5, "1.0000011", "rotation not orthonormal"),
    ])
    def test_malformed_row_names_line(self, tmp_path, field, value, message):
        rng = np.random.default_rng(20)
        path = tmp_path / "poses.txt"
        write_poses(path, oracles.stack([random_pose(rng) for _ in range(3)]))
        lines = path.read_text().splitlines()
        fields = lines[2].split()
        fields[field] = value
        lines[2] = " ".join(fields)
        path.write_text("\n\n".join(lines) + "\n")  # blank lines do not shift line numbers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match=re.escape(message)) as err:
                read_poses(path)
        assert err.value.line == 5

    def test_orthonormal_check_within_entry_bound(self):
        # entries within the bound keep the Gram and determinant test
        rng = np.random.default_rng(22)
        base = oracles.stack([random_pose(rng) for _ in range(64)]).rotation
        scale = np.repeat([0.0, 1e-8, 1e-7, 1e-6, 1e-3], [12, 13, 13, 13, 13])
        rot = base + scale[:, None, None] * rng.standard_normal(base.shape)
        rot[::5, :, 0] *= -1.0  # reflections
        rot = np.clip(rot, -1.0, 1.0)
        gram = np.swapaxes(rot, -1, -2) @ rot - np.eye(3)
        want = (np.linalg.norm(gram, axis=(-2, -1)) < 1e-6) & (np.linalg.det(rot) > 0.0)
        got = Pose(rot, np.zeros((64, 3))).is_orthonormal()
        assert np.array_equal(got, want)
        assert want.any() and not want.all()

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        poses = oracles.stack([random_pose(rng) for _ in range(5)])
        path = tmp_path / "poses.txt"
        write_poses(path, poses)
        back = read_poses(path)
        assert len(back) == 5
        assert np.array_equal(back.rotation, poses.rotation)
        assert np.array_equal(back.translation, poses.translation)
        write_poses(path, poses[:0])
        assert read_poses(path).shape == (0,)

    # a track file's two-extent header; a count no int64 holds, with 3 rows
    @pytest.mark.parametrize("header", ["3 1", "12345678901234567890123456789012"])
    def test_header_is_the_pose_count(self, tmp_path, header):
        rng = np.random.default_rng(25)
        path = tmp_path / "poses.txt"
        write_poses(path, oracles.stack([random_pose(rng) for _ in range(3)]))
        path.write_text("\n".join([header] + path.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(FileFormatError) as err:
            read_poses(path)
        assert err.value.path == str(path)

    def test_lines_in_any_order(self, tmp_path):
        rng = np.random.default_rng(23)
        path = tmp_path / "poses.txt"
        write_poses(path, oracles.stack([random_pose(rng) for _ in range(16)]))
        expected = read_poses(path)
        lines = path.read_text().splitlines()
        body = lines[1:]
        path.write_text("\n".join(lines[:1] + [body[k] for k in rng.permutation(len(body))]))
        back = read_poses(path)
        assert np.array_equal(back.rotation, expected.rotation)
        assert np.array_equal(back.translation, expected.translation)

    @pytest.mark.parametrize("count", [0, 1, 16, 70])
    def test_writer_matches_per_line_oracle_bytes(self, tmp_path, count):
        rng = np.random.default_rng(24)
        poses = exp_map(rng.standard_normal((count, 6)))
        special = [-0.0, 1e-300, 5e-324, 1e300, -123456789.123456789]
        poses.translation.reshape(-1)[:len(special)] = special[:3 * count]
        write_poses(tmp_path / "new.txt", poses)
        oracles.write_poses(tmp_path / "old.txt", poses)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

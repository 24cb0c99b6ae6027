import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from trajcouple.errors import IndexOutOfRange, UnknownBlock
from trajcouple.grad import (
    GRIDS,
    POSES,
    TRACKS,
    ParamLayout,
    ParamStore,
    RoutingMask,
    Tape,
    finite_diff_check,
)


def small_store():
    return ParamStore.from_sizes({GRIDS: 12, TRACKS: 9, POSES: 6})


class TestRoutingMask:
    def test_requires_one_flag(self):
        with pytest.raises(ValueError):
            RoutingMask()

    def test_admits(self):
        m = RoutingMask(to_tracks=True, to_poses=True)
        assert m.admits(TRACKS) and m.admits(POSES) and not m.admits(GRIDS)

    def test_unknown_block(self):
        with pytest.raises(UnknownBlock):
            RoutingMask(to_tracks=True).admits("weights")


class TestTape:
    def test_blocked_accumulation_is_noop(self):
        tape = Tape(small_store())
        tape.scatter(GRIDS, [0], [5.0], RoutingMask(to_tracks=True))
        # blocked before any index check: even an out-of-range index is a no-op
        tape.scatter(GRIDS, [99], [5.0], RoutingMask(to_poses=True))
        assert tape.max_abs() == 0.0

    def test_additivity(self):
        tape = Tape(small_store())
        route = RoutingMask(to_tracks=True)
        tape.scatter(TRACKS, [4], [1.0], route)
        tape.scatter(TRACKS, np.array([4], dtype=np.int32), [2.0], route)
        assert tape.grad(TRACKS)[4] == 3.0

    def test_scatter_repeated_indices(self):
        tape = Tape(small_store())
        tape.scatter(POSES, [1, 1, 1], [1.0, 2.0, 4.0], RoutingMask(to_poses=True))
        assert tape.grad(POSES)[1] == 7.0

    def test_scatter_matches_sequential_accumulation_bitwise(self):
        rng = np.random.default_rng(0)
        tape = Tape(small_store())
        idx = rng.integers(0, 12, size=500)
        partials = rng.standard_normal(500) * 10.0 ** rng.integers(-8, 8, size=500)
        tape.scatter(GRIDS, idx, partials, RoutingMask(to_pointmaps=True))
        assert np.array_equal(tape.grad(GRIDS), oracles.accumulate(np.zeros(12), idx, partials))

    def test_reset(self):
        tape = Tape(small_store())
        tape.scatter(POSES, [0], [1.0], RoutingMask(to_poses=True))
        tape.reset()
        assert tape.max_abs() == 0.0

    @given(st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.5, 1e-300, -7e12, np.inf, -np.inf, np.nan]),
                 max_size=5),
        min_size=3, max_size=3))
    def test_max_abs_equals_max_of_abs(self, values):
        # NaN, +-inf, -0.0 and an empty block read as max(np.max(np.abs(g)))
        tape = Tape({GRIDS: len(values[0]), TRACKS: len(values[1]), POSES: len(values[2])})
        for block, vals in zip((GRIDS, TRACKS, POSES), values):
            tape.grad(block)[:] = vals
        ref = max((float(np.max(np.abs(g))) if g.size else 0.0) for g in tape.grads.values())
        got = tape.max_abs()
        assert got == ref or (math.isnan(got) and math.isnan(ref))

    def test_add_dense_block(self):
        tape = Tape(small_store())
        values = np.arange(12.0)
        tape.add(GRIDS, values, RoutingMask(to_tracks=True))
        assert tape.max_abs() == 0.0
        tape.add(GRIDS, values, RoutingMask(to_pointmaps=True))
        tape.add(GRIDS, values, RoutingMask(to_pointmaps=True))
        assert np.array_equal(tape.grad(GRIDS), 2.0 * values)
        with pytest.raises(ValueError, match="size mismatch"):
            tape.add(GRIDS, values[:5], RoutingMask(to_pointmaps=True))

    def test_errors(self):
        tape = Tape(small_store())
        with pytest.raises(UnknownBlock):
            tape.scatter("nope", [0], [1.0], RoutingMask(to_tracks=True))
        with pytest.raises(IndexOutOfRange):
            tape.scatter(POSES, [99], [1.0], RoutingMask(to_poses=True))
        with pytest.raises(IndexOutOfRange):
            tape.scatter(POSES, [0, -1], [1.0, 1.0], RoutingMask(to_poses=True))


class TestParamStore:
    def test_view_shares_memory(self):
        store = small_store()
        view = store.view(TRACKS, (3, 3))
        view[1, 1] = 7.0
        assert store[TRACKS][4] == 7.0

    def test_copy_is_independent(self):
        store = small_store()
        dup = store.copy()
        dup[TRACKS][0] = 1.0
        assert store[TRACKS][0] == 0.0

    def test_layout_sizes(self):
        layout = ParamLayout(n_tracks=3, n_frames=4, height=5, width=6)
        sizes = layout.sizes()
        assert sizes == {GRIDS: 4 * 5 * 6 * 3, TRACKS: 3 * 4 * 3, POSES: 24}
        assert layout.grid_base(1, 2, 3) == ((1 * 5 + 2) * 6 + 3) * 3
        assert layout.pose_base(3) == 18


class TestFiniteDiffCheck:
    def test_linear_loss_machine_epsilon(self):
        store = small_store()
        rng = np.random.default_rng(0)
        store[TRACKS][:] = rng.standard_normal(9)
        route = RoutingMask(to_tracks=True)

        def loss_fn(s, tape=None):
            if tape is not None:
                tape.scatter(TRACKS, np.arange(9), np.ones(9), route)
            return float(np.sum(s[TRACKS]))

        err = finite_diff_check(loss_fn, store, TRACKS, np.arange(9), h=1e-5)
        assert err < 1e-9

    def test_quadratic_loss(self):
        store = small_store()
        rng = np.random.default_rng(1)
        store[POSES][:] = rng.standard_normal(6)
        route = RoutingMask(to_poses=True)

        def loss_fn(s, tape=None):
            if tape is not None:
                tape.scatter(POSES, np.arange(6), 2.0 * s[POSES], route)
            return float(np.sum(s[POSES] ** 2))

        err = finite_diff_check(loss_fn, store, POSES, np.arange(6), h=1e-5)
        assert err < 1e-6

    def test_zero_routed_block_agrees(self):
        # the loss ignores GRIDS entirely: analytic 0 and numeric 0 agree
        store = small_store()
        route = RoutingMask(to_tracks=True)

        def loss_fn(s, tape=None):
            if tape is not None:
                tape.scatter(TRACKS, np.arange(9), 2.0 * s[TRACKS], route)
            return float(np.sum(s[TRACKS] ** 2))

        err = finite_diff_check(loss_fn, store, GRIDS, np.arange(12), h=1e-5)
        assert err == 0.0

    def test_determinism_bitwise(self):
        from trajcouple.fixtures import random_coupling_fixture

        problem, store = random_coupling_fixture(42)
        tape1, tape2 = Tape(store), Tape(store)
        v1 = problem.evaluate(store, tape1).total
        v2 = problem.evaluate(store, tape2).total
        assert v1 == v2
        for block in (GRIDS, TRACKS, POSES):
            assert np.array_equal(tape1.grad(block), tape2.grad(block))

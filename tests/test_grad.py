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
    ParamStore,
    Tape,
    finite_diff_check,
)


def small_store():
    """Blocks of 12 grid, 9 track and 6 pose values."""
    return ParamStore.zeros(n_tracks=3, n_frames=1, height=2, width=2)


class TestTape:
    def test_additivity(self):
        tape = Tape(small_store())
        tape.add(TRACKS, np.eye(9)[4])
        tape.add(TRACKS, 2.0 * np.eye(9)[4])
        assert tape.grad(TRACKS)[4] == 3.0 and np.count_nonzero(tape.grad(TRACKS)) == 1

    def test_scatter_matches_sequential_accumulation_bitwise(self):
        # the pass's per-frame pose sums rely on np.add.at over a 1-D view,
        # offset included, adding repeated indices one at a time, in order
        rng = np.random.default_rng(0)
        tape = Tape(small_store())
        idx = rng.integers(0, 9, size=500)
        partials = rng.standard_normal(500) * 10.0 ** rng.integers(-8, 8, size=500)
        np.add.at(tape.grad(GRIDS)[3:], idx, partials)
        ref = np.zeros(12)
        oracles.accumulate(ref[3:], idx, partials)
        assert np.array_equal(tape.grad(GRIDS), ref)

    def test_reset(self):
        tape = Tape(small_store())
        tape.grad(POSES)[0] = 1.0
        tape.add(GRIDS, np.ones(12))
        tape.reset()
        assert tape.max_abs() == 0.0

    @given(st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.5, 1e-300, -7e12, np.inf, -np.inf, np.nan]),
                 max_size=5),
        min_size=3, max_size=3))
    def test_max_abs_equals_max_of_abs(self, values):
        # NaN, +-inf, -0.0 and an empty block read as np.max over blocks of
        # np.max(np.abs(g)): a NaN in any block, not just the first, gives NaN
        blocks = (GRIDS, TRACKS, POSES)
        tape = Tape(ParamStore({b: np.zeros(len(v)) for b, v in zip(blocks, values)}))
        for block, vals in zip((GRIDS, TRACKS, POSES), values):
            tape.grad(block)[:] = vals
        ref = np.max([(float(np.max(np.abs(g))) if g.size else 0.0) for g in tape.grads.values()])
        got = tape.max_abs()
        assert got == ref or (math.isnan(got) and math.isnan(ref))

    def test_max_abs_keeps_nan_of_any_block(self):
        for block in (GRIDS, TRACKS, POSES):
            tape = Tape(small_store())
            tape.grad(block)[1] = np.nan
            assert math.isnan(tape.max_abs()), block

    def test_add_dense_block(self):
        tape = Tape(small_store())
        values = np.arange(12.0)
        tape.add(GRIDS, values)
        tape.add(GRIDS, values)
        assert np.array_equal(tape.grad(GRIDS), 2.0 * values)
        with pytest.raises(ValueError, match="size mismatch"):
            tape.add(GRIDS, values[:5])

    def test_errors(self):
        tape = Tape(small_store())
        with pytest.raises(UnknownBlock):
            tape.grad("nope")
        with pytest.raises(UnknownBlock):
            tape.add("nope", np.zeros(12))


class TestParamStore:
    def test_view_shares_memory(self):
        store = small_store()
        view = store.view(TRACKS)
        view[1, 0, 1] = 7.0
        assert store[TRACKS][4] == 7.0

    def test_copy_is_independent(self):
        store = small_store()
        dup = store.copy()
        dup[TRACKS][0] = 1.0
        assert store[TRACKS][0] == 0.0

    def test_zeros_block_shapes(self):
        store = ParamStore.zeros(n_tracks=3, n_frames=4, height=5, width=6)
        assert {name: store.view(name).shape for name in (GRIDS, TRACKS, POSES)} == {
            GRIDS: (4, 5, 6, 3), TRACKS: (3, 4, 3), POSES: (4, 6)}
        assert not np.any(store[GRIDS]) and store[GRIDS].size == 4 * 5 * 6 * 3
        store.view(GRIDS)[1, 2, 3, 0] = 1.0
        assert store[GRIDS][((1 * 5 + 2) * 6 + 3) * 3] == 1.0
        with pytest.raises(UnknownBlock):
            store.view("nope")

    def test_copies_its_inputs(self):
        grids = np.ones((1, 2, 2, 3))
        store = ParamStore({GRIDS: grids})
        store.view(GRIDS)[:] = 2.0
        store.copy().view(GRIDS)[:] = 3.0
        assert np.all(grids == 1.0) and np.all(store[GRIDS] == 2.0)


class TestFiniteDiffCheck:
    def test_linear_loss_machine_epsilon(self):
        store = small_store()
        rng = np.random.default_rng(0)
        store[TRACKS][:] = rng.standard_normal(9)

        def loss_fn(s, tape=None):
            if tape is not None:
                tape.add(TRACKS, np.ones(9))
            return float(np.sum(s[TRACKS]))

        err = finite_diff_check(loss_fn, store, TRACKS, np.arange(9), h=1e-5)
        assert err < 1e-9

    def test_quadratic_loss(self):
        store = small_store()
        rng = np.random.default_rng(1)
        store[POSES][:] = rng.standard_normal(6)

        def loss_fn(s, tape=None):
            if tape is not None:
                tape.grad(POSES)[:] += 2.0 * s[POSES]
            return float(np.sum(s[POSES] ** 2))

        err = finite_diff_check(loss_fn, store, POSES, np.arange(6), h=1e-5)
        assert err < 1e-6

    def test_zero_routed_block_agrees(self):
        # the loss ignores GRIDS entirely: analytic 0 and numeric 0 agree
        store = small_store()

        def loss_fn(s, tape=None):
            if tape is not None:
                tape.add(TRACKS, 2.0 * s[TRACKS])
            return float(np.sum(s[TRACKS] ** 2))

        err = finite_diff_check(loss_fn, store, GRIDS, np.arange(12), h=1e-5)
        assert err == 0.0

    def test_index_outside_block_raises(self):
        def loss_fn(s, tape=None):
            return float(np.sum(s[POSES]))

        for indices in ([6], [0, -1]):
            with pytest.raises(IndexOutOfRange):
                finite_diff_check(loss_fn, small_store(), POSES, indices, h=1e-5)

    def test_determinism_bitwise(self):
        from trajcouple.fixtures import random_coupling_fixture

        problem, store = random_coupling_fixture(42)
        tape1, tape2 = Tape(store), Tape(store)
        v1 = problem.evaluate(store, tape1).total
        v2 = problem.evaluate(store, tape2).total
        assert v1 == v2
        for block in (GRIDS, TRACKS, POSES):
            assert np.array_equal(tape1.grad(block), tape2.grad(block))

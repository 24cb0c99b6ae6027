import numpy as np
import pytest

from oracles import (PixelLocation, bilinear_gather, init_query, sample, sample_with_grad,
                     sampling_matrix)
from trajcouple.errors import FileFormatError, OutOfDomain
from trajcouple.pointmap import (
    BilinearSampler,
    PointMapGrid,
    read_pointmap,
    write_pointmap,
)


def random_grid(rng, h=6, w=8, frame=0):
    return PointMapGrid(rng.standard_normal((h, w, 3)), frame_index=frame)


class TestSample:
    def test_integer_pixel_returns_stored_point(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng, 9, 10)
        assert np.array_equal(sample(grid, (3.0, 7.0)), grid.points[7, 3])

    def test_constant_field(self):
        grid = PointMapGrid(np.tile(np.array([1.0, -2.0, 3.0]), (5, 5, 1)))
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.uniform(0, 4, size=2)
            assert np.allclose(sample(grid, u), [1.0, -2.0, 3.0], atol=1e-12)

    def test_linear_field_reproduced(self):
        h, w = 7, 9
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        grid = PointMapGrid(np.stack([xx, yy, np.zeros_like(xx)], axis=-1).astype(float))
        out = sample(grid, PixelLocation(2.25, 5.5))
        assert np.allclose(out, [2.25, 5.5, 0.0], atol=1e-12)

    def test_affine_field_reproduced(self):
        h, w = 5, 6
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        pts = np.stack([2 * xx - yy, 0.5 * yy + 1, xx + yy], axis=-1).astype(float)
        grid = PointMapGrid(pts)
        rng = np.random.default_rng(2)
        for _ in range(25):
            x, y = rng.uniform(0, w - 1), rng.uniform(0, h - 1)
            assert np.allclose(
                sample(grid, (x, y)), [2 * x - y, 0.5 * y + 1, x + y], atol=1e-12
            )

    def test_boundary_exact(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, 4, 5)
        assert np.allclose(sample(grid, (4.0, 3.0)), grid.points[3, 4], atol=1e-12)
        # tiny slack outside is clamped rather than rejected
        sample(grid, (-1e-10, 0.0))

    def test_out_of_domain(self):
        rng = np.random.default_rng(4)
        grid = random_grid(rng, 4, 5)
        for u in [(-0.5, 1.0), (1.0, -0.5), (4.2, 1.0), (1.0, 3.5)]:
            with pytest.raises(OutOfDomain):
                sample(grid, u)


class TestSampleWithGrad:
    def test_integer_pixel_weight_one(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng)
        out = sample_with_grad(grid, (2.0, 3.0))
        assert out.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.weights[1:], 0.0, atol=1e-12)

    def test_cell_center_weights(self):
        rng = np.random.default_rng(6)
        grid = random_grid(rng, 2, 2)
        out = sample_with_grad(grid, (0.5, 0.5))
        assert np.allclose(out.weights, 0.25, atol=1e-12)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 5, 7)
        for _ in range(50):
            u = (rng.uniform(0, 6), rng.uniform(0, 4))
            out = sample_with_grad(grid, u)
            assert np.sum(out.weights) == pytest.approx(1.0, abs=1e-12)

    def test_pixel_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, 6, 8)
        h = 1e-4
        for _ in range(30):
            x = rng.uniform(0.3, 6.4)
            y = rng.uniform(0.3, 4.4)
            if abs(x - round(x)) < 0.05 or abs(y - round(y)) < 0.05:
                continue  # stay away from cell boundaries where d/du jumps
            out = sample_with_grad(grid, (x, y))
            num_x = (sample(grid, (x + h, y)) - sample(grid, (x - h, y))) / (2 * h)
            num_y = (sample(grid, (x, y + h)) - sample(grid, (x, y - h))) / (2 * h)
            assert np.allclose(out.d_du[:, 0], num_x, rtol=1e-5, atol=1e-8)
            assert np.allclose(out.d_du[:, 1], num_y, rtol=1e-5, atol=1e-8)

    def test_corner_weights_match_value_gradient(self):
        # perturbing a corner point changes the sample by weight * delta
        rng = np.random.default_rng(9)
        grid = random_grid(rng, 5, 5)
        u = (2.3, 1.7)
        out = sample_with_grad(grid, u)
        for k in range(4):
            bumped = grid.points.copy()
            bumped[out.rows[k], out.cols[k], 1] += 1e-6
            new = sample(PointMapGrid(bumped), u)
            got = (new - out.value)[1] / 1e-6
            assert got == pytest.approx(out.weights[k], abs=1e-9)


class TestInitQuery:
    def test_delegates_to_sample(self):
        rng = np.random.default_rng(10)
        grid = random_grid(rng, 4, 4, frame=0)
        u = (1.25, 2.5)
        assert np.array_equal(init_query(grid, u), sample(grid, u))

    def test_requires_first_frame(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            init_query(random_grid(rng, 4, 4, frame=3), (1.0, 1.0))


class TestBilinearGather:
    def test_matches_scalar_sample(self):
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((3, 5, 6, 3))
        frames = np.array([0, 2, 1, 2])
        xs = rng.uniform(0, 5, size=4)
        ys = rng.uniform(0, 4, size=4)
        values = BilinearSampler(stack.shape, frames, xs, ys).gather(stack)
        for k in range(4):
            single = sample(PointMapGrid(stack[frames[k]]), (xs[k], ys[k]))
            assert np.array_equal(values[k], single)


def random_queries(rng, shape, m):
    """Frames and pixels covering the interior, the far edges and the corners."""
    t, h, w = shape
    frames = rng.integers(0, t, size=m)
    xs = rng.uniform(0, w - 1, size=m)
    ys = rng.uniform(0, h - 1, size=m)
    xs[::4] = w - 1
    ys[1::4] = h - 1
    xs[2::8], ys[2::8] = 0.0, 0.0
    xs[3::5] = np.floor(xs[3::5])  # integer pixels
    return frames, xs, ys


# 1-pixel-wide or -high grids repeat corners within a sample
SHAPES = [(3, 7, 9), (2, 5, 1), (2, 1, 6), (1, 1, 1), (4, 2, 2)]


class TestBilinearSampler:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gather_bitwise_equals_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = rng.standard_normal(shape + (3,))
        frames, xs, ys = random_queries(rng, shape, 200)
        got = BilinearSampler(shape, frames, xs, ys).gather(stack)
        ref, _, _, _ = bilinear_gather(stack, frames, xs, ys)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_operator_keeps_four_corners_per_sample(self, shape):
        # S holds each sample's corners as they are, repeated ones unsummed
        rng = np.random.default_rng(sum(shape))
        frames, xs, ys = random_queries(rng, shape, 60)
        op = BilinearSampler(shape, frames, xs, ys)
        matrix = sampling_matrix(op)
        assert matrix.shape == (60, int(np.prod(shape)))
        assert np.array_equal(matrix.indptr, np.arange(0, 241, 4))
        assert np.array_equal(matrix.indices, op.rows.reshape(-1))
        assert np.array_equal(matrix.data, op.weights.reshape(-1))

    def test_subsets_gather_bitwise_equal(self):
        rng = np.random.default_rng(21)
        stack = rng.standard_normal((4, 8, 8, 3))
        frames, xs, ys = random_queries(rng, (4, 8, 8), 301)
        full = BilinearSampler(stack.shape, frames, xs, ys).gather(stack)
        pick = rng.permutation(301)[:57]
        part = BilinearSampler(stack.shape, frames[pick], xs[pick], ys[pick]).gather(stack)
        assert np.array_equal(part, full[pick])

    @pytest.mark.parametrize("use_index", [False, True])
    def test_adjoint_identity(self, use_index):
        # <S[index] g, c> == <g, S[index]^T c>, over a repeating column list
        # compiled after the samples, whose own rows of coeff are zero
        for shape in SHAPES:
            rng = np.random.default_rng(22 + sum(shape))
            frames, xs, ys = random_queries(rng, shape, 120)
            index = rng.integers(0, 120, size=200) if use_index else None
            op = BilinearSampler(shape, frames, xs, ys, columns=index)
            g = rng.standard_normal(shape + (3,))
            rows = op.gather(g) if index is None else op.gather(g)[index]
            c = rng.standard_normal(rows.shape)
            st_c = op.adjoint(c if index is None else np.concatenate([np.zeros((120, 3)), c]),
                              np.empty(g.size))
            assert st_c.shape == (g.size,)
            lhs = float(np.sum(rows * c))
            rhs = float(g.reshape(-1) @ st_c)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_adjoint_matches_reference_scatter(self):
        # bitwise equal, sign of zero included, to the reference per-sample
        # np.add.at scatter, over the samples and over the samples followed by
        # a compiled column list (repeating anchor columns, some gated out and
        # so zero-filled); a CSR that merged the repeated corners of 1-pixel-wide
        # or -high grids would add them in another order.  Pixels just outside
        # the domain, within its slack, give corner weights below zero.
        for shape in SHAPES:
            t, h, w = shape
            m, k = 90, 150
            rng = np.random.default_rng(23 + sum(shape))
            frames, xs, ys = random_queries(rng, shape, m)
            xs[5::9], ys[6::9] = -5e-10, h - 1 + 5e-10
            anchors = rng.integers(0, m, size=k)
            op = BilinearSampler(shape, frames, xs, ys, columns=anchors)
            plain = BilinearSampler(shape, frames, xs, ys)
            assert np.array_equal(op.rows, plain.rows) and np.array_equal(op.weights, plain.weights)
            _, rows, cols, weights = bilinear_gather(np.zeros(shape + (3,)), frames, xs, ys)
            if w > 1:
                assert weights.min() < 0.0
            base = ((frames[:, None] * h + rows) * w + cols) * 3

            def scatter(picks, coeff):
                ref = np.zeros(t * h * w * 3)
                np.add.at(ref, (base[picks][:, :, None] + np.arange(3)).reshape(-1),
                          (weights[picks][:, :, None] * coeff[:, None, :]).reshape(-1))
                return ref

            def signed_coeff(n):
                coeff = rng.standard_normal((n, 3))
                coeff[rng.random((n, 3)) < 0.2] = -0.0
                coeff[::7] = -0.0
                return coeff

            samples = np.arange(m)
            coeff = signed_coeff(m)
            got, ref = op.adjoint(coeff, np.empty(t * h * w * 3)), scatter(samples, coeff)
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))

            for with_samples in (True, False):
                kept = np.flatnonzero(rng.random(k) < 0.6)
                sample_coeff, anchor_coeff = signed_coeff(m), signed_coeff(kept.size)
                full = np.zeros((m + k, 3))
                if with_samples:
                    full[:m] = sample_coeff
                full[m + kept] = anchor_coeff
                got = op.adjoint(full, np.empty(t * h * w * 3))
                picks, coeffs = anchors[kept], anchor_coeff
                if with_samples:
                    picks = np.concatenate([samples, picks])
                    coeffs = np.concatenate([sample_coeff, coeffs])
                ref = scatter(picks, coeffs)
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_products_equal_scipys_bit_for_bit(self, shape):
        # gather and adjoint call scipy's private matvec kernels; they must give
        # the bits of the public products, whole and for blocks of rows written
        # into a larger buffer
        from scipy.sparse import hstack

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        rng = np.random.default_rng(31 + sum(shape))
        m, k = 97, 40
        frames, xs, ys = random_queries(rng, shape, m)
        columns = rng.integers(0, m, size=k)
        op = BilinearSampler(shape, frames, xs, ys, columns=columns)
        stack = rng.standard_normal(shape + (3,))
        matrix = sampling_matrix(op)
        whole = matrix @ stack.reshape(-1, 3)
        assert np.array_equal(bits(op.gather(stack)), bits(whole))
        buffer = np.full((m + 10, 3), np.nan)
        for lo, hi in ((0, 30), (30, 31), (31, 97), (50, 50)):
            got = op.gather(stack, buffer[lo + 5:hi + 5], start=lo)
            assert got.base is buffer and np.array_equal(bits(got), bits(whole[lo:hi]))
        coeff = rng.standard_normal((m, 3))
        coeff[rng.random((m, 3)) < 0.2] = -0.0
        ref = (matrix.T @ coeff).reshape(-1)
        assert np.array_equal(bits(op.adjoint(coeff, np.empty(ref.size))), bits(ref))
        extended = np.concatenate([coeff, rng.standard_normal((k, 3))])
        columns_op = hstack([matrix.T, matrix[columns].T], format="csc")
        assert columns_op.nnz == 4 * (m + k)  # repeated corners kept unsummed
        ref = (columns_op @ extended).reshape(-1)
        assert np.array_equal(bits(op.adjoint(extended, np.empty(ref.size))), bits(ref))

    # the products' C kernels check no bounds: an operand that does not fit S
    # raises before they run, instead of reading or writing past its buffer
    @pytest.mark.parametrize("product", [
        lambda op: op.gather(np.zeros((2, 3))),
        lambda op: op.gather(np.zeros((2, 4, 5, 3)), np.empty((3, 2))),
        lambda op: op.gather(np.zeros((2, 4, 5, 3)), np.empty((2, 3)), start=2),
        lambda op: op.adjoint(np.zeros((2, 3)), np.empty(120)),
        lambda op: op.adjoint(np.zeros((3, 3)), np.empty(10)),
    ], ids=["grids", "gather_out", "gather_start", "coeff", "adjoint_out"])
    def test_operands_that_do_not_fit_raise(self, product):
        op = BilinearSampler((2, 4, 5), [0, 1, 1], [1.0, 2.5, 4.0], [0.5, 3.0, 2.0])
        with pytest.raises(ValueError, match="does not fit"):
            product(op)

    # a non-finite pixel is outside too, though NaN compares false with every bound
    @pytest.mark.parametrize("x,y", [(-0.5, 1.0), (1.0, -0.5), (4.2, 1.0), (1.0, 3.5),
                                     (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)])
    def test_out_of_domain_raises_at_build(self, x, y):
        with pytest.raises(OutOfDomain):
            BilinearSampler((2, 4, 5), [0, 1], [1.0, x], [1.0, y])


class TestFileIo:
    def test_pointmap_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(13)
        grid = random_grid(rng, 7, 3, frame=5)
        path = tmp_path / "g.pm"
        write_pointmap(path, grid)
        back = read_pointmap(path)
        assert back.frame_index == 5
        assert np.array_equal(back.points, grid.points)

    def test_pointmap_truncated_raises(self, tmp_path):
        path = tmp_path / "bad.pm"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(FileFormatError):
            read_pointmap(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pointmap_non_finite_file_raises_format_error(self, tmp_path, bad):
        pts = np.zeros((3, 4, 3))
        pts[2, 1, 0] = bad
        path = tmp_path / "bad.pm"
        with open(path, "wb") as fh:
            fh.write(np.array([3, 4, 0], dtype="<i8").tobytes())
            fh.write(pts.astype("<f8").tobytes())
        with pytest.raises(FileFormatError, match="bad.pm"):
            read_pointmap(path)

    def test_non_finite_rejected(self):
        pts = np.zeros((3, 3, 3))
        pts[1, 1, 1] = np.nan
        with pytest.raises(ValueError):
            PointMapGrid(pts)

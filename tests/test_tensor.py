"""Kernel-level tests: every forward against an oracle, every backward
against finite differences in float64."""

import numpy as np
import pytest

from nimbus import tensor as T
from nimbus.errors import ShapeError, SizeError

from _oracles import (conv2d_ref, depthwise_conv2d_backward_ref, depthwise_conv2d_ref,
                      fd_gradient, rel_err, bilinear_ref)

GRAD_TOL = 1e-4


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


class TestAllocation:
    def test_fill_value_and_dtype(self):
        x = T.tensor_new((2, 3, 4, 5), fill=1.5)
        assert x.shape == (2, 3, 4, 5)
        assert x.dtype == np.float32
        assert np.all(x == 1.5)

    def test_zero_size_allowed_negative_rejected(self):
        assert T.tensor_new((2, 0, 4, 4)).size == 0
        with pytest.raises(ShapeError):
            T.tensor_new((2, -1, 4, 4))

    def test_overflowing_allocation_is_size_error(self):
        with pytest.raises(SizeError):
            T.tensor_new((1 << 20, 1 << 20, 1 << 20, 1))

    def test_random_is_seed_deterministic(self):
        a = T.tensor_random((2, 3, 4, 4), "normal", 1.0, seed=42)
        b = T.tensor_random((2, 3, 4, 4), "normal", 1.0, seed=42)
        assert np.array_equal(a, b)
        assert a.dtype == np.float32

    def test_uniform_respects_bound(self):
        a = T.tensor_random((4, 4, 8, 8), "uniform", 0.25, seed=1)
        assert np.all(np.abs(a) <= 0.25)
        with pytest.raises(ShapeError):
            T.tensor_random((1, 1, 1, 1), "cauchy", 1.0, seed=0)

    def test_check_nchw_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            T.check_nchw(np.zeros((3, 4, 5), dtype=np.float32))

    def test_check_nchw_rejects_integers(self):
        with pytest.raises(ShapeError):
            T.check_nchw(np.zeros((1, 1, 4, 4), dtype=np.int32))


class TestConvForward:
    """conv2d against the scalar-loop reference over its whole argument space."""

    def test_known_3x3_same_padding(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 2.0
        y = T.conv2d(x, w, padding=1)
        assert np.array_equal(y, 2.0 * x)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_dense_matches_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 9, 11))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        if (9 + 2 * padding - 3) % stride or (11 + 2 * padding - 3) % stride:
            pytest.skip("not an integral output size")
        got = T.conv2d(x, w, b, stride=stride, padding=padding)
        assert rel_err(got, conv2d_ref(x, w, b, stride, padding)) < 1e-12

    def test_pointwise_matches_reference(self, rng):
        x = rng.standard_normal((2, 6, 5, 7))
        w = rng.standard_normal((4, 6, 1, 1))
        got = T.conv2d(x, w)
        assert rel_err(got, conv2d_ref(x, w)) < 1e-12

    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_depthwise_matches_reference(self, rng, mult):
        x = rng.standard_normal((2, 5, 8, 8))
        w = rng.standard_normal((5 * mult, 1, 3, 3))
        got = T.conv2d(x, w, stride=1, padding=1, groups=5)
        assert rel_err(got, conv2d_ref(x, w, None, 1, 1, 5)) < 1e-12

    def test_grouped_matches_reference(self, rng):
        x = rng.standard_normal((2, 6, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        got = T.conv2d(x, w, padding=1, groups=2)
        assert rel_err(got, conv2d_ref(x, w, None, 1, 1, 2)) < 1e-12

    def test_random_shape_sweep(self, rng):
        """Thirty random shape/stride/padding/group draws against the oracle."""
        for _ in range(30):
            n = int(rng.integers(1, 3))
            groups = int(rng.choice([1, 1, 2, 4]))
            cg = int(rng.integers(1, 4))
            og = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.integers(0, 3))
            h = int(rng.integers(k, 11))
            w_ = int(rng.integers(k, 11))
            span_h = h + 2 * padding - k
            span_w = w_ + 2 * padding - k
            h += (-span_h) % stride
            w_ += (-span_w) % stride
            x = rng.standard_normal((n, groups * cg, h, w_))
            w = rng.standard_normal((groups * og, cg, k, k))
            b = rng.standard_normal(groups * og)
            got = T.conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
            want = conv2d_ref(x, w, b, stride, padding, groups)
            assert rel_err(got, want) < 1e-11, (x.shape, w.shape, stride, padding, groups)

    def test_preserves_float32(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        assert T.conv2d(x, w, padding=1).dtype == np.float32

    def test_rejects_fractional_output(self):
        x = np.zeros((1, 1, 5, 5), dtype=np.float32)
        w = np.zeros((1, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            T.conv2d(x, w, stride=2)

    def test_rejects_group_mismatch(self):
        x = np.zeros((1, 6, 4, 4), dtype=np.float32)
        w = np.zeros((4, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            T.conv2d(x, w, padding=1, groups=2)

    def test_rejects_bad_bias(self):
        x = np.zeros((1, 2, 4, 4), dtype=np.float32)
        w = np.zeros((3, 2, 1, 1), dtype=np.float32)
        with pytest.raises(ShapeError):
            T.conv2d(x, w, np.zeros(2, dtype=np.float32))


class TestConvBackward:
    """Analytic conv gradients against central finite differences."""

    CASES = [
        dict(n=2, groups=1, cg=3, og=4, k=3, stride=1, padding=1, h=6, w=6),
        dict(n=1, groups=1, cg=2, og=3, k=3, stride=2, padding=1, h=7, w=7),
        dict(n=2, groups=4, cg=1, og=2, k=3, stride=1, padding=1, h=5, w=5),
        dict(n=1, groups=2, cg=2, og=2, k=3, stride=1, padding=0, h=6, w=6),
        dict(n=2, groups=1, cg=4, og=3, k=1, stride=1, padding=0, h=5, w=5),
        dict(n=1, groups=3, cg=2, og=1, k=3, stride=2, padding=1, h=5, w=5),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_finite_differences(self, rng, case):
        c = case
        x = rng.standard_normal((c["n"], c["groups"] * c["cg"], c["h"], c["w"]))
        w = rng.standard_normal((c["groups"] * c["og"], c["cg"], c["k"], c["k"]))
        b = rng.standard_normal(c["groups"] * c["og"])
        probe = rng.standard_normal(
            T.conv2d(x, w, b, stride=c["stride"], padding=c["padding"], groups=c["groups"]).shape)

        def loss(xx, ww, bb):
            y = T.conv2d(xx, ww, bb, stride=c["stride"], padding=c["padding"], groups=c["groups"])
            return float((y * probe).sum())

        gx, gw, gb = T.conv2d_backward(x, w, probe, stride=c["stride"],
                                       padding=c["padding"], groups=c["groups"])
        assert rel_err(gx, fd_gradient(lambda a: loss(a, w, b), x)) < GRAD_TOL
        assert rel_err(gw, fd_gradient(lambda a: loss(x, a, b), w)) < GRAD_TOL
        assert rel_err(gb, fd_gradient(lambda a: loss(x, w, a), b)) < GRAD_TOL

    def test_no_bias_returns_none(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        g = rng.standard_normal((1, 2, 4, 4))
        _, _, gb = T.conv2d_backward(x, w, g, padding=1, has_bias=False)
        assert gb is None

    def test_rejects_wrong_grad_shape(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        with pytest.raises(ShapeError):
            T.conv2d_backward(x, w, np.zeros((1, 2, 3, 3)), padding=1)


class TestDepthwiseKernels:
    """The per-sample depthwise kernels against the earlier whole-batch ones.

    The forward and grad_x keep the earlier per-element operation order, so
    they must match bitwise.  grad_w sums in a different order; each entry
    is a float32 sum of L = n * out_h * out_w products, and the bound below
    is the usual random-walk rounding estimate for two such sums,
    2 * sqrt(L) * eps * sum|x * g|, taken per entry.
    """

    SHAPE = (4, 36, 64, 64)

    def _operands(self, rng, mult, shape=SHAPE):
        n, c, h, w = shape
        x = rng.standard_normal(shape).astype(np.float32)
        wt = (0.3 * rng.standard_normal((c * mult, 1, 3, 3))).astype(np.float32)
        b = rng.standard_normal(c * mult).astype(np.float32)
        return x, wt, b

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_forward_bitwise_equal_to_reference(self, rng, mult, padding):
        x, wt, b = self._operands(rng, mult)
        got = T.conv2d(x, wt, b, padding=padding, groups=x.shape[1])
        want = depthwise_conv2d_ref(x, wt, b, stride=1, padding=padding)
        assert got.dtype == np.float32
        assert np.array_equal(got, want)

    def test_strided_forward_bitwise_equal_to_reference(self, rng):
        x, wt, b = self._operands(rng, 2, shape=(4, 36, 65, 65))
        got = T.conv2d(x, wt, b, stride=2, padding=1, groups=36)
        want = depthwise_conv2d_ref(x, wt, b, stride=2, padding=1)
        assert got.shape == (4, 72, 33, 33)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_backward_against_reference(self, rng, mult, padding):
        x, wt, _ = self._operands(rng, mult)
        n, c, h, w = x.shape
        out_hw = h + 2 * padding - 2
        g = rng.standard_normal((n, c * mult, out_hw, out_hw)).astype(np.float32)
        gx, gw, gb = T.conv2d_backward(x, wt, g, padding=padding, groups=c)
        want_gx, want_gw = depthwise_conv2d_backward_ref(x, wt, g, padding=padding)

        assert gx.dtype == np.float32 and gw.dtype == np.float32
        assert np.array_equal(gx, want_gx)
        assert np.array_equal(gb, g.sum(axis=(0, 2, 3)))

        reduction = n * out_hw * out_hw
        _, abs_sum = depthwise_conv2d_backward_ref(
            np.abs(x).astype(np.float64), wt, np.abs(g).astype(np.float64), padding=padding)
        bound = 2.0 * np.sqrt(reduction) * np.finfo(np.float32).eps * abs_sum
        diff = np.abs(gw.astype(np.float64) - want_gw.astype(np.float64))
        assert gw.shape == wt.shape
        assert np.all(diff <= bound), float((diff / bound).max())


class TestMaxPool:
    def test_known_values(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
        y, arg = T.max_pool2(x)
        assert y.item() == 4.0
        assert arg.item() == 3

    def test_tie_takes_lowest_flat_index(self):
        x = np.full((1, 1, 2, 2), 7.0, dtype=np.float32)
        _, arg = T.max_pool2(x)
        assert arg.item() == 0

    def test_matches_blockwise_max(self, rng):
        x = rng.standard_normal((3, 4, 8, 10)).astype(np.float32)
        y, _ = T.max_pool2(x)
        want = x.reshape(3, 4, 4, 2, 5, 2).max(axis=(3, 5))
        assert np.array_equal(y, want)

    def test_rejects_odd_size(self):
        with pytest.raises(ShapeError):
            T.max_pool2(np.zeros((1, 1, 3, 4), dtype=np.float32))

    def test_backward_scatters_to_argmax_only(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        y, arg = T.max_pool2(x)
        g = rng.standard_normal(y.shape)
        gx = T.max_pool2_backward(g, arg)
        want = fd_gradient(lambda a: float((T.max_pool2(a)[0] * g).sum()), x, eps=1e-7)
        assert rel_err(gx, want) < GRAD_TOL
        assert np.count_nonzero(gx) <= g.size


class TestBilinearResize:
    def test_identity_is_bitwise(self, rng):
        x = rng.standard_normal((2, 3, 7, 9)).astype(np.float32)
        assert np.array_equal(T.bilinear_resize(x, 7, 9), x)

    def test_constant_field_stays_constant(self):
        x = T.tensor_new((1, 1, 5, 5), fill=3.25)
        y = T.bilinear_resize(x, 13, 4)
        assert np.allclose(y, 3.25, atol=1e-6)

    @pytest.mark.parametrize("out_hw", [(6, 6), (3, 5), (10, 4), (7, 9), (1, 1)])
    def test_matches_scalar_reference(self, rng, out_hw):
        x = rng.standard_normal((2, 2, 5, 7))
        got = T.bilinear_resize(x, *out_hw)
        for n in range(2):
            for c in range(2):
                want = bilinear_ref(x[n, c], *out_hw)
                assert rel_err(got[n, c], want) < 1e-12

    def test_double_then_inspect_grid_alignment(self):
        """Upsampling 2x with half-pixel centers: interior outputs are
        quarter-point mixtures of their two nearest inputs."""
        x = np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 1, 4)
        y = T.bilinear_resize(x, 1, 8).reshape(-1)
        assert np.allclose(y, [0.0, 0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.0])

    def test_backward_is_exact_adjoint(self, rng):
        x = rng.standard_normal((1, 2, 6, 5))
        g = rng.standard_normal((1, 2, 9, 11))
        gx = T.bilinear_resize_backward(g, 6, 5)
        want = fd_gradient(lambda a: float((T.bilinear_resize(a, 9, 11) * g).sum()), x)
        assert rel_err(gx, want) < GRAD_TOL

    def test_rejects_zero_target(self, rng):
        with pytest.raises(SizeError):
            T.bilinear_resize(np.zeros((1, 1, 4, 4)), 0, 4)


class TestReflectPad:
    def test_pad_then_crop_roundtrips(self, rng):
        x = rng.standard_normal((2, 3, 126, 126)).astype(np.float32)
        y = T.pad_reflect_to(x, 128, 128)
        assert y.shape == (2, 3, 128, 128)
        assert np.array_equal(T.crop_back(y, 126, 126), x)

    def test_odd_difference_pads_bottom_right(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        y = T.pad_reflect_to(x, 4, 4)
        assert np.array_equal(y[0, 0, :3, :3], x[0, 0])
        assert y[0, 0, 3, 0] == x[0, 0, 1, 0]

    def test_reflect_values_on_even_pad(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 1, 4)
        y = T.pad_reflect_to(x, 1, 6)
        assert np.array_equal(y.reshape(-1), [1, 0, 1, 2, 3, 2])

    def test_rejects_shrinking(self):
        with pytest.raises(SizeError):
            T.pad_reflect_to(np.zeros((1, 1, 8, 8), dtype=np.float32), 4, 8)

    def test_rejects_pad_wider_than_input(self):
        with pytest.raises(SizeError):
            T.pad_reflect_to(np.zeros((1, 1, 2, 2), dtype=np.float32), 8, 8)


class TestActivations:
    def test_relu_known_values(self):
        x = np.array([-2.0, 0.0, 3.0], dtype=np.float32).reshape(1, 1, 1, 3)
        assert np.array_equal(T.relu(x).reshape(-1), [0.0, 0.0, 3.0])

    def test_relu_backward_matches_fd(self, rng):
        x = rng.standard_normal((2, 2, 4, 4)) + 0.05  # keep clear of the kink
        g = rng.standard_normal(x.shape)
        gx = T.relu_backward(g, x)
        want = fd_gradient(lambda a: float((T.relu(a) * g).sum()), x)
        assert rel_err(gx, want) < GRAD_TOL

    def test_sigmoid_extremes_stay_finite(self):
        x = np.array([-500.0, -100.0, 0.0, 100.0, 500.0])
        y = T.sigmoid(x)
        assert np.all(np.isfinite(y))
        assert y[2] == 0.5
        assert 0.0 <= y[0] <= 1e-20
        assert 1.0 - 1e-20 <= y[-1] <= 1.0

    def test_sigmoid_backward_matches_fd(self, rng):
        x = rng.standard_normal((1, 2, 3, 3))
        g = rng.standard_normal(x.shape)
        y = T.sigmoid(x)
        gx = T.sigmoid_backward(g, y)
        want = fd_gradient(lambda a: float((T.sigmoid(a) * g).sum()), x)
        assert rel_err(gx, want) < GRAD_TOL


class TestElementwiseArithmetic:
    def test_add_channel_vector_broadcast(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        v = rng.standard_normal(3)
        got = T.add(x, v)
        assert rel_err(got, x + v[None, :, None, None]) < 1e-15

    def test_add_backward_reduces_vector_operand(self, rng):
        g = rng.standard_normal((2, 3, 4, 4))
        ga, gv = T.add_backward(g, (3,))
        assert ga is g
        assert rel_err(gv, g.sum(axis=(0, 2, 3))) < 1e-15

    def test_mul_backward_matches_fd(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        v = rng.standard_normal(3)
        probe = rng.standard_normal(x.shape)
        ga, gv = T.mul_backward(probe, x, v)
        assert rel_err(ga, fd_gradient(lambda a: float((T.mul(a, v) * probe).sum()), x)) < GRAD_TOL
        assert rel_err(gv, fd_gradient(lambda a: float((T.mul(x, a) * probe).sum()), v)) < GRAD_TOL

    def test_mul_rejects_wrong_vector_length(self):
        with pytest.raises(ShapeError):
            T.mul(np.zeros((1, 3, 2, 2), dtype=np.float32), np.zeros(4, dtype=np.float32))

    def test_scale_roundtrip(self, rng):
        x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        assert np.allclose(T.scale(T.scale(x, 2.0), 0.5), x)
        g = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        assert np.allclose(T.scale_backward(g, 3.0), 3.0 * g)


class TestConcatSplit:
    def test_roundtrip(self, rng):
        a = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        b = rng.standard_normal((2, 5, 4, 4)).astype(np.float32)
        y = T.concat_channels(a, b)
        assert y.shape == (2, 8, 4, 4)
        ga, gb = T.split_channels(y, 3)
        assert np.array_equal(ga, a)
        assert np.array_equal(gb, b)

    def test_rejects_spatial_mismatch(self):
        a = np.zeros((1, 2, 4, 4), dtype=np.float32)
        b = np.zeros((1, 2, 5, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            T.concat_channels(a, b)


class TestLosses:
    def test_bce_known_value_at_zero_logit(self):
        x = np.zeros((1, 1, 1, 2))
        t = np.array([0.0, 1.0]).reshape(1, 1, 1, 2)
        loss, _ = T.bce_with_logits(x, t)
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_bce_huge_logits_finite(self):
        x = np.array([1000.0, -1000.0]).reshape(1, 1, 1, 2)
        t = np.array([1.0, 0.0]).reshape(1, 1, 1, 2)
        loss, grad = T.bce_with_logits(x, t)
        assert np.isfinite(loss) and loss < 1e-6
        assert np.all(np.isfinite(grad))

    def test_bce_gradient_matches_fd(self, rng):
        x = rng.standard_normal((2, 1, 3, 3))
        t = (rng.random((2, 1, 3, 3)) > 0.5).astype(np.float64)
        _, grad = T.bce_with_logits(x, t)
        want = fd_gradient(lambda a: T.bce_with_logits(a, t)[0], x)
        assert rel_err(grad, want) < GRAD_TOL

    def test_mse_gradient_matches_fd(self, rng):
        p = rng.standard_normal((2, 2, 3, 3))
        t = rng.standard_normal((2, 2, 3, 3))
        _, grad = T.mse(p, t)
        want = fd_gradient(lambda a: T.mse(a, t)[0], p)
        assert rel_err(grad, want) < GRAD_TOL

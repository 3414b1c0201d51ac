"""Kernel-level tests: every forward against an oracle, every backward
against finite differences in float64."""

import numpy as np
import pytest

from nimbus import tensor as T
from nimbus.errors import ShapeError, SizeError

from _oracles import (bce_with_logits_ref, bilinear_ref, conv2d_backward_window_ref, conv2d_ref,
                      conv2d_window_ref, fd_gradient, max_pool2_ref, rel_err, sigmoid_ref)

GRAD_TOL = 1e-4


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


class TestCheckNchw:
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

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_dense_matches_reference(self, rng, padding, kernel):
        x = rng.standard_normal((2, 3, 9, 11))
        w = rng.standard_normal((4, 3, kernel, kernel))
        b = rng.standard_normal(4)
        got = T.conv2d(x, w, b, padding=padding)
        assert rel_err(got, conv2d_ref(x, w, b, 1, padding)) < 1e-12

    def test_pointwise_matches_reference(self, rng):
        x = rng.standard_normal((2, 6, 5, 7))
        w = rng.standard_normal((4, 6, 1, 1))
        got = T.conv2d(x, w)
        assert rel_err(got, conv2d_ref(x, w)) < 1e-12

    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_depthwise_matches_reference(self, rng, mult):
        x = rng.standard_normal((2, 5, 8, 8))
        w = rng.standard_normal((5 * mult, 1, 3, 3))
        got = T.conv2d(x, w, padding=1, groups=5)
        assert rel_err(got, conv2d_ref(x, w, None, 1, 1, 5)) < 1e-12

    def test_grouped_matches_reference(self, rng):
        x = rng.standard_normal((2, 6, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        got = T.conv2d(x, w, padding=1, groups=2)
        assert rel_err(got, conv2d_ref(x, w, None, 1, 1, 2)) < 1e-12

    def test_random_shape_sweep(self, rng):
        """Thirty random shape/padding/group draws against the oracle."""
        for _ in range(30):
            n = int(rng.integers(1, 3))
            groups = int(rng.choice([1, 1, 2, 4]))
            cg = int(rng.integers(1, 4))
            og = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3]))
            padding = int(rng.integers(0, 3))
            h = int(rng.integers(k, 11))
            w_ = int(rng.integers(k, 11))
            x = rng.standard_normal((n, groups * cg, h, w_))
            w = rng.standard_normal((groups * og, cg, k, k))
            b = rng.standard_normal(groups * og)
            got = T.conv2d(x, w, b, padding=padding, groups=groups)
            want = conv2d_ref(x, w, b, 1, padding, groups)
            assert rel_err(got, want) < 1e-11, (x.shape, w.shape, padding, groups)

    def test_preserves_float32(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        assert T.conv2d(x, w, padding=1).dtype == np.float32

    def test_rejects_kernel_larger_than_padded_input(self):
        x = np.zeros((1, 1, 2, 5), dtype=np.float32)
        w = np.zeros((1, 1, 5, 5), dtype=np.float32)
        with pytest.raises(ShapeError, match="does not fit"):
            T.conv2d(x, w, padding=1)

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
        dict(n=2, groups=1, cg=3, og=4, k=3, padding=1, h=6, w=6),
        dict(n=2, groups=4, cg=1, og=2, k=3, padding=1, h=5, w=5),
        dict(n=1, groups=2, cg=2, og=2, k=3, padding=0, h=6, w=6),
        dict(n=2, groups=1, cg=4, og=3, k=1, padding=0, h=5, w=5),
        dict(n=1, groups=3, cg=1, og=2, k=3, padding=1, h=5, w=5),
        dict(n=1, groups=1, cg=2, og=1, k=7, padding=3, h=8, w=8),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_finite_differences(self, rng, case):
        c = case
        x = rng.standard_normal((c["n"], c["groups"] * c["cg"], c["h"], c["w"]))
        w = rng.standard_normal((c["groups"] * c["og"], c["cg"], c["k"], c["k"]))
        b = rng.standard_normal(c["groups"] * c["og"])
        probe = rng.standard_normal(
            T.conv2d(x, w, b, padding=c["padding"], groups=c["groups"]).shape)

        def loss(xx, ww, bb):
            y = T.conv2d(xx, ww, bb, padding=c["padding"], groups=c["groups"])
            return float((y * probe).sum())

        gx, gw, gb = T.conv2d_backward(x, w, probe, padding=c["padding"])
        assert rel_err(gx, fd_gradient(lambda a: loss(a, w, b), x)) < GRAD_TOL
        assert rel_err(gw, fd_gradient(lambda a: loss(x, a, b), w)) < GRAD_TOL
        assert rel_err(gb, fd_gradient(lambda a: loss(x, w, a), b)) < GRAD_TOL

    def test_rejects_wrong_grad_shape(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        with pytest.raises(ShapeError):
            T.conv2d_backward(x, w, np.zeros((1, 2, 3, 3)), padding=1)

    @pytest.mark.parametrize("w_shape", [(4, 3, 3, 3), (4, 8, 3, 3), (4, 0, 3, 3)])
    def test_refuses_a_weight_that_implies_no_groups(self, rng, w_shape):
        """The groups are C_in / weight.shape[1].  A weight whose channels
        per group do not divide C_in gets conv2d's refusal, not a grouped
        gradient or an error naming groups the caller never passed."""
        x = rng.standard_normal((1, 4, 4, 4))
        w = np.ones(w_shape)
        with pytest.raises(ShapeError, match=f"^weight expects {w_shape[1]} channels per group, "
                                             "input has 4$"):
            T.conv2d_backward(x, w, np.zeros((1, 4, 4, 4)), padding=1)


class TestDepthwiseKernels:
    """The im2col conv kernel against the earlier whole-batch window-einsum
    kernels, for every k x k conv: depthwise, grouped and dense.

    Each output of the forward is a float32 sum of K = cg*kh*kw products
    (cg input channels per group), and each entry of grad_x one of at most
    K = mult*kh*kw (mult output channels per group); the kernel and the
    references add them in different orders.  Recursive float32 summation
    of n products errs by at most (n-1)*eps/2 times the sum of their
    magnitudes, to first order, so the two can differ by at most
    K * eps * sum|x * w| per entry (sum|g * w| for grad_x), the bound
    below.  grad_w is a float32 sum of L = n * out_h * out_w products per
    entry, and its bound is the usual random-walk rounding estimate for two
    such sums, 2 * sqrt(L) * eps * sum|x * g|.  The inputs are ReLU outputs,
    full of exact zeros, and one kernel is all negative.  The flat layout
    depends on the padded width, so the shapes include a non-square input
    and an odd width.  Every sample runs the same GEMMs whatever the batch,
    which the batch-split pins check byte for byte.  The class and the two
    depthwise forward tests keep the names they had when they covered only
    the depthwise kernel against its bitwise reference; what they check
    now is the bound.
    """

    SHAPES = [(4, 36, 64, 64), (3, 36, 48, 80), (2, 8, 17, 63)]
    # (id, input shape, weight shape, groups, padding): the desk's 7x7
    # spatial gate, the gate unpadded, a grouped conv, a dense one with
    # more output than input channels, an unpadded 1x1 one that narrows and
    # the desk's 16 -> 16 logit head, a 1x1 one that does not.
    GENERAL = [
        ("gate", (4, 2, 64, 64), (1, 2, 7, 7), 1, 3),
        ("unpadded-gate", (2, 2, 16, 16), (1, 2, 7, 7), 1, 0),
        ("grouped", (3, 12, 17, 23), (8, 3, 3, 3), 4, 1),
        ("wide", (2, 3, 17, 23), (6, 3, 3, 3), 1, 1),
        ("pointwise", (2, 12, 17, 23), (4, 12, 1, 1), 1, 0),
        ("head", (2, 16, 17, 23), (16, 16, 1, 1), 1, 0),
    ]
    # The cases with fewer output than input channels per group, whose
    # grad_x is a forward conv of grad_out.
    TRANSPOSED = {"gate", "unpadded-gate", "grouped", "pointwise"}
    EPS = np.finfo(np.float32).eps

    def _operands(self, rng, x_shape, w_shape):
        x = rng.standard_normal(x_shape).astype(np.float32)
        x[x < 0.0] = 0.0
        wt = (0.3 * rng.standard_normal(w_shape)).astype(np.float32)
        wt[0] = -np.abs(wt[0])
        b = rng.standard_normal(w_shape[0]).astype(np.float32)
        return x, wt, b

    def _depthwise(self, rng, mult, shape):
        return self._operands(rng, shape, (shape[1] * mult, 1, 3, 3))

    def _assert_forward_within_bound(self, x, wt, b, padding, groups):
        got = T.conv2d(x, wt, padding=padding, groups=groups)
        want = conv2d_window_ref(x, wt, padding=padding, groups=groups)
        assert got.dtype == np.float32 and got.shape == want.shape
        abs_sum = conv2d_window_ref(np.abs(x).astype(np.float64), np.abs(wt).astype(np.float64),
                                    padding=padding, groups=groups)
        _, cg, kh, kw = wt.shape
        bound = cg * kh * kw * self.EPS * abs_sum
        diff = np.abs(got.astype(np.float64) - want.astype(np.float64))
        assert np.all(diff <= bound), (x.shape, float((diff / np.maximum(bound, 1e-300)).max()))
        # The bias is one float32 add after the sum, the same add as before.
        with_bias = T.conv2d(x, wt, b, padding=padding, groups=groups)
        assert with_bias.tobytes() == (got + b[None, :, None, None]).tobytes()
        return got

    def _assert_backward_within_bound(self, rng, x, wt, padding, groups):
        y_shape = T.conv2d(x, wt, padding=padding, groups=groups).shape
        g = rng.standard_normal(y_shape).astype(np.float32)
        gx, gw, gb = T.conv2d_backward(x, wt, g, padding=padding)
        want_gx, want_gw = conv2d_backward_window_ref(x, wt, g, 1, padding, groups)

        assert gx.dtype == np.float32 and gw.dtype == np.float32
        assert np.array_equal(gb, g.sum(axis=(0, 2, 3)))

        abs_gx, abs_gw = conv2d_backward_window_ref(
            np.abs(x).astype(np.float64), np.abs(wt).astype(np.float64),
            np.abs(g).astype(np.float64), 1, padding, groups)
        c_out, _, kh, kw = wt.shape
        bound = (c_out // groups) * kh * kw * self.EPS * abs_gx
        diff = np.abs(gx.astype(np.float64) - want_gx.astype(np.float64))
        assert gx.shape == x.shape
        assert np.all(diff <= bound), (x.shape, float((diff / np.maximum(bound, 1e-300)).max()))

        n, _, out_h, out_w = y_shape
        bound = 2.0 * np.sqrt(n * out_h * out_w) * self.EPS * abs_gw
        diff = np.abs(gw.astype(np.float64) - want_gw.astype(np.float64))
        assert gw.shape == wt.shape
        assert np.all(diff <= bound), (x.shape, float((diff / bound).max()))

    def _assert_batch_of_eight_equals_eight_single_calls(self, rng, x, wt, b, padding, groups):
        y = T.conv2d(x, wt, b, padding=padding, groups=groups)
        g = rng.standard_normal(y.shape).astype(np.float32)
        gx, _, _ = T.conv2d_backward(x, wt, g, padding=padding)
        for i in range(8):
            one = T.conv2d(x[i:i + 1], wt, b, padding=padding, groups=groups)
            assert one.tobytes() == y[i:i + 1].tobytes(), i
            one, _, _ = T.conv2d_backward(x[i:i + 1], wt, g[i:i + 1], padding=padding)
            assert one.tobytes() == gx[i:i + 1].tobytes(), i

    def _assert_repeated_calls_give_identical_bytes(self, rng, x, wt, b, padding, groups):
        y = T.conv2d(x, wt, b, padding=padding, groups=groups)
        assert T.conv2d(x, wt, b, padding=padding, groups=groups).tobytes() == y.tobytes()
        g = rng.standard_normal(y.shape).astype(np.float32)
        first = T.conv2d_backward(x, wt, g, padding=padding)
        second = T.conv2d_backward(x, wt, g, padding=padding)
        for a, b2 in zip(first, second):
            assert a.tobytes() == b2.tobytes()

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_forward_bitwise_equal_to_reference(self, rng, mult, padding):
        for shape in self.SHAPES:
            x, wt, b = self._depthwise(rng, mult, shape)
            self._assert_forward_within_bound(x, wt, b, padding, shape[1])

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_backward_against_reference(self, rng, mult, padding):
        for shape in self.SHAPES:
            x, wt, _ = self._depthwise(rng, mult, shape)
            self._assert_backward_within_bound(rng, x, wt, padding, shape[1])

    @pytest.mark.parametrize("padding", [0, 1])
    def test_batch_of_eight_equals_eight_single_calls(self, rng, padding):
        x, wt, b = self._depthwise(rng, 2, (8, 12, 17, 23))
        self._assert_batch_of_eight_equals_eight_single_calls(rng, x, wt, b, padding, 12)

    def test_repeated_calls_give_identical_bytes(self, rng):
        x, wt, b = self._depthwise(rng, 2, (3, 12, 17, 23))
        self._assert_repeated_calls_give_identical_bytes(rng, x, wt, b, 1, 12)

    @pytest.mark.parametrize("case", GENERAL, ids=[c[0] for c in GENERAL])
    def test_general_forward_within_bound(self, rng, case):
        _, x_shape, w_shape, groups, padding = case
        x, wt, b = self._operands(rng, x_shape, w_shape)
        self._assert_forward_within_bound(x, wt, b, padding, groups)

    @pytest.mark.parametrize("case", GENERAL, ids=[c[0] for c in GENERAL])
    def test_general_backward_within_bound(self, rng, case):
        _, x_shape, w_shape, groups, padding = case
        x, wt, _ = self._operands(rng, x_shape, w_shape)
        self._assert_backward_within_bound(rng, x, wt, padding, groups)

    @pytest.mark.parametrize("case", GENERAL, ids=[c[0] for c in GENERAL])
    def test_general_backward_runs_a_forward_conv_only_when_narrowing(self, rng, case,
                                                                     monkeypatch):
        """grad_x of a narrowing conv is one conv2d of grad_out with
        the kernel rotated 180 degrees, its channel axes swapped per group
        and padding kh-1-p; every other conv runs no conv2d at all."""
        name, x_shape, w_shape, groups, padding = case
        x, wt, _ = self._operands(rng, x_shape, w_shape)
        g = rng.standard_normal(
            T.conv2d(x, wt, padding=padding, groups=groups).shape
        ).astype(np.float32)
        calls = []
        conv2d = T.conv2d

        def spy(inp, weight, bias=None, **kwargs):
            calls.append((inp, weight, kwargs))
            return conv2d(inp, weight, bias, **kwargs)

        monkeypatch.setattr(T, "conv2d", spy)
        gx, _, _ = T.conv2d_backward(x, wt, g, padding=padding)
        if name not in self.TRANSPOSED:
            assert calls == []
            return
        [(inp, weight, kwargs)] = calls
        _, cg, kh, kw = wt.shape
        mult = wt.shape[0] // groups
        want_w = (wt.reshape(groups, mult, cg, kh, kw)[..., ::-1, ::-1]
                  .transpose(0, 2, 1, 3, 4).reshape(groups * cg, mult, kh, kw))
        assert inp is g and np.array_equal(weight, want_w)
        assert kwargs == dict(padding=kh - 1 - padding, groups=groups)
        assert gx.tobytes() == conv2d(g, want_w, **kwargs).tobytes()

    def test_pointwise_backward_sums_samples_in_order(self, rng):
        """An unpadded 1x1 conv runs the per-sample kernel like every other
        conv, so a batch's grad_x has the bytes of its per-sample calls;
        grad_w is the running sum of the per-sample products in batch order,
        which the bitwise rerun of a training relies on."""
        x, wt, _ = self._operands(rng, (4, 72, 32, 32), (16, 72, 1, 1))
        g = rng.standard_normal((4, 16, 32, 32)).astype(np.float32)
        gx, gw, _ = T.conv2d_backward(x, wt, g)
        running = np.zeros_like(gw)
        for i in range(4):
            one_gx, one_gw, _ = T.conv2d_backward(x[i:i + 1], wt, g[i:i + 1])
            assert one_gx.tobytes() == gx[i:i + 1].tobytes(), i
            running += one_gw
        assert gw.dtype == np.float32 and gw.tobytes() == running.tobytes()
        self._assert_backward_within_bound(rng, x, wt, 0, 1)

    @pytest.mark.parametrize("case", GENERAL, ids=[c[0] for c in GENERAL])
    def test_general_batch_of_eight_equals_eight_single_calls(self, rng, case):
        _, x_shape, w_shape, groups, padding = case
        x, wt, b = self._operands(rng, (8,) + x_shape[1:], w_shape)
        self._assert_batch_of_eight_equals_eight_single_calls(rng, x, wt, b, padding, groups)

    @pytest.mark.parametrize("case", GENERAL, ids=[c[0] for c in GENERAL])
    def test_general_repeated_calls_give_identical_bytes(self, rng, case):
        _, x_shape, w_shape, groups, padding = case
        x, wt, b = self._operands(rng, x_shape, w_shape)
        self._assert_repeated_calls_give_identical_bytes(rng, x, wt, b, padding, groups)


class TestSeparableConv:
    """separable_conv2d and its backward against the two calls they fuse,
    a depthwise conv2d and then a 1x1 conv2d, and their two
    conv2d_backward calls, byte for byte: per sample they run the same
    GEMMs in the same order."""

    @staticmethod
    def _operands(rng, dtype, n, h, w, mult, c_in=6, c_out=5):
        x = rng.standard_normal((n, c_in, h, w)).astype(dtype)
        x[x < 0.0] = 0.0
        dw = (0.3 * rng.standard_normal((c_in * mult, 1, 3, 3))).astype(dtype)
        pw = (0.3 * rng.standard_normal((c_out, c_in * mult, 1, 1))).astype(dtype)
        return x, dw, pw, rng.standard_normal(c_out).astype(dtype)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("mult", [1, 2])
    @pytest.mark.parametrize("hw", [(16, 32), (17, 63)], ids=["16x32", "17x63"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_to_the_two_conv2d_calls(self, rng, dtype, hw, mult, n):
        x, dw, pw, bias = self._operands(rng, dtype, n, *hw, mult)
        mid = T.conv2d(x, dw, padding=1, groups=x.shape[1])
        for b in (None, bias):      # the train forward, then the eval fold's bias
            want = T.conv2d(mid, pw, b)
            got = T.separable_conv2d(x, dw, pw, b)
            assert got.dtype == dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        g = rng.standard_normal(want.shape).astype(dtype)
        g_mid, want_gpw, _ = T.conv2d_backward(mid, pw, g)
        want_gx, want_gdw, _ = T.conv2d_backward(x, dw, g_mid, padding=1)
        for input_grad in (True, False):
            gx, gdw, gpw = T.separable_conv2d_backward(x, dw, pw, g, input_grad)
            if input_grad:
                assert gx.dtype == dtype and gx.tobytes() == want_gx.tobytes()
            else:
                assert gx is None
            assert gdw.dtype == dtype and gdw.tobytes() == want_gdw.tobytes()
            assert gpw.dtype == dtype and gpw.tobytes() == want_gpw.tobytes()

    def test_batch_of_eight_equals_eight_single_calls(self, rng):
        x, dw, pw, bias = self._operands(rng, np.float32, 8, 17, 23, 2)
        y = T.separable_conv2d(x, dw, pw, bias)
        g = rng.standard_normal(y.shape).astype(np.float32)
        gx, _, _ = T.separable_conv2d_backward(x, dw, pw, g, True)
        for i in range(8):
            one = T.separable_conv2d(x[i:i + 1], dw, pw, bias)
            assert one.tobytes() == y[i:i + 1].tobytes(), i
            one, _, _ = T.separable_conv2d_backward(x[i:i + 1], dw, pw, g[i:i + 1], True)
            assert one.tobytes() == gx[i:i + 1].tobytes(), i

    def test_rejects_mismatched_pointwise_weight_and_grad(self, rng):
        x, dw, pw, _ = self._operands(rng, np.float32, 2, 8, 8, 2)
        with pytest.raises(ShapeError, match="pointwise weight"):
            T.separable_conv2d(x, dw, pw[:, :-1], None)
        with pytest.raises(ShapeError, match="pointwise weight"):
            T.separable_conv2d_backward(x, dw, pw[:, :-1], np.zeros((2, 5, 8, 8)), True)
        with pytest.raises(ShapeError, match="grad_out"):
            T.separable_conv2d_backward(x, dw, pw, np.zeros((2, 5, 8, 7), np.float32), True)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_to_reference_with_ties_and_signed_zeros(self, rng, dtype):
        """Pooled values and argmax match the earlier reshape-and-argmax
        kernel byte for byte: from {-1, -0, +0, 1} most windows tie, many
        between -0 and +0, and the lowest position must win each tie."""
        for shape in [(3, 5, 8, 12), (1, 1, 2, 2), (2, 16, 64, 64)]:
            x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype), size=shape)
            got, got_arg = T.max_pool2(x)
            want, want_arg = max_pool2_ref(x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), shape
            assert got_arg.dtype == np.int8 and got_arg.tobytes() == want_arg.tobytes(), shape
            assert got.flags.c_contiguous

    def test_nan_window_pools_to_nan(self):
        x = np.zeros((1, 1, 2, 4), dtype=np.float32)
        x[0, 0, 1, 0] = np.nan
        x[0, 0, 0, 3] = 5.0
        y, arg = T.max_pool2(x)
        assert np.isnan(y[0, 0, 0, 0]) and y[0, 0, 0, 1] == 5.0 and arg[0, 0, 0, 1] == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bytes_at_argmax_and_positive_zero_elsewhere(self, rng, dtype):
        """Each gradient lands at its argmax with its bits, -0 and NaN
        included, and every other cell is +0."""
        for shape in [(3, 5, 4, 6), (2, 16, 32, 32)]:
            g = rng.standard_normal(shape).astype(dtype)
            g[rng.random(shape) < 0.2] = -0.0
            g[rng.random(shape) < 0.1] = np.nan
            g[rng.random(shape) < 0.1] = -np.nan
            arg = rng.integers(0, 4, size=shape).astype(np.int8)
            got = T.max_pool2_backward(g, arg)
            want = np.zeros((shape[0], shape[1], 2 * shape[2], 2 * shape[3]), dtype=dtype)
            for k, (dy, dx) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
                want[:, :, dy::2, dx::2][arg == k] = g[arg == k]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_of_a_view_equals_backward_of_its_copy(self, rng, dtype):
        """The bit-mask scatter reads a channel slice or a transposed view of
        grad_out as it would read a contiguous copy."""
        base = rng.standard_normal((2, 8, 6, 6)).astype(dtype)
        base[rng.random(base.shape) < 0.2] = -0.0
        base[rng.random(base.shape) < 0.1] = np.nan
        for g in (base[:, 2:6], base.transpose(0, 1, 3, 2)):
            assert not g.flags.c_contiguous
            arg = rng.integers(0, 4, size=g.shape).astype(np.int8)
            got = T.max_pool2_backward(g, arg)
            want = T.max_pool2_backward(np.ascontiguousarray(g), arg)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

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
        x = np.full((1, 1, 5, 5), 3.25, dtype=np.float32)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_in,n_out", [(32, 64), (64, 32), (5, 13), (7, 7), (1, 3)])
    def test_cached_matrix_is_read_only_and_equals_a_fresh_build(self, dtype, n_in, n_out):
        """Every resize of one size pair shares one cached matrix, so it
        must refuse writes; its bytes are those of a fresh build."""
        T.bilinear_resize(np.zeros((1, 1, n_in, 2), dtype=dtype), n_out, 2)
        cached = T._resize_matrix(n_in, n_out, np.dtype(dtype))
        assert cached is T._resize_matrix(n_in, n_out, np.dtype(dtype))
        with pytest.raises(ValueError):
            cached[0, 0] = 2.0
        fresh = T._resize_matrix.__wrapped__(n_in, n_out, np.dtype(dtype))
        assert cached.dtype == fresh.dtype and cached.tobytes() == fresh.tobytes()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_keeps_bits_and_blocks_with_positive_zero(self, rng, dtype):
        """A passed gradient keeps its bits, -0 and NaN included; a blocked
        one, where x <= 0 or x is NaN, is +0."""
        shape = (2, 3, 17, 19)
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0, np.nan], dtype=dtype), size=shape)
        g = rng.standard_normal(shape).astype(dtype)
        g[rng.random(shape) < 0.2] = -0.0
        g[rng.random(shape) < 0.1] = np.nan
        g[rng.random(shape) < 0.1] = -np.inf
        got = T.relu_backward(g, x)
        want = g.copy()
        want[~(x > 0)] = 0.0
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_of_a_view_equals_backward_of_its_copy(self, rng, dtype):
        """The bit mask reads a channel slice or a transposed view of
        grad_out, and of x, as it would read contiguous copies."""
        shape = (2, 8, 7, 7)
        gbase = rng.standard_normal(shape).astype(dtype)
        gbase[rng.random(shape) < 0.2] = -0.0
        gbase[rng.random(shape) < 0.1] = np.nan
        xbase = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0, np.nan], dtype=dtype), size=shape)
        for view in (lambda a: a[:, 2:6], lambda a: a.transpose(0, 1, 3, 2)):
            g, x = view(gbase), view(xbase)
            assert not g.flags.c_contiguous
            got = T.relu_backward(g, x)
            want = T.relu_backward(np.ascontiguousarray(g), np.ascontiguousarray(x))
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_sigmoid_extremes_stay_finite(self):
        x = np.array([-500.0, -100.0, 0.0, 100.0, 500.0])
        y = T.sigmoid(x)
        assert np.all(np.isfinite(y))
        assert y[2] == 0.5
        assert 0.0 <= y[0] <= 1e-20
        assert 1.0 - 1e-20 <= y[-1] <= 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bytes_equal_to_reference(self, rng, dtype):
        """Same per-element operations as the earlier mask-gathering sigmoid,
        so the same bytes; a NaN stays NaN, though its sign bit may not."""
        for shape in [(7,), (3, 5), (2, 3, 17, 19)]:
            x = (20.0 * rng.standard_normal(shape)).astype(dtype)
            x.flat[:6] = [0.0, -0.0, 1e4, -1e4, -np.inf, np.nan]
            got, want = T.sigmoid(x), sigmoid_ref(x)
            assert got.dtype == want.dtype
            assert np.array_equal(np.isnan(got), np.isnan(x))
            keep = ~np.isnan(x)
            assert got[keep].tobytes() == want[keep].tobytes(), shape


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bce_bytes_equal_to_reference(self, rng, dtype):
        """The loss scalar and its gradient match the earlier separate-pass
        kernel bit for bit; grad=False returns the same scalar alone."""
        x = (8.0 * rng.standard_normal((4, 3, 16, 20))).astype(dtype)
        x.flat[:4] = [0.0, -0.0, 200.0, -200.0]
        t = (rng.random(x.shape) > 0.5).astype(dtype)
        loss, grad = T.bce_with_logits(x, t)
        want_loss, want_grad = bce_with_logits_ref(x, t)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.dtype == want_grad.dtype
        assert grad.tobytes() == want_grad.tobytes()
        only, none = T.bce_with_logits(x, t, grad=False)
        assert none is None
        assert np.float64(only).tobytes() == np.float64(loss).tobytes()

    def test_mse_gradient_matches_fd(self, rng):
        p = rng.standard_normal((2, 2, 3, 3))
        t = rng.standard_normal((2, 2, 3, 3))
        _, grad = T.mse(p, t)
        want = fd_gradient(lambda a: T.mse(a, t)[0], p)
        assert rel_err(grad, want) < GRAD_TOL

    def test_mse_perfect_fit(self, rng):
        t = rng.standard_normal((2, 2, 3, 3))
        val, grad = T.mse(t.copy(), t)
        assert val == 0.0
        assert np.all(grad == 0)

    def test_bce_decreases_with_correct_logit_magnitude(self):
        t = np.ones((1, 1, 1, 1))
        losses = [T.bce_with_logits(np.full((1, 1, 1, 1), float(m)), t)[0] for m in range(6)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_losses_nonnegative(self, rng):
        x = rng.standard_normal((2, 1, 4, 4))
        t = (rng.random((2, 1, 4, 4)) > 0.5).astype(np.float64)
        assert T.bce_with_logits(x, t)[0] > 0
        assert T.mse(x, rng.standard_normal(x.shape))[0] > 0

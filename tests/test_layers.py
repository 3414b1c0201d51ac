"""Layer blocks against formula oracles and finite differences."""

import numpy as np
import pytest

from nimbus import layers as L
from nimbus.errors import ConfigError, DegenerateBatchError, StateError

from _oracles import (batch_norm_backward_ref, batch_norm_forward_ref, channel_attention_ref,
                      channel_max_ref, conv2d_ref, double_conv_forward_ref, fd_gradient, rel_err,
                      spatial_attention_ref)

GRAD_TOL = 1e-4
# The folded eval forward against the unfolded reference, relative to the
# output scale.  Folding rounds in another order than the reference, a few
# eps per batch norm: in float32 one double conv measured 3.3e-7 and the
# desk model's 18 batch norms 3.5e-6, so 2e-6 bounds a double conv with
# margin; float64 gets the same margin over its own eps.
EVAL_TOL = {np.float32: 2e-6, np.float64: 1e-12}


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def param_fd(block, forward_loss, name, tol=GRAD_TOL):
    """Check one named parameter's analytic grad against finite differences."""
    base = block.p[name].copy()

    def fn(arr):
        block.p[name] = arr
        try:
            return forward_loss()
        finally:
            block.p[name] = base

    got = dict(block.named_grads())[name]
    assert rel_err(got, fd_gradient(fn, base)) < tol, name


class TestDepthwiseSeparableConv:
    def test_identity_composition(self, rng):
        layer = L.DepthwiseSeparableConv(1, 1, 1, rng).to_dtype(np.float64)
        dw = np.zeros((1, 1, 3, 3))
        dw[0, 0, 1, 1] = 1.0
        layer.p["depthwise.weight"] = dw
        layer.p["pointwise.weight"] = np.ones((1, 1, 1, 1))
        x = rng.standard_normal((2, 1, 5, 5))
        assert np.allclose(layer.forward(x), x, atol=1e-12)

    def test_param_count_formula(self, rng):
        layer = L.DepthwiseSeparableConv(64, 128, 2, rng)
        actual = sum(v.size for _, v in layer.named_params())
        assert actual == 17536
        # the standard 3x3 conv it replaces: 64*128*9 + 128
        assert 64 * 128 * 9 + 128 == 73856

    def test_equals_composed_conv_oracles(self, rng):
        layer = L.DepthwiseSeparableConv(3, 4, 2, rng).to_dtype(np.float64)
        x = rng.standard_normal((2, 3, 6, 6))
        mid = conv2d_ref(x, layer.p["depthwise.weight"], None, 1, 1, groups=3)
        want = conv2d_ref(mid, layer.p["pointwise.weight"])
        assert rel_err(layer.forward(x), want) < 1e-12

    def test_rejects_channel_mismatch(self, rng):
        layer = L.DepthwiseSeparableConv(3, 4, 1, rng)
        with pytest.raises(Exception):
            layer.forward(np.zeros((1, 5, 4, 4), dtype=np.float32))

    def test_gradients(self, rng):
        layer = L.DepthwiseSeparableConv(2, 3, 2, rng).to_dtype(np.float64)
        x = rng.standard_normal((2, 2, 5, 5))
        probe = rng.standard_normal((2, 3, 5, 5))

        def run():
            return float((layer.forward(x, train=True) * probe).sum())

        run()
        gx = layer.backward(probe, x)
        assert rel_err(gx, fd_gradient(lambda a: float((layer.forward(a) * probe).sum()), x)) < GRAD_TOL
        for name in layer.p:
            param_fd(layer, run, name)

    def test_caches_nothing_so_backward_needs_no_forward(self, rng):
        """The conv keeps nothing from a train forward: its backward is a
        function of the input its caller passes, the same bytes with or
        without a forward before it."""
        layer = L.DepthwiseSeparableConv(3, 4, 2, rng)
        x = rng.standard_normal((2, 3, 6, 5)).astype(np.float32)
        probe = rng.standard_normal((2, 4, 6, 5)).astype(np.float32)
        cold = layer.backward(probe, x)
        cold_g = {name: g.copy() for name, g in layer.g.items()}
        layer.forward(x, train=True)
        assert layer._cache is None
        assert layer.backward(probe, x).tobytes() == cold.tobytes()
        assert layer.g.keys() == cold_g.keys()
        for name, g in layer.g.items():
            assert g.tobytes() == cold_g[name].tobytes(), name


class TestBatchNorm:
    def test_eval_identity_with_unit_stats(self, rng):
        """Fresh statistics fold to the scale 1/sqrt(1 + eps) and a zero
        shift, an affine map that shrinks values only slightly."""
        bn = L.BatchNorm(3).to_dtype(np.float64)
        scale, shift = bn.eval_affine()
        assert scale.tobytes() == np.full(3, 1.0 / np.sqrt(1.0 + bn.eps)).tobytes()
        assert shift.tobytes() == np.zeros(3).tobytes()
        x = rng.standard_normal((2, 3, 4, 4))
        assert rel_err(scale[None, :, None, None] * x + shift[None, :, None, None], x) < 1e-4

    def test_eval_forward_is_refused(self, rng):
        """The eval-mode batch norm exists only folded into the conv before
        it, so an eval call of forward is a caller's mistake."""
        bn = L.BatchNorm(3)
        with pytest.raises(StateError):
            bn.forward(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), train=False)

    def test_train_constant_input_gives_beta(self, rng):
        bn = L.BatchNorm(2).to_dtype(np.float64)
        bn.p["beta"] = np.array([1.5, -0.5])
        y = bn.forward(np.full((2, 2, 3, 3), 7.0), train=True)
        assert rel_err(y[:, 0], np.full((2, 3, 3), 1.5)) < 1e-10
        assert rel_err(y[:, 1], np.full((2, 3, 3), -0.5)) < 1e-10

    def test_train_output_is_standardized(self, rng):
        bn = L.BatchNorm(4).to_dtype(np.float64)
        x = rng.standard_normal((4, 4, 8, 8)) * 3.0 + 1.0
        y = bn.forward(x, train=True)
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4

    def test_running_stats_blend(self, rng):
        bn = L.BatchNorm(2).to_dtype(np.float64)
        x = rng.standard_normal((2, 2, 4, 4))
        bn.forward(x, train=True)
        want_mean = 0.1 * x.mean(axis=(0, 2, 3))
        want_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3))
        assert rel_err(bn.s["running_mean"], want_mean) < 1e-12
        assert rel_err(bn.s["running_var"], want_var) < 1e-12
        scale, shift = bn.eval_affine()
        assert scale.shape == shift.shape == (2,)

    @staticmethod
    def _twins(rng, channels, dtype):
        """Two batch norms with the same random affine parameters."""
        gamma = rng.uniform(0.5, 1.5, channels).astype(dtype)
        beta = rng.standard_normal(channels).astype(dtype)
        pair = []
        for _ in range(2):
            bn = L.BatchNorm(channels).to_dtype(dtype)
            bn.p["gamma"], bn.p["beta"] = gamma.copy(), beta.copy()
            pair.append(bn)
        return pair

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_running_stats_bytes_equal_to_reference(self, rng, dtype):
        """Train outputs and the running statistics match the earlier
        forward that also cached the centred input, byte for byte.  The
        eval affine map (scale, shift) applied to x matches the earlier
        eval forward within EVAL_TOL: scale*x + shift rounds in another
        order than gamma*((x - mean)*inv_std) + beta."""
        bn, ref = self._twins(rng, 5, dtype)
        for shape in [(4, 5, 6, 6), (2, 5, 17, 63)]:
            x = (3.0 * rng.standard_normal(shape) + 1.0).astype(dtype)
            got = bn.forward(x, train=True)
            want, _ = batch_norm_forward_ref(ref, x, train=True)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for name in ("running_mean", "running_var"):
                assert bn.s[name].tobytes() == ref.s[name].tobytes(), name
            scale, shift = bn.eval_affine()
            assert scale.dtype == shift.dtype == dtype
            got_eval = scale[None, :, None, None] * x + shift[None, :, None, None]
            want_eval, _ = batch_norm_forward_ref(ref, x)
            assert rel_err(got_eval, want_eval) < EVAL_TOL[dtype]

    def test_three_term_backward_matches_reference(self, rng):
        """The three-term backward agrees with the earlier dvar/dmean form
        to 1e-12 relative in float64; the parameter gradients are the same
        two channel sums."""
        bn, ref = self._twins(rng, 4, np.float64)
        x = 2.0 * rng.standard_normal((3, 4, 9, 7)) - 0.5
        g = rng.standard_normal(x.shape)
        bn.forward(x, train=True)
        _, cache = batch_norm_forward_ref(ref, x, train=True)
        got = bn.backward(g)
        want, want_gamma, want_beta = batch_norm_backward_ref(ref, cache, g)
        assert rel_err(got, want) < 1e-12
        assert rel_err(bn.g["gamma"], want_gamma) < 1e-12
        assert rel_err(bn.g["beta"], want_beta) < 1e-12

    def test_degenerate_batch_rejected(self):
        bn = L.BatchNorm(3)
        with pytest.raises(DegenerateBatchError):
            bn.forward(np.zeros((1, 3, 1, 1), dtype=np.float32), train=True)

    def test_gradients(self, rng):
        bn = L.BatchNorm(3).to_dtype(np.float64)
        bn.p["gamma"] = rng.uniform(0.5, 1.5, 3)
        bn.p["beta"] = rng.standard_normal(3)
        x = rng.standard_normal((4, 3, 5, 5))
        probe = rng.standard_normal(x.shape)

        def run():
            return float((bn.forward(x, train=True) * probe).sum())

        run()
        gx = bn.backward(probe)
        want = fd_gradient(lambda a: float((bn.forward(a, train=True) * probe).sum()), x)
        assert rel_err(gx, want) < GRAD_TOL
        for name in bn.p:
            param_fd(bn, run, name)


class TestChannelAttention:
    def test_zero_weights_halve_input(self, rng):
        att = L.ChannelAttention(8, 4, rng).to_dtype(np.float64)
        att.p["w1"][:] = 0
        att.p["w2"][:] = 0
        x = rng.standard_normal((2, 8, 4, 4))
        assert rel_err(att.forward(x), 0.5 * x) < 1e-12

    def test_matches_formula_oracle(self, rng):
        att = L.ChannelAttention(8, 2, rng).to_dtype(np.float64)
        x = rng.standard_normal((3, 8, 5, 6))
        want, _ = channel_attention_ref(x, att.p["w1"], att.p["w2"])
        assert rel_err(att.forward(x), want) < 1e-12

    def test_constant_channels_make_branches_equal(self, rng):
        att = L.ChannelAttention(4, 2, rng).to_dtype(np.float64)
        levels = np.array([1.0, -2.0, 0.5, 3.0])
        x = np.broadcast_to(levels[None, :, None, None], (2, 4, 3, 3)).copy()
        _, scales = channel_attention_ref(x, att.p["w1"], att.p["w2"])
        # avg == max per channel, so z = 2 * W2 relu(W1 pooled)
        z = 2.0 * att.p["w2"] @ np.maximum(att.p["w1"] @ levels, 0)
        assert rel_err(scales[0], 1.0 / (1.0 + np.exp(-z))) < 1e-12
        assert rel_err(att.forward(x)[0], x[0] * scales[0][:, None, None]) < 1e-12

    def test_scale_factors_strictly_inside_unit_interval(self, rng):
        att = L.ChannelAttention(8, 4, rng).to_dtype(np.float64)
        x = rng.standard_normal((2, 8, 6, 6)) + 0.3
        y = att.forward(x)
        ratio = y[x != 0] / x[x != 0]
        assert np.all(ratio > 0) and np.all(ratio < 1)

    def test_indivisible_reduction_rejected(self, rng):
        with pytest.raises(ConfigError):
            L.ChannelAttention(6, 4, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 16, 64, 64), (3, 8, 5, 7), (2, 128, 4, 4)])
    def test_eval_output_bytes_equal_to_train_output(self, rng, monkeypatch, dtype, shape):
        """The eval gate takes the plain spatial max, never the argmax the
        train backward needs, and gives the train output byte for byte:
        values from {-1, -0, +0, 1} tie within every plane, some channels
        are all zeros of mixed sign, and the last sample is, so its MLP
        sees nothing but signed zeros."""
        att = L.ChannelAttention(shape[1], 4, rng).to_dtype(dtype)
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype), size=shape)
        zeros = np.array([-0.0, 0.0], dtype=dtype)
        x[:, ::3] = rng.choice(zeros, size=x[:, ::3].shape)
        x[-1] = rng.choice(zeros, size=shape[1:])
        want = att.forward(x, train=True)

        def refuse(*_, **__):
            raise AssertionError("the eval forward gathered at the max positions")
        monkeypatch.setattr(np, "take_along_axis", refuse)
        got = att.forward(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_gradients(self, rng):
        att = L.ChannelAttention(6, 2, rng).to_dtype(np.float64)
        x = rng.standard_normal((2, 6, 4, 5))
        probe = rng.standard_normal(x.shape)

        def run():
            return float((att.forward(x, train=True) * probe).sum())

        run()
        gx = att.backward(probe, x)
        assert rel_err(gx, fd_gradient(lambda a: float((att.forward(a) * probe).sum()), x)) < GRAD_TOL
        for name in att.p:
            param_fd(att, run, name)


class TestSpatialAttention:
    def test_zero_weights_halve_input(self, rng):
        att = L.SpatialAttention(rng).to_dtype(np.float64)
        att.p["conv.weight"][:] = 0
        att.p["conv.bias"][:] = 0
        x = rng.standard_normal((2, 3, 8, 8))
        assert rel_err(att.forward(x), 0.5 * x) < 1e-12

    def test_matches_formula_oracle(self, rng):
        att = L.SpatialAttention(rng).to_dtype(np.float64)
        x = rng.standard_normal((2, 4, 8, 9))
        want, m = spatial_attention_ref(x, att.p["conv.weight"], att.p["conv.bias"])
        assert rel_err(att.forward(x), want) < 1e-12
        assert m.shape == (2, 1, 8, 9)
        assert np.all((m > 0) & (m < 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_channel_max_bytes_equal_to_reference(self, rng, dtype):
        """The channel reduction matches argmax over the channel axis byte
        for byte: from {-1, -0, +0, 1} most positions tie across channels,
        many between -0 and +0, and the lowest channel must win."""
        for c in (1, 2, 16, 128, 256):
            x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype), size=(2, c, 5, 7))
            max_c, arg = L._channel_max(x)
            want, want_arg = channel_max_ref(x)
            assert max_c.dtype == want.dtype and max_c.tobytes() == want.tobytes(), c
            assert np.array_equal(arg, want_arg), c

    def test_channel_max_of_nan_column_is_a_valid_index(self):
        x = np.zeros((1, 3, 2, 2), dtype=np.float32)
        x[0, :, 0, 0] = np.nan
        x[0, 2, 1, 1] = 1.0
        max_c, arg = L._channel_max(x)
        assert arg[0, 0, 0, 0] == 0 and arg[0, 0, 1, 1] == 2 and max_c[0, 0, 1, 1] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_channel_max_with_partly_nan_columns_equals_reference(self, rng, dtype):
        """Where a column holds NaN among finite values, the first NaN
        channel wins, as with argmax, even when a finite value sits in a
        lower channel."""
        for c in (2, 16, 128):
            x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype), size=(2, c, 5, 7))
            x[rng.random(x.shape) < 0.5 / c] = np.nan
            x[0, 1, 0, 0] = np.nan
            max_c, arg = L._channel_max(x)
            want, want_arg = channel_max_ref(x)
            assert max_c.dtype == want.dtype and max_c.tobytes() == want.tobytes(), c
            assert np.array_equal(arg, want_arg), c
            assert arg[0, 0, 0, 0] <= 1 and np.isnan(max_c[0, 0, 0, 0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 16, 64, 64), (1, 3, 8, 8), (2, 128, 4, 4)])
    def test_eval_output_bytes_equal_to_train_output(self, rng, monkeypatch, dtype, shape):
        """The eval gate takes only the channel max, never the argmax the
        train backward needs, and gives the train output byte for byte:
        values from {-1, -0, +0, 1} tie across channels, and some columns
        are all zeros of mixed sign.  The gate's bias stays at its initial
        zero, so a window of zeros reaches the sigmoid as a signed zero."""
        att = L.SpatialAttention(rng).to_dtype(dtype)
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype), size=shape)
        x[:, :, 0, :] = rng.choice(np.array([-0.0, 0.0], dtype=dtype), size=shape[:2] + shape[3:])
        want = att.forward(x, train=True)
        monkeypatch.setattr(L, "_channel_max", None)
        got = att.forward(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_eval_output_of_nan_column_matches_train_output(self, rng, monkeypatch):
        """A NaN in one column spreads through the 7x7 gate to the same
        positions in eval as in train mode, and every other value agrees
        byte for byte."""
        att = L.SpatialAttention(rng)
        x = rng.standard_normal((2, 4, 12, 12)).astype(np.float32)
        x[1, 2, 5, 6] = np.nan
        want = att.forward(x, train=True)
        monkeypatch.setattr(L, "_channel_max", None)
        got = att.forward(x)
        nan = np.isnan(want)
        assert nan.any() and not nan[0].any()
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_gradients(self, rng):
        att = L.SpatialAttention(rng).to_dtype(np.float64)
        x = rng.standard_normal((2, 3, 6, 6))
        probe = rng.standard_normal(x.shape)

        def run():
            return float((att.forward(x, train=True) * probe).sum())

        run()
        gx = att.backward(probe, x)
        assert rel_err(gx, fd_gradient(lambda a: float((att.forward(a) * probe).sum()), x)) < GRAD_TOL
        for name in att.p:
            param_fd(att, run, name)


class TestCBAM:
    def test_gradient_through_both_gates(self, rng):
        block = L.CBAM(4, 2, rng).to_dtype(np.float64)
        x = rng.standard_normal((2, 4, 6, 6))
        probe = rng.standard_normal(x.shape)

        def run():
            return float((block.forward(x, train=True) * probe).sum())

        run()
        gx = block.backward(probe, x)
        want = fd_gradient(lambda a: float((block.forward(a) * probe).sum()), x)
        assert rel_err(gx, want) < GRAD_TOL
        grads = dict(block.named_grads())
        assert set(grads) == {"channel.w1", "channel.w2",
                              "spatial.conv.weight", "spatial.conv.bias"}
        assert all(g is not None for g in grads.values())


class TestDoubleConvDS:
    def test_output_shape_and_mid_override(self, rng):
        block = L.DoubleConvDS(6, 3, 10, 2, rng)
        x = rng.standard_normal((2, 6, 8, 8)).astype(np.float32)
        assert block.forward(x).shape == (2, 10, 8, 8)
        assert block.dsc1.p["pointwise.weight"].shape[0] == 3
        assert block.dsc2.c_in == 3

    def test_zero_input_yields_relu_beta(self, rng):
        block = L.DoubleConvDS(2, 3, 3, 1, rng).to_dtype(np.float64)
        block.bn2.p["beta"] = np.array([0.7, -0.4, 0.0])
        y = block.forward(np.zeros((2, 2, 4, 4)), train=True)
        for ch, beta in enumerate([0.7, -0.4, 0.0]):
            assert rel_err(y[:, ch], np.full((2, 4, 4), max(beta, 0.0))) < 1e-9

    def test_forward_bytes_equal_to_reference(self, rng):
        """In-place ReLUs on the batch-norm outputs give the bytes of the
        earlier out-of-place forward in train mode; the folded eval forward
        that follows stays within EVAL_TOL of the unfolded one."""
        seed = int(rng.integers(1 << 30))
        block = L.DoubleConvDS(6, 4, 10, 2, np.random.default_rng(seed))
        ref = L.DoubleConvDS(6, 4, 10, 2, np.random.default_rng(seed))
        x = rng.standard_normal((3, 6, 12, 10)).astype(np.float32)
        got = block.forward(x, train=True)
        want = double_conv_forward_ref(ref, x, train=True)
        assert got.tobytes() == want.tobytes()
        for (name, got), (_, want) in zip(block.named_states(), ref.named_states()):
            assert got.tobytes() == want.tobytes(), name
        got = block.forward(x, train=False)
        want = double_conv_forward_ref(ref, x, train=False)
        assert got.dtype == want.dtype and rel_err(got, want) < EVAL_TOL[np.float32]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_folded_eval_matches_unfolded_reference(self, rng, dtype, monkeypatch):
        """The eval forward runs each batch norm folded into its pointwise
        conv, never through BatchNorm.forward, and stays within EVAL_TOL of
        conv, reference batch norm and ReLU, on running means up to +-3,
        running variances from 1e-2 to 1e2 and non-trivial gamma and beta."""
        block = L.DoubleConvDS(5, 6, 8, 2, rng).to_dtype(dtype)
        for bn in (block.bn1, block.bn2):
            c = bn.channels
            bn.p["gamma"] = rng.uniform(-2.0, 2.0, c).astype(dtype)
            bn.p["beta"] = rng.uniform(-1.5, 1.5, c).astype(dtype)
            bn.s["running_mean"] = rng.uniform(-3.0, 3.0, c).astype(dtype)
            bn.s["running_var"] = 10.0 ** rng.uniform(-2.0, 2.0, c).astype(dtype)
        x = rng.standard_normal((3, 5, 9, 11)).astype(dtype)
        want = double_conv_forward_ref(block, x)

        def refuse(x, train=False):
            raise AssertionError("eval forward called BatchNorm.forward")
        for bn in (block.bn1, block.bn2):
            monkeypatch.setattr(bn, "forward", refuse)
        got = block.forward(x)
        assert got.dtype == want.dtype and (got >= 0).all()
        assert rel_err(got, want) < EVAL_TOL[dtype]

    def test_backward_without_input_grad_keeps_every_parameter_grad(self, rng):
        """backward(input_grad=False), which the model's first block takes,
        returns None and leaves every parameter gradient at the bytes of
        the full backward."""
        block = L.DoubleConvDS(4, 6, 6, 2, rng)
        x = rng.standard_normal((3, 4, 9, 11)).astype(np.float32)
        probe = rng.standard_normal((3, 6, 9, 11)).astype(np.float32)
        block.forward(x, train=True)
        block.backward(probe)
        want = {name: g.copy() for name, g in block.named_grads()}
        block.forward(x, train=True)
        assert block.backward(probe, input_grad=False) is None
        got = dict(block.named_grads())
        assert got.keys() == want.keys()
        for name, g in got.items():
            assert g.tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuilt_output_is_the_forward_output(self, rng, dtype):
        """output() rebuilds the last train forward's output from the batch
        norms' caches with the bytes the forward returned, until a backward
        or an eval forward ends that train forward."""
        block = L.DoubleConvDS(5, 6, 8, 2, rng).to_dtype(dtype)
        for bn in (block.bn1, block.bn2):
            bn.p["gamma"] = rng.uniform(-2.0, 2.0, bn.channels).astype(dtype)
            bn.p["beta"] = rng.uniform(-1.5, 1.5, bn.channels).astype(dtype)
        x = rng.standard_normal((3, 5, 9, 11)).astype(dtype)
        y = block.forward(x, train=True)
        assert (y == 0).any() and (y > 0).any()
        got = block.output()
        assert got is not y and got.dtype == y.dtype and got.tobytes() == y.tobytes()
        block.backward(np.ones_like(y))
        with pytest.raises(StateError):
            block.output()
        block.forward(x, train=True)
        block.forward(x)
        with pytest.raises(StateError):
            block.output()

    def test_whole_block_gradient(self, rng):
        block = L.DoubleConvDS(2, 3, 3, 1, rng).to_dtype(np.float64)
        x = rng.standard_normal((3, 2, 5, 5))
        probe = rng.standard_normal((3, 3, 5, 5))

        def run():
            return float((block.forward(x, train=True) * probe).sum())

        run()
        gx = block.backward(probe)
        want = fd_gradient(lambda a: float((block.forward(a, train=True) * probe).sum()), x)
        assert rel_err(gx, want) < GRAD_TOL
        for name in ["dsc1.depthwise.weight", "bn1.gamma", "dsc2.pointwise.weight", "bn2.beta"]:
            head, _, rest = name.partition(".")
            param_fd(getattr(block, head), run, rest)


# Every block that keeps a cache; the separable conv keeps none.
BLOCKS = {
    "BatchNorm": lambda rng: L.BatchNorm(4),
    "ChannelAttention": lambda rng: L.ChannelAttention(4, 2, rng),
    "SpatialAttention": lambda rng: L.SpatialAttention(rng),
    "CBAM": lambda rng: L.CBAM(4, 2, rng),
    "DoubleConvDS": lambda rng: L.DoubleConvDS(4, 6, 6, 1, rng),
}


class TestBackwardConsumesCache:
    @pytest.mark.parametrize("kind", list(BLOCKS))
    def test_one_backward_per_train_forward(self, rng, kind):
        """Backward frees the cache of every block it runs through, so a
        second backward without a new train forward is a StateError; a new
        train forward allows one more."""
        block = BLOCKS[kind](rng)
        x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        # Only these keep what their backward reads; the others take their
        # input from their caller.
        inputs = () if kind in ("BatchNorm", "DoubleConvDS") else (x,)
        y = block.forward(x, train=True)
        block.backward(np.ones_like(y), *inputs)
        for b in _blocks(block):
            assert b._cache is None, type(b).__name__
        with pytest.raises(StateError):
            block.backward(np.ones_like(y), *inputs)
        block.forward(x, train=True)
        block.backward(np.ones_like(y), *inputs)


def _blocks(block):
    yield block
    for child in block._children.values():
        yield from _blocks(child)


class TestBlockPlumbing:
    def test_named_params_are_unique_and_ordered(self, rng):
        block = L.DoubleConvDS(2, 3, 3, 1, rng)
        names = [n for n, _ in block.named_params()]
        assert len(names) == len(set(names))
        assert names[0].startswith("dsc1.")
        assert names[-1].startswith("bn2.")

    def test_to_dtype_converts_everything(self, rng):
        block = L.CBAM(4, 2, rng)
        block.to_dtype(np.float64)
        assert all(v.dtype == np.float64 for _, v in block.named_params())

"""Differentiable building blocks: depthwise-separable convolution, batch
norm, CBAM channel/spatial attention, and the double-conv unit.

Each block owns its parameters (`p`), non-trainable state (`s`), and after a
backward pass its gradients (`g`).  Forward in train mode caches what the
analytic backward needs and its caller cannot hand it, and backward consumes
that cache: it drops the block's reference as it starts, so the saved
activations are freed once the block's own backward returns, and each train
forward allows exactly one backward.  A block whose backward needs only its
input caches nothing and takes that input as an argument.  Batch-norm
running statistics move only in train mode.

A train step holds each activation once, and frees each one at its last
read: a forward or backward that is handed an array (its caller keeps no
other reference) drops it once it has read it.  This relies on Python
3.11's calls, which move a call's arguments into the callee; before 3.11
the caller's stack held them until the call returned.  The full-size
arrays a double conv keeps are its batch norms' normalized inputs;
everything else of that size is its caller's or a cheap function of
them, rebuilt in the backward with the forward's own expression, so its
bytes are the forward's.  What each block caches:
- DepthwiseSeparableConv: nothing.  Its backward takes the input x from
  its caller and recomputes each sample's depthwise output, which never
  exists at batch size.
- BatchNorm: the normalized input xhat and the per-channel 1/std.  The
  forward drops its input once it has centred it.
- ChannelAttention: the two descriptors, the max positions, the MLP
  pre-activation and the gate s, but not its input.
- SpatialAttention: the pooled planes f, the channel-max positions and the
  gate m, but not its input.
- CBAM: nothing of its own.  Its caller passes the input x; the backward
  rebuilds the spatial gate's input, x * s, from x and the channel gate's
  cache, and `output(x)` rebuilds the block's output, (x * s) * m.
- DoubleConvDS: no array.  Its backward takes the input x from its
  caller, which in the model keeps each encoder stage's input and
  rebuilds each decoder stage's.  The ReLU outputs a1 and a2 are rebuilt
  from the batch norms' caches, each freed right after its last read; a1
  is dsc2's input, and a2, the block's output (`output`), is what the
  model passes to the CBAM, decoder input or head that reads it and to
  the block's backward for a2's ReLU mask.

Eval mode does only what an eval forward needs: it caches nothing, mutates
nothing, and skips work whose only use is the backward.  Each batch norm
runs folded into the pointwise conv before it (see DoubleConvDS), and the
attention gates take their maxima without the argmax.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, DegenerateBatchError, ShapeError, StateError


def _he_uniform(rng, shape, fan_in):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(T.DTYPE)


class Block:
    """Base for all layers: a parameter dict, a state dict, named children.

    Parameters and state are built in float32; to_dtype casts a whole
    block tree, which is how gradient checks get 64-bit blocks.

    A train-mode forward leaves the cache its backward needs in `_cache`;
    backward takes it through `_need_cache`, which clears `_cache`, so a
    second backward without a new train forward raises StateError.
    """

    def __init__(self):
        self.p = {}
        self.s = {}
        self.g = {}
        self._children = {}
        self._cache = None

    def _child(self, name, block):
        self._children[name] = block
        return block

    def _walk(self, prefix=""):
        """Yield (prefix, block) for this block and then, pre-order, every
        descendant in construction order; a descendant's prefix is its
        dotted path plus a trailing dot."""
        yield prefix, self
        for name, child in self._children.items():
            yield from child._walk(f"{prefix}{name}.")

    def named_params(self):
        """Yield (hierarchical name, array) in deterministic construction order."""
        return ((prefix + key, val) for prefix, block in self._walk()
                for key, val in block.p.items())

    def named_states(self):
        return ((prefix + key, val) for prefix, block in self._walk()
                for key, val in block.s.items())

    def named_grads(self):
        return ((prefix + key, block.g.get(key)) for prefix, block in self._walk()
                for key in block.p)

    def to_dtype(self, dtype):
        """Cast every parameter and state in place; clears stale caches."""
        for _, block in self._walk():
            block.p = {k: v.astype(dtype) for k, v in block.p.items()}
            block.s = {k: v.astype(dtype) for k, v in block.s.items()}
            block.g = {}
            block._cache = None
        return self

    def _peek_cache(self):
        """The train-mode cache, left in place for this block's own backward."""
        if self._cache is None:
            raise StateError(f"{type(self).__name__} holds no train forward: each one "
                             "allows one backward")
        return self._cache

    def _need_cache(self):
        """Hand the train-mode cache to backward and drop this block's hold on it."""
        cache = self._peek_cache()
        self._cache = None
        return cache


class DepthwiseSeparableConv(Block):
    """3x3 depthwise conv (multiplier k) followed by a 1x1 pointwise conv,
    neither with a bias: every one feeds a batch norm, whose mean
    subtraction would cancel it.  Parameter count is 9k*C_in + k*C_in*C_out.
    Both run fused in tensor.separable_conv2d.  The conv caches nothing:
    backward(grad_out, x) takes the forward's input from its caller, which
    in DoubleConvDS is the block's own input, passed in by the model, or
    the rebuilt a1, so `train` changes nothing here.

    An eval forward may pass affine=(scale, shift), a per-output-channel
    map to apply after the pointwise conv; it runs as that conv with its
    weights scaled by `scale` and `shift` as its bias.  The train backward
    knows nothing of it, so a train forward never takes one.

    backward(input_grad=False), for a block that reads the network input,
    returns None and leaves out the depthwise input gradient.
    """

    def __init__(self, c_in, c_out, multiplier, rng):
        super().__init__()
        self.c_in = c_in
        mid = c_in * multiplier
        self.p["depthwise.weight"] = _he_uniform(rng, (mid, 1, 3, 3), 9)
        self.p["pointwise.weight"] = _he_uniform(rng, (c_out, mid, 1, 1), mid)

    def forward(self, x, train=False, affine=None):
        if x.shape[1] != self.c_in:
            raise ShapeError(f"expected {self.c_in} input channels, got {x.shape[1]}")
        pointwise, shift = self.p["pointwise.weight"], None
        if affine is not None:
            scale, shift = affine
            pointwise = pointwise * scale[:, None, None, None]
        return T.separable_conv2d(x, self.p["depthwise.weight"], pointwise, shift)

    def backward(self, grad_out, x, input_grad=True):
        """x is the input of the forward whose output grad_out is for."""
        g_x, g_dw, g_pw = T.separable_conv2d_backward(
            x, self.p["depthwise.weight"], self.p["pointwise.weight"], grad_out, input_grad)
        self.g = {"depthwise.weight": g_dw, "pointwise.weight": g_pw}
        return g_x


class BatchNorm(Block):
    """Per-channel batch normalization with running statistics.

    Train mode normalizes with the biased batch variance and blends the same
    statistics into the running buffers (momentum weight on the new value).
    It caches (xhat, inv_std), the normalized input and the per-channel
    1/sqrt(var + eps); the backward needs nothing else, and `output`
    rebuilds the forward's output from xhat until the backward runs.  The
    forward drops its input once it has centred it, which frees it there
    when the caller handed it over.

    In eval mode a batch norm is the fixed per-channel affine map that
    eval_affine returns, and it runs only folded into the conv before it
    (see DoubleConvDS), so forward refuses eval mode.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
        self.p["gamma"] = np.ones(channels, dtype=T.DTYPE)
        self.p["beta"] = np.zeros(channels, dtype=T.DTYPE)
        self.s["running_mean"] = np.zeros(channels, dtype=T.DTYPE)
        self.s["running_var"] = np.ones(channels, dtype=T.DTYPE)

    def forward(self, x, train=False):
        if not train:
            raise StateError("eval-mode batch norm runs folded into the conv before it; "
                             "see BatchNorm.eval_affine")
        if x.shape[1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape[1]}")
        n, _, h, w = x.shape
        if n * h * w < 2:
            raise DegenerateBatchError("batch norm needs more than one value per channel")
        mean = x.mean(axis=(0, 2, 3))
        xhat = x - mean[None, :, None, None]
        del x   # freed here when the caller handed it over
        # The same square-then-sum that x.var() does, on the centred input
        # this pass needs anyway; y holds the squares meanwhile.
        y = np.square(xhat)
        var = y.sum(axis=(0, 2, 3)) / (n * h * w)
        mom = xhat.dtype.type(self.momentum)
        self.s["running_mean"] = (1 - mom) * self.s["running_mean"] + mom * mean
        self.s["running_var"] = (1 - mom) * self.s["running_var"] + mom * var
        inv_std = 1.0 / np.sqrt(var + xhat.dtype.type(self.eps))
        xhat *= inv_std[None, :, None, None]
        self._cache = (xhat, inv_std)
        return self._scale_shift(xhat, out=y)

    def output(self):
        """The last train forward's output, gamma*xhat + beta, rebuilt from
        the cache with the forward's expression, so with its bytes."""
        xhat = self._peek_cache()[0]
        return self._scale_shift(xhat, out=np.empty_like(xhat))

    def _scale_shift(self, xhat, out):
        np.multiply(xhat, self.p["gamma"][None, :, None, None], out=out)
        out += self.p["beta"][None, :, None, None]
        return out

    def eval_affine(self):
        """The eval-mode batch norm as (scale, shift), y = scale*x + shift per
        channel: scale = gamma / sqrt(running_var + eps) and
        shift = beta - scale*running_mean, in the parameters' dtype."""
        gamma = self.p["gamma"]
        scale = gamma / np.sqrt(self.s["running_var"] + gamma.dtype.type(self.eps))
        return scale, self.p["beta"] - scale * self.s["running_mean"]

    def backward(self, grad_out):
        """dx = gamma*inv_std/m * (m*g - sum(g) - xhat*sum(g*xhat)), with the
        two channel sums being the beta and gamma gradients."""
        xhat, inv_std = self._need_cache()
        n, _, h, w = grad_out.shape
        m = n * h * w
        dx = grad_out * xhat
        sum_gx = dx.sum(axis=(0, 2, 3))
        sum_g = grad_out.sum(axis=(0, 2, 3))
        self.g = {"gamma": sum_gx, "beta": sum_g}
        np.multiply(xhat, (sum_gx / m)[None, :, None, None], out=dx)
        np.subtract(grad_out, dx, out=dx)
        dx -= (sum_g / m)[None, :, None, None]
        dx *= (self.p["gamma"] * inv_std)[None, :, None, None]
        return dx.astype(grad_out.dtype, copy=False)


class ChannelAttention(Block):
    """CBAM channel gate: a shared two-layer bottleneck MLP (no biases) over
    the spatial average and spatial max descriptors, summed and squashed.

    Train mode caches (desc, arg, pre, s), all of descriptor size, and not
    the input x: backward(grad_out, x) takes x from its caller.
    """

    def __init__(self, channels, reduction, rng):
        super().__init__()
        if channels % reduction:
            raise ConfigError(f"reduction {reduction} does not divide {channels} channels")
        self.channels = channels
        hidden = channels // reduction
        self.p["w1"] = _he_uniform(rng, (hidden, channels), channels)
        self.p["w2"] = _he_uniform(rng, (channels, hidden), hidden)

    def forward(self, x, train=False):
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {c}")
        w1, w2 = self.p["w1"], self.p["w2"]
        flat = x.reshape(n, c, h * w)
        arg = flat.argmax(axis=2)[:, :, None] if train else None
        # The two descriptors of each sample side by side, (n, c, 2).  The
        # MLP is one small stacked matmul per sample, whose bytes do not
        # depend on the batch; one GEMM over the batch rows would let BLAS
        # pick its kernel by row count.
        desc = np.stack([flat.mean(axis=2), flat.max(axis=2) if arg is None else
                         np.take_along_axis(flat, arg, axis=2)[:, :, 0]], axis=2)
        pre = w1 @ desc
        z = (w2 @ np.maximum(pre, 0)).sum(axis=2)
        s = T.sigmoid(z)
        y = x * s[:, :, None, None]
        self._cache = (desc, arg, pre, s) if train else None
        return y

    def gate(self):
        """The (n, c) gate of the last train forward, from the cache its
        backward has not consumed yet."""
        return self._peek_cache()[-1]

    def backward(self, grad_out, x):
        """x is the input of the train forward whose cache this consumes."""
        desc, arg, pre, s = self._need_cache()
        n, c, h, w = x.shape
        w1, w2 = self.p["w1"], self.p["w2"]
        gs = (grad_out * x).sum(axis=(2, 3))
        gx = grad_out * s[:, :, None, None]
        dz = gs * s * (1.0 - s)
        hid = np.maximum(pre, 0)
        self.g = {"w2": dz.T @ hid[:, :, 0] + dz.T @ hid[:, :, 1]}
        # Per sample, like the forward: w2^T @ dz and w1^T @ dpre.
        dpre = (w2.T @ dz[:, :, None]) * (pre > 0)
        self.g["w1"] = dpre[:, :, 0].T @ desc[:, :, 0] + dpre[:, :, 1].T @ desc[:, :, 1]
        ddesc = w1.T @ dpre
        davg, dmx = ddesc[:, :, 0], ddesc[:, :, 1]
        gx += davg[:, :, None, None] / (h * w)
        scat = np.zeros((n, c, h * w), dtype=grad_out.dtype)
        np.put_along_axis(scat, arg, dmx[:, :, None], axis=2)
        gx += scat.reshape(n, c, h, w)
        return gx


def _channel_max(x):
    """Per position, the first channel holding the channel max, as argmax
    over axis 1 finds it, and the value there.  Returns (max_c, arg), both
    (N, 1, H, W).

    With r = k - C for channel k, (x == max) * r is negative at the
    channels that hold the max and 0 elsewhere, so its minimum is the first
    such k less C; modulo C it is that k.  In a column holding NaN the max
    is NaN and equals nothing, so there the NaN channels are the hits and
    the first of them wins, as with argmax.  These reductions over the
    channel axis run across contiguous planes, which argmax over that axis
    does not.
    """
    c = x.shape[1]
    r = np.arange(-c, 0, dtype=np.int16 if c < 1 << 15 else np.int64).reshape(1, c, 1, 1)
    m = x.max(axis=1, keepdims=True)
    hit = x == m
    if np.isnan(m).any():
        hit |= np.isnan(x)
    arg = np.multiply(hit, r, dtype=r.dtype).min(axis=1, keepdims=True) % c
    return np.take_along_axis(x, arg, axis=1), arg


class SpatialAttention(Block):
    """CBAM spatial gate: 7x7 conv over the channel-mean and channel-max
    planes, squashed to a per-position factor.

    Only the train backward needs to know which channel held the max, so
    only train mode runs _channel_max; eval mode takes the plain max.  The
    two maxima can differ only in the sign of a zero or the bits of a NaN;
    the gate factor comes out the same, since the sigmoid maps a zero of
    either sign to 0.5 and NaN to NaN.

    Train mode caches (f, arg, m) and not the input x, a full stage-sized
    array: backward takes x from its caller, which in CBAM rebuilds it.
    """

    def __init__(self, rng):
        super().__init__()
        self.p["conv.weight"] = _he_uniform(rng, (1, 2, 7, 7), 2 * 7 * 7)
        self.p["conv.bias"] = np.zeros(1, dtype=T.DTYPE)

    def forward(self, x, train=False):
        mean_c = x.mean(axis=1, keepdims=True)
        if train:
            max_c, arg = _channel_max(x)
        else:
            max_c = x.max(axis=1, keepdims=True)
        f = np.concatenate([mean_c, max_c], axis=1)
        z = T.conv2d(f, self.p["conv.weight"], self.p["conv.bias"], padding=3)
        m = T.sigmoid(z)
        y = x * m
        self._cache = (f, arg, m) if train else None
        return y

    def gate(self):
        """The (n, 1, h, w) gate of the last train forward, from the cache
        its backward has not consumed yet."""
        return self._peek_cache()[-1]

    def backward(self, grad_out, x):
        """x is the input of the train forward whose cache this consumes."""
        f, arg, m = self._need_cache()
        c = x.shape[1]
        gm = (grad_out * x).sum(axis=1, keepdims=True)
        gx = grad_out * m
        dz = gm * m * (1.0 - m)
        gf, g_w, g_b = T.conv2d_backward(f, self.p["conv.weight"], dz, padding=3)
        self.g = {"conv.weight": g_w, "conv.bias": g_b}
        gx += gf[:, 0:1] / c
        scat = np.zeros_like(x)
        np.put_along_axis(scat, arg, gf[:, 1:2], axis=1)
        gx += scat
        return gx


class CBAM(Block):
    """Channel attention then spatial attention, as one refinement block.

    Neither gate keeps a copy of its input.  backward(grad_out, x) takes
    the block's input x from its caller, which in the model rebuilds it as
    the stage output (DoubleConvDS.output), and rebuilds the spatial gate's
    input x * s from x and the channel gate's cached s, with the forward's
    expression, so its bytes are the forward's.  output(x) rebuilds the
    block's output the same way, for the model's decoder inputs.
    """

    def __init__(self, channels, reduction, rng):
        super().__init__()
        self.channel = self._child("channel", ChannelAttention(channels, reduction, rng))
        self.spatial = self._child("spatial", SpatialAttention(rng))

    def forward(self, x, train=False):
        return self.spatial.forward(self.channel.forward(x, train), train)

    def output(self, x):
        """The last train forward's output, (x * s) * m, rebuilt from its
        input x and the two gates with the forward's expressions, so with
        its bytes."""
        y = x * self.channel.gate()[:, :, None, None]
        y *= self.spatial.gate()
        return y

    def backward(self, grad_out, x):
        """x is the input of the train forward whose caches this consumes."""
        s = self.channel.gate()
        return self.channel.backward(
            self.spatial.backward(grad_out, x * s[:, :, None, None]), x)


class DoubleConvDS(Block):
    """Two (ds_conv -> batch norm -> relu) units.

    The first unit maps c_in to c_mid, the second c_mid to c_out; the
    model's channel plan gives all three (decoder stages halve c_mid to
    keep the parameter budget down, mirroring the up-path blocks this
    design borrows).
    ReLU runs in place on each batch-norm output.  The block caches no
    array: backward(grad_out, x, output) takes the forward's input x from
    its caller, as the separable convs do, and a train forward leaves only
    an empty cache, `()`, which `output` and backward check.  The two
    post-ReLU activations a1 and a2, whose positive entries are the ReLU
    masks, are rebuilt from the batch norms' caches when the backward
    needs them: `output()` rebuilds a2, the block's output, for its
    readers (the model's CBAMs, decoder inputs and head), and the caller
    passes it to backward, which takes a2's ReLU mask from it.  a1 is
    rebuilt inside the backward.

    Each array is freed at its last read when the caller hands it over,
    holding no other reference: in a train forward the input once dsc1
    has run, a1 once dsc2 has, and each conv output once its batch norm
    has centred it; in the backward grad_out and `output` once a2's mask
    has been applied.

    In eval mode each batch norm is a fixed affine map right after a
    bias-free pointwise conv W, so it folds into that conv (Jacob et al.
    2018, section 3.2): the conv runs with weights s[:, None] * W and bias
    b, where s = gamma / sqrt(running_var + eps) and
    b = beta - s*running_mean, and no batch-norm pass runs.  The fold is
    recomputed on every eval forward, a (C_out,) pair and one
    (C_out, mid) product; no folded copy is kept, because training and
    checkpoint loading write the parameters and statistics in place and
    would leave it stale.  The folded output differs from the unfolded one
    by rounding only.
    """

    def __init__(self, c_in, c_mid, c_out, multiplier, rng):
        super().__init__()
        self.dsc1 = self._child("dsc1", DepthwiseSeparableConv(c_in, c_mid, multiplier, rng))
        self.bn1 = self._child("bn1", BatchNorm(c_mid))
        self.dsc2 = self._child("dsc2", DepthwiseSeparableConv(c_mid, c_out, multiplier, rng))
        self.bn2 = self._child("bn2", BatchNorm(c_out))

    def forward(self, x, train=False):
        self._cache = () if train else None
        if not train:
            a1 = _relu_in_place(self.dsc1.forward(x, affine=self.bn1.eval_affine()))
            return _relu_in_place(self.dsc2.forward(a1, affine=self.bn2.eval_affine()))
        # Each unit pops its input from a one-slot list and so holds the
        # only reference to it, unless the caller kept one.
        slot = [x]
        del x
        for dsc, bn in ((self.dsc1, self.bn1), (self.dsc2, self.bn2)):
            slot.append(_relu_in_place(bn.forward(dsc.forward(slot.pop()), True)))
        return slot.pop()

    def output(self):
        """The last train forward's output, rebuilt: the bytes it returned."""
        self._peek_cache()  # an eval forward since then leaves the batch norms stale
        return _relu_in_place(self.bn2.output())

    def backward(self, grad_out, x, output, input_grad=True):
        """x is the input of the train forward whose caches this consumes,
        and output that forward's output as `output()` rebuilds it."""
        self._need_cache()
        # The ReLU mask of a2 needs no ReLU: relu(v) > 0 exactly where v > 0.
        g = T.relu_backward(grad_out, output)
        del grad_out, output
        g = self.bn2.backward(g)
        a1 = _relu_in_place(self.bn1.output())
        g = self.dsc2.backward(g, a1)
        g = T.relu_backward(g, a1)
        del a1
        g = self.bn1.backward(g)
        return self.dsc1.backward(g, x, input_grad=input_grad)


def _relu_in_place(a):
    return T.relu(a, out=a)

"""Dense NCHW tensors and the numerical kernels the network is built from.

Every kernel is pure numpy, preserves the input dtype (float32 in
production, float64 in gradient tests), and is deterministic: the same
inputs on the same build always produce the same bytes.  Each forward
kernel has a matching analytic backward.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError, SizeError

DTYPE = np.float32


def check_nchw(x, name="tensor"):
    """Raise ShapeError unless x is a 4-D floating array."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        nd = getattr(x, "ndim", None)
        raise ShapeError(f"{name} must be 4-D (N, C, H, W), got ndim={nd}")
    if x.dtype.kind != "f":
        raise ShapeError(f"{name} must be floating point, got dtype={x.dtype}")


def _conv_geometry(x, weight, padding, groups):
    """Validate conv arguments; return (n, c_in, h, w, c_out, kh, kw, out_h, out_w)."""
    check_nchw(x, "input")
    if weight.ndim != 4:
        raise ShapeError(f"weight must be 4-D (C_out, C_in/groups, kh, kw), got ndim={weight.ndim}")
    n, c_in, h, w = x.shape
    c_out, c_per_group, kh, kw = weight.shape
    if padding < 0 or groups < 1:
        raise ShapeError(f"bad conv arguments: padding={padding} groups={groups}")
    if c_in % groups or c_out % groups:
        raise ShapeError(f"groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_per_group != c_in // groups:
        raise ShapeError(
            f"weight expects {c_per_group} channels per group, input has {c_in // groups}"
        )
    span_h = h + 2 * padding - kh
    span_w = w + 2 * padding - kw
    if span_h < 0 or span_w < 0:
        raise ShapeError(
            f"kernel does not fit the padded input: input {h}x{w}, kernel {kh}x{kw}, "
            f"padding {padding}"
        )
    return n, c_in, h, w, c_out, kh, kw, span_h + 1, span_w + 1


class _Im2col:
    """The im2col of one conv in conv2d's flat-row layout: iterating fills
    cols with each sample's tap windows in turn, and product() is then that
    sample's stacked GEMM as a (C_out, out_h, out_w) view of a reused buffer."""

    def __init__(self, x, weight, padding, groups):
        self.geometry = _conv_geometry(x, weight, padding, groups)
        _, c_in, h, w, c_out, kh, kw, out_h, out_w = self.geometry
        self.x, self.padding, self.pw = x, padding, w + 2 * padding
        self.wv = weight.reshape(groups, c_out // groups, -1)
        self.span = out_h * self.pw - (kw - 1)
        self.cols = np.empty((c_in, kh * kw, self.span), dtype=x.dtype)
        self.gcols = self.cols.reshape(groups, -1, self.span)
        self.acc = np.empty((groups, c_out // groups, out_h * self.pw), dtype=x.dtype)
        self.rows = self.acc.reshape(c_out, out_h, self.pw)[:, :, :out_w]

    def __iter__(self):
        _, c, h, w = self.x.shape
        p, pw, kw, span = self.padding, self.pw, self.geometry[6], self.span
        buf = np.zeros((c, (h + 2 * p) * pw), dtype=self.x.dtype)
        inner = buf.reshape(c, h + 2 * p, pw)[:, p:p + h, p:p + w]
        for sample in self.x:
            inner[...] = sample
            for t in range(self.cols.shape[1]):
                off = (t // kw) * pw + t % kw
                self.cols[:, t] = buf[:, off:off + span]
            yield

    def product(self):
        np.matmul(self.wv, self.gcols, out=self.acc[:, :, :self.span])
        return self.rows


def conv2d(x, weight, bias=None, *, padding=0, groups=1):
    """Cross-correlate x (N, C_in, H, W) with weight (C_out, C_in/groups, kh, kw).

    Zero padding, unit stride.  A kernel larger than the padded input is a
    ShapeError.  Every conv, depthwise, grouped, dense or 1x1, runs one
    kernel, which works on one sample at a time in a flat-row layout: the
    sample is padded to (C_in, H+2p, W+2p) and viewed as
    (C_in, (H+2p)(W+2p)), so the window of tap (dy, dx) is the contiguous
    slice at offset dy*(W+2p) + dx.  The kh*kw tap slices are copied into
    an im2col buffer cols of shape (C_in, kh*kw, span), which is also
    (groups, cg*kh*kw, span) with cg = C_in/groups input channels per
    group.  The sample's output is one stacked matmul,
    (groups, mult, cg*kh*kw) @ cols with mult = C_out/groups: per group a
    GEMM whose inner dimension runs over the group's channels and taps.  A
    depthwise conv is the case cg = 1.  The output is computed on rows of
    the padded width W+2p; the last kw-1 columns of each row are junk,
    windows that wrap into the next row, and are dropped on the way out.
    Each kept column of cols holds exactly the window of its output pixel,
    so the junk costs no exactness: every kept value is a dot product of
    its cg*kh*kw products, rounded within the usual (cg*kh*kw-1)*eps/2 of
    the exact sum.  Every sample runs the same GEMM shapes, so a sample's
    output bytes do not depend on the batch it is in.
    """
    im = _Im2col(x, weight, padding, groups)
    c_out = len(im.rows)
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {bias.shape}")
    y = np.empty((len(x),) + im.rows.shape, dtype=x.dtype)
    for yb, _ in zip(y, im):
        yb[...] = im.product()
    if bias is not None:
        y += bias.astype(x.dtype, copy=False)[None, :, None, None]
    return y


def conv2d_backward(x, weight, grad_out, *, padding=0):
    """Gradients of conv2d.  Returns (grad_x, grad_weight, grad_bias).  Its
    groups are C_in / weight.shape[1]; a weight implying none is refused.

    Every conv runs one kernel, one sample at a time in the flat-row and
    im2col layout of conv2d, with cg = C_in/groups and mult = C_out/groups.
    The output gradient is written into rows of the padded width W+2p, a
    zeroed (groups, mult, span) buffer g whose kw-1 junk columns per row
    stay zero.  The sample's cols are rebuilt from the input.  The weight
    gradient adds the stacked matmul g @ cols^T,
    (groups, mult, span) @ (groups, span, cg*kh*kw), in batch order.

    A conv with a square kernel, padding p < kh and fewer output than
    input channels per group (mult < cg, as in the 7x7 attention gate or
    a 1x1 conv that narrows) takes its input gradient as a transposed conv
    (Dumoulin and Visin 2016, section 4): one conv2d of grad_out with the
    kernel rotated 180 degrees, its two channel axes swapped within each
    group, and padding kh-1-p.  Per sample that is one GEMM with an inner
    dimension of mult*kh*kw in place of C_in*kh*kw tap rows and their sum.
    Only the shape picks the path.  Every other conv, depthwise (cg = 1)
    included, uses the stacked matmul w^T @ g, (groups, cg, kh, kw, mult) @
    (groups, 1, 1, mult, span), which gives each channel's and tap's
    contribution to the input gradient; it writes tap t's row at the
    offset dy*(W+2p) + dx where the tap read its window, in a zeroed
    (C_in, kh*kw, (H+2p)(W+2p)) buffer, so col2im is one sum over the tap
    axis into the flat padded grad_x.

    With finite inputs the zeros of g and of the padding make every
    wrapped-around term a +-0 product, which changes no nonzero sum: grad_x
    and grad_w are those of a direct correlation up to summation order, and
    like the forward they do not depend on the rest of the batch.
    """
    cg = np.shape(weight)[1] if np.ndim(x) == np.ndim(weight) == 4 else 0
    groups = x.shape[1] // cg if 0 < cg <= x.shape[1] and x.shape[1] % cg == 0 else 1
    im = _Im2col(x, weight, padding, groups)
    n, c_in, _, _, c_out, kh, kw, out_h, out_w = im.geometry
    if grad_out.shape != (n, c_out, out_h, out_w):
        raise ShapeError(
            f"grad_out must have shape {(n, c_out, out_h, out_w)}, got {grad_out.shape}"
        )
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    cg, mult = c_in // groups, c_out // groups
    transposed = mult < cg and kh == kw and padding < kh
    go = grad_out.reshape(n, groups, mult, out_h, out_w)
    grad_x, grad_w = _im2col_backward(im, not transposed, go.__getitem__, grad_out.dtype)
    if transposed:
        flipped = (weight.reshape(groups, mult, cg, kh, kw)[..., ::-1, ::-1]
                   .transpose(0, 2, 1, 3, 4))
        grad_x = conv2d(grad_out, flipped.reshape(c_in, mult, kh, kw),
                        padding=kh - 1 - padding, groups=groups)
    return grad_x, grad_w.reshape(weight.shape), grad_bias


def _im2col_backward(im, col2im, sample_grad, grad_dtype):
    """conv2d_backward's per-sample loop over im.  sample_grad(i), called once
    sample i's cols are filled, gives its (groups, mult, out_h, out_w) output
    gradient in grad_dtype.  Returns grad_x (None without col2im), grad_w as wv."""
    x, padding, pw, span = im.x, im.padding, im.pw, im.span
    _, c_in, h, w, c_out, kh, kw, out_h, out_w = im.geometry
    groups, mult, _ = im.wv.shape
    cg, taps, ph = c_in // groups, kh * kw, h + 2 * padding
    grad_x = np.empty(x.shape, dtype=x.dtype) if col2im else None
    if col2im:
        wt = np.ascontiguousarray(
            im.wv.reshape(groups, mult, cg, kh, kw).transpose(0, 2, 3, 4, 1))
        # Row t of shifted holds tap t's input-gradient row at the tap's
        # offset into the flat padded sample and zeros elsewhere; tapview is
        # the (groups, cg, kh, kw, span) window of those rows that the
        # matmul writes, so the zeros are never overwritten.
        shifted = np.zeros((c_in, taps, ph * pw), dtype=x.dtype)
        chan, step, item = shifted.strides
        tapview = np.lib.stride_tricks.as_strided(
            shifted, (groups, cg, kh, kw, span),
            (cg * chan, chan, kw * step + pw * item, step + item, item))
        gxp = np.empty((c_in, ph * pw), dtype=x.dtype)
        inner = gxp.reshape(c_in, ph, pw)[:, padding:padding + h, padding:padding + w]
    gbuf = np.zeros((groups, mult, out_h * pw), dtype=grad_dtype)
    grows = gbuf.reshape(groups, mult, out_h, pw)[..., :out_w]
    g = gbuf[:, :, :span]
    gcols_t = im.gcols.transpose(0, 2, 1)
    grad_w = np.zeros(im.wv.shape, dtype=im.wv.dtype)
    gw = np.empty_like(grad_w)
    for i, _ in enumerate(im):
        grows[...] = sample_grad(i)
        grad_w += np.matmul(g, gcols_t, out=gw)
        if col2im:
            np.matmul(wt, g[:, None, None], out=tapview)
            np.add.reduce(shifted, axis=1, out=gxp)
            grad_x[i] = inner
    return grad_x, grad_w


def _separable_im2col(x, depthwise_w, pointwise_w):
    """Check the arguments; return (_Im2col, pointwise matrix, mid buffer)."""
    im = _Im2col(x, depthwise_w, 1, x.shape[1])
    c_mid = im.geometry[4]
    if pointwise_w.shape[1:] != (c_mid, 1, 1):
        raise ShapeError(f"pointwise weight {pointwise_w.shape} is not (C_out, {c_mid}, 1, 1)")
    mid = np.empty(im.rows.shape, x.dtype).reshape(c_mid, -1)
    return im, pointwise_w.reshape(-1, c_mid), mid


def separable_conv2d(x, depthwise_w, pointwise_w, bias):
    """conv2d(x, depthwise_w, padding=1, groups=C_in), then the 1x1 conv2d
    with pointwise_w and bias (or None), one sample at a time: the same
    GEMMs, so the same bytes, but the depthwise output mid is copied out of
    its GEMM into one reused (k*C_in, H*W) buffer, never at batch size."""
    im, wp, mid = _separable_im2col(x, depthwise_w, pointwise_w)
    y = np.empty((len(x), len(wp)) + x.shape[2:], dtype=x.dtype)
    for yb, _ in zip(y, im):
        mid.reshape(im.rows.shape)[...] = im.product()
        np.matmul(wp, mid, out=yb.reshape(len(wp), -1))
    if bias is not None:
        y += bias.astype(x.dtype, copy=False)[None, :, None, None]
    return y


def separable_conv2d_backward(x, depthwise_w, pointwise_w, grad_out, input_grad):
    """Gradients of a bias-free separable_conv2d, (grad_x or None without
    input_grad, grad_depthwise_w, grad_pointwise_w), with the bytes of the
    two conv2d_backward calls.  Per sample, mid is recomputed from the
    im2col that the depthwise grad_w needs anyway, grad_out[i] @ mid^T adds
    to grad_pointwise_w in batch order and Wp^T @ grad_out[i] goes on."""
    im, wp, mid = _separable_im2col(x, depthwise_w, pointwise_w)
    n, c_in, h, w = x.shape
    if grad_out.shape != (n, len(wp), h, w):
        raise ShapeError(f"grad_out must have shape {(n, len(wp), h, w)}, got {grad_out.shape}")
    gof = grad_out.reshape(n, len(wp), h * w)
    grad_pw = np.zeros(wp.shape, dtype=wp.dtype)
    gw = np.empty_like(grad_pw)

    def mid_grad(i):
        mid.reshape(im.rows.shape)[...] = im.product()
        np.add(grad_pw, np.matmul(gof[i], mid.T, out=gw), out=grad_pw)
        return np.matmul(wp.T, gof[i], out=mid).reshape(c_in, -1, h, w)

    grad_x, grad_dw = _im2col_backward(im, input_grad, mid_grad, mid.dtype)
    return grad_x, grad_dw.reshape(depthwise_w.shape), grad_pw.reshape(pointwise_w.shape)


def max_pool2(x):
    """2x2 max pooling, stride 2.  Returns (pooled, argmax).

    argmax is an int8 array of window positions 0..3, row-major, that the
    backward pass writes into.  Ties go to the lowest position: the pooled
    value and its argmax only move to a later position that is strictly
    greater, so of -0 and +0 the first one met is kept.  A window holding
    NaN pools to NaN and its argmax is unspecified.  Odd spatial sizes are
    a ShapeError, not a truncation.
    """
    check_nchw(x, "input")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2 needs even spatial dims, got {h}x{w}")
    out = x[:, :, 0::2, 0::2].copy()
    arg = np.zeros(out.shape, dtype=np.int8)
    gt = np.empty(out.shape, dtype=bool)
    # Window positions 1..3 in row-major order, as (row, column) offsets.
    for k, (dy, dx) in enumerate(((0, 1), (1, 0), (1, 1)), 1):
        v = x[:, :, dy::2, dx::2]
        np.greater(v, out, out=gt)
        # Positions only grow, so the latest strict win is the largest k.
        np.maximum(arg, np.multiply(gt, k, dtype=np.int8), out=arg)
        # maximum(a, b) returns b unless a > b: the earlier value wins ties.
        np.maximum(v, out, out=out)
    return out, arg


def max_pool2_backward(grad_out, argmax):
    """Scatter grad_out back to the argmax positions; other cells get zero.

    Each window position k fills its stride-2 slice of the output with the
    integer bits of grad_out ANDed with 0 - (argmax == k), a word of all
    ones or all zeros: the argmax cell keeps its gradient's bits, sign of
    zero and NaN included, and the other three cells are +0.
    """
    if grad_out.shape != argmax.shape:
        raise ShapeError(f"grad_out {grad_out.shape} does not match argmax {argmax.shape}")
    n, c, oh, ow = grad_out.shape
    ints = np.dtype(f"i{grad_out.dtype.itemsize}")
    bits = grad_out.view(ints)
    mask = np.empty(grad_out.shape, dtype=ints)
    gx = np.empty((n, c, 2 * oh, 2 * ow), dtype=ints)
    for k, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.negative(argmax == k, dtype=ints, out=mask)
        np.bitwise_and(bits, mask, out=gx[:, :, dy::2, dx::2])
    return gx.view(grad_out.dtype)


@functools.lru_cache(maxsize=64)
def _resize_matrix(n_in, n_out, dtype):
    """Row-stochastic (n_out, n_in) matrix of bilinear weights, half-pixel centers.

    A model resizes between the same few grid sizes on every forward and
    backward, so the matrices are cached by (n_in, n_out, dtype).  Every
    caller shares the cached array, so it is read-only: a write through
    one caller would change every later resize.
    """
    d = np.arange(n_out, dtype=np.float64)
    s = (d + 0.5) * (n_in / n_out) - 0.5
    s = np.clip(s, 0.0, n_in - 1.0)
    i0 = np.floor(s).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = s - i0
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1.0 - frac)
    np.add.at(m, (rows, i1), frac)
    m = m.astype(dtype)
    m.flags.writeable = False
    return m


def bilinear_resize(x, out_h, out_w):
    """Bilinear resample to (out_h, out_w) using half-pixel sample centers.

    Implemented as two small matrix products, y = R_h x R_w^T, so the
    backward pass is the exact transpose.  Same-size resize is the identity.
    Sample centers are clamped to the grid, so edges replicate rather than
    extrapolate.
    """
    check_nchw(x, "input")
    if out_h < 1 or out_w < 1:
        raise SizeError(f"resize target must be positive, got {out_h}x{out_w}")
    _, _, h, w = x.shape
    rh = _resize_matrix(h, int(out_h), x.dtype)
    rw = _resize_matrix(w, int(out_w), x.dtype)
    return np.ascontiguousarray(np.matmul(np.matmul(rh, x), rw.T))


def bilinear_resize_backward(grad_out, in_h, in_w):
    """Adjoint of bilinear_resize back onto an (in_h, in_w) grid."""
    check_nchw(grad_out, "grad_out")
    _, _, oh, ow = grad_out.shape
    rh = _resize_matrix(int(in_h), oh, grad_out.dtype)
    rw = _resize_matrix(int(in_w), ow, grad_out.dtype)
    return np.ascontiguousarray(np.matmul(np.matmul(rh.T, grad_out), rw))


def pad_reflect_to(x, target_h, target_w):
    """Reflect-pad spatial dims up to a target size, extra row/col on the
    bottom/right when the difference is odd.  When no padding is needed it
    returns x itself, not a copy."""
    check_nchw(x, "input")
    _, _, h, w = x.shape
    dh = target_h - h
    dw = target_w - w
    if dh < 0 or dw < 0:
        raise SizeError(f"cannot pad {h}x{w} down to {target_h}x{target_w}")
    if dh >= h or dw >= w:
        raise SizeError(f"reflect padding from {h}x{w} to {target_h}x{target_w} would repeat edges")
    if dh == dw == 0:
        return x
    top, left = dh // 2, dw // 2
    return np.pad(x, ((0, 0), (0, 0), (top, dh - top), (left, dw - left)), mode="reflect")


def crop_back(y, orig_h, orig_w):
    """Undo pad_reflect_to: slice the centered (orig_h, orig_w) region out."""
    check_nchw(y, "input")
    _, _, h, w = y.shape
    dh = h - orig_h
    dw = w - orig_w
    if dh < 0 or dw < 0:
        raise SizeError(f"cannot crop {h}x{w} back to {orig_h}x{orig_w}")
    top, left = dh // 2, dw // 2
    return np.ascontiguousarray(y[:, :, top:top + orig_h, left:left + orig_w])


def relu(x, out=None):
    """Elementwise max(x, 0); out=x applies it in place."""
    return np.maximum(x, 0, out=out)


def relu_backward(grad_out, x):
    """Pass gradient where x > 0; the kink at exactly zero propagates nothing.

    The integer bits of grad_out are ANDed with 0 - (x > 0), a word of all
    ones or all zeros, so a passed entry keeps its bits, sign of zero and
    NaN included, and every blocked entry, where x <= 0 or x is NaN, is +0.
    """
    ints = np.dtype(f"i{grad_out.dtype.itemsize}")
    mask = np.negative(x > 0, dtype=ints)
    return np.bitwise_and(grad_out.view(ints), mask, out=mask).view(grad_out.dtype)


def _exp_neg_abs(x):
    """exp(-|x|) in one new array: never overflows, and both halves of the
    logistic function and the log1p term of the loss are built from it."""
    e = np.abs(x)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _logistic_in_place(x, e, den):
    """Overwrite e = exp(-|x|) with sigmoid(x): 1/(1+e) where x >= 0 and
    e/(1+e) elsewhere.  den is scratch of e's shape."""
    np.add(e, 1, out=den)
    # e <= 1, so raising it to 1 where x >= 0 makes one divide give both
    # halves, with the same IEEE quotients as dividing 1 or e by den.
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, den, out=e)


def sigmoid(x):
    """Numerically stable logistic function; never overflows at large |x|."""
    e = _exp_neg_abs(x)
    return _logistic_in_place(x, e, np.empty_like(e))


def concat_channels(a, b):
    """Concatenate along the channel axis; batch and spatial dims must agree."""
    check_nchw(a, "first input")
    check_nchw(b, "second input")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"cannot concat {a.shape} with {b.shape}")
    return np.concatenate([a, b], axis=1)


def split_channels(grad_out, c_first):
    """Split a channel-concat gradient back into its two operands."""
    check_nchw(grad_out, "grad_out")
    if not 0 < c_first < grad_out.shape[1]:
        raise ShapeError(f"split point {c_first} outside 1..{grad_out.shape[1] - 1}")
    return (np.ascontiguousarray(grad_out[:, :c_first]),
            np.ascontiguousarray(grad_out[:, c_first:]))


def bce_with_logits(logits, targets, *, grad=True, count=None):
    """Mean binary cross-entropy on raw logits.  Returns (loss, grad_logits).

    Uses the max(x,0) - x*t + log1p(exp(-|x|)) form, which is finite for any
    logit magnitude.  The mean divides by `count` elements, all of logits
    when None; a larger count scores one slice of a batch as its share of
    the batch mean.  The gradient is (sigmoid(x) - t) / count; it reuses
    the loss's exp(-|x|) and is built in place.  With grad=False only the
    loss is computed, and None stands in for the gradient.
    """
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    x = logits
    count = x.size if count is None else count
    e = _exp_neg_abs(x)
    total = np.maximum(x, 0)
    tmp = np.multiply(x, targets)
    total -= tmp
    np.log1p(e, out=tmp)
    total += tmp
    value = float(total.sum() / count)
    if not grad:
        return value, None
    g = _logistic_in_place(x, e, total)
    g -= targets
    g /= count
    return value, g


def mse(pred, targets, *, count=None):
    """Mean squared error over `count` elements, all of pred when None.
    Returns (loss, grad_pred)."""
    if pred.shape != targets.shape:
        raise ShapeError(f"pred {pred.shape} vs targets {targets.shape}")
    count = pred.size if count is None else count
    diff = pred - targets
    return float(np.sum(diff * diff) / count), (2.0 / count) * diff

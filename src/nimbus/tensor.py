"""Dense NCHW tensors and the numerical kernels the network is built from.

Every kernel is pure numpy, preserves the input dtype (float32 in
production, float64 in gradient tests), and is deterministic: the same
inputs on the same build always produce the same bytes.  Each forward
kernel has a matching analytic backward.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SizeError

DTYPE = np.float32


# Allocation guard: 2^40 elements is 4 TiB of float32, far past addressable
# for this workload, so anything larger is treated as a size bug.
MAX_ELEMENTS = 1 << 40


def _checked_dims(dims):
    dims = tuple(int(d) for d in dims)
    if any(d < 0 for d in dims):
        raise ShapeError(f"dimensions must be non-negative, got {dims}")
    total = 1
    for d in dims:
        total *= d
    if total > MAX_ELEMENTS:
        raise SizeError(f"allocation of {total} elements exceeds the {MAX_ELEMENTS} cap")
    return dims


def tensor_new(dims, fill=0.0, dtype=DTYPE):
    """Allocate a tensor filled with a constant.  Zero-sized dims are legal."""
    return np.full(_checked_dims(dims), fill, dtype=dtype)


def tensor_random(dims, dist, scale, seed, dtype=DTYPE):
    """Seeded random tensor: uniform(-scale, scale) or normal(0, scale).

    Two calls with the same arguments produce identical bytes.
    """
    dims = _checked_dims(dims)
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        vals = rng.uniform(-scale, scale, size=dims)
    elif dist == "normal":
        vals = rng.normal(0.0, scale, size=dims)
    else:
        raise ShapeError(f"unknown distribution {dist!r}, expected 'uniform' or 'normal'")
    return vals.astype(dtype)


def check_nchw(x, name="tensor"):
    """Raise ShapeError unless x is a 4-D floating array."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        nd = getattr(x, "ndim", None)
        raise ShapeError(f"{name} must be 4-D (N, C, H, W), got ndim={nd}")
    if x.dtype.kind != "f":
        raise ShapeError(f"{name} must be floating point, got dtype={x.dtype}")


def _conv_geometry(x, weight, stride, padding, groups):
    """Validate conv arguments; return (n, c_in, h, w, c_out, kh, kw, out_h, out_w)."""
    check_nchw(x, "input")
    if weight.ndim != 4:
        raise ShapeError(f"weight must be 4-D (C_out, C_in/groups, kh, kw), got ndim={weight.ndim}")
    n, c_in, h, w = x.shape
    c_out, c_per_group, kh, kw = weight.shape
    if stride < 1 or padding < 0 or groups < 1:
        raise ShapeError(f"bad conv arguments: stride={stride} padding={padding} groups={groups}")
    if c_in % groups or c_out % groups:
        raise ShapeError(f"groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_per_group != c_in // groups:
        raise ShapeError(
            f"weight expects {c_per_group} channels per group, input has {c_in // groups}"
        )
    span_h = h + 2 * padding - kh
    span_w = w + 2 * padding - kw
    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
        raise ShapeError(
            f"conv output size not integral: input {h}x{w}, kernel {kh}x{kw}, "
            f"padding {padding}, stride {stride}"
        )
    return n, c_in, h, w, c_out, kh, kw, span_h // stride + 1, span_w // stride + 1


def _pad_zeros(x, padding):
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _flat_padded_samples(x, padding):
    """Yield each sample of x zero-padded and flattened to (C, (H+2p)(W+2p)).

    In this flat-row layout the window of tap (dy, dx) is the contiguous
    slice that starts at dy*(W+2p) + dx.  One buffer is reused for every
    sample, so a caller that needs a sample after the next one is drawn
    must copy it.
    """
    n, c, h, w = x.shape
    if padding == 0:
        for sample in x:
            yield sample.reshape(c, h * w)
        return
    ph, pw = h + 2 * padding, w + 2 * padding
    buf = np.zeros((c, ph * pw), dtype=x.dtype)
    inner = buf.reshape(c, ph, pw)[:, padding:padding + h, padding:padding + w]
    for sample in x:
        inner[...] = sample
        yield buf


def _im2col(xf, cols, kw, pw):
    """Fill cols (C, kh*kw, span) with the tap windows of one flat padded
    sample xf (C, (H+2p)*pw): tap t = (dy, dx) is the contiguous slice of
    xf that starts at dy*pw + dx."""
    span = cols.shape[2]
    for t in range(cols.shape[1]):
        off = (t // kw) * pw + t % kw
        cols[:, t] = xf[:, off:off + span]


def _windows(xp, kh, kw, stride):
    """Strided (N, C, out_h, out_w, kh, kw) view over a padded input."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    if stride > 1:
        win = win[:, :, ::stride, ::stride]
    return win


def conv2d(x, weight, bias=None, *, stride=1, padding=0, groups=1):
    """Cross-correlate x (N, C_in, H, W) with weight (C_out, C_in/groups, kh, kw).

    Zero padding, identical stride on both axes.  Output sizes must come out
    integral, otherwise ShapeError: silent truncation is how off-by-one bugs
    hide.  Three shapes are special-cased for speed (pointwise as one matmul,
    depthwise per sample, dense as a single einsum); all other group counts
    go through a grouped einsum.

    The depthwise kernel works on one sample at a time in a flat-row layout:
    the sample is padded to (C, H+2p, W+2p) and viewed as (C, (H+2p)(W+2p)),
    so the window of tap (dy, dx) is the contiguous slice at offset
    dy*(W+2p) + dx.  The kh*kw tap slices are copied into an im2col buffer
    cols of shape (C, kh*kw, span), and the sample's output is one stacked
    matmul, (C, mult, kh*kw) @ cols: per channel a small GEMM whose inner
    dimension is the taps.  The stride-1 output is computed on rows of the
    padded width W+2p; the last kw-1 columns of each row are junk, windows
    that wrap into the next row, and are dropped on the way out.  Each kept
    column of cols holds exactly the window of its output pixel, so the
    junk costs no exactness: every kept value is a float32 dot product of
    its kh*kw taps, rounded within the usual (kh*kw-1)*eps/2 of the exact
    sum.  A strided conv keeps every stride-th row and column of the
    stride-1 result, which holds exactly the strided windows.  Every sample
    runs the same GEMM shapes, so a sample's output bytes do not depend on
    the batch it is in.
    """
    n, c_in, h, w, c_out, kh, kw, out_h, out_w = _conv_geometry(x, weight, stride, padding, groups)
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {bias.shape}")

    if kh == 1 and kw == 1 and groups == 1 and padding == 0:
        xs = x[:, :, ::stride, ::stride] if stride > 1 else x
        y = np.matmul(weight.reshape(c_out, c_in), xs.reshape(n, c_in, out_h * out_w))
        y = y.reshape(n, c_out, out_h, out_w)
    elif groups == c_in and weight.shape[1] == 1:
        mult, taps = c_out // c_in, kh * kw
        wv = weight.reshape(c_in, mult, taps)
        pw = w + 2 * padding
        full_h, full_w = h + 2 * padding - kh + 1, pw - kw + 1
        span = full_h * pw - (kw - 1)
        cols = np.empty((c_in, taps, span), dtype=x.dtype)
        acc = np.empty((c_in, mult, full_h * pw), dtype=x.dtype)
        rows = acc.reshape(c_out, full_h, pw)[:, ::stride, :full_w:stride]
        y = np.empty((n, c_out, out_h, out_w), dtype=x.dtype)
        for yb, xf in zip(y, _flat_padded_samples(x, padding)):
            _im2col(xf, cols, kw, pw)
            np.matmul(wv, cols, out=acc[:, :, :span])
            yb[...] = rows
    elif groups == 1:
        win = _windows(_pad_zeros(x, padding), kh, kw, stride)
        y = np.einsum("nihwkl,oikl->nohw", win, weight, optimize=True)
    else:
        win = _windows(_pad_zeros(x, padding), kh, kw, stride)
        wing = win.reshape(n, groups, c_in // groups, out_h, out_w, kh, kw)
        wg = weight.reshape(groups, c_out // groups, c_in // groups, kh, kw)
        y = np.einsum("ngihwkl,goikl->ngohw", wing, wg, optimize=True)
        y = y.reshape(n, c_out, out_h, out_w)

    y = np.ascontiguousarray(y, dtype=x.dtype)
    if bias is not None:
        y += bias.astype(x.dtype, copy=False)[None, :, None, None]
    return y


def _dilate(g, stride):
    """Insert stride-1 zeros between grad rows/cols, undoing the stride skip."""
    if stride == 1:
        return g
    n, c, h, w = g.shape
    out = np.zeros((n, c, (h - 1) * stride + 1, (w - 1) * stride + 1), dtype=g.dtype)
    out[:, :, ::stride, ::stride] = g
    return out


def conv2d_backward(x, weight, grad_out, *, stride=1, padding=0, groups=1, has_bias=True):
    """Gradients of conv2d.  Returns (grad_x, grad_weight, grad_bias or None).

    grad_weight correlates input windows with the output gradient.  grad_x is
    a full-padding correlation of the stride-dilated output gradient with the
    spatially flipped, in/out-transposed weights; the dilation step is exact
    because conv2d refuses non-integral output sizes.

    Stride-1 depthwise convs run one sample at a time in the flat-row and
    im2col layout of conv2d.  The output gradient g is copied into rows of
    the padded width W+2p whose kw-1 junk columns are held at zero, and the
    sample's cols are rebuilt from the input.  The weight gradient adds the
    stacked matmul g @ cols^T, (C, mult, span) @ (C, span, kh*kw).  The
    stacked matmul w^T @ g, (C, kh*kw, mult) @ (C, mult, span), gives each
    tap's contribution to the input gradient; it writes tap t's row at the
    offset dy*(W+2p) + dx where the tap read its window, in a zeroed
    (C, kh*kw, (H+2p)(W+2p)) buffer, so col2im is one sum over the tap
    axis into the flat padded grad_x.  With finite inputs the zero junk
    columns of g make every wrapped-around term a +-0 product, which
    changes no nonzero sum: grad_x and grad_w are those of a direct
    correlation up to summation order, and like the forward they do not
    depend on the rest of the batch.
    """
    n, c_in, h, w, c_out, kh, kw, out_h, out_w = _conv_geometry(x, weight, stride, padding, groups)
    if grad_out.shape != (n, c_out, out_h, out_w):
        raise ShapeError(
            f"grad_out must have shape {(n, c_out, out_h, out_w)}, got {grad_out.shape}"
        )
    grad_bias = grad_out.sum(axis=(0, 2, 3)) if has_bias else None
    mult = c_out // groups

    if kh == 1 and kw == 1 and groups == 1 and padding == 0 and stride == 1:
        gof = grad_out.reshape(n, c_out, h * w)
        xf = x.reshape(n, c_in, h * w)
        w2 = weight.reshape(c_out, c_in)
        grad_w = np.einsum("nof,nif->oi", gof, xf, optimize=True).reshape(weight.shape)
        grad_x = np.matmul(w2.T, gof).reshape(x.shape)
        return grad_x, np.ascontiguousarray(grad_w, dtype=weight.dtype), grad_bias

    if groups == c_in and weight.shape[1] == 1 and stride == 1:
        taps = kh * kw
        ph, pw = h + 2 * padding, w + 2 * padding
        span = out_h * pw - (kw - 1)
        wt = weight.reshape(c_in, mult, taps).transpose(0, 2, 1).reshape(c_in, kh, kw, mult)
        gbuf = np.zeros((c_in, mult, out_h * pw), dtype=grad_out.dtype)
        grows = gbuf.reshape(c_in, mult, out_h, pw)[..., :out_w]
        g = gbuf[:, :, :span]
        cols = np.empty((c_in, taps, span), dtype=x.dtype)
        # Row t of shifted holds tap t's input-gradient row at the tap's
        # offset into the flat padded sample and zeros elsewhere; tapview
        # is the (C, kh, kw, span) window of those rows that the matmul
        # writes, so the zeros are never overwritten.
        shifted = np.zeros((c_in, taps, ph * pw), dtype=x.dtype)
        step, item = shifted.strides[1], shifted.itemsize
        tapview = np.lib.stride_tricks.as_strided(
            shifted, (c_in, kh, kw, span),
            (shifted.strides[0], kw * step + pw * item, step + item, item))
        grad_w = np.zeros((c_in, mult, taps), dtype=weight.dtype)
        gw = np.empty_like(grad_w)
        grad_x = np.empty(x.shape, dtype=x.dtype)
        gxp = np.empty((c_in, ph * pw), dtype=x.dtype)
        inner = gxp.reshape(c_in, ph, pw)[:, padding:padding + h, padding:padding + w]
        go = grad_out.reshape(n, c_in, mult, out_h, out_w)
        for gxb, gob, xf in zip(grad_x, go, _flat_padded_samples(x, padding)):
            grows[...] = gob
            _im2col(xf, cols, kw, pw)
            grad_w += np.matmul(g, cols.transpose(0, 2, 1), out=gw)
            np.matmul(wt, g[:, None], out=tapview)
            np.add.reduce(shifted, axis=1, out=gxp)
            gxb[...] = inner
        return grad_x, grad_w.reshape(weight.shape), grad_bias

    win = _windows(_pad_zeros(x, padding), kh, kw, stride)
    if groups == 1:
        grad_w = np.einsum("nihwkl,nohw->oikl", win, grad_out, optimize=True)
    else:
        wing = win.reshape(n, groups, c_in // groups, out_h, out_w, kh, kw)
        gog = grad_out.reshape(n, groups, mult, out_h, out_w)
        grad_w = np.einsum("ngihwkl,ngohw->goikl", wing, gog, optimize=True)
        grad_w = grad_w.reshape(weight.shape)
    grad_w = np.ascontiguousarray(grad_w, dtype=weight.dtype)

    # Transpose within each group: (G, mult, cg, kh, kw) -> (G*cg, mult, kh, kw),
    # flip the taps, then correlate the dilated grad with full padding.
    wt = weight.reshape(groups, mult, c_in // groups, kh, kw)
    wt = wt.transpose(0, 2, 1, 3, 4)[:, :, :, ::-1, ::-1]
    wt = np.ascontiguousarray(wt.reshape(c_in, mult, kh, kw))
    gd = _dilate(grad_out, stride)
    gwin = _windows(np.pad(gd, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1))), kh, kw, 1)
    gwing = gwin.reshape(n, groups, mult, h + 2 * padding, w + 2 * padding, kh, kw)
    wtg = wt.reshape(groups, c_in // groups, mult, kh, kw)
    gxp = np.einsum("ngmhwkl,gcmkl->ngchw", gwing, wtg, optimize=True)
    gxp = gxp.reshape(n, c_in, h + 2 * padding, w + 2 * padding)
    grad_x = gxp[:, :, padding:padding + h, padding:padding + w]
    return np.ascontiguousarray(grad_x), grad_w, grad_bias


def max_pool2(x):
    """2x2 max pooling, stride 2.  Returns (pooled, argmax).

    Ties go to the lowest flat index inside the window, scanned row-major.
    argmax is an int8 array of window positions 0..3 that the backward pass
    scatters into.  Odd spatial sizes are a ShapeError, not a truncation.
    """
    check_nchw(x, "input")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2 needs even spatial dims, got {h}x{w}")
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), arg.astype(np.int8)


def max_pool2_backward(grad_out, argmax):
    """Scatter grad_out back to the argmax positions; other cells get zero."""
    if grad_out.shape != argmax.shape:
        raise ShapeError(f"grad_out {grad_out.shape} does not match argmax {argmax.shape}")
    n, c, oh, ow = grad_out.shape
    win = np.zeros((n, c, oh, ow, 4), dtype=grad_out.dtype)
    np.put_along_axis(win, argmax[..., None].astype(np.intp), grad_out[..., None], axis=-1)
    gx = win.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(gx.reshape(n, c, 2 * oh, 2 * ow))


def _resize_matrix(n_in, n_out, dtype):
    """Row-stochastic (n_out, n_in) matrix of bilinear weights, half-pixel centers."""
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
    return m.astype(dtype)


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
    bottom/right when the difference is odd."""
    check_nchw(x, "input")
    _, _, h, w = x.shape
    dh = target_h - h
    dw = target_w - w
    if dh < 0 or dw < 0:
        raise SizeError(f"cannot pad {h}x{w} down to {target_h}x{target_w}")
    if dh >= h or dw >= w:
        raise SizeError(f"reflect padding from {h}x{w} to {target_h}x{target_w} would repeat edges")
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
    """Pass gradient where x > 0; the kink at exactly zero propagates nothing."""
    return np.where(x > 0, grad_out, 0).astype(grad_out.dtype, copy=False)


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
    np.divide(e, den, out=e)
    np.divide(1, den, out=e, where=x >= 0)
    return e


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


def bce_with_logits(logits, targets, *, grad=True):
    """Mean binary cross-entropy on raw logits.  Returns (loss, grad_logits).

    Uses the max(x,0) - x*t + log1p(exp(-|x|)) form, which is finite for any
    logit magnitude.  The gradient is (sigmoid(x) - t) / count; it reuses the
    loss's exp(-|x|) and is built in place.  With grad=False only the loss
    is computed, and None stands in for the gradient.
    """
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    x = logits
    e = _exp_neg_abs(x)
    total = np.maximum(x, 0)
    tmp = np.multiply(x, targets)
    total -= tmp
    np.log1p(e, out=tmp)
    total += tmp
    value = float(total.mean())
    if not grad:
        return value, None
    g = _logistic_in_place(x, e, total)
    g -= targets
    g /= x.size
    return value, g


def mse(pred, targets):
    """Mean squared error.  Returns (loss, grad_pred)."""
    if pred.shape != targets.shape:
        raise ShapeError(f"pred {pred.shape} vs targets {targets.shape}")
    diff = pred - targets
    return float(np.mean(diff * diff)), (2.0 / pred.size) * diff

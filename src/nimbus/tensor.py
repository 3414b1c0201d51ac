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


def _padded_samples(x, padding):
    """Yield each sample of x as a zero-padded (C, H+2p, W+2p) array.

    One buffer is reused for every sample, so a caller that needs a sample
    after the next one is drawn must copy it.
    """
    if padding == 0:
        yield from x
        return
    n, c, h, w = x.shape
    buf = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    for sample in x:
        buf[:, padding:padding + h, padding:padding + w] = sample
        yield buf


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
    go through a grouped einsum.  The depthwise kernel pads one sample at a
    time and, for each of the kh*kw taps in row-major order, multiplies the
    shifted window by that tap's weights into one preallocated buffer and
    adds it in place, so its working set is a single sample.
    """
    n, c_in, h, w, c_out, kh, kw, out_h, out_w = _conv_geometry(x, weight, stride, padding, groups)
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {bias.shape}")

    if kh == 1 and kw == 1 and groups == 1 and padding == 0:
        xs = x[:, :, ::stride, ::stride] if stride > 1 else x
        y = np.matmul(weight.reshape(c_out, c_in), xs.reshape(n, c_in, out_h * out_w))
        y = y.reshape(n, c_out, out_h, out_w)
    elif groups == c_in and weight.shape[1] == 1:
        mult = c_out // c_in
        wv = weight.reshape(c_in, mult, kh, kw)
        y = np.zeros((n, c_in, mult, out_h, out_w), dtype=x.dtype)
        tap = np.empty((c_in, mult, out_h, out_w), dtype=np.result_type(x, weight))
        for yb, xp in zip(y, _padded_samples(x, padding)):
            for dy in range(kh):
                ys = slice(dy, dy + stride * (out_h - 1) + 1, stride)
                for dx in range(kw):
                    xs = slice(dx, dx + stride * (out_w - 1) + 1, stride)
                    np.multiply(xp[:, None, ys, xs], wv[:, :, dy, dx, None, None], out=tap)
                    yb += tap
        y = y.reshape(n, c_out, out_h, out_w)
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

    Stride-1 depthwise convs run one sample at a time.  For each tap, the
    output gradient is multiplied by the tap's weights and summed over the
    depth multiplier in one buffer, which is then added into the shifted
    slice of a padded grad_x; the weight gradient adds one
    einsum("chw,cmhw->cm") of the shifted input window per tap and sample.
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
        go = grad_out.reshape(n, c_in, mult, out_h, out_w)
        wv = weight.reshape(c_in, mult, kh, kw)
        grad_w = np.zeros((c_in, mult, kh, kw), dtype=weight.dtype)
        grad_x = np.empty(x.shape, dtype=x.dtype)
        gxp = np.empty((c_in, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        fold = np.empty((c_in, out_h, out_w), dtype=np.result_type(grad_out, weight))
        prod = np.empty_like(fold)
        for gxb, gob, xp in zip(grad_x, go, _padded_samples(x, padding)):
            gxp.fill(0)
            for dy in range(kh):
                for dx in range(kw):
                    win = xp[:, dy:dy + out_h, dx:dx + out_w]
                    grad_w[:, :, dy, dx] += np.einsum("chw,cmhw->cm", win, gob)
                    np.multiply(gob[:, 0], wv[:, 0, dy, dx, None, None], out=fold)
                    for m in range(1, mult):
                        np.multiply(gob[:, m], wv[:, m, dy, dx, None, None], out=prod)
                        fold += prod
                    # Outside the slice a full-plane correlation would add
                    # only +-0, which leaves every value but -0 unchanged, and
                    # gxp never holds -0; so this is bitwise the same.
                    gxp[:, dy:dy + out_h, dx:dx + out_w] += fold
            gxb[...] = gxp[:, padding:padding + h, padding:padding + w]
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


def relu(x):
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


def relu_backward(grad_out, x):
    """Pass gradient where x > 0; the kink at exactly zero propagates nothing."""
    return np.where(x > 0, grad_out, 0).astype(grad_out.dtype, copy=False)


def sigmoid(x):
    """Numerically stable logistic function; never overflows at large |x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(grad_out, y):
    """Gradient through sigmoid given its forward output y."""
    return grad_out * y * (1.0 - y)


def _broadcast_operand(a, b):
    """Return b viewed against a's NCHW layout: same shape, or a C-vector."""
    if b.shape == a.shape:
        return b
    if b.ndim == 1 and b.shape[0] == a.shape[1]:
        return b[None, :, None, None]
    raise ShapeError(f"operand {b.shape} does not broadcast against {a.shape}")


def add(a, b):
    """Elementwise sum; b may be a per-channel vector."""
    check_nchw(a, "first operand")
    return a + _broadcast_operand(a, b)


def add_backward(grad_out, b_shape):
    """Gradients of add: pass-through for a, channel-reduced for a vector b."""
    if len(b_shape) == 1:
        return grad_out, grad_out.sum(axis=(0, 2, 3))
    return grad_out, grad_out


def mul(a, b):
    """Elementwise product; b may be a per-channel vector."""
    check_nchw(a, "first operand")
    return a * _broadcast_operand(a, b)


def mul_backward(grad_out, a, b):
    """Gradients of mul with the same broadcast rule as the forward."""
    bb = _broadcast_operand(a, b)
    grad_a = grad_out * bb
    grad_b = grad_out * a
    if b.ndim == 1:
        grad_b = grad_b.sum(axis=(0, 2, 3))
    return grad_a, grad_b


def scale(x, alpha):
    """Multiply by a scalar."""
    return x * x.dtype.type(alpha)


def scale_backward(grad_out, alpha):
    """Gradient of scale."""
    return grad_out * grad_out.dtype.type(alpha)


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


def bce_with_logits(logits, targets):
    """Mean binary cross-entropy on raw logits.  Returns (loss, grad_logits).

    Uses the max(x,0) - x*t + log1p(exp(-|x|)) form, which is finite for any
    logit magnitude.  The gradient is (sigmoid(x) - t) / count.
    """
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    x = logits
    loss = np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    grad = (sigmoid(x) - targets) / x.size
    return float(loss.mean()), grad.astype(x.dtype, copy=False)


def mse(pred, targets):
    """Mean squared error.  Returns (loss, grad_pred)."""
    if pred.shape != targets.shape:
        raise ShapeError(f"pred {pred.shape} vs targets {targets.shape}")
    diff = pred - targets
    return float(np.mean(diff * diff)), (2.0 / pred.size) * diff

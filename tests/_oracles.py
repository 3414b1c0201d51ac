"""Independent reference implementations used to check the fast kernels.

Everything here is deliberately slow and literal: scalar loops and the
textbook definitions, no shared code with the package under test.  The two
depthwise references are the exception to "slow": they are the package's
earlier whole-batch depthwise kernels, kept as the bitwise reference for the
per-sample ones.
"""

import numpy as np


def conv2d_ref(x, weight, bias=None, stride=1, padding=0, groups=1):
    """Cross-correlation from the definition, one output scalar at a time."""
    n, c_in, h, w = x.shape
    c_out, cg, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    wf = weight.astype(np.float64)
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.float64)
    out_per_group = c_out // groups
    for b in range(n):
        for co in range(c_out):
            g = co // out_per_group
            for oh in range(out_h):
                for ow in range(out_w):
                    acc = 0.0
                    for ci in range(cg):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += (xp[b, g * cg + ci, oh * stride + dy, ow * stride + dx]
                                        * wf[co, ci, dy, dx])
                    out[b, co, oh, ow] = acc
    if bias is not None:
        out += bias.astype(np.float64)[None, :, None, None]
    return out


def depthwise_conv2d_ref(x, weight, bias=None, stride=1, padding=0):
    """The earlier depthwise conv2d: one 5-D (n, c, mult, h, w) product per tap."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    mult = c_out // c_in
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    wv = weight.reshape(c_in, mult, kh, kw)
    y = np.zeros((n, c_in, mult, out_h, out_w), dtype=x.dtype)
    for dy in range(kh):
        ys = slice(dy, dy + stride * (out_h - 1) + 1, stride)
        for dx in range(kw):
            xs = slice(dx, dx + stride * (out_w - 1) + 1, stride)
            y += xp[:, :, None, ys, xs] * wv[None, :, :, dy, dx, None, None]
    y = y.reshape(n, c_out, out_h, out_w)
    y = np.ascontiguousarray(y, dtype=x.dtype)
    if bias is not None:
        y += bias.astype(x.dtype, copy=False)[None, :, None, None]
    return y


def depthwise_conv2d_backward_ref(x, weight, grad_out, padding=0):
    """The earlier stride-1 depthwise conv2d_backward: a padded 5-D copy of
    grad_out, reduced over mult per tap.  Returns (grad_x, grad_weight)."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = h + 2 * padding - kh + 1
    out_w = w + 2 * padding - kw + 1
    mult = c_out // c_in
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    go = grad_out.reshape(n, c_in, mult, out_h, out_w)
    grad_w = np.empty((c_in, mult, kh, kw), dtype=weight.dtype)
    for dy in range(kh):
        for dx in range(kw):
            patch = xp[:, :, None, dy:dy + out_h, dx:dx + out_w]
            grad_w[:, :, dy, dx] = (patch * go).sum(axis=(0, 3, 4))
    gp = np.pad(go, ((0, 0), (0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    wv = weight.reshape(c_in, mult, kh, kw)
    ph = h + 2 * padding
    pw = w + 2 * padding
    gxp = np.zeros((n, c_in, ph, pw), dtype=x.dtype)
    for dy in range(kh):
        for dx in range(kw):
            shifted = gp[:, :, :, kh - 1 - dy:kh - 1 - dy + ph, kw - 1 - dx:kw - 1 - dx + pw]
            gxp += (shifted * wv[None, :, :, dy, dx, None, None]).sum(axis=2)
    grad_x = gxp[:, :, padding:padding + h, padding:padding + w]
    return np.ascontiguousarray(grad_x), grad_w.reshape(weight.shape)


def fd_gradient(fn, x, eps=1e-6):
    """Central finite differences of a scalar-valued fn at float64 x."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * eps)
    return grad


def rel_err(got, want):
    """Max absolute difference, scaled by the reference magnitude."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.abs(want).max(), 1.0) if want.size else 1.0
    return float(np.abs(got - want).max() / denom)


def bilinear_ref(img, out_h, out_w):
    """Half-pixel bilinear resize of one (H, W) plane, scalar at a time."""
    h, w = img.shape
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[oy, ox] = top * (1 - fy) + bot * fy
    return out


def channel_attention_ref(x, w1, w2):
    """CBAM channel gate from its formula, one sample at a time."""
    n, c, h, w = x.shape
    out = np.empty_like(x)
    scales = np.empty((n, c))
    for b in range(n):
        avg = np.array([x[b, ch].mean() for ch in range(c)])
        mx = np.array([x[b, ch].max() for ch in range(c)])
        z = w2 @ np.maximum(w1 @ avg, 0) + w2 @ np.maximum(w1 @ mx, 0)
        s = 1.0 / (1.0 + np.exp(-z))
        scales[b] = s
        for ch in range(c):
            out[b, ch] = x[b, ch] * s[ch]
    return out, scales


def spatial_attention_ref(x, weight, bias):
    """CBAM spatial gate from its formula, via the scalar conv reference."""
    n, c, h, w = x.shape
    mean_c = x.mean(axis=1, keepdims=True)
    max_c = x.max(axis=1, keepdims=True)
    f = np.concatenate([mean_c, max_c], axis=1)
    z = conv2d_ref(f, weight, bias, stride=1, padding=weight.shape[2] // 2)
    m = 1.0 / (1.0 + np.exp(-z))
    return x * m, m


def csi_ref(pred, truth):
    """Critical success index from explicitly counted outcomes."""
    tp = fp = fn = 0
    for p, t in zip(np.asarray(pred).reshape(-1), np.asarray(truth).reshape(-1)):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif t and not p:
            fn += 1
    denom = tp + fp + fn
    return tp / denom if denom else 0.0

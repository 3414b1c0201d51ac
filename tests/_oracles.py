"""Independent reference implementations used to check the fast kernels.

Everything here is deliberately slow and literal: scalar loops and the
textbook definitions, no shared code with the package under test.  The
exceptions to "slow" are the package's earlier kernels.  The whole-batch
sliding-window einsum conv and its backward are tolerance references for
the im2col kernel, which adds the same products in another order.  The
others are bitwise references for the current code: the reshape-and-argmax
max pool, the argmax channel reduction of the spatial gate, the spatial
gate's backward from a cache that held its own input, the
mask-gathering sigmoid and the loss built on it, the batch norm and
double-conv passes that cached the centred input and the pre-ReLU
activations, the training loss that upsampled and scored the whole batch
at once through a loss dispatcher, the per-method recursions that named
parameters and states, and the verification loops that called
count_events once per sample and lead, read every input file and read
each target four times.
The earlier synthetic generator, which rendered every field on the whole
fine grid and cropped targets after, and its reshape-and-mean block
average pin the windowed generator byte for byte.
"""

import os

import numpy as np

from nimbus import data as D
from nimbus import tensor as T
from nimbus.errors import ConfigError, DataError, ShapeError, ValidationError
from nimbus.metrics import (ConfusionCounts, EvalConfig, EvalReport, _event_mask, binarize,
                            count_events, prediction_path)


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


def _windows(x, kh, kw, stride, pad_h, pad_w):
    """Strided (N, C, out_h, out_w, kh, kw) window view over a zero-padded x."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def conv2d_window_ref(x, weight, bias=None, stride=1, padding=0, groups=1):
    """The earlier dense and grouped conv2d: one einsum over a sliding-window
    view of the whole padded batch."""
    n, c_in = x.shape[:2]
    c_out, cg, kh, kw = weight.shape
    win = _windows(x, kh, kw, stride, padding, padding)
    out_h, out_w = win.shape[2:4]
    wing = win.reshape(n, groups, cg, out_h, out_w, kh, kw)
    wg = weight.reshape(groups, c_out // groups, cg, kh, kw)
    y = np.einsum("ngihwkl,goikl->ngohw", wing, wg, optimize=True)
    y = np.ascontiguousarray(y.reshape(n, c_out, out_h, out_w), dtype=x.dtype)
    if bias is not None:
        y += bias.astype(x.dtype, copy=False)[None, :, None, None]
    return y


def conv2d_backward_window_ref(x, weight, grad_out, stride=1, padding=0, groups=1):
    """The earlier dense and grouped conv2d_backward: grad_w correlates the
    input windows with grad_out, grad_x is a full-padding correlation of the
    stride-dilated grad_out with the flipped, in/out-transposed weights.
    Returns (grad_x, grad_weight)."""
    n, c_in, h, w = x.shape
    c_out, cg, kh, kw = weight.shape
    mult = c_out // groups
    out_h, out_w = grad_out.shape[2:]
    win = _windows(x, kh, kw, stride, padding, padding)
    wing = win.reshape(n, groups, cg, out_h, out_w, kh, kw)
    gog = grad_out.reshape(n, groups, mult, out_h, out_w)
    grad_w = np.einsum("ngihwkl,ngohw->goikl", wing, gog, optimize=True)
    grad_w = np.ascontiguousarray(grad_w.reshape(weight.shape), dtype=weight.dtype)
    wt = weight.reshape(groups, mult, cg, kh, kw).transpose(0, 2, 1, 3, 4)[..., ::-1, ::-1]
    gd = np.zeros((n, c_out, (out_h - 1) * stride + 1, (out_w - 1) * stride + 1),
                  dtype=grad_out.dtype)
    gd[:, :, ::stride, ::stride] = grad_out
    ph, pw = h + 2 * padding, w + 2 * padding
    gwin = _windows(gd, kh, kw, 1, kh - 1, kw - 1)
    gwing = gwin.reshape(n, groups, mult, ph, pw, kh, kw)
    gxp = np.einsum("ngmhwkl,gcmkl->ngchw", gwing, wt, optimize=True)
    grad_x = gxp.reshape(n, c_in, ph, pw)[:, :, padding:padding + h, padding:padding + w]
    return np.ascontiguousarray(grad_x), grad_w


def max_pool2_ref(x):
    """The earlier max_pool2: argmax over a reshaped (..., 4) window axis."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), arg.astype(np.int8)


def channel_max_ref(x):
    """The earlier channel reduction of the spatial gate: argmax over the
    channel axis and the value it points at.  Returns (max_c, arg), both
    (N, 1, H, W)."""
    arg = x.argmax(axis=1)[:, None]
    return np.take_along_axis(x, arg, axis=1), arg


def sigmoid_ref(x):
    """The earlier sigmoid: one formula per sign, on boolean-mask gathers."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits_ref(logits, targets):
    """The earlier bce_with_logits: separate loss and sigmoid passes."""
    x = logits
    loss = np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    grad = (sigmoid_ref(x) - targets) / x.size
    return float(loss.mean()), grad.astype(x.dtype, copy=False)


def batch_loss_ref(model, x, y, config, train):
    """The earlier optim.batch_loss: upsample the whole batch's logits, then
    build the target and take the loss and its gradient in one pass each."""
    logits = model.forward(x, train=train)
    up = T.bilinear_resize(logits, y.shape[2], y.shape[3])
    # The loss dispatcher it called, inline: it checked that bce targets
    # were binary and refused other kinds.
    if config.loss == "bce_logits":
        target = (y >= config.threshold).astype(up.dtype)
        if not np.all((target == 0) | (target == 1)):
            raise ValidationError("bce_logits requires binary targets")
        value, g_up = T.bce_with_logits(up, target, grad=train)
    elif config.loss == "mse":
        value, g_up = T.mse(up, y.astype(up.dtype, copy=False))
    else:
        raise ConfigError(f"unknown loss kind {config.loss!r}")
    if not train:
        return value, None
    return value, T.bilinear_resize_backward(g_up, logits.shape[2], logits.shape[3])


def named_arrays_ref(block, attr, prefix=""):
    """The earlier Block.named_params (attr "p") and named_states (attr
    "s"): a block's own entries, then each child's, one recursion each."""
    for key, val in getattr(block, attr).items():
        yield (f"{prefix}.{key}" if prefix else key), val
    for name, child in block._children.items():
        yield from named_arrays_ref(child, attr, f"{prefix}.{name}" if prefix else name)


def batch_norm_forward_ref(bn, x, train=False):
    """The earlier BatchNorm.forward, on bn's parameters and running state,
    which it updates in train mode.  Returns (y, cache) with cache
    (xc, xhat, inv_std) in train mode and None in eval mode."""
    n, _, h, w = x.shape
    if train:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        mom = x.dtype.type(bn.momentum)
        bn.s["running_mean"] = (1 - mom) * bn.s["running_mean"] + mom * mean
        bn.s["running_var"] = (1 - mom) * bn.s["running_var"] + mom * var
    else:
        mean = bn.s["running_mean"]
        var = bn.s["running_var"]
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(bn.eps))
    xc = x - mean[None, :, None, None]
    xhat = xc * inv_std[None, :, None, None]
    y = bn.p["gamma"][None, :, None, None] * xhat + bn.p["beta"][None, :, None, None]
    return y.astype(x.dtype, copy=False), ((xc, xhat, inv_std) if train else None)


def batch_norm_backward_ref(bn, cache, grad_out):
    """The earlier BatchNorm.backward, through dvar and dmean.
    Returns (grad_x, grad_gamma, grad_beta)."""
    xc, xhat, inv_std = cache
    n, _, h, w = grad_out.shape
    m = n * h * w
    g_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    g_beta = grad_out.sum(axis=(0, 2, 3))
    dxhat = grad_out * bn.p["gamma"][None, :, None, None]
    dvar = (dxhat * xc).sum(axis=(0, 2, 3)) * -0.5 * inv_std ** 3
    dmean = (-dxhat.sum(axis=(0, 2, 3)) * inv_std
             + dvar * (-2.0 / m) * xc.sum(axis=(0, 2, 3)))
    dx = (dxhat * inv_std[None, :, None, None]
          + (2.0 / m) * dvar[None, :, None, None] * xc
          + dmean[None, :, None, None] / m)
    return dx.astype(grad_out.dtype, copy=False), g_gamma, g_beta


def double_conv_forward_ref(block, x, train=False):
    """The earlier DoubleConvDS.forward: out-of-place ReLUs after the
    reference batch norm, on block's convs, parameters and state."""
    z1, _ = batch_norm_forward_ref(block.bn1, block.dsc1.forward(x, train), train)
    a1 = np.maximum(z1, 0)
    z2, _ = batch_norm_forward_ref(block.bn2, block.dsc2.forward(a1, train), train)
    return np.maximum(z2, 0)


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


def richardson_fd(fn, arr, idx, eps=1e-5, max_eps=1e-3, resolve=1e5):
    """d fn() / d arr[idx] at float64 arr by Richardson extrapolation of
    central differences: (4 D(e/2) - D(e)) / 3 at e = eps, where D(h) is
    the central difference at step h.  That cancels D's h**2 truncation
    term, so the step can stay small enough to keep off ReLU and argmax
    kinks.

    fn() carries a rounding error of several ulps, which e = 1e-5 cannot
    outrun where fn barely moves: a gradient of 2e-6 on a loss of 39 moves
    it by 5000 ulps over 2e, so ten ulps of noise are 2e-3 of D(e).  While
    fn(+e) - fn(-e) spans fewer than `resolve` ulps, e therefore grows
    tenfold, up to max_eps.  Only such flat coordinates take the wider
    steps, which would cross kinks elsewhere.  arr[idx] is perturbed in
    place and restored."""
    orig = arr[idx]

    def ends(h):
        arr[idx] = orig + h
        plus = fn()
        arr[idx] = orig - h
        minus = fn()
        arr[idx] = orig
        return plus, minus
    e = eps
    while True:
        half_plus, half_minus = ends(e / 2)
        plus, minus = ends(e)
        est = (4.0 * (half_plus - half_minus) / e - (plus - minus) / (2.0 * e)) / 3.0
        if abs(plus - minus) >= resolve * np.spacing(max(abs(plus), abs(minus))) or e >= max_eps:
            return est
        e = min(10.0 * e, max_eps)


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


def spatial_attention_backward_ref(att, x, cache, grad_out):
    """The earlier SpatialAttention.backward, which cached its input x next
    to (f, arg, m).  Returns (grad_x, grad_weight, grad_bias)."""
    f, arg, m = cache
    c = x.shape[1]
    gm = (grad_out * x).sum(axis=1, keepdims=True)
    gx = grad_out * m
    dz = gm * m * (1.0 - m)
    gf, g_w, g_b = T.conv2d_backward(f, att.p["conv.weight"], dz, padding=3)
    gx += gf[:, 0:1] / c
    scat = np.zeros_like(x)
    np.put_along_axis(scat, arg, gf[:, 1:2], axis=1)
    gx += scat
    return gx, g_w, g_b


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


# The earlier verification path, kept verbatim as the counting reference.

def load_predictions_ref(pred_dir, records, manifest):
    rows = []
    for record in records:
        path = prediction_path(pred_dir, record)
        if not os.path.exists(path):
            raise DataError(f"missing prediction file {path}")
        p = D.read_tensor_file(path)
        want = (1, manifest.t_out, manifest.crop, manifest.crop)
        if p.shape != want:
            raise DataError(f"{path}: dims {p.shape} != {want}")
        rows.append(p)
    return np.concatenate(rows, axis=0)


def evaluate_ref(source, manifest, split, config=EvalConfig(), kind="probability", bands=None):
    """Score a model or a directory of prediction files against a split.

    source is either a model (anything with .forward) or the path of a
    directory holding <stem>.pred.w4cl files from predict_to_files.  kind
    says whether the model or the files forecast probabilities or rates;
    a model reads the inputs' bands (see D.load_sample_input).  Counts
    accumulate per (region, year) and per lead time; the pooled CSI comes
    from the pooled counts.
    """
    from_files = isinstance(source, (str, os.PathLike))
    by_job = {}
    by_lead = None
    n_samples = 0
    for x, y, records in D.batch_iter(manifest, split, config.batch_size,
                                      seed=0, shuffle=False, bands=bands):
        if from_files:
            pred = load_predictions_ref(source, records, manifest)
        else:
            pred = source.forward(x, train=False)
            if kind == "probability":
                pred = T.sigmoid(pred)
        if by_lead is None:
            by_lead = [ConfusionCounts() for _ in range(y.shape[1])]
        pred_event = _event_mask(pred, config, kind)
        true_event = binarize(y, config.threshold)
        if pred_event.shape != true_event.shape:
            raise ShapeError(f"prediction {pred_event.shape} vs target {true_event.shape}")
        for i, record in enumerate(records):
            job = (record.region, record.year)
            sample_counts = ConfusionCounts()
            for lead in range(y.shape[1]):
                c = count_events(pred_event[i, lead], true_event[i, lead])
                by_lead[lead] = by_lead[lead] + c
                sample_counts = sample_counts + c
            by_job[job] = by_job.get(job, ConfusionCounts()) + sample_counts
            n_samples += 1
    if n_samples == 0:
        raise DataError(f"split {split!r} has no samples to evaluate")
    pooled = sum(by_lead, ConfusionCounts())
    return EvalReport(split=split if isinstance(split, str) else "custom",
                      counts_by_job=by_job, counts_by_lead=by_lead,
                      pooled=pooled, config=config, n_samples=n_samples)


def constant_report_ref(manifest, split, config, value):
    """Evaluate an all-zeros or all-ones probability field without a model."""
    by_job = {}
    by_lead = None
    n_samples = 0
    pred_frame = None
    for _, y, records in D.batch_iter(manifest, split, config.batch_size,
                                      seed=0, shuffle=False):
        if by_lead is None:
            by_lead = [ConfusionCounts() for _ in range(y.shape[1])]
        if pred_frame is None or pred_frame.shape != y.shape[2:]:
            pred_frame = np.full(y.shape[2:], value >= config.prob_threshold)
        true_event = binarize(y, config.threshold)
        for i, record in enumerate(records):
            job = (record.region, record.year)
            sample_counts = ConfusionCounts()
            for lead in range(y.shape[1]):
                c = count_events(pred_frame, true_event[i, lead])
                by_lead[lead] = by_lead[lead] + c
                sample_counts = sample_counts + c
            by_job[job] = by_job.get(job, ConfusionCounts()) + sample_counts
            n_samples += 1
    if n_samples == 0:
        raise DataError(f"split {split!r} has no samples to evaluate")
    return EvalReport(split=split if isinstance(split, str) else "custom",
                      counts_by_job=by_job, counts_by_lead=by_lead,
                      pooled=sum(by_lead, ConfusionCounts()), config=config,
                      n_samples=n_samples)


def persistence_report_ref(manifest, split, config=EvalConfig()):
    """Score the repeat-the-last-observation forecast, or None if the split
    carries no latent rain fields to persist."""
    samples = manifest.split_samples(split) if isinstance(split, str) else list(split)
    if not samples or any(s.latent_path is None for s in samples):
        return None
    by_job = {}
    by_lead = None
    n_samples = 0
    for s in samples:
        latent = D.read_tensor_file(manifest.resolve(s.latent_path))
        y = D.load_sample_target(manifest, s)
        if by_lead is None:
            by_lead = [ConfusionCounts() for _ in range(y.shape[1])]
        pred_event = binarize(latent[0, 0], config.threshold)
        true_event = binarize(y[0], config.threshold)
        job = (s.region, s.year)
        sample_counts = ConfusionCounts()
        for lead in range(y.shape[1]):
            c = count_events(pred_event, true_event[lead])
            by_lead[lead] = by_lead[lead] + c
            sample_counts = sample_counts + c
        by_job[job] = by_job.get(job, ConfusionCounts()) + sample_counts
        n_samples += 1
    return EvalReport(split=split if isinstance(split, str) else "custom",
                      counts_by_job=by_job, counts_by_lead=by_lead,
                      pooled=sum(by_lead, ConfusionCounts()), config=config,
                      n_samples=n_samples)


def trivial_baselines_ref(manifest, split, config=EvalConfig()):
    """CSI of the no-skill references: all-zeros, all-ones, persistence.

    Persistence repeats the last observed rain field across every lead; when
    the data carries no such field the entry is None rather than an error.
    """
    zeros = constant_report_ref(manifest, split, config, 0.0)
    ones = constant_report_ref(manifest, split, config, 1.0)
    persist = persistence_report_ref(manifest, split, config)
    return {"all_zeros": zeros.pooled_csi, "all_ones": ones.pooled_csi,
            "persistence": None if persist is None else persist.pooled_csi}


def block_mean2_ref(field):
    """The earlier 2x2 block mean: a reshape and a mean over the block axes."""
    h, w = field.shape
    return field.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def rain_field_ref(extent, centers, sigmas, amps, shift):
    """The blob field on the whole extent x extent fine grid, as the
    generator rendered it before it rendered windows."""
    yy = np.arange(extent, dtype=np.float64)[:, None]
    xx = np.arange(extent, dtype=np.float64)[None, :]
    field = np.zeros((extent, extent), dtype=np.float64)
    for (cy, cx), s, a in zip(centers, sigmas, amps):
        field += a * np.exp(-(((yy - cy - shift[0]) ** 2) + ((xx - cx - shift[1]) ** 2))
                            / (2.0 * s * s))
    return field


def synth_sample_ref(cfg, index):
    """The earlier synthetic sample: every field rendered on the full fine
    grid, targets and latent cropped after, and each frame's noise drawn
    with Generator.normal and added to the band responses."""
    rng = np.random.default_rng([cfg.seed, index])
    extent = 4 * cfg.grid            # fine grid covering the full raw extent
    n_blobs = int(rng.integers(cfg.blob_count[0], cfg.blob_count[1] + 1))
    centers = rng.uniform(0.2 * extent, 0.8 * extent, size=(n_blobs, 2))
    sigmas = rng.uniform(*cfg.blob_scale, size=n_blobs)
    amps = rng.uniform(*cfg.blob_amp, size=n_blobs)
    if cfg.velocity is not None:
        vel = np.asarray(cfg.velocity, dtype=np.float64)
    else:
        vel = rng.uniform(-cfg.v_max, cfg.v_max, size=2)

    gains = np.array(D._BAND_GAIN[:len(cfg.bands)])
    offsets = np.array(D._BAND_OFFSET[:len(cfg.bands)])
    frames = []
    for t in range(-(cfg.t_in - 1), 1):
        fine = rain_field_ref(extent, centers, sigmas, amps, vel * t)
        coarse = block_mean2_ref(fine)
        noise = rng.normal(0.0, cfg.noise_sigma, size=(len(cfg.bands),) + coarse.shape)
        frames.append(gains[:, None, None] * coarse[None] + offsets[:, None, None] + noise)
    inputs = np.concatenate(frames, axis=0)[None].astype(np.float32)

    lo = extent // 4
    hi = lo + 2 * cfg.grid           # central target window on the fine grid
    targets = np.stack([
        np.maximum(rain_field_ref(extent, centers, sigmas, amps, vel * t)[lo:hi, lo:hi], 0.0)
        for t in range(1, cfg.t_out + 1)])[None].astype(np.float32)
    latent = np.maximum(rain_field_ref(extent, centers, sigmas, amps, (0.0, 0.0))[lo:hi, lo:hi],
                        0.0)[None, None].astype(np.float32)
    return inputs, targets, latent

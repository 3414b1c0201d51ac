"""The small attention U-Net: five encoder stages with CBAM-refined skip
connections, a bilinear-upsampling decoder, and a 1x1 logit head.

Spatial handling: inputs are reflect-padded up to the next multiple of 16
(four poolings halve four times), run through the graph, and cropped back,
so output spatial dims always equal input spatial dims.  An input already
at a multiple of 16 runs as it is: neither it nor the output gradient of
its backward is copied.  The head emits logits; sigmoid is applied
downstream at prediction and evaluation time.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import struct
import types

import numpy as np

from . import tensor as T
from .data import _atomic_write
from .errors import ConfigError, FormatError, ShapeError
from .layers import CBAM, Block, DoubleConvDS, _he_uniform
from .schema import Section

CHECKPOINT_MAGIC = b"SMCK"
CHECKPOINT_VERSION = 4

LOSSES = ("bce_logits", "mse")


@dataclasses.dataclass(frozen=True)
class ModelConfig(Section):
    """Architecture hyperparameters.

    The defaults take 36 channels in (4 frames x 9 bands) and give 16
    lead times out.  cbam_reduction must divide every width a CBAM
    attends: the first four stage widths and half the last.
    """

    in_channels: int = 36
    out_channels: int = 16
    stage_widths: tuple[int, ...] = (64, 128, 256, 512, 1024)
    depth_multiplier: int = 2
    cbam_reduction: int = 16

    section = "model"

    def __post_init__(self):
        super().__post_init__()
        widths = self.stage_widths
        if len(widths) != 5:
            raise ConfigError(f"exactly 5 stage widths required, got {len(widths)}")
        if any(w <= 0 for w in widths) or list(widths) != sorted(set(widths)):
            raise ConfigError(f"stage widths must be positive and strictly increasing: {widths}")
        if any(w % 2 for w in widths):
            raise ConfigError(f"stage widths must be even (decoder halves them): {widths}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("in_channels and out_channels must be positive")
        if self.depth_multiplier < 1:
            raise ConfigError("depth_multiplier must be >= 1")
        if self.cbam_reduction < 1:
            raise ConfigError("cbam_reduction must be >= 1")
        attended = [c_out for _, _, c_out in _channel_plan(self)[:5]]
        if any(c % self.cbam_reduction for c in attended):
            raise ConfigError(f"cbam_reduction {self.cbam_reduction} must divide every "
                              f"attended width {attended}")


@dataclasses.dataclass(frozen=True)
class BlobEntry(Section):
    """One array of a checkpoint's data section; offset counts from the end
    of the header."""
    name: str
    dims: tuple[int, ...]
    offset: int
    length: int

    section, error = "entry", FormatError


@dataclasses.dataclass(frozen=True)
class CheckpointHeader(Section):
    """A checkpoint's JSON header: model config, blob table, input bands and
    loss.  The entries are only typed here: load_checkpoint compares them
    with the blob table save_checkpoint writes for the config."""
    config: ModelConfig
    entries: tuple[BlobEntry, ...]
    bands: tuple[str, ...] | None = None
    loss: str | None = None

    section, what, error = "", "checkpoint header", FormatError

    def __post_init__(self):
        super().__post_init__()
        if self.loss not in (None, *LOSSES):
            raise FormatError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.bands is not None and (not self.bands or len(set(self.bands)) < len(self.bands)):
            raise FormatError(f"bands must name at least one band, none twice: {list(self.bands)}")


class Conv1x1(Block):
    """Pointwise conv with bias, used as the logit head.

    It caches nothing: backward(grad_out, x) takes the forward's input from
    its caller, which in the model rebuilds it as the last decoder stage's
    output (DoubleConvDS.output), so `train` changes nothing here.
    """

    def __init__(self, c_in, c_out, rng):
        super().__init__()
        self.p["weight"] = _he_uniform(rng, (c_out, c_in, 1, 1), c_in)
        self.p["bias"] = np.zeros(c_out, dtype=T.DTYPE)

    def forward(self, x, train=False):
        return T.conv2d(x, self.p["weight"], self.p["bias"])

    def backward(self, grad_out, x):
        """x is the input of the forward whose output grad_out is for."""
        gx, gw, gb = T.conv2d_backward(x, self.p["weight"], grad_out)
        self.g = {"weight": gw, "bias": gb}
        return gx


class SmaAtUNet(Block):
    """Encoder (5 double-conv stages, 4 poolings, CBAM on every stage
    output) plus decoder (bilinear x2, concat skip, double conv) and head,
    each stage built as the channel plan gives it.

    Pooling consumes the un-attended stage output; the CBAM-refined version
    feeds the skip connection, and the refined bottleneck feeds the decoder.

    The forward hands each array over at its last read: a stage output is
    dropped once it is pooled or upsampled, each skip and upsampled array
    once the decoder's concat has copied them, and the concat reaches its
    decoder stage with no other reference.  A train forward caches the
    input size, the network input and the four pooled encoder inputs,
    which no block keeps, and the four pooling argmaxes, whose sizes are
    those the decoder upsamples from; the skip widths come from the plan.
    The backward passes each block the input it reads, and rebuilds with
    the forward's expressions every stage output (DoubleConvDS.output) and
    decoder input (_decoder_input) that a block reads.  The encoder walk
    rebuilds each encoder stage output once, for its CBAM's backward and
    its own ReLU mask; the decoder walk has rebuilt it before, for the
    skip half of a decoder input, as keeping it would hold it through the
    decoder's backward.
    """

    def __init__(self, config, seed):
        super().__init__()
        self.config = config
        self.bands = self.loss = None   # input bands and loss, set by training
        rng = np.random.default_rng(seed)
        k, r = config.depth_multiplier, config.cbam_reduction
        self.enc, self.att, self.dec = [], [], []
        for i, (c_in, c_mid, c_out) in enumerate(_channel_plan(config)):
            block = DoubleConvDS(c_in, c_mid, c_out, k, rng)
            if i < 5:
                self.enc.append(self._child(f"enc{i + 1}", block))
                self.att.append(self._child(f"cbam{i + 1}", CBAM(c_out, r, rng)))
            else:
                self.dec.append(self._child(f"dec{i - 4}", block))
        self.head = self._child("head", Conv1x1(c_out, config.out_channels, rng))

    def forward(self, x, train=False):
        T.check_nchw(x, "input")
        n, c, h, w = x.shape
        if c != self.config.in_channels:
            raise ShapeError(f"model expects {self.config.in_channels} channels, got {c}")
        if h < 16 or w < 16:
            raise ShapeError(f"spatial dims must be >= 16, got {h}x{w}")
        cur = T.pad_reflect_to(x, _padded(h), _padded(w))

        inputs, skips, pools = [], [], []
        for i in range(5):
            if train:
                inputs.append(cur)
            cur = self.enc[i].forward(cur, train)
            skips.append(self.att[i].forward(cur, train))
            if i < 4:
                cur, arg = T.max_pool2(cur)
                pools.append(arg)
        cur = skips.pop()

        for i in range(4):
            size = skips[-1].shape[2:]
            cur = self.dec[i].forward(
                T.concat_channels(skips.pop(), T.bilinear_resize(cur, *size)), train)
        logits = self.head.forward(cur, train)
        self._cache = ((h, w), inputs, pools) if train else None
        return T.crop_back(logits, h, w)

    def backward(self, grad_out):
        (h, w), inputs, pools = self._need_cache()
        hp, wp = _padded(h), _padded(w)
        if grad_out.shape[2:] != (h, w):
            raise ShapeError(f"grad_out spatial {grad_out.shape[2:]} != forward output {(h, w)}")
        top, left = (hp - h) // 2, (wp - w) // 2
        # Each gradient and rebuilt stage output passes through a one-slot
        # list that its last reader pops, so no name here holds it while a
        # block reads it, and the block frees it at its last read.
        g = [grad_out if (hp, wp) == (h, w) else np.pad(
            grad_out, ((0, 0), (0, 0), (top, hp - h - top), (left, wp - w - left)))]
        del grad_out

        g.append(self.head.backward(g.pop(), self.dec[3].output()))
        plan = _channel_plan(self.config)
        skip_grads = []
        for i in reversed(range(4)):
            g_skip, g_up = T.split_channels(
                self.dec[i].backward(g.pop(), self._decoder_input(i), self.dec[i].output()),
                plan[3 - i][2])
            skip_grads.append(g_skip)
            g.append(T.bilinear_resize_backward(g_up, *pools[3 - i].shape[2:]))
            del g_skip, g_up  # skip_grads holds the first until the encoder's pop frees it

        # g now holds the bottleneck-feed gradient; walk the encoder back up,
        # merging each stage's skip-branch gradient with the pooled main path.
        # Each stage output is rebuilt once here, for its CBAM's backward and
        # its own ReLU mask.
        out = []
        for i in reversed(range(5)):
            out.append(self.enc[i].output())
            if i == 4:
                g.append(self.att[4].backward(g.pop(), out[0]))
            else:
                g.append(T.max_pool2_backward(g.pop(), pools[i]))
                g[0] += self.att[i].backward(skip_grads.pop(), out[0])
            # Nothing reads the gradient of the network input, so enc1 skips it.
            g.append(self.enc[i].backward(g.pop(), inputs.pop(), out.pop(), input_grad=i > 0))
        return dict(self.named_grads())

    def _decoder_input(self, i):
        """dec[i]'s input, rebuilt from the caches with the forward's
        expressions, so with its bytes: the CBAM-refined output of encoder
        stage 4-i concatenated with the upsampled output of the stage
        below, dec[i-1] or, for dec1, the refined bottleneck."""
        skip = self.att[3 - i].output(self.enc[3 - i].output())
        below = self.dec[i - 1].output() if i else self.att[4].output(self.enc[4].output())
        return T.concat_channels(skip, T.bilinear_resize(below, *skip.shape[2:]))

    def count_params(self):
        return sum(v.size for _, v in self.named_params())


def build_model(config, seed):
    """Deterministically initialize a SmaAtUNet from a seed."""
    return SmaAtUNet(config, seed)


def _padded(side):
    """The next multiple of 16 from side, which the four poolings halve."""
    return -(-side // 16) * 16


def _channel_plan(config):
    """(c_in, c_mid, c_out) of the nine stages, enc1..enc5 then dec1..dec4:
    the one place the layout is worked out.  The encoder stages keep their
    width in the middle; the bottleneck emits half the last stage width.
    Each decoder stage takes its skip concatenated with the stage below and
    halves that for its middle width.  Reads in_channels and stage_widths.
    """
    w = config.stage_widths
    enc = (w[0], w[1], w[2], w[3], w[4] // 2)
    plan = list(zip((config.in_channels,) + enc[:4], enc, enc))
    for skip, c_out in zip(enc[3::-1], (w[3] // 2, w[2] // 2, w[1] // 2, w[0])):
        c_in = skip + plan[-1][2]
        plan.append((c_in, c_in // 2, c_out))
    return plan


def architecture_size(config):
    """(trainable parameters, batch-norm running-statistic values) of the
    network a config describes, summed over its channel plan without
    building it, so any config, however large, costs no memory."""
    k = config.depth_multiplier
    plan = _channel_plan(config)

    def ds_conv(c_in, c_out):
        return 9 * k * c_in + k * c_in * c_out

    # Each batch norm holds gamma and beta, and as many running statistics.
    norm = sum(2 * (mid + c_out) for _, mid, c_out in plan)
    params = sum(ds_conv(c_in, mid) + ds_conv(mid, c_out) for c_in, mid, c_out in plan) + norm
    # CBAM: the channel MLP's two matrices and the 7x7 two-plane gate with bias.
    params += sum(2 * c * (c // config.cbam_reduction) + 2 * 7 * 7 + 1 for _, _, c in plan[:5])
    params += (plan[-1][2] + 1) * config.out_channels
    return params, norm


def _largest_demand(config):
    """The config field an architecture's size grows with whose smallest
    value would shrink it most, with the field's value."""
    r = config.cbam_reduction
    smallest = {"in_channels": 1, "out_channels": 1, "depth_multiplier": 1,
                "stage_widths": [2 * r, 4 * r, 6 * r, 8 * r, 10 * r]}

    def size_without(field):
        shrunk = types.SimpleNamespace(**{**config.to_dict(), field: smallest[field]})
        return sum(architecture_size(shrunk))
    field = min(smallest, key=size_without)
    return field, getattr(config, field)


def baseline_reference_param_count(config):
    """Trainable parameter count of the standard-convolution U-Net this
    model is measured against: the same stage widths, a bottleneck that
    emits the full last width, each stage's middle width equal to its
    output, plain 3x3 convs with bias plus batch norm, no attention, and a
    1x1 head.  Its layout is the channel plan of the config with the last
    width doubled, whose bottleneck emits stage_widths[4].  A count only;
    the reference network is never built or trained here.
    """
    def conv(c_in, c_out):
        return 9 * c_in * c_out + c_out

    w = config.stage_widths
    wide = dataclasses.replace(config, stage_widths=(*w[:4], 2 * w[4]))
    total = sum(conv(c_in, c_out) + conv(c_out, c_out) + 4 * c_out
                for c_in, _, c_out in _channel_plan(wide))
    return total + (w[0] + 1) * config.out_channels


def _blob_table(model):
    """The checkpoint blob table of a model as (BlobEntry, array) pairs:
    every parameter, then every batch-norm statistic, in model order, each
    stored as float32 right after the one before it."""
    table = []
    offset = 0
    for name, arr in list(model.named_params()) + list(model.named_states()):
        table.append((BlobEntry(name=name, dims=arr.shape, offset=offset, length=4 * arr.size),
                      arr))
        offset += 4 * arr.size
    return table


def save_checkpoint(model, path):
    """Serialize params, batch-norm state, config, bands and loss atomically.

    Layout: magic "SMCK", u16 version (4), u32 header length, JSON header
    {config, entries: [{name, dims, offset, length}], bands, loss}, then the raw
    float32 little-endian blobs.  The entries are the model's parameters,
    then its batch-norm statistics, in model order, and their blobs lie
    back to back from the end of the header, where offsets count from.
    """
    table = _blob_table(model)
    header = CheckpointHeader(config=model.config, entries=[entry for entry, _ in table],
                              bands=model.bands, loss=model.loss)
    header = json.dumps(header.to_dict(), separators=(",", ":")).encode("utf-8")
    blobs = [np.ascontiguousarray(arr, dtype="<f4").tobytes() for _, arr in table]
    payload = b"".join([CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION),
                        struct.pack("<I", len(header)), header] + blobs)
    _atomic_write(path, payload)


def _check_values(path, name, values, start):
    """Refuse an entry holding NaN or Inf, or a negative running variance.

    Each of them spreads through the convs after it into forecasts that
    are NaN throughout: a negative variance, for one, because the eval
    forward divides by sqrt(running_var + eps).  A running variance blends
    non-negative batch variances, so no saved model holds a negative one.
    start is the file offset of the entry's first value.
    """
    bad = ~np.isfinite(values)
    if name.endswith("running_var"):
        bad |= values < 0
    if bad.any():
        k = int(bad.argmax())
        kind = "a negative running variance" if np.isfinite(values[k]) else "a non-finite value"
        raise FormatError(f"{path}: entry {name!r} holds {kind}, {float(values[k])}, "
                          f"at byte {start + 4 * k}")


def load_checkpoint(path):
    """Read a checkpoint back into a freshly built model, bitwise.

    The blob table must be exactly the one save_checkpoint writes for the
    header's config, and the data section exactly as long as its blobs;
    otherwise the FormatError names the first entry that differs and the
    field that does.  Every value must be finite and every running
    variance non-negative; otherwise the FormatError names the entry and
    the byte offset of its first bad value.  Any version but 4 is refused
    at byte 4.  A model saved before training records no bands or loss:
    both load as None.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 10:
        raise FormatError(f"{path}: truncated at byte {len(raw)}, header needs 10 bytes")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    (header_len,) = struct.unpack_from("<I", raw, 6)
    data_start = 10 + header_len
    if data_start > len(raw):
        raise FormatError(f"{path}: header length {header_len} at byte 6 exceeds file size")
    try:
        doc = json.loads(raw[10:data_start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8, syntax, huge ints, deep nesting
        raise FormatError(f"{path}: unreadable JSON header at byte 10: {exc}") from exc
    try:
        header = CheckpointHeader.from_dict(doc)
        # The data section must hold every parameter and state the config
        # asks for; checking first keeps a corrupt config from allocating.
        need = 4 * sum(architecture_size(header.config))
    except ConfigError as exc:
        raise FormatError(f"{path}: invalid config in header at byte 10: {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: header at byte 10: {exc}") from exc
    if need > len(raw) - data_start:
        field, value = _largest_demand(header.config)
        raise FormatError(
            f"{path}: data section truncated at byte {len(raw)}: the header config needs "
            f"{need} bytes from byte {data_start}, most of them for config field "
            f"{field!r} = {value!r}")
    model = build_model(header.config, seed=0)
    model.bands, model.loss = header.bands, header.loss
    table = _blob_table(model)
    wanted = [entry for entry, _ in table]
    for i, (got, want) in enumerate(itertools.zip_longest(header.entries, wanted)):
        if got is None or want is None:
            raise FormatError(f"{path}: entries[{i}] {(got or want).name!r} is "
                              f"{'missing' if got is None else 'extra'}: the blob table of "
                              f"this config has {len(wanted)} entries")
        if got != want:
            have, should = got.to_dict(), want.to_dict()
            field = next(k for k in should if have[k] != should[k])
            raise FormatError(f"{path}: entries[{i}] {got.name!r} has {field} "
                              f"{have[field]!r}, expected {should[field]!r}")
    if len(raw) > data_start + need:
        raise FormatError(f"{path}: bytes {data_start + need} to {len(raw)} after entry "
                          f"{wanted[-1].name!r} belong to no entry")
    for entry, arr in table:
        start = data_start + entry.offset
        arr[...] = np.frombuffer(raw, dtype="<f4", count=arr.size, offset=start).reshape(arr.shape)
        _check_values(path, entry.name, arr.reshape(-1), start)
    return model

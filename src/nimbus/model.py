"""The small attention U-Net: five encoder stages with CBAM-refined skip
connections, a bilinear-upsampling decoder, and a 1x1 logit head.

Spatial handling: inputs are reflect-padded up to the next multiple of 16
(four poolings halve four times), run through the graph, and cropped back,
so output spatial dims always equal input spatial dims.  The head emits
logits; sigmoid is applied downstream at prediction and evaluation time.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import struct
import tempfile

import numpy as np

from . import tensor as T
from .errors import ConfigError, FormatError, ShapeError, StateError
from .layers import CBAM, Block, DoubleConvDS, _he_uniform

CHECKPOINT_MAGIC = b"SMCK"
CHECKPOINT_VERSION = 1

PRESETS = ("default", "single-frame")


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    The `single-frame` preset forces 11 input channels (one 11-band frame)
    and a single output frame; everything else keeps the defaults of
    36 in (4 frames x 9 bands) and 16 lead times out.
    """

    in_channels: int = 36
    out_channels: int = 16
    stage_widths: tuple = (64, 128, 256, 512, 1024)
    depth_multiplier: int = 2
    cbam_reduction: int = 16
    preset: str = "default"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}, expected one of {PRESETS}")
        if self.preset == "single-frame":
            object.__setattr__(self, "in_channels", 11)
            object.__setattr__(self, "out_channels", 1)
        for name in ("in_channels", "out_channels", "depth_multiplier", "cbam_reduction"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        widths = self.stage_widths
        if not isinstance(widths, (list, tuple)) or not all(_is_int(w) for w in widths):
            raise ConfigError(f"stage_widths must be a list of integers, got {widths!r}")
        widths = tuple(int(w) for w in widths)
        object.__setattr__(self, "stage_widths", widths)
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

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["stage_widths"] = list(d["stage_widths"])
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"model config must be an object, got {type(d).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


class Conv1x1(Block):
    """Pointwise conv with bias, used as the logit head."""

    def __init__(self, c_in, c_out, rng, dtype=T.DTYPE):
        super().__init__()
        self.p["weight"] = _he_uniform(rng, (c_out, c_in, 1, 1), c_in, dtype)
        self.p["bias"] = np.zeros(c_out, dtype=dtype)

    def forward(self, x, train=False):
        self._cache = x if train else None
        return T.conv2d(x, self.p["weight"], self.p["bias"])

    def backward(self, grad_out):
        x = self._need_cache()
        gx, gw, gb = T.conv2d_backward(x, self.p["weight"], grad_out)
        self.g = {"weight": gw, "bias": gb}
        return gx


class SmaAtUNet(Block):
    """Encoder (5 double-conv stages, 4 poolings, CBAM on every stage
    output) plus decoder (bilinear x2, concat skip, double conv) and head.

    Pooling consumes the un-attended stage output; the CBAM-refined version
    feeds the skip connection, and the refined bottleneck feeds the decoder.
    """

    def __init__(self, config, seed):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        w = config.stage_widths
        k = config.depth_multiplier
        r = config.cbam_reduction
        bottleneck = w[4] // 2
        enc_out = (w[0], w[1], w[2], w[3], bottleneck)
        enc_in = (config.in_channels, w[0], w[1], w[2], w[3])
        self.enc = []
        self.att = []
        for i in range(5):
            self.enc.append(self._child(f"enc{i + 1}", DoubleConvDS(enc_in[i], enc_out[i], k, rng)))
            self.att.append(self._child(f"cbam{i + 1}", CBAM(enc_out[i], r, rng)))
        dec_out = (w[3] // 2, w[2] // 2, w[1] // 2, w[0])
        self.dec = []
        carry = bottleneck
        for i in range(4):
            concat_c = enc_out[3 - i] + carry
            self.dec.append(self._child(
                f"dec{i + 1}",
                DoubleConvDS(concat_c, dec_out[i], k, rng, c_mid=concat_c // 2)))
            carry = dec_out[i]
        self.head = self._child("head", Conv1x1(dec_out[3], config.out_channels, rng))

    def forward(self, x, train=False):
        T.check_nchw(x, "input")
        n, c, h, w = x.shape
        if c != self.config.in_channels:
            raise ShapeError(f"model expects {self.config.in_channels} channels, got {c}")
        if h < 16 or w < 16:
            raise ShapeError(f"spatial dims must be >= 16, got {h}x{w}")
        hp = -(-h // 16) * 16
        wp = -(-w // 16) * 16
        cur = T.pad_reflect_to(x, hp, wp)

        skips = []
        pools = []
        for i in range(5):
            cur = self.enc[i].forward(cur, train)
            skips.append(self.att[i].forward(cur, train))
            if i < 4:
                cur, arg = T.max_pool2(cur)
                pools.append(arg)
        cur = skips[4]

        up_sizes = []
        splits = []
        for i in range(4):
            up_sizes.append(cur.shape[2:])
            skip = skips[3 - i]
            up = T.bilinear_resize(cur, skip.shape[2], skip.shape[3])
            splits.append(skip.shape[1])
            cur = self.dec[i].forward(T.concat_channels(skip, up), train)
        logits = self.head.forward(cur, train)
        out = T.crop_back(logits, h, w)
        self._cache = dict(orig=(h, w), padded=(hp, wp), pools=pools,
                           up_sizes=up_sizes, splits=splits) if train else None
        return out

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("backward called without a cached train-mode forward")
        cache = self._cache
        h, w = cache["orig"]
        hp, wp = cache["padded"]
        if grad_out.shape[2:] != (h, w):
            raise ShapeError(f"grad_out spatial {grad_out.shape[2:]} != forward output {(h, w)}")
        top, left = (hp - h) // 2, (wp - w) // 2
        g = np.zeros(grad_out.shape[:2] + (hp, wp), dtype=grad_out.dtype)
        g[:, :, top:top + h, left:left + w] = grad_out

        g = self.head.backward(g)
        skip_grads = [None] * 4
        for i in reversed(range(4)):
            g = self.dec[i].backward(g)
            g_skip, g_up = T.split_channels(g, cache["splits"][i])
            skip_grads[3 - i] = g_skip
            g = T.bilinear_resize_backward(g_up, *cache["up_sizes"][i])

        # g now holds the bottleneck-feed gradient; walk the encoder back up,
        # merging each stage's skip-branch gradient with the pooled main path.
        g = self.enc[4].backward(self.att[4].backward(g))
        for i in reversed(range(4)):
            g = T.max_pool2_backward(g, cache["pools"][i])
            g = g + self.att[i].backward(skip_grads[i])
            g = self.enc[i].backward(g)
        return dict(self.named_grads())

    def count_params(self):
        return sum(v.size for _, v in self.named_params())


def build_model(config, seed):
    """Deterministically initialize a SmaAtUNet from a seed."""
    return SmaAtUNet(config, seed)


def baseline_reference_param_count(config):
    """Trainable parameter count of the standard-convolution U-Net this
    model is measured against: same stage layout, plain 3x3 convs with bias
    plus batch norm, full-width bottleneck, no attention.  A counting walk
    only; the reference network is never built or trained here.
    """
    def conv(ci, co):
        return 9 * ci * co + co

    def double(ci, co, mid):
        return conv(ci, mid) + 2 * mid + conv(mid, co) + 2 * co

    w = config.stage_widths
    enc_in = (config.in_channels, w[0], w[1], w[2], w[3])
    enc_out = (w[0], w[1], w[2], w[3], w[4])
    total = sum(double(ci, co, co) for ci, co in zip(enc_in, enc_out))
    dec_out = (w[3] // 2, w[2] // 2, w[1] // 2, w[0])
    carry = w[4]
    for i in range(4):
        concat_c = enc_out[3 - i] + carry
        total += double(concat_c, dec_out[i], dec_out[i])
        carry = dec_out[i]
    total += dec_out[3] * config.out_channels + config.out_channels
    return total


def _atomic_write(path, payload):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(model, path):
    """Serialize params, batch-norm state, and config; write atomically.

    Layout: magic "SMCK", u16 version, u32 header length, JSON header
    {config, entries: [{name, dims, offset, length}]}, then the raw
    float32 little-endian blobs back to back.  Offsets are relative to the
    end of the header.
    """
    entries = []
    blobs = []
    offset = 0
    for name, arr in list(model.named_params()) + list(model.named_states()):
        blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "dims": list(arr.shape),
                        "offset": offset, "length": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"config": model.config.to_dict(), "entries": entries},
                        separators=(",", ":")).encode("utf-8")
    payload = b"".join([CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION),
                        struct.pack("<I", len(header)), header] + blobs)
    _atomic_write(path, payload)


def load_checkpoint(path):
    """Read a checkpoint back into a freshly built model, bitwise."""
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
        header = json.loads(raw[10:data_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable JSON header at byte 10: {exc}") from exc
    if not isinstance(header, dict) or "config" not in header or "entries" not in header:
        raise FormatError(f"{path}: header at byte 10 missing config/entries")
    try:
        config = ModelConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise FormatError(f"{path}: invalid config in header at byte 10: {exc}") from exc

    model = build_model(config, seed=0)
    param_names = {n for n, _ in model.named_params()}
    wanted = dict(list(model.named_params()) + list(model.named_states()))
    seen = set()
    entries = header["entries"]
    if not isinstance(entries, list):
        raise FormatError(f"{path}: header field 'entries' at byte 10 must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: header field 'entries[{i}]' at byte 10 must be an "
                              f"object, got {type(entry).__name__}")
        name = entry.get("name")
        if name not in wanted:
            raise FormatError(f"{path}: header entry {name!r} not part of this architecture")
        dims = entry.get("dims")
        if not isinstance(dims, list) or not all(_is_int(d) for d in dims):
            raise FormatError(f"{path}: entry {name!r} has malformed dims {dims!r}")
        dims = tuple(dims)
        offset, length = entry.get("offset"), entry.get("length")
        if not isinstance(offset, int) or not isinstance(length, int) or offset < 0:
            raise FormatError(f"{path}: entry {name!r} has a malformed offset/length")
        if dims != wanted[name].shape:
            raise FormatError(
                f"{path}: entry {name!r} dims {list(dims)} do not match the "
                f"architecture's {list(wanted[name].shape)}")
        want_len = int(np.prod(dims, dtype=np.int64)) * 4
        if length != want_len:
            raise FormatError(
                f"{path}: entry {name!r} declares {length} bytes for dims {list(dims)} "
                f"(expected {want_len}) at byte {data_start + offset}")
        lo = data_start + offset
        hi = lo + length
        if hi > len(raw):
            raise FormatError(f"{path}: entry {name!r} data truncated at byte {len(raw)}")
        arr = np.frombuffer(raw[lo:hi], dtype="<f4").reshape(dims).copy()
        if name in param_names:
            model.set_param(name, arr)
        else:
            model.set_state(name, arr)
        seen.add(name)
    missing = set(wanted) - seen
    if missing:
        raise FormatError(f"{path}: header omits {len(missing)} blocks, e.g. {sorted(missing)[0]!r}")
    return model

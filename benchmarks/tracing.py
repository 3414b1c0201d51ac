"""Span tracing for the desk benchmark, applied to nimbus from outside.

The tracer replaces the public functions and methods of the measured
modules with thin wrappers, each at the name its callers look it up by,
and puts every original back on uninstall.  nimbus itself carries no
timers.  A wrapper records one span per call while a recording phase is
open and passes straight through otherwise, so set-up bookkeeping and the
benchmark's own output checks never show up in the trace.

Spans stay in memory as [name, start, end, parent, op, phase, counters]
and are written out once, at the end of a run.  A span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import time

from nimbus import data as D
from nimbus import errors
from nimbus import layers as L
from nimbus import metrics as E
from nimbus import model as M
from nimbus import optim as O
from nimbus import tensor as T

_now = time.perf_counter
_MISSING = object()

CONV_KINDS = ("depthwise", "pointwise", "dense")
TENSOR_OPS = ("max_pool2", "max_pool2_backward", "bilinear_resize",
              "bilinear_resize_backward", "sigmoid", "relu", "relu_backward",
              "bce_with_logits")
LAYER_CLASSES = ("DepthwiseSeparableConv", "BatchNorm", "ChannelAttention",
                 "SpatialAttention", "DoubleConvDS")
MODEL_BLOCKS = (tuple(f"enc{i}" for i in range(1, 6)) + tuple(f"cbam{i}" for i in range(1, 6))
                + tuple(f"dec{i}" for i in range(1, 5)) + ("head",))
PASSES = ("forward", "backward")


def conv_kind(x, weight, groups):
    """Classify a conv call: one filter per input channel is depthwise, a
    1x1 kernel is pointwise, anything else (the 7x7 spatial gate) dense."""
    if groups == x.shape[1] and weight.shape[1] == 1 and groups > 1:
        return "depthwise"
    if weight.shape[2:] == (1, 1):
        return "pointwise"
    return "dense"


def _conv_cost(x, weight, out_shape, passes):
    """Computed multiply-adds and compulsory bytes of one conv call.

    Each output element costs (C_in/groups)*kh*kw multiply-adds per pass;
    the backward makes two passes (grad-input and grad-weight).  Bytes count
    every operand read or written once, so they are a floor on real traffic.
    """
    n_out = 1
    for d in out_shape:
        n_out *= d
    _, c_per_group, kh, kw = weight.shape
    madds = passes * n_out * c_per_group * kh * kw
    size = x.dtype.itemsize
    bytes_ = (passes * (x.size + weight.size) + n_out) * size
    return madds, bytes_


def _describe_conv2d(args, kwargs, result):
    x, weight = args[0], args[1]
    groups = kwargs.get("groups", 1)
    madds, bytes_ = _conv_cost(x, weight, result.shape, 1)
    return f"tensor.conv2d.{conv_kind(x, weight, groups)}", {"madds": madds, "bytes": bytes_}


def _describe_conv2d_backward(args, kwargs, result):
    x, weight, grad_out = args[0], args[1], args[2]
    groups = kwargs.get("groups", 1)
    madds, bytes_ = _conv_cost(x, weight, grad_out.shape, 2)
    return (f"tensor.conv2d_backward.{conv_kind(x, weight, groups)}",
            {"madds": madds, "bytes": bytes_})


def _describe_read(args, kwargs, result):
    return "data.read_tensor_file", {"bytes": result.nbytes}


def _describe_write(args, kwargs, result):
    return "data.write_tensor_file", {"bytes": 4 * args[1].size}


class Tracer:
    """Installs span-recording wrappers on nimbus and collects the spans."""

    def __init__(self):
        self.spans = []
        self.phase = None       # "setup" or "op" while recording
        self.op = None          # id shared by the spans of one operation
        self._stack = []
        self._undo = []
        self._watched = {}      # id -> model, held so that no id is reused

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, phase, op=None, models=()):
        """Record spans for the duration of the block, with the top-level
        blocks of each given model instance wrapped as well."""
        for model in models:
            self.watch_model(model)
        self.phase, self.op = phase, op
        try:
            yield self
        finally:
            self.phase = None

    def _call(self, fn, name, describe, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = [name, _now(), None, parent, self.op, self.phase, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except errors.PoisonedGradientError:
            span[6] = {"refused": 1}
            raise
        finally:
            span[2] = _now()
            self._stack.pop()
        if describe is not None:
            span[0], span[6] = describe(args, kwargs, result)
        return result

    def _wrap(self, fn, name, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            return self._call(fn, name, describe, args, kwargs)
        return traced

    def _wrap_iter(self, fn, name):
        """Wrap a generator function so that each next() is one span: the
        time a consumer waits for the next batch."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    if self.phase is None:
                        item = next(it)
                    else:
                        item = self._call(next, name, None, (it,), {})
                except StopIteration:
                    return
                yield item
        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _patch_all(self, owner, attrs, prefix):
        for attr in attrs:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), f"{prefix}.{attr}"))

    def install(self):
        """Wrap every measured name; call uninstall() to restore them."""
        self._patch(T, "conv2d", self._wrap(T.conv2d, "tensor.conv2d", _describe_conv2d))
        self._patch(T, "conv2d_backward", self._wrap(T.conv2d_backward, "tensor.conv2d_backward",
                                                     _describe_conv2d_backward))
        self._patch_all(T, TENSOR_OPS, "tensor")
        for cls_name in LAYER_CLASSES:
            self._patch_all(getattr(L, cls_name), PASSES, f"layers.{cls_name}")
        self._patch_all(M.SmaAtUNet, PASSES, "model.SmaAtUNet")
        self._patch_all(M, ("load_checkpoint",), "model")
        save = self._wrap(M.save_checkpoint, "model.save_checkpoint")
        self._patch(M, "save_checkpoint", save)
        self._patch(O, "save_checkpoint", save)   # optim holds its own reference
        self._patch_all(O.AdamW, ("step",), "optim.AdamW")
        self._patch_all(O, ("eval_loss", "batch_loss"), "optim")
        self._patch(D, "batch_iter", self._wrap_iter(D.batch_iter, "data.batch_iter"))
        self._patch(D, "read_tensor_file",
                    self._wrap(D.read_tensor_file, "data.read_tensor_file", _describe_read))
        self._patch(D, "write_tensor_file",
                    self._wrap(D.write_tensor_file, "data.write_tensor_file", _describe_write))
        self._patch_all(D, ("load_sample_input", "synth_generate"), "data")
        self._patch_all(E, ("evaluate", "trivial_baselines", "predict_to_files",
                            "count_events"), "metrics")

    def watch_model(self, model):
        """Wrap the top-level child blocks (enc1..head) of one model instance."""
        if id(model) in self._watched:
            return
        self._watched[id(model)] = model
        for name, child in model._children.items():
            for attr in PASSES:
                self._patch(child, attr, self._wrap(getattr(child, attr), f"model.{name}.{attr}"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._watched.clear()

    # -- output ----------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, phase, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "phase": phase,
                                     "counters": counters}) + "\n")

    def totals(self, phase):
        """Per span name: summed duration, self time, call count, counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = collections.defaultdict(collections.Counter)
        for i, (name, start, end, _, _, span_phase, counters) in enumerate(self.spans):
            if span_phase != phase:
                continue
            agg = out[name]
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
            agg["calls"] += 1
            agg.update(counters or {})
        return out


def layer_metrics(op_totals, setup_totals, n_ops, n_setups):
    """Per-layer metrics as {name: (value, unit)}.

    Timed-phase figures are per operation of the workload; the set-up
    figures (synth and checkpoint I/O) are per set-up.  Names whose layer
    did not run read 0.
    """
    def per_op(span, field):
        return op_totals.get(span, {}).get(field, 0) / n_ops

    def per_setup(span, field):
        return setup_totals.get(span, {}).get(field, 0) / n_setups

    out = {}
    for fn in ("conv2d", "conv2d_backward"):
        for kind in CONV_KINDS:
            span = f"tensor.{fn}.{kind}"
            self_s, madds, bytes_ = (per_op(span, f) for f in ("self_s", "madds", "bytes"))
            out[f"{span}.self_s"] = (self_s, "s")
            out[f"{span}.calls"] = (per_op(span, "calls"), "count")
            out[f"{span}.madds"] = (madds, "madd")
            out[f"{span}.bytes"] = (bytes_, "B")
            out[f"{span}.madd_per_byte"] = (madds / bytes_ if bytes_ else 0.0, "madd/B")
            out[f"{span}.gmadd_per_s"] = (madds / self_s / 1e9 if self_s else 0.0, "Gmadd/s")
    for op in TENSOR_OPS:
        out[f"tensor.{op}.self_s"] = (per_op(f"tensor.{op}", "self_s"), "s")
    for cls_name in LAYER_CLASSES:
        for p in PASSES:
            out[f"layers.{cls_name}.{p}.self_s"] = (per_op(f"layers.{cls_name}.{p}", "self_s"), "s")
    for block in MODEL_BLOCKS:
        for p in PASSES:
            out[f"model.{block}.{p}.s"] = (per_op(f"model.{block}.{p}", "s"), "s")
    for p in PASSES:
        out[f"model.SmaAtUNet.{p}.self_s"] = (per_op(f"model.SmaAtUNet.{p}", "self_s"), "s")
    for fn in ("save_checkpoint", "load_checkpoint"):
        out[f"model.{fn}.s"] = (per_setup(f"model.{fn}", "s"), "s")
    out["optim.AdamW.step.s"] = (per_op("optim.AdamW.step", "s"), "s")
    out["optim.AdamW.step.calls"] = (per_op("optim.AdamW.step", "calls"), "count")
    out["optim.AdamW.step.refused"] = (per_op("optim.AdamW.step", "refused"), "count")
    out["optim.eval_loss.s"] = (per_op("optim.eval_loss", "s"), "s")
    out["optim.batch_loss.self_s"] = (per_op("optim.batch_loss", "self_s"), "s")
    out["data.batch_iter.wait_s"] = (per_op("data.batch_iter", "s"), "s")
    for fn in ("read_tensor_file", "write_tensor_file"):
        out[f"data.{fn}.s"] = (per_op(f"data.{fn}", "s"), "s")
        out[f"data.{fn}.calls"] = (per_op(f"data.{fn}", "calls"), "count")
        out[f"data.{fn}.bytes"] = (per_op(f"data.{fn}", "bytes"), "B")
    out["data.load_sample_input.self_s"] = (per_op("data.load_sample_input", "self_s"), "s")
    out["data.load_sample_input.calls"] = (per_op("data.load_sample_input", "calls"), "count")
    out["data.synth_generate.s"] = (per_setup("data.synth_generate", "s"), "s")
    for fn in ("evaluate", "trivial_baselines", "predict_to_files"):
        out[f"metrics.{fn}.self_s"] = (per_op(f"metrics.{fn}", "self_s"), "s")
    out["metrics.count_events.s"] = (per_op("metrics.count_events", "s"), "s")
    out["metrics.count_events.calls"] = (per_op("metrics.count_events", "calls"), "count")
    return out

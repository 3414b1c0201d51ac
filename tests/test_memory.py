"""The memory contract of a training step: each activation is held once,
and each is freed once nothing reads it.

tracemalloc sees every NumPy data buffer, so these tests count the bytes a
step holds, at toy sizes.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from _oracles import spatial_attention_backward_ref
from nimbus import data as D
from nimbus import layers as L
from nimbus import tensor as T
from nimbus.model import ModelConfig, _channel_plan, build_model
from nimbus.optim import TrainConfig, batch_loss

TOY = ModelConfig(in_channels=4, out_channels=2, stage_widths=(8, 16, 32, 64, 128),
                  depth_multiplier=1, cbam_reduction=4)
DESK = ModelConfig(in_channels=36, out_channels=16, stage_widths=(16, 32, 64, 128, 256),
                   depth_multiplier=2, cbam_reduction=8)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)


def test_no_padding_returns_the_input_itself(rng):
    x = rng.standard_normal((2, 3, 16, 32)).astype(np.float32)
    assert T.pad_reflect_to(x, 16, 32) is x
    assert T.pad_reflect_to(x, 18, 32) is not x


def test_unpadded_model_holds_the_callers_batch_and_output_gradient(rng, monkeypatch):
    """At a multiple of 16 the model caches the caller's batch as the first
    block's input, not a padded copy, and the head's backward takes the
    caller's gradient."""
    model = build_model(TOY, seed=0)
    x = rng.standard_normal((2, 4, 16, 32)).astype(np.float32)
    y = model.forward(x, train=True)
    assert model._cache[1][0] is x
    seen = []
    head_backward = model.head.backward
    monkeypatch.setattr(model.head, "backward",
                        lambda g, x: seen.append(g) or head_backward(g, x))
    grad_out = np.ones_like(y)
    model.backward(grad_out)
    assert seen[0] is grad_out


def test_separable_convs_cache_no_depthwise_output(rng):
    """A separable conv caches nothing, not even its input, which its
    caller passes to the backward; the backward recomputes the depthwise
    output one sample at a time, so no array of the depthwise width
    outlives the train forward."""
    model = build_model(dataclasses.replace(TOY, depth_multiplier=2), seed=0)
    model.forward(rng.standard_normal((2, 4, 32, 32)).astype(np.float32), train=True)
    convs = [b for _, b in model._walk() if isinstance(b, L.DepthwiseSeparableConv)]
    assert len(convs) == 18
    for conv in convs:
        width = conv.p["depthwise.weight"].shape[0]
        assert width == 2 * conv.c_in
        assert conv._cache is None


def test_a_train_forward_caches_block_inputs_and_batch_norms_only(rng):
    """After a train forward the model holds each encoder stage's input,
    each batch norm its (xhat, inv_std), and no other block an array of
    its input's size; no double conv holds an array, and each rebuilds its
    output with the bytes its forward returned."""
    model = build_model(TOY, seed=0)
    seen = {}
    for _, block in model._walk():
        def record(x, *args, _block=block, _forward=block.forward, **kwargs):
            seen[id(_block)] = (x, _forward(x, *args, **kwargs))
            return seen[id(_block)][1]
        block.forward = record
    model.forward(rng.standard_normal((2, 4, 32, 32)).astype(np.float32), train=True)
    _, inputs, pools = model._cache
    assert [a is seen[id(enc)][0] for a, enc in zip(inputs, model.enc)] == [True] * 5
    for name, block in model._walk():
        block_in, block_out = seen[id(block)]
        if block is model:
            assert all(a.size < block_in.size for a in pools)
        elif isinstance(block, L.DoubleConvDS):
            assert not list(_arrays(block._cache)), name
            assert block.output().tobytes() == block_out.tobytes(), name
        elif isinstance(block, L.BatchNorm):
            xhat, inv_std = block._cache
            assert xhat.shape == block_in.shape and inv_std.shape == (block.channels,), name
        else:
            assert all(a.size < block_in.size for a in _arrays(block._cache)), name


@pytest.mark.parametrize("side,padded", [(32, 32), (40, 48)])
def test_the_model_caches_its_input_size_encoder_inputs_and_four_argmaxes(rng, side, padded):
    """The model-level train cache is the input size, the five encoder
    stages' inputs (the padded network input and the four pooled stage
    outputs) and the four int8 pooling argmaxes; the backward works out the
    padded size, the upsample sizes and the skip widths from them and the
    channel plan, and rebuilds each decoder input."""
    model = build_model(TOY, seed=0)
    model.forward(rng.standard_normal((2, 4, side, side)).astype(np.float32), train=True)
    size, inputs, pools = model._cache
    assert size == (side, side)
    assert [a.shape for a in inputs] == [(2, c, padded >> i, padded >> i)
                                         for i, c in enumerate((4, 8, 16, 32, 64))]
    assert all(a.dtype == np.float32 for a in inputs)
    assert [p.shape for p in pools] == [(2, c, padded >> i, padded >> i)
                                        for i, c in enumerate((8, 16, 32, 64), 1)]
    assert all(p.dtype == np.int8 for p in pools)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("side", [32, 40])
def test_rebuilt_decoder_inputs_are_the_forward_concats(rng, dtype, side):
    """Each decoder input the backward rebuilds, from the encoder stages'
    batch norms and gates and the stage below, holds the bytes of the
    concat the forward handed that stage, unpadded and padded."""
    model = build_model(TOY, seed=0).to_dtype(dtype)
    concats = []
    for dec in model.dec:
        def record(x, train=False, _forward=dec.forward):
            concats.append(x.copy())
            return _forward(x, train)
        dec.forward = record
    model.forward(rng.standard_normal((2, 4, side, side)).astype(dtype), train=True)
    for i, want in enumerate(concats):
        got = model._decoder_input(i)
        assert got.dtype == want.dtype and got.shape == want.shape, i
        assert got.tobytes() == want.tobytes(), i


def test_desk_step_peaks_under_170_mb_with_its_batch(rng):
    """One training step of the desk configuration, batch 32 of 64x64
    inputs and 128x128 targets, run as optim.train_epoch runs it, peaks at
    no more than 170 MB of NumPy memory as tracemalloc counts it, its 52 MB
    batch included, and its forward leaves no more than 80 MB cached."""
    model = build_model(DESK, seed=0)
    x = rng.standard_normal((32, 36, 64, 64)).astype(np.float32)
    y = rng.uniform(0.0, 1.0, (32, 16, 128, 128)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, *g_logits = batch_loss(model, x, y, TrainConfig(), train=True)
        live = tracemalloc.get_traced_memory()[0]
        model.backward(g_logits.pop())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert live - base <= 80_000_000, live - base
    assert peak - base + x.nbytes + y.nbytes <= 170_000_000, peak - base


def test_desk_batch_16_train_forward_peaks_under_50_mb(rng):
    """A train forward of the desk configuration at batch 16, the one the
    bench set-up runs to calibrate its batch norms, peaks at no more than
    50 MB of NumPy memory over its batch."""
    model = build_model(DESK, seed=0)
    x = rng.standard_normal((16, 36, 64, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.forward(x, train=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 50_000_000, peak - base


def test_suspended_batch_iter_holds_only_the_batch(tmp_path):
    cfg = D.SynthConfig(n_train=6, n_val=2, n_test=2, grid=16, noise_sigma=0.02, seed=5)
    manifest = D.load_manifest(D.synth_generate(cfg, str(tmp_path)))
    tracemalloc.start()
    try:
        batches = D.batch_iter(manifest, "train", 6, seed=0, shuffle=False)
        before = tracemalloc.get_traced_memory()[0]
        x, y, _ = next(batches)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= x.nbytes + y.nbytes + 16384


def test_cbam_spatial_gate_keeps_no_copy_of_its_input(rng):
    """The spatial gate caches nothing of its input's shape; CBAM rebuilds
    that input for the backward, whose bytes stay those of the gate that
    cached it."""
    seed = int(rng.integers(1 << 30))
    block = L.CBAM(8, 2, np.random.default_rng(seed))
    ref = L.CBAM(8, 2, np.random.default_rng(seed))
    x = rng.standard_normal((3, 8, 12, 10)).astype(np.float32)
    probe = rng.standard_normal(x.shape).astype(np.float32)

    y = block.forward(x, train=True)
    assert all(a.shape != x.shape for a in _arrays(block.spatial._cache))
    got = block.backward(probe, x)

    gated = ref.channel.forward(x)      # the spatial gate's input, as the eval forward gives it
    want_y = ref.forward(x, train=True)
    g_spatial, g_w, g_b = spatial_attention_backward_ref(ref.spatial, gated,
                                                         ref.spatial._need_cache(), probe)
    want = ref.channel.backward(g_spatial, x)
    assert y.tobytes() == want_y.tobytes()
    assert got.tobytes() == want.tobytes()
    assert block.spatial.g["conv.weight"].tobytes() == g_w.tobytes()
    assert block.spatial.g["conv.bias"].tobytes() == g_b.tobytes()
    for name, g in block.channel.g.items():
        assert g.tobytes() == ref.channel.g[name].tobytes(), name


def test_train_step_peak_is_the_cache_plus_a_few_activations(rng):
    """A step's traced peak exceeds the cache the forward leaves by at most
    a few of its largest activation, the last decoder stage's input.  The
    forward, which hands each array over at its last read, stays within one
    and a quarter: its excess is that input, between the concat that makes
    it and the stage's first conv.  The backward, run as
    optim.train_epoch runs it, rebuilds each decoder input, which the cache
    no longer holds, and frees each rebuilt array and each gradient at its
    last read; at the last decoder stage's first separable conv it holds
    that input, its gradient and the half-width gradient the conv reads,
    two and a half, and it stays within 2.6 of them and under 14.6 MB over
    the step's start (measured 14.4).  The whole step stays under 15 MB.
    At batch 32 the conv kernels' per-sample scratch is small next to one
    batch activation."""
    model = build_model(TOY, seed=0)
    x = rng.standard_normal((32, 4, 32, 32)).astype(np.float32)
    y = rng.uniform(0.0, 1.0, (32, 2, 64, 64)).astype(np.float32)
    largest = x.shape[0] * _channel_plan(TOY)[-1][0] * 32 * 32 * x.itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, *g_logits = batch_loss(model, x, y, TrainConfig(), train=True)
        live, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        model.backward(g_logits.pop())
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = (live - base, forward_peak - live, backward_peak - live, largest)
    assert forward_peak - live <= 1.25 * largest, sizes
    assert backward_peak - live <= 2.6 * largest, sizes
    assert backward_peak - base <= 14_600_000, sizes
    assert max(forward_peak, backward_peak) - base <= 15_000_000, sizes

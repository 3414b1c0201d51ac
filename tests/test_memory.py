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
from nimbus.model import ModelConfig, build_model
from nimbus.optim import TrainConfig, batch_loss

TOY = ModelConfig(in_channels=4, out_channels=2, stage_widths=(8, 16, 32, 64, 128),
                  depth_multiplier=1, cbam_reduction=4)


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
    """At a multiple of 16 the first block caches the caller's batch, not a
    padded copy, and the head's backward takes the caller's gradient."""
    model = build_model(TOY, seed=0)
    x = rng.standard_normal((2, 4, 16, 32)).astype(np.float32)
    y = model.forward(x, train=True)
    assert model.enc[0].dsc1._cache is x
    seen = []
    head_backward = model.head.backward
    monkeypatch.setattr(model.head, "backward", lambda g: seen.append(g) or head_backward(g))
    grad_out = np.ones_like(y)
    model.backward(grad_out)
    assert seen[0] is grad_out


def test_separable_convs_cache_no_depthwise_output(rng):
    """Each separable conv caches its input alone: the backward recomputes
    the depthwise output one sample at a time, so no array of the
    depthwise width outlives the train forward."""
    model = build_model(dataclasses.replace(TOY, depth_multiplier=2), seed=0)
    model.forward(rng.standard_normal((2, 4, 32, 32)).astype(np.float32), train=True)
    convs = [b for _, b in model._walk() if isinstance(b, L.DepthwiseSeparableConv)]
    assert len(convs) == 18
    for conv in convs:
        width = conv.p["depthwise.weight"].shape[0]
        assert width == 2 * conv.c_in
        assert [a.shape[1] for a in _arrays(conv._cache)] == [conv.c_in]


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
    got = block.backward(probe)

    gated = ref.channel.forward(x)      # the spatial gate's input, as the eval forward gives it
    want_y = ref.forward(x, train=True)
    g_spatial, g_w, g_b = spatial_attention_backward_ref(ref.spatial, gated,
                                                         ref.spatial._need_cache(), probe)
    want = ref.channel.backward(g_spatial)
    assert y.tobytes() == want_y.tobytes()
    assert got.tobytes() == want.tobytes()
    assert block.spatial.g["conv.weight"].tobytes() == g_w.tobytes()
    assert block.spatial.g["conv.bias"].tobytes() == g_b.tobytes()
    for name, g in block.channel.g.items():
        assert g.tobytes() == ref.channel.g[name].tobytes(), name


def test_train_step_peak_is_the_cache_plus_two_activations(rng):
    """A step's traced peak exceeds the cache the forward leaves by at most
    two of its largest activation, a layer's output and its scratch.  The
    backward, which frees each activation at its last read, stays within
    one and a half.  At batch 32 the conv kernels' per-sample scratch is
    small next to one batch activation."""
    model = build_model(TOY, seed=0)
    x = rng.standard_normal((32, 4, 32, 32)).astype(np.float32)
    y = rng.uniform(0.0, 1.0, (32, 2, 64, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, g_logits = batch_loss(model, x, y, TrainConfig(), train=True)
        live, forward_peak = tracemalloc.get_traced_memory()
        largest = max(a.nbytes for _, b in model._walk() for a in _arrays(b._cache))
        tracemalloc.reset_peak()
        model.backward(g_logits)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = (live - base, forward_peak - live, backward_peak - live, largest)
    assert forward_peak - live <= 2 * largest, sizes
    assert backward_peak - live <= 1.5 * largest, sizes

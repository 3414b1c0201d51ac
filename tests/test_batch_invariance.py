"""Property test: an eval-mode forward gives each sample the same bytes
whatever batch it runs in, so splitting one input set into batches at
random and concatenating the outputs changes nothing."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nimbus.model import ModelConfig, build_model  # noqa: E402

N_INPUTS = 8


@pytest.fixture(scope="module")
def model_and_inputs():
    """A small model whose batch-norm statistics come from one train-mode
    forward, and the input set that every split cuts up."""
    cfg = ModelConfig(in_channels=4, out_channels=2, stage_widths=(8, 16, 32, 64, 128),
                      depth_multiplier=2, cbam_reduction=4)
    model = build_model(cfg, seed=21)
    x = np.random.default_rng(22).standard_normal((N_INPUTS, 4, 32, 32)).astype(np.float32)
    model.forward(x, train=True)
    return model, x, model.forward(x, train=False)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(order=st.permutations(range(N_INPUTS)),
       cuts=st.sets(st.integers(1, N_INPUTS - 1), max_size=N_INPUTS - 1))
def test_random_batch_splits_give_identical_rows(model_and_inputs, order, cuts):
    model, x, whole = model_and_inputs
    bounds = [0, *sorted(cuts), N_INPUTS]
    for lo, hi in zip(bounds, bounds[1:]):
        rows = order[lo:hi]
        got = model.forward(x[rows], train=False)
        assert got.tobytes() == whole[rows].tobytes(), (rows, bounds)

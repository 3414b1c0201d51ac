"""Property test: the per-plane event count that verification runs equals
NumPy's count along the two spatial axes, for any batch, lead count and
plane shape, and for masks that are broadcast or not contiguous."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from nimbus import metrics as M  # noqa: E402

LAYOUTS = ("contiguous", "latent & truth", "broadcast view", "strided", "transposed")


def _mask(rng, layout, shape, density):
    batch, leads, h, w = shape
    if layout == "latent & truth":
        # The persistence mask: one latent frame against every lead.
        return (rng.random((batch, 1, h, w)) < density) & (rng.random(shape) < density)
    if layout == "broadcast view":
        return np.broadcast_to(rng.random((batch, 1, h, w)) < density, shape)
    if layout == "strided":
        return (rng.random((batch, leads, 2 * h, 2 * w)) < density)[:, :, ::2, 1::2]
    if layout == "transposed":
        return (rng.random((batch, leads, w, h)) < density).transpose(0, 1, 3, 2)
    return rng.random(shape) < density


@settings(derandomize=True, max_examples=80, deadline=None)
@given(batch=st.integers(1, 8), leads=st.integers(1, 16), h=st.integers(1, 20),
       w=st.integers(1, 20), density=st.sampled_from([0.0, 0.03, 0.5, 1.0]),
       layout=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**16))
@example(batch=3, leads=5, h=7, w=9, density=0.5, layout="latent & truth", seed=1)
@example(batch=8, leads=16, h=7, w=9, density=0.5, layout="strided", seed=2)
def test_events_equal_the_count_along_both_axes(batch, leads, h, w, density, layout, seed):
    mask = _mask(np.random.default_rng(seed), layout, (batch, leads, h, w), density)
    assert mask.shape == (batch, leads, h, w)
    got = M._events(mask)
    assert got.shape == (batch, leads) and got.dtype == np.intp
    np.testing.assert_array_equal(got, np.count_nonzero(mask, axis=(2, 3)))

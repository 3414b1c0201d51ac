"""Property test: a manifest mutated at random either loads, with its first
sample, or fails with a NimbusError subclass, never a bare builtin."""

import copy
import json
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from _corrupt import mutate_document  # noqa: E402
from nimbus import data as D  # noqa: E402
from nimbus.errors import NimbusError  # noqa: E402

# Values of every JSON type, and numbers at the edges of what the fields take.
VALUES = st.sampled_from([None, True, "abc", "", 0, -3, 2.5, 1e300, float("nan"), float("inf"),
                          [], {}, [1, 2], {"a": 1}])

MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 1 << 20)),
    st.tuples(st.just("swap"), st.integers(0, 1 << 20), VALUES),
    st.tuples(st.just("shrink"), st.sampled_from(["t_in", "t_out", "h_raw", "w_raw", "crop"]),
              st.integers(1, 40)),
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fuzz"))
    cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=3)
    path = D.synth_generate(cfg, out)
    with open(path, encoding="utf-8") as fh:
        return out, json.load(fh)


def _mutate(doc, mutation):
    """Apply one mutation; see mutate_document for drop and swap."""
    if mutation[0] == "shrink":
        _, key, by = mutation
        geom = doc.get("geometry") if isinstance(doc, dict) else None
        if isinstance(geom, dict) and isinstance(geom.get(key), int):
            geom[key] -= by
        return doc
    return mutate_document(doc, mutation)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_manifest_fails_only_with_nimbus_errors(dataset, mutations):
    root, base = dataset
    doc = copy.deepcopy(base)
    for mutation in mutations:
        doc = _mutate(doc, mutation)
    path = os.path.join(root, "mutated.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    try:
        manifest = D.load_manifest(path)
        if manifest.samples:
            D.load_sample_input(manifest, manifest.samples[0])
            D.load_sample_target(manifest, manifest.samples[0])
    except NimbusError:
        pass

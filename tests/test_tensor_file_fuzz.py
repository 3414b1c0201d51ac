"""Property tests: a tensor file with bytes overwritten, cut off or appended
either reads, with dims that account for every byte and every value
finite, or fails with a FormatError naming a byte offset, never a bare
builtin; and `nimbus evaluate --predictions` over such a prediction file
exits 0 or 2, with one error line when it fails: 0 exactly when the file
reads with the right dims and every value is a probability in [0, 1]."""

import os
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from _corrupt import mutate_bytes  # noqa: E402
from nimbus import data as D  # noqa: E402
from nimbus import metrics as M  # noqa: E402
from nimbus.cli import main  # noqa: E402
from nimbus.errors import FormatError  # noqa: E402

# Positions wrap over the file's length, so small ones land in the 8-byte
# fixed header and the dims that follow it more often than not.
MUTATION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 40), st.integers(0, 255)),
    st.tuples(st.just("set"), st.integers(0, 1 << 20), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=9)),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=3)


def _read_or_error(path):
    """The array read from path, or the FormatError's message."""
    try:
        return D.read_tensor_file(path)
    except FormatError as exc:
        assert re.search(r"at byte \d+", str(exc)), str(exc)
        return str(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_tensor_file_reads_or_names_a_byte(tmp_path_factory, mutations):
    path = str(tmp_path_factory.getbasetemp() / "mutated.w4cl")
    x = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
    D.write_tensor_file(path, x)
    with open(path, "rb") as fh:
        raw = mutate_bytes(fh.read(), mutations)
    with open(path, "wb") as fh:
        fh.write(raw)
    got = _read_or_error(path)
    if isinstance(got, np.ndarray):
        assert 8 + 4 * got.ndim + got.nbytes == len(raw)
        assert got.flags.writeable and got.dtype == np.dtype("<f4")
        assert np.isfinite(got).all()


@pytest.fixture(scope="module")
def scored_set(tmp_path_factory):
    """A synthetic set and a directory of valid all-zero prediction files."""
    root = tmp_path_factory.mktemp("predfuzz")
    data_dir = str(root / "data")
    assert main(["synth", "--out", data_dir, "--n", "2", "--n-val", "1",
                 "--n-test", "2", "--grid", "16", "--seed", "6"]) == 0
    manifest_path = os.path.join(data_dir, "manifest.json")
    manifest = D.load_manifest(manifest_path)
    pred_dir = str(root / "preds")
    os.makedirs(pred_dir)
    zeros = np.zeros((1, manifest.t_out, manifest.crop, manifest.crop), np.float32)
    for record in manifest.split_samples("test"):
        D.write_tensor_file(M.prediction_path(pred_dir, record), zeros)
    path = M.prediction_path(pred_dir, manifest.split_samples("test")[0])
    with open(path, "rb") as fh:
        valid = fh.read()
    return root, manifest, manifest_path, path, valid


@settings(derandomize=True, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=MUTATIONS)
def test_mutated_prediction_file_exits_two_with_one_line(scored_set, capsys, mutations):
    root, manifest, manifest_path, path, valid = scored_set
    raw = mutate_bytes(valid, mutations)
    with open(path, "wb") as fh:
        fh.write(raw)
    try:
        got = _read_or_error(path)
        want = (1, manifest.t_out, manifest.crop, manifest.crop)
        # Scoring refuses a probability that is not finite or lies outside [0, 1].
        ok = (isinstance(got, np.ndarray) and got.shape == want
              and bool(np.all((got >= 0) & (got <= 1))))
        capsys.readouterr()
        rc = main(["evaluate", "--predictions", os.path.dirname(path),
                   "--manifest", manifest_path, "--out", str(root / "report")])
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith(("INFO ", "DEBUG "))]
        if ok:
            assert rc == 0 and not err
        else:
            assert rc == 2
            assert len(err) == 1 and err[0].startswith("nimbus: error: ")
            assert os.path.basename(path) in err[0]
    finally:
        with open(path, "wb") as fh:
            fh.write(valid)

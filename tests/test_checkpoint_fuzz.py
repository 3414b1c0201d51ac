"""Property tests: a checkpoint with bytes overwritten, cut off or appended,
with a header field dropped or swapped for a value of another type or
size, or with blob-table entries permuted, offsets swapped, or an entry
dropped or repeated, either loads or fails with a NimbusError subclass,
never a bare builtin; a header-mutated one that loads holds exactly the
blob table and data that saving the loaded model writes; and `nimbus
predict` over such a checkpoint exits 0, or 1 or 2 with one error line.
The checkpoint is version 4, the only one that loads, and its header
records bands and a loss."""

import copy
import json
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from _corrupt import mutate_bytes, mutate_document  # noqa: E402
from nimbus import data as D  # noqa: E402
from nimbus.cli import main  # noqa: E402
from nimbus.errors import NimbusError  # noqa: E402
from nimbus.model import ModelConfig, build_model, load_checkpoint, save_checkpoint  # noqa: E402

# 8 input channels: 4 frames of the 2 bands the dataset below keeps.
MODEL = ModelConfig(in_channels=8, out_channels=16, stage_widths=(4, 8, 16, 32, 64),
                    depth_multiplier=1, cbam_reduction=4)

# Values of every JSON type, and numbers at the edges of what the fields take.
VALUES = st.sampled_from([None, True, False, "abc", "", 0, -3, 2.5, 1e300, 2 ** 40, -2 ** 40,
                          [], {}, [1, 2], {"a": 1}])

# Byte positions wrap over the file's length, so small ones land in the
# 10-byte fixed header and the JSON header after it.
BYTE_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 400), st.integers(0, 255)),
    st.tuples(st.just("set"), st.integers(0, 1 << 20), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=9)),
)
# Blob-table edits that keep every entry well-typed, so that only the
# table's agreement with the writer's can refuse them; entry indices wrap.
TABLE_MUTATION = st.one_of(
    st.tuples(st.sampled_from(["permute", "swap-offsets"]), st.integers(0, 1 << 20),
              st.integers(0, 1 << 20)),
    st.tuples(st.sampled_from(["drop-entry", "repeat-entry"]), st.integers(0, 1 << 20)),
)
HEADER_MUTATION = st.one_of(
    TABLE_MUTATION,
    st.tuples(st.just("drop"), st.integers(0, 1 << 20)),
    st.tuples(st.just("swap"), st.integers(0, 1 << 20), VALUES),
    # Config fields, bands and loss are few among the entries' paths, so aim at them too.
    st.tuples(st.just("config"), st.sampled_from(sorted(MODEL.to_dict())), VALUES),
    st.tuples(st.just("reads"), st.sampled_from(["bands", "loss"]),
              st.one_of(VALUES, st.sampled_from([["VIS006", "VIS006"], ["IR016", 3], "mse"]))),
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A valid checkpoint's bytes and a one-scene dataset it can predict."""
    root = tmp_path_factory.mktemp("ckfuzz")
    path = root / "model.smck"
    model = build_model(MODEL, seed=3)
    model.bands, model.loss = ("VIS006", "IR016"), "mse"
    save_checkpoint(model, path)
    cfg = D.SynthConfig(n_train=1, n_val=1, n_test=1, grid=16, bands=("VIS006", "IR016"),
                        seed=3)
    manifest = D.synth_generate(cfg, str(root / "data"))
    return root, path.read_bytes(), manifest


def _mutate_header(raw, mutations):
    """Rewrite the JSON header with the mutations applied, keeping the
    blobs after it."""
    (header_len,) = struct.unpack_from("<I", raw, 6)
    header = json.loads(raw[10:10 + header_len])
    for mutation in mutations:
        if mutation[0] == "config":
            if isinstance(header, dict) and isinstance(header.get("config"), dict):
                header["config"][mutation[1]] = copy.deepcopy(mutation[2])
        elif mutation[0] == "reads":
            if isinstance(header, dict):
                header[mutation[1]] = copy.deepcopy(mutation[2])
        elif mutation[0] in ("permute", "swap-offsets", "drop-entry", "repeat-entry"):
            _mutate_table(header, mutation)
        else:
            header = mutate_document(header, mutation)
    body = json.dumps(header).encode("utf-8")
    return raw[:6] + struct.pack("<I", len(body)) + body + raw[10 + header_len:]


def _mutate_table(header, mutation):
    """Apply a TABLE_MUTATION to the header's entries in place, if an
    earlier mutation left them a list of objects."""
    entries = header.get("entries") if isinstance(header, dict) else None
    if not isinstance(entries, list) or not entries or \
            not all(isinstance(e, dict) for e in entries):
        return
    kind, i = mutation[0], mutation[1] % len(entries)
    if kind == "drop-entry":
        del entries[i]
    elif kind == "repeat-entry":
        entries.insert(i, copy.deepcopy(entries[i]))
    elif kind == "permute":
        j = mutation[2] % len(entries)
        entries[i], entries[j] = entries[j], entries[i]
    else:   # swap the offsets of entry i and of another entry with its dims
        same = [e for e in entries if e.get("dims") == entries[i].get("dims")]
        other = same[mutation[2] % len(same)]
        entries[i]["offset"], other["offset"] = other.get("offset"), entries[i].get("offset")


def _loads_or_fails_cleanly(path):
    try:
        return load_checkpoint(path)
    except NimbusError:
        return None


def _table_and_data(raw):
    """The blob table of a checkpoint's header and the bytes after it."""
    (header_len,) = struct.unpack_from("<I", raw, 6)
    return json.loads(raw[10:10 + header_len])["entries"], raw[10 + header_len:]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutations=st.lists(BYTE_MUTATION, min_size=1, max_size=3))
def test_byte_mutated_checkpoint_fails_only_with_nimbus_errors(workspace, mutations):
    root, raw, _ = workspace
    path = root / "bytes.smck"
    path.write_bytes(mutate_bytes(raw, mutations))
    _loads_or_fails_cleanly(path)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutations=st.lists(HEADER_MUTATION, min_size=1, max_size=3))
def test_header_mutated_checkpoint_fails_only_with_nimbus_errors(workspace, mutations):
    root, raw, _ = workspace
    path = root / "header.smck"
    path.write_bytes(_mutate_header(raw, mutations))
    model = _loads_or_fails_cleanly(path)
    if model is not None:
        save_checkpoint(model, root / "resaved.smck")
        assert (_table_and_data(path.read_bytes()) ==
                _table_and_data((root / "resaved.smck").read_bytes()))


@settings(derandomize=True, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.one_of(st.lists(HEADER_MUTATION, min_size=1, max_size=2).map(
    lambda m: ("header", m)), st.lists(BYTE_MUTATION, min_size=1, max_size=2).map(
    lambda m: ("bytes", m))))
def test_predict_over_a_mutated_checkpoint_exits_cleanly(workspace, capsys, mutations):
    root, raw, manifest = workspace
    kind, edits = mutations
    path = root / "cli.smck"
    path.write_bytes(_mutate_header(raw, edits) if kind == "header" else
                     mutate_bytes(raw, edits))
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(path), "--manifest", manifest,
               "--out", str(root / "pred")])
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith(("INFO ", "DEBUG "))]
    if rc == 0:
        assert err == []
    else:
        assert rc in (1, 2)
        assert len(err) == 1 and err[0].startswith("nimbus: error: "), err

"""Helpers that rewrite valid files into malformed ones, or poison a training
run, for error-path tests."""

import json
import struct

import numpy as np

from nimbus import data as D
from nimbus import optim as O


def rewrite_checkpoint_header(path, edit, append=b""):
    """Apply edit(header_dict) to a .smck file's JSON header in place,
    keeping the magic, version and blob bytes and adding append after them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    (header_len,) = struct.unpack_from("<I", raw, 6)
    header = json.loads(raw[10:10 + header_len].decode("utf-8"))
    edit(header)
    body = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(raw[:6] + struct.pack("<I", len(body)) + body + raw[10 + header_len:] + append)


def rewrite_tensor(path, dims):
    """Replace a tensor file in place with a well-formed one of other dims."""
    D.write_tensor_file(path, np.ones(dims, np.float32))


def poison_epoch(monkeypatch, epoch):
    """Make every input of the given epoch's train batches NaN, so that the
    first step of that epoch meets a non-finite gradient."""
    real = O.train_epoch
    calls = []

    def train_epoch(model, batches, config, opt):
        calls.append(None)
        if len(calls) == epoch:
            batches = [(np.full_like(b[0], np.nan),) + tuple(b[1:]) for b in batches]
        return real(model, batches, config, opt)
    monkeypatch.setattr(O, "train_epoch", train_epoch)


def rewrite_manifest(path, edit):
    """Apply edit(doc) to a manifest.json in place."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _setting(*path, value):
    """An edit for a JSON document that sets doc[path[0]]...[path[-1]]."""
    def edit(doc):
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return edit


# Malformed manifests as (test id, edit for rewrite_manifest, text the error
# must contain).  Each once escaped load_manifest as a builtin exception or
# was accepted silently.  VIS006 is the first band a synthesized set has.
BAD_MANIFESTS = [
    ("stats-list", _setting("stats", value=[1.0, 2.0]), "stats"),
    ("stats-entry-number", _setting("stats", "VIS006", value=5), "stats for band"),
    ("samples-number", _setting("samples", value=5), "samples"),
    ("sample-string", _setting("samples", 0, value="s00000"), "sample 0"),
    ("year-text", _setting("samples", 0, "year", value="abc"), "year"),
    ("t_out-fraction", _setting("geometry", "t_out", value=2.5), "t_out"),
    ("t_in-zero", _setting("geometry", "t_in", value=0), "t_in"),
    ("crop-negative", _setting("geometry", "crop", value=-4), "crop"),
    ("crop-past-h_raw", _setting("geometry", "crop", value=1000), "crop"),
    ("w_raw-differs", _setting("geometry", "w_raw", value=7), "w_raw"),
]


# Malformed latent rain fields as (test id, dims for a crop of c, the dims the
# loader wants being (1, 1, 2c, 2c)).  Each once broke the persistence
# baseline: a 1-D field escaped as IndexError, a field on another grid raised
# ShapeError (a usage exit, not a data one), and a second frame was accepted
# with only the first one used.
BAD_LATENT_DIMS = [
    ("one-dim", lambda c: (4 * c * c,)),
    ("other-grid", lambda c: (1, 1, 8, 8)),
    ("two-frames", lambda c: (2, 1, 2 * c, 2 * c)),
]


def _shift_offsets(first, by):
    """A header edit that moves the data of entries[first:] by `by` bytes."""
    def edit(header):
        for entry in header["entries"][first:]:
            entry["offset"] += by
    return edit


# Malformed checkpoints as (test id, header edit, bytes appended after the
# blobs, text the error must contain).  Each once loaded silently or, for
# the list name, escaped as a bare TypeError.  A JSON false passed the old
# isinstance(offset, int) check, as 0, which the first entry's offset is.
BAD_CHECKPOINTS = [
    ("appended-bytes", lambda header: None, bytes(700), "belong to no entry"),
    ("gap-before-last", _shift_offsets(-1, 4), bytes(4), "belong to no entry"),
    ("gap-before-first", _shift_offsets(0, 4), bytes(4), "belong to no entry"),
    ("name-not-string", _setting("entries", 0, "name", value=["x"]), b"", "entries[0].name"),
    ("offset-false", _setting("entries", 0, "offset", value=False), b"", "entries[0].offset"),
]


# Run configs with a mistyped field as (test id, config document, the field
# the error must name).  The first three escaped RunConfig.from_dict as bare
# TypeErrors and the last two were accepted silently.
BAD_CONFIGS = [
    ("lr-text", {"train": {"lr": "abc"}}, "train.lr"),
    ("threshold-null", {"eval": {"threshold": None}}, "eval.threshold"),
    ("drop_bands-number", {"data": {"drop_bands": 5}}, "data.drop_bands"),
    ("batch_size-fraction", {"eval": {"batch_size": 2.5}}, "eval.batch_size"),
    ("max_epochs-bool", {"train": {"max_epochs": True}}, "train.max_epochs"),
]

"""Helpers that rewrite valid files into malformed ones, or poison a training
run, for error-path tests."""

import copy
import dataclasses
import json
import os
import struct

import numpy as np

from nimbus import data as D
from nimbus import metrics as M
from nimbus import optim as O


def rewrite_checkpoint(path, edit):
    """Apply edit(header_dict, data) to a .smck file in place, data being a
    bytearray of everything after the JSON header; the magic and version
    bytes stay."""
    with open(path, "rb") as fh:
        raw = fh.read()
    (header_len,) = struct.unpack_from("<I", raw, 6)
    header = json.loads(raw[10:10 + header_len].decode("utf-8"))
    data = bytearray(raw[10 + header_len:])
    edit(header, data)
    body = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(raw[:6] + struct.pack("<I", len(body)) + body + data)


def rewrite_checkpoint_header(path, edit):
    """Apply edit(header_dict) to a .smck file's JSON header in place,
    keeping the magic, version and blob bytes."""
    rewrite_checkpoint(path, _in_header(edit))


def _in_header(edit, append=b""):
    """A rewrite_checkpoint edit that applies edit(header) and appends bytes."""
    def both(header, data):
        edit(header)
        data += append
    return both


def rewrite_tensor(path, dims):
    """Replace a tensor file in place with a well-formed one of other dims."""
    D.write_tensor_file(path, np.ones(dims, np.float32))


def poison_tensor(path, index, value):
    """Set the float32 at a multi-index of a tensor file in place, every
    other byte unchanged; returns that value's byte offset."""
    with open(path, "r+b") as fh:
        ndim = fh.read(8)[6]
        dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        offset = 8 + 4 * ndim + 4 * int(np.ravel_multi_index(index, dims))
        fh.seek(offset)
        fh.write(struct.pack("<f", value))
    return offset


def poison_file_of(manifest, record, kind, value, pred_dir):
    """Set the middle value of record's file of a kind (see
    NON_FINITE_FILES) in place; returns (its path, the value's byte
    offset).  The middle of an input lies inside its crop window.  For the
    kind "prediction", pred_dir first gets an all-zero prediction file for
    every test record."""
    if kind == "prediction":
        zeros = np.zeros((1, manifest.t_out, manifest.crop, manifest.crop), np.float32)
        for r in manifest.split_samples("test"):
            D.write_tensor_file(M.prediction_path(pred_dir, r), zeros)
        path = M.prediction_path(pred_dir, record)
    else:
        path = manifest.resolve(getattr(record, f"{kind}_path"))
    middle = tuple(d // 2 for d in D.read_tensor_file(path).shape)
    return path, poison_tensor(path, middle, value)


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


def reorder_bands(manifest, out_dir):
    """A copy of manifest that lists its bands in reverse, with every input
    file's channels reversed within each frame to match."""
    n = len(manifest.band_names)
    for record in manifest.samples:
        for rel in (record.input, record.target, record.latent):
            os.makedirs(os.path.dirname(os.path.join(out_dir, rel)), exist_ok=True)
            x = D.read_tensor_file(manifest.resolve(rel))
            if rel == record.input:
                x = x.reshape(1, -1, n, *x.shape[2:])[:, :, ::-1].reshape(x.shape)
            D.write_tensor_file(os.path.join(out_dir, rel), x)
    flipped = dataclasses.replace(manifest, band_names=manifest.band_names[::-1], root=out_dir)
    D.save_manifest(flipped, os.path.join(out_dir, "manifest.json"))
    return D.load_manifest(os.path.join(out_dir, "manifest.json"))


def mutate_bytes(raw, mutations):
    """Apply ("set", i, byte), ("truncate", i) and ("append", bytes)
    mutations in turn; positions wrap over the current length."""
    raw = bytearray(raw)
    for mutation in mutations:
        if mutation[0] == "set" and raw:
            raw[mutation[1] % len(raw)] = mutation[2]
        elif mutation[0] == "truncate":
            del raw[mutation[1] % (len(raw) + 1):]
        elif mutation[0] == "append":
            raw += mutation[1]
    return bytes(raw)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _paths(val, prefix + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _paths(val, prefix + (i,))


def mutate_document(doc, mutation):
    """Apply ("drop", i) or ("swap", i, value) to a JSON document and return
    it; i picks a path, wrapping over the paths doc has now, and swapping
    the empty path replaces the whole document."""
    paths = list(_paths(doc))
    if mutation[0] == "drop":
        paths = paths[1:]
        if not paths:
            return doc
    path = paths[mutation[1] % len(paths)]
    if not path:
        return copy.deepcopy(mutation[2])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if mutation[0] == "drop":
        del parent[path[-1]]
    else:
        # A copy, so that a value drawn twice never nests inside itself.
        parent[path[-1]] = copy.deepcopy(mutation[2])
    return doc


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
# was accepted silently: a NaN or negative filter_threshold turned rain
# filtering off, and an infinite one emptied the training pools.  VIS006 is
# the first band a synthesized set has.
BAD_MANIFESTS = [
    ("stats-list", _setting("stats", value=[1.0, 2.0]), "stats"),
    ("stats-entry-number", _setting("stats", "VIS006", value=5), "stats.VIS006"),
    ("samples-number", _setting("samples", value=5), "samples"),
    ("sample-string", _setting("samples", 0, value="s00000"), "samples[0]"),
    ("year-text", _setting("samples", 0, "year", value="abc"), "year"),
    ("t_out-fraction", _setting("geometry", "t_out", value=2.5), "t_out"),
    ("t_in-zero", _setting("geometry", "t_in", value=0), "t_in"),
    ("crop-negative", _setting("geometry", "crop", value=-4), "crop"),
    ("crop-past-h_raw", _setting("geometry", "crop", value=1000), "crop"),
    ("w_raw-differs", _setting("geometry", "w_raw", value=7), "w_raw"),
    ("t_in-digits", _setting("geometry", "t_in", value="4"), "t_in"),
    ("crop-padded-digits", _setting("geometry", "crop", value=" 16 "), "crop"),
    ("year-digits", _setting("samples", 0, "year", value="2019"), "year"),
    ("band-repeated", _setting("band_names", 1, value="VIS006"), "band_names repeats 'VIS006'"),
    ("threshold-nan", _setting("filter_threshold", value=float("nan")), "filter_threshold"),
    ("threshold-inf", _setting("filter_threshold", value=float("inf")), "filter_threshold"),
    ("threshold-negative", _setting("filter_threshold", value=-1.0), "filter_threshold"),
    ("sample-unknown-key", _setting("samples", 0, "input_path", value="x"),
     "unknown samples[0] keys: ['input_path']"),
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


# Tensor files holding a value no tensor file may hold, as (test id, file
# kind, value).  Each once read silently: a NaN input pixel made predict
# write that scene's forecast all NaN and moved the pooled CSI, a NaN target
# or latent pixel counted as no event, and a NaN train target summed to NaN
# and dropped its sample from training.
NON_FINITE_FILES = [(f"{kind}-{name}", kind, value)
                    for kind in ("input", "target", "latent", "prediction")
                    for name, value in (("nan", float("nan")), ("inf", float("inf")),
                                        ("minus-inf", float("-inf")))]


# Tensor files whose dims multiply past 64 bits, as (test id, file bytes,
# the error text after the path).  The product once wrapped: (65536,)*4
# gave 0 bytes, which the empty payload matched, and reshape escaped as a
# bare ValueError; (2**32-1,)*2 named a negative size.
BAD_TENSOR_FILES = [
    ("dims-product-wraps-to-zero", b"W4CL\x01\x01\x04\x00" + struct.pack("<4I", *[65536] * 4),
     "payload of 0 bytes at byte 24 does not match dims [65536, 65536, 65536, 65536] "
     "(73786976294838206464 bytes)"),
    ("dims-product-wraps-negative",
     b"W4CL\x01\x01\x02\x00" + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + bytes(4),
     "payload of 4 bytes at byte 16 does not match dims [4294967295, 4294967295] "
     "(73786976260478468100 bytes)"),
]


def _shift_offsets(first, by):
    """A header edit that moves the data of entries[first:] by `by` bytes."""
    def edit(header):
        for entry in header["entries"][first:]:
            entry["offset"] += by
    return edit


def poison_value(suffix, index, value):
    """A rewrite_checkpoint edit that sets value `index` of the first entry
    whose name ends with `suffix` to the float32 `value`."""
    def edit(header, data):
        entry = next(e for e in header["entries"] if e["name"].endswith(suffix))
        struct.pack_into("<f", data, entry["offset"] + 4 * index, value)
    return edit


def _swap_offsets(a, b):
    """A header edit that swaps the offsets of the entries named a and b."""
    def edit(header):
        first, second = (next(e for e in header["entries"] if e["name"] == n) for n in (a, b))
        first["offset"], second["offset"] = second["offset"], first["offset"]
    return edit


def _swap_entries(i, j):
    """A header edit that swaps entries i and j, each keeping its offset, so
    the table still tiles the data section."""
    def edit(header):
        entries = header["entries"]
        entries[i], entries[j] = entries[j], entries[i]
    return edit


# Checkpoints with a malformed blob table as (test id, rewrite_checkpoint
# edit, text the error must contain).  Each once loaded silently or, for the
# list name, escaped as a bare TypeError.  A JSON false passed the old
# isinstance(offset, int) check, as 0, which the first entry's offset is.
# An unknown key in an entry was ignored.  A repeated name once loaded, the
# later entry winning.  The two swaps loaded too, though they are not the
# table save_checkpoint writes: swapped running statistics, all of one
# shape, read the mean as the variance, and a variance of zeros passed the
# non-negative check.
BAD_BLOB_TABLES = [
    ("appended-bytes", _in_header(lambda header: None, bytes(700)), "belong to no entry"),
    ("gap-before-last", _in_header(_shift_offsets(-1, 4), bytes(4)),
     "'dec4.bn2.running_var' has offset"),
    ("gap-before-first", _in_header(_shift_offsets(0, 4), bytes(4)),
     "entries[0] 'enc1.dsc1.depthwise.weight' has offset 4, expected 0"),
    ("name-not-string", _in_header(_setting("entries", 0, "name", value=["x"])),
     "entries[0].name"),
    ("offset-false", _in_header(_setting("entries", 0, "offset", value=False)),
     "entries[0].offset"),
    ("offset-negative", _in_header(_setting("entries", 0, "offset", value=-4)),
     "entries[0] 'enc1.dsc1.depthwise.weight' has offset -4, expected 0"),
    ("entry-unknown-key", _in_header(_setting("entries", 1, "dtype", value="<f4")),
     "unknown entries[1] keys: ['dtype']"),
    ("entry-not-object", _in_header(lambda header: header["entries"].insert(1, 7)),
     "entries[1] must be an object"),
    ("entry-unknown-name", _in_header(_setting("entries", 0, "name",
                                               value="enc1.dsc1.pointwise.bias")),
     "entries[0] 'enc1.dsc1.pointwise.bias' has name 'enc1.dsc1.pointwise.bias', "
     "expected 'enc1.dsc1.depthwise.weight'"),
    ("entry-dropped", _in_header(lambda header: header["entries"].pop()),
     "'dec4.bn2.running_var' is missing: the blob table of this config has"),
    ("entry-repeated", _in_header(lambda header: header["entries"].append(
        dict(header["entries"][0]))), "'enc1.dsc1.depthwise.weight' is extra"),
    ("entries-overlap", _in_header(_setting("entries", 1, "offset", value=4)),
     "entries[1] 'enc1.dsc1.pointwise.weight' has offset 4, expected"),
    ("swap-same-shape-offsets", _in_header(_swap_offsets("enc1.bn1.running_mean",
                                                         "enc1.bn1.running_var")),
     "'enc1.bn1.running_mean' has offset"),
    ("entries-permuted", _in_header(_swap_entries(0, 1)),
     "entries[0] 'enc1.dsc1.pointwise.weight' has name 'enc1.dsc1.pointwise.weight', "
     "expected 'enc1.dsc1.depthwise.weight'"),
]


# Checkpoints holding a value that makes every forecast NaN, in the same
# form; the error text goes on with the byte offset of the bad value.  Each
# once loaded, and predict wrote forecasts that were NaN throughout.
POISONED_VALUES = [
    ("nan-weight", poison_value("pointwise.weight", 3, float("nan")),
     "entry 'enc1.dsc1.pointwise.weight' holds a non-finite value, nan, at byte"),
    ("inf-gamma", poison_value("gamma", 1, float("inf")),
     "entry 'enc1.bn1.gamma' holds a non-finite value, inf, at byte"),
    ("negative-running-var", poison_value("running_var", 0, -1.0),
     "entry 'enc1.bn1.running_var' holds a negative running variance, -1.0, at byte"),
]

# Version-3 headers whose bands or loss are malformed, in the same form.  A
# header that records a threshold is refused too: no reader would use it.
BAD_READS = [
    ("bands-string", _in_header(_setting("bands", value="VIS006")), "bands must be a list"),
    ("bands-number", _in_header(_setting("bands", 1, value=3)), "bands[1] must be a string"),
    ("bands-repeated", _in_header(_setting("bands", 1, value="VIS006")),
     "bands must name at least one band, none twice: ['VIS006', 'VIS006']"),
    ("bands-empty", _in_header(_setting("bands", value=[])),
     "bands must name at least one band, none twice: []"),
    ("loss-hinge", _in_header(_setting("loss", value="hinge")),
     "loss must be one of ('bce_logits', 'mse'), got 'hinge'"),
    ("header-unknown-key", _in_header(_setting("threshold", value=0.2)),
     "unknown checkpoint header keys: ['threshold']"),
]

BAD_CHECKPOINTS = BAD_BLOB_TABLES + POISONED_VALUES + BAD_READS


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


# Config fields a checkpoint header can ask too much of, as (test id, field,
# value).  Every value is valid for ModelConfig; the first three once made
# load_checkpoint build the model and fail with a bare MemoryError, and the
# last one allocated about 7 MB for a checkpoint of about 60 kB.  The widths
# keep the smallest four of the test models and stay divisible by their
# attention reduction.
OVERSIZED_CONFIGS = [
    ("in_channels-2**40", "in_channels", 2 ** 40),
    ("out_channels-2**40", "out_channels", 2 ** 40),
    ("depth_multiplier-2**40", "depth_multiplier", 2 ** 40),
    ("stage_widths-2**40", "stage_widths", [8, 16, 32, 64, 2 ** 40]),
    ("in_channels-1e5", "in_channels", 100_000),
]


def oversize(field, value):
    """A header edit that sets one config field."""
    return _setting("config", field, value=value)


# JSON documents the parsers once let escape as builtin exceptions, as (test
# id, bytes): invalid UTF-8 (UnicodeDecodeError), an integer past Python's
# 4300-digit conversion limit (ValueError) and nesting past the recursion
# limit (RecursionError).
UNDECODABLE_JSON = [
    ("bad-utf8", b'{"a": "\xff"}'),
    ("digits-past-limit", b'{"a": 1' + b"0" * 5000 + b"}"),
    ("nested-past-recursion-limit", b"[" * 100_000 + b"]" * 100_000),
]

"""Helpers that rewrite valid files into malformed ones for error-path tests."""

import json
import struct


def rewrite_checkpoint_header(path, edit):
    """Apply edit(header_dict) to a .smck file's JSON header in place,
    keeping the magic, version and blob bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    (header_len,) = struct.unpack_from("<I", raw, 6)
    header = json.loads(raw[10:10 + header_len].decode("utf-8"))
    edit(header)
    body = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(raw[:6] + struct.pack("<I", len(body)) + body + raw[10 + header_len:])


def rewrite_manifest(path, edit):
    """Apply edit(doc) to a manifest.json in place."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

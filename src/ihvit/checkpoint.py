"""Versioned binary parameter container.

Layout: magic ``IHVT`` | format version u32 LE | header length u64 LE |
JSON header ``{config, tensors: [{name, shape, dtype, offset}]}`` |
payload of concatenated raw little-endian IEEE-754 f32 values.
Offsets are payload-relative, and each tensor starts where the one
before it ends; a load of a save reproduces bit-identical parameters.
A NaN or Inf in the payload, a name listed twice and a dtype other than
``"f32"`` are format errors.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .tensor import Tensor, UsageError
from .util import read_json_object, write_atomic

MAGIC = b"IHVT"
FORMAT_VERSION = 1


def save_checkpoint(params: dict[str, Tensor], config: dict, path) -> None:
    entries = []
    blobs = []
    offset = 0
    for name in sorted(params):
        arr = params[name].data
        if arr.dtype != np.float32:
            raise UsageError(
                f"checkpoint payload is f32-only; parameter {name!r} has dtype {arr.dtype}"
            )
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": "f32",
            "offset": offset,
        })
        blob = arr.astype("<f4", copy=False).tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"config": config, "tensors": entries}, sort_keys=True).encode("utf-8")
    write_atomic(path, [MAGIC, struct.pack("<I", FORMAT_VERSION),
                        struct.pack("<Q", len(header)), header, *blobs])


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
    if len(data) < 16:
        raise FormatError(f"{path}: truncated preamble ({len(data)} bytes)", offset=len(data))
    (version,) = struct.unpack("<I", data[4:8])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}", offset=4)
    (hlen,) = struct.unpack("<Q", data[8:16])
    if len(data) < 16 + hlen:
        raise FormatError(f"{path}: truncated header ({len(data) - 16} of {hlen} bytes)", offset=16)
    header = read_json_object(data[16:16 + hlen], f"{path}: header", FormatError, offset=16)
    entries = header.get("tensors")
    if not isinstance(entries, list):
        raise FormatError(f"{path}: header missing tensor manifest", offset=16)

    expected = 0
    sizes = []
    names = set()
    for e in entries:
        _check_entry(path, e)
        if e["name"] in names:
            raise FormatError(f"{path}: tensor {e['name']!r:.60} is listed twice", offset=16)
        names.add(e["name"])
        if e.get("dtype") != "f32":
            raise FormatError(f"{path}: tensor {e['name']!r:.60} has dtype "
                              f"{e.get('dtype')!r:.60}; the payload is f32-only", offset=16)
        if e["offset"] != expected:
            raise FormatError(
                f"{path}: tensor {e['name']!r:.60} at offset {e['offset']}, expected {expected}",
                offset=16 + hlen + expected,
            )
        # Python ints: an int64 product wraps for a large enough shape
        sizes.append(4 * math.prod(e["shape"]))
        expected += sizes[-1]

    payload = data[16 + hlen:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}",
            offset=16 + hlen + min(len(payload), expected),
        )
    finite = np.isfinite(np.frombuffer(payload, dtype="<f4"))
    if not finite.all():
        at = 4 * int(np.argmin(finite))
        name = [e["name"] for e in entries if e["offset"] <= at][-1]
        raise FormatError(f"{path}: tensor {name!r:.60} holds NaN or Inf", offset=16 + hlen + at)
    params: dict[str, np.ndarray] = {}
    for e, size in zip(entries, sizes):
        raw = payload[e["offset"]:e["offset"] + size]
        params[e["name"]] = np.frombuffer(raw, dtype="<f4").reshape(e["shape"]).copy()
    return params, header.get("config", {})


def _check_entry(path, e) -> None:
    """A tensor entry needs a string name, a list of sizes and an integer offset."""
    # bool is a subclass of int, so it is ruled out by type, not isinstance
    ok = (isinstance(e, dict) and isinstance(e.get("name"), str)
          and isinstance(e.get("shape"), list)
          and all(type(d) is int and d >= 0 for d in e["shape"])
          and type(e.get("offset")) is int)
    if not ok:
        raise FormatError(f"{path}: malformed tensor entry {e!r:.80}", offset=16)

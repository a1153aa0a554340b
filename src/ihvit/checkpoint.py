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
import os
import struct

import numpy as np

from .errors import FormatError
from .tensor import Tensor, UsageError
from .util import read_json_object, write_atomic

MAGIC = b"IHVT"
FORMAT_VERSION = 1


def save_checkpoint(params: dict[str, Tensor], config: dict, path) -> None:
    entries = []
    arrays = []
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
        # the file takes the array's buffer as it is, without a bytes copy
        arrays.append(np.ascontiguousarray(arr, dtype="<f4"))
        offset += arr.nbytes
    header = json.dumps({"config": config, "tensors": entries}, sort_keys=True).encode("utf-8")
    write_atomic(path, [MAGIC, struct.pack("<I", FORMAT_VERSION),
                        struct.pack("<Q", len(header)), header, *arrays])


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """The file's tensors, each read straight into an f32 array of its own, and its config."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pre = f.read(16)
        if pre[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {pre[:4]!r}, expected {MAGIC!r}", offset=0)
        if size < 16:
            raise FormatError(f"{path}: truncated preamble ({size} bytes)", offset=size)
        (version,) = struct.unpack("<I", pre[4:8])
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}", offset=4)
        (hlen,) = struct.unpack("<Q", pre[8:16])
        if size < 16 + hlen:
            raise FormatError(f"{path}: truncated header ({size - 16} of {hlen} bytes)", offset=16)
        header = read_json_object(f.read(hlen), f"{path}: header", FormatError, offset=16)
        entries = header.get("tensors")
        if not isinstance(entries, list):
            raise FormatError(f"{path}: header missing tensor manifest", offset=16)

        expected = 0
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
                raise FormatError(f"{path}: tensor {e['name']!r:.60} at offset {e['offset']}, "
                                  f"expected {expected}", offset=16 + hlen + expected)
            # Python ints: an int64 product wraps for a large enough shape
            expected += 4 * math.prod(e["shape"])

        payload = size - 16 - hlen
        if payload != expected:
            raise FormatError(
                f"{path}: payload is {payload} bytes, expected {expected}",
                offset=16 + hlen + min(payload, expected),
            )
        params: dict[str, np.ndarray] = {}
        for e in entries:
            arr = params[e["name"]] = np.empty(e["shape"], dtype="<f4")
            if f.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: payload ends inside tensor {e['name']!r:.60}",
                                  offset=16 + hlen + e["offset"])
            finite = np.isfinite(arr)
            if not finite.all():
                at = e["offset"] + 4 * int(np.argmin(finite))
                raise FormatError(f"{path}: tensor {e['name']!r:.60} holds NaN or Inf",
                                  offset=16 + hlen + at)
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

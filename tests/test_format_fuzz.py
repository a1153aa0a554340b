"""Truncated or mutated bytes of a valid checkpoint, PPM, manifest or config file.

A reader may accept the bytes or reject them, but only with the errors the
CLI maps to its documented exit codes: ``FormatError`` (3) or
``InputError`` (2) for the data files, ``ConfigError`` (2) for a
``--config`` file.  Anything else would end a command in a traceback.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihvit.checkpoint import load_checkpoint, save_checkpoint
from ihvit.config import load_run_config
from ihvit.errors import ConfigError, FormatError, InputError
from ihvit.pipeline import Manifest, ManifestEntry, read_ppm, write_ppm
from ihvit.tensor import Tensor


def _checkpoint(path):
    rng = np.random.default_rng(0)
    save_checkpoint({"a.w": Tensor(rng.normal(size=(2, 3)).astype(np.float32)),
                     "b": Tensor(np.ones(4, dtype=np.float32))}, {"arm": "vit"}, path)


def _ppm(path):
    write_ppm(np.random.default_rng(1).integers(0, 256, (3, 4, 3), dtype=np.uint8), path)


def _manifest(path):
    Manifest(seed=1, entries=[
        ManifestEntry("a.ppm", 0, True, "train"),
        ManifestEntry("b.ppm", 2, False, "test", "augmented:flip:0"),
    ]).save(path)


def _config(path):
    path.write_text(json.dumps({
        "synth": {"seed": 3, "density": "chip_in_corner", "counts": {"normal": 4, "scratch": 2}},
        "model": {"vit": {"depth": 2, "channels": [{"patch": 16, "embed": "linear"}]},
                  "resnet": {"stage_widths": [32, 64, 128, 512]}},
        "train": {"epochs": 3, "lr0": 0.01, "target_accuracy": None},
        "fusion": {"a_vit": 0.5},
    }))


DATA_ERRORS = (FormatError, InputError)
# name -> (write a valid file, read one, the errors the read may raise)
FORMATS = {
    "checkpoint": (_checkpoint, load_checkpoint, DATA_ERRORS),
    "ppm": (_ppm, read_ppm, DATA_ERRORS),
    "manifest": (_manifest, Manifest.load, DATA_ERRORS),
    "config": (_config, load_run_config, (ConfigError,)),
}


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """``blob`` cut short, or with a few bytes flipped, overwritten or inserted."""
    b = bytearray(blob)
    kind = draw(st.sampled_from(["truncate", "flip", "overwrite", "insert"]))
    if kind == "truncate":
        return bytes(b[:draw(st.integers(0, len(b) - 1))])
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(b) - 1))
        if kind == "flip":
            b[i] ^= 1 << draw(st.integers(0, 7))
        elif kind == "overwrite":
            b[i] = draw(st.integers(0, 255))
        else:
            b[i:i] = bytes([draw(st.integers(0, 255))])
    return bytes(b)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_damaged_file_raises_only_documented_errors(tmp_path, fmt):
    write, read, errors = FORMATS[fmt]
    good = tmp_path / "good"
    write(good)
    read(good)
    # a fresh file per example: rewriting one file in place costs the
    # filesystem far more than the readers take
    names = itertools.count()

    @settings(max_examples=300, deadline=None)
    @given(damaged(good.read_bytes()))
    def check(blob):
        bad = tmp_path / f"bad{next(names)}"
        bad.write_bytes(blob)
        try:
            read(bad)
        except errors:
            pass

    check()

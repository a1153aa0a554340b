"""PPM I/O, manifests, augmentation, and splitting.

An image is a uint8 ``(H, W, 3)`` array; its label lives in its
``ManifestEntry``.  All randomness is derived from ``(seed, family,
variant)`` tuples so the pipeline is a pure function of its inputs;
augmented files are materialized to disk so dataset accounting stays exact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InputError
from .util import read_json_object, run_all, write_atomic

MANIFEST_SCHEMA_VERSION = 1

# augmentation families; 2 + 2 + 2 + 4 + 4 = 14 variants per image
FLIPS = ("horizontal", "vertical")
ROTATIONS = (90, 180)
SCALE_FACTORS = (1.15, 1.3)
CROP_COUNT = 4
CROP_FRACTION_RANGE = (0.7, 0.9)
# each direction's unit step (dx, dy); +y is down
_TRANSLATE_STEPS = {"left": (-1, 0), "right": (1, 0), "up": (0, -1), "down": (0, 1)}
TRANSLATE_DIRECTIONS = tuple(_TRANSLATE_STEPS)
TRANSLATE_FRACTION = 0.1

# (family, index) of every variant, in the order augment_all returns them
VARIANTS = [(family, i) for family, n in (
    ("flip", len(FLIPS)), ("rotate", len(ROTATIONS)), ("scale", len(SCALE_FACTORS)),
    ("crop", CROP_COUNT), ("translate", len(TRANSLATE_DIRECTIONS))) for i in range(n)]


@dataclass
class ManifestEntry:
    path: str
    label: int
    defect_free: bool
    split: str = "none"  # none | train | test
    origin: str = "original"  # original | augmented:<family>:<index>

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ManifestEntry":
        if not isinstance(obj, dict):
            raise FormatError(f"manifest entry must be an object, got {obj!r:.60}")
        where = f"manifest entry {obj.get('path')!r:.60}"
        label, path = _field(obj, "label", int, where), _field(obj, "path", str, where)
        if "\0" in path:  # no file system takes it
            raise FormatError(f"{where}: field 'path' holds a NUL byte")
        if label < 0:
            raise FormatError(f"{where}: field 'label' must be >= 0, got {label!r:.60}")
        return cls(
            path=path,
            label=label,
            defect_free=_field(obj, "defect_free", bool, where),
            split=_field(obj, "split", str, where, "none"),
            origin=_field(obj, "origin", str, where, "original"),
        )


def _field(obj: dict, key: str, kind: type, where: str, default=None):
    """``obj[key]``, or ``default`` when it is absent and not None; a missing
    or mistyped value is a FormatError."""
    if key not in obj and default is not None:
        return default
    value = obj.get(key)
    # bool is a subclass of int, but neither stands in for the other here
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise FormatError(f"{where}: field {key!r} must be {kind.__name__}, got {value!r:.60}")
    return value


@dataclass
class Manifest:
    seed: int
    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            dupes = sorted({p for p in paths if paths.count(p) > 1})
            raise InputError(f"duplicate manifest paths: {[p[:60] for p in dupes[:3]]}")
        for e in self.entries:
            if e.split not in ("none", "train", "test"):
                raise InputError(f"bad split tag {e.split!r:.60} for {e.path:.60}")
            if (e.label == 0) != e.defect_free:
                raise InputError(
                    f"{e.path:.60}: label {e.label} inconsistent with defect_free={e.defect_free}")

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for e in self.entries:
            counts[e.label] = counts.get(e.label, 0) + 1
        return counts

    def subset(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]

    def to_json(self) -> dict:
        return {
            "version": MANIFEST_SCHEMA_VERSION,
            "seed": self.seed,
            "entries": [e.to_json() for e in self.entries],
        }

    def save(self, path) -> None:
        write_atomic(path, [(json.dumps(self.to_json(), indent=1) + "\n").encode()])

    @classmethod
    def load(cls, path) -> "Manifest":
        obj = read_json_object(Path(path).read_bytes(), f"{path}: manifest", FormatError)
        version = _field(obj, "version", int, str(path))
        if version != MANIFEST_SCHEMA_VERSION:
            raise FormatError(f"{path}: unsupported manifest version {version!r:.60}")
        seed = _field(obj, "seed", int, str(path))
        if seed < 0:  # the per-entry SeedSequence takes no negative seed
            raise FormatError(f"{path}: field 'seed' must be >= 0, got {seed!r:.60}")
        return cls(
            seed=seed,
            entries=[ManifestEntry.from_json(e) for e in _field(obj, "entries", list, str(path))],
        )


# ---------------------------------------------------------------------------
# PPM (P6) I/O


def write_ppm(pixels: np.ndarray, path) -> None:
    """Write a uint8 (H, W, 3) array as a binary P6 file through
    ``util.write_atomic``, so a failed write leaves ``path`` as it was."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, c = pixels.shape
    if c != 3:
        raise InputError(f"write_ppm: expected RGB pixels, got {pixels.shape}")
    write_atomic(path, [f"P6\n{w} {h}\n255\n".encode("ascii"), pixels])


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file (maxval 255) into a uint8 (H, W, 3) array."""
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise FormatError(f"{path}: not a binary PPM (magic {data[:2]!r})", offset=0)
    pos = 2
    fields, starts = [], []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":  # comment to end of line
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise FormatError(f"{path}: truncated header", offset=pos)
        token = data[start:pos]
        # int() takes signs too, and at most 4,300 digits; no real side has 19
        if not token.isdigit() or len(token) > 18:
            raise FormatError(f"{path}: bad header token {token!r:.60}", offset=start)
        fields.append(int(token))
        starts.append(start)
    w, h, maxval = fields
    if w == 0 or h == 0:
        raise FormatError(f"{path}: zero image dimension {w}x{h}",
                          offset=starts[0 if w == 0 else 1])
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}", offset=pos)
    pos += 1  # single whitespace byte after maxval
    expected = 3 * w * h
    got = min(expected, max(0, len(data) - pos))
    if got != expected:
        raise FormatError(f"{path}: payload is {got} bytes, expected {expected}",
                          offset=pos + got)
    return np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos).reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# resizing


# float64 bytes per row array of a _resize_array block: a block makes
# _RESIZE_BYTES // (max(w, tw) * 3 * 8) output rows.  Picked by a sweep of
# augment and load at 2 threads; 256 KiB blocks were faster at 1 thread only
_RESIZE_BYTES = 1 << 20


def _resize_array(pixels: np.ndarray, tw: int, th: int,
                  window: tuple[int, int, int, int] | None = None) -> np.ndarray:
    """Bilinear resample with half-pixel-center (corner-aligned-off) sampling.

    Each output byte is ``rint(top*(1-fy) + bottom*fy)`` clipped to [0, 255],
    where ``top`` and ``bottom`` are ``a*(1-fx) + b*fx`` over the two nearest
    pixels of a source row, all in float64.  The output is made in blocks of
    ``_RESIZE_BYTES // (max(w, tw) * 3 * 8)`` rows (at least one).  A block
    casts the distinct source rows it reads to float64 once (only their
    gathered taps, when those are fewer bytes: a downscale to under half the
    width), gathers both x taps of each output byte by byte index and lerps
    them in place with per-byte weights, then gathers the top and bottom rows
    for the lerp along y.  Every byte goes through the same operations in the
    same order whatever the block height, so the result is byte-identical to
    a whole-image computation.  Each float64 temporary of a block (its rows,
    the two taps, top, bottom) takes about ``_RESIZE_BYTES``, six at most at
    once; whole-image float64 copies of a 2-3 MP frame take 50-90 MB.
    ``pixels`` may be any (H, W, 3) uint8 view.

    ``window = (x, y, ww, wh)`` makes only that window of the ``tw`` x
    ``th`` output: the same sample positions and arithmetic, so the bytes
    equal the window sliced from the whole output.
    """
    h, w = pixels.shape[:2]
    sx = w / tw
    sy = h / th
    xs = (np.arange(tw, dtype=np.float64) + 0.5) * sx - 0.5
    ys = (np.arange(th, dtype=np.float64) + 0.5) * sy - 0.5
    if window is not None:
        wx, wy, ww, wh = window
        xs, ys = xs[wx:wx + ww], ys[wy:wy + wh]
        tw, th = len(xs), len(ys)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    gy = 1 - fy
    # per output byte: the byte index of its two x taps in a source row, and their weights
    b0, b1 = ((x[:, None] * 3 + np.arange(3)).ravel() for x in (x0, x1))
    gx, fx = np.repeat(1 - fx, 3), np.repeat(fx, 3)

    out = np.empty((th, tw * 3), dtype=np.uint8)
    step = max(1, _RESIZE_BYTES // (max(w, tw) * 3 * 8))
    for r in range(0, th, step):
        rows = slice(r, r + step)
        n = len(y0[rows])
        src_rows, at = np.unique(np.concatenate([y0[rows], y1[rows]]), return_inverse=True)
        src = pixels[src_rows].reshape(len(src_rows), w * 3)
        if w < 2 * tw:  # the rows hold fewer bytes to cast than their two taps
            src = src.astype(np.float64)
        lerped = np.take(src, b0, axis=1).astype(np.float64, copy=False)
        lerped *= gx
        right = np.take(src, b1, axis=1).astype(np.float64, copy=False)
        right *= fx
        lerped += right
        block = lerped[at[:n]]
        block *= gy[rows]
        bottom = lerped[at[n:]]
        bottom *= fy[rows]
        block += bottom
        out[rows] = np.rint(block, out=block).clip(0, 255, out=block)
    return out.reshape(th, tw, 3)


# ---------------------------------------------------------------------------
# augmentation


def _apply_variant(px: np.ndarray, family: str, index: int, seed: int) -> np.ndarray:
    h, w = px.shape[:2]
    if family == "flip":
        return px[:, ::-1] if FLIPS[index] == "horizontal" else px[::-1, :]
    if family == "rotate":
        deg = ROTATIONS[index]
        rotated = np.rot90(px, k=deg // 90)
        if rotated.shape[:2] != (h, w):  # quarter turns swap extents; restore them
            rotated = _resize_array(rotated, w, h)
        return rotated
    if family == "scale":
        f = SCALE_FACTORS[index]
        bw, bh = max(w + 1, round(w * f)), max(h + 1, round(h * f))
        # the enlarged frame's centre window, the only part kept
        return _resize_array(px, bw, bh, window=((bw - w) // 2, (bh - h) // 2, w, h))
    if family == "crop":
        # the one variant that draws numbers; the variant files' bytes depend on this stream
        rng = np.random.default_rng(np.random.SeedSequence((seed, 4, index)))
        f = rng.uniform(*CROP_FRACTION_RANGE)
        # a window of 2 px a side at least, and never wider than the image
        cw = min(w, max(2, round(w * f)))
        ch = min(h, max(2, round(h * f)))
        x0 = int(rng.integers(0, w - cw + 1))
        y0 = int(rng.integers(0, h - ch + 1))
        return _resize_array(px[y0:y0 + ch, x0:x0 + cw], w, h)
    if family == "translate":
        step_x, step_y = _TRANSLATE_STEPS[TRANSLATE_DIRECTIONS[index]]
        dx = step_x * max(1, round(w * TRANSLATE_FRACTION))
        dy = step_y * max(1, round(h * TRANSLATE_FRACTION))
        out = np.zeros_like(px)
        src_y = slice(max(0, -dy), min(h, h - dy))
        src_x = slice(max(0, -dx), min(w, w - dx))
        dst_y = slice(max(0, dy), min(h, h + dy))
        dst_x = slice(max(0, dx), min(w, w + dx))
        out[dst_y, dst_x] = px[src_y, src_x]
        return out
    raise ConfigError(f"unknown augmentation family {family!r}")


def augment_all(pixels: np.ndarray, seed: int = 0) -> list[np.ndarray]:
    """Emit the 14 ``VARIANTS`` at the source image's size, in that order.

    The variants are computed through ``util.run_all``, so with
    ``IHVIT_THREADS`` of 2 or more the threads share them.  Each variant is
    a pure function of the image and ``seed``, and ``_resize_array`` gives
    the same bytes however it is called, so the pixels do not depend on the
    thread count.
    """
    return run_all([partial(_apply_variant, pixels, family, index, seed)
                    for family, index in VARIANTS])


def augment_manifest(manifest: Manifest, base_dir,
                     only_defect: bool = True) -> tuple[Manifest, int]:
    """Materialize variants next to their sources; returns (manifest, added).

    The new manifest is built before any image is read or written, so a
    variant path the manifest already lists (say, on a second run over an
    augmented manifest) raises ``InputError`` with the disk untouched.
    Sources are taken one at a time, and their 14 variants go through
    ``util.run_all``: each call makes one variant and writes it, so a
    thread holds one variant at a time and the files do not depend on
    ``IHVIT_THREADS``.  If any read, variant or write fails, the variant
    files already written are removed and the first error in call order
    is raised.
    """
    base = Path(base_dir)
    sources = [e for e in manifest.entries
               if e.origin == "original" and (not only_defect or not e.defect_free)]
    missing = [e.path for e in sources if not (base / e.path).exists()]
    if missing:
        raise FileNotFoundError("missing image files: " + ", ".join(missing))
    targets = [[ManifestEntry(
        path=str(Path(e.path).parent / f"{Path(e.path).stem}_aug_{family}{index}.ppm"),
        label=e.label, defect_free=e.defect_free, split="none",
        origin=f"augmented:{family}:{index}",
    ) for family, index in VARIANTS] for e in sources]
    added = [t for ts in targets for t in ts]
    out = Manifest(seed=manifest.seed, entries=manifest.entries + added)
    written: list[Path] = []

    def emit(pixels, family, index, seed, path):
        write_ppm(_apply_variant(pixels, family, index, seed), path)
        written.append(path)

    try:
        for i, (entry, ts) in enumerate(zip(sources, targets)):
            pixels = read_ppm(base / entry.path)
            seed = _entry_seed(manifest.seed, i)
            run_all([partial(emit, pixels, family, index, seed, base / t.path)
                     for (family, index), t in zip(VARIANTS, ts)])
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return out, len(added)


def _entry_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, 6, index)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# splitting


def balance_and_split(manifest: Manifest, train_fraction: float = 0.8,
                      seed: int | None = None, force: bool = False) -> Manifest:
    """Stratified per-class split; floor(fraction * n) of each class to train."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if seed is None:
        seed = manifest.seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not force and any(e.split != "none" for e in manifest.entries):
        raise ConfigError("manifest already split; pass force=True to re-split")

    by_class: dict[int, list[int]] = {}
    for i, e in enumerate(manifest.entries):
        by_class.setdefault(e.label, []).append(i)
    for label, idxs in sorted(by_class.items()):
        if len(idxs) < 2:
            raise InputError(f"class {label} has {len(idxs)} entry(ies); need >= 2 to split")

    entries = [replace(e) for e in manifest.entries]
    for label, idxs in sorted(by_class.items()):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7, label)))
        order = rng.permutation(len(idxs))
        n_train = int(np.floor(train_fraction * len(idxs)))
        for rank, j in enumerate(order):
            entries[idxs[j]].split = "train" if rank < n_train else "test"
    return Manifest(seed=manifest.seed, entries=entries)


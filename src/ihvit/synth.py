"""Deterministic synthetic IC-appearance images.

Stands in for a private industrial dataset while reproducing its
statistical shape: ~3:1 normal:defect imbalance, a pool of mixed source
resolutions, and optionally uneven information density (a small chip in
the corner of a large frame).

Rendering is flat colors plus additive noise; the point is that every
defect class perturbs the normal render in a geometrically distinct,
seed-reproducible way, strictly inside the chip-body bounding box.
Random streams are split so a defect image and its same-seed normal
counterpart share base geometry, colors, and noise exactly:

    (seed, 0) -> geometry and palette
    (seed, 1) -> sensor noise
    (seed, 2) -> defect placement
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .pipeline import Manifest, ManifestEntry, write_ppm
from .util import bounded, check_fields, run_all

DEFECT_KINDS = ("scratch", "missing_char", "pin_defect", "uneven_char", "glue_blob")
DEFAULT_CLASSES = ("normal",) + DEFECT_KINDS

# the four source resolutions seen in the field; oversized entries are
# halved until they fit the emission budget (4608x3456 -> 1152x864)
DEFAULT_RESOLUTIONS = ((512, 480), (1440, 1080), (4608, 3456), (1276, 1702))
DEFAULT_RESOLUTION_WEIGHTS = (0.4, 0.3, 0.15, 0.15)
DEFAULT_MAX_EMIT_PIXELS = 2_200_000
# the (low, high) range of the chip body's share of a frame side, per density mode
_CHIP_FRACTION = {"balanced": (0.75, 0.80), "chip_in_corner": (0.22, 0.34)}

DEFAULT_COUNTS = {
    "normal": 100,
    "scratch": 7,
    "missing_char": 7,
    "pin_defect": 7,
    "uneven_char": 7,
    "glue_blob": 6,
}


@dataclass
class SynthConfig:
    seed: int = bounded(0, min=0)
    resolutions: tuple[tuple[int, int], ...] = bounded(DEFAULT_RESOLUTIONS, min=1)
    resolution_weights: tuple[float, ...] = bounded(DEFAULT_RESOLUTION_WEIGHTS, min=0)
    classes: tuple[str, ...] = bounded(DEFAULT_CLASSES, among=DEFAULT_CLASSES)
    counts: dict[str, int] = bounded(DEFAULT_COUNTS, min=0)
    density: str = bounded("balanced", among=tuple(_CHIP_FRACTION))
    noise_sigma: float = bounded(2.0, min=0)

    def __post_init__(self):
        check_fields(self)
        if any(len(r) != 2 for r in self.resolutions):
            raise ConfigError(f"SynthConfig.resolutions must be a list of [w, h] pairs, "
                              f"got {self.resolutions!r:.60}")
        if len(self.resolutions) != len(self.resolution_weights):
            raise ConfigError("resolution pool and weights differ in length")
        if not 0 < sum(self.resolution_weights) < math.inf:
            raise ConfigError(f"resolution weights must sum to > 0, "
                              f"got {self.resolution_weights!r:.60}")
        for r in self.resolutions:
            w, h = self.emit_size(r)
            # the scratch keeps 2 px from each chip edge, so a chip side needs 4 px
            if min(w, h) * _CHIP_FRACTION[self.density][0] < 4:
                raise ConfigError(f"resolution {r} is emitted at {w}x{h}, too small for a "
                                  f"{self.density} chip 4 px a side")
        if not self.classes or self.classes[0] != "normal":
            raise ConfigError("class list must start with 'normal'")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError(f"class names must be distinct, got {list(self.classes)!r:.60}")
        unknown = set(self.counts) - set(self.classes)
        if unknown:
            raise ConfigError(f"counts given for unknown classes: {sorted(unknown)!r:.60}")
        if sum(self.counts.get(c, 0) for c in self.classes) == 0:
            raise ConfigError("all class counts are zero; nothing to generate")

    def label_of(self, class_name: str) -> int:
        try:
            return self.classes.index(class_name)
        except ValueError:
            raise ConfigError(f"class {class_name!r} not in configured class list") from None

    def emit_size(self, nominal: tuple[int, int]) -> tuple[int, int]:
        w, h = nominal
        while w * h > DEFAULT_MAX_EMIT_PIXELS:
            w //= 2
            h //= 2
        return w, h


# blocky 5x3 marking shapes reused across the glyph grid
_GLYPH_ALPHABET = tuple(
    np.array(rows, dtype=bool)
    for rows in (
        [[1, 1, 1], [1, 0, 1], [1, 0, 1], [1, 0, 1], [1, 1, 1]],   # 0
        [[1, 1, 1], [0, 1, 0], [0, 1, 0], [0, 1, 0], [1, 1, 1]],   # I
        [[1, 1, 1], [0, 0, 1], [1, 1, 1], [1, 0, 0], [1, 1, 1]],   # 2
        [[1, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 1], [1, 1, 1]],   # S
        [[1, 1, 1], [1, 0, 1], [1, 1, 1], [1, 0, 1], [1, 0, 1]],   # A
        [[1, 1, 1], [1, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 1]],   # C
        [[1, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 0], [1, 0, 1]],   # R
        [[1, 1, 1], [1, 0, 0], [1, 1, 1], [1, 0, 0], [1, 0, 0]],   # F
    )
)


@dataclass(frozen=True)
class ChipGeometry:
    """Everything the renderer places, in pixel boxes (x0, y0, x1, y1)."""

    chip_box: tuple[int, int, int, int]
    pin_boxes: tuple[tuple[int, int, int, int], ...]
    glyph_boxes: tuple[tuple[int, int, int, int], ...]
    glyph_patterns: tuple[np.ndarray, ...]  # bool (5, 3) bar masks
    background: tuple[int, int, int]
    body_color: tuple[int, int, int]
    pin_color: tuple[int, int, int]
    glyph_color: tuple[int, int, int]


def chip_geometry(size: tuple[int, int], seed: int, density: str = "balanced") -> ChipGeometry:
    """Reproduce the exact geometry the renderer will use for this seed."""
    w, h = size
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    fw = rng.uniform(*_CHIP_FRACTION[density])
    fh = rng.uniform(*_CHIP_FRACTION[density])
    cw, ch = int(w * fw), int(h * fh)
    if density == "balanced":
        cx0 = (w - cw) // 2 + int(rng.integers(-w // 100, w // 100 + 1))
        cy0 = (h - ch) // 2 + int(rng.integers(-h // 100, h // 100 + 1))
    else:
        corner = int(rng.integers(0, 4))
        mx = int(w * rng.uniform(0.03, 0.07))
        my = int(h * rng.uniform(0.03, 0.07))
        cx0 = mx if corner in (0, 2) else w - cw - mx
        cy0 = my if corner in (0, 1) else h - ch - my
    cx0 = max(0, min(cx0, w - cw))
    cy0 = max(0, min(cy0, h - ch))
    chip = (cx0, cy0, cx0 + cw, cy0 + ch)

    n_pins = 10
    pin_len = max(3, int(cw * 0.12))
    pitch = ch / n_pins
    pin_h = max(2, int(pitch * 0.7))
    pins = []
    for side_x0, side_x1 in ((cx0, cx0 + pin_len), (cx0 + cw - pin_len, cx0 + cw)):
        for i in range(n_pins):
            py0 = cy0 + int(i * pitch + (pitch - pin_h) / 2)
            pins.append((side_x0, py0, side_x1, min(py0 + pin_h, cy0 + ch)))

    rows, cols = 2, 4
    gx0 = cx0 + int(cw * 0.20)
    gx1 = cx0 + cw - int(cw * 0.20)
    gy0 = cy0 + int(ch * 0.20)
    gy1 = cy0 + ch - int(ch * 0.20)
    xs = np.linspace(gx0, gx1, cols + 1).astype(int)
    ys = np.linspace(gy0, gy1, rows + 1).astype(int)
    glyphs = []
    patterns = []
    for r in range(rows):
        for c in range(cols):
            padx = max(1, (xs[c + 1] - xs[c]) // 7)
            pady = max(1, (ys[r + 1] - ys[r]) // 9)
            glyphs.append((xs[c] + padx, ys[r] + pady, xs[c + 1] - padx, ys[r + 1] - pady))
            # same marking per grid position, like a product line's print
            patterns.append(_GLYPH_ALPHABET[(r * cols + c) % len(_GLYPH_ALPHABET)])

    jitter = rng.integers(-3, 4, size=12)
    background = tuple(int(np.clip(v + j, 0, 255)) for v, j in zip((18, 21, 25), jitter[0:3]))
    body = tuple(int(np.clip(v + j, 0, 255)) for v, j in zip((42, 46, 50), jitter[3:6]))
    pin_color = tuple(int(np.clip(v + j, 0, 255)) for v, j in zip((192, 197, 203), jitter[6:9]))
    glyph_color = tuple(int(np.clip(v + j, 0, 255)) for v, j in zip((224, 227, 219), jitter[9:12]))

    return ChipGeometry(
        chip_box=chip,
        pin_boxes=tuple(pins),
        glyph_boxes=tuple(glyphs),
        glyph_patterns=tuple(patterns),
        background=background,
        body_color=body,
        pin_color=pin_color,
        glyph_color=glyph_color,
    )


def _fill(img: np.ndarray, box, color) -> None:
    x0, y0, x1, y1 = box
    img[y0:y1, x0:x1] = color


def _draw_glyph(img: np.ndarray, box, pattern: np.ndarray, color) -> None:
    x0, y0, x1, y1 = box
    if x1 <= x0 or y1 <= y0:
        return
    col_edges = np.linspace(x0, x1, pattern.shape[1] + 1).astype(int)
    row_edges = np.linspace(y0, y1, pattern.shape[0] + 1).astype(int)
    for r in range(pattern.shape[0]):
        for c in range(pattern.shape[1]):
            if pattern[r, c]:
                img[row_edges[r]:max(row_edges[r + 1], row_edges[r] + 1),
                    col_edges[c]:max(col_edges[c + 1], col_edges[c] + 1)] = color


def _draw_polyline(img: np.ndarray, points: np.ndarray, color, clip_box, thickness: int = 1) -> None:
    x0c, y0c, x1c, y1c = clip_box
    for (xa, ya), (xb, yb) in zip(points[:-1], points[1:]):
        n = int(max(abs(xb - xa), abs(yb - ya)) * 2) + 2
        xs = np.rint(np.linspace(xa, xb, n)).astype(int)
        ys = np.rint(np.linspace(ya, yb, n)).astype(int)
        for dy in range(-thickness, thickness + 1):
            for dx in range(-thickness, thickness + 1):
                xx = np.clip(xs + dx, x0c, x1c - 1)
                yy = np.clip(ys + dy, y0c, y1c - 1)
                img[yy, xx] = color


def _render_base(geo: ChipGeometry, size: tuple[int, int]) -> np.ndarray:
    w, h = size
    img = np.empty((h, w, 3), dtype=np.int16)
    img[:, :] = geo.background
    _fill(img, geo.chip_box, geo.body_color)
    for box in geo.pin_boxes:
        _fill(img, box, geo.pin_color)
    for box, pat in zip(geo.glyph_boxes, geo.glyph_patterns):
        _draw_glyph(img, box, pat, geo.glyph_color)
    return img


def _apply_defect(img: np.ndarray, geo: ChipGeometry, kind: str, rng: np.random.Generator) -> None:
    x0, y0, x1, y1 = geo.chip_box
    cw, ch = x1 - x0, y1 - y0
    if kind == "scratch":
        k = int(rng.integers(4, 7))
        margin_x = max(2, int(cw * 0.08))
        margin_y = max(2, int(ch * 0.08))
        px = rng.uniform(x0 + margin_x, x1 - margin_x, size=k)
        py = rng.uniform(y0 + margin_y, y1 - margin_y, size=k)
        # spread anchor points so the polyline spans the chip
        px[0], px[-1] = x0 + margin_x, x1 - margin_x
        _draw_polyline(img, np.stack([px, py], axis=1), (226, 130, 92), geo.chip_box,
                       thickness=2)
    elif kind == "missing_char":
        idx = int(rng.integers(0, len(geo.glyph_boxes)))
        _fill(img, geo.glyph_boxes[idx], geo.body_color)
    elif kind == "pin_defect":
        idx = int(rng.integers(0, len(geo.pin_boxes)))
        bx0, by0, bx1, by1 = geo.pin_boxes[idx]
        _fill(img, (bx0, by0, bx1, by1), geo.body_color)
        if rng.integers(0, 2) == 1:  # displaced rather than missing
            shift = 2 * max(2, (by1 - by0))
            ny0 = min(by0 + shift, y1 - (by1 - by0))
            _fill(img, (bx0, ny0, bx1, ny0 + (by1 - by0)), geo.pin_color)
    elif kind == "uneven_char":
        idx = int(rng.integers(0, len(geo.glyph_boxes)))
        bx0, by0, bx1, by1 = geo.glyph_boxes[idx]
        _fill(img, (bx0, by0, bx1, by1), geo.body_color)
        stretch = (bx1 - bx0) * 0.8
        nx0 = max(x0, int(bx0 - stretch / 2))
        nx1 = min(x1, int(bx1 + stretch / 2))
        _draw_glyph(img, (nx0, by0, nx1, by1), geo.glyph_patterns[idx], geo.glyph_color)
    elif kind == "glue_blob":
        cxc = rng.uniform(x0 + cw * 0.2, x1 - cw * 0.2)
        cyc = rng.uniform(y0 + ch * 0.2, y1 - ch * 0.2)
        rx = cw * rng.uniform(0.10, 0.18)
        ry = ch * rng.uniform(0.10, 0.18)
        # the blob's box with a pixel to spare, inside the chip: a pixel
        # beyond it is at least rx + 1 (or ry + 1) from the centre
        bx0, bx1 = max(x0, math.floor(cxc - rx)), min(x1, math.ceil(cxc + rx) + 1)
        by0, by1 = max(y0, math.floor(cyc - ry)), min(y1, math.ceil(cyc + ry) + 1)
        yy, xx = np.mgrid[by0:by1, bx0:bx1]
        mask = ((xx - cxc) / rx) ** 2 + ((yy - cyc) / ry) ** 2 <= 1.0
        region = img[by0:by1, bx0:bx1].astype(np.float64)
        glue = np.array((152, 157, 143), dtype=np.float64)
        region[mask] = region[mask] * 0.5 + glue * 0.5
        img[by0:by1, bx0:bx1] = np.rint(region).astype(np.int16)


# frame rows per block of gen_sample's noise
_NOISE_ROWS = 64


def gen_sample(cfg: SynthConfig, class_name: str, size: tuple[int, int], seed: int) -> np.ndarray:
    """Render one uint8 (H, W, 3) image; a pure function of (cfg, class, size, seed).

    The noise is drawn in blocks of ``_NOISE_ROWS`` rows: ``Generator.normal``
    gives the same stream in blocks as in one call, so the bytes do not
    depend on the block height, and the float64 noise of a 2 MP frame
    (50 MB drawn at once) stays near 2.5 MB.
    """
    label = cfg.label_of(class_name)
    geo = chip_geometry(size, seed, cfg.density)
    img = _render_base(geo, size)
    if label != 0:
        rng_defect = np.random.default_rng(np.random.SeedSequence((seed, 2)))
        _apply_defect(img, geo, class_name, rng_defect)
    rng_noise = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    if cfg.noise_sigma > 0:
        for r in range(0, img.shape[0], _NOISE_ROWS):
            block = img[r:r + _NOISE_ROWS]
            noise = rng_noise.normal(0.0, cfg.noise_sigma, size=block.shape)
            block += np.rint(noise, out=noise).astype(np.int16)
    return np.clip(img, 0, 255, out=img).astype(np.uint8)


def _item_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence((master, 8, index)).generate_state(1)[0])


def _plan_items(cfg: SynthConfig) -> list[tuple[str, str, tuple[int, int], int]]:
    """(class, relpath, size, seed) per image, independent of emission order."""
    items = []
    index = 0
    weights = np.asarray(cfg.resolution_weights, dtype=np.float64)
    weights = weights / weights.sum()
    for class_name in cfg.classes:
        for k in range(cfg.counts.get(class_name, 0)):
            size_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 9, index)))
            nominal = cfg.resolutions[int(size_rng.choice(len(cfg.resolutions), p=weights))]
            items.append((
                class_name,
                f"{class_name}_{k:05d}.ppm",
                cfg.emit_size(nominal),
                _item_seed(cfg.seed, index),
            ))
            index += 1
    return items


def gen_dataset(cfg: SynthConfig, out_dir) -> Manifest:
    """Render the configured dataset to ``out_dir`` and return its manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    items = _plan_items(cfg)

    def emit(item):
        class_name, rel, size, seed = item
        write_ppm(gen_sample(cfg, class_name, size, seed), out / rel)

    run_all([partial(emit, item) for item in items])
    entries = [
        ManifestEntry(path=rel, label=cfg.label_of(cls), defect_free=(cfg.label_of(cls) == 0))
        for cls, rel, _, _ in items
    ]
    manifest = Manifest(seed=cfg.seed, entries=entries)
    manifest.save(out / "manifest.json")
    return manifest

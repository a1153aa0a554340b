"""Bottleneck-residual CNN branch.

The full preset mirrors the standard 50-layer architecture; the desk
preset is a narrow [1,1,1,1] variant sharing all code paths.  Per-conv
normalization is a batch-statistics-free per-channel affine (instance
statistics over spatial dims) so batches of 1 remain valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError
from .tensor import (
    Tensor,
    ShapeError,
    add,
    conv2d,
    instance_norm2d,
    matmul,
    maxpool2d,
    mean,
    relu,
)
from .util import bounded, check_fields
from .vit import kaiming_uniform, trunc_normal

# a bottleneck block's inner width is its output width over this
BOTTLENECK = 4


@dataclass
class ResNetConfig:
    stem_width: int = bounded(16, min=1)
    stage_blocks: tuple[int, ...] = bounded((1, 1, 1, 1), min=1)
    stage_widths: tuple[int, ...] = bounded((32, 64, 128, 256), min=1)
    classes: int = bounded(6, min=2)

    def __post_init__(self):
        check_fields(self)
        if not self.stage_blocks or len(self.stage_blocks) != len(self.stage_widths):
            raise ConfigError("stage_blocks and stage_widths must be non-empty and of one length")
        for w in self.stage_widths:
            if w % BOTTLENECK != 0:
                raise ConfigError(f"stage width {w} not divisible by bottleneck {BOTTLENECK}")

    @classmethod
    def resnet50(cls, classes: int = 1000) -> "ResNetConfig":
        return cls(stem_width=64, stage_blocks=(3, 4, 6, 3),
                   stage_widths=(256, 512, 1024, 2048), classes=classes)

    @classmethod
    def desk(cls, classes: int = 6) -> "ResNetConfig":
        return cls(classes=classes)

    @property
    def feature_width(self) -> int:
        return self.stage_widths[-1]


def _stride(stage: int, block: int) -> int:
    """The first block of every stage after the first halves the spatial size."""
    return 2 if (block == 0 and stage > 0) else 1


class ResNetBranch:
    def __init__(self, config: ResNetConfig, seed: int = 0, dtype: str = "f32"):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
        p: dict[str, np.ndarray] = {
            "stem.conv.w": kaiming_uniform(rng, (config.stem_width, 3, 7, 7)),
            "stem.norm.g": np.ones(config.stem_width),
            "stem.norm.b": np.zeros(config.stem_width),
        }
        cin = config.stem_width
        for s, (blocks, width) in enumerate(zip(config.stage_blocks, config.stage_widths)):
            mid = width // BOTTLENECK
            for b in range(blocks):
                pre = f"s{s}.b{b}"
                p[f"{pre}.conv1.w"] = kaiming_uniform(rng, (mid, cin, 1, 1))
                p[f"{pre}.conv2.w"] = kaiming_uniform(rng, (mid, mid, 3, 3))
                p[f"{pre}.conv3.w"] = kaiming_uniform(rng, (width, mid, 1, 1))
                for i, c in ((1, mid), (2, mid), (3, width)):
                    p[f"{pre}.norm{i}.g"] = np.ones(c)
                    p[f"{pre}.norm{i}.b"] = np.zeros(c)
                if _stride(s, b) != 1 or cin != width:
                    p[f"{pre}.down.w"] = kaiming_uniform(rng, (width, cin, 1, 1))
                    p[f"{pre}.down.norm.g"] = np.ones(width)
                    p[f"{pre}.down.norm.b"] = np.zeros(width)
                cin = width
        p["head.w"] = trunc_normal(rng, (config.feature_width, config.classes))
        p["head.b"] = np.zeros(config.classes)
        self.params = {k: Tensor(v, dtype=dtype, requires_grad=True) for k, v in p.items()}

    def _norm(self, x: Tensor, prefix: str) -> Tensor:
        return instance_norm2d(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def bottleneck_forward(self, x: Tensor, stage: int, block: int) -> Tensor:
        """1x1 reduce -> 3x3 (stride) -> 1x1 expand, plus shortcut, relu after add."""
        pre = f"s{stage}.b{block}"
        stride = _stride(stage, block)
        y = relu(self._norm(conv2d(x, self.params[f"{pre}.conv1.w"]), f"{pre}.norm1"))
        y = relu(self._norm(conv2d(y, self.params[f"{pre}.conv2.w"], stride=stride, pad=1),
                            f"{pre}.norm2"))
        y = self._norm(conv2d(y, self.params[f"{pre}.conv3.w"]), f"{pre}.norm3")
        if f"{pre}.down.w" in self.params:
            sc = self._norm(conv2d(x, self.params[f"{pre}.down.w"], stride=stride),
                            f"{pre}.down.norm")
        else:
            sc = x
        return relu(add(y, sc))

    def stem(self, images: Tensor) -> Tensor:
        """The first layer, conv -> norm -> relu; the max-pool follows it."""
        x = conv2d(images, self.params["stem.conv.w"], stride=2, pad=3)
        return relu(self._norm(x, "stem.norm"))

    def forward(self, images: Tensor, first=None) -> tuple[Tensor, Tensor]:
        """[B,3,H,W] -> (logits [B,K], features [B, final width]).

        ``first``, if given, runs the stem: it is called with the stem's
        zero-argument call and returns its output (``train._run_parts``
        records the stem onto a tape of its own this way).
        """
        if images.ndim != 4 or images.shape[1] != 3:
            raise ShapeError(f"resnet forward: expected [B,3,H,W], got {images.shape}")
        stem = partial(self.stem, images)
        x = maxpool2d(stem() if first is None else first(stem), 3, 2, 1)
        for s, blocks in enumerate(self.config.stage_blocks):
            for b in range(blocks):
                x = self.bottleneck_forward(x, s, b)
        feats = mean(x, axis=(2, 3))
        logits = add(matmul(feats, self.params["head.w"]), self.params["head.b"])
        return logits, feats

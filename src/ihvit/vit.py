"""Improved ViT branch: multi-channel patch segmentation, in-patch
convolution embedding, token-width unification, one shared encoder.

The image is tiled at several patch sizes (16 and 32 by default).  Each
channel embeds its patches either through a small conv stack or a plain
flatten, then a per-channel projection brings every channel's tokens to
a common width (75) so a single transformer encoder serves them all.
Per-channel class-token outputs are averaged into the branch feature.
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
    broadcast_to,
    concat,
    conv2d,
    conv_out_extent,
    gelu,
    matmul,
    maxpool2d,
    relu,
    reshape,
    scale,
    softmax,
    layernorm,
    transpose,
)
from .util import _build, bounded, check_fields

# each embed path's steps before the unify projection: (convolves, pools)
EMBED_PATHS = {"convblock": (True, True), "conv_only": (True, False), "linear": (False, False)}
# (kernel, stride, pad) of the in-patch conv and of the max-pool after it
_CONV = (7, 2, 3)
_POOL = (2, 2, 1)
# side of the square input every ViT arm tiles; load_split resizes to it
IMAGE_SIZE = 224


@dataclass(frozen=True)
class ChannelSpec:
    """One segmentation channel: patch size and embedding path."""

    patch: int = bounded(16, min=2)
    embed: str = bounded("convblock", among=tuple(EMBED_PATHS))

    def __post_init__(self):
        check_fields(self)

    def conv_spatial(self) -> tuple[int, int]:
        """(after-conv, after-pool) spatial extents for the conv paths."""
        s1 = conv_out_extent(self.patch, *_CONV)
        return s1, conv_out_extent(s1, *_POOL)

    @property
    def raw_dim(self) -> int:
        convolves, pools = EMBED_PATHS[self.embed]
        side = self.conv_spatial()[int(pools)] if convolves else self.patch
        return 3 * side ** 2

    def token_count(self) -> int:
        return (IMAGE_SIZE // self.patch) ** 2


@dataclass
class ViTConfig:
    channels: tuple[ChannelSpec, ...] = (
        ChannelSpec(16, "convblock"),
        ChannelSpec(32, "conv_only"),
    )
    dim: int = bounded(75, min=1)
    depth: int = bounded(6, min=1)
    heads: int = bounded(3, min=1)
    mlp_hidden: int = bounded(300, min=1)
    classes: int = bounded(6, min=2)

    def __post_init__(self):
        # a JSON document gives channels as a list of {patch, embed} objects
        if not isinstance(self.channels, (list, tuple)):
            raise ConfigError(f"ViTConfig.channels must be a list, got {self.channels!r:.60}")
        self.channels = tuple(ch if isinstance(ch, ChannelSpec)
                              else _build(ChannelSpec, ch, f"ViTConfig.channels[{i}]")
                              for i, ch in enumerate(self.channels))
        check_fields(self)
        if not self.channels:
            raise ConfigError("channels must not be empty")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        for ch in self.channels:
            if IMAGE_SIZE % ch.patch != 0:
                raise ConfigError(f"patch size {ch.patch} does not divide image size {IMAGE_SIZE}")


# ---------------------------------------------------------------------------
# segmentation


def patchify(img: Tensor, patch: int) -> Tensor:
    """Non-overlapping row-major tiling; [B,3,S,S] -> [B, (S/P)^2, 3, P, P]."""
    if img.ndim != 4:
        raise ShapeError(f"patchify: expected [B,3,S,S], got {img.shape}")
    b, c, h, s = img.shape
    if h != s or c != 3:
        raise ShapeError(f"patchify: expected square RGB input, got {img.shape}")
    if s % patch != 0:
        raise ConfigError(f"patchify: patch {patch} does not divide image size {s}")
    n_side = s // patch
    x = reshape(img, (b, 3, n_side, patch, n_side, patch))
    x = transpose(x, (0, 2, 4, 1, 3, 5))
    return reshape(x, (b, n_side * n_side, 3, patch, patch))


# ---------------------------------------------------------------------------
# in-patch embedding


def conv_embed(patches: Tensor, w: Tensor, b: Tensor, pool: bool) -> Tensor:
    """conv(``_CONV``) -> relu [-> maxpool(``_POOL``)] -> flatten; [M,3,P,P] -> [M, raw_dim].

    With the pool, 16x16 patches trace 16 -> 8 -> 5 and embed to width 75;
    without it, 32x32 patches trace 32 -> 16 and embed to width 768.
    """
    _, stride, pad = _CONV
    y = relu(conv2d(patches, w, b, stride=stride, pad=pad))
    if pool:
        y = maxpool2d(y, *_POOL)
    return reshape(y, (patches.shape[0], -1))


# ---------------------------------------------------------------------------
# encoder


def multi_head_attention(x: Tensor, params: dict, prefix: str, heads: int) -> tuple[Tensor, Tensor]:
    """Scaled dot-product self-attention; returns (output, weights).

    ``x`` is [B, n, d]; weights come back as [B, heads, n, n] with rows
    summing to 1.
    """
    bsz, n, d = x.shape
    hd = d // heads
    flat = reshape(x, (bsz * n, d))

    def proj(name):
        y = add(matmul(flat, params[f"{prefix}.w{name}"]), params[f"{prefix}.b{name}"])
        return transpose(reshape(y, (bsz, n, heads, hd)), (0, 2, 1, 3))

    q, k, v = proj("q"), proj("k"), proj("v")
    q = scale(q, 1.0 / np.sqrt(hd))  # [B, heads, n, hd]: n/hd times smaller than the scores
    weights = softmax(matmul(q, transpose(k, (0, 1, 3, 2))), axis=-1)
    ctx = matmul(weights, v)  # [B, heads, n, hd]
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (bsz * n, d))
    out = add(matmul(ctx, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])
    return reshape(out, (bsz, n, d)), weights


def _encode(tokens: Tensor, params: dict, cfg: ViTConfig) -> Tensor:
    """Pre-norm transformer stack shared by every channel."""
    bsz, n, d = tokens.shape
    for l in range(cfg.depth):
        h = layernorm(tokens, params[f"enc{l}.ln1.g"], params[f"enc{l}.ln1.b"])
        attn_out, _ = multi_head_attention(h, params, f"enc{l}.attn", cfg.heads)
        tokens = add(tokens, attn_out)
        h = layernorm(tokens, params[f"enc{l}.ln2.g"], params[f"enc{l}.ln2.b"])
        flat = reshape(h, (bsz * n, d))
        m = gelu(add(matmul(flat, params[f"enc{l}.mlp.w1"]), params[f"enc{l}.mlp.b1"]))
        m = add(matmul(m, params[f"enc{l}.mlp.w2"]), params[f"enc{l}.mlp.b2"])
        tokens = add(tokens, reshape(m, (bsz, n, d)))
    return tokens


# ---------------------------------------------------------------------------
# parameter initialization


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """N(0, 0.02^2), each draw beyond two standard deviations drawn again."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def kaiming_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ViTBranch:
    """Multi-channel ViT with a single shared encoder and linear head."""

    def __init__(self, config: ViTConfig, seed: int = 0, dtype: str = "f32"):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence((seed, 10)))
        d = config.dim
        p: dict[str, np.ndarray] = {"cls": trunc_normal(rng, (d,))}
        for i, ch in enumerate(config.channels):
            p[f"ch{i}.pos"] = trunc_normal(rng, (ch.token_count() + 1, d))
            if EMBED_PATHS[ch.embed][0]:  # a conv path
                p[f"ch{i}.conv.w"] = kaiming_uniform(rng, (3, 3, _CONV[0], _CONV[0]))
                p[f"ch{i}.conv.b"] = np.zeros(3)
            p[f"ch{i}.unify"] = trunc_normal(rng, (ch.raw_dim, d))
        for l in range(config.depth):
            for name in ("q", "k", "v", "o"):
                p[f"enc{l}.attn.w{name}"] = trunc_normal(rng, (d, d))
                p[f"enc{l}.attn.b{name}"] = np.zeros(d)
            p[f"enc{l}.ln1.g"] = np.ones(d)
            p[f"enc{l}.ln1.b"] = np.zeros(d)
            p[f"enc{l}.ln2.g"] = np.ones(d)
            p[f"enc{l}.ln2.b"] = np.zeros(d)
            p[f"enc{l}.mlp.w1"] = trunc_normal(rng, (d, config.mlp_hidden))
            p[f"enc{l}.mlp.b1"] = np.zeros(config.mlp_hidden)
            p[f"enc{l}.mlp.w2"] = trunc_normal(rng, (config.mlp_hidden, d))
            p[f"enc{l}.mlp.b2"] = np.zeros(d)
        p["head.w"] = trunc_normal(rng, (d, config.classes))
        p["head.b"] = np.zeros(config.classes)
        self.params = {k: Tensor(v, dtype=dtype, requires_grad=True) for k, v in p.items()}

    def embed_channel(self, images: Tensor, index: int) -> Tensor:
        """Patchify + embed + unify one channel; [B,3,S,S] -> [B, n, dim]."""
        cfg = self.config
        ch = cfg.channels[index]
        bsz = images.shape[0]
        n = ch.token_count()
        patches = patchify(images, ch.patch)
        flat_patches = reshape(patches, (bsz * n, 3, ch.patch, ch.patch))
        convolves, pools = EMBED_PATHS[ch.embed]
        if convolves:
            raw = conv_embed(flat_patches, self.params[f"ch{index}.conv.w"],
                             self.params[f"ch{index}.conv.b"], pool=pools)
        else:
            raw = reshape(flat_patches, (bsz * n, ch.raw_dim))
        unified = matmul(raw, self.params[f"ch{index}.unify"])
        return reshape(unified, (bsz, n, cfg.dim))

    def channel_feature(self, images: Tensor, index: int, cls_row: Tensor, *,
                        params: dict | None = None, first=None) -> Tensor:
        """Channel ``index``'s class-token output, [B,3,S,S] -> [B, dim].

        ``cls_row`` is the [1, 1, dim] class token, and ``params`` the
        encoder weights, the branch's own unless given: every channel reads
        both.  ``first``, if given, runs the channel's first layer,
        :meth:`embed_channel`: it is called with that zero-argument call and
        returns its output, as in :meth:`ResNetBranch.forward`.
        """
        cfg = self.config
        if images.ndim != 4 or images.shape[1:] != (3, IMAGE_SIZE, IMAGE_SIZE):
            raise ShapeError(
                f"vit forward: expected [B,3,{IMAGE_SIZE},{IMAGE_SIZE}], got {images.shape}"
            )
        bsz = images.shape[0]
        embed = partial(self.embed_channel, images, index)
        tokens = embed() if first is None else first(embed)
        seq = concat([broadcast_to(cls_row, (bsz, 1, cfg.dim)), tokens], axis=1)
        seq = add(seq, self.params[f"ch{index}.pos"])
        return _encode(seq, self.params if params is None else params, cfg)[:, 0, :]

    def head(self, feats: list[Tensor]) -> tuple[Tensor, Tensor]:
        """Channel outputs -> (logits [B,K], features [B,dim]), the features
        being the outputs' mean."""
        out = feats[0]
        for o in feats[1:]:
            out = add(out, o)
        if len(feats) > 1:
            out = scale(out, 1.0 / len(feats))
        logits = add(matmul(out, self.params["head.w"]), self.params["head.b"])
        return logits, out

    def forward(self, images: Tensor) -> tuple[Tensor, Tensor]:
        """[B,3,S,S] -> (logits [B,K], features [B,dim])."""
        cls_row = reshape(self.params["cls"], (1, 1, self.config.dim))
        return self.head([self.channel_feature(images, i, cls_row)
                          for i in range(len(self.config.channels))])

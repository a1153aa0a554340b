"""Release-gate invariant battery behind ``ihvit verify``.

Each check returns a detail string or raises; the CLI prints one row per
check and exits nonzero if any fail.  Each check calls the code in the
form the model runs it: patchify and decision_fuse take a batch, and the
compression figures are read off the widths the model's own 16-pixel
channels embed to.  The pytest suite runs the same ground more
exhaustively; this battery is the quick self-contained gate.  The
brute-force oracles below are the one reference both use.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import FormatError
from .pipeline import augment_all, read_ppm, write_ppm
from .resnet import ResNetBranch, ResNetConfig
from .tensor import Tensor, grad_check
from .train import FusionWeights, combined_loss, cosine_lr, decision_fuse
from .vit import ChannelSpec, ViTBranch, ViTConfig, multi_head_attention, patchify


def _require(ok: bool, detail: str) -> str:
    if not ok:
        raise AssertionError(detail)
    return detail


# -- brute-force oracles (shared with the test suite) ------------------------


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += float(a[i, l]) * float(b[l, j])
    return out


def conv_oracle(x, w, b, stride, pad):
    """Direct NCHW cross-correlation; ``b`` may be None."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, o, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0 if b is None else float(b[oi])
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += float(xp[ni, ci, yi * stride + ky, xi * stride + kx]) \
                                    * float(w[oi, ci, ky, kx])
                    out[ni, oi, yi, xi] = acc
    return out


def maxpool_oracle(x, k, stride, pad):
    n, c, h, w = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.full((n, c, h + 2 * pad, w + 2 * pad), -np.inf)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    out = np.zeros((n, c, oh, ow))
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    out[ni, ci, i, j] = xp[ni, ci,
                                           i * stride:i * stride + k,
                                           j * stride:j * stride + k].max()
    return out


def attention_oracle(x, params, prefix, heads):
    """Per-head, per-query self-attention over one [n, d] token matrix."""
    n, d = x.shape
    hd = d // heads
    q = x @ params[f"{prefix}.wq"].data + params[f"{prefix}.bq"].data
    k = x @ params[f"{prefix}.wk"].data + params[f"{prefix}.bk"].data
    v = x @ params[f"{prefix}.wv"].data + params[f"{prefix}.bv"].data
    ctx = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        for i in range(n):
            scores = np.array([q[i, sl] @ k[j, sl] / math.sqrt(hd) for j in range(n)])
            w = np.exp(scores - scores.max())
            w /= w.sum()
            for j in range(n):
                ctx[i, sl] += w[j] * v[j, sl]
    return ctx @ params[f"{prefix}.wo"].data + params[f"{prefix}.bo"].data


# -- gradient checks --------------------------------------------------------


def check_grad_matmul() -> str:
    rng = np.random.default_rng(101)
    a = Tensor(rng.normal(size=(3, 4)), dtype="f64")
    b = Tensor(rng.normal(size=(4, 2)), dtype="f64", requires_grad=True)
    c = Tensor(rng.normal(size=(3, 2)), dtype="f64")
    err = grad_check(lambda x: T.sum_(T.mul(T.matmul(x, b), c)), a)
    return _require(err <= 1e-5, f"max rel err {err:.2e}")


def check_grad_conv2d() -> str:
    # a 5x5 plane runs as one dense GEMM and a 9x9 one through im2col
    rng = np.random.default_rng(102)
    w = Tensor(rng.normal(size=(2, 2, 3, 3)), dtype="f64", requires_grad=True)
    bias = Tensor(rng.normal(size=(2,)), dtype="f64", requires_grad=True)
    errs = []
    for side, stride in ((5, 1), (9, 2)):
        oh = T.conv_out_extent(side, 3, stride, 1)
        c = Tensor(rng.normal(size=(1, 2, oh, oh)), dtype="f64")
        x = Tensor(rng.normal(size=(1, 2, side, side)), dtype="f64")
        errs.append(grad_check(
            lambda z: T.sum_(T.mul(T.conv2d(z, w, bias, stride=stride, pad=1), c)), x))
    return _require(max(errs) <= 1e-5, f"max rel err {max(errs):.2e}")


def check_grad_maxpool() -> str:
    rng = np.random.default_rng(103)
    c = Tensor(rng.normal(size=(1, 1, 4, 4)), dtype="f64")
    x = Tensor(rng.normal(size=(1, 1, 6, 6)), dtype="f64")
    err = grad_check(lambda z: T.sum_(T.mul(T.maxpool2d(z, 2, 2, 1), c)), x, h=1e-6)
    return _require(err <= 1e-5, f"max rel err {err:.2e}")


def check_grad_activations() -> str:
    rng = np.random.default_rng(104)
    worst = 0.0
    for op in (T.relu, T.gelu, T.softmax):
        c = Tensor(rng.normal(size=(4, 5)), dtype="f64")
        x = Tensor(rng.normal(size=(4, 5)) + 0.1, dtype="f64")
        worst = max(worst, grad_check(lambda z, op=op: T.sum_(T.mul(op(z), c)), x))
    return _require(worst <= 1e-5, f"max rel err {worst:.2e}")


def check_grad_norms() -> str:
    rng = np.random.default_rng(105)
    g = Tensor(rng.normal(size=(6,)), dtype="f64", requires_grad=True)
    b = Tensor(rng.normal(size=(6,)), dtype="f64", requires_grad=True)
    c = Tensor(rng.normal(size=(3, 6)), dtype="f64")
    x = Tensor(rng.normal(size=(3, 6)), dtype="f64")
    e1 = grad_check(lambda z: T.sum_(T.mul(T.layernorm(z, g, b), c)), x)
    gi = Tensor(np.ones(2), dtype="f64")
    bi = Tensor(np.zeros(2), dtype="f64")
    ci = Tensor(rng.normal(size=(2, 2, 4, 4)), dtype="f64")
    xi = Tensor(rng.normal(size=(2, 2, 4, 4)), dtype="f64")
    e2 = grad_check(lambda z: T.sum_(T.mul(T.instance_norm2d(z, gi, bi), ci)), xi)
    worst = max(e1, e2)
    return _require(worst <= 1e-5, f"max rel err {worst:.2e}")


def check_grad_cross_entropy() -> str:
    rng = np.random.default_rng(106)
    x = Tensor(rng.normal(size=(4, 5)), dtype="f64")
    err = grad_check(lambda z: T.cross_entropy(z, [0, 3, 2, 1]), x)
    return _require(err <= 1e-5, f"max rel err {err:.2e}")


def check_grad_combined_loss() -> str:
    rng = np.random.default_rng(107)
    b = Tensor(rng.normal(size=(3, 1)), dtype="f64")
    x = Tensor(rng.normal(size=(1, 3)), dtype="f64")

    def f(z):
        l1 = T.reshape(T.matmul(z, b), ())
        l2 = T.sum_(T.mul(z, z))
        return combined_loss([l1, l2], [1.0, 0.5])

    err = grad_check(f, x)
    return _require(err <= 1e-5, f"max rel err {err:.2e}")


# -- oracle equivalences ----------------------------------------------------


def check_oracle_matmul() -> str:
    rng = np.random.default_rng(201)
    a = rng.normal(size=(3, 5)).astype(np.float32)
    b = rng.normal(size=(5, 2)).astype(np.float32)
    got = T.matmul(Tensor(a), Tensor(b)).data
    err = np.abs(got - matmul_oracle(a, b)).max()
    return _require(err <= 1e-5, f"abs err {err:.2e}")


def check_oracle_conv2d() -> str:
    rng = np.random.default_rng(202)
    x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
    w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    b = rng.normal(size=(3,)).astype(np.float32)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=1).data
    err = np.abs(got - conv_oracle(x, w, b, 1, 1)).max()
    return _require(err <= 1e-5, f"abs err {err:.2e}")


def check_oracle_maxpool() -> str:
    rng = np.random.default_rng(203)
    x = rng.normal(size=(1, 1, 6, 6)).astype(np.float32)
    got = T.maxpool2d(Tensor(x), 2, 2, 0).data
    return _require(np.array_equal(got, maxpool_oracle(x, 2, 2, 0)), "exact window-scan match")


def check_oracle_softmax() -> str:
    rng = np.random.default_rng(204)
    x = rng.normal(size=(7,))
    got = T.softmax(Tensor(x, dtype="f64"), axis=-1).data
    want = np.exp(x) / np.exp(x).sum()
    err = np.abs(got - want).max()
    return _require(err <= 1e-7, f"abs err {err:.2e}")


def check_oracle_attention() -> str:
    rng = np.random.default_rng(205)
    d, heads = 6, 2
    params = {}
    for nm in ("q", "k", "v", "o"):
        params[f"a.w{nm}"] = Tensor(rng.normal(size=(d, d)), dtype="f64")
        params[f"a.b{nm}"] = Tensor(rng.normal(size=(d,)), dtype="f64")
    x = rng.normal(size=(1, 4, d))
    got, weights = multi_head_attention(Tensor(x, dtype="f64"), params, "a", heads)
    want = attention_oracle(x[0], params, "a", heads)
    err = np.abs(got.data[0] - want).max()
    rowsum = np.abs(weights.data.sum(-1) - 1).max()
    return _require(err <= 1e-5 and rowsum <= 1e-6,
                    f"abs err {err:.2e}, row-sum err {rowsum:.2e}")


# -- shape ledger -----------------------------------------------------------


def check_shape_tokens() -> str:
    imgs = Tensor(np.zeros((2, 3, 224, 224), dtype=np.float32))
    p16 = patchify(imgs, 16)
    p32 = patchify(imgs, 32)
    ok = p16.shape == (2, 196, 3, 16, 16) and p32.shape == (2, 49, 3, 32, 32)
    return _require(ok, f"tokens P16={p16.shape[1]}, P32={p32.shape[1]}")


def check_shape_embeds() -> str:
    cfg = ViTConfig(classes=2)
    model = ViTBranch(cfg, seed=0)
    imgs = Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))
    t16 = model.embed_channel(imgs, 0)
    t32 = model.embed_channel(imgs, 1)
    specs = cfg.channels
    ok = (t16.shape == (1, 196, 75) and t32.shape == (1, 49, 75)
          and specs[0].raw_dim == 75 and specs[1].raw_dim == 768
          and specs[0].conv_spatial() == (8, 5) and specs[1].conv_spatial()[0] == 16)
    return _require(ok, "convblock 16->8->5 dim 75; conv-only 32->16 dim 768; unify to width 75")


def check_shape_resnet50() -> str:
    model = ResNetBranch(ResNetConfig.resnet50(classes=4), seed=0)
    x = Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))
    h = T.maxpool2d(model.stem(x), 3, 2, 1)
    for s, blocks in enumerate(model.config.stage_blocks):
        for b in range(blocks):
            h = model.bottleneck_forward(h, s, b)
    logits, feats = model.forward(x)
    return _require(h.shape[2:] == (7, 7) and feats.shape[1] == 2048,
                    f"pre-pool map {h.shape[2]}x{h.shape[3]}, feature width {feats.shape[1]}")


def check_compression() -> str:
    conv = ChannelSpec(16, "convblock")
    flat = ChannelSpec(16, "linear").raw_dim
    ratio = conv.raw_dim / flat
    saving = (flat - conv.raw_dim) * conv.token_count()
    ok = ratio == 0.09765625 and f"{ratio:.2%}" == "9.77%" and saving == 135828
    return _require(ok, f"ratio {ratio} = {ratio:.2%} "
                        f"(reference rounds to 9.76%); per-image saving {saving}")


# -- artifact formats -------------------------------------------------------


def check_checkpoint_roundtrip() -> str:
    rng = np.random.default_rng(301)
    params = {"a.w": Tensor(rng.normal(size=(3, 4)).astype(np.float32)),
              "b": Tensor(rng.normal(size=(5,)).astype(np.float32))}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.ckpt")
        save_checkpoint(params, {"arm": "test"}, path)
        loaded, cfg = load_checkpoint(path)
        ok = all(np.array_equal(loaded[k], params[k].data) for k in params)
        ok = ok and cfg == {"arm": "test"}
        # corruption: truncate payload
        blob = open(path, "rb").read()
        trunc = os.path.join(d, "bad.ckpt")
        open(trunc, "wb").write(blob[:-3])
        try:
            load_checkpoint(trunc)
            ok = False
        except FormatError:
            pass
    return _require(ok, "bit-exact roundtrip; truncation rejected")


def check_ppm_roundtrip() -> str:
    rng = np.random.default_rng(302)
    px = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.ppm")
        write_ppm(px, path)
        back = read_ppm(path)
    return _require(np.array_equal(px, back), "byte-identical roundtrip")


def check_augment_count() -> str:
    rng = np.random.default_rng(303)
    img = rng.integers(0, 256, size=(24, 32, 3), dtype=np.uint8)
    variants = augment_all(img, seed=1)
    ok = len(variants) == 14 and all(v.shape == img.shape for v in variants)
    return _require(ok, f"{len(variants)} variants, dims preserved")


# -- fusion contracts -------------------------------------------------------


def check_fusion_contracts() -> str:
    l1 = Tensor(np.asarray(0.6), dtype="f64")
    l2 = Tensor(np.asarray(0.8), dtype="f64")
    ok = combined_loss([l1, l2], [1, 1]).item() == 0.7
    ok = ok and cosine_lr(0, 100, 0.001) == 0.001 and cosine_lr(100, 100, 0.001) == 0.0
    rng = np.random.default_rng(304)
    p = T.softmax(Tensor(rng.normal(size=(3, 4)), dtype="f64")).data
    q = T.softmax(Tensor(rng.normal(size=(3, 4)), dtype="f64")).data
    f1, pred1 = decision_fuse(p, q, FusionWeights(1.0, 1.0))
    f2, pred2 = decision_fuse(p, q, FusionWeights(3.0, 3.0))
    ok = ok and np.abs(f1.sum(axis=-1) - 1).max() <= 1e-6 and np.array_equal(pred1, pred2)
    return _require(ok, "combined_loss(0.6,0.8)=0.7; cosine endpoints; fuse scale-invariant")


CHECKS = [
    ("gradcheck/matmul", check_grad_matmul),
    ("gradcheck/conv2d", check_grad_conv2d),
    ("gradcheck/maxpool2d", check_grad_maxpool),
    ("gradcheck/activations", check_grad_activations),
    ("gradcheck/norms", check_grad_norms),
    ("gradcheck/cross_entropy", check_grad_cross_entropy),
    ("gradcheck/combined_loss", check_grad_combined_loss),
    ("oracle/matmul", check_oracle_matmul),
    ("oracle/conv2d", check_oracle_conv2d),
    ("oracle/maxpool2d", check_oracle_maxpool),
    ("oracle/softmax", check_oracle_softmax),
    ("oracle/attention", check_oracle_attention),
    ("shapes/patch-tokens", check_shape_tokens),
    ("shapes/channel-embeds", check_shape_embeds),
    ("shapes/resnet50-ledger", check_shape_resnet50),
    ("numbers/compression", check_compression),
    ("format/checkpoint", check_checkpoint_roundtrip),
    ("format/ppm", check_ppm_roundtrip),
    ("pipeline/augment-count", check_augment_count),
    ("fusion/contracts", check_fusion_contracts),
]


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn()
            results.append((name, True, detail))
        except Exception as e:
            results.append((name, False, f"{type(e).__name__}: {e}"))
    return results

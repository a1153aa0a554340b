"""Acceptance suite: one test per release criterion, one printed verdict line each.

Criteria are property-based plus exact reproduction of every closed-form
number the architecture commits to; headline training accuracies from the
reference tables are reported, never asserted.  The desk-scale learning
criterion (6) trains the full fused model and dominates the runtime.
"""

import time

import numpy as np
import pytest

from ihvit import tensor as T
from ihvit.errors import FormatError
from ihvit.pipeline import (
    Manifest,
    ManifestEntry,
    augment_all,
    balance_and_split,
)
from ihvit.resnet import ResNetBranch, ResNetConfig
from ihvit.synth import SynthConfig, gen_dataset
from ihvit.tensor import Tensor, cross_entropy, grad_check
from ihvit.train import (
    FusionWeights,
    TrainConfig,
    ablate,
    arm_from_checkpoint,
    build_arm,
    combined_loss,
    cosine_lr,
    decision_fuse,
    save_arm,
    train,
)
from ihvit.vit import ChannelSpec, ViTBranch, ViTConfig, patchify

from test_autodiff import OP_SUITE, _run_instances


def verdict(n, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {n} ({name}): {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_shape_ledger():
    imgs = Tensor(np.random.default_rng(0).random((2, 3, 224, 224)).astype(np.float32))
    p16 = patchify(imgs, 16)
    p32 = patchify(imgs, 32)
    ok = p16.shape == (2, 196, 3, 16, 16) and p32.shape == (2, 49, 3, 32, 32)

    spec16 = ChannelSpec(16, "convblock")
    spec32 = ChannelSpec(32, "conv_only")
    ok = ok and spec16.conv_spatial() == (8, 5) and spec16.raw_dim == 75
    ok = ok and spec32.conv_spatial()[0] == 16 and spec32.raw_dim == 768

    model = ViTBranch(ViTConfig(classes=2), seed=0)
    batch = Tensor(np.random.default_rng(1).random((1, 3, 224, 224)).astype(np.float32))
    t16 = model.embed_channel(batch, 0)
    t32 = model.embed_channel(batch, 1)
    ok = ok and t16.shape == (1, 196, 75) and t32.shape == (1, 49, 75)
    verdict(1, "shape ledger", ok,
            "tokens 196/49, convblock 16->8->5 width 75, conv-only 32->16 width 768, "
            "unified 196x75 and 49x75")


def test_criterion_2_compression_arithmetic():
    # the widths and token count the model's own 16-px channels embed to
    conv = ChannelSpec(16, "convblock")
    flat = ChannelSpec(16, "linear").raw_dim
    ratio = conv.raw_dim / flat
    ok = ratio == 75 / 768 == 0.09765625
    ok = ok and f"{ratio:.2%}" == "9.77%"
    saving = (flat - conv.raw_dim) * conv.token_count()
    ok = ok and saving == (768 - 75) * 196 == 135828
    verdict(2, "compression arithmetic", ok,
            f"ratio {ratio} ({ratio:.2%}, reference prints 9.76%), "
            f"per-image saving {saving} (reference's 13528 is a misprint)")


def test_criterion_3_gradient_suite():
    start = time.monotonic()
    worst64 = 0.0
    worst32 = 0.0
    for name, mk, h64, h32 in OP_SUITE:
        worst64 = max(worst64, _run_instances(mk, 10, "f64", h64))
        worst32 = max(worst32, _run_instances(mk, 10, "f32", h32))
    ok = worst64 <= 1e-5 and worst32 <= 1e-3

    tiny = ViTConfig(depth=1, heads=1, dim=15, mlp_hidden=30, classes=3)
    img64 = Tensor(np.random.default_rng(5).uniform(0, 1, (1, 3, 224, 224)), dtype="f64")
    img32 = Tensor(img64.data.astype(np.float32))

    def net_loss(model, img):
        def f(_):
            logits, _f = model.forward(img)
            return cross_entropy(logits, [1])
        return f

    vit64 = ViTBranch(tiny, seed=1, dtype="f64")
    e = grad_check(net_loss(vit64, img64), vit64.params["cls"], h=1e-5)
    worst64 = max(worst64, e)
    vit32 = ViTBranch(tiny, seed=1, dtype="f32")
    worst32 = max(worst32, grad_check(net_loss(vit32, img32), vit32.params["head.b"], h=0.05))

    # a different probe image for the CNN branch: rng(5)'s happens to park one
    # stem activation within ~5e-8 of the relu kink, which biases any central
    # difference regardless of step size
    rimg64 = Tensor(np.random.default_rng(8).uniform(0, 1, (1, 3, 224, 224)), dtype="f64")
    rimg32 = Tensor(rimg64.data.astype(np.float32))
    rn64 = ResNetBranch(ResNetConfig.desk(classes=3), seed=1, dtype="f64")
    worst64 = max(worst64, grad_check(net_loss(rn64, rimg64), rn64.params["stem.norm.g"], h=1e-7))
    rn32 = ResNetBranch(ResNetConfig.desk(classes=3), seed=1, dtype="f32")
    worst32 = max(worst32, grad_check(net_loss(rn32, rimg32), rn32.params["head.b"], h=0.05))

    elapsed = time.monotonic() - start
    ok = ok and worst64 <= 1e-5 and worst32 <= 1e-3 and elapsed <= 300
    verdict(3, "gradient suite", ok,
            f"max rel err f64 {worst64:.2e} (<=1e-5), f32 {worst32:.2e} (<=1e-3), "
            f"{elapsed:.0f}s (<=300s)")


def test_criterion_4_oracle_equivalence():
    from test_tensor_ops import conv_oracle, matmul_oracle, maxpool_oracle
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(5):
        a = rng.normal(size=(4, 6)).astype(np.float32)
        b = rng.normal(size=(6, 3)).astype(np.float32)
        worst = max(worst, np.abs(T.matmul(Tensor(a), Tensor(b)).data
                                  - matmul_oracle(a, b)).max())
        x = rng.normal(size=(1, 2, 7, 7)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        bias = rng.normal(size=3).astype(np.float32)
        worst = max(worst, np.abs(T.conv2d(Tensor(x), Tensor(w), Tensor(bias), 2, 1).data
                                  - conv_oracle(x, w, bias, 2, 1)).max())
        xp = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        worst = max(worst, np.abs(T.maxpool2d(Tensor(xp), 2, 2, 1).data
                                  - maxpool_oracle(xp, 2, 2, 1)).max())
        v = rng.normal(size=(3, 7)).astype(np.float32)
        sm = np.exp(v - v.max(1, keepdims=True))
        sm /= sm.sum(1, keepdims=True)
        worst = max(worst, np.abs(T.softmax(Tensor(v), -1).data - sm).max())
        ln_x = rng.normal(size=(3, 6)).astype(np.float32)
        g = rng.normal(size=6).astype(np.float32)
        beta = rng.normal(size=6).astype(np.float32)
        mu = ln_x.mean(-1, keepdims=True)
        var = ln_x.var(-1, keepdims=True)
        want = (ln_x - mu) / np.sqrt(var + 1e-5) * g + beta
        worst = max(worst, np.abs(
            T.layernorm(Tensor(ln_x), Tensor(g), Tensor(beta)).data - want).max())

    from ihvit.verify import attention_oracle
    from ihvit.vit import multi_head_attention
    for seed in range(5):
        r2 = np.random.default_rng(200 + seed)
        d, heads, n = 6, 2, 5
        params = {}
        for nm in ("q", "k", "v", "o"):
            params[f"a.w{nm}"] = Tensor(r2.normal(size=(d, d)).astype(np.float32))
            params[f"a.b{nm}"] = Tensor(r2.normal(size=(d,)).astype(np.float32))
        x = r2.normal(size=(1, n, d)).astype(np.float32)
        got, _ = multi_head_attention(Tensor(x), params, "a", heads)
        want = attention_oracle(x[0], params, "a", heads)
        worst = max(worst, float(np.abs(got.data[0] - want).max()))
    verdict(4, "oracle equivalence", worst <= 1e-5, f"max abs err {worst:.2e} (<=1e-5)")


def test_criterion_5_pipeline_counts():
    rng = np.random.default_rng(0)
    variants = augment_all(rng.integers(0, 256, (30, 40, 3), dtype=np.uint8), seed=1)
    ok = len(variants) == 14

    # a 542-entry defect manifest expands by exactly 14 per original: 7588 rows
    expanded = 542 * len(variants)
    ok = ok and expanded == 7588

    entries = []
    counts = {0: 41, 1: 13, 2: 29, 3: 7}
    for label, n in counts.items():
        for i in range(n):
            entries.append(ManifestEntry(path=f"{label}_{i}.ppm", label=label,
                                         defect_free=label == 0))
    split = balance_and_split(Manifest(seed=1, entries=entries), 0.8, seed=2)
    tags = {e.path: e.split for e in split.entries}
    ok = ok and set(tags.values()) == {"train", "test"}
    fractions = []
    for label, n in counts.items():
        k = sum(1 for e in split.entries if e.label == label and e.split == "train")
        fractions.append(k / n)
        ok = ok and (0.8 - 1 / n) <= k / n <= 0.8
    verdict(5, "pipeline counts", ok,
            f"14 variants/image, 542 -> {expanded} augmented rows, "
            f"per-class train fractions {['%.3f' % f for f in fractions]} within [0.8-1/n, 0.8]")


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    cfg = SynthConfig(
        seed=11, resolutions=((224, 224),), resolution_weights=(1.0,),
        counts={name: 125 for name in
                ("normal", "scratch", "missing_char", "pin_defect",
                 "uneven_char", "glue_blob")},
    )
    manifest = balance_and_split(gen_dataset(cfg, root), 0.8, seed=11)
    manifest.save(root / "manifest.json")
    return root, manifest


def test_criterion_6_desk_scale_learning(desk_dataset):
    root, manifest = desk_dataset
    n_train = len(manifest.subset("train"))
    n_test = len(manifest.subset("test"))
    assert (n_train, n_test) == (600, 150)

    start = time.monotonic()
    arm = build_arm("ih-vit", ViTConfig(classes=6), ResNetConfig.desk(classes=6), seed=11)
    cfg = TrainConfig(epochs=20, batch_size=8, seed=11,
                      target_accuracy=0.90, min_epochs=6)
    report = train(arm, manifest, root, cfg)
    elapsed = time.monotonic() - start

    best = max(report.acc_curve)
    ok = best >= 0.90 and report.epochs_run <= 20
    ok = ok and elapsed <= 1800
    # 5-epoch moving average of the training loss must strictly decrease
    curve = report.loss_curve
    ma = [float(np.mean(curve[i:i + 5])) for i in range(len(curve) - 4)]
    ok = ok and len(ma) >= 2 and all(b < a for a, b in zip(ma, ma[1:]))
    verdict(6, "desk-scale learning", ok,
            f"best test acc {100 * best:.1f}% (>=90%) in {report.epochs_run} epochs "
            f"(<=20), {elapsed / 60:.1f} min (<=30), loss MA(5) strictly decreasing "
            f"{['%.3f' % v for v in ma]}")


def test_criterion_7_ablation_harness(tmp_path):
    cfg = SynthConfig(seed=4, resolutions=((224, 224),), resolution_weights=(1.0,),
                      counts={"normal": 8, "scratch": 4, "missing_char": 4,
                              "pin_defect": 4, "uneven_char": 4, "glue_blob": 4},
                      noise_sigma=1.0)
    manifest = balance_and_split(gen_dataset(cfg, tmp_path), 0.8, seed=4)
    vit_cfg = ViTConfig(depth=1, heads=1, dim=15, mlp_hidden=30, classes=6)
    rn_cfg = ResNetConfig(stem_width=8, stage_blocks=(1, 1), stage_widths=(16, 32), classes=6)
    tc = TrainConfig(epochs=1, batch_size=16, seed=4)
    rep1 = ablate(manifest, tmp_path, vit_cfg, rn_cfg, tc)
    rep2 = ablate(manifest, tmp_path, vit_cfg, rn_cfg, tc)
    names = [r["name"] for r in rep1.rows]
    ok = names == ["ResNet50", "ViT", "ViT+Conv", "2channel-ViT", "IH-ViT"]
    refs = {r["name"]: r["reference_acc"] for r in rep1.rows}
    ok = ok and refs == {"ResNet50": 69.71, "ViT": 66.45, "ViT+Conv": 69.18,
                         "2channel-ViT": 67.83, "IH-ViT": 72.51}
    ok = ok and all("accuracy" in r for r in rep1.rows)
    ok = ok and rep1.identity_json() == rep2.identity_json()
    verdict(7, "ablation harness", ok,
            f"rows {names}; reference column reported, not asserted; reruns identical")


def test_criterion_8_checkpoint_roundtrip(tmp_path):
    vit_cfg = ViTConfig(depth=1, heads=1, dim=15, mlp_hidden=30, classes=4)
    rn_cfg = ResNetConfig(stem_width=8, stage_blocks=(1,), stage_widths=(16,), classes=4)
    arm = build_arm("ih-vit", vit_cfg, rn_cfg, seed=3)
    path = tmp_path / "arm.ckpt"
    save_arm(arm, path)
    restored = arm_from_checkpoint(path)
    params, restored_params = arm.parameters(), restored.parameters()
    ok = set(params) == set(restored_params)
    ok = ok and all(params[k].data.tobytes() == restored_params[k].data.tobytes()
                    for k in params)
    batch = Tensor(np.random.default_rng(8).random((2, 3, 224, 224)).astype(np.float32))
    a = arm.branch_logits(batch)
    b = restored.branch_logits(batch)
    ok = ok and all(a[k].data.tobytes() == b[k].data.tobytes() for k in a)

    blob = path.read_bytes()
    rejected = 0
    for bad_bytes, bad_path in ((blob[:-9], "t.ckpt"), (b"XXXX" + blob[4:], "m.ckpt")):
        p = tmp_path / bad_path
        p.write_bytes(bad_bytes)
        try:
            arm_from_checkpoint(p)
        except FormatError:
            rejected += 1
    ok = ok and rejected == 2
    verdict(8, "checkpoint roundtrip", ok,
            "bit-identical parameters and logits; truncation and bad magic rejected")


def test_criterion_9_determinism(tmp_path):
    import json

    from ihvit.cli import main

    sets = [
        "--set", 'synth.resolutions=[[224,224]]',
        "--set", 'synth.resolution_weights=[1.0]',
        "--set", ('synth.counts={"normal":6,"scratch":3,"missing_char":3,'
                  '"pin_defect":3,"uneven_char":3,"glue_blob":3}'),
        "--set", "model.vit.depth=1", "--set", "model.vit.heads=1",
        "--set", "model.vit.dim=15", "--set", "model.vit.mlp_hidden=30",
        "--set", "model.resnet.stem_width=8",
        "--set", "model.resnet.stage_blocks=[1,1]",
        "--set", "model.resnet.stage_widths=[16,32]",
        "--set", "train.batch_size=16",
    ]
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data), "--seed", "21"] + sets) == 0
    assert main(["split", "--manifest", str(data / "manifest.json"), "--seed", "21"]) == 0
    reports = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        rc = main(["train", "--manifest", str(data / "manifest.json"), "--arm", "ih-vit",
                   "--out", str(out), "--epochs", "2", "--seed", "21"] + sets)
        assert rc == 0
        rep = json.loads((out / "ih-vit.report.json").read_text())
        rep.pop("wall_seconds")
        reports.append(json.dumps(rep, sort_keys=True))
    ok = reports[0] == reports[1]
    verdict(9, "determinism", ok, "two cmd_train runs emitted identical reports")


def test_criterion_10_fusion_contracts():
    l1 = Tensor(np.asarray(0.6), dtype="f64")
    l2 = Tensor(np.asarray(0.8), dtype="f64")
    ok = combined_loss([l1, l2], [1, 1]).item() == 0.7

    rng = np.random.default_rng(10)
    p = rng.dirichlet(np.ones(6), size=4)
    q = rng.dirichlet(np.ones(6), size=4)
    fused, pred = decision_fuse(p, q, FusionWeights(1.0, 1.0))
    ok = ok and np.abs(fused.sum(axis=-1) - 1.0).max() <= 1e-6
    for scale in (0.5, 2.0, 17.0):
        _, pred_s = decision_fuse(p, q, FusionWeights(scale, scale))
        ok = ok and np.array_equal(pred_s, pred)

    ok = ok and cosine_lr(0, 777, 0.001) == 0.001
    ok = ok and cosine_lr(777, 777, 0.001) == 0.0
    ok = ok and cosine_lr(777, 777, 0.001, lr_min=1e-5) == 1e-5
    verdict(10, "fusion contracts", ok,
            "combined_loss((0.6,0.8),(1,1)) == 0.7 exactly; fused probs sum to 1, "
            "argmax scale-invariant; cosine endpoints exact")

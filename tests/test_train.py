"""Fusion loss, decision fusion, schedule, Adam, checkpointing, training."""

import json
import math
import os
import tracemalloc
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihvit import util, vit
from ihvit.checkpoint import load_checkpoint, save_checkpoint
from ihvit.errors import ConfigError, FormatError, InputError
from ihvit.pipeline import balance_and_split
from ihvit.resnet import ResNetConfig
from ihvit.synth import SynthConfig, gen_dataset
from ihvit.tensor import NumericsError, Tape, Tensor, UsageError, cross_entropy, softmax
from ihvit.train import (
    ARM_DISPLAY,
    ARM_ORDER,
    REFERENCE_ACC,
    Adam,
    Arm,
    FusionWeights,
    MetricsReport,
    TrainConfig,
    _batch_tensor,
    _forward_backward,
    ablate,
    arm_from_checkpoint,
    build_arm,
    combined_loss,
    cosine_lr,
    decision_fuse,
    evaluate,
    load_split,
    save_arm,
    train,
)
from ihvit.vit import ViTConfig

TINY_VIT = ViTConfig(depth=1, heads=1, dim=15, mlp_hidden=30, classes=6)
TINY_RESNET = ResNetConfig(stem_width=8, stage_blocks=(1, 1), stage_widths=(16, 32), classes=6)


def scalar(v, dtype="f64"):
    return Tensor(np.asarray(v, dtype=np.float64 if dtype == "f64" else np.float32))


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = SynthConfig(
        seed=5, resolutions=((224, 224),), resolution_weights=(1.0,),
        counts={"normal": 10, "scratch": 4, "missing_char": 4, "pin_defect": 4,
                "uneven_char": 4, "glue_blob": 4}, noise_sigma=1.0,
    )
    manifest = gen_dataset(cfg, root)
    manifest = balance_and_split(manifest, 0.8, seed=1)
    manifest.save(root / "manifest.json")
    return root, manifest


class TestCombinedLoss:
    def test_paper_substitution(self):
        assert combined_loss([scalar(0.6), scalar(0.8)], [1, 1]).item() == 0.7

    def test_single_branch_reduction(self):
        assert combined_loss([scalar(1.37)], [1.0]).item() == 1.37

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fsum_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        losses = [scalar(v) for v in rng.uniform(0.01, 3.0, size=rng.integers(1, 5))]
        weights = rng.uniform(0.2, 2.0, size=len(losses)).tolist()
        want = abs(math.fsum(w * l.item() for w, l in zip(weights, losses))) / len(losses)
        assert combined_loss(losses, weights).item() == want

    def test_unit_weights_equal_mean_for_nonnegative(self):
        vals = [0.3, 1.1, 0.25]
        got = combined_loss([scalar(v) for v in vals]).item()
        assert got == pytest.approx(np.mean(vals), abs=1e-15)

    def test_gradient_reaches_every_branch(self):
        a = Tensor(np.asarray(0.5), requires_grad=True, dtype="f64")
        b = Tensor(np.asarray(1.5), requires_grad=True, dtype="f64")
        with Tape() as tape:
            loss = combined_loss([a, b], [1.0, 2.0])
        tape.backward(loss)
        assert a.grad == pytest.approx(0.5)    # sign * w / n = 1 * 1 / 2
        assert b.grad == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            combined_loss([scalar(1.0)], [1.0, 2.0])


class TestDecisionFuse:
    def test_identical_distributions_fixed_point(self):
        p = np.array([0.2, 0.5, 0.3])
        fused, pred = decision_fuse(p, p)
        assert np.allclose(fused, p, atol=1e-12)
        assert pred == 1

    def test_agreeing_one_hots(self):
        p = np.zeros(5)
        p[2] = 1.0
        fused, pred = decision_fuse(p, p)
        assert pred == 2 and fused[2] == 1.0

    def test_tie_breaks_to_lowest_class(self):
        p = np.array([0.5, 0.5])
        fused, pred = decision_fuse(p, p[::-1].copy())
        assert pred == 0

    @given(st.integers(0, 10 ** 6), st.floats(0.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_argmax_invariant_under_common_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        f1, pred1 = decision_fuse(p, q, FusionWeights(1.0, 1.0))
        f2, pred2 = decision_fuse(p, q, FusionWeights(scale, scale))
        assert pred1 == pred2
        assert abs(f1.sum() - 1.0) <= 1e-6 and abs(f2.sum() - 1.0) <= 1e-6

    def test_batched(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(4), size=3)
        q = rng.dirichlet(np.ones(4), size=3)
        fused, preds = decision_fuse(p, q)
        assert fused.shape == (3, 4) and preds.shape == (3,)
        assert np.abs(fused.sum(-1) - 1.0).max() <= 1e-6

    def test_unnormalized_input_rejected(self):
        with pytest.raises(InputError, match="probability"):
            decision_fuse(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_weights_must_be_positive(self):
        with pytest.raises(ConfigError):
            FusionWeights(0.0, 1.0)


class TestCosineLr:
    def test_endpoints_exact(self):
        assert cosine_lr(0, 1000, 0.001) == 0.001
        assert cosine_lr(1000, 1000, 0.001) == 0.0
        assert cosine_lr(1000, 1000, 0.001, lr_min=1e-5) == 1e-5

    def test_midpoint(self):
        assert cosine_lr(500, 1000, 0.001) == 0.0005

    def test_clamps_past_total(self):
        assert cosine_lr(1500, 1000, 0.001, lr_min=1e-6) == 1e-6

    def test_monotone_nonincreasing(self):
        lrs = [cosine_lr(s, 200, 0.001) for s in range(201)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert all(0.0 <= lr <= 0.001 for lr in lrs)


def adam_on(value, grad, lr, **cfg):
    """One Adam step on a lone parameter ``w``; returns the optimizer."""
    w = Tensor(np.asarray(value), requires_grad=True)
    adam = Adam({"w": w}, TrainConfig(**{"weight_decay": 0.0, **cfg}))
    w.grad = np.asarray(grad)
    adam.step(lr)
    return adam


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        adam = adam_on(np.ones(4, dtype=np.float32), np.zeros(4, dtype=np.float32), lr=0.1)
        assert np.array_equal(adam.params["w"].data, np.ones(4, dtype=np.float32))

    def test_first_step_is_bias_corrected(self):
        adam = adam_on(np.zeros(1), np.ones(1), lr=0.01)
        assert adam.params["w"].data[0] == pytest.approx(-0.01, rel=1e-6)
        assert adam.t == 1 and adam.params["w"].grad is None

    def test_descent_on_quadratic(self):
        x = Tensor(np.array([5.0]), requires_grad=True)
        adam = Adam({"x": x}, TrainConfig(weight_decay=0.0))
        vals = []
        for _ in range(10):
            vals.append(float(x.data[0] ** 2))
            x.grad = 2 * x.data
            adam.step(0.1)
        assert float(x.data[0] ** 2) < vals[0]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert adam.t == 10 and set(adam.m) == set(adam.v) == {"x"}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError, match=r"gradient shape \(4,\) != parameter shape \(3,\)"):
            adam_on(np.zeros(3), np.zeros(4), lr=0.1)

    def test_l2_term_pulls_toward_zero(self):
        adam = adam_on(np.full(1, 2.0), np.zeros(1), lr=0.1, weight_decay=0.1)
        assert adam.params["w"].data[0] < 2.0


class TestCheckpoint:
    def _params(self):
        rng = np.random.default_rng(3)
        return {
            "vit.head.w": Tensor(rng.normal(size=(5, 3)).astype(np.float32)),
            "resnet.stem.conv.w": Tensor(rng.normal(size=(4, 3, 7, 7)).astype(np.float32)),
            "scalarish": Tensor(rng.normal(size=(1,)).astype(np.float32)),
        }

    def test_bit_exact_roundtrip(self, tmp_path):
        params = self._params()
        save_checkpoint(params, {"arm": "ih-vit"}, tmp_path / "m.ckpt")
        loaded, config = load_checkpoint(tmp_path / "m.ckpt")
        assert config == {"arm": "ih-vit"}
        for k, t in params.items():
            assert loaded[k].tobytes() == t.data.tobytes()

    def test_offsets_reconstruct_payload_length(self, tmp_path):
        params = self._params()
        save_checkpoint(params, {}, tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + hlen])
        total = sum(4 * int(np.prod(e["shape"])) for e in header["tensors"])
        assert total == sum(4 * t.size for t in params.values())
        assert len(blob) - 16 - hlen == total
        offsets = [e["offset"] for e in header["tensors"]]
        assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)

    def test_zero_size_and_transposed_tensors_roundtrip(self, tmp_path):
        # a zero-size tensor starts where the next one starts; a transposed
        # view is written in C order
        t = np.arange(12, dtype=np.float32).reshape(3, 4).T
        assert not t.flags.c_contiguous
        params = {"a": np.zeros(0, dtype=np.float32), "b": np.ones(3, dtype=np.float32),
                  "c": np.zeros((2, 0), dtype=np.float32), "d": t}
        save_checkpoint({k: Tensor(v) for k, v in params.items()}, {}, tmp_path / "m.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        for k, v in params.items():
            assert loaded[k].shape == v.shape and loaded[k].tobytes() == v.tobytes(), k

    def test_truncated_payload_names_counts(self, tmp_path):
        save_checkpoint(self._params(), {}, tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "bad.ckpt").write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="expected"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_file_cut_short_while_read_refused(self, tmp_path, monkeypatch):
        save_checkpoint(self._params(), {}, tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "m.ckpt").write_bytes(blob[:-5])
        with monkeypatch.context() as m:  # the size read before the file was cut
            m.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
            with pytest.raises(FormatError, match="payload ends inside tensor 'vit.head.w'"):
                load_checkpoint(tmp_path / "m.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_bad_version_rejected(self, tmp_path):
        save_checkpoint(self._params(), {}, tmp_path / "m.ckpt")
        blob = bytearray((tmp_path / "m.ckpt").read_bytes())
        blob[4] = 99
        (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_refused_at_load(self, tmp_path, value):
        path = tmp_path / "vit.ckpt"
        save_arm(build_arm("vit", TINY_VIT, TINY_RESNET, seed=0), path)
        blob = bytearray(path.read_bytes())
        hlen = int.from_bytes(blob[8:16], "little")
        first = min(json.loads(blob[16:16 + hlen])["tensors"], key=lambda e: e["offset"])
        blob[16 + hlen:20 + hlen] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"vit.ckpt: tensor '{first['name']}' holds NaN or Inf"):
            arm_from_checkpoint(path)

    def test_f64_params_refused(self, tmp_path):
        with pytest.raises(UsageError, match="f32"):
            save_checkpoint({"w": Tensor(np.zeros(3), dtype="f64")}, {}, tmp_path / "m.ckpt")

    @pytest.mark.parametrize("name, vit_cfg, resnet_cfg", [
        ("ih-vit", ViTConfig(), ResNetConfig.desk()),
        ("vit-conv", TINY_VIT, TINY_RESNET),
    ])
    def test_load_draws_no_weights(self, tmp_path, monkeypatch, name, vit_cfg, resnet_cfg):
        arm = build_arm(name, vit_cfg, resnet_cfg, seed=4)
        save_arm(arm, tmp_path / "arm.ckpt")
        x = Tensor(np.random.default_rng(0).random((2, 3, 224, 224), dtype=np.float32))

        def refuse(*args, **kwargs):
            raise AssertionError("the load drew weights")

        with monkeypatch.context() as m:
            for module, attr in ((vit, "trunc_normal"), (vit, "kaiming_uniform"),
                                 (np.random, "default_rng")):
                m.setattr(module, attr, refuse)
            restored = arm_from_checkpoint(tmp_path / "arm.ckpt")
        saved = arm.parameters()
        assert list(restored.parameters()) == list(saved)
        for k, t in restored.parameters().items():
            assert t.data.tobytes() == saved[k].data.tobytes(), k
        assert restored.predict_probs(x).tobytes() == arm.predict_probs(x).tobytes()


class TestArms:
    def test_all_five_arms_build(self):
        for name in ARM_ORDER:
            arm = build_arm(name, TINY_VIT, TINY_RESNET, seed=0)
            expected = {"resnet": ["resnet"], "ih-vit": ["resnet", "vit"]}.get(name, ["vit"])
            assert list(arm.branches) == expected

    def test_arm_channel_layouts(self):
        vit = build_arm("vit", TINY_VIT, TINY_RESNET, seed=0).branches["vit"]
        assert [c.embed for c in vit.config.channels] == ["linear"]
        conv = build_arm("vit-conv", TINY_VIT, TINY_RESNET, seed=0).branches["vit"]
        assert [c.embed for c in conv.config.channels] == ["convblock"]
        two = build_arm("vit-2ch", TINY_VIT, TINY_RESNET, seed=0).branches["vit"]
        assert [c.embed for c in two.config.channels] == ["linear", "linear"]
        assert [c.patch for c in two.config.channels] == [16, 32]
        ih = build_arm("ih-vit", TINY_VIT, TINY_RESNET, seed=0).branches["vit"]
        assert [c.embed for c in ih.config.channels] == ["convblock", "conv_only"]

    def test_single_branch_arm_scores_one_branch_of_the_fused_arm(self):
        # an arm holding one branch of the fused arm shares its weights and
        # gives that branch's probabilities alone, bit for bit
        fused = build_arm("ih-vit", ViTConfig(classes=6), ResNetConfig.desk(classes=6), seed=4)
        x = _batch_tensor(np.random.default_rng(4).integers(0, 256, (5, 224, 224, 3),
                                                            dtype=np.uint8))
        logits = fused.branch_logits(x)
        for k in ("resnet", "vit"):
            alone = Arm(k, {k: fused.branches[k]})
            expected = softmax(logits[k], axis=-1).data
            assert alone.predict_probs(x).tobytes() == expected.tobytes(), k

    def test_branch_class_mismatch_rejected_at_build(self):
        # the fused arm averages the two branches' class probabilities
        with pytest.raises(ConfigError, match="classes differ: 7 vs 6"):
            build_arm("ih-vit", TINY_VIT, replace(TINY_RESNET, classes=7))
        assert build_arm("resnet", TINY_VIT, ResNetConfig(classes=7)).classes == 7

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigError):
            build_arm("vgg", TINY_VIT, TINY_RESNET)

    def test_display_names_and_references(self):
        assert [ARM_DISPLAY[a] for a in ARM_ORDER] == [
            "ResNet50", "ViT", "ViT+Conv", "2channel-ViT", "IH-ViT"]
        assert REFERENCE_ACC["IH-ViT"] == 72.51
        assert REFERENCE_ACC["ResNet50"] == 69.71
        assert REFERENCE_ACC["ViT"] == 66.45
        assert REFERENCE_ACC["ViT+Conv"] == 69.18
        assert REFERENCE_ACC["2channel-ViT"] == 67.83


class TestTrain:
    def test_one_epoch_batch_equals_data_is_one_step(self, tmp_path):
        cfg = SynthConfig(seed=2, resolutions=((224, 224),), resolution_weights=(1.0,),
                          counts={"normal": 5, "scratch": 5})
        manifest = balance_and_split(gen_dataset(cfg, tmp_path), 0.8, seed=0)
        tc = TrainConfig(epochs=1, batch_size=8, seed=0)
        arm = build_arm("vit-conv",
                        ViTConfig(depth=1, heads=1, dim=15, mlp_hidden=30, classes=2),
                        ResNetConfig(stem_width=8, stage_blocks=(1,), stage_widths=(16,),
                                     classes=2),
                        seed=0)
        report = train(arm, manifest, tmp_path, tc)
        assert report.steps_run == 1
        assert report.epochs_run == 1 and len(report.loss_curve) == 1

    def test_ih_vit_loss_is_two_branch_average(self, tiny_dataset):
        root, manifest = tiny_dataset
        train_x, train_y = load_split(manifest, root, "train")
        arm = build_arm("ih-vit", TINY_VIT, TINY_RESNET, seed=1)
        x = _batch_tensor(train_x[:4])
        logits = arm.branch_logits(x)
        losses = [cross_entropy(l, train_y[:4]) for l in logits.values()]
        fused = combined_loss(losses, arm.branch_weights())
        want = abs(math.fsum(l.item() for l in losses)) / 2
        assert fused.data == np.float32(want)  # exact accumulation, f32 storage

    def test_descent_and_report_invariants(self, tiny_dataset):
        root, manifest = tiny_dataset
        arm = build_arm("ih-vit", TINY_VIT, TINY_RESNET, seed=3)
        report = train(arm, manifest, root, TrainConfig(epochs=3, batch_size=8, seed=3))
        assert report.loss_curve[-1] < report.loss_curve[0]
        conf = np.array(report.confusion)
        assert report.accuracy == pytest.approx(np.trace(conf) / conf.sum())
        test_counts = {}
        for e in manifest.subset("test"):
            test_counts[e.label] = test_counts.get(e.label, 0) + 1
        for label, n in test_counts.items():
            assert conf[label].sum() == n

    def test_class_count_below_labels_refused_before_loading(self, tiny_dataset, monkeypatch):
        import ihvit.train as train_mod
        root, manifest = tiny_dataset
        reads = []
        monkeypatch.setattr(train_mod, "read_ppm", lambda path: reads.append(path))
        arm = build_arm("ih-vit", replace(TINY_VIT, classes=3), replace(TINY_RESNET, classes=3),
                        seed=3)
        with pytest.raises(InputError, match="label 5 .* 3 classes"):
            train(arm, manifest, root, TrainConfig(epochs=1, batch_size=8, seed=3))
        assert reads == []

    def test_training_is_deterministic(self, tiny_dataset):
        root, manifest = tiny_dataset
        r1 = train(build_arm("vit-conv", TINY_VIT, TINY_RESNET, seed=4),
                   manifest, root, TrainConfig(epochs=2, batch_size=8, seed=4))
        r2 = train(build_arm("vit-conv", TINY_VIT, TINY_RESNET, seed=4),
                   manifest, root, TrainConfig(epochs=2, batch_size=8, seed=4))
        assert r1.identity_json() == r2.identity_json()

    def test_results_do_not_depend_on_thread_count(self, tiny_dataset, monkeypatch):
        # IHVIT_THREADS of 2 or more runs the ResNet branch and the ViT
        # channels concurrently, 1 one after the other
        root, manifest = tiny_dataset
        test_x, _ = load_split(manifest, root, "test")
        x = _batch_tensor(test_x[:4])
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("IHVIT_THREADS", threads)
            arm = build_arm("ih-vit", TINY_VIT, TINY_RESNET, seed=8)
            report = train(arm, manifest, root, TrainConfig(epochs=1, batch_size=8, seed=8))
            params = {k: t.data.tobytes() for k, t in arm.parameters().items()}
            runs.append((report.loss_curve, params, arm.predict_probs(x).tobytes()))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("name,vit_cfg", [
        ("ih-vit", TINY_VIT),
        ("vit-2ch", TINY_VIT),
        # three channels: the stand-ins' gradients add up as (g2 + g1) + g0
        ("ih-vit", replace(TINY_VIT, channels=({"patch": 16, "embed": "convblock"},
                                               {"patch": 32, "embed": "conv_only"},
                                               {"patch": 56, "embed": "linear"}))),
        # one part and its first layer's follow-up
        ("resnet", TINY_VIT),
        ("vit", TINY_VIT),
    ], ids=["ih-vit", "vit-2ch", "ih-vit-3ch", "resnet", "vit"])
    def test_part_tapes_match_one_tape(self, name, vit_cfg, monkeypatch):
        # the step's part tapes and their first-layer tapes give the loss and
        # every gradient of one tape bit for bit
        x = _batch_tensor(np.random.default_rng(3).integers(0, 256, (3, 224, 224, 3),
                                                            dtype=np.uint8))
        y = np.array([0, 5, 2])
        arm = build_arm(name, vit_cfg, TINY_RESNET, seed=3)
        params = arm.parameters()
        with Tape() as tape:
            logits = arm.branch_logits(x)
            loss = combined_loss([cross_entropy(l, y) for l in logits.values()],
                                 arm.branch_weights())
        tape.backward(loss)
        want = {k: t.grad.tobytes() for k, t in params.items()}
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("IHVIT_THREADS", threads)
            for t in params.values():
                t.grad = None
            got = _forward_backward(arm, x, y, arm.branch_weights())
            assert got == loss.item(), threads
            assert {k: t.grad.tobytes() for k, t in params.items()} == want, threads

    def test_chunked_forward_does_not_depend_on_thread_count(self, monkeypatch):
        # the tape-free forward runs 4-image chunks of each branch as separate calls
        arm = build_arm("ih-vit", ViTConfig(classes=6), ResNetConfig.desk(classes=6), seed=9)
        px = np.random.default_rng(9).integers(0, 256, (16, 224, 224, 3), dtype=np.uint8)
        for n in (1, 4, 10, 16):
            x = _batch_tensor(px[:n])
            probs = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("IHVIT_THREADS", threads)
                probs.append(arm.predict_probs(x).tobytes())
            assert probs[0] == probs[1] == probs[2], n
            # across chunkings only the summation order differs, which BLAS decides
            logits = arm.branch_logits(x)
            for name, branch in arm.branches.items():
                whole = branch.forward(x).data
                assert logits[name].shape == whole.shape == (n, 6)
                np.testing.assert_allclose(logits[name].data, whole, rtol=0, atol=1e-6)

    def test_taped_forward_live_set(self):
        # what the part tapes and the caller's tape keep after a B=2 desk
        # forward: 71.3 MB while conv2d kept its im2col columns, relu its
        # input and maxpool2d a padded copy; 36.7 MB since they keep only
        # arrays alive anyway
        arm = build_arm("ih-vit", ViTConfig(classes=6), ResNetConfig.desk(classes=6), seed=0)
        x = _batch_tensor(np.random.default_rng(0).integers(0, 256, (2, 224, 224, 3),
                                                            dtype=np.uint8))
        sweep = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                logits = arm.branch_logits(x, sweep)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(tape) == 4 and len(sweep) == 1  # the ViT head: add, scale, matmul, add
        assert [l.shape for l in logits.values()] == [(2, 6), (2, 6)]
        assert live < 54 << 20

    def test_first_layers_sweep_as_follow_ups(self, monkeypatch):
        # the backward hands run_all one follow-up per part, and each one
        # gives the gradients of its part's first layer: the stem or an embedding
        import ihvit.train as train_mod

        monkeypatch.setenv("IHVIT_THREADS", "1")
        arm = build_arm("ih-vit", TINY_VIT, TINY_RESNET, seed=2)
        params = arm.parameters()
        swept = []

        def watched(follow_up):
            before = {k for k, t in params.items() if t.grad is not None}
            follow_up()
            swept.append({k for k, t in params.items() if t.grad is not None} - before)

        def run_all(calls, then=None):
            if then is not None:
                then = [partial(watched, f) for f in then]
            return util.run_all(calls, then)

        monkeypatch.setattr(train_mod, "run_all", run_all)
        x = Tensor(np.zeros((2, 3, 224, 224), dtype=np.float32))
        _forward_backward(arm, x, np.array([1, 4]), arm.branch_weights())
        assert swept == [
            {"resnet.stem.conv.w", "resnet.stem.norm.g", "resnet.stem.norm.b"},
            {"vit.ch0.conv.w", "vit.ch0.conv.b", "vit.ch0.unify"},
            {"vit.ch1.conv.w", "vit.ch1.conv.b", "vit.ch1.unify"},
        ]

    def test_sweep_needs_a_tape(self):
        arm = build_arm("ih-vit", TINY_VIT, TINY_RESNET, seed=0)
        x = Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))
        with pytest.raises(UsageError, match="sweep needs a caller's tape"):
            arm.branch_logits(x, [])

    def test_gradients_flow_to_both_branches(self, tiny_dataset):
        root, manifest = tiny_dataset
        train_x, train_y = load_split(manifest, root, "train")
        arm = build_arm("ih-vit", TINY_VIT, TINY_RESNET, seed=5)
        x = _batch_tensor(train_x[:4])
        with Tape() as tape:
            logits = arm.branch_logits(x)
            losses = [cross_entropy(l, train_y[:4]) for l in logits.values()]
            loss = combined_loss(losses, arm.branch_weights())
        tape.backward(loss)
        for name, t in arm.parameters().items():
            assert t.grad is not None, name
            assert np.abs(t.grad).sum() > 0, name

    def test_checkpoint_reproduces_eval_exactly(self, tiny_dataset, tmp_path):
        root, manifest = tiny_dataset
        arm = build_arm("vit-conv", TINY_VIT, TINY_RESNET, seed=6)
        report = train(arm, manifest, root, TrainConfig(epochs=1, batch_size=8, seed=6))
        save_arm(arm, tmp_path / "arm.ckpt")
        restored = arm_from_checkpoint(tmp_path / "arm.ckpt")
        for k, t in arm.parameters().items():
            assert restored.parameters()[k].data.tobytes() == t.data.tobytes()
        acc, _ = evaluate(restored, *load_split(manifest, root, "test"))
        assert acc == report.accuracy
        test_x, test_y = load_split(manifest, root, "test")
        x = _batch_tensor(test_x[:4])
        a = arm.branch_logits(x)["vit"].data
        b = restored.branch_logits(x)["vit"].data
        assert a.tobytes() == b.tobytes()

    def test_empty_split_rejected(self, tmp_path):
        cfg = SynthConfig(seed=2, resolutions=((32, 32),), resolution_weights=(1.0,),
                          counts={"normal": 2, "scratch": 2})
        manifest = gen_dataset(cfg, tmp_path)  # never split
        arm = build_arm("vit", TINY_VIT, TINY_RESNET, seed=0)
        with pytest.raises(InputError, match="train"):
            train(arm, manifest, tmp_path, TrainConfig(epochs=1, seed=0))

    def test_epochs_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)


class TestEvaluate:
    def test_all_correct_and_half_correct(self):
        conf_all = np.array([[3, 0], [0, 2]])
        assert np.trace(conf_all) / conf_all.sum() == 1.0
        conf_half = np.array([[1, 1], [1, 1]])
        assert np.trace(conf_half) / conf_half.sum() == 0.5

    @pytest.mark.parametrize("seed", range(4))
    def test_accuracy_equals_confusion_trace(self, seed):
        rng = np.random.default_rng(seed)
        k = 5
        true = rng.integers(0, k, 40)
        pred = rng.integers(0, k, 40)
        conf = np.zeros((k, k), dtype=int)
        for t, p in zip(true, pred):
            conf[t, p] += 1
        assert np.trace(conf) / conf.sum() == (true == pred).mean()


class TestAblate:
    def test_five_rows_reference_column_and_determinism(self, tiny_dataset):
        root, manifest = tiny_dataset
        tc = TrainConfig(epochs=1, batch_size=16, seed=9)
        rep1 = ablate(manifest, root, TINY_VIT, TINY_RESNET, tc)
        assert [r["name"] for r in rep1.rows] == [
            "ResNet50", "ViT", "ViT+Conv", "2channel-ViT", "IH-ViT"]
        for row in rep1.rows:
            assert "error" not in row
            assert row["reference_acc"] == REFERENCE_ACC[row["name"]]
            assert 0.0 <= row["accuracy"] <= 1.0
        rep2 = ablate(manifest, root, TINY_VIT, TINY_RESNET, tc)
        assert rep1.identity_json() == rep2.identity_json()

    def test_one_arm_failure_does_not_kill_others(self, tiny_dataset, monkeypatch):
        root, manifest = tiny_dataset
        import ihvit.train as train_mod

        real_build = train_mod.build_arm

        def sabotaged(name, *a, **kw):
            if name == "vit-2ch":
                raise NumericsError("boom")
            return real_build(name, *a, **kw)

        monkeypatch.setattr(train_mod, "build_arm", sabotaged)
        rep = ablate(manifest, root, TINY_VIT, TINY_RESNET,
                     TrainConfig(epochs=1, batch_size=16, seed=9))
        by_name = {r["name"]: r for r in rep.rows}
        assert "error" in by_name["2channel-ViT"]
        assert all("accuracy" in by_name[n]
                   for n in ("ResNet50", "ViT", "ViT+Conv", "IH-ViT"))

    def test_programming_error_propagates(self, tiny_dataset, monkeypatch):
        # only the library's own errors become error rows
        root, manifest = tiny_dataset
        import ihvit.train as train_mod

        def broken(name, *a, **kw):
            raise TypeError("a bug, not a bad arm")

        monkeypatch.setattr(train_mod, "build_arm", broken)
        with pytest.raises(TypeError, match="a bug"):
            ablate(manifest, root, TINY_VIT, TINY_RESNET, TrainConfig(epochs=1, batch_size=16, seed=9))

    def test_config_hash_covers_fusion(self, monkeypatch):
        # as a train report's hash does; the stub report stands in for training
        import ihvit.train as train_mod

        stub = MetricsReport(arm="x", accuracy=0.5, confusion=[], loss_curve=[], acc_curve=[],
                             seed=0, config_hash="", epochs_run=1)
        monkeypatch.setattr(train_mod, "train", lambda *a, **kw: stub)
        tc = TrainConfig(epochs=1, seed=0)
        hashes = {ablate(None, None, TINY_VIT, TINY_RESNET, tc, fusion=f).config_hash
                  for f in (None, FusionWeights(), FusionWeights(a_vit=2.0))}
        assert len(hashes) == 2


class TestBatchTensor:
    def test_channel_first_scaling(self):
        px = np.zeros((2, 224, 224, 3), dtype=np.uint8)
        px[1, 0, 0, 0] = 255
        t = _batch_tensor(px)
        assert t.shape == (2, 3, 224, 224) and t.dtype == "f32"
        assert t.data[1, 0, 0, 0] == 1.0 and t.data[1, 0, 0, 1] == 0.0
        assert t.data[0].max() == 0.0 and t.data[1, 1:].max() == 0.0

    def test_c_contiguous_nchw_with_unchanged_values(self):
        px = np.random.default_rng(4).integers(0, 256, size=(5, 224, 224, 3), dtype=np.uint8)
        t = _batch_tensor(px)
        assert t.data.flags.c_contiguous and t.dtype == "f32"
        # the values of the NHWC-ordered view it used to return
        arr = px.astype(np.float32)
        want = arr.transpose(0, 3, 1, 2) / arr.dtype.type(255.0)
        assert t.data.dtype == want.dtype and np.array_equal(t.data, want)
        assert t.data[1:3].flags.c_contiguous  # a chunk of images needs no copy

    def test_exact_inversion_on_byte_grid(self):
        # every byte k maps to k/255, which rounds back to k exactly
        px = np.random.default_rng(3).integers(0, 256, size=(2, 224, 224, 3), dtype=np.uint8)
        t = _batch_tensor(px)
        back = np.rint(t.data.transpose(0, 2, 3, 1) * 255.0).astype(np.uint8)
        assert np.array_equal(back, px)


class TestMetricsReport:
    def test_json_roundtrip_and_table(self, tmp_path):
        rep = MetricsReport(arm="vit", accuracy=0.75, confusion=[[3, 1], [1, 3]],
                            loss_curve=[1.0, 0.5], acc_curve=[0.5, 0.75],
                            seed=1, config_hash="ab12", epochs_run=2, steps_run=10)
        rep.save(tmp_path / "r.json")
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["accuracy"] == 0.75 and loaded["confusion"] == [[3, 1], [1, 3]]
        assert list(loaded) == ["arm", "accuracy", "confusion", "loss_curve", "acc_curve", "seed",
                                "config_hash", "epochs_run", "steps_run", "wall_seconds"]
        assert "0" in rep.table()
        csv = rep.loss_csv()
        assert csv.startswith("epoch,loss,test_accuracy")
        assert len(csv.strip().splitlines()) == 3

    def test_rows_follow_the_fields_when_set(self):
        rows = [{"name": "ViT", "accuracy": 0.5, "reference_acc": 66.45, "epochs_run": 1}]
        rep = MetricsReport(arm="ablation", accuracy=0.5, confusion=[], loss_curve=[],
                            acc_curve=[], seed=1, config_hash="ab12", epochs_run=1, rows=rows)
        out = rep.to_json()
        assert list(out)[-2:] == ["wall_seconds", "rows"] and out["rows"] == rows
        assert "wall_seconds" not in json.loads(rep.identity_json())

"""CNN branch: bottleneck blocks, stride ledger, presets, gradients."""

import numpy as np
import pytest

from ihvit import tensor as T
from ihvit.errors import ConfigError
from ihvit.resnet import ResNetBranch, ResNetConfig
from ihvit.tensor import Tensor, cross_entropy, grad_check

DESK = ResNetConfig.desk(classes=3)


class TestBottleneck:
    def test_zero_residual_path_passes_input_through(self):
        model = ResNetBranch(ResNetConfig(stem_width=8, stage_blocks=(1,),
                                          stage_widths=(8,), classes=2), seed=0)
        # stage 0 block 0 has no downsample (stride 1, cin == cout == 8)
        assert "s0.b0.down.w" not in model.params
        for name in ("s0.b0.conv1.w", "s0.b0.conv2.w", "s0.b0.conv3.w"):
            model.params[name].data[:] = 0
        x = Tensor(np.random.default_rng(0).normal(size=(1, 8, 6, 6)).astype(np.float32))
        out = model.bottleneck_forward(x, 0, 0, 1)
        assert np.array_equal(out.data, np.maximum(x.data, 0))

    def test_stride2_block_halves_spatial(self):
        cfg = ResNetConfig.resnet50(classes=2)
        model = ResNetBranch(cfg, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 256, 56, 56)).astype(np.float32) * 0.1)
        out = model.bottleneck_forward(x, 1, 0, 2)
        assert out.shape == (1, 512, 28, 28)

    def test_block_gradcheck_f64(self):
        cfg = ResNetConfig(stem_width=4, stage_blocks=(1,), stage_widths=(8,), classes=2)
        model = ResNetBranch(cfg, seed=2, dtype="f64")
        x = Tensor(np.random.default_rng(2).uniform(0.1, 1.0, (1, 4, 5, 5)), dtype="f64")
        c = Tensor(np.random.default_rng(3).uniform(0.5, 1.0, (1, 8, 5, 5)), dtype="f64")

        def f(_):
            return T.sum_(T.mul(model.bottleneck_forward(x, 0, 0, 1), c))

        assert grad_check(f, model.params["s0.b0.conv2.w"], h=1e-5) <= 1e-5


class TestForward:
    def test_resnet50_stride_ledger(self):
        model = ResNetBranch(ResNetConfig.resnet50(classes=4), seed=0)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 3, 224, 224)).astype(np.float32))
        h = T.conv2d(x, model.params["stem.conv.w"], stride=2, pad=3)
        assert h.shape[2:] == (112, 112)
        h = T.maxpool2d(h, 3, 2, 1)
        assert h.shape[2:] == (56, 56)
        sizes = []
        for s, blocks in enumerate(model.config.stage_blocks):
            for b in range(blocks):
                h = model.bottleneck_forward(h, s, b, 2 if (b == 0 and s > 0) else 1)
            sizes.append(h.shape[2])
        assert sizes == [56, 28, 14, 7]
        logits, feats = model.forward(x)
        assert logits.shape == (1, 4) and feats.shape == (1, 2048)

    def test_desk_feature_width(self):
        model = ResNetBranch(DESK, seed=0)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 3, 224, 224)).astype(np.float32))
        logits, feats = model.forward(x)
        assert logits.shape == (2, 3) and feats.shape == (2, 256)

    def test_zero_head_uniform_softmax(self):
        model = ResNetBranch(DESK, seed=0)
        model.params["head.w"].data[:] = 0
        model.params["head.b"].data[:] = 0
        x = Tensor(np.random.default_rng(7).normal(size=(1, 3, 224, 224)).astype(np.float32))
        logits, _ = model.forward(x)
        assert np.allclose(T.softmax(logits, -1).data, 1 / 3, atol=1e-7)

    def test_desk_network_gradcheck_f64(self):
        model = ResNetBranch(ResNetConfig.desk(classes=3), seed=1, dtype="f64")
        img = Tensor(np.random.default_rng(8).uniform(0, 1, (1, 3, 224, 224)), dtype="f64")

        def f(_):
            logits, _f = model.forward(img)
            return cross_entropy(logits, [2])

        assert grad_check(f, model.params["head.b"], h=1e-5) <= 1e-5
        assert grad_check(f, model.params["stem.norm.g"], h=1e-7) <= 1e-5

    def test_desk_network_gradcheck_f32(self):
        model = ResNetBranch(ResNetConfig.desk(classes=3), seed=1, dtype="f32")
        img = Tensor(np.random.default_rng(8).uniform(0, 1, (1, 3, 224, 224)).astype(np.float32))

        def f(_):
            logits, _f = model.forward(img)
            return cross_entropy(logits, [2])

        assert grad_check(f, model.params["head.b"], h=0.05) <= 1e-3


class TestParameterCount:
    def test_resnet50_matches_standard_architecture(self):
        # the standard 50-layer bottleneck network with per-channel norm
        # affine and a 1000-way head
        model = ResNetBranch(ResNetConfig.resnet50(classes=1000), seed=0)
        assert sum(t.size for t in model.params.values()) == 25_557_032

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ResNetConfig(stage_blocks=(1, 1), stage_widths=(32,))
        with pytest.raises(ConfigError):
            ResNetConfig(stage_widths=(30, 64, 128, 256))  # not divisible by 4

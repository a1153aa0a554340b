"""ViT branch: segmentation, embedding traces, unification, encoder."""

import numpy as np
import pytest

from ihvit import tensor as T
from ihvit.errors import ConfigError
from ihvit.tensor import ShapeError, Tape, Tensor, cross_entropy, grad_check
from ihvit.verify import attention_oracle
from ihvit.vit import (
    ChannelSpec,
    ViTBranch,
    ViTConfig,
    conv_embed,
    multi_head_attention,
    patchify,
    _encode,
)

TINY = ViTConfig(depth=1, heads=1, dim=15, mlp_hidden=30, classes=3)


class TestPatchify:
    def test_token_counts(self):
        imgs = Tensor(np.zeros((2, 3, 224, 224), dtype=np.float32))
        assert patchify(imgs, 16).shape == (2, 196, 3, 16, 16)
        assert patchify(imgs, 32).shape == (2, 49, 3, 32, 32)

    def test_degenerate_single_patch(self):
        rng = np.random.default_rng(0)
        imgs = Tensor(rng.random((1, 3, 224, 224)).astype(np.float32))
        p = patchify(imgs, 224)
        assert p.shape == (1, 1, 3, 224, 224)
        assert np.array_equal(p.data[0, 0], imgs.data[0])

    def test_roundtrip_against_index_oracle(self):
        rng = np.random.default_rng(1)
        imgs = Tensor(rng.random((2, 3, 64, 64)).astype(np.float32))
        patches = patchify(imgs, 16)
        # brute-force index oracle: patch k holds rows/cols of tile (k//4, k%4),
        # so all 16 patches together cover every pixel exactly once
        for n in range(2):
            for k in range(16):
                r, c = divmod(k, 4)
                want = imgs.data[n, :, 16 * r:16 * (r + 1), 16 * c:16 * (c + 1)]
                assert np.array_equal(patches.data[n, k], want)

    def test_non_divisor_rejected(self):
        imgs = Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))
        with pytest.raises(ConfigError):
            patchify(imgs, 48)

    def test_unbatched_image_rejected(self):
        img = Tensor(np.zeros((3, 224, 224), dtype=np.float32))
        with pytest.raises(ShapeError):
            patchify(img, 16)

    def test_batched_tiling(self):
        rng = np.random.default_rng(2)
        imgs = Tensor(rng.random((2, 3, 32, 32)).astype(np.float32))
        p = patchify(imgs, 16)
        assert p.shape == (2, 4, 3, 16, 16)
        assert np.array_equal(p.data[1, 0], imgs.data[1, :, :16, :16])


class TestChannelSpec:
    def test_paper_dims(self):
        conv16 = ChannelSpec(16, "convblock")
        conv32 = ChannelSpec(32, "conv_only")
        assert conv16.token_count() == 196
        assert conv32.token_count() == 49
        assert conv16.raw_dim == 75        # 5 * 5 * 3
        assert conv32.raw_dim == 768       # 16 * 16 * 3
        assert ChannelSpec(16, "linear").raw_dim == 768   # 16 * 16 * 3 flat
        assert ChannelSpec(32, "linear").raw_dim == 3072

    def test_conv_spatial_traces(self):
        assert ChannelSpec(16, "convblock").conv_spatial() == (8, 5)
        assert ChannelSpec(32, "conv_only").conv_spatial()[0] == 16

    def test_bad_embed_rejected(self):
        with pytest.raises(ConfigError):
            ChannelSpec(16, "mlp")


class TestEmbeds:
    def test_conv_block_trace_and_width(self):
        rng = np.random.default_rng(3)
        patches = Tensor(rng.random((7, 3, 16, 16)).astype(np.float32))
        w = Tensor(rng.normal(size=(3, 3, 7, 7)).astype(np.float32) * 0.1)
        b = Tensor(np.zeros(3, dtype=np.float32))
        out = conv_embed(patches, w, b, pool=True)
        assert out.shape == (7, 75)

    def test_conv_block_zero_input_zero_bias(self):
        patches = Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32))
        w = Tensor(np.random.default_rng(0).normal(size=(3, 3, 7, 7)).astype(np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        assert np.abs(conv_embed(patches, w, b, pool=True).data).max() == 0.0

    def test_conv_only_width_768(self):
        rng = np.random.default_rng(4)
        patches = Tensor(rng.random((5, 3, 32, 32)).astype(np.float32))
        w = Tensor(rng.normal(size=(3, 3, 7, 7)).astype(np.float32) * 0.1)
        b = Tensor(np.zeros(3, dtype=np.float32))
        out = conv_embed(patches, w, b, pool=False)
        assert out.shape == (5, 768)

    def test_conv_only_zero_input(self):
        patches = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        w = Tensor(np.ones((3, 3, 7, 7), dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        assert np.abs(conv_embed(patches, w, b, pool=False).data).max() == 0.0


class TestAttention:
    def _params(self, rng, d):
        p = {}
        for nm in ("q", "k", "v", "o"):
            p[f"at.w{nm}"] = Tensor(rng.normal(size=(d, d)), dtype="f64")
            p[f"at.b{nm}"] = Tensor(rng.normal(size=(d,)), dtype="f64")
        return p

    def test_single_token_weight_is_one(self):
        rng = np.random.default_rng(7)
        params = self._params(rng, 6)
        x = Tensor(rng.normal(size=(1, 1, 6)), dtype="f64")
        _, weights = multi_head_attention(x, params, "at", 2)
        assert weights.shape == (1, 2, 1, 1)
        assert np.allclose(weights.data, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_brute_force_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        d, heads, n = 6, 3, 4
        params = self._params(rng, d)
        x = rng.normal(size=(1, n, d))
        got, weights = multi_head_attention(Tensor(x, dtype="f64"), params, "at", heads)
        want = attention_oracle(x[0], params, "at", heads)
        assert np.abs(got.data[0] - want).max() <= 1e-5
        assert np.abs(weights.data.sum(-1) - 1.0).max() <= 1e-6

    def test_head_scaling_is_inverse_sqrt_head_dim(self):
        # doubling all keys must scale pre-softmax scores by 2/sqrt(hd): verify
        # via the weights of a 2-token sequence with hand-computed logits
        rng = np.random.default_rng(8)
        d = 4
        params = {f"at.w{nm}": Tensor(np.eye(d), dtype="f64") for nm in ("q", "k", "v", "o")}
        for nm in ("q", "k", "v", "o"):
            params[f"at.b{nm}"] = Tensor(np.zeros(d), dtype="f64")
        x = rng.normal(size=(1, 2, d))
        _, weights = multi_head_attention(Tensor(x, dtype="f64"), params, "at", 1)
        scores = x[0] @ x[0].T / 2.0  # sqrt(4) = 2
        want = np.exp(scores - scores.max(1, keepdims=True))
        want /= want.sum(1, keepdims=True)
        assert np.abs(weights.data[0, 0] - want).max() <= 1e-12


class TestViTForward:
    def test_dual_channel_shapes(self):
        model = ViTBranch(TINY, seed=0)
        img = Tensor(np.random.default_rng(0).random((1, 3, 224, 224)).astype(np.float32))
        logits, feats = model.forward(img)
        assert logits.shape == (1, 3)
        assert feats.shape == (1, 15)

    def test_zero_head_gives_uniform_softmax(self):
        model = ViTBranch(TINY, seed=0)
        model.params["head.w"].data[:] = 0
        model.params["head.b"].data[:] = 0
        img = Tensor(np.random.default_rng(1).random((1, 3, 224, 224)).astype(np.float32))
        logits, _ = model.forward(img)
        probs = T.softmax(logits, axis=-1).data
        assert np.allclose(probs, 1 / 3, atol=1e-7)

    def test_single_channel_conv_arm_config(self):
        cfg = ViTConfig(depth=1, heads=1, dim=15, mlp_hidden=30, classes=3,
                        channels=(ChannelSpec(16, "convblock"),))
        model = ViTBranch(cfg, seed=0)
        img = Tensor(np.random.default_rng(2).random((1, 3, 224, 224)).astype(np.float32))
        logits, feats = model.forward(img)
        assert logits.shape == (1, 3) and feats.shape == (1, 15)

    def test_encoder_parameters_shared_across_channels(self):
        model = ViTBranch(TINY, seed=0)
        enc_names = [k for k in model.params if k.startswith("enc")]
        assert enc_names and not any("ch0" in k or "ch1" in k for k in enc_names)
        img = Tensor(np.random.default_rng(3).random((1, 3, 224, 224)).astype(np.float32))
        with Tape() as tape:
            logits, _ = model.forward(img)
            loss = cross_entropy(logits, [0])
        tape.backward(loss)
        dual_grad = model.params["enc0.attn.wq"].grad.copy()

        solo = ViTBranch(TINY, seed=0)
        solo.config = ViTConfig(depth=1, heads=1, dim=15, mlp_hidden=30, classes=3,
                                channels=(TINY.channels[0],))
        with Tape() as tape2:
            logits2, _ = solo.forward(img)
            loss2 = cross_entropy(logits2, [0])
        tape2.backward(loss2)
        solo_grad = solo.params["enc0.attn.wq"].grad
        # the second channel contributes through the same encoder tensors
        assert not np.allclose(dual_grad, solo_grad)

    def test_token_permutation_equivariance(self):
        """Permuting non-class tokens together with their positional rows
        leaves the class-token output unchanged."""
        model = ViTBranch(TINY, seed=0)
        cfg = model.config
        rng = np.random.default_rng(4)
        n = 12
        tokens = rng.normal(size=(n, cfg.dim)).astype(np.float32)
        pos = rng.normal(size=(n + 1, cfg.dim)).astype(np.float32)

        def encode(tok, pos_table):
            seq = np.concatenate([model.params["cls"].data[None, :], tok], axis=0)
            seq = seq + pos_table
            return _encode(Tensor(seq[None]), model.params, cfg).data[0, 0]

        base = encode(tokens, pos)
        perm = rng.permutation(n)
        permuted = encode(tokens[perm], np.concatenate([pos[:1], pos[1:][perm]], axis=0))
        assert np.abs(base - permuted).max() <= 1e-5

    def test_full_forward_gradcheck_tiny_f64(self):
        model = ViTBranch(TINY, seed=1, dtype="f64")
        img = Tensor(np.random.default_rng(5).uniform(0, 1, (1, 3, 224, 224)), dtype="f64")

        def f(_):
            logits, _f = model.forward(img)
            return cross_entropy(logits, [1])

        assert grad_check(f, model.params["head.b"], h=1e-5) <= 1e-5
        assert grad_check(f, model.params["cls"], h=1e-5) <= 1e-5
        assert grad_check(f, model.params["ch0.conv.b"], h=1e-5) <= 1e-5

    def test_full_forward_gradcheck_tiny_f32(self):
        model = ViTBranch(TINY, seed=1, dtype="f32")
        img = Tensor(np.random.default_rng(5).uniform(0, 1, (1, 3, 224, 224)).astype(np.float32))

        def f(_):
            logits, _f = model.forward(img)
            return cross_entropy(logits, [1])

        assert grad_check(f, model.params["head.b"], h=0.05) <= 1e-3

    def test_wrong_input_shape_rejected(self):
        model = ViTBranch(TINY, seed=0)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))


class TestCompression:
    # the figures the model's own 16-pixel channels embed to
    def test_ratio_and_percent(self):
        r = ChannelSpec(16, "convblock").raw_dim / ChannelSpec(16, "linear").raw_dim
        assert r == 0.09765625
        assert f"{r:.2%}" == "9.77%"  # reference value rounds to 9.76%

    def test_element_saving_per_image(self):
        conv = ChannelSpec(16, "convblock")
        assert (ChannelSpec(16, "linear").raw_dim - conv.raw_dim) * conv.token_count() == 135828


class TestViTConfig:
    def test_dim_heads_divisibility(self):
        with pytest.raises(ConfigError):
            ViTConfig(dim=75, heads=4)

    def test_default_is_dual_conv(self):
        cfg = ViTConfig()
        assert cfg.dim == 75 and cfg.heads == 3
        assert cfg.depth == 6 and cfg.mlp_hidden == 300
        assert [c.embed for c in cfg.channels] == ["convblock", "conv_only"]

    def test_json_channels_equal_spec_form(self):
        from_json = ViTConfig(channels=[{"patch": 16, "embed": "convblock"},
                                        {"patch": 32, "embed": "conv_only"}])
        assert from_json == ViTConfig()
        assert from_json.channels == (ChannelSpec(16, "convblock"), ChannelSpec(32, "conv_only"))

    def test_patch_must_divide_image(self):
        with pytest.raises(ConfigError):
            ViTConfig(channels=(ChannelSpec(48, "linear"),))

    def test_positional_tables_per_channel(self):
        model = ViTBranch(ViTConfig(classes=2), seed=0)
        assert model.params["ch0.pos"].shape == (197, 75)
        assert model.params["ch1.pos"].shape == (50, 75)
        assert model.params["cls"].shape == (75,)

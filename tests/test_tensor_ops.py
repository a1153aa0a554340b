"""Forward semantics of the tensor ops against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihvit import tensor as T
from ihvit.tensor import NumericsError, ShapeError, Tape, Tensor, UsageError
from ihvit.verify import conv_oracle, matmul_oracle, maxpool_oracle


class TestMatmul:
    def test_paper_unification_shapes(self):
        a = Tensor(np.zeros((196, 75), dtype=np.float32))
        b = Tensor(np.zeros((75, 75), dtype=np.float32))
        assert T.matmul(a, b).shape == (196, 75)
        c = Tensor(np.zeros((49, 768), dtype=np.float32))
        d = Tensor(np.zeros((768, 75), dtype=np.float32))
        assert T.matmul(c, d).shape == (49, 75)

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)).astype(np.float32)
        out = T.matmul(Tensor(a), Tensor(np.eye(4, dtype=np.float32)))
        assert np.allclose(out.data, a, atol=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 5)).astype(np.float32)
        b = rng.normal(size=(5, 2)).astype(np.float32)
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - matmul_oracle(a, b)).max() <= 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((3, 5), dtype=np.float32))
        b = Tensor(np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ShapeError, match=r"\(3, 5\).*\(4, 2\)"):
            T.matmul(a, b)

    def test_batched(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4)).astype(np.float32)
        b = rng.normal(size=(2, 4, 5)).astype(np.float32)
        got = T.matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            assert np.abs(got[i] - matmul_oracle(a[i], b[i])).max() <= 1e-5


class TestConv2d:
    def test_algorithm_trace_16_to_8(self):
        x = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32))
        w = Tensor(np.zeros((3, 3, 7, 7), dtype=np.float32))
        assert T.conv2d(x, w, stride=2, pad=3).shape == (1, 3, 8, 8)

    def test_trace_32_to_16(self):
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        w = Tensor(np.zeros((3, 3, 7, 7), dtype=np.float32))
        assert T.conv2d(x, w, stride=2, pad=3).shape == (1, 3, 16, 16)

    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 5, 5)).astype(np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), stride=1, pad=0)
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_loop_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=1).data
        assert np.abs(got - conv_oracle(x, w, b, 1, 1)).max() <= 1e-5

    def test_strided_oracle(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        got = T.conv2d(Tensor(x), Tensor(w), stride=2, pad=0).data
        assert np.abs(got - conv_oracle(x, w, None, 2, 0)).max() <= 1e-5

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_oracle_across_im2col_chunks(self, monkeypatch, stride, pad):
        # a budget of two images' im2col rows: a batch of 5 spans chunks of 2, 2 and 1
        rng = np.random.default_rng(30 + stride)
        x = rng.normal(size=(5, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        oh = T.conv_out_extent(6, 3, stride, pad)
        monkeypatch.setattr(T, "_IM2COL_BYTES", 2 * oh * oh * 2 * 9 * 4)
        monkeypatch.setattr(T, "_DENSE_PLANE_RATIO", 0)  # a 6x6 plane would go dense
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad).data
        assert np.abs(got - conv_oracle(x, w, b, stride, pad)).max() <= 1e-5

    @pytest.mark.parametrize("one_image_chunks", [False, True])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_1x1_oracle(self, monkeypatch, stride, bias, one_image_chunks):
        # at stride 1 the im2col columns are the input itself, not a copy
        if one_image_chunks:
            monkeypatch.setattr(T, "_IM2COL_BYTES", 1)
            monkeypatch.setattr(T, "_DENSE_PLANE_RATIO", 0)
        rng = np.random.default_rng(40 + stride)
        x = rng.normal(size=(3, 5, 7, 6)).astype(np.float32)
        w = rng.normal(size=(4, 5, 1, 1)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32) if bias else None
        got = T.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), stride=stride).data
        assert np.abs(got - conv_oracle(x, w, b, stride, 0)).max() <= 1e-5

    # (N, C, H, O, K, stride, pad, bias): the shapes of the loop-oracle,
    # strided and 1x1 tests above, and the ViT ch0 embed (16x16, 7x7, s2, p3)
    PATH_CASES = [
        (1, 2, 6, 3, 3, 1, 1, True),
        (2, 3, 9, 4, 3, 2, 0, False),
        (3, 5, 7, 4, 1, 1, 0, True),
        (3, 5, 7, 4, 1, 2, 0, False),
        (2, 3, 16, 3, 7, 2, 3, True),
    ]

    @pytest.mark.parametrize("n,c,h,o,k,stride,pad,bias", PATH_CASES)
    def test_oracle_on_both_paths(self, conv_path, n, c, h, o, k, stride, pad, bias):
        # pixel-range inputs and kaiming-range weights, as the embeds see them
        rng = np.random.default_rng(50 + h + k)
        bound = math.sqrt(6.0 / (c * k * k))
        x = rng.uniform(0.0, 1.0, size=(n, c, h, h)).astype(np.float32)
        w = rng.uniform(-bound, bound, size=(o, c, k, k)).astype(np.float32)
        b = rng.normal(size=o).astype(np.float32) if bias else None
        got = T.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), stride, pad).data
        assert np.abs(got - conv_oracle(x, w, b, stride, pad)).max() <= 1e-5

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_dense_matches_im2col(self, monkeypatch, dtype):
        # out, gx, gw and gb of the ViT ch0 embed conv agree across the paths
        rng = np.random.default_rng(60)
        data = [rng.normal(size=s) for s in ((4, 3, 16, 16), (3, 3, 7, 7), (3,), (4, 3, 8, 8))]

        def run(ratio):
            monkeypatch.setattr(T, "_DENSE_PLANE_RATIO", ratio)
            x, w, b = (Tensor(a, dtype=dtype, requires_grad=True) for a in data[:3])
            with Tape() as tape:
                y = T.conv2d(x, w, b, stride=2, pad=3)
                loss = T.sum_(T.mul(y, Tensor(data[3], dtype=dtype)))
            tape.backward(loss)
            return [y.data, x.grad, w.grad, b.grad]

        tol = 1e-12 if dtype == "f64" else 1e-4
        for dense, im2col in zip(run(math.inf), run(0)):
            assert dense.shape == im2col.shape
            assert np.abs(dense - im2col).max() <= tol * max(1.0, np.abs(im2col).max())

    def test_nonpositive_extent_rejected(self):
        x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match="non-positive"):
            T.conv2d(x, w, stride=1, pad=0)

    def test_output_extent_formula(self):
        for h, k, s, p in [(16, 7, 2, 3), (8, 2, 2, 1), (224, 7, 2, 3), (56, 3, 2, 1)]:
            assert T.conv_out_extent(h, k, s, p) == (h + 2 * p - k) // s + 1


class TestMaxPool:
    def test_algorithm_trace_8_to_5(self):
        x = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
        assert T.maxpool2d(x, 2, 2, 1).shape == (1, 3, 5, 5)

    def test_constant_input(self):
        x = Tensor(np.full((1, 1, 6, 6), 4.25, dtype=np.float32))
        out = T.maxpool2d(x, 2, 2, 0)
        assert np.array_equal(out.data, np.full((1, 1, 3, 3), 4.25, dtype=np.float32))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_window_scan(self, seed):
        rng = np.random.default_rng(30 + seed)
        x = rng.normal(size=(1, 1, 6, 6))
        got = T.maxpool2d(Tensor(x, dtype="f64"), 2, 2, 1).data
        assert np.array_equal(got, maxpool_oracle(x, 2, 2, 1))

    def test_padding_never_wins(self):
        x = Tensor(np.full((1, 1, 4, 4), -100.0, dtype=np.float32))
        out = T.maxpool2d(x, 2, 2, 1)
        assert out.data.min() == -100.0

    @pytest.mark.parametrize("seed", range(3))
    def test_backward_on_overlapping_stem_pool(self, seed):
        # the ResNet stem's pool: k=3, s=2, p=1 windows overlap
        got, want, ties, hits = _routed_pool_grad(60 + seed, (2, 2, 9, 8), 3, 2, 1)
        assert ties > 0 and hits.max() > 1  # the case under test really occurs
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_backward_on_vit_embed_pool(self, seed):
        # the ViT convblock embed's pool: k=2, s=2, p=1 on the 8x8 conv
        # output, so the edge windows hold one or two real cells
        got, want, ties, _ = _routed_pool_grad(70 + seed, (2, 3, 8, 8), 2, 2, 1)
        assert ties > 0
        assert np.array_equal(got, want)


def _routed_pool_grad(seed, shape, k, s, p):
    """maxpool2d's input gradient next to a brute-force loop that adds each
    window's gradient to that window's first max cell in row-major order.

    Values drawn from {0, 1, 2} plant ties; integer output gradients keep
    every sum exact.  Also returns how many windows tie and how many
    windows route to each cell.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=shape).astype(np.float64)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = T.maxpool2d(xt, k, s, p)
        g = rng.integers(1, 9, size=out.shape).astype(np.float64)
        loss = T.sum_(T.mul(out, Tensor(g)))
    tape.backward(loss)

    want = np.zeros_like(x)
    hits = np.zeros(x.shape, dtype=int)
    ties = 0
    for n, c, i, j in np.ndindex(out.shape):
        cells = [(r, q) for r in range(i * s - p, i * s - p + k)
                 for q in range(j * s - p, j * s - p + k)
                 if 0 <= r < x.shape[2] and 0 <= q < x.shape[3]]
        first = max(cells, key=lambda rq: x[n, c][rq])  # max keeps the first maximum
        ties += sum(x[n, c][rq] == x[n, c][first] for rq in cells) > 1
        want[n, c][first] += g[n, c, i, j]
        hits[n, c][first] += 1
    return xt.grad, want, ties, hits


@pytest.mark.parametrize("op", ["relu", "gelu", "maxpool2d", "conv2d", "softmax"])
def test_output_bytes_do_not_depend_on_tape(op):
    # these ops keep, or leave for backward, terms only a recording tape needs
    rng = np.random.default_rng(80)
    x = rng.normal(size=(2, 4, 9, 9)).astype(np.float32)
    w = rng.normal(size=(3, 4, 3, 3)).astype(np.float32)
    run = {
        "relu": T.relu,
        "gelu": T.gelu,
        "maxpool2d": lambda t: T.maxpool2d(t, 3, 2, 1),
        "conv2d": lambda t: T.conv2d(t, Tensor(w, requires_grad=True), stride=2, pad=1),
        "softmax": lambda t: T.softmax(t, axis=-1),
    }[op]
    free = run(Tensor(x, requires_grad=True)).data
    with Tape():
        recorded = run(Tensor(x, requires_grad=True)).data
    assert recorded.dtype == free.dtype and recorded.tobytes() == free.tobytes()


class TestActivations:
    def test_relu_values(self):
        out = T.relu(Tensor(np.array([-1.0, 2.0, 0.0], dtype=np.float32)))
        assert np.array_equal(out.data, [0.0, 2.0, 0.0])

    def test_gelu_zero(self):
        assert T.gelu(Tensor(np.zeros(1))).item() == 0.0

    def test_gelu_one_against_erf(self):
        want = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # = Phi(1) ~ 0.8413
        got = T.gelu(Tensor(np.ones(1), dtype="f64")).item()
        assert got == pytest.approx(want, abs=1e-12)

    def test_gelu_matches_erf_form_everywhere(self):
        # bit for bit, 0-d and empty inputs included
        for xs in (np.linspace(-4, 4, 41), np.array(1.5), np.zeros(0), np.zeros((2, 0))):
            got = T.gelu(Tensor(xs, dtype="f64")).data
            want = np.array([x * 0.5 * (1 + math.erf(x / math.sqrt(2))) for x in xs.ravel()])
            assert got.dtype == np.float64 and got.shape == xs.shape
            assert got.tobytes() == want.tobytes()

    def test_gelu_f32_near_erf_form(self):
        # the f32 kernel approximates Phi; 4*sqrt(2) is where erf(x/sqrt(2)) reaches 1 in f32
        edge = 4 * math.sqrt(2)
        xs = np.concatenate([np.linspace(-10, 10, 40001), [edge, -edge]]).astype(np.float32)
        got = T.gelu(Tensor(xs)).data
        assert got.dtype == np.float32
        want = np.array([x * 0.5 * (1 + math.erf(x / math.sqrt(2))) for x in xs.tolist()])
        assert np.abs(got - want).max() <= 1e-6

    def test_phi_f32_within_its_absolute_bound(self):
        # the contract is absolute: small tail values round to multiples of ~3e-8
        xs = np.linspace(-10, 10, 40001).astype(np.float32)
        got = T._phi_f32(xs)
        want = np.array([0.5 * (1 + math.erf(x / math.sqrt(2))) for x in xs.tolist()])
        assert got.dtype == np.float32 and np.abs(got - want).max() <= 5e-7

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_gelu_on_0d_and_empty_inputs(self, dtype):
        # bitwise in f64; f32 within 5e-7, as on the kernel's range
        for xs in (np.array(1.5), np.array(-0.7), np.zeros(0), np.zeros((2, 0))):
            got = T.gelu(Tensor(xs, dtype=dtype)).data
            want = np.array([x * 0.5 * (1 + math.erf(x / math.sqrt(2))) for x in
                             xs.astype(got.dtype).ravel().tolist()]).reshape(xs.shape)
            assert got.shape == xs.shape
            if dtype == "f64":
                assert got.tobytes() == want.tobytes()
            else:
                assert got.dtype == np.float32 and np.all(np.abs(got - want) <= 5e-7)
        assert T.grad_check(T.gelu, Tensor(np.array(0.8), dtype=dtype)) <= (
            1e-5 if dtype == "f64" else 1e-3)

    def test_gelu_zero_f32_bit_exact(self):
        out = T.gelu(Tensor(np.zeros(4, dtype=np.float32))).data
        assert out.dtype == np.float32 and out.tobytes() == np.zeros(4, np.float32).tobytes()


def _grads(op, x: np.ndarray, g: np.ndarray, *params: np.ndarray) -> list[np.ndarray]:
    """Gradients of every input of ``op(x, *params)`` for the output gradient ``g``."""
    ins = [Tensor(a, requires_grad=True) for a in (x, *params)]
    with Tape() as tape:
        loss = T.sum_(T.mul(op(*ins), Tensor(g)))
    tape.backward(loss)
    return [t.grad for t in ins]


# f32 shapes of the model: attention weights and the ResNet stem's instance norm
BACKWARD_SHAPES = [(8, 3, 197, 197), (8, 16, 112, 112)]


def _within_1e6(got: np.ndarray, want: np.ndarray) -> bool:
    """``got`` within 1e-6 of ``want``, scaled by want's largest magnitude once
    that exceeds 1: 1e-6 is 2 f32 ulps at 7, and the two formulas round differently."""
    return got.dtype == np.float32 and np.abs(got - want).max() <= 1e-6 * max(
        1.0, np.abs(want).max())


@pytest.mark.parametrize("shape", BACKWARD_SHAPES)
def test_softmax_backward_matches_formula(shape):
    rng = np.random.default_rng(91)
    x = rng.normal(size=shape).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    (gx,) = _grads(lambda t: T.softmax(t, axis=-1), x, g)
    out = T.softmax(Tensor(x), axis=-1).data
    want = (g - (g * out).sum(axis=-1, keepdims=True)) * out
    assert _within_1e6(gx, want)


@pytest.mark.parametrize("shape", BACKWARD_SHAPES)
def test_instance_norm_backward_matches_formula(shape):
    rng = np.random.default_rng(92)
    c = shape[1]
    x = rng.normal(size=shape).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
    beta = rng.normal(size=c).astype(np.float32)
    gx, dgamma, dbeta = _grads(T.instance_norm2d, x, g, gamma, beta)
    # the unfactored formula: gc = g * gamma, all in f32
    axes = (2, 3)
    xhat = x - x.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=axes, keepdims=True) + np.float32(1e-5))
    xhat *= inv
    gc = g * gamma.reshape(1, c, 1, 1)
    want = inv * (gc - gc.mean(axis=axes, keepdims=True)
                  - xhat * (gc * xhat).mean(axis=axes, keepdims=True))
    assert _within_1e6(gx, want)
    assert np.array_equal(dgamma, (g * xhat).sum(axis=(0, 2, 3)))
    assert np.array_equal(dbeta, g.sum(axis=(0, 2, 3)))


class TestSoftmax:
    def test_uniform_input(self):
        out = T.softmax(Tensor(np.zeros(2, dtype=np.float32)), axis=-1)
        assert np.array_equal(out.data, [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(5))
    def test_against_formula_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        x = rng.normal(size=7)
        got = T.softmax(Tensor(x, dtype="f64"), axis=-1).data
        want = np.exp(x) / np.exp(x).sum()
        assert np.abs(got - want).max() <= 1e-7

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=9),
           st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance_and_normalization(self, vals, c):
        x = np.array(vals)
        a = T.softmax(Tensor(x, dtype="f64"), axis=-1).data
        b = T.softmax(Tensor(x + c, dtype="f64"), axis=-1).data
        assert np.abs(a - b).max() <= 1e-9
        assert abs(a.sum() - 1.0) <= 1e-6

    def test_rows_sum_to_one_f32(self):
        rng = np.random.default_rng(50)
        out = T.softmax(Tensor(rng.normal(size=(20, 11)).astype(np.float32)), axis=-1)
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() <= 1e-6


class TestLayerNorm:
    def test_constant_token_zeros(self):
        x = Tensor(np.full((2, 5), 3.0, dtype=np.float32))
        g = Tensor(np.ones(5, dtype=np.float32))
        b = Tensor(np.zeros(5, dtype=np.float32))
        out = T.layernorm(x, g, b)
        assert np.abs(out.data).max() == 0.0

    def test_standardized_fixed_point(self):
        x = np.array([[-1.2247449, 0.0, 1.2247449]], dtype=np.float64)  # mean 0, var 1
        out = T.layernorm(Tensor(x, dtype="f64"), Tensor(np.ones(3), dtype="f64"),
                          Tensor(np.zeros(3), dtype="f64"))
        assert np.abs(out.data - x / np.sqrt(1 + 1e-5)).max() <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_against_two_pass_oracle(self, seed):
        rng = np.random.default_rng(60 + seed)
        x = rng.normal(size=(3, 6))
        g = rng.normal(size=6)
        b = rng.normal(size=6)
        got = T.layernorm(Tensor(x, dtype="f64"), Tensor(g, dtype="f64"),
                          Tensor(b, dtype="f64")).data
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + 1e-5) * g + b
        assert np.abs(got - want).max() <= 1e-6


class TestCrossEntropy:
    def test_uniform_logits_eleven_classes(self):
        logits = Tensor(np.zeros((1, 11), dtype=np.float64))
        assert T.cross_entropy(logits, [4]).item() == pytest.approx(math.log(11), abs=1e-12)

    def test_saturated_correct_prediction(self):
        z = np.zeros((1, 5), dtype=np.float64)
        z[0, 2] = 1e4
        assert T.cross_entropy(Tensor(z, dtype="f64"), [2]).item() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_formula_oracle(self, seed):
        rng = np.random.default_rng(70 + seed)
        z = rng.normal(size=(4, 5))
        y = rng.integers(0, 5, size=4)
        got = T.cross_entropy(Tensor(z, dtype="f64"), y).item()
        want = np.mean([-np.log(np.exp(z[i] - z[i].max()).take(y[i])
                                / np.exp(z[i] - z[i].max()).sum()) for i in range(4)])
        assert got == pytest.approx(want, abs=1e-6)

    def test_out_of_range_label(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(UsageError, match="out of range"):
            T.cross_entropy(logits, [0, 3])


class TestTensorBasics:
    def test_default_dtype_is_f32(self):
        assert Tensor([1.0, 2.0]).dtype == "f32"
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == "f64"

    def test_nan_rejected_at_creation(self):
        with pytest.raises(NumericsError):
            Tensor(np.array([1.0, np.nan]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_inf_rejected_in_op_output_names_op(self):
        big = Tensor(np.full(4, 3e38, dtype=np.float32))
        with pytest.raises(NumericsError, match="add"):
            T.add(big, big)

    def test_large_finite_f64_accepted(self):
        # the sum of these overflows f64, but every value is finite
        assert Tensor(np.full(2, 1e308), dtype="f64").data.max() == 1e308

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_value_in_large_output_names_op(self, bad):
        x = np.zeros((64, 1000), dtype=np.float32)
        x[37, 411] = bad
        with pytest.raises(NumericsError, match=r"scale: 1 non-finite value"):
            T.scale(Tensor._wrap(x, False), 2.0)

    @pytest.mark.parametrize("value, dtype", [(1e20, np.float32), (-3e19, np.float32),
                                              (1e200, np.float64)])
    def test_finite_values_whose_squares_overflow_pass(self, value, dtype):
        # the sum of squares overflows; min and max then clear the output
        x = np.full((8, 100), value, dtype=dtype)
        for arr in (x, x[:, ::3], x.T):
            T._ensure_finite("scale", arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bad_value_in_strided_view_names_op(self, bad):
        # contiguous or not, one bad value is found and counted
        x = np.ones((64, 100), dtype=np.float32)
        x[7, 42] = bad
        for arr in (x, x[:, ::2], x.T, x[3:40, 10:50]):
            with pytest.raises(NumericsError, match=r"relu: 1 non-finite value"):
                T._ensure_finite("relu", arr)

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(UsageError, match="mixed"):
            T.add(Tensor(np.zeros(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float64)))

    def test_shape_and_grad_invariants(self):
        x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        assert x.size == 6 and x.grad is None
        with Tape() as tape:
            loss = T.sum_(T.mul(x, x))
        tape.backward(loss)
        assert x.grad.shape == x.data.shape

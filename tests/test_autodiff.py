"""Tape mechanics, backward accumulation, and the gradient-check suites.

Finite-difference instance design notes, since FD checks are easy to get
wrong rather than the code being wrong:

* linear ops (matmul, conv) have zero truncation error, so a large step
  kills f32 rounding noise for free;
* max/relu checks keep inputs away from kinks (spaced values, |x| margin);
* normalization checks pin row variance and use alternating-sign
  coefficients so no gradient element is structurally tiny;
* deep-network checks perturb with h=1e-7 so activation kink crossings
  have vanishing measure.
"""

import functools
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from ihvit import tensor as T
from ihvit.resnet import ResNetConfig
from ihvit.tensor import Tape, Tensor, UsageError, grad_check
from ihvit.train import _forward_backward, build_arm, combined_loss
from ihvit.verify import conv_oracle
from ihvit.vit import ViTConfig


class TestTape:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(x)
        tape.backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), dtype="f64", requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(T.mul(x, x))
        tape.backward(loss)
        assert np.allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_gradient_accumulates_over_paths(self):
        # x feeding two branches must receive the sum of both path gradients
        x = Tensor(np.array([1.0, 2.0]), dtype="f64", requires_grad=True)
        a = Tensor(np.array([3.0, 4.0]), dtype="f64")
        with Tape() as tape:
            left = T.mul(x, a)        # d/dx = a
            right = T.mul(x, x)       # d/dx = 2x
            loss = T.sum_(T.add(left, right))
        tape.backward(loss)
        assert np.allclose(x.grad, a.data + 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(UsageError, match="scalar"):
            tape.backward(y)

    def test_one_backward_per_tape(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(x)
        tape.backward(loss)
        with pytest.raises(UsageError, match="already consumed by a backward pass"):
            tape.backward(loss)

    def test_loss_must_be_on_tape(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        loss = T.sum_(x)  # recorded nowhere: no tape active
        with Tape() as tape:
            T.sum_(x)
        with pytest.raises(UsageError, match="not produced"):
            tape.backward(loss)

    def test_no_recording_without_tape(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            pass
        T.sum_(x)
        assert len(tape) == 0

    def test_seed_gradient_scales_the_sweep(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), dtype="f64", requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(T.mul(x, x))
        tape.backward(loss, np.asarray(-0.25))
        assert np.array_equal(x.grad, -0.25 * 2 * x.data)

    def test_seeded_tapes_match_one_tape(self):
        # a loss split across tapes, its inner tape seeded from the outer
        # tape's backward pass, gives the one-tape gradient bit for bit
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))
        with Tape() as whole:
            inner = T.cross_entropy(T.matmul(x, w), [0, 1, 1, 0])
            total = combined_loss([inner], [0.7])
        whole.backward(total)
        want = w.grad
        w.grad = None
        with Tape() as inner_tape:
            inner = T.cross_entropy(T.matmul(x, w), [0, 1, 1, 0])
        with Tape() as outer_tape:
            outer = combined_loss([inner], [0.7])
        outer_tape.backward(outer)
        inner_tape.backward(inner, inner.grad)
        assert w.grad.tobytes() == want.tobytes()

    def test_seeded_non_scalar_loss_matches_one_tape(self):
        # a non-scalar tensor swept from the gradient another tape gave it
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))
        with Tape() as whole:
            loss = T.cross_entropy(T.matmul(x, w), [0, 1, 1, 0])
        whole.backward(loss)
        want = w.grad
        w.grad = None
        with Tape() as inner_tape:
            logits = T.matmul(x, w)
        with Tape() as outer_tape:
            loss = T.cross_entropy(logits, [0, 1, 1, 0])
        outer_tape.backward(loss)
        assert logits.grad.shape == (4, 2)
        inner_tape.backward(logits, logits.grad)
        assert w.grad.tobytes() == want.tobytes()
        with Tape() as tape:
            logits = T.matmul(x, w)
        with pytest.raises(UsageError, match="scalar"):
            tape.backward(logits)

    def test_seed_shape_must_match_loss(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(x)
        with pytest.raises(UsageError, match="seed"):
            tape.backward(loss, np.ones(3, dtype=np.float32))

    def test_nodes_topologically_ordered(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
            z = T.add(y, x)
            T.sum_(z)
        # every input is the leaf x, which the node holds, or is named by
        # the key of an earlier node's output
        produced = set()
        for node in tape._nodes:
            for key, leaf in node.inputs:
                assert key in produced if leaf is None else (leaf is x and key == x._key)
            produced.add(node.out)


class TestTapeMemory:
    """A tape keeps what its backward pass reads, and the pass frees each
    node as it goes: a chain of ops holds its output, not every step."""

    N = 1 << 20  # a 4 MB f32 leaf

    def _chain(self, op):
        """20 ``op`` steps and a sum on a fresh 4 MB leaf, under tracemalloc:
        the leaf, the chain's output and loss, the tape, and the traced
        bytes held after the forward, at the backward's peak and after it."""
        x = Tensor(np.ones(self.N, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = x
                for _ in range(20):
                    y = op(y)
                loss = T.sum_(y)
            held = tracemalloc.get_traced_memory()[0] - base
            assert len(tape) == 21
            tracemalloc.reset_peak()
            tape.backward(loss)
            left, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(tape) == 21
        return x, y, loss, held, peak, left

    def test_chain_holds_one_array_and_frees_as_it_sweeps(self):
        x, y, loss, held, peak, _ = self._chain(lambda t: T.scale(t, 0.5))
        size = x.data.nbytes
        assert held <= 2 * size   # the chain's output; every step at 20 arrays
        assert peak < 4 * size    # the output, the gradient in flight and the next one
        assert np.array_equal(x.grad, np.full(self.N, 0.5 ** 20, dtype=np.float32))
        assert y.grad is None and loss.grad is None

    def test_sweep_frees_saved_arrays_while_the_tape_lives(self):
        # each relu keeps its output for the backward pass; the sweep drops it
        x, _, _, held, _, left = self._chain(T.relu)
        size = x.data.nbytes
        assert held >= 19 * size  # the 20 outputs, the last one y
        assert left <= 3 * size   # the output and x.grad
        assert np.array_equal(x.grad, np.ones(self.N, dtype=np.float32))

    def test_conv_keeps_its_input_not_its_columns(self, monkeypatch):
        # the stem's 7x7 stride-2 conv: its im2col columns are 12x the input;
        # the weight gradient rebuilds them chunk by chunk from the input
        rng = np.random.default_rng(3)
        x = Tensor(rng.random((2, 3, 64, 64), dtype=np.float32))
        c = Tensor(rng.uniform(0.5, 1.0, (2, 4, 32, 32)).astype(np.float32))
        grads = []
        for budget in (T._IM2COL_BYTES, 1):
            monkeypatch.setattr(T, "_IM2COL_BYTES", budget)
            w = Tensor(rng.uniform(-0.1, 0.1, (4, 3, 7, 7)).astype(np.float32),
                       requires_grad=True)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with Tape() as tape:
                    y = T.conv2d(x, w, stride=2, pad=3)
                    held = tracemalloc.get_traced_memory()[0] - base
                    loss = T.sum_(T.mul(y, c))
            finally:
                tracemalloc.stop()
            assert held <= y.data.nbytes + x.data.nbytes  # the columns: 1.2 MB
            tape.backward(loss)
            grads.append(w.grad)
        assert grads[0].tobytes() == grads[1].tobytes()
        # the loss is linear in w, so <w.grad, d> is the loss at weight d
        d = rng.uniform(-1, 1, (2, 4, 3, 7, 7))
        want = (conv_oracle(x.data, d.reshape(8, 3, 7, 7), None, 2, 3).reshape(2, 2, 4, 32, 32)
                * c.data[:, None]).sum(axis=(0, 2, 3, 4))
        got = (d * grads[0]).sum(axis=(1, 2, 3, 4))
        assert np.abs(got - want).max() <= 1e-3 * np.abs(want).max()

    def test_relu_frees_its_input(self):
        x = Tensor(np.linspace(-1, 1, self.N, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            h = T.scale(x, 2.0)
            ref = weakref.ref(h.data)
            loss = T.sum_(T.relu(h))
        del h
        assert ref() is None
        tape.backward(loss)
        assert np.array_equal(x.grad, np.where(x.data > 0, 2, 0).astype(np.float32))

    def test_gelu_keeps_its_derivative_alone(self):
        # a taped gelu keeps Phi(x) + x * pdf(x), not x and Phi(x)
        x = Tensor(np.linspace(-4, 4, self.N, dtype=np.float32), requires_grad=True)
        size = x.data.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                h = T.scale(x, 1.0)
                loss = T.sum_(T.gelu(h))
            del h
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert size <= held < 1.5 * size
        tape.backward(loss)
        assert np.array_equal(x.grad > 0, x.data > -0.75179)  # the derivative's one root

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_gelu_gradient_bytes_match_the_backward_formula(self, dtype):
        # the derivative's passes, in the order the backward once ran them,
        # over the whole input; gelu makes them block by block
        rng = np.random.default_rng(12)
        xs = rng.normal(0, 3, (3, 66671)).astype(T._DTYPES[dtype])
        assert xs.nbytes > 2 * T._GELU_BLOCK_BYTES
        gs = rng.normal(size=xs.shape).astype(xs.dtype)
        if dtype == "f64":
            phi = T._erf_f64(xs / np.sqrt(2.0))
            phi += 1.0
            phi *= 0.5
        else:
            phi = T._phi_f32(xs)
        want = np.square(xs)
        want *= -0.5
        np.exp(want, out=want)
        want *= xs.dtype.type(T._INV_SQRT2PI)
        want *= xs
        want += phi
        want *= gs
        x = Tensor(xs, requires_grad=True)
        with Tape() as tape:
            y = T.gelu(x)
            loss = T.sum_(T.mul(y, Tensor(gs)))
        tape.backward(loss)
        assert y.data.tobytes() == (xs * phi).tobytes()
        assert x.grad.dtype == xs.dtype and x.grad.tobytes() == want.tobytes()

    def test_tape_free_gelu_keeps_nothing(self):
        # no tape, or an input that needs no gradient: only the output is left
        for requires_grad, taped in ((True, False), (False, True)):
            x = Tensor(np.linspace(-4, 4, self.N, dtype=np.float32),
                       requires_grad=requires_grad)
            tape = Tape()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                if taped:
                    with tape:
                        y = T.gelu(x)
                else:
                    y = T.gelu(x)
                held = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert len(tape) == 0
            assert y.data.nbytes <= held < 1.1 * y.data.nbytes

    def test_maxpool_keeps_no_padded_copy(self):
        # the stem's 3x3 stride-2 pad-1 pool: a padded copy is 1.06x the input
        x = Tensor(np.random.default_rng(4).permutation(2 * 4 * 64 * 64)
                   .reshape(2, 4, 64, 64).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = T.maxpool2d(x, 3, 2, 1)
                held = tracemalloc.get_traced_memory()[0] - base
                loss = T.sum_(y)
        finally:
            tracemalloc.stop()
        assert held <= y.data.nbytes + x.data.nbytes // 2
        tape.backward(loss)
        # distinct values: each window's gradient goes to its one max
        assert x.grad.sum() == y.data.size
        assert np.array_equal(x.grad > 0, np.isin(x.data, y.data))

    def test_keys_stay_unique_across_threads(self):
        # the branch threads create tensors at once; a repeated key would
        # merge two tensors' gradients on a tape
        keys = [[] for _ in range(8)]

        def make(out):
            for _ in range(5000):
                out.append(Tensor._wrap(np.zeros(1, dtype=np.float32), False)._key)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=make, args=(k,)) for k in keys]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        flat = [k for ks in keys for k in ks]
        assert len(flat) == 8 * 5000 and len(set(flat)) == len(flat)

    def test_no_backward_closure_holds_a_tensor(self, monkeypatch):
        # a closure that captured a Tensor would keep its array, and the
        # arrays its own node keeps, alive until the tape dies
        seen, holders = [], []
        record = Tape._record

        def checked(tape, op, inputs, out, backward):
            cells = [c.cell_contents for c in backward.__closure__ or ()]
            items = [i for v in cells for i in (v if isinstance(v, (tuple, list)) else (v,))]
            seen.append(op)
            if any(isinstance(i, Tensor) for i in items):
                holders.append(op)
            record(tape, op, inputs, out, backward)

        monkeypatch.setattr(Tape, "_record", checked)
        arm = build_arm("ih-vit", ViTConfig(classes=6), ResNetConfig.desk(classes=6), seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 3, 224, 224), dtype=np.float32))
        _forward_backward(arm, x, np.array([0, 5]), arm.branch_weights())
        assert len(seen) == 490 and {"conv2d", "matmul", "maxpool2d", "add"} <= set(seen)
        assert holders == []


class TestGradCheckHarness:
    def test_linear_function_is_exact(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 3)), dtype="f64")
        assert grad_check(lambda z: T.sum_(z), x) <= 1e-9

    def test_matmul_cross_entropy_composite(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(5, 3)), dtype="f64")
        x = Tensor(rng.normal(size=(2, 5)), dtype="f64")
        err = grad_check(lambda z: T.cross_entropy(T.matmul(z, w), [0, 2]), x)
        assert err <= 1e-5
        # hand gradient of the same function as a second anchor
        x.requires_grad = True
        with Tape() as tape:
            loss = T.cross_entropy(T.matmul(x, w), [0, 2])
        tape.backward(loss)
        z = x.data @ w.data
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(2), [0, 2]] -= 1
        want = (p / 2) @ w.data.T
        assert np.abs(x.grad - want).max() <= 1e-12

    def test_planted_wrong_backward_detected(self):
        # a backward off by x2 must report relative error ~0.5
        def doubled_sum(t):
            out = T.sum_(t)
            bad = T._apply("bad_scale", out.data.copy(), (out,), lambda g: (2.0 * g,))
            return bad

        x = Tensor(np.random.default_rng(3).normal(size=(2, 2)), dtype="f64")
        err = grad_check(doubled_sum, x)
        assert err == pytest.approx(0.5, abs=1e-6)


def _run_instances(make, n, dtype, h):
    worst = 0.0
    accepted = 0
    seed = 0
    while accepted < n:
        seed += 1
        assert seed < 60 * n, "instance screening rejected too many draws"
        if dtype == "f32" and not _well_conditioned(make, seed):
            continue
        f, x = make(np.random.default_rng(1000 + seed), dtype)
        worst = max(worst, grad_check(f, x, h=h))
        accepted += 1
    return worst


def _well_conditioned(make, seed, floor=1e-2):
    """f32 FD is ill-posed where the true gradient has small nonzero
    elements (the relative-error denominator bottoms out); screen instances
    with the f64 analytic gradient, which the f64 FD suite independently
    verifies.  Exact zeros (relu/maxpool dead paths) difference to exact
    zeros and stay well-posed."""
    f, x = make(np.random.default_rng(1000 + seed), "f64")
    x.requires_grad = True
    with Tape() as tape:
        out = f(x)
    tape.backward(out)
    mags = np.abs(x.grad)
    nonzero = mags[mags > 1e-12]
    return nonzero.size == 0 or float(nonzero.min()) >= floor


def mk_matmul(r, dt):
    b = Tensor(r.uniform(0.5, 1.5, (4, 2)), dtype=dt)
    c = Tensor(r.uniform(0.5, 1.0, (3, 2)), dtype=dt)
    x = Tensor(r.uniform(0.5, 1.5, (3, 4)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.matmul(z, b), c))), x


def mk_matmul_rhs(r, dt):
    a = Tensor(r.uniform(0.5, 1.5, (3, 4)), dtype=dt)
    c = Tensor(r.uniform(0.5, 1.0, (3, 2)), dtype=dt)
    x = Tensor(r.uniform(0.5, 1.5, (4, 2)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.matmul(a, z), c))), x


def mk_conv_x(r, dt, batch=1):
    w = Tensor(r.uniform(0.1, 0.5, (2, 2, 3, 3)), dtype=dt)
    bias = Tensor(r.uniform(0.0, 0.2, 2), dtype=dt)
    c = Tensor(r.uniform(0.5, 1.0, (batch, 2, 5, 5)), dtype=dt)
    x = Tensor(r.uniform(0.5, 1.5, (batch, 2, 5, 5)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.conv2d(z, w, bias, 1, 1), c))), x


def mk_conv_w(r, dt, batch=1):
    xin = Tensor(r.uniform(0.5, 1.5, (batch, 2, 5, 5)), dtype=dt)
    c = Tensor(r.uniform(0.5, 1.0, (batch, 3, 3, 3)), dtype=dt)
    x = Tensor(r.uniform(0.1, 0.5, (3, 2, 3, 3)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.conv2d(xin, z, stride=2, pad=1), c))), x


def mk_maxpool(r, dt):
    vals = np.linspace(-1, 1, 72)  # spaced so a small step never swaps the argmax
    c = Tensor(r.uniform(0.5, 1.0, (1, 2, 3, 3)), dtype=dt)
    x = Tensor(r.permutation(vals).reshape(1, 2, 6, 6), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.maxpool2d(z, 2, 2, 0), c))), x


def mk_relu(r, dt):
    signs = np.where(r.random((3, 4)) < 0.5, -1.0, 1.0)
    c = Tensor(r.uniform(0.5, 1.0, (3, 4)), dtype=dt)
    x = Tensor(signs * r.uniform(0.2, 1.5, (3, 4)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.relu(z), c))), x


def mk_gelu(r, dt):
    c = Tensor(r.uniform(0.5, 1.0, (3, 4)), dtype=dt)
    x = Tensor(r.uniform(0.2, 2.0, (3, 4)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.gelu(z), c))), x


def mk_softmax(r, dt):
    c = Tensor(np.resize([4.0, -4.0], (2, 4)) * r.uniform(0.9, 1.1, (2, 4)), dtype=dt)
    x = Tensor(r.uniform(-0.4, 0.4, (2, 4)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.softmax(z, -1), c))), x


def mk_layernorm(r, dt):
    d = 8
    g = Tensor(r.uniform(0.8, 1.2, d), dtype=dt)
    b = Tensor(r.uniform(-0.5, 0.5, d), dtype=dt)
    rows = np.stack([r.permutation(np.linspace(-1.2, 1.2, d)) for _ in range(2)])
    c = Tensor(np.resize([1.0, -1.0], (2, d)) * r.uniform(0.8, 1.2, (2, d)), dtype=dt)
    x = Tensor(rows + r.uniform(-0.05, 0.05, (2, d)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.layernorm(z, g, b), c))), x


def mk_instance_norm(r, dt):
    g = Tensor(r.uniform(0.8, 1.2, 2), dtype=dt)
    b = Tensor(np.zeros(2), dtype=dt)
    flat = np.stack([r.permutation(np.linspace(-1.2, 1.2, 16)) for _ in range(2)])
    c = Tensor(np.resize([1.0, -1.0], (1, 2, 4, 4)) * r.uniform(0.8, 1.2, (1, 2, 4, 4)), dtype=dt)
    x = Tensor(flat.reshape(1, 2, 4, 4) + r.uniform(-0.05, 0.05, (1, 2, 4, 4)), dtype=dt)
    return (lambda z: T.sum_(T.mul(T.instance_norm2d(z, g, b), c))), x


def mk_cross_entropy(r, dt):
    y = r.integers(0, 4, 3)
    x = Tensor(r.uniform(-1, 1, (3, 4)), dtype=dt)
    return (lambda z: T.cross_entropy(z, y)), x


def mk_combined_loss(r, dt):
    b = Tensor(r.uniform(0.5, 1.5, (3, 1)), dtype=dt)
    x = Tensor(r.uniform(0.5, 1.5, (1, 3)), dtype=dt)

    def f(z):
        l1 = T.reshape(T.matmul(z, b), ())
        l2 = T.sum_(T.mul(z, z))
        return combined_loss([l1, l2], [1.0, 0.5])

    return f, x


def mk_structural(r, dt):
    # reshape / transpose / concat / slice / broadcast / mean / neg / sub in one
    # graph; the neg argument stays negative, so the loss is the mean of |u|
    c = Tensor(r.uniform(0.5, 1.0, (4, 3)), dtype=dt)
    x = Tensor(r.uniform(0.5, 1.5, (2, 3)), dtype=dt)

    def f(z):
        t = T.transpose(z, (1, 0))            # [3, 2]
        t = T.reshape(t, (2, 3))
        both = T.concat([t, T.broadcast_to(z[0:1, :], (2, 3))], axis=0)  # [4, 3]
        return T.mean(T.neg(T.sub(T.mul(both, c), T.scale(c, 3.0))))

    return f, x


OP_SUITE = [
    ("matmul", mk_matmul, 1e-5, 0.05),
    ("matmul_rhs", mk_matmul_rhs, 1e-5, 0.05),
    ("conv2d_x", mk_conv_x, 1e-5, 0.05),
    ("conv2d_w", mk_conv_w, 1e-5, 0.05),
    ("maxpool2d", mk_maxpool, 1e-6, 0.01),
    ("relu", mk_relu, 1e-5, 5e-3),
    ("gelu", mk_gelu, 1e-5, 5e-3),
    ("softmax", mk_softmax, 1e-5, 5e-3),
    ("layernorm", mk_layernorm, 1e-5, 0.01),
    ("instance_norm2d", mk_instance_norm, 1e-5, 0.01),
    ("cross_entropy", mk_cross_entropy, 1e-5, 0.01),
    ("combined_loss", mk_combined_loss, 1e-5, 0.01),
    ("structural", mk_structural, 1e-5, 0.01),
]


@pytest.mark.parametrize("name,mk,h64,h32", OP_SUITE, ids=[o[0] for o in OP_SUITE])
def test_gradients_f64(name, mk, h64, h32):
    assert _run_instances(mk, 10, "f64", h64) <= 1e-5


@pytest.mark.parametrize("name,mk,h64,h32", OP_SUITE, ids=[o[0] for o in OP_SUITE])
def test_gradients_f32(name, mk, h64, h32):
    assert _run_instances(mk, 10, "f32", h32) <= 1e-3


CONV_SUITE = [o for o in OP_SUITE if o[0].startswith("conv2d")]


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("name,mk,h64,h32", CONV_SUITE, ids=[o[0] for o in CONV_SUITE])
def test_conv2d_gradients_across_im2col_chunks(monkeypatch, name, mk, h64, h32, dtype):
    # a one-byte budget gives one image per im2col chunk: a batch of 3 spans 3;
    # the 5x5 plane would otherwise take the dense path
    monkeypatch.setattr(T, "_IM2COL_BYTES", 1)
    monkeypatch.setattr(T, "_DENSE_PLANE_RATIO", 0)
    make = functools.partial(mk, batch=3)
    if dtype == "f64":
        assert _run_instances(make, 10, "f64", h64) <= 1e-5
    else:
        assert _run_instances(make, 10, "f32", h32) <= 1e-3


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("name,mk,h64,h32", CONV_SUITE, ids=[o[0] for o in CONV_SUITE])
def test_conv2d_gradients_on_both_paths(conv_path, name, mk, h64, h32, dtype):
    if dtype == "f64":
        assert _run_instances(mk, 10, "f64", h64) <= 1e-5
    else:
        assert _run_instances(mk, 10, "f32", h32) <= 1e-3


def mk_conv1x1(r, dt, wrt, stride, bias):
    xin = Tensor(r.uniform(0.5, 1.5, (2, 3, 5, 5)), dtype=dt)
    w = Tensor(r.uniform(0.1, 0.5, (4, 3, 1, 1)), dtype=dt)
    b = Tensor(r.uniform(0.0, 0.2, 4), dtype=dt) if bias else None
    oh = T.conv_out_extent(5, 1, stride, 0)
    c = Tensor(r.uniform(0.5, 1.0, (2, 4, oh, oh)), dtype=dt)
    if wrt == "x":
        return (lambda z: T.sum_(T.mul(T.conv2d(z, w, b, stride), c))), xin
    return (lambda z: T.sum_(T.mul(T.conv2d(xin, z, b, stride), c))), w


@pytest.mark.parametrize("one_image_chunks", [False, True])
@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("wrt", ["x", "w"])
def test_conv2d_1x1_gradients(monkeypatch, wrt, stride, bias, dtype, one_image_chunks):
    # a 1x1 stride-1 conv of a contiguous input takes its im2col columns as
    # a view of the input; the conv2d tolerances of OP_SUITE apply
    if one_image_chunks:
        monkeypatch.setattr(T, "_IM2COL_BYTES", 1)
    make = functools.partial(mk_conv1x1, wrt=wrt, stride=stride, bias=bias)
    if dtype == "f64":
        assert _run_instances(make, 10, "f64", 1e-5) <= 1e-5
    else:
        assert _run_instances(make, 10, "f32", 0.05) <= 1e-3


@pytest.mark.parametrize("conv_path", ["dense"], indirect=True)
@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("wrt", ["x", "w"])
def test_conv2d_1x1_gradients_dense(conv_path, wrt, stride, bias, dtype):
    # test_conv2d_1x1_gradients runs these cases through im2col
    make = functools.partial(mk_conv1x1, wrt=wrt, stride=stride, bias=bias)
    if dtype == "f64":
        assert _run_instances(make, 10, "f64", 1e-5) <= 1e-5
    else:
        assert _run_instances(make, 10, "f32", 0.05) <= 1e-3


def test_slice_gradient_sums_repeated_indices():
    rng = np.random.default_rng(5)
    idx = np.concatenate([[0, 0, 2], rng.integers(0, 6, size=9)])
    c = rng.integers(1, 9, size=(idx.size, 3)).astype(np.float64)  # exact sums
    x = Tensor(rng.normal(size=(6, 3)), dtype="f64", requires_grad=True)
    with Tape() as tape:
        loss = T.sum_(T.mul(x[idx], Tensor(c)))
    tape.backward(loss)
    want = np.zeros((6, 3))
    for row, i in enumerate(idx):
        want[i] += c[row]
    assert np.array_equal(x.grad, want)


def test_composite_conv_relu_matmul_ce_pinned_steps():
    # conv -> relu -> matmul -> cross_entropy at the conventional step sizes
    # per dtype.  Class projections are centered (+-gap/2) so logits stay
    # O(1); f64 checks the conv input, f32 checks the conv weight, whose
    # gradient accumulates over every output position and therefore stays
    # well above the f32 difference noise at h=1e-3.
    def build(dt):
        rng = np.random.default_rng(11)
        w = Tensor(rng.uniform(0.35, 0.5, (1, 1, 2, 2)), dtype=dt)
        bias = Tensor(rng.uniform(0.1, 0.2, 1), dtype=dt)
        gap = rng.uniform(0.25, 0.35, (4, 1))
        proj = Tensor(np.concatenate([-gap / 2, gap / 2], axis=1), dtype=dt)
        x = Tensor(rng.uniform(0.3, 0.6, (1, 1, 3, 3)), dtype=dt)

        def f_of_x(z):
            y = T.relu(T.conv2d(z, w, bias, stride=1, pad=0))
            return T.cross_entropy(T.matmul(T.reshape(y, (1, -1)), proj), [1])

        def f_of_w(z):
            y = T.relu(T.conv2d(x, z, bias, stride=1, pad=0))
            return T.cross_entropy(T.matmul(T.reshape(y, (1, -1)), proj), [1])

        return f_of_x, f_of_w, x, w

    f_x, _, x64, _ = build("f64")
    assert grad_check(f_x, x64, h=1e-5) <= 1e-5
    _, f_w, _, w32 = build("f32")
    assert grad_check(f_w, w32, h=1e-3) <= 1e-3

"""Dense tensors with reverse-mode automatic differentiation.

Tensors are plain row-major numpy arrays (f32 by default, f64 for
verification) wrapped with a ``requires_grad`` flag.  Differentiable
operations record themselves onto an explicit :class:`Tape`; there is no
global graph.  A tape is created per training step::

    with Tape() as tape:
        loss = cross_entropy(matmul(x, w), labels)
    tape.backward(loss)      # populates .grad on the leaves the loss reaches

Every forward output is checked for NaN/Inf: a contiguous one through
its sum of squares, and any whose sum is not finite, or that is strided,
through its minimum and maximum, which a NaN turns into NaN and an
infinity into +-Inf; a non-finite value aborts the step with a
diagnostic naming the operation.

A tape keeps only what its backward pass reads and frees it as the pass
goes: a taped GELU, for one, keeps its derivative, not its input and
Phi(input).  ``.grad`` goes onto the tape's leaves only, the tensors it
did not produce (parameters, inputs); intermediates get none.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Sequence

import numpy as np

_DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# the f64 reference erf; otypes keeps a 0-d or empty input an f64 array
_erf_f64 = np.vectorize(math.erf, otypes=[np.float64])

# every Tensor's identity on a tape; unlike id(), never reused once the
# tensor dies, and next() on a count is atomic under the GIL
_KEYS = itertools.count()


class TensorError(Exception):
    """Base class for tensor-library failures."""


class ShapeError(TensorError):
    """Operand shapes cannot be combined by the requested operation."""


class UsageError(TensorError):
    """API misuse: bad tape state, dtype mix, non-scalar loss, bad labels."""


class NumericsError(TensorError):
    """A forward output contained NaN or Inf."""


class Tensor:
    """Dense multi-dimensional array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, dtype: str | None = None, requires_grad: bool = False):
        if dtype is not None and dtype not in _DTYPES:
            raise UsageError(f"unknown dtype {dtype!r}; expected 'f32' or 'f64'")
        keep = isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64)
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(_DTYPES[dtype], copy=False)
        elif not keep:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._key = next(_KEYS)
        _ensure_finite("tensor", self.data)

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        t = object.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        t._key = next(_KEYS)
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self.data.dtype]

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return slice_(self, key)


class _Node:
    """One recorded operation: its output's key and, per input, None when
    the input needs no gradient, else ``(key, leaf)`` with ``leaf`` the
    input itself if the tape did not produce it, and None if it did."""

    __slots__ = ("op", "inputs", "out", "backward")

    def __init__(self, op, inputs, out, backward):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.backward = backward


class Tape:
    """Ordered record of one forward pass, consumed by one backward pass."""

    def __init__(self):
        self._nodes: list[_Node | None] = []
        self._produced: set[int] = set()
        self._spent = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise UsageError("tape context exited out of order")
        stack.pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, op: str, inputs: tuple[Tensor, ...], out: Tensor, backward) -> None:
        made = self._produced
        ins = tuple(((t._key, None if t._key in made else t) if t.requires_grad else None)
                    for t in inputs)
        made.add(out._key)
        self._nodes.append(_Node(op, ins, out._key, backward))

    def backward(self, loss: Tensor, grad: np.ndarray | None = None) -> None:
        """Reverse sweep from ``loss``; gradients sum over all paths.

        The sweep starts from ``grad``, the gradient of the final objective
        with respect to ``loss``, or from ones when it is not given; without
        ``grad`` the loss must be a scalar.  A tensor, scalar or not, that
        feeds a larger objective recorded on another tape takes its
        ``.grad`` from that tape's backward pass as ``grad`` here.

        A node keeps keys, its leaf inputs (see :class:`_Node`) and a closure
        over only the arrays and shapes its backward reads.  The sweep sets
        each entry to None once it has passed that node's gradient on, which
        frees what the node kept; the tape keeps its length.  Only leaves,
        the tensors this tape did not produce, get ``.grad``.
        """
        if grad is None:
            if loss.data.size != 1:
                raise UsageError(f"backward requires a scalar loss or a seed gradient, "
                                 f"got shape {loss.shape}")
            grad = np.ones_like(loss.data)
        elif np.shape(grad) != loss.shape:
            raise UsageError(f"backward: seed gradient shape {np.shape(grad)} != loss shape "
                             f"{loss.shape}")
        if self._spent:
            raise UsageError("tape already consumed by a backward pass")
        if loss._key not in self._produced:
            raise UsageError("loss tensor was not produced on this tape")
        self._spent = True

        nodes = self._nodes
        grads: dict[int, np.ndarray] = {loss._key: np.asarray(grad, dtype=loss.data.dtype)}
        leaves: dict[int, Tensor] = {}
        for i in range(len(nodes) - 1, -1, -1):
            node, nodes[i] = nodes[i], None
            g = grads.pop(node.out, None)
            if g is None:
                continue
            for inp, gi in zip(node.inputs, node.backward(g)):
                if inp is None or gi is None:
                    continue
                key, leaf = inp
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
                    if leaf is not None:
                        leaves[key] = leaf
        for key, t in leaves.items():
            t.grad = grads[key]


_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def _current_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def _ensure_finite(op: str, arr: np.ndarray) -> None:
    # allocation-free probes.  A sum of squares is finite unless an element
    # is not or the sum overflows; one BLAS pass (vdot, which unlike dot
    # does not warn on overflow) clears a contiguous array.  Otherwise min
    # and max decide: they propagate NaN, an infinity is one of them, and
    # neither can overflow on finite data
    if arr.size == 0 or (arr.flags.c_contiguous and math.isfinite(np.vdot(arr, arr))):
        return
    if math.isfinite(arr.min()) and math.isfinite(arr.max()):
        return
    finite = np.isfinite(arr)
    n_bad = int(arr.size - finite.sum())
    raise NumericsError(
        f"{op}: {n_bad} non-finite value(s) in output of shape {tuple(arr.shape)}"
    )


def _check_dtypes(op: str, *tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        names = [t.dtype for t in tensors]
        raise UsageError(f"{op}: mixed dtypes {names}")


def _apply(op: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn,
           check: bool = True) -> Tensor:
    # pure data-movement ops cannot create non-finite values from checked inputs
    if check:
        _ensure_finite(op, out_data)
    rg = any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, rg)
    tape = _current_tape()
    if tape is not None and rg:
        tape._record(op, inputs, out, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("add", a, b)
    na, nb = a.requires_grad, b.requires_grad
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(g, sa) if na else None,
                _unbroadcast(g, sb) if nb else None)

    return _apply("add", a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("sub", a, b)
    na, nb = a.requires_grad, b.requires_grad
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(g, sa) if na else None,
                _unbroadcast(-g, sb) if nb else None)

    return _apply("sub", a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("mul", a, b)
    na, nb = a.requires_grad, b.requires_grad
    sa, sb = a.shape, b.shape
    # each operand is kept only for the other's gradient
    da, db = (a.data if nb else None), (b.data if na else None)

    def bwd(g):
        return (_unbroadcast(g * db, sa) if na else None,
                _unbroadcast(g * da, sb) if nb else None)

    return _apply("mul", a.data * b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _apply("neg", -a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)
    return _apply("scale", a.data * c, (a,), lambda g: (g * c,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return _apply("reshape", a.data.reshape(shape), (a,),
                  lambda g: (g.reshape(old),), check=False)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _apply("transpose", a.data.transpose(axes), (a,),
                  lambda g: (g.transpose(inv),), check=False)


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    out = np.broadcast_to(a.data, shape).copy()
    return _apply("broadcast_to", out, (a,), lambda g: (_unbroadcast(g, old),), check=False)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    _check_dtypes("concat", *tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _apply("concat", np.concatenate([t.data for t in tensors], axis=axis),
                  tensors, bwd, check=False)


def slice_(a: Tensor, key) -> Tensor:
    out = a.data[key]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out, dtype=a.data.dtype)
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, key, g)  # a repeated index takes the sum of its gradients
        return (full,)

    return _apply("slice", np.ascontiguousarray(out), (a,), bwd, check=False)


def _reduce(op: str, a: Tensor, out: np.ndarray, axis, c: float = 1.0) -> Tensor:
    """Record a sum-like reduction: the gradient is ``c`` times the
    incoming one, spread back over the reduced axes."""
    shape = a.shape

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        if c != 1.0:
            g = g * g.dtype.type(c)
        return (np.broadcast_to(g, shape).copy(),)

    return _apply(op, out, (a,), bwd)


def sum_(a: Tensor, axis=None) -> Tensor:
    return _reduce("sum", a, a.data.sum(axis=axis), axis)


def mean(a: Tensor, axis=None) -> Tensor:
    ax = range(a.ndim) if axis is None else (axis,) if isinstance(axis, int) else axis
    count = int(np.prod([a.shape[i] for i in ax]))
    return _reduce("mean", a, a.data.mean(axis=axis), axis, 1.0 / count)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("matmul", a, b)
    da, db = a.data, b.data
    if da.ndim < 2 or db.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} x {b.shape}")
    if da.shape[-1] != db.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")
    if da.ndim != db.ndim or da.shape[:-2] != db.shape[:-2]:
        raise ShapeError(f"matmul: batch dimensions differ: {a.shape} x {b.shape}")
    na, nb = a.requires_grad, b.requires_grad
    out = da @ db
    da, db = (da if nb else None), (db if na else None)  # as in mul

    def bwd(g):
        return (g @ db.swapaxes(-1, -2) if na else None,
                da.swapaxes(-1, -2) @ g if nb else None)

    return _apply("matmul", out, (a, b), bwd)


# ---------------------------------------------------------------------------
# activations


def relu(a: Tensor) -> Tensor:
    """max(a, 0); a tape keeps the output, which is > 0 exactly where ``a`` is."""
    out = np.maximum(a.data, 0)
    return _apply("relu", out, (a,), lambda g: (g * (out > 0),))


# Abramowitz & Stegun 7.1.26: erfc(z) ~ t*P(t)*exp(-z^2), t = 1/(1 + p*z), for
# z >= 0, within 1.5e-7 of erfc; _PHI_TAIL holds P's coefficients halved, so
# the product is 1 - Phi(sqrt(2)*z), highest degree first
_PHI_P = 0.3275911
_PHI_TAIL = (0.5307027145, -0.7265760135, 0.7107068705, -0.142248368, 0.127414796)
# |z| is capped here: erfc(9) is below 1e-35, and the cap keeps z^2 finite
_PHI_Z_MAX = 9.0


def _phi_f32(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF of f32 ``x`` in a few whole-array passes.

    ``math.erf`` costs one Python call per value; this is 7.1.26 on
    |x|/sqrt(2), with the tail Phi(-|x|) folded back by sign.  The contract
    is absolute: within 5e-7 of the f64 form on [-10, 10].  Small values
    are not kept relatively: ``0.5 - tail + 0.5`` rounds the tail to a
    multiple of about 3e-8, so Phi(-5) comes out 2.98e-7 (true 2.87e-7)
    and Phi(-6) 0.0 (true 9.9e-10)."""
    f = x.dtype.type
    shape = x.shape
    x = np.atleast_1d(x)  # a ufunc returns a 0-d result as a scalar, which out= refuses
    z = np.abs(x)
    z *= f(_INV_SQRT2)
    np.minimum(z, f(_PHI_Z_MAX), out=z)
    t = z * f(_PHI_P)
    t += f(1.0)
    np.reciprocal(t, out=t)
    tail = t * f(_PHI_TAIL[0])
    for c in _PHI_TAIL[1:]:
        tail += f(c)
        tail *= t
    np.square(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    tail *= z                      # Phi(-|x|)
    np.subtract(f(0.5), tail, out=tail)
    np.copysign(tail, x, out=tail)
    tail += f(0.5)
    return tail.reshape(shape)


# gelu makes its passes over blocks of this many bytes of input, which stay
# in cache from one pass to the next
_GELU_BLOCK_BYTES = 256 << 10


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF form x * Phi(x), not the tanh approximation.

    f64 takes Phi from ``math.erf``, element by element, so it equals
    ``0.5 * (1 + math.erf(x / math.sqrt(2)))`` bit for bit.  f32 takes it
    from ``_phi_f32``, whose output is within 5e-7 of the f64 form for
    |x| <= 10.

    A tape that records the op keeps one input-sized array, the derivative
    ``Phi(x) + x * pdf(x)``, built in the forward; the backward multiplies
    it by the incoming gradient.  Without a tape nothing more than the
    output is computed.  Every pass is elementwise, so the blocks of
    ``_GELU_BLOCK_BYTES`` change no bit of either."""
    x = a.data
    flat = np.ascontiguousarray(x).reshape(-1)  # a 0-d x gives one element
    out = np.empty_like(flat)
    d = np.empty_like(flat) if a.requires_grad and _current_tape() is not None else None
    step = _GELU_BLOCK_BYTES // flat.itemsize
    for i in range(0, flat.size, step):
        xb = flat[i:i + step]
        if xb.dtype == np.float64:
            phi_cdf = _erf_f64(xb / math.sqrt(2.0))
            phi_cdf += 1.0
            phi_cdf *= 0.5
        else:
            phi_cdf = _phi_f32(xb)
        np.multiply(xb, phi_cdf, out=out[i:i + step])
        if d is not None:
            db = np.square(xb, out=d[i:i + step])
            db *= -0.5
            np.exp(db, out=db)
            db *= xb.dtype.type(_INV_SQRT2PI)
            db *= xb
            db += phi_cdf
    if d is not None:
        d = d.reshape(x.shape)

    def bwd(g):
        # a tape runs a node's backward once, so d can take the product in place
        return (np.multiply(d, g, out=d),)

    return _apply("gelu", out.reshape(x.shape), (a,), bwd)


def _shifted_exp(z: np.ndarray, axis: int):
    """The maximum along ``axis``, ``exp(z - max)`` and its sum along
    ``axis``; the shift by the maximum keeps every exp finite."""
    top = z.max(axis=axis, keepdims=True)
    e = z - top
    np.exp(e, out=e)
    return top, e, e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    _, out, se = _shifted_exp(a.data, axis)
    out /= se

    def bwd(g):
        # (g - <g, out>) * out, with the row dot taken without a g*out buffer
        dot = np.einsum("...i,...i->...", np.moveaxis(g, axis, -1), np.moveaxis(out, axis, -1))
        gx = g - np.expand_dims(dot, axis)
        gx *= out
        return (gx,)

    return _apply("softmax", out, (a,), bwd)


# ---------------------------------------------------------------------------
# normalization

# the variance guard of every layernorm and instance norm
_NORM_EPS = 1e-5


def _normalize(op: str, x: Tensor, gamma: Tensor, beta: Tensor, axes, ch: int) -> Tensor:
    """Zero-mean, unit-variance over ``axes``, then a per-entry affine along axis ``ch``."""
    _check_dtypes(op, x, gamma, beta)
    c = x.shape[ch]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"{op}: gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}")
    ch %= x.ndim
    shape = tuple(c if i == ch else 1 for i in range(x.ndim))
    param_axes = tuple(i for i in range(x.ndim) if i != ch)
    g_ = gamma.data.reshape(shape)
    xhat = x.data - x.data.mean(axis=axes, keepdims=True)
    # the same sums, in the same order, as np.var
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=axes, keepdims=True)
                        + x.data.dtype.type(_NORM_EPS))
    xhat *= inv
    out = xhat * g_ + beta.data.reshape(shape)
    factored = ch not in {i % x.ndim for i in np.atleast_1d(axes)}  # gamma constant over axes

    def bwd(g):
        # gx = inv * (gc - mean(gc) - xhat * mean(gc * xhat)) with gc = g * gamma; where
        # gamma is constant over the reduced axes it moves out: gc = g, scaled by inv * gamma
        gxh = g * xhat
        dgamma = gxh.sum(axis=param_axes)
        if factored:
            gc, scale = g, inv * g_
        else:
            gc, scale = g * g_, inv
            gxh *= g_
        gx = np.multiply(xhat, gxh.mean(axis=axes, keepdims=True), out=gxh)  # unread after its mean
        np.subtract(gc, gx, out=gx)
        gx -= gc.mean(axis=axes, keepdims=True)
        gx *= scale
        return gx, dgamma, g.sum(axis=param_axes)

    return _apply(op, out, (x, gamma, beta), bwd)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-token normalization over the last axis, then affine."""
    return _normalize("layernorm", x, gamma, beta, -1, -1)


def instance_norm2d(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel normalization over each instance's spatial dims.

    Batch-statistics-free, so batches of 1 behave identically to larger
    batches; used in place of batch norm throughout the CNN branch.
    """
    if x.ndim != 4:
        raise ShapeError(f"instance_norm2d: expected 4-D input, got {x.shape}")
    return _normalize("instance_norm2d", x, gamma, beta, (2, 3), 1)


# ---------------------------------------------------------------------------
# convolution / pooling


def conv_out_extent(extent: int, k: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - k) // stride + 1


# im2col matrices are built for at most this many bytes of images at a
# time (always at least one image), and each chunk is dropped after its
# GEMM: the forward and the weight gradient each hold one chunk at once
_IM2COL_BYTES = 4 << 20


# a conv whose input plane is at most this many times the kernel area, and
# whose unrolled weight matrix fits in _IM2COL_BYTES, runs as one GEMM
# against that matrix: H*W/(KH*KW) times the multiply-adds of im2col, but
# no window gather and nothing kept for the weight gradient but the matrix
_DENSE_PLANE_RATIO = 8


def _out_extents(op: str, h: int, w: int, kh: int, kw: int, stride: int,
                 pad: int) -> tuple[int, int]:
    oh = conv_out_extent(h, kh, stride, pad)
    ow = conv_out_extent(w, kw, stride, pad)
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"{op}: non-positive output extent {oh}x{ow} for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, pad {pad}"
        )
    return oh, ow


def _windows(op: str, x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
             fill: float = 0.0) -> np.ndarray:
    """[N, C, OH, OW, KH, KW] strided view of every window of ``x`` padded with ``fill``."""
    _out_extents(op, *x.shape[2:], kh, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=fill)
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _col2im(part: Callable[[int, int], np.ndarray], shape: tuple[int, ...],
            kh: int, kw: int, stride: int, pad: int, dtype) -> np.ndarray:
    """Sum window cells back onto an unpadded [N, C, H, W] input.

    ``part(i, j)`` is the [N, C, OH, OW] gradient of cell (i, j) of every
    window; each offset is one strided add into the padded input.
    """
    n, c, h, w = shape
    oh = conv_out_extent(h, kh, stride, pad)
    ow = conv_out_extent(w, kw, stride, pad)
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += part(i, j)
    return gxp[:, :, pad:pad + h, pad:pad + w] if pad else gxp


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding, NCHW layout.

    On a tape it keeps the unpadded input for the weight gradient, which
    rebuilds the im2col columns chunk by chunk.  This, like the dense path
    and :func:`matmul`, rests on one invariant: no code writes an op's
    input array after the forward.
    """
    tensors = (x, w) if bias is None else (x, w, bias)
    _check_dtypes("conv2d", *tensors)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input and weight, got {x.shape}, {w.shape}")
    n, c, h, wd = x.shape
    o, cw, kh, kw = w.shape
    if cw != c:
        raise ShapeError(f"conv2d: input channels {c} != weight channels {cw}")
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv2d: bias must have shape ({o},), got {bias.shape}")
    oh, ow = _out_extents("conv2d", h, wd, kh, kw, stride, pad)
    pos = oh * ow  # output positions per image: the im2col columns
    if (h * wd <= _DENSE_PLANE_RATIO * kh * kw
            and c * h * wd * o * pos * x.data.itemsize <= _IM2COL_BYTES):
        return _conv2d_dense(tensors, stride, pad, oh, ow)
    wmat = w.data.reshape(o, -1)
    step = max(1, _IM2COL_BYTES // (pos * wmat.shape[1] * x.data.itemsize))
    chunks = range(0, n, step)

    def cols(win, b0):
        # [n, C*KH*KW, OH*OW] in the input's own layout: for a 1x1 stride-1
        # conv of a contiguous input this reshape is a view, not a copy
        return win[b0:b0 + step].transpose(0, 1, 4, 5, 2, 3).reshape(-1, wmat.shape[1], pos)

    win = _windows("conv2d", x.data, kh, kw, stride, pad)
    out = np.empty((n, o, pos), dtype=x.data.dtype)
    for b0 in chunks:
        np.matmul(wmat, cols(win, b0), out=out[b0:b0 + step])
    if bias is not None:
        out += bias.data[:, None]
    nx, nw = x.requires_grad, w.requires_grad
    has_bias = bias is not None
    xd = x.data if nw else None  # only the weight gradient reads the input

    def bwd(g):
        g3 = g.reshape(n, o, pos)
        gw = gx = None
        if nw:
            # the forward's chunks in the forward's order
            xwin = _windows("conv2d", xd, kh, kw, stride, pad)
            gw = np.zeros_like(wmat)
            for b0 in chunks:
                # [K, O] per image, which BLAS builds faster than [O, K]
                gw += (cols(xwin, b0) @ g3[b0:b0 + step].swapaxes(1, 2)).sum(axis=0).T
            gw = gw.reshape(o, c, kh, kw)
        if nx:
            gx = np.empty((n, c, h, wd), dtype=g.dtype)
            for b0 in chunks:
                gcols = (wmat.T @ g3[b0:b0 + step]).reshape(-1, c, kh, kw, oh, ow)
                gx[b0:b0 + step] = _col2im(lambda i, j: gcols[:, :, i, j], gcols.shape[:2] + (h, wd),
                                           kh, kw, stride, pad, g.dtype)
        if not has_bias:
            return gx, gw
        return gx, gw, g3.sum(axis=(0, 2))

    return _apply("conv2d", out.reshape(n, o, oh, ow), tensors, bwd)


def _kernel_diagonal(m: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """[C, OH, OW, O, KH, KW] view of the entries ``m[c, s*oy + i, s*ox + j, o, oy, ox]``
    of a [C, HP, WP, O, OH, OW] matrix over the padded input plane."""
    c, _, _, o, oh, ow = m.shape
    s0, s1, s2, s3, s4, s5 = m.strides
    return np.lib.stride_tricks.as_strided(
        m, (c, oh, ow, o, kh, kw), (s0, stride * s1 + s4, stride * s2 + s5, s3, s1, s2))


def _conv2d_dense(tensors: tuple[Tensor, ...], stride: int, pad: int, oh: int,
                  ow: int) -> Tensor:
    """conv2d as ``x[N, C*H*W] @ M[C*H*W, O*OH*OW]``, with ``M`` the weight
    unrolled over every output position; the product is already NCHW."""
    x, w, *bias = tensors
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    full = (c, h + 2 * pad, wd + 2 * pad, o, oh, ow)
    mp = np.zeros(full, dtype=w.data.dtype)
    _kernel_diagonal(mp, kh, kw, stride)[...] = w.data.transpose(1, 0, 2, 3)[:, None, None]
    mat = mp[:, pad:pad + h, pad:pad + wd].reshape(c * h * wd, o * oh * ow)
    xf = x.data.reshape(n, -1)
    out = (xf @ mat).reshape(n, o, oh, ow)
    if bias:
        out += bias[0].data[:, None, None]
    nx, nw = x.requires_grad, w.requires_grad
    has_bias = bool(bias)
    xf = xf if nw else None  # only the weight gradient reads the input

    def bwd(g):
        g2 = g.reshape(n, -1)
        gx = (g2 @ mat.T).reshape(n, c, h, wd) if nx else None
        gw = None
        if nw:
            gmp = np.zeros(full, dtype=g.dtype)
            gmp[:, pad:pad + h, pad:pad + wd] = (xf.T @ g2).reshape(c, h, wd, o, oh, ow)
            gw = _kernel_diagonal(gmp, kh, kw, stride).sum(axis=(1, 2)).transpose(1, 0, 2, 3)
        if not has_bias:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _apply("conv2d", out, tensors, bwd)


def maxpool2d(x: Tensor, k: int, stride: int, pad: int = 0) -> Tensor:
    """Max pooling; padding uses a -inf sentinel so padded cells never win.

    On a tape it keeps the unpadded input and the output; the backward
    rebuilds the padded windows.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: expected 4-D input, got {x.shape}")
    if pad >= k:
        raise UsageError(f"maxpool2d: pad {pad} must be < kernel {k}")
    win = _windows("maxpool2d", x.data, k, k, stride, pad, fill=-np.inf)
    cells = [win[..., i, j] for i in range(k) for j in range(k)]
    out = cells[0].copy()
    for cell in cells[1:]:
        np.maximum(out, cell, out=out)
    xd = x.data

    def bwd(g):
        # _col2im visits the cells in row-major order; each window's gradient
        # goes to the first cell equal to its max, as argmax would pick it
        win = _windows("maxpool2d", xd, k, k, stride, pad, fill=-np.inf)
        open_ = np.ones(out.shape, dtype=bool)

        def part(i, j):
            hit = win[..., i, j] == out
            hit &= open_
            np.logical_xor(open_, hit, out=open_)  # hit lies in open_: close its windows
            return g * hit

        return (_col2im(part, xd.shape, k, k, stride, pad, g.dtype),)

    return _apply("maxpool2d", out, (x,), bwd)


# ---------------------------------------------------------------------------
# loss


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: expected [batch, classes] logits, got {logits.shape}")
    b, k = logits.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (b,):
        raise UsageError(f"cross_entropy: expected {b} labels, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise UsageError(f"cross_entropy: label out of range [0, {k})")
    top, probs, se = _shifted_exp(logits.data, 1)
    logp = logits.data[np.arange(b), y] - top[:, 0] - np.log(se[:, 0])
    loss = (-logp).mean()
    probs /= se

    def bwd(g):
        gl = probs.copy()
        gl[np.arange(b), y] -= 1.0
        gl /= b
        return (gl * g,)

    return _apply("cross_entropy", np.asarray(loss, dtype=logits.data.dtype), (logits,), bwd)


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a scalar-valued function of ``x`` alone (other tensors it
    closes over are held fixed).  Relative error per element is
    ``|analytic - cd| / max(|analytic|, |cd|, 1e-8)``.
    """
    if h is None:
        h = 1e-5 if x.dtype == "f64" else 1e-3
    x.requires_grad = True
    with Tape() as tape:
        out = f(x)
    if out.size != 1:
        raise UsageError(f"grad_check: f must be scalar-valued, got shape {out.shape}")
    tape.backward(out)
    analytic = x.grad.reshape(x.data.shape).copy()

    cd = np.zeros_like(x.data, dtype=np.float64)
    flat = x.data.reshape(-1)
    cdf = cd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        cdf[i] = (fp - fm) / (2.0 * h)

    num = np.abs(analytic.astype(np.float64) - cd)
    den = np.maximum(np.maximum(np.abs(analytic), np.abs(cd)), 1e-8)
    return float((num / den).max())

"""Minimal dense tensors with reverse-mode differentiation.

Covers exactly the operations the denoiser network needs: 1-D dilated/strided
convolution, nearest-neighbor upsampling, decimation, leaky ReLU, and the
elementwise/reduction glue for the loss.  Each of them also takes a
leading batch axis, (B, C, T), and treats every item as it would alone, so
a training step is one graph.  The computation graph is the
implicit tape of parent links recorded on each result; ``backward`` replays
it in reverse topological order.

A tensor is tracked when its ``requires_grad`` is set: leaves set it by
request, and an operation's result sets it, and records its parents, when
any operand is tracked.  Untracked results keep no tape.

Inside ``with no_grad():`` no operation records a tape, whatever its
operands' ``requires_grad``: every result is untracked, so each activation
is freed as soon as nothing refers to it, instead of living until the
graph is dropped.  Inference runs this way; leaving the block (also by an
exception) restores the previous mode.  Like a graph, the mode belongs to
one execution context: a thread in the block does not stop another from
recording.

A graph and its tensors belong to one execution context; parameter tensors
may be shared read-only between contexts at synchronization points.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "scale",
    "add_channel_bias",
    "conv1d",
    "nearest_upsample",
    "downsample",
    "leaky_relu",
    "mean_abs",
    "orthogonal_init",
]

_CONV_KERNEL_SIZES = (1, 3, 5)
_TRACKING = contextvars.ContextVar("gradvoc_tracking", default=True)


class Tensor:
    """n-D real array with optional gradient, recorded on an implicit tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self):
        """Populate ``grad`` on every reachable tensor with requires_grad.

        Must be called on a scalar (size-1) result, once per graph.
        """
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {self.shape}")
        if self._done:
            raise RuntimeError("backward already ran on this graph; rebuild it")
        self._done = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block; the previous mode returns on exit."""
    token = _TRACKING.set(False)
    try:
        yield
    finally:
        _TRACKING.reset(token)


def _result(data, parents, backward):
    if not (_TRACKING.get() and any(p.requires_grad for p in parents)):
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _result(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _result(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        _accumulate(a, g * c)

    return _result(a.data * c, (a,), backward)


def add_channel_bias(x: Tensor, v: Tensor) -> Tensor:
    """Add a per-channel vector v (C,) to a (C, T) feature map, or one row of
    v (B, C) to each item of a (B, C, T) batch."""
    if v.data.ndim != x.data.ndim - 1 or v.shape != x.shape[:-1]:
        raise ValueError(f"channel mismatch: {x.shape} vs {v.shape}")

    def backward(g):
        _accumulate(x, g)
        _accumulate(v, g.sum(axis=-1))

    return _result(x.data + v.data[..., None], (x, v), backward)


@functools.lru_cache(maxsize=256)  # a few µs per call, as much as a toy conv's GEMM
def _conv_taps(t_in: int, kernel: int, stride: int, dilation: int):
    """Output length and, for each tap k that reads the signal, the slices
    ``(k, steps, inputs)`` of output steps and the input samples they meet.

    Zero padding keeps the output at ceil(t_in / stride) steps, with any odd
    padding sample on the left; the steps outside ``steps`` read padding.
    """
    span = (kernel - 1) * dilation + 1
    t_out = -(-t_in // stride)
    pad_left = (max((t_out - 1) * stride + span - t_in, 0) + 1) // 2
    taps = []
    for k in range(kernel):
        offset = k * dilation - pad_left  # input index met by output step 0
        lo = max(0, -(offset // stride))
        hi = min(t_out, (t_in - 1 - offset) // stride + 1)
        if lo < hi:
            start = lo * stride + offset
            taps.append((k, slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return t_out, tuple(taps)


def _columns(x: np.ndarray, kernel: int, stride: int, t_out: int, taps) -> np.ndarray:
    """The (..., C_in * K, T_out) column matrix of x (..., C_in, T): row
    c * K + k holds the input that tap k of channel c meets at each step."""
    if kernel == 1:  # one tap reads no padding
        return np.ascontiguousarray(x[..., ::stride])  # a strided view keeps matmul off BLAS
    *lead, c_in, _ = x.shape
    col = np.zeros((*lead, c_in, kernel, t_out), dtype=x.dtype)
    for k, steps, inputs in taps:
        col[..., k, steps] = x[..., inputs]
    return col.reshape(*lead, c_in * kernel, t_out)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    dilation: int = 1,
) -> Tensor:
    """Cross-correlation of (C_in, T) with (C_out, C_in, K) weights; a
    (B, C_in, T) batch convolves each item on its own.

    Zero padding keeps the output length at ceil(T / stride); for stride 1
    this is the usual "same" convolution.  One GEMM per item multiplies the
    flattened weight with the input's column matrix, which backward rebuilds
    from the input rather than keeping it on the tape.
    """
    if x.data.ndim not in (2, 3) or weight.data.ndim != 3:
        raise ValueError("conv1d expects x (C_in, T) or (B, C_in, T) and weight (C_out, C_in, K)")
    c_out, c_in, kernel = weight.shape
    if x.shape[-2] != c_in:
        raise ValueError(f"channel mismatch: input {x.shape[-2]}, weight {c_in}")
    if kernel not in _CONV_KERNEL_SIZES:
        raise ValueError(f"unsupported kernel size {kernel}")
    if stride < 1 or dilation < 1:
        raise ValueError("stride and dilation must be >= 1")
    if bias is not None and bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} != ({c_out},)")

    t_out, taps = _conv_taps(x.shape[-1], kernel, stride, dilation)
    w2 = weight.data.reshape(c_out, c_in * kernel)
    col = _columns(x.data, kernel, stride, t_out, taps)
    out = w2 @ col
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        batch_axes = tuple(range(g.ndim - 2))  # () for one item
        col = _columns(x.data, kernel, stride, t_out, taps)
        _accumulate(weight, (g @ col.swapaxes(-1, -2)).sum(axis=batch_axes).reshape(weight.shape))
        if bias is not None:
            _accumulate(bias, g.sum(axis=(*batch_axes, -1)))
        if x.requires_grad:
            gcol = (w2.T @ g).reshape(*g.shape[:-2], c_in, kernel, t_out)
            gx = np.zeros_like(x.data)
            for k, steps, inputs in taps:
                gx[..., inputs] += gcol[..., k, steps]
            _accumulate(x, gx)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out.astype(x.data.dtype, copy=False), parents, backward)


def nearest_upsample(x: Tensor, factor: int) -> Tensor:
    """Repeat every time step ``factor`` times along the last axis."""
    if factor < 1:
        raise ValueError("factor must be >= 1")

    def backward(g):
        _accumulate(x, g.reshape(*x.shape, factor).sum(axis=-1))

    return _result(np.repeat(x.data, factor, axis=-1), (x,), backward)


def downsample(x: Tensor, factor: int) -> Tensor:
    """Keep every ``factor``-th time step (offset 0); length must divide."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    t = x.shape[-1]
    if t % factor != 0:
        raise ValueError(f"length {t} not divisible by factor {factor}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[..., ::factor] = g
        _accumulate(x, gx)

    return _result(np.ascontiguousarray(x.data[..., ::factor]), (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not (0.0 < slope < 1.0):
        raise ValueError("slope must be in (0, 1)")

    one, low = x.data.dtype.type(1.0), x.data.dtype.type(slope)

    def backward(g):  # the subgradient at 0 is taken as slope
        _accumulate(x, g * np.where(x.data > 0.0, one, low))

    return _result(np.maximum(x.data, slope * x.data), (x,), backward)


def mean_abs(x: Tensor) -> Tensor:
    """Scalar mean of absolute values (L1 reduction)."""
    n = x.data.size

    def backward(g):
        _accumulate(x, (float(g) / n) * np.sign(x.data))

    return _result(np.mean(np.abs(x.data)), (x,), backward)


def orthogonal_init(shape, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    """Random matrix with orthonormal rows or columns, whichever is shorter.

    The weight is viewed as 2-D (fan_out, fan_in) where fan_in flattens the
    trailing axes; every nonzero singular value of that view equals 1.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 1 or any(s <= 0 for s in shape):
        raise ValueError(f"invalid shape {shape}")
    rows, cols = shape[0], math.prod(shape[1:])
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q[:rows, :cols].reshape(shape), dtype=dtype)

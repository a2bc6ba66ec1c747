"""Minimal dense tensors with reverse-mode differentiation.

Covers exactly the operations the denoiser network needs: 1-D dilated/strided
convolution, nearest-neighbor upsampling, decimation, leaky ReLU, and the
elementwise/reduction glue for the loss.  The computation graph is the
implicit tape of parent links recorded on each result; ``backward`` replays
it in reverse topological order.

A tensor is tracked when its ``requires_grad`` is set: leaves set it by
request, and an operation's result sets it, and records its parents, when
any operand is tracked.  Untracked results keep no tape.

A graph and its tensors belong to one execution context; parameter tensors
may be shared read-only between contexts at synchronization points.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
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


def _result(data, parents, backward):
    if not any(p.requires_grad for p in parents):
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
    """Add a per-channel vector v (C,) to a (C, T) feature map."""
    if v.data.ndim != 1 or x.data.ndim != 2 or v.shape[0] != x.shape[0]:
        raise ValueError(f"channel mismatch: {x.shape} vs {v.shape}")

    def backward(g):
        _accumulate(x, g)
        _accumulate(v, g.sum(axis=1))

    return _result(x.data + v.data[:, None], (x, v), backward)


def _conv_geometry(t_in: int, kernel: int, stride: int, dilation: int):
    span = (kernel - 1) * dilation + 1
    t_out = -(-t_in // stride)
    pad_total = max((t_out - 1) * stride + span - t_in, 0)
    pad_left = (pad_total + 1) // 2  # extra padding goes on the left
    return t_out, pad_left, pad_total - pad_left


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    dilation: int = 1,
) -> Tensor:
    """Cross-correlation of (C_in, T) with (C_out, C_in, K) weights.

    Zero padding keeps the output length at ceil(T / stride); for stride 1
    this is the usual "same" convolution.
    """
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise ValueError("conv1d expects x (C_in, T) and weight (C_out, C_in, K)")
    c_out, c_in, kernel = weight.shape
    if x.shape[0] != c_in:
        raise ValueError(f"channel mismatch: input {x.shape[0]}, weight {c_in}")
    if kernel not in _CONV_KERNEL_SIZES:
        raise ValueError(f"unsupported kernel size {kernel}")
    if stride < 1 or dilation < 1:
        raise ValueError("stride and dilation must be >= 1")

    t_in = x.shape[1]
    t_out, pad_left, pad_right = _conv_geometry(t_in, kernel, stride, dilation)
    xp = np.pad(x.data, ((0, 0), (pad_left, pad_right)))
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c_in, kernel, t_out),
        strides=(xp.strides[0], xp.strides[1] * dilation, xp.strides[1] * stride),
    )
    out = np.tensordot(weight.data, patches, axes=([1, 2], [0, 1]))
    if bias is not None:
        if bias.shape != (c_out,):
            raise ValueError(f"bias shape {bias.shape} != ({c_out},)")
        out = out + bias.data[:, None]

    def backward(g):
        _accumulate(weight, np.tensordot(g, patches, axes=([1], [2])))
        if bias is not None:
            _accumulate(bias, g.sum(axis=1))
        if x.requires_grad:
            col = np.tensordot(weight.data, g, axes=([0], [0]))  # (C_in, K, T_out)
            gxp = np.zeros_like(xp)
            for k in range(kernel):
                start = k * dilation
                stop = start + (t_out - 1) * stride + 1
                gxp[:, start:stop:stride] += col[:, k, :]
            _accumulate(x, gxp[:, pad_left : pad_left + t_in])

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out.astype(x.data.dtype, copy=False), parents, backward)


def nearest_upsample(x: Tensor, factor: int) -> Tensor:
    """Repeat every time step ``factor`` times along the last axis."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    c, t = x.shape

    def backward(g):
        _accumulate(x, g.reshape(c, t, factor).sum(axis=2))

    return _result(np.repeat(x.data, factor, axis=1), (x,), backward)


def downsample(x: Tensor, factor: int) -> Tensor:
    """Keep every ``factor``-th time step (offset 0); length must divide."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    c, t = x.shape
    if t % factor != 0:
        raise ValueError(f"length {t} not divisible by factor {factor}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, ::factor] = g
        _accumulate(x, gx)

    return _result(np.ascontiguousarray(x.data[:, ::factor]), (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not (0.0 < slope < 1.0):
        raise ValueError("slope must be in (0, 1)")

    def backward(g):  # the subgradient at 0 is taken as slope
        _accumulate(x, g * np.where(x.data > 0.0, 1.0, slope).astype(x.data.dtype))

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
    rows = shape[0]
    cols = int(np.prod(shape[1:])) if len(shape) > 1 else 1
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q[:rows, :cols].reshape(shape), dtype=dtype)

"""Minimal dense tensors with reverse-mode differentiation.

Covers exactly the operations the denoiser network needs: 1-D dilated
convolution (of the input or of its nearest-neighbor upsample, computed at
the input rate), nearest-neighbor upsampling, decimation, leaky ReLU (also
fused with the FiLM affine map before it, which reads its scale and shift
from one tensor), joining weights, and the elementwise/reduction glue for
the loss.  Each of them also takes a leading batch axis, (B, C, T), and
treats every item as it would alone, so a training step is one graph.  The
convolution reads how it runs (its taps, its groups of output phases and
their column tiles) from one cached ``_plan``, whose groups its forward and
its backward both walk.  The computation graph is the implicit tape of
parent links recorded on each result; ``backward`` replays it in reverse
topological order.

An op's backward closure takes its result's gradient g and returns its
operands' gradients in its parents' order, None where it computes none.
Only ``Tensor.backward`` adds them into ``.grad``: a first gradient stays
uncopied when it has memory of its own, apart from g's, or is g on g's first
taker; a slice of g, or g again, is copied, so no gradients share memory.

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
import itertools
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
    "affine_leaky_relu",
    "concat",
    "mean_abs",
    "orthogonal_init",
]

_CONV_KERNEL_SIZES = (1, 3, 5)
# the most bytes of column matrix a conv builds at once per item; see ``_plan``
COLUMN_TILE_BYTES = 2 << 20
# every leaky ReLU's slope, fixed by the architecture (from the GAN generator lineage)
LEAKY_SLOPE = 0.2
# values per block of affine_leaky_relu's in-place activation
_LEAKY_BLOCK = 1 << 16
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
        """Add into ``grad`` on every reachable leaf with requires_grad.

        Must be called on a scalar (size-1) result, once per graph.  The
        graph is taken apart as it is replayed: once a node has passed its
        gradient on, its ``grad`` is None and it holds no parents and no
        closure, so each intermediate and the arrays its closure saved are
        freed as soon as the caller drops them.  Leaves keep their gradients.
        """
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {self.shape}")
        if self._done:
            raise RuntimeError("backward already ran on this graph; rebuild it")
        self._done = True

        # the nodes with a closure, parents first; a leaf replays nothing
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                for parent in node._parents:  # one already seen is skipped when popped
                    if parent._backward is not None:
                        stack.append((parent, False))
        del seen  # it holds every node, which the replay frees one by one

        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()  # the list does not keep it alive
            g = node.grad
            if node._backward is not None and g is not None:
                mem = g if g.base is None else g.base  # the memory g lives in
                for parent, pg in zip(node._parents, node._backward(g), strict=True):
                    if pg is not None and parent.requires_grad:
                        _accumulate(parent, pg, pg is g or (pg is not mem and pg.base is not mem))
                        if pg is g:
                            g = None  # the first taker has it
                node.grad, node._backward, node._parents = None, None, ()

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


def _accumulate(t: Tensor, g: np.ndarray, owned: bool):
    """Add ``g`` to t's gradient; an ``owned`` g of t's dtype is kept as its first."""
    if t.grad is None:
        t.grad = g if owned and g.dtype == t.data.dtype else g.astype(t.data.dtype)
    else:
        t.grad += g


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        return g, g

    return _result(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        return g, (-g if b.requires_grad else None)

    return _result(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        return g * b.data, g * a.data

    return _result(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        return (g * c,)

    return _result(a.data * c, (a,), backward)


def add_channel_bias(x: Tensor, v: Tensor) -> Tensor:
    """Add a per-channel vector v (C,) to a (C, T) feature map, or one row of
    v (B, C) to each item of a (B, C, T) batch."""
    if v.data.ndim != x.data.ndim - 1 or v.shape != x.shape[:-1]:
        raise ValueError(f"channel mismatch: {x.shape} vs {v.shape}")

    def backward(g):
        return g, (g.sum(axis=-1) if v.requires_grad else None)

    return _result(x.data + v.data[..., None], (x, v), backward)


def _taps(t: int, offsets, start: int = 0, stop: int | None = None) -> tuple:
    """For each tap k that reads the signal, the slices ``(k, steps, inputs)``
    of output steps ``start`` to ``stop`` (all by default), counted from
    ``start``, and the input samples they meet: step i of tap k meets input
    ``i + offsets[k]`` of a length-``t`` signal, and the steps outside
    ``steps`` read padding."""
    stop = t if stop is None else stop
    taps = []
    for k, offset in enumerate(offsets):
        lo, hi = max(start, -offset), min(stop, t - offset)
        if lo < hi:
            taps.append((k, slice(lo - start, hi - start), slice(lo + offset, hi + offset)))
    return tuple(taps)


@functools.lru_cache(maxsize=512)  # a few µs per call, as much as a toy conv's GEMM
def _plan(t: int, kernel: int, dilation: int, factor: int, step_bytes: int,
          tile_bytes: int) -> tuple:
    """How a conv of ``kernel`` taps at ``dilation`` runs over x (length
    ``t``) repeated ``factor`` times; a plain conv is factor 1.

    Output step ``factor * i + r`` (phase r) meets x at ``i + (r + o) //
    factor`` through the tap at upsampled offset o, for "same" zero padding,
    symmetric for the odd kernels of ``_CONV_KERNEL_SIZES``.  Taps of one
    phase that meet the same sample of x merge into one; phases that meet x
    at the same offsets, tap for tap, give the same output and form one
    group, always a run of consecutive phases.  Each group is ``(phases,
    n_taps, merge, taps, tiles)``: the tuple of its phases, its number of
    merged taps, the 0/1 (kernel, n_taps) matrix that sums the weight's taps
    into merged ones (None when no taps merge), the ``_taps`` of the merged
    taps over x, and the runs of output steps over which to build x's column
    matrix, each as ``(start, stop, taps, outs)``, where ``outs`` holds the
    slice of the (..., T * factor) output that each phase of the run fills.

    One item of x holds ``step_bytes`` of one tap's columns per output step
    (0 asks for no tiles).  A group has one run, with the whole signal's
    taps, when one item's matrix takes at most ``tile_bytes`` or is the item
    itself (one tap); else runs of as many steps as one item's tile holds, at
    least one, each with its own ``_taps``.  A batch's GEMM is one GEMM per
    item, so the run width, which sets each GEMM's width, does not shrink
    with the batch.
    """
    offsets = [(k - kernel // 2) * dilation for k in range(kernel)]
    groups: dict[tuple, list[int]] = {}
    for r in range(factor):
        groups.setdefault(tuple((r + o) // factor for o in offsets), []).append(r)
    plan = []
    for reads, phases in groups.items():
        merged = tuple(sorted(set(reads)))
        n_taps = len(merged)
        merge = None
        if n_taps < kernel:  # float32: a weight keeps its own dtype through the product
            merge = np.equal.outer(reads, merged).astype(np.float32)
            merge.flags.writeable = False
        tile = t
        if step_bytes * n_taps * t > tile_bytes and n_taps > 1:
            tile = max(1, tile_bytes // (step_bytes * n_taps))
        tiles = []
        for start in range(0, t, tile):
            stop = min(start + tile, t)
            outs = tuple(slice(start * factor + r, stop * factor, factor) for r in phases)
            tiles.append((start, stop, _taps(t, merged, start, stop), outs))
        plan.append((tuple(phases), n_taps, merge, _taps(t, merged), tuple(tiles)))
    return tuple(plan)


def _columns(x: np.ndarray, n_taps: int, taps, width: int) -> np.ndarray:
    """The (..., C_in * n_taps, width) column matrix of x (..., C_in, T) over
    the output steps of ``taps``: row c * n_taps + k holds the input that tap
    k of channel c meets at each step, and zero where it meets padding."""
    *lead, c_in, t = x.shape
    if n_taps == 1 and taps[0][1] == slice(0, t):  # one tap that reads no padding
        return np.ascontiguousarray(x)
    col = np.empty((*lead, c_in, n_taps, width), dtype=x.dtype)
    if len(taps) < n_taps:  # a tap that meets only padding
        col.fill(0)
    for k, steps, inputs in taps:
        if steps.start:
            col[..., k, :steps.start] = 0
        col[..., k, steps] = x[..., inputs]
        if steps.stop < width:
            col[..., k, steps.stop:] = 0
    return col.reshape(*lead, c_in * n_taps, width)


def _conv_shapes(x: Tensor, weight: Tensor, bias: Tensor | None, dilation: int, factor: int):
    """Check a conv's operands; return ``weight.shape``."""
    if x.data.ndim not in (2, 3) or weight.data.ndim != 3:
        raise ValueError("conv1d expects x (C_in, T) or (B, C_in, T) and weight (C_out, C_in, K)")
    c_out, c_in, kernel = weight.data.shape
    if x.data.shape[-2] != c_in:
        raise ValueError(f"channel mismatch: input {x.data.shape[-2]}, weight {c_in}")
    if x.data.shape[-1] < 1:
        raise ValueError("conv1d needs an input of at least one time step")
    if kernel not in _CONV_KERNEL_SIZES:
        raise ValueError(f"unsupported kernel size {kernel}")
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if bias is not None and bias.data.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} != ({c_out},)")
    return c_out, c_in, kernel


def _conv_backward(g, x: np.ndarray, weight: Tensor, merge, taps, input_grad: bool,
                   col: np.ndarray | None = None):
    """The parts ``(gx, gw)`` of one phase group of the conv of ``x``, whose
    phases' output gradients sum to ``g``, in the gradients of x (None
    unless ``input_grad`` holds) and of the weight.  ``merge`` and ``taps``
    are the group's (see ``_plan``): the gradient of the merged taps times
    mergeᵀ is the weight's, and x's is the tap sum over the merged taps.
    ``col`` is x's whole column matrix over the merged taps when the forward
    kept it; else it is rebuilt from ``x``."""
    c_out, c_in, _ = weight.shape
    w = weight.data if merge is None else weight.data @ merge
    n_taps = w.shape[-1]
    batch_axes = tuple(range(g.ndim - 2))  # () for one item
    if col is None:
        col = _columns(x, n_taps, taps, x.shape[-1])
    gw = (g @ col.swapaxes(-1, -2)).sum(axis=batch_axes).reshape(c_out, c_in, n_taps)
    gw = gw if merge is None else gw @ merge.T
    if not input_grad:
        return None, gw
    w2 = w.reshape(c_out, c_in * n_taps)
    gx = _tap_sum((w2.T @ g).reshape(*g.shape[:-2], c_in, n_taps, g.shape[-1]), taps, x.dtype)
    return gx, gw


def _tap_sum(gcol: np.ndarray, taps, dtype) -> np.ndarray:
    """The gradient, in ``dtype``, of a conv's input x (..., C_in, T) from
    ``gcol`` (..., C_in, K, T), the gradient of its column matrix: each
    input sample adds the terms of the taps that read it, in tap order.

    Where the first tap reads, the sum begins with its term rather than
    with a zero, so the values are those of a scatter into zeros byte for
    byte, except that there a sum of -0.0 terms alone stays -0.0 where
    ``0.0 + -0.0`` made it +0.0.  The few inputs the first tap does not
    read begin with a zero, as before."""
    (k, steps, inputs), *rest = taps
    gx = np.empty((*gcol.shape[:-2], gcol.shape[-1]), dtype)
    gx[..., :inputs.start] = 0  # where the first tap reads no input
    gx[..., inputs] = gcol[..., k, steps]
    gx[..., inputs.stop:] = 0
    for k, steps, inputs in rest:
        gx[..., inputs] += gcol[..., k, steps]
    return gx


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None, dilation: int = 1,
           factor: int = 1) -> Tensor:
    """Cross-correlation of (C_in, T) with (C_out, C_in, K) weights; a
    (B, C_in, T) batch convolves each item on its own.  A ``factor`` above 1
    gives ``conv1d(nearest_upsample(x, factor), ...)``, computed at the input
    rate.

    Zero padding keeps the output length at T * factor: the usual "same"
    convolution.  Each group of output phases in the conv's ``_plan`` is one
    GEMM of the weight, with its taps summed where they meet the same input
    sample, against x's column matrix, written to every phase of the group;
    a plain conv is one group that sums no taps.  With dilation 1 and a
    3-tap kernel, the groups hold 5 of 15 taps at factor 5, 5 of 9 at
    factor 3 and 4 of 6 at factor 2.  Where one item's matrix exceeds
    ``COLUMN_TILE_BYTES`` it is built one run of output steps at a time (the
    group's tiles), and each run's GEMM writes its slice of the output.

    Backward walks the same groups, each on the sum of its phases' output
    gradients (one phase's is a view), and sums their parts of the gradients
    of x and of the weight.  A group's matrix built whole stays on the tape
    for backward; a tiled one is rebuilt whole there, so a long conv holds
    no more than its input until backward reaches it.
    """
    c_out, c_in, kernel = _conv_shapes(x, weight, bias, dilation, factor)
    t = x.data.shape[-1]
    plan = _plan(t, kernel, dilation, factor, c_in * x.data.itemsize, COLUMN_TILE_BYTES)
    out = np.empty((*x.data.shape[:-2], c_out, t * factor), x.data.dtype)
    cols = []
    for _, n_taps, merge, _, tiles in plan:
        w = (weight.data if merge is None else weight.data @ merge).reshape(c_out, -1)
        for start, stop, taps, outs in tiles:
            col = _columns(x.data, n_taps, taps, stop - start)
            np.matmul(w, col, out=out[..., outs[0]])
            for phase in outs[1:]:
                out[..., phase] = out[..., outs[0]]
            if stop - start < t:
                col = None  # one of several tiles: gone before the next one's columns
        cols.append(col)
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        gx = gw = None
        for (phases, _, merge, taps, _), col in zip(plan, cols):
            part_x, part_w = _conv_backward(_phase_sum(g, factor, phases), x.data, weight, merge,
                                            taps, x.requires_grad, col)
            gx = part_x if gx is None else np.add(gx, part_x, out=gx)
            gw = part_w if gw is None else np.add(gw, part_w, out=gw)
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=(*range(g.ndim - 2), -1)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward)


def _phase_sum(g: np.ndarray, factor: int, phases=None) -> np.ndarray:
    """The sum of ``phases`` (all by default) of each run of ``factor`` steps
    of g along its last axis: the gradient of a ``factor``-fold repeat.  One
    phase is a strided view of g.  More are added in order, each as one
    strided slice, into a copy of the first, which is several times faster
    than numpy's reduction over a (..., factor) view.  The values are that
    reduction's, ``g.reshape(..., factor)[..., phases].sum(-1)``, byte for
    byte, except that a run of -0.0 alone sums to -0.0 here and to +0.0
    there (the reduction starts from +0.0)."""
    first, *rest = range(factor) if phases is None else phases
    out = g[..., first::factor]
    if rest:
        out = out.copy()
        for r in rest:
            out += g[..., r::factor]
    return out


def nearest_upsample(x: Tensor, factor: int) -> Tensor:
    """Repeat every time step ``factor`` times along the last axis."""
    if factor < 1:
        raise ValueError("factor must be >= 1")

    def backward(g):
        return (_phase_sum(g, factor),)

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
        return (gx,)

    return _result(np.ascontiguousarray(x.data[..., ::factor]), (x,), backward)


def _leaky_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``g`` times the leaky ReLU's slope at ``x``: 1 where x > 0, else
    ``LEAKY_SLOPE`` (also at 0, the subgradient taken there, and at nan).

    The factor is the 0/1 mask in x's dtype raised by ``maximum`` to the
    slope, a Python float that takes that dtype.  ``maximum`` returns one
    of its operands, so the factor is exactly 1 or the slope in that dtype,
    as ``np.where(x > 0, 1, LEAKY_SLOPE)`` is, and its product with g is the same
    bytes, nan and infinities included.  A select runs several times
    slower on a random sign pattern."""
    factor = (x > 0.0).astype(x.dtype)
    np.maximum(factor, LEAKY_SLOPE, out=factor)
    factor *= g
    return factor


def leaky_relu(x: Tensor) -> Tensor:
    """``max(x, LEAKY_SLOPE * x)``."""

    def backward(g):
        return (_leaky_grad(g, x.data),)

    out = LEAKY_SLOPE * x.data
    return _result(np.maximum(x.data, out, out=out), (x,), backward)


def affine_leaky_relu(x: Tensor, film: Tensor) -> Tensor:
    """``leaky_relu(gamma * x + xi)`` in the output's own memory, by
    the composed ops' float arithmetic; gamma and xi are the first and second
    channel halves of ``film``, (..., 2C, T) for x (..., C, T)."""
    c = x.shape[-2]
    if film.shape != (*x.shape[:-2], 2 * c, x.shape[-1]):
        raise ValueError(f"film shape {film.shape} does not hold two halves of {x.shape}")

    gamma = film.data[..., :c, :]
    out = np.multiply(gamma, x.data, order="C")
    out += film.data[..., c:, :]
    flat = out.reshape(-1)  # a view: out is contiguous
    for start in range(0, flat.size, _LEAKY_BLOCK):  # no temporary the size of out
        block = flat[start:start + _LEAKY_BLOCK]
        np.maximum(block, LEAKY_SLOPE * block, out=block)

    def backward(g):  # the output is positive exactly where the affine map is
        g = _leaky_grad(g, out)
        return g * gamma, np.concatenate([g * x.data, g], axis=-2)

    return _result(out, (x, film), backward)


def concat(tensors) -> Tensor:
    """Join tensors along their first axis."""
    tensors = tuple(tensors)

    def backward(g):
        stops = itertools.accumulate(len(t.data) for t in tensors)
        return [g[stop - len(t.data):stop] for t, stop in zip(tensors, stops)]

    return _result(np.concatenate([t.data for t in tensors]), tensors, backward)


def mean_abs(x: Tensor) -> Tensor:
    """Scalar mean of absolute values (L1 reduction)."""

    def backward(g):
        return ((float(g) / x.data.size) * np.sign(x.data),)

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

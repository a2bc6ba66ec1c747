"""Reference functions that only the tests use.

Closed-form quantities of the diffusion process, a plain sum reduction for
autodiff checks, a slice decimation, the padded ``tensordot`` convolution,
the separate tap, tile and polyphase helpers that the conv ops used to
consult, the two conv ops that ``tensor.conv1d`` replaced (a plain
column-matrix conv and a polyphase upsampling conv whose backward ran at the
upsampled rate), the select, reduction and zero-filled scatter that the
tensor backward used to take, the gradient accumulation that copies every
first gradient and the conv backward that rebuilds its column matrix, a
fixed-noise batch loss with its per-item loop, the per-parameter
clip-and-Adam training step, the cosine-sum DCT and the per-lag loop pitch
tracker; the library itself never needs them.
"""

import math

import numpy as np

from gradvoc.dsp import (
    ENERGY_FLOOR,
    PITCH_FMAX,
    PITCH_FMIN,
    PITCH_FRAME_MS,
    VOICING_THRESHOLD,
    Waveform,
    _frame,
    _pitch_hop,
)
from gradvoc import tensor as T
from gradvoc.diffusion import forward_diffuse
from gradvoc.tensor import Tensor, _columns, _result, _tap_sum, _taps
from gradvoc.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLIP_NORM,
    TrainError,
    _batch_loss,
    _draw_noise_level,
)


def noise_log_density_gradient(epsilon: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Gradient of the forward-marginal log density at the diffused point.

    Equals -epsilon / sqrt(1 - alpha_bar) elementwise; this is the signal the
    noise predictor is a scaled estimate of.
    """
    if not (0.0 <= alpha_bar < 1.0):
        raise ValueError(f"alpha_bar must be in [0, 1), got {alpha_bar}")
    epsilon = np.asarray(epsilon, dtype=np.float64)
    return -epsilon / math.sqrt(1.0 - alpha_bar)


def loss_l1(epsilon_pred: np.ndarray, epsilon_true: np.ndarray) -> float:
    """Mean absolute difference between predicted and true noise.

    Mean (not sum) so the magnitude is invariant to segment length.
    """
    epsilon_pred = np.asarray(epsilon_pred, dtype=np.float64)
    epsilon_true = np.asarray(epsilon_true, dtype=np.float64)
    if epsilon_pred.shape != epsilon_true.shape:
        raise ValueError(
            f"length mismatch: {epsilon_pred.shape} vs {epsilon_true.shape}"
        )
    return float(np.mean(np.abs(epsilon_pred - epsilon_true)))


def optimal_gaussian_epsilon(
    y_noisy: np.ndarray, sqrt_alpha_bar: float, mu: float, s2: float
) -> np.ndarray:
    """Bayes-optimal noise prediction when y0 ~ N(mu * 1, s2 * I).

    Returns E[epsilon | y_noisy] = sqrt(1 - abar) * (y_noisy - sqrt(abar) * mu)
    / (abar * s2 + 1 - abar) elementwise.  Serves as a perfect "trained model"
    in sampler tests: no measurable predictor achieves lower expected loss.
    """
    if s2 < 0.0:
        raise ValueError("s2 must be non-negative")
    if not (0.0 < sqrt_alpha_bar < 1.0):
        raise ValueError(f"sqrt_alpha_bar must be in (0, 1), got {sqrt_alpha_bar}")
    y_noisy = np.asarray(y_noisy, dtype=np.float64)
    abar = sqrt_alpha_bar * sqrt_alpha_bar
    return (
        math.sqrt(1.0 - abar)
        * (y_noisy - sqrt_alpha_bar * mu)
        / (abar * s2 + 1.0 - abar)
    )


def tsum(x: Tensor) -> Tensor:
    """Scalar sum of all elements, with its gradient."""

    def backward(g):
        return (np.full_like(x.data, float(g)),)

    return _result(np.sum(x.data), (x,), backward)


def decimate(x: Tensor, factor: int) -> Tensor:
    """Every ``factor``-th time step of ``x`` as a slice view; its gradient is
    scattered back into zeros."""

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[..., ::factor] = g
        return (gx,)

    return _result(x.data[..., ::factor], (x,), backward)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None, dilation: int = 1) -> Tensor:
    """``tensor.conv1d`` of one (C_in, T) item as a padded copy, a strided
    patch view and a ``tensordot``, with the patches kept for backward."""
    c_out, c_in, kernel = weight.shape
    t_in = x.shape[1]
    pad_total = (kernel - 1) * dilation
    pad_left = (pad_total + 1) // 2
    xp = np.pad(x.data, ((0, 0), (pad_left, pad_total - pad_left)))
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c_in, kernel, t_in),
        strides=(xp.strides[0], xp.strides[1] * dilation, xp.strides[1]),
    )
    out = np.tensordot(weight.data, patches, axes=([1, 2], [0, 1]))
    if bias is not None:
        out = out + bias.data[:, None]

    def backward(g):
        gx = None
        if x.requires_grad:
            col = np.tensordot(weight.data, g, axes=([0], [0]))  # (C_in, K, T)
            gxp = np.zeros_like(xp)
            for k in range(kernel):
                start = k * dilation
                gxp[:, start:start + t_in] += col[:, k, :]
            gx = gxp[:, pad_left : pad_left + t_in]
        gw = np.tensordot(g, patches, axes=([1], [2]))
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=1))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out.astype(x.data.dtype, copy=False), parents, backward)


def offsets(kernel: int, dilation: int) -> tuple:
    """The input offset that each tap meets at output step 0: "same" zero
    padding, symmetric for odd kernels."""
    return tuple((k - kernel // 2) * dilation for k in range(kernel))


def conv_taps(t: int, kernel: int, dilation: int) -> tuple:
    """``tensor._taps`` of a zero-padded conv over a length-``t`` signal."""
    return _taps(t, offsets(kernel, dilation))


def tiles(x: np.ndarray, n_taps: int, tap_offsets, taps, tile_bytes: int) -> tuple:
    """The runs ``(start, stop, taps)`` of output steps over which to build
    the column matrix of x (..., C_in, T) for the ``n_taps`` taps at
    ``tap_offsets``: one run with the whole signal's ``taps`` when one
    item's matrix takes at most ``tile_bytes`` or is one tap, else runs of as
    many steps as one item's tile holds, at least one."""
    t = x.shape[-1]
    step_bytes = x.shape[-2] * x.itemsize * n_taps
    if step_bytes * t <= tile_bytes or n_taps == 1:
        return ((0, t, taps),)
    tile = max(1, tile_bytes // step_bytes)
    return tuple((start, min(start + tile, t),
                  _taps(t, tap_offsets, start, min(start + tile, t)))
                 for start in range(0, t, tile))


def upsample_plan(t_in: int, kernel: int, factor: int, dilation: int) -> tuple:
    """The polyphase split of a conv over x (length ``t_in``) repeated
    ``factor`` times, as groups ``(phases, offsets, merge, taps)``: the
    slice of a run of phases that meet x at the same offsets, those offsets
    with the taps that meet one sample merged, the float32 0/1 matrix that
    sums the weight's taps into merged ones (None when none merge), and the
    merged taps' ``tensor._taps`` over x."""
    groups: dict[tuple, list[int]] = {}
    for r in range(factor):
        groups.setdefault(tuple((r + o) // factor for o in offsets(kernel, dilation)),
                          []).append(r)
    plan = []
    for reads, phases in groups.items():
        merged = tuple(sorted(set(reads)))
        merge = None
        if len(merged) < kernel:
            merge = np.equal.outer(reads, merged).astype(np.float32)
        plan.append((slice(phases[0], phases[-1] + 1), merged, merge, _taps(t_in, merged)))
    return tuple(plan)


def column_conv_backward(g, x, weight, bias, taps, input_grad, col=None):
    """The backward of ``column_conv1d``: the gradients of the conv of ``x``
    whose output has gradient ``g``, in its parents' order: x's (None unless
    ``input_grad`` holds), the weight's and the bias's, if it has one.
    ``col`` is x's whole column matrix when the forward kept it; else it is
    rebuilt."""
    c_out, c_in, kernel = weight.shape
    batch_axes = tuple(range(g.ndim - 2))
    if col is None:
        col = _columns(x, kernel, taps, x.shape[-1])
    gw = (g @ col.swapaxes(-1, -2)).sum(axis=batch_axes).reshape(weight.shape)
    gx = None
    if input_grad:
        w2 = weight.data.reshape(c_out, c_in * kernel)
        gcol = (w2.T @ g).reshape(*g.shape[:-2], c_in, kernel, g.shape[-1])
        gx = _tap_sum(gcol, taps, x.dtype)
    return (gx, gw) if bias is None else (gx, gw, g.sum(axis=(*batch_axes, -1)))


def column_conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                  dilation: int = 1) -> Tensor:
    """``tensor.conv1d`` at factor 1 as it was before it took a factor: one
    GEMM of the flattened weight against x's column matrix, built one run of
    output steps at a time past ``tensor.COLUMN_TILE_BYTES`` per item, with a
    matrix built whole kept for backward."""
    c_out, c_in, kernel = weight.shape
    t = x.shape[-1]
    w2 = weight.data.reshape(c_out, c_in * kernel)
    taps = conv_taps(t, kernel, dilation)
    runs = tiles(x.data, kernel, offsets(kernel, dilation), taps, T.COLUMN_TILE_BYTES)
    col = None
    if len(runs) == 1:
        col = _columns(x.data, kernel, taps, t)
        out = w2 @ col
    else:
        out = np.empty((*x.shape[:-2], c_out, t), np.result_type(w2, x.data))
        for start, stop, tile_taps in runs:
            np.matmul(w2, _columns(x.data, kernel, tile_taps, stop - start),
                      out=out[..., start:stop])
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        return column_conv_backward(g, x.data, weight, bias, taps, x.requires_grad, col)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out.astype(x.data.dtype, copy=False), parents, backward)


def upsample_conv1d(x: Tensor, weight: Tensor, bias: Tensor | None, factor: int,
                    dilation: int = 1) -> Tensor:
    """``conv1d(nearest_upsample(x, factor), weight, bias, dilation=dilation)``
    as the separate op that ``tensor.conv1d`` replaced: each phase group is a
    GEMM of the merged weight, on the group's tiles, written to every phase
    of the group through a (..., T, factor) view; backward repeats x and
    takes ``column_conv_backward`` at the upsampled rate, then sums each
    repeat's gradient."""
    c_out, c_in, kernel = weight.shape
    *lead, _, t_in = x.shape
    out = np.empty((*lead, c_out, t_in, factor), dtype=x.data.dtype)
    for phases, merged, merge, taps in upsample_plan(t_in, kernel, factor, dilation):
        w = (weight.data if merge is None else weight.data @ merge).reshape(c_out, -1)
        for start, stop, tile_taps in tiles(x.data, len(merged), merged, taps,
                                            T.COLUMN_TILE_BYTES):
            y = w @ _columns(x.data, len(merged), tile_taps, stop - start)
            if bias is None:
                out[..., start:stop, phases] = y[..., None]
            else:
                np.add(y[..., None], bias.data[:, None, None], out=out[..., start:stop, phases])
            del y  # before the next tile's columns
    out = out.reshape(*lead, c_out, t_in * factor)

    def backward(g):
        up = np.repeat(x.data, factor, axis=-1)
        gx, *rest = column_conv_backward(g, up, weight, bias,
                                         conv_taps(t_in * factor, kernel, dilation),
                                         x.requires_grad)
        return (None if gx is None else T._phase_sum(gx, factor), *rest)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward)


def leaky_grad(g: np.ndarray, x: np.ndarray, slope: float) -> np.ndarray:
    """``g`` times the leaky ReLU's slope at x, as a select of 1 or the slope."""
    return g * np.where(x > 0.0, x.dtype.type(1.0), x.dtype.type(slope))


def phase_sum(g: np.ndarray, factor: int) -> np.ndarray:
    """The sum of each run of ``factor`` steps of g along its last axis, as
    numpy's reduction over a (..., factor) view."""
    return g.reshape(*g.shape[:-1], -1, factor).sum(axis=-1)


def tap_scatter(gcol: np.ndarray, taps, dtype) -> np.ndarray:
    """A conv's input gradient from its column matrix's gradient (..., C_in,
    K, T), as each tap's terms added in tap order into zeros."""
    gx = np.zeros((*gcol.shape[:-2], gcol.shape[-1]), dtype)
    for k, steps, inputs in taps:
        gx[..., inputs] += gcol[..., k, steps]
    return gx


def accumulate_copying(t: Tensor, g: np.ndarray, owned: bool):
    """``tensor._accumulate`` that copies every first gradient, owned or not."""
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def conv_backward_rebuilt(g, x, weight, merge, taps, input_grad, col=None):
    """``tensor._conv_backward`` of one phase group that ignores a kept
    column matrix and rebuilds it from ``x``."""
    c_out, c_in, _ = weight.shape
    w = weight.data if merge is None else weight.data @ merge
    n_taps = w.shape[-1]
    batch_axes = tuple(range(g.ndim - 2))
    col = _columns(x, n_taps, taps, x.shape[-1])
    gw = (g @ col.swapaxes(-1, -2)).sum(axis=batch_axes).reshape(c_out, c_in, n_taps)
    gw = gw if merge is None else gw @ merge.T
    if not input_grad:
        return None, gw
    w2 = w.reshape(c_out, c_in * n_taps)
    gx = _tap_sum((w2.T @ g).reshape(*g.shape[:-2], c_in, n_taps, g.shape[-1]), taps, x.dtype)
    return gx, gw


def loop_batch_loss(model, batch, config, rng) -> Tensor:
    """The batch loss as one forward and one mean per item, then their mean."""
    per_item = []
    for idx, (y0, mel) in enumerate(zip(*batch)):
        sqrt_abar = _draw_noise_level(config, rng)
        eps = rng.standard_normal(len(y0))
        y_noisy = forward_diffuse(y0, sqrt_abar, eps)
        pred = model.forward(y_noisy, mel, sqrt_abar)
        target = Tensor(eps.reshape(1, -1).astype(model.config.np_dtype))
        item_loss = T.mean_abs(T.sub(pred, target))
        if not np.isfinite(item_loss.data):
            raise TrainError(f"non-finite loss at batch index {idx}")
        per_item.append(item_loss)
    total = per_item[0]
    for item in per_item[1:]:
        total = T.add(total, item)
    return T.scale(total, 1.0 / len(per_item))


def evaluate_loss(model, batch, config, seed: int = 12345, batch_loss=_batch_loss) -> float:
    """Loss on a fixed batch with fixed noise draws; no parameter update."""
    rng = np.random.default_rng(seed)
    return float(batch_loss(model, batch, config, rng).data)


def loop_train_step(state, batch, rng):
    """``train.train_step`` as a loop over the parameters, with per-name moments:
    gradients reset to None, the global-norm clip summed per parameter in
    float64 and an Adam update that rebinds each parameter's data."""
    config = state.config
    params = state.model.parameters()
    for p in params.values():
        p.grad = None

    loss = _batch_loss(state.model, batch, config, rng)
    loss.backward()

    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(sq)
    clip = min(1.0, CLIP_NORM / norm) if norm > CLIP_NORM else 1.0

    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad * clip
        m = state.adam_m.setdefault(name, np.zeros_like(p.data))
        v = state.adam_v.setdefault(name, np.zeros_like(p.data))
        m += (1 - b1) * (g - m)
        v += (1 - b2) * (g * g - v)
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p.data = p.data - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state, float(loss.data)


def dct2_ortho(v: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II as its cosine sum in float64:
    X_k = s_k sum_j v_j cos(pi k (2j + 1) / 2n), s_0 = sqrt(1/n), s_k = sqrt(2/n)."""
    n = v.size
    scale = np.full(n, math.sqrt(2.0 / n))
    scale[0] = math.sqrt(1.0 / n)
    out = np.empty(n)
    for k in range(n):
        out[k] = scale[k] * sum(
            float(v[j]) * math.cos(math.pi * k * (2 * j + 1) / (2 * n)) for j in range(n)
        )
    return out


def track_pitch(y: Waveform, scores=None) -> tuple[np.ndarray, np.ndarray]:
    """``dsp.track_pitch`` as one dot product per frame and lag.

    Same framing, floor, scores and decisions as the library's block-wise
    FFT version.  When ``scores`` is a list, each frame over the floor
    appends ``(index, lags, corr)``, its score at every lag.
    """
    sr = y.sample_rate
    win = int(round(PITCH_FRAME_MS * sr / 1000.0))
    lag_min = max(int(sr / PITCH_FMAX), 1)
    lag_max = min(int(sr / PITCH_FMIN), win - 1)
    frames = _frame(y.samples, win, _pitch_hop(sr))
    n_frames = frames.shape[0]
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    for i, frame in enumerate(frames):
        frame = frame - frame.mean()
        if np.sqrt(np.mean(frame**2)) < ENERGY_FLOOR:
            continue
        lags = np.arange(lag_min, lag_max + 1)
        corr = np.full(lags.size, -1.0)
        for k, lag in enumerate(lags):
            a = frame[:-lag]
            b = frame[lag:]
            if min(float(a @ a), float(b @ b)) >= (win - lag) * ENERGY_FLOOR**2:
                corr[k] = float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))
        if scores is not None:
            scores.append((i, lags, corr))
        best_r = float(corr.max())
        if best_r > VOICING_THRESHOLD:
            # lag multiples of the true period score almost identically, so
            # take the shortest lag within a whisker of the maximum to avoid
            # octave-down errors
            near = np.flatnonzero(corr >= best_r - 0.02 * abs(best_r))
            voiced[i] = True
            f0[i] = sr / float(lags[near[0]])
    return f0, voiced

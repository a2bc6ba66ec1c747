"""Reverse-mode autodiff: every op checked against central finite differences."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradvoc.tensor import (
    Tensor,
    add,
    add_channel_bias,
    affine_leaky_relu,
    concat,
    conv1d,
    downsample,
    leaky_relu,
    mean_abs,
    mul,
    nearest_upsample,
    no_grad,
    orthogonal_init,
    scale,
    sub,
)
from gradvoc import tensor as T
from gradvoc.net import DBLOCK_DILATIONS, DBlock, DenoiserModel, ModelConfig
import oracles
from oracles import tsum

FD_STEP = 1e-6
FD_TOL = 1e-5


def fd_check(build_loss, leaves, tol=FD_TOL):
    """Compare autodiff grads of scalar build_loss(leaves) to central differences."""
    loss = build_loss(*leaves)
    loss.backward()
    for leaf in leaves:
        assert leaf.grad is not None, "leaf received no gradient"
        flat = leaf.data.reshape(-1)
        fd = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = float(build_loss(*leaves).data)
            flat[i] = orig - FD_STEP
            dn = float(build_loss(*leaves).data)
            flat[i] = orig
            fd[i] = (up - dn) / (2 * FD_STEP)
        got = leaf.grad.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(got)), 1e-6)
        rel = np.max(np.abs(got - fd) / denom)
        assert rel <= tol, f"rel err {rel:.3e} exceeds {tol}"


def leaf(shape, seed, scale_=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale_ * rng.standard_normal(shape), requires_grad=True)


# -- elementwise and structural ops -----------------------------------------------


def test_add_sub_mul_scale_grads():
    a, b = leaf((3, 7), 0), leaf((3, 7), 1)
    fd_check(lambda a, b: mean_abs(add(mul(a, b), scale(sub(a, b), 1.7))), [a, b])


def test_channel_bias_grad():
    x, v = leaf((4, 6), 2), leaf((4,), 3)
    fd_check(lambda x, v: mean_abs(add_channel_bias(x, v)), [x, v])


@pytest.mark.parametrize("op, shape", [(sub, (2, 3, 5)), (add_channel_bias, (2, 3))])
def test_closures_compute_no_gradient_for_an_untracked_operand(op, shape):
    """sub's subtrahend and add_channel_bias's vector get None when untracked
    (a step's noise, its noise embedding), and their gradient when tracked;
    the first operand's is g itself either way."""
    x, g = leaf((2, 3, 5), 4), np.random.default_rng(5).standard_normal((2, 3, 5))
    untracked, tracked = Tensor(np.ones(shape)), leaf(shape, 6)
    gx, gc = op(x, untracked)._backward(g)
    assert gx is g and gc is None
    gx, gc = op(x, tracked)._backward(g)
    assert gx is g
    assert np.array_equal(gc, -g if op is sub else g.sum(axis=-1))


def test_sum_of_product_gives_other_factor():
    w = leaf((5,), 4)
    x = np.linspace(-1, 1, 5)
    loss = tsum(mul(w, Tensor(x)))
    loss.backward()
    assert np.allclose(w.grad, x, atol=1e-15)


def test_leaky_relu_values_and_grad():
    x = Tensor(np.array([[2.0, -1.0, 0.0]]), requires_grad=True)
    y = leaky_relu(x)
    assert np.allclose(y.data, [[2.0, -0.2, 0.0]], atol=0)
    tsum(y).backward()
    # subgradient at exactly 0 is the slope (the one-sided limit from below)
    assert np.allclose(x.grad, [[1.0, 0.2, 0.2]], atol=0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_leaky_relu_keeps_signed_zeros_and_nans(dtype):
    """The output equals ``np.maximum(v, slope * v)`` byte for byte, also
    for -0.0, nan and infinities, alone and as the fused op's activation."""
    v = np.array([[-0.0, 0.0, np.nan, -np.inf, np.inf, -3.0, 3.0, 1e-300]]).astype(dtype)
    want = np.maximum(v, dtype(0.2) * v)
    film = np.concatenate([np.ones_like(v), np.full_like(v, -0.0)])  # 1 * v + -0.0 is v
    with np.errstate(invalid="ignore", under="ignore"):
        got = leaky_relu(Tensor(v)).data
        fused = affine_leaky_relu(Tensor(v), Tensor(film)).data
    assert got.tobytes() == want.tobytes()
    assert fused.tobytes() == want.tobytes()


def test_leaky_relu_identity_on_nonnegative():
    x = Tensor(np.abs(np.random.default_rng(5).standard_normal((2, 9))))
    assert np.array_equal(leaky_relu(x).data, x.data)


def test_leaky_relu_fd_grad():
    x = leaf((2, 11), 6)
    fd_check(lambda x: mean_abs(leaky_relu(x)), [x])


def test_upsample_values_and_grad():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    y = nearest_upsample(x, 3)
    assert y.data.tolist() == [[1, 1, 1, 2, 2, 2]]
    assert np.array_equal(nearest_upsample(Tensor(x.data), 1).data, x.data)
    fd_check(lambda x: mean_abs(nearest_upsample(x, 3)), [leaf((2, 4), 7)])


def test_downsample_values_and_grad():
    x = Tensor(np.arange(8, dtype=np.float64).reshape(1, 8))
    assert downsample(x, 2).data.tolist() == [[0, 2, 4, 6]]
    with pytest.raises(ValueError):
        downsample(Tensor(np.zeros((1, 7))), 2)
    fd_check(lambda x: mean_abs(downsample(x, 2)), [leaf((3, 8), 8)])


# -- convolution ------------------------------------------------------------------


def test_conv_identity_kernel():
    x = Tensor(np.random.default_rng(9).standard_normal((3, 10)))
    w = Tensor(np.eye(3).reshape(3, 3, 1))
    y = conv1d(x, w)
    assert np.allclose(y.data, x.data, atol=1e-15)


def test_conv_shift_kernel():
    # "same" padding with a size-3 kernel puts one pad sample on each side,
    # so weight [1, 0, 0] reads the previous sample: a one-step delay
    x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    w = Tensor(np.array([[[1.0, 0.0, 0.0]]]))
    y = conv1d(x, w)
    assert y.data.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0]]


def test_conv_output_length():
    x = Tensor(np.zeros((2, 300)))
    w = Tensor(np.zeros((4, 2, 3)))
    assert conv1d(x, w, dilation=5).shape == (4, 300)


@pytest.mark.parametrize("batch", [(), (2,)])
def test_convs_refuse_an_input_of_no_time_steps(batch):
    x = Tensor(np.zeros((*batch, 2, 0)))
    w = Tensor(np.zeros((4, 2, 3)))
    for conv in (lambda: conv1d(x, w), lambda: conv1d(x, w, factor=2)):
        with pytest.raises(ValueError, match="at least one time step"):
            conv()


def test_conv_rejects_bad_kernel():
    with pytest.raises(ValueError):
        conv1d(Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 1, 4))))


def test_conv_fd_grads_dense():
    x, w, b = leaf((2, 9), 10), leaf((3, 2, 3), 11), leaf((3,), 12)
    fd_check(lambda x, w, b: mean_abs(conv1d(x, w, b)), [x, w, b])


def test_conv_fd_grads_dilated():
    x, w = leaf((2, 12), 13), leaf((3, 2, 5), 14)
    fd_check(lambda x, w: mean_abs(conv1d(x, w, dilation=2)), [x, w])


def test_conv_stack_fd():
    """Random 3-layer conv stack, 64-bit, against central differences."""
    leaves = [
        leaf((2, 16), 20), leaf((4, 2, 3), 21), leaf((4,), 22),
        leaf((4, 4, 5), 23), leaf((3, 4, 1), 24),
    ]

    def loss(x, w1, b1, w2, w3):
        h = leaky_relu(conv1d(x, w1, b1))
        h = leaky_relu(conv1d(downsample(h, 2), w2, dilation=2))
        return mean_abs(conv1d(h, w3))

    fd_check(loss, leaves)


def test_full_op_composition_fd():
    """Every op the model uses, composed, at toy widths."""
    leaves = [
        leaf((1, 12), 30), leaf((4, 1, 5), 31), leaf((4,), 32),
        leaf((4, 4, 3), 33), leaf((4,), 34), leaf((4, 4, 1), 35),
    ]

    def loss(x, w1, b1, w2, gamma_seed, w_skip):
        h = conv1d(x, w1, b1)
        h = downsample(h, 2)
        h = add_channel_bias(h, gamma_seed)
        skip = conv1d(h, w_skip)
        h = leaky_relu(conv1d(h, w2, dilation=2))
        h = nearest_upsample(add(h, skip), 2)
        return mean_abs(h)

    fd_check(loss, leaves)


# -- the lean conv against the padded tensordot oracle -------------------------------

# relative gradient agreement with the oracle, per dtype
GRAD_RTOL = {np.float64: 1e-12, np.float32: 1e-6}


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def conv_grads(conv, x, w, b, g):
    """The output of ``conv`` and the gradients of its leaves under cotangent ``g``."""
    leaves = [Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)]
    if b is not None:
        leaves.append(Tensor(b.copy(), requires_grad=True))
    out = conv(*leaves)
    tsum(mul(out, Tensor(g))).backward()
    return out.data, [leaf.grad for leaf in leaves]


def conv_vs_oracle(c_in, c_out, t, kernel, dilation, bias, dtype, seed, lean=None, factor=1):
    """Forward bit-identical to the oracle; each gradient entry within the
    rounding bound of its own sum.

    ``lean`` is the conv under test, ``conv1d`` by default.  The oracle
    convolves at the full rate and keeps every ``factor``-th output step with
    a plain slice, the order a strided conv computes in.  Above factor 1 its
    product is wider than the lean conv's, BLAS may block its sums otherwise,
    and the forward is held to the rounding bound of each entry's own sum of
    ``c_in * kernel`` products and a bias instead of to its bytes.

    A gradient entry sums at most ``terms`` products, and the conv and the
    oracle may add them in different orders.  Each order errs by at most
    terms * eps / 2 of the products' absolute sum, which the oracle gives
    when run on the operands' absolute values.  A bound taken against the
    largest entry instead fails where one entry's products cancel.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c_in, t)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, kernel)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype) if bias else None
    t_out = -(-t // factor)
    g = rng.standard_normal((c_out, t_out)).astype(dtype)

    def oracle(*leaves):
        return oracles.decimate(oracles.conv1d(*leaves, dilation=dilation), factor)

    got, got_grads = conv_grads(lean or (lambda *leaves: conv1d(*leaves, dilation=dilation)),
                                x, w, b, g)
    want, want_grads = conv_grads(oracle, x, w, b, g)
    out_sums, sums = conv_grads(oracle, abs(x), abs(w), None if b is None else abs(b), abs(g))
    assert got.dtype == want.dtype == dtype and got.shape == want.shape
    eps = np.finfo(dtype).eps
    if factor == 1:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= (c_in * kernel + 1) * eps * out_sums)
    terms = max(t_out, c_out * kernel)
    for a, b_, s in zip(got_grads, want_grads, sums):
        assert a.dtype == b_.dtype and a.shape == b_.shape
        assert np.all(np.abs(a - b_) <= terms * eps * s)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv_matches_oracle_on_the_grid(kernel, dtype):
    for t, dilation in itertools.product((1, 2, 7, 13, 30), (1, 2, 8)):
        seed = t * 100 + 10 + dilation
        conv_vs_oracle(3, 2, t, kernel, dilation, t % 2 == 1, dtype, seed)
        conv_vs_oracle(1, 4, t, kernel, dilation, True, dtype, seed)  # as pre_conv
        conv_vs_oracle(8, 1, t, kernel, dilation, True, dtype, seed)  # as post_conv


@settings(max_examples=150, deadline=None)
@given(
    c_in=st.integers(1, 6), c_out=st.integers(1, 6), t=st.integers(1, 40),
    kernel=st.sampled_from([1, 3, 5]), dilation=st.integers(1, 9),
    bias=st.booleans(), dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_conv_matches_oracle_on_any_shape(c_in, c_out, t, kernel, dilation, bias, dtype, seed):
    conv_vs_oracle(c_in, c_out, t, kernel, dilation, bias, dtype, seed)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("factor", [1, 2, 3, 5])
def test_dblock_skip_of_the_decimation_is_a_strided_conv(factor, dtype):
    """A 1x1 conv commutes with decimation: the DBlock's skip conv of its
    decimated input equals the oracle 1x1 conv of the full-rate input,
    decimated after, forward and gradients, on the model's widths and on
    one channel."""
    skip = DBlock(1, 1, factor, DBLOCK_DILATIONS).skip
    assert skip.bias is None and skip.weight.shape[-1] == 1

    def lean(x, w):
        skip.weight = w
        return skip(downsample(x, factor))

    for c_in, c_out, frames in ((4, 8, 1), (3, 2, 5), (1, 1, 6), (32, 128, 3), (5, 1, 7)):
        seed = 1000 * factor + 10 * c_in + frames
        conv_vs_oracle(c_in, c_out, frames * factor, 1, 1, False, dtype, seed, lean, factor)


# -- a leading batch axis: B items at once equal B single calls -------------------------


def batched_vs_single(op, xs, params=(), dtype=np.float64):
    """Run ``op(x, *params)`` on the stacked items and on each alone; compare
    outputs and the gradients of x and every parameter under one cotangent."""
    rng = np.random.default_rng(60)
    tol = GRAD_RTOL[dtype]
    xs = [x.astype(dtype) for x in xs]
    params = [p.astype(dtype) for p in params]

    def run(x, g=None):
        leaves = [Tensor(x.copy(), requires_grad=True),
                  *(Tensor(p.copy(), requires_grad=True) for p in params)]
        out = op(*leaves)
        if g is None:
            return out.data
        tsum(mul(out, Tensor(g))).backward()
        return out.data, [leaf.grad for leaf in leaves]

    cotangents = [rng.standard_normal(run(x).shape).astype(dtype) for x in xs]
    batch, batch_grads = run(np.stack(xs), np.stack(cotangents))
    param_sums = [np.zeros_like(p) for p in params]
    for i, (x, g) in enumerate(zip(xs, cotangents)):
        single, grads = run(x, g)
        assert batch[i].shape == single.shape
        assert rel_err(batch[i], single) <= tol
        assert rel_err(batch_grads[0][i], grads[0]) <= tol
        for total, grad in zip(param_sums, grads[1:]):
            total += grad
    for got, want in zip(batch_grads[1:], param_sums):
        assert rel_err(got, want) <= tol


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel, factor, dilation, t", [
    (3, 1, 1, 16), (5, 1, 1, 9), (1, 2, 1, 9), (1, 1, 1, 6),
    (3, 1, 8, 5),  # every tap but the centre reads padding
    (5, 3, 2, 7),  # padding on both sides of a dilated kernel over a decimation
])
def test_batched_conv_equals_single_items(kernel, factor, dilation, t, dtype):
    """The conv of items decimated by ``factor`` to ``t`` steps, as in a DBlock."""
    rng = np.random.default_rng(61)
    xs = [rng.standard_normal((3, t * factor)) for _ in range(4)]
    w, b = rng.standard_normal((2, 3, kernel)), rng.standard_normal(2)
    batched_vs_single(lambda x, w, b: conv1d(downsample(x, factor), w, b, dilation=dilation),
                      xs, [w, b], dtype)


def test_batched_conv_keeps_items_apart():
    """Each item is padded on its own: an item of zeros stays zero beside a
    neighbour whose edges are large, and its input gradient is exactly that
    of the same item convolved alone."""
    x = np.zeros((3, 2, 7))
    x[1] = 1e6
    w = Tensor(np.ones((2, 2, 5)), requires_grad=True)
    xt = Tensor(x, requires_grad=True)
    out = conv1d(xt, w, dilation=2)
    assert out.shape == (3, 2, 7)
    assert not out.data[0].any() and not out.data[2].any()
    tsum(out).backward()
    alone = Tensor(np.zeros((2, 7)), requires_grad=True)
    tsum(conv1d(alone, w, dilation=2)).backward()
    for i in range(3):
        assert np.array_equal(xt.grad[i], alone.grad)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batched_structural_ops_equal_single_items(dtype):
    rng = np.random.default_rng(62)
    xs = [rng.standard_normal((3, 8)) for _ in range(3)]
    batched_vs_single(leaky_relu, xs, dtype=dtype)
    batched_vs_single(lambda x: nearest_upsample(x, 3), xs, dtype=dtype)
    batched_vs_single(lambda x: downsample(x, 4), xs, dtype=dtype)
    batched_vs_single(lambda x: add(mul(x, x), sub(x, scale(leaky_relu(x), 0.5))), xs,
                      dtype=dtype)


def test_batched_channel_bias_takes_one_row_per_item():
    rng = np.random.default_rng(63)
    x, v = leaf((3, 4, 6), 64), leaf((3, 4), 65)
    out = add_channel_bias(x, v)
    for i in range(3):
        assert np.array_equal(out.data[i], add_channel_bias(Tensor(x.data[i]), Tensor(v.data[i])).data)
    with pytest.raises(ValueError):
        add_channel_bias(x, Tensor(rng.standard_normal(4)))
    fd_check(lambda x, v: mean_abs(add_channel_bias(x, v)), [x, v])


def test_batched_op_composition_fd():
    """The batched ops of the full composition above, against central differences."""
    leaves = [
        leaf((2, 1, 12), 70), leaf((4, 1, 5), 71), leaf((4,), 72),
        leaf((4, 4, 3), 73), leaf((2, 4), 74), leaf((4, 4, 1), 75),
    ]

    def loss(x, w1, b1, w2, emb, w_skip):
        h = conv1d(x, w1, b1)
        h = downsample(h, 2)
        h = downsample(add_channel_bias(h, emb), 2)  # a DBlock: one decimation, two branches
        skip = conv1d(h, w_skip)
        h = leaky_relu(conv1d(h, w2, dilation=2))
        h = nearest_upsample(add(h, skip), 2)
        return mean_abs(h)

    fd_check(loss, leaves)


def test_leaky_relu_grad_keeps_the_operand_dtype():
    x = Tensor(np.array([[1.5, -2.0, 0.0]], dtype=np.float32), requires_grad=True)
    tsum(leaky_relu(x)).backward()
    assert x.grad.dtype == np.float32
    assert x.grad.tolist() == [[1.0, np.float32(0.2), np.float32(0.2)]]


# -- fused ops against the ops they fuse ---------------------------------------------

# relative error of the polyphase upsampling conv against the conv of the
# upsampled input: merging taps sums weights before multiplying
UPSAMPLE_RTOL = {np.float64: 1e-12, np.float32: 1e-6}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5])
def test_upsample_conv_matches_conv_of_the_upsample(factor, dtype):
    """Every dilation 1-8 (also d >= factor, where no taps merge) and kernel,
    on odd and even lengths, one item and a batch, with and without bias."""
    rng = np.random.default_rng(80 + factor)
    for dilation, kernel, t, batch in itertools.product(range(1, 9), (1, 3, 5), (1, 4, 7),
                                                        ((), (2,))):
        x = Tensor(rng.standard_normal((*batch, 3, t)).astype(dtype))
        w = Tensor(rng.standard_normal((4, 3, kernel)).astype(dtype))
        b = Tensor(rng.standard_normal(4).astype(dtype)) if t != 4 else None
        got = conv1d(x, w, b, dilation, factor).data
        want = conv1d(nearest_upsample(x, factor), w, b, dilation=dilation).data
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert rel_err(got, want) <= UPSAMPLE_RTOL[dtype], (dilation, kernel, t, batch)


def test_upsample_conv_fd_grads():
    x, w, b = leaf((2, 5), 87), leaf((3, 2, 3), 88), leaf((3,), 89)
    fd_check(lambda x, w, b: mean_abs(conv1d(x, w, b, factor=3)), [x, w, b])
    x, w = leaf((2, 2, 4), 90), leaf((3, 2, 5), 91)
    fd_check(lambda x, w: mean_abs(conv1d(x, w, dilation=3, factor=2)), [x, w])


def test_upsample_conv_rejects_bad_operands():
    x, w = Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError, match="factor must be >= 1"):
        conv1d(x, w, factor=0)
    with pytest.raises(ValueError):
        conv1d(x, Tensor(np.zeros((3, 1, 3))), factor=2)
    with pytest.raises(ValueError):
        conv1d(x, w, Tensor(np.zeros(2)), factor=2)


# -- column tiles: a long conv builds its column matrix one run of steps at a time ---------


def tile_steps(c_in, n_taps, dtype):
    """Output steps per column tile of a conv over x (..., C_in, T)."""
    return max(1, T.COLUMN_TILE_BYTES // (c_in * n_taps * np.dtype(dtype).itemsize))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("factor", [1, 2, 3, 5])
def test_the_plan_is_the_old_taps_groups_and_tiles(factor, dtype):
    """One plan answers what the separate tap, polyphase and tile helpers
    did, for kernels 1/3/5 at dilations 1-8, over signals shorter than, near
    and past the reach of the outer taps and around the tile width."""
    c_in, tile_bytes = 3, T.COLUMN_TILE_BYTES
    for kernel, dilation in itertools.product((1, 3, 5), range(1, 9)):
        tile = tile_steps(c_in, kernel, dtype)
        for t in (1, 5, 17, 40, tile - 1, tile, tile + 1, 7 * tile // 2):
            x = np.broadcast_to(np.zeros((), dtype), (c_in, t))  # its shape and itemsize
            plan = T._plan(t, kernel, dilation, factor, c_in * x.itemsize, tile_bytes)
            want = oracles.upsample_plan(t, kernel, factor, dilation)
            assert len(plan) == len(want)
            for got, (phases, offsets, merge, taps) in zip(plan, want):
                phases = tuple(range(factor)[phases])
                assert got[:2] == (phases, len(offsets)) and got[3] == taps
                assert (got[2] is None if merge is None else
                        got[2].dtype == merge.dtype and np.array_equal(got[2], merge))
                runs = got[4]
                assert [run[:3] for run in runs] == list(
                    oracles.tiles(x, len(offsets), offsets, taps, tile_bytes))
                for start, stop, _, outs in runs:  # each phase's output steps of the run
                    assert len(outs) == len(phases)
                    for r, out in zip(phases, outs):
                        steps = np.arange(t * factor)[out]
                        assert np.array_equal(steps, factor * np.arange(start, stop) + r)
            if factor == 1:
                taps = oracles.conv_taps(t, kernel, dilation)
                runs = oracles.tiles(x, kernel, oracles.offsets(kernel, dilation), taps, tile_bytes)
                assert plan == (((0,), kernel, None, taps,
                                 tuple((*run, (slice(run[0], run[1], 1),)) for run in runs)),)
            untiled = T._plan(t, kernel, dilation, factor, 0, 0)
            assert [[run[:3] for run in group[4]] for group in untiled] == [
                [(0, t, group[3])] for group in plan]


def within_rounding_of_the_oracle(got, x, w, b, dilation, terms):
    """Each item of ``got`` against the oracle conv of that item of x, to the
    rounding bound of each entry's own sum of ``terms`` products."""
    eps = np.finfo(x.dtype).eps
    bias = (None, None) if b is None else (Tensor(b), Tensor(abs(b)))
    for item, out in zip(x.reshape(-1, *x.shape[-2:]), got.reshape(-1, *got.shape[-2:])):
        want = oracles.conv1d(Tensor(item), Tensor(w), bias[0], dilation=dilation).data
        sums = oracles.conv1d(Tensor(abs(item)), Tensor(abs(w)), bias[1], dilation=dilation).data
        assert np.all(np.abs(out - want) <= terms * eps * sums)


@pytest.fixture
def small_tiles(monkeypatch):
    """A 4 KiB column tile, and the size of one item's part of every column
    matrix built (one tap's is its input)."""
    monkeypatch.setattr(T, "COLUMN_TILE_BYTES", 4096)
    built, columns = [], T._columns

    def recorded(*args):
        col = columns(*args)
        if not np.shares_memory(col, args[0]):
            built.append(col.nbytes // math.prod(col.shape[:-2]))
        return col

    monkeypatch.setattr(T, "_columns", recorded)
    return built


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_tiled_conv_matches_the_oracle(kernel, dtype, small_tiles):
    """Lengths of 1, a tile - 1, a tile, a tile + 1 and 3.5 tiles, every
    dilation 1-8, one item and a batch."""
    rng = np.random.default_rng(120 + kernel)
    for batch, dilation in itertools.product(((), (2,)), range(1, 9)):
        tile = tile_steps(3, kernel, dtype)
        for t in (1, tile - 1, tile, tile + 1, 7 * tile // 2):
            x = rng.standard_normal((*batch, 3, t)).astype(dtype)
            w = rng.standard_normal((2, 3, kernel)).astype(dtype)
            b = rng.standard_normal(2).astype(dtype)
            got = conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=dilation).data
            assert got.dtype == dtype and got.shape == (*batch, 2, t)
            within_rounding_of_the_oracle(got, x, w, b, dilation, 3 * kernel + 1)
    if kernel > 1:
        assert 0 < max(small_tiles) <= 4096


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("factor", [2, 3, 5])
def test_tiled_upsample_conv_matches_the_oracle(factor, dtype, small_tiles):
    """As above, for the conv of a nearest upsample, on tiles of the most
    merged taps a group can have; summing taps first adds one rounding per
    tap to the bound."""
    rng = np.random.default_rng(130 + factor)
    for kernel, batch, dilation in itertools.product((1, 3, 5), ((), (2,)), range(1, 9)):
        tile = tile_steps(3, kernel, dtype)
        for t in (1, tile - 1, tile, tile + 1, 7 * tile // 2):
            x = rng.standard_normal((*batch, 3, t)).astype(dtype)
            w = rng.standard_normal((2, 3, kernel)).astype(dtype)
            b = rng.standard_normal(2).astype(dtype) if t % 2 else None
            got = conv1d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                         dilation, factor).data
            assert got.dtype == dtype and got.shape == (*batch, 2, t * factor)
            within_rounding_of_the_oracle(got, np.repeat(x, factor, axis=-1), w, b, dilation,
                                          3 * kernel + kernel + 1)
    assert 0 < max(small_tiles) <= 4096


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("factor", [1, 2, 3, 5])
def test_conv1d_is_the_op_it_replaced(factor, dtype, small_tiles):
    """Kernels 1/3/5, dilations 1-8, lengths of 1, 5, 17, 40, a tile - 1, a
    tile, a tile + 1 and 3.5 tiles, one item and a batch, with and without
    bias.  The forward is the old op's byte for byte: the plain column conv
    at factor 1, the polyphase upsampling conv above it.  At factor 1 the
    gradients are the old conv's bytes too.  Above it, each gradient entry
    is within the rounding bound of its own sum, ``terms * eps * sum of
    |products|``, of the gradient of the conv of the upsample, which sums
    the same products in another order: ``c_out * kernel * factor`` of them
    for an input sample, one per output step of the batch for a weight or
    bias entry."""
    rng = np.random.default_rng(180 + factor)
    eps = np.finfo(dtype).eps
    for kernel, dilation, batch, bias in itertools.product(
            (1, 3, 5), range(1, 9), ((), (2,)), (False, True)):
        tile = tile_steps(3, kernel, dtype)
        for t in (1, 5, 17, 40, tile - 1, tile, tile + 1, 7 * tile // 2):
            x = rng.standard_normal((*batch, 3, t)).astype(dtype)
            w = rng.standard_normal((2, 3, kernel)).astype(dtype)
            b = rng.standard_normal(2).astype(dtype) if bias else None
            g = rng.standard_normal((*batch, 2, t * factor)).astype(dtype)
            got, got_grads = conv_grads(
                lambda *leaves: conv1d(*leaves, dilation=dilation, factor=factor), x, w, b, g)
            case = (kernel, dilation, batch, bias, t)
            if factor == 1:
                want, want_grads = conv_grads(
                    lambda *leaves: oracles.column_conv1d(*leaves, dilation=dilation), x, w, b, g)
                for a, b_ in zip((got, *got_grads), (want, *want_grads)):
                    assert a.dtype == b_.dtype == dtype and a.tobytes() == b_.tobytes(), case
                continue
            old = oracles.upsample_conv1d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                                          factor, dilation).data
            assert got.dtype == old.dtype == dtype and got.tobytes() == old.tobytes(), case

            def upsampled(x, *params):
                return conv1d(nearest_upsample(x, factor), *params, dilation=dilation)

            _, want_grads = conv_grads(upsampled, x, w, b, g)
            _, sums = conv_grads(upsampled, abs(x), abs(w), None if b is None else abs(b), abs(g))
            steps = math.prod(batch) * t * factor
            for a, b_, s, terms in zip(got_grads, want_grads, sums,
                                       (w.shape[0] * kernel * factor, steps, steps)):
                assert a.dtype == b_.dtype == dtype and a.shape == b_.shape
                assert np.all(np.abs(a - b_) <= terms * eps * s), case


def test_a_batch_is_tiled_as_its_items_are(small_tiles):
    """A batch's GEMM is one GEMM per item, so its tiles are as wide as one
    item's: each batched column matrix holds the batch's columns of one
    item's tile."""
    rng = np.random.default_rng(142)
    x, w = rng.standard_normal((4, 3, 700)), Tensor(rng.standard_normal((2, 3, 3)))
    for run in (lambda x: conv1d(x, w, None, dilation=2),
                lambda x: conv1d(x, w, factor=3)):
        run(Tensor(x[0]))
        one = list(small_tiles)
        small_tiles.clear()
        run(Tensor(x))
        assert len(one) > 1 and small_tiles == one
        small_tiles.clear()


def test_a_conv_of_three_and_a_half_tiles_matches_the_oracle():
    rng = np.random.default_rng(140)
    t = 7 * tile_steps(2, 5, np.float64) // 2
    x, w, b = rng.standard_normal((2, t)), rng.standard_normal((3, 2, 5)), rng.standard_normal(3)
    got = conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=3).data
    within_rounding_of_the_oracle(got, x, w, b, 3, 2 * 5 + 1)


def traced_workspace(run):
    """Peak traced bytes of ``run()`` beyond the array it returns."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.data.nbytes


def test_a_long_conv_works_in_one_tile_of_columns():
    """15 MiB of columns at once before the tiles; now at most one tile."""
    rng = np.random.default_rng(141)
    x, w = Tensor(rng.standard_normal((16, 40000))), Tensor(rng.standard_normal((16, 16, 3)))
    assert 3 * x.data.nbytes > 4 * T.COLUMN_TILE_BYTES  # several tiles long
    slack = 64 * 1024
    assert traced_workspace(lambda: conv1d(x, w, None, dilation=2)) <= T.COLUMN_TILE_BYTES + slack
    # two merged taps per phase: each tile's GEMM product is half its columns
    x = Tensor(rng.standard_normal((16, 20000)))
    workspace = traced_workspace(lambda: conv1d(x, w, factor=2))
    assert workspace <= 1.5 * T.COLUMN_TILE_BYTES + slack


# -- each piece of backward work once: kept columns, handed-over gradients ---------------


def counted_columns(monkeypatch):
    """Count each column matrix built, in the list returned."""
    built, columns = [], T._columns

    def counting(*args):
        built.append(args[0].shape)
        return columns(*args)

    monkeypatch.setattr(T, "_columns", counting)
    return built


def kept_and_rebuilt(run, x, w, b, monkeypatch, factor=1):
    """``conv_grads`` of ``run``, which gives ``factor`` outputs per input
    step, as it is, with the number of column matrices it built, and with
    every conv backward rebuilding its columns."""
    t_out = factor * x.shape[-1]
    g = np.linspace(-1.0, 1.0, w.shape[0] * t_out * math.prod(x.shape[:-2]))
    g = g.reshape(*x.shape[:-2], w.shape[0], t_out).astype(x.dtype)
    with monkeypatch.context() as m:
        built = counted_columns(m)
        out, grads = conv_grads(run, x, w, b, g)
    with monkeypatch.context() as m:
        m.setattr(T, "_conv_backward", oracles.conv_backward_rebuilt)
        want, want_grads = conv_grads(run, x, w, b, g)
    return [out, *grads], [want, *want_grads], len(built)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("batch", [(), (2,)], ids=["2-D", "3-D"])
def test_conv_backward_on_the_kept_columns_equals_the_rebuild(batch, kernel, dtype,
                                                              monkeypatch):
    """The forward's column matrices give backward the rebuild's bytes, for
    every dilation 1-8, factors 1/2/3/5 and signals shorter than, near and
    past the reach of the outer taps; backward builds no second matrix: one
    per phase group in all."""
    rng = np.random.default_rng(150 + kernel)
    for dilation, t, factor in itertools.product(range(1, 9), (1, 5, 17, 40), (1, 2, 3, 5)):
        x = rng.standard_normal((*batch, 3, t)).astype(dtype)
        w = rng.standard_normal((4, 3, kernel)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        kept, rebuilt, built = kept_and_rebuilt(
            lambda *leaves: conv1d(*leaves, dilation=dilation, factor=factor), x, w, b,
            monkeypatch, factor)
        assert built == len(T._plan(t, kernel, dilation, factor, 0, 0))
        for got, want in zip(kept, rebuilt):
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("over", [False, True], ids=["whole", "tiled"])
def test_only_a_conv_built_whole_keeps_its_columns(over, monkeypatch):
    """Items of one column matrix just under ``COLUMN_TILE_BYTES`` build it
    once for forward and backward; just over, forward builds two tiles and
    backward rebuilds the whole matrix.  Both give the rebuild's bytes."""
    c_in, kernel = 8, 3
    step_bytes = c_in * kernel * 8  # one float64 item's columns per output step
    t = T.COLUMN_TILE_BYTES // step_bytes + over
    assert (step_bytes * t > T.COLUMN_TILE_BYTES) == over
    rng = np.random.default_rng(160)
    x = rng.standard_normal((2, c_in, t))
    w, b = rng.standard_normal((2, c_in, kernel)), rng.standard_normal(2)
    kept, rebuilt, built = kept_and_rebuilt(
        lambda *leaves: conv1d(*leaves, dilation=2), x, w, b, monkeypatch)
    assert built == (3 if over else 1)
    for got, want in zip(kept, rebuilt):
        assert got.tobytes() == want.tobytes()


def handing_over_graph(x, p, q, w1, w2, b1, b2, w3, v):
    """A loss whose backward runs every op, with a fan-out of x and of its
    activation, ``add`` of two leaves and of one tensor to itself, ``sub``,
    and ``concat`` slices."""
    a = leaky_relu(x)  # x is read here and below: a fan-out
    film = conv1d(x, concat([w1, w2]), concat([b1, b2]), dilation=2)
    u = affine_leaky_relu(a, film)
    d = sub(add(u, u), a)
    e = add(add(d, x), add(p, q))
    up = conv1d(add_channel_bias(e, v), w3, factor=2)
    h = nearest_upsample(downsample(up, 2), 2)
    return mean_abs(sub(scale(mul(h, h), 0.5), up))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", [(), (2,)], ids=["2-D", "3-D"])
def test_handed_over_gradients_alias_nothing_and_equal_the_copies(batch, dtype, monkeypatch):
    rng = np.random.default_rng(170)
    shapes = [(*batch, 3, 12), (*batch, 3, 12), (*batch, 3, 12), (3, 3, 3), (3, 3, 3),
              (3,), (3,), (3, 3, 3), (*batch, 3)]
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in shapes]

    def run():
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        handing_over_graph(*leaves).backward()
        return leaves

    leaves = run()
    for one, other in itertools.combinations(leaves, 2):
        assert not np.shares_memory(one.grad, other.grad)
    for one, other in itertools.product(leaves, leaves):
        assert not np.shares_memory(one.grad, other.data)
    with monkeypatch.context() as m:
        m.setattr(T, "_accumulate", oracles.accumulate_copying)
        copied = run()
    for got, want in zip(leaves, copied):
        assert got.grad.dtype == dtype and got.grad.tobytes() == want.grad.tobytes()


# graphs of x = add(p, q) that pass x to one op twice, or to an add and a
# conv, whose part of x's gradient backward adds into the one the add gave x
REUSING = {
    "add": lambda x, p, w, b, v: [add(x, x)],
    "sub": lambda x, p, w, b, v: [sub(x, x)],
    "mul": lambda x, p, w, b, v: [mul(x, x)],
    "concat": lambda x, p, w, b, v: [concat([x, x])],
    "add_channel_bias": lambda x, p, w, b, v: [add(add_channel_bias(x, v), x)],
    **{f"conv1d-{f}": lambda x, p, w, b, v, f=f: [add(x, p),
                                                  conv1d(x, w, b, dilation=2, factor=f)]
       for f in (1, 2, 3)},
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("graph", REUSING)
def test_a_reused_operand_gets_the_copies_gradients_and_no_alias(graph, dtype, monkeypatch):
    """Each leaf's gradient is the bytes of the backward that copies every
    first gradient, and shares memory with no other gradient or data."""
    rng = np.random.default_rng(180)
    arrays = [rng.standard_normal(shape).astype(dtype)
              for shape in [(2, 3, 8), (2, 3, 8), (4, 3, 3), (4,), (2, 3)]]

    def run():
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        p, q, w, b, v = leaves
        loss = None
        for out in REUSING[graph](add(p, q), p, w, b, v):
            weights = Tensor(np.linspace(-2.0, 3.0, out.data.size, dtype=dtype).reshape(out.shape))
            term = mean_abs(mul(out, weights))
            loss = term if loss is None else add(loss, term)
        loss.backward()
        return [leaf for leaf in leaves if leaf.grad is not None]  # v only where it is read

    leaves = run()
    assert len(leaves) >= 2  # p and q
    for one, other in itertools.combinations(leaves, 2):
        assert not np.shares_memory(one.grad, other.grad)
    for one, other in itertools.product(leaves, leaves):
        assert not np.shares_memory(one.grad, other.data)
    with monkeypatch.context() as m:
        m.setattr(T, "_accumulate", oracles.accumulate_copying)
        copied = run()
    for got, want in zip(leaves, copied):
        assert got.grad.dtype == dtype and got.grad.tobytes() == want.grad.tobytes()


@pytest.mark.parametrize("returned", [1, 3], ids=["too-few", "too-many"])
def test_a_closure_returning_the_wrong_number_of_gradients_raises(returned):
    a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    out = T._result(a.data + b.data, (a, b), lambda g: (g, g, g)[:returned])
    with pytest.raises(ValueError, match="zip"):
        mean_abs(out).backward()


def composed_affine_leaky_relu(x, gamma, xi):
    return leaky_relu(add(mul(gamma, x), xi))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_affine_leaky_relu_is_byte_equal_to_the_composed_ops(dtype):
    """The fused op reads gamma and xi as the two channel halves of one film
    tensor; its output and gradients equal the composed ops' byte for byte,
    the film's gradient being gamma's gradient stacked on xi's.  At 20 000
    steps the 160 000 values take three blocks of the in-place activation."""
    rng = np.random.default_rng(92)
    for t in (9, 20000):
        x, gamma, xi = [rng.standard_normal((2, 4, t)).astype(dtype) for _ in range(3)]
        x[0, 0, :3] = 0.0  # zero pre-activations take the slope, as in leaky_relu
        xi[0, 0, :3] = 0.0
        g = Tensor(rng.standard_normal((2, 4, t)).astype(dtype))
        fused = [Tensor(x.copy(), requires_grad=True),
                 Tensor(np.concatenate([gamma, xi], axis=1), requires_grad=True)]
        composed = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, xi)]
        got = affine_leaky_relu(*fused)
        want = composed_affine_leaky_relu(*composed)
        for out in (got, want):
            tsum(mul(out, g)).backward()
        film_grad = np.concatenate([composed[1].grad, composed[2].grad], axis=1)
        for a, b in ((got.data, want.data), (fused[0].grad, composed[0].grad),
                     (fused[1].grad, film_grad)):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()


def test_affine_leaky_relu_fd_grads():
    x, film = leaf((3, 7), 93), leaf((6, 7), 94)
    fd_check(lambda x, film: mean_abs(affine_leaky_relu(x, film)), [x, film])
    for shape in ((5, 7), (6, 6), (2, 6, 7)):  # film must hold two halves of x
        with pytest.raises(ValueError):
            affine_leaky_relu(x, Tensor(np.zeros(shape)))


def test_concat_routes_gradients():
    a, b = leaf((2, 3, 3), 96), leaf((4, 3, 3), 97)
    joined = concat([a, b])
    assert np.array_equal(joined.data, np.concatenate([a.data, b.data]))
    fd_check(lambda a, b: mean_abs(concat([a, b])), [a, b])


# -- backward arithmetic against the expressions it replaced ------------------------


def with_special_values(rng, shape, dtype):
    """Normal draws of which about one in six is nan, +-inf, +0.0 or -0.0."""
    a = rng.standard_normal(shape)
    pick = rng.random(shape) < 1 / 6
    a[pick] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], pick.sum())
    return a.astype(dtype)


def negative_zeros(a):
    return (a == 0) & np.signbit(a)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_leaky_grad_is_the_select_byte_for_byte(dtype):
    """The factor is exactly 1 or the slope in the operand's dtype, so the
    product with g (ones alone show the factor) is the select's, nan and
    infinities included."""
    rng = np.random.default_rng(150)
    x = with_special_values(rng, (3, 5, 40), dtype)
    x[0, 0, :3] = (0.0, -0.0, np.nan)  # no slope of 1 at zero or nan
    for g in (np.ones_like(x), with_special_values(rng, x.shape, dtype)):
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            got = T._leaky_grad(g, x)
            want = oracles.leaky_grad(g, x, T.LEAKY_SLOPE)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("factor", [1, 2, 3, 5])
def test_phase_sum_is_the_reduction_but_for_negative_zero_runs(factor, dtype):
    """The slice sum of all phases, or of the last half of them, gives
    numpy's reduction byte for byte, except that a run of -0.0 alone sums
    to -0.0, where the reduction, starting from +0.0, gives +0.0; that
    exception is written into the expected sum."""
    rng = np.random.default_rng(151 + factor)
    for shape, phases in itertools.product(((3, 7 * factor), (2, 3, 7 * factor)),
                                           (range(factor), range(factor // 2, factor))):
        g = with_special_values(rng, shape, dtype)
        g[..., 0, :2 * factor] = -0.0  # two runs of -0.0 alone
        picked = g.reshape(*g.shape[:-1], -1, factor)[..., phases]
        with np.errstate(invalid="ignore"):
            got = T._phase_sum(g, factor, tuple(phases))
            want = oracles.phase_sum(picked.reshape(*g.shape[:-1], -1), len(phases))
        runs = negative_zeros(picked).all(axis=-1)
        assert runs.any() and not np.signbit(want[runs]).any()
        want[runs] = -0.0
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tap_sum_is_the_scatter_into_zeros_but_for_negative_zero_sums(dtype):
    """Kernels 1/3/5 at dilations 1-8, over signals shorter and longer than
    the kernel's span, one item and a batch: the sum from the first tap
    equals the scatter into zeros byte for byte, except that a sum of -0.0
    terms alone stays -0.0 where the first tap reads; that exception is
    written into the expected sum."""
    rng = np.random.default_rng(155)
    for kernel, dilation, t, batch in itertools.product((1, 3, 5), range(1, 9), (1, 6, 40),
                                                        ((), (2,))):
        taps = T._plan(t, kernel, dilation, 1, 0, 0)[0][3]
        gcol = with_special_values(rng, (*batch, 3, kernel, t), dtype)
        gcol[..., 0, :, :] = -0.0  # every term of the first channel
        with np.errstate(invalid="ignore"):
            got = T._tap_sum(gcol, taps, dtype)
            want = oracles.tap_scatter(gcol, taps, dtype)
        # a sum whose terms are all -0.0 has as many -0.0 terms as terms
        sums = (oracles.tap_scatter(negative_zeros(gcol).astype(float), taps, float)
                == oracles.tap_scatter(np.ones(gcol.shape), taps, float))
        reads = taps[0][2]  # the inputs that the first tap reads
        sums[..., :reads.start] = sums[..., reads.stop:] = False
        assert sums.any() and not np.signbit(want[sums]).any()
        want[sums] = -0.0
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes(), (kernel, dilation, t, batch)


# -- engine mechanics --------------------------------------------------------------


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        add(leaf((2, 2), 40), leaf((2, 2), 41)).backward()


def test_backward_twice_rejected():
    loss = mean_abs(leaf((3,), 42))
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_backward_frees_the_graph_as_it_goes():
    """A node that has passed its gradient on keeps no grad, parents or
    closure, so the backward of a toy batch (4 x 1024 samples, a 3.7 MiB
    tape) peaks at under half its tape, where it peaked above the whole
    tape when every intermediate kept its gradient until the caller
    dropped the graph; by its end the tape is gone, though the caller still
    holds the loss.  Leaves keep their gradients."""
    model = DenoiserModel(ModelConfig.toy(), seed=0)
    rng = np.random.default_rng(160)
    y, mel = rng.standard_normal((4, 1024)), rng.standard_normal((4, 8, 256))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = model.forward(y, mel, np.full(4, 0.5))
        loss = mean_abs(out)
        tape = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        loss.backward()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - (start + tape) <= 0.5 * tape
    assert end - start <= 0.1 * tape
    assert all(p.grad is not None for p in model.parameters().values())
    assert out.grad is None and out._parents == () and out._backward is None
    assert loss.grad is None


def test_grad_accumulates_through_reuse():
    x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    loss = tsum(mul(x, x))  # d/dx sum(x^2) = 2x
    loss.backward()
    assert np.allclose(x.grad, [4.0, -6.0], atol=1e-15)


def test_no_grad_tracking_without_request():
    x = Tensor(np.ones((2, 2)))
    y = add(x, x)
    assert y._parents == ()


def test_no_grad_results_are_untracked_even_from_tracked_operands():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        y = mul(add(x, x), x)
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert np.array_equal(y.data, np.full((2, 2), 2.0))
    assert add(x, x).requires_grad  # tracking is back after the block


def test_no_grad_restores_the_previous_mode():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(FloatingPointError):
        with no_grad():
            raise FloatingPointError("inside the block")
    assert add(x, x).requires_grad
    with no_grad():
        with no_grad():
            pass
        assert not add(x, x).requires_grad  # the inner exit keeps the outer mode
    assert add(x, x).requires_grad


# -- orthogonal init ---------------------------------------------------------------


def test_orthogonal_square():
    w = orthogonal_init((6, 6), np.random.default_rng(50))
    assert np.max(np.abs(w.T @ w - np.eye(6))) < 1e-6


def test_orthogonal_tall_columns():
    w = orthogonal_init((4, 2), np.random.default_rng(51))
    assert np.allclose(w.T @ w, np.eye(2), atol=1e-10)


def test_orthogonal_singular_values_one():
    for shape in ((8, 3, 5), (5, 2, 3), (7, 7)):
        w = orthogonal_init(shape, np.random.default_rng(52))
        flat = w.reshape(shape[0], -1)
        sv = np.linalg.svd(flat, compute_uv=False)
        assert np.allclose(sv, 1.0, atol=1e-10)


def test_orthogonal_deterministic():
    a = orthogonal_init((5, 5), np.random.default_rng(53))
    b = orthogonal_init((5, 5), np.random.default_rng(53))
    assert np.array_equal(a, b)

"""Reverse-mode autodiff: every op checked against central finite differences."""

import numpy as np
import pytest

from gradvoc.tensor import (
    Tensor,
    add,
    add_channel_bias,
    conv1d,
    downsample,
    leaky_relu,
    mean_abs,
    mul,
    nearest_upsample,
    orthogonal_init,
    scale,
    sub,
)
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


def test_sum_of_product_gives_other_factor():
    w = leaf((5,), 4)
    x = np.linspace(-1, 1, 5)
    loss = tsum(mul(w, Tensor(x)))
    loss.backward()
    assert np.allclose(w.grad, x, atol=1e-15)


def test_leaky_relu_values_and_grad():
    x = Tensor(np.array([[2.0, -1.0, 0.0]]), requires_grad=True)
    y = leaky_relu(x, 0.2)
    assert np.allclose(y.data, [[2.0, -0.2, 0.0]], atol=0)
    tsum(y).backward()
    # subgradient at exactly 0 is the slope (the one-sided limit from below)
    assert np.allclose(x.grad, [[1.0, 0.2, 0.2]], atol=0)


def test_leaky_relu_identity_on_nonnegative():
    x = Tensor(np.abs(np.random.default_rng(5).standard_normal((2, 9))))
    assert np.array_equal(leaky_relu(x, 0.2).data, x.data)


def test_leaky_relu_fd_grad():
    x = leaf((2, 11), 6)
    fd_check(lambda x: mean_abs(leaky_relu(x, 0.2)), [x])


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


def test_conv_stride_length():
    x = Tensor(np.zeros((2, 300)))
    w = Tensor(np.zeros((4, 2, 3)))
    assert conv1d(x, w, stride=5).shape == (4, 60)


def test_conv_rejects_bad_kernel():
    with pytest.raises(ValueError):
        conv1d(Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 1, 4))))


def test_conv_fd_grads_dense():
    x, w, b = leaf((2, 9), 10), leaf((3, 2, 3), 11), leaf((3,), 12)
    fd_check(lambda x, w, b: mean_abs(conv1d(x, w, b)), [x, w, b])


def test_conv_fd_grads_strided_dilated():
    x, w = leaf((2, 12), 13), leaf((3, 2, 5), 14)
    fd_check(lambda x, w: mean_abs(conv1d(x, w, stride=2, dilation=2)), [x, w])


def test_conv_stack_fd():
    """Random 3-layer conv stack, 64-bit, against central differences."""
    leaves = [
        leaf((2, 16), 20), leaf((4, 2, 3), 21), leaf((4,), 22),
        leaf((4, 4, 5), 23), leaf((3, 4, 1), 24),
    ]

    def loss(x, w1, b1, w2, w3):
        h = leaky_relu(conv1d(x, w1, b1), 0.2)
        h = leaky_relu(conv1d(h, w2, stride=2, dilation=2), 0.2)
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
        h = leaky_relu(conv1d(h, w2, dilation=2), 0.2)
        h = nearest_upsample(add(h, skip), 2)
        return mean_abs(h)

    fd_check(loss, leaves)


# -- engine mechanics --------------------------------------------------------------


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        add(leaf((2, 2), 40), leaf((2, 2), 41)).backward()


def test_backward_twice_rejected():
    loss = mean_abs(leaf((3,), 42))
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_grad_accumulates_through_reuse():
    x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    loss = tsum(mul(x, x))  # d/dx sum(x^2) = 2x
    loss.backward()
    assert np.allclose(x.grad, [4.0, -6.0], atol=1e-15)


def test_no_grad_tracking_without_request():
    x = Tensor(np.ones((2, 2)))
    y = add(x, x)
    assert y._parents == ()


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

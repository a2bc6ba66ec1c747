"""Closed-form forward diffusion, its score identity, and the L1 objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradvoc.diffusion import forward_diffuse
from oracles import loss_l1, noise_log_density_gradient, optimal_gaussian_epsilon


def test_no_noise_at_unit_level():
    y0 = np.array([0.3, -0.7, 1.1])
    y_noisy = forward_diffuse(y0, 1.0, np.array([5.0, 5.0, 5.0]))
    assert np.array_equal(y_noisy, y0)


def test_pure_noise_limit():
    eps = np.array([0.5, -0.25])
    y_noisy = forward_diffuse(np.array([9.0, 9.0]), 1e-200, eps)
    assert np.allclose(y_noisy, eps, atol=1e-12)


def test_hand_worked_mix():
    y_noisy = forward_diffuse(np.array([1.0, 0.0]), 0.6, np.array([0.0, 1.0]))
    assert np.allclose(y_noisy, [0.6, 0.8], atol=1e-15)


def test_round_trip_reconstruction():
    """y0 = (y_n - sqrt(1-abar)*eps) / sqrt(abar) must invert the forward map."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 50))
        y0 = rng.standard_normal(dim)
        eps = rng.standard_normal(dim)
        sab = float(rng.uniform(0.05, 0.999999))
        y_noisy = forward_diffuse(y0, sab, eps)
        recon = (y_noisy - math.sqrt(1 - sab**2) * eps) / sab
        worst = max(worst, float(np.max(np.abs(recon - y0))))
    assert worst <= 1e-12


def test_gradient_zero_noise():
    assert np.array_equal(
        noise_log_density_gradient(np.zeros(4), 0.5), np.zeros(4)
    )


def test_gradient_hand_value():
    grad = noise_log_density_gradient(np.array([1.0]), 0.75)
    assert grad == pytest.approx([-2.0], rel=1e-14)


def test_gradient_unit_denominator():
    eps = np.array([0.4, -0.2])
    assert np.allclose(noise_log_density_gradient(eps, 0.0), -eps, atol=0)


def test_gradient_matches_finite_difference():
    """Check the score identity against a finite-difference log density.

    Conditioned on y0, y_n ~ N(sqrt(abar) y0, (1-abar) I), so the log-density
    gradient in y_n is -(y_n - sqrt(abar) y0)/(1-abar) = -eps/sqrt(1-abar).
    """
    rng = np.random.default_rng(1)
    for _ in range(100):
        dim = int(rng.integers(1, 8))
        y0 = rng.standard_normal(dim)
        eps = rng.standard_normal(dim)
        sab = float(rng.uniform(0.1, 0.99))
        var = 1 - sab**2
        y_noisy = forward_diffuse(y0, sab, eps)

        def logp(y):
            return float(-0.5 * np.sum((y - sab * y0) ** 2) / var)

        step = 1e-6
        fd = np.empty(dim)
        for i in range(dim):
            up = y_noisy.copy(); up[i] += step
            dn = y_noisy.copy(); dn[i] -= step
            fd[i] = (logp(up) - logp(dn)) / (2 * step)
        got = noise_log_density_gradient(eps, sab**2)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(got - fd) / denom) <= 1e-5


def test_forward_rejects_bad_level():
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros(2), bad, np.zeros(2))


# -- L1 loss ----------------------------------------------------------------------


def test_loss_identical_is_zero():
    x = np.array([1.0, -2.0, 3.0])
    assert loss_l1(x, x) == 0.0


def test_loss_hand_value():
    assert loss_l1(np.array([1.0, -1.0]), np.array([0.0, 0.0])) == 1.0


@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_loss_constant_offset(c):
    x = np.linspace(-1, 1, 17)
    assert loss_l1(x + c, x) == pytest.approx(abs(c), abs=1e-12)


def test_loss_shape_mismatch():
    with pytest.raises(ValueError):
        loss_l1(np.zeros(3), np.zeros(4))


# -- Bayes-optimal epsilon predictor ----------------------------------------------


def test_oracle_zero_at_prior_mean():
    sab = 0.7
    y_n = sab * 2.5 * np.ones(5)
    assert np.allclose(
        optimal_gaussian_epsilon(y_n, sab, mu=2.5, s2=1.3), np.zeros(5), atol=1e-14
    )


def test_oracle_deterministic_limit():
    rng = np.random.default_rng(2)
    y_n = rng.standard_normal(6)
    sab = 0.4
    got = optimal_gaussian_epsilon(y_n, sab, mu=1.0, s2=0.0)
    expected = (y_n - sab * 1.0) / math.sqrt(1 - sab**2)
    assert np.allclose(got, expected, atol=1e-13)


def test_oracle_standard_normal_case():
    rng = np.random.default_rng(3)
    y_n = rng.standard_normal(6)
    sab = 0.55
    got = optimal_gaussian_epsilon(y_n, sab, mu=0.0, s2=1.0)
    assert np.allclose(got, y_n * math.sqrt(1 - sab**2), atol=1e-13)


def test_oracle_matches_monte_carlo_regression():
    """E[eps | y_n] from the closed form vs. a sampled conditional average."""
    rng = np.random.default_rng(4)
    mu, s2, sab = 0.5, 2.0, 0.8
    n = 400_000
    y0 = mu + math.sqrt(s2) * rng.standard_normal(n)
    eps = rng.standard_normal(n)
    y_n = sab * y0 + math.sqrt(1 - sab**2) * eps
    # regress eps on y_n inside a narrow slice around a probe point
    probe = 0.9
    mask = np.abs(y_n - probe) < 0.01
    mc = float(eps[mask].mean())
    analytic = float(optimal_gaussian_epsilon(np.array([probe]), sab, mu, s2)[0])
    se = float(eps[mask].std() / math.sqrt(mask.sum()))
    assert abs(mc - analytic) < 4 * se + 1e-3

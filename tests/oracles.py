"""Reference functions that only the tests use.

Closed-form quantities of the diffusion process, a plain sum reduction for
autodiff checks and a fixed-noise batch loss; the library itself never
needs them.
"""

import math

import numpy as np

from gradvoc.tensor import Tensor, _accumulate, _result
from gradvoc.train import _batch_loss


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
        _accumulate(x, np.full_like(x.data, float(g)))

    return _result(np.sum(x.data), (x,), backward)


def evaluate_loss(model, batch, config, seed: int = 12345) -> float:
    """Loss on a fixed batch with fixed noise draws; no parameter update."""
    rng = np.random.default_rng(seed)
    return float(_batch_loss(model, batch, config, rng).data)

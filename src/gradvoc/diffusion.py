"""Closed-form forward diffusion.

A pure function of its inputs; callers supply the drawn standard-normal
noise explicitly so results are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["forward_diffuse"]


def forward_diffuse(
    y0: np.ndarray, sqrt_alpha_bar: float, epsilon: np.ndarray
) -> np.ndarray:
    """Diffuse y0 to the given continuous noise level in closed form.

    Returns y_noisy = sqrt_alpha_bar * y0 + sqrt(1 - alpha_bar) * epsilon, with
    the noise epsilon supplied by the caller.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    if y0.shape != epsilon.shape:
        raise ValueError(f"length mismatch: {y0.shape} vs {epsilon.shape}")
    if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(epsilon))):
        raise ValueError("inputs must be finite")
    if not (0.0 < sqrt_alpha_bar <= 1.0):
        raise ValueError(f"sqrt_alpha_bar must be in (0, 1], got {sqrt_alpha_bar}")
    noise_scale = math.sqrt(max(1.0 - sqrt_alpha_bar * sqrt_alpha_bar, 0.0))
    return sqrt_alpha_bar * y0 + noise_scale * epsilon

"""Closed-form forward diffusion.

A pure function of its inputs; callers supply the drawn standard-normal
noise explicitly so results are reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["forward_diffuse"]


def forward_diffuse(y0: np.ndarray, sqrt_alpha_bar, epsilon: np.ndarray) -> np.ndarray:
    """Diffuse y0 to the given continuous noise level in closed form.

    Returns y_noisy = sqrt_alpha_bar * y0 + sqrt(1 - alpha_bar) * epsilon, with
    the noise epsilon supplied by the caller.  The level is a float, or an
    array that broadcasts against y0 (a (B, 1) column gives each row its own).
    """
    y0 = np.asarray(y0, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    if y0.shape != epsilon.shape:
        raise ValueError(f"length mismatch: {y0.shape} vs {epsilon.shape}")
    if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(epsilon))):
        raise ValueError("inputs must be finite")
    level = np.asarray(sqrt_alpha_bar, dtype=np.float64)
    if not np.all((0.0 < level) & (level <= 1.0)):
        raise ValueError(f"sqrt_alpha_bar must be in (0, 1], got {sqrt_alpha_bar}")
    noise_scale = np.sqrt(np.maximum(1.0 - level * level, 0.0))
    return level * y0 + noise_scale * epsilon

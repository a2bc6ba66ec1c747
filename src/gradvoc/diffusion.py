"""Closed-form forward diffusion.

A pure function of its inputs; callers supply the drawn standard-normal
noise explicitly so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DiffusionPoint", "forward_diffuse"]


@dataclass(frozen=True)
class DiffusionPoint:
    """A signal diffused to continuous noise level sqrt_alpha_bar.

    Satisfies y_noisy = sqrt_alpha_bar * y0 + sqrt(1 - sqrt_alpha_bar^2) * epsilon
    for the clean signal it was built from.
    """

    y_noisy: np.ndarray
    epsilon: np.ndarray
    sqrt_alpha_bar: float


def _check_finite_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs must be finite")


def forward_diffuse(
    y0: np.ndarray, sqrt_alpha_bar: float, epsilon: np.ndarray
) -> DiffusionPoint:
    """Diffuse y0 to the given continuous noise level in closed form.

    y_noisy = sqrt_alpha_bar * y0 + sqrt(1 - alpha_bar) * epsilon, with the
    noise epsilon supplied by the caller.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    _check_finite_pair(y0, epsilon)
    if not (0.0 < sqrt_alpha_bar <= 1.0):
        raise ValueError(f"sqrt_alpha_bar must be in (0, 1], got {sqrt_alpha_bar}")
    noise_scale = math.sqrt(max(1.0 - sqrt_alpha_bar * sqrt_alpha_bar, 0.0))
    y_noisy = sqrt_alpha_bar * y0 + noise_scale * epsilon
    return DiffusionPoint(
        y_noisy=y_noisy, epsilon=epsilon, sqrt_alpha_bar=float(sqrt_alpha_bar)
    )

"""Iterative refinement sampling: Gaussian noise to waveform.

``reverse_chain`` yields y_N (white noise) .. y_0; ``synthesize`` returns y_0.
The chain walks any inference schedule independently of the training prior
(continuous-level models only; models trained against a fixed discrete
schedule are hard-bound to it and reject others).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule

__all__ = ["SynthRequest", "sigma", "reverse_step", "reverse_chain", "synthesize", "SamplerError"]


class SamplerError(RuntimeError):
    """Numerical failure or contract violation during sampling."""


@dataclass
class SynthRequest:
    """One synthesis job: conditioning features, schedule, model, seed."""

    mel: np.ndarray
    inference_schedule: NoiseSchedule
    model: object  # has predict(y_noisy, mel, sqrt_alpha_bar) and output_length(mel)
    seed: int = 0


def sigma(schedule: NoiseSchedule, n: int) -> float:
    """Noise magnitude added after reverse step n (1-indexed, n >= 2).

    Uses the reverse-posterior variance sqrt(((1 - abar_{n-1}) / (1 - abar_n))
    * beta_n).  The final step (n = 1) adds no noise by contract and may not
    be queried.  This formula is a deliberate gap-fill isolated here so
    alternatives (e.g. sqrt(beta_n)) can be swapped in one place.
    """
    if n < 2:
        raise ValueError("sigma is undefined for n < 2: the last step adds no noise")
    if n > len(schedule):
        raise ValueError(f"step {n} beyond schedule length {len(schedule)}")
    abar_n = float(schedule.alpha_bars[n - 1])
    abar_prev = float(schedule.alpha_bars[n - 2])
    beta_n = float(schedule.betas[n - 1])
    return math.sqrt((1.0 - abar_prev) / (1.0 - abar_n) * beta_n)


def reverse_step(
    y_n: np.ndarray,
    eps_pred: np.ndarray,
    schedule: NoiseSchedule,
    n: int,
    z: np.ndarray | None = None,
) -> np.ndarray:
    """One refinement step: y_{n-1} from y_n and the predicted noise.

    y_{n-1} = (y_n - ((1 - alpha_n) / sqrt(1 - abar_n)) * eps_pred) / sqrt(alpha_n),
    plus sigma_n * z for n > 1 (z ignored at n = 1).  Both denominators are
    positive for every schedule: ``NoiseSchedule`` keeps each abar_n below 1.
    """
    if not (1 <= n <= len(schedule)):
        raise ValueError(f"step index {n} outside [1, {len(schedule)}]")
    alpha_n = float(schedule.alphas[n - 1])
    abar_n = float(schedule.alpha_bars[n - 1])
    y_n = np.asarray(y_n, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    if y_n.shape != eps_pred.shape:
        raise ValueError("shape mismatch between signal and noise prediction")
    y_prev = (y_n - (1.0 - alpha_n) / math.sqrt(1.0 - abar_n) * eps_pred) / math.sqrt(
        alpha_n
    )
    if n > 1:
        if z is None:
            raise ValueError("z required for steps with n > 1")
        y_prev = y_prev + sigma(schedule, n) * np.asarray(z, dtype=np.float64)
    return y_prev


def reverse_chain(request: SynthRequest):
    """Yield y_N (standard normal noise), then one iterate per reverse step to y_0.

    Deterministic given the seed; the yielded arrays are the chain's state and
    must not be written to.  A chain that diverges, whether the network's
    output or the iterate is not finite, raises SamplerError naming the step,
    after the iterates before it, without numpy overflow warnings.
    """
    schedule = request.inference_schedule
    mel = np.asarray(request.mel, dtype=np.float64)
    model = request.model
    rng = np.random.default_rng(request.seed)

    length = model.output_length(mel)
    y = rng.standard_normal(length)
    yield y
    for n in range(len(schedule), 0, -1):
        sqrt_abar = float(schedule.ell[n])
        where = f"at reverse step n={n} (sqrt_alpha_bar={sqrt_abar:.6g})"
        # never yield inside errstate: the caller would run under it while suspended
        with np.errstate(over="ignore", invalid="ignore"):
            eps = np.asarray(model.predict(y, mel, sqrt_abar), dtype=np.float64)
            if not np.all(np.isfinite(eps)):
                raise SamplerError(f"non-finite network output {where}")
            z = rng.standard_normal(length) if n > 1 else None
            y = reverse_step(y, eps, schedule, n, z)
        if not np.all(np.isfinite(y)):
            raise SamplerError(f"non-finite signal {where}")
        yield y


def synthesize(request: SynthRequest) -> np.ndarray:
    """Run ``reverse_chain`` to its end and return the waveform y_0."""
    for y in reverse_chain(request):
        pass
    return y

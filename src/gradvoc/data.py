"""Bundled synthetic corpus: sine mixtures with random pitch and envelopes.

Keeps acceptance runs self-contained; no external speech data is required.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .dsp import Waveform, WavFormatError, wav_read, wav_write

__all__ = ["sine_utterance", "generate_corpus", "load_corpus"]

log = logging.getLogger(__name__)


def sine_utterance(
    rng: np.random.Generator,
    n_samples: int,
    sample_rate: int,
    f0_range: tuple[float, float] = (100.0, 400.0),
    n_harmonics: int = 3,
) -> Waveform:
    """One utterance: a harmonic stack at a random f0 with slow random
    amplitude envelopes per harmonic."""
    f0 = rng.uniform(*f0_range)
    t = np.arange(n_samples) / sample_rate
    signal = np.zeros(n_samples)
    for h in range(1, n_harmonics + 1):
        # envelope: smooth positive modulation at a few hertz
        env_rate = rng.uniform(0.5, 3.0)
        env_phase = rng.uniform(0.0, 2.0 * np.pi)
        env = 0.55 + 0.45 * np.sin(2.0 * np.pi * env_rate * t + env_phase)
        amp = rng.uniform(0.2, 1.0) / h
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal += amp * env * np.sin(2.0 * np.pi * f0 * h * t + phase)
    peak = np.max(np.abs(signal))
    if peak > 0:
        signal *= 0.8 / peak
    return Waveform(samples=signal, sample_rate=sample_rate)


def generate_corpus(
    directory,
    n_utterances: int,
    n_samples: int,
    sample_rate: int,
    seed: int = 0,
) -> list[Path]:
    """Write WAV utterances into ``directory`` and return their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(n_utterances):
        wav = sine_utterance(rng, n_samples, sample_rate)
        path = directory / f"utt{i:04d}.wav"
        wav_write(path, wav)
        paths.append(path)
    return paths


def load_corpus(directory, sample_rate: int | None = None) -> list[Waveform]:
    """Load every .wav in ``directory`` (sorted by name)."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.wav"))
    if not paths:
        raise FileNotFoundError(f"no WAV files in {directory}")
    out = []
    for path in paths:
        wav = wav_read(path)
        if sample_rate is not None and wav.sample_rate != sample_rate:
            raise WavFormatError(
                f"{path}: sample rate {wav.sample_rate} != expected {sample_rate}"
            )
        out.append(wav)
    return out

"""Audio I/O, mel-spectrogram extraction, and objective evaluation metrics.

Framing convention: frames start at sample 0 and advance by the hop; the
signal is right-padded with ``win - hop`` zeros so a hop-divisible length of
L samples yields exactly L / hop frames.  This keeps waveform/mel offsets in
exact integer correspondence (hop samples of audio per mel frame), which the
trainer relies on for crop alignment.

Two distinct framings exist and never leak into each other: the conditioning
framing (default 12.5 ms hop) and the metric framing (6.25 ms hop) used by
the log-mel MSE, cepstral-distance and pitch-error metrics.
"""

from __future__ import annotations

import math
import wave
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.fft import dct

from .checkpoint import CheckpointError, load_tensors, save_tensors

__all__ = [
    "Waveform",
    "MelConfig",
    "MelSpectrogram",
    "PitchConfig",
    "WavFormatError",
    "mel_spectrogram",
    "mel_filterbank",
    "mfcc",
    "ls_mse",
    "mcd",
    "ffe",
    "track_pitch",
    "wav_read",
    "wav_write",
    "save_mel",
    "load_mel",
]

MCD_SCALE = 10.0 * math.sqrt(2.0) / math.log(10.0)


class WavFormatError(ValueError):
    """Malformed or unsupported WAV file."""


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal with a declared sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("waveform must be 1-D")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


@dataclass(frozen=True)
class MelConfig:
    """STFT + mel filterbank configuration.

    Defaults follow the 24 kHz conditioning setup: 50 ms Hanning window,
    12.5 ms frame shift, 2048-point FFT, 128 mel bins spanning 20 Hz-12 kHz,
    natural log with a 1e-5 floor on the filterbank magnitudes.
    """

    sample_rate: int = 24000
    win_length: int = 1200
    hop_length: int = 300
    n_fft: int = 2048
    n_mels: int = 128
    fmin: float = 20.0
    fmax: float = 12000.0
    log_floor: float = 1e-5

    def __post_init__(self):
        if self.win_length > self.n_fft:
            raise ValueError("window must not exceed the FFT size")
        if self.fmax > self.sample_rate / 2:
            raise ValueError("fmax above Nyquist")
        if self.hop_length < 1 or self.win_length < 1:
            raise ValueError("window and hop must be positive")

    @classmethod
    def toy(cls) -> "MelConfig":
        """4 kHz, 8-bin analysis matching ``ModelConfig.toy`` (4 samples per frame)."""
        return cls(
            sample_rate=4000,
            win_length=32,
            hop_length=4,
            n_fft=32,
            n_mels=8,
            fmin=50.0,
            fmax=2000.0,
        )

    def metric_variant(self) -> "MelConfig":
        """Same analysis with the hop halved (the metric framing)."""
        return replace(self, hop_length=self.hop_length // 2)


@dataclass(frozen=True)
class MelSpectrogram:
    """Log-magnitude mel features, (mel bins x frames)."""

    values: np.ndarray
    config: MelConfig


@dataclass(frozen=True)
class PitchConfig:
    """Normalized-autocorrelation pitch tracker constants."""

    frame_ms: float = 25.0
    hop_ms: float = 6.25
    fmin: float = 50.0
    fmax: float = 600.0
    voicing_threshold: float = 0.3
    gpe_threshold: float = 0.2
    energy_floor: float = 1e-4


def _hann(n: int) -> np.ndarray:
    # periodic Hann, the standard STFT analysis window
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _frame(samples: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Right-pad by win - hop zeros and slice into (n_frames, win)."""
    if samples.size < win:
        raise ValueError(
            f"signal of {samples.size} samples is shorter than one {win}-sample window"
        )
    padded = np.concatenate([samples, np.zeros(max(win - hop, 0))])
    n_frames = 1 + (padded.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    return padded[idx]


def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular mel filters, (n_mels x n_fft//2 + 1)."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    n_bins = cfg.n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    fb = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        left, center, right = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - left) / (center - left)
        down = (right - fft_freqs) / (right - center)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def mel_spectrogram(y: Waveform, cfg: MelConfig) -> MelSpectrogram:
    """STFT magnitude -> triangular mel filterbank -> floored natural log."""
    if y.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"waveform rate {y.sample_rate} != config rate {cfg.sample_rate}"
        )
    frames = _frame(y.samples, cfg.win_length, cfg.hop_length)
    windowed = frames * _hann(cfg.win_length)[None, :]
    spectrum = np.abs(np.fft.rfft(windowed, n=cfg.n_fft, axis=1))  # magnitude
    mel = spectrum @ mel_filterbank(cfg).T
    values = np.log(np.maximum(mel, cfg.log_floor)).T
    return MelSpectrogram(values=values, config=cfg)


def mfcc(mel: MelSpectrogram, n_coeffs: int = 13) -> np.ndarray:
    """Cepstral coefficients c0..c(n_coeffs-1), (n_coeffs x frames): the
    orthonormal DCT-II over the log-mel bins."""
    return dct(mel.values, type=2, norm="ortho", axis=0)[:n_coeffs]


def _metric_pair(y_ref: Waveform, y_hyp: Waveform, cfg: MelConfig):
    if y_ref.sample_rate != y_hyp.sample_rate:
        raise ValueError("sample rates differ")
    mismatch = abs(len(y_ref) - len(y_hyp))
    if mismatch > cfg.hop_length:
        raise ValueError(
            f"length mismatch of {mismatch} samples exceeds one hop ({cfg.hop_length})"
        )
    n = min(len(y_ref), len(y_hyp))
    ref = Waveform(y_ref.samples[:n], y_ref.sample_rate)
    hyp = Waveform(y_hyp.samples[:n], y_hyp.sample_rate)
    return ref, hyp


def ls_mse(y_ref: Waveform, y_hyp: Waveform, cfg: MelConfig | None = None) -> float:
    """Mean squared error between log-mel matrices under the metric framing."""
    cfg = (cfg or MelConfig()).metric_variant()
    ref, hyp = _metric_pair(y_ref, y_hyp, cfg)
    a = mel_spectrogram(ref, cfg).values
    b = mel_spectrogram(hyp, cfg).values
    return float(np.mean((a - b) ** 2))


def mcd(y_ref: Waveform, y_hyp: Waveform, cfg: MelConfig | None = None) -> float:
    """Mel cepstral distance over 13 MFCCs, frame-averaged."""
    cfg = (cfg or MelConfig()).metric_variant()
    ref, hyp = _metric_pair(y_ref, y_hyp, cfg)
    ca = mfcc(mel_spectrogram(ref, cfg))
    cb = mfcc(mel_spectrogram(hyp, cfg))
    dist = np.sqrt(np.sum((ca - cb) ** 2, axis=0))
    return float(MCD_SCALE * np.mean(dist))


def track_pitch(
    y: Waveform, cfg: PitchConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (f0, voiced) via normalized autocorrelation peak picking.

    f0 is 0.0 on unvoiced frames.  Frames below the energy floor are
    unvoiced outright.
    """
    cfg = cfg or PitchConfig()
    sr = y.sample_rate
    win = int(round(cfg.frame_ms * sr / 1000.0))
    hop = int(round(cfg.hop_ms * sr / 1000.0))
    lag_min = max(int(sr / cfg.fmax), 1)
    lag_max = min(int(sr / cfg.fmin), win - 1)
    frames = _frame(y.samples, win, hop)
    n_frames = frames.shape[0]
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    for i, frame in enumerate(frames):
        if np.sqrt(np.mean(frame**2)) < cfg.energy_floor:
            continue
        frame = frame - frame.mean()
        e0 = float(frame @ frame)
        if e0 <= 0.0:
            continue
        lags = np.arange(lag_min, lag_max + 1)
        corr = np.full(lags.size, -1.0)
        for k, lag in enumerate(lags):
            a = frame[:-lag]
            b = frame[lag:]
            denom = math.sqrt(float(a @ a) * float(b @ b))
            if denom > 0.0:
                corr[k] = float(a @ b) / denom
        best_r = float(corr.max())
        if best_r > cfg.voicing_threshold:
            # lag multiples of the true period score almost identically, so
            # take the shortest lag within a whisker of the maximum to avoid
            # octave-down errors
            near = np.flatnonzero(corr >= best_r - 0.02 * abs(best_r))
            voiced[i] = True
            f0[i] = sr / float(lags[near[0]])
    return f0, voiced


def ffe(
    y_ref: Waveform,
    y_hyp: Waveform,
    cfg: PitchConfig | None = None,
) -> float:
    """F0 frame error: voicing mismatches plus >20% pitch deviations.

    Asymmetric: the reference supplies the ground-truth voicing decisions.
    """
    cfg = cfg or PitchConfig()
    if y_ref.sample_rate != y_hyp.sample_rate:
        raise ValueError("sample rates differ")
    hop = int(round(cfg.hop_ms * y_ref.sample_rate / 1000.0))
    mismatch = abs(len(y_ref) - len(y_hyp))
    if mismatch > hop:
        raise ValueError(
            f"length mismatch of {mismatch} samples exceeds one hop ({hop})"
        )
    n = min(len(y_ref), len(y_hyp))
    f0_ref, v_ref = track_pitch(Waveform(y_ref.samples[:n], y_ref.sample_rate), cfg)
    f0_hyp, v_hyp = track_pitch(Waveform(y_hyp.samples[:n], y_hyp.sample_rate), cfg)
    m = min(f0_ref.size, f0_hyp.size)
    f0_ref, v_ref, f0_hyp, v_hyp = f0_ref[:m], v_ref[:m], f0_hyp[:m], v_hyp[:m]
    voicing_err = v_ref != v_hyp
    both = v_ref & v_hyp
    gross = np.zeros(m, dtype=bool)
    gross[both] = (
        np.abs(f0_hyp[both] - f0_ref[both]) > cfg.gpe_threshold * f0_ref[both]
    )
    return float(np.mean(voicing_err | gross))


# -- file I/O ------------------------------------------------------------------


def wav_read(path) -> Waveform:
    """Read a 16-bit PCM mono RIFF/WAVE file."""
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            declared = wf.getnframes()
            raw = wf.readframes(declared)
    except (wave.Error, EOFError) as exc:
        raise WavFormatError(f"{path}: not a readable WAV file: {exc}") from exc
    if len(raw) != declared * channels * width:
        raise WavFormatError(
            f"{path}: truncated data chunk ({len(raw)} bytes for "
            f"{declared} declared frames)"
        )
    if channels != 1:
        raise WavFormatError(f"{path}: {channels}-channel audio unsupported (mono only)")
    if width != 2:
        raise WavFormatError(
            f"{path}: {8 * width}-bit encoding unsupported (16-bit PCM only)"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return Waveform(samples=samples, sample_rate=rate)


def wav_write(path, y: Waveform) -> None:
    """Write 16-bit PCM mono; samples are clipped to [-1, 1] first."""
    quantized = np.round(np.clip(y.samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(y.sample_rate)
        wf.writeframes(quantized.tobytes())


def save_mel(path, mel: MelSpectrogram) -> None:
    """Write a tensor archive holding one float64 ``mel`` entry and its config."""
    save_tensors(
        path,
        {"mel": np.asarray(mel.values, dtype=np.float64)},
        meta={"mel_config": asdict(mel.config)},
    )


def load_mel(path) -> MelSpectrogram:
    """Read a file written by ``save_mel``; raises CheckpointError otherwise."""
    tensors, meta = load_tensors(path)
    values = tensors.get("mel")
    if values is None or values.ndim != 2 or "mel_config" not in meta:
        raise CheckpointError(f"{path}: not a mel file (needs a 2-D mel and a mel_config)")
    try:
        config = MelConfig(**meta["mel_config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad mel_config: {exc}") from exc
    return MelSpectrogram(values=values.astype(np.float64, copy=False), config=config)

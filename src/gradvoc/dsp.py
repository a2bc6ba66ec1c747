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
from functools import cache, cached_property, lru_cache

import numpy as np

from .checkpoint import CheckpointError, load_tensors, save_tensors

__all__ = [
    "Waveform",
    "MelConfig",
    "MelSpectrogram",
    "WavFormatError",
    "mel_spectrogram",
    "log_mel",
    "mel_filterbank",
    "metric_mels",
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
MFCC_COEFFS = 13  # c0..c12, the cepstra MCD compares
WAV_MAX_SAMPLES = (2**32 - 1 - 36) // 2  # 16-bit mono: RIFF's 32-bit size counts 36 + 2 each
# largest FFT an analysis may ask for, 32 times the 24 kHz profile's 2048: a
# 128-bin filterbank of it holds 32 MiB, and it is refused before anything is built
MAX_N_FFT = 65536

# pitch tracker (track_pitch) and FFE constants
PITCH_FRAME_MS = 25.0
PITCH_HOP_MS = 6.25
PITCH_FMIN = 50.0
PITCH_FMAX = 600.0
VOICING_THRESHOLD = 0.3  # least peak normalized autocorrelation of a voiced frame
ENERGY_FLOOR = 1e-4  # a frame whose mean-removed RMS is lower is unvoiced outright
GPE_THRESHOLD = 0.2  # relative f0 deviation that counts as a gross pitch error
_PITCH_BLOCK = 32  # frames that track_pitch scores at once


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
        for key in ("sample_rate", "win_length", "hop_length", "n_fft", "n_mels"):
            value = getattr(self, key)
            if type(value) is not int:  # bool is not int here
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.n_fft > MAX_N_FFT:
            raise ValueError(f"n_fft must be at most {MAX_N_FFT}, got {self.n_fft}")
        if self.win_length > self.n_fft:
            raise ValueError("window must not exceed the FFT size")
        if self.fmax > self.sample_rate / 2:
            raise ValueError("fmax above Nyquist")
        if self.hop_length < 1 or self.win_length < 1:
            raise ValueError("window and hop must be positive")
        if self.n_mels < 1:
            raise ValueError(f"n_mels must be >= 1, got {self.n_mels}")
        if not 0.0 <= self.fmin < self.fmax:
            raise ValueError(f"fmin {self.fmin} must be in [0, fmax {self.fmax})")
        if not 0.0 < self.log_floor < math.inf:
            raise ValueError(f"log_floor must be positive and finite, got {self.log_floor}")

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

    @cached_property
    def metric(self) -> "MelConfig":
        """Same analysis with the hop halved (the metric framing); one object
        per config, so its filterbank is built once."""
        return replace(self, hop_length=self.hop_length // 2)

    def check_rate(self, sample_rate: int) -> None:
        """Raise ValueError unless audio at ``sample_rate`` suits this analysis."""
        if sample_rate != self.sample_rate:
            raise ValueError(f"waveform rate {sample_rate} != config rate {self.sample_rate}")

    @cached_property
    def window(self) -> np.ndarray:
        """The periodic Hann analysis window of ``win_length`` samples, built
        on first use and read-only, like ``filterbank``."""
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(self.win_length) / self.win_length)
        window.flags.writeable = False
        return window

    @cached_property
    def filterbank(self) -> np.ndarray:
        """``mel_filterbank(self)``, read-only, and one array for all equal
        configs: a config made anew from the same values (a profile, a
        checkpoint's metadata) finds the one built first.  It lives in the
        instance ``__dict__``, outside the dataclass fields, so it never
        enters ``==``, ``hash``, ``asdict`` or ``replace``."""
        return _shared_filterbank(self)


@dataclass(frozen=True)
class MelSpectrogram:
    """Log-magnitude mel features, (mel bins x frames)."""

    values: np.ndarray
    config: MelConfig


def _frame(samples: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Right-pad the last axis of (..., T) samples by win - hop zeros and
    view it as (..., n_frames, win) overlapping frames: one read-only view of
    the padded float64 copy, never a copy per frame."""
    t = samples.shape[-1]
    if t < win:
        raise ValueError(f"signal of {t} samples is shorter than one {win}-sample window")
    padded = np.zeros((*samples.shape[:-1], t + max(win - hop, 0)))
    padded[..., :t] = samples
    return np.lib.stride_tricks.sliding_window_view(padded, win, axis=-1)[..., ::hop, :]


@lru_cache(maxsize=16)  # keyed by the config's value: a few MiB at most
def _shared_filterbank(cfg: MelConfig) -> np.ndarray:
    fb = mel_filterbank(cfg)
    fb.flags.writeable = False
    return fb


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


def log_mel(samples: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """STFT magnitude -> triangular mel filterbank -> floored natural log of
    every signal along the last axis of (..., T) samples at ``cfg``'s rate:
    (..., n_mels, frames).  A stack of signals gives each one's values as
    its own analysis would, byte for byte."""
    frames = _frame(samples, cfg.win_length, cfg.hop_length)
    windowed = frames * cfg.window
    spectrum = np.abs(np.fft.rfft(windowed, n=cfg.n_fft, axis=-1))  # magnitude
    mel = spectrum @ cfg.filterbank.T
    return np.log(np.maximum(mel, cfg.log_floor)).swapaxes(-1, -2)


def mel_spectrogram(y: Waveform, cfg: MelConfig) -> MelSpectrogram:
    """``log_mel`` of one waveform at the config's rate."""
    cfg.check_rate(y.sample_rate)
    return MelSpectrogram(values=log_mel(y.samples, cfg), config=cfg)


@cache
def _dct_matrix(n: int, n_coeffs: int) -> np.ndarray:
    """The first ``min(n_coeffs, n)`` rows of the orthonormal DCT-II matrix
    of size n, read-only: row k is s_k cos(pi k (2j + 1) / 2n) over j, with
    s_0 = sqrt(1/n) and s_k = sqrt(2/n) for k > 0."""
    k = np.arange(min(n_coeffs, n))[:, None]
    matrix = np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n)) * math.sqrt(2.0 / n)
    matrix[0] = math.sqrt(1.0 / n)
    matrix.flags.writeable = False
    return matrix


def mfcc(mel: MelSpectrogram) -> np.ndarray:
    """Cepstral coefficients c0..c12, (``MFCC_COEFFS`` x frames): the
    orthonormal DCT-II over the log-mel bins (all of them when there are
    fewer)."""
    return _dct_matrix(mel.values.shape[0], MFCC_COEFFS) @ mel.values


def _metric_pair(y_ref: Waveform, y_hyp: Waveform, hop: int):
    """Both signals trimmed to the shorter one's length before a metric
    compares them.  Raises ValueError when the two differ by more than one
    ``hop`` of the metric's framing."""
    if y_ref.sample_rate != y_hyp.sample_rate:
        raise ValueError("sample rates differ")
    mismatch = abs(len(y_ref) - len(y_hyp))
    if mismatch > hop:
        raise ValueError(f"length mismatch of {mismatch} samples exceeds one hop ({hop})")
    n = min(len(y_ref), len(y_hyp))
    ref = Waveform(y_ref.samples[:n], y_ref.sample_rate)
    hyp = Waveform(y_hyp.samples[:n], y_hyp.sample_rate)
    return ref, hyp


def metric_mels(
    y_ref: Waveform, y_hyp: Waveform, cfg: MelConfig
) -> tuple[MelSpectrogram, MelSpectrogram]:
    """The pair's mels under the metric framing of ``cfg``, the signals first
    trimmed to the shorter one's length; ``ls_mse`` and ``mcd`` take them."""
    metric = cfg.metric
    ref, hyp = _metric_pair(y_ref, y_hyp, metric.hop_length)
    return mel_spectrogram(ref, metric), mel_spectrogram(hyp, metric)


def ls_mse(ref: MelSpectrogram, hyp: MelSpectrogram) -> float:
    """Mean squared error between two log-mel matrices (see ``metric_mels``)."""
    return float(np.mean((ref.values - hyp.values) ** 2))


def mcd(ref: MelSpectrogram, hyp: MelSpectrogram) -> float:
    """Mel cepstral distance over 13 MFCCs, frame-averaged (see ``metric_mels``)."""
    dist = np.sqrt(np.sum((mfcc(ref) - mfcc(hyp)) ** 2, axis=0))
    return float(MCD_SCALE * np.mean(dist))


def _fast_len(n: int) -> int:
    """The least 5-smooth length (2^a 3^b 5^c) of at least n samples: the
    FFT lengths that run fast."""
    best = 1 << (n - 1).bit_length()  # the least power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-n // p35) - 1).bit_length()  # least power of two with p2 p35 >= n
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _pitch_hop(sample_rate: int) -> int:
    return int(round(PITCH_HOP_MS * sample_rate / 1000.0))


def track_pitch(y: Waveform) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (f0, voiced) via normalized autocorrelation peak picking.

    Frames of ``PITCH_FRAME_MS`` every ``PITCH_HOP_MS``; lags cover
    ``PITCH_FMIN``..``PITCH_FMAX``.  Each frame has its mean removed; a frame
    whose mean-removed RMS is below ``ENERGY_FLOOR`` is unvoiced outright.
    A lag scores a.b / sqrt(a.a * b.b), where a and b are the frame without
    its last and first ``lag`` samples; when a or b has an RMS below
    ``ENERGY_FLOOR`` (say, b lies in the zero padding), a.b is roundoff and
    the lag scores -1.  A frame is voiced when its best
    score exceeds ``VOICING_THRESHOLD``, and its f0 is the sample rate over
    the shortest lag scoring within 2 % of that best (lag multiples of the
    true period score almost identically, so this avoids octave-down
    errors).  f0 is 0.0 on unvoiced frames.

    Frames are scored ``_PITCH_BLOCK`` at a time: the a.b products of every
    lag come from one FFT autocorrelation per frame, and a.a and b.b from
    forward and reverse cumulative sums of the squared frame.  The frames
    are a view of the padded signal, so beyond that one copy the memory
    is one block's, whatever the signal's length.
    """
    sr = y.sample_rate
    win = int(round(PITCH_FRAME_MS * sr / 1000.0))
    lag_min = max(int(sr / PITCH_FMAX), 1)
    lag_max = min(int(sr / PITCH_FMIN), win - 1)
    lags = np.arange(lag_min, lag_max + 1)
    ends = win - 1 - lags  # a.a and b.b each sum win - lag squared samples
    floor = (win - lags) * ENERGY_FLOOR**2
    n_fft = _fast_len(win + lag_max)  # no circular wrap up to lag_max
    frames = _frame(y.samples, win, _pitch_hop(sr))
    f0 = np.zeros(frames.shape[0])
    voiced = np.zeros(frames.shape[0], dtype=bool)
    for start in range(0, frames.shape[0], _PITCH_BLOCK):
        block = slice(start, start + _PITCH_BLOCK)
        x = frames[block] - frames[block].mean(axis=1, keepdims=True)
        sq = x**2
        spectrum = np.fft.rfft(x, n_fft, axis=1)
        ab = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n_fft, axis=1)[:, lags]
        aa = np.cumsum(sq, axis=1)[:, ends]
        bb = np.cumsum(sq[:, ::-1], axis=1)[:, ends]
        corr = np.full(ab.shape, -1.0)
        np.divide(ab, np.sqrt(aa * bb), out=corr, where=np.minimum(aa, bb) >= floor)
        best = corr.max(axis=1)
        shortest = np.argmax(corr >= (best - 0.02 * np.abs(best))[:, None], axis=1)
        hit = (np.sqrt(np.mean(sq, axis=1)) >= ENERGY_FLOOR) & (best > VOICING_THRESHOLD)
        voiced[block] = hit
        f0[block] = np.where(hit, sr / lags[shortest], 0.0)
    return f0, voiced


def ffe(y_ref: Waveform, y_hyp: Waveform) -> float:
    """F0 frame error: voicing mismatches plus gross pitch errors (voiced in
    both, f0 off by more than ``GPE_THRESHOLD``).

    Asymmetric: the reference supplies the ground-truth voicing decisions.
    """
    ref, hyp = _metric_pair(y_ref, y_hyp, _pitch_hop(y_ref.sample_rate))
    f0_ref, v_ref = track_pitch(ref)
    f0_hyp, v_hyp = track_pitch(hyp)
    gross = v_ref & v_hyp & (np.abs(f0_hyp - f0_ref) > GPE_THRESHOLD * f0_ref)
    return float(np.mean((v_ref != v_hyp) | gross))


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
    except (wave.Error, EOFError, RuntimeError) as exc:  # the last two carry no message
        reason = str(exc) or "a header or chunk runs past the end of the file"
        raise WavFormatError(f"{path}: not a readable WAV file: {reason}") from exc
    if len(raw) != declared * channels * width:
        raise WavFormatError(
            f"{path}: truncated data chunk ({len(raw)} bytes for "
            f"{declared} declared frames)"
        )
    if channels != 1:
        raise WavFormatError(f"{path}: {channels}-channel audio unsupported (mono only)")
    if rate < 1:
        raise WavFormatError(f"{path}: sample rate {rate} is not positive")
    if width != 2:
        raise WavFormatError(
            f"{path}: {8 * width}-bit encoding unsupported (16-bit PCM only)"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return Waveform(samples=samples, sample_rate=rate)


def wav_write(path, y: Waveform) -> None:
    """Write 16-bit PCM mono; samples are clipped to [-1, 1] first."""
    quantized = np.round(np.clip(y.samples, -1.0, 1.0) * 32767.0).astype("<i2")
    # open the file first: wave.open(path) leaves a half-built Wave_write behind
    # when the path cannot be opened, and its __del__ prints a stray traceback
    with open(path, "wb") as f, wave.open(f, "wb") as wf:
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
    if values.shape[0] != config.n_mels:
        raise CheckpointError(f"{path}: {values.shape[0]} mel bins, its config has {config.n_mels}")
    if values.shape[1] == 0:
        raise CheckpointError(f"{path}: a mel of no frames")
    if not np.all(np.isfinite(values)):
        raise CheckpointError(f"{path}: mel values must be finite")
    return MelSpectrogram(values=values.astype(np.float64, copy=False), config=config)

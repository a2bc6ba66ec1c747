"""Signal processing: mel analysis, objective metrics, pitch, and WAV I/O.

Each metric is cross-checked against a deliberately naive reference
implementation written independently of the library code paths.
"""

import math
import wave

import numpy as np
import pytest

from gradvoc.dsp import (
    MelConfig,
    PitchConfig,
    Waveform,
    WavFormatError,
    ffe,
    load_mel,
    ls_mse,
    mcd,
    mel_filterbank,
    mel_spectrogram,
    mfcc,
    save_mel,
    track_pitch,
    wav_read,
    wav_write,
)

SR = 24000


def tone(freq, seconds=0.3, sr=SR, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


# -- naive reference implementations ------------------------------------------------


def ref_logmel(samples, cfg):
    """Frame-by-frame python loop, explicit DFT via np.fft on each frame."""
    win, hop = cfg.win_length, cfg.hop_length
    padded = np.concatenate([samples, np.zeros(win - hop)])
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    fb = mel_filterbank(cfg)
    frames = []
    start = 0
    while start + win <= padded.size:
        seg = padded[start : start + win] * window
        mag = np.abs(np.fft.rfft(seg, n=cfg.n_fft))
        frames.append(np.log(np.maximum(fb @ mag, cfg.log_floor)))
        start += hop
    return np.array(frames).T


def ref_ls_mse(ref, hyp, cfg):
    cfg = cfg.metric_variant()
    n = min(len(ref), len(hyp))
    a = ref_logmel(ref.samples[:n], cfg)
    b = ref_logmel(hyp.samples[:n], cfg)
    total, count = 0.0, 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += (a[i, j] - b[i, j]) ** 2
            count += 1
    return total / count


def ref_dct2_ortho(v):
    # explicit orthonormal DCT-II: X_k = s_k * sum_j v_j cos(pi k (2j+1) / 2n)
    n = v.size
    scale = np.full(n, math.sqrt(2.0 / n))
    scale[0] = math.sqrt(1.0 / n)
    out = np.empty(n)
    for k in range(n):
        out[k] = scale[k] * sum(
            v[j] * math.cos(math.pi * k * (2 * j + 1) / (2 * n)) for j in range(n)
        )
    return out


def ref_mcd(ref, hyp, cfg, n_coeffs=13):
    cfg = cfg.metric_variant()
    n = min(len(ref), len(hyp))
    a = ref_logmel(ref.samples[:n], cfg)
    b = ref_logmel(hyp.samples[:n], cfg)
    const = 10.0 * math.sqrt(2.0) / math.log(10.0)
    dists = []
    for j in range(a.shape[1]):
        ca = ref_dct2_ortho(a[:, j])[:n_coeffs]
        cb = ref_dct2_ortho(b[:, j])[:n_coeffs]
        dists.append(math.sqrt(float(np.sum((ca - cb) ** 2))))
    return const * float(np.mean(dists))


# -- framing and mel analysis --------------------------------------------------------


def test_frame_count_anchor():
    """0.3 s at 24 kHz with a 12.5 ms hop gives exactly 24 frames."""
    mel = mel_spectrogram(tone(440, seconds=0.3), MelConfig())
    assert mel.values.shape == (128, 24)


def test_silence_hits_log_floor():
    cfg = MelConfig()
    mel = mel_spectrogram(Waveform(np.zeros(7200), SR), cfg)
    assert np.all(mel.values == math.log(cfg.log_floor))


def test_tone_peaks_in_bracketing_mel_bin():
    cfg = MelConfig()
    mel = mel_spectrogram(tone(440), cfg)
    energy = mel.values.mean(axis=1)
    peak = int(np.argmax(energy))

    def hz_to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    lo, hi = mel_to_hz(pts[peak]), mel_to_hz(pts[peak + 2])
    assert lo <= 440.0 <= hi


def test_mel_matches_reference():
    cfg = MelConfig()
    y = tone(700, seconds=0.35)
    got = mel_spectrogram(y, cfg).values
    want = ref_logmel(y.samples, cfg)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10


def test_metric_variant_halves_hop():
    cfg = MelConfig()
    m = cfg.metric_variant()
    assert m.hop_length == cfg.hop_length // 2
    assert m.win_length == cfg.win_length


def test_too_short_signal_rejected():
    with pytest.raises(ValueError):
        mel_spectrogram(Waveform(np.zeros(100), SR), MelConfig())


# -- metrics -------------------------------------------------------------------------


def test_metrics_zero_on_identical():
    y = tone(220)
    assert ls_mse(y, y) == 0.0
    assert mcd(y, y) == 0.0
    assert ffe(y, y) == 0.0


def test_ls_mse_matches_reference():
    ref = tone(220, seconds=0.3)
    hyp = Waveform(0.5 * ref.samples, SR)
    got = ls_mse(ref, hyp, MelConfig())
    want = ref_ls_mse(ref, hyp, MelConfig())
    assert got > 0
    assert got == pytest.approx(want, abs=1e-10)


def test_mcd_matches_reference():
    rng = np.random.default_rng(0)
    ref = tone(220, seconds=0.3)
    hyp = Waveform(ref.samples + 0.01 * rng.standard_normal(len(ref)), SR)
    got = mcd(ref, hyp, MelConfig())
    want = ref_mcd(ref, hyp, MelConfig())
    assert got > 0
    assert got == pytest.approx(want, abs=1e-10)


def test_mcd_noise_ordering():
    rng = np.random.default_rng(1)
    sine = tone(220)
    noise = Waveform(0.5 * rng.standard_normal(len(sine)), SR)
    shifted = Waveform(np.roll(sine.samples, 7), SR)
    assert mcd(sine, noise) > mcd(sine, shifted) > 0


def test_mcd_gain_offset_only_in_c0():
    # broadband signal so every mel bin sits above the log floor; a pure gain
    # then shifts all log energies equally, which the DCT routes into c0 alone
    rng = np.random.default_rng(3)
    ref = Waveform(0.5 * rng.standard_normal(int(0.3 * SR)), SR)
    scaled = Waveform(0.25 * ref.samples, SR)
    assert mcd(ref, scaled) > 0.1
    cfg = MelConfig().metric_variant()
    ca = mfcc(mel_spectrogram(ref, cfg))
    cb = mfcc(mel_spectrogram(scaled, cfg))
    assert np.allclose(ca[1:], cb[1:], rtol=0, atol=1e-8)


def test_metric_length_mismatch_policy():
    y = tone(220)
    near = Waveform(y.samples[:-10], SR)  # within one hop: trimmed
    assert ls_mse(y, near) == pytest.approx(0.0, abs=1e-12)
    far = Waveform(y.samples[:-400], SR)  # beyond one metric hop (150)
    with pytest.raises(ValueError):
        ls_mse(y, far)


# -- pitch ---------------------------------------------------------------------------


def test_track_pitch_recovers_tone():
    y = tone(200, seconds=0.5)
    f0, voiced = track_pitch(y)
    assert voiced.mean() > 0.9
    med = np.median(f0[voiced])
    assert abs(med - 200.0) / 200.0 < 0.05


def test_track_pitch_silence_unvoiced():
    f0, voiced = track_pitch(Waveform(np.zeros(12000), SR))
    assert not voiced.any() and np.all(f0 == 0.0)


def test_ffe_pitch_shift_equals_voiced_fraction():
    """A 1.5x shifted copy errs on every voiced frame (>20% deviation)."""
    ref = tone(200, seconds=0.5)
    hyp = tone(300, seconds=0.5)
    _, v_ref = track_pitch(ref)
    got = ffe(ref, hyp)
    assert got == pytest.approx(float(v_ref.mean()), abs=0.02)


def test_ffe_silence_hyp_equals_voiced_fraction():
    ref = tone(150, seconds=0.5)
    hyp = Waveform(np.zeros(len(ref)), SR)
    _, v_ref = track_pitch(ref)
    assert ffe(ref, hyp) == pytest.approx(float(v_ref.mean()), abs=1e-12)


def test_ffe_small_noise_near_zero():
    rng = np.random.default_rng(2)
    ref = tone(180, seconds=0.5)
    hyp = Waveform(ref.samples + 1e-3 * rng.standard_normal(len(ref)), SR)
    assert ffe(ref, hyp) < 0.05


# -- WAV and mel file I/O ------------------------------------------------------------


def test_wav_round_trip_quantization_bound(tmp_path):
    ramp = Waveform(np.linspace(-0.9, 0.9, 4801), SR)
    path = tmp_path / "ramp.wav"
    wav_write(path, ramp)
    back = wav_read(path)
    assert back.sample_rate == SR
    assert len(back) == len(ramp)
    assert np.max(np.abs(back.samples - ramp.samples)) <= 2.0**-15


def test_wav_rejects_truncated_file(tmp_path):
    path = tmp_path / "good.wav"
    wav_write(path, tone(220, seconds=0.1))
    raw = path.read_bytes()
    bad = tmp_path / "bad.wav"
    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(WavFormatError):
        wav_read(bad)


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(SR)
        w.writeframes(b"\x00\x00\x00\x00" * 64)
    with pytest.raises(WavFormatError):
        wav_read(path)


def test_mel_file_round_trip(tmp_path):
    cfg = MelConfig()
    mel = mel_spectrogram(tone(440), cfg)
    path = tmp_path / "m.mel"
    save_mel(path, mel)
    back = load_mel(path)
    assert np.array_equal(back.values, mel.values)
    assert back.config == cfg


def test_mfcc_shape_and_c0_variants():
    mel = mel_spectrogram(tone(440), MelConfig())
    assert mfcc(mel, 13).shape == (13, 24)
    assert mfcc(mel, 14).shape == (14, 24)

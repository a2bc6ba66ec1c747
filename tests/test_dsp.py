"""Signal processing: mel analysis, objective metrics, pitch, and WAV I/O.

Each metric is cross-checked against a deliberately naive reference
implementation written independently of the library code paths.
"""

import gc
import itertools
import math
import struct
import sys
import tracemalloc
import wave
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradvoc.data import sine_utterance
from gradvoc.dsp import (
    PITCH_FRAME_MS,
    VOICING_THRESHOLD,
    MelConfig,
    MelSpectrogram,
    Waveform,
    WavFormatError,
    ffe,
    load_mel,
    log_mel,
    ls_mse,
    mcd,
    mel_filterbank,
    mel_spectrogram,
    metric_mels,
    mfcc,
    save_mel,
    track_pitch,
    wav_read,
    wav_write,
    _dct_matrix,
    _fast_len,
    _frame,
    _pitch_hop,
)
from oracles import dct2_ortho
from oracles import track_pitch as loop_track_pitch

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
    cfg = cfg.metric
    n = min(len(ref), len(hyp))
    a = ref_logmel(ref.samples[:n], cfg)
    b = ref_logmel(hyp.samples[:n], cfg)
    total, count = 0.0, 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += (a[i, j] - b[i, j]) ** 2
            count += 1
    return total / count


def ref_mcd(ref, hyp, cfg, n_coeffs=13):
    cfg = cfg.metric
    n = min(len(ref), len(hyp))
    a = ref_logmel(ref.samples[:n], cfg)
    b = ref_logmel(hyp.samples[:n], cfg)
    const = 10.0 * math.sqrt(2.0) / math.log(10.0)
    dists = []
    for j in range(a.shape[1]):
        ca = dct2_ortho(a[:, j])[:n_coeffs]
        cb = dct2_ortho(b[:, j])[:n_coeffs]
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
    m = cfg.metric
    assert m.hop_length == cfg.hop_length // 2
    assert m.win_length == cfg.win_length
    assert cfg.metric is m  # one metric config, so one metric filterbank


def test_filterbank_is_built_once_per_config_and_read_only():
    cfg = MelConfig()
    fb = cfg.filterbank
    assert np.array_equal(fb, mel_filterbank(cfg))
    assert cfg.filterbank is fb
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0


def test_equal_configs_share_one_filterbank():
    """A profile made anew, or a config rebuilt from a checkpoint's values,
    finds the filterbank that the first equal config built."""
    first, again = MelConfig(), MelConfig(**asdict(MelConfig()))
    assert first is not again
    assert again.filterbank is first.filterbank
    assert MelConfig.toy().filterbank is MelConfig.toy().filterbank
    assert MelConfig.toy().filterbank is not first.filterbank
    assert not first.filterbank.flags.writeable


def test_window_is_built_once_per_config_and_read_only():
    """The periodic Hann window, made on a config's first analysis and kept
    out of the dataclass fields like the filterbank."""
    cfg, fresh = MelConfig.toy(), MelConfig.toy()
    mel_spectrogram(Waveform(np.ones(64), 4000), cfg)
    window = cfg.__dict__["window"]  # made by the analysis
    n = np.arange(32)
    assert np.array_equal(window, 0.5 - 0.5 * np.cos(2.0 * np.pi * n / 32))
    assert cfg.window is window
    with pytest.raises(ValueError):
        window[0] = 1.0
    assert cfg == fresh and hash(cfg) == hash(fresh) and asdict(cfg) == asdict(fresh)


@pytest.mark.parametrize("change", [{"n_mels": 0}, {"fmin": -1.0}, {"fmin": 12000.0},
                                    {"log_floor": 0.0}, {"log_floor": float("nan")},
                                    {"n_fft": 2048.0}, {"win_length": True},
                                    {"hop_length": 300.0}, {"n_mels": 128.0},
                                    {"sample_rate": "24000"}, {"n_fft": 2**40}],
                         ids=["no-bins", "negative-fmin", "fmin-at-fmax", "zero-floor",
                              "nan-floor", "float-fft", "bool-window", "float-hop",
                              "float-bins", "str-rate", "huge-fft"])
def test_mel_config_rejects_values_it_cannot_analyse_with(change):
    """Each integer field must hold an int, and the FFT size is bounded; so
    a config is refused before its analysis allocates anything."""
    with pytest.raises(ValueError, match=f"^{next(iter(change))} must be |^fmin|^log_floor"):
        MelConfig(**change)


def test_too_short_signal_rejected():
    with pytest.raises(ValueError):
        mel_spectrogram(Waveform(np.zeros(100), SR), MelConfig())


def test_a_short_stack_of_signals_reports_one_signals_length():
    for run in (lambda: _frame(np.zeros((3, 10)), 32, 4),
                lambda: log_mel(np.zeros((3, 10)), MelConfig.toy())):
        with pytest.raises(ValueError, match="signal of 10 samples is shorter than one "
                                             "32-sample window"):
            run()


@pytest.mark.parametrize("cfg", [MelConfig.toy(), MelConfig()], ids=["toy", "base"])
def test_log_mel_of_a_stack_is_each_signals_own_analysis(cfg):
    """Byte for byte, for frame counts on and off a multiple of 2, 4 and 8,
    and a stack of stacks."""
    rng = np.random.default_rng(20)
    for frames in (1, 5, 8, 24):
        signals = 0.3 * rng.standard_normal((2, 3, frames * cfg.hop_length + cfg.win_length))
        got = log_mel(signals, cfg)
        assert got.shape == (2, 3, cfg.n_mels, signals.shape[-1] // cfg.hop_length)
        for index in np.ndindex(2, 3):
            want = mel_spectrogram(Waveform(signals[index], cfg.sample_rate), cfg).values
            assert got[index].dtype == want.dtype and got[index].tobytes() == want.tobytes()


# -- metrics -------------------------------------------------------------------------


def test_metrics_zero_on_identical():
    y = tone(220)
    same = metric_mels(y, y, MelConfig())
    assert ls_mse(*same) == 0.0
    assert mcd(*same) == 0.0
    assert ffe(y, y) == 0.0


def test_ls_mse_matches_reference():
    ref = tone(220, seconds=0.3)
    hyp = Waveform(0.5 * ref.samples, SR)
    got = ls_mse(*metric_mels(ref, hyp, MelConfig()))
    want = ref_ls_mse(ref, hyp, MelConfig())
    assert got > 0
    assert got == pytest.approx(want, abs=1e-10)


def test_mcd_matches_reference():
    rng = np.random.default_rng(0)
    ref = tone(220, seconds=0.3)
    hyp = Waveform(ref.samples + 0.01 * rng.standard_normal(len(ref)), SR)
    got = mcd(*metric_mels(ref, hyp, MelConfig()))
    want = ref_mcd(ref, hyp, MelConfig())
    assert got > 0
    assert got == pytest.approx(want, abs=1e-10)


def test_mcd_noise_ordering():
    rng = np.random.default_rng(1)
    sine = tone(220)
    noise = Waveform(0.5 * rng.standard_normal(len(sine)), SR)
    shifted = Waveform(np.roll(sine.samples, 7), SR)
    cfg = MelConfig()
    assert mcd(*metric_mels(sine, noise, cfg)) > mcd(*metric_mels(sine, shifted, cfg)) > 0


def test_mcd_gain_offset_only_in_c0():
    # broadband signal so every mel bin sits above the log floor; a pure gain
    # then shifts all log energies equally, which the DCT routes into c0 alone
    rng = np.random.default_rng(3)
    ref = Waveform(0.5 * rng.standard_normal(int(0.3 * SR)), SR)
    scaled = Waveform(0.25 * ref.samples, SR)
    assert mcd(*metric_mels(ref, scaled, MelConfig())) > 0.1
    cfg = MelConfig().metric
    ca = mfcc(mel_spectrogram(ref, cfg))
    cb = mfcc(mel_spectrogram(scaled, cfg))
    assert np.allclose(ca[1:], cb[1:], rtol=0, atol=1e-8)


def test_metric_length_mismatch_policy():
    y = tone(220)
    near = Waveform(y.samples[:-10], SR)  # within one hop: trimmed
    assert ls_mse(*metric_mels(y, near, MelConfig())) == pytest.approx(0.0, abs=1e-12)
    far = Waveform(y.samples[:-400], SR)  # beyond one metric hop (150)
    with pytest.raises(ValueError):
        metric_mels(y, far, MelConfig())


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


# -- the block-wise tracker against the per-lag loop ------------------------------


def whole_frames(y):
    """Number of leading pitch frames that lie wholly inside the signal; the
    rest reach into the zero padding."""
    win = int(round(PITCH_FRAME_MS * y.sample_rate / 1000.0))
    return 1 + (len(y) - win) // _pitch_hop(y.sample_rate)


def check_against_loop(y):
    """Assert track_pitch makes the loop oracle's decisions on every frame
    except those within 1e-9 of a decision edge, and return how many were
    left out.  The edges are a best score at ``VOICING_THRESHOLD`` and any
    lag at the 2 % whisker, where roundoff alone may flip the decision."""
    f0, voiced = track_pitch(y)
    scores = []
    f0_loop, voiced_loop = loop_track_pitch(y, scores)
    edge = np.zeros(f0.size, dtype=bool)
    for i, _, corr in scores:
        best = corr.max()
        whisker = best - 0.02 * abs(best)
        edge[i] = abs(best - VOICING_THRESHOLD) < 1e-9 or bool(
            np.any(np.abs(corr - whisker) < 1e-9)
        )
    keep = ~edge
    np.testing.assert_array_equal(voiced[keep], voiced_loop[keep])
    np.testing.assert_array_equal(f0[keep], f0_loop[keep])
    return int(edge.sum())


def _gapped(y, start, stop):
    samples = y.samples.copy()
    samples[start:stop] = 0.0
    return Waveform(samples, y.sample_rate)


def _noisy(y, level, seed):
    rng = np.random.default_rng(seed)
    return Waveform(y.samples + level * rng.standard_normal(len(y)), y.sample_rate)


FIXED_PITCH_SIGNALS = {
    "tone200": lambda: tone(200, seconds=0.5),
    "tone300": lambda: tone(300, seconds=0.5),
    "tone150": lambda: tone(150, seconds=0.5),
    "tone180_noisy": lambda: _noisy(tone(180, seconds=0.5), 1e-3, 2),
    "silence": lambda: Waveform(np.zeros(12000), SR),
    "utterance_24k": lambda: sine_utterance(np.random.default_rng(300), 12000, SR),
    "utterance_4k": lambda: sine_utterance(np.random.default_rng(0), 4000, 4000),
    "white_noise_4k": lambda: Waveform(np.random.default_rng(5).standard_normal(4000), 4000),
    "silent_gap": lambda: _gapped(tone(220, seconds=0.5), 4000, 7000),
    "very_noisy": lambda: _noisy(tone(140, seconds=0.5), 0.4, 6),
    # stretches of RMS 0.85 and 1.2 times ENERGY_FLOOR, then a loud one
    "near_floor": lambda: Waveform(
        tone(250, seconds=0.5).samples * np.repeat([2.4e-4, 3.4e-4, 1.0], 4000), SR
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED_PITCH_SIGNALS))
def test_track_pitch_matches_loop_oracle(name):
    assert check_against_loop(FIXED_PITCH_SIGNALS[name]()) == 0


@st.composite
def harmonic_stacks(draw):
    """Harmonic stacks at 4 or 24 kHz whose length is no multiple of the
    pitch hop, optionally with a silent gap and added noise."""
    sr = draw(st.sampled_from([4000, 24000]))
    hop = _pitch_hop(sr)
    n = draw(st.integers(4 * hop, 20 * hop)) + draw(st.integers(1, hop - 1))
    f0 = draw(st.floats(60.0, 500.0))
    amps = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    t = np.arange(n) / sr
    samples = sum(
        a * np.sin(2 * np.pi * (k + 1) * f0 * t + k)
        for k, a in enumerate(amps)
        if (k + 1) * f0 < sr / 2
    ) * draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        samples[start : start + draw(st.integers(1, n))] = 0.0
    noise = draw(st.floats(0.0, 0.5))
    samples = samples + noise * np.random.default_rng(draw(st.integers(0, 99))).standard_normal(n)
    return Waveform(samples, sr)


@settings(max_examples=40, deadline=None)
@given(y=harmonic_stacks())
# frame 4's b window at lag 80 lies wholly in the zero padding, where a.b is
# roundoff; unless that lag goes unscored the tracker reports 50 Hz, the loop 102.6 Hz
@example(y=Waveform(1e-3 * np.sin(2 * np.pi * 100.0 * np.arange(180) / 4000), 4000))
def test_track_pitch_matches_loop_oracle_on_harmonic_stacks(y):
    check_against_loop(y)


def test_track_pitch_takes_shortest_lag_of_a_near_tie():
    """A tiled 120-sample period scores 1 at lags 120, 240, 360 and 480 to
    within roundoff; a longer lag may hold the maximum by an ulp, yet every
    frame inside the signal reports the shortest lag, 200 Hz.  The period
    is a sine with its first ten harmonics: a bare sine would also score
    cos(2 pi 3 / 120) = 0.988 at lag 117, inside the 2 % whisker."""
    phase = 2 * np.pi * np.arange(120) / 120
    period = sum(np.sin(k * phase) for k in range(1, 11))
    y = Waveform(0.1 * np.tile(period, 100), SR)
    inside = whole_frames(y)
    scores = []
    for tracker in (track_pitch, lambda y: loop_track_pitch(y, scores)):
        f0, voiced = tracker(y)
        assert voiced[:inside].all()
        assert np.all(f0[:inside] == 200.0)
    for i, lags, corr in scores[:inside]:
        tied = np.isin(lags, [120, 240, 360, 480])
        assert np.allclose(corr[tied], 1.0, rtol=0, atol=1e-12)
        assert np.all(corr[~tied] < 0.98)


@pytest.mark.parametrize("level", [0.1, 0.3, -0.7])
def test_track_pitch_constant_signal_unvoiced(level):
    """Mean removal leaves only roundoff of a constant, and the floor applies
    to that; the last frames reach into the zero padding and may be voiced."""
    y = Waveform(np.full(SR, level), SR)
    inside = whole_frames(y)
    for tracker in (track_pitch, loop_track_pitch):
        f0, voiced = tracker(y)
        assert not voiced[:inside].any() and np.all(f0[:inside] == 0.0)


def _traced_peak_beyond_the_signal(seconds):
    y = sine_utterance(np.random.default_rng(7), seconds * SR, SR)
    tracemalloc.start()
    try:
        track_pitch(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - y.samples.nbytes


def test_track_pitch_memory_does_not_grow_with_the_signal():
    """The frames are a view of the padded signal and are scored in blocks,
    so beyond that one copy of the signal the traced peak of 30 s is that
    of 2 s (a frame matrix copied out would hold win / hop = 4 copies of it)."""
    short, long = _traced_peak_beyond_the_signal(2), _traced_peak_beyond_the_signal(30)
    assert abs(long - short) <= 0.1 * short


def test_track_pitch_at_22050_hz_matches_the_loop():
    """At 22 050 Hz a frame of 551 samples and its longest lag, 441, need an
    FFT of 992 points, which is not 5-smooth; it rounds up to 1000."""
    assert _fast_len(551 + 441) == 1000
    assert check_against_loop(sine_utterance(np.random.default_rng(301), 11025, 22050)) == 0
    assert check_against_loop(_noisy(tone(210, seconds=0.5, sr=22050), 1e-3, 3)) == 0


def test_fast_len_is_the_least_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 4097):
        assert _fast_len(n) == next(m for m in itertools.count(n) if smooth(m))


# -- WAV and mel file I/O ------------------------------------------------------------


def test_wav_round_trip_quantization_bound(tmp_path):
    ramp = Waveform(np.linspace(-0.9, 0.9, 4801), SR)
    path = tmp_path / "ramp.wav"
    wav_write(path, ramp)
    back = wav_read(path)
    assert back.sample_rate == SR
    assert len(back) == len(ramp)
    assert np.max(np.abs(back.samples - ramp.samples)) <= 2.0**-15


def test_wav_write_to_missing_directory_raises_cleanly(tmp_path, monkeypatch):
    """The open fails before any Wave_write exists, so no __del__ traceback follows."""
    ignored = []
    monkeypatch.setattr(sys, "unraisablehook", ignored.append)
    with pytest.raises(FileNotFoundError):
        wav_write(tmp_path / "nodir" / "a.wav", tone(220, seconds=0.01))
    gc.collect()
    assert ignored == []


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


def wav_bytes(channels=1, rate=SR, width=2, fmt_size=16, data=b"\x00\x00" * 8):
    """A RIFF/WAVE file built field by field, so each field can be wrong."""
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * width % 2**32,
                      channels * width % 2**16, 8 * width % 2**16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", fmt_size) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize(
    "fields", [{"rate": 0}, {"fmt_size": 77}, {"width": 1}, {"channels": 0}],
    ids=["zero-rate", "chunk-past-end", "8-bit", "no-channels"],
)
def test_wav_rejects_bad_header_fields(fields, tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(wav_bytes(**fields))
    with pytest.raises(WavFormatError):
        wav_read(path)


@st.composite
def wav_like(draw):
    """Arbitrary bytes, or a WAV header with arbitrary fields, maybe cut short."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    data = wav_bytes(
        channels=draw(st.integers(0, 3)),
        rate=draw(st.sampled_from([0, 1, SR, 2**32 - 1])),
        width=draw(st.integers(0, 4)),
        fmt_size=draw(st.sampled_from([0, 14, 16, 18, 77, 2**32 - 1])),
        data=draw(st.binary(max_size=24)),
    )
    return data[: draw(st.integers(0, len(data)))]


@settings(max_examples=400, deadline=None)
@given(data=wav_like())
def test_any_bytes_read_or_raise_wav_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.wav"
    path.write_bytes(data)
    try:
        wav_read(path)
    except WavFormatError:
        pass


def test_mel_file_round_trip(tmp_path):
    cfg = MelConfig()
    mel = mel_spectrogram(tone(440), cfg)
    path = tmp_path / "m.mel"
    save_mel(path, mel)
    back = load_mel(path)
    assert np.array_equal(back.values, mel.values)
    assert back.config == cfg


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
@pytest.mark.parametrize("n_coeffs", [1, 13, 50])
def test_dct_matrix_matches_the_cosine_sum_oracle(n, n_coeffs):
    full = np.column_stack([dct2_ortho(unit) for unit in np.eye(n)])
    matrix = _dct_matrix(n, n_coeffs)
    assert matrix.shape == (min(n, n_coeffs), n) and not matrix.flags.writeable
    np.testing.assert_allclose(matrix, full[:n_coeffs], rtol=0, atol=1e-15)
    assert _dct_matrix(n, n_coeffs) is matrix


def test_mfcc_matches_the_cosine_sum_oracle():
    values = np.random.default_rng(4).normal(-5.0, 3.0, (128, 6))
    want = np.column_stack([dct2_ortho(col)[:13] for col in values.T])
    np.testing.assert_allclose(mfcc(MelSpectrogram(values, MelConfig())), want, rtol=0, atol=1e-12)


def test_mfcc_shape_and_c0_variants():
    mel = mel_spectrogram(tone(440), MelConfig())
    assert mfcc(mel).shape == (13, 24)
    want = _dct_matrix(128, 14)[:13] @ mel.values  # c0 first, then c1..c12
    np.testing.assert_allclose(mfcc(mel), want, rtol=0, atol=1e-12)

"""Malformed input through ``cli.main``: each case exits 1 or 2 with one line.

Each bad archive is a copy of the committed ``perfbench/sweep-toy.ckpt``, or
a ``.mel`` file of its analysis, with one metadata value changed and saved
again, checksum and all, under the test's temporary directory.  Each bad
train config sets one value.  The mel analysis is patched to fail the test
if it runs, so every case must be refused before a crop, a spectrum or a
filterbank exists: a huge size is refused before anything of its size is
allocated.
"""

import contextlib
import io
import math
import struct
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradvoc.dsp
import gradvoc.schedule
import gradvoc.train
from gradvoc.checkpoint import load_tensors, save_tensors
from gradvoc.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from gradvoc.data import generate_corpus
from gradvoc.dsp import MAX_N_FFT, MelConfig, MelSpectrogram, Waveform, save_mel, wav_write
from gradvoc.net import ModelConfig
from gradvoc.schedule import MAX_STEPS, MAX_TEXT_BYTES
from gradvoc.train import MAX_BATCH_SIZE, TrainConfig, TrainConfigError
from conftest import PERFBENCH

FIXTURE = PERFBENCH / "sweep-toy.ckpt"

# (command, metadata group or train config key, key, value, exit code); the
# fixture's run ended at its max_steps of 400, so a resumed run goes to 401
CASES = [
    ("resume", "train", "batch_size", 2.5, EXIT_DATA),
    ("resume", "train", "segment_samples", 256.0, EXIT_DATA),
    ("resume", "train", "seed", 1.5, EXIT_DATA),
    ("resume", "train", "max_steps", 401.5, EXIT_DATA),
    ("resume", "train", "batch_size", True, EXIT_DATA),
    ("resume", "train", "batch_size", 4_000_000_000, EXIT_DATA),
    ("synth", "mel_config", "n_fft", 32.0, EXIT_DATA),
    ("synth", "mel_config", "win_length", 2.5, EXIT_DATA),
    ("synth", "mel_config", "n_fft", 10**12, EXIT_DATA),
    ("synth-mel", "mel_config", "n_fft", 32.0, EXIT_DATA),
    ("synth-mel", "mel_config", "sample_rate", 4000.0, EXIT_DATA),
    ("synth-mel", "mel_config", "n_mels", 8.0, EXIT_DATA),
    ("train", "config", "batch_size", 4_000_000_000, EXIT_USAGE),
    ("train", "config", "batch_size", 99999999999999999999, EXIT_USAGE),
    # a bool and an int past float64 in a real field; each was run or overflowed
    ("resume", "train", "learning_rate", True, EXIT_DATA),
    ("resume", "train", "learning_rate", 10**400, EXIT_DATA),
    ("synth", "mel_config", "log_floor", True, EXIT_DATA),
    ("synth", "mel_config", "log_floor", 10**400, EXIT_DATA),
    # more than a WAV header's 32-bit rate field holds
    ("synth", "mel_config", "sample_rate", 2**32, EXIT_DATA),
]


def case_id(command, group, key, value, code):
    text = str(value)
    return f"{command}-{key}-{text if len(text) <= 20 else f'{len(text)}-digits'}"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed-corpus")
    generate_corpus(root, n_utterances=2, n_samples=4000, sample_rate=4000, seed=0)
    return root


def analysis_ran(*args, **kwargs):
    raise AssertionError("the mel analysis ran on a malformed input")


def argv_for(command, group, key, value, corpus, tmp_path):
    wav = sorted(corpus.glob("*.wav"))[0]
    synth = ["synth", "--checkpoint", str(FIXTURE), "--input", str(wav),
             "--schedule", "manual6", "--out", str(tmp_path / "out.wav")]
    if command == "train":
        config = {"data_dir": corpus, "model": "toy", key: value}
    elif command == "resume":
        arrays, meta = load_tensors(FIXTURE)
        meta[group][key] = value
        save_tensors(tmp_path / "bad.ckpt", arrays, meta=meta)
        config = {"resume": tmp_path / "bad.ckpt", "data_dir": corpus, "max_steps": 401}
        config.pop(key, None)  # the archive's value, not the config's, is the bad one
    elif command == "synth":
        arrays, meta = load_tensors(FIXTURE)
        meta[group][key] = value
        save_tensors(tmp_path / "bad.ckpt", arrays, meta=meta)
        return [*synth[:2], str(tmp_path / "bad.ckpt"), *synth[3:]]
    else:  # a .mel file of the fixture's analysis
        mel = tmp_path / "bad.mel"
        save_mel(mel, MelSpectrogram(np.zeros((8, 4)), MelConfig.toy()))
        arrays, meta = load_tensors(mel)
        meta[group][key] = value
        save_tensors(mel, arrays, meta=meta)
        return [*synth[:4], str(mel), *synth[5:]]
    config["checkpoint_dir"] = tmp_path / "ckpt"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    return ["train", str(cfg)]


@pytest.mark.parametrize("command, group, key, value, code", CASES,
                         ids=[case_id(*c) for c in CASES])
def test_malformed_input_is_one_line_error(command, group, key, value, code, corpus, tmp_path,
                                           monkeypatch, capsys):
    argv = argv_for(command, group, key, value, corpus, tmp_path)
    monkeypatch.setattr(gradvoc.dsp, "log_mel", analysis_ran)
    monkeypatch.setattr(gradvoc.train, "log_mel", analysis_ran)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(argv)
    out, err = capsys.readouterr()
    assert got == code, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err
    assert not (tmp_path / "ckpt").exists() and not (tmp_path / "out.wav").exists()


def test_sizes_are_refused_above_their_bounds_and_taken_at_them():
    assert TrainConfig(batch_size=MAX_BATCH_SIZE).batch_size == MAX_BATCH_SIZE
    with pytest.raises(TrainConfigError, match=f"batch_size must be an integer in "
                                               rf"\[1, {MAX_BATCH_SIZE}\], got {MAX_BATCH_SIZE + 1}"):
        TrainConfig(batch_size=MAX_BATCH_SIZE + 1)
    assert MelConfig(n_fft=MAX_N_FFT).n_fft == MAX_N_FFT  # the filterbank is built on first use
    with pytest.raises(ValueError, match=rf"n_fft must be an integer in \[1, {MAX_N_FFT}\], "
                                         f"got {2 * MAX_N_FFT}"):
        MelConfig(n_fft=2 * MAX_N_FFT)


@pytest.mark.parametrize("key", ["batch_size", "segment_samples", "max_steps", "seed",
                                 "checkpoint_every"])
@pytest.mark.parametrize("value", [2.0, True])
def test_train_config_refuses_an_integer_field_that_is_not_an_int(key, value):
    with pytest.raises(TrainConfigError, match=f"^{key} must be an integer in "):
        TrainConfig(**{key: value})


# -- one rule for every number a file can set ---------------------------------------

# the fields of each config that hold no number
NOT_NUMBERS = {ModelConfig: {"dtype"}, MelConfig: set(),
               TrainConfig: {"training_prior", "discrete_schedule"}}


def first_leaf(value):
    return first_leaf(value[0]) if isinstance(value, tuple) else value


def with_first_leaf(value, leaf):
    """``value`` with its first number, the first of a (nested) tuple's, made ``leaf``."""
    return (with_first_leaf(value[0], leaf), *value[1:]) if isinstance(value, tuple) else leaf


@pytest.mark.parametrize("cls", list(NOT_NUMBERS), ids=lambda cls: cls.__name__)
def test_every_numeric_setting_refuses_what_is_not_its_kind(cls):
    """Walks every field, so a numeric field added without the rule fails
    here: a bool, nan, an infinity and an int past float64 are refused, and
    an integer field refuses a fraction."""
    base, numeric = cls(), set()
    for field in fields(cls):
        default = getattr(base, field.name)
        if type(first_leaf(default)) not in (int, float):
            continue
        numeric.add(field.name)
        values = [True, math.nan, math.inf, 10**400]
        if type(first_leaf(default)) is int:
            values.append(2.5)
        for value in values:
            with pytest.raises((ValueError, TrainConfigError)):
                replace(base, **{field.name: with_first_leaf(default, value)})
    assert {field.name for field in fields(cls)} - numeric == NOT_NUMBERS[cls]


@pytest.mark.parametrize("rate", [True, 2.5, 0, 10**400])
def test_a_waveform_rate_is_a_positive_integer(rate):
    with pytest.raises(ValueError, match="^sample rate must be a positive integer"):
        Waveform(np.zeros(4), rate)


# -- bounded reads of named files ---------------------------------------------------


def test_the_text_bound_holds_a_longest_schedule_file():
    """``schedule_to_text`` writes one `beta = <repr>` line per step, and a
    float's repr is at most 17 digits, a point and a 3-digit exponent."""
    assert MAX_STEPS * len("beta = 1.2345678901234567e-100\n") <= MAX_TEXT_BYTES


@pytest.mark.parametrize("command, code", [("train", EXIT_DATA), ("candidates", EXIT_DATA),
                                           ("schedule", EXIT_USAGE), ("checkpoint", EXIT_DATA)])
def test_a_file_past_its_bound_is_refused_before_it_is_read_whole(command, code, corpus,
                                                                 tmp_path, monkeypatch, capsys):
    """A text file is read up to the bound (patched small here), and an
    archive that is no file, /dev/zero, only up to its bad magic line: each
    used to read until memory ran out.  The long text is comments, which
    would parse."""
    monkeypatch.setattr(gradvoc.schedule, "MAX_TEXT_BYTES", 64)
    long = tmp_path / "long.txt"
    long.write_text("#" * 64 + "\n")
    wav = sorted(corpus.glob("*.wav"))[0]
    argv = {
        "train": ["train", str(long)],
        "candidates": ["sweep", "--checkpoint", str(FIXTURE), "--validation-dir", str(corpus),
                       "--candidates-file", str(long)],
        "schedule": ["inspect-schedule", f"@{long}"],
        "checkpoint": ["synth", "--checkpoint", "/dev/zero", "--input", str(wav),
                       "--schedule", "manual6", "--out", str(tmp_path / "out.wav")],
    }[command]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert ("bad magic" if command == "checkpoint" else "longer than 64 bytes") in err


# -- malformed WAV headers and schedule specs ----------------------------------------

# (offset, bytes written there) into the 44-byte header of a 16-bit mono WAV
# at the fixture's 4 kHz; each makes a file gradvoc refuses
HEADERS = {
    "riff-id": (0, b"RIFX"),
    "wave-id": (8, b"WAVX"),
    "fmt-id": (12, b"fmx "),
    "fmt-size": (16, struct.pack("<I", 2**32 - 1)),
    "format-float": (20, struct.pack("<H", 3)),
    "channels-0": (22, struct.pack("<H", 0)),
    "channels-2": (22, struct.pack("<H", 2)),
    "rate-0": (24, struct.pack("<I", 0)),
    "rate-8000": (24, struct.pack("<I", 8000)),
    "bits-0": (34, struct.pack("<H", 0)),
    "bits-8": (34, struct.pack("<H", 8)),
    "bits-24": (34, struct.pack("<H", 24)),
    "data-id": (36, b"datx"),
    "data-size-max": (40, struct.pack("<I", 2**32 - 1)),
    "data-size-0": (40, struct.pack("<I", 0)),
    "truncated": (20, b""),  # the file ends inside the fmt chunk
}


def wav_pair(root, offset, raw):
    """A 400-sample tone as ref/a.wav and hyp/a.wav under ``root``, with
    ``raw`` written into hyp's at ``offset``, or hyp's cut there if empty."""
    tone = 0.5 * np.sin(2 * np.pi * 200 * np.arange(400) / 4000)
    for side in ("ref", "hyp"):
        (root / side).mkdir(parents=True, exist_ok=True)
        wav_write(root / side / "a.wav", Waveform(tone, 4000))
    hyp = root / "hyp" / "a.wav"
    data = hyp.read_bytes()
    hyp.write_bytes(data[:offset] + raw + (data[offset + len(raw):] if raw else b""))
    return root / "ref", hyp


def run_quietly(argv, capsys):
    """``main(argv)`` with warnings as errors: its exit code and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


def wav_argv(command, ref_dir, hyp, tmp_path):
    if command == "eval":
        return ["eval", "--ref-dir", str(ref_dir), "--hyp-dir", str(hyp.parent)]
    return ["synth", "--checkpoint", str(FIXTURE), "--input", str(hyp), "--schedule", "manual6",
            "--out", str(tmp_path / "out.wav")]


@pytest.mark.parametrize("field", sorted(HEADERS))
@pytest.mark.parametrize("command", ["eval", "synth"])
def test_malformed_wav_header_is_one_line_error(command, field, tmp_path, capsys):
    ref_dir, hyp = wav_pair(tmp_path, *HEADERS[field])
    code, err = run_quietly(wav_argv(command, ref_dir, hyp, tmp_path), capsys)
    assert code == EXIT_DATA, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out.wav").exists()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(offset=st.integers(0, 43), value=st.integers(0, 255))
def test_any_one_header_byte_is_read_or_refused_in_one_line(offset, value, tmp_path_factory):
    """A byte that leaves the header readable (a byte rate, a block align) is
    scored, and any other refused; none ends in a traceback or a warning."""
    root = tmp_path_factory.getbasetemp() / "header"
    ref_dir, hyp = wav_pair(root, offset, bytes([value]))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(wav_argv("eval", ref_dir, hyp, root) + ["--out", str(root / "eval.csv")])
    lines = err.getvalue().splitlines()
    assert (code, lines) == (EXIT_OK, []) or (
        code == EXIT_DATA and len(lines) == 1 and lines[0].startswith("error: ")), lines


# each refused by both commands: (spec, exit code); `{dir}` is the test's
# directory, which holds an empty file and one with an unknown key
SPECS = [
    ("linear(1e-4,0.05)", EXIT_USAGE),
    ("linear(1e-4,0.05,50,2)", EXIT_USAGE),
    ("linear(nan,0.05,50)", EXIT_USAGE),
    ("linear(1e-4,inf,50)", EXIT_USAGE),
    ("linear(0.05,1e-4,50)", EXIT_USAGE),
    ("linear(1e-4,0.05,0)", EXIT_USAGE),
    ("linear(1e-4,0.05,2.5)", EXIT_USAGE),
    (f"linear(1e-4,0.05,{MAX_STEPS + 1})", EXIT_USAGE),
    ("fibonacci(1)", EXIT_USAGE),
    ("fibonacci(40)", EXIT_USAGE),
    ("fibonacci(x)", EXIT_USAGE),
    ("fibonacci(3,4)", EXIT_USAGE),
    ("manual()", EXIT_USAGE),
    ("manual(0,0.5)", EXIT_USAGE),
    ("manual(0.5,1)", EXIT_USAGE),
    ("manual(-0.1)", EXIT_USAGE),
    ("manual(nan)", EXIT_USAGE),
    ("manual(0.1;0.2)", EXIT_USAGE),
    ("manual(1e-4,0.05", EXIT_USAGE),
    ("cosine(10)", EXIT_USAGE),
    ("linear6", EXIT_USAGE),
    ("1e-4 0.05", EXIT_USAGE),
    ("", EXIT_USAGE),
    ("@{dir}/empty.txt", EXIT_USAGE),
    ("@{dir}/gamma.txt", EXIT_USAGE),
    ("@", EXIT_DATA),
]


@pytest.mark.parametrize("spec, code", SPECS, ids=[spec or "empty" for spec, _ in SPECS])
@pytest.mark.parametrize("command", ["inspect-schedule", "synth"])
def test_malformed_schedule_spec_is_one_line_error(command, spec, code, corpus, tmp_path,
                                                   capsys):
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "gamma.txt").write_text("beta = 0.1\ngamma = 0.2\n")
    spec = spec.format(dir=tmp_path)
    argv = (["inspect-schedule", spec] if command == "inspect-schedule" else
            ["synth", "--checkpoint", str(FIXTURE), "--input", str(sorted(corpus.glob("*.wav"))[0]),
             "--schedule", spec, "--out", str(tmp_path / "out.wav")])
    got, err = run_quietly(argv, capsys)
    assert got == code, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out.wav").exists()

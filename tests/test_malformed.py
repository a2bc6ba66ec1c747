"""Malformed input through ``cli.main``: each case exits 1 or 2 with one line.

Each bad archive is a copy of the committed ``perfbench/sweep-toy.ckpt``, or
a ``.mel`` file of its analysis, with one metadata value changed and saved
again, checksum and all, under the test's temporary directory.  Each bad
train config sets one value.  The mel analysis is patched to fail the test
if it runs, so every case must be refused before a crop, a spectrum or a
filterbank exists: a huge size is refused before anything of its size is
allocated.
"""

import warnings

import numpy as np
import pytest

import gradvoc.dsp
import gradvoc.train
from gradvoc.checkpoint import load_tensors, save_tensors
from gradvoc.cli import EXIT_DATA, EXIT_USAGE, main
from gradvoc.data import generate_corpus
from gradvoc.dsp import MAX_N_FFT, MelConfig, MelSpectrogram, save_mel
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
]


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
                         ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in CASES])
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
    with pytest.raises(ValueError, match=f"n_fft must be at most {MAX_N_FFT}, got {2 * MAX_N_FFT}"):
        MelConfig(n_fft=2 * MAX_N_FFT)


@pytest.mark.parametrize("key", ["batch_size", "segment_samples", "max_steps", "seed",
                                 "checkpoint_every"])
@pytest.mark.parametrize("value", [2.0, True])
def test_train_config_refuses_an_integer_field_that_is_not_an_int(key, value):
    with pytest.raises(TrainConfigError, match=f"^{key} must be an integer in "):
        TrainConfig(**{key: value})

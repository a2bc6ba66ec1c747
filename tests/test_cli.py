"""Command-line surface: config parsing, exit codes, and file outputs."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradvoc.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    DataError,
    UsageError,
    main,
    parse_kv_file,
    resolve_schedule,
)
from gradvoc.checkpoint import load_tensors, save_tensors
from gradvoc.dsp import (
    MelConfig, MelSpectrogram, Waveform, mel_spectrogram, save_mel, wav_read, wav_write,
)
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.schedule import kl_terminal_diagnostic, linear_schedule
from gradvoc.train import TrainConfig, TrainState, save_state
from conftest import SEGMENT
from test_checkpoint import drop_param, extra_param, no_prior


def test_parse_kv_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nkey = value\n\nnum=3\n")
    assert parse_kv_file(p) == {"key": "value", "num": "3"}


def test_parse_kv_reports_line_number(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("good = 1\nthis line is broken\n")
    with pytest.raises(UsageError, match=r"bad\.cfg:2"):
        parse_kv_file(p)


def test_resolve_schedule_presets():
    assert len(resolve_schedule("linear1000")) == 1000
    assert len(resolve_schedule("fibonacci25")) == 25
    assert len(resolve_schedule("manual6")) == 6
    assert resolve_schedule("0.1,0.2").betas.tolist() == [0.1, 0.2]


def test_invalid_schedule_name_is_usage_error(toy_checkpoint, tmp_path):
    code = main([
        "synth", "--checkpoint", str(toy_checkpoint), "--input", "x.wav",
        "--schedule", "nosuchpreset(", "--out", str(tmp_path / "o.wav"),
    ])
    assert code == EXIT_USAGE


def test_missing_checkpoint_is_data_error(tmp_path):
    code = main([
        "synth", "--checkpoint", str(tmp_path / "none.ckpt"),
        "--input", "x.wav", "--schedule", "manual6",
        "--out", str(tmp_path / "o.wav"),
    ])
    assert code == EXIT_DATA


@pytest.mark.parametrize(
    "case",
    ["missing-param", "extra-param", "no-prior", "12-byte", "bad-mel-header", "ckpt-as-mel"],
)
def test_malformed_inputs_are_one_line_data_errors(case, corpus_dirs, tmp_path, capsys):
    good = tmp_path / "good.ckpt"
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0), config=TrainConfig())
    save_state(good, state, mel_cfg=MelConfig.toy())
    ckpt = tmp_path / "bad.ckpt"
    inp = sorted(corpus_dirs[1].glob("*.wav"))[0]
    edits = {"missing-param": drop_param, "extra-param": extra_param, "no-prior": no_prior}
    if case in edits:
        tensors, meta = load_tensors(good)
        edits[case](tensors, meta)
        save_tensors(ckpt, tensors, meta=meta)
    elif case == "12-byte":
        ckpt.write_bytes(good.read_bytes()[:12])
    else:
        ckpt = good
        inp = tmp_path / "x.mel"
        if case == "bad-mel-header":
            inp.write_bytes(b"GVMEL1\n\x10\x00\x00\x00\x00\x00\x00\x00{not json")
        else:
            inp.write_bytes(good.read_bytes())
    code = main([
        "synth", "--checkpoint", str(ckpt), "--input", str(inp),
        "--schedule", "manual6", "--out", str(tmp_path / "o.wav"),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def untrained_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("untrained") / "seed0.ckpt"
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0), config=TrainConfig())
    save_state(path, state, mel_cfg=MelConfig.toy())
    return path


def write_tone(path, n_samples, sample_rate=4000):
    path.parent.mkdir(parents=True, exist_ok=True)
    t = np.arange(n_samples) / sample_rate
    wav_write(path, Waveform(0.5 * np.sin(2 * np.pi * 200 * t), sample_rate))
    return path


def synth_argv(ckpt, inp, tmp_path, schedule="manual6"):
    return [
        "synth", "--checkpoint", str(ckpt), "--input", str(inp),
        "--schedule", schedule, "--out", str(tmp_path / "o.wav"),
    ]


def sweep_argv(ckpt, validation_dir, *extra):
    return ["sweep", "--checkpoint", str(ckpt), "--validation-dir", str(validation_dir),
            "--iterations", "1", "--budget", "1", "--refine-passes", "0", *extra]


def eval_argv(tmp_path, hyp_samples, hyp_rate):
    write_tone(tmp_path / "ref" / "a.wav", 400)
    write_tone(tmp_path / "hyp" / "a.wav", hyp_samples, hyp_rate)
    return ["eval", "--ref-dir", str(tmp_path / "ref"), "--hyp-dir", str(tmp_path / "hyp")]


def train_argv(tmp_path, data_dir, extra=""):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"data_dir = {data_dir}\nmax_steps = 1\nbatch_size = 1\n"
        f"checkpoint_dir = {tmp_path / 'ckpt'}\n{extra}"
    )
    return ["train", str(cfg)]


def short_mel(tmp_path):
    path = tmp_path / "five-bins.mel"
    save_mel(path, MelSpectrogram(values=np.zeros((5, 6)), config=MelConfig.toy()))
    return path


# each builds (argv, text the one error line must contain) from the untrained
# toy checkpoint, the held-out corpus directory and a scratch directory
DATA_ERRORS = {
    "eval-length": lambda ckpt, held, tmp: (eval_argv(tmp, 300, 4000), "a.wav"),
    "eval-rate": lambda ckpt, held, tmp: (eval_argv(tmp, 2400, 24000), "a.wav"),
    "train-rate": lambda ckpt, held, tmp: (
        train_argv(tmp, write_tone(tmp / "data" / "a.wav", 2400, 24000).parent),
        "sample rate"),
    "train-resume-missing": lambda ckpt, held, tmp: (
        train_argv(tmp, held, f"resume = {tmp / 'none.ckpt'}\n"), "checkpoint not found"),
    "sweep-rate": lambda ckpt, held, tmp: (
        sweep_argv(ckpt, write_tone(tmp / "val" / "a.wav", 2400, 24000).parent),
        "sample rate"),
    "sweep-short-wav": lambda ckpt, held, tmp: (
        sweep_argv(ckpt, write_tone(tmp / "val" / "a.wav", 10).parent), "window"),
    "synth-short-wav": lambda ckpt, held, tmp: (
        synth_argv(ckpt, write_tone(tmp / "a.wav", 10), tmp), "window"),
    "synth-mel-bins": lambda ckpt, held, tmp: (
        synth_argv(ckpt, short_mel(tmp), tmp), "5 mel bins"),
    "candidates-dir": lambda ckpt, held, tmp: (
        sweep_argv(ckpt, held, "--candidates-file", str(tmp)), "candidates file"),
}


@pytest.mark.parametrize("case", sorted(DATA_ERRORS))
def test_bad_data_is_one_line_data_error(case, untrained_ckpt, corpus_dirs, tmp_path, capsys):
    argv, expected = DATA_ERRORS[case](untrained_ckpt, corpus_dirs[1], tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


@pytest.mark.parametrize("command", ["synth", "sweep", "make-corpus"])
def test_negative_seed_is_usage_error(command, tmp_path, capsys):
    argv = {
        "synth": ["synth", "--checkpoint", "c", "--input", "x.wav", "--schedule", "manual6",
                  "--out", "o.wav"],
        "sweep": ["sweep", "--checkpoint", "c", "--validation-dir", "v"],
        "make-corpus": ["make-corpus", "--out", str(tmp_path)],
    }[command]
    code = main(argv + ["--seed", "-1"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"gradvoc {command}: error: argument --seed: seed must be >= 0, got -1"
    ]


@pytest.mark.parametrize(
    "extra, expected",
    [("learning_rte = 5\n", "'learning_rte'"), ("conditioning = foo\n", "'foo'"),
     ("conditioning = discrete\n", "'discrete_schedule'"),
     ("discrete_schedule = manual6\n", "'discrete_schedule'"),
     ("batch_size = 0\n", "batch_size"), ("batch_size = -2\n", "batch_size"),
     ("seed = -1\n", "seed"), ("segment_samples = 0\n", "segment_samples"),
     ("checkpoint_every = -1\n", "checkpoint_every"), ("max_steps = -1\n", "max_steps"),
     ("learning_rate = 0\n", "learning_rate"), ("learning_rate = -1\n", "learning_rate"),
     ("learning_rate = inf\n", "learning_rate"), ("learning_rate = nan\n", "learning_rate")],
)
def test_bad_train_config_is_usage_error(extra, expected, corpus_dirs, tmp_path, capsys):
    code = main(train_argv(tmp_path, corpus_dirs[0], extra))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize(
    "extra, code, expected",
    [("segment_samples = 255\n", EXIT_USAGE, "samples per mel frame"),
     ("segment_samples = 8000\n", EXIT_DATA, "at least one segment long")],
)
def test_segment_the_model_or_corpus_cannot_use(extra, code, expected, corpus_dirs,
                                                 tmp_path, capsys):
    assert main(train_argv(tmp_path, corpus_dirs[0], extra)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert not (tmp_path / "ckpt").exists()


def test_periodic_checkpoint_synthesizes_from_wav(corpus_dirs, tmp_path):
    assert main(train_argv(tmp_path, corpus_dirs[0], "checkpoint_every = 1\n")) == EXIT_OK
    ckpt = tmp_path / "ckpt" / "step0000001.ckpt"
    inp = sorted(corpus_dirs[1].glob("*.wav"))[0]
    # a short, high-noise schedule keeps this barely trained net's chain finite
    assert main(synth_argv(ckpt, inp, tmp_path, "linear(0.1,0.5,3)")) == EXIT_OK


@pytest.mark.parametrize(
    "spec, code",
    [("fibonacci(2000)", EXIT_USAGE), ("linear(1e-4,0.5,100000000000)", EXIT_USAGE),
     ("@{dir}", EXIT_USAGE), ("@{dir}/abc.txt", EXIT_USAGE), ("@{dir}/accent.txt", EXIT_USAGE),
     ("@{dir}/none.txt", EXIT_DATA)],
)
def test_bad_schedule_spec_is_one_line_error(spec, code, tmp_path, capsys):
    (tmp_path / "abc.txt").write_text("beta = abc\n")
    (tmp_path / "accent.txt").write_bytes("beta = 0.1 \u00e9\n".encode())
    assert main(["inspect-schedule", spec.format(dir=tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=300, deadline=None)
@given(content=st.binary(max_size=60) | st.text(max_size=60).map(str.encode))
def test_any_config_bytes_parse_or_raise_cli_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(content)
    try:
        parsed = parse_kv_file(path)
    except (UsageError, DataError):
        return
    assert all(key and "=" not in key for key in parsed)


def test_divergent_chain_names_the_step(untrained_ckpt, corpus_dirs, tmp_path, capsys):
    # the first training utterance (make-corpus's utt0000) drives this
    # untrained net's reverse chain to overflow
    inp = sorted(corpus_dirs[0].glob("*.wav"))[0]
    code = main(synth_argv(untrained_ckpt, inp, tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "reverse step n=" in err and "sqrt_alpha_bar=" in err


def test_divergent_chain_keeps_the_iterates_before_it(untrained_ckpt, corpus_dirs, tmp_path,
                                                      capsys):
    # the same chain overflows at n=2: y_6 .. y_2 exist and are written, y_1 never is
    inp = sorted(corpus_dirs[0].glob("*.wav"))[0]
    inter = tmp_path / "inter"
    code = main(synth_argv(untrained_ckpt, inp, tmp_path) + ["--emit-intermediates", str(inter)])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "reverse step n=2 " in err
    assert sorted(p.name for p in inter.iterdir()) == [f"iter{n:03d}.wav" for n in range(2, 7)]
    assert not (tmp_path / "o.wav").exists()


def test_sweep_budget_beyond_distinct_candidates_is_usage_error(
    toy_checkpoint, corpus_dirs, capsys
):
    # 54 grid values give 54 distinct 1-step schedules, so a budget of 60
    # cannot be met (the dedupe loop used to spin forever here)
    code = main([
        "sweep", "--checkpoint", str(toy_checkpoint),
        "--validation-dir", str(corpus_dirs[1]),
        "--iterations", "1", "--budget", "60", "--refine-passes", "0",
    ])
    assert code == EXIT_USAGE
    assert "54 distinct" in capsys.readouterr().err


@pytest.mark.parametrize("extra, expected", [
    (["--iterations", "1", "--budget", "0"], "argument --budget: budget must be >= 1, got 0"),
    (["--iterations", "1", "--budget", "-3"], "argument --budget: budget must be >= 1, got -3"),
    (["--candidates-file", "comments.txt"], "comments.txt: no candidate schedules"),
])
def test_sweep_with_nothing_to_score_is_usage_error(
    extra, expected, toy_checkpoint, corpus_dirs, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "comments.txt").write_text("# no schedules here\n\n")
    code = main(["sweep", "--checkpoint", str(toy_checkpoint),
                 "--validation-dir", str(corpus_dirs[1]), "--refine-passes", "0", *extra])
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert code == EXIT_USAGE
    assert len(errors) == 1 and errors[0].endswith(expected)


def test_negative_refine_passes_is_usage_error(capsys):
    code = main(["sweep", "--checkpoint", "c", "--validation-dir", "v",
                 "--refine-passes", "-3"])
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert code == EXIT_USAGE
    assert errors == ["gradvoc sweep: error: argument --refine-passes: "
                      "refine-passes must be >= 0, got -3"]


def test_sweep_fingerprint_covers_every_input(toy_checkpoint, corpus_dirs, tmp_path):
    one = tmp_path / "one"
    one.mkdir()
    first = sorted(corpus_dirs[1].glob("*.wav"))[0]
    (one / first.name).write_bytes(first.read_bytes())
    cands = tmp_path / "cands.txt"
    cands.write_text("manual(0.1)\n")
    variants = [[], ["--budget", "2"], ["--refine-passes", "1"],
                ["--candidates-file", str(cands)], ["--validation-dir", str(one)]]
    fingerprints = set()
    for extra in variants:
        out = tmp_path / "sweep.csv"
        assert main(sweep_argv(toy_checkpoint, corpus_dirs[1], *extra, "--out", str(out))) == 0
        fingerprints.add(out.read_text().splitlines()[0])
    assert len(fingerprints) == len(variants)


@pytest.mark.parametrize("log_dir", ["nodir", "ckpt"])
def test_loss_log_directory_is_checked_before_the_checkpoint_directory(
    log_dir, corpus_dirs, tmp_path, capsys
):
    # a log inside the checkpoint directory that training makes is fine;
    # a log in a directory that nothing makes leaves no checkpoint directory
    log = tmp_path / log_dir / "loss.csv"
    code = main(train_argv(tmp_path, corpus_dirs[0], f"loss_log = {log}\n"))
    err = capsys.readouterr().err
    if log_dir == "ckpt":
        assert code == EXIT_OK
        assert log.read_text().splitlines()[0] == "step,loss,wall_time_s"
    else:
        assert code == EXIT_DATA
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "loss_log" in err
        assert not (tmp_path / "ckpt").exists()


def test_train_command_and_loss_log(corpus_dirs, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"data_dir = {corpus_dirs[0]}\n"
        "model = toy\nmel = toy\nbatch_size = 2\nsegment_samples = 256\n"
        "learning_rate = 1e-3\nmax_steps = 3\nseed = 0\n"
        f"checkpoint_dir = {tmp_path / 'ckpt'}\n"
        f"loss_log = {tmp_path / 'loss.csv'}\n"
    )
    assert main(["train", str(cfg)]) == EXIT_OK
    assert (tmp_path / "ckpt" / "final.ckpt").exists()
    lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss,wall_time_s"
    assert len(lines) == 4


def test_synth_deterministic_output(toy_checkpoint, corpus_dirs, tmp_path):
    wav = sorted(corpus_dirs[1].glob("*.wav"))[0]
    outs = []
    for name in ("a.wav", "b.wav"):
        out = tmp_path / name
        code = main([
            "synth", "--checkpoint", str(toy_checkpoint), "--input", str(wav),
            "--schedule", "manual6", "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_synth_emit_intermediates(toy_checkpoint, corpus_dirs, tmp_path):
    wav = sorted(corpus_dirs[1].glob("*.wav"))[0]
    inter = tmp_path / "inter"
    code = main([
        "synth", "--checkpoint", str(toy_checkpoint), "--input", str(wav),
        "--schedule", "manual6", "--seed", "1",
        "--out", str(tmp_path / "o.wav"), "--emit-intermediates", str(inter),
    ])
    assert code == EXIT_OK
    snaps = sorted(inter.glob("iter*.wav"))
    assert len(snaps) == 7  # y_6 .. y_0
    assert wav_read(tmp_path / "o.wav").samples.shape == (4000,)
    assert (inter / "iter000.wav").read_bytes() == (tmp_path / "o.wav").read_bytes()


def test_emit_intermediates_holds_one_iterate_at_a_time(toy_checkpoint, corpus_dirs, tmp_path):
    # each iterate is written as the chain makes it, so a 200-step chain on a
    # 4000-sample utterance peaks below the 201 float64 iterates a list would hold
    wav = sorted(corpus_dirs[1].glob("*.wav"))[0]
    argv = synth_argv(toy_checkpoint, wav, tmp_path, "linear(1e-4,0.05,200)")
    tracemalloc.start()
    try:
        code = main(argv + ["--emit-intermediates", str(tmp_path / "inter")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert len(list((tmp_path / "inter").iterdir())) == 201
    assert peak < 201 * 4000 * 8


@pytest.fixture(scope="module")
def no_mel_ckpt(trained_toy, tmp_path_factory):
    """The trained toy model, saved without its mel config."""
    path = tmp_path_factory.mktemp("no-mel") / "toy.ckpt"
    save_state(path, trained_toy["state"])
    return path


@pytest.mark.parametrize("checkpoint", ["toy_checkpoint", "no_mel_ckpt"])
def test_synth_from_the_models_own_mel_matches_the_wav(checkpoint, toy_checkpoint, corpus_dirs,
                                                       tmp_path, request):
    wav = sorted(corpus_dirs[1].glob("*.wav"))[0]
    mel = tmp_path / "x.mel"
    save_mel(mel, mel_spectrogram(wav_read(wav), MelConfig.toy()))
    assert main(synth_argv(request.getfixturevalue(checkpoint), mel, tmp_path)) == EXIT_OK
    from_mel = (tmp_path / "o.wav").read_bytes()
    assert main(synth_argv(toy_checkpoint, wav, tmp_path)) == EXIT_OK
    assert (tmp_path / "o.wav").read_bytes() == from_mel


# each gives (checkpoint fixture, mel analysis, text the one error line must contain)
FOREIGN_MELS = {
    "hop": ("toy_checkpoint", replace(MelConfig.toy(), hop_length=8), "hop_length 8 (model: 4)"),
    "rate": ("toy_checkpoint", replace(MelConfig.toy(), sample_rate=8000),
             "sample_rate 8000 (model: 4000)"),
    "no-mel-config-hop": ("no_mel_ckpt", replace(MelConfig.toy(), hop_length=8),
                          "hop_length 8 (model: 4)"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_MELS))
def test_synth_refuses_a_mel_the_model_was_not_trained_on(case, tmp_path, request,
                                                          monkeypatch, capsys):
    checkpoint, cfg, expected = FOREIGN_MELS[case]
    ckpt = request.getfixturevalue(checkpoint)
    mel = tmp_path / "x.mel"
    save_mel(mel, MelSpectrogram(values=np.zeros((8, 6)), config=cfg))
    calls, predict = [], DenoiserModel.predict
    monkeypatch.setattr(DenoiserModel, "predict",
                        lambda self, *a: calls.append(a) or predict(self, *a))
    code = main(synth_argv(ckpt, mel, tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert calls == [] and not (tmp_path / "o.wav").exists()


# each gives (--out, --emit-intermediates or None) under a scratch directory
# holding the file "file"
BAD_DESTINATIONS = {
    "out-no-dir": lambda tmp: (tmp / "nodir" / "o.wav", None),
    "out-under-file": lambda tmp: (tmp / "file" / "o.wav", None),
    "out-is-dir": lambda tmp: (tmp, None),
    "intermediates-is-file": lambda tmp: (tmp / "o.wav", tmp / "file"),
    "intermediates-under-file": lambda tmp: (tmp / "o.wav", tmp / "file" / "inter"),
}


@pytest.mark.parametrize("case", sorted(BAD_DESTINATIONS))
def test_bad_destination_fails_before_synthesis(case, untrained_ckpt, corpus_dirs, tmp_path,
                                                monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    out, inter = BAD_DESTINATIONS[case](tmp_path)
    argv = synth_argv(untrained_ckpt, sorted(corpus_dirs[1].glob("*.wav"))[0], tmp_path)
    argv[argv.index("--out") + 1] = str(out)
    if inter is not None:
        argv += ["--emit-intermediates", str(inter)]
    calls, predict = [], DenoiserModel.predict
    monkeypatch.setattr(DenoiserModel, "predict",
                        lambda self, *a: calls.append(a) or predict(self, *a))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("command", ["eval", "inspect-schedule"])
def test_unwritable_output_is_one_line_data_error(command, corpus_dirs, tmp_path, capsys):
    """An OSError other than a missing file also maps to exit 2 and one line."""
    argv = {
        "eval": ["eval", "--ref-dir", str(corpus_dirs[1]), "--hyp-dir", str(corpus_dirs[1])],
        "inspect-schedule": ["inspect-schedule", "manual6"],
    }[command]
    code = main(argv + ["--out", str(tmp_path)])  # a directory: IsADirectoryError
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1


def test_synth_refuses_schedule_change_on_discrete_checkpoint(
    toy_mel_config, corpus_dirs, tmp_path
):
    trained_on = linear_schedule(1e-4, 0.005, 1000)
    state = TrainState(
        model=DenoiserModel(ModelConfig.toy(), seed=0),
        config=TrainConfig(segment_samples=SEGMENT, discrete_schedule=trained_on),
    )
    ckpt = tmp_path / "discrete.ckpt"
    save_state(ckpt, state, mel_cfg=toy_mel_config)
    wav = sorted(corpus_dirs[1].glob("*.wav"))[0]
    code = main([
        "synth", "--checkpoint", str(ckpt), "--input", str(wav),
        "--schedule", "manual6", "--out", str(tmp_path / "o.wav"),
    ])
    assert code == EXIT_USAGE


def test_eval_identical_dirs_all_zero(corpus_dirs, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main([
        "eval", "--ref-dir", str(corpus_dirs[1]), "--hyp-dir", str(corpus_dirs[1]),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config-fingerprint:")
    assert lines[1] == "utterance,ls_mse,mcd,ffe"
    for row in lines[2:]:
        cells = row.split(",")
        assert [float(c) for c in cells[1:]] == [0.0, 0.0, 0.0]


def test_eval_disjoint_dirs_is_data_error(corpus_dirs, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["eval", "--ref-dir", str(corpus_dirs[1]), "--hyp-dir", str(empty)])
    assert code == EXIT_DATA


def test_eval_partial_overlap_warns(corpus_dirs, tmp_path, capsys):
    partial = tmp_path / "partial"
    partial.mkdir()
    src = sorted(corpus_dirs[1].glob("*.wav"))[0]
    (partial / src.name).write_bytes(src.read_bytes())
    code = main(["eval", "--ref-dir", str(corpus_dirs[1]), "--hyp-dir", str(partial)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "unmatched" in captured.err


def test_sweep_single_fixed_candidate(toy_checkpoint, corpus_dirs, tmp_path):
    cands = tmp_path / "cands.txt"
    cands.write_text("manual(1e-4,1e-3,9e-3,5e-2,2e-1,5e-1)\n")
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--checkpoint", str(toy_checkpoint),
        "--validation-dir", str(corpus_dirs[1]),
        "--candidates-file", str(cands), "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # fingerprint, header, one candidate
    rank, score, betas = lines[2].split(",", 2)
    assert rank == "1" and float(score) > 0
    assert betas == "0.0001;0.001;0.009;0.05;0.2;0.5"


def test_sweep_random_candidates_non_decreasing(toy_checkpoint, corpus_dirs, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--checkpoint", str(toy_checkpoint),
        "--validation-dir", str(corpus_dirs[1]),
        "--iterations", "3", "--budget", "3", "--refine-passes", "0",
        "--seed", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()[2:]
    scores = []
    for row in lines:
        _, score, betas = row.split(",", 2)
        values = [float(b) for b in betas.split(";")]
        assert values == sorted(values)
        scores.append(float(score))
    assert scores == sorted(scores)


def test_inspect_schedule_fibonacci_rows(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["inspect-schedule", "fibonacci25", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    table = [l for l in lines if not l.startswith("#")]
    assert table[0] == "n,beta,alpha_bar,ell,sigma"
    assert table[1].startswith("1,1e-06,")
    assert table[2].startswith("2,2e-06,")
    assert table[3].startswith("3,3e-06,")


def test_inspect_schedule_kl_of_a_wav(tmp_path):
    wav = write_tone(tmp_path / "y0.wav", 400)
    out = tmp_path / "f.csv"
    assert main(["inspect-schedule", "fibonacci25", "--y0", str(wav), "--out", str(out)]) == EXIT_OK
    line = next(l for l in out.read_text().splitlines() if "terminal_kl_per_dim" in l)
    y0 = wav_read(wav).samples
    expected = kl_terminal_diagnostic(resolve_schedule("fibonacci25"), y0) / y0.size
    assert float(line.split(" = ")[1]) == expected


def test_inspect_schedule_fingerprint_covers_y0(tmp_path):
    fingerprints = []
    for name, samples in (("a.wav", 400), ("b.wav", 800)):
        out = tmp_path / "f.csv"
        wav = write_tone(tmp_path / name, samples)
        assert main(["inspect-schedule", "fibonacci25", "--y0", str(wav),
                     "--out", str(out)]) == EXIT_OK
        fingerprints.append(out.read_text().splitlines()[0])
    assert fingerprints[0] != fingerprints[1]


def test_env_roots_resolve_relative_paths(corpus_dirs, tmp_path, monkeypatch):
    """Relative data and checkpoint paths resolve under the two root variables,
    not under the working directory."""
    data_root = corpus_dirs[0].parent
    monkeypatch.setenv("GRADVOC_DATA_ROOT", str(data_root))
    monkeypatch.setenv("GRADVOC_CHECKPOINT_ROOT", str(tmp_path / "runs"))
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"data_dir = {corpus_dirs[0].name}\nmax_steps = 1\nbatch_size = 1\n"
                   "checkpoint_dir = toy\n")
    assert main(["train", str(cfg)]) == EXIT_OK
    assert (tmp_path / "runs" / "toy" / "final.ckpt").exists()

    cands = tmp_path / "cands.txt"
    cands.write_text("linear(0.1,0.5,3)\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--checkpoint", "toy/final.ckpt",
                 "--validation-dir", corpus_dirs[1].name,
                 "--candidates-file", str(cands), "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 3
    assert list((tmp_path / "cwd").iterdir()) == []


def test_inspect_schedule_warnings(tmp_path, capsys):
    assert main(["inspect-schedule", "manual(1e-6,2e-6,3e-6)"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "condition-1" in err

    assert main(["inspect-schedule", "linear1000"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    assert "# warning" not in captured.out


def test_make_corpus(tmp_path):
    out = tmp_path / "c"
    code = main([
        "make-corpus", "--out", str(out), "--count", "2",
        "--duration", "0.5", "--mel", "toy",
    ])
    assert code == EXIT_OK
    wavs = sorted(out.glob("*.wav"))
    assert len(wavs) == 2
    assert wav_read(wavs[0]).sample_rate == 4000


@pytest.mark.parametrize("count", ["-2", "0"])
def test_make_corpus_with_no_utterances_is_usage_error(count, tmp_path, capsys):
    out = tmp_path / "c"
    code = main(["make-corpus", "--out", str(out), "--count", count])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"gradvoc make-corpus: error: argument --count: count must be >= 1, got {count}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf", "1e-6"])
def test_make_corpus_with_no_samples_is_usage_error(duration, tmp_path, capsys):
    out = tmp_path / "c"
    code = main(["make-corpus", "--out", str(out), "--duration", duration])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == (f"error: --duration must be finite and >= one sample (0.00025 s), "
                   f"got {float(duration)}\n")
    assert not out.exists()

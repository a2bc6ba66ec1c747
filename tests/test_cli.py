"""Command-line surface: config parsing, exit codes, and file outputs."""

import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradvoc.cli
import gradvoc.dsp
from gradvoc.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    MEL_PROFILES,
    MODEL_PROFILES,
    DataError,
    UsageError,
    main,
    parse_kv_file,
    resolve_schedule,
)
from gradvoc.checkpoint import load_tensors, save_tensors
from gradvoc.data import generate_corpus
from gradvoc.dsp import (
    WAV_MAX_SAMPLES, MelConfig, MelSpectrogram, Waveform, mel_spectrogram, save_mel, wav_read,
    wav_write,
)
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.schedule import kl_terminal_diagnostic, linear_schedule
from gradvoc.train import TrainConfig, TrainState, check_mel_config, load_state, save_state
from conftest import SEGMENT
from test_checkpoint import drop_param, extra_param, mel_hop_8, no_prior, rewrite


def test_parse_kv_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nkey = value\n\nnum=3\n")
    assert parse_kv_file(p) == {"key": "value", "num": "3"}


def test_parse_kv_refuses_a_repeated_key(tmp_path):
    p = tmp_path / "twice.cfg"
    p.write_text("batch_size = 1\n# later\nbatch_size = 2\n")
    with pytest.raises(UsageError, match=r"twice\.cfg:3: key 'batch_size' already set on line 1"):
        parse_kv_file(p)


def test_parse_kv_refuses_an_empty_value(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("max_steps = 2\nresume =  \n")
    with pytest.raises(UsageError, match=r"empty\.cfg:2: key 'resume' has no value"):
        parse_kv_file(p)


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
    """A one-step, one-item train run; the ``extra`` lines replace any key they set."""
    keys = {"data_dir": data_dir, "max_steps": 1, "batch_size": 1,
            "checkpoint_dir": tmp_path / "ckpt"}
    for line in extra.splitlines():
        keys.pop(line.partition("=")[0].strip(), None)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()) + extra)
    return ["train", str(cfg)]


def toy_mel(tmp_path, values):
    path = tmp_path / "x.mel"
    save_mel(path, MelSpectrogram(values=values, config=MelConfig.toy()))
    return path


def mel_with(value):
    values = np.zeros((8, 6))
    values[3, 2] = value
    return values


def out_in_no_dir(tmp):
    return ["--out", str(tmp / "nodir" / "x.csv")]


OUT_IN_NO_DIR = "nodir/x.csv: not a file name in an existing directory"

# each builds (argv, text the one error line must contain) from the untrained
# toy checkpoint, the held-out corpus directory and a scratch directory
DATA_ERRORS = {
    "eval-length": lambda ckpt, held, tmp: (eval_argv(tmp, 300, 4000), "a.wav"),
    "eval-rate": lambda ckpt, held, tmp: (eval_argv(tmp, 2400, 24000), "a.wav"),
    "eval-no-profile": lambda ckpt, held, tmp: (
        ["eval", "--ref-dir", str(write_tone(tmp / "a" / "a.wav", 800, 8000).parent),
         "--hyp-dir", str(tmp / "a")], "no metric mel profile for sample rate 8000"),
    # the scratch directory holds only the config
    "train-no-wavs": lambda ckpt, held, tmp: (train_argv(tmp, tmp), "no WAV files in"),
    "train-rate": lambda ckpt, held, tmp: (
        train_argv(tmp, write_tone(tmp / "data" / "a.wav", 2400, 24000).parent),
        "sample rate"),
    "train-resume-missing": lambda ckpt, held, tmp: (
        train_argv(tmp, held, f"resume = {tmp / 'none.ckpt'}\n"), "checkpoint not found"),
    # a resumed run reads its corpus at the checkpoint's rate
    "train-resume-rate": lambda ckpt, held, tmp: (
        train_argv(tmp, write_tone(tmp / "data" / "a.wav", 2400, 24000).parent,
                   f"resume = {ckpt}\n"), "sample rate"),
    "sweep-rate": lambda ckpt, held, tmp: (
        sweep_argv(ckpt, write_tone(tmp / "val" / "a.wav", 2400, 24000).parent),
        "sample rate"),
    "sweep-short-wav": lambda ckpt, held, tmp: (
        sweep_argv(ckpt, write_tone(tmp / "val" / "a.wav", 10).parent), "window"),
    "synth-short-wav": lambda ckpt, held, tmp: (
        synth_argv(ckpt, write_tone(tmp / "a.wav", 10), tmp), "window"),
    "synth-mel-bins": lambda ckpt, held, tmp: (
        synth_argv(ckpt, toy_mel(tmp, np.zeros((5, 6))), tmp), "x.mel: 5 mel bins"),
    "synth-mel-no-frames": lambda ckpt, held, tmp: (
        synth_argv(ckpt, toy_mel(tmp, np.zeros((8, 0))), tmp), "x.mel: a mel of no frames"),
    "synth-mel-nan": lambda ckpt, held, tmp: (
        synth_argv(ckpt, toy_mel(tmp, mel_with(np.nan)), tmp), "x.mel: mel values must be finite"),
    "synth-mel-inf": lambda ckpt, held, tmp: (
        synth_argv(ckpt, toy_mel(tmp, mel_with(-np.inf)), tmp),
        "x.mel: mel values must be finite"),
    # its KL per sample divided by zero
    "inspect-empty-y0": lambda ckpt, held, tmp: (
        ["inspect-schedule", "manual6", "--y0", str(write_tone(tmp / "empty.wav", 0))],
        "empty.wav: a WAV of no samples"),
    "candidates-dir": lambda ckpt, held, tmp: (
        sweep_argv(ckpt, held, "--candidates-file", str(tmp)), "candidates file"),
    # --out is checked before any work, not when the output is written
    "synth-out-no-dir": lambda ckpt, held, tmp: (
        synth_argv(ckpt, sorted(held.glob("*.wav"))[0], tmp) + out_in_no_dir(tmp),
        OUT_IN_NO_DIR),
    "sweep-out-no-dir": lambda ckpt, held, tmp: (
        sweep_argv(ckpt, held, *out_in_no_dir(tmp)), OUT_IN_NO_DIR),
    "eval-out-no-dir": lambda ckpt, held, tmp: (
        ["eval", "--ref-dir", str(held), "--hyp-dir", str(held), *out_in_no_dir(tmp)],
        OUT_IN_NO_DIR),
    "inspect-out-no-dir": lambda ckpt, held, tmp: (
        ["inspect-schedule", "manual6", *out_in_no_dir(tmp)], OUT_IN_NO_DIR),
}


@pytest.mark.parametrize("case", sorted(DATA_ERRORS))
def test_bad_data_is_one_line_data_error(case, untrained_ckpt, corpus_dirs, tmp_path, capsys):
    argv, expected = DATA_ERRORS[case](untrained_ckpt, corpus_dirs[1], tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


def config_argv(tmp_path, text):
    (tmp_path / "train.cfg").write_text(text)
    return ["train", str(tmp_path / "train.cfg")]


def discrete_ckpt(tmp_path):
    config = TrainConfig(segment_samples=SEGMENT, discrete_schedule=resolve_schedule("manual6"))
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0), config=config)
    save_state(tmp_path / "discrete.ckpt", state, mel_cfg=MelConfig.toy())
    return tmp_path / "discrete.ckpt"


# as DATA_ERRORS, each refused with exit 1
USAGE_ERRORS = {
    "synth-input-type": lambda ckpt, held, tmp: (
        synth_argv(ckpt, tmp / "x.txt", tmp), "unsupported input type '.txt'"),
    "sweep-discrete": lambda ckpt, held, tmp: (
        sweep_argv(discrete_ckpt(tmp), held), "sweep requires a continuous-mode checkpoint"),
    "train-empty-key": lambda ckpt, held, tmp: (
        config_argv(tmp, f"data_dir = {held}\n = 5\n"), "train.cfg:2: empty key"),
    "train-no-data-dir": lambda ckpt, held, tmp: (
        config_argv(tmp, "max_steps = 1\n"), "train.cfg: missing required key 'data_dir'"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_bad_usage_is_one_line_usage_error(case, untrained_ckpt, corpus_dirs, tmp_path, capsys):
    argv, expected = USAGE_ERRORS[case](untrained_ckpt, corpus_dirs[1], tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


def test_sweep_checks_its_out_before_it_synthesizes(untrained_ckpt, corpus_dirs, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(gradvoc.cli, "synthesize", lambda *a, **k: pytest.fail("synthesized"))
    argv = sweep_argv(untrained_ckpt, corpus_dirs[1], *out_in_no_dir(tmp_path))
    assert main(argv) == EXIT_DATA


@pytest.mark.parametrize("step", [-3, True, 2.5, "4"])
def test_a_resumed_checkpoints_step_must_be_a_count(step, untrained_ckpt, corpus_dirs, tmp_path,
                                                    capsys):
    """A step of -3 used to reach the step's generator and end in numpy's
    traceback; the others were taken as 1, 2 and 4."""
    def edit(tensors, meta):
        meta["step"] = step
        meta["train"]["segment_samples"] = SEGMENT  # the corpus's utterances are long enough

    bad = rewrite(untrained_ckpt, tmp_path / "step.ckpt", edit)
    code = main(train_argv(tmp_path, corpus_dirs[0], f"resume = {bad}\n"))
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {bad}: bad checkpoint metadata: step must be "
                                       f"a non-negative integer, got {step!r}\n")


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
    [("learning_rte = 5\n", "'learning_rte'"), ("model = huge\n", "'huge'"),
     # the model picks its mel analysis, and discrete_schedule the conditioning
     ("mel = toy\n", "'mel'"), ("conditioning = continuous\n", "'conditioning'"),
     # the resumed checkpoint brings its model and seed
     ("model = toy\nresume = {ckpt}\n", "'model'"), ("seed = 5\nresume = {ckpt}\n", "'seed'"),
     # and its conditioning
     ("discrete_schedule = manual6\nresume = {ckpt}\n", "'discrete_schedule'"),
     # a schedule whose alpha_bar underflows to 0 at step 708
     ("discrete_schedule = linear(0.5,0.9,1000)\n", "'discrete_schedule'"),
     ("batch_size = 0\n", "batch_size"), ("batch_size = -2\n", "batch_size"),
     ("seed = -1\n", "seed"), ("segment_samples = 0\n", "segment_samples"),
     ("checkpoint_every = -1\n", "checkpoint_every"), ("max_steps = -1\n", "max_steps"),
     ("learning_rate = 0\n", "learning_rate"), ("learning_rate = -1\n", "learning_rate"),
     ("learning_rate = inf\n", "learning_rate"), ("learning_rate = nan\n", "learning_rate")],
)
def test_bad_train_config_is_usage_error(extra, expected, untrained_ckpt, corpus_dirs, tmp_path,
                                         capsys):
    code = main(train_argv(tmp_path, corpus_dirs[0], extra.format(ckpt=untrained_ckpt)))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    # an unread key is named in quotes; a setting out of range states its range
    assert (expected if expected.startswith("'") else f"{expected} must be ") in err
    assert not (tmp_path / "ckpt").exists()


def test_every_model_profile_takes_its_mel_profile():
    for model_profile, mel_name, segment in MODEL_PROFILES.values():
        check_mel_config(model_profile(), MEL_PROFILES[mel_name]())
        assert segment % model_profile().samples_per_frame == 0


def test_a_discrete_schedule_alone_trains_a_discrete_checkpoint(corpus_dirs, tmp_path):
    assert main(train_argv(tmp_path, corpus_dirs[0], "discrete_schedule = manual6\n")) == EXIT_OK
    final = tmp_path / "ckpt" / "final.ckpt"
    assert "discrete_schedule" in load_tensors(final)[1]
    assert load_state(final)[0].config.discrete_schedule == resolve_schedule("manual6")


def train_run(tmp_path, name, text):
    """Run `train` on ``text`` into ``tmp_path / name``; return its step,loss rows."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"{text}checkpoint_dir = {tmp_path / name}\n"
                   f"loss_log = {tmp_path / name}.csv\n")
    assert main(["train", str(cfg)]) == EXIT_OK
    rows = (tmp_path / f"{name}.csv").read_text().splitlines()
    return [row.rsplit(",", 1)[0] for row in rows if row[0].isdigit()]  # step,loss


def train_six_steps(data_dir, tmp_path, name, extra):
    """Run `train` to step 6 into ``tmp_path / name``; return its step,loss rows."""
    return train_run(tmp_path, name, f"data_dir = {data_dir}\nbatch_size = 2\n"
                     f"learning_rate = 1e-3\nmax_steps = 6\n{extra}")


def test_resumed_train_command_repeats_the_uninterrupted_losses(corpus_dirs, tmp_path):
    full = train_six_steps(corpus_dirs[0], tmp_path, "full", "seed = 3\ncheckpoint_every = 3\n")
    resumed = train_six_steps(corpus_dirs[0], tmp_path, "resumed",
                              f"resume = {tmp_path / 'full' / 'step0000003.ckpt'}\n")
    assert [row.split(",")[0] for row in full] == [str(step) for step in range(1, 7)]
    assert resumed == full[3:]


def test_resume_keeps_the_checkpoints_discrete_conditioning(corpus_dirs, tmp_path):
    full = train_six_steps(corpus_dirs[0], tmp_path, "full",
                           "discrete_schedule = manual6\ncheckpoint_every = 3\n")
    resumed = train_six_steps(corpus_dirs[0], tmp_path, "resumed",
                              f"resume = {tmp_path / 'full' / 'step0000003.ckpt'}\n")
    assert "discrete_schedule" in load_tensors(tmp_path / "resumed" / "final.ckpt")[1]
    assert resumed == full[3:]


@pytest.mark.parametrize("model, segment, sample_rate", [("toy", 256, 4000),
                                                    ("base", 7200, 24000)])
def test_each_model_profile_brings_its_default_segment(model, segment, sample_rate, tmp_path):
    generate_corpus(tmp_path / "data", 1, segment, sample_rate, seed=0)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'data'}\nmodel = {model}\nmax_steps = 0\n"
                   f"checkpoint_dir = {tmp_path / 'ckpt'}\n")
    assert main(["train", str(cfg)]) == EXIT_OK
    assert load_state(tmp_path / "ckpt" / "final.ckpt")[0].config.segment_samples == segment


def test_a_resumed_run_keeps_its_checkpoints_segment(corpus_dirs, tmp_path):
    for name, extra in (("first", "segment_samples = 128\n"),
                        ("resumed", f"resume = {tmp_path / 'first' / 'final.ckpt'}\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"data_dir = {corpus_dirs[0]}\nmax_steps = 0\n"
                       f"checkpoint_dir = {tmp_path / name}\n{extra}")
        assert main(["train", str(cfg)]) == EXIT_OK
        assert load_state(tmp_path / name / "final.ckpt")[0].config.segment_samples == 128


# a run whose five settings all differ from TrainConfig's defaults
SETTINGS = ("learning_rate = 2e-3\nbatch_size = 2\ncheckpoint_every = 1\n"
            "training_prior = linear(1e-5,0.02,100)\nmax_steps = 4\n")


def test_a_resumed_run_keeps_its_checkpoints_settings(corpus_dirs, tmp_path):
    full = train_run(tmp_path, "full", f"data_dir = {corpus_dirs[0]}\n{SETTINGS}")
    # no max_steps: the run trains on to its checkpoint's target
    resumed = train_run(tmp_path, "resumed", f"data_dir = {corpus_dirs[0]}\n"
                        f"resume = {tmp_path / 'full' / 'step0000002.ckpt'}\n")
    config = load_state(tmp_path / "resumed" / "final.ckpt")[0].config
    assert config == load_state(tmp_path / "full" / "final.ckpt")[0].config
    assert (config.learning_rate, config.batch_size, config.checkpoint_every,
            config.training_prior, config.max_steps) == (
        2e-3, 2, 1, linear_schedule(1e-5, 0.02, 100), 4)
    assert resumed == full[2:]


@pytest.mark.parametrize("key, text, value", [
    ("learning_rate", "5e-4", 5e-4), ("batch_size", "3", 3), ("checkpoint_every", "2", 2),
    ("training_prior", "linear1000", linear_schedule(1e-4, 0.005, 1000)),
    ("max_steps", "3", 3), ("segment_samples", "128", 128),
])
def test_a_setting_in_the_resume_config_wins(key, text, value, corpus_dirs, tmp_path):
    train_run(tmp_path, "first", f"data_dir = {corpus_dirs[0]}\n{SETTINGS}")
    train_run(tmp_path, "resumed", f"data_dir = {corpus_dirs[0]}\n{key} = {text}\n"
              f"resume = {tmp_path / 'first' / 'step0000002.ckpt'}\n")
    first = load_state(tmp_path / "first" / "final.ckpt")[0].config
    resumed = load_state(tmp_path / "resumed" / "final.ckpt")[0].config
    assert resumed == replace(first, **{key: value})


def test_train_reads_each_train_config_field_and_five_run_keys(corpus_dirs, tmp_path,
                                                               monkeypatch):
    # a TrainConfig field without a key could not be set from a config
    looked_up = set()

    class ReadKeys(dict):
        def __contains__(self, key):
            looked_up.add(key)
            return super().__contains__(key)

    monkeypatch.setattr(gradvoc.cli, "parse_kv_file", lambda path: ReadKeys(parse_kv_file(path)))
    assert main(train_argv(tmp_path, corpus_dirs[0], "max_steps = 0\n")) == EXIT_OK
    keys = {f.name for f in fields(TrainConfig)} | {
        "resume", "model", "data_dir", "checkpoint_dir", "loss_log"}
    assert looked_up == keys and len(keys) == 13
    # a resumed run's checkpoint brings its model, seed and conditioning
    looked_up.clear()
    resume = f"max_steps = 0\nresume = {tmp_path / 'ckpt' / 'final.ckpt'}\n"
    assert main(train_argv(tmp_path, corpus_dirs[0], resume)) == EXIT_OK
    assert looked_up == keys - {"model", "seed", "discrete_schedule"}


@pytest.mark.parametrize("key, line", [("resume", 5), ("checkpoint_dir", 4), ("loss_log", 5)])
def test_empty_train_config_value_is_usage_error(key, line, corpus_dirs, tmp_path, monkeypatch,
                                                  capsys):
    """An empty value is refused, not read as an absent key: `resume =` would
    start a fresh run, and `checkpoint_dir =` train into the working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(train_argv(tmp_path, corpus_dirs[0], f"{key} =\n")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"train.cfg:{line}: key '{key}' has no value" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.cfg"]


@pytest.mark.parametrize(
    "extra, code, expected",
    [("segment_samples = 255\n", EXIT_USAGE, "samples per mel frame"),
     ("segment_samples = 8000\n", EXIT_DATA, "at least one segment long"),
     # shorter than the toy (32) and base (1200) mel windows
     ("segment_samples = 8\n", EXIT_USAGE, "32-sample mel window"),
     ("model = base\nsegment_samples = 300\ndata_dir = {full}\n", EXIT_USAGE,
      "1200-sample mel window")],
)
def test_segment_the_model_or_corpus_cannot_use(extra, code, expected, corpus_dirs,
                                                 tmp_path, capsys):
    full = write_tone(tmp_path / "full" / "a.wav", 2400, 24000).parent
    assert main(train_argv(tmp_path, corpus_dirs[0], extra.format(full=full))) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert not (tmp_path / "ckpt").exists()


def refuse(*args, **kwargs):
    raise AssertionError("a config refusal built a model or read the corpus")


@pytest.mark.parametrize("extra", ["segment_samples = 255\n", "segment_samples = 8\n",
                                   "model = base\nsegment_samples = 300\n"])
def test_a_segment_the_model_cannot_use_is_refused_before_the_model(extra, corpus_dirs,
                                                                   tmp_path, monkeypatch):
    # a base model's init alone takes seconds; a config check needs none
    monkeypatch.setattr(gradvoc.cli, "DenoiserModel", refuse)
    monkeypatch.setattr(gradvoc.cli, "load_corpus", refuse)
    assert main(train_argv(tmp_path, corpus_dirs[0], extra)) == EXIT_USAGE


def test_periodic_checkpoint_synthesizes_from_wav(corpus_dirs, tmp_path):
    assert main(train_argv(tmp_path, corpus_dirs[0], "checkpoint_every = 1\n")) == EXIT_OK
    ckpt = tmp_path / "ckpt" / "step0000001.ckpt"
    inp = sorted(corpus_dirs[1].glob("*.wav"))[0]
    # a short, high-noise schedule keeps this barely trained net's chain finite
    assert main(synth_argv(ckpt, inp, tmp_path, "linear(0.1,0.5,3)")) == EXIT_OK


@pytest.mark.parametrize(
    "spec, code",
    [("fibonacci(2000)", EXIT_USAGE), ("linear(1e-4,0.5,100000000000)", EXIT_USAGE),
     ("manual(1e-20,1e-20,0.5)", EXIT_USAGE), ("linear(0.5,0.9,1000)", EXIT_USAGE),
     ("@{dir}", EXIT_USAGE), ("@{dir}/abc.txt", EXIT_USAGE), ("@{dir}/accent.txt", EXIT_USAGE),
     ("@{dir}/none.txt", EXIT_DATA)],
)
def test_bad_schedule_spec_is_one_line_error(spec, code, tmp_path, capsys):
    (tmp_path / "abc.txt").write_text("beta = abc\n")
    (tmp_path / "accent.txt").write_bytes("beta = 0.1 \u00e9\n".encode())
    assert main(["inspect-schedule", spec.format(dir=tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, spec", [
    # alpha_bar underflows to 0 at step 708; beta_1 = 1e-20 leaves alpha_bar_1 at 1
    ("synth", "linear(0.5,0.9,1000)"), ("synth", "manual(1e-20,0.5)"),
    ("sweep", "linear(0.5,0.9,1000)"), ("sweep", "manual(1e-20,0.5)"),
])
def test_unusable_schedule_is_one_line_usage_error(command, spec, untrained_ckpt, corpus_dirs,
                                                   tmp_path, capsys):
    if command == "synth":
        argv = synth_argv(untrained_ckpt, sorted(corpus_dirs[1].glob("*.wav"))[0], tmp_path, spec)
    else:
        cands = tmp_path / "cands.txt"
        cands.write_text(f"manual6\n{spec}\n")
        argv = sweep_argv(untrained_ckpt, corpus_dirs[1], "--candidates-file", str(cands))
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: step ") and err.count("\n") == 1
    assert not (tmp_path / "o.wav").exists()


@settings(max_examples=300, deadline=None)
@given(content=st.binary(max_size=60) | st.text(max_size=60).map(str.encode))
def test_any_config_bytes_parse_or_raise_cli_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(content)
    try:
        parsed = parse_kv_file(path)
    except (UsageError, DataError):
        return
    assert all(key and "=" not in key and value for key, value in parsed.items())


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
    # it ended in a UnicodeDecodeError traceback
    (["--candidates-file", "binary.txt"], "binary.txt: not a text file: 'utf-8' codec can't "
                                          "decode byte 0xff in position 0: invalid start byte"),
])
def test_sweep_with_nothing_to_score_is_usage_error(
    extra, expected, toy_checkpoint, corpus_dirs, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "comments.txt").write_text("# no schedules here\n\n")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00bad")
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


def first_wavs(corpus_dir, tmp_path, count=1):
    """A new directory holding copies of the first ``count`` WAVs of ``corpus_dir``."""
    out = tmp_path / f"first{count}"
    out.mkdir()
    for wav in sorted(corpus_dir.glob("*.wav"))[:count]:
        (out / wav.name).write_bytes(wav.read_bytes())
    return out


def test_sweep_fingerprint_covers_every_input(toy_checkpoint, corpus_dirs, tmp_path):
    one = first_wavs(corpus_dirs[1], tmp_path)
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


def two_candidates(tmp_path):
    cands = tmp_path / "cands.txt"
    cands.write_text("manual6\nmanual(1e-4,1e-3,9e-3,5e-2,2e-1,5e-1)\n")
    return cands


def test_sweep_fingerprint_skips_options_a_candidates_file_replaces(
    toy_checkpoint, corpus_dirs, tmp_path
):
    val, cands = first_wavs(corpus_dirs[1], tmp_path), two_candidates(tmp_path)
    outputs = []
    for budget in ("1", "5"):
        out = tmp_path / f"budget{budget}.csv"
        assert main(["sweep", "--checkpoint", str(toy_checkpoint), "--validation-dir", str(val),
                     "--candidates-file", str(cands), "--budget", budget,
                     "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def record_mel_work(monkeypatch):
    """Record the config of every mel analysis and filterbank build in gradvoc.dsp."""
    mels, banks = [], []
    analyse, build = gradvoc.dsp.mel_spectrogram, gradvoc.dsp.mel_filterbank
    monkeypatch.setattr(gradvoc.dsp, "mel_spectrogram",
                        lambda y, cfg: mels.append(cfg) or analyse(y, cfg))
    monkeypatch.setattr(gradvoc.dsp, "mel_filterbank", lambda cfg: banks.append(cfg) or build(cfg))
    return mels, banks


def test_sweep_builds_each_filterbank_once(toy_checkpoint, corpus_dirs, tmp_path, monkeypatch):
    val, cands = first_wavs(corpus_dirs[1], tmp_path), two_candidates(tmp_path)
    _, banks = record_mel_work(monkeypatch)
    assert main(["sweep", "--checkpoint", str(toy_checkpoint), "--validation-dir", str(val),
                 "--candidates-file", str(cands), "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    # one conditioning analysis (hop 4) and one metric analysis (hop 2)
    assert sorted(cfg.hop_length for cfg in banks) == [2, 4]


def test_sweep_makes_each_references_metric_mel_once(toy_checkpoint, corpus_dirs, tmp_path,
                                                     monkeypatch):
    """Every candidate's synthesis has the same length, so a reference's
    metric mel is made once per command, not once per candidate."""
    two = first_wavs(corpus_dirs[1], tmp_path, count=2)
    hops = []
    analyse = gradvoc.dsp.mel_spectrogram
    for module in (gradvoc.dsp, gradvoc.cli):
        monkeypatch.setattr(module, "mel_spectrogram",
                            lambda y, cfg: hops.append(cfg.hop_length) or analyse(y, cfg))
    assert main(["sweep", "--checkpoint", str(toy_checkpoint), "--validation-dir", str(two),
                 "--candidates-file", str(two_candidates(tmp_path)),
                 "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    # per utterance: its conditioning (hop 4), then its reference and each
    # candidate's synthesis under the metric framing (hop 2)
    assert sorted(hops) == [2] * (2 + 2 * 2) + [4] * 2


def test_eval_makes_one_metric_mel_per_signal(corpus_dirs, tmp_path, monkeypatch):
    two = first_wavs(corpus_dirs[1], tmp_path, count=2)
    mels, banks = record_mel_work(monkeypatch)
    assert main(["eval", "--ref-dir", str(two), "--hyp-dir", str(two),
                 "--out", str(tmp_path / "e.csv")]) == EXIT_OK
    assert len(mels) == 4  # the ref and hyp mel of each pair, shared by LS-MSE and MCD
    assert len(banks) == 1


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
        "model = toy\nbatch_size = 2\nsegment_samples = 256\n"
        "learning_rate = 1e-3\nmax_steps = 3\nseed = 0\n"
        f"checkpoint_dir = {tmp_path / 'ckpt'}\n"
        f"loss_log = {tmp_path / 'loss.csv'}\n"
    )
    assert main(["train", str(cfg)]) == EXIT_OK
    assert (tmp_path / "ckpt" / "final.ckpt").exists()
    lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss,wall_time_s"
    assert len(lines) == 4


def test_diverging_training_is_one_line_numeric_error(corpus_dirs, tmp_path, capsys):
    """A learning rate that throws the weights far off makes a later step's
    forward overflow: the run exits 3 with one line, and no numpy warning,
    an error under this suite's filter, escapes on the way."""
    run = "learning_rate = 1e6\nmax_steps = 4\nbatch_size = 4\n"
    code = main(train_argv(tmp_path, corpus_dirs[0], run))
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("error: non-finite ") and err.count("\n") == 1


def test_a_diverging_run_names_the_step_its_loss_failed_at(corpus_dirs, tmp_path, capsys):
    """The non-finite loss names its batch item and its step, the one after
    the last step the loss log holds."""
    log = tmp_path / "loss.csv"
    run = f"learning_rate = 1e6\nmax_steps = 5\nbatch_size = 4\nloss_log = {log}\n"
    code = main(train_argv(tmp_path, corpus_dirs[0], run))
    err = capsys.readouterr().err
    step = len(log.read_text().splitlines())  # the header and one row per step done
    assert code == EXIT_NUMERIC
    assert re.fullmatch(rf"error: non-finite loss at batch index \d of step {step}\n", err), err


def test_a_loss_log_gets_its_header_exactly_when_it_is_empty(corpus_dirs, tmp_path):
    """A fresh run appending to a log of rows used to write a second header
    among them, and a resumed run into a new log wrote rows with none."""
    log = tmp_path / "loss.csv"

    def train(extra):
        run = f"max_steps = 2\ncheckpoint_every = 1\nloss_log = {log}\n"
        assert main(train_argv(tmp_path, corpus_dirs[0], run + extra)) == EXIT_OK
        return [row.split(",")[0] for row in log.read_text().splitlines()]

    assert train("") == ["step", "1", "2"]
    assert train("") == ["step", "1", "2", "1", "2"]
    log.unlink()
    resume = f"resume = {tmp_path / 'ckpt' / 'step0000001.ckpt'}\n"
    assert train(resume) == ["step", "2"]


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


def test_emit_intermediates_refuses_a_directory_with_iterates(toy_checkpoint, corpus_dirs,
                                                              tmp_path, monkeypatch, capsys):
    # a 3-step chain into the directory of a 6-step one would leave iter004-iter006
    # of the first beside its own iter000-iter003
    wav = sorted(corpus_dirs[1].glob("*.wav"))[0]
    inter = tmp_path / "inter"
    argv = synth_argv(toy_checkpoint, wav, tmp_path) + ["--emit-intermediates", str(inter)]
    assert main(argv) == EXIT_OK
    first = {p.name: p.read_bytes() for p in inter.iterdir()}
    assert len(first) == 7
    (tmp_path / "o.wav").unlink()
    capsys.readouterr()

    calls, predict = [], DenoiserModel.predict
    monkeypatch.setattr(DenoiserModel, "predict",
                        lambda self, *a: calls.append(a) or predict(self, *a))
    argv[argv.index("--schedule") + 1] = "linear(0.1,0.5,3)"
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(inter) in err
    assert calls == [] and not (tmp_path / "o.wav").exists()
    assert {p.name: p.read_bytes() for p in inter.iterdir()} == first


def test_synth_from_the_models_own_mel_matches_the_wav(toy_checkpoint, corpus_dirs, tmp_path):
    wav = sorted(corpus_dirs[1].glob("*.wav"))[0]
    mel = tmp_path / "x.mel"
    save_mel(mel, mel_spectrogram(wav_read(wav), MelConfig.toy()))
    assert main(synth_argv(toy_checkpoint, mel, tmp_path)) == EXIT_OK
    from_mel = (tmp_path / "o.wav").read_bytes()
    assert main(synth_argv(toy_checkpoint, wav, tmp_path)) == EXIT_OK
    assert (tmp_path / "o.wav").read_bytes() == from_mel


# each gives (mel analysis, text the one error line must contain)
FOREIGN_MELS = {
    "hop": (replace(MelConfig.toy(), hop_length=8), "hop_length 8 (model: 4)"),
    "rate": (replace(MelConfig.toy(), sample_rate=8000), "sample_rate 8000 (model: 4000)"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_MELS))
def test_synth_refuses_a_mel_the_model_was_not_trained_on(case, toy_checkpoint, tmp_path,
                                                          monkeypatch, capsys):
    cfg, expected = FOREIGN_MELS[case]
    mel = tmp_path / "x.mel"
    save_mel(mel, MelSpectrogram(values=np.zeros((8, 6)), config=cfg))
    calls, predict = [], DenoiserModel.predict
    monkeypatch.setattr(DenoiserModel, "predict",
                        lambda self, *a: calls.append(a) or predict(self, *a))
    code = main(synth_argv(toy_checkpoint, mel, tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert calls == [] and not (tmp_path / "o.wav").exists()


def test_checkpoint_with_a_mel_analysis_its_model_cannot_take(untrained_ckpt, corpus_dirs,
                                                               tmp_path, capsys):
    """A recorded hop of 8 against the model's 4 samples per frame is refused at load."""
    ckpt = rewrite(untrained_ckpt, tmp_path / "hop8.ckpt", mel_hop_8)
    wav = sorted(corpus_dirs[1].glob("*.wav"))[0]
    for argv in (synth_argv(ckpt, wav, tmp_path), sweep_argv(ckpt, corpus_dirs[1])):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "mel hop 8" in err
    assert not (tmp_path / "o.wav").exists()


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
    """A directory as ``--out`` is refused with exit 2 and one line."""
    argv = {
        "eval": ["eval", "--ref-dir", str(corpus_dirs[1]), "--hyp-dir", str(corpus_dirs[1])],
        "inspect-schedule": ["inspect-schedule", "manual6"],
    }[command]
    code = main(argv + ["--out", str(tmp_path)])
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


def test_sweep_takes_references_off_a_frame_boundary(toy_checkpoint, tmp_path, capsys):
    # 4003 samples leave 3 past the last whole 4-sample frame: more than one
    # metric hop (2), less than one conditioning hop
    val = tmp_path / "val"
    generate_corpus(val, n_utterances=2, n_samples=4003, sample_rate=4000, seed=100)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--checkpoint", str(toy_checkpoint), "--validation-dir", str(val),
                 "--candidates-file", str(two_candidates(tmp_path)),
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 4  # fingerprint, header, two candidates


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


def test_a_refine_pass_without_a_gain_ends_the_search(toy_checkpoint, corpus_dirs, tmp_path):
    """One position: the first pass takes the grid's best 1-step schedule,
    so the second finds no gain and stops; every grid value was scored once."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--checkpoint", str(toy_checkpoint),
                 "--validation-dir", str(first_wavs(corpus_dirs[1], tmp_path)),
                 "--iterations", "1", "--budget", "1", "--refine-passes", "2",
                 "--out", str(out)]) == EXIT_OK
    rows = [row.split(",") for row in out.read_text().splitlines()[2:]]
    assert sorted(float(betas) for _, _, betas in rows) == list(gradvoc.cli.SWEEP_GRID)


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


def test_inspect_schedule_warns_of_a_large_first_beta(capsys):
    """The chain ends near noise (terminal KL per dimension 0.025), but its
    first step skips the fine-grained regime."""
    assert main(["inspect-schedule", "manual(0.01,0.5,0.9)"]) == EXIT_OK
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning:" in line]
    assert len(warnings) == 1 and warnings[0].startswith("warning: condition-2 violation: ")


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


@pytest.mark.parametrize("duration", ["1e300", repr((WAV_MAX_SAMPLES + 1.5) / 4000)],
                         ids=["1e300", "one-sample-past"])
def test_make_corpus_longer_than_a_wav_holds_is_usage_error(duration, tmp_path, capsys,
                                                             monkeypatch):
    """A 16-bit mono WAV's 32-bit RIFF size field caps it at 2**31 - 19
    samples; a longer duration is refused before any signal is made."""
    assert WAV_MAX_SAMPLES == (2**32 - 1 - 36) // 2
    assert int(float(duration) * 4000) > WAV_MAX_SAMPLES
    monkeypatch.setattr(gradvoc.cli, "generate_corpus", lambda *a, **k: pytest.fail("generated"))
    out = tmp_path / "c"
    code = main(["make-corpus", "--out", str(out), "--duration", duration])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --duration must be at most {WAV_MAX_SAMPLES} samples at 4000 Hz, "
        f"the most a 16-bit mono WAV holds, got {float(duration)}\n")
    assert not out.exists()

"""Command-line surface: config parsing, exit codes, and file outputs."""

import numpy as np
import pytest

from gradvoc.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_kv_file,
    resolve_schedule,
)
from gradvoc.checkpoint import load_tensors, save_tensors
from gradvoc.dsp import MelConfig, MelSpectrogram, Waveform, save_mel, wav_read, wav_write
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.schedule import linear_schedule
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


def synth_argv(ckpt, inp, tmp_path):
    return [
        "synth", "--checkpoint", str(ckpt), "--input", str(inp),
        "--schedule", "manual6", "--out", str(tmp_path / "o.wav"),
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
    [("learning_rte = 5\n", "'learning_rte'"), ("conditioning = foo\n", "'foo'")],
)
def test_bad_train_config_is_usage_error(extra, expected, corpus_dirs, tmp_path, capsys):
    code = main(train_argv(tmp_path, corpus_dirs[0], extra))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert not (tmp_path / "ckpt").exists()


def test_divergent_chain_names_the_step(untrained_ckpt, corpus_dirs, tmp_path, capsys):
    # the first training utterance (make-corpus's utt0000) drives this
    # untrained net's reverse chain to overflow
    inp = sorted(corpus_dirs[0].glob("*.wav"))[0]
    code = main(synth_argv(untrained_ckpt, inp, tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "reverse step n=" in err and "sqrt_alpha_bar=" in err


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


def test_synth_refuses_schedule_change_on_discrete_checkpoint(
    toy_mel_config, corpus_dirs, tmp_path
):
    trained_on = linear_schedule(1e-4, 0.005, 1000)
    state = TrainState(
        model=DenoiserModel(ModelConfig.toy(), seed=0),
        config=TrainConfig(
            segment_samples=SEGMENT,
            conditioning_mode="discrete",
            discrete_schedule=trained_on,
        ),
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

"""Training loop: batching, objective floors, determinism, resumability."""

import math

import numpy as np
import pytest

from gradvoc.checkpoint import CheckpointError, load_tensors, save_tensors
from gradvoc.diffusion import forward_diffuse
from gradvoc.dsp import Waveform
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.schedule import linear_schedule
from gradvoc.tensor import Tensor
from gradvoc.train import (
    TrainConfig,
    TrainError,
    TrainState,
    load_state,
    make_batch,
    run_training,
    save_state,
    step_rng,
    train_step,
)
from conftest import SEGMENT, TOY_SR, toy_mel
from oracles import evaluate_loss, loss_l1, optimal_gaussian_epsilon


def fresh_state(seed=0, **overrides):
    config = TrainConfig(
        segment_samples=SEGMENT, batch_size=2, learning_rate=1e-3,
        max_steps=10, seed=seed, **overrides,
    )
    return TrainState(model=DenoiserModel(ModelConfig.toy(), seed=seed), config=config)


# -- batching ------------------------------------------------------------------------


def test_batch_repeats_single_full_length_utterance(train_set, toy_mel_config):
    utt = train_set[0]
    batch = make_batch([utt], np.random.default_rng(0), 3, len(utt), toy_mel_config)
    assert len(batch) == 3
    for y0, mel in batch:
        assert np.array_equal(y0, utt.samples)
        assert mel.shape == (8, len(utt) // toy_mel_config.hop_length)


def test_batch_crops_are_hop_aligned(train_set, toy_mel_config):
    utt = train_set[0]
    batch = make_batch([utt], np.random.default_rng(1), 8, SEGMENT, toy_mel_config)
    hop = toy_mel_config.hop_length
    for y0, mel in batch:
        hits = [
            off for off in range(0, len(utt) - SEGMENT + 1)
            if np.array_equal(utt.samples[off : off + SEGMENT], y0)
        ]
        assert hits, "crop not found in source utterance"
        assert any(off % hop == 0 for off in hits)
        assert mel.shape[1] * utt_samples_per_frame() == SEGMENT


def utt_samples_per_frame():
    return ModelConfig.toy().samples_per_frame


def test_empty_dataset_rejected(toy_mel_config):
    with pytest.raises(TrainError):
        make_batch([], np.random.default_rng(0), 2, SEGMENT, toy_mel_config)


def test_short_utterances_skipped_with_warning(train_set, toy_mel_config, caplog):
    short = Waveform(np.zeros(SEGMENT // 2), TOY_SR)
    with caplog.at_level("WARNING"):
        batch = make_batch(
            [short, train_set[0]], np.random.default_rng(0), 4, SEGMENT, toy_mel_config
        )
    assert len(batch) == 4
    assert any("skipping" in rec.message for rec in caplog.records)
    with pytest.raises(TrainError):
        make_batch([short], np.random.default_rng(0), 2, SEGMENT, toy_mel_config)


def test_run_warns_once_per_short_utterance(train_set, toy_mel_config, caplog):
    short = Waveform(np.zeros(100), TOY_SR)
    config = TrainConfig(batch_size=1, segment_samples=SEGMENT, max_steps=3)
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0), config=config)
    with caplog.at_level("WARNING"):
        state = run_training(state, [train_set[0], short], toy_mel_config)
    assert state.step == 3
    assert [rec.message for rec in caplog.records if "skipping" in rec.message] == [
        "skipping 0.025s utterance shorter than one 256-sample segment"
    ]


# -- objective floors ----------------------------------------------------------------


def test_zero_predictor_loss_is_folded_normal_mean(train_set, toy_mel_config):
    """A model that always predicts zero noise scores E|eps| = sqrt(2/pi)."""

    class ZeroModel:
        config = ModelConfig.toy()

        def forward(self, y_noisy, mel, sqrt_alpha_bar):
            return Tensor(np.zeros((1, len(y_noisy))))

    config = TrainConfig(segment_samples=SEGMENT, batch_size=16, seed=0)
    batch = make_batch(train_set, np.random.default_rng(5), 16, SEGMENT, toy_mel_config)
    loss = evaluate_loss(ZeroModel(), batch, config)
    # 16 x 256 folded-normal draws: standard error ~ 0.6/sqrt(4096) ~ 0.01
    assert loss == pytest.approx(math.sqrt(2 / math.pi), abs=0.04)


def test_oracle_predictor_reaches_analytic_floor():
    """With y0 ~ N(mu, s2), the best achievable per-element L1 loss is
    sqrt(2/pi * abar*s2 / (abar*s2 + 1 - abar)); the Bayes predictor hits it."""
    rng = np.random.default_rng(6)
    mu, s2, sab = 0.3, 1.5, 0.8
    abar = sab**2
    n = 200_000
    y0 = mu + math.sqrt(s2) * rng.standard_normal(n)
    eps = rng.standard_normal(n)
    y_noisy = forward_diffuse(y0, sab, eps)
    pred = optimal_gaussian_epsilon(y_noisy, sab, mu, s2)
    floor = math.sqrt(2 / math.pi * abar * s2 / (abar * s2 + 1 - abar))
    assert loss_l1(pred, eps) == pytest.approx(floor, rel=0.01)


# -- determinism and optimization -----------------------------------------------------


def run_steps(state, dataset, mel_cfg, n, start=0):
    losses = []
    for step in range(start, start + n):
        rng = step_rng(state.config.seed, step)
        batch = make_batch(
            dataset, rng, state.config.batch_size, state.config.segment_samples, mel_cfg
        )
        state, loss = train_step(state, batch, rng)
        losses.append(loss)
    return state, losses


def test_identical_seeds_identical_losses(train_set, toy_mel_config):
    _, a = run_steps(fresh_state(seed=3), train_set, toy_mel_config, 8)
    _, b = run_steps(fresh_state(seed=3), train_set, toy_mel_config, 8)
    assert a == b
    _, c = run_steps(fresh_state(seed=4), train_set, toy_mel_config, 8)
    assert a != c


def test_loss_decreases(train_set, toy_mel_config):
    _, losses = run_steps(fresh_state(seed=0), train_set, toy_mel_config, 60)
    assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:5])


def test_resume_reproduces_uninterrupted_run(train_set, toy_mel_config, tmp_path):
    full_state, full = run_steps(fresh_state(seed=7), train_set, toy_mel_config, 20)

    half_state, first = run_steps(fresh_state(seed=7), train_set, toy_mel_config, 10)
    half_state.step = 10
    path = tmp_path / "mid.ckpt"
    save_state(path, half_state, mel_cfg=toy_mel_config)
    resumed, mel_back = load_state(path)
    assert resumed.step == 10
    assert mel_back == toy_mel_config
    _, second = run_steps(resumed, train_set, toy_mel_config, 10, start=10)
    assert first + second == full


def test_discrete_conditioning_mode(train_set, toy_mel_config):
    state = fresh_state(seed=1, discrete_schedule=linear_schedule(1e-4, 0.05, 50))
    _, losses = run_steps(state, train_set, toy_mel_config, 3)
    assert all(np.isfinite(losses))


def test_discrete_mode_requires_schedule(tmp_path):
    # a config is discrete exactly when it holds a schedule; a checkpoint
    # whose metadata says discrete but carries none is refused
    path = tmp_path / "s.ckpt"
    save_state(path, fresh_state(discrete_schedule=linear_schedule(1e-4, 0.05, 50)))
    tensors, meta = load_tensors(path)
    assert meta["conditioning_mode"] == "discrete"
    del meta["discrete_schedule"]
    save_tensors(path, tensors, meta=meta)
    with pytest.raises(CheckpointError, match="discrete_schedule"):
        load_state(path)


def test_run_training_writes_log_and_checkpoints(train_set, toy_mel_config, tmp_path):
    state = fresh_state(seed=2)
    state.config.max_steps = 6
    state.config.checkpoint_every = 3
    log_path = tmp_path / "loss.csv"
    out = run_training(
        state, train_set, toy_mel_config,
        loss_log_path=log_path, checkpoint_dir=tmp_path,
    )
    assert out.step == 6
    lines = log_path.read_text().splitlines()
    assert lines[0] == "step,loss,wall_time_s"
    assert len(lines) == 7
    assert (tmp_path / "step0000003.ckpt").exists()


def test_run_training_rejects_misaligned_segment(train_set, toy_mel_config):
    state = fresh_state(seed=0)
    state.config.segment_samples = 255  # not divisible by the 4-sample hop
    with pytest.raises(TrainError):
        run_training(state, train_set, toy_mel_config)

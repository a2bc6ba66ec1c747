"""Training loop: batching, objective floors, determinism, resumability."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import gradvoc.dsp
from gradvoc.checkpoint import CheckpointError, load_tensors, save_tensors
from gradvoc.diffusion import forward_diffuse
from gradvoc.dsp import MelConfig, Waveform, mel_filterbank, mel_spectrogram
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.schedule import linear_schedule
from gradvoc.tensor import Tensor
from gradvoc.train import (
    CLIP_NORM,
    TrainConfig,
    TrainError,
    TrainState,
    _batch_loss,
    load_state,
    make_batch,
    run_training,
    save_state,
    step_rng,
    train_step,
)
from conftest import SEGMENT, TOY_SR, toy_mel
import oracles
from gradvoc import tensor as T
from oracles import (
    evaluate_loss,
    loop_batch_loss,
    loop_train_step,
    loss_l1,
    optimal_gaussian_epsilon,
)


def fresh_state(seed=0, **overrides):
    config = TrainConfig(
        segment_samples=SEGMENT, batch_size=2, learning_rate=1e-3,
        max_steps=10, seed=seed, **overrides,
    )
    return TrainState(model=DenoiserModel(ModelConfig.toy(), seed=seed), config=config)


# -- batching ------------------------------------------------------------------------


def test_batch_repeats_single_full_length_utterance(train_set, toy_mel_config):
    utt = train_set[0]
    crops, mels = make_batch([utt], np.random.default_rng(0), 3, len(utt), toy_mel_config)
    assert crops.shape == (3, len(utt))
    assert mels.shape == (3, 8, len(utt) // toy_mel_config.hop_length)
    for y0 in crops:
        assert np.array_equal(y0, utt.samples)


def test_batch_crops_are_hop_aligned(train_set, toy_mel_config):
    utt = train_set[0]
    batch = make_batch([utt], np.random.default_rng(1), 8, SEGMENT, toy_mel_config)
    hop = toy_mel_config.hop_length
    for y0, mel in zip(*batch):
        hits = [
            off for off in range(0, len(utt) - SEGMENT + 1)
            if np.array_equal(utt.samples[off : off + SEGMENT], y0)
        ]
        assert hits, "crop not found in source utterance"
        assert any(off % hop == 0 for off in hits)
        assert mel.shape[1] * utt_samples_per_frame() == SEGMENT


def utt_samples_per_frame():
    return ModelConfig.toy().samples_per_frame


def test_batches_share_one_filterbank(train_set, monkeypatch):
    built = []
    monkeypatch.setattr(gradvoc.dsp, "mel_filterbank",
                        lambda cfg: built.append(cfg) or mel_filterbank(cfg))
    cfg, rng = toy_mel(), np.random.default_rng(0)
    for _ in range(5):
        make_batch(train_set, rng, 4, SEGMENT, cfg)
    assert built == [cfg]


def test_cached_analysis_stays_out_of_the_config_and_checkpoint(tmp_path):
    state = fresh_state()
    used, fresh = toy_mel(), toy_mel()
    assert used.filterbank.shape == (8, 17) and used.metric.hop_length == 2
    assert used == fresh and hash(used) == hash(fresh) and asdict(used) == asdict(fresh)
    save_state(tmp_path / "used.ckpt", state, mel_cfg=used)
    save_state(tmp_path / "fresh.ckpt", state, mel_cfg=fresh)
    assert (tmp_path / "used.ckpt").read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()


@pytest.mark.parametrize("cfg, segment", [(toy_mel(), SEGMENT), (MelConfig(), 7200)],
                         ids=["toy", "base"])
def test_batch_mels_are_each_crops_own_analysis(cfg, segment):
    """One analysis of the stacked crops gives each crop's own mel, byte for byte."""
    rng = np.random.default_rng(5)
    lengths = (segment, 2 * segment + 3 * cfg.hop_length, 3 * segment)
    corpus = [Waveform(0.3 * rng.standard_normal(n), cfg.sample_rate) for n in lengths]
    crops, mels = make_batch(corpus, np.random.default_rng(6), 4, segment, cfg)
    assert len(crops) == len(mels) == 4
    for y0, mel in zip(crops, mels):
        want = mel_spectrogram(Waveform(y0, cfg.sample_rate), cfg).values
        assert mel.dtype == want.dtype and mel.shape == want.shape
        assert mel.tobytes() == want.tobytes()


def test_a_drawn_utterance_at_another_rate_raises_the_analysis_error(toy_mel_config):
    wrong = Waveform(np.zeros(SEGMENT), 8000)
    with pytest.raises(ValueError) as want:
        mel_spectrogram(wrong, toy_mel_config)
    with pytest.raises(ValueError) as got:
        make_batch([wrong], np.random.default_rng(0), 2, SEGMENT, toy_mel_config)
    assert str(got.value) == str(want.value) == "waveform rate 8000 != config rate 4000"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_steps_on_kept_columns_and_handed_over_gradients_equal_the_copying_rebuild(
        dtype, train_set, monkeypatch):
    """Losses, weights and Adam moments of 3 toy steps, byte for byte, against
    the backward that copies every first gradient and rebuilds every column
    matrix."""

    def train():
        config = TrainConfig(segment_samples=SEGMENT, batch_size=4, learning_rate=2e-3, seed=3)
        state = TrainState(model=DenoiserModel(ModelConfig.toy(dtype), seed=0), config=config)
        losses = []
        for _ in range(3):
            rng = step_rng(3, state.step + 1)
            state, loss = train_step(state, make_batch(train_set, rng, 4, SEGMENT, toy_mel()),
                                     rng)
            losses.append(loss)
        store = state.flat_store()
        return [np.array(losses).tobytes()] + [a.tobytes() for a in (store.values, store.m,
                                                                        store.v)]

    got = train()
    monkeypatch.setattr(T, "_accumulate", oracles.accumulate_copying)
    monkeypatch.setattr(T, "_conv_backward", oracles.conv_backward_rebuilt)
    assert got == train()


def test_empty_dataset_rejected(toy_mel_config):
    with pytest.raises(TrainError):
        make_batch([], np.random.default_rng(0), 2, SEGMENT, toy_mel_config)


def test_short_utterances_skipped_with_warning(train_set, toy_mel_config, caplog):
    short = Waveform(np.zeros(SEGMENT // 2), TOY_SR)
    with caplog.at_level("WARNING"):
        batch = make_batch(
            [short, train_set[0]], np.random.default_rng(0), 4, SEGMENT, toy_mel_config
        )
    assert [len(part) for part in batch] == [4, 4]
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


# -- one batched graph per step against the per-item loop ----------------------------


def loss_and_grads(model, batch, config, batch_loss):
    for p in model.parameters().values():
        p.grad = None
    loss = batch_loss(model, batch, config, np.random.default_rng(12345))
    loss.backward()
    return float(loss.data), {k: p.grad for k, p in model.parameters().items()}


@pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-6)])
def test_batched_loss_draws_like_the_item_loop(train_set, toy_mel_config, dtype, tol):
    """Same levels and noise in the same order: the one-graph loss and its
    gradients equal those of the per-item loop."""
    model = DenoiserModel(ModelConfig.toy(dtype), seed=6)
    config = TrainConfig(segment_samples=SEGMENT, batch_size=5, seed=0)
    batch = make_batch(train_set, np.random.default_rng(7), 5, SEGMENT, toy_mel_config)
    loop = evaluate_loss(model, batch, config, batch_loss=loop_batch_loss)
    assert evaluate_loss(model, batch, config) == pytest.approx(loop, rel=tol)

    _, grads = loss_and_grads(model, batch, config, _batch_loss)
    _, want = loss_and_grads(model, batch, config, loop_batch_loss)
    for k, g in grads.items():
        assert np.max(np.abs(g - want[k])) <= tol * np.max(np.abs(want[k])), k


def test_non_finite_item_names_its_batch_index(train_set, toy_mel_config, monkeypatch):
    """The forward refuses a non-finite input, so the fault goes into item
    2's prediction, as a diverged network would put it there."""
    batch = make_batch(train_set, np.random.default_rng(8), 4, SEGMENT, toy_mel_config)
    state = fresh_state(seed=0)
    forward = state.model.forward

    def diverged(y_noisy, mel, levels):
        out = forward(y_noisy, mel, levels)
        out.data[2, 0, 3] = np.nan
        return out

    monkeypatch.setattr(state.model, "forward", diverged)
    before = {k: p.data.copy() for k, p in state.model.parameters().items()}
    with pytest.raises(TrainError, match="non-finite loss at batch index 2 of step 1$"):
        train_step(state, batch, np.random.default_rng(9))
    assert state.step == 0
    assert all(np.array_equal(p.data, before[k]) for k, p in state.model.parameters().items())


def test_non_finite_mel_item_is_refused_before_the_step(train_set, toy_mel_config):
    crops, mels = make_batch(train_set, np.random.default_rng(8), 4, SEGMENT, toy_mel_config)
    mels = mels.copy()
    mels[2, 1, 3] = np.nan
    state = fresh_state(seed=0)
    before = {k: p.data.copy() for k, p in state.model.parameters().items()}
    with pytest.raises(ValueError, match="non-finite mel"):
        train_step(state, (crops, mels), np.random.default_rng(9))
    assert state.step == 0
    assert all(np.array_equal(p.data, before[k]) for k, p in state.model.parameters().items())


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_gradient_is_refused_before_adam(bad, train_set, toy_mel_config,
                                                     monkeypatch):
    """A finite loss whose gradient holds an inf or nan stops the step before
    Adam: weights, moments and the step count stay byte for byte as they
    were, so no checkpoint can hold what the update would have made."""
    state, _ = run_steps(fresh_state(seed=0), train_set, toy_mel_config, 1)
    store = state.flat_store()
    before = [a.tobytes() for a in (store.values, store.m, store.v)]
    backward = Tensor.backward

    def poisoned(self):
        backward(self)
        store.grad[5] = bad

    monkeypatch.setattr(Tensor, "backward", poisoned)
    rng = step_rng(state.config.seed, 2)
    batch = make_batch(train_set, rng, 2, SEGMENT, toy_mel_config)
    with pytest.raises(TrainError, match="non-finite gradient norm at step 2$"):
        train_step(state, batch, rng)
    assert state.step == 1
    assert [a.tobytes() for a in (store.values, store.m, store.v)] == before
    assert state.flat_store() is store


# -- objective floors ----------------------------------------------------------------


def test_zero_predictor_loss_is_folded_normal_mean(train_set, toy_mel_config):
    """A model that always predicts zero noise scores E|eps| = sqrt(2/pi)."""

    class ZeroModel:
        config = ModelConfig.toy()

        def forward(self, y_noisy, mel, sqrt_alpha_bar):
            return Tensor(np.zeros((len(y_noisy), 1, y_noisy.shape[-1])))

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


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_loaded_checkpoints_train_on_byte_for_byte(train_set, toy_mel_config, tmp_path, dtype):
    """30 steps that save and reload their state every 10 steps give the
    losses and archives of 30 uninterrupted steps, byte for byte.  A loaded
    state's parameters and moments view the archive's buffer until its first
    step copies them into the flat store."""

    def fresh():
        config = TrainConfig(segment_samples=SEGMENT, batch_size=2, learning_rate=1e-3, seed=6)
        return TrainState(model=DenoiserModel(ModelConfig.toy(dtype), seed=1), config=config)

    straight, straight_losses = run_steps(fresh(), train_set, toy_mel_config, 30)
    save_state(tmp_path / "straight.ckpt", straight, mel_cfg=toy_mel_config)
    state, losses = fresh(), []
    for start in (0, 10, 20):
        state, more = run_steps(state, train_set, toy_mel_config, 10, start=start)
        losses += more
        save_state(tmp_path / f"step{start + 10}.ckpt", state, mel_cfg=toy_mel_config)
        state, _ = load_state(tmp_path / f"step{start + 10}.ckpt")
    assert losses == straight_losses
    assert (tmp_path / "step30.ckpt").read_bytes() == (tmp_path / "straight.ckpt").read_bytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flat_store_steps_like_the_per_parameter_loop(train_set, toy_mel_config, tmp_path,
                                                      dtype):
    """30 steps of the flat store against the loop it replaced: losses
    bit-identical, weights, moments and checkpoints byte-identical.  Before
    step 10 both sides rebind every weight to zeros, as a caller may, and the
    gradient norm falls under the clip; before step 20 the store's side
    restarts from its own checkpoint."""

    def fresh():
        config = TrainConfig(segment_samples=SEGMENT, batch_size=2, learning_rate=1e-3, seed=5)
        return TrainState(model=DenoiserModel(ModelConfig.toy(dtype), seed=0), config=config)

    flat, loop = fresh(), fresh()
    norms = []
    for step in range(30):
        if step == 10:
            for state in (flat, loop):
                for p in state.model.parameters().values():
                    p.data = np.zeros_like(p.data)
        if step == 20:
            save_state(tmp_path / "mid.ckpt", flat, mel_cfg=toy_mel_config)
            flat, _ = load_state(tmp_path / "mid.ckpt")
        losses = []
        for state, step_fn in ((flat, train_step), (loop, loop_train_step)):
            rng = step_rng(5, step + 1)
            batch = make_batch(train_set, rng, 2, SEGMENT, toy_mel_config)
            losses.append(step_fn(state, batch, rng)[1])
        assert losses[0] == losses[1], step
        grads = [p.grad.astype(np.float64) for p in loop.model.parameters().values()]
        norms.append(math.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    assert max(norms) > CLIP_NORM >= min(norms)

    got, want = flat.model.parameters(), loop.model.parameters()
    assert list(got) == list(want) == list(flat.adam_m) == list(loop.adam_m)
    for name in want:
        assert got[name].data.tobytes() == want[name].data.tobytes(), name
        for moments in ("adam_m", "adam_v"):
            a, b = getattr(flat, moments)[name], getattr(loop, moments)[name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (moments, name)
    for state, name in ((flat, "flat.ckpt"), (loop, "loop.ckpt")):
        save_state(tmp_path / name, state, mel_cfg=toy_mel_config)
    assert (tmp_path / "flat.ckpt").read_bytes() == (tmp_path / "loop.ckpt").read_bytes()


def test_discrete_conditioning_mode(train_set, toy_mel_config):
    state = fresh_state(seed=1, discrete_schedule=linear_schedule(1e-4, 0.05, 50))
    _, losses = run_steps(state, train_set, toy_mel_config, 3)
    assert all(np.isfinite(losses))


def test_discrete_mode_requires_schedule(tmp_path):
    # a config is discrete exactly when it holds a schedule; an older checkpoint
    # whose metadata says discrete but carries none is refused
    path = tmp_path / "s.ckpt"
    save_state(path, fresh_state(discrete_schedule=linear_schedule(1e-4, 0.05, 50)),
               mel_cfg=toy_mel())
    tensors, meta = load_tensors(path)
    assert "discrete_schedule" in meta
    del meta["discrete_schedule"]
    meta["conditioning_mode"] = "discrete"
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

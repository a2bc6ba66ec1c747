"""Shared fixtures: toy analysis config, synthetic corpus, one trained model.

The trained toy model is session-scoped because three acceptance criteria and
several CLI tests all need a checkpoint that synthesizes sensibly; training it
once keeps the whole suite inside a CI-sized budget.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gradvoc.data import generate_corpus, load_corpus
from gradvoc import dsp
from gradvoc.dsp import MelConfig
from gradvoc.net import DenoiserModel, ModelConfig
from gradvoc.train import (
    TrainConfig,
    TrainState,
    make_batch,
    save_state,
    step_rng,
    train_step,
)
from oracles import evaluate_loss

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TOY_SR = 4000
TRAIN_STEPS = 1000
SEGMENT = 256


toy_mel = MelConfig.toy


@functools.cache
def load_perfbench(name):
    """Import ``perfbench/<name>.py`` as it is, once; its sibling imports resolve."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def no_shared_filterbanks():
    """Each test starts without the filterbanks that equal mel configs share,
    as a new process does, so it can count the builds its own calls make."""
    dsp._shared_filterbank.cache_clear()


@pytest.fixture(scope="session")
def toy_mel_config():
    return toy_mel()


@pytest.fixture(scope="session")
def corpus_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    train_dir = root / "train"
    held_dir = root / "held"
    generate_corpus(train_dir, n_utterances=8, n_samples=TOY_SR, sample_rate=TOY_SR, seed=0)
    generate_corpus(held_dir, n_utterances=4, n_samples=TOY_SR, sample_rate=TOY_SR, seed=100)
    return train_dir, held_dir


@pytest.fixture(scope="session")
def train_set(corpus_dirs):
    return load_corpus(corpus_dirs[0], TOY_SR)


@pytest.fixture(scope="session")
def held_set(corpus_dirs):
    return load_corpus(corpus_dirs[1], TOY_SR)


@pytest.fixture(scope="session")
def trained_toy(train_set, held_set, toy_mel_config):
    """Train the toy denoiser and report held-out loss before and after."""
    config = TrainConfig(
        segment_samples=SEGMENT,
        batch_size=4,
        learning_rate=2e-3,
        max_steps=TRAIN_STEPS,
        seed=0,
    )
    state = TrainState(model=DenoiserModel(ModelConfig.toy(), seed=0), config=config)
    held_batch = make_batch(held_set, np.random.default_rng(999), 8, SEGMENT, toy_mel_config)
    loss_before = evaluate_loss(state.model, held_batch, config)
    for step in range(TRAIN_STEPS):
        rng = step_rng(config.seed, step)
        batch = make_batch(train_set, rng, config.batch_size, SEGMENT, toy_mel_config)
        state, _ = train_step(state, batch, rng)
    loss_after = evaluate_loss(state.model, held_batch, config)
    return {
        "state": state,
        "held_batch": held_batch,
        "loss_before": loss_before,
        "loss_after": loss_after,
    }


@pytest.fixture(scope="session")
def toy_checkpoint(trained_toy, toy_mel_config, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "toy.ckpt"
    save_state(path, trained_toy["state"], mel_cfg=toy_mel_config)
    return path

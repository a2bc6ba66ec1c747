"""Training loop: batch assembly, noise-level sampling, loss, optimization.

Each step draws a continuous noise level from the hierarchical prior (or a
uniform discrete index in compatibility mode), diffuses the clean segments in
closed form, and takes one adaptive-moment gradient step on the mean L1
distance between the drawn and predicted noise.

Determinism contract: the step-k randomness comes from a generator seeded
with (seed, k), so restoring a checkpoint reproduces the exact loss sequence
of an uninterrupted run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, load_tensors, save_tensors
from .diffusion import forward_diffuse
from .dsp import MelConfig, Waveform, mel_spectrogram
from .net import DBLOCK_DILATIONS, LEAKY_SLOPE, POSITIONAL_SCALE, DenoiserModel, ModelConfig
from .schedule import (
    NoiseSchedule,
    default_training_prior,
    sample_noise_level,
    schedule_from_text,
    schedule_to_text,
)
from .tensor import Tensor

__all__ = ["TrainConfig", "TrainState", "TrainError", "TrainConfigError", "TrainDataError",
           "make_batch", "train_step", "run_training", "save_state", "load_state"]

log = logging.getLogger(__name__)

# Adam moment decays and epsilon, and the global gradient-norm clip
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 1.0


class TrainError(RuntimeError):
    """Training cannot go on: a non-finite loss, or one of the subclasses below."""


class TrainConfigError(TrainError):
    """A setting out of range, or one the model or mel analysis cannot use."""


class TrainDataError(TrainError):
    """A dataset with no utterance one segment long."""


@dataclass
class TrainConfig:
    training_prior: NoiseSchedule = field(default_factory=default_training_prior)
    batch_size: int = 4
    segment_samples: int = 7200
    learning_rate: float = 1e-4
    max_steps: int = 1000
    seed: int = 0
    discrete_schedule: NoiseSchedule | None = None  # None: continuous conditioning
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        for key, least in (("batch_size", 1), ("segment_samples", 1), ("max_steps", 0),
                           ("seed", 0), ("checkpoint_every", 0)):
            value = getattr(self, key)
            if value < least:
                raise TrainConfigError(f"{key} must be >= {least}, got {value}")
        if not 0.0 < self.learning_rate < np.inf:
            raise TrainConfigError(f"learning_rate must be in (0, inf), got {self.learning_rate}")


@dataclass
class TrainState:
    model: DenoiserModel
    config: TrainConfig
    step: int = 0
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)


def _usable_utterances(dataset: list[Waveform], segment_samples: int) -> list[Waveform]:
    """The utterances at least one segment long; warns once per shorter one."""
    if not dataset:
        raise TrainDataError("empty dataset")
    usable = [utt for utt in dataset if len(utt) >= segment_samples]
    if not usable:
        raise TrainDataError("no utterance is at least one segment long")
    for utt in dataset:
        if len(utt) < segment_samples:
            log.warning("skipping %0.3fs utterance shorter than one %d-sample segment",
                        utt.duration, segment_samples)
    return usable


def make_batch(
    dataset: list[Waveform],
    rng: np.random.Generator,
    batch_size: int,
    segment_samples: int,
    mel_cfg: MelConfig,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Uniformly crop mel-frame-aligned segments and their ground-truth mels.

    Utterances shorter than one segment are skipped with a warning.
    """
    hop = mel_cfg.hop_length
    if segment_samples % hop != 0:
        raise TrainConfigError(
            f"segment of {segment_samples} samples not divisible by hop {hop}"
        )
    usable = _usable_utterances(dataset, segment_samples)
    batch = []
    for _ in range(batch_size):
        utt = usable[int(rng.integers(len(usable)))]
        max_frame_offset = (len(utt) - segment_samples) // hop
        offset = hop * int(rng.integers(max_frame_offset + 1))
        y0 = utt.samples[offset : offset + segment_samples]
        mel = mel_spectrogram(Waveform(y0, utt.sample_rate), mel_cfg)
        batch.append((y0, mel.values))
    return batch


def _draw_noise_level(config: TrainConfig, rng: np.random.Generator) -> float:
    if config.discrete_schedule is None:
        return sample_noise_level(config.training_prior, rng)
    sched = config.discrete_schedule
    n = int(rng.integers(1, len(sched) + 1))
    return float(np.sqrt(sched.alpha_bars[n - 1]))


def _batch_loss(model: DenoiserModel, batch, config: TrainConfig, rng) -> Tensor:
    """Build the loss graph for one batch (mean L1 over samples and batch)."""
    per_item = []
    for idx, (y0, mel) in enumerate(batch):
        sqrt_abar = _draw_noise_level(config, rng)
        eps = rng.standard_normal(len(y0))
        y_noisy = forward_diffuse(y0, sqrt_abar, eps)
        pred = model.forward(y_noisy, mel, sqrt_abar)
        target = Tensor(eps.reshape(1, -1).astype(model.config.np_dtype))
        item_loss = T.mean_abs(T.sub(pred, target))
        if not np.isfinite(item_loss.data):
            raise TrainError(f"non-finite loss at batch index {idx}")
        per_item.append(item_loss)
    total = per_item[0]
    for item in per_item[1:]:
        total = T.add(total, item)
    return T.scale(total, 1.0 / len(per_item))


def train_step(
    state: TrainState, batch, rng: np.random.Generator
) -> tuple[TrainState, float]:
    """One optimization step; returns the updated state and the batch loss."""
    config = state.config
    model = state.model
    params = model.parameters()
    for p in params.values():
        p.grad = None

    loss = _batch_loss(model, batch, config, rng)
    loss.backward()

    # global-norm clip in float64, then adam update
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = np.sqrt(sq)
    clip = min(1.0, CLIP_NORM / norm) if norm > CLIP_NORM else 1.0

    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad * clip
        m = state.adam_m.setdefault(name, np.zeros_like(p.data))
        v = state.adam_v.setdefault(name, np.zeros_like(p.data))
        m += (1 - b1) * (g - m)
        v += (1 - b2) * (g * g - v)
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p.data = p.data - config.learning_rate * m_hat / (
            np.sqrt(v_hat) + ADAM_EPS
        )
    return state, float(loss.data)


def step_rng(seed: int, step: int) -> np.random.Generator:
    """Generator for one training step, derived from (seed, step)."""
    return np.random.default_rng([seed, step])


def run_training(
    state: TrainState,
    dataset: list[Waveform],
    mel_cfg: MelConfig,
    loss_log_path=None,
    checkpoint_dir=None,
) -> TrainState:
    """Check the segment, corpus and log directory, then train, logging loss as CSV."""
    config = state.config
    spf = state.model.config.samples_per_frame
    if config.segment_samples % spf != 0:
        raise TrainConfigError(
            f"segment_samples {config.segment_samples} not divisible by the "
            f"model's {spf} samples per mel frame"
        )
    if mel_cfg.hop_length != spf:
        raise TrainConfigError(
            f"mel hop {mel_cfg.hop_length} != model samples-per-frame {spf}"
        )
    usable = _usable_utterances(dataset, config.segment_samples)
    if checkpoint_dir:
        ckpt_dir = Path(checkpoint_dir).resolve()
        # the loss log's directory must exist, or be one this mkdir makes
        log_dir = Path(loss_log_path).resolve().parent if loss_log_path else None
        if log_dir and not (log_dir.is_dir() or log_dir in (ckpt_dir, *ckpt_dir.parents)):
            raise FileNotFoundError(f"loss_log {loss_log_path}: no directory {log_dir}")
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    log_fh = open(loss_log_path, "a") if loss_log_path else None
    if log_fh and state.step == 0:
        log_fh.write("step,loss,wall_time_s\n")
    t0 = time.monotonic()
    try:
        while state.step < config.max_steps:
            rng = step_rng(config.seed, state.step + 1)
            batch = make_batch(
                usable, rng, config.batch_size, config.segment_samples, mel_cfg
            )
            state, loss = train_step(state, batch, rng)
            if log_fh:
                log_fh.write(f"{state.step},{loss!r},{time.monotonic() - t0:.3f}\n")
                log_fh.flush()
            if (
                checkpoint_dir
                and config.checkpoint_every
                and state.step % config.checkpoint_every == 0
            ):
                ckpt = Path(checkpoint_dir) / f"step{state.step:07d}.ckpt"
                save_state(ckpt, state, mel_cfg=mel_cfg)
    finally:
        if log_fh:
            log_fh.close()
    return state


# -- state persistence ---------------------------------------------------------
# The only code that knows the checkpoint schema: a tensor archive of
# param/<name> (plus adam_m/, adam_v/ moments) and the metadata below.

# TrainConfig fields stored at the top level of the metadata, not under "train"
_TOP_LEVEL_FIELDS = ("training_prior", "discrete_schedule")
_REQUIRED_META = ("model_config", "training_prior", "conditioning_mode", "train", "step")


def save_state(path, state: TrainState, mel_cfg: MelConfig | None = None) -> None:
    tensors = {f"param/{k}": v.data for k, v in state.model.parameters().items()}
    tensors.update({f"adam_m/{k}": v for k, v in state.adam_m.items()})
    tensors.update({f"adam_v/{k}": v for k, v in state.adam_v.items()})
    config = state.config
    meta = {
        "step": state.step,
        "model_config": asdict(state.model.config),
        "conditioning_mode": "continuous" if config.discrete_schedule is None else "discrete",
        "training_prior": schedule_to_text(config.training_prior),
        "train": {
            f.name: getattr(config, f.name)
            for f in fields(TrainConfig)
            if f.name not in _TOP_LEVEL_FIELDS
        },
    }
    if config.discrete_schedule is not None:
        meta["discrete_schedule"] = schedule_to_text(config.discrete_schedule)
    if mel_cfg is not None:
        meta["mel_config"] = asdict(mel_cfg)
    save_tensors(path, tensors, meta=meta)


# Keys that archives written before these settings were derived or fixed still
# carry.  Each must hold the value in use: the config's property of that name
# (the DBlock lists), or else the constant given here.
_RETIRED = {
    ModelConfig: {"dblock_channels": None, "dblock_factors": None,
                  "dblock_dilations": DBLOCK_DILATIONS, "positional_scale": POSITIONAL_SCALE,
                  "leaky_slope": LEAKY_SLOPE},
    TrainConfig: {"adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_eps": ADAM_EPS,
                  "clip_norm": CLIP_NORM},
}


def _config_from_meta(cls, meta: dict, **extra):
    """``cls`` from its JSON form, where tuples came back as lists."""

    def tup(v):
        return tuple(map(tup, v)) if isinstance(v, list) else v

    values = {k: tup(v) for k, v in meta.items()}
    retired = {k: values.pop(k) for k in _RETIRED[cls] if k in values}
    config = cls(**values, **extra)
    for key, value in retired.items():
        expected = getattr(config, key, _RETIRED[cls][key])
        if value != expected:
            raise ValueError(f"{key} = {value!r}, but this version uses {expected!r}")
    return config


def load_state(path) -> tuple[TrainState, MelConfig | None]:
    """Restore a checkpoint written by ``save_state``.

    Raises CheckpointError unless the archive carries every metadata key and
    exactly the model's parameters, each with the model's shape.
    """
    arrays, meta = load_tensors(path)
    missing = [key for key in _REQUIRED_META if key not in meta]
    if missing:
        raise CheckpointError(f"{path}: not a model checkpoint (no {', '.join(missing)})")
    try:
        model = DenoiserModel(_config_from_meta(ModelConfig, meta["model_config"]), seed=None)
        mode = meta["conditioning_mode"]  # a continuous one's stray schedule is ignored
        discrete = meta.get("discrete_schedule") if mode == "discrete" else None
        if mode not in ("continuous", "discrete") or (mode == "discrete" and not discrete):
            raise ValueError(f"conditioning_mode {mode!r}: want 'continuous', or 'discrete' "
                             "with a discrete_schedule")
        config = _config_from_meta(
            TrainConfig, meta["train"],
            training_prior=schedule_from_text(meta["training_prior"]),
            discrete_schedule=schedule_from_text(discrete) if discrete else None,
        )
        step = int(meta["step"])
        mel_cfg = MelConfig(**meta["mel_config"]) if "mel_config" in meta else None
    except (AttributeError, TypeError, ValueError, TrainError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint metadata: {exc}") from exc

    params = model.parameters()
    groups = {"param": {}, "adam_m": {}, "adam_v": {}}
    for key, value in arrays.items():
        kind, _, name = key.partition("/")
        if kind not in groups or name not in params:
            raise CheckpointError(f"{path}: unexpected entry {key!r} for this model")
        if value.shape != params[name].shape:
            raise CheckpointError(
                f"{path}: {key} has shape {value.shape}, not {params[name].shape}"
            )
        groups[kind][name] = value.astype(model.config.np_dtype)
    absent = sorted(set(params) - set(groups["param"]))
    if absent:
        raise CheckpointError(
            f"{path}: {len(absent)} model parameter(s) missing, e.g. param/{absent[0]}"
        )
    for name, value in groups["param"].items():
        params[name].data = value
    state = TrainState(
        model=model, config=config, step=step,
        adam_m=groups["adam_m"], adam_v=groups["adam_v"],
    )
    return state, mel_cfg

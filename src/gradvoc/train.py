"""Training loop: batch assembly, noise-level sampling, loss, optimization.

Each step draws, for every segment of the batch, a continuous noise level
from the hierarchical prior (or a uniform discrete index in compatibility
mode), diffuses the clean segments in closed form, and takes one
adaptive-moment gradient step on the mean L1 distance between the drawn and
predicted noise.  The batch runs stacked, through one forward and one
backward.

The optimizer works on a flat store that the ``TrainState`` builds on its
first step: one contiguous vector each for the parameter values, their
gradients and the two Adam moments, in ``Module.parameters()`` walk order.
Each parameter's ``data`` and ``grad`` are views into it, so backward adds
into the store, and zeroing the gradients, the norm clip and the Adam update
are a few whole-vector operations.  Loading and synthesis never build it.

Determinism contract: the step-k randomness comes from a generator seeded
with (seed, k), so restoring a checkpoint reproduces the exact loss sequence
of an uninterrupted run.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from sys import maxsize

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, is_int, is_real, load_tensors, save_tensors
from .diffusion import forward_diffuse
from .dsp import MelConfig, Waveform, log_mel
from .dsp import mel_spectrogram  # noqa: F401  a name perfbench's traced run wraps here
from .net import DBLOCK_DILATIONS, POSITIONAL_SCALE, DenoiserModel, ModelConfig
from .schedule import (
    NoiseSchedule,
    default_training_prior,
    sample_noise_level,
    schedule_from_text,
    schedule_to_text,
)
from .tensor import Tensor

__all__ = ["TrainConfig", "TrainState", "TrainError", "TrainConfigError", "TrainDataError",
           "check_mel_config", "check_train_config", "make_batch", "train_step", "run_training",
           "save_state", "load_state"]

log = logging.getLogger(__name__)

# Adam moment decays and epsilon, and the global gradient-norm clip
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 1.0
# largest batch a config may ask for, sixteen times the paper's 256: refused
# before ``make_batch`` allocates its crops
MAX_BATCH_SIZE = 4096


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
        for key, least, most in (("batch_size", 1, MAX_BATCH_SIZE),
                                 ("segment_samples", 1, maxsize), ("max_steps", 0, maxsize),
                                 ("seed", 0, maxsize), ("checkpoint_every", 0, maxsize)):
            value = getattr(self, key)
            if not is_int(value, least, most):
                raise TrainConfigError(f"{key} must be an integer in [{least}, {most}], "
                                       f"got {value!r}")
        if not (is_real(self.learning_rate) and self.learning_rate > 0.0):
            raise TrainConfigError(f"learning_rate must be a positive finite number, "
                                   f"got {self.learning_rate!r}")


def check_mel_config(model_cfg: ModelConfig, mel_cfg: MelConfig) -> None:
    """Raise TrainConfigError unless ``mel_cfg`` makes the mels the model takes."""
    spf, bins = model_cfg.samples_per_frame, model_cfg.mel_bins
    if mel_cfg.hop_length != spf:
        raise TrainConfigError(f"mel hop {mel_cfg.hop_length} != model samples-per-frame {spf}")
    if mel_cfg.n_mels != bins:
        raise TrainConfigError(f"mel analysis has {mel_cfg.n_mels} bins, the model takes {bins}")


def check_train_config(model_cfg: ModelConfig, config: TrainConfig, mel_cfg: MelConfig) -> None:
    """Raise TrainConfigError unless ``config``'s segment and ``mel_cfg`` suit
    a ``model_cfg`` model: the checks that need neither the model nor the
    corpus."""
    spf = model_cfg.samples_per_frame
    if config.segment_samples % spf != 0:
        raise TrainConfigError(
            f"segment_samples {config.segment_samples} not divisible by the "
            f"model's {spf} samples per mel frame"
        )
    if config.segment_samples < mel_cfg.win_length:
        raise TrainConfigError(f"segment_samples {config.segment_samples} is shorter than "
                               f"the {mel_cfg.win_length}-sample mel window")
    check_mel_config(model_cfg, mel_cfg)


class _FlatStore:
    """The values, gradients and Adam moments of every parameter, one
    contiguous vector each, laid out in walk order.  Each parameter's ``data``
    and ``grad`` are reshaped views into the first two, and its entries in
    the moment dicts become views into the last two, so backward adds into
    the store and the optimizer step runs on whole vectors."""

    def __init__(self, params: dict[str, Tensor], adam_m: dict, adam_v: dict, dtype):
        size = sum(p.data.size for p in params.values())
        self.values, self.grad, self.m, self.v = (np.zeros(size, dtype) for _ in range(4))
        self.spans, self.views = [], []
        start = 0
        for name, p in params.items():
            span = slice(start, start + p.data.size)
            start = span.stop
            data, grad, m, v = (flat[span].reshape(p.shape)
                                for flat in (self.values, self.grad, self.m, self.v))
            data[...] = p.data
            if name in adam_m:
                m[...] = adam_m[name]
            if name in adam_v:
                v[...] = adam_v[name]
            p.data, p.grad = data, grad
            adam_m[name], adam_v[name] = m, v
            self.spans.append(span)
            self.views.append((p, data, grad))

    def stale(self) -> bool:
        """True once some parameter's data or grad is no longer its view."""
        for p, data, grad in self.views:
            if p.data is not data or p.grad is not grad:
                return True
        return False


@dataclass
class TrainState:
    """The model, its settings, the step count and the Adam moments by
    parameter name.  Training keeps the parameters and moments in a flat
    store, built on the first step; from then on ``adam_m`` and ``adam_v``
    hold views into it."""

    model: DenoiserModel
    config: TrainConfig
    step: int = 0
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    _store: _FlatStore | None = field(default=None, init=False, repr=False, compare=False)

    def flat_store(self) -> _FlatStore:
        """The store, rebuilt from the model when a caller rebound a parameter."""
        if self._store is None or self._store.stale():
            self._store = _FlatStore(self.model.parameters(), self.adam_m, self.adam_v,
                                     self.model.config.np_dtype)
        return self._store


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
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly crop mel-frame-aligned segments: the crops (batch_size,
    segment_samples) and their ground-truth mels (batch_size, bins, frames),
    from one ``log_mel`` of the crops.

    Utterances shorter than one segment are skipped with a warning; a drawn
    utterance at another rate than ``mel_cfg``'s raises ValueError.
    """
    hop = mel_cfg.hop_length
    if segment_samples % hop != 0:
        raise TrainConfigError(
            f"segment of {segment_samples} samples not divisible by hop {hop}"
        )
    usable = _usable_utterances(dataset, segment_samples)
    crops = np.empty((batch_size, segment_samples))
    for crop in crops:
        utt = usable[int(rng.integers(len(usable)))]
        mel_cfg.check_rate(utt.sample_rate)
        max_frame_offset = (len(utt) - segment_samples) // hop
        offset = hop * int(rng.integers(max_frame_offset + 1))
        crop[:] = utt.samples[offset : offset + segment_samples]
    return crops, log_mel(crops, mel_cfg)


def _draw_noise_level(config: TrainConfig, rng: np.random.Generator) -> float:
    if config.discrete_schedule is None:
        return sample_noise_level(config.training_prior, rng)
    sched = config.discrete_schedule
    return float(sched.ell[int(rng.integers(1, len(sched) + 1))])


def _batch_loss(model: DenoiserModel, batch, config: TrainConfig, rng) -> Tensor:
    """Build the loss graph for one ``make_batch`` batch: the mean L1 distance
    over every sample of every item, from one forward of the batch.

    Each item draws its noise level and then its noise, in batch order.
    """
    crops, mels = batch
    levels, eps = np.empty(len(crops)), np.empty(crops.shape)
    for i in range(len(crops)):
        levels[i] = _draw_noise_level(config, rng)
        eps[i] = rng.standard_normal(crops.shape[1])
    y_noisy = forward_diffuse(crops, levels[:, None], eps)
    pred = model.forward(y_noisy, mels, levels)
    diff = T.sub(pred, Tensor(eps[:, None, :].astype(model.config.np_dtype)))
    loss = T.mean_abs(diff)
    if not np.isfinite(loss.data):
        finite = np.isfinite(np.abs(diff.data).sum(axis=(1, 2)))
        raise TrainError(f"non-finite loss at batch index {int(np.argmin(finite))}")
    return loss


@np.errstate(over="ignore", invalid="ignore")  # as in the reverse chain
def train_step(
    state: TrainState, batch, rng: np.random.Generator
) -> tuple[TrainState, float]:
    """One optimization step; returns the updated state and the batch loss.

    A non-finite loss or gradient norm raises TrainError before any weight or
    moment changes, and a diverging step emits no numpy warning.
    """
    config = state.config
    store = state.flat_store()
    store.grad.fill(0)

    try:
        loss = _batch_loss(state.model, batch, config, rng)
    except TrainError as exc:  # name the step, as the gradient-norm error does
        raise TrainError(f"{exc} of step {state.step + 1}") from None
    loss.backward()

    # global-norm clip in float64, summed per parameter in walk order, then adam
    squares = store.grad.astype(np.float64) ** 2
    sq = 0.0
    for span in store.spans:
        sq += float(squares[span].sum())
    norm = math.sqrt(sq)  # a Python float: Adam runs in the store's dtype, clipped or not
    if not math.isfinite(norm):
        raise TrainError(f"non-finite gradient norm at step {state.step + 1}")
    clip = min(1.0, CLIP_NORM / norm) if norm > CLIP_NORM else 1.0

    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g = store.grad * clip
    m, v = store.m, store.v
    m += (1 - b1) * (g - m)
    v += (1 - b2) * (g * g - v)
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    store.values -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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
    """Check the segment, corpus and log directory, then train, appending
    each step's loss to the CSV log, which opens with a header when empty."""
    config = state.config
    check_train_config(state.model.config, config, mel_cfg)
    usable = _usable_utterances(dataset, config.segment_samples)
    if checkpoint_dir:
        ckpt_dir = Path(checkpoint_dir).resolve()
        # the loss log's directory must exist, or be one this mkdir makes
        log_dir = Path(loss_log_path).resolve().parent if loss_log_path else None
        if log_dir and not (log_dir.is_dir() or log_dir in (ckpt_dir, *ckpt_dir.parents)):
            raise FileNotFoundError(f"loss_log {loss_log_path}: no directory {log_dir}")
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    log_fh = open(loss_log_path, "a") if loss_log_path else None
    if log_fh and log_fh.tell() == 0:  # a new or empty log; rows follow any others
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
_REQUIRED_META = ("model_config", "training_prior", "train", "step", "mel_config")


def save_state(path, state: TrainState, mel_cfg: MelConfig) -> None:
    tensors = {f"param/{k}": v.data for k, v in state.model.parameters().items()}
    tensors.update({f"adam_m/{k}": v for k, v in state.adam_m.items()})
    tensors.update({f"adam_v/{k}": v for k, v in state.adam_v.items()})
    config = state.config
    meta = {
        "step": state.step,
        "model_config": asdict(state.model.config),
        "training_prior": schedule_to_text(config.training_prior),
        "train": {
            f.name: getattr(config, f.name)
            for f in fields(TrainConfig)
            if f.name not in _TOP_LEVEL_FIELDS
        },
    }
    if config.discrete_schedule is not None:
        meta["discrete_schedule"] = schedule_to_text(config.discrete_schedule)
    meta["mel_config"] = asdict(mel_cfg)
    save_tensors(path, tensors, meta=meta)


# Keys that archives written before these settings were derived or fixed still
# carry.  Each must hold the value in use: the config's property of that name
# (the DBlock lists), or else the constant given here.
_RETIRED = {
    ModelConfig: {"dblock_channels": None, "dblock_factors": None,
                  "dblock_dilations": DBLOCK_DILATIONS, "positional_scale": POSITIONAL_SCALE,
                  "leaky_slope": T.LEAKY_SLOPE},
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


def load_state(path) -> tuple[TrainState, MelConfig]:
    """Restore a checkpoint written by ``save_state``: the state and its mel analysis.

    Raises CheckpointError unless the archive carries every metadata key, a mel
    analysis the model takes and exactly its parameters, each with its shape.
    Parameters and moments in the model's dtype stay views of the archive's
    one buffer (``load_tensors``); others are converted.
    """
    arrays, meta = load_tensors(path)
    missing = [key for key in _REQUIRED_META if key not in meta]
    if missing:
        raise CheckpointError(f"{path}: not a model checkpoint (no {', '.join(missing)})")
    try:
        model = DenoiserModel(_config_from_meta(ModelConfig, meta["model_config"]), seed=None)
        # a run is discrete exactly when it holds a schedule; older archives
        # also name the mode, which must agree
        discrete = meta.get("discrete_schedule")
        mode = "continuous" if discrete is None else "discrete"
        if meta.get("conditioning_mode", mode) != mode:
            raise ValueError(f"conditioning_mode {meta['conditioning_mode']!r}, but the archive "
                             f"{'has no' if discrete is None else 'holds a'} discrete_schedule")
        config = _config_from_meta(
            TrainConfig, meta["train"],
            training_prior=schedule_from_text(meta["training_prior"]),
            discrete_schedule=None if discrete is None else schedule_from_text(discrete),
        )
        step = meta["step"]
        if not is_int(step):
            raise ValueError(f"step must be a non-negative integer, got {step!r}")
        mel_cfg = MelConfig(**meta["mel_config"])
        check_mel_config(model.config, mel_cfg)
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
        groups[kind][name] = value.astype(model.config.np_dtype, copy=False)
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
